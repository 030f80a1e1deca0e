"""qhb benchmark: four workloads, end-to-end metrics and per-layer traces.

    python3 bench/run.py --workload solve-small|solve-large|region|verify|all \
                         --seed N --seconds T --trace 0|1

Run it from the repository root; it imports qhb from ./src.  Each
workload runs in fresh worker processes (bench/worker.py) as a closed
loop with one caller.  With --trace 0 the run measures the end-to-end
metrics, untraced; with --trace 1 it runs the same requests untraced and
then traced, and reports the per-layer metrics and the tracing overhead,
then sends the workload's known-defect probe requests and reports how
many of them fail.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are a readable report.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import stats
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("solve-small", "solve-large", "region", "verify")
SETUP_REPEATS = 5        # fresh workers timed for setup_s; the median is reported
DEADLINE_S = 170.0       # a workload's whole run, set-up included
P90_MIN_REQUESTS = 100   # at least ten samples must lie beyond the p90
NPROC = len(os.sched_getaffinity(0))
# One sampler thread: the optimisation targets are per-point work and
# solver iterations, not parallel sampling, and one thread keeps spans
# strictly nested, which the self-time arithmetic relies on.  OpenBLAS
# gets one thread per CPU up to two: solver results depend on the BLAS
# thread count, and the measured inputs were checked to succeed with two.
THREADS = {"QHB_THREADS": "1", "OPENBLAS_NUM_THREADS": str(min(2, NPROC))}

END_TO_END = {
    "setup_s": "s",
    "latency_ms_p50": "ms",
    "items_per_s": "items/s",
    "peak_rss_mb": "MB",
}
# printed in the report but not gated: they do not exist on every workload
# (p90 needs 100 requests, s_to_err_1e-3 is region only) or can be 0
REPORT_ONLY = {"latency_ms_p90": "ms", "failed_ratio": "1", "s_to_err_1e-3": "s"}

_LAYER_UNITS = {
    "calls": "calls/req", "self_ms": "ms/req", "products": "products/req",
    "bytes_computed": "B/req", "points": "points/req", "accepted": "points/req",
    "accept_ratio": "1", "iters_mean": "iters", "iters_max": "iters",
    "ms_per_iter": "ms", "not_converged": "1/req", "s": "s/req",
}


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {name: _LAYER_UNITS[name.rsplit(".", 1)[1]]
             for name in tracing.layer_metrics(tracing.Tracer().arrays(), 1)}
    units.update({"qhb.import_s": "s", "trace.overhead_ms_p50": "ms", "trace.requests": "count",
                  "defect_probe.requests": "count", "defect_probe.failed": "count"})
    return units


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "cpu": cpu, "nproc": NPROC, **THREADS}


def _worker(workload: str, seed: int, deadline: float, *extra: str) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0.0:
        raise TimeoutError("benchmark deadline passed")
    env = {**os.environ, **THREADS, "PYTHONPATH": str(SRC)}
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", workload, "--seed", str(seed), *extra]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=remaining)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(extra)} exited with {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if Path(report["qhb_file"]).resolve().parent.parent != SRC:
        raise RuntimeError(f"worker imported qhb from {report['qhb_file']}, not {SRC}")
    return report


def latencies_ms(records) -> list:
    """Request latencies in ms; a failed request counts as +inf."""
    return [1e3 * r[0] if r[1] is None else math.inf for r in records]


def end_to_end(records, setups, peak_rss_mb: float) -> dict:
    """All end-to-end metrics (gated and report-only) of one untraced run.

    `records` are worker request records [seconds, reason, wrong,
    items completed, err]; `setups` the worker reports whose import and
    cold request set setup_s."""
    lat = latencies_ms(records)
    busy = math.fsum(r[0] for r in records)
    done = sum(r[3] for r in records)
    m = {
        "setup_s": statistics.median(s["import_s"] + s["cold_s"] for s in setups),
        "latency_ms_p50": stats.percentile(lat, 50),
        "items_per_s": done / busy,
        "peak_rss_mb": peak_rss_mb,
        "failed_ratio": sum(r[1] is not None for r in records) / len(records),
    }
    if len(records) >= P90_MIN_REQUESTS:
        m["latency_ms_p90"] = stats.percentile(lat, 90)
    # seconds to 1e-3 accuracy, from geodesic-ball successes: t * (err/1e-3)^2
    costs = [r[0] * (r[4] / 1e-3) ** 2 for r in records if r[1] is None and r[4]]
    if costs:
        m["s_to_err_1e-3"] = stats.geomean(costs)
    return m


def _failures(records) -> str:
    counts = Counter(r[1] for r in records if r[1] is not None)
    return ", ".join(f"{k}={v}" for k, v in sorted(counts.items())) or "none"


def _untraced(workload: str, seed: int, seconds: float, deadline: float):
    setups = [_worker(workload, seed, deadline, "--mode", "setup")
              for _ in range(SETUP_REPEATS - 1)]
    loop = _worker(workload, seed, deadline, "--mode", "loop", "--seconds", str(seconds))
    setups.append(loop)
    records = loop["records"]
    shown = end_to_end(records, setups, loop["peak_rss_mb"])
    correct = not any(r[2] for r in records + [s["cold"] for s in setups])
    failed = sum(r[1] is not None for r in records)
    notes = {
        "setup_s": f"median of {len(setups)} fresh workers",
        "latency_ms_p50": f"{len(records)} requests",
        "latency_ms_p90": f"{len(records)} requests",
        "failed_ratio": f"{failed} failed / {len(records)} attempted",
        "s_to_err_1e-3": "geometric mean over geodesic-ball successes",
    }
    lines = []
    for name, unit in {**END_TO_END, **REPORT_ONLY}.items():
        if name in shown:
            lines.append(f"{name:<16} {shown[name]:>14.6g} {unit:<8} {notes.get(name, '')}")
        elif name == "latency_ms_p90":
            lines.append(f"{name:<16} {'n/a':>14} {unit:<8} "
                         f"fewer than {P90_MIN_REQUESTS} requests")
        elif name == "s_to_err_1e-3" and workload == "region":
            lines.append(f"{name:<16} {'n/a':>14} {unit:<8} no geodesic-ball successes")
    return loop, records, shown, {k: shown[k] for k in END_TO_END}, correct, lines


def _traced(workload: str, seed: int, seconds: float, deadline: float):
    base = _worker(workload, seed, deadline, "--mode", "loop", "--seconds", str(seconds / 2))
    k = len(base["records"])
    worker = _worker(workload, seed, deadline, "--mode", "traced", "--requests", str(k),
                     "--spans", str(OUT / f"spans-{workload}.npz"))
    records = worker["records"]
    shown = dict(worker["layers"])
    shown["qhb.import_s"] = worker["import_s"]
    shown["trace.overhead_ms_p50"] = stats.percentile(latencies_ms(records), 50) \
        - stats.percentile(latencies_ms(base["records"]), 50)
    shown["trace.requests"] = k
    probes = _worker(workload, seed, deadline, "--mode", "probe")["records"]
    shown["defect_probe.requests"] = len(probes)
    shown["defect_probe.failed"] = sum(r[1] is not None for r in probes)
    # the layer self times of one request cannot exceed its duration
    within = all(s <= r[0] + 1e-9 for s, r in zip(worker["self_sums"], records))
    correct = within and not any(r[2] for r in records + base["records"] + probes)
    units = per_layer_units()
    lines = [f"{name:<48} {value:>14.6g} {units[name]}" for name, value in shown.items()]
    lines.append(f"spans: {worker['spans']} in {k} requests; layer self times "
                 f"{'within' if within else 'EXCEED'} request times")
    lines.append(f"known-defect probes: {shown['defect_probe.failed']} of {len(probes)} "
                 f"fail ({_failures(probes)}); not part of attempted/failed")
    return worker, records, shown, shown, correct, lines


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Run one workload, print its report and result line; returns the result."""
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    worker, records, shown, metrics, correct, lines = \
        (_traced if traced else _untraced)(workload, seed, seconds, deadline)
    units = per_layer_units() if traced else END_TO_END
    env = {**environment(), "numpy": worker["numpy"], "blas": worker["blas"]}
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": sum(r[1] is not None for r in records),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    with open(OUT / f"{workload}-seed{seed}-trace{int(traced)}.json", "w", encoding="utf-8") as fh:
        json.dump({"seed": seed, "seconds": seconds, "env": env, "result": result,
                   "report": shown, "records": records}, fh)
    print(f"# qhb benchmark: workload={workload} seed={seed} seconds={seconds:g} "
          f"trace={int(traced)}")
    print("# env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print("\n".join(lines))
    print(f"failures: {_failures(records)}")
    print(json.dumps(result), flush=True)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="qhb benchmark")
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)
    if not (SRC / "qhb" / "__init__.py").is_file():
        print(f"error: qhb sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            run_workload(workload, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
