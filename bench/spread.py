"""Run the benchmark once per seed and report each metric's spread.

    python3 bench/spread.py --workload region --seeds 1 2 3 4 5 --seconds 15

For every metric of the result line, and every report-only metric, it
prints the median over the runs and the quartile spread
(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4) gives
them.  Repeat a seed (`--seeds 3 3 3`) to see the run-to-run spread of
one input.  The values go to bench/out/spread-<workload>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import stats
from run import BENCH, OUT, ROOT, WORKLOADS


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)

    values: dict[str, list] = {}
    failed = attempted = 0
    for seed in args.seeds:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: run.py exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: result not correct", file=sys.stderr)
            return 1
        failed += result["failed"]
        attempted += result["attempted"]
        with open(OUT / f"{args.workload}-seed{seed}-trace{args.trace}.json", encoding="utf-8") as fh:
            report = json.load(fh)["report"]
        for name, value in report.items():
            values.setdefault(name, []).append(value)
        print(f"seed {seed}: " + ", ".join(f"{k}={v:.6g}" for k, v in report.items()
                                          if k in result["metrics"] or args.trace == 0),
              flush=True)

    summary = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        spread = stats.quartile_spread(vals) if len(vals) >= 2 and med else None
        summary[name] = {"median": med, "spread": spread, "values": vals}
        if args.trace == 0:
            shown = "n/a" if spread is None else f"{spread:.4f}"
            print(f"{name:<16} median {med:<14.6g} spread {shown}  ({len(vals)} runs)")
    print(f"failed {failed} / attempted {attempted}")
    with open(OUT / f"spread-{args.workload}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"seeds": args.seeds, "seconds": args.seconds, "failed": failed,
                   "attempted": attempted, "metrics": summary}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
