"""Tests of the benchmark's own code: generators, statistics, span
arithmetic, failure accounting and the BENCHMARK.json metric lists.

    python3 -m pytest bench/tests -q
"""

import contextlib
import itertools
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import qhb  # noqa: E402
import qhb.verify  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _first(workload, seed, k):
    return list(itertools.islice(workloads.requests(workload, seed), k))


def _same(a, b):
    for field in ("points", "weights", "center"):
        x, y = getattr(a, field), getattr(b, field)
        if (x is None) != (y is None) or (x is not None and not np.array_equal(x, y)):
            return False
    return (a.n, a.items, a.region, a.radius, a.seed) == (b.n, b.items, b.region, b.radius, b.seed)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(workload):
    a, b = _first(workload, 7, 16), _first(workload, 7, 16)
    assert all(_same(x, y) for x, y in zip(a, b))
    assert not all(_same(x, y) for x, y in zip(a, _first(workload, 8, 16)))
    assert _same(workloads.cold_request(workload, 7), workloads.cold_request(workload, 7))


def test_solve_blocks_hold_the_defined_mix():
    for workload, dims, lo, hi in (("solve-small", (1, 2, 3), 2, 256),
                                   ("solve-large", (1, 2, 3, 4), 1e3, 1e5)):
        k = workloads.block_size(workload)
        block = _first(workload, 3, k)
        assert all(sum(r.n == n for r in block) >= k // len(dims) for n in dims)
        sizes = [r.items * (r.n if workload == "solve-small" else 1) for r in block]
        assert lo * 0.5 <= min(sizes) and max(sizes) <= hi * 1.5
        edge = sum(float(np.max(np.linalg.norm(r.points, axis=(1, 2)))) > 0.9 for r in block)
        assert edge == k // 4
        assert all(0.5 <= r.weights.min() and r.weights.max() <= 2.0 for r in block)


@pytest.mark.parametrize("workload", ["solve-large", "region"])
def test_blocks_of_short_runs_are_alike(workload):
    def design(r):
        edge = float(np.max(np.linalg.norm(r.points, axis=(1, 2)))) > 0.9 if r.points is not None \
            else round(float(np.linalg.norm(r.center)), 12)
        return (r.n, r.items, r.region, r.radius, edge)

    k = workloads.block_size(workload)
    two = _first(workload, 4, 2 * k)
    assert sorted(map(design, two[:k])) == sorted(map(design, two[k:]))


def test_region_block_holds_the_defined_mix():
    block = _first("region", 3, workloads.block_size("region"))
    kinds = sorted((r.region, r.n) for r in block)
    assert kinds == sorted([("geodesic_ball", 1)] * 4 + [("geodesic_ball", 2)] * 3
                           + [("euclidean_ball", 1), ("euclidean_ball", 2)])
    for r in block:
        assert float(np.linalg.norm(r.center)) <= 0.5
        assert 1.0 <= r.radius <= 2.0 if r.region == "geodesic_ball" else 0.2 <= r.radius <= 0.45


def test_verify_seeds_come_from_the_pool():
    seeds = [r.seed for r in _first("verify", 5, 2 * len(workloads.VERIFY_SEEDS))]
    assert sorted(seeds) == sorted(workloads.VERIFY_SEEDS * 2)
    assert workloads.cold_request("verify", 5).seed in workloads.VERIFY_SEEDS
    assert not set(workloads.VERIFY_PROBE_SEEDS) & set(workloads.VERIFY_SEEDS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_probe_requests_do_not_depend_on_the_seed(workload):
    a, b = workloads.probe_requests(workload), workloads.probe_requests(workload)
    assert a and all(_same(x, y) for x, y in zip(a, b))


def test_probe_requests_trip_the_known_defects():
    for workload in ("solve-small", "region"):
        reasons = []
        for req in workloads.probe_requests(workload):
            try:
                result = workloads.execute(qhb, req, lambda name: contextlib.nullcontext())
            except Exception as exc:  # noqa: BLE001 - counted like the worker does
                result = exc
            outcome = workloads.check(qhb, req, result)
            assert not outcome.wrong
            reasons.append(outcome.reason)
        assert any(reasons), workload


def test_percentile_interpolates_and_propagates_inf():
    assert stats.percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert stats.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 90) == pytest.approx(4.6)
    assert stats.percentile([1.0, 2.0, math.inf], 50) == 2.0
    assert stats.percentile([1.0, math.inf], 50) == math.inf
    assert stats.percentile([3.0], 90) == 3.0


def test_geomean_and_quartile_spread():
    assert stats.geomean([1.0, 4.0]) == pytest.approx(2.0)
    assert stats.geomean([2.0, 8.0, 4.0]) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        stats.geomean([1.0, 0.0])
    assert stats.quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3.0)


def _spans(rows, names):
    """Span arrays from (name, parent, request, t0, t1, a, b) rows."""
    cols = list(zip(*rows))
    return {
        "names": np.array(names), "name": np.array(cols[0]), "parent": np.array(cols[1]),
        "request": np.array(cols[2]), "t0": np.array(cols[3], dtype=float),
        "t1": np.array(cols[4], dtype=float), "a": np.array(cols[5], dtype=float),
        "b": np.array(cols[6], dtype=float),
    }


def test_self_time_of_nested_spans():
    names = ["barycenter.solve", "mobius.hua_apply", "quaternions.qmul", "quaternions.inner"]
    spans = _spans([
        (0, -1, 0, 0.0, 10.0, 4, 0),    # solve: 10 long, 4 iterations
        (1, 0, 0, 1.0, 3.0, 5, 0),      # hua_apply inside solve, 5 points
        (3, 0, 0, 4.0, 8.0, 0, 0),      # inner inside solve
        (2, 2, 0, 5.0, 6.0, 3, 96),     # qmul inside inner: 3 products, 96 bytes
        (0, -1, 1, 20.0, 21.0, 2, 1),   # second request: solve, not converged
    ], names)
    dur = spans["t1"] - spans["t0"]
    assert tracing.self_times(spans["parent"], dur).tolist() == [4.0, 2.0, 3.0, 1.0, 1.0]
    assert tracing.request_self_sums(spans, 2).tolist() == [10.0, 1.0]
    m = tracing.layer_metrics(spans, 2)
    assert m["barycenter.solve.iters_mean"] == 3.0
    assert m["barycenter.solve.iters_max"] == 4.0
    assert m["barycenter.solve.ms_per_iter"] == pytest.approx(1e3 * 11.0 / 6.0)
    assert m["barycenter.solve.not_converged"] == 0.5
    assert m["quaternions.inner.self_ms"] == pytest.approx(1e3 * 3.0 / 2)
    assert m["quaternions.qmul.products"] == 1.5
    assert m["quaternions.qmul.bytes_computed"] == 48.0
    assert m["mobius.hua_apply.points"] == 2.5
    assert m["geometry.distance.calls"] == 0.0


def test_tracer_wraps_every_binding_and_restores():
    original = qhb.barycenter.solve
    spec = qhb.geodesic_ball([[0.1, 0.0, 0.0, 0.0]], 1.0)
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        assert qhb.regions.solve is not original and qhb.solve is qhb.barycenter.solve
        tracer.current_request = 0
        qhb.region_barycenter(spec, 4096, 1)
        tracer.current_request = -1
    finally:
        restore()
    assert qhb.regions.solve is original and qhb.solve is original
    spans = tracer.arrays()
    names = [spans["names"][i] for i in spans["name"]]
    assert names[0] == "regions.region_barycenter"
    solve_idx = names.index("barycenter.solve")
    assert names[spans["parent"][solve_idx]] == "regions.region_barycenter"
    assert "geometry.distance" in names and "regions.sample_region" in names


def test_failure_accounting_catches_non_convergence():
    req = _first("solve-large", 1, 1)[0]
    data = qhb.WeightedPoints(points=req.points, weights=req.weights)
    res = qhb.solve(data, qhb.SolverConfig(max_iters=1))
    assert workloads.check(qhb, req, (data, res)).reason == "not_converged"
    assert workloads.check(qhb, req, (data, qhb.solve(data))).reason is None


def test_failure_accounting_catches_empty_region():
    req = workloads.Request(workload="region", n=3, items=64, region="geodesic_ball",
                            center=np.zeros((3, 4)), radius=0.5, seed=1)
    with pytest.raises(qhb.EmptyRegion) as info:
        qhb.region_barycenter(qhb.geodesic_ball(req.center, req.radius), 64, 1)
    outcome = workloads.check(qhb, req, info.value)
    assert outcome.reason == "EmptyRegion" and not outcome.wrong


def test_failed_requests_count_in_end_to_end_metrics():
    records = [[0.010, None, False, 5, None], [0.020, "EmptyRegion", False, 0, None],
               [0.030, None, False, 5, 0.002], [0.040, "not_converged", False, 0, None]]
    setups = [{"import_s": 0.1, "cold_s": c} for c in (0.05, 0.01, 0.02)]
    m = run.end_to_end(records, setups, 40.0)
    assert m["failed_ratio"] == 0.5
    assert m["latency_ms_p50"] == math.inf  # two of four failed
    assert m["items_per_s"] == pytest.approx(10 / 0.1)
    assert m["setup_s"] == pytest.approx(0.12)
    assert m["s_to_err_1e-3"] == pytest.approx(0.030 * 4.0)
    assert "latency_ms_p90" not in m


def test_verify_requests_fail_on_nonzero_exit():
    req = workloads.Request(workload="verify", n=0, items=2000, seed=1)
    ok = "a   trials=  2000 max_error= 1.0e-16 tol=1.0e-12 pass\n" \
         "b   trials=    20 max_error= 2.0e-16 tol=1.0e-12 pass\n"
    bad = "a   trials=  2000 max_error= 2.0e-12 tol=1.0e-12 FAIL\n" \
          "b   trials=    20 max_error= 2.0e-16 tol=1.0e-12 pass\n"
    outcome = workloads.check(qhb, req, (1, bad + "2 checks, 1 passed (seed=1, trials=2000)"))
    assert (outcome.reason, outcome.items, outcome.wrong) == ("exit_1", 20, False)
    outcome = workloads.check(qhb, req, (0, ok + "2 checks, 2 passed (seed=1, trials=2000)"))
    assert (outcome.reason, outcome.items) == (None, 2020)
    assert workloads.check(qhb, req, (0, bad + "2 checks, 1 passed")).wrong
    assert workloads.check(qhb, req, (0, ok + "3 checks, 3 passed")).wrong


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert tracing.VERIFY_CHECKS == tuple(c.name for c in qhb.verify.CHECKS)


def test_run_prints_the_result_line():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "solve-small",
         "--seed", "3", "--seconds", "0.2", "--trace", "0"],
        cwd=BENCH.parent, stdout=subprocess.PIPE, text=True, timeout=120)
    assert proc.returncode == 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] % workloads.block_size("solve-small") == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
