"""Time the solver's layers on fixed inputs and print one JSON object.

Usage:

    python scripts/layer_times.py SRC_DIR [--rounds R] [--reps K]

The source tree SRC_DIR (say, a checkout of the parent commit's src and
the working tree's src) is imported in a child process, so two trees are
compared by running the script once for each, alternating.  Timed, each
as the median over R rounds of the best of K calls:

* `WeightedPoints n=.. N=..`: building a `barycenter.WeightedPoints` (the
  checks, the copies and the working weights) for n in {1, 4} and N in
  {1e3, 1e5};
* `sweep n=.. N=..`: one `barycenter._sweep` (R, G and the Gram matrix of
  a weighted set at a point) for n in {1, 2, 4} and N in {1e3, 1e4, 1e5};
* `solve n=.. N=..`: the full default `solve` of such a set, with its
  count of kernel sweeps beside it: the `_sweep` calls away from the
  origin, where the kernel maps no point;
* `hua_apply block n=..`: one `mobius.hua_apply` of 8192 / n points, one
  block of the kernel's partition;
* `distance n=.. N=..`: one `geometry.distance` of N points to one point,
  for n in {1, 2, 4} and N in {1, 32, 1e3, 1e5};
* `stalled solve`: `solve` at tol = 1e-300 of a five-point set at n = 2,
  which ends "stalled"; its count of all `_sweep` calls is reported with
  it;
* `sampler chunk <ball> n=..`: one chunk of `regions.CHUNK` proposals
  (seed 3, chunk 0) of the geodesic balls B((0.3, 0.1, 0, 0), 1.5) and
  B(((0.2, 0.1, 0, 0), (0, 0, 0.1, 0)), 1.5) and of the Euclidean balls
  of radius 0.4 and 0.3 around those centers, whole and split into its
  stages: `draws` (Philox into the chunk's buffer), `cull` (the
  proposal-ball cull of the raw draws) and `survivors` (scaling the
  survivors into the box and testing them with `regions._contains`),
  with the counts of survivors and of kept points.  On a tree without
  the cull, `survivors` scales and tests every draw and `cull` is absent;
* `region <ball> n=..`: the whole `regions.region_barycenter` of each of
  those balls at 2^20 proposals (seed 3), and `sample+solve`, its
  `sample_region` and `solve` alone; `se` is the difference of the two,
  the standard-error pass.  Only public calls, so it runs on every tree.

Inputs come from `verify.random_weighted_points` with fixed seeds, and
the child runs with OPENBLAS_NUM_THREADS=min(2, nproc) and one sampler
thread (QHB_THREADS=1), as bench/run.py does, unless the caller set them.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

_CHILD = r"""
import json, sys, time
import numpy as np
from qhb import barycenter as bc, geometry, mobius, regions
from qhb.verify import random_ball_point, random_weighted_points

rounds, reps = int(sys.argv[1]), int(sys.argv[2])


def timed(fn):
    meds = []
    for _ in range(rounds):
        best = float("inf")
        for _ in range(reps):
            t = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t)
        meds.append(best)
    return 1e3 * float(np.median(meds))


sweep = bc._sweep


def sweeps(fn):
    # the _sweep calls fn() makes: all of them, and those away from the origin
    calls = []

    def counted(data, c):
        calls.append(bool(c.any()))
        return sweep(data, c)

    bc._sweep = counted
    try:
        fn()
    finally:
        bc._sweep = sweep
    return len(calls), sum(calls)


out = {}
for n in (1, 4):
    for size in (1000, 100000):
        data = random_weighted_points(np.random.default_rng(1000 * n + size), n, size)
        out[f"WeightedPoints n={n} N={size} ms"] = timed(
            lambda: bc.WeightedPoints(points=data.points, weights=data.weights))
for n in (1, 2, 4):
    for size in (1000, 10000, 100000):
        data = random_weighted_points(np.random.default_rng(1000 * n + size), n, size)
        c = random_ball_point(np.random.default_rng(n), n, 0.6)
        out[f"sweep n={n} N={size} ms"] = timed(lambda: bc._sweep(data, c))
for n in (1, 2, 4):
    for size in (1000, 10000, 100000):
        data = random_weighted_points(np.random.default_rng(1000 * n + size), n, size)
        out[f"solve n={n} N={size} ms"] = timed(lambda: bc.solve(data))
        out[f"solve n={n} N={size} kernel sweeps"] = sweeps(lambda: bc.solve(data))[1]
for n in (1, 2, 4):
    data = random_weighted_points(np.random.default_rng(n), n, 8192 // n)
    phi = mobius.hua_new(random_ball_point(np.random.default_rng(n), n, 0.6))
    out[f"hua_apply block n={n} ms"] = timed(lambda: mobius.hua_apply(phi, data.points))
for n in (1, 2, 4):
    c = random_ball_point(np.random.default_rng(n), n, 0.6)
    for size in (1, 32, 1000, 100000):
        pts = random_weighted_points(np.random.default_rng(1000 * n + size), n, size).points
        out[f"distance n={n} N={size} ms"] = timed(lambda: geometry.distance(pts, c))
stall = random_weighted_points(np.random.default_rng(0), 2, 5)
cfg = bc.SolverConfig(tol=1e-300)
res = bc.solve(stall, cfg)
out["stalled solve ms"] = timed(lambda: bc.solve(stall, cfg))
out["stalled solve sweeps"] = sweeps(lambda: bc.solve(stall, cfg))[0]
out["stalled solve stop_reason"] = res.stop_reason

centers = {1: [[0.3, 0.1, 0, 0]], 2: [[0.2, 0.1, 0, 0], [0, 0, 0.1, 0]]}
chunk_specs = {f"geodesic n={n}": regions.geodesic_ball(c, 1.5) for n, c in centers.items()}
chunk_specs.update({f"euclidean n={n}": regions.euclidean_ball(c, 0.5 - 0.1 * n)
                    for n, c in centers.items()})
key = np.array([3, 0], dtype=np.uint64)
for name, spec in chunk_specs.items():
    row = f"sampler chunk {name}"
    buf = np.empty((regions.CHUNK, 4 * spec.n))
    width = spec.box_hi - spec.box_lo

    def draws():
        np.random.Generator(np.random.Philox(key=key)).random(out=buf)

    draws()
    if hasattr(regions, "_cull"):
        ball = regions._proposal_ball(spec)
        survivors = regions._cull(buf, ball)
        jobs = [(0, regions.CHUNK)]
        out[f"{row} ms"] = timed(lambda: regions._sample_chunks(spec, 3, jobs, ball))
        out[f"{row} cull ms"] = timed(lambda: regions._cull(buf, ball))
    else:
        survivors = buf
        out[f"{row} ms"] = timed(lambda: regions._sample_chunk(spec, 3, 0, regions.CHUNK))

    def scale_and_test():
        pts = survivors * width
        pts += spec.box_lo
        return regions._contains(spec, pts.reshape(-1, spec.n, 4))

    out[f"{row} draws ms"] = timed(draws)
    out[f"{row} survivors ms"] = timed(scale_and_test)
    out[f"{row} survivors"] = survivors.shape[0]
    out[f"{row} kept"] = scale_and_test().shape[0]
for name, spec in chunk_specs.items():
    row = f"region {name}"
    out[f"{row} ms"] = timed(lambda: regions.region_barycenter(spec, 1 << 20, 3))
    out[f"{row} sample+solve ms"] = timed(
        lambda: bc.solve(regions.sample_region(spec, 1 << 20, 3).samples))
    out[f"{row} se ms"] = out[f"{row} ms"] - out[f"{row} sample+solve ms"]
print(json.dumps(out))
"""


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src")
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--reps", type=int, default=7)
    args = ap.parse_args(argv)
    env = {**os.environ, "PYTHONPATH": os.path.abspath(args.src)}
    env.setdefault("OPENBLAS_NUM_THREADS", str(min(2, os.cpu_count() or 1)))
    env.setdefault("QHB_THREADS", "1")
    proc = subprocess.run([sys.executable, "-c", _CHILD, str(args.rounds), str(args.reps)],
                          env=env, check=True, capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
