"""Print one sha256 line per solver and region entry of a fixed grid, so
that a bit-for-bit claim about two source trees is one diff.

Usage:

    python scripts/bit_grid.py SRC_DIR

The source tree SRC_DIR is imported in a child process with
OPENBLAS_NUM_THREADS=min(2, nproc), as scripts/layer_times.py runs it,
unless the caller set it.  Two trees (say, a checkout of the parent
commit's src and the working tree's src) are compared by

    python scripts/bit_grid.py ../parent/src > before.txt
    python scripts/bit_grid.py src > after.txt
    diff before.txt after.txt

Entries:

* `solve n=.. N=.. w=..`: the default `barycenter.solve` of N points of
  `verify.random_ball_points` in H^n, n = 1-4, N in {1, 2, 7, 100, 1000,
  5000, 30000}, with weights U[0.5, 2] (`w=unit`) and 10^U[-3, 3]
  (`w=wide`).  The hash covers the barycenter, energy, |R|, iterations,
  stop reason, energy_trace and total_weight.
* `region <kind> n=.. |c|=.. r=.. seed=..`: `regions.region_barycenter` of
  10^5 proposals (not a power of two, so count * weight rounds) on a
  geodesic ball, a Euclidean ball and two indicator regions of the
  Euclidean ball's membership: `indicator`, in the enclosing ball (c, r),
  and `indicator-default`, in the default proposal region, the unit
  ball, n = 1-3,
  centers |c| e_1 with |c| in {0, 0.5, 0.9, 1 - 2^-53}, radii from 1e-150
  to 1e300 (1e-150, 1e-12, 1e-3, 0.05, 0.3, 1.5, 5, 1e300), seeds 4 and
  7.  The hash covers every field of the SampleSet (points, weights,
  seed, counts, mass, moment and their standard errors) and of the
  RegionResult's SolverResult, or the class and message of the error
  raised (the child runs with -W error, so a warning is one too).
  barycenter_standard_error follows as `se=` with every digit (repr), so
  that a last-digit change can be read off the diff.

A run takes about 12 s on 2 cores.
"""

from __future__ import annotations

import os
import subprocess
import sys

_CHILD = r"""
import hashlib
import numpy as np
from qhb import barycenter as bc, regions
from qhb.verify import random_ball_points


def digest(*fields):
    h = hashlib.sha256()
    for f in fields:
        if isinstance(f, str):
            h.update(f.encode())
        elif isinstance(f, (int, np.integer)):
            h.update(str(int(f)).encode())
        else:
            a = np.ascontiguousarray(f, dtype=float)
            h.update(repr(a.shape).encode() + a.tobytes())
        h.update(b"|")
    return h.hexdigest()


def solver_fields(res):
    return (res.barycenter, res.energy, res.residual_norm, res.iterations,
            res.stop_reason, np.asarray(res.energy_trace, dtype=float))


for n in (1, 2, 3, 4):
    for size in (1, 2, 7, 100, 1000, 5000, 30000):
        for name in ("unit", "wide"):
            rng = np.random.default_rng([n, size, name == "wide"])
            pts = random_ball_points(rng, n, size)
            w = rng.uniform(0.5, 2.0, size) if name == "unit" else 10.0 ** rng.uniform(-3, 3, size)
            data = bc.WeightedPoints(points=pts, weights=w)
            res = bc.solve(data)
            print(f"solve n={n} N={size} w={name}",
                  digest(*solver_fields(res), data.total_weight))


def euclidean_member(center, r):
    c = center.ravel()

    def member(pts):
        d = pts.reshape(pts.shape[0], -1) - c
        return np.einsum("ij,ij->i", d, d) < r * r

    return member


def euclidean(center, r):
    return regions.indicator_region(euclidean_member(center, r), center.shape[0], center, r)


def default_ball(center, r):
    return regions.indicator_region(euclidean_member(center, r), center.shape[0])


kinds = {"geodesic": regions.geodesic_ball, "euclidean": regions.euclidean_ball,
         "indicator": euclidean, "indicator-default": default_ball}
for kind, make in kinds.items():
    for n in (1, 2, 3):
        for cn in (0.0, 0.5, 0.9, 1.0 - 2.0 ** -53):
            center = np.zeros((n, 4))
            center[0, 0] = cn
            for r in (1e-150, 1e-12, 1e-3, 0.05, 0.3, 1.5, 5.0, 1e300):
                for seed in (4, 7):
                    row = f"region {kind} n={n} |c|={cn!r} r={r!r} seed={seed}"
                    try:
                        rr = regions.region_barycenter(make(center, r), 100_000, seed)
                    except Exception as exc:  # warnings are errors too (-W error)
                        print(row, digest(type(exc).__name__, str(exc)), "se=-")
                        continue
                    ss = rr.sample_set
                    h = digest(ss.samples.points, ss.samples.weights, ss.seed,
                               ss.count_requested, ss.count_accepted,
                               ss.total_mass_estimate, ss.moment_estimate,
                               ss.standard_error, ss.moment_standard_error,
                               *solver_fields(rr.result))
                    print(row, h, f"se={rr.barycenter_standard_error!r}")
"""


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    env = {**os.environ, "PYTHONPATH": os.path.abspath(argv[1])}
    env.setdefault("OPENBLAS_NUM_THREADS", str(min(2, os.cpu_count() or 1)))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", _CHILD], env=env,
                          capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    return proc.returncode


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
