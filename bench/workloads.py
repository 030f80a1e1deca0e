"""Request generators, request execution and output checks for the four
benchmark workloads.

Every input is drawn from a numpy Generator keyed by (workload seed,
workload index, stream), so one seed always yields the same requests.
qhb receives only the generated arrays and scalars, through its public
API.

The solve and region streams are generated in blocks.  What sets a
request's cost follows a fixed stratified design that does not depend
on the seed: size quantile, dimension and boundary class for solves;
kind, dimension, centre and radius quantiles for regions.  The seed
draws the order within each block, the points, weights, directions and
sampler seeds.  A run ends on a block boundary, so it holds the mix the
workload defines whatever the seed, which keeps medians and rates
comparable across seeds.  Where a run holds only a handful of blocks
(solve-large, region) the blocks are all alike.

The measured streams hold only inputs on which qhb succeeds, so a run's
failure count is 0 on every seed and two runs of the same code agree.
The inputs that trip known qhb defects (solver stalls on skewed
weights, empty or undersampled n=3 geodesic balls, the verify
associativity tolerance) are a fixed list of probe requests instead,
the same for every seed; `probe_requests` gives them and the traced run
reports how many fail.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import math
import re
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

WORKLOADS = ("solve-small", "solve-large", "region", "verify")

PROPOSALS = 2 ** 20          # region_barycenter proposals per request
VERIFY_TRIALS = 2000         # `qhb verify --trials` per request
VERIFY_COLD_TRIALS = 200     # the cold verify request runs every check, briefly
# A converged solve must also satisfy |R(c)| <= RESIDUAL_SLACK * tol * W
# when qhb.residual recomputes it.  Each mapped point carries a relative
# roundoff of about eps / (1 - |q||c|) <= 1e-13 for |q| <= 0.999, so two
# independent evaluations of R differ by far less than tol * W = 1e-12 W.
RESIDUAL_SLACK = 10.0
EDGE_RADIUS = 0.95           # a quarter of the solve sets reach out to |q| <= 0.95
MASS_SIGMAS = 5.0            # geodesic-ball mass must be within this many SE
# `qhb verify --seed s --trials 2000` for s = 1 to 48 fails on four seeds,
# each in quaternion_associativity with a maximum error of 1.02e-12 to
# 1.36e-12 against its 1e-12 tolerance.  Those four are probe requests;
# the measured verify requests draw their seeds from the other 44.
VERIFY_PROBE_SEEDS = (26, 27, 31, 40)
VERIFY_SEEDS = tuple(s for s in range(1, 49) if s not in VERIFY_PROBE_SEEDS)
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_DESIGN_KEY = 20240817        # seeds the seed-independent design choices
_PROBE_KEY = 20240818         # seeds the probe requests, the same for every run


@dataclass(frozen=True, eq=False)
class Request:
    """One request: the generated inputs and the work it represents."""

    workload: str
    n: int
    items: int                          # points, proposals or verify --trials
    points: Optional[np.ndarray] = None  # (N, n, 4), solve workloads
    weights: Optional[np.ndarray] = None
    region: str = ""                    # "geodesic_ball" or "euclidean_ball"
    center: Optional[np.ndarray] = None  # (n, 4)
    radius: float = 0.0
    seed: int = 0                       # sampler seed or verify seed


@dataclass(frozen=True)
class Outcome:
    """Output check of one request.  `reason` is None for a success;
    `wrong` marks an output that claims success but fails its check."""

    reason: Optional[str] = None
    wrong: bool = False
    items: int = 0                       # input work completed
    err: Optional[float] = None          # geodesic-ball barycenter error


def _rng(workload: str, seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload), stream])


def _ball_points(rng, count: int, n: int, rmax: float) -> np.ndarray:
    """`count` points uniform in the Euclidean ball |z| < rmax of R^(4n)."""
    x = rng.standard_normal((count, n, 4))
    norms = np.sqrt(np.einsum("ijk,ijk->i", x, x))
    radii = rmax * rng.random(count) ** (1.0 / (4 * n))
    return x * (radii / norms)[:, None, None]


def _solve_request(workload, rng, size: int, n: int, rmax: float,
                   decades: float = 0.0) -> Request:
    """Points uniform in |z| < rmax; weights in U[0.5, 2], or log-uniform
    over `decades` decades when that is positive (probe requests only)."""
    pts = _ball_points(rng, size, n, rmax)
    if decades:
        wts = 10.0 ** rng.uniform(0.0, decades, size)
    else:
        wts = rng.uniform(0.5, 2.0, size)
    return Request(workload=workload, n=n, items=size, points=pts, weights=wts)


def _offset(block: int, shift: float) -> float:
    """Golden-ratio sequence in [0, 1): where block `block` places its
    quantiles inside their strata, so that successive blocks fill the
    ranges evenly."""
    return (shift + block * _GOLDEN) % 1.0


def _solve_stream(workload: str, rng) -> Iterator[Request]:
    # solve-small: N*n log-uniform in [2, 256], n in {1, 2, 3};
    # solve-large: N log-uniform in [1e3, 1e5], n in {1, 2, 3, 4}.
    # Cell c of a block of k takes the c-th of k size quantiles and n
    # cycling through dims, so every n spans the size range; a quarter of
    # the cells have |q| <= EDGE_RADIUS, the rest |q| <= 0.9, chosen by a
    # generator that is the same for every seed.  A solve-small run holds
    # hundreds of blocks, so golden-ratio offsets fill the size range
    # without changing the run's mix.  A solve-large run holds a handful,
    # so its blocks are all alike and its mix does not depend on how many
    # fit; k is odd, so the median falls inside one cell's repeats rather
    # than in the gap between two cells.
    small = workload == "solve-small"
    lo, hi = (2.0, 256.0) if small else (1e3, 1e5)
    dims = (1, 2, 3) if small else (1, 2, 3, 4)
    k = block_size(workload)
    design = np.random.default_rng(_DESIGN_KEY)
    for block in itertools.count():
        if not small:
            design = np.random.default_rng(_DESIGN_KEY)
        offset = _offset(block, 0.5) if small else 0.5
        edge = design.permutation(k) < k // 4
        cells = []
        for c in range(k):
            n = dims[c % len(dims)]
            scale = lo * (hi / lo) ** ((c + offset) / k)
            size = max(1, round(scale / n)) if small else round(scale)
            cells.append((size, n, EDGE_RADIUS if edge[c] else 0.9))
        for c in rng.permutation(k):
            yield _solve_request(workload, rng, *cells[c])


def _region_request(rng, kind: str, n: int, u_center: float, u_radius: float) -> Request:
    # |c| <= 0.5, its radius placed by a uniform-in-volume quantile u_center
    direction = rng.standard_normal((n, 4))
    center = direction * (0.5 * u_center ** (1.0 / (4 * n)) / np.linalg.norm(direction))
    if kind == "geodesic_ball":
        radius = 1.0 + u_radius          # rho in [1, 2]
    else:
        radius = 0.2 + 0.25 * u_radius   # Euclidean radius in [0.2, 0.45]
    return Request(workload="region", n=n, items=PROPOSALS, region=kind,
                   center=center, radius=float(radius), seed=int(rng.integers(2 ** 32)))


# One region block: seven geodesic balls (four at n = 1, three at n = 2)
# and two Euclidean balls (n = 1, 2).  The m slots of one (kind, n) pair
# take the centres of m equal strata of [0, 1) as centre quantiles, and
# the same in reverse order as radius quantiles.  A run holds a handful
# of blocks, so they are all alike and the run's mix does not depend on
# how many fit; the block is odd, so the median falls inside one slot's
# repeats rather than in the gap between two slots.
# Geodesic balls at n = 3 are probe requests: the box sampler accepts 0
# to a few dozen of 2**20 proposals there, so many of them fail.
_REGION_BLOCK = (("geodesic_ball", 1),) * 4 + (("geodesic_ball", 2),) * 3 \
    + (("euclidean_ball", 1), ("euclidean_ball", 2))


def _region_stream(rng) -> Iterator[Request]:
    slots = []
    for pair in dict.fromkeys(_REGION_BLOCK):
        m = _REGION_BLOCK.count(pair)
        slots += [(*pair, (j + 0.5) / m, (m - j - 0.5) / m) for j in range(m)]
    while True:
        for i in rng.permutation(len(slots)):
            yield _region_request(rng, *slots[i])


def _verify_stream(rng) -> Iterator[Request]:
    # every pass over the pool takes its seeds in a fresh seeded order
    while True:
        for i in rng.permutation(len(VERIFY_SEEDS)):
            yield Request(workload="verify", n=0, items=VERIFY_TRIALS,
                          seed=VERIFY_SEEDS[i])


def block_size(workload: str) -> int:
    """Requests per block; a run ends on a block boundary."""
    return {"solve-small": 12, "solve-large": 25, "region": len(_REGION_BLOCK), "verify": 1}[workload]


def requests(workload: str, seed: int) -> Iterator[Request]:
    """The workload's endless request stream for one seed."""
    rng = _rng(workload, seed, 0)
    if workload in ("solve-small", "solve-large"):
        return _solve_stream(workload, rng)
    if workload == "region":
        return _region_stream(rng)
    if workload == "verify":
        return _verify_stream(rng)
    raise ValueError(f"unknown workload {workload!r}")


def cold_request(workload: str, seed: int) -> Request:
    """The first request of a fresh worker, timed as part of set-up.

    It is drawn from the seed like the others but has a fixed shape per
    workload, so that setup_s compares across seeds."""
    rng = _rng(workload, seed, 1)
    if workload == "solve-small":
        return _solve_request(workload, rng, 32, 2, False, False)
    if workload == "solve-large":
        return _solve_request(workload, rng, 10_000, 2, False, False)
    if workload == "region":
        return _region_request(rng, "geodesic_ball", 2, 0.5, 0.5)
    if workload == "verify":
        return Request(workload="verify", n=0, items=VERIFY_COLD_TRIALS,
                       seed=VERIFY_SEEDS[int(rng.integers(len(VERIFY_SEEDS)))])
    raise ValueError(f"unknown workload {workload!r}")


def probe_requests(workload: str) -> list:
    """Requests that trip known qhb defects, the same for every seed.

    They run outside the measured loop, in the traced run, and are
    reported as the number that fail; a fix to one of the defects lowers
    that number.  solve-small: sets with weights over six decades and
    sets with points out to |q| = 0.999, on some of which the solver
    stalls; solve-large: the same weights at N = 1e3 to
    1e4; region: geodesic balls at n = 3, which the sampler leaves empty
    or undersampled; verify: a seed on which quaternion_associativity
    exceeds its 1e-12 tolerance at 2000 trials."""
    rng = _rng(workload, _PROBE_KEY, 2)
    if workload == "solve-small":
        def size(k, m, n):   # N*n at the k-th of m log-spaced strata of [2, 256]
            return max(1, round(2.0 * 128.0 ** ((k + 0.5) / m) / n))
        return [_solve_request(workload, rng, size(k, 24, n), n, 0.9, 6.0)
                for k in range(24) for n in (1, 2, 3)] \
            + [_solve_request(workload, rng, size(k, 120, n), n, 0.999)
               for k in range(120) for n in (1, 2, 3)]
    if workload == "solve-large":
        return [_solve_request(workload, rng, round(1e3 * 10.0 ** ((k + 0.5) / 2)), n, 0.9, 6.0)
                for k in range(2) for n in (1, 2, 3, 4)]
    if workload == "region":
        return [_region_request(rng, "geodesic_ball", 3, (k + 0.5) / 8, ((3 * k) % 8 + 0.5) / 8)
                for k in range(8)]
    if workload == "verify":
        return [Request(workload="verify", n=0, items=VERIFY_TRIALS, seed=s)
                for s in VERIFY_PROBE_SEEDS]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# execution and checks


def execute(qhb, req: Request, span):
    """Send one request to qhb.  `span(name)` is a context manager around
    the benchmark's own WeightedPoints construction."""
    if req.workload in ("solve-small", "solve-large"):
        with span("barycenter.WeightedPoints"):
            data = qhb.WeightedPoints(points=req.points, weights=req.weights)
        return data, qhb.solve(data)
    if req.workload == "region":
        make = qhb.geodesic_ball if req.region == "geodesic_ball" else qhb.euclidean_ball
        return qhb.region_barycenter(make(req.center, req.radius), PROPOSALS, req.seed)
    cli = importlib.import_module("qhb.cli")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "--seed", str(req.seed), "--trials", str(req.items)])
    return code, out.getvalue()


_VERIFY_SUMMARY = re.compile(r"^(\d+) checks, (\d+) passed", re.MULTILINE)
_VERIFY_CHECK = re.compile(r"trials=\s*(\d+) max_error=.* tol=\S+ (pass|FAIL)")


def check(qhb, req: Request, result) -> Outcome:
    """Output check; `result` is what execute returned or the exception
    it raised.  A successful solve or region request completes all its
    items; a verify request completes the trials of the checks that
    passed, as `qhb verify` prints them."""
    if isinstance(result, Exception):
        return Outcome(reason=type(result).__name__)
    if req.workload in ("solve-small", "solve-large"):
        data, res = result
        if not res.converged:
            return Outcome(reason="not_converged")
        r = qhb.residual(data, res.barycenter)
        limit = RESIDUAL_SLACK * qhb.SolverConfig().tol * data.total_weight
        if float(np.sqrt(np.sum(r * r))) > limit:
            return Outcome(reason="residual", wrong=True)
        return Outcome(items=req.items)
    if req.workload == "region":
        if not result.result.converged:
            return Outcome(reason="not_converged")
        if req.region != "geodesic_ball":
            return Outcome(items=req.items)
        ss = result.sample_set
        exact = float(qhb.ball_volume(req.radius, req.n))
        if abs(ss.total_mass_estimate - exact) > MASS_SIGMAS * ss.standard_error:
            return Outcome(reason="mass")
        # the ball's centre is the exact barycenter by Sp(n,1) symmetry
        return Outcome(items=req.items,
                       err=float(qhb.distance(result.result.barycenter, req.center)))
    code, text = result
    checks = _VERIFY_CHECK.findall(text)
    passed = sum(int(trials) for trials, status in checks if status == "pass")
    if code != 0:
        return Outcome(reason=f"exit_{code}", items=passed)
    summary = _VERIFY_SUMMARY.findall(text)
    if not checks or summary != [(str(len(checks)),) * 2]:
        return Outcome(reason="summary", wrong=True)
    return Outcome(items=passed)
