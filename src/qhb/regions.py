"""Monte-Carlo discretization of measurable regions under the invariant measure.

A region D inside the open unit ball is sampled by drawing uniform
Euclidean proposals in a bounding box, keeping those inside D, and
attaching the importance weight

    w_i = density(q_i) * V_box / N          (N = proposals drawn),

so that sums over the sample estimate integrals against the invariant
volume: sum_i w_i ~ mass(D), sum_i w_i f(q_i) ~ integral of f over D.

A proposal z is kept when |z|^2 < MAX_NORM2 and z lies in D.  A
geodesic ball B(c, rho) is tested in the Poisson form of the energy
kernel, cosh^2(d(z,c)/2) = |1 - <z,c>|^2 / ((1 - |z|^2)(1 - |c|^2)), less
one so that nothing cancels: with delta = z - c,

    sinh^2(d(z,c)/2) (1 - |z|^2)(1 - |c|^2) = (1 - |c|^2)|delta|^2 + |<delta,c>|^2,

and z is kept when the right side is below sinh^2(rho/2)(1 - |z|^2)(1 - |c|^2):
one quaternion inner product per proposal and no Hua map.  Both sides
are sums and products of nonnegative terms, so the test holds to rounding
for small rho too (cosh^2(rho/2) rounds to 1 below rho ~ 3e-8), down to
rho ~ 1e-150, where the squares leave the normal floats.  A radius above
_RHO_ALL is tested as _RHO_ALL, which every kept proposal is within.

Most proposals of a ball lie outside it (a geodesic ball at n = 2 keeps
under 1% of its box), so before a proposal is scaled into the box or
tested, its raw uniform draw u is culled by one Euclidean ball in u that
holds every point the exact test can keep (_proposal_ball): for a
geodesic ball, the test above without its |<delta,c>|^2 term.  The cull
costs one |u|^2 and one u.u_c per draw.  Its margins exceed the rounding
of the scaling and of the cull, so it drops only draws the exact test
would drop, and the sample is bit for bit that of testing every draw.

Sampling is chunked; each chunk draws from a counter-based generator
keyed by (seed, chunk index), so results are bit-identical for a fixed
(spec, count, seed) regardless of how many worker threads run the
chunks.  Each worker runs one contiguous run of chunks and draws them into
one buffer.  The thread count is capped by the QHB_THREADS environment
variable (0 or unset = auto), which must be an integer >= 0.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import geometry, mobius
from . import quaternions as q
from .barycenter import MAX_NORM2, SolverConfig, SolverResult, WeightedPoints, _check_int, solve
from .errors import DimensionMismatch, EmptyRegion, NonFinite, NotInBall, QhbError

CHUNK = 1 << 16

GEODESIC_BALL = "geodesic_ball"
EUCLIDEAN_BALL = "euclidean_ball"
INDICATOR = "indicator"


@dataclass(frozen=True, eq=False)
class RegionSpec:
    """A measurable subset of the open unit ball in H^n."""

    kind: str
    n: int
    center: Optional[np.ndarray] = None     # (n, 4) for ball kinds
    radius: float = 0.0
    membership: Optional[Callable] = None   # (B, n, 4) -> (B,) bool, indicator only
    box_lo: Optional[np.ndarray] = None     # (4n,) proposal box
    box_hi: Optional[np.ndarray] = None


def _ball_center(center, radius: float) -> np.ndarray:
    """A ball region's center as a point of the open ball; radius finite, > 0."""
    center = q.hvector(center)
    if not (np.all(np.isfinite(center)) and math.isfinite(radius)):
        raise NonFinite("center and radius must be finite")
    if radius <= 0.0:
        raise QhbError("radius must be positive")
    return mobius.ball_points(center)


def geodesic_ball(center, radius: float) -> RegionSpec:
    """Metric ball B(center, radius); always inside the open unit ball."""
    center = _ball_center(center, radius)
    d0 = 2.0 * float(np.arctanh(q.vnorm(center)))  # d(0, center)
    rmax = np.tanh((d0 + radius) / 2.0)
    dim = 4 * center.shape[0]
    return RegionSpec(
        kind=GEODESIC_BALL, n=center.shape[0], center=center, radius=float(radius),
        box_lo=np.full(dim, -rmax), box_hi=np.full(dim, rmax),
    )


def euclidean_ball(center, radius: float) -> RegionSpec:
    """Euclidean ball {|z - center| < radius}, required to stay interior."""
    center = _ball_center(center, radius)
    if float(q.vnorm(center)) + radius >= 1.0:
        raise NotInBall("euclidean ball must be contained in the open unit ball")
    flat = center.ravel()
    return RegionSpec(
        kind=EUCLIDEAN_BALL, n=center.shape[0], center=center, radius=float(radius),
        box_lo=flat - radius, box_hi=flat + radius,
    )


def indicator_region(membership: Callable, n: int, box=None) -> RegionSpec:
    """Region given by a membership callback (in-process only).

    The callback receives points of shape (B, n, 4) and returns a boolean
    mask; points outside |z| < 1 - 1e-12 are never passed to it.
    """
    if n < 1:
        raise DimensionMismatch(f"dimension must be >= 1, got {n}")
    if box is None:
        lo, hi = np.full(4 * n, -1.0), np.full(4 * n, 1.0)
    else:
        lo = np.asarray(box[0], dtype=float)
        hi = np.asarray(box[1], dtype=float)
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise NonFinite("box bounds must be finite")
    if lo.shape != (4 * n,) or hi.shape != (4 * n,) or np.any(hi <= lo):
        raise QhbError("box must be a pair of (4n,) arrays with hi > lo")
    with np.errstate(over="ignore"):  # hi - lo of finite bounds can overflow
        if not np.all(np.isfinite(hi - lo)):
            raise NonFinite(f"box side {int(np.argmax(~np.isfinite(hi - lo)))}: hi - lo overflows")
    return RegionSpec(kind=INDICATOR, n=n, membership=membership, box_lo=lo, box_hi=hi)


# d(z, c) < 67 for every kept proposal z (d(0, z) < 28.4 at |z|^2 < MAX_NORM2)
# and every center (d(0, c) < 38.2 at |c|^2 <= 1 - 2^-53): a geodesic ball of
# larger radius keeps them all, and sinh^2(_RHO_ALL / 2) is a finite float.
_RHO_ALL = 100.0


def _contains(spec: RegionSpec, pts: np.ndarray) -> np.ndarray:
    """The rows of pts (M, n, 4) that lie in the region and have
    |z|^2 < MAX_NORM2, in their order.

    Rows with |z|^2 >= MAX_NORM2 are dropped first, for every kind, so an
    indicator's callback never sees such a point.  A Euclidean ball then
    tests |z - c|^2 < r^2, and a geodesic ball takes its Poisson-form test
    (module docstring) with <z - c, c> of the surviving rows from the
    kernel's matrix of <., c>, in the kernel's blocks, so that no product
    wakes OpenBLAS threads: per proposal no Phi_c, square root or artanh.
    np.compress picks the rows: on scattered survivors it copies several
    times faster than boolean indexing."""
    z2 = q.vnorm2(pts)
    keep = z2 < MAX_NORM2
    pts = np.compress(keep, pts, axis=0)
    if spec.kind == EUCLIDEAN_BALL:
        return np.compress(q.vnorm2(pts - spec.center) < spec.radius ** 2, pts, axis=0)
    if spec.kind == GEODESIC_BALL:
        lhs = mobius._sinh2_rows(spec.center, pts.reshape(-1, 4 * spec.n))
        s2 = 1.0 - float(q.vnorm2(spec.center))
        bound = math.sinh(min(spec.radius, _RHO_ALL) / 2.0) ** 2 * s2
        return np.compress(lhs < bound * (1.0 - np.compress(keep, z2)), pts, axis=0)
    if not pts.shape[0]:
        return pts
    mask = np.asarray(spec.membership(pts), dtype=bool)
    if mask.shape != pts.shape[:1]:
        raise QhbError(f"membership callback returned shape {mask.shape}, "
                       f"expected ({pts.shape[0]},)")
    return np.compress(mask, pts, axis=0)


def _proposal_ball(spec: RegionSpec) -> tuple:
    """(2 u_c, t): every raw draw u in [0, 1)^4n whose scaled point
    box_lo + u (box_hi - box_lo) _contains can keep has, in float,
    |u|^2 - 2 u.u_c < t.

    In z the ball is (c', r') with every point _contains keeps inside.  For
    a geodesic ball, with a = 1 - |c|^2 and S = sinh^2(rho/2) a (rho capped
    at _RHO_ALL, as _contains caps it), it is the Poisson-form test less its
    |<z - c, c>|^2 term, a|z - c|^2 < S(1 - |z|^2), that is |z - c'|^2 < r'^2
    with c' = a c / (a + S) and r'^2 = S(a^2 + S)/(a + S)^2, written so that
    nothing cancels.  A Euclidean ball is its own (c, r), an indicator
    region (0, 1).  The geodesic r'^2 gains 64 n eps S/(a + S), above the
    (4n + 8) eps S/(a + S) by which the test's rounding can move it, and r'
    gains 2^-40 (1 + widest box side), which covers the rounding of the
    scaling and of c'.  In u the radius is r' over the narrowest box side,
    and t gains 2^-30 of the scale of the terms of
    |u|^2 - 2 u.u_c + |u_c|^2, which covers their rounding and cancellation."""
    n = spec.n
    if spec.kind == GEODESIC_BALL:
        a = 1.0 - float(q.vnorm2(spec.center))
        s = math.sinh(min(spec.radius, _RHO_ALL) / 2.0) ** 2 * a
        center = spec.center.ravel() * (a / (a + s))
        r2 = s * (a * a + s) / (a + s) ** 2 + 2.0 ** -46 * n * s / (a + s)
    elif spec.kind == EUCLIDEAN_BALL:
        center, r2 = spec.center.ravel(), spec.radius ** 2
    else:
        center, r2 = np.zeros(4 * n), 1.0
    width = spec.box_hi - spec.box_lo
    r = math.sqrt(r2) + 2.0 ** -40 * (1.0 + float(np.max(width)))
    with np.errstate(all="ignore"):
        uc = (center - spec.box_lo) / width
        ru2 = np.square(r / np.min(width))
        uc2 = uc @ uc
        t = float(ru2 - uc2 + 2.0 ** -30 * (4 * n + uc2 + ru2))
    if not math.isfinite(t):
        # a box side of 0 (a radius below the rounding of its center) or
        # one so narrow that r' over it overflows: no ball in u, keep all
        return np.zeros(4 * n), math.inf
    return 2.0 * uc, t


def _cull(u: np.ndarray, ball: tuple) -> np.ndarray:
    """The rows of the raw draws u (M, 4n) inside _proposal_ball's ball, in
    their order: one einsum for |u|^2, and a GEMV for u.2u_c in the
    kernel's blocks, which stays on the calling thread (a whole chunk's
    GEMV wakes OpenBLAS threads, and at 4n = 8 two of them took ~25 times
    as long as one)."""
    uc2, t = ball
    d = np.einsum("ij,ij->i", u, u)
    for rows in mobius._blocks(u.shape[0], u.shape[1] // 4):
        d[rows] -= u[rows] @ uc2
    return np.compress(d < t, u, axis=0)


# ---------------------------------------------------------------------------
# sampling


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Accepted samples with importance weights and the estimates they carry."""

    samples: WeightedPoints
    seed: int
    count_requested: int
    count_accepted: int
    total_mass_estimate: float      # ~ invariant mass of the region
    moment_estimate: float          # ~ integral of d(0, y) over the region
    standard_error: float           # MC standard error of the mass estimate
    moment_standard_error: float


def _worker_threads() -> int:
    """QHB_THREADS, or min(8, CPU count) when it is unset or 0."""
    raw = os.environ.get("QHB_THREADS", "0")
    try:
        v = int(raw)
    except ValueError:
        v = -1
    if v < 0:
        raise QhbError(f"QHB_THREADS must be an integer >= 0, got {raw!r}")
    return v or min(8, os.cpu_count() or 1)


def _sample_chunks(spec: RegionSpec, seed: int, jobs: list, ball: tuple) -> list:
    """The kept rows of each chunk (index, size) of jobs, in order.  The
    chunks draw into one buffer, and only the draws that _cull keeps are
    scaled into the box and tested."""
    width = spec.box_hi - spec.box_lo
    buf = np.empty((max(size for _, size in jobs), 4 * spec.n))
    parts = []
    for index, size in jobs:
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))
        # the draws of rng.random((size, 4n)); the scaling is
        # rng.uniform(box_lo, box_hi)'s arithmetic, without its broadcasting
        pts = _cull(rng.random(out=buf[:size]), ball)
        pts *= width
        pts += spec.box_lo
        parts.append(_contains(spec, pts.reshape(-1, spec.n, 4)))
    return parts


def sample_region(spec: RegionSpec, count: int, seed: int) -> SampleSet:
    """Draw `count` box proposals, keep those inside the region, weight by the
    invariant density.  Deterministic for fixed (spec, count, seed).

    Each chunk culls its raw draws u in [0, 1)^4n by the region's proposal
    ball (_proposal_ball) before it scales them into the box: a point that
    _contains can keep always lies inside that ball, with margins wider
    than the rounding of the scaling and of the cull itself.  The survivors
    are scaled by the same float operations as every draw was, and
    _contains decides each row from that row alone (its blocked product
    gives a row the same bits in any batch), so the kept rows, their order
    and every float are those of scaling and testing every draw."""
    _check_int("sample count", count, 1)
    _check_int("seed", seed, 0, 2**64)
    sizes = [CHUNK] * (count // CHUNK)
    if count % CHUNK:
        sizes.append(count % CHUNK)
    jobs = list(enumerate(sizes))
    threads = min(_worker_threads(), len(jobs))
    ball = _proposal_ball(spec)
    if threads > 1:
        # each worker takes one contiguous run of chunks, so the runs'
        # parts concatenate in chunk order
        runs = [jobs[len(jobs) * i // threads:len(jobs) * (i + 1) // threads]
                for i in range(threads)]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = sum(pool.map(lambda run: _sample_chunks(spec, seed, run, ball), runs), [])
    else:
        parts = _sample_chunks(spec, seed, jobs, ball)
    accepted = np.concatenate(parts, axis=0)
    if accepted.shape[0] == 0:
        raise EmptyRegion(f"no proposals accepted out of {count}")

    box_volume = float(np.prod(spec.box_hi - spec.box_lo))
    vals = geometry.measure_density(accepted) * box_volume  # per-proposal mass values
    weights = vals / count
    if not (weights > 0.0).all():
        raise EmptyRegion(f"region too small to weigh: its proposal box has volume "
                          f"{box_volume:.3g}, and the weights of its points round to 0")
    mass, mass_se = _mc_mean(vals, count)
    moment, moment_se = _mc_mean(vals * (2.0 * np.arctanh(q.vnorm(accepted))), count)
    return SampleSet(
        samples=WeightedPoints(points=accepted, weights=weights), seed=seed,
        count_requested=count, count_accepted=accepted.shape[0],
        total_mass_estimate=mass, moment_estimate=moment,
        standard_error=mass_se, moment_standard_error=moment_se,
    )


def _mc_mean(nonzero_vals: np.ndarray, count: int, mean_norm: float | None = None) -> tuple:
    """Mean and its standard error over `count` proposals whose only nonzero
    values are `nonzero_vals` (0 elsewhere), summed at a power-of-two scale
    at which their squares stay normal.  Vector values pass their norms and
    mean_norm, the norm of their mean: the SE is the summed variances' root."""
    e = int(np.frexp(np.max(nonzero_vals))[1])
    vals = np.ldexp(nonzero_vals, -e)
    mean = np.sum(vals) / count if mean_norm is None else math.ldexp(mean_norm, -e)
    se = np.sqrt(np.maximum(np.sum(vals * vals) / count - mean * mean, 0.0) / count)
    return math.ldexp(float(mean), e), math.ldexp(float(se), e)


@dataclass(frozen=True, eq=False)
class RegionResult:
    result: SolverResult
    sample_set: SampleSet
    barycenter_standard_error: float


def region_barycenter(spec: RegionSpec, count: int, seed: int,
                      config: SolverConfig | None = None) -> RegionResult:
    """Sample the region and solve for the barycenter of the sampled measure.

    The standard error is SE(R)/mass by _mc_mean, the estimator of the mass
    and moment error bars: R's terms over the count proposals are count w_i
    Phi_c(q_i) (0 where rejected), of norm count w_i tanh(d(c, q_i)/2), and
    their mean R has the solver's |R|, so no point is mapped.  With one
    accepted point (count_accepted) the SE is rounding noise, ~1e-17."""
    ss = sample_region(spec, count, seed)
    res = solve(ss.samples, config)
    t = np.tanh(geometry.distance(ss.samples.points, res.barycenter) / 2.0)
    se = _mc_mean(count * ss.samples.weights * t, count, res.residual_norm)[1]
    return RegionResult(res, ss, se / ss.total_mass_estimate)
