"""Monte-Carlo discretization of measurable regions under the invariant measure.

A region D inside the open unit ball is sampled by drawing uniform
Euclidean proposals in a bounding box, keeping those inside D, and
attaching the importance weight

    w_i = density(q_i) * V_box / N          (N = proposals drawn),

so that sums over the sample estimate integrals against the invariant
volume: sum_i w_i ~ mass(D), sum_i w_i f(q_i) ~ integral of f over D.

Sampling is chunked; each chunk draws from a counter-based generator
keyed by (seed, chunk index), so results are bit-identical for a fixed
(spec, count, seed) regardless of how many worker threads run the
chunks.  The thread count is capped by the QHB_THREADS environment
variable (0 or unset = auto).
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
from .barycenter import MAX_NORM2, SolverConfig, SolverResult, WeightedPoints, solve
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


def _ball_center(center, radius: float, n: Optional[int]) -> np.ndarray:
    """The center of a ball region as an (n, 4) array, after checking the
    dimension, finiteness and a positive radius."""
    center = q.hvector(center)
    if n is not None and center.shape[0] != n:
        raise DimensionMismatch(f"center has dimension {center.shape[0]}, expected {n}")
    if not (np.all(np.isfinite(center)) and math.isfinite(radius)):
        raise NonFinite("center and radius must be finite")
    if radius <= 0.0:
        raise QhbError("radius must be positive")
    return center


def geodesic_ball(center, radius: float, n: Optional[int] = None) -> RegionSpec:
    """Metric ball B(center, radius); always inside the open unit ball."""
    center = mobius.ball_points(_ball_center(center, radius, n))
    d0 = float(geometry.distance(center, q.zero_vector(center.shape[0])))
    rmax = np.tanh((d0 + radius) / 2.0)
    dim = 4 * center.shape[0]
    return RegionSpec(
        kind=GEODESIC_BALL, n=center.shape[0], center=center, radius=float(radius),
        box_lo=np.full(dim, -rmax), box_hi=np.full(dim, rmax),
    )


def euclidean_ball(center, radius: float, n: Optional[int] = None) -> RegionSpec:
    """Euclidean ball {|z - center| < radius}, required to stay interior."""
    center = _ball_center(center, radius, n)
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
    if box is None:
        lo, hi = np.full(4 * n, -1.0), np.full(4 * n, 1.0)
    else:
        lo = np.asarray(box[0], dtype=float)
        hi = np.asarray(box[1], dtype=float)
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise NonFinite("box bounds must be finite")
    if lo.shape != (4 * n,) or hi.shape != (4 * n,) or np.any(hi <= lo):
        raise QhbError("box must be a pair of (4n,) arrays with hi > lo")
    return RegionSpec(kind=INDICATOR, n=n, membership=membership, box_lo=lo, box_hi=hi)


def _contains(spec: RegionSpec, pts: np.ndarray) -> np.ndarray:
    if spec.kind == GEODESIC_BALL:
        return geometry.distance(pts, spec.center) < spec.radius
    if spec.kind == EUCLIDEAN_BALL:
        return q.vnorm2(pts - spec.center) < spec.radius ** 2
    mask = np.asarray(spec.membership(pts), dtype=bool)
    if mask.shape != pts.shape[:1]:
        raise QhbError(f"membership callback returned shape {mask.shape}, "
                       f"expected ({pts.shape[0]},)")
    return mask


def region_to_json(spec: RegionSpec) -> dict:
    if spec.kind == INDICATOR:
        raise QhbError("indicator regions are in-process only and cannot be serialized")
    return {
        "kind": spec.kind,
        "center": q.to_lists(spec.center),
        "radius": spec.radius,
        "dimension": spec.n,
    }


def region_from_json(obj: dict) -> RegionSpec:
    try:
        kind = obj["kind"]
        center = q.hvector_from_json(obj["center"])
        radius = float(obj["radius"])
        n = int(obj["dimension"])
    except KeyError as exc:
        raise QhbError(f"missing field {exc} in region") from None
    if kind == GEODESIC_BALL:
        return geodesic_ball(center, radius, n=n)
    if kind == EUCLIDEAN_BALL:
        return euclidean_ball(center, radius, n=n)
    raise QhbError(f"unknown region kind {kind!r}")


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
    box_volume: float


def _worker_threads() -> int:
    raw = os.environ.get("QHB_THREADS", "0")
    try:
        v = int(raw)
    except ValueError:
        v = 0
    if v <= 0:
        v = min(8, os.cpu_count() or 1)
    return v


def _sample_chunk(spec: RegionSpec, seed: int, index: int, size: int) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(key=[seed, index]))
    # the same draws as rng.uniform(box_lo, box_hi), without its broadcasting
    flat = rng.random((size, 4 * spec.n))
    flat *= spec.box_hi - spec.box_lo
    flat += spec.box_lo
    pts = flat.reshape(size, spec.n, 4)
    keep = q.vnorm2(pts) < MAX_NORM2
    pts = pts[keep]
    if pts.shape[0]:
        pts = pts[_contains(spec, pts)]
    return pts


def sample_region(spec: RegionSpec, count: int, seed: int) -> SampleSet:
    """Draw `count` box proposals, keep those inside the region, weight by the
    invariant density.  Deterministic for fixed (spec, count, seed)."""
    if count < 1:
        raise QhbError("sample count must be >= 1")
    sizes = [CHUNK] * (count // CHUNK)
    if count % CHUNK:
        sizes.append(count % CHUNK)
    jobs = list(enumerate(sizes))
    threads = _worker_threads()
    if threads > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda j: _sample_chunk(spec, seed, j[0], j[1]), jobs))
    else:
        parts = [_sample_chunk(spec, seed, k, m) for k, m in jobs]
    accepted = np.concatenate(parts, axis=0) if parts else np.zeros((0, spec.n, 4))
    if accepted.shape[0] == 0:
        raise EmptyRegion(f"no proposals accepted out of {count}")

    box_volume = float(np.prod(spec.box_hi - spec.box_lo))
    vals = geometry.measure_density(accepted) * box_volume  # per-proposal mass values
    mass = float(np.sum(vals)) / count
    dist0 = 2.0 * np.arctanh(q.vnorm(accepted))
    mom_vals = vals * dist0
    moment = float(np.sum(mom_vals)) / count

    samples = WeightedPoints(points=accepted, weights=vals / count)
    return SampleSet(
        samples=samples, seed=seed, count_requested=count,
        count_accepted=accepted.shape[0], total_mass_estimate=mass,
        moment_estimate=moment, standard_error=_mc_se(vals, count),
        moment_standard_error=_mc_se(mom_vals, count), box_volume=box_volume,
    )


def _mc_se(nonzero_vals: np.ndarray, count: int) -> float:
    """Standard error of a mean over `count` proposals whose only nonzero
    values are `nonzero_vals` (rejected proposals contribute zero), shape
    (M, ...); for vector values, the root of the summed variances of the
    trailing components."""
    mean = np.sum(nonzero_vals, axis=0) / count
    second = np.sum(nonzero_vals * nonzero_vals, axis=0) / count
    return float(np.sqrt(np.sum(np.maximum(second - mean * mean, 0.0) / count)))


@dataclass(frozen=True, eq=False)
class RegionResult:
    result: SolverResult
    sample_set: SampleSet
    barycenter_standard_error: float


def region_barycenter(spec: RegionSpec, count: int, seed: int,
                      config: SolverConfig | None = None) -> RegionResult:
    """Sample the region and solve for the barycenter of the sampled measure.

    The returned standard error propagates the MC error of the residual
    through the (well-conditioned) residual equation as SE(R)/mass."""
    ss = sample_region(spec, count, seed)
    res = solve(ss.samples, config)
    phi = mobius.hua_new(res.barycenter)
    mapped = mobius.hua_apply(phi, ss.samples.points)
    y = (ss.samples.weights * count)[:, None, None] * mapped  # per-proposal residual terms
    bary_se = _mc_se(y, count) / ss.total_mass_estimate
    return RegionResult(result=res, sample_set=ss, barycenter_standard_error=bary_se)
