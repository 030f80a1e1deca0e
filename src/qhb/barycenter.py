"""Energy, residual, and the geodesically convex barycenter solver.

For a weighted point set {(q_i, w_i)} in the open unit ball the energy

    G(x) = sum_i w_i log( |1 - <x,q_i>|^2 / ((1-|x|^2)(1-|q_i|^2)) )
         = sum_i w_i log cosh^2( d(x,q_i)/2 )

is strictly convex along geodesics and coercive, so it has a unique
minimizer c, characterized by the residual equation

    R(c) = sum_i w_i Phi_c(q_i) = 0        (R(c) = -grad G_c(0) / 2,
                                            G_c(x) = G(Phi_c(x))).

The solver takes Newton steps in the chart G_c = G o Phi_c, in which
geodesics through 0 are straight lines.  Each sweep over the points
returns R(c), G(c) and the real 4n x 4n Gram matrix C = P^T diag(w) P of
the mapped points p_i = Phi_c(q_i); the Hessian of G_c at 0 is then

    H = 2W I + 2 rho(S) - 4C,    S_jk = sum_i w_i p_ij conj(p_ik),

with rho(S) the real matrix of x -> (sum_k S_jk x_k)_j.  Strict geodesic
convexity makes H positive definite.  The step solves H delta = 2R (the
negative gradient of G_c at 0), maps delta into the open unit ball by

    x = 2 delta / (1 + sqrt(1 + 4|delta|^2)),

and moves to c <- Phi_c(eta x).  For a single point p in the chart,
delta = p / (1 - |p|^2) and x = p, so one point is reached in one step;
near the solution x = delta + O(|delta|^3), so convergence is quadratic.
Backtracking on eta keeps the energy from increasing; steps whose energy
change is below the rounding of the terms of G are judged on |R|, and a
step that rounds back to c is rejected without a sweep.

The solver starts at the origin, where Phi_0(q) = -q: the first sweep
maps no point (mobius._hua_rows returns -q there without its GEMMs or
division), and gives R(0) = -sum_i w_i q_i, G(0) = -sum_i w_i
log(1 - |q_i|^2) and the Gram matrix of the q_i themselves.  The first
Newton step is then taken in the chart of the origin, which is the ball
itself.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import mobius
from . import quaternions as q
from .errors import EmptyData, NonFinite, NotInBall, QhbError
from .mobius import _QMUL, _hua_rows

# line search gives up once eta underflows; the iterate cannot improve
_ETA_FLOOR = 1e-18
_EPS = float(np.finfo(float).eps)
# point sets, point files and region samples keep |q| < 1 - BOUNDARY_MARGIN,
# tested as |q|^2 < MAX_NORM2; closer points make the energy ill-conditioned
BOUNDARY_MARGIN = 1e-12
MAX_NORM2 = (1.0 - BOUNDARY_MARGIN) ** 2


@dataclass(frozen=True, eq=False)
class WeightedPoints:
    """Finite weighted point set in the open unit ball of H^n, weights
    positive and finite.  The solver works on _w = w 2^-e, e the frexp
    exponent of the largest weight rounded up to an even integer, so that
    sqrt(2^-e), by which the sweep scales the images, is a power of two too:
    the largest working weight is in [1/4, 1), no sum overflows, squares of
    R stay normal, and weights scaled by 2^(2j) give the same iterates.
    total_weight, energy, residual and solve's results are scaled back by 2^e
    (inf where the true value overflows); a weight below about 2^-1074 of the
    largest counts as 0."""

    points: np.ndarray   # (N, n, 4)
    weights: np.ndarray  # (N,), all > 0
    _w: np.ndarray = field(init=False, repr=False)    # weights * 2^-_scale
    _scale: int = field(init=False, repr=False)
    _total: float = field(init=False, repr=False)     # sum of _w
    _log_const: float = field(init=False, repr=False)
    total_weight: float = field(init=False, repr=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 3 or pts.shape[0] == 0:
            raise EmptyData(f"expected a nonempty (N, n, 4) point array, got {pts.shape}")
        pts = q.hvectors(pts)
        wts = np.asarray(self.weights, dtype=float)
        if wts.shape != (pts.shape[0],):
            raise QhbError(f"{pts.shape[0]} points but {wts.shape} weights")
        # whole-array tests, so a valid set pays nothing for naming the first bad index
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(wts))):
            i = int(np.argmax(~(np.isfinite(pts).all(axis=(1, 2)) & np.isfinite(wts))))
            raise NonFinite(f"point {i}: coordinates and weight must be finite")
        if np.any(wts <= 0.0):
            i = int(np.argmax(wts <= 0.0))
            raise QhbError(f"point {i}: weight must be positive, got {wts[i]:.17g}")
        nm2 = q.vnorm2(pts)
        if np.any(nm2 >= MAX_NORM2):
            i = int(np.argmax(nm2 >= MAX_NORM2))
            raise NotInBall(f"point {i}: |q| = {math.sqrt(nm2[i]):.17g} is not inside "
                            f"|q| < 1 - {BOUNDARY_MARGIN:g}")
        pts, wts = pts.copy(), wts.copy()
        e = (math.frexp(wts.max())[1] + 1) & ~1  # rounded up to even
        w = np.ldexp(wts, -e)
        for a in (pts, wts, w):
            a.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)
        object.__setattr__(self, "_w", w)
        object.__setattr__(self, "_scale", e)
        object.__setattr__(self, "_total", float(np.sum(w)))
        object.__setattr__(self, "total_weight", float(self._unscale(self._total)))
        # sum_i w_i log(1 - |q_i|^2), the x-independent part of the energy,
        # from the |q_i|^2 of the boundary test; G(0) = -_log_const
        object.__setattr__(self, "_log_const", float(np.sum(w * np.log1p(-nm2))))

    def _unscale(self, x):  # from the units of _w to the caller's
        with np.errstate(over="ignore"):
            return np.ldexp(x, self._scale)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def n(self) -> int:
        return self.points.shape[1]


def weighted_points(points, weights=None) -> WeightedPoints:
    """Build a WeightedPoints from array-likes; unit weights by default."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 2:
        pts = pts[:, None, :] if pts.shape[-1] == 4 else pts
    if weights is None:
        weights = np.ones(pts.shape[0])
    return WeightedPoints(points=pts, weights=np.asarray(weights, dtype=float))


def _check_int(name: str, v, lo: int, hi: float = math.inf) -> None:
    """Raise QhbError unless v is an integer (numpy's too, bool not) in [lo, hi)."""
    if isinstance(v, bool) or not isinstance(v, numbers.Integral) or not lo <= v < hi:
        raise QhbError(f"{name} must be an integer in [{lo}, {hi}), got {v!r}")


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 500
    tol: float = 1e-12       # residual norm per unit weight

    def __post_init__(self):
        _check_int("max_iters", self.max_iters, 1)
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise QhbError(f"tol must be positive and finite, got {self.tol}")


@dataclass(frozen=True, eq=False)
class SolverResult:
    barycenter: np.ndarray  # (n, 4)
    residual_norm: float
    energy: float             # G(barycenter)
    iterations: int
    stop_reason: str          # "converged", "max_iters" or "stalled"
    # G at the start (the origin's G(0) = -_log_const unless a start is
    # given) and after each accepted step
    energy_trace: tuple = ()

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"


def energy(data: WeightedPoints, x) -> float:
    """G(x) = sum_i w_i log cosh^2(d(x, q_i)/2) >= 0, as the solver's
    sweep evaluates it."""
    return float(data._unscale(_sweep(data, mobius.ball_points(q.hvector(x), data.n))[2]))


def residual(data: WeightedPoints, c) -> np.ndarray:
    """R(c) = sum_i w_i Phi_c(q_i), a vector in H^n; zero exactly at the
    barycenter.  The solver's sweep evaluates it."""
    return data._unscale(_sweep(data, mobius.ball_points(q.hvector(c), data.n))[0])


# -- the fused sweep ---------------------------------------------------------
#
# |1 - <c,q_i>|^2 in the energy is the kernel's squared denominator
# |1 - <q_i,c>|^2, so one kernel pass yields R(c), G(c) and the Gram matrix.


def _sweep(data: WeightedPoints, c: np.ndarray):
    """R(c), |R(c)|, G(c), the Gram matrix P^T diag(w) P of the mapped
    points p_i = Phi_c(q_i) and the rounding scale of G, the size of the
    three terms whose cancellation gives G.  The sums run over the blocks
    of mobius._hua_blocks, in block order, and take each block's images as
    the kernel returns them, component-major (4n, M): R and the weighted
    log sum are einsums over the long axis, not BLAS calls, and the Gram
    matrix is o o^T of the images o scaled by sqrt(w).  So no temporary
    grows with the point count, and no GEMM or sum wakes the BLAS worker
    threads or depends on the BLAS thread count."""
    n = data.n
    r_vec = np.zeros(4 * n)
    gram = np.zeros((4 * n, 4 * n))
    w_log = 0.0
    for rows, o, den2 in mobius._hua_blocks(c, data.points.reshape(data.size, -1)):
        w = data._w[rows]
        r_vec += np.einsum("ji,i->j", o, w)
        w_log += float(np.einsum("i,i->", w, np.log(den2)))
        o *= np.sqrt(w)
        gram += o @ o.T
    r_vec = r_vec.reshape(n, 4)
    w_norm = data._total * math.log1p(-float(q.vnorm2(c)))
    e = w_log - w_norm - data._log_const
    e_scale = abs(w_log) + abs(w_norm) + abs(data._log_const)
    return r_vec, float(q.vnorm(r_vec)), e, gram, e_scale


# -- Newton step in the chart ------------------------------------------------
#
# x^T rho(S) x = sum_i w_i |<x, p_i>|^2 with S_jk = sum_i w_i p_ij conj(p_ik),
# and rho(S) is a fixed linear image of the Gram matrix C: component e of
# a conj(b) is a^T B_e b, and the matrix of left multiplication by s is
# sum_e s_e L_e.  _GRAM_TO_RHO[c, d, a, b] = sum_e (L_e)_cd (B_e)_ab.

_GRAM_TO_RHO = np.einsum("edc,abe->cdab", _QMUL, _QMUL * q.qconj(np.ones(4))[:, None])


def _chart_hessian(gram: np.ndarray, total: float) -> np.ndarray:
    """Hessian of G_c at the chart origin, H = 2W I + 2 rho(S) - 4C, from
    the Gram matrix C = P^T diag(w) P of the mapped points p_i = Phi_c(q_i);
    positive definite because G is strictly geodesically convex."""
    m = gram.shape[0]
    n = m // 4
    rho = np.einsum("cdab,jakb->jckd", _GRAM_TO_RHO, gram.reshape(n, 4, n, 4))
    return 2.0 * total * np.eye(m) + 2.0 * rho.reshape(m, m) - 4.0 * gram


def _newton_point(r_vec: np.ndarray, gram: np.ndarray, total: float) -> np.ndarray:
    """Chart point of the Newton step: delta solves H delta = 2R, the
    negative gradient of G_c at 0, and is mapped into the open unit ball by
    delta -> 2 delta / (1 + sqrt(1 + 4|delta|^2)), the inverse of
    x -> x / (1 - |x|^2).  For a single point p, delta = p / (1 - |p|^2),
    so the step lands on p; near the solution it moves by delta + O(|delta|^3)."""
    delta = np.linalg.solve(_chart_hessian(gram, total), 2.0 * r_vec.ravel())
    shrink = 2.0 / (1.0 + math.sqrt(1.0 + 4.0 * float(delta @ delta)))
    return shrink * delta.reshape(r_vec.shape)


def solve(data: WeightedPoints, config: SolverConfig | None = None,
          start=None) -> SolverResult:
    """Minimize the energy; returns the unique barycenter.

    Starts at the origin unless `start` is given; the result is
    independent of the start up to the tolerance.  At the origin
    Phi_0(q) = -q, so the first sweep needs no map of the points and the
    first step is a Newton step on the points as given.  Convergence is
    declared on |R(c)| <= tol * total_weight, a bound in ball units: a set
    narrower than ~tol (a region of radius below ~1e-12) can converge at a
    point that its own scale does not resolve.  Otherwise the best iterate
    is returned, with stop_reason "max_iters" when the iteration budget ran
    out and "stalled" when the line search found no acceptable step.
    """
    cfg = config or SolverConfig()
    c = np.zeros((data.n, 4)) if start is None else mobius.ball_points(q.hvector(start), data.n).copy()

    r_vec, rn, g_c, gram, e_scale = _sweep(data, c)
    e_c = g_c  # G(c) as energy_trace records it: a no-increase step keeps the last record
    trace = [e_c]
    iterations = 0
    while True:
        if rn <= cfg.tol * data._total:
            stop_reason = "converged"
            break
        if iterations >= cfg.max_iters:
            stop_reason = "max_iters"
            break
        x = _newton_point(r_vec, gram, data._total)
        # energy decreases smaller than the rounding of the terms that
        # make up G are invisible in float64, so steps in that regime are
        # judged on the residual instead
        e_floor = 8.0 * _EPS * (1.0 + abs(e_c) + e_scale)
        eta = 1.0
        while eta >= _ETA_FLOOR:
            cand = _hua_rows(c, eta * x.reshape(1, -1))[0].reshape(c.shape)
            # a step that rounds back to c has c's G and |R|, so it cannot
            # pass either test: skip its sweep
            if not np.array_equal(cand, c):
                r_new, rn_new, g_new, gram_new, scale_new = _sweep(data, cand)
                if g_new < e_c or (g_new <= e_c + e_floor and rn_new < rn):
                    break
            eta *= 0.5
        else:
            stop_reason = "stalled"  # no acceptable step exists in this chart
            break
        c, r_vec, rn, g_c, gram, e_scale = cand, r_new, rn_new, g_new, gram_new, scale_new
        e_c = min(e_c, g_c)  # a step within the rounding is recorded as no increase
        trace.append(e_c)
        iterations += 1

    return SolverResult(
        barycenter=np.asarray(c, dtype=float),
        residual_norm=float(data._unscale(rn)),
        energy=float(data._unscale(g_c)),
        iterations=iterations,
        stop_reason=stop_reason,
        energy_trace=tuple(data._unscale(trace).tolist()),
    )
