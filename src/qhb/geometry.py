"""Bergman distance, geodesics, invariant measure, ball volumes, convexity.

All quantities refer to the metric whose distance from the origin is
d(0, z) = log((1+|z|)/(1-|z|)) and whose isometry group is Sp(n,1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mobius
from . import quaternions as q
from .errors import DegenerateGeodesic, DimensionMismatch, InvalidProfile, NonFinite, QhbError

# below this separation two points are considered coincident for geodesics
_COINCIDENT = 1e-15


def distance(p, q_point) -> np.ndarray:
    """Bergman distance d(p, c), c = q_point, from S = sinh^2(d/2) in
    Poisson form less one:

        S = ((1 - |c|^2)|p - c|^2 + |<p - c, c>|^2) / ((1 - |p|^2)(1 - |c|^2)),
        d = 2 asinh(sqrt(S)) = log1p(2S + 2 sqrt(S(1 + S))).

    The numerator is a sum of squares in p - c (mobius._sinh2_rows, also
    the geodesic-ball sampler's membership test), so nothing cancels as
    p -> c; the numerator c - A_c p of Phi_c(p), whose norm is tanh(d/2),
    does cancel there.
    The log1p form gives d(0, 1/2) = log 3 to the ulp, where
    2 * arcsinh(sqrt(S)) is one ulp low.

    p may carry leading batch axes; q_point is a single point.
    """
    c = q.hvector(q_point)
    c2 = mobius._ball_norm2(c)
    p = q.hvectors(p, c.shape[0])
    p2 = mobius._ball_norm2(p)
    s = mobius._sinh2_rows(c, p.reshape(-1, c.size)).reshape(p2.shape)
    s /= (1.0 - p2) * (1.0 - c2)
    return np.log1p(2.0 * s + 2.0 * np.sqrt(s * (1.0 + s)))


def cosh2_half_distance(x, y) -> np.ndarray:
    """Poisson-kernel form |1 - <x,y>|^2 / ((1-|x|^2)(1-|y|^2)) = cosh^2(d/2)."""
    x = mobius.ball_points(x)
    y = mobius.ball_points(y)
    num = q.qnorm2(q.ONE - q.inner(x, y))
    return num / ((1.0 - q.vnorm2(x)) * (1.0 - q.vnorm2(y)))


def log_cosh(x) -> np.ndarray:
    """log cosh x, stable for large |x|."""
    ax = np.abs(np.asarray(x, dtype=float))
    return ax + np.log1p(np.exp(-2.0 * ax)) - math.log(2.0)


# ---------------------------------------------------------------------------
# geodesics


@dataclass(frozen=True, eq=False)
class GeodesicChart:
    """Unit-speed geodesic t -> Phi_base(-tanh(t/2) direction).

    The sign makes the curve leave base toward +direction; for base = 0 it
    is exactly t -> tanh(t/2) direction.  t is arc length and t=0 maps to
    base.  A fan of geodesics from one base has a stack of directions.
    """

    phi: mobius.HuaInvolution  # Phi_base
    direction: np.ndarray      # (..., n, 4), each |direction| = 1

    @property
    def base(self) -> np.ndarray:  # read-only, |base| < 1
        return self.phi.u


def geodesic_chart(base, direction) -> GeodesicChart:
    """The geodesic from base toward a finite nonzero direction of the same
    n, of any scale."""
    phi = mobius.hua_new(base)
    direction = q.hvector(direction, phi.n)
    if not np.all(np.isfinite(direction)):
        raise NonFinite("direction must be finite")
    if not np.any(direction):
        raise DegenerateGeodesic("zero direction")
    dn = float(q.vnorm(direction))
    if not 2.0 ** -511 <= dn < math.inf:  # |direction|^2 is not a normal float
        direction = direction / np.max(np.abs(direction))
        dn = float(q.vnorm(direction))
    return GeodesicChart(phi=phi, direction=direction / dn)


def geodesic_point(chart: GeodesicChart, t) -> np.ndarray:
    """Point at arc length t, of shape broadcast(t.shape,
    direction.shape[:-2]) + (n, 4): t broadcasts against the leading axes
    of a fan's directions.  An array t on a chart of one direction gives a
    batch of points along it; on a fan of b geodesics, t of shape (T, 1)
    gives a (T, b) grid of points, T along each."""
    t = np.asarray(t, dtype=float)
    w = -np.tanh(t / 2.0)[..., None, None] * chart.direction
    return mobius.hua_apply(chart.phi, w)


def geodesic_between(p, q_point) -> GeodesicChart:
    """Chart based at p through q: point(d(p,q)) = q.  Midpoint = point(d/2).

    q_point may be a fan of endpoints (..., n, 4); the chart's direction
    then has that shape, and point(d(p, q_point)) returns every endpoint."""
    phi = mobius.hua_new(p)
    m = mobius.hua_apply(phi, q_point)
    mn = q.vnorm(m)
    if np.any(mn < _COINCIDENT):
        raise DegenerateGeodesic("endpoints coincide")
    return GeodesicChart(phi=phi, direction=-m / mn[..., None, None])


# ---------------------------------------------------------------------------
# invariant measure and volumes


def measure_density(z) -> np.ndarray:
    """Density 4^(2n) / (1-|z|^2)^(2n+2) of the invariant volume w.r.t.
    Lebesgue measure on R^(4n).  Batched over z."""
    z = q.hvectors(z)
    z2 = mobius._ball_norm2(z)
    n = z.shape[-2]
    return 4.0 ** (2 * n) / (1.0 - z2) ** (2 * n + 2)


def ball_volume(rho, n: int) -> np.ndarray:
    """Volume of a metric ball of radius rho in the n-dimensional ball model:

        (4 pi)^(2n)/(2n+1)! * sinh^(4n)(rho/2) * (1 + 2n cosh^2(rho/2)),

    the product of 4 pi sinh^2(rho/2) / k, k = 1 .. 2n, and (1 + 2n
    cosh^2(rho/2)) / (2n + 1) as a mantissa and a power of two (np.frexp),
    rounded once by np.ldexp: 0.0 where the volume underflows, inf where it
    overflows, never NaN, and within 4, 7, 10 and 26 eps of a 60-digit
    reference on rho in [1e-3, 20] at n = 1, 2, 3, 8.  numpy's array sinh
    and cosh round unlike its scalar ones, so an element of an array of
    radii can differ in its last bits from the radius alone (1 or 2 in 2000).

    Raises DimensionMismatch for n < 1, NonFinite for a NaN or infinite
    rho and QhbError for a negative one.
    """
    if n < 1:
        raise DimensionMismatch(f"dimension must be >= 1, got {n}")
    rho = np.asarray(rho, dtype=float)
    if not np.all(np.isfinite(rho)):
        raise NonFinite("radius must be finite")
    if np.any(rho < 0.0):
        raise QhbError("radius must be >= 0")
    half = rho / 2.0
    with np.errstate(over="ignore", under="ignore"):
        x, tail = 4.0 * math.pi * np.sinh(half) ** 2, 1.0 + 2 * n * np.cosh(half) ** 2
        m, e = np.ones_like(half), 0
        for k in range(1, 2 * n + 2):
            m, de = np.frexp(m * ((x if k <= 2 * n else tail) / k))
            e = e + de
        return np.ldexp(m, e)


# ---------------------------------------------------------------------------
# convexity certificate


@dataclass(frozen=True, eq=False)
class ConvexityProfile:
    """Data (a, r) = (Re w, |w|), w = <v, y>, for the energy kernel restricted
    to the origin geodesic with unit direction v and fixed target y; a and
    r are floats, or arrays of one shape for a stack of (v, y)."""

    a: float | np.ndarray
    r: float | np.ndarray

    def __post_init__(self):
        if not np.all((np.abs(self.a) <= self.r) & (self.r < 1.0)):
            raise InvalidProfile(f"need |a| <= r < 1, got a={self.a}, r={self.r}")


def convexity_profile(v, y) -> ConvexityProfile:
    """Profile of t -> log cosh^2(d(tanh(t/2) v, y)/2) for unit v, |y| < 1.

    v and y are one vector (n, 4) each, or stacks of one shape (..., n, 4),
    which give a profile per pair."""
    v = q.hvectors(v)
    if not np.all(np.abs(q.vnorm(v) - 1.0) <= 1e-9):
        raise InvalidProfile("direction must be a unit vector")
    y = mobius.ball_points(y)
    if y.shape != v.shape:
        raise DimensionMismatch(f"direction has shape {v.shape}, target {y.shape}")
    w = q.inner(v, y)
    r = q.qnorm(w)
    if np.any(r >= 1.0):
        raise InvalidProfile("|<v,y>| must be < 1")
    a = np.minimum(np.maximum(w[..., 0], -r), r)  # guard one-ulp |Re w| > |w| roundoff
    return ConvexityProfile(a=a, r=r)


def convexity_second_derivative(profile: ConvexityProfile, t) -> np.ndarray:
    """Closed form f''(t) = (1-u^2)/2 * N(u)/P(u)^2, u = tanh(t/2), with

        P(u) = 1 - 2 a u + r^2 u^2,
        N(u) = (1 + r^2 - 2 a^2) - 2 a (1 - r^2) u + (2 a^2 - r^4 - r^2) u^2,

    strictly positive for every t (the energy kernel is strictly convex
    along geodesics).  The result has shape profile.a.shape + t.shape."""
    u = np.tanh(np.asarray(t, dtype=float) / 2.0)
    lead = np.shape(profile.a) + (1,) * u.ndim
    a, r = np.reshape(profile.a, lead), np.reshape(profile.r, lead)
    p = 1.0 - 2.0 * a * u + r * r * u * u
    nq = (1.0 + r * r - 2.0 * a * a) - 2.0 * a * (1.0 - r * r) * u \
        + (2.0 * a * a - r ** 4 - r * r) * u * u
    return 0.5 * (1.0 - u * u) * nq / (p * p)
