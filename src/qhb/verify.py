"""Randomized identity checks behind the `verify` CLI command.

Each check draws random configurations, evaluates one geometric identity,
and yields arrays of errors; run_check reports their maximum.  Checks call
the public module functions through their modules (so a deliberately
broken function is picked up by the harness, which the test suite exploits
to prove the harness can fail).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import barycenter, geometry, mobius, regions
from . import quaternions as q

# ---------------------------------------------------------------------------
# random generators shared by checks and tests


def random_ball_points(rng, n: int, size: int, rmax: float = 0.9) -> np.ndarray:
    """Points of norm < rmax, radially resampled to fill the ball."""
    x = rng.standard_normal((size, n, 4))
    norms = q.vnorm(x)
    radii = rmax * rng.random(size) ** (1.0 / (4 * n))
    return x * (radii / norms)[:, None, None]


def random_ball_point(rng, n: int, rmax: float = 0.9) -> np.ndarray:
    return random_ball_points(rng, n, 1, rmax)[0]


def random_unit_quaternion(rng) -> np.ndarray:
    v = rng.standard_normal(4)
    return v / np.linalg.norm(v)


def random_unit_vector(rng, n: int) -> np.ndarray:
    v = rng.standard_normal((n, 4))
    return v / q.vnorm(v)


def random_spn_block(rng, n: int) -> np.ndarray:
    """Random A with AA* = I, by quaternionic Gram-Schmidt on columns."""
    m = rng.standard_normal((n, n, 4))
    for k in range(n):
        col = m[:, k]
        for j in range(k):
            col = col - q.right_scale(m[:, j], q.inner(col, m[:, j]))
        m[:, k] = col / q.vnorm(col)
    return m


def _raw_rotation(rng, n: int) -> np.ndarray:
    m = q.identity_matrix(n + 1)
    m[:n, :n] = random_spn_block(rng, n)
    m[n, n] = random_unit_quaternion(rng)
    return m


def _raw_sp(rng, n: int, hua_factors: int = 2) -> np.ndarray:
    m = _raw_rotation(rng, n)
    for _ in range(hua_factors):
        phi = mobius.hua_new(random_ball_point(rng, n, rmax=0.7))
        m = q.mat_mul(m, mobius.hua_matrix_array(phi))
    return m


def random_rotation(rng, n: int) -> mobius.SpMatrix:
    """Random block-diagonal isometry fixing the origin."""
    return mobius.SpMatrix(matrix=_raw_rotation(rng, n))


def random_sp(rng, n: int, hua_factors: int = 2) -> mobius.SpMatrix:
    """Random isometry: product of Hua matrices and a rotation."""
    return mobius.SpMatrix(matrix=_raw_sp(rng, n, hua_factors))


def random_weighted_points(rng, n: int, size: int, rmax: float = 0.8) -> barycenter.WeightedPoints:
    return barycenter.WeightedPoints(
        points=random_ball_points(rng, n, size, rmax),
        weights=rng.uniform(0.5, 2.0, size),
    )


def _batches(trials: int, size: int):
    """Yield (n, b): batches of b <= size trials that sum to `trials`,
    alternating dimension 1 and 2.  Draws nothing; each check draws its
    own batch, so its random stream is fixed by the check alone."""
    for k, start in enumerate(range(0, trials, size)):
        yield 1 + k % 2, min(size, trials - start)


# ---------------------------------------------------------------------------
# quaternion algebra


def check_quaternion_norm_multiplicative(rng, trials: int):
    p = rng.uniform(-10.0, 10.0, (trials, 4))
    r = rng.uniform(-10.0, 10.0, (trials, 4))
    yield np.abs(q.qnorm(q.qmul(p, r)) - q.qnorm(p) * q.qnorm(r))


def check_quaternion_conj_antihomomorphism(rng, trials: int):
    p = rng.uniform(-10.0, 10.0, (trials, 4))
    r = rng.uniform(-10.0, 10.0, (trials, 4))
    yield np.abs(q.qconj(q.qmul(p, r)) - q.qmul(q.qconj(r), q.qconj(p)))


_EPS = float(np.finfo(float).eps)
_GAMMA4 = 2.0 * _EPS / (1.0 - 2.0 * _EPS)   # gamma_4 = 4u / (1 - 4u), u = eps / 2
_TINY = float(np.finfo(float).smallest_subnormal)


def _qabs(x) -> np.ndarray:
    """|x| of quaternions by nested hypot; squaring the components, as
    q.qnorm does, underflows to 0 below ~1e-154."""
    x = np.asarray(x, dtype=float)
    return np.hypot(np.hypot(x[..., 0], x[..., 1]), np.hypot(x[..., 2], x[..., 3]))


def associativity_bound(p, r, s) -> np.ndarray:
    """Float64 rounding bound on each component of (pr)s - p(rs), shape (..., 1).

    A component of pr is a length-4 dot product, off by at most
    gamma_4 |p||r| (Higham, "Accuracy and Stability of Numerical
    Algorithms", 2nd ed., sec. 3.1); so fl(pr) is off by a vector of length
    at most 2 gamma_4 |p||r|, fl(fl(pr) s) by (3 gamma_4 + 2 gamma_4^2)
    |p||r||s| per component, likewise p(rs), and the difference by twice
    that, about 12 eps |p||r||s|.  Underflow adds at most half a subnormal
    per rounded product; the last term bounds it through the second product.
    """
    np_, nr, ns = _qabs(p), _qabs(r), _qabs(s)
    rel = (6.0 * _GAMMA4 + 4.0 * _GAMMA4 ** 2) * np_ * nr * ns
    return (rel + 8.0 * _TINY * (np_ + ns + 1.0))[..., None]


def check_quaternion_associativity(rng, trials: int):
    """|(pr)s - p(rs)| as a fraction of its rounding bound."""
    p, r, s = (rng.uniform(-10.0, 10.0, (trials, 4)) for _ in range(3))
    err = np.abs(q.qmul(q.qmul(p, r), s) - q.qmul(p, q.qmul(r, s)))
    yield err / associativity_bound(p, r, s)


def check_inner_hermitian_symmetry(rng, trials: int):
    for n, b in _batches(trials, 64):
        z = random_ball_points(rng, n, b)
        w = random_ball_points(rng, n, b)
        yield np.abs(q.qconj(q.inner(z, w)) - q.inner(w, z))


# ---------------------------------------------------------------------------
# Hua involution and Sp(n,1)


def check_involution(rng, trials: int):
    for n, b in _batches(trials, 64):
        u, z = random_ball_point(rng, n), random_ball_points(rng, n, b)
        phi = mobius.hua_new(u)
        yield np.abs(mobius.hua_apply(phi, mobius.hua_apply(phi, z)) - z)


def check_norm_relation(rng, trials: int):
    for n, b in _batches(trials, 64):
        u, z = random_ball_point(rng, n), random_ball_points(rng, n, b)
        phi = mobius.hua_new(u)
        lhs = q.vnorm2(mobius.hua_apply(phi, z))
        rhs = (1.0 - q.vnorm2(u)) * (1.0 - q.vnorm2(z)) / q.qnorm2(q.ONE - q.inner(z, u))
        yield np.abs(lhs + rhs - 1.0)


def check_sp_membership(rng, trials: int):
    for n, _ in _batches(trials, 1):
        yield mobius.sp_defect(_raw_sp(rng, n))


def check_action_consistency(rng, trials: int):
    for n, b in _batches(trials, 64):
        u, z = random_ball_point(rng, n), random_ball_points(rng, n, b)
        phi = mobius.hua_new(u)
        g = mobius.hua_matrix(phi)
        yield np.abs(mobius.sp_apply(g, z) - mobius.hua_apply(phi, z))


def check_au_inverse(rng, trials: int):
    # the Hua matrix's top-left block is -A_u / s
    for n, _ in _batches(trials, 1):
        phi = mobius.hua_new(random_ball_point(rng, n))
        au = -phi.s * mobius.hua_matrix_array(phi)[:n, :n]
        inv = -q.outer(phi.u, phi.u) / ((1.0 + phi.s) * phi.s) \
            + q.identity_matrix(n) / phi.s
        yield np.abs(q.mat_mul(au, inv) - q.identity_matrix(n))


def check_jacobian_fd(rng, trials: int, step: float = 1e-5):
    for n, _ in _batches(trials, 1):
        phi = mobius.hua_new(random_ball_point(rng, n, rmax=0.8))
        z = random_ball_point(rng, n, rmax=0.8)
        jac = float(mobius.jacobian_det(phi, z))
        basis = np.eye(4 * n).reshape(4 * n, n, 4)
        probes = z[None] + np.concatenate([step * basis, -step * basis], axis=0)
        images = mobius.hua_apply(phi, probes)  # (8n, n, 4)
        cols = (images[: 4 * n] - images[4 * n:]) / (2.0 * step)
        fd = abs(float(np.linalg.det(cols.reshape(4 * n, 4 * n).T)))
        yield abs(fd - jac) / jac


def check_measure_invariance(rng, trials: int):
    for n, b in _batches(trials, 64):
        u, z = random_ball_point(rng, n, 0.85), random_ball_points(rng, n, b, 0.85)
        phi = mobius.hua_new(u)
        lhs = mobius.jacobian_det(phi, z) * geometry.measure_density(mobius.hua_apply(phi, z))
        rhs = geometry.measure_density(z)
        yield np.abs(lhs / rhs - 1.0)


def check_intertwine_offdiag(rng, trials: int):
    # every isometry is exactly rotation . Phi_c, so one Hua factor is general
    for n, _ in _batches(trials, 1):
        g = _raw_sp(rng, n, hua_factors=1)
        m = mobius._intertwine_product(g, random_ball_point(rng, n, rmax=0.7))
        yield np.abs(m[:-1, -1])
        yield np.abs(m[-1, :-1])


def check_intertwine_pointwise(rng, trials: int):
    for n, b in _batches(trials, 16):
        g = random_sp(rng, n)
        c = random_ball_point(rng, n, rmax=0.7)
        u_fac = mobius.intertwine_factor(g, c)
        z = random_ball_points(rng, n, b, rmax=0.8)
        lhs = mobius.sp_apply(u_fac, mobius.hua_apply(mobius.hua_new(c), z))
        rhs = mobius.hua_apply(mobius.hua_new(mobius.sp_apply(g, c)), mobius.sp_apply(g, z))
        yield np.abs(lhs - rhs)


# ---------------------------------------------------------------------------
# distance, measure, convexity


def check_poisson_distance(rng, trials: int):
    for n, b in _batches(trials, 64):
        y, z = random_ball_point(rng, n), random_ball_points(rng, n, b)
        lhs = np.log(geometry.cosh2_half_distance(z, y))
        rhs = 2.0 * geometry.log_cosh(geometry.distance(z, y) / 2.0)
        yield np.abs(lhs - rhs)


def check_triangle_inequality(rng, trials: int):
    for n, b in _batches(trials, 64):
        p = random_ball_points(rng, n, b)
        mid = random_ball_point(rng, n)
        r = random_ball_point(rng, n)
        yield geometry.distance(p, r) - geometry.distance(p, mid) - float(geometry.distance(mid, r))


def check_distance_isometry(rng, trials: int):
    for n, b in _batches(trials, 32):
        g = random_sp(rng, n)
        p = random_ball_points(rng, n, b)
        y = random_ball_point(rng, n)
        lhs = geometry.distance(mobius.sp_apply(g, p), mobius.sp_apply(g, y))
        yield np.abs(lhs - geometry.distance(p, y))


def check_geodesic_endpoint(rng, trials: int):
    for n, _ in _batches(trials, 1):
        p = random_ball_point(rng, n)
        y = random_ball_point(rng, n)
        chart = geometry.geodesic_between(p, y)
        d = float(geometry.distance(y, p))
        yield np.abs(geometry.geodesic_point(chart, d) - y)


def check_coercivity(rng, trials: int):
    t = np.linspace(0.0, 50.0, 5001)
    bound = t - 2.0 * math.log(2.0)
    value = 2.0 * geometry.log_cosh(t / 2.0)
    yield bound - value


def _kernel_profile_values(v, y, t):
    x = np.multiply.outer(np.tanh(np.asarray(t) / 2.0), v)
    return np.log(geometry.cosh2_half_distance(x, y))


def check_convexity_fd(rng, trials: int, h: float = 1e-3):
    tgrid = np.linspace(-3.0, 3.0, 7)
    offsets = np.array([-2.0 * h, -h, 0.0, h, 2.0 * h])
    for n, _ in _batches(max(1, trials // len(tgrid)), 1):
        v = random_unit_vector(rng, n)
        y = random_ball_point(rng, n)
        prof = geometry.convexity_profile(v, y)
        closed = geometry.convexity_second_derivative(prof, tgrid)
        f = _kernel_profile_values(v, y, (tgrid[:, None] + offsets[None, :]).ravel())
        f = f.reshape(len(tgrid), len(offsets))
        fd = (-f[:, 0] + 16.0 * f[:, 1] - 30.0 * f[:, 2] + 16.0 * f[:, 3] - f[:, 4]) / (12.0 * h * h)
        yield np.abs(closed - fd)


def check_convexity_positive(rng, trials: int):
    tgrid = np.linspace(-10.0, 10.0, 25)
    for n, _ in _batches(trials, 1):
        prof = geometry.convexity_profile(random_unit_vector(rng, n), random_ball_point(rng, n, rmax=0.98))
        yield -geometry.convexity_second_derivative(prof, tgrid)


# ---------------------------------------------------------------------------
# barycenter and sampling


def gradient_check(data: barycenter.WeightedPoints, c) -> float:
    """Max componentwise gap between a five-point finite difference of
    G_c at 0, with spacing 1e-5, and the closed form -2 R(c)."""
    c = q.hvector(c)
    n = c.shape[0]
    step = 1e-5
    phi = mobius.hua_new(c)
    target = -2.0 * barycenter.residual(data, c).ravel()
    basis = np.eye(4 * n).reshape(4 * n, n, 4)
    offsets = np.array([-2.0, -1.0, 1.0, 2.0]) * step
    probes = offsets[None, :, None, None] * basis[:, None, :, :]  # (4n, 4, n, 4)
    e = barycenter._energy_batch(data, mobius.hua_apply(phi, probes))
    fd = (e[:, 0] - 8.0 * e[:, 1] + 8.0 * e[:, 2] - e[:, 3]) / (12.0 * step)
    return float(np.max(np.abs(fd - target)))


def check_gradient_residual(rng, trials: int):
    for n, _ in _batches(trials, 1):
        data = random_weighted_points(rng, n, int(rng.integers(2, 7)))
        c = random_ball_point(rng, n, rmax=0.7)
        yield gradient_check(data, c)


def check_solver_start_independence(rng, trials: int):
    for n, _ in _batches(trials, 1):
        data = random_weighted_points(rng, n, 10)
        sols = [barycenter.solve(data, start=random_ball_point(rng, n, rmax=0.8)).barycenter
                for _ in range(5)]
        for i in range(len(sols)):
            for j in range(i + 1, len(sols)):
                yield geometry.distance(sols[i], sols[j])


def check_symmetric_four_point(rng, trials: int):
    pts = np.array([
        [[0.5, 0.0, 0.0, 0.0]], [[-0.5, 0.0, 0.0, 0.0]],
        [[0.0, 0.5, 0.0, 0.0]], [[0.0, -0.5, 0.0, 0.0]],
    ])
    data = barycenter.WeightedPoints(points=pts, weights=np.ones(4))
    start = random_ball_point(rng, 1, rmax=0.5)
    res = barycenter.solve(data, start=start)
    yield q.vnorm(res.barycenter)


def check_energy_monotone(rng, trials: int):
    for n, _ in _batches(trials, 1):
        data = random_weighted_points(rng, n, 8)
        # one energy difference per accepted step; none if the start converged
        yield from np.diff(barycenter.solve(data).energy_trace)


def check_energy_convex_geodesic(rng, trials: int):
    tgrid = np.linspace(-2.0, 2.0, 21)
    for n, _ in _batches(trials, 1):
        data = random_weighted_points(rng, n, 6)
        chart = geometry.geodesic_chart(random_ball_point(rng, n, rmax=0.5),
                                        random_unit_vector(rng, n))
        vals = barycenter._energy_batch(data, geometry.geodesic_point(chart, tgrid))
        second = vals[:-2] - 2.0 * vals[1:-1] + vals[2:]
        yield -second


def check_sampler_determinism(rng, trials: int):
    seed = int(rng.integers(0, 2 ** 63))
    spec = regions.geodesic_ball(q.hvector([[0.2, 0.0, 0.1, 0.0]]), 0.8)
    a = regions.sample_region(spec, 4096, seed)
    b = regions.sample_region(spec, 4096, seed)
    if a.samples.points.shape != b.samples.points.shape:
        yield np.inf
        return
    yield np.abs(a.samples.points - b.samples.points)
    yield np.abs(a.samples.weights - b.samples.weights)


def check_mass_consistency(rng, trials: int):
    seed = int(rng.integers(0, 2 ** 63))
    spec = regions.geodesic_ball(q.zero_vector(1), math.log(3.0))
    ss = regions.sample_region(spec, 50_000, seed)
    exact = float(geometry.ball_volume(math.log(3.0), 1))
    yield abs(ss.total_mass_estimate - exact) - 3.0 * ss.standard_error


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class Check:
    name: str
    tolerance: float
    fn: Callable        # (rng, trials) -> iterable of error arrays
    divisor: int = 1   # trials are scaled down for expensive checks


@dataclass(frozen=True)
class CheckResult:
    name: str
    trials: int
    max_error: float
    tolerance: float
    passed: bool
    note: str = ""


CHECKS = [
    Check("quaternion_norm_multiplicative", 1e-12, check_quaternion_norm_multiplicative),
    Check("quaternion_conj_antihomomorphism", 1e-12, check_quaternion_conj_antihomomorphism),
    Check("quaternion_associativity", 1.0, check_quaternion_associativity),
    Check("inner_hermitian_symmetry", 1e-12, check_inner_hermitian_symmetry),
    Check("involution", 1e-12, check_involution),
    Check("norm_relation", 1e-12, check_norm_relation),
    Check("sp_membership", 1e-10, check_sp_membership),
    Check("action_consistency", 1e-12, check_action_consistency),
    Check("au_inverse", 1e-12, check_au_inverse, divisor=4),
    Check("jacobian_fd", 1e-6, check_jacobian_fd),
    Check("measure_invariance", 1e-10, check_measure_invariance),
    Check("intertwine_offdiag", 1e-10, check_intertwine_offdiag),
    Check("intertwine_pointwise", 1e-10, check_intertwine_pointwise, divisor=4),
    Check("poisson_distance", 1e-12, check_poisson_distance),
    Check("triangle_inequality", 1e-10, check_triangle_inequality),
    Check("distance_isometry", 1e-10, check_distance_isometry),
    Check("geodesic_endpoint", 1e-10, check_geodesic_endpoint, divisor=4),
    Check("coercivity", 0.0, check_coercivity),
    Check("convexity_fd", 1e-5, check_convexity_fd),
    Check("convexity_positive", 0.0, check_convexity_positive),
    Check("gradient_residual", 1e-5, check_gradient_residual, divisor=100),
    Check("solver_start_independence", 1e-8, check_solver_start_independence, divisor=2000),
    Check("symmetric_four_point", 1e-10, check_symmetric_four_point, divisor=10_000),
    Check("energy_monotone", 0.0, check_energy_monotone, divisor=1000),
    Check("energy_convex_geodesic", 0.0, check_energy_convex_geodesic, divisor=1000),
    Check("sampler_determinism", 0.0, check_sampler_determinism, divisor=10_000),
    Check("mass_consistency", 0.0, check_mass_consistency, divisor=10_000),
]


def run_check(check: Check, seed: int, trials: int, stream: int = 0) -> CheckResult:
    used = max(1, trials // check.divisor)
    rng = np.random.default_rng([seed, stream])
    try:
        err = max((float(np.max(e)) for e in check.fn(rng, used)), default=0.0)
    except Exception as exc:  # a crashing identity is a failed identity
        return CheckResult(name=check.name, trials=used, max_error=float("inf"),
                           tolerance=check.tolerance, passed=False,
                           note=f"{type(exc).__name__}: {exc}")
    return CheckResult(name=check.name, trials=used, max_error=err,
                       tolerance=check.tolerance, passed=bool(err <= check.tolerance))


def run_all(seed: int, trials: int) -> list[CheckResult]:
    """Run every registered check; empty list when trials == 0."""
    if trials <= 0:
        return []
    return [run_check(c, seed, trials, stream=i) for i, c in enumerate(CHECKS)]
