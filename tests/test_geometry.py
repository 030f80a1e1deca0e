import decimal
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from qhb import geometry, mobius
from qhb import quaternions as q
from qhb.errors import DegenerateGeodesic, DimensionMismatch, InvalidProfile, NonFinite, NotInBall
from qhb.verify import (
    random_ball_point,
    random_ball_points,
    random_sp,
    random_unit_vector,
    random_unit_vectors,
)


def pt(*vals):
    return np.array([[v, 0.0, 0.0, 0.0] for v in vals])


# ---------------------------------------------------------------------------
# distance


def test_distance_examples():
    assert float(geometry.distance(pt(0.0), pt(0.5))) == pytest.approx(math.log(3), abs=1e-15)
    p = pt(0.3)
    assert float(geometry.distance(p, p)) == 0.0


def test_distance_arc_length(rng):
    v = random_unit_vector(rng, 2)
    t = 1.7
    z = math.tanh(t / 2) * v
    assert float(geometry.distance(np.zeros((2, 4)), z)) == pytest.approx(t, abs=1e-12)


def test_distance_symmetry_and_positivity(rng):
    for n in (1, 2):
        p = random_ball_point(rng, n)
        y = random_ball_point(rng, n)
        dpq = float(geometry.distance(p, y))
        dqp = float(geometry.distance(y, p))
        assert dpq == pytest.approx(dqp, abs=1e-12)
        assert dpq > 0


def test_distance_rejects_outside_points():
    with pytest.raises(NotInBall):
        geometry.distance(pt(1.0), pt(0.0))
    with pytest.raises(NotInBall):
        geometry.distance(pt(0.0), pt(1.0))
    for x, y in ((pt(math.nan), pt(0.0)), (pt(0.0), pt(math.nan))):
        with pytest.raises(NotInBall):
            geometry.distance(x, y)
        with pytest.raises(NotInBall):
            geometry.cosh2_half_distance(x, y)
    # p may be a batch, q_point is one point
    with pytest.raises(DimensionMismatch):
        geometry.distance(pt(0.0), np.zeros((2, 1, 4)))


def _decimal_distance(p, c):
    """d(p, c) for one point p of H^n, from sinh^2(d/2) in Poisson form
    less one, ((1-|c|^2)|p-c|^2 + |<p-c,c>|^2) / ((1-|p|^2)(1-|c|^2)),
    in exact rational arithmetic on the float inputs, and then
    2 asinh(sqrt(.)) in 40-digit decimal arithmetic."""
    def mul(a, b):
        return [a[0] * b[0] - a[1] * b[1] - a[2] * b[2] - a[3] * b[3],
                a[0] * b[1] + a[1] * b[0] + a[2] * b[3] - a[3] * b[2],
                a[0] * b[2] - a[1] * b[3] + a[2] * b[0] + a[3] * b[1],
                a[0] * b[3] + a[1] * b[2] - a[2] * b[1] + a[3] * b[0]]

    p = [[Fraction(float(x)) for x in row] for row in p]
    c = [[Fraction(float(x)) for x in row] for row in c]
    delta = [[a - b for a, b in zip(pj, cj)] for pj, cj in zip(p, c)]
    ip = [sum(col) for col in zip(*(mul([cj[0], -cj[1], -cj[2], -cj[3]], dj)
                                    for cj, dj in zip(c, delta)))]
    c2 = sum(x * x for row in c for x in row)
    num = (1 - c2) * sum(x * x for row in delta for x in row) + sum(x * x for x in ip)
    s = num / ((1 - sum(x * x for row in p for x in row)) * (1 - c2))
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        root = (decimal.Decimal(s.numerator) / decimal.Decimal(s.denominator)).sqrt()
        return float(2 * (root + (1 + root * root).sqrt()).ln())


def test_distance_accuracy_against_decimal_reference(rng):
    # separations 1e-2 ... 1e-12 from centers with |c| <= 0.9: the Poisson
    # form has no term that cancels as p -> c, so the relative error stays
    # within a few eps (2 artanh|Phi_c(p)| is off by up to 5.8e-8 at 1e-9
    # and 7.6e-5 at 1e-12 on these pairs)
    eps = float(np.finfo(float).eps)
    worst = 0.0
    for n in (1, 2, 3):
        for rmax in (0.1, 0.5, 0.9):
            c = random_ball_point(rng, n, rmax)
            for k in range(2, 13):
                p = c + 10.0 ** -k * random_unit_vectors(rng, n, 4)
                got = geometry.distance(p, c)
                ref = np.array([_decimal_distance(pi, c) for pi in p])
                worst = max(worst, float(np.max(np.abs(got - ref) / ref)))
    assert worst <= 16.0 * eps


def test_distance_runs_no_hua_kernel(rng, monkeypatch):
    # d(p, c) comes from the Poisson form alone; no Phi_c is formed
    def no_kernel(c, flat):
        raise AssertionError("distance called the Hua kernel")

    monkeypatch.setattr(mobius, "_hua_rows", no_kernel)
    for n in (1, 2, 4):
        for c in (np.zeros((n, 4)), random_ball_point(rng, n)):
            p = random_ball_points(rng, n, 2 * (mobius._BLOCK // n) + 3)
            assert np.all(geometry.distance(p, c) >= 0.0)
            assert float(geometry.distance(c, c)) == 0.0


def test_triangle_inequality(rng):
    for n in (1, 2):
        p = random_ball_points(rng, n, 50)
        mid = random_ball_point(rng, n)
        r = random_ball_point(rng, n)
        excess = geometry.distance(p, r) - geometry.distance(p, mid) - float(geometry.distance(mid, r))
        assert np.max(excess) <= 1e-10


def test_distance_isometry_invariance(rng):
    g = random_sp(rng, 2)
    p = random_ball_points(rng, 2, 20)
    y = random_ball_point(rng, 2)
    lhs = geometry.distance(mobius.sp_apply(g, p), mobius.sp_apply(g, y))
    assert np.allclose(lhs, geometry.distance(p, y), atol=1e-10)


# ---------------------------------------------------------------------------
# Poisson kernel form


def test_cosh2_half_distance_examples():
    x = pt(0.3)
    assert float(geometry.cosh2_half_distance(x, x)) == pytest.approx(1.0, abs=1e-15)
    got = float(geometry.cosh2_half_distance(pt(0.0), pt(0.5)))
    # cosh^2(log(3)/2) = ((sqrt3 + 1/sqrt3)/2)^2 = 4/3
    assert got == pytest.approx(4 / 3, abs=1e-15)


def test_cosh2_half_distance_consistency():
    x = np.array([[0.0, 0.0, 0.3, 0.0]])
    y = np.array([[0.0, 0.0, 0.0, 0.4]])
    lhs = float(geometry.cosh2_half_distance(x, y))
    d = float(geometry.distance(x, y))
    assert lhs == pytest.approx(math.cosh(d / 2) ** 2, rel=1e-12)


def test_poisson_distance_consistency_random(rng):
    for n in (1, 2):
        x = random_ball_points(rng, n, 30)
        y = random_ball_point(rng, n)
        lhs = np.log(geometry.cosh2_half_distance(x, y))
        rhs = 2.0 * geometry.log_cosh(geometry.distance(x, y) / 2.0)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_coercivity_bound_on_grid():
    t = np.linspace(0.0, 50.0, 5001)
    value = 2.0 * geometry.log_cosh(t / 2.0)
    assert np.all(value >= t - 2 * math.log(2.0))


# ---------------------------------------------------------------------------
# geodesics


def test_geodesic_point_at_zero_is_base(rng):
    base = random_ball_point(rng, 2)
    chart = geometry.geodesic_chart(base, random_unit_vector(rng, 2))
    assert np.allclose(geometry.geodesic_point(chart, 0.0), base, atol=1e-15)


def test_geodesic_from_origin():
    e1 = pt(1.0)
    chart = geometry.geodesic_chart(pt(0.0), e1)
    got = geometry.geodesic_point(chart, math.log(3))
    assert np.allclose(got, 0.5 * e1, atol=1e-15)
    # norms increase monotonically toward the boundary
    ts = np.linspace(0.0, 8.0, 50)
    norms = q.vnorm(geometry.geodesic_point(chart, ts))
    assert np.all(np.diff(norms) > 0)
    assert float(q.vnorm(geometry.geodesic_point(chart, 40.0))) > 1 - 1e-8


def test_geodesic_unit_speed(rng):
    base = random_ball_point(rng, 2)
    chart = geometry.geodesic_chart(base, random_unit_vector(rng, 2))
    for t in (0.3, 1.0, 2.5, -0.7, -1.9):
        d = float(geometry.distance(geometry.geodesic_point(chart, t), geometry.geodesic_point(chart, 0.0)))
        assert d == pytest.approx(abs(t), abs=1e-10)


def test_midpoint_examples():
    chart = geometry.geodesic_between(pt(0.0), pt(0.5))
    d = float(geometry.distance(pt(0.0), pt(0.5)))
    mid = geometry.geodesic_point(chart, d / 2)
    assert mid[0, 0] == pytest.approx(2 - math.sqrt(3), abs=1e-12)

    chart = geometry.geodesic_between(pt(1 / 3), pt(5 / 7))
    d = float(geometry.distance(pt(1 / 3), pt(5 / 7)))
    mid = geometry.geodesic_point(chart, d / 2)
    assert mid[0, 0] == pytest.approx((13 - 4 * math.sqrt(3)) / 11, abs=1e-12)
    assert abs(mid[0, 0] - 0.551) < 1e-3


def test_geodesic_endpoint_recovery(rng):
    for n in (1, 2):
        p = random_ball_point(rng, n)
        y = random_ball_point(rng, n)
        chart = geometry.geodesic_between(p, y)
        d = float(geometry.distance(p, y))
        assert np.max(np.abs(geometry.geodesic_point(chart, d) - y)) <= 1e-10


def test_degenerate_geodesic():
    with pytest.raises(DegenerateGeodesic):
        geometry.geodesic_between(pt(0.3), pt(0.3))
    batch = np.zeros((2, 1, 4))
    with pytest.raises(DimensionMismatch):
        geometry.geodesic_chart(batch, pt(1.0))
    # a batch of endpoints is a fan: one chart per endpoint, stacked
    fan = geometry.geodesic_between(pt(0.3), batch)
    assert np.array_equal(fan.direction, np.stack([geometry.geodesic_between(pt(0.3), y).direction
                                                   for y in batch]))


def test_geodesic_fan_equals_the_charts_of_its_endpoints(rng):
    # Equal to rounding, not bit for bit: hua_apply of one row takes BLAS's
    # one-row product, whose last bit can differ from a many-row product's
    # (the rows of a many-row product do not depend on one another).
    eps = np.finfo(float).eps
    for n in (1, 2, 3):
        p = random_ball_point(rng, n)
        ys = random_ball_points(rng, n, 6).reshape(2, 3, n, 4)
        fan = geometry.geodesic_between(p, ys)
        assert fan.direction.shape == (2, 3, n, 4)
        d = geometry.distance(ys, p)
        ends = geometry.geodesic_point(fan, d)
        mids = geometry.geodesic_point(fan, d / 2)
        fan_rows = geometry.geodesic_between(p, ys.reshape(6, n, 4))
        assert np.array_equal(fan_rows.direction, fan.direction.reshape(6, n, 4))
        ts = np.array([0.5, 1.0, 2.0])
        grid = geometry.geodesic_point(fan_rows, ts[:, None])
        assert grid.shape == (3, 6, n, 4)
        for j, t in enumerate(ts):
            assert np.allclose(grid[j], geometry.geodesic_point(fan_rows, np.full(6, t)), rtol=0.0, atol=1e-13)
        for idx in np.ndindex(2, 3):
            one = geometry.geodesic_between(p, ys[idx])
            assert np.max(np.abs(fan.direction[idx] - one.direction)) <= 2.0 * eps
            assert np.allclose(ends[idx], geometry.geodesic_point(one, d[idx]), rtol=0.0, atol=1e-13)
            assert np.allclose(mids[idx], geometry.geodesic_point(one, d[idx] / 2), rtol=0.0, atol=1e-13)
        assert np.max(np.abs(ends - ys)) <= 1e-10


@pytest.mark.parametrize("t", [0.7, np.linspace(-3.0, 3.0, 9), np.linspace(-3.0, 3.0, 9)[:, None]],
                         ids=["scalar", "T", "T-1"])
def test_geodesic_point_of_one_direction_is_the_outer_form(rng, t):
    chart = geometry.geodesic_chart(random_ball_point(rng, 2), random_unit_vector(rng, 2))
    outer = np.multiply.outer(-np.tanh(np.asarray(t) / 2.0), chart.direction)
    assert np.array_equal(geometry.geodesic_point(chart, t), mobius.hua_apply(chart.phi, outer))


def test_geodesic_fan_rejects_a_coincident_endpoint_and_a_wrong_n(rng):
    p = random_ball_point(rng, 2)
    ys = random_ball_points(rng, 2, 4)
    ys[2] = p
    with pytest.raises(DegenerateGeodesic):
        geometry.geodesic_between(p, ys)
    with pytest.raises(DimensionMismatch):
        geometry.geodesic_between(p, random_ball_points(rng, 3, 4))


@pytest.mark.parametrize("direction, error", [
    (np.array([[math.nan, 1.0, 0.0, 0.0]]), NonFinite),
    (np.array([[0.0, math.inf, 0.0, 0.0]]), NonFinite),
    (np.zeros((1, 4)), DegenerateGeodesic),
    (np.ones((2, 4)), DimensionMismatch),
], ids=["nan", "inf", "zero", "mismatched-n"])
def test_geodesic_chart_rejects_bad_direction(direction, error):
    with pytest.raises(error):
        geometry.geodesic_chart(pt(0.2), direction)


def test_geodesic_chart_with_an_overflowing_direction_norm():
    # |direction|^2 overflows to inf; the chart still gets the unit direction
    for big, unit in (([[1e200, 0.0, 0.0, 0.0]], [[1.0, 0.0, 0.0, 0.0]]),
                      ([[3e300, -4e300, 0.0, 0.0]], [[0.6, -0.8, 0.0, 0.0]])):
        chart = geometry.geodesic_chart(pt(0.1), big)
        ref = geometry.geodesic_chart(pt(0.1), unit)
        assert np.allclose(chart.direction, ref.direction, rtol=0.0, atol=1e-15)
        assert np.allclose(geometry.geodesic_point(chart, 1.0), geometry.geodesic_point(ref, 1.0),
                           rtol=0.0, atol=1e-15)
        assert float(geometry.distance(geometry.geodesic_point(chart, 1.0), pt(0.1))) \
            == pytest.approx(1.0, abs=1e-12)


def test_geodesic_chart_holds_one_copy_of_its_base():
    base = pt(0.1)
    chart = geometry.geodesic_chart(base, pt(2.0))
    base[0, 0] = 0.9
    assert chart.base is chart.phi.u and chart.base[0, 0] == 0.1
    assert np.array_equal(chart.direction, pt(1.0))
    with pytest.raises(ValueError):
        chart.base[0, 0] = 0.5


# ---------------------------------------------------------------------------
# measure and volume


def test_measure_density_at_origin():
    assert float(geometry.measure_density(np.zeros((1, 4)))) == 16.0
    assert float(geometry.measure_density(np.zeros((2, 4)))) == 256.0


def test_measure_density_rejects_boundary():
    with pytest.raises(NotInBall):
        geometry.measure_density(pt(1.0))
    with pytest.raises(NotInBall):
        geometry.measure_density(pt(math.nan))


def sphere_area(m: int) -> float:
    return 2.0 * math.pi ** (m / 2) / math.gamma(m / 2)


def volume_by_quadrature(rho: float, n: int) -> float:
    # radial integral of the volume element, an independent oracle
    def shell(r):
        return 4.0 ** (2 * n) * sphere_area(4 * n) * r ** (4 * n - 1) / (1 - r * r) ** (2 * n + 2)

    val, err = quad(shell, 0.0, math.tanh(rho / 2), epsabs=1e-13, epsrel=1e-12)
    return val


def test_ball_volume_zero_and_monotone():
    assert float(geometry.ball_volume(0.0, 1)) == 0.0
    rho = np.linspace(0.0, 3.0, 40)
    for n in (1, 2):
        vols = geometry.ball_volume(rho, n)
        assert np.all(np.diff(vols) > 0)


def test_ball_volume_closed_value():
    got = float(geometry.ball_volume(math.log(3), 1))
    assert got == pytest.approx(88 * math.pi ** 2 / 81, rel=1e-14)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("rho", [0.5, math.log(3), 2.0])
def test_ball_volume_vs_quadrature(n, rho):
    closed = float(geometry.ball_volume(rho, n))
    assert closed == pytest.approx(volume_by_quadrature(rho, n), rel=1e-8)


_PI_50 = decimal.Decimal("3.1415926535897932384626433832795028841971693993751")


def _decimal_ball_volume(rho: float, n: int) -> decimal.Decimal:
    """(4 pi)^(2n)/(2n+1)! sinh^(4n)(rho/2) (1 + 2n cosh^2(rho/2)) in 50-digit
    decimal arithmetic on the float rho, with the widest exponent range."""
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = 50, decimal.MAX_EMAX, decimal.MIN_EMIN
        e = (decimal.Decimal(float(rho)) / 2).exp()
        s, c = (e - 1 / e) / 2, (e + 1 / e) / 2
        return ((4 * _PI_50) ** (2 * n) / math.factorial(2 * n + 1) * s ** (4 * n)
                * (1 + 2 * n * c * c))


@pytest.mark.parametrize("n", [1, 3, 40, 84, 85, 100, 200])
def test_ball_volume_against_decimal_reference(n):
    # (2n+1)! overflows a float from n = 85, sinh^(4n) from rho ~ 10 at
    # n = 40, and both underflow or overflow where the volume need not:
    # within 1e-12 where the volume is a normal float, 0.0 below, inf
    # above, never NaN, for a scalar radius and for an array of them
    tiny = np.finfo(float).tiny
    rhos = np.concatenate([[0.0, 1e-300, 1e-3, 1.0, 1e3, 1e5], np.geomspace(1e-2, 3e2, 40)])
    for rho, v in zip(rhos, geometry.ball_volume(rhos, n)):
        ref = _decimal_ball_volume(rho, n)
        for got in (float(v), float(geometry.ball_volume(rho, n))):
            if ref < tiny:
                assert 0.0 <= got <= tiny, (n, rho)
            elif ref > np.finfo(float).max:
                assert got == math.inf, (n, rho)
            else:
                assert abs(decimal.Decimal(got) / ref - 1) <= decimal.Decimal("1e-12"), (n, rho)


@pytest.mark.parametrize("n", [1, 2])
def test_ball_volume_euclidean_limit(n):
    rho = 1e-3
    got = float(geometry.ball_volume(rho, n)) / rho ** (4 * n)
    expect = math.pi ** (2 * n) / math.factorial(2 * n)
    assert got == pytest.approx(expect, rel=1e-4)


# ---------------------------------------------------------------------------
# convexity certificate


def test_convexity_flat_profile():
    prof = geometry.ConvexityProfile(a=0.0, r=0.0)
    assert float(geometry.convexity_second_derivative(prof, 0.0)) == pytest.approx(0.5, abs=1e-15)
    # f(t) = 2 log cosh(t/2) has f''(t) = (1 - tanh^2(t/2))/2
    for t in (0.5, 2.0, -3.0):
        got = float(geometry.convexity_second_derivative(prof, t))
        assert got == pytest.approx((1 - math.tanh(t / 2) ** 2) / 2, rel=1e-14)


def test_convexity_profile_validation():
    with pytest.raises(InvalidProfile):
        geometry.ConvexityProfile(a=0.5, r=0.4)
    with pytest.raises(InvalidProfile):
        geometry.ConvexityProfile(a=0.0, r=1.0)
    with pytest.raises(InvalidProfile):
        geometry.convexity_profile(pt(0.5), pt(0.1))  # direction not unit
    with pytest.raises(NotInBall):
        geometry.convexity_profile(pt(1.0), pt(math.nan))
    with pytest.raises(DimensionMismatch):
        geometry.convexity_profile(pt(1.0), np.zeros((2, 1, 4)))
    # a stack with one bad row raises as the bad row alone does
    v = np.repeat(pt(1.0)[None], 4, axis=0)
    y = np.repeat(pt(0.1)[None], 4, axis=0)
    geometry.convexity_profile(v, y)
    bad_v = v.copy()
    bad_v[2] *= 0.5
    with pytest.raises(InvalidProfile):
        geometry.convexity_profile(bad_v, y)
    bad_y = y.copy()
    bad_y[2, 0, 0] = 1.5
    with pytest.raises(NotInBall):
        geometry.convexity_profile(v, bad_y)
    with pytest.raises(DimensionMismatch):
        geometry.convexity_profile(v, np.zeros((4, 2, 4)))
    with pytest.raises(InvalidProfile):
        geometry.ConvexityProfile(a=np.array([0.0, 0.5]), r=np.array([0.1, 0.4]))


def test_stacked_convexity_profiles(rng):
    t = np.linspace(-3.0, 3.0, 5)
    for n in (1, 2):
        v = random_unit_vectors(rng, n, 6).reshape(2, 3, n, 4)
        y = random_ball_points(rng, n, 6).reshape(2, 3, n, 4)
        vals = geometry.convexity_second_derivative(geometry.convexity_profile(v, y), t)
        assert vals.shape == (2, 3) + t.shape
        for i in range(2):
            for j in range(3):
                prof = geometry.convexity_profile(v[i, j], y[i, j])
                assert np.array_equal(vals[i, j], geometry.convexity_second_derivative(prof, t))


def test_quadratic_endpoint_value_via_fit():
    # fit the quadratic numerator through implementation values and
    # compare its value at u=1 with (1-r^2)(1+r^2-2a) = 0.4875
    a, r = 0.3, 0.5
    prof = geometry.ConvexityProfile(a=a, r=r)
    ts = np.array([0.5, 1.0, 1.5])
    us = np.tanh(ts / 2)
    p = 1 - 2 * a * us + r * r * us * us
    nvals = np.asarray(geometry.convexity_second_derivative(prof, ts)) * 2 * p * p / (1 - us * us)
    coeffs = np.linalg.solve(np.vander(us, 3, increasing=True), nvals)
    n_at_one = float(coeffs.sum())
    assert n_at_one == pytest.approx((1 - r * r) * (1 + r * r - 2 * a), abs=1e-10)
    assert n_at_one == pytest.approx(0.4875, abs=1e-10)


def test_convexity_positive_for_many_profiles(rng):
    ts = np.linspace(-10.0, 10.0, 41)
    for _ in range(1000):
        r = rng.uniform(0.0, 0.999)
        a = rng.uniform(-r, r)
        vals = geometry.convexity_second_derivative(geometry.ConvexityProfile(a=a, r=r), ts)
        assert np.min(vals) > 0.0


def test_convexity_matches_finite_differences(rng):
    h = 1e-3
    for n in (1, 2):
        v = random_unit_vector(rng, n)
        y = random_ball_point(rng, n)
        prof = geometry.convexity_profile(v, y)
        for t in (-2.0, -0.5, 0.0, 0.7, 1.9):
            ts = t + h * np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
            xs = np.multiply.outer(np.tanh(ts / 2.0), v)
            f = np.log(geometry.cosh2_half_distance(xs, y))
            fd = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h * h)
            closed = float(geometry.convexity_second_derivative(prof, t))
            assert closed == pytest.approx(fd, abs=1e-5)
