import math

import numpy as np
import pytest
from scipy.integrate import quad

from qhb import barycenter as bc
from qhb import geometry, mobius, regions
from qhb import quaternions as q
from qhb.errors import DimensionMismatch, EmptyRegion, NonFinite, NotInBall, QhbError

E1 = np.array([[0.3, 0.0, 0.0, 0.0]])
ORIGIN1 = np.zeros((1, 4))


def test_factory_validation():
    with pytest.raises(QhbError):
        regions.geodesic_ball(ORIGIN1, 0.0)
    with pytest.raises(NotInBall):
        regions.geodesic_ball(np.array([[1.0, 0, 0, 0]]), 1.0)
    with pytest.raises(NotInBall):
        regions.euclidean_ball(np.array([[0.8, 0, 0, 0]]), 0.3)
    for factory in (regions.geodesic_ball, regions.euclidean_ball):
        with pytest.raises(DimensionMismatch):
            factory([[0.1, 0, 0, 0]], 0.5, n=2)
        with pytest.raises(DimensionMismatch):
            factory(np.zeros((2, 1, 4)), 0.5)
    with pytest.raises(QhbError):
        regions.region_from_json({"kind": "cube", "center": [[0, 0, 0, 0]],
                                  "radius": 1.0, "dimension": 1})
    for bad in (math.nan, math.inf):
        box = (np.full(4, -0.5), np.full(4, 0.5))
        box[1][2] = bad
        with pytest.raises(NonFinite):
            regions.indicator_region(lambda p: np.ones(len(p), bool), 1, box=box)
    for n in (1, 2):
        column = regions.indicator_region(lambda p: np.ones((len(p), 1), bool), n)
        with pytest.raises(QhbError, match=r"returned shape \(\d+, 1\)"):
            regions.sample_region(column, 1000, seed=0)


@pytest.mark.parametrize("factory", [regions.geodesic_ball, regions.euclidean_ball])
@pytest.mark.parametrize("center, radius", [
    ([[math.nan, 0.0, 0.0, 0.0]], 0.3), ([[0.1, 0.0, 0.0, 0.0]], math.nan),
    ([[0.1, 0.0, 0.0, 0.0]], math.inf),
], ids=["nan-center", "nan-radius", "inf-radius"])
def test_ball_factories_reject_non_finite(factory, center, radius):
    with pytest.raises(NonFinite):
        factory(center, radius)


def test_region_json_round_trip():
    spec = regions.geodesic_ball(E1, 1.25)
    back = regions.region_from_json(regions.region_to_json(spec))
    assert back.kind == spec.kind
    assert back.radius == spec.radius
    assert np.array_equal(back.center, spec.center)
    with pytest.raises(QhbError):
        regions.region_to_json(regions.indicator_region(lambda p: np.ones(len(p), bool), 1))


def test_sampling_is_deterministic():
    spec = regions.geodesic_ball(E1, 1.0)
    a = regions.sample_region(spec, 30_000, seed=42)
    b = regions.sample_region(spec, 30_000, seed=42)
    assert np.array_equal(a.samples.points, b.samples.points)
    assert np.array_equal(a.samples.weights, b.samples.weights)
    assert a.total_mass_estimate == b.total_mass_estimate
    c = regions.sample_region(spec, 30_000, seed=43)
    assert not np.array_equal(a.samples.points, c.samples.points)


def test_determinism_across_thread_counts(monkeypatch):
    spec = regions.geodesic_ball(E1, 1.0)
    monkeypatch.setenv("QHB_THREADS", "1")
    a = regions.sample_region(spec, 200_000, seed=9)
    monkeypatch.setenv("QHB_THREADS", "4")
    b = regions.sample_region(spec, 200_000, seed=9)
    assert np.array_equal(a.samples.points, b.samples.points)
    assert a.total_mass_estimate == b.total_mass_estimate


def test_empty_region_and_bad_count():
    never = regions.indicator_region(lambda p: np.zeros(len(p), bool), 1)
    with pytest.raises(EmptyRegion):
        regions.sample_region(never, 1000, seed=0)
    spec = regions.geodesic_ball(E1, 1.0)
    with pytest.raises(QhbError):
        regions.sample_region(spec, 0, seed=0)


def test_euclidean_half_ball_is_geodesic_ball_ln3():
    # Euclidean ball |q| < 1/2 equals the metric ball of radius log 3
    spec = regions.euclidean_ball(ORIGIN1, 0.5)
    ss = regions.sample_region(spec, 200_000, seed=5)
    exact = float(geometry.ball_volume(math.log(3), 1))
    assert abs(ss.total_mass_estimate - exact) <= 3.0 * ss.standard_error
    assert ss.count_accepted > 0
    assert np.all(ss.samples.weights > 0)


def test_mass_error_shrinks_with_more_samples():
    spec = regions.geodesic_ball(ORIGIN1, math.log(3))
    exact = float(geometry.ball_volume(math.log(3), 1))
    small = regions.sample_region(spec, 10**5, seed=31)
    large = regions.sample_region(spec, 10**6, seed=31)
    assert abs(small.total_mass_estimate - exact) <= 3.0 * small.standard_error
    assert abs(large.total_mass_estimate - exact) <= 3.0 * large.standard_error
    assert large.standard_error < small.standard_error


def test_symmetric_region_residual_vanishes():
    spec = regions.euclidean_ball(ORIGIN1, 0.5)
    ss = regions.sample_region(spec, 100_000, seed=17)
    r = bc.residual(ss.samples, ORIGIN1)
    # Phi_0 = -id, so the residual is minus the weighted coordinate sum;
    # its per-component MC standard error bounds the deviation
    vals = ss.samples.weights[:, None, None] * ss.samples.points * ss.count_requested
    mean = vals.sum(axis=0) / ss.count_requested
    var = np.maximum((vals * vals).sum(axis=0) / ss.count_requested - mean**2, 0.0)
    se = float(np.sqrt(var.sum() / ss.count_requested))
    assert float(q.vnorm(r)) <= 3.0 * se


def test_region_barycenter_recovers_center():
    spec = regions.geodesic_ball(E1, 1.0)
    rr = regions.region_barycenter(spec, 200_000, seed=2)
    assert rr.result.converged
    dev = float(np.sqrt(np.sum((rr.result.barycenter - E1) ** 2)))
    assert dev <= 3.0 * rr.barycenter_standard_error


def test_region_barycenter_at_origin_is_zero():
    spec = regions.geodesic_ball(ORIGIN1, 0.9)
    rr = regions.region_barycenter(spec, 100_000, seed=23)
    assert float(q.vnorm(rr.result.barycenter)) <= 3.0 * rr.barycenter_standard_error


def test_random_centers_recovered():
    from qhb.verify import random_ball_point

    rng = np.random.default_rng(77)
    for _ in range(10):
        center = random_ball_point(rng, 1, rmax=0.5)
        spec = regions.geodesic_ball(center, 0.8)
        rr = regions.region_barycenter(spec, 100_000, seed=int(rng.integers(2**32)))
        dev = float(np.sqrt(np.sum((rr.result.barycenter - center) ** 2)))
        assert dev <= 3.0 * rr.barycenter_standard_error


def moment_by_quadrature(radius: float, n: int) -> float:
    def shell(rho):
        r = math.tanh(rho / 2)
        dr = (1 - r * r) / 2
        area = 2.0 * math.pi ** (2 * n) / math.gamma(2 * n)
        return rho * 4.0 ** (2 * n) * area * r ** (4 * n - 1) / (1 - r * r) ** (2 * n + 2) * dr

    val, _ = quad(shell, 0.0, radius, epsabs=1e-12, epsrel=1e-12)
    return val


def test_moment_estimate_vs_quadrature():
    spec = regions.geodesic_ball(ORIGIN1, math.log(3))
    ss = regions.sample_region(spec, 300_000, seed=13)
    expect = moment_by_quadrature(math.log(3), 1)
    assert abs(ss.moment_estimate - expect) <= 3.0 * ss.moment_standard_error


def test_pushforward_of_region_barycenter():
    # the image of a metric ball under an isometry is the metric ball
    # around the image center with the same radius
    center = np.array([[0.2, 0.1, 0.0, 0.0]])
    phi = mobius.hua_new(np.array([[0.25, 0.0, -0.2, 0.1]]))
    g_center = mobius.hua_apply(phi, center)
    spec = regions.geodesic_ball(center, 0.9)
    spec_image = regions.geodesic_ball(g_center, 0.9)
    rr = regions.region_barycenter(spec, 200_000, seed=3)
    rr_image = regions.region_barycenter(spec_image, 200_000, seed=4)
    moved = mobius.hua_apply(phi, rr.result.barycenter)
    dev = float(np.sqrt(np.sum((rr_image.result.barycenter - moved) ** 2)))
    combined = rr.barycenter_standard_error + rr_image.barycenter_standard_error
    assert dev <= 3.0 * combined


def test_indicator_region_with_box():
    def in_shell(pts):
        r2 = q.vnorm2(pts)
        return (r2 > 0.1**2) & (r2 < 0.4**2)

    spec = regions.indicator_region(in_shell, 1, box=(np.full(4, -0.4), np.full(4, 0.4)))
    ss = regions.sample_region(spec, 100_000, seed=8)
    norms = q.vnorm(ss.samples.points)
    assert np.all((norms > 0.1) & (norms < 0.4))
    # mass of the shell = vol(B(0, d(0,.4))) - vol(B(0, d(0,.1)))
    exact = float(geometry.ball_volume(2 * math.atanh(0.4), 1)
                  - geometry.ball_volume(2 * math.atanh(0.1), 1))
    assert abs(ss.total_mass_estimate - exact) <= 3.0 * ss.standard_error
