import decimal
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from qhb import barycenter as bc
from qhb import cli, geometry, mobius, regions
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
            cli.region_from_json({"kind": factory.__name__, "center": [[0.1, 0, 0, 0]],
                                  "radius": 0.5, "dimension": 2})
        with pytest.raises(DimensionMismatch):
            factory(np.zeros((2, 1, 4)), 0.5)
    with pytest.raises(QhbError):
        cli.region_from_json({"kind": "cube", "center": [[0, 0, 0, 0]],
                              "radius": 1.0, "dimension": 1})
    def every(p):
        return np.ones(len(p), bool)

    with pytest.raises(DimensionMismatch):
        regions.indicator_region(every, 0)
    # an indicator's enclosing ball is checked as the ball factories' are
    for bad in (math.nan, math.inf):
        with pytest.raises(NonFinite):
            regions.indicator_region(every, 1, [[0.1, 0.0, bad, 0.0]], 0.5)
        with pytest.raises(NonFinite):
            regions.indicator_region(every, 1, E1, bad)
    for radius in (0.0, -0.5):
        with pytest.raises(QhbError):
            regions.indicator_region(every, 1, E1, radius)
    with pytest.raises(NotInBall):
        regions.indicator_region(every, 1, [[1.0, 0.0, 0.0, 0.0]], 0.5)
    with pytest.raises(DimensionMismatch):
        regions.indicator_region(every, 2, E1, 0.5)
    for n in (1, 2):
        column = regions.indicator_region(lambda p: np.ones((len(p), 1), bool), n)
        with pytest.raises(QhbError, match=r"returned shape \(\d+, 1\)"):
            regions.sample_region(column, 1000, seed=0)


def test_indicator_radius_is_capped_at_the_unit_ball():
    # a radius past 1 + |c| is taken as 1 + |c|, whose ball holds the unit
    # ball: the same region, with r^2 and the box sides finite, so neither
    # an OverflowError (1e300 ** 2) nor a RuntimeWarning arises
    c = np.full((2, 4), 0.25)
    cap = 1.0 + float(q.vnorm(c))
    want = _sample_fields(regions.sample_region(
        regions.indicator_region(lambda p: q.vnorm2(p) > 0.04, 2, c, cap), 3000, 4))
    for radius in (1e300, 1.7e308):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = regions.indicator_region(lambda p: q.vnorm2(p) > 0.04, 2, c, radius)
            assert spec.radius == cap
            got = _sample_fields(regions.sample_region(spec, 3000, 4))
        assert all(map(np.array_equal, got, want)), radius


_UNIT = math.nextafter(1.0, 0.0)
# |q| of centers and points: the boundary margin's sqrt(MAX_NORM2) and the
# float below 1 included
_NORMS = st.one_of(st.sampled_from([0.0, math.sqrt(bc.MAX_NORM2), _UNIT]), st.floats(0.0, _UNIT))
_SIZES = st.floats(5e-324, 1.7e308)  # radii


@st.composite
def _api_cases(draw):
    """(n, center, radius, indicator radius, points, weights) of one call
    each to the region factories, region_barycenter and solve."""
    n = draw(st.integers(1, 3))

    def point():
        d = draw(st.lists(st.floats(-1.0, 1.0, allow_subnormal=False), min_size=4 * n,
                          max_size=4 * n))
        norm = math.hypot(*d)
        unit = np.array(d) / norm if norm > 0.0 else np.eye(4 * n)[0]
        return (draw(_NORMS) * unit).reshape(n, 4)

    size = draw(st.integers(1, 4))
    return (n, point(), draw(_SIZES), draw(_SIZES), np.array([point() for _ in range(size)]),
            np.array(draw(st.lists(st.floats(5e-324, 1e308), min_size=size, max_size=size))))


@settings(max_examples=100, derandomize=True)
@given(case=_api_cases())
@example(case=(1, np.zeros((1, 4)), 0.5, 1.7e308, np.zeros((1, 1, 4)), np.ones(1)))
def test_api_raises_only_qhb_errors(case):
    # any input either works or raises a QhbError, without a warning: the
    # example's indicator radius, 1.7e308, is capped at 1 + |c|, so that its
    # square and the box sides stay finite
    n, center, radius, half, points, weights = case

    def inside(pts):  # the Euclidean ball, by norms that cannot overflow
        return q.vnorm(pts - center) < radius

    calls = [
        lambda: regions.geodesic_ball(center, radius),
        lambda: regions.euclidean_ball(center, radius),
        lambda: regions.indicator_region(inside, n),
        lambda: regions.indicator_region(inside, n, center, half),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for make in calls:
            try:
                regions.region_barycenter(make(), 4096, 1)
            except QhbError:
                pass
        try:
            bc.solve(bc.WeightedPoints(points=points, weights=weights))
        except QhbError:
            pass


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
    back = cli.region_from_json(cli.region_to_json(spec))
    assert back.kind == spec.kind
    assert back.radius == spec.radius
    assert np.array_equal(back.center, spec.center)
    with pytest.raises(QhbError):
        cli.region_to_json(regions.indicator_region(lambda p: np.ones(len(p), bool), 1))


def test_sampling_is_deterministic():
    spec = regions.geodesic_ball(E1, 1.0)
    a = regions.sample_region(spec, 30_000, seed=42)
    b = regions.sample_region(spec, 30_000, seed=42)
    assert np.array_equal(a.samples.points, b.samples.points)
    assert np.array_equal(a.samples.weights, b.samples.weights)
    assert a.total_mass_estimate == b.total_mass_estimate
    c = regions.sample_region(spec, 30_000, seed=43)
    assert not np.array_equal(a.samples.points, c.samples.points)


def _sample_fields(ss) -> tuple:
    return (ss.samples.points, ss.samples.weights, ss.total_mass_estimate, ss.moment_estimate,
            ss.standard_error, ss.moment_standard_error, ss.count_accepted)


def test_determinism_across_thread_counts(monkeypatch):
    # five chunks, the last partial: the workers' runs of chunks differ in
    # length, and their parts still concatenate in chunk order
    count = 4 * regions.CHUNK + 123
    for spec in (regions.geodesic_ball(E1, 1.0),
                 regions.euclidean_ball([[0.2, 0.0, 0.1, 0.0], [0.0, 0.1, 0.0, 0.0]], 0.3),
                 regions.indicator_region(lambda p: q.vnorm2(p) > 0.04, 1,
                                          [[0.05, -0.2, 0.15, -0.25]], 0.55)):
        monkeypatch.setenv("QHB_THREADS", "1")
        a = regions.sample_region(spec, count, seed=9)
        for threads in ("2", "4"):
            monkeypatch.setenv("QHB_THREADS", threads)
            b = regions.sample_region(spec, count, seed=9)
            same = map(np.array_equal, _sample_fields(a), _sample_fields(b))
            assert all(same), (spec.kind, threads)


@pytest.mark.parametrize("value", ["abc", "-3", "1.5", ""])
def test_bad_thread_count_is_named(monkeypatch, value):
    monkeypatch.setenv("QHB_THREADS", value)
    started = []
    monkeypatch.setattr(regions, "ThreadPoolExecutor", lambda *a, **k: started.append(a))
    with pytest.raises(QhbError, match="QHB_THREADS"):
        regions.sample_region(regions.geodesic_ball(E1, 1.0), 4 * regions.CHUNK, seed=0)
    assert started == []


def test_unset_or_zero_thread_count_is_auto(monkeypatch):
    monkeypatch.delenv("QHB_THREADS", raising=False)
    auto = regions._worker_threads()
    assert auto >= 1
    monkeypatch.setenv("QHB_THREADS", "0")
    assert regions._worker_threads() == auto
    monkeypatch.setenv("QHB_THREADS", "3")
    assert regions._worker_threads() == 3


def test_empty_region_and_bad_count():
    never = regions.indicator_region(lambda p: np.zeros(len(p), bool), 1)
    with pytest.raises(EmptyRegion):
        regions.sample_region(never, 1000, seed=0)
    spec = regions.geodesic_ball(E1, 1.0)
    for count, seed in ((0, 0), (True, 0), (1000.5, 0), (1000, -1), (1000, 2**64),
                        (1000, 3.0), (1000, False)):
        with pytest.raises(QhbError):
            regions.sample_region(spec, count, seed)


@pytest.mark.parametrize("seed", [0, 7, 2**32 + 5, 2**63 - 1])
def test_sampler_stream_is_keyed_by_seed_and_chunk(seed):
    # the region |z|^2 < 0.16 in the ball (0, 0.4) keeps every proposal of
    # its box [-0.4, 0.4]^4 inside |z|^2 < 0.16, so the sample is the
    # box-scaled stream of Philox keyed by (seed, chunk index), chunk 1 too,
    # less the points outside that ball
    lo, hi = np.full(4, -0.4), np.full(4, 0.4)
    spec = regions.indicator_region(lambda p: q.vnorm2(p) < 0.16, 1, ORIGIN1, 0.4)
    sizes = (regions.CHUNK, 50)
    got = regions.sample_region(spec, sum(sizes), seed).samples.points.reshape(-1, 4)
    parts = []
    for index, size in enumerate(sizes):
        flat = np.random.Generator(np.random.Philox(key=[seed, index])).random((size, 4))
        flat *= hi - lo
        flat += lo
        parts.append(flat[np.einsum("ij,ij->i", flat, flat) < 0.16])
    assert np.array_equal(got, np.concatenate(parts))


def test_sampler_seeds_above_2_63_are_distinct():
    spec = regions.geodesic_ball(E1, 1.0)
    a = regions.sample_region(spec, 2000, 2**63)
    b = regions.sample_region(spec, 2000, 2**63 + 1000)
    assert not np.array_equal(a.samples.points, b.samples.points)
    assert regions.sample_region(spec, 2000, 2**64 - 1).count_accepted > 0


def _hua_distance(pts, center):
    """d(z, c) = 2 artanh|Phi_c(z)| for the points pts (..., n, 4), through
    the Hua kernel: a reference for the sampler's Poisson-form test that
    forms Phi_c, where the test does not (geometry.distance runs that same
    test, so it is no reference for it)."""
    c = q.hvector(center)
    flat = pts.reshape(-1, 4 * c.shape[0])
    m2 = np.empty(flat.shape[0])
    for rows, mapped, _ in mobius._hua_blocks(c, flat):
        m2[rows] = np.einsum("ji,ji->i", mapped, mapped)
    return 2.0 * np.arctanh(np.sqrt(m2).reshape(pts.shape[:-2]))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_geodesic_sampler_accepts_the_metric_ball(n):
    # the Poisson-form test keeps exactly the proposals of the regenerated
    # chunk streams with |z|^2 < MAX_NORM2 and d(z, c) < rho, and exactly
    # the points placed on geodesics from c at arc lengths in (0, 2 rho)
    # with d(z, c) < rho; points at rho (1 -+ margin) fall inside and
    # outside, the margin 1e-9 widened by the few-ulp error of a point
    # placed near c (1e-14 / rho)
    rng = np.random.default_rng(n)
    unit = rng.standard_normal((n, 4))
    unit /= np.linalg.norm(unit)
    sizes = (regions.CHUNK, 50)
    for norm in (0.0, 0.5, 0.9):
        center = norm * unit
        charts = [geometry.geodesic_chart(center, d) for d in rng.standard_normal((20, n, 4))]
        for rho in (1e-9, 1e-6, 0.3, 1.5, 3.0, 1e3):
            spec = regions.geodesic_ball(center, rho)
            lo, width = regions._proposal(spec)[:2]
            parts = []
            for index, size in enumerate(sizes):
                flat = np.random.Generator(np.random.Philox(key=[11, index])).random((size, 4 * n))
                flat *= width
                flat += lo
                pts = flat.reshape(size, n, 4)
                pts = pts[q.vnorm2(pts) < bc.MAX_NORM2]
                parts.append(pts[_hua_distance(pts, center) < rho])
            want = np.concatenate(parts)
            if want.shape[0]:
                got = regions.sample_region(spec, sum(sizes), 11).samples.points
                assert np.array_equal(got, want), (norm, rho)
            else:
                with pytest.raises(EmptyRegion):
                    regions.sample_region(spec, sum(sizes), 11)
            if rho > 3.0:
                continue
            near = np.concatenate([geometry.geodesic_point(ch, rho * rng.uniform(0.0, 2.0, 50))
                                   for ch in charts])
            got = regions._contains(spec, near)
            assert np.array_equal(got, near[_hua_distance(near, center) < rho]), (norm, rho)
            margin = 1e-9 + 1e-14 / rho
            inside = np.array([geometry.geodesic_point(ch, rho * (1.0 - margin)) for ch in charts])
            outside = np.array([geometry.geodesic_point(ch, rho * (1.0 + margin)) for ch in charts])
            assert np.array_equal(regions._contains(spec, inside), inside), (norm, rho)
            assert regions._contains(spec, outside).shape[0] == 0, (norm, rho)
            # the sampler's cull keeps every kept point, mapped back to its draw
            for kept in (inside, got):
                assert _culled(spec, kept).shape[0] == kept.shape[0], (norm, rho)


def _culled(spec, pts):
    """The points pts (M, n, 4) whose raw draws u = (z - box_lo) / width
    the sampler's cull keeps, as draws."""
    lo, width, uc2, t = regions._proposal(spec)
    return regions._cull((pts.reshape(pts.shape[0], -1) - lo) / width, uc2, t)


def _kept_every_draw(spec, count, seed):
    """The sampler's recipe with no cull: scale every draw of every chunk
    into the box and keep the rows _contains keeps, in order."""
    lo, width = regions._proposal(spec)[:2]
    parts = []
    for index in range(-(-count // regions.CHUNK)):
        size = min(regions.CHUNK, count - index * regions.CHUNK)
        flat = np.random.Generator(np.random.Philox(key=[seed, index])).random((size, 4 * spec.n))
        flat *= width
        flat += lo
        parts.append(regions._contains(spec, flat.reshape(size, spec.n, 4)))
    return np.concatenate(parts)


def _sample_every_draw(spec, count, seed):
    """_kept_every_draw's rows, weighted as the sampler weighs them."""
    pts = _kept_every_draw(spec, count, seed)
    if not pts.shape[0]:
        raise EmptyRegion(f"no proposals accepted out of {count}")
    volume = float(np.prod(regions._proposal(spec)[1]))
    vals = geometry.measure_density(pts) * volume
    if not np.all(vals / count > 0.0):
        raise EmptyRegion(f"region too small to weigh: its proposal box has volume "
                          f"{volume:.3g}, and the weights of its points round to 0")
    mom_vals = vals * (2.0 * np.arctanh(q.vnorm(pts)))
    samples = bc.WeightedPoints(points=pts, weights=vals / count)
    return (samples.points, samples.weights, float(np.sum(vals)) / count,
            float(np.sum(mom_vals)) / count, regions._mc_mean(vals, count)[1],
            regions._mc_mean(mom_vals, count)[1], pts.shape[0])


def _edge_specs():
    rng = np.random.default_rng(21)
    for n in (1, 2, 3):
        unit = rng.standard_normal((n, 4))
        unit /= np.linalg.norm(unit)
        edge = np.zeros((n, 4))
        edge[0, 0] = 1.0 - 2.0 ** -53
        for name, center in (("0", 0.0 * unit), ("0.5", 0.5 * unit), ("0.9", 0.9 * unit),
                             ("1-2^-53", edge)):
            for rho in (1e-150, 1e-9, 0.3, 1.5, 3.0, 1e3, 1e300):
                yield pytest.param(regions.geodesic_ball(center, rho),
                                   id=f"geo-n{n}-c{name}-{rho:g}")
            for r in (1e-12, 0.01, 0.3):
                if float(q.vnorm(center)) + r < 1.0:
                    yield pytest.param(regions.euclidean_ball(center, r),
                                       id=f"euc-n{n}-c{name}-{r:g}")
        # a ball that reaches past the sphere, so MAX_NORM2 drops points of
        # its box before the callback sees them
        yield pytest.param(regions.indicator_region(lambda p: q.vnorm2(p) > 0.04, n,
                                                    0.5 * unit, 0.6), id=f"indicator-n{n}")
    # boxes with a side of 0 (a radius below the rounding of the center, or
    # one whose half underflows) or of 1e-300, too narrow for a ball in u
    yield pytest.param(regions.euclidean_ball([[0.5, 0.0, 0.0, 0.0]], 1e-17), id="euc-side-0")
    yield pytest.param(regions.geodesic_ball(ORIGIN1, 5e-324), id="geo-side-0")
    yield pytest.param(regions.indicator_region(lambda p: np.ones(len(p), bool), 1,
                                                [[0.5, 0.0, 0.0, 0.0]], 1e-17),
                       id="indicator-side-0")
    yield pytest.param(regions.indicator_region(lambda p: np.ones(len(p), bool), 1,
                                                [[1.5e-300, 0.0, 0.0, 0.0]], 5e-301),
                       id="indicator-side-1e-300")


def _outcome(fn):
    """fn(), or the class name and message of the QhbError it raises."""
    try:
        return fn()
    except QhbError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("spec", list(_edge_specs()))
def test_cull_keeps_the_sample_of_every_draw(spec):
    # the cull drops only draws _contains would drop: every field of the
    # sample, or the error raised, is that of scaling and testing every draw
    count = regions.CHUNK + 50
    got = _outcome(lambda: _sample_fields(regions.sample_region(spec, count, 4)))
    want = _outcome(lambda: _sample_every_draw(spec, count, 4))
    assert len(got) == len(want)
    assert all(map(np.array_equal, got, want))
    # the kept rows themselves, also where their weights are then refused
    # (weights that round to 0)
    jobs = [(0, regions.CHUNK), (1, 50)]
    kept = regions._sample_chunks(spec, 4, jobs, regions._proposal(spec))
    assert np.array_equal(np.concatenate(kept), _kept_every_draw(spec, count, 4))


@pytest.mark.parametrize("spec, volume", [
    (regions.geodesic_ball(ORIGIN1, 1e-150), "0"),
    (regions.geodesic_ball(np.zeros((2, 4)), 1e-150), "0"),
    (regions.geodesic_ball(ORIGIN1, 1e-80), "1e-320"),
    (regions.euclidean_ball([[0.5, 0.0, 0.0, 0.0]], 1e-17), "0"),
], ids=["geo-n1-1e-150", "geo-n2-1e-150", "geo-n1-1e-80", "euc-1e-17"])
def test_region_whose_weights_underflow_is_empty(spec, volume):
    # points are accepted, but their weights (density x box volume / count)
    # round to 0: the error names the region's size, not a point
    with pytest.raises(EmptyRegion) as info:
        regions.sample_region(spec, regions.CHUNK + 50, 4)
    assert str(info.value) == (f"region too small to weigh: its proposal box has volume "
                               f"{volume}, and the weights of its points round to 0")


def test_mc_mean_is_scale_free():
    # the values are scaled by a power of two before they are summed and
    # squared, so the mean and SE are the plain recipe's, and scale exactly
    # with the values
    vals = np.random.default_rng(5).uniform(0.5, 2.0, 100)
    mean, second = np.sum(vals) / 1000, np.sum(vals * vals) / 1000
    plain = (float(mean), float(np.sqrt(np.maximum(second - mean * mean, 0.0) / 1000)))
    assert regions._mc_mean(vals, 1000) == plain
    for k in (-1000, -500, 500, 1000):
        assert regions._mc_mean(np.ldexp(vals, k), 1000) == tuple(math.ldexp(v, k) for v in plain)
    # vector values y_i, as region_barycenter passes count w_i Phi_c(q_i):
    # their norms and their mean's norm give the per-component recipe of
    # _old_se, with a mean near 0 and one far from it, and scale exactly
    rng = np.random.default_rng(6)
    for shift in (0.0, 1.0):
        y = rng.uniform(-2.0, 2.0, (100, 2, 4)) + shift
        mean, second = np.sum(y, axis=0) / 1000, np.sum(y * y, axis=0) / 1000
        recipe = float(np.sqrt(np.sum(np.maximum(second - mean * mean, 0.0) / 1000)))
        norms, mean_norm = q.vnorm(y), float(q.vnorm(mean))
        got = regions._mc_mean(norms, 1000, mean_norm)
        assert got[0] == mean_norm and abs(got[1] - recipe) <= 1e-13 * recipe
        for k in (-1000, -500, 500, 1000):
            scaled = regions._mc_mean(np.ldexp(norms, k), 1000, math.ldexp(mean_norm, k))
            assert scaled == tuple(math.ldexp(v, k) for v in got)


def test_tiny_euclidean_balls_have_scale_free_error_bars():
    # at n = 3 the squares of the per-proposal values underflowed from
    # radius 1e-14 down and the SEs read 0; at a power-of-two scale every
    # radius gives the same SE per unit mass
    ratios = []
    for r in (1e-3, 1e-6, 1e-12, 1e-14, 1e-16, 1e-20, 1e-24):
        rr = regions.region_barycenter(regions.euclidean_ball(np.zeros((3, 4)), r), 1 << 18, 3)
        ss = rr.sample_set
        assert rr.result.converged, r
        assert rr.barycenter_standard_error > 0.0 and ss.moment_standard_error > 0.0
        ratios.append(ss.standard_error / ss.total_mass_estimate)
    assert ratios == pytest.approx([0.102579243] * len(ratios), rel=1e-6)


def test_tiny_euclidean_ball_off_the_origin_solves():
    # its sample weighs 1.4e-140 in all, a total WeightedPoints once refused
    spec = regions.euclidean_ball([[0.3, 0, 0, 0], [0, 0, 0, 0], [0, 0.1, 0, 0]], 1e-12)
    rr = regions.region_barycenter(spec, 1 << 18, 3)
    assert rr.result.converged
    assert float(q.vnorm(rr.result.barycenter - spec.center)) < 1e-12
    assert rr.barycenter_standard_error > 0.0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cull_keeps_euclidean_points_just_inside(n):
    rng = np.random.default_rng(40 + n)
    unit = rng.standard_normal((n, 4))
    unit /= np.linalg.norm(unit)
    dirs = rng.standard_normal((200, n, 4))
    dirs /= q.vnorm(dirs)[:, None, None]
    for norm in (0.0, 0.5, 0.9):
        for r in (1e-12, 0.01, 0.3):
            if norm + r >= 1.0:
                continue
            spec = regions.euclidean_ball(norm * unit, r)
            pts = spec.center + r * (1.0 - 1e-12) * dirs
            assert _culled(spec, pts).shape[0] == pts.shape[0], (norm, r)
            if r > 1e-12:   # at r = 1e-12 the rounding of c + v exceeds r 1e-12
                assert np.array_equal(regions._contains(spec, pts), pts), (norm, r)


def test_geodesic_ball_past_every_kept_proposal_keeps_them_all():
    # a radius beyond d(0, c) + d(0, z) for every kept z, up to the largest
    # float, keeps every proposal with |z|^2 < MAX_NORM2, also for a center
    # at |c|^2 = 1 - 2^-53, the nearest float to the sphere
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1.0, 1.0, (4096, 1, 4))
    pts[:4, 0, 0] = np.nextafter(np.sqrt(bc.MAX_NORM2), 0.0) * np.array([1.0, -1.0, 1.0, -1.0])
    pts[:4, 0, 1:] = 0.0
    want = pts[q.vnorm2(pts) < bc.MAX_NORM2]
    edge = np.sqrt(np.nextafter(1.0, 0.0))
    while edge * edge >= 1.0:
        edge = np.nextafter(edge, 0.0)
    for c0 in (0.0, 0.9, edge):
        for rho in (1e2, 1e3, 1e300):
            spec = regions.geodesic_ball([[c0, 0.0, 0.0, 0.0]], rho)
            assert np.array_equal(regions._contains(spec, pts.copy()), want), (c0, rho)


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


def _old_se(rr):
    """barycenter_standard_error by the former recipe: Phi_c of every sample
    (hua_apply), the per-proposal residual terms count w_i Phi_c(q_i), and
    the root of the summed variances of their 4n components, over the mass."""
    ss = rr.sample_set
    count = ss.count_requested
    mapped = mobius.hua_apply(mobius.hua_new(rr.result.barycenter), ss.samples.points)
    y = (ss.samples.weights * count)[:, None, None] * mapped
    mean = np.sum(y, axis=0) / count
    second = np.sum(y * y, axis=0) / count
    return float(np.sqrt(np.sum(np.maximum(second - mean * mean, 0.0) / count))) \
        / ss.total_mass_estimate


def _shell(pts):
    return (q.vnorm2(pts) > 0.1 ** 2) & (q.vnorm2(pts) < 0.4 ** 2)


_CENTERS = {1: [[0.3, 0.1, 0.0, 0.0]], 2: [[0.2, 0.1, 0.0, 0.0], [0.0, 0.0, 0.1, 0.0]],
            3: [[0.1, 0.0, 0.0, 0.0], [0.0, 0.1, 0.0, 0.0], [0.0, 0.0, 0.0, 0.1]]}


def _se_cases():
    for n, center in _CENTERS.items():
        count = {1: 100_000, 2: 300_000, 3: 1 << 20}[n]
        yield pytest.param(regions.geodesic_ball(center, 1.5), count, None, "converged",
                           id=f"geo-n{n}")
        yield pytest.param(regions.euclidean_ball(center, 0.3), count, None, "converged",
                           id=f"euc-n{n}")
        yield pytest.param(regions.indicator_region(_shell, n, radius=0.4), count, None,
                           "converged", id=f"indicator-n{n}")
    yield pytest.param(regions.geodesic_ball(_CENTERS[2], 1.5), 300_000,
                       bc.SolverConfig(max_iters=1), "max_iters", id="geo-n2-max_iters")
    yield pytest.param(regions.euclidean_ball(_CENTERS[1], 0.4), 20_000,
                       bc.SolverConfig(tol=1e-300), "stalled", id="euc-n1-stalled")


@pytest.mark.parametrize("spec, count, config, stop_reason", list(_se_cases()))
def test_barycenter_standard_error_is_the_hua_recipe(spec, count, config, stop_reason):
    # sum_i w_i^2 tanh^2(d(c, q_i)/2) - |R|^2/count is the summed variance
    # the former recipe took from the images Phi_c(q_i); the two agree to
    # rounding, |R| far from 0 (max_iters) and at the float floor (stalled)
    rr = regions.region_barycenter(spec, count, 5, config)
    assert rr.result.stop_reason == stop_reason
    assert rr.sample_set.count_accepted >= 20
    old = _old_se(rr)
    assert abs(rr.barycenter_standard_error - old) <= 1e-13 * old


def _decimal_se(rr):
    """barycenter_standard_error from its definition, SE(R)/mass, with R's
    terms count w_i Phi_c(q_i) over count proposals (0 at the rejected
    ones), in 40-digit decimal arithmetic on the float sample, barycenter
    and mass: Phi_c(q) = (c - A_c q)(1 - <q,c>)^{-1}, A_c q = c <q,c>/(1+s) + s q."""
    ss = rr.sample_set
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        dec = decimal.Decimal

        def mul(a, b):
            return [a[0] * b[0] - a[1] * b[1] - a[2] * b[2] - a[3] * b[3],
                    a[0] * b[1] + a[1] * b[0] + a[2] * b[3] - a[3] * b[2],
                    a[0] * b[2] - a[1] * b[3] + a[2] * b[0] + a[3] * b[1],
                    a[0] * b[3] + a[1] * b[2] - a[2] * b[1] + a[3] * b[0]]

        c = [[dec(float(x)) for x in row] for row in rr.result.barycenter]
        s = (1 - sum(x * x for row in c for x in row)).sqrt()
        r_sum, second = [dec(0)] * (4 * len(c)), dec(0)
        for z, w in zip(ss.samples.points, ss.samples.weights):
            z = [[dec(float(x)) for x in row] for row in z]
            w = dec(float(w))
            ip = [sum(col, dec(0)) for col in
                  zip(*(mul([cj[0], -cj[1], -cj[2], -cj[3]], zj) for cj, zj in zip(c, z)))]
            den2 = (1 - ip[0]) ** 2 + ip[1] ** 2 + ip[2] ** 2 + ip[3] ** 2
            dinv = [(1 - ip[0]) / den2, ip[1] / den2, ip[2] / den2, ip[3] / den2]
            phi = [x for cj, zj in zip(c, z) for x in
                   mul([a - b / (1 + s) - s * e for a, b, e in zip(cj, mul(cj, ip), zj)], dinv)]
            r_sum = [r + w * x for r, x in zip(r_sum, phi)]
            second += w * w * sum(x * x for x in phi)
        var = second - sum(x * x for x in r_sum) / ss.count_requested
        return float(var.sqrt() / dec(ss.total_mass_estimate))


def test_barycenter_standard_error_against_decimal_reference():
    # two converged samples, where |R|^2/count is negligible, and one that
    # stopped at max_iters, where it is not (the former recipe read up to
    # 3.8e-16 on such samples)
    for spec, count, config in (
            (regions.geodesic_ball(_CENTERS[1], 1.5), 4000, None),
            (regions.euclidean_ball(_CENTERS[2], 0.3), 4000, None),
            (regions.geodesic_ball(_CENTERS[2], 1.5), 100_000, bc.SolverConfig(max_iters=1))):
        rr = regions.region_barycenter(spec, count, 3, config)
        ref = _decimal_se(rr)
        assert abs(rr.barycenter_standard_error - ref) <= 1e-15 * ref


def test_region_barycenter_maps_no_point(monkeypatch):
    # the standard error reads d(c, q_i), not the images Phi_c(q_i)
    def refuse(*args):
        raise AssertionError("region_barycenter formed Phi_c")

    monkeypatch.setattr(mobius, "hua_apply", refuse)
    monkeypatch.setattr(mobius, "hua_new", refuse)
    rr = regions.region_barycenter(regions.geodesic_ball(E1, 1.0), 100_000, seed=2)
    assert rr.result.converged and rr.barycenter_standard_error > 0.0


def test_barycenter_standard_error_is_independent_of_blas_threads():
    # the sum of w_i^2 tanh^2(d/2) over a region's ~3e5 points is numpy's
    # pairwise sum, not a BLAS dot, which sums long arrays in per-thread pieces
    script = (
        "from qhb import regions\n"
        "for spec in (regions.euclidean_ball([[0.3, 0.1, 0, 0]], 0.4),\n"
        "             regions.geodesic_ball([[0.3, 0.1, 0, 0]], 1.5)):\n"
        "    rr = regions.region_barycenter(spec, 1 << 20, 3)\n"
        "    print(rr.sample_set.count_accepted, rr.barycenter_standard_error.hex())\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(regions.__file__)))
    outs = set()
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        outs.add(subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                capture_output=True, text=True).stdout)
    assert len(outs) == 1


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


def test_indicator_region_in_a_ball():
    def in_shell(pts):
        r2 = q.vnorm2(pts)
        return (r2 > 0.1**2) & (r2 < 0.4**2)

    spec = regions.indicator_region(in_shell, 1, ORIGIN1, 0.4)
    ss = regions.sample_region(spec, 100_000, seed=8)
    norms = q.vnorm(ss.samples.points)
    assert np.all((norms > 0.1) & (norms < 0.4))
    # mass of the shell = vol(B(0, d(0,.4))) - vol(B(0, d(0,.1)))
    exact = float(geometry.ball_volume(2 * math.atanh(0.4), 1)
                  - geometry.ball_volume(2 * math.atanh(0.1), 1))
    assert abs(ss.total_mass_estimate - exact) <= 3.0 * ss.standard_error


@pytest.mark.parametrize("n", [1, 2, 3])
def test_all_true_indicator_in_a_ball_is_the_euclidean_ball(n):
    # an indicator region whose callback keeps everything is its ball: the
    # same proposal box, cull and ball test as euclidean_ball, bit for bit
    rng = np.random.default_rng(60 + n)
    unit = rng.standard_normal((n, 4))
    unit /= np.linalg.norm(unit)
    for norm in (0.0, 0.3, 0.6, 0.9):
        for r in (1e-6, 0.09):
            center = norm * unit
            every = regions.indicator_region(lambda p: np.ones(len(p), bool), n, center, r)
            got = _outcome(lambda: _sample_fields(regions.sample_region(every, 20_000, 5)))
            want = _outcome(lambda: _sample_fields(
                regions.sample_region(regions.euclidean_ball(center, r), 20_000, 5)))
            assert len(got) == len(want) and all(map(np.array_equal, got, want)), (norm, r)


def _shell_mass(n):
    return float(geometry.ball_volume(2 * math.atanh(0.4), n)
                 - geometry.ball_volume(2 * math.atanh(0.1), n))


_XFAIL_LARGE_BALL = pytest.mark.xfail(
    strict=True, reason="box proposals miss the thin shell near the sphere that holds most of "
                        "a large ball's mass: the mass is far off, with a small error bar")


@pytest.mark.parametrize("spec, count, exact", [
    *[pytest.param(regions.geodesic_ball(E1, rho), 1 << 16, float(geometry.ball_volume(rho, 1)),
                   id=f"geo-n1-{rho:g}") for rho in (0.5, 1.5, 3.0, 5.0)],
    pytest.param(regions.geodesic_ball(np.vstack([E1, ORIGIN1]), 1.5), 1 << 18,
                 float(geometry.ball_volume(1.5, 2)), id="geo-n2-1.5"),
    *[pytest.param(regions.indicator_region(_shell, n, radius=0.4), 1 << (14 + 2 * n),
                   _shell_mass(n), id=f"indicator-shell-n{n}") for n in (1, 2)],
    pytest.param(regions.geodesic_ball(E1, 20.0), 1 << 16, float(geometry.ball_volume(20.0, 1)),
                 marks=_XFAIL_LARGE_BALL, id="geo-n1-20"),
    pytest.param(regions.geodesic_ball(np.vstack([E1, ORIGIN1]), 20.0), 1 << 18,
                 float(geometry.ball_volume(20.0, 2)), marks=_XFAIL_LARGE_BALL, id="geo-n2-20"),
])
def test_mass_error_bar_is_calibrated_over_seeds(spec, count, exact):
    # z = (mass - exact)/SE over 40 seeds: for a calibrated error bar the
    # RMS of z is sqrt(chi^2_40/40), inside [0.61, 1.43] with probability
    # 1 - 2e-4 (its 1e-4 and 1 - 1e-4 quantiles)
    z = []
    for seed in range(40):
        ss = regions.sample_region(spec, count, seed)
        z.append((ss.total_mass_estimate - exact) / ss.standard_error)
    rms = math.sqrt(np.mean(np.square(z)))
    assert 0.61 <= rms <= 1.43, rms
