import copy
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qhb import barycenter as bc
from qhb import geometry, mobius, verify
from qhb import quaternions as q
from qhb.errors import DimensionMismatch, EmptyData, NonFinite, NotInBall, QhbError
from qhb.verify import random_ball_point, random_ball_points, random_sp, random_weighted_points


def pt(*vals):
    """A single point in H^n with real components."""
    return np.array([[v, 0.0, 0.0, 0.0] for v in vals])


def pts1(*vals):
    """A list of real-axis points in H^1, shape (N, 1, 4)."""
    return np.array([[[v, 0.0, 0.0, 0.0]] for v in vals])


def two_weighted():
    """Two real-axis points with weights 2 and 1; barycenter is 2/7."""
    return bc.WeightedPoints(points=pts1(0.5, -0.25), weights=np.array([2.0, 1.0]))


def three_quaternionic():
    pts = np.array([[[0, 0, 0, 0.0]], [[0.4, 0, 0, 0.0]], [[0, 0.3, 0.2, 0.0]]])
    return bc.WeightedPoints(points=pts, weights=np.ones(3))


# ---------------------------------------------------------------------------
# data validation


def test_weighted_points_validation():
    with pytest.raises(EmptyData):
        bc.weighted_points([])
    with pytest.raises(QhbError):
        bc.WeightedPoints(points=pts1(0.1), weights=np.array([0.0]))
    with pytest.raises(QhbError):
        bc.WeightedPoints(points=pts1(0.1), weights=np.array([1.0, 1.0]))
    with pytest.raises(NotInBall):
        bc.WeightedPoints(points=pts1(1.0), weights=np.array([1.0]))
    with pytest.raises(DimensionMismatch):
        bc.WeightedPoints(points=np.zeros((3, 0, 4)), weights=np.ones(3))
    with pytest.raises(DimensionMismatch):
        bc.WeightedPoints(points=np.zeros((3, 1, 5)), weights=np.ones(3))


@pytest.mark.parametrize("coord, weight", [
    (0.1, math.nan), (0.1, math.inf), (math.nan, 1.0), (-math.inf, 1.0),
], ids=["nan-weight", "inf-weight", "nan-coordinate", "inf-coordinate"])
def test_weighted_points_reject_non_finite(coord, weight):
    with pytest.raises(NonFinite, match="point 1"):
        bc.WeightedPoints(points=np.array([[[0.2, 0.0, 0.0, 0.0]], [[0.3, coord, 0.0, 0.0]]]),
                          weights=np.array([1.0, weight]))


@pytest.mark.parametrize("weight", [1e308, 1e300, 1e-320, np.nextafter(2.0 ** 510, math.inf),
                                    np.nextafter(2.0 ** -460, 0.0)],
                         ids=["sum-overflows", "square-overflows", "subnormal", "above-2^511",
                              "below-2^-459"])
def test_total_weights_far_from_one_solve_like_unit_weights(weight):
    # the solver works on the weights scaled by a power of two, so a total
    # that overflows (1e308), a sum of squares that would (1e300) and
    # subnormal weights (1e-320) solve like unit weights; the total weight
    # reads inf where it overflows
    points = pts1(0.5, 0.3)
    unit = bc.solve(bc.WeightedPoints(points=points, weights=np.ones(2)))
    data = bc.WeightedPoints(points=points, weights=np.full(2, weight))
    assert data.total_weight == 2.0 * weight or (weight == 1e308 and data.total_weight == math.inf)
    res = bc.solve(data)
    assert res.converged and math.isfinite(res.energy)
    assert float(geometry.distance(res.barycenter, unit.barycenter)) <= 1e-12


def test_total_weights_at_the_range_ends_solve_like_unit_weights():
    # the ends of the total-weight range [2^-459, 2^511] that WeightedPoints
    # once refused sets outside of, and totals far beyond them: the
    # barycenter does not move with the scale
    points = np.array([[[0.5, 0.0, 0.0, 0.0]], [[0.3, 0.2, 0.0, 0.0]]])
    unit = bc.solve(bc.WeightedPoints(points=points, weights=np.ones(2)))
    assert np.allclose(unit.barycenter[0], [0.398, 0.090, 0.0, 0.0], atol=1e-3)
    for total in (2.0 ** -459, 2.0 ** 511):
        data = bc.WeightedPoints(points=points, weights=np.full(2, total / 2.0))
        assert data.total_weight == total
        res = bc.solve(data)
        assert res.converged and np.array_equal(res.barycenter, unit.barycenter)
    for seed in range(12):
        data = random_weighted_points(np.random.default_rng(seed), 1 + seed % 3, 2 + 5 * seed)
        base = bc.solve(data)
        e = math.frexp(data.total_weight)[1]
        for k in (-458 - e, 511 - e, -1000 - e, 1000 - e):
            res = bc.solve(bc.WeightedPoints(points=data.points, weights=data.weights * 2.0 ** k))
            assert res.converged, (seed, k)
            assert float(geometry.distance(res.barycenter, base.barycenter)) <= 1e-12


_POSITIVE_WEIGHTS = st.lists(st.floats(min_value=5e-324, max_value=1e308), min_size=1,
                             max_size=6)


@settings(max_examples=100, derandomize=True)
@given(weights=_POSITIVE_WEIGHTS, n=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_any_positive_finite_weights_solve(weights, n, seed):
    # subnormal to 1e308, over any number of decades: a finite barycenter
    # inside the ball, and no error
    pts = random_ball_points(np.random.default_rng(seed), n, len(weights), 0.95)
    res = bc.solve(bc.WeightedPoints(points=pts, weights=np.array(weights)))
    assert res.barycenter.shape == (n, 4) and np.all(np.isfinite(res.barycenter))
    assert float(q.vnorm2(res.barycenter)) < 1.0


@settings(max_examples=100, derandomize=True)
@given(weights=_POSITIVE_WEIGHTS, bad=st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0,
                                                       -1.0, -5e-324, -1e308]),
       data=st.data())
def test_a_bad_weight_is_named(weights, bad, data):
    i = data.draw(st.integers(0, len(weights)))
    weights = np.insert(np.array(weights), i, bad)
    pts = random_ball_points(np.random.default_rng(i), 2, len(weights), 0.9)
    with pytest.raises(QhbError, match=rf"^point {i}: ") as info:
        bc.WeightedPoints(points=pts, weights=weights)
    assert isinstance(info.value, NonFinite) == (not math.isfinite(bad))


@settings(max_examples=100, derandomize=True)
@given(decades=st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=40), n=st.integers(1, 4),
       j=st.integers(-250, 250), seed=st.integers(0, 2 ** 32 - 1))
def test_weights_scaled_by_an_even_power_of_two_solve_bit_for_bit(decades, n, j, seed):
    # w and w 2^(2j) have the same working copy, so the iterates are the
    # same and G, R and the trace scale by exactly 2^(2j)
    pts = random_ball_points(np.random.default_rng(seed), n, len(decades), 0.95)
    wts = 10.0 ** np.array(decades)
    base = bc.solve(bc.WeightedPoints(points=pts, weights=wts))
    res = bc.solve(bc.WeightedPoints(points=pts, weights=np.ldexp(wts, 2 * j)))
    assert res.barycenter.tobytes() == base.barycenter.tobytes()
    assert (res.iterations, res.stop_reason) == (base.iterations, base.stop_reason)
    assert res.energy == math.ldexp(base.energy, 2 * j)
    assert res.residual_norm == math.ldexp(base.residual_norm, 2 * j)
    assert res.energy_trace == tuple(math.ldexp(g, 2 * j) for g in base.energy_trace)


def test_weighted_points_leaves_shapes_to_weighted_points_class():
    with pytest.raises(DimensionMismatch):
        bc.weighted_points(np.zeros((3, 0, 4)))
    with pytest.raises(DimensionMismatch):
        bc.weighted_points(np.zeros((3, 1, 0)))
    with pytest.raises(EmptyData):
        bc.weighted_points(np.zeros((0, 4)))


def test_weighted_points_defaults():
    data = bc.weighted_points(pt(0.1, 0.2))
    assert data.size == 2 and data.n == 1
    assert data.total_weight == 2.0


# ---------------------------------------------------------------------------
# energy


def test_energy_zero_at_single_point(rng):
    p = random_ball_point(rng, 2)
    data = bc.WeightedPoints(points=p[None], weights=np.ones(1))
    assert bc.energy(data, p) == pytest.approx(0.0, abs=1e-14)


def test_energy_two_point_value():
    data = bc.weighted_points(pt(0.0, 0.5))
    # only the 1/2-point contributes: log(1/(1 - 1/4)) = log(4/3)
    assert bc.energy(data, pt(0.0)) == pytest.approx(math.log(4 / 3), abs=1e-15)


def test_energy_coercive():
    data = two_weighted()
    assert bc.energy(data, pt(0.999)) > bc.energy(data, pt(0.0))
    assert bc.energy(data, pt(-0.999)) > bc.energy(data, pt(0.0))


def test_energy_equals_log_cosh_sum(rng):
    for n in (1, 2):
        data = random_weighted_points(rng, n, 6)
        x = random_ball_point(rng, n)
        expect = sum(
            w * float(np.log(geometry.cosh2_half_distance(x, p)))
            for w, p in zip(data.weights, data.points)
        )
        assert bc.energy(data, x) == pytest.approx(expect, abs=1e-12)


def test_energy_rejects_outside_probe():
    with pytest.raises(NotInBall):
        bc.energy(two_weighted(), pt(1.0))
    with pytest.raises(DimensionMismatch):
        bc.energy(two_weighted(), np.zeros((2, 1, 4)))


# ---------------------------------------------------------------------------
# residual


def test_residual_cancels_for_antipodal_pair(rng):
    p = random_ball_point(rng, 2)
    data = bc.WeightedPoints(points=np.stack([p, -p]), weights=np.ones(2))
    assert np.allclose(bc.residual(data, np.zeros((2, 4))), 0.0, atol=0)


def test_residual_exact_at_two_sevenths():
    # Phi_c maps 1/2 -> -1/4 and -1/4 -> 1/2, so 2*(-1/4) + 1*(1/2) = 0
    r = bc.residual(two_weighted(), pt(2 / 7))
    assert np.max(np.abs(r)) <= 1e-14


def test_residual_zero_at_midpoint():
    data = bc.weighted_points(pt(0.0, 0.5))
    r = bc.residual(data, pt(2 - math.sqrt(3)))
    assert np.max(np.abs(r)) <= 1e-12


def test_residual_linear_in_weights(rng):
    data = random_weighted_points(rng, 2, 5)
    doubled = bc.WeightedPoints(points=data.points, weights=2.0 * data.weights)
    c = random_ball_point(rng, 2)
    assert np.array_equal(bc.residual(doubled, c), 2.0 * bc.residual(data, c))


# ---------------------------------------------------------------------------
# gradient diagnostic


def test_gradient_check_small(rng):
    for n in (1, 2):
        data = random_weighted_points(rng, n, 5)
        c = random_ball_point(rng, n, rmax=0.6)
        assert verify.gradient_check(data, c) <= 1e-5


def test_gradient_check_at_barycenter():
    data = two_weighted()
    assert verify.gradient_check(data, pt(2 / 7)) <= 1e-9


# ---------------------------------------------------------------------------
# solver


def test_single_point_lands_in_one_step(rng):
    p = random_ball_point(rng, 2, rmax=0.95)
    data = bc.WeightedPoints(points=p[None], weights=np.array([3.0]))
    res = bc.solve(data, start=np.zeros((2, 4)))
    assert res.converged
    assert res.iterations == 1
    assert np.allclose(res.barycenter, p, atol=1e-15)


def test_two_sevenths():
    res = bc.solve(two_weighted())
    assert res.converged
    assert res.stop_reason == "converged"
    assert abs(res.barycenter[0, 0] - 2 / 7) <= 1e-10
    assert np.max(np.abs(res.barycenter[0, 1:])) == 0.0


def test_midpoint_two_points():
    res = bc.solve(bc.weighted_points(pt(0.0, 0.5)))
    assert res.converged
    assert abs(res.barycenter[0, 0] - (2 - math.sqrt(3))) <= 1e-10


def test_three_quaternionic_structure():
    # the data lie in span{1, 0.3i+0.2j}: the barycenter must stay in that
    # plane, so k vanishes and the i:j components keep the 3:2 ratio
    res = bc.solve(three_quaternionic())
    assert res.converged
    assert res.residual_norm <= 1e-10
    c = res.barycenter[0]
    assert abs(c[3]) <= 1e-12
    assert c[1] * 0.2 == pytest.approx(c[2] * 0.3, abs=1e-11)
    r = bc.residual(three_quaternionic(), res.barycenter)
    assert np.max(np.abs(r)) <= 1e-10


def test_symmetric_four_point(rng):
    pts = np.array([
        [[0.5, 0, 0, 0.0]], [[-0.5, 0, 0, 0.0]],
        [[0.0, 0.5, 0, 0.0]], [[0.0, -0.5, 0, 0.0]],
    ])
    data = bc.WeightedPoints(points=pts, weights=np.ones(4))
    res = bc.solve(data, start=random_ball_point(rng, 1, rmax=0.5))
    assert float(q.vnorm(res.barycenter)) <= 1e-10
    # R(0) = -sum w_i q_i = 0, so the default start is the answer
    res = bc.solve(data)
    assert res.converged and res.iterations == 0 and res.residual_norm == 0.0
    assert res.barycenter.tobytes() == np.zeros((1, 4)).tobytes()


def test_log_const_is_the_sum_of_the_constructor_norms(rng):
    # WeightedPoints takes sum w log(1 - |q|^2) from its boundary test's
    # |q|^2, with the bits of a second pass over the stored points; it is
    # -G(0), the energy a default solve records first; it is kept in the
    # units of the working weights w 2^-e and compared after ldexp
    for n in (1, 2, 4):
        for size in (1, 7, 2 * (mobius._BLOCK // n) + 3):
            data = random_weighted_points(rng, n, size)
            ref = float(np.sum(data.weights * np.log1p(-q.vnorm2(data.points))))
            assert math.ldexp(data._log_const, data._scale).hex() == ref.hex()
            assert bc.solve(data).energy_trace[0] == -ref


def test_default_solve_starts_at_the_origin(rng, monkeypatch):
    # the first sweep is at 0, where the kernel maps no point: it never
    # forms the matrix of <., c> that the general path multiplies by
    sweeps, inner_calls = [], []
    sweep, inner_matrix = bc._sweep, mobius._inner_matrix

    def recording_sweep(data, c):
        sweeps.append(c.copy())
        inner_calls.append(0)
        return sweep(data, c)

    def counting_inner_matrix(c):
        inner_calls[-1] += 1
        return inner_matrix(c)

    monkeypatch.setattr(bc, "_sweep", recording_sweep)
    monkeypatch.setattr(mobius, "_inner_matrix", counting_inner_matrix)
    for n in (1, 2, 4):
        sweeps[:], inner_calls[:] = [], []
        res = bc.solve(random_weighted_points(rng, n, 2 * (mobius._BLOCK // n) + 3))
        assert res.converged and len(sweeps) > 1
        assert sweeps[0].tobytes() == np.zeros((n, 4)).tobytes()
        assert inner_calls[0] == 0
        assert all(k > 0 for k in inner_calls[1:])


@pytest.mark.parametrize("n", [1, 2, 4])
def test_default_start_is_a_start_at_zero(rng, n):
    # bit for bit, over several blocks of the sweep
    data = random_weighted_points(rng, n, 2 * (mobius._BLOCK // n) + 3)
    a, b = bc.solve(data), bc.solve(data, start=np.zeros((n, 4)))
    assert a.barycenter.tobytes() == b.barycenter.tobytes()
    assert (a.energy, a.residual_norm, a.iterations, a.stop_reason, a.energy_trace) == \
        (b.energy, b.residual_norm, b.iterations, b.stop_reason, b.energy_trace)


def test_initialization_independence(rng):
    data = random_weighted_points(rng, 2, 10)
    sols = [bc.solve(data, start=random_ball_point(rng, 2, rmax=0.8)).barycenter
            for _ in range(5)]
    for i in range(5):
        for j in range(i + 1, 5):
            assert float(geometry.distance(sols[i], sols[j])) <= 1e-8


def test_energy_trace_never_increases(rng):
    for n in (1, 2):
        data = random_weighted_points(rng, n, 8)
        res = bc.solve(data)
        diffs = np.diff(res.energy_trace)
        assert np.all(diffs <= 0.0)
        # strict decrease away from the float-resolution floor
        big = np.abs(diffs) > 1e-13 * (1 + res.energy)
        assert np.all(diffs[big] < 0.0)


def test_not_converged_is_reported():
    res = bc.solve(two_weighted(), bc.SolverConfig(max_iters=1, tol=1e-15))
    assert not res.converged
    assert res.stop_reason == "max_iters"
    assert res.iterations == 1


def test_stalled_is_reported(rng):
    # a tolerance below float64 resolution: the line search runs out of
    # steps that lower the energy or the residual
    rngs = [rng] + [np.random.default_rng(seed) for seed in range(20)]
    for data in (random_weighted_points(r, 2, 5) for r in rngs):
        res = bc.solve(data, bc.SolverConfig(tol=1e-300))
        assert not res.converged
        assert res.stop_reason == "stalled"
        assert res.iterations < 500
        assert res.residual_norm <= 1e-14 * data.total_weight
        # energy and |R| are those of the returned barycenter, bit for bit
        assert bc.energy(data, res.barycenter) == res.energy
        assert float(q.vnorm(bc.residual(data, res.barycenter))) == res.residual_norm


def test_backtracking_never_sweeps_the_current_iterate(rng, monkeypatch):
    # a backtracking step that rounds back to the current iterate c is
    # rejected without a sweep; the chart step is the one call of _hua_rows
    # from barycenter, and it is always taken at c
    current, swept = [None], []
    chart_step, sweep = bc._hua_rows, bc._sweep

    def recording_chart_step(c, flat):
        current[0] = c.copy()
        return chart_step(c, flat)

    def recording_sweep(data, x):
        if current[0] is not None:
            assert not np.array_equal(x, current[0]), "sweep at the current iterate"
        swept.append(x.copy())
        return sweep(data, x)

    monkeypatch.setattr(bc, "_hua_rows", recording_chart_step)
    monkeypatch.setattr(bc, "_sweep", recording_sweep)
    for data in [random_weighted_points(rng, 2, 5) for _ in range(4)] + [random_weighted_points(rng, 1, 2000)]:
        current[0], swept[:] = None, []
        res = bc.solve(data, bc.SolverConfig(tol=1e-300))
        assert res.stop_reason == "stalled"
        assert len(swept) > res.iterations + 1   # rejected steps were swept too


def test_solver_config_validation():
    with pytest.raises(QhbError):
        bc.SolverConfig(tol=0.0)
    with pytest.raises(QhbError):
        bc.SolverConfig(max_iters=0)
    for kwargs in ({"tol": math.nan}, {"tol": math.inf}, {"max_iters": 2.5},
                   {"max_iters": True}):
        with pytest.raises(QhbError):
            bc.SolverConfig(**kwargs)
    assert bc.SolverConfig(max_iters=np.int64(3)).max_iters == 3


def test_solver_start_outside_ball():
    with pytest.raises(NotInBall):
        bc.solve(two_weighted(), start=pt(1.2))
    with pytest.raises(NotInBall):
        bc.solve(two_weighted(), start=pt(math.nan))
    with pytest.raises(DimensionMismatch):
        bc.solve(two_weighted(), start=pt(0.1, 0.1))
    with pytest.raises(DimensionMismatch):
        bc.solve(two_weighted(), start=np.zeros((1, 1, 4)))


def test_sweep_matches_independent_code(rng):
    # the sweep and the chart step against the Poisson-form energy of
    # verify and the projective action of the Hua matrix, qmul code paths
    # apart from the Hua kernel that energy(), residual() and hua_apply
    # share with the sweep
    for n in (1, 2, 3, 4):
        big = 3 * (mobius._BLOCK // n) + 1  # the sweep sums over four blocks
        for size in (1, 2, 7, big):
            data = random_weighted_points(rng, n, size)
            if size == big:  # total weight O(1), so the absolute bounds below hold
                data = bc.WeightedPoints(points=data.points, weights=data.weights / size)
            c = random_ball_point(rng, n, rmax=0.6)
            # the sweep runs on the working weights w 2^-e: scale back by 2^e
            r_vec, rn, e, gram, scale = (np.ldexp(v, data._scale) for v in bc._sweep(data, c))
            hua = mobius.hua_matrix_array(c)
            mapped = mobius.projective_apply(hua, data.points)
            ref_r = np.einsum("i,ijk->jk", data.weights, mapped)
            mapped = mapped.reshape(size, 4 * n)
            assert np.max(np.abs(r_vec - ref_r)) <= 1e-13
            assert rn == pytest.approx(float(np.linalg.norm(ref_r)), abs=1e-13)
            assert e == pytest.approx(verify._energy_batch(data, c), abs=1e-12)
            ref_gram = mapped.T @ (data.weights[:, None] * mapped)
            assert np.max(np.abs(gram - ref_gram)) <= 1e-13
            # the rounding scale is the size of G's three terms
            den2 = q.qnorm2(q.ONE - q.inner(data.points, c))
            ref_scale = (abs(float(data.weights @ np.log(den2)))
                         + data.total_weight * abs(math.log1p(-float(q.vnorm2(c))))
                         + abs(float(data.weights @ np.log1p(-q.vnorm2(data.points)))))
            assert scale == pytest.approx(ref_scale, abs=1e-12)
            x = random_ball_point(rng, n, rmax=0.9)
            step = bc._hua_rows(c, x.reshape(1, -1))[0].reshape(n, 4)
            assert np.max(np.abs(step - mobius.projective_apply(hua, x))) <= 1e-13



def test_sweep_on_the_working_weights_is_the_sweep_scaled_exactly(rng):
    # e is even, so sqrt(w 2^-e) = sqrt(w) 2^(-e/2) exactly: every output of
    # the sweep on the working weights is that of a sweep on the caller's
    # weights times 2^-e, bit for bit (an odd e moves the Gram matrix).
    # The largest weights below have frexp exponents 1, 3, -7 and 18.
    for n in (1, 2, 4):
        for factor in (1.0, 3.0, 3e-3, 1e5):
            base = random_weighted_points(rng, n, 50)
            data = bc.WeightedPoints(points=base.points,
                                     weights=base.weights * (factor / base.weights.max() * 1.5))
            plain = copy.copy(data)
            for name, value in (("_w", data.weights), ("_scale", 0),
                                ("_total", data.total_weight),
                                ("_log_const", math.ldexp(data._log_const, data._scale))):
                object.__setattr__(plain, name, value)
            c = random_ball_point(rng, n, rmax=0.6)
            for got, want in zip(bc._sweep(data, c), bc._sweep(plain, c)):
                assert np.ldexp(got, data._scale).tobytes() == np.asarray(want).tobytes()


def test_energy_and_residual_equal_what_solve_reports(rng):
    # energy() and residual() run the solver's sweep, so at the barycenter
    # they give its |R| and G bit for bit, sets of several blocks included,
    # also where the last step was accepted on |R| with an energy rise below
    # the rounding of G's terms (recorded as no increase in energy_trace).
    for n in (1, 2, 3, 4):
        for size in (2, 7, 100, 1000, 5000, 30000):
            data = random_weighted_points(rng, n, size)
            res = bc.solve(data)
            assert float(q.vnorm(bc.residual(data, res.barycenter))) == res.residual_norm
            assert bc.energy(data, res.barycenter) == res.energy


def test_sweep_is_independent_of_blas_threads():
    # a threaded BLAS dot sums large arrays in per-thread pieces; on the
    # n=1 set a sweep that took sum_i w_i log den2_i as one got an energy
    # one ulp apart under one and two BLAS threads, and energy() did too.
    # n=3 gives the kernel's GEMMs an inner dimension of 4n = 12, and the
    # sweeps at n=2 and n=4 give them and the Gram product the other shapes.
    # hua_apply runs the same kernel, and the geodesic-ball sampler takes
    # <z - c, c> with the kernel's matrix of <., c>, in the same blocks, from
    # its worker threads.  The full solve is on
    # points out to |q| = 0.999 with weights over twelve decades.
    script = (
        "import hashlib; import numpy as np\n"
        "from qhb import barycenter as bc, mobius, regions\n"
        "from qhb.verify import random_ball_points, random_weighted_points\n"
        "for n in (1, 3):\n"
        "    data = random_weighted_points(np.random.default_rng(2), n, 20000)\n"
        "    r, rn, e, gram, scale = bc._sweep(data, np.full((n, 4), 0.1))\n"
        "    print(e.hex(), rn.hex(), r.tobytes().hex(), gram.tobytes().hex(),\n"
        "          bc.energy(data, np.full((n, 4), 0.1)).hex())\n"
        "mapped = mobius.hua_apply(mobius.hua_new(np.full((3, 4), 0.1)), data.points)\n"
        "print(hashlib.sha256(mapped.tobytes()).hexdigest())\n"
        "for n in (2, 4):\n"
        "    data = random_weighted_points(np.random.default_rng(2), n, 20000)\n"
        "    r, rn, e, gram, scale = bc._sweep(data, np.full((n, 4), 0.1))\n"
        "    print(e.hex(), rn.hex(), r.tobytes().hex(), gram.tobytes().hex())\n"
        "ss = regions.sample_region(regions.geodesic_ball([[0.3, 0.1, 0, 0]], 1.0), 4 * regions.CHUNK, 5)\n"
        "print(ss.count_accepted, ss.total_mass_estimate.hex(),\n"
        "      hashlib.sha256(ss.samples.points.tobytes()).hexdigest())\n"
        "rng = np.random.default_rng(3)\n"
        "pts = random_ball_points(rng, 4, 40000, 0.999)\n"
        "res = bc.solve(bc.WeightedPoints(points=pts, weights=10.0 ** rng.uniform(0.0, 12.0, 40000)))\n"
        "print(res.stop_reason, res.barycenter.tobytes().hex(), res.energy.hex(),\n"
        "      res.residual_norm.hex())\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(bc.__file__)))
    outs = set()
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        outs.add(subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                capture_output=True, text=True).stdout)
    assert len(outs) == 1

def test_stalled_probe_regressions(rng):
    # inputs on which the first-order chart step, or the Newton step with
    # an acceptance floor blind to the rounding of the energy's terms,
    # stalled short of tol: weights over six decades, points near the edge
    cases = [(random_ball_points(rng, n, size, 0.9), 10.0 ** rng.uniform(0.0, 6.0, size))
             for size in range(2, 8) for n in (1, 2, 3) for _ in range(12)]
    cases += [(random_ball_points(rng, n, size, 0.999), rng.uniform(0.5, 2.0, size))
              for size in (2, 3) for n in (1, 2, 3) for _ in range(60)]
    for pts, wts in cases:
        data = bc.WeightedPoints(points=pts, weights=wts)
        res = bc.solve(data)
        assert res.converged, (pts.tolist(), wts.tolist(), res.residual_norm)
        assert res.residual_norm <= 1e-12 * data.total_weight


def test_newton_iteration_guard(rng):
    for size in (1000, 10000):
        for n in (1, 2, 3, 4):
            res = bc.solve(random_weighted_points(rng, n, size))
            assert res.converged
            assert res.iterations <= 6


def test_chart_hessian_matches_finite_difference(rng):
    h = 1e-3
    for n in (1, 2, 3):
        data = bc.WeightedPoints(points=random_ball_points(rng, n, 6, rmax=0.95),
                                 weights=10.0 ** rng.uniform(-3.0, 3.0, 6))
        c = random_ball_point(rng, n, rmax=0.6)
        # in the units of the working weights w 2^-e, scaled back by 2^e
        hess = np.ldexp(bc._chart_hessian(bc._sweep(data, c)[3], data._total), data._scale)
        # second derivatives of G_c at 0 along e_a + e_b and e_a - e_b give
        # H_ab by polarization; five-point stencil along each direction
        eye = np.eye(4 * n)
        dirs = np.stack([eye[:, None] + eye[None, :], eye[:, None] - eye[None, :]])
        steps = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * h
        probes = (steps[:, None, None, None, None] * dirs).reshape(5, 2, 4 * n, 4 * n, n, 4)
        e = verify._energy_batch(data, mobius.hua_apply(mobius.hua_new(c), probes))
        d2 = (-e[0] + 16.0 * e[1] - 30.0 * e[2] + 16.0 * e[3] - e[4]) / (12.0 * h * h)
        fd = (d2[0] - d2[1]) / 4.0
        assert np.max(np.abs(fd - hess)) <= 1e-7 * data.total_weight
        assert np.allclose(hess, hess.T, rtol=0.0, atol=1e-12 * data.total_weight)
        assert np.min(np.linalg.eigvalsh(hess)) > 0.0


def test_two_hundred_points_converge(rng):
    data = random_weighted_points(rng, 2, 200, rmax=0.6)
    res = bc.solve(data)
    assert res.converged
    assert res.residual_norm <= 1e-12 * data.total_weight


# ---------------------------------------------------------------------------
# two-point balance and invariance


def solve_weighted_tanh_check(data):
    """For a two-point set, solve and return

        | w_p tanh(d(c,p)/2) - w_q tanh(d(c,q)/2) |

    at the computed barycenter c.  Also checks that c lies on the
    geodesic through the two points (within 1e-10 in distance)."""
    if data.size != 2:
        raise QhbError("the tanh balance check needs exactly two points")
    p, y = data.points[0], data.points[1]
    c = bc.solve(data).barycenter
    dp = float(geometry.distance(c, p))
    dy = float(geometry.distance(c, y))
    on_curve = geometry.geodesic_point(geometry.geodesic_between(p, y), dp)
    dev = float(geometry.distance(on_curve, c))
    if dev > 1e-10:
        raise QhbError(f"barycenter is {dev:.3g} away from the geodesic through the points")
    return abs(data.weights[0] * np.tanh(dp / 2.0) - data.weights[1] * np.tanh(dy / 2.0))


def pushforward_invariance(data, g):
    """Distance between solve(g . data) and g(solve(data)); near zero because
    the barycenter commutes with every isometry."""
    res = bc.solve(data)
    moved = bc.WeightedPoints(points=mobius.sp_apply(g, data.points), weights=data.weights)
    res_moved = bc.solve(moved)
    return float(geometry.distance(res_moved.barycenter, mobius.sp_apply(g, res.barycenter)))


def test_tanh_balance_equal_weights(rng):
    p = random_ball_point(rng, 2, rmax=0.7)
    y = random_ball_point(rng, 2, rmax=0.7)
    data = bc.WeightedPoints(points=np.stack([p, y]), weights=np.ones(2))
    assert solve_weighted_tanh_check(data) <= 1e-10


def test_tanh_balance_weighted_example():
    assert solve_weighted_tanh_check(two_weighted()) <= 1e-10


def test_tanh_balance_against_bisection_oracle(rng):
    p = random_ball_point(rng, 2, rmax=0.7)
    y = random_ball_point(rng, 2, rmax=0.7)
    w = rng.uniform(0.5, 3.0, 2)
    data = bc.WeightedPoints(points=np.stack([p, y]), weights=w)

    d = float(geometry.distance(p, y))
    chart = geometry.geodesic_between(p, y)

    def balance(t):
        return w[0] * math.tanh(t / 2) - w[1] * math.tanh((d - t) / 2)

    lo, hi = 0.0, d
    for _ in range(200):
        midt = (lo + hi) / 2
        if balance(midt) > 0:
            hi = midt
        else:
            lo = midt
    oracle_point = geometry.geodesic_point(chart, (lo + hi) / 2)

    res = bc.solve(data)
    assert float(geometry.distance(res.barycenter, oracle_point)) <= 1e-9
    assert solve_weighted_tanh_check(data) <= 1e-10


def test_tanh_balance_requires_two_points():
    with pytest.raises(QhbError):
        solve_weighted_tanh_check(bc.weighted_points(pt(0.1)))


def test_pushforward_identity():
    gid = mobius.SpMatrix(matrix=q.identity_matrix(2))
    assert pushforward_invariance(two_weighted(), gid) <= 1e-12


def test_pushforward_translation_midpoint():
    t = 1.0 / 3.0
    lead = 1.0 / math.sqrt(1 - t * t)
    m = np.zeros((2, 2, 4))
    m[0, 0, 0] = m[1, 1, 0] = lead
    m[0, 1, 0] = m[1, 0, 0] = lead * t
    g = mobius.SpMatrix(matrix=m)
    data = bc.weighted_points(pt(0.0, 0.5))
    assert pushforward_invariance(data, g) <= 1e-10
    moved = bc.WeightedPoints(points=mobius.sp_apply(g, data.points), weights=data.weights)
    res = bc.solve(moved)
    assert res.barycenter[0, 0] == pytest.approx((13 - 4 * math.sqrt(3)) / 11, abs=1e-10)


def test_pushforward_random(rng):
    data = random_weighted_points(rng, 2, 5, rmax=0.7)
    g = random_sp(rng, 2)
    assert pushforward_invariance(data, g) <= 1e-8


def test_energy_reference_computes_its_own_constant(rng):
    # verify._energy_batch sums on the caller's weights with its own
    # sum_i w_i log(1 - |q_i|^2): it agrees with energy, and a corrupted
    # working constant moves energy but not the reference
    for n in (1, 2, 3):
        data = bc.WeightedPoints(points=random_ball_points(rng, n, 7, rmax=0.9),
                                 weights=rng.uniform(0.5, 2.0, 7))
        xs = random_ball_points(rng, n, 5, rmax=0.7)
        ref = verify._energy_batch(data, xs)
        assert np.max(np.abs(ref - [bc.energy(data, x) for x in xs])) <= 1e-12
        bad = copy.copy(data)
        object.__setattr__(bad, "_log_const", data._log_const + 0.5)
        assert np.array_equal(verify._energy_batch(bad, xs), ref)
        assert np.min(np.abs(ref - [bc.energy(bad, x) for x in xs])) > 1e-12


def test_energy_convex_along_geodesics(rng):
    ts = np.linspace(-2.0, 2.0, 21)
    for n in (1, 2):
        data = random_weighted_points(rng, n, 6)
        chart = geometry.geodesic_chart(random_ball_point(rng, n, rmax=0.5),
                                        random_ball_point(rng, n) / 0.9)
        vals = verify._energy_batch(data, geometry.geodesic_point(chart, ts))
        second = vals[:-2] - 2 * vals[1:-1] + vals[2:]
        assert np.all(second > 0.0)


def _real_slice_newton(ys, w, sign=-1.0):
    """The barycenter of real points ys (N, n) with weights w, by Newton on
    the energy of R^n inside H^n, an independent reference for solve:

        G(x) = sum_i w_i log((1 - x.y_i)^2 / ((1 - |x|^2)(1 - |y_i|^2))),

    with the gradient -2 sum w y/(1 - x.y) + 2W x/(1 - |x|^2) and the Hessian
    -2 sum w y y^T/(1 - x.y)^2 + W(2I/(1 - |x|^2) + 4 x x^T/(1 - |x|^2)^2)
    (sign = +1 flips its first term).  G need not be convex in x: where the
    Hessian is not positive definite the step is the gradient over the
    Hessian's norm.  A step longer than 1e-3, or not Newton's, is halved
    until G falls and x stays in the ball (closer in, G's rounding hides
    the fall); it stops after a Newton step of norm at most 1e-13, which
    quadratic convergence reaches within 8 such short steps."""
    total, x, close = np.sum(w), np.zeros(ys.shape[1]), 0

    def energy(x):
        return np.sum(w * np.log((1.0 - ys @ x) ** 2)) - total * math.log(1.0 - x @ x)

    for _ in range(200):
        a, b = 1.0 - ys @ x, 1.0 - x @ x
        grad = -2.0 * (w / a) @ ys + 2.0 * total * x / b
        hess = (sign * 2.0 * (ys.T * (w / a**2)) @ ys
                + total * (2.0 * np.eye(x.size) / b + 4.0 * np.outer(x, x) / b**2))
        convex = np.all(np.linalg.eigvalsh(hess) > 0.0)
        step = np.linalg.solve(hess, grad) if convex else grad / np.linalg.norm(hess, 2)
        if convex and np.linalg.norm(step) <= 1e-3:
            x, close = x - step, close + 1
            if np.linalg.norm(step) <= 1e-13:
                return x
            assert close < 8, "no quadratic convergence: is the Hessian right?"
            continue
        eta = next(eta for eta in 0.5 ** np.arange(60)
                   if np.sum((x - eta * step) ** 2) < 1.0 and energy(x - eta * step) < energy(x))
        x = x - eta * step
    raise AssertionError("the reference Newton did not stop")


def test_solve_on_the_real_slice_matches_an_independent_newton():
    # real points have a real barycenter, and solve finds it within 1.6e-12
    # of the reference; the reference's fixed point depends only on its
    # gradient, and its quadratic convergence checks its Hessian (with the
    # first term's sign flipped it fails on 58 of these 60 sets)
    rng = np.random.default_rng(2027)
    for _ in range(60):
        n, size = int(rng.integers(2, 5)), int(rng.integers(3, 12))
        dirs = rng.standard_normal((size, n))
        ys = dirs / np.linalg.norm(dirs, axis=1)[:, None] * rng.uniform(0.0, 0.95, (size, 1))
        w = 10.0 ** rng.uniform(-3.0, 3.0, size)
        pts = np.zeros((size, n, 4))
        pts[..., 0] = ys
        res = bc.solve(bc.WeightedPoints(points=pts, weights=w))
        assert res.converged
        assert np.all(res.barycenter[:, 1:] == 0.0)
        ref = pt(*_real_slice_newton(ys, w))
        assert float(geometry.distance(res.barycenter, ref)) <= 1e-11
