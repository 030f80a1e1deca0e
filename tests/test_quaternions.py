import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from qhb import barycenter as bc
from qhb import cli, geometry, mobius, regions
from qhb import quaternions as q
from qhb.errors import DimensionMismatch
from qhb.verify import associativity_bound

finite = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
quat_st = st.tuples(finite, finite, finite, finite).map(lambda t: np.array(t))


def test_defining_relations():
    assert np.array_equal(q.qmul(q.I, q.I), -q.ONE)
    assert np.array_equal(q.qmul(q.J, q.J), -q.ONE)
    assert np.array_equal(q.qmul(q.K, q.K), -q.ONE)
    assert np.array_equal(q.qmul(q.I, q.J), q.K)
    assert np.array_equal(q.qmul(q.J, q.I), -q.K)
    assert np.array_equal(q.qmul(q.qmul(q.I, q.J), q.K), -q.ONE)


def test_product_expansion_by_hand():
    # (1+i)(1+j) = 1 + j + i + ij = 1 + i + j + k
    out = q.qmul(np.array([1.0, 1, 0, 0]), np.array([1.0, 0, 1, 0]))
    assert np.array_equal(out, np.array([1.0, 1, 1, 1]))


def test_inner_self_is_squared_norm(rng):
    z = rng.standard_normal((3, 4))
    got = q.inner(z, z)
    assert got[0] == pytest.approx(q.vnorm2(z), rel=1e-14)
    assert np.allclose(got[1:], 0.0, atol=1e-13)


def test_inner_single_step_product():
    # <i, j> = conj(j) i = -ji = k
    assert np.allclose(q.inner(q.I[None], q.J[None]), q.K, atol=0)


def test_inner_right_scalar_rule():
    # <z k, w> = <z,w> k  with z = w = 1 gives k
    z = q.ONE[None]
    assert np.allclose(q.inner(q.right_scale(z, q.K), z), q.K, atol=0)


def test_inner_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        q.inner(np.zeros((2, 4)), np.zeros((3, 4)))


def test_mat_apply_identity(rng):
    z = rng.standard_normal((3, 4))
    assert np.allclose(q.mat_apply(q.identity_matrix(3), z), z, atol=0)


def test_mat_apply_diag_j():
    m = q.J[None, None]  # 1x1 matrix (j)
    assert np.allclose(q.mat_apply(m, q.I[None]), -q.K, atol=0)


def test_mat_apply_right_scalar_commutes(rng):
    m = rng.standard_normal((2, 3, 4))
    z = rng.standard_normal((3, 4))
    lam = rng.standard_normal(4)
    lhs = q.mat_apply(m, q.right_scale(z, lam))
    rhs = q.right_scale(q.mat_apply(m, z), lam)
    assert np.allclose(lhs, rhs, atol=1e-13)


def test_mat_mul_against_apply(rng):
    a = rng.standard_normal((2, 3, 4))
    b = rng.standard_normal((3, 2, 4))
    z = rng.standard_normal((2, 4))
    assert np.allclose(q.mat_apply(q.mat_mul(a, b), z),
                       q.mat_apply(a, q.mat_apply(b, z)), atol=1e-12)


def test_outer_acts_as_right_inner(rng):
    u = rng.standard_normal((3, 4))
    x = rng.standard_normal((3, 4))
    lhs = q.mat_apply(q.outer(u, u), x)
    rhs = q.right_scale(u, q.inner(x, u))
    assert np.allclose(lhs, rhs, atol=1e-13)


@given(quat_st, quat_st)
def test_norm_multiplicative(p, r):
    assert abs(q.qnorm(q.qmul(p, r)) - q.qnorm(p) * q.qnorm(r)) <= 1e-12


@given(quat_st, quat_st)
def test_conjugation_reverses_products(p, r):
    assert np.max(np.abs(q.qconj(q.qmul(p, r)) - q.qmul(q.qconj(r), q.qconj(p)))) <= 1e-12


@given(quat_st, quat_st, quat_st)
# |s| ~ 1e-175: a bound from squared components underflowed to its 1e-322 floor
@example(np.array([0.0, 0.0, 0.0, 1.5]), np.array([0.0, 0.0, 0.0, 1.5]),
         np.array([0.0, 0.0, 0.0, 1.0712240445551734e-175]))
def test_associativity(p, r, s):
    lhs = q.qmul(q.qmul(p, r), s)
    rhs = q.qmul(p, q.qmul(r, s))
    assert np.all(np.abs(lhs - rhs) <= associativity_bound(p, r, s))


@given(st.lists(finite, min_size=8, max_size=8), st.lists(finite, min_size=8, max_size=8))
def test_hermitian_symmetry(zc, wc):
    z = np.array(zc).reshape(2, 4) / 10.0
    w = np.array(wc).reshape(2, 4) / 10.0
    assert np.max(np.abs(q.qconj(q.inner(z, w)) - q.inner(w, z))) <= 1e-12


def test_json_round_trip(rng):
    z = rng.standard_normal((2, 4))
    assert np.array_equal(cli._hvector(cli.to_lists(z), None, "z"), z)
    with pytest.raises(DimensionMismatch):
        cli._hvector([[1.0, 2.0]], None, "z")


# ---------------------------------------------------------------------------
# the one shape rule for point arguments (quaternions.hvectors)

_P2 = np.array([[0.1, 0.0, 0.0, 0.0], [0.0, 0.2, 0.0, 0.0]])  # a point of H^2
_D2 = np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])  # a unit vector of H^2
_P3 = np.full((3, 4), 0.1)                                   # a point of H^3
_D3 = np.full((3, 4), 0.5 / np.sqrt(3.0))                    # a unit vector of H^3
_PHI2 = mobius.hua_new(_P2)
_G2 = mobius.hua_matrix(_PHI2)
_DATA2 = bc.weighted_points([_P2, -_P2])

# (point argument, its value of the wrong n or None where no n is fixed)
_SHAPE_RULE_CASES = {
    "hua_new": (mobius.hua_new, None),
    "hua_apply": (lambda z: mobius.hua_apply(_PHI2, z), _P3),
    "jacobian_det": (lambda z: mobius.jacobian_det(_PHI2, z), _P3),
    "sp_apply": (lambda z: mobius.sp_apply(_G2, z), _P3),
    "distance-p": (lambda z: geometry.distance(z, _P2), _P3),
    "distance-q": (lambda z: geometry.distance(_P2, z), _P3),
    "cosh2_half_distance-x": (lambda z: geometry.cosh2_half_distance(z, _P2), _P3),
    "cosh2_half_distance-y": (lambda z: geometry.cosh2_half_distance(_P2, z), _P3),
    "measure_density": (geometry.measure_density, None),
    "energy": (lambda z: bc.energy(_DATA2, z), _P3),
    "solve-start": (lambda z: bc.solve(_DATA2, start=z), _P3),
    "geodesic_chart-base": (lambda z: geometry.geodesic_chart(z, _D2), _P3),
    "geodesic_chart-direction": (lambda z: geometry.geodesic_chart(_P2, z), _D3),
    "geodesic_between-p": (lambda z: geometry.geodesic_between(z, _P2), _P3),
    "geodesic_between-q": (lambda z: geometry.geodesic_between(_P2, z), _P3),
    "convexity_profile-v": (lambda z: geometry.convexity_profile(z, _P2), _D3),
    "convexity_profile-y": (lambda z: geometry.convexity_profile(_D2, z), _P3),
    "intertwine_factor": (lambda z: mobius.intertwine_factor(_G2, z), _P3),
    "geodesic_ball": (lambda z: regions.geodesic_ball(z, 0.5), None),
    "euclidean_ball": (lambda z: regions.euclidean_ball(z, 0.1), None),
}
_BAD_SHAPES = {"0d": np.array(0.1), "3": np.full(3, 0.1), "0x4": np.zeros((0, 4)),
               "1x8": np.full((1, 8), 0.1)}


@pytest.mark.parametrize("case, shape", [
    (case, shape) for case, (_, wrong_n) in _SHAPE_RULE_CASES.items()
    for shape in [*_BAD_SHAPES, *(["wrong-n"] if wrong_n is not None else [])]])
def test_point_arguments_follow_one_shape_rule(case, shape):
    fn, wrong_n = _SHAPE_RULE_CASES[case]
    with pytest.raises(DimensionMismatch):
        fn(wrong_n if shape == "wrong-n" else _BAD_SHAPES[shape])


def test_hvectors_shapes():
    assert q.hvectors([1.0, 0.0, 0.0, 0.0]).shape == (1, 4)
    assert q.hvectors(np.zeros((5, 2, 3, 4)), 3).shape == (5, 2, 3, 4)
    assert q.hvector(np.zeros((3, 4)), 3).shape == (3, 4)
    with pytest.raises(DimensionMismatch):
        q.hvector(np.zeros((2, 3, 4)))
