import decimal
import math

import numpy as np
import pytest

from qhb import barycenter as bc
from qhb import cli, geometry, mobius
from qhb import quaternions as q
from qhb.errors import DimensionMismatch, NotInBall, QhbError, Singular
from qhb.verify import random_ball_point, random_ball_points, random_sp, random_weighted_points


def pt(*vals):
    """Real-axis point(s) in H^1."""
    return np.array([[v, 0.0, 0.0, 0.0] for v in vals])


def a_u(phi):
    """A_u read from the Hua matrix, whose top-left block is -A_u / s."""
    return -phi.s * mobius.hua_matrix_array(phi.u)[:phi.n, :phi.n]


def test_hua_at_origin():
    phi = mobius.hua_new(np.zeros((2, 4)))
    assert phi.s == 1.0
    assert np.array_equal(a_u(phi), q.identity_matrix(2))


def test_hua_scalar_case_is_identity_matrix():
    # n=1: A_u = (1-s^2)/(1+s) + s = 1 for every u
    phi = mobius.hua_new(pt(0.5))
    assert phi.s == pytest.approx(math.sqrt(3) / 2, abs=1e-16)
    assert np.allclose(a_u(phi), q.ONE[None, None], atol=1e-15)


def test_hua_perpendicular_scaling():
    u = np.zeros((2, 4))
    u[0, 0] = 0.5
    phi = mobius.hua_new(u)
    v = np.zeros((2, 4))
    v[1, 0] = 1.0
    out = q.mat_apply(a_u(phi), v)
    assert np.allclose(out, v * math.sqrt(3) / 2, atol=1e-15)


def test_hua_rejects_boundary():
    with pytest.raises(NotInBall):
        mobius.hua_new(pt(1.0))
    with pytest.raises(NotInBall):
        mobius.hua_new(pt(math.nan))
    for batch in (np.zeros((1, 1, 4)), np.zeros((2, 1, 4)), np.zeros((0, 4))):
        with pytest.raises(DimensionMismatch):
            mobius.hua_new(batch)


@pytest.mark.parametrize("u", [pt(1.0), pt(2.0), np.array([[0.6, 0.0, 0.8, 0.0]]), pt(math.nan)],
                         ids=["on-sphere-real", "outside", "on-sphere-quaternion", "nan"])
def test_hua_involution_checks_its_point(u):
    with pytest.raises(NotInBall):
        mobius.HuaInvolution(u)


def test_hua_involution_derives_s_and_copies_u():
    u = pt(0.6)
    phi = mobius.HuaInvolution(u)
    u[0, 0] = 0.0
    assert phi.u[0, 0] == 0.6 and not phi.u.flags.writeable
    assert phi.s == float(np.sqrt(1.0 - q.vnorm2(pt(0.6))))
    with pytest.raises(TypeError):
        mobius.HuaInvolution(pt(0.6), s=0.3)


def test_hua_apply_swaps_origin_and_center(rng):
    for n in (1, 2, 3):
        u = random_ball_point(rng, n)
        phi = mobius.hua_new(u)
        assert np.allclose(mobius.hua_apply(phi, np.zeros((n, 4))), u, atol=1e-15)
        assert np.allclose(mobius.hua_apply(phi, u), 0.0, atol=1e-15)


def test_hua_apply_at_origin_is_negation(rng):
    z = random_ball_points(rng, 2, 5)
    phi = mobius.hua_new(np.zeros((2, 4)))
    assert np.allclose(mobius.hua_apply(phi, z), -z, atol=0)


def test_hua_apply_real_axis_rationals():
    # n=1 real axis: (c - x)/(1 - c x); c = 2/7 exchanges 1/2 and -1/4
    phi = mobius.hua_new(pt(2 / 7))
    assert np.allclose(mobius.hua_apply(phi, pt(0.5)), pt(-0.25), atol=1e-15)
    assert np.allclose(mobius.hua_apply(phi, pt(-0.25)), pt(0.5), atol=1e-15)


def test_hua_apply_boundary_allowed(rng):
    u = random_ball_point(rng, 2, rmax=0.6)
    phi = mobius.hua_new(u)
    v = rng.standard_normal((2, 4))
    v /= q.vnorm(v)
    out = mobius.hua_apply(phi, v)
    assert float(q.vnorm(out)) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(NotInBall):
        mobius.hua_apply(phi, v * 1.01)
    with pytest.raises(NotInBall):
        mobius.hua_apply(phi, v * math.nan)


def _decimal_hua(u, z):
    """Phi_u(z) from the defining formula (u - A_u z)(1 - <z,u>)^{-1},
    A_u z = u <z,u>/(1+s) + s z, in 40-digit decimal arithmetic on the
    exact values of the float inputs; one point z of H^n."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        dec = decimal.Decimal

        def mul(a, b):
            return [a[0] * b[0] - a[1] * b[1] - a[2] * b[2] - a[3] * b[3],
                    a[0] * b[1] + a[1] * b[0] + a[2] * b[3] - a[3] * b[2],
                    a[0] * b[2] - a[1] * b[3] + a[2] * b[0] + a[3] * b[1],
                    a[0] * b[3] + a[1] * b[2] - a[2] * b[1] + a[3] * b[0]]

        def conj(a):
            return [a[0], -a[1], -a[2], -a[3]]

        u = [[dec(float(x)) for x in row] for row in u]
        z = [[dec(float(x)) for x in row] for row in z]
        ip = [sum(col, dec(0)) for col in zip(*(mul(conj(uj), zj) for uj, zj in zip(u, z)))]
        s = (1 - sum(x * x for row in u for x in row)).sqrt()
        den = [1 - ip[0], -ip[1], -ip[2], -ip[3]]
        den2 = sum(x * x for x in den)
        dinv = [x / den2 for x in conj(den)]
        out = []
        for uj, zj in zip(u, z):
            num = [a - b / (1 + s) - s * c for a, b, c in zip(uj, mul(uj, ip), zj)]
            out.append([float(x) for x in mul(num, dinv)])
        return np.array(out)


def test_hua_apply_accuracy_against_decimal_reference(rng):
    # the only test of absolute accuracy: every other Phi_c test checks an
    # identity; |Phi_u(z)| <= 1, so the error is measured in units of eps
    eps = float(np.finfo(float).eps)
    worst = 0.0
    for n in (1, 2, 4):
        for rmax in (0.5, 0.9, 0.999):
            for _ in range(10):
                u = random_ball_point(rng, n, rmax)
                z = random_ball_points(rng, n, 10, rmax)
                got = mobius.hua_apply(mobius.hua_new(u), z)
                ref = np.stack([_decimal_hua(u, zi) for zi in z])
                worst = max(worst, float(np.max(q.vnorm(got - ref))))
    assert worst <= 8.0 * eps


def test_division_table_is_the_product_table():
    # component b of e_a e_f is _DIV_SIGN[f, b] when a = _DIV_ROW[f, b] and
    # 0 otherwise: the kernel's right division reproduces qmul on the basis
    e = np.eye(4)
    for a in range(4):
        for f in range(4):
            from_table = np.where(mobius._DIV_ROW[f] == a, mobius._DIV_SIGN[f], 0.0)
            assert np.array_equal(from_table, q.qmul(e[a], e[f]))


def test_kernel_results_are_c_contiguous(rng):
    # the kernel runs component-major; what leaves hua_apply and the sweep
    # is laid out as the caller's point arrays are, also from the kernel's
    # return at the origin (a -0.0 center is the origin too), and so is
    # what leaves distance, which runs _sinh2_rows on the same blocks
    for n in (1, 2, 4):
        for u in (random_ball_point(rng, n), np.zeros((n, 4)), np.full((n, 4), -0.0)):
            phi = mobius.hua_new(u)
            z = random_ball_points(rng, n, 3 * (mobius._BLOCK // n) + 5)
            for batch in (z, z[0], z[::3], z[:12].reshape(3, 4, n, 4)):
                assert mobius.hua_apply(phi, batch).flags.c_contiguous
                d = geometry.distance(batch, u)
                assert d.shape == batch.shape[:-2]
                assert d.flags.c_contiguous
            data = random_weighted_points(rng, n, 2 * (mobius._BLOCK // n) + 3)
            r_vec, _, _, gram, _ = bc._sweep(data, u)
            assert r_vec.shape == (n, 4) and r_vec.flags.c_contiguous
            assert gram.shape == (4 * n, 4 * n) and gram.flags.c_contiguous


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_kernel_at_the_origin_is_negation(rng, n):
    # Phi_0(z) = -z and |1 - <z,0>|^2 = 1: the kernel returns 0 - z, which
    # is +0.0 for z = +-0.0 as its general path gives, for a +0.0 or -0.0
    # center, on one row, five rows, one block and (through hua_apply) a
    # batch of several blocks
    z = random_ball_points(rng, n, 2 * (mobius._BLOCK // n) + 5)
    z[::7, 0, 1] = 0.0
    z[::5, -1, 2] = -0.0
    flat = z.reshape(len(z), 4 * n)
    for c in (np.zeros((n, 4)), np.full((n, 4), -0.0)):
        hua = mobius.hua_matrix_array(c)
        for rows in (flat[:1], flat[:5], flat[:mobius._BLOCK // n]):
            out, den2 = mobius._hua_rows(c, rows)
            assert out.flags.c_contiguous
            assert out.tobytes() == np.subtract(0.0, rows.T, order="C").tobytes()
            assert den2.tobytes() == np.ones(len(rows)).tobytes()
            ref = mobius.projective_apply(hua, rows.reshape(-1, n, 4))
            assert np.array_equal(out.T.reshape(-1, n, 4), ref)
        got = mobius.hua_apply(mobius.hua_new(c), z)
        assert got.tobytes() == np.subtract(0.0, z).tobytes()
        assert np.array_equal(got, mobius.projective_apply(hua, z))


def test_involution_round_trip(rng):
    for n in (1, 2):
        u = random_ball_point(rng, n)
        z = random_ball_points(rng, n, 20)
        phi = mobius.hua_new(u)
        assert np.allclose(mobius.hua_apply(phi, mobius.hua_apply(phi, z)), z, atol=1e-12)


def test_norm_relation(rng):
    for n in (1, 2):
        u = random_ball_point(rng, n)
        z = random_ball_points(rng, n, 20)
        phi = mobius.hua_new(u)
        lhs = q.vnorm2(mobius.hua_apply(phi, z))
        rhs = (1 - q.vnorm2(u)) * (1 - q.vnorm2(z)) / q.qnorm2(q.ONE - q.inner(z, u))
        assert np.allclose(lhs + rhs, 1.0, atol=1e-12)


def test_hua_matrix_origin():
    g = mobius.hua_matrix(mobius.hua_new(np.zeros((2, 4))))
    expect = q.identity_matrix(3)
    expect[:2] = -expect[:2]
    assert np.array_equal(g.matrix, expect)


def test_hua_matrix_membership_and_square(rng):
    for n in (1, 2):
        phi = mobius.hua_new(random_ball_point(rng, n))
        g = mobius.hua_matrix(phi)
        assert mobius.sp_defect(g.matrix) <= 1e-12
        sq = q.mat_mul(g.matrix, g.matrix)
        assert np.allclose(sq, q.identity_matrix(n + 1), atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stacked_matrix_helpers_match_single_calls(rng, n):
    """Slice i of each helper on a stack of 16 is byte-identical to the
    call on slice i of the inputs."""
    size = 16
    a = rng.standard_normal((size, n + 1, n + 1, 4))
    b = rng.standard_normal((size, n + 1, n + 1, 4))
    u = random_ball_points(rng, n, size)
    v = rng.standard_normal((size, n, 4))
    z = random_ball_points(rng, n, size)
    prod, ct, out = q.mat_mul(a, b), q.mat_conj_transpose(a), q.outer(u, v)
    hua = mobius.hua_matrix_array(u)
    defect = mobius.sp_defect(hua)
    image = mobius.projective_apply(hua, z)
    assert defect.shape == (size,) and np.all(defect <= 1e-12)
    for i in range(size):
        assert np.array_equal(prod[i], q.mat_mul(a[i], b[i]))
        assert np.array_equal(ct[i], q.mat_conj_transpose(a[i]))
        assert np.array_equal(out[i], q.outer(u[i], v[i]))
        assert np.array_equal(hua[i], mobius.hua_matrix_array(u[i]))
        assert np.array_equal(hua[i], mobius.hua_matrix(mobius.hua_new(u[i])).matrix)
        assert np.array_equal(defect[i], mobius.sp_defect(hua[i]))
        assert np.array_equal(image[i], mobius.projective_apply(hua[i], z[i]))


def test_hua_matrix_eigenvectors(rng):
    phi = mobius.hua_new(random_ball_point(rng, 2))
    g = mobius.hua_matrix(phi)
    plus = np.zeros((3, 4))
    plus[:2] = phi.u
    plus[2, 0] = 1.0 + phi.s
    assert np.allclose(q.mat_apply(g.matrix, plus), plus, atol=1e-12)
    minus = np.zeros((3, 4))
    minus[:2] = phi.u
    minus[2, 0] = 1.0 - phi.s
    assert np.allclose(q.mat_apply(g.matrix, minus), -minus, atol=1e-12)
    # v perpendicular to u: (v, 0) is flipped
    v = rng.standard_normal((2, 4))
    v = v - q.right_scale(phi.u, q.inner(v, phi.u) / float(q.vnorm2(phi.u)))
    perp = np.zeros((3, 4))
    perp[:2] = v
    assert np.allclose(q.mat_apply(g.matrix, perp), -perp, atol=1e-12)


def test_fixed_point_examples(rng):
    assert np.allclose(mobius.hua_fixed_point(mobius.hua_new(np.zeros((1, 4)))), 0.0)
    p = mobius.hua_fixed_point(mobius.hua_new(pt(0.5)))
    assert p[0, 0] == pytest.approx(2 - math.sqrt(3), abs=1e-15)
    for n in (1, 2):
        phi = mobius.hua_new(random_ball_point(rng, n))
        fp = mobius.hua_fixed_point(phi)
        assert np.max(np.abs(mobius.hua_apply(phi, fp) - fp)) < 1e-12


def translation_third():
    """The real hyperbolic translation (z + 1/3)(1 + z/3)^{-1} in Sp(1,1)."""
    t = 1.0 / 3.0
    lead = 1.0 / math.sqrt(1.0 - t * t)
    m = np.zeros((2, 2, 4))
    m[0, 0, 0] = m[1, 1, 0] = lead
    m[0, 1, 0] = m[1, 0, 0] = lead * t
    return mobius.SpMatrix(matrix=m)


def test_sp_apply_translation_values():
    g = translation_third()
    assert np.allclose(mobius.sp_apply(g, pt(0.5)), pt(5 / 7), atol=1e-15)
    assert np.allclose(mobius.sp_apply(g, pt(0.0)), pt(1 / 3), atol=1e-15)
    with pytest.raises(NotInBall):
        mobius.sp_apply(g, pt(math.nan))


def test_sp_apply_identity(rng):
    z = random_ball_points(rng, 2, 4)
    gid = mobius.SpMatrix(matrix=q.identity_matrix(3))
    assert np.allclose(mobius.sp_apply(gid, z), z, atol=0)


def test_projective_apply_matches_sp_apply_and_raises_singular(rng):
    g = random_sp(rng, 2)
    z = random_ball_points(rng, 2, 5)
    assert np.array_equal(mobius.projective_apply(g.matrix, z), mobius.sp_apply(g, z))
    # the bare action takes any array: here beta z + a = z - 1/2 vanishes at z = 1/2
    m = np.zeros((2, 2, 4))
    m[0, 0, 0] = m[1, 0, 0] = 1.0
    m[1, 1, 0] = -0.5
    with pytest.raises(Singular):
        mobius.projective_apply(m, pt(0.5))


def test_sp_apply_preserves_distance(rng):
    g = random_sp(rng, 2)
    p = random_ball_points(rng, 2, 10)
    y = random_ball_point(rng, 2)
    lhs = geometry.distance(mobius.sp_apply(g, p), mobius.sp_apply(g, y))
    assert np.allclose(lhs, geometry.distance(p, y), atol=1e-10)


def test_sp_inverse_blocks_and_round_trip(rng):
    gid = mobius.SpMatrix(matrix=q.identity_matrix(3))
    assert np.array_equal(mobius.sp_inverse(gid).matrix, gid.matrix)
    phi = mobius.hua_new(random_ball_point(rng, 2))
    g = mobius.hua_matrix(phi)
    assert np.allclose(mobius.sp_inverse(g).matrix, g.matrix, atol=1e-14)
    g = random_sp(rng, 2)
    prod = q.mat_mul(g.matrix, mobius.sp_inverse(g).matrix)
    assert np.allclose(prod, q.identity_matrix(3), atol=1e-12)
    z = random_ball_points(rng, 2, 6)
    back = mobius.sp_apply(mobius.sp_inverse(g), mobius.sp_apply(g, z))
    assert np.allclose(back, z, atol=1e-10)


def test_sp_relations(rng):
    g = random_sp(rng, 2)
    a2 = float(q.qnorm2(g.matrix[-1, -1]))
    assert a2 == pytest.approx(float(q.vnorm2(g.matrix[:-1, -1])) + 1.0, abs=1e-12)
    assert a2 == pytest.approx(float(q.vnorm2(g.matrix[-1, :-1])) + 1.0, abs=1e-12)


def test_consistency_matrix_vs_closed_form(rng):
    # 20000 points span several of the blocks hua_apply runs the kernel on
    for n in (1, 2):
        phi = mobius.hua_new(random_ball_point(rng, n))
        g = mobius.hua_matrix(phi)
        for size in (8, 20000):
            z = random_ball_points(rng, n, size)
            assert np.allclose(mobius.sp_apply(g, z), mobius.hua_apply(phi, z), atol=1e-12)


def test_au_closed_form_inverse(rng):
    for n in (1, 2, 3):
        phi = mobius.hua_new(random_ball_point(rng, n))
        inv = -q.outer(phi.u, phi.u) / ((1 + phi.s) * phi.s) + q.identity_matrix(n) / phi.s
        assert np.allclose(q.mat_mul(a_u(phi), inv), q.identity_matrix(n), atol=1e-12)


def test_intertwine_block_diagonal_translation():
    g = translation_third()
    u = mobius.intertwine_factor(g, pt(0.0))
    assert np.max(np.abs(u.matrix[:-1, -1])) == 0.0
    assert np.max(np.abs(u.matrix[-1, :-1])) == 0.0
    assert float(q.qnorm(u.matrix[-1, -1])) == pytest.approx(1.0, abs=1e-12)


def test_intertwine_rotation_at_origin(rng):
    from qhb.verify import random_rotation

    g = random_rotation(rng, 2)
    u = mobius.intertwine_factor(g, np.zeros((2, 4)))
    # Phi_0 g Phi_0 flips the sign pattern but stays block diagonal
    assert np.allclose(u.matrix[:-1, :-1], g.matrix[:-1, :-1], atol=1e-12)
    assert np.allclose(u.matrix[-1, -1], g.matrix[-1, -1], atol=1e-12)


def test_intertwine_pointwise_identity(rng):
    for n in (1, 2):
        g = random_sp(rng, n)
        c = random_ball_point(rng, n, rmax=0.7)
        u = mobius.intertwine_factor(g, c)
        z = random_ball_points(rng, n, 8)
        lhs = mobius.sp_apply(u, mobius.hua_apply(mobius.hua_new(c), z))
        gc = mobius.sp_apply(g, c)
        rhs = mobius.hua_apply(mobius.hua_new(gc), mobius.sp_apply(g, z))
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_jacobian_closed_form_values(rng):
    phi = mobius.hua_new(pt(0.5))
    assert float(mobius.jacobian_det(phi, pt(0.0))) == pytest.approx((3 / 4) ** 4, abs=1e-15)
    phi0 = mobius.hua_new(np.zeros((2, 4)))
    z = random_ball_points(rng, 2, 5)
    assert np.allclose(mobius.jacobian_det(phi0, z), 1.0, atol=0)
    with pytest.raises(NotInBall):
        mobius.jacobian_det(phi, pt(math.nan))


def test_au_hermitian_and_square(rng):
    for n in (1, 2, 3):
        phi = mobius.hua_new(random_ball_point(rng, n))
        au = a_u(phi)
        assert np.allclose(au, q.mat_conj_transpose(au), atol=1e-15)
        expect = phi.s**2 * q.identity_matrix(n) + q.outer(phi.u, phi.u)
        assert np.allclose(q.mat_mul(au, au), expect, atol=1e-14)


def test_jacobian_matches_finite_differences():
    # independent oracle: central differences of the real differential
    u = pt(0.3)
    z = np.array([[0.0, 0.4, 0.0, 0.0]])  # 0.4 i
    phi = mobius.hua_new(u)
    h = 1e-5
    cols = []
    for k in range(4):
        e = np.zeros((1, 4))
        e[0, k] = h
        cols.append((mobius.hua_apply(phi, z + e) - mobius.hua_apply(phi, z - e)).ravel() / (2 * h))
    fd = abs(np.linalg.det(np.stack(cols, axis=1)))
    closed = float(mobius.jacobian_det(phi, z))
    assert fd == pytest.approx(closed, rel=1e-6)


def test_measure_invariance_pointwise(rng):
    for n in (1, 2):
        u = random_ball_point(rng, n, rmax=0.8)
        z = random_ball_points(rng, n, 16, rmax=0.8)
        phi = mobius.hua_new(u)
        lhs = mobius.jacobian_det(phi, z) * geometry.measure_density(mobius.hua_apply(phi, z))
        assert np.allclose(lhs / geometry.measure_density(z), 1.0, atol=1e-10)


def test_sp_json_round_trip(rng):
    g = random_sp(rng, 2)
    obj = cli.sp_to_json(g)
    h = cli.sp_from_json(obj)
    assert np.allclose(g.matrix, h.matrix, atol=0)


def test_sp_loader_rejects_non_member():
    bad = q.identity_matrix(2) * 2.0
    with pytest.raises(QhbError):
        mobius.SpMatrix(matrix=bad)
    obj = {"A": [[[2.0, 0, 0, 0]]], "alpha": [[0.0, 0, 0, 0]],
           "beta": [[0.0, 0, 0, 0]], "a": [1.0, 0, 0, 0]}
    with pytest.raises(QhbError):
        cli.sp_from_json(obj)
    with pytest.raises(QhbError):
        cli.sp_from_json({"A": [[[1.0, 0, 0, 0]]]})
    # a scalar A, and blocks of the wrong shape
    for key, value in (("A", 1.0), ("A", [[1.0, 0, 0, 0]]), ("alpha", [0.0, 0, 0, 0]),
                       ("beta", [[0.0, 0, 0, 0], [0.0, 0, 0, 0]]), ("a", [[1.0, 0, 0, 0]])):
        with pytest.raises(QhbError, match=key):
            cli.sp_from_json({**cli.sp_to_json(mobius.SpMatrix(matrix=q.identity_matrix(2))),
                              key: value})
