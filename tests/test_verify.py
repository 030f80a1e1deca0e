import numpy as np
import pytest

import qhb.geometry
import qhb.mobius
import qhb.quaternions
from qhb import verify


def test_run_all_passes_at_small_trials():
    results = verify.run_all(seed=3, trials=60)
    assert len(results) == len(verify.CHECKS)
    for r in results:
        assert r.passed, f"{r.name}: {r.max_error} > {r.tolerance}"


def test_run_all_trials_zero_is_empty():
    assert verify.run_all(seed=0, trials=0) == []


def test_run_check_deterministic():
    check = verify.CHECKS[4]
    a = verify.run_check(check, seed=12, trials=50, stream=4)
    b = verify.run_check(check, seed=12, trials=50, stream=4)
    assert a == b


def test_injected_sign_fault_breaks_involution(monkeypatch):
    """Flipping one sign of the Hua kernel's product table must make the
    involution suite fail; this proves the harness actually measures the
    identity."""
    broken = qhb.mobius._QMUL.copy()
    broken[2, 3] = -broken[2, 3]  # j k = i becomes -i
    monkeypatch.setattr(qhb.mobius, "_QMUL", broken)
    check = next(c for c in verify.CHECKS if c.name == "involution")
    result = verify.run_check(check, seed=0, trials=64)
    assert not result.passed
    assert result.max_error > 1e-3  # far beyond the 1e-12 tolerance


def test_injected_qmul_sign_fault_breaks_associativity(monkeypatch):
    """One flipped sign in the product must exceed the rounding bound of
    the associativity check by far."""
    true_qmul = qhb.quaternions.qmul

    def broken_qmul(p, r):
        out = true_qmul(p, r)
        p = np.asarray(p, dtype=float)
        r = np.asarray(r, dtype=float)
        out[..., 1] -= 2.0 * p[..., 2] * r[..., 3]  # +py*qz becomes -py*qz
        return out

    monkeypatch.setattr(qhb.quaternions, "qmul", broken_qmul)
    check = next(c for c in verify.CHECKS if c.name == "quaternion_associativity")
    result = verify.run_check(check, seed=0, trials=64)
    assert not result.passed
    assert result.max_error > 1e6


def test_injected_fault_does_not_leak():
    # after the monkeypatch test the real implementation is intact
    check = next(c for c in verify.CHECKS if c.name == "involution")
    assert verify.run_check(check, seed=0, trials=64).max_error <= 1e-12


@pytest.mark.parametrize("name", ["au_inverse", "action_consistency", "intertwine_offdiag",
                                  "sp_membership"])
def test_injected_hua_matrix_fault_is_caught(monkeypatch, name):
    """A Hua matrix whose A_u lost its 1/(1+s) must fail every check that
    reads the matrix."""
    true_hua_matrix_array = qhb.mobius.hua_matrix_array

    def broken(u):
        m = true_hua_matrix_array(u)
        u = np.asarray(u, dtype=float)
        n = u.shape[-2]
        s = np.sqrt(1.0 - qhb.quaternions.vnorm2(u))[..., None, None, None]
        au = qhb.quaternions.outer(u, u) + s * qhb.quaternions.identity_matrix(n)
        m[..., :n, :n, :] = -au / s
        return m

    monkeypatch.setattr(qhb.mobius, "hua_matrix_array", broken)
    check = next(c for c in verify.CHECKS if c.name == name)
    result = verify.run_check(check, seed=0, trials=64)
    assert not result.passed
    assert result.max_error > 1e-3


def test_injected_jacobian_exponent_fault_is_caught(monkeypatch):
    """A Jacobian with exponent 2n+1 in place of 2n+2 must fail jacobian_fd."""

    def broken(phi, z):
        z = qhb.mobius.ball_points(z, phi.n)
        den2 = qhb.quaternions.qnorm2(qhb.quaternions.ONE - qhb.quaternions.inner(z, phi.u))
        return (phi.s ** 2 / den2) ** (2 * phi.n + 1)

    monkeypatch.setattr(qhb.mobius, "jacobian_det", broken)
    check = next(c for c in verify.CHECKS if c.name == "jacobian_fd")
    result = verify.run_check(check, seed=0, trials=64)
    assert not result.passed
    assert result.max_error > 1e-3


def test_injected_convexity_sign_fault_is_caught(monkeypatch):
    """A second derivative with its sign flipped must fail convexity_positive."""
    true_second = qhb.geometry.convexity_second_derivative
    monkeypatch.setattr(qhb.geometry, "convexity_second_derivative",
                        lambda profile, t: -true_second(profile, t))
    check = next(c for c in verify.CHECKS if c.name == "convexity_positive")
    result = verify.run_check(check, seed=0, trials=64)
    assert not result.passed
    assert result.max_error > 1e-3


def _indexed(name):
    return next((i, c) for i, c in enumerate(verify.CHECKS) if c.name == name)


def _broken_geodesic_point(chart, t):
    # tanh(t) in place of tanh(t/2): the curve runs at the wrong speed
    w = -np.tanh(np.asarray(t, dtype=float))[..., None, None] * chart.direction
    return qhb.mobius.hua_apply(chart.phi, w)


def _broken_second_derivative(true):
    return lambda profile, t: (1.0 + 1e-3) * true(profile, t)


def _broken_distance(true):
    # d + 1e-6 |p|^2 is not invariant under Sp(n,1)
    return lambda p, y: true(p, y) + 1e-6 * qhb.quaternions.vnorm2(p)


def _broken_intertwine_factor(true):
    def broken(g, c):
        m = np.array(true(g, c).matrix)
        m[-1, -1] = qhb.quaternions.qconj(m[-1, -1])
        return qhb.mobius.SpMatrix(matrix=m)
    return broken


@pytest.mark.parametrize("name, module, attr, make", [
    ("geodesic_endpoint", qhb.geometry, "geodesic_point", lambda true: _broken_geodesic_point),
    ("convexity_fd", qhb.geometry, "convexity_second_derivative", _broken_second_derivative),
    ("distance_isometry", qhb.geometry, "distance", _broken_distance),
    ("intertwine_pointwise", qhb.mobius, "intertwine_factor", _broken_intertwine_factor),
], ids=["geodesic_endpoint", "convexity_fd", "distance_isometry", "intertwine_pointwise"])
def test_injected_fault_fails_a_batched_check(monkeypatch, name, module, attr, make):
    """Each batched check fails, by far, on a broken version of the
    function it tests."""
    monkeypatch.setattr(module, attr, make(getattr(module, attr)))
    i, check = _indexed(name)
    result = verify.run_check(check, seed=0, trials=200, stream=i)
    assert not result.passed
    assert result.max_error > 50.0 * result.tolerance


def test_batched_checks_keep_their_coverage(monkeypatch):
    """At 2000 trials: geodesic_endpoint checks 500 (p, y) pairs from 32
    bases, convexity_fd 285 (v, y) pairs at 7 t, distance_isometry 2000
    points over 63 isometries, intertwine_pointwise 500 points over 32
    (g, c) pairs."""
    calls = []

    def counting(module, attr, size):
        true = getattr(module, attr)

        def wrapper(*args, **kwargs):
            calls.append((attr, size(*args)))
            return true(*args, **kwargs)
        monkeypatch.setattr(module, attr, wrapper)

    counting(qhb.geometry, "geodesic_between", lambda p, ys: 1)
    counting(verify, "_raw_sp", lambda rng, n, size, *rest: size)
    counting(qhb.mobius, "intertwine_factor", lambda g, c: 1)

    def coverage(name):
        calls.clear()
        i, check = _indexed(name)
        errors = list(check.fn(np.random.default_rng([0, i]), max(1, 2000 // check.divisor)))
        drawn = {}
        for attr, k in calls:
            drawn[attr] = drawn.get(attr, 0) + k
        return errors, drawn

    errors, drawn = coverage("geodesic_endpoint")
    assert sum(e.shape[0] for e in errors) == 500 and drawn == {"geodesic_between": 32}
    errors, drawn = coverage("convexity_fd")
    assert all(e.shape[1:] == (7,) for e in errors) and sum(e.shape[0] for e in errors) == 285
    errors, drawn = coverage("distance_isometry")
    assert sum(e.size for e in errors) == 2000 and drawn == {"_raw_sp": 63}
    errors, drawn = coverage("intertwine_pointwise")
    assert sum(e.shape[0] for e in errors) == 500
    assert drawn == {"_raw_sp": 32, "intertwine_factor": 32}


def _run_fake(fn):
    return verify.run_check(verify.Check("fake", 0.0, fn), seed=0, trials=10)


def test_run_check_reports_negative_maximum():
    def negative(rng, trials):
        yield np.array([-3.0, -1.5])
        yield -2.0

    result = _run_fake(negative)
    assert result.max_error == -1.5
    assert result.passed


def test_run_check_with_no_errors_reports_zero():
    def empty(rng, trials):
        yield from ()

    result = _run_fake(empty)
    assert result.max_error == 0.0
    assert result.passed


def test_run_check_reports_a_raising_check():
    def raising(rng, trials):
        yield np.zeros(3)
        raise ValueError("identity broke")

    result = _run_fake(raising)
    assert result.max_error == float("inf")
    assert not result.passed
    assert result.note == "ValueError: identity broke"


def test_random_sp_is_member(rng):
    for n in (1, 2):
        g = verify.random_sp(rng, n)
        assert qhb.mobius.sp_defect(g.matrix) <= 1e-12


def test_random_spn_block_unitary(rng):
    from qhb import quaternions as q

    for n in (1, 2, 3):
        a = verify.random_spn_block(rng, n, 16)
        assert a.shape == (16, n, n, 4)
        aat = q.mat_mul(a, q.mat_conj_transpose(a))
        assert np.allclose(aat, q.identity_matrix(n), atol=1e-12)


def test_ball_points_inside(rng):
    pts = verify.random_ball_points(rng, 2, 100, rmax=0.9)
    from qhb import quaternions as q

    assert np.all(q.vnorm(pts) < 0.9)
