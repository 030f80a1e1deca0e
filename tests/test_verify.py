import numpy as np
import pytest

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


@pytest.mark.parametrize("name", ["au_inverse", "action_consistency", "intertwine_offdiag"])
def test_injected_hua_matrix_fault_is_caught(monkeypatch, name):
    """A Hua matrix whose A_u lost its 1/(1+s) must fail every check that
    reads the matrix."""
    true_hua_matrix_array = qhb.mobius.hua_matrix_array

    def broken(phi):
        m = true_hua_matrix_array(phi)
        au = qhb.quaternions.outer(phi.u, phi.u) + phi.s * qhb.quaternions.identity_matrix(phi.n)
        m[:phi.n, :phi.n] = -au / phi.s
        return m

    monkeypatch.setattr(qhb.mobius, "hua_matrix_array", broken)
    check = next(c for c in verify.CHECKS if c.name == name)
    result = verify.run_check(check, seed=0, trials=64)
    assert not result.passed
    assert result.max_error > 1e-3


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
        a = verify.random_spn_block(rng, n)
        aat = q.mat_mul(a, q.mat_conj_transpose(a))
        assert np.allclose(aat, q.identity_matrix(n), atol=1e-12)


def test_ball_points_inside(rng):
    pts = verify.random_ball_points(rng, 2, 100, rmax=0.9)
    from qhb import quaternions as q

    assert np.all(q.vnorm(pts) < 0.9)
