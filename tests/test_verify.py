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


def test_injected_fault_does_not_leak(rng):
    # after the monkeypatch test the real implementation is intact
    err = verify.check_involution(np.random.default_rng(0), 64)
    assert err <= 1e-12


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
