"""Hua involutions and the Sp(n,1) action on the quaternionic unit ball.

The involution exchanging 0 and u is

    Phi_u(z) = (u - A_u z)(1 - <z,u>)^{-1},   A_u = uu*/(1+s) + s I,
    s = sqrt(1 - |u|^2),

with the quaternion inverse multiplied on the right.  Its matrix

    (1/s) [[-A_u, u], [-u*, 1]]

lies in Sp(n,1) = {M : M* J M = J}, J = diag(I_n, -1), and squares to the
identity.  A general g = [[A, alpha], [beta, a]] in Sp(n,1) acts on the
ball by g(z) = (Az + alpha)(beta z + a)^{-1}, i.e. projectively with
right division by the last homogeneous coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import quaternions as q
from .errors import DimensionMismatch, NotInBall, QhbError, Singular

# hua_apply takes points on the closed ball (Phi_u maps the sphere to itself),
# so |z|^2 may exceed 1 by roundoff; every other function taking points
# requires the open ball (ball_points), and point sets and samples the
# stricter barycenter.MAX_NORM2
_BALL_SLACK = 1e-12
# M* J M = J must hold to this accuracy for a matrix to be accepted
SP_CHECK_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class HuaInvolution:
    """The involution Phi_u; immutable, safe to share across threads."""

    u: np.ndarray  # (n, 4)
    s: float       # sqrt(1 - |u|^2)

    @property
    def n(self) -> int:
        return self.u.shape[0]


def ball_points(z, n: int | None = None) -> np.ndarray:
    """z as points of the open unit ball, shape (..., n, 4); a lone
    quaternion (4,) is a point of H^1.  The one open-ball check: every
    function taking points except hua_apply calls it.  Raises
    DimensionMismatch for a wrong shape, or a dimension other than a given
    n, and NotInBall unless |z| < 1, NaN included."""
    z = np.asarray(z, dtype=float)
    if z.shape == (4,):
        z = z[None, :]
    if z.ndim < 2 or z.shape[-1] != 4 or (n is not None and z.shape[-2] != n):
        raise DimensionMismatch(f"expected points in H^{n or 'n'}, got shape {z.shape}")
    if not (q.vnorm2(z) < 1.0).all():
        raise NotInBall("point outside the open unit ball")
    return z


def hua_new(u) -> HuaInvolution:
    """Construct Phi_u for one point u, |u| < 1; u=0 gives s=1."""
    u = ball_points(q.hvector(u)).copy()
    u.flags.writeable = False
    return HuaInvolution(u=u, s=float(np.sqrt(1.0 - q.vnorm2(u))))


def _check_in_closed_ball(z: np.ndarray, n: int) -> np.ndarray:
    if z.ndim == 1:
        z = z[None, :]
    if z.shape[-2] != n or z.shape[-1] != 4:
        raise DimensionMismatch(f"expected points in H^{n}, got shape {z.shape}")
    if not np.all(q.vnorm2(z) <= 1.0 + _BALL_SLACK):
        raise NotInBall("point outside the closed unit ball")
    return z


# -- the Hua kernel ----------------------------------------------------------
#
# With c fixed, z -> <z,c> and w -> (c_j w)_j are real-linear maps, so in
# real coordinates (a point of H^n as a row of 4n floats) Phi_c of many
# points is two small GEMMs plus one right division per point by
# 1 - <z,c>: the real 4 x 4 representation of quaternions (F. Zhang,
# "Quaternions and matrices of quaternions", Linear Algebra Appl. 251,
# 1997).  hua_apply and the solver run this kernel; projective_apply of
# hua_matrix_array(phi) is a separate code path, the tests' reference.

_E = np.eye(4)
_QMUL = q.qmul(_E[:, None], _E[None, :])  # _QMUL[a, b] = e_a e_b, e = (1, i, j, k)
# hua_apply runs the kernel on blocks of at most _BLOCK // n rows, so each
# GEMM has 16 * _BLOCK multiply-adds, below the 4 * 65536 up to which
# OpenBLAS stays on the calling thread: a threaded GEMM wakes worker threads
# that spin on the other cores, and on a loaded machine each call waits.
_BLOCK = 8192  # the solver's sweep passes its point set whole


def _hua_rows(c: np.ndarray, flat: np.ndarray):
    """Phi_c of the rows of flat (M, 4n), each the real coordinates of a
    point of H^n, and |1 - <z,c>|^2 per row.

    The right division x d = sum_f d_f (x e_f) is four (M n, 4) @ (4, 4)
    products rather than one product with a per-point 4 x 4 matrix, and
    the temporaries are updated in place: the sweep's temporaries set the
    peak memory of a large region barycenter."""
    n = c.shape[0]
    m = flat.shape[0]
    s = math.sqrt(1.0 - float(q.vnorm2(c)))
    m_in = (q.qconj(c) @ _QMUL.reshape(4, 16)).reshape(4 * n, 4)
    m_out = (c @ _QMUL.reshape(4, 16)).reshape(n, 4, 4).transpose(1, 0, 2).reshape(4, 4 * n)
    ip = flat @ m_in                        # <z, c>, (M, 4)
    num = ip @ m_out                        # (c_j <z, c>)_j, (M, 4n)
    num /= -(1.0 + s)
    num += c.reshape(-1)
    num -= s * flat                         # c - A_c z
    dinv = np.subtract(q.ONE, ip, out=ip)   # 1 - <z, c>, in ip's storage
    den2 = q.qnorm2(dinv)
    dinv[:, 1:] *= -1.0
    dinv /= den2[:, None]                   # (1 - <z, c>)^{-1}
    num = num.reshape(m * n, 4)
    out = np.zeros((m, n, 4))
    term = np.empty((m, n, 4))
    for f in range(4):
        np.matmul(num, _QMUL[:, f], out=term.reshape(m * n, 4))
        term *= dinv[:, None, f:f + 1]
        out += term
    return out.reshape(m, 4 * n), den2


def hua_apply(phi: HuaInvolution, z) -> np.ndarray:
    """Evaluate Phi_u(z); z may be a batch (..., n, 4), |z| <= 1 allowed."""
    z = _check_in_closed_ball(np.asarray(z, dtype=float), phi.n)
    flat = z.reshape(-1, 4 * phi.n)
    m = flat.shape[0]
    k = max(1, -(-m // (_BLOCK // phi.n)))  # k blocks of equal size
    return np.concatenate([_hua_rows(phi.u, flat[m * i // k:m * (i + 1) // k])[0]
                           for i in range(k)]).reshape(z.shape)


def hua_fixed_point(phi: HuaInvolution) -> np.ndarray:
    """The unique interior fixed point u/(1+s), the symmetry center of Phi_u."""
    return phi.u / (1.0 + phi.s)


# ---------------------------------------------------------------------------
# Sp(n,1)


@dataclass(frozen=True, eq=False)
class SpMatrix:
    """An (n+1)x(n+1) quaternionic matrix with M* J M = J."""

    matrix: np.ndarray  # (n+1, n+1, 4)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 3 or m.shape[0] != m.shape[1] or m.shape[2] != 4 or m.shape[0] < 2:
            raise DimensionMismatch(f"expected shape (n+1, n+1, 4), got {m.shape}")
        err = sp_defect(m)
        if err > SP_CHECK_TOL:
            raise QhbError(f"matrix is not in Sp(n,1): max |M*JM - J| = {err:.3g}")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return self.matrix.shape[0] - 1

    @property
    def a_block(self) -> np.ndarray:
        return self.matrix[:-1, :-1]

    @property
    def alpha(self) -> np.ndarray:
        return self.matrix[:-1, -1]

    @property
    def beta(self) -> np.ndarray:
        return self.matrix[-1, :-1]

    @property
    def a(self) -> np.ndarray:
        return self.matrix[-1, -1]


def sp_defect(m: np.ndarray) -> float:
    """Max entrywise deviation of M* J M from J, J = diag(I_n, -1)."""
    jm = m.copy()
    jm[-1] = -jm[-1]
    j = q.identity_matrix(m.shape[0])
    j[-1, -1, 0] = -1.0
    return float(np.max(np.abs(q.mat_mul(q.mat_conj_transpose(m), jm) - j)))


def hua_matrix_array(phi: HuaInvolution) -> np.ndarray:
    """The matrix (1/s)[[-A_u, u], [-u*, 1]] of Phi_u as a bare
    (n+1, n+1, 4) array, not checked for membership in Sp(n,1).  The only
    code that forms A_u = uu*/(1+s) + s I: Hermitian, A_u u = u and
    A_u v = s v for v perpendicular to u."""
    n = phi.n
    au = q.outer(phi.u, phi.u) / (1.0 + phi.s) + phi.s * q.identity_matrix(n)
    m = np.zeros((n + 1, n + 1, 4))
    m[:n, :n] = -au / phi.s
    m[:n, n] = phi.u / phi.s
    m[n, :n] = -q.qconj(phi.u) / phi.s
    m[n, n] = q.ONE / phi.s
    return m


def hua_matrix(phi: HuaInvolution) -> SpMatrix:
    """The matrix (1/s)[[-A_u, u], [-u*, 1]] realizing Phi_u projectively."""
    return SpMatrix(matrix=hua_matrix_array(phi))


def projective_apply(m: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Action (Az + alpha)(beta z + a)^{-1} of a bare (n+1, n+1, 4) array
    m = [[A, alpha], [beta, a]] on points z (..., n, 4); neither m nor z is
    checked.  Raises Singular when a denominator vanishes."""
    num = q.mat_apply(m[:-1, :-1], z) + m[:-1, -1]
    den = q.qmul(m[-1, :-1], z).sum(axis=-2) + m[-1, -1]
    den2 = q.qnorm2(den)
    if np.any(den2 == 0.0):
        raise Singular("projective denominator vanished for an interior point")
    dinv = q.qconj(den) / den2[..., None]
    return q.qmul(num, dinv[..., None, :])


def sp_apply(g: SpMatrix, z) -> np.ndarray:
    """Ball action (Az + alpha)(beta z + a)^{-1}; z batched, |z| < 1."""
    return projective_apply(g.matrix, ball_points(z, g.n))


def sp_inverse(g: SpMatrix) -> SpMatrix:
    """g^{-1} = J g* J, i.e. blocks (A*, -beta*; -alpha*, conj(a))."""
    minv = q.mat_conj_transpose(g.matrix).copy()
    minv[-1, :-1] = -minv[-1, :-1]
    minv[:-1, -1] = -minv[:-1, -1]
    return SpMatrix(matrix=minv)


def _intertwine_product(g: np.ndarray, c: np.ndarray) -> np.ndarray:
    """hua(g(c)) . g . hua(c) for a bare (n+1, n+1, 4) array g and a point
    c (n, 4); g is not checked, and hua_new checks c and g(c)."""
    gc = projective_apply(g, c)
    return q.mat_mul(q.mat_mul(hua_matrix_array(hua_new(gc)), g),
                     hua_matrix_array(hua_new(c)))


def intertwine_factor(g: SpMatrix, c, tol: float = 1e-10) -> SpMatrix:
    """The linear isometry U with Phi_{g(c)} o g = U o Phi_c.

    U = hua_matrix(g(c)) . g . hua_matrix(c) is block diagonal with
    A-block in Sp(n) and |a| = 1; the (verified small) off-diagonal
    blocks are zeroed so callers can rely on exact block-diagonal form.
    """
    m = _intertwine_product(g.matrix, ball_points(q.hvector(c), g.n))
    off = max(float(np.max(np.abs(m[:-1, -1]))), float(np.max(np.abs(m[-1, :-1]))))
    if off > tol:
        raise QhbError(f"intertwining factor has off-diagonal blocks of size {off:.3g}")
    m[:-1, -1] = 0.0
    m[-1, :-1] = 0.0
    a_block = m[:-1, :-1]
    aat = q.mat_mul(a_block, q.mat_conj_transpose(a_block))
    unitary_err = float(np.max(np.abs(aat - q.identity_matrix(g.n))))
    a_err = abs(float(q.qnorm(m[-1, -1])) - 1.0)
    if unitary_err > tol or a_err > tol:
        raise QhbError("intertwining factor is not a linear isometry")
    return SpMatrix(matrix=m)


def jacobian_det(phi: HuaInvolution, z) -> np.ndarray:
    """Real Jacobian determinant of Phi_u at z:

        (1 - |u|^2)^(2n+2) / |1 - <z,u>|^(4n+4),

    always strictly positive.  Batched over z.
    """
    z = ball_points(z, phi.n)
    den2 = q.qnorm2(q.ONE - q.inner(z, phi.u))
    return (phi.s ** 2 / den2) ** (2 * phi.n + 2)


# ---------------------------------------------------------------------------
# JSON wire format


def sp_to_json(g: SpMatrix) -> dict:
    return {
        "A": q.to_lists(g.a_block),
        "alpha": q.to_lists(g.alpha),
        "beta": q.to_lists(g.beta),
        "a": q.to_lists(g.a),
    }


def sp_from_json(obj: dict) -> SpMatrix:
    """Parse {"A":..., "alpha":..., "beta":..., "a":...}; rejects non-members."""
    try:
        blocks = [np.asarray(obj[k], dtype=float) for k in ("A", "alpha", "beta", "a")]
    except KeyError as exc:
        raise QhbError(f"missing field {exc} in Sp matrix") from None
    n = blocks[0].shape[0]
    m = np.zeros((n + 1, n + 1, 4))
    m[:n, :n], m[:n, n], m[n, :n], m[n, n] = blocks
    return SpMatrix(matrix=m)
