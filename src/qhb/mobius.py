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
from dataclasses import dataclass, field

import numpy as np

from . import quaternions as q
from .errors import DimensionMismatch, NotInBall, QhbError, Singular

# hua_apply takes points on the closed ball (Phi_u maps the sphere to itself),
# so |z|^2 may exceed 1 by this roundoff
_BALL_SLACK = 1e-12
# M* J M = J must hold to this accuracy for a matrix to be accepted
SP_CHECK_TOL = 1e-9
# intertwine_factor's off-diagonal blocks and isometry defects stay below this
_INTERTWINE_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class HuaInvolution:
    """The involution Phi_u of one point u, |u| < 1, kept as a read-only
    copy; u = 0 gives s = 1.  Immutable, safe to share across threads."""

    u: np.ndarray                 # (n, 4)
    s: float = field(init=False)  # sqrt(1 - |u|^2)

    def __post_init__(self):
        u = q.hvector(self.u).copy()
        s = math.sqrt(1.0 - float(_ball_norm2(u)))
        u.flags.writeable = False
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "s", s)

    @property
    def n(self) -> int:
        return self.u.shape[0]


def _ball_norm2(z: np.ndarray) -> np.ndarray:
    """|z|^2 of points z (..., n, 4), after the one check of |z| < 1 (NaN
    fails it, with NotInBall); HuaInvolution keeps it to derive s."""
    z2 = q.vnorm2(z)
    if not (z2 < 1.0).all():
        raise NotInBall("point outside the open unit ball")
    return z2


def ball_points(z, n: int | None = None) -> np.ndarray:
    """z shaped by quaternions.hvectors, as points of the open ball: the
    check of |z| < 1 made by all but hua_apply."""
    z = q.hvectors(z, n)
    _ball_norm2(z)
    return z


def hua_new(u) -> HuaInvolution:
    """Construct Phi_u for one point u, |u| < 1."""
    return HuaInvolution(u)


# -- the Hua kernel ----------------------------------------------------------
#
# With c fixed, z -> <z,c> and w -> (c_j w)_j are real-linear maps, so in
# real coordinates (a point of H^n as 4n floats) Phi_c of many points is
# two small GEMMs plus one right division per point by 1 - <z,c>: the real
# 4 x 4 representation of quaternions (F. Zhang, "Quaternions and matrices
# of quaternions", Linear Algebra Appl. 251, 1997).  The kernel runs
# component-major: a block of M points is one (4n, M) array, coordinate
# by coordinate, so everything after the GEMMs is an operation on rows of
# length M, not M operations on rows of length 4.  At the origin, where
# solve starts, Phi_0 = -id and the kernel returns 0 - z without its GEMMs
# or division.  hua_apply and the solver run this kernel, the passes that
# use the images of Phi_c; the distance d(z, c) takes no image and runs
# _sinh2_rows instead.  projective_apply of hua_matrix_array(phi.u) is a
# separate code path, the tests' reference.

_E = np.eye(4)
_QMUL = q.qmul(_E[:, None], _E[None, :])  # _QMUL[a, b] = e_a e_b, e = (1, i, j, k)
# e_a e_f = +-e_b for exactly one a per (f, b), so component b of x e_f is
# _DIV_SIGN[f, b] x_a with a = _DIV_ROW[f, b]: the right division
# x d = sum_f d_f (x e_f) is one gather, one multiply and three adds
_DIV_ROW = np.abs(_QMUL).argmax(axis=0)
_DIV_SIGN = np.take_along_axis(_QMUL, _DIV_ROW[None], axis=0)[0]
# Every pass over many points (hua_apply, the solver's sweep, and
# _sinh2_rows for distance and the geodesic-ball sampler) runs on the
# blocks of _blocks, at most _BLOCK // n points, so each of the kernel's
# GEMMs has 16 * _BLOCK multiply-adds, below the 4 * 65536 up to which
# OpenBLAS stays on the calling thread: a threaded GEMM wakes worker
# threads that spin on the other cores, and on a loaded machine each call
# waits.
_BLOCK = 8192


def _inner_matrix(c: np.ndarray) -> np.ndarray:
    """The real (4n, 4) matrix of z -> <z, c>: flat @ _inner_matrix(c) is
    <z, c> for the rows of flat (M, 4n), each a point of H^n.  The kernel
    and the Poisson form of the distance (_sinh2_rows) both take <., c>
    here."""
    return (q.qconj(c) @ _QMUL.reshape(4, 16)).reshape(4 * c.shape[0], 4)


def _hua_rows(c: np.ndarray, flat: np.ndarray):
    """Phi_c of the rows of flat (M, 4n), each the real coordinates of a
    point of H^n, and |1 - <z,c>|^2 per row.  The images come back
    component-major, as a C-contiguous (4n, M) array whose column i is
    Phi_c of row i.

    <z,c> is a GEMM on flat transposed, and flat is copied once, transposed
    and scaled by s; every later step is an operation on rows of length M.
    The right division x d = sum_f d_f (x e_f), d = (1 - <z,c>)^{-1}, is
    one gather of the components of x by _DIV_ROW, one multiply by the
    d_f signed by _DIV_SIGN and three adds, in f order.  The gathered
    (n, 4, 4, M) terms are the largest temporary; the others are at most
    (4n, M), and all are updated in place.

    At the origin Phi_0(z) = -z and |1 - <z,0>|^2 = 1, so the kernel
    returns 0 - flat.T and ones without its GEMMs or division: the bits
    the general path gives there, zero signs included (0 - z is +0.0 for
    z = +-0.0, as c - A_c z is; np.negative would give -0.0)."""
    m = flat.shape[0]
    if not c.any():
        return np.subtract(0.0, flat.T, order="C"), np.ones(m)
    n = c.shape[0]
    s = math.sqrt(1.0 - float(q.vnorm2(c)))
    m_out = (c @ _QMUL.reshape(4, 16)).reshape(n, 4, 4).transpose(1, 0, 2).reshape(4, 4 * n)
    m_out /= -(1.0 + s)
    ip = _inner_matrix(c).T @ flat.T        # <z, c>, (4, M)
    num = m_out.T @ ip                      # -(c_j <z, c>)_j / (1 + s), (4n, M)
    zt = np.multiply(flat.T, s, order="C")  # s z, (4n, M)
    num += c.reshape(-1, 1)
    num -= zt                               # c - A_c z
    d = np.negative(ip, out=ip)
    d[0] += 1.0                             # 1 - <z, c>, in ip's storage
    den2 = np.einsum("fi,fi->i", d, d)
    d[1:] *= -1.0
    d /= den2                               # (1 - <z, c>)^{-1}
    terms = np.take(num.reshape(n, 4, m), _DIV_ROW, axis=1)   # (n, f, b, M)
    terms *= _DIV_SIGN[:, :, None] * d[:, None, :]            # d_f (x e_f)
    out = np.add(terms[:, 0], terms[:, 1], out=zt.reshape(n, 4, m))  # s z is spent
    out += terms[:, 2]
    out += terms[:, 3]
    return zt, den2


def _blocks(m: int, n: int) -> list:
    """The k slices of equal size, in order, that cover m rows of points of
    H^n, each of at most _BLOCK // n rows: the one partition of a pass over
    many points, so that no temporary is sized to the whole set and each
    GEMM stays on the calling thread."""
    k = max(1, -(-m // (_BLOCK // n)))
    return [slice(m * i // k, m * (i + 1) // k) for i in range(k)]


def _hua_blocks(c: np.ndarray, flat: np.ndarray):
    """Yield (rows, Phi_c(flat[rows]) as (4n, M), |1 - <z,c>|^2) for the
    blocks of _blocks that cover the rows of flat (M, 4n), in order."""
    for rows in _blocks(flat.shape[0], c.shape[0]):
        yield (rows, *_hua_rows(c, flat[rows]))


def _sinh2_rows(c: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """sinh^2(d(z,c)/2) (1 - |z|^2)(1 - |c|^2) for the rows z of flat
    (M, 4n), as (1 - |c|^2)|z - c|^2 + |<z - c, c>|^2: a sum of squares,
    so nothing cancels for z near c, from one product with
    _inner_matrix(c) per block of _blocks; no Phi_c is formed.  Its two
    callers: geometry.distance, and the geodesic-ball sampler's membership
    test (regions._contains)."""
    n = c.shape[0]
    m_in = _inner_matrix(c)
    s2 = 1.0 - float(q.vnorm2(c))
    out = np.empty(flat.shape[0])
    for rows in _blocks(flat.shape[0], n):
        delta = flat[rows] - c.reshape(-1)
        out[rows] = q.qnorm2(delta @ m_in) + s2 * q.vnorm2(delta.reshape(-1, n, 4))
    return out


def hua_apply(phi: HuaInvolution, z) -> np.ndarray:
    """Evaluate Phi_u(z); z may be a batch (..., n, 4), |z| <= 1 allowed."""
    z = q.hvectors(z, phi.n)
    if not np.all(q.vnorm2(z) <= 1.0 + _BALL_SLACK):
        raise NotInBall("point outside the closed unit ball")
    flat = z.reshape(-1, 4 * phi.n)
    out = np.empty(flat.shape)
    for rows, mapped, _ in _hua_blocks(phi.u, flat):
        out[rows] = mapped.T
    return out.reshape(z.shape)


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
        err = float(sp_defect(m))
        if err > SP_CHECK_TOL:
            raise QhbError(f"matrix is not in Sp(n,1): max |M*JM - J| = {err:.3g}")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return self.matrix.shape[0] - 1


def sp_defect(m: np.ndarray) -> np.ndarray:
    """Max entrywise deviation of M* J M from J, J = diag(I_n, -1), one
    value for each matrix of m (..., n+1, n+1, 4)."""
    jm = m.copy()
    jm[..., -1, :, :] = -jm[..., -1, :, :]
    j = q.identity_matrix(m.shape[-2])
    j[-1, -1, 0] = -1.0
    return np.max(np.abs(q.mat_mul(q.mat_conj_transpose(m), jm) - j), axis=(-3, -2, -1))


def hua_matrix_array(u) -> np.ndarray:
    """The matrices (1/s)[[-A_u, u], [-u*, 1]] of Phi_u for points u
    (..., n, 4) as a bare (..., n+1, n+1, 4) array, neither u nor the
    result checked.  The only code that forms A_u = uu*/(1+s) + s I:
    Hermitian, A_u u = u and A_u v = s v for v perpendicular to u."""
    u = np.asarray(u, dtype=float)
    n = u.shape[-2]
    s = np.sqrt(1.0 - q.vnorm2(u))[..., None, None, None]  # as HuaInvolution forms s
    m = np.zeros(u.shape[:-2] + (n + 1, n + 1, 4))
    m[..., :n, :n, :] = -(q.outer(u, u) / (1.0 + s) + s * q.identity_matrix(n))
    m[..., :n, n, :] = u
    m[..., n, :n, :] = -q.qconj(u)
    m[..., n, n, :] = q.ONE
    return m / s


def hua_matrix(phi: HuaInvolution) -> SpMatrix:
    """The matrix (1/s)[[-A_u, u], [-u*, 1]] realizing Phi_u projectively."""
    return SpMatrix(matrix=hua_matrix_array(phi.u))


def projective_apply(m: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Action (Az + alpha)(beta z + a)^{-1} of bare (..., n+1, n+1, 4)
    arrays m = [[A, alpha], [beta, a]] on points z (..., n, 4), leading
    axes broadcast; neither m nor z is checked.  Raises Singular when a
    denominator vanishes."""
    num = q.mat_apply(m[..., :-1, :-1, :], z) + m[..., :-1, -1, :]
    den = q.qmul(m[..., -1, :-1, :], z).sum(axis=-2) + m[..., -1, -1, :]
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
    """hua(g(c)) . g . hua(c) for bare (..., n+1, n+1, 4) arrays g and
    points c (..., n, 4), leading axes broadcast; g is not checked, and
    ball_points checks c and g(c)."""
    gc = ball_points(projective_apply(g, c))
    return q.mat_mul(q.mat_mul(hua_matrix_array(gc), g), hua_matrix_array(ball_points(c)))


def intertwine_factor(g: SpMatrix, c) -> SpMatrix:
    """The linear isometry U with Phi_{g(c)} o g = U o Phi_c.

    U = hua_matrix(g(c)) . g . hua_matrix(c) is block diagonal with
    A-block in Sp(n) and |a| = 1; the (verified small) off-diagonal
    blocks are zeroed so callers can rely on exact block-diagonal form.
    """
    m = _intertwine_product(g.matrix, ball_points(q.hvector(c), g.n))
    off = max(float(np.max(np.abs(m[:-1, -1]))), float(np.max(np.abs(m[-1, :-1]))))
    if off > _INTERTWINE_TOL:
        raise QhbError(f"intertwining factor has off-diagonal blocks of size {off:.3g}")
    m[:-1, -1] = 0.0
    m[-1, :-1] = 0.0
    a_block = m[:-1, :-1]
    aat = q.mat_mul(a_block, q.mat_conj_transpose(a_block))
    unitary_err = float(np.max(np.abs(aat - q.identity_matrix(g.n))))
    a_err = abs(float(q.qnorm(m[-1, -1])) - 1.0)
    if unitary_err > _INTERTWINE_TOL or a_err > _INTERTWINE_TOL:
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
