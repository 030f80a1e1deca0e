"""Quaternion arithmetic and the right-module Hermitian structure on H^n.

Conventions, fixed once for the whole package and all file formats:

* A quaternion q = w + x i + y j + z k is a float64 array [w, x, y, z]
  (trailing axis of length 4).  Arrays broadcast, so shape (..., 4) is a
  batch of quaternions.
* A vector in H^n is an array of shape (..., n, 4).  H^n is a *right*
  module: scalars multiply on the right (``right_scale``), matrices act
  on the left (``mat_apply``).
* The Hermitian product is  <z, w> = sum_i conj(w_i) z_i,  linear in the
  first slot, conjugate-linear in the second.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch

_CONJ_SIGNS = np.array([1.0, -1.0, -1.0, -1.0])

ONE = np.array([1.0, 0.0, 0.0, 0.0])
I = np.array([0.0, 1.0, 0.0, 0.0])
J = np.array([0.0, 0.0, 1.0, 0.0])
K = np.array([0.0, 0.0, 0.0, 1.0])


def qmul(p, q) -> np.ndarray:
    """Hamilton product pq; broadcasts over leading axes."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    pw, px, py, pz = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    qw, qx, qy, qz = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    return np.stack(
        [
            pw * qw - px * qx - py * qy - pz * qz,
            pw * qx + px * qw + py * qz - pz * qy,
            pw * qy - px * qz + py * qw + pz * qx,
            pw * qz + px * qy - py * qx + pz * qw,
        ],
        axis=-1,
    )


def qconj(q) -> np.ndarray:
    """Conjugate w - xi - yj - zk."""
    return np.asarray(q, dtype=float) * _CONJ_SIGNS


def qnorm2(q) -> np.ndarray:
    """Squared modulus |q|^2 = w^2 + x^2 + y^2 + z^2."""
    q = np.asarray(q, dtype=float)
    return np.einsum("...i,...i->...", q, q)


def qnorm(q) -> np.ndarray:
    return np.sqrt(qnorm2(q))


# ---------------------------------------------------------------------------
# vectors in H^n


def hvectors(z, n: int | None = None) -> np.ndarray:
    """z as vectors in H^n, shape (..., n, 4), n >= 1 and equal to a given n; a lone
    quaternion (4,) is in H^1.  The one shape rule for points: others raise DimensionMismatch."""
    z = np.asarray(z, dtype=float)
    if z.shape == (4,):
        z = z[None, :]
    if (z.ndim < 2 or z.shape[-1] != 4 or z.shape[-2] < 1
            or (n is not None and z.shape[-2] != n)):
        raise DimensionMismatch(f"expected points in H^{n or 'n'}, got shape {z.shape}")
    return z


def hvector(components, n: int | None = None) -> np.ndarray:
    """One vector in H^n as an (n, 4) array, by the rule of hvectors."""
    z = hvectors(components, n)
    if z.ndim != 2:
        raise DimensionMismatch(f"expected one vector (n, 4), got shape {z.shape}")
    return z


def zero_vector(n: int) -> np.ndarray:
    return np.zeros((n, 4))


def vnorm2(z) -> np.ndarray:
    """|z|^2 = sum_i |z_i|^2 (Euclidean norm of the 4n real coordinates)."""
    z = np.asarray(z, dtype=float)
    return np.einsum("...ij,...ij->...", z, z)


def vnorm(z) -> np.ndarray:
    return np.sqrt(vnorm2(z))


def inner(z, w) -> np.ndarray:
    """Hermitian product <z, w> = sum_i conj(w_i) z_i  (a quaternion).

    Satisfies conj(<z,w>) = <w,z> and <z lam, w mu> = conj(mu) <z,w> lam.
    """
    z = np.asarray(z, dtype=float)
    w = np.asarray(w, dtype=float)
    if z.shape[-2] != w.shape[-2]:
        raise DimensionMismatch(f"dimensions differ: {z.shape[-2]} vs {w.shape[-2]}")
    return qmul(qconj(w), z).sum(axis=-2)


def right_scale(z, lam) -> np.ndarray:
    """Right scalar multiplication z*lam, componentwise z_i lam."""
    z = np.asarray(z, dtype=float)
    return qmul(z, np.asarray(lam, dtype=float)[..., None, :])


# ---------------------------------------------------------------------------
# small dense quaternionic matrices, stored as (m, n, 4); a stack of them as
# (..., m, n, 4)


def identity_matrix(n: int) -> np.ndarray:
    m = np.zeros((n, n, 4))
    m[np.arange(n), np.arange(n), 0] = 1.0
    return m


def mat_apply(m, z) -> np.ndarray:
    """Left action (Mz)_i = sum_j M_ij z_j; z may carry leading batch axes."""
    m = np.asarray(m, dtype=float)
    z = np.asarray(z, dtype=float)
    if m.shape[-2] != z.shape[-2]:
        raise DimensionMismatch(f"matrix is {m.shape[:-1]}, vector has n={z.shape[-2]}")
    return qmul(m, z[..., None, :, :]).sum(axis=-2)


def mat_mul(a, b) -> np.ndarray:
    """Quaternionic matrix product (AB)_ij = sum_k A_ik B_kj; leading
    (batch) axes of a (..., m, k, 4) and b (..., k, n, 4) broadcast."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape[-2] != b.shape[-3]:
        raise DimensionMismatch(f"inner dimensions differ: {a.shape} vs {b.shape}")
    return qmul(a[..., :, :, None, :], b[..., None, :, :, :]).sum(axis=-3)


def mat_conj_transpose(m) -> np.ndarray:
    """M* with (M*)_ij = conj(M_ji), for each matrix of m (..., m, n, 4)."""
    m = np.asarray(m, dtype=float)
    return qconj(np.swapaxes(m, -3, -2))


def outer(u, v) -> np.ndarray:
    """Outer product uv*, the matrix acting as x -> u <x, v>; leading axes
    of u (..., m, 4) and v (..., n, 4) broadcast."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return qmul(u[..., :, None, :], qconj(v)[..., None, :, :])
