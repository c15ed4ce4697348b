"""Small dense complex SVD via one-sided Jacobi rotations.

Written for the tiny matrices this package works with (a few dozen rows at
most).  The one-sided scheme repeatedly orthogonalizes column pairs of a
working copy ``W`` (initially ``A``) with unitary 2x2 rotations accumulated
into ``V``; at convergence the columns of ``W`` are ``sigma_k * u_k`` so the
singular values are the column norms.  For a pair ``(p, q)`` with
``a = ||w_p||^2``, ``b = ||w_q||^2``, ``c = w_p^H w_q``, the complex phase of
``c`` is absorbed into column ``q`` first, which reduces the 2x2 problem to a
classical real Jacobi rotation.

Only :func:`numpy` array plumbing is borrowed; the decomposition itself is
implemented here.  Columns belonging to zero singular values are returned as
zero columns of ``U`` (callers here only consume ``U`` where ``sigma > 0``).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NotConverged

#: Relative threshold at which a column pair counts as orthogonal.
_PAIR_TOL = 1e-14
_MAX_SWEEPS = 128


def svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD ``a = U @ diag(s) @ Vh`` of a complex matrix.

    Returns ``(U, s, Vh)`` with ``U`` of shape ``(m, k)``, ``s`` the
    ``k = min(m, n)`` singular values in descending order, and ``Vh`` of shape
    ``(k, n)``.  ``U`` columns for zero singular values are zero vectors.
    A sweep limit of ``_MAX_SWEEPS`` reached with pairs still rotating raises
    :class:`~qsylv.errors.NotConverged`.
    """
    a = np.ascontiguousarray(a, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError("svd expects a 2-D array")
    m, n = a.shape
    if m < n:
        u_t, s, vh_t = svd(a.conj().T)
        return vh_t.conj().T, s, u_t.conj().T

    work = a.copy()
    v = np.eye(n, dtype=np.complex128)
    # A column whose squared norm falls to this level is rounding noise left
    # by a rank deficiency.  Rotating it further only shrinks it toward
    # underflow (where phases lose precision and rotations go wrong) without
    # moving any singular value above the rank cutoff, so it is left alone.
    negligible = (np.finfo(np.float64).eps ** 2) * float(np.real(np.vdot(a, a)))

    for _ in range(_MAX_SWEEPS):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                col_p = work[:, p]
                col_q = work[:, q]
                app = float(np.real(np.vdot(col_p, col_p)))
                aqq = float(np.real(np.vdot(col_q, col_q)))
                apq = complex(np.vdot(col_p, col_q))
                mag = abs(apq)
                if app <= negligible or aqq <= negligible:
                    continue
                if mag <= _PAIR_TOL * math.sqrt(app * aqq) or mag == 0.0:
                    continue
                rotated = True
                phase = apq / mag
                tau = (aqq - app) / (2.0 * mag)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                s_rot = t * c
                # columns transform by diag(1, conj(phase)) then the real rotation
                new_p = col_p * c - col_q * (np.conj(phase) * s_rot)
                new_q = col_p * s_rot + col_q * (np.conj(phase) * c)
                work[:, p] = new_p
                work[:, q] = new_q
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = vp * c - vq * (np.conj(phase) * s_rot)
                v[:, q] = vp * s_rot + vq * (np.conj(phase) * c)
        if not rotated:
            break
    else:
        raise NotConverged(
            f"Jacobi SVD of a {m}x{n} matrix did not converge in {_MAX_SWEEPS} sweeps"
        )

    norms = np.sqrt(np.real(np.sum(work.conj() * work, axis=0)))
    order = np.argsort(-norms, kind="stable")
    norms = norms[order]
    work = work[:, order]
    v = v[:, order]

    u = np.zeros_like(work)
    for k in range(n):
        if norms[k] > 0.0:
            u[:, k] = work[:, k] / norms[k]
    return u, norms, v.conj().T


def singular_values(a: np.ndarray) -> np.ndarray:
    """Singular values of ``a`` in descending order."""
    return svd(a)[1]


def default_threshold(a_shape: tuple[int, int], sigma_max: float) -> float:
    """Rank cutoff ``max(m, n) * eps * sigma_max`` for a matrix of this shape."""
    m, n = a_shape
    return max(m, n) * np.finfo(np.float64).eps * sigma_max


def rank_cutoff(a_shape: tuple[int, int], s: np.ndarray, floor: float = 0.0) -> float:
    """The cutoff above which singular values count toward the rank.

    ``s`` holds the singular values of a matrix of shape ``a_shape`` in
    descending order; the cutoff is the default threshold raised to an
    absolute ``floor``.  An all-zero spectrum gets an infinite cutoff.
    """
    if s.size == 0 or s[0] == 0.0:
        return math.inf
    return max(default_threshold(a_shape, float(s[0])), floor)


def pinv_from_svd(u: np.ndarray, s: np.ndarray, vh: np.ndarray, cut: float) -> np.ndarray:
    """Moore-Penrose inverse from a thin SVD, inverting the singular values above ``cut``.

    An infinite cutoff (see :func:`rank_cutoff`) gives an exact zero matrix.
    """
    if cut == math.inf:
        return np.zeros((vh.shape[1], u.shape[0]), dtype=np.complex128)
    inv = np.where(s > cut, 1.0 / np.where(s > cut, s, 1.0), 0.0)
    return (vh.conj().T * inv) @ u.conj().T
