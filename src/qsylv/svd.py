"""Small dense complex SVD via one-sided Jacobi rotations.

Written for the small matrices this package works with (a few dozen rows
at most).  The one-sided scheme repeatedly orthogonalizes column pairs of a
working copy ``W`` (initially ``A``) with unitary 2x2 rotations accumulated
into ``V``; at convergence the columns of ``W`` are ``sigma_k * u_k`` so the
singular values are the column norms.  For a pair ``(p, q)`` with
``a = ||w_p||^2``, ``b = ||w_q||^2``, ``c = w_p^H w_q``, the complex phase of
``c`` is absorbed into column ``q`` first, which reduces the 2x2 problem to a
classical real Jacobi rotation.

Pairs are visited in round-robin (Brent-Luk) order: each sweep visits every
pair once, in rounds of disjoint pairs.  A round reads all its ``a``, ``b``,
``c`` from one ``W^H W`` product, computes the rotations as vectors and
applies them to ``W`` and ``V`` as one unitary ``J``.  The input is scaled by
an exact power of two first (:func:`pow2_exponent`) and the singular values
scaled back, so squared column norms neither overflow nor underflow.

Only :func:`numpy` array plumbing is borrowed; the decomposition itself is
implemented here.  Columns belonging to zero singular values are returned as
zero columns of ``U`` (callers here only consume ``U`` where ``sigma > 0``).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import NotConverged

#: Relative threshold at which a column pair counts as orthogonal.
_PAIR_TOL = 1e-14
_MAX_SWEEPS = 128


def pow2_exponent(x: np.ndarray) -> int:
    """The ``k`` that puts the largest real or imaginary part of ``2**k * x`` in
    ``[0.5, 1)``; 0 for a zero array."""
    return -math.frexp(float(np.abs(x.view(np.float64)).max()))[1]


def scale_pow2(x: np.ndarray, k: int) -> np.ndarray:
    """``2**k * x`` for a contiguous complex array, exact within the normal range."""
    return np.ldexp(x.view(np.float64), k).view(np.complex128)


@lru_cache(maxsize=None)
def _rounds(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The round-robin schedule of ``n`` columns: per round, the index arrays
    ``(p, q)``, ``p < q``, of its disjoint pairs.

    Column 0 stays put while the others rotate one place per round; an odd
    ``n`` gets a phantom column whose partner sits the round out.
    """
    players, rounds = list(range(n + n % 2)), []
    for _ in range(len(players) - 1):
        half = len(players) // 2
        pairs = [sorted(p) for p in zip(players[:half], reversed(players[half:])) if max(p) < n]
        if pairs:
            rounds.append(tuple(np.array(side, dtype=np.intp) for side in zip(*pairs)))
            for side in rounds[-1]:
                side.setflags(write=False)
        players = [players[0], players[-1], *players[1:-1]]
    return tuple(rounds)


@lru_cache(maxsize=None)
def _identity(n: int) -> np.ndarray:
    """The read-only complex ``n x n`` identity the Jacobi loop copies from."""
    eye = np.eye(n, dtype=np.complex128)
    eye.setflags(write=False)
    return eye


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

    k = pow2_exponent(a)
    # rows [:m] hold W, rows [m:] hold V, so one update rotates both
    stacked = np.concatenate((scale_pow2(a, k), _identity(n)))
    work = stacked[:m]
    # A column whose squared norm falls to this level is rounding noise left
    # by a rank deficiency.  Rotating it further only shrinks it toward
    # underflow (where phases lose precision and rotations go wrong) without
    # moving any singular value above the rank cutoff, so it is left alone.
    negligible = (np.finfo(np.float64).eps ** 2) * float(np.real(np.vdot(work, work)))

    for _ in range(_MAX_SWEEPS):
        rotated = False
        for p, q in _rounds(n):
            gram = work.conj().T @ work
            norms = gram.diagonal().real
            app, aqq, apq = norms[p], norms[q], gram[p, q]
            mag = np.abs(apq)
            active = (app > negligible) & (aqq > negligible) & (mag > _PAIR_TOL * np.sqrt(app * aqq))
            if not active.any():
                continue
            rotated = True
            if not active.all():
                p, q, app, aqq, apq, mag = (x[active] for x in (p, q, app, aqq, apq, mag))
            phase = np.conj(apq / mag)
            tau = (aqq - app) / (2.0 * mag)
            t = np.copysign(1.0, tau) / (np.abs(tau) + np.hypot(1.0, tau))
            c = 1.0 / np.hypot(1.0, t)
            s_rot = t * c
            # columns transform by diag(1, conj(phase)) then the real rotation
            rot = _identity(n).copy()
            rot[p, p] = c
            rot[q, p] = -phase * s_rot
            rot[p, q] = s_rot
            rot[q, q] = phase * c
            stacked = stacked @ rot
            work = stacked[:m]
        if not rotated:
            break
    else:
        raise NotConverged(
            f"Jacobi SVD of a {m}x{n} matrix did not converge in {_MAX_SWEEPS} sweeps"
        )

    norms = np.sqrt(np.real(np.sum(work.conj() * work, axis=0)))
    order = np.argsort(-norms, kind="stable")
    norms = norms[order]
    stacked = stacked[:, order]
    u = stacked[:m] / np.where(norms > 0.0, norms, np.inf)
    return u, np.ldexp(norms, -k), stacked[m:].conj().T


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
