"""Small dense complex SVDs via one-sided Jacobi rotations, in batches.

Written for the small matrices this package works with (a few dozen rows
at most).  The one-sided scheme repeatedly orthogonalizes column pairs of a
working copy ``W`` with unitary 2x2 rotations accumulated into ``V'``; at
convergence the columns of ``W`` are ``sigma_k * u'_k`` so the singular values
are the column norms.  For a pair ``(p, q)`` with ``a = ||w_p||^2``,
``b = ||w_q||^2``, ``c = w_p^H w_q``, the complex phase of ``c`` is absorbed
into column ``q`` first, which reduces the 2x2 problem to a classical real
Jacobi rotation.

Every pass is preconditioned the same way, by two Householder QRs (the
preconditioner of Drmac and Veselic, SIAM J. Matrix Anal. Appl. 29(4), 2008,
and of LAPACK's ``xGEJSV``): ``A = Q1 R1``, then ``R1* = Q2 R2``, and the
iteration rotates the square ``W = R2*``, so ``A = Q1 W Q2*``.  The columns of
``W`` typically start much closer to orthogonal than those of ``A``, so fewer
sweeps are needed.  A pass that forms factors keeps ``Q1`` and ``Q2`` and
returns ``U = Q1 (W / sigma)`` and ``V = Q2 V'``; a values-only pass forms
neither ``Q``.

Pairs are visited in round-robin (Brent-Luk) order: each sweep visits every
pair once, in rounds of disjoint pairs.  The rotations of a round are
independent of each other, and so are those of different matrices, so one
engine (:func:`_jacobi`) decomposes a whole batch at once:

- A wide member is decomposed as its conjugate transpose.  Each member is
  scaled by its own exact power of two (:func:`pow2_exponent`), so squared
  column norms neither overflow nor underflow, and its singular values are
  scaled back.  It also keeps its own threshold for negligible columns, and
  a :class:`~qsylv.errors.NotConverged` message names its own shape, not
  that of ``W``.
- The members are zero-padded into one ``(b, rows, N)`` stack, ``N`` the
  largest column count, and all follow the one schedule ``_rounds(N)``.  A
  batched QR factors each member alone (one LAPACK call per member); a
  padded column gets a reflector of ``tau = 0``, so it stays exactly zero in
  ``W`` and the negligible-column test never lets it rotate.
- A round reads every member's ``a``, ``b``, ``c`` from one batched
  ``W^H W`` product, computes all rotations as vectors, scatters them into
  one stack of unitaries ``J`` through flat indices, and applies them with
  one batched product.  A member with nothing to rotate in a round gets
  the identity, which leaves its values but may turn its ``-0.0`` entries
  into ``0.0``; a batch that forms ``V'`` leaves such a member out of that
  product instead, so its factors keep their signed zeros.
- The batch runs rounds until one rotates nothing while no pair of its
  ``W^H W`` passes a round's rotation test (:func:`_converged`), which can
  end a pass inside a sweep; the limit of ``_MAX_SWEEPS`` sweeps' worth of
  rounds binds the slowest member.  A values-only pass also ends at the
  first sweep boundary at which every member's rank under its default
  cutoff is certain (:func:`_ranks_certain`), read off the ``W^H W`` of
  that round; a factor pass runs to convergence, since ``U`` and ``V`` need
  it.

Padding adds only exact zeros, but a padded member meets its pairs in the
order of ``_rounds(N)`` and a padded product may round its entries in
another order, so its last bits can differ from those of a lone
decomposition.  So the two callers batch differently:

- :func:`svds`, which forms ``U`` and ``V``, groups its members by tall shape
  and never pads: each group is one pass, every member has a pair in every
  round, and each member gets the bytes of its lone decomposition.
  :func:`svd` is its one-member case.
- :func:`spectra` returns singular values only, for rank decisions, and
  pads all its members into one pass.  Its values are good only to the
  brackets that certified their ranks.

Only :func:`numpy` array plumbing and the Householder QRs are borrowed; the
decomposition itself is implemented here.  Columns belonging to zero
singular values are returned as zero columns of ``U`` (callers here only
consume ``U`` where ``sigma > 0``).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

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
    """``2**k * x`` for a contiguous complex array, exact within the normal range,
    as one fresh array."""
    out = np.empty_like(x)
    np.ldexp(x.view(np.float64), k, out=out.view(np.float64))
    return out


@lru_cache(maxsize=None)
def _rounds(n: int) -> tuple[np.ndarray, ...]:
    """The round-robin schedule of ``n`` columns: per round, one read-only
    ``(4, pairs)`` array holding, for each of its disjoint pairs ``(p, q)``,
    ``p < q``, the flat offsets of ``(p, p)``, ``(q, p)``, ``(p, q)`` and
    ``(q, q)`` in an ``n x n`` block.

    Column 0 stays put while the others rotate one place per round; an odd
    ``n`` gets a phantom column whose partner sits the round out.
    """
    players, rounds = list(range(n + n % 2)), []
    for _ in range(len(players) - 1):
        half = len(players) // 2
        pairs = [sorted(p) for p in zip(players[:half], reversed(players[half:])) if max(p) < n]
        if pairs:
            p, q = np.array(pairs, dtype=np.intp).T
            rounds.append(np.stack((p * (n + 1), q * n + p, p * n + q, q * (n + 1))))
            rounds[-1].setflags(write=False)
        players = [players[0], players[-1], *players[1:-1]]
    return tuple(rounds)


def _batch_rounds(size: int, negligible: np.ndarray) -> list[tuple[np.ndarray, ...]]:
    """The schedule of a batch padded to ``size`` columns: per round of
    ``_rounds(size)``, its four offset rows with member ``i``'s shifted by
    ``i * size**2`` into a ``(b, size, size)`` stack, and ``negligible``
    repeated once per pair."""
    shift = np.arange(len(negligible))[:, None] * (size * size)
    return [(*(flat[:, None] + shift).reshape(4, -1), negligible.repeat(flat.shape[1]))
            for flat in _rounds(size)]


@lru_cache(maxsize=None)
def _identity(n: int) -> np.ndarray:
    """The read-only complex ``n x n`` identity the Jacobi loop copies from."""
    eye = np.eye(n, dtype=np.complex128)
    eye.setflags(write=False)
    return eye


def _brackets(gram: np.ndarray, negligible: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per member and column of a batch of ``W`` with Gram matrices ``gram``,
    the ends of the bracket that holds the singular value of ``W`` the
    column's norm stands for (the ``j``-th largest norm for the ``j``-th
    largest value).

    Per member, with ``e = max_p sum_q |G_pq| / sqrt(G_pp G_qq)`` over the
    pairs of its columns above its ``negligible`` level, the largest row sum
    of ``|E|`` in ``D^(1/2) (I + E) D^(1/2)``, their Gram matrix, which bounds
    the 2-norm of the Hermitian ``E`` (its spectral radius; Horn and Johnson,
    Matrix Analysis, 2nd ed., Thm 5.6.9): for ``e < 1`` Ostrowski's theorem puts
    the ``j``-th singular value of those columns in
    ``[nu_j sqrt(1 - e), nu_j sqrt(1 + e)]``, ``nu_j`` the ``j``-th largest
    norm (Demmel and Veselic, SIAM J. Matrix Anal. Appl. 13(4), 1992).  The
    other columns, padding included, have Frobenius norm ``eta`` and move any
    singular value by at most that (Weyl), so each bracket is
    ``[nu sqrt(1 - e) - eta, nu sqrt(1 + e) + eta]``.  ``e`` carries
    ``size * eps`` more for the rounding of the Gram entries and of the norms
    the pass returns, and ``size * eps * e`` for that of the row sums; a
    member with ``e >= 1`` gets ``[-inf, inf]``.
    """
    b, size, _ = gram.shape
    d = gram.diagonal(axis1=1, axis2=2).real
    live = d > negligible[:, None]
    inv = 1.0 / np.sqrt(np.where(live, d, np.inf))
    cosines = np.abs(gram)
    cosines *= inv[:, :, None]
    cosines *= inv[:, None, :]
    cosines.reshape(b, -1)[:, ::size + 1] = 0.0
    e = cosines.sum(axis=2).max(axis=1)
    e += size * np.finfo(np.float64).eps * (1.0 + e)
    known = (e < 1.0)[:, None]
    e = np.minimum(e, 1.0)[:, None]
    eta = np.sqrt(np.where(live, 0.0, d).sum(axis=1))[:, None]
    nu = np.sqrt(d)
    return (np.where(known, nu * np.sqrt(1.0 - e) - eta, -np.inf),
            np.where(known, nu * np.sqrt(1.0 + e) + eta, np.inf))


def _ranks_certain(gram: np.ndarray, negligible: np.ndarray, cutoff_factor: np.ndarray) -> bool:
    """Whether the column norms of every member of a batch of ``W`` with Gram
    matrices ``gram`` decide its rank under the cutoff
    ``cutoff_factor * sigma_max``: no :func:`_brackets` bracket of a value
    meets that of the cutoff, which the largest norm's bracket gives.  A
    member whose largest bracket ends at 0 is zero, so its rank is 0, as
    :func:`rank_cutoff`'s infinite cutoff of an all-zero spectrum gives."""
    low, high = _brackets(gram, negligible)
    cut_low, cut_high = (cutoff_factor[:, None] * x.max(axis=1, keepdims=True) for x in (low, high))
    return bool(((low > cut_high) | (high < cut_low) | (cut_high == 0.0)).all())


def _active(gram: np.ndarray, pairs: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    """For the pairs ``(p, q)`` of a :func:`_batch_rounds` entry ``pairs`` and
    a batch's flattened Gram matrices ``gram``: their ``a``, ``b``, ``c``,
    ``|c|`` and whether a round rotates them, which it does when both columns
    are above their negligible level and ``|c| > _PAIR_TOL sqrt(a b)``."""
    pp, _, pq, qq, neg = pairs
    app, aqq, apq = gram[pp].real, gram[qq].real, gram[pq]
    mag = np.abs(apq)
    return app, aqq, apq, mag, (app > neg) & (aqq > neg) & (mag > _PAIR_TOL * np.sqrt(app * aqq))


def _converged(gram: np.ndarray, pairs: tuple[np.ndarray, ...]) -> bool:
    """Whether no pair of ``pairs``, an entry of every pair of a batch in the
    layout of :func:`_batch_rounds`, rotates on the Gram matrices ``gram``."""
    return not _active(gram, pairs)[-1].any()


def _jacobi(mats: Sequence[np.ndarray], vectors: bool) -> list:
    """Decompose every matrix of ``mats`` in one batched Jacobi iteration.

    Returns, per member, ``(U, s, Vh)`` as :func:`svd` describes when
    ``vectors`` is true, else the singular values ``s`` alone, descending,
    as :func:`spectra` describes them.
    The iteration runs on ``R2*``, where ``R1* = Q2 R2`` and ``Q1 R1`` is the
    prescaled member's Householder QR, rather than on the member itself.
    """
    tall, wide = [], []
    for a in mats:
        a = np.ascontiguousarray(a, dtype=np.complex128)
        if a.ndim != 2:
            raise ValueError("svd expects a 2-D array")
        wide.append(a.shape[0] < a.shape[1])
        tall.append(np.ascontiguousarray(a.conj().T) if wide[-1] else a)
    rows, size = max(a.shape[0] for a in tall), max(a.shape[1] for a in tall)
    stack = np.zeros((len(tall), rows, size), dtype=np.complex128)
    exponents, negligible = [], np.empty(len(tall))
    for i, a in enumerate(tall):
        exponents.append(pow2_exponent(a))
        scaled = scale_pow2(a, exponents[-1])
        stack[i, :a.shape[0], :a.shape[1]] = scaled
        # A column whose squared norm falls to this level is rounding noise
        # left by a rank deficiency.  Rotating it further only shrinks it
        # toward underflow (where phases lose precision and rotations go
        # wrong) without moving any singular value above the rank cutoff, so
        # it is left alone.
        negligible[i] = (np.finfo(np.float64).eps ** 2) * float(np.real(np.vdot(scaled, scaled)))
    # A = Q1 R1 and R1* = Q2 R2, so A = Q1 W Q2* with W = R2*
    if vectors:
        q1, r1 = np.linalg.qr(stack)
        q2, r2 = np.linalg.qr(r1.conj().transpose(0, 2, 1))
    else:
        r1 = np.linalg.qr(stack, mode="r")
        r2 = np.linalg.qr(r1.conj().transpose(0, 2, 1), mode="r")
    w = r2.conj().transpose(0, 2, 1)
    eye = np.broadcast_to(_identity(size), (len(tall), size, size))
    # rows [:size] hold each W, rows [size:] each V', so one update rotates both
    stack = np.concatenate((w, eye), axis=1) if vectors else np.ascontiguousarray(w)
    rounds = _batch_rounds(size, negligible)
    work = stack[:, :size]

    # a round that rotates nothing leaves W as it is, so the rest of its
    # cycle would read this Gram: if no pair of it rotates, none ever will;
    # a values-only pass also stops at a sweep's start once every rank is certain
    every = tuple(np.concatenate(x) for x in zip(*rounds))
    converged, certain = not rounds, False
    cutoff_factor = np.array([default_threshold(a.shape, 1.0) for a in tall])
    for step in range(_MAX_SWEEPS * len(rounds)):
        pairs = rounds[step % len(rounds)]
        pp, qp, pq, qq, _ = pairs
        gram = (work.conj().transpose(0, 2, 1) @ work).reshape(-1)
        if not vectors and step and not step % len(rounds):
            certain = _ranks_certain(gram.reshape(-1, size, size), negligible, cutoff_factor)
            if certain:
                break
        app, aqq, apq, mag, active = _active(gram, pairs)
        if not active.any():
            converged = _converged(gram, every)
            if converged:
                break
            continue
        full = active.all()
        if not full:
            pp, qp, pq, qq, app, aqq, apq, mag = (
                x[active] for x in (pp, qp, pq, qq, app, aqq, apq, mag)
            )
        phase = np.conj(apq / mag)
        tau = (aqq - app) / (2.0 * mag)
        t = np.copysign(1.0, tau) / (np.abs(tau) + np.hypot(1.0, tau))
        c = 1.0 / np.hypot(1.0, t)
        s_rot = t * c
        # columns transform by diag(1, conj(phase)) then the real rotation
        rot = eye.copy()
        flat = rot.reshape(-1)
        flat[pp] = c
        flat[qp] = -phase * s_rot
        flat[pq] = s_rot
        flat[qq] = phase * c
        if vectors and not full and len(stack) > 1:
            # a factor batch leaves out each member with no pair to rotate:
            # a product with the identity would turn its -0.0 entries into
            # 0.0, which no singular value sees but U and V would
            moving = np.bincount(pp // (size * size), minlength=len(stack)) > 0
            stack[moving] = stack[moving] @ rot[moving]
        else:
            stack = stack @ rot
        work = stack[:, :size]
    if not (converged or certain):
        m, n = np.shape(mats[0])  # the caller's shape: a wide member was transposed
        what = f"a {m}x{n} matrix" if len(tall) == 1 else f"{len(tall)} matrices"
        raise NotConverged(f"Jacobi SVD of {what} did not converge in {_MAX_SWEEPS} sweeps")

    all_norms = np.sqrt(np.real(np.sum(work.conj() * work, axis=1)))
    if vectors:
        # W = U' diag(s) and A = (Q1 U') diag(s) (Q2 V')*; a zero column of W
        # gives a zero column of U
        us = q1 @ (work / np.where(all_norms > 0.0, all_norms, np.inf)[:, None, :])
        vs = q2 @ stack[:, size:]
    out = []
    for i, (a, is_wide, norms, k) in enumerate(zip(tall, wide, all_norms, exponents)):
        m, n = a.shape
        order = np.argsort(-norms[:n], kind="stable")
        s = np.ldexp(norms[order], -k)
        if not vectors:
            out.append(s)
            continue
        u, v = us[i, :m][:, order], vs[i, :n][:, order]
        out.append((v, s, u.conj().T) if is_wide else (u, s, v.conj().T))
    return out


def svds(mats: Sequence[np.ndarray]) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The thin SVD of each matrix of ``mats``, as :func:`svd` gives it.

    The members are grouped by tall shape (a wide member joins the group of
    its conjugate transpose) and each group is one batched pass, so no member
    is padded and each gets the bytes of its lone decomposition.
    """
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, a in enumerate(mats):
        groups.setdefault(tuple(sorted(np.shape(a), reverse=True)), []).append(i)
    out: list = [None] * len(mats)
    for members in groups.values():
        for i, factors in zip(members, _jacobi([mats[i] for i in members], True)):
            out[i] = factors
    return out


def svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD ``a = U @ diag(s) @ Vh`` of a complex matrix: the one-member
    case of :func:`svds`.

    Returns ``(U, s, Vh)`` with ``U`` of shape ``(m, k)``, ``s`` the
    ``k = min(m, n)`` singular values in descending order, and ``Vh`` of shape
    ``(k, n)``.  ``U`` columns for zero singular values are zero vectors.
    A sweep limit of ``_MAX_SWEEPS`` reached with pairs still rotating raises
    :class:`~qsylv.errors.NotConverged`.
    """
    return svds([a])[0]


def spectra(mats: Sequence[np.ndarray]) -> list[np.ndarray]:
    """The singular values of each matrix of ``mats``, descending, as far as
    its rank needs them: one batch that forms no ``V``.

    The members are padded into one pass, which stops at the first sweep
    boundary at which every member's rank under its default cutoff
    (:func:`rank_cutoff` with no floor) is certain, a zero member's at once,
    or else at its first converged round.  So each value is good only to its
    :func:`_brackets` bracket, which may be far wider than rounding, while
    ``embedded_rank(s, rank_cutoff(shape, s))`` or a count of ``s`` above
    that cutoff gives the rank of the converged values.  A sweep limit
    reached raises :class:`~qsylv.errors.NotConverged` naming the input's
    shape (or the member count), not that of the triangle the pass rotates.
    """
    return _jacobi(mats, False)


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
