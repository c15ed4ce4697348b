"""Moore-Penrose inverses of quaternion matrices, by two independent routes.

- :func:`mp_cramer` evaluates the determinantal (Cramer-style) formulas: each
  entry of the inverse is a bordered minor sum of a Gram matrix divided by the
  sum of its rank-sized principal minors.  The bordered sums of all entries
  come from one coefficient matrix of the Gram matrix (see :mod:`qsylv.rcdet`),
  so the inverse is ``cdet_coeffs(A*A) @ A* / denom`` or
  ``A* @ rdet_coeffs(AA*) / denom``, and ``denom`` is a trace read of the
  same coefficient matrix times the Gram matrix.
- :func:`mp_oracle` works through the complex embedding and an SVD-based
  complex pseudoinverse; :func:`mp_oracles` inverts several matrices with
  their SVDs decomposed together.

Both prescale their input by an exact power of two (``pinv(2**k A) =
2**-k pinv(A)``), so tiny and huge inputs neither underflow nor overflow.
Both satisfy the four Penrose identities; tests cross-verify them against
each other.

Both return an :class:`MpResult`, which keeps the inverted matrix next to its
pseudoinverse and forms the paper's four orthogonal projectors ``P_A = A⁺A``,
``Q_A = AA⁺``, ``L_A = I - P_A`` and ``R_A = I - Q_A`` (``proj_p/q/l/r``).
Its ``method`` names the route, so a solution formula is written once over
either route's records.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

from .errors import InvalidSize, ZeroDivisor
from .qmatrix import (
    QMatrix,
    complex_embed,
    complex_unembed,
    ctranspose,
    embedded_rank,
    mmul,
    pow2_exponent,
    rank,
    scale_pow2,
)
from .svd import pinv_from_svd, rank_cutoff, svds


class MpResult(NamedTuple):
    """The pseudoinverse ``pinv`` of ``a``, the route that formed it, and its rank.

    The four orthogonal projectors are read off the pair, so every projector
    of either route is formed here and nowhere else.
    """

    pinv: QMatrix
    method: str  # "cramer_left" | "cramer_right" | "oracle" | "identity"
    rank_used: int
    a: QMatrix

    def proj_p(self) -> QMatrix:
        """``P_A = pinv(a) @ a``: projector onto the row space (cols x cols)."""
        return self.pinv @ self.a

    def proj_q(self) -> QMatrix:
        """``Q_A = a @ pinv(a)``: projector onto the column space (rows x rows)."""
        return self.a @ self.pinv

    def proj_l(self) -> QMatrix:
        """``L_A = I - P_A``: projector onto the null space of ``a``."""
        return QMatrix.identity(self.a.cols) - self.proj_p()

    def proj_r(self) -> QMatrix:
        """``R_A = I - Q_A``: projector onto the left null space of ``a``."""
        return QMatrix.identity(self.a.rows) - self.proj_q()


def hermitize(g: QMatrix) -> QMatrix:
    """Average ``g`` with its conjugate transpose.

    Gram matrices assembled in floating point can miss exact Hermitian
    symmetry in the last bit; averaging restores it without changing the
    value beyond rounding.
    """
    return (g + g.H) / 2.0


def gram_left(a: QMatrix) -> QMatrix:
    """The ``cols x cols`` Gram matrix ``ctranspose(a) @ a``, symmetrized."""
    return hermitize(mmul(ctranspose(a), a))


def gram_right(a: QMatrix) -> QMatrix:
    """The ``rows x rows`` Gram matrix ``a @ ctranspose(a)``, symmetrized."""
    return hermitize(mmul(a, ctranspose(a)))


def mp_cramer(a: QMatrix, side: Optional[str] = None, r: Optional[int] = None) -> MpResult:
    """Determinantal Moore-Penrose inverse, from one coefficient pass.

    ``a`` is prescaled to ``a_s = 2**k a`` (:func:`~qsylv.qmatrix.pow2_exponent`)
    so that its Gram matrix neither overflows nor underflows.  On the
    ``"left"`` side ``gram = a_s* a_s`` and ``coeffs = cdet_coeffs(gram, r)``,
    so ``pinv(a) = 2**k coeffs @ a_s* / denom``; on the ``"right"`` side
    ``gram = a_s a_s*`` and ``coeffs = rdet_coeffs(gram, r)``, so
    ``pinv(a) = 2**k a_s* @ coeffs / denom``.  ``denom``, the sum of the
    ``r x r`` principal minors of ``gram``, is read off the same coefficients
    as ``Re tr(coeffs @ gram) / r`` (left) or ``Re tr(gram @ coeffs) / r``
    (right).  The default side is the one with the smaller Gram matrix,
    ``"left"`` on a tie; ``method`` names the side.  ``r`` is a rank already
    decided for ``a``, such as an SVD's ``rank_used``; by default it is
    decided here.

    Raises :class:`ZeroDivisor` when the principal-minor sum is zero.  The
    determinant engine is imported here, so the pseudoinverse route never
    loads it.  Two records take no pass: an exact identity of full rank is
    its own pseudoinverse, which is what the pass gives (each factor of that
    pass is a power of two), and a record of rank 0 has the zero
    pseudoinverse, as :func:`mp_oracles` gives a zero matrix.
    """
    from .rcdet import cdet_coeffs, rdet_coeffs
    if side is None:
        side = "left" if a.cols <= a.rows else "right"
    elif side not in ("left", "right"):
        raise InvalidSize(f"side must be 'left' or 'right', got {side!r}")
    method = f"cramer_{side}"
    if r in (None, a.rows) and a.is_identity():
        return MpResult(a, method, a.rows, a)
    r = rank(a) if r is None else r
    if r == 0:
        return MpResult(QMatrix.zeros(a.cols, a.rows), method, 0, a)
    k = pow2_exponent(a)
    scaled = scale_pow2(a, k)
    scaled_h = ctranspose(scaled)
    if side == "left":
        gram = gram_left(scaled)
        coeffs = cdet_coeffs(gram, r)
        product, pinv = coeffs @ gram, coeffs @ scaled_h
    else:
        gram = gram_right(scaled)
        coeffs = rdet_coeffs(gram, r)
        product, pinv = gram @ coeffs, scaled_h @ coeffs
    denom = product.trace().w / r
    if denom == 0.0:
        raise ZeroDivisor(f"the rank-{r} principal-minor sum of a Gram matrix is zero")
    return MpResult(scale_pow2(pinv / denom, k), method, r, a)


def mp_oracles(mats: Sequence[QMatrix],
               rank_floors: Optional[Sequence[float]] = None) -> list[MpResult]:
    """Moore-Penrose inverses through the complex embedding, one SVD per matrix.

    Each matrix's rank and pseudoinverse are read off the same decomposition
    of the prescaled matrix; its absolute rank floor (``rank_floors``, 0 by
    default) is scaled with it.  Two inputs take no SVD and get what it
    gives: a zero matrix the zero pseudoinverse of rank 0 (an all-zero
    spectrum has an infinite cutoff), and an exact identity, while its floor
    is below 1, itself of full rank (every factor of its SVD is a power of
    two), as ``method="identity"``.  The other members are decomposed
    together by :func:`~qsylv.svd.svds`, which gives each the bytes of its
    lone SVD.
    """
    floors = [0.0] * len(mats) if rank_floors is None else rank_floors
    out: list = [None] * len(mats)
    pending = {}  # index -> (prescale exponent, embedded prescaled matrix)
    for i, (a, floor) in enumerate(zip(mats, floors, strict=True)):
        if a.is_zero():
            out[i] = MpResult(QMatrix.zeros(a.cols, a.rows), "oracle", 0, a)
        elif floor < 1.0 and a.is_identity():
            out[i] = MpResult(a, "identity", a.rows, a)
        else:
            k = pow2_exponent(a)
            pending[i] = k, complex_embed(scale_pow2(a, k))
    factors = svds([embedded for _, embedded in pending.values()])
    for (i, (k, embedded)), (u, s, vh) in zip(pending.items(), factors):
        a = mats[i]
        cut = rank_cutoff(embedded.shape, s, math.ldexp(floors[i], k))
        pinv = complex_unembed(pinv_from_svd(u, s, vh, cut), a.cols, a.rows)
        out[i] = MpResult(scale_pow2(pinv, k), "oracle", embedded_rank(s, cut), a)
    return out


def mp_oracle(a: QMatrix) -> MpResult:
    """Moore-Penrose inverse through the complex embedding and one SVD: the
    one-member case of :func:`mp_oracles`, with no rank floor."""
    return mp_oracles([a])[0]


# -- determinantal projectors --------------------------------------------------


def proj_p_cramer(a: QMatrix, r: Optional[int] = None) -> QMatrix:
    """Determinantal ``pinv(a) @ a`` on the left Gram matrix ``a* a``."""
    return mp_cramer(a, "left", r).proj_p()


def proj_q_cramer(a: QMatrix, r: Optional[int] = None) -> QMatrix:
    """Determinantal ``a @ pinv(a)`` on the right Gram matrix ``a a*``."""
    return mp_cramer(a, "right", r).proj_q()
