"""Moore-Penrose inverses of quaternion matrices, by two independent routes.

- :func:`mp_cramer` evaluates the determinantal (Cramer-style) formulas: each
  entry of the inverse is a bordered minor sum of a Gram matrix divided by the
  sum of its rank-sized principal minors.  The bordered sums of all entries
  come from one coefficient matrix of the Gram matrix (see :mod:`qsylv.rcdet`),
  so the inverse is ``cdet_coeffs(A*A) @ A* / denom`` or
  ``A* @ rdet_coeffs(AA*) / denom``, and ``denom`` is a trace read of the
  same coefficient matrix times the Gram matrix.
- :func:`mp_oracle` works through the complex embedding and an SVD-based
  complex pseudoinverse.

Both prescale their input by an exact power of two (``pinv(2**k A) =
2**-k pinv(A)``), so tiny and huge inputs neither underflow nor overflow.
Both satisfy the four Penrose identities; tests cross-verify them against
each other.  :class:`DetPinv` keeps the determinantal inverse factored
(prescaled matrix, Gram matrix, coefficient matrix, minor sum), so a caller
can form ``pinv(A) @ X``, ``X @ pinv(A)`` and the orthogonal projectors
``P = pinv(A) A`` and ``Q = A pinv(A)`` (:func:`proj_p_cramer`,
:func:`proj_q_cramer`) from one coefficient pass, and Cramer-route solvers
never have to multiply a pseudoinverse into their main path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

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
from .svd import pinv_from_svd, rank_cutoff, svd


@dataclass(frozen=True, slots=True)
class MpResult:
    """A pseudoinverse together with how it was obtained."""

    pinv: QMatrix
    method: str  # "cramer_left" | "cramer_right" | "oracle"
    rank_used: int


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


@dataclass(frozen=True, slots=True)
class DetPinv:
    """The determinantal pseudoinverse of one matrix ``a`` in factored form.

    ``a`` is prescaled to ``a_s = 2**k a`` (:func:`~qsylv.qmatrix.pow2_exponent`)
    so that its Gram matrix neither overflows nor underflows.  On the
    ``"left"`` side ``gram = a_s* a_s`` and ``coeffs = cdet_coeffs(gram, r)``,
    so ``pinv(a) = 2**k coeffs @ a_s* / denom``; on the ``"right"`` side
    ``gram = a_s a_s*`` and ``coeffs = rdet_coeffs(gram, r)``, so
    ``pinv(a) = 2**k a_s* @ coeffs / denom``.  ``denom``, the sum of the
    ``r x r`` principal minors of ``gram``, is read off the same coefficients
    as ``Re tr(coeffs @ gram) / r`` (left) or ``Re tr(gram @ coeffs) / r``
    (right), so the projector has trace ``r`` up to rounding.  Building one
    costs one coefficient pass; every product with it is a matrix product.
    """

    side: str
    k: int
    scaled_h: QMatrix
    gram: QMatrix
    coeffs: QMatrix
    denom: float

    @staticmethod
    def of(a: QMatrix, side: str, r: Optional[int] = None) -> "DetPinv":
        """Factor ``pinv(a)`` for products on ``side``; ``r`` overrides the rank decision.

        Raises :class:`ZeroDivisor` when the principal-minor sum is zero.
        The determinant engine is imported here, so the pseudoinverse route
        never loads it.
        """
        from .rcdet import cdet_coeffs, rdet_coeffs
        if side not in ("left", "right"):
            raise InvalidSize(f"side must be 'left' or 'right', got {side!r}")
        r = rank(a) if r is None else r
        k = pow2_exponent(a)
        scaled = scale_pow2(a, k)
        if side == "left":
            gram = gram_left(scaled)
            coeffs = cdet_coeffs(gram, r)
            product = coeffs @ gram
        else:
            gram = gram_right(scaled)
            coeffs = rdet_coeffs(gram, r)
            product = gram @ coeffs
        denom = product.trace().w / r if r else 1.0
        if denom == 0.0:
            raise ZeroDivisor(f"the rank-{r} principal-minor sum of a Gram matrix is zero")
        return DetPinv(side, k, ctranspose(scaled), gram, coeffs, denom)

    def pinv(self) -> QMatrix:
        """The pseudoinverse itself."""
        if self.side == "left":
            return scale_pow2(self.coeffs @ self.scaled_h / self.denom, self.k)
        return scale_pow2(self.scaled_h @ self.coeffs / self.denom, self.k)

    def apply(self, x: QMatrix) -> QMatrix:
        """``pinv(a) @ x`` on the left side, ``x @ pinv(a)`` on the right side."""
        if self.side == "left":
            return scale_pow2(self.coeffs @ (self.scaled_h @ x) / self.denom, self.k)
        return scale_pow2((x @ self.scaled_h) @ self.coeffs / self.denom, self.k)

    def projector(self) -> QMatrix:
        """``pinv(a) @ a`` on the left side, ``a @ pinv(a)`` on the right side."""
        if self.side == "left":
            return self.coeffs @ self.gram / self.denom
        return self.gram @ self.coeffs / self.denom


def mp_cramer(a: QMatrix, side: Optional[str] = None, rank_floor: float = 0.0) -> MpResult:
    """Determinantal Moore-Penrose inverse.

    ``side`` picks which Gram matrix the bordered sums run over: ``"left"``
    uses ``ctranspose(a) @ a`` and column-determinant sums, ``"right"`` uses
    ``a @ ctranspose(a)`` and row-determinant sums.  Both give the same
    inverse; by default the smaller Gram matrix is chosen.  The Gram matrix
    is formed from ``2**k * a`` (see :class:`DetPinv`) and the result scaled
    back by ``2**k``.
    """
    if side is None:
        side = "left" if a.cols <= a.rows else "right"
    r = rank(a, floor=rank_floor)
    return MpResult(DetPinv.of(a, side, r).pinv(), f"cramer_{side}", r)


def mp_oracle(a: QMatrix, rank_floor: float = 0.0) -> MpResult:
    """Moore-Penrose inverse through the complex embedding and one SVD.

    The rank and the pseudoinverse are read off the same decomposition of
    the prescaled matrix; the absolute ``rank_floor`` is scaled with it.
    """
    k = pow2_exponent(a)
    embedded = complex_embed(scale_pow2(a, k))
    u, s, vh = svd(embedded)
    cut = rank_cutoff(embedded.shape, s, math.ldexp(rank_floor, k))
    pinv = complex_unembed(pinv_from_svd(u, s, vh, cut), a.cols, a.rows)
    return MpResult(scale_pow2(pinv, k), "oracle", embedded_rank(s, cut))


# -- orthogonal projectors -----------------------------------------------------


def proj_p(a: QMatrix) -> QMatrix:
    """``pinv(a) @ a``: orthogonal projector onto the row space (cols x cols)."""
    return mmul(mp_oracle(a).pinv, a)


def proj_q(a: QMatrix) -> QMatrix:
    """``a @ pinv(a)``: orthogonal projector onto the column space (rows x rows)."""
    return mmul(a, mp_oracle(a).pinv)


def proj_p_cramer(a: QMatrix, r: Optional[int] = None) -> QMatrix:
    """Determinantal form of ``pinv(a) @ a``: ``cdet_coeffs(g, r) @ g / denom``
    with ``g = a* a`` (see :class:`DetPinv`); ``r`` overrides the rank decision."""
    return DetPinv.of(a, "left", r).projector()


def proj_q_cramer(a: QMatrix, r: Optional[int] = None) -> QMatrix:
    """Determinantal form of ``a @ pinv(a)``: ``g @ rdet_coeffs(g, r) / denom``
    with ``g = a a*``."""
    return DetPinv.of(a, "right", r).projector()


def penrose_residuals(a: QMatrix, x: QMatrix) -> tuple[float, float, float, float]:
    """Frobenius norms of the four Penrose identity residuals for ``x ~ pinv(a)``."""
    axa = mmul(mmul(a, x), a)
    xax = mmul(mmul(x, a), x)
    ax = mmul(a, x)
    xa = mmul(x, a)
    return (
        (axa - a).fro_norm(),
        (xax - x).fro_norm(),
        (ax - ctranspose(ax)).fro_norm(),
        (xa - ctranspose(xa)).fro_norm(),
    )
