"""Noncommutative row/column determinants and bordered minor sums.

For an ``n x n`` quaternion matrix the *row determinant anchored at row i*
(``rdet_i``) and the *column determinant anchored at column j* (``cdet_j``)
are sums over all permutations written in a canonical cycle form:

- every permutation is split into disjoint cycles; the anchor's cycle is
  written starting at the anchor, every other cycle starting at its smallest
  element;
- a cycle ``(x0, x1, ..., x_{k-1})`` (``x1 = sigma(x0)`` and so on) contributes
  the left-to-right product ``a[x0,x1] * a[x1,x2] * ... * a[x_{k-1},x0]``;
- ``rdet_i`` multiplies the anchor's cycle first, then the remaining cycles by
  increasing leader; ``cdet_j`` multiplies the remaining cycles by *decreasing*
  leader first and the anchor's cycle last;
- the term's sign is ``(-1)**(n - r)`` with ``r`` the number of cycles
  (fixed points included).

On 2x2 matrices this gives ``rdet_1 = a*d - b*c``, ``rdet_2 = d*a - c*b``,
``cdet_1 = d*a - b*c`` and ``cdet_2 = a*d - c*b``.  On Hermitian matrices all
``2n`` anchored determinants coincide in one real number (:func:`hdet`).

Bordered minor sums are the Cramer-rule numerators used throughout the
package: sums over anchored index subsets of anchored determinants of a
principal submatrix with one column (or row) replaced by a derived vector.

Coefficient form
----------------

In the cycle form only one factor of a ``cdet_i`` term touches column ``i``:
the last one, ``a[v, i]``.  In an ``rdet_j`` term only the first factor,
``a[j, v]``, touches row ``j``.  Replacing that column (row) by a vector
``d`` therefore turns the factor into ``d[v]`` at the right (left) end of the
product, and every bordered sum is linear in ``d`` with a coefficient per
``v`` that does not depend on ``d``::

    bordered_cdet_sum(h, i, d, r) = sum_v C[i-1, v] * d[v]   (C = cdet_coeffs(h, r))
    bordered_rdet_sum(h, j, d, r) = sum_v d[v] * R[v, j-1]   (R = rdet_coeffs(h, r))

``C[i, v]`` sums, over the size-``r`` subsets containing ``i`` and the terms
whose border factor sits in row ``v``, the signed left-to-right product of
the ``r - 1`` other factors; ``R`` mirrors it.  So a Cramer quotient over a
whole matrix of right-hand vectors is one quaternion matrix product,
``C @ D`` or ``D @ R``.

One coefficient matrix of an ``n x n`` matrix costs one vectorized pass over
``r * C(n, r) * r!`` terms of ``r - 1`` quaternion factors each (3600 terms
at ``n = 6, r = 5``; 35280 at ``n = r = 7``), then ``n`` quaternion products
per right-hand vector.  The index tables of these terms are built from the
cycle form on first use, cached per ``(r, flavour)``, and evaluated with
NumPy on an ``n x n x 4`` array of components, with the same component
formula and factor order as :class:`~qsylv.quaternion.Quaternion`
multiplication.  This pass is the only place terms are evaluated; every
other quantity is read off a coefficient matrix::

    rdet(a, i) = sum_v a[i, v] * R[v, i]            (R = rdet_coeffs(a, n))
    cdet(a, j) = sum_v C[j, v] * a[v, j]            (C = cdet_coeffs(a, n))
    principal_minor_sum(h, r) = Re tr(C @ h) / r    (C = cdet_coeffs(h, r))

The trace sums the ``r`` anchored determinants of each ``r x r`` principal
minor, all equal to it on a Hermitian matrix.  :func:`hdet` and
:func:`principal_minor_sum` work on the matrix scaled to unit size by a power
of two.  A value or coefficient that overflows raises ``OutOfRange``.

Dimension cap: an expansion of size ``r`` has ``r!`` terms, so expansions
refuse to run beyond ``max_det_dim()`` with
:class:`~qsylv.errors.DimensionTooLarge`.  The cap bounds ``r`` (the
determinant's own size, or the subset size of a minor or bordered sum), not
the size of the matrix the subsets are drawn from.  It is 7 unless a
:func:`det_dim_cap` block sets another one; it is held in a context variable,
so a block affects only the thread or task that opened it.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from functools import lru_cache
from itertools import combinations, permutations
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
    InconsistentDeterminants,
    InvalidSize,
    NotHermitian,
    NotSquare,
    OutOfRange,
)
from .qmatrix import QMatrix, is_hermitian, pow2_exponent, quat_array, scale_pow2
from .quaternion import Quaternion, qsum

DEFAULT_MAX_DET_DIM = 7

#: Tolerance of the Hermitian, realness and agreement checks of :func:`hdet`
#: and :func:`principal_minor_sum`, on the matrix scaled to unit size.
HDET_TOL = 1e-10

#: Most factor quaternions one evaluation pass holds at once; larger
#: expansions run in several passes, each over whole groups of terms.
_PASS_FACTORS = 1 << 18


_MAX_DET_DIM: ContextVar[int] = ContextVar("max_det_dim", default=DEFAULT_MAX_DET_DIM)


def max_det_dim() -> int:
    """The determinant dimension cap in force (see :func:`det_dim_cap`)."""
    return _MAX_DET_DIM.get()


@contextmanager
def det_dim_cap(n: int) -> Iterator[None]:
    """Cap determinant expansions at dimension ``n`` inside the ``with`` block.

    The previous cap is restored on exit; ``n < 1`` raises :class:`InvalidSize`.
    """
    if n < 1:
        raise InvalidSize(f"determinant dimension cap must be >= 1, got {n}")
    token = _MAX_DET_DIM.set(n)
    try:
        yield
    finally:
        _MAX_DET_DIM.reset(token)


# -- vectorized expansion --------------------------------------------------------


@lru_cache(maxsize=None)
def _term_table(r: int, flavor: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index arrays of the ``r x r`` expansions, grouped by anchor and border.

    Returns ``(rows, cols, signs)``.  The border factor of a term is the one
    that touches the anchor's column (``cdet``, always last) or row
    (``rdet``, always first); its border index ``v`` is that factor's row
    (``cdet``) or column (``rdet``).  Each ``v`` owns exactly ``(r - 1)!``
    terms of every anchor ``p``.  ``rows[p, v, t]`` and ``cols[p, v, t]``
    hold the 0-based positions of the other ``r - 1`` factors of the
    ``t``-th such term, in multiplication order; ``signs[p, v, t]`` is its
    sign.  Terms are numbered in the lexicographic order of their
    permutations.
    """
    per_group = math.factorial(r - 1)
    rows = np.empty((r, r, per_group, r - 1), dtype=np.intp)
    cols = np.empty((r, r, per_group, r - 1), dtype=np.intp)
    signs = np.empty((r, r, per_group))
    filled = [[0] * r for _ in range(r)]
    for images in permutations(range(r)):
        cycles = []  # each starts at its smallest element
        for start in range(r):
            if not any(start in cycle for cycle in cycles):
                cycle = [start]
                while images[cycle[-1]] != start:
                    cycle.append(images[cycle[-1]])
                cycles.append(cycle)
        sign = 1 if (r - len(cycles)) % 2 == 0 else -1
        for p in range(r):
            held = next(cycle for cycle in cycles if p in cycle)
            at = held.index(p)
            anchor_cycle = held[at:] + held[:at]
            others = [cycle for cycle in cycles if cycle is not held]
            if flavor == "row":
                ordered = [anchor_cycle, *others]
            else:
                ordered = [*reversed(others), anchor_cycle]
            pairs = [(cyc[t], cyc[(t + 1) % len(cyc)]) for cyc in ordered for t in range(len(cyc))]
            if flavor == "col":
                v, rest = pairs[-1][0], pairs[:-1]
            else:
                v, rest = pairs[0][1], pairs[1:]
            t = filled[p][v]
            filled[p][v] += 1
            signs[p, v, t] = sign
            rows[p, v, t] = [row for row, _ in rest]
            cols[p, v, t] = [col for _, col in rest]
    for table in (rows, cols, signs):
        table.setflags(write=False)
    return rows, cols, signs


def _qmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise quaternion product over the last axis, ``(w, x, y, z)``.

    Same component formula and operation order as ``Quaternion.__mul__``.
    """
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        (
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ),
        axis=-1,
    )


def _local_coeffs(a4: np.ndarray, subsets: np.ndarray, flavor: str) -> np.ndarray:
    """Coefficients of the principal submatrices of ``a4`` on ``subsets``.

    ``a4`` is an ``n x n x 4`` component array and ``subsets`` an ``S x r``
    array of 0-based indices.  Entry ``[s, p, v]`` of the ``S x r x r x 4``
    result sums the signed left-to-right products of the non-border factors
    of the terms of submatrix ``s`` anchored at local position ``p`` whose
    border index is local ``v``.  Work is split into passes of at most
    ``_PASS_FACTORS`` factors where one group of terms fits.
    """
    count, r = subsets.shape
    cap = _MAX_DET_DIM.get()
    if r > cap:
        raise DimensionTooLarge(f"determinant dimension {r} exceeds cap {cap}")
    rows, cols, signs = _term_table(r, flavor)
    groups, per_group = r * r, signs.shape[-1]
    rows = rows.reshape(groups, per_group, r - 1)
    cols = cols.reshape(groups, per_group, r - 1)
    signs = signs.reshape(groups, per_group)
    total = count * groups
    out = np.empty((total, 4))
    step = max(1, _PASS_FACTORS // (per_group * max(r - 1, 1)))
    for start in range(0, total, step):
        s, g = np.divmod(np.arange(start, min(start + step, total)), groups)
        owner = s[:, None, None]
        factors = a4[subsets[owner, rows[g]], subsets[owner, cols[g]]]
        prod = factors[:, :, 0] if r > 1 else np.array([1.0, 0.0, 0.0, 0.0])
        for k in range(1, r - 1):
            prod = _qmul(prod, factors[:, :, k])
        out[start:start + len(s)] = (prod * signs[g][..., None]).sum(axis=1)
    return out.reshape(count, r, r, 4)


def _coefficients(h: QMatrix, r: int, flavor: str) -> np.ndarray:
    """The ``n x n x 4`` components of ``cdet_coeffs(h, r)`` (``flavor="col"``)
    or ``rdet_coeffs(h, r)`` (``flavor="row"``), over the size-``r`` subsets
    in lexicographic order: the one evaluation pass."""
    n = h.rows
    if h.rows != h.cols:
        raise NotSquare(f"coefficient matrices require a square matrix, got {h.shape}")
    if not 0 <= r <= n:
        raise InvalidSize(f"subset size {r} out of range 0..{n}")
    out = np.zeros((n, n, 4))
    if r > 0:
        subsets = np.array(list(combinations(range(n), r)), dtype=np.intp)
        with np.errstate(over="ignore", invalid="ignore"):
            local = _local_coeffs(quat_array(h), subsets, flavor)
            anchors, borders = subsets[:, :, None], subsets[:, None, :]
            np.add.at(out, (anchors, borders) if flavor == "col" else (borders, anchors), local)
    return out


def cdet_coeffs(h: QMatrix, r: int) -> QMatrix:
    """The matrix ``C`` with ``bordered_cdet_sum(h, i, d, r) == sum_v C[i-1, v] * d[v]``.

    So for a matrix ``D`` of right-hand columns, ``C @ D`` holds every
    bordered column-determinant sum.  ``r = 0`` gives the zero matrix.
    """
    return QMatrix.from_array(_coefficients(h, r, "col"))


def rdet_coeffs(h: QMatrix, r: int) -> QMatrix:
    """The matrix ``R`` with ``bordered_rdet_sum(h, j, d, r) == sum_v d[v] * R[v, j-1]``.

    So for a matrix ``D`` of right-hand rows, ``D @ R`` holds every bordered
    row-determinant sum.  ``r = 0`` gives the zero matrix.
    """
    return QMatrix.from_array(_coefficients(h, r, "row"))


def _anchored(a: QMatrix, flavor: str) -> np.ndarray:
    """All ``n`` anchored determinants of ``a`` (``n x 4``), read off one coefficient
    matrix: ``rdet_i = sum_v a[i,v] R[v,i]``, ``cdet_j = sum_v C[j,v] a[v,j]``."""
    a4, coeffs = quat_array(a), _coefficients(a, a.rows, flavor)
    with np.errstate(over="ignore", invalid="ignore"):
        if flavor == "row":
            return _qmul(a4, coeffs.transpose(1, 0, 2)).sum(axis=1)
        return _qmul(coeffs, a4.transpose(1, 0, 2)).sum(axis=1)


def _det(a: QMatrix, anchor: int, flavor: str) -> Quaternion:
    if a.rows != a.cols:
        raise NotSquare(f"determinant requires a square matrix, got {a.shape}")
    if not 1 <= anchor <= a.rows:
        raise InvalidSize(f"anchor {anchor} out of range 1..{a.rows}")
    value = _anchored(a, flavor)[anchor - 1]
    if not np.isfinite(value).all():
        raise OutOfRange("determinant overflows the float range")
    return Quaternion(*value.tolist())


def rdet(a: QMatrix, i: int) -> Quaternion:
    """Row determinant anchored at 1-based row ``i``."""
    return _det(a, i, "row")


def cdet(a: QMatrix, j: int) -> Quaternion:
    """Column determinant anchored at 1-based column ``j``."""
    return _det(a, j, "col")


def _unit_hermitian(h: QMatrix, tol: float, what: str) -> tuple[int, QMatrix]:
    """``(k, 2**k h)`` scaled to unit size (:func:`~qsylv.qmatrix.pow2_exponent`);
    :class:`NotHermitian` unless that is Hermitian within ``tol``."""
    k = pow2_exponent(h)
    scaled = scale_pow2(h, k)
    if not is_hermitian(scaled, tol):
        raise NotHermitian(f"{what} requires a Hermitian matrix")
    return k, scaled


def _scale_back(value: float, k: int, what: str) -> float:
    """``2**k * value``, exact; :class:`OutOfRange` if it overflows."""
    try:
        return math.ldexp(value, k)
    except OverflowError:
        raise OutOfRange(f"{what} overflows the float range") from None


def hdet(a: QMatrix, tol: float = HDET_TOL, verify: bool = False) -> float:
    """The common real value of all anchored determinants of a Hermitian matrix.

    ``rdet_1`` is read and checked to be real within ``tol * (1 + |det|)``;
    with ``verify=True`` all ``2n`` anchored determinants are read off the
    row and column coefficient matrices and checked to agree within the same
    budget.  Every check runs on ``a`` scaled to unit size by ``2**k``, and
    the value is scaled back exactly by ``2**(-k n)``.
    """
    k, scaled = _unit_hermitian(a, tol, "hdet")
    rows = _anchored(scaled, "row")
    value = Quaternion(*rows[0].tolist())
    budget = tol * (1.0 + abs(value.w))
    if abs(value.x) > budget or abs(value.y) > budget or abs(value.z) > budget:
        raise InconsistentDeterminants(
            f"anchored determinant of a Hermitian matrix is not real: {value!r}"
        )
    if verify:
        for comps in np.concatenate((rows, _anchored(scaled, "col"))).tolist():
            other = Quaternion(*comps)
            if abs(other - value) > budget:
                raise InconsistentDeterminants(
                    f"anchored determinants disagree: {value!r} vs {other!r}"
                )
    return _scale_back(value.w, -k * a.rows, "determinant")


def principal_minor_sum(h: QMatrix, r: int, tol: float = HDET_TOL) -> float:
    """Sum of all ``r x r`` principal minors (Hermitian determinants) of ``h``.

    Read as ``Re tr(C h) / r`` with ``C = cdet_coeffs(h, r)``: the trace sums
    the ``r`` anchored column determinants of every principal minor.  As in
    :func:`hdet`, the check and the read run on ``2**k h`` and the sum is
    scaled back by ``2**(-k r)``.  ``r = 0`` returns 1.0 (the empty-product
    convention used by callers that special-case rank-0 matrices away before
    dividing by this value).
    """
    k, scaled = _unit_hermitian(h, tol, "principal_minor_sum")
    if r == 0:
        return 1.0
    value = (cdet_coeffs(scaled, r) @ scaled).trace().w / r
    return _scale_back(value, -k * r, "principal-minor sum")


def _check_border(h: QMatrix, i: int, d: Sequence[Quaternion]) -> None:
    """Vector and anchor checks; the coefficient pass checks the rest."""
    if len(d) != h.rows:
        raise DimensionMismatch(f"replacement vector has length {len(d)}, expected {h.rows}")
    if not 1 <= i <= h.rows:
        raise InvalidSize(f"anchor {i} out of range 1..{h.rows}")


def bordered_cdet_sum(h: QMatrix, i: int, d: Sequence[Quaternion], r: int) -> Quaternion:
    """``sum over size-r subsets containing i`` of anchored column determinants
    of the principal submatrix of ``h`` with column ``i`` replaced by ``d``.

    Right-linear in ``d``: it is ``sum_v C[i-1, v] * d[v]`` with
    ``C = cdet_coeffs(h, r)``.
    """
    _check_border(h, i, d)
    row = cdet_coeffs(h, r).row(i - 1)
    return qsum(c * dv for c, dv in zip(row, d))


def bordered_rdet_sum(h: QMatrix, j: int, d: Sequence[Quaternion], r: int) -> Quaternion:
    """Mirror of :func:`bordered_cdet_sum`: row ``j`` of each principal
    submatrix is replaced by ``d`` and anchored row determinants are summed.

    Left-linear in ``d``: it is ``sum_v d[v] * R[v, j-1]`` with
    ``R = rdet_coeffs(h, r)``.
    """
    _check_border(h, j, d)
    col = rdet_coeffs(h, r).col(j - 1)
    return qsum(dv * c for dv, c in zip(d, col))
