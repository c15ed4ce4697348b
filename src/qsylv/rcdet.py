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

Bordered minor sums are the paper's Cramer-rule numerators: sums over
anchored index subsets of anchored determinants of a principal submatrix
with one column (or row) replaced by a derived vector.  The package reads
them as products of coefficient matrices (below); :func:`bordered_cdet_sum`
and :func:`bordered_rdet_sum` give one sum at a time.

Coefficient form
----------------

In the cycle form only one factor of a ``cdet_i`` term touches column ``i``:
the last one, ``a[v, i]``.  Replacing that column by a vector ``d`` turns it
into ``d[v]`` at the right end of the product, so every bordered sum is
linear in ``d`` with a coefficient per ``v`` that does not depend on ``d``.
Row sums follow from ``rdet_i(A*) = conj(cdet_i(A))``::

    bordered_cdet_sum(h, i, d, r) = sum_v C[i-1, v] * d[v]   (C = cdet_coeffs(h, r))
    bordered_rdet_sum(h, j, d, r) = sum_v d[v] * R[v, j-1]   (R = cdet_coeffs(h*, r)*)

``C[i, v]`` sums, over the size-``r`` subsets containing ``i`` and the terms
whose border factor sits in row ``v``, the signed left-to-right product of
the ``r - 1`` other factors.  So a Cramer quotient over a whole matrix of
right-hand vectors is one quaternion matrix product, ``C @ D`` or ``D @ R``.

One coefficient matrix of an ``n x n`` matrix costs one vectorized pass over
``r * C(n, r) * r!`` terms of ``r - 1`` quaternion factors each (3600 terms
at ``n = 6, r = 5``; 35280 at ``n = r = 7``), then ``n`` quaternion products
per right-hand vector.  The index tables of these terms are built from the
cycle form on first use, cached per ``r``, and evaluated with NumPy on an
``n x n x 4`` array of components, scaled to unit size by a power of two, in
the factor order of the cycle form.

The pass evaluates in double-double (Dekker, Numer. Math. 18, 1971;
Ogita, Rump and Oishi, SIAM J. Sci. Comput. 26, 2005): each quaternion
product expands into its 16 signed component products, each formed
exactly by TwoProduct on Veltkamp-split factors, and each component's four
are added by TwoSum, every error carried in a low part.  The terms of a
group, and then the groups of every subset that meet in one coefficient,
are summed pairwise in double-double, and each coefficient is rounded once,
when it is stored.  So a coefficient is its exact term sum rounded once, up
to about ``eps**2`` times the sum of its terms' sizes, although the terms
can be many orders of magnitude larger than their sum.  That costs up to
about twice the time of a float64 pass (on a 2 vCPU Xeon, ``n = r = 7``
takes about 40 ms against 24 ms).

This pass is the only place terms are evaluated; every other quantity is
read off a coefficient matrix::

    rdet(a, i) = sum_v a[i, v] * R[v, i]            (R = rdet_coeffs(a, n))
    cdet(a, j) = sum_v C[j, v] * a[v, j]            (C = cdet_coeffs(a, n))
    principal_minor_sum(h, r) = Re tr(C @ h) / r    (C = cdet_coeffs(h, r))

The trace sums the ``r`` anchored determinants of each ``r x r`` principal
minor, all equal to it on a Hermitian matrix.  Every determinant and minor
sum is read on the matrix scaled to unit size by a power of two and scaled
back.  A value or coefficient that overflows, or a nonzero value that
underflows to zero, raises ``OutOfRange``.

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
from typing import Callable, Iterator, Sequence

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
from .qmatrix import QMatrix, ctranspose, is_hermitian, pow2_exponent, quat_array, scale_pow2
from .quaternion import Quaternion, product, qsum

DEFAULT_MAX_DET_DIM = 7

#: Tolerance of the Hermitian, realness and agreement checks of :func:`hdet`
#: and :func:`principal_minor_sum`, on the matrix scaled to unit size.
HDET_TOL = 1e-10

#: Most factor quaternions one evaluation pass holds at once; larger
#: expansions run in several passes, each over whole groups of terms.  A term
#: in flight takes about 1 kB in double-double (its factor's 48-float product
#: table entry and the 16-product temporaries of one step), so a pass holds a
#: few MB at most: 2 MB at ``n = r = 7``.
_PASS_FACTORS = 1 << 14

#: ``_XOR[j, i] = j ^ i`` and ``_SIGNS[j, i]``: basis quaternion ``j`` times basis
#: quaternion ``j ^ i`` is ``_SIGNS[j, i]`` times basis quaternion ``i``.
_XOR = np.bitwise_xor.outer(np.arange(4), np.arange(4))
_SIGNS = np.array([[product(np.eye(4)[j], np.eye(4)[j ^ i])[i] for i in range(4)]
                   for j in range(4)])
_ONE = np.array([1.0, 0.0, 0.0, 0.0])


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
def _term_table(r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index arrays of the ``r x r`` column expansions, grouped by anchor and border.

    Returns ``(rows, cols, signs)``.  The border factor of a ``cdet`` term is
    the one that touches the anchor's column, always the last; its border
    index ``v`` is that factor's row.  Each ``v`` owns exactly ``(r - 1)!``
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
            ordered = [*reversed([cycle for cycle in cycles if cycle is not held]),
                       held[at:] + held[:at]]
            pairs = [(cyc[t], cyc[(t + 1) % len(cyc)]) for cyc in ordered for t in range(len(cyc))]
            v, rest = pairs[-1][0], pairs[:-1]
            t = filled[p][v]
            filled[p][v] += 1
            signs[p, v, t] = sign
            rows[p, v, t] = [row for row, _ in rest]
            cols[p, v, t] = [col for _, col in rest]
    for table in (rows, cols, signs):
        table.setflags(write=False)
    return rows, cols, signs


def _qmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise quaternion product over the last axis, ``(w, x, y, z)``:
    :func:`~qsylv.quaternion.product`, as ``Quaternion.__mul__`` evaluates it."""
    return np.stack(
        product((a[..., 0], a[..., 1], a[..., 2], a[..., 3]),
                (b[..., 0], b[..., 1], b[..., 2], b[..., 3])),
        axis=-1,
    )


# -- double-double arithmetic ------------------------------------------------------

#: Veltkamp's splitting constant for float64, ``2**27 + 1``.
_SPLITTER = 134217729.0


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(s, e)`` with ``s = fl(a + b)`` and ``s + e == a + b`` exactly (Knuth's TwoSum)."""
    s = a + b
    bb = s - a
    e = s - bb
    np.subtract(a, e, out=e)
    np.subtract(b, bb, out=bb)
    e += bb
    return s, e


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split ``a == hi + lo``, each half short enough that a product
    of two halves is exact."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _two_prod(a: np.ndarray, b: np.ndarray, b_hi: np.ndarray, b_lo: np.ndarray):
    """``(p, e)`` with ``p = fl(a * b)`` and ``p + e == a * b`` exactly (Dekker's
    TwoProduct); ``b_hi, b_lo`` is ``b``'s :func:`_split`."""
    a_hi, a_lo = _split(a)
    p = a * b
    e = a_hi * b_hi
    e -= p
    e += a_hi * b_lo
    e += a_lo * b_hi
    e += a_lo * b_lo
    return p, e


def _product_table(a4: np.ndarray) -> np.ndarray:
    """The factors of ``a4`` (``n x n x 4``) as right operands of :func:`_dd_qmul`:
    a ``3 x 4 x 4 x n*n`` array holding, for entry ``e``, the signed matrix
    ``B[j, i] = +-b[i ^ j]`` with ``(a b)_i = sum_j a_j B[j, i]``, and its split."""
    b = a4.reshape(-1, 4).T[_XOR] * _SIGNS[..., None]
    return np.stack((b, *_split(b)))


def _dd_qmul(hi: np.ndarray, lo, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(hi + lo) * b`` for double-double quaternions ``hi + lo`` (``4 x ...``;
    ``lo`` is None for a ``hi`` that is exact) and quaternions ``b`` given as
    :func:`_product_table` entries (``3 x 4 x 4 x ...``): each of the 16
    component products by TwoProduct, each component's four added by TwoSum,
    every error carried in the low part."""
    p, e = _two_prod(hi[:, None], b[0], b[1], b[2])
    if lo is not None:
        e += lo[:, None] * b[0]
    s, e2 = _two_sum(p[0::2], p[1::2])
    s, e1 = _two_sum(s[0], s[1])
    e1 += e2[0]
    e1 += e2[1]
    e1 += e.sum(axis=0)
    return s, e1


def _dd_sum(hi: np.ndarray, lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The double-double sum of ``hi + lo`` over axis 1, pairwise by TwoSum."""
    while hi.shape[1] > 1:
        half = hi.shape[1] // 2
        s, e = _two_sum(hi[:, :half], hi[:, half:2 * half])
        e += lo[:, :half] + lo[:, half:2 * half]
        if hi.shape[1] % 2:
            s, e = np.concatenate((s, hi[:, -1:]), axis=1), np.concatenate((e, lo[:, -1:]), axis=1)
        hi, lo = s, e
    return hi[:, 0], lo[:, 0]


@lru_cache(maxsize=32)
def _subsets(n: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """The size-``r`` subsets of ``range(n)`` in lexicographic order
    (``S x r``), and the table that gathers each coefficient's parts.

    A local coefficient ``[s, p, v]`` (position ``s*r*r + p*r + v`` of
    :func:`_local_coeffs`' result) is a part of coefficient
    ``(subsets[s, p], subsets[s, v])``.  Column ``i*n + j`` of the
    ``m x n*n`` table lists the positions of the parts of coefficient
    ``(i, j)``, padded with ``S*r*r``, the position of an appended zero.
    """
    subsets = np.array(list(combinations(range(n), r)), dtype=np.intp).reshape(-1, r)
    targets = (subsets[:, :, None] * n + subsets[:, None, :]).reshape(-1)
    order = np.argsort(targets, kind="stable")
    counts = np.bincount(targets, minlength=n * n)
    slots = np.arange(len(order)) - np.repeat(np.cumsum(counts) - counts, counts)
    scatter = np.full((counts.max(), n * n), len(order), dtype=np.intp)
    scatter[slots, targets[order]] = order
    for table in (subsets, scatter):
        table.setflags(write=False)
    return subsets, scatter


def _local_coeffs(a4: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """Coefficients of the principal submatrices of ``a4`` on ``subsets``, in
    double-double.

    ``a4`` is an ``n x n x 4`` component array and ``subsets`` an ``S x r``
    array of 0-based indices.  Entry ``[:, c, s*r*r + p*r + v]`` of the
    ``2 x 4 x S*r*r`` result is the high and low part of component ``c`` of the
    sum of the signed left-to-right products of the non-border factors of the
    column terms of submatrix ``s`` anchored at local position ``p`` whose
    border index is local ``v``.  Work is split into passes of at most
    ``_PASS_FACTORS`` factors where one group of terms fits.
    """
    count, r = subsets.shape
    cap = _MAX_DET_DIM.get()
    if r > cap:
        raise DimensionTooLarge(f"determinant dimension {r} exceeds cap {cap}")
    rows, cols, signs = _term_table(r)
    groups, per_group = r * r, signs.shape[-1]
    # factor k of term t of group g sits at rows[k, t, g], cols[k, t, g]
    rows = rows.reshape(groups, per_group, r - 1).T
    cols = cols.reshape(groups, per_group, r - 1).T
    signs = signs.reshape(groups, per_group).T
    n = len(a4)
    entries = a4.reshape(-1, 4).T
    table = _product_table(a4) if r > 2 else None
    total = count * groups
    out = np.empty((2, 4, total))
    step = max(1, _PASS_FACTORS // (per_group * max(r - 1, 1)))
    for start in range(0, total, step):
        stop = min(start + step, total)
        s, g = np.divmod(np.arange(start, stop), groups)
        flat = subsets[s, rows[..., g]] * n + subsets[s, cols[..., g]]
        hi = signs[:, g] * (np.take(entries, flat[0], axis=1) if r > 1 else _ONE[:, None, None])
        lo = None  # a signed factor is exact
        for k in range(1, r - 1):
            hi, lo = _dd_qmul(hi, lo, np.take(table, flat[k], axis=-1))
        out[:, :, start:stop] = _dd_sum(hi, np.zeros_like(hi) if lo is None else lo)
    return out


def _coefficients(h: QMatrix, r: int) -> np.ndarray:
    """The ``n x n x 4`` components of ``cdet_coeffs(h, r)``, over the size-``r``
    subsets in lexicographic order: the one evaluation pass.  Each term's
    border factor is its last, so coefficient ``[i, v]`` multiplies ``d[v]``
    from the left.

    It runs on ``2**k h`` scaled to unit size, carries every part in
    double-double through the subset sums and rounds each coefficient once,
    scaled back by ``2**(-k (r - 1))``.  As in :func:`_scale_back`, a
    coefficient that overflows, or a nonzero one that underflows to zero,
    raises :class:`OutOfRange`; a structurally zero one stays 0.
    """
    n = h.rows
    if h.rows != h.cols:
        raise NotSquare(f"coefficient matrices require a square matrix, got {h.shape}")
    if not 0 <= r <= n:
        raise InvalidSize(f"subset size {r} out of range 0..{n}")
    if r == 0:
        return np.zeros((n, n, 4))
    subsets, scatter = _subsets(n, r)
    k = pow2_exponent(h)
    with np.errstate(over="ignore", invalid="ignore"):
        local = _local_coeffs(np.ldexp(quat_array(h), k), subsets)
        parts = np.take(np.concatenate((local, np.zeros((2, 4, 1))), axis=-1), scatter, axis=-1)
        hi, lo = _dd_sum(parts[0], parts[1])
        unit = hi + lo
        coeffs = np.ldexp(unit, -k * (r - 1))
    if not np.isfinite(coeffs).all():
        raise OutOfRange("coefficient overflows the float range")
    if (unit.any(axis=0) & ~coeffs.any(axis=0)).any():
        raise OutOfRange("coefficient underflows the float range")
    return coeffs.reshape(4, n, n).transpose(1, 2, 0)


def cdet_coeffs(h: QMatrix, r: int) -> QMatrix:
    """The matrix ``C`` with ``bordered_cdet_sum(h, i, d, r) == sum_v C[i-1, v] * d[v]``.

    So for a matrix ``D`` of right-hand columns, ``C @ D`` holds every
    bordered column-determinant sum.  ``r = 0`` gives the zero matrix.
    """
    return QMatrix.from_array(_coefficients(h, r))


def rdet_coeffs(h: QMatrix, r: int) -> QMatrix:
    """The matrix ``R`` with ``bordered_rdet_sum(h, j, d, r) == sum_v d[v] * R[v, j-1]``.

    So for a matrix ``D`` of right-hand rows, ``D @ R`` holds every bordered
    row-determinant sum.  ``r = 0`` gives the zero matrix.  It is
    ``cdet_coeffs(h*, r)*``, read off the column pass on ``h*``.
    """
    return ctranspose(cdet_coeffs(ctranspose(h), r))


def _row_dets(a: QMatrix) -> np.ndarray:
    """All ``n`` anchored row determinants of ``a`` (``n x 4``), ``sum_v a[i,v] R[v,i]``."""
    return _qmul(quat_array(a), quat_array(rdet_coeffs(a, a.rows)).transpose(1, 0, 2)).sum(axis=1)


def _col_dets(a: QMatrix) -> np.ndarray:
    """All ``n`` anchored column determinants of ``a`` (``n x 4``), ``sum_v C[j,v] a[v,j]``."""
    return _qmul(_coefficients(a, a.rows), quat_array(a).transpose(1, 0, 2)).sum(axis=1)


def _det(a: QMatrix, anchor: int, anchored: Callable[[QMatrix], np.ndarray]) -> Quaternion:
    """Entry ``anchor`` of ``anchored(a)``, read on ``a`` scaled to unit size."""
    if a.rows != a.cols:
        raise NotSquare(f"determinant requires a square matrix, got {a.shape}")
    if not 1 <= anchor <= a.rows:
        raise InvalidSize(f"anchor {anchor} out of range 1..{a.rows}")
    k = pow2_exponent(a)
    value = anchored(scale_pow2(a, k))[anchor - 1]
    return Quaternion(*_scale_back(value.tolist(), -k * a.rows, "determinant"))


def rdet(a: QMatrix, i: int) -> Quaternion:
    """Row determinant anchored at 1-based row ``i``."""
    return _det(a, i, _row_dets)


def cdet(a: QMatrix, j: int) -> Quaternion:
    """Column determinant anchored at 1-based column ``j``."""
    return _det(a, j, _col_dets)


def _unit_hermitian(h: QMatrix, what: str) -> tuple[int, QMatrix]:
    """``(k, 2**k h)`` scaled to unit size (:func:`~qsylv.qmatrix.pow2_exponent`);
    :class:`NotHermitian` unless that is Hermitian within :data:`HDET_TOL`."""
    k = pow2_exponent(h)
    scaled = scale_pow2(h, k)
    if not is_hermitian(scaled, HDET_TOL):
        raise NotHermitian(f"{what} requires a Hermitian matrix")
    return k, scaled


def _scale_back(values: Sequence[float], k: int, what: str) -> list[float]:
    """``2**k * values``, exact in the normal float range; :class:`OutOfRange`
    if a value overflows or if the nonzero values all underflow to zero."""
    try:
        scaled = [math.ldexp(value, k) for value in values]
    except OverflowError:
        raise OutOfRange(f"{what} overflows the float range") from None
    if any(values) and not any(scaled):
        raise OutOfRange(f"{what} underflows the float range")
    return scaled


def hdet(a: QMatrix, verify: bool = False) -> float:
    """The common real value of all anchored determinants of a Hermitian matrix.

    ``rdet_1`` is read and checked to be real within ``HDET_TOL * (1 + |det|)``;
    with ``verify=True`` all ``2n`` anchored determinants are read off the
    row and column coefficient matrices and checked to agree within the same
    budget.  Every check runs on ``a`` scaled to unit size by ``2**k``, and
    the value is scaled back exactly by ``2**(-k n)``.
    """
    k, scaled = _unit_hermitian(a, "hdet")
    rows = _row_dets(scaled)
    value = Quaternion(*rows[0].tolist())
    budget = HDET_TOL * (1.0 + abs(value.w))
    if abs(value.x) > budget or abs(value.y) > budget or abs(value.z) > budget:
        raise InconsistentDeterminants(
            f"anchored determinant of a Hermitian matrix is not real: {value!r}"
        )
    if verify:
        for comps in np.concatenate((rows, _col_dets(scaled))).tolist():
            other = Quaternion(*comps)
            if abs(other - value) > budget:
                raise InconsistentDeterminants(
                    f"anchored determinants disagree: {value!r} vs {other!r}"
                )
    return _scale_back([value.w], -k * a.rows, "determinant")[0]


def principal_minor_sum(h: QMatrix, r: int) -> float:
    """Sum of all ``r x r`` principal minors (Hermitian determinants) of ``h``.

    Read as ``Re tr(C h) / r`` with ``C = cdet_coeffs(h, r)``: the trace sums
    the ``r`` anchored column determinants of every principal minor.  As in
    :func:`hdet`, the check and the read run on ``2**k h`` and the sum is
    scaled back by ``2**(-k r)``.  ``r = 0`` returns 1.0 (the empty-product
    convention used by callers that special-case rank-0 matrices away before
    dividing by this value).
    """
    k, scaled = _unit_hermitian(h, "principal_minor_sum")
    if r == 0:
        return 1.0
    value = (cdet_coeffs(scaled, r) @ scaled).trace().w / r
    return _scale_back([value], -k * r, "principal-minor sum")[0]


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
    coeffs = cdet_coeffs(h, r)
    return qsum(coeffs[i - 1, v] * dv for v, dv in enumerate(d))


def bordered_rdet_sum(h: QMatrix, j: int, d: Sequence[Quaternion], r: int) -> Quaternion:
    """Mirror of :func:`bordered_cdet_sum`: row ``j`` of each principal
    submatrix is replaced by ``d`` and anchored row determinants are summed.

    Left-linear in ``d``: it is ``sum_v d[v] * R[v, j-1]`` with
    ``R = rdet_coeffs(h, r)``.
    """
    _check_border(h, j, d)
    coeffs = rdet_coeffs(h, r)
    return qsum(dv * coeffs[v, j - 1] for v, dv in enumerate(d))
