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

Dimension cap: expansions have ``n!`` terms, so determinants refuse to expand
beyond ``max_det_dim()`` with :class:`~qsylv.errors.DimensionTooLarge`.  The
cap is 7 unless a :func:`det_dim_cap` block sets another one; it is held in a
context variable, so a block affects only the thread or task that opened it.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from typing import Iterator, Optional, Sequence

from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
    InconsistentDeterminants,
    InvalidSize,
    NotHermitian,
    NotSquare,
)
from .qmatrix import QMatrix, is_hermitian
from .quaternion import Quaternion, qsum

DEFAULT_MAX_DET_DIM = 7

#: Relative tolerance used by :func:`hdet` for realness/agreement checks.
HDET_TOL = 1e-10


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


# -- index subsets -------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class IndexSubset:
    """A strictly increasing tuple of 1-based indices inside ``{1..ambient}``."""

    ambient: int
    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.ambient < 1:
            raise InvalidSize(f"ambient size must be >= 1, got {self.ambient}")
        idx = self.indices
        if any(not 1 <= v <= self.ambient for v in idx):
            raise InvalidSize(f"indices {idx} out of range 1..{self.ambient}")
        if any(idx[t] >= idx[t + 1] for t in range(len(idx) - 1)):
            raise InvalidSize(f"indices {idx} must be strictly increasing")

    def __len__(self) -> int:
        return len(self.indices)

    def __contains__(self, value: int) -> bool:
        return value in self.indices

    def position_of(self, value: int) -> int:
        """1-based position of ``value`` inside the subset."""
        return self.indices.index(value) + 1


def enumerate_subsets(n: int, r: int, anchor: Optional[int] = None) -> tuple[IndexSubset, ...]:
    """All size-``r`` subsets of ``{1..n}`` in lexicographic order.

    With ``anchor`` given, only subsets containing it are returned.
    """
    if n < 1:
        raise InvalidSize(f"ambient size must be >= 1, got {n}")
    if not 0 <= r <= n:
        raise InvalidSize(f"subset size {r} out of range 0..{n}")
    if anchor is not None and not 1 <= anchor <= n:
        raise InvalidSize(f"anchor {anchor} out of range 1..{n}")
    subsets = (
        IndexSubset(n, combo)
        for combo in combinations(range(1, n + 1), r)
    )
    if anchor is None:
        return tuple(subsets)
    return tuple(s for s in subsets if anchor in s)


# -- canonical cycle form ------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CyclePermutation:
    """A permutation of ``{1..n}`` in the anchored canonical cycle order.

    ``cycles`` holds 1-based cycles already arranged in multiplication order
    for the requested determinant flavour; ``sign`` is ``(-1)**(n - r)``.
    """

    n: int
    cycles: tuple[tuple[int, ...], ...]
    sign: int

    @staticmethod
    def from_one_line(images: Sequence[int], anchor: int, flavor: str) -> "CyclePermutation":
        """Build from the one-line form ``images[t] = sigma(t+1)`` (1-based values)."""
        n = len(images)
        if not 1 <= anchor <= n:
            raise InvalidSize(f"anchor {anchor} out of range 1..{n}")
        if flavor not in ("row", "col"):
            raise InvalidSize(f"flavor must be 'row' or 'col', got {flavor!r}")
        seen = [False] * (n + 1)
        anchor_cycle: tuple[int, ...] = ()
        others: list[tuple[int, ...]] = []
        for start in range(1, n + 1):
            if seen[start]:
                continue
            cycle = [start]
            seen[start] = True
            nxt = images[start - 1]
            while nxt != start:
                cycle.append(nxt)
                seen[nxt] = True
                nxt = images[nxt - 1]
            if anchor in cycle:
                pos = cycle.index(anchor)
                anchor_cycle = tuple(cycle[pos:] + cycle[:pos])
            else:
                others.append(tuple(cycle))  # already starts at its minimum
        others.sort(key=lambda cyc: cyc[0])
        if flavor == "row":
            ordered = (anchor_cycle, *others)
        else:
            ordered = (*reversed(others), anchor_cycle)
        r = 1 + len(others)
        sign = 1 if (n - r) % 2 == 0 else -1
        return CyclePermutation(n=n, cycles=ordered, sign=sign)

    def factor_pairs(self) -> tuple[tuple[int, int], ...]:
        """The 0-based ``(row, col)`` entry positions in multiplication order."""
        pairs: list[tuple[int, int]] = []
        for cycle in self.cycles:
            k = len(cycle)
            for t in range(k):
                pairs.append((cycle[t] - 1, cycle[(t + 1) % k] - 1))
        return tuple(pairs)


@lru_cache(maxsize=None)
def _det_terms(n: int, anchor: int, flavor: str) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
    """Cached signed factor lists for all ``n!`` permutation terms."""
    terms = []
    for images in permutations(range(1, n + 1)):
        perm = CyclePermutation.from_one_line(images, anchor, flavor)
        terms.append((perm.sign, perm.factor_pairs()))
    return tuple(terms)


def _expand(a: QMatrix, anchor: int, flavor: str) -> Quaternion:
    n = a.rows
    if a.rows != a.cols:
        raise NotSquare(f"determinant requires a square matrix, got {a.shape}")
    cap = _MAX_DET_DIM.get()
    if n > cap:
        raise DimensionTooLarge(f"determinant dimension {n} exceeds cap {cap}")
    if not 1 <= anchor <= n:
        raise InvalidSize(f"anchor {anchor} out of range 1..{n}")
    entries = a.entries
    parts = []
    for sign, pairs in _det_terms(n, anchor, flavor):
        prod = entries[pairs[0][0]][pairs[0][1]]
        for r, c in pairs[1:]:
            prod = prod * entries[r][c]
        parts.append(prod if sign > 0 else -prod)
    return qsum(parts)


def rdet(a: QMatrix, i: int) -> Quaternion:
    """Row determinant anchored at 1-based row ``i``."""
    return _expand(a, i, "row")


def cdet(a: QMatrix, j: int) -> Quaternion:
    """Column determinant anchored at 1-based column ``j``."""
    return _expand(a, j, "col")


def hdet(a: QMatrix, tol: float = HDET_TOL, verify: bool = False) -> float:
    """The common real value of all anchored determinants of a Hermitian matrix.

    With ``verify=True`` all ``2n`` anchored determinants are expanded and
    checked to agree within ``tol * (1 + |det|)``; otherwise only ``rdet_1``
    is expanded and checked to be real at the same tolerance.
    """
    scale_tol = tol * (1.0 + fro_scale(a))
    if not is_hermitian(a, scale_tol):
        raise NotHermitian("hdet requires a Hermitian matrix")
    value = rdet(a, 1)
    budget = tol * (1.0 + abs(value.w))
    if abs(value.x) > budget or abs(value.y) > budget or abs(value.z) > budget:
        raise InconsistentDeterminants(
            f"anchored determinant of a Hermitian matrix is not real: {value!r}"
        )
    if verify:
        for anchor in range(1, a.rows + 1):
            for flavor_fn in (rdet, cdet):
                other = flavor_fn(a, anchor)
                if abs(other - value) > budget:
                    raise InconsistentDeterminants(
                        f"anchored determinants disagree: {value!r} vs {other!r}"
                    )
    return value.w


def fro_scale(a: QMatrix) -> float:
    """Max entry magnitude, used to scale Hermitian tolerance checks."""
    return max(abs(q) for row in a.entries for q in row)


def principal_minor_sum(h: QMatrix, r: int, tol: float = HDET_TOL) -> float:
    """Sum of all ``r x r`` principal minors (Hermitian determinants) of ``h``.

    ``r = 0`` returns 1.0 (the empty-product convention used by callers that
    special-case rank-0 matrices away before dividing by this value).
    """
    if h.rows != h.cols:
        raise NotSquare(f"principal minors require a square matrix, got {h.shape}")
    scale_tol = tol * (1.0 + fro_scale(h))
    if not is_hermitian(h, scale_tol):
        raise NotHermitian("principal_minor_sum requires a Hermitian matrix")
    if r == 0:
        return 1.0
    total = 0.0
    for subset in enumerate_subsets(h.rows, r):
        idx = [v - 1 for v in subset.indices]
        sub = h.submatrix(idx, idx)
        total += rdet(sub, 1).w
    return total


def _check_border(h: QMatrix, i: int, d: Sequence[Quaternion], r: int) -> None:
    if h.rows != h.cols:
        raise NotSquare(f"bordered sums require a square matrix, got {h.shape}")
    if len(d) != h.rows:
        raise DimensionMismatch(
            f"replacement vector has length {len(d)}, expected {h.rows}"
        )
    if not 1 <= i <= h.rows:
        raise InvalidSize(f"anchor {i} out of range 1..{h.rows}")
    if not 0 <= r <= h.rows:
        raise InvalidSize(f"subset size {r} out of range 0..{h.rows}")


def bordered_cdet_sum(h: QMatrix, i: int, d: Sequence[Quaternion], r: int) -> Quaternion:
    """``sum over size-r subsets containing i`` of anchored column determinants
    of the principal submatrix of ``h`` with column ``i`` replaced by ``d``.

    Right-linear in ``d``: scalars multiplied onto ``d`` from the right factor
    out of the sum on the right.
    """
    _check_border(h, i, d, r)
    total: list[Quaternion] = []
    for subset in enumerate_subsets(h.rows, r, anchor=i):
        idx = [v - 1 for v in subset.indices]
        sub = h.submatrix(idx, idx)
        local = subset.position_of(i)
        bordered = sub.replace_col(local - 1, [d[v] for v in idx])
        total.append(cdet(bordered, local))
    return qsum(total)


def bordered_rdet_sum(h: QMatrix, j: int, d: Sequence[Quaternion], r: int) -> Quaternion:
    """Mirror of :func:`bordered_cdet_sum`: row ``j`` of each principal
    submatrix is replaced by ``d`` and anchored row determinants are summed.

    Left-linear in ``d``.
    """
    _check_border(h, j, d, r)
    total: list[Quaternion] = []
    for subset in enumerate_subsets(h.rows, r, anchor=j):
        idx = [v - 1 for v in subset.indices]
        sub = h.submatrix(idx, idx)
        local = subset.position_of(j)
        bordered = sub.replace_row(local - 1, [d[v] for v in idx])
        total.append(rdet(bordered, local))
    return qsum(total)
