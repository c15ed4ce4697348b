"""Brute-force reference for the determinant engine in ``qsylv.rcdet``.

These are the scalar, one-term-at-a-time expansions the package used before
its coefficient form, together with their own index subsets and canonical
cycle form: every permutation term is a left-to-right product of
:class:`~qsylv.quaternion.Quaternion` factors, and every bordered sum builds
each bordered principal submatrix from the matrix's entries and expands it.
Nothing here reads the engine's tables, so tests can compare the vectorized
engine, and the index tables it builds, against an independent term list.
:func:`coefficients_mp` evaluates the engine's coefficient matrices from that
term list in ``mpmath`` at 60 digits, so tests can check how close the
engine's float results come to the exact ones.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations, product
from typing import Optional, Sequence

import mpmath
import numpy as np

from qsylv.errors import InvalidSize
from qsylv.qmatrix import QMatrix
from qsylv.quaternion import Quaternion, qsum
from qsylv.quaternion import product as quaternion_product

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
    subsets = (IndexSubset(n, combo) for combo in combinations(range(1, n + 1), r))
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
def det_terms(n: int, anchor: int, flavor: str) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
    """Signed factor lists for all ``n!`` permutation terms, in lexicographic order."""
    terms = []
    for images in permutations(range(1, n + 1)):
        perm = CyclePermutation.from_one_line(images, anchor, flavor)
        terms.append((perm.sign, perm.factor_pairs()))
    return tuple(terms)


def term_table(r: int, flavor: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``(rows, cols, signs)`` layout of ``qsylv.rcdet._term_table``, from :func:`det_terms`."""
    per_group = math.factorial(r - 1)
    rows = np.empty((r, r, per_group, r - 1), dtype=np.intp)
    cols = np.empty((r, r, per_group, r - 1), dtype=np.intp)
    signs = np.empty((r, r, per_group))
    for p in range(r):
        filled = [0] * r
        for sign, pairs in det_terms(r, p + 1, flavor):
            if flavor == "col":
                v, rest = pairs[-1][0], pairs[:-1]
            else:
                v, rest = pairs[0][1], pairs[1:]
            t = filled[v]
            filled[v] += 1
            signs[p, v, t] = sign
            rows[p, v, t] = [row for row, _ in rest]
            cols[p, v, t] = [col for _, col in rest]
    return rows, cols, signs


# -- scalar expansions -----------------------------------------------------------


def expand(a: QMatrix, anchor: int, flavor: str) -> Quaternion:
    """Anchored determinant of ``a``, one canonical-cycle term at a time."""
    entries = a.entries
    parts = []
    for sign, pairs in det_terms(a.rows, anchor, flavor):
        prod = entries[pairs[0][0]][pairs[0][1]]
        for r, c in pairs[1:]:
            prod = prod * entries[r][c]
        parts.append(prod if sign > 0 else -prod)
    return qsum(parts)


def rdet(a: QMatrix, i: int) -> Quaternion:
    return expand(a, i, "row")


def cdet(a: QMatrix, j: int) -> Quaternion:
    return expand(a, j, "col")


# -- principal and bordered submatrices -------------------------------------------


def principal(h: QMatrix, idx: Sequence[int]) -> QMatrix:
    """The principal submatrix of ``h`` on the 0-based indices ``idx``."""
    entries = h.entries
    return QMatrix([[entries[row][col] for col in idx] for row in idx])


def bordered(h: QMatrix, idx: Sequence[int], local: int, d: Sequence[Quaternion],
             flavor: str) -> QMatrix:
    """:func:`principal` with its 0-based column (``flavor="col"``) or row
    (``flavor="row"``) ``local`` replaced by ``d`` restricted to ``idx``."""
    block = [list(row) for row in principal(h, idx).entries]
    for t, v in enumerate(idx):
        if flavor == "col":
            block[t][local] = d[v]
        else:
            block[local][t] = d[v]
    return QMatrix(block)


def principal_minor_sum(h: QMatrix, r: int) -> float:
    if r == 0:
        return 1.0
    total = 0.0
    for subset in enumerate_subsets(h.rows, r):
        idx = [v - 1 for v in subset.indices]
        total += rdet(principal(h, idx), 1).w
    return total


def bordered_cdet_sum(h: QMatrix, i: int, d: Sequence[Quaternion], r: int) -> Quaternion:
    total = []
    for subset in enumerate_subsets(h.rows, r, anchor=i):
        idx = [v - 1 for v in subset.indices]
        local = subset.position_of(i)
        total.append(cdet(bordered(h, idx, local - 1, d, "col"), local))
    return qsum(total)


def bordered_rdet_sum(h: QMatrix, j: int, d: Sequence[Quaternion], r: int) -> Quaternion:
    total = []
    for subset in enumerate_subsets(h.rows, r, anchor=j):
        idx = [v - 1 for v in subset.indices]
        local = subset.position_of(j)
        total.append(rdet(bordered(h, idx, local - 1, d, "row"), local))
    return qsum(total)


# -- high-precision coefficients -------------------------------------------------


def coefficients_mp(h: QMatrix, r: int, flavor: str) -> list[list[tuple]]:
    """``cdet_coeffs(h, r)`` (``flavor="col"``) or ``rdet_coeffs(h, r)``
    (``flavor="row"``), ``r >= 1``, with every term evaluated in ``mpmath`` at
    60 significant digits: nested lists of ``(w, x, y, z)`` tuples of ``mpf``.

    The terms are those of :func:`term_table` over :func:`enumerate_subsets`,
    each a left-to-right :func:`~qsylv.quaternion.product` of ``mpf``
    components, so at 60 digits every coefficient is exact to far below a
    float's rounding.
    """
    rows, cols, signs = term_table(r, flavor)
    with mpmath.workdps(60):
        entries = [[tuple(map(mpmath.mpf, (e.w, e.x, e.y, e.z))) for e in row] for row in h.entries]
        zero = (mpmath.mpf(0),) * 4
        out = [[zero] * h.rows for _ in range(h.rows)]
        for subset in enumerate_subsets(h.rows, r):
            idx = [v - 1 for v in subset.indices]
            for p, v in product(range(r), repeat=2):
                total = zero
                for t, sign in enumerate(signs[p, v]):
                    term = (mpmath.mpf(sign), 0, 0, 0)
                    for row, col in zip(rows[p, v, t], cols[p, v, t]):
                        term = quaternion_product(term, entries[idx[row]][idx[col]])
                    total = tuple(map(operator.add, total, term))
                i, j = (idx[p], idx[v]) if flavor == "col" else (idx[v], idx[p])
                out[i][j] = tuple(map(operator.add, out[i][j], total))
    return out
