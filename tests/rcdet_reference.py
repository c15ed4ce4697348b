"""Brute-force reference for the determinant engine in ``qsylv.rcdet``.

These are the scalar, one-term-at-a-time expansions the package used before
its coefficient form: every permutation term is a left-to-right product of
:class:`~qsylv.quaternion.Quaternion` factors, and every bordered sum builds
each bordered principal submatrix and expands it.  Tests compare the
vectorized engine against them.
"""

from __future__ import annotations

from typing import Sequence

from qsylv.qmatrix import QMatrix
from qsylv.quaternion import Quaternion, qsum
from qsylv.rcdet import _det_terms, enumerate_subsets


def expand(a: QMatrix, anchor: int, flavor: str) -> Quaternion:
    """Anchored determinant of ``a``, one canonical-cycle term at a time."""
    entries = a.entries
    parts = []
    for sign, pairs in _det_terms(a.rows, anchor, flavor):
        prod = entries[pairs[0][0]][pairs[0][1]]
        for r, c in pairs[1:]:
            prod = prod * entries[r][c]
        parts.append(prod if sign > 0 else -prod)
    return qsum(parts)


def rdet(a: QMatrix, i: int) -> Quaternion:
    return expand(a, i, "row")


def cdet(a: QMatrix, j: int) -> Quaternion:
    return expand(a, j, "col")


def principal_minor_sum(h: QMatrix, r: int) -> float:
    if r == 0:
        return 1.0
    total = 0.0
    for subset in enumerate_subsets(h.rows, r):
        idx = [v - 1 for v in subset.indices]
        total += rdet(h.submatrix(idx, idx), 1).w
    return total


def bordered_cdet_sum(h: QMatrix, i: int, d: Sequence[Quaternion], r: int) -> Quaternion:
    total = []
    for subset in enumerate_subsets(h.rows, r, anchor=i):
        idx = [v - 1 for v in subset.indices]
        local = subset.position_of(i)
        bordered = h.submatrix(idx, idx).replace_col(local - 1, [d[v] for v in idx])
        total.append(cdet(bordered, local))
    return qsum(total)


def bordered_rdet_sum(h: QMatrix, j: int, d: Sequence[Quaternion], r: int) -> Quaternion:
    total = []
    for subset in enumerate_subsets(h.rows, r, anchor=j):
        idx = [v - 1 for v in subset.indices]
        local = subset.position_of(j)
        bordered = h.submatrix(idx, idx).replace_row(local - 1, [d[v] for v in idx])
        total.append(rdet(bordered, local))
    return qsum(total)
