"""Dense quaternion matrices.

:class:`QMatrix` is immutable: entries are stored as a tuple of row tuples of
:class:`~qsylv.quaternion.Quaternion`.  Arithmetic respects factor order
everywhere (left and right scalar multiplication are distinct operations).

The complex carrier
-------------------

A quaternion matrix ``A = A1 + A2*j`` (``A1``, ``A2`` complex) embeds into the
complex matrix::

    embed(A) = [[ A1,        A2       ],
                [-conj(A2),  conj(A1) ]]

of twice the size.  The embedding is a *-algebra homomorphism
(``embed(A @ B) = embed(A) @ embed(B)``, ``embed(A*) = embed(A)^H``), each
singular value of ``A`` appears twice in ``embed(A)``, and
``rank(A) = rank(embed(A)) / 2``.  Rank and the pseudoinverse oracle are
computed through this carrier with the in-repo Jacobi SVD.

JSON form: ``{"rows": m, "cols": n, "data": [[[w,x,y,z], ...], ...]}`` with
row-major data; parsing rejects ragged rows and non-finite numbers.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from . import svd as _svd
from .errors import DimensionMismatch, NotSquare, OutOfRange, ParseError
from .quaternion import Quaternion, qsum

#: Type alias for the complex numeric carrier used by embeddings.
ComplexMatrix = np.ndarray


def _as_quaternion(value: object) -> Quaternion:
    if isinstance(value, Quaternion):
        return value
    if isinstance(value, (int, float)):
        return Quaternion.real(value)
    raise TypeError(f"matrix entries must be quaternions or reals, got {value!r}")


class QMatrix:
    """An immutable dense quaternion matrix (``rows x cols``, row-major)."""

    __slots__ = ("_entries", "_rows", "_cols")

    def __init__(self, entries: Sequence[Sequence[Quaternion]]):
        rows = tuple(tuple(_as_quaternion(v) for v in row) for row in entries)
        if not rows or not rows[0]:
            raise DimensionMismatch("matrices must have at least one row and one column")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise DimensionMismatch("all rows must have the same length")
        object.__setattr__(self, "_entries", rows)
        object.__setattr__(self, "_rows", len(rows))
        object.__setattr__(self, "_cols", width)

    def __setattr__(self, name: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("QMatrix is immutable")

    # -- basic structure -------------------------------------------------------

    @property
    def rows(self) -> int:
        return self._rows

    @property
    def cols(self) -> int:
        return self._cols

    @property
    def shape(self) -> tuple[int, int]:
        return (self._rows, self._cols)

    @property
    def entries(self) -> tuple[tuple[Quaternion, ...], ...]:
        return self._entries

    def __getitem__(self, key: tuple[int, int]) -> Quaternion:
        r, c = key
        return self._entries[r][c]

    def row(self, r: int) -> tuple[Quaternion, ...]:
        return self._entries[r]

    def col(self, c: int) -> tuple[Quaternion, ...]:
        return tuple(row[c] for row in self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QMatrix):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"QMatrix({self._rows}x{self._cols})"

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def zeros(rows: int, cols: int) -> "QMatrix":
        zero = Quaternion()
        return QMatrix([[zero] * cols for _ in range(rows)])

    @staticmethod
    def identity(n: int) -> "QMatrix":
        one = Quaternion.real(1)
        zero = Quaternion()
        return QMatrix([[one if r == c else zero for c in range(n)] for r in range(n)])

    @staticmethod
    def from_rows(rows: Sequence[Sequence[object]]) -> "QMatrix":
        return QMatrix([[_as_quaternion(v) for v in row] for row in rows])

    @staticmethod
    def build(rows: int, cols: int, fn: Callable[[int, int], Quaternion]) -> "QMatrix":
        return QMatrix([[fn(r, c) for c in range(cols)] for r in range(rows)])

    @staticmethod
    def from_array(values: np.ndarray) -> "QMatrix":
        """Inverse of :func:`quat_array`: entries from a ``rows x cols x 4`` array."""
        return QMatrix([[Quaternion(*q) for q in row] for row in values.tolist()])

    def replace_col(self, c: int, column: Sequence[Quaternion]) -> "QMatrix":
        if len(column) != self._rows:
            raise DimensionMismatch(
                f"replacement column has length {len(column)}, expected {self._rows}"
            )
        return QMatrix(
            [
                [column[r] if j == c else self._entries[r][j] for j in range(self._cols)]
                for r in range(self._rows)
            ]
        )

    def replace_row(self, r: int, row_vals: Sequence[Quaternion]) -> "QMatrix":
        if len(row_vals) != self._cols:
            raise DimensionMismatch(
                f"replacement row has length {len(row_vals)}, expected {self._cols}"
            )
        return QMatrix(
            [
                tuple(row_vals) if i == r else self._entries[i]
                for i in range(self._rows)
            ]
        )

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "QMatrix":
        """Select rows/columns by 0-based index sequences."""
        return QMatrix([[self._entries[r][c] for c in col_idx] for r in row_idx])

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "rows": self._rows,
            "cols": self._cols,
            "data": [[q.to_json() for q in row] for row in self._entries],
        }

    @staticmethod
    def from_json(data: object) -> "QMatrix":
        if not isinstance(data, dict):
            raise ParseError(f"matrix JSON must be an object, got {type(data).__name__}")
        for key in ("rows", "cols", "data"):
            if key not in data:
                raise ParseError(f"matrix JSON missing key {key!r}")
        rows, cols, grid = data["rows"], data["cols"], data["data"]
        if not isinstance(rows, int) or not isinstance(cols, int) or rows < 1 or cols < 1:
            raise ParseError("matrix JSON 'rows'/'cols' must be positive integers")
        if not isinstance(grid, list) or len(grid) != rows:
            raise ParseError(f"matrix JSON 'data' must be a list of {rows} rows")
        parsed = []
        for row in grid:
            if not isinstance(row, list) or len(row) != cols:
                raise ParseError("matrix JSON rows are ragged or not lists")
            parsed.append([Quaternion.from_json(q) for q in row])
        return QMatrix(parsed)

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other: "QMatrix") -> "QMatrix":
        return madd(self, other)

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        return msub(self, other)

    def __neg__(self) -> "QMatrix":
        return QMatrix([[-q for q in row] for row in self._entries])

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        return mmul(self, other)

    def __mul__(self, scalar: object) -> "QMatrix":
        """``M * s``: scalar applied on the *right* of every entry."""
        if isinstance(scalar, (int, float, Quaternion)):
            return scalar_rmul(self, _as_quaternion(scalar))
        return NotImplemented

    def __rmul__(self, scalar: object) -> "QMatrix":
        """``s * M``: scalar applied on the *left* of every entry."""
        if isinstance(scalar, (int, float, Quaternion)):
            return scalar_lmul(_as_quaternion(scalar), self)
        return NotImplemented

    def __truediv__(self, scalar: object) -> "QMatrix":
        if isinstance(scalar, (int, float)):
            d = float(scalar)
            return QMatrix([[q / d for q in row] for row in self._entries])
        return NotImplemented

    @property
    def H(self) -> "QMatrix":
        return ctranspose(self)

    # -- analysis ----------------------------------------------------------------

    def fro_norm(self) -> float:
        return fro_norm(self)

    def rank(self, floor: float = 0.0) -> int:
        return rank(self, floor=floor)

    def is_hermitian(self, tol: float = 0.0) -> bool:
        return is_hermitian(self, tol)


# -- free functions (the module-level operation set) -------------------------------


def madd(a: QMatrix, b: QMatrix) -> QMatrix:
    if a.shape != b.shape:
        raise DimensionMismatch(f"cannot add {a.shape} and {b.shape}")
    return QMatrix(
        [[a[r, c] + b[r, c] for c in range(a.cols)] for r in range(a.rows)]
    )


def msub(a: QMatrix, b: QMatrix) -> QMatrix:
    if a.shape != b.shape:
        raise DimensionMismatch(f"cannot subtract {b.shape} from {a.shape}")
    return QMatrix(
        [[a[r, c] - b[r, c] for c in range(a.cols)] for r in range(a.rows)]
    )


def mmul(a: QMatrix, b: QMatrix) -> QMatrix:
    if a.cols != b.rows:
        raise DimensionMismatch(f"cannot multiply {a.shape} by {b.shape}")
    b_cols = [b.col(c) for c in range(b.cols)]
    return QMatrix(
        [
            [
                qsum(a[r, t] * b_col[t] for t in range(a.cols))
                for b_col in b_cols
            ]
            for r in range(a.rows)
        ]
    )


def scalar_lmul(s: Quaternion, a: QMatrix) -> QMatrix:
    """``s * A`` with the scalar multiplied on the left of every entry."""
    return QMatrix([[s * q for q in row] for row in a.entries])


def scalar_rmul(a: QMatrix, s: Quaternion) -> QMatrix:
    """``A * s`` with the scalar multiplied on the right of every entry."""
    return QMatrix([[q * s for q in row] for row in a.entries])


def ctranspose(a: QMatrix) -> QMatrix:
    """Conjugate transpose ``A*``."""
    return QMatrix(
        [[a[r, c].conjugate() for r in range(a.rows)] for c in range(a.cols)]
    )


def is_hermitian(a: QMatrix, tol: float = 0.0) -> bool:
    """Whether ``A* == A`` entrywise within ``tol`` (requires a square matrix)."""
    if a.rows != a.cols:
        raise NotSquare(f"hermitian test requires a square matrix, got {a.shape}")
    for r in range(a.rows):
        for c in range(r, a.cols):
            diff = a[r, c] - a[c, r].conjugate()
            if abs(diff) > tol:
                return False
    return True


def fro_norm(a: QMatrix) -> float:
    """Frobenius norm ``sqrt(sum |a_ij|^2)``."""
    total = 0.0
    for row in a.entries:
        for q in row:
            total += q.norm_sq()
    return float(np.sqrt(total))


def quat_array(a: QMatrix) -> np.ndarray:
    """The ``rows x cols x 4`` float array of the components ``(w, x, y, z)``."""
    return np.array([[(q.w, q.x, q.y, q.z) for q in row] for row in a.entries])


def pow2_exponent(a: QMatrix) -> int:
    """The ``k`` that puts the largest component of ``2**k * a`` in ``[0.5, 1)``.

    A zero matrix gives 0.  Scaling by ``2**k`` is exact, so rank decisions
    and pseudoinverses taken on the scaled matrix carry over to ``a`` exactly
    while neither squared norms nor Gram entries overflow or underflow.
    """
    peak = max(max(abs(q.w), abs(q.x), abs(q.y), abs(q.z)) for row in a.entries for q in row)
    return -math.frexp(peak)[1]


def scale_pow2(a: QMatrix, k: int) -> QMatrix:
    """``2**k * a``, exact unless an entry leaves the normal float range.

    Raises :class:`OutOfRange` where an entry would overflow.
    """
    if k == 0:
        return a
    try:
        return QMatrix(
            [
                [Quaternion(*(math.ldexp(v, k) for v in (q.w, q.x, q.y, q.z))) for q in row]
                for row in a.entries
            ]
        )
    except OverflowError:
        raise OutOfRange(f"scaling by 2**{k} overflows the float range") from None


def complex_embed(a: QMatrix) -> ComplexMatrix:
    """The ``2m x 2n`` complex embedding described in the module docstring."""
    m, n = a.shape
    a1 = np.empty((m, n), dtype=np.complex128)
    a2 = np.empty((m, n), dtype=np.complex128)
    for r in range(m):
        for c in range(n):
            p, q = a[r, c].complex_parts()
            a1[r, c] = p
            a2[r, c] = q
    top = np.hstack([a1, a2])
    bottom = np.hstack([-np.conj(a2), np.conj(a1)])
    return np.vstack([top, bottom])


def complex_unembed(e: ComplexMatrix, rows: int, cols: int) -> QMatrix:
    """Inverse of :func:`complex_embed`, averaging the two redundant blocks."""
    if e.shape != (2 * rows, 2 * cols):
        raise DimensionMismatch(
            f"embedded matrix has shape {e.shape}, expected {(2 * rows, 2 * cols)}"
        )
    a1 = 0.5 * (e[:rows, :cols] + np.conj(e[rows:, cols:]))
    a2 = 0.5 * (e[:rows, cols:] - np.conj(e[rows:, :cols]))
    return QMatrix.build(
        rows,
        cols,
        lambda r, c: Quaternion.from_complex_parts(complex(a1[r, c]), complex(a2[r, c])),
    )


def embedded_rank(s: np.ndarray, cut: float) -> int:
    """Quaternion rank from the descending singular values ``s`` of an embedding.

    The embedding duplicates each singular value, so the rank is counted over
    every second value of the sorted spectrum; this keeps the embedded rank
    even by construction even when a duplicated pair straddles the cutoff.
    """
    return int(np.count_nonzero(s[::2] > cut))


def rank(a: QMatrix, floor: float = 0.0) -> int:
    """Numerical rank via paired singular values of the complex embedding.

    ``a`` is prescaled by :func:`pow2_exponent` and the absolute ``floor``
    with it, so the decision does not change under power-of-two rescaling.
    """
    k = pow2_exponent(a)
    e = complex_embed(scale_pow2(a, k))
    s = _svd.singular_values(e)
    return embedded_rank(s, _svd.rank_cutoff(e.shape, s, math.ldexp(floor, k)))


def hstack(blocks: Iterable[QMatrix]) -> QMatrix:
    """Concatenate matrices left-to-right."""
    blocks = list(blocks)
    if not blocks:
        raise DimensionMismatch("hstack needs at least one block")
    rows = blocks[0].rows
    if any(b.rows != rows for b in blocks):
        raise DimensionMismatch("hstack blocks must share their row count")
    return QMatrix(
        [
            [q for b in blocks for q in b.row(r)]
            for r in range(rows)
        ]
    )


def vstack(blocks: Iterable[QMatrix]) -> QMatrix:
    """Concatenate matrices top-to-bottom."""
    blocks = list(blocks)
    if not blocks:
        raise DimensionMismatch("vstack needs at least one block")
    cols = blocks[0].cols
    if any(b.cols != cols for b in blocks):
        raise DimensionMismatch("vstack blocks must share their column count")
    return QMatrix([row for b in blocks for row in b.entries])


def block2x2(a: QMatrix, b: QMatrix, c: QMatrix, d: QMatrix) -> QMatrix:
    """Assemble ``[[a, b], [c, d]]``."""
    return vstack([hstack([a, b]), hstack([c, d])])
