"""Dense quaternion matrices.

:class:`QMatrix` is immutable.  A quaternion matrix ``A = A1 + A2*j``
(``A1``, ``A2`` complex) is stored as one read-only ``(2, rows, cols)``
complex128 array holding ``(A1, A2)``; a quaternion ``w + x*i + y*j + z*k``
is the pair ``(w + x*i, y + z*i)``.  Indexing and :attr:`QMatrix.entries`
hand out :class:`~qsylv.quaternion.Quaternion` scalars; arithmetic runs on
the pair.
Since ``j*z = conj(z)*j`` for complex ``z``::

    A @ B = (A1 B1 - A2 conj(B2)) + (A1 B2 + A2 conj(B1)) j
    A*    = A1^H - A2^T j

Left and right scalar multiplication are distinct operations.  Every matrix
is checked on construction: a non-finite entry raises
:class:`~qsylv.errors.OutOfRange`.

The complex carrier
-------------------

A quaternion matrix embeds into the complex matrix::

    embed(A) = [[ A1,        A2       ],
                [-conj(A2),  conj(A1) ]]

of twice the size.  The embedding is a *-algebra homomorphism
(``embed(A @ B) = embed(A) @ embed(B)``, ``embed(A*) = embed(A)^H``), each
singular value of ``A`` appears twice in ``embed(A)``, and
``rank(A) = rank(embed(A)) / 2``.  Rank and the pseudoinverse oracle are
computed through this carrier with the in-repo Jacobi SVD; :func:`ranks`
decides the ranks of several matrices in one batched, values-only Jacobi
pass over the conjugate transposes of their Householder ``R`` factors
(:func:`~qsylv.svd.spectra`), which stops once every rank is certain.

JSON form: ``{"rows": m, "cols": n, "data": [[[w,x,y,z], ...], ...]}`` with
row-major data; parsing rejects ragged rows and non-finite numbers.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from . import svd as _svd
from .errors import DimensionMismatch, NotSquare, OutOfRange, ParseError, ZeroDivisor
from .quaternion import Quaternion


def _as_quaternion(value: object) -> Quaternion:
    if isinstance(value, Quaternion):
        return value
    if isinstance(value, (int, float)):
        return Quaternion(float(value))
    raise TypeError(f"matrix entries must be quaternions or reals, got {value!r}")


def _pair_of(components: np.ndarray) -> np.ndarray:
    """The ``(2, m, n)`` complex pair of an ``m x n x 4`` component array."""
    m, n = components.shape[:2]
    pair = np.empty((2, m, n), dtype=np.complex128)
    pair.view(np.float64).reshape(2, m, n, 2)[...] = (
        components.reshape(m, n, 2, 2).transpose(2, 0, 1, 3)
    )
    return pair


def _set_pair(target: "QMatrix", pair: np.ndarray) -> None:
    if pair.shape[1] == 0 or pair.shape[2] == 0:
        raise DimensionMismatch("matrices must have at least one row and one column")
    if np.count_nonzero(np.isfinite(pair)) != pair.size:
        raise OutOfRange("matrix entries must be finite")
    if pair.dtype != np.complex128 or not pair.flags.c_contiguous:
        pair = np.ascontiguousarray(pair, dtype=np.complex128)
    pair.setflags(write=False)
    object.__setattr__(target, "_pair", pair)


class QMatrix:
    """An immutable dense quaternion matrix (``rows x cols``, row-major)."""

    __slots__ = ("_pair",)

    def __init__(self, entries: Sequence[Sequence[Quaternion]]):
        rows = [[_as_quaternion(v) for v in row] for row in entries]
        if not rows or not rows[0]:
            raise DimensionMismatch("matrices must have at least one row and one column")
        if any(len(row) != len(rows[0]) for row in rows):
            raise DimensionMismatch("all rows must have the same length")
        _set_pair(self, _pair_of(np.array([[(q.w, q.x, q.y, q.z) for q in row] for row in rows])))

    @classmethod
    def _of(cls, pair: np.ndarray) -> "QMatrix":
        """Wrap a ``(2, rows, cols)`` complex pair ``(A1, A2)``."""
        out = object.__new__(cls)
        _set_pair(out, pair)
        return out

    def __setattr__(self, name: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("QMatrix is immutable")

    # -- basic structure -------------------------------------------------------

    @property
    def rows(self) -> int:
        return self._pair.shape[1]

    @property
    def cols(self) -> int:
        return self._pair.shape[2]

    @property
    def shape(self) -> tuple[int, int]:
        return self._pair.shape[1:]

    @property
    def entries(self) -> tuple[tuple[Quaternion, ...], ...]:
        return tuple(tuple(Quaternion(*q) for q in row) for row in quat_array(self).tolist())

    def __getitem__(self, key: tuple[int, int]) -> Quaternion:
        a1, a2 = self._pair[(slice(None), *key)].tolist()
        return Quaternion(a1.real, a1.imag, a2.real, a2.imag)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QMatrix):
            return NotImplemented
        return self.shape == other.shape and bool(np.array_equal(self._pair, other._pair))

    def __hash__(self) -> int:
        # adding 0.0 turns -0.0 into 0.0, so equal matrices hash alike
        return hash((self.shape, (self._pair + 0.0).tobytes()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"QMatrix({self.rows}x{self.cols})"

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def zeros(rows: int, cols: int) -> "QMatrix":
        return QMatrix._of(np.zeros((2, rows, cols), dtype=np.complex128))

    @staticmethod
    @lru_cache(maxsize=32)
    def identity(n: int) -> "QMatrix":
        """The ``n x n`` identity; one shared (immutable) matrix per size."""
        pair = np.zeros((2, n, n), dtype=np.complex128)
        pair[0] = np.eye(n)
        return QMatrix._of(pair)

    @staticmethod
    def from_rows(rows: Sequence[Sequence[object]]) -> "QMatrix":
        return QMatrix(rows)

    @staticmethod
    def from_array(values: np.ndarray) -> "QMatrix":
        """Inverse of :func:`quat_array`: entries from a ``rows x cols x 4`` array."""
        return QMatrix._of(_pair_of(values))

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        return {"rows": self.rows, "cols": self.cols, "data": quat_array(self).tolist()}

    @staticmethod
    def from_json(data: object) -> "QMatrix":
        if not isinstance(data, dict):
            raise ParseError(f"matrix JSON must be an object, got {type(data).__name__}")
        for key in ("rows", "cols", "data"):
            if key not in data:
                raise ParseError(f"matrix JSON missing key {key!r}")
        rows, cols, grid = data["rows"], data["cols"], data["data"]
        if any(isinstance(v, bool) or not isinstance(v, int) or v < 1 for v in (rows, cols)):
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

    @np.errstate(over="ignore", invalid="ignore")  # _set_pair reports overflow
    def __add__(self, other: "QMatrix") -> "QMatrix":
        if self.shape != other.shape:
            raise DimensionMismatch(f"cannot add {self.shape} and {other.shape}")
        return QMatrix._of(self._pair + other._pair)

    @np.errstate(over="ignore", invalid="ignore")  # _set_pair reports overflow
    def __sub__(self, other: "QMatrix") -> "QMatrix":
        if self.shape != other.shape:
            raise DimensionMismatch(f"cannot subtract {other.shape} from {self.shape}")
        return QMatrix._of(self._pair - other._pair)

    def __neg__(self) -> "QMatrix":
        return QMatrix._of(-self._pair)

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        return mmul(self, other)

    def __mul__(self, scalar: object) -> "QMatrix":
        """``M * s``: scalar applied on the *right* of every entry."""
        if isinstance(scalar, (int, float)):
            return self._scaled(np.multiply, scalar)
        if isinstance(scalar, Quaternion):
            return scalar_rmul(self, scalar)
        return NotImplemented

    def __rmul__(self, scalar: object) -> "QMatrix":
        """``s * M``: scalar applied on the *left* of every entry."""
        if isinstance(scalar, (int, float)):
            return self._scaled(np.multiply, scalar)
        if isinstance(scalar, Quaternion):
            return scalar_lmul(scalar, self)
        return NotImplemented

    def __truediv__(self, scalar: object) -> "QMatrix":
        """``M / d`` for a real ``d``; ``d == 0`` raises :class:`ZeroDivisor`."""
        if isinstance(scalar, (int, float)):
            if scalar == 0:
                raise ZeroDivisor("division of a matrix by zero")
            return self._scaled(np.divide, scalar)
        return NotImplemented

    @np.errstate(over="ignore", invalid="ignore")  # _set_pair reports overflow
    def _scaled(self, op: Callable, real: float) -> "QMatrix":
        # A real scalar commutes with every entry and acts on each real
        # component alone; complex arithmetic would not round the same.
        out = np.empty_like(self._pair)
        op(self._pair.view(np.float64), float(real), out=out.view(np.float64))
        return QMatrix._of(out)

    @property
    def H(self) -> "QMatrix":
        return ctranspose(self)

    # -- analysis ----------------------------------------------------------------

    def fro_norm(self) -> float:
        return fro_norm(self)

    def is_zero(self) -> bool:
        """Whether no entry is nonzero (``-0.0`` counts as zero)."""
        return not self._pair.any()

    def is_identity(self) -> bool:
        """Whether this is exactly :meth:`identity` of its size (``-0.0`` counts
        as zero).  The first entry is read first, so most matrices are refused
        without a full comparison."""
        pair = self._pair
        return (pair.shape[1] == pair.shape[2] and pair.item(0) == 1
                and bool((pair == QMatrix.identity(pair.shape[1])._pair).all()))

    def trace(self) -> Quaternion:
        """The sum of the diagonal entries."""
        return Quaternion(*np.trace(quat_array(self)).tolist())


# -- free functions (the module-level operation set) -------------------------------


# The kernels let a result overflow quietly: _set_pair checks every result for
# finiteness and raises OutOfRange.  As a decorator, np.errstate costs about
# half what a with-block does.
@np.errstate(over="ignore", invalid="ignore")
def _pair_product(a: np.ndarray, b: np.ndarray, product: Callable) -> np.ndarray:
    """``(A1 + A2 j)(B1 + B2 j)`` for the pairs ``a = (A1, A2)``, ``b = (B1, B2)``.

    One ``product`` call (``np.matmul`` or ``np.multiply``) forms the four
    complex block products, ``(A1, A2)`` against ``[[B1, B2], [conj(B2),
    conj(B1)]]``; one subtraction and one addition combine them into a fresh
    array.
    """
    rhs = np.empty((2, *b.shape), dtype=np.complex128)
    rhs[0] = b
    np.conjugate(b[::-1], out=rhs[1])
    blocks = product(a[:, None], rhs)
    out = np.empty(blocks.shape[1:], dtype=np.complex128)
    np.subtract(blocks[0, 0], blocks[1, 0], out=out[0])
    np.add(blocks[0, 1], blocks[1, 1], out=out[1])
    return out


def _scalar_pair(s: Quaternion) -> np.ndarray:
    """The pair of ``s`` shaped to broadcast against a matrix pair."""
    return np.array([complex(s.w, s.x), complex(s.y, s.z)]).reshape(2, 1, 1)


def mmul(a: QMatrix, b: QMatrix) -> QMatrix:
    if a.cols != b.rows:
        raise DimensionMismatch(f"cannot multiply {a.shape} by {b.shape}")
    return QMatrix._of(_pair_product(a._pair, b._pair, np.matmul))


def scalar_lmul(s: Quaternion, a: QMatrix) -> QMatrix:
    """``s * A`` with the scalar multiplied on the left of every entry."""
    return QMatrix._of(_pair_product(_scalar_pair(s), a._pair, np.multiply))


def scalar_rmul(a: QMatrix, s: Quaternion) -> QMatrix:
    """``A * s`` with the scalar multiplied on the right of every entry."""
    return QMatrix._of(_pair_product(a._pair, _scalar_pair(s), np.multiply))


def ctranspose(a: QMatrix) -> QMatrix:
    """Conjugate transpose ``A* = A1^H - A2^T j``."""
    a1, a2 = a._pair
    out = np.empty((2, a.cols, a.rows), dtype=np.complex128)
    np.conjugate(a1.T, out=out[0])
    np.negative(a2.T, out=out[1])
    return QMatrix._of(out)


def is_hermitian(a: QMatrix, tol: float = 0.0) -> bool:
    """Whether ``A* == A`` entrywise within ``tol`` (requires a square matrix)."""
    if a.rows != a.cols:
        raise NotSquare(f"hermitian test requires a square matrix, got {a.shape}")
    return bool((np.hypot(*np.abs((a - ctranspose(a))._pair)) <= tol).all())


def fro_norm(a: QMatrix) -> float:
    """Frobenius norm ``sqrt(sum |a_ij|^2)``, free of intermediate overflow and underflow."""
    return math.hypot(*a._pair.view(np.float64).ravel().tolist())


def quat_array(a: QMatrix) -> np.ndarray:
    """The ``rows x cols x 4`` float array of the components ``(w, x, y, z)``."""
    m, n = a.shape
    return a._pair.view(np.float64).reshape(2, m, n, 2).transpose(1, 2, 0, 3).reshape(m, n, 4)


def pow2_exponent(a: QMatrix) -> int:
    """The ``k`` that puts the largest component of ``2**k * a`` in ``[0.5, 1)``.

    A zero matrix gives 0.  Scaling by ``2**k`` is exact, so rank decisions
    and pseudoinverses taken on the scaled matrix carry over to ``a`` exactly
    while neither squared norms nor Gram entries overflow or underflow.
    """
    return _svd.pow2_exponent(a._pair)


def scale_pow2(a: QMatrix, k: int) -> QMatrix:
    """``2**k * a``, exact unless an entry leaves the normal float range.

    Raises :class:`OutOfRange` where an entry would overflow.
    """
    if k == 0:
        return a
    with np.errstate(over="ignore"):
        pair = _svd.scale_pow2(a._pair, k)
    try:
        return QMatrix._of(pair)
    except OutOfRange:
        raise OutOfRange(f"scaling by 2**{k} overflows the float range") from None


def complex_embed(a: QMatrix) -> np.ndarray:
    """The ``2m x 2n`` complex embedding described in the module docstring."""
    m, n = a.shape
    out = np.empty((2 * m, 2 * n), dtype=np.complex128)
    top, bottom = out.reshape(2, m, 2, n)  # block (r, c) is top/bottom[:, c]
    np.copyto(top, a._pair.transpose(1, 0, 2))
    np.conjugate(a._pair[::-1].transpose(1, 0, 2), out=bottom)
    np.negative(bottom[:, 0], out=bottom[:, 0])
    return out


@np.errstate(over="ignore", invalid="ignore")  # _set_pair reports overflow
def complex_unembed(e: np.ndarray, rows: int, cols: int) -> QMatrix:
    """Inverse of :func:`complex_embed`, averaging the two redundant blocks."""
    if e.shape != (2 * rows, 2 * cols):
        raise DimensionMismatch(
            f"embedded matrix has shape {e.shape}, expected {(2 * rows, 2 * cols)}"
        )
    out = np.empty((2, rows, cols), dtype=np.complex128)
    np.conjugate(e[rows:, cols:], out=out[0])
    np.conjugate(e[rows:, :cols], out=out[1])
    np.add(e[:rows, :cols], out[0], out=out[0])
    np.subtract(e[:rows, cols:], out[1], out=out[1])
    np.multiply(out, 0.5, out=out)
    return QMatrix._of(out)


def embedded_rank(s: np.ndarray, cut: float) -> int:
    """Quaternion rank from the descending singular values ``s`` of an embedding.

    The embedding duplicates each singular value, so the rank is counted over
    every second value of the sorted spectrum; this keeps the embedded rank
    even by construction even when a duplicated pair straddles the cutoff.
    """
    return int(np.count_nonzero(s[::2] > cut))


def ranks(mats: Sequence[QMatrix]) -> list[int]:
    """The :func:`rank` of each matrix, read off one batched Jacobi pass.

    The pass is :func:`~qsylv.svd.spectra`'s: it rotates the conjugate
    transpose of each embedded member's Householder ``R`` factor, which has
    the member's singular values, and the cutoff is the member's own, from
    its own shape.  It stops as soon as every member's count of values above
    that cutoff is certain, so the ranks are those of the converged values
    while the values themselves may be far from converged.  The batch
    prescales each member by its own power of two,
    so no member's scale reaches another's decision.  A zero
    matrix has rank 0 and an exact identity its size, which is what the
    decomposition gives; neither takes one, and a list of them takes no pass.
    """
    out = [a.rows if a.is_identity() else 0 for a in mats]
    embedded = {i: complex_embed(a) for i, a in enumerate(mats)
                if not (out[i] or a.is_zero())}
    if embedded:
        for (i, e), s in zip(embedded.items(), _svd.spectra(list(embedded.values()))):
            out[i] = embedded_rank(s, _svd.rank_cutoff(e.shape, s))
    return out


def rank(a: QMatrix) -> int:
    """Numerical rank via paired singular values of the complex embedding:
    the one-member case of :func:`ranks`.

    The SVD prescales its input by a power of two, so the decision does not
    change under power-of-two rescaling of ``a``.  A zero matrix or an exact
    identity takes no SVD.  A rank with an absolute floor is read off
    :func:`~qsylv.mpinv.mp_oracles`, which takes one floor per matrix.
    """
    return ranks([a])[0]


def _concat(blocks: Iterable[QMatrix], axis: int) -> QMatrix:
    pairs = [b._pair for b in blocks]
    if not pairs:
        raise DimensionMismatch("stacking needs at least one block")
    if len({p.shape[3 - axis] for p in pairs}) != 1:
        raise DimensionMismatch("stacked blocks must agree in their other dimension")
    return QMatrix._of(np.concatenate(pairs, axis=axis))


def hstack(blocks: Iterable[QMatrix]) -> QMatrix:
    """Concatenate matrices left-to-right."""
    return _concat(blocks, 2)


def vstack(blocks: Iterable[QMatrix]) -> QMatrix:
    """Concatenate matrices top-to-bottom."""
    return _concat(blocks, 1)


def block2x2(a: QMatrix, b: QMatrix, c: QMatrix, d: QMatrix) -> QMatrix:
    """Assemble ``[[a, b], [c, d]]``."""
    return vstack([hstack([a, b]), hstack([c, d])])
