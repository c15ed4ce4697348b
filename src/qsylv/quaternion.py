"""Scalar quaternion arithmetic.

A quaternion is ``w + x*i + y*j + z*k`` with real components and the usual
multiplication table ``i**2 = j**2 = k**2 = i*j*k = -1`` (so ``ij = k``,
``jk = i``, ``ki = j`` and the reversed products carry a minus sign).
Multiplication is not commutative; everything downstream in this package is
built to respect factor order.

JSON form: a quaternion is the 4-list ``[w, x, y, z]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Union

from .errors import OutOfRange, ParseError, ZeroDivisor

Real = Union[int, float]


def product(a, b):
    """Components ``(w, x, y, z)`` of ``a * b`` from the 4-sequences of components
    ``a`` and ``b``: floats for one product, arrays for an elementwise batch."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def _coerce(value: "Quaternion | Real") -> "Quaternion":
    if isinstance(value, Quaternion):
        return value
    if isinstance(value, (int, float)):
        return Quaternion(float(value), 0.0, 0.0, 0.0)
    return NotImplemented  # type: ignore[return-value]


# A dataclass, not a NamedTuple like the result records: NumPy would read a
# tuple subclass as a 4-vector wherever a quaternion meets an array.
@dataclass(frozen=True, slots=True)
class Quaternion:
    """An immutable quaternion ``w + x*i + y*j + z*k``."""

    w: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def from_json(data: object) -> "Quaternion":
        """Parse the JSON 4-list ``[w, x, y, z]``."""
        if not isinstance(data, (list, tuple)) or len(data) != 4:
            raise ParseError(f"quaternion JSON must be a 4-list, got {data!r}")
        comps = []
        for part in data:
            if isinstance(part, bool) or not isinstance(part, (int, float)):
                raise ParseError(f"quaternion component must be a number, got {part!r}")
            try:
                value = float(part)
            except OverflowError as exc:  # an integer beyond the float range
                raise ParseError("quaternion component is out of the float range") from exc
            if not math.isfinite(value):
                raise ParseError(f"quaternion component must be finite, got {part!r}")
            comps.append(value)
        return Quaternion(*comps)

    # -- serialization --------------------------------------------------------

    def to_json(self) -> list[float]:
        return [self.w, self.x, self.y, self.z]

    # -- structure ------------------------------------------------------------

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm_sq(self) -> float:
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def norm(self) -> float:
        """``|q|``, finite whenever it is representable: no component is squared."""
        return math.hypot(self.w, self.x, self.y, self.z)

    def inverse(self) -> "Quaternion":
        """``conj(q) / |q|**2``, formed on ``2**k q`` with the largest component
        in ``[0.5, 1)`` and scaled back exactly, so ``(2**k q)**-1 == 2**-k q**-1``.
        Only zero raises :class:`ZeroDivisor`; a non-finite component or an
        overflow raises :class:`OutOfRange`."""
        comps = (self.w, self.x, self.y, self.z)
        if not all(map(math.isfinite, comps)):  # max() would skip a NaN past the first
            raise OutOfRange("cannot invert a quaternion with a non-finite component")
        top = max(map(abs, comps))
        if top == 0.0:
            raise ZeroDivisor("cannot invert the zero quaternion")
        k = -math.frexp(top)[1]
        u = Quaternion(*(math.ldexp(c, k) for c in comps))
        n2 = u.norm_sq()
        try:
            return Quaternion(*(math.ldexp(c / n2, k) for c in (u.w, -u.x, -u.y, -u.z)))
        except OverflowError:
            raise OutOfRange("the inverse of the quaternion overflows the float range") from None

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "Quaternion | Real") -> "Quaternion":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Quaternion(self.w + other.w, self.x + other.x, self.y + other.y, self.z + other.z)

    __radd__ = __add__

    def __sub__(self, other: "Quaternion | Real") -> "Quaternion":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Quaternion(self.w - other.w, self.x - other.x, self.y - other.y, self.z - other.z)

    def __rsub__(self, other: "Quaternion | Real") -> "Quaternion":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other: "Quaternion | Real") -> "Quaternion":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Quaternion(*product((self.w, self.x, self.y, self.z),
                                   (other.w, other.x, other.y, other.z)))

    def __rmul__(self, other: "Quaternion | Real") -> "Quaternion":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self

    def __truediv__(self, other: Real) -> "Quaternion":
        """Division by a nonzero *real* scalar only (side-free); use :meth:`inverse`
        otherwise.  Zero raises :class:`ZeroDivisor`."""
        if not isinstance(other, (int, float)):
            return NotImplemented
        d = float(other)
        if d == 0.0:
            raise ZeroDivisor("division of a quaternion by zero")
        return Quaternion(self.w / d, self.x / d, self.y / d, self.z / d)

    def __abs__(self) -> float:
        return self.norm()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Quaternion({self.w!r}, {self.x!r}, {self.y!r}, {self.z!r})"


def qsum(values: Iterable[Quaternion]) -> Quaternion:
    """Sum of quaternions (componentwise, associative)."""
    w = x = y = z = 0.0
    for v in values:
        w += v.w
        x += v.x
        y += v.y
        z += v.z
    return Quaternion(w, x, y, z)
