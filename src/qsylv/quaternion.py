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

from .errors import ParseError, ZeroDivisor

#: Squared-norm threshold below which a quaternion is treated as a zero divisor.
EPS_ZERO = 1e-12

Real = Union[int, float]


def _coerce(value: "Quaternion | Real") -> "Quaternion":
    if isinstance(value, Quaternion):
        return value
    if isinstance(value, (int, float)):
        return Quaternion(float(value), 0.0, 0.0, 0.0)
    return NotImplemented  # type: ignore[return-value]


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
            value = float(part)
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
        return math.sqrt(self.norm_sq())

    def inverse(self) -> "Quaternion":
        n2 = self.norm_sq()
        if n2 < EPS_ZERO:
            raise ZeroDivisor(f"cannot invert quaternion with squared norm {n2!r}")
        return Quaternion(self.w / n2, -self.x / n2, -self.y / n2, -self.z / n2)

    def is_real(self, tol: float = 0.0) -> bool:
        return abs(self.x) <= tol and abs(self.y) <= tol and abs(self.z) <= tol

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
        a, b = self, other
        return Quaternion(
            a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
            a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
            a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x,
            a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w,
        )

    def __rmul__(self, other: "Quaternion | Real") -> "Quaternion":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self

    def __truediv__(self, other: Real) -> "Quaternion":
        """Division by a *real* scalar only (side-free); use :meth:`inverse` otherwise."""
        if not isinstance(other, (int, float)):
            return NotImplemented
        d = float(other)
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
