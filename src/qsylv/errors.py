"""Exception types shared across the package.

Every error raised by the public API derives from :class:`QsylvError`, so callers
can catch one base class.  The CLI maps these onto process exit codes.
"""

from __future__ import annotations


class QsylvError(Exception):
    """Base class for all errors raised by this package."""


class ZeroDivisor(QsylvError, ZeroDivisionError):
    """Division by an exact zero (a quaternion, real or principal-minor sum)."""


class DimensionMismatch(QsylvError):
    """Operands have incompatible shapes."""


class NotSquare(QsylvError):
    """A square matrix was required."""


class NotHermitian(QsylvError):
    """A Hermitian matrix was required."""


class InconsistentDeterminants(QsylvError):
    """The row/column determinants of a claimed-Hermitian matrix disagree."""


class InvalidSize(QsylvError):
    """An index subset request is out of range."""


class DimensionTooLarge(QsylvError):
    """A determinant expansion beyond the configured dimension cap was requested."""


class NotConverged(QsylvError):
    """An iterative decomposition stopped at its sweep limit before converging."""


class OutOfRange(QsylvError):
    """A result lies outside the range of finite floating-point numbers."""


class Inconsistent(QsylvError):
    """The equation failed its consistency criteria and ``force`` was not set.

    Carries the offending consistency report as ``report`` when available.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class ConstraintViolated(QsylvError):
    """A coefficient or free-parameter matrix violates a constraint its kind requires."""


class ParseError(QsylvError):
    """Malformed matrix/quaternion JSON."""
