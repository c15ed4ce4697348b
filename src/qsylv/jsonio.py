"""Deterministic JSON through the standard library's encoder.

:func:`dumps` writes one line, with containers in insertion order and the
encoder's fixed ``", "``/``": "`` separators, so the same document always
gives the same bytes.  Each float is written as its ``repr``: the shortest
decimal that reads back as the same double, bit for bit, and that always
carries a decimal point or an exponent, so ``2.0`` parses back as a float
and ``-0.0`` keeps its sign.  A non-finite float, a non-string key, a type
the encoder does not know and a result record (a ``NamedTuple``, which the
encoder would write as a bare array) each raise ``ValueError``.
"""

from __future__ import annotations

import json
from typing import Any, NoReturn

from .errors import ParseError


def _refuse(obj: Any) -> NoReturn:
    raise ValueError(f"cannot serialize object of type {type(obj).__name__}")


def _refuse_records(obj: Any) -> None:
    """Raise on a record or a non-string key anywhere in ``obj``."""
    if isinstance(obj, dict):
        for key in obj:
            if not isinstance(key, str):
                raise ValueError(f"JSON object keys must be strings, got {key!r}")
        items = obj.values()
    elif isinstance(obj, (list, tuple)):
        if hasattr(obj, "_fields"):
            _refuse(obj)
        items = obj
    else:
        return
    for item in items:
        _refuse_records(item)


def dumps(obj: Any) -> str:
    """Serialize to a single deterministic line of JSON."""
    _refuse_records(obj)
    return json.dumps(obj, allow_nan=False, default=_refuse)


def loads(text: str) -> Any:
    """Parse ``text``; malformed JSON, an integer literal too long to convert
    and nesting too deep to parse all raise :class:`ParseError`."""
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or the integer digit limit
        raise ParseError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError("invalid JSON: nested too deeply") from exc


def read_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return loads(text)


def write_json(path: str, obj: Any) -> None:
    text = dumps(obj) + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
