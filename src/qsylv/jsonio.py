"""Deterministic JSON serialization with bit-exact float round-trips.

Floats are emitted with 17 significant digits (enough to reconstruct any
IEEE double exactly) and always carry a decimal point or exponent so they
parse back as floats, never as integers — ``2.0`` is written ``"2.0"``, not
``"2"``, and ``-0.0`` keeps its sign.  Containers are emitted in insertion
order with fixed separators, so the same document always produces the same
bytes.
"""

from __future__ import annotations

import json
import math
from typing import Any

from .errors import ParseError


def format_float(value: float) -> str:
    """Shortest-faithful decimal token for a finite double, always float-typed."""
    if not math.isfinite(value):
        raise ValueError(f"cannot serialize non-finite float {value!r}")
    token = format(value, ".17g")
    if "." not in token and "e" not in token and "E" not in token:
        token += ".0"
    return token


def _emit(obj: Any, parts: list[str]) -> None:
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, str):
        parts.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, float):
        parts.append(format_float(obj))
    elif isinstance(obj, (list, tuple)) and not hasattr(obj, "_fields"):
        # a result record is a NamedTuple: refused below, not written as an array
        parts.append("[")
        for t, item in enumerate(obj):
            if t:
                parts.append(", ")
            _emit(item, parts)
        parts.append("]")
    elif isinstance(obj, dict):
        parts.append("{")
        for t, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise ValueError(f"JSON object keys must be strings, got {key!r}")
            if t:
                parts.append(", ")
            parts.append(json.dumps(key, ensure_ascii=True))
            parts.append(": ")
            _emit(value, parts)
        parts.append("}")
    else:
        raise ValueError(f"cannot serialize object of type {type(obj).__name__}")


def dumps(obj: Any) -> str:
    """Serialize to a single deterministic line of JSON."""
    parts: list[str] = []
    _emit(obj, parts)
    return "".join(parts)


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
