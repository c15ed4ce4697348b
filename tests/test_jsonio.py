"""Deterministic JSON emission with bit-exact float round-trips."""

from __future__ import annotations

import json
import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsylv import ParseError
from qsylv.jsonio import dumps, loads, read_json, write_json


@pytest.mark.parametrize(
    "value,expected",
    [
        (0.0, "0.0"),
        (-0.0, "-0.0"),
        (1.0, "1.0"),
        (-2.0, "-2.0"),
        (0.5, "0.5"),
        (1e22, "1e+22"),
        (1.5e-8, "1.5e-08"),
        (0.1, "0.1"),
    ],
)
def test_dumps_writes_the_shortest_round_trip_token(value, expected):
    assert dumps([value]) == f"[{expected}]"


def test_dumps_float_tokens_read_back_as_floats():
    for value in (0.0, -0.0, 3.0, 1e16, -1e16, 2.0**53):
        token = dumps(value)
        assert isinstance(json.loads(token), float), token


@given(st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=300, deadline=None)
def test_dumps_round_trips_floats_bit_exactly(value):
    (back,) = loads(dumps([value]))
    assert struct.pack("<d", back) == struct.pack("<d", value)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_dumps_rejects_non_finite_floats(bad):
    with pytest.raises(ValueError):
        dumps({"x": [1.0, bad]})


@pytest.mark.parametrize("key", [1, 2.5, None, True], ids=["int", "float", "none", "bool"])
def test_dumps_refuses_a_non_string_key(key):
    with pytest.raises(ValueError, match=f"JSON object keys must be strings, got {key!r}"):
        dumps({"outer": {key: 1.0}})


def test_dumps_refuses_an_unknown_type():
    with pytest.raises(ValueError, match="cannot serialize object of type object"):
        dumps({"x": [1.0, object()]})


def test_dumps_preserves_insertion_order_and_spacing():
    doc = {"b": 1, "a": [1.5, True, None, "x"], "c": {"nested": -0.0}}
    text = dumps(doc)
    assert text == '{"b": 1, "a": [1.5, true, null, "x"], "c": {"nested": -0.0}}'


def test_dumps_refuses_records_but_writes_plain_tuples_as_arrays():
    from qsylv.solvers import CheckResult

    with pytest.raises(ValueError, match="cannot serialize object of type CheckResult"):
        dumps({"check": CheckResult("rank_cols", True, 0.0)})
    with pytest.raises(ValueError, match="cannot serialize object of type CheckResult"):
        dumps({"checks": [1.0, (CheckResult("rank_cols", True, 0.0),)]})
    assert dumps({"pair": ("rank_cols", 1.0)}) == '{"pair": ["rank_cols", 1.0]}'


def test_dumps_is_deterministic():
    doc = {"values": [0.1 * i for i in range(20)]}
    assert dumps(doc) == dumps(doc)


def test_dumps_escapes_strings_like_json():
    assert dumps({"s": 'quote " backslash \\ newline \n'}) == json.dumps(
        {"s": 'quote " backslash \\ newline \n'}
    )


def test_loads_round_trip():
    doc = {"x": [1.0, -0.5], "n": 3, "flag": False}
    assert loads(dumps(doc)) == doc


def test_loads_raises_parse_error():
    with pytest.raises(ParseError):
        loads("{not json")


def test_read_json_missing_file_raises_parse_error(tmp_path):
    with pytest.raises(ParseError):
        read_json(str(tmp_path / "missing.json"))


def test_write_then_read(tmp_path):
    path = str(tmp_path / "doc.json")
    doc = {"a": [0.25, -0.0, 7.0]}
    write_json(path, doc)
    with open(path) as handle:
        raw = handle.read()
    assert raw.endswith("\n")
    assert loads(raw) == doc
    assert read_json(path) == doc
