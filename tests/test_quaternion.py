"""Algebraic and serialization properties of the scalar quaternion type."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsylv import OutOfRange, ParseError, QsylvError, Quaternion, ZeroDivisor
from qsylv.quaternion import qsum
from qsylv.sampling import SplitMix64, random_quaternion

from conftest import q

component = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
quaternions = st.builds(Quaternion, component, component, component, component)
nonzero_quaternions = quaternions.filter(lambda v: abs(v) > 1e-3)


ONE, I, J, K = q(1), q(x=1), q(y=1), q(z=1)


def test_unit_multiplication_table():
    assert I * J == K
    assert J * K == I
    assert K * I == J
    assert J * I == -K
    assert K * J == -I
    assert I * K == -J
    for unit in (I, J, K):
        assert unit * unit == -ONE
    assert I * J * K == -ONE


def test_multiplication_is_noncommutative():
    a = q(1, 2, 3, 4)
    b = q(0, 1, -1, 2)
    assert a * b != b * a


@given(quaternions, quaternions, quaternions)
@settings(max_examples=60, deadline=None)
def test_multiplication_associative(a, b, c):
    left = (a * b) * c
    right = a * (b * c)
    assert abs(left - right) <= 1e-9 * (1.0 + abs(a) * abs(b) * abs(c))


@given(quaternions, quaternions, quaternions)
@settings(max_examples=60, deadline=None)
def test_left_distributivity(a, b, c):
    lhs = a * (b + c)
    rhs = a * b + a * c
    assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(a) * (abs(b) + abs(c)))


@given(quaternions, quaternions)
@settings(max_examples=60, deadline=None)
def test_conjugate_reverses_products(a, b):
    lhs = (a * b).conjugate()
    rhs = b.conjugate() * a.conjugate()
    assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(a) * abs(b))


@given(quaternions, quaternions)
@settings(max_examples=60, deadline=None)
def test_norm_is_multiplicative(a, b):
    assert abs(a * b) == pytest.approx(abs(a) * abs(b), abs=1e-9, rel=1e-12)


@given(quaternions)
@settings(max_examples=60, deadline=None)
def test_conjugate_norm_identity(a):
    prod = a * a.conjugate()
    assert prod.w == pytest.approx(abs(a) ** 2, abs=1e-9, rel=1e-12)
    assert max(abs(prod.x), abs(prod.y), abs(prod.z)) <= 1e-9


@given(nonzero_quaternions)
@settings(max_examples=60, deadline=None)
def test_inverse(a):
    left = a * a.inverse()
    right = a.inverse() * a
    assert abs(left - ONE) <= 1e-9
    assert abs(right - ONE) <= 1e-9


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisor):
        q().inverse()


def _bits(a: Quaternion) -> list[str]:
    return [c.hex() for c in a.to_json()]


def test_inverse_does_not_depend_on_scale():
    assert q(2**-30).inverse() == q(2**30)
    assert q(2**-1000).inverse() == q(2**1000)
    rng = SplitMix64(91)
    for _ in range(50):
        a = random_quaternion(rng)
        # in the normal range the prescale is exact: the bytes of conj(a) / |a|**2
        n2 = a.norm_sq()
        assert _bits(a.inverse()) == _bits(q(a.w / n2, -a.x / n2, -a.y / n2, -a.z / n2))
        for k in (600, -600):
            scaled = q(*(math.ldexp(c, k) for c in a.to_json()))
            expected = q(*(math.ldexp(c, -k) for c in a.inverse().to_json()))
            assert _bits(scaled.inverse()) == _bits(expected)


def test_an_inverse_beyond_the_float_range_raises_out_of_range():
    with pytest.raises(OutOfRange):
        q(5e-324).inverse()
    with pytest.raises(OutOfRange):
        q(0.0, 0.0, 2**-1030, 0.0).inverse()
    assert q(2**1023).inverse() == q(2**-1023)


def test_norm_does_not_overflow_or_underflow():
    assert q(1e200).norm() == 1e200 and abs(q(0, 0, -1e200)) == 1e200
    assert q(1e-200).norm() == 1e-200
    assert q(0, 3e300, 0, 4e300).norm() == 5e300
    assert q(3, 4, 12, 84).norm() == 85.0


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("slot", range(4), ids=["w", "x", "y", "z"])
def test_a_non_finite_quaternion_has_no_inverse(slot, bad):
    comps = [1.0, 2.0, 3.0, 4.0]
    comps[slot] = bad
    with pytest.raises(OutOfRange):
        Quaternion(*comps).inverse()


def test_real_scalars_coerce():
    a = q(1, 2, 3, 4)
    assert 2 * a == q(2, 4, 6, 8)
    assert a * 2 == q(2, 4, 6, 8)
    assert a + 1 == q(2, 2, 3, 4)
    assert 1 - a == q(0, -2, -3, -4)
    assert a / 2 == q(0.5, 1, 1.5, 2)


def test_division_by_zero_real():
    with pytest.raises(ZeroDivisionError):
        q(1) / 0.0


@pytest.mark.parametrize("zero", [0, 0.0, -0.0])
def test_division_by_zero_is_a_typed_error(zero):
    with pytest.raises(ZeroDivisor) as caught:
        q(1, 2, 3, 4) / zero
    assert isinstance(caught.value, QsylvError)
    assert isinstance(caught.value, ZeroDivisionError)


def test_division_only_by_reals():
    with pytest.raises(TypeError):
        q(1) / q(x=1)


def test_qsum_is_componentwise():
    values = [q(1, 0, 2, 0), q(0, 3, 0, 4), q(-1, -3, -2, -4)]
    assert qsum(values) == q()
    assert qsum([]) == q()


@given(quaternions)
@settings(max_examples=60, deadline=None)
def test_json_round_trip_is_exact(a):
    assert Quaternion.from_json(a.to_json()) == a


@pytest.mark.parametrize(
    "payload",
    [None, 1.5, "x", [1, 2, 3], [1, 2, 3, 4, 5], ["a", 0, 0, 0], [1, 2, 3, None]],
)
def test_from_json_rejects_malformed(payload):
    with pytest.raises(ParseError):
        Quaternion.from_json(payload)


def test_equality_and_hash():
    assert q(1, 2, 3, 4) == q(1, 2, 3, 4)
    assert hash(q(1, 2, 3, 4)) == hash(q(1, 2, 3, 4))
    assert q(1, 2, 3, 4) != q(1, 2, 3, 5)
    # equality is type-strict; reals coerce in arithmetic, not comparison
    assert q(2) + 0 == q(2)


def test_abs_matches_euclidean_norm():
    assert abs(q(1, 2, 3, 4)) == pytest.approx(math.sqrt(30.0))
