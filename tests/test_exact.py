import sys
from fractions import Fraction

import hypothesis as h
import hypothesis.strategies as st
import pytest

from cantor_shrink.exact import (
    ClosedInterval,
    canonical_dumps,
    decimal_to_int,
    hex_to_int,
    int_to_decimal,
    int_to_hex,
    pow2,
    scalar_from_json,
    scalar_to_json,
    scaled_fraction,
)


@st.composite
def rationals(draw, max_num=10**6, max_den=10**6):
    num = draw(st.integers(min_value=-max_num, max_value=max_num))
    den = draw(st.integers(min_value=1, max_value=max_den))
    return Fraction(num, den)


@st.composite
def dyadic_triadic(draw):
    mantissa = draw(st.integers(min_value=-(10**12), max_value=10**12))
    e2 = draw(st.integers(min_value=-2000, max_value=200))
    e3 = draw(st.integers(min_value=-50, max_value=20))
    return Fraction(mantissa) * Fraction(2) ** e2 * Fraction(3) ** e3


# ---------------------------------------------------------------------------
# scalars and decimal conversion


def test_pow2_small_values():
    assert pow2(0) == 1
    assert pow2(3) == 8
    assert pow2(-4) == Fraction(1, 16)


def test_pow2_huge_exponent_bit_length():
    big = pow2(-2_851_272)
    assert big.denominator.bit_length() == 2_851_273
    assert big.numerator == 1


@h.given(st.integers(min_value=-(10**40), max_value=10**40))
def test_decimal_roundtrip_matches_builtin(n):
    assert int_to_decimal(n) == str(n)
    assert decimal_to_int(str(n)) == n


@h.given(st.integers(min_value=1, max_value=40000), st.randoms())
def test_decimal_roundtrip_large(bits, rng):
    n = rng.getrandbits(bits)
    text = int_to_decimal(n)
    assert decimal_to_int(text) == n
    # spot-check the low-order digits against exact modular arithmetic
    assert int(text[-9:]) == n % 10**9


def test_decimal_conversion_exceeds_interpreter_cap():
    n = 7**60000  # ~50k digits, far beyond the default str() cap
    text = int_to_decimal(n)
    assert len(text) > sys.get_int_max_str_digits()
    assert decimal_to_int(text) == n


def test_decimal_to_int_rejects_junk():
    with pytest.raises(ValueError):
        decimal_to_int("12a3")


@h.given(st.one_of(rationals(), dyadic_triadic()))
def test_scalar_json_roundtrip(q):
    assert scalar_from_json(scalar_to_json(q)) == q


def test_scalar_factored_form_is_canonical():
    q = Fraction(1, 6) * pow2(-648)
    assert scalar_to_json(q) == {"mantissa": "1", "pow2": -649, "pow3": -1}
    assert scalar_to_json(Fraction(59, 48)) == {"mantissa": "59", "pow2": -4, "pow3": -1}
    assert scalar_to_json(Fraction(0)) == {"num": "0", "den": "1"}


def test_scalar_json_falls_back_for_large_mantissa():
    q = Fraction(10**40 + 1, 2**100)
    obj = scalar_to_json(q)
    assert set(obj) == {"num", "den"}
    assert scalar_from_json(obj) == q


def test_scalar_json_rejects_unknown_key():
    # a key outside the encoding must not be dropped without a word
    with pytest.raises(ValueError, match="other"):
        scalar_from_json({"mantissa": "5", "pow2": -2, "pow3": 0, "other": "7"})
    with pytest.raises(ValueError, match="other"):
        scalar_from_json({"num": "5", "den": "28", "other": "7"})


def test_scalar_json_rejects_malformed():
    with pytest.raises(ValueError):
        scalar_from_json({"numerator": "1"})
    with pytest.raises(ValueError):
        scalar_from_json({"num": "1", "den": "0"})
    # retyped fields are input errors, not TypeErrors
    with pytest.raises(ValueError):
        scalar_from_json({"num": 1, "den": "2"})
    with pytest.raises(ValueError):
        scalar_from_json({"mantissa": "1", "pow2": [3]})
    with pytest.raises(ValueError):
        scalar_from_json({"mantissa": "1", "pow3": "2"})


@h.given(st.one_of(rationals(), dyadic_triadic()), st.sampled_from([1, 5, 7, 35, 3**40 * 11]))
def test_scaled_fraction_is_the_reduced_fraction(q, extra):
    # an integer over an unreduced scale gives the fraction in lowest terms
    reduced = scaled_fraction(q.numerator * extra << 7, q.denominator * extra << 7)
    assert (reduced.numerator, reduced.denominator) == (q.numerator, q.denominator)
    assert scalar_to_json(reduced) == scalar_to_json(q)


@h.given(st.integers(min_value=-(10**30), max_value=10**30), st.integers(min_value=0, max_value=3000))
def test_hex_roundtrip(n, zeros):
    value = n << zeros
    text = int_to_hex(value)
    assert hex_to_int(text, value.bit_length()) == value
    # trailing zero bits are written as a count, never as digits
    assert value == 0 or int(text.partition("p")[0], 16) % 2 == 1


def test_hex_form():
    assert int_to_hex(0) == "0"
    assert int_to_hex(5) == "5"
    assert int_to_hex(3 << 40) == "3p40"
    assert int_to_hex(-6) == "-3p1"
    assert hex_to_int("-3p1", 8) == -6


@pytest.mark.parametrize("text", ["0x1f", "1F", "12g", " 1f", "", "1p", "p3", "1p-2", "1.5", 5, None, ["1"]])
def test_hex_to_int_rejects_junk(text):
    with pytest.raises(ValueError, match="hex"):
        hex_to_int(text, 64)


def test_hex_to_int_bounds_the_value():
    assert hex_to_int("1p60", 64) == 1 << 60
    with pytest.raises(ValueError, match="bits"):
        hex_to_int("1p9999999999", 64)


def test_canonical_dumps_is_order_insensitive():
    a = canonical_dumps({"b": 1, "a": [1, 2]})
    b = canonical_dumps({"a": [1, 2], "b": 1})
    assert a == b == '{"a":[1,2],"b":1}\n'


# ---------------------------------------------------------------------------
# intervals


def test_interval_validates_order():
    with pytest.raises(ValueError):
        ClosedInterval(Fraction(1), Fraction(0))
