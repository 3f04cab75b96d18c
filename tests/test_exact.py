import sys
from fractions import Fraction

import hypothesis as h
import hypothesis.strategies as st
import pytest

from cantor_shrink.exact import (
    ClosedInterval,
    canonical_dumps,
    decimal_to_int,
    gap,
    hull,
    int_to_decimal,
    interval_from_json,
    interval_to_json,
    middle_of_length,
    pow2,
    scalar_from_json,
    scalar_to_json,
    split_equal,
    sup_distance,
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


@st.composite
def intervals(draw):
    lo = draw(rationals())
    width = draw(rationals(max_num=10**4))
    return ClosedInterval(lo, lo + abs(width))


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


def test_canonical_dumps_is_order_insensitive():
    a = canonical_dumps({"b": 1, "a": [1, 2]})
    b = canonical_dumps({"a": [1, 2], "b": 1})
    assert a == b == '{"a":[1,2],"b":1}\n'


# ---------------------------------------------------------------------------
# intervals


def test_interval_validates_order():
    with pytest.raises(ValueError):
        ClosedInterval(Fraction(1), Fraction(0))


@h.given(intervals(), st.integers(min_value=1, max_value=40))
def test_split_equal_reconstitutes(iv, k):
    parts = split_equal(iv, k)
    assert len(parts) == k
    assert parts[0].lo == iv.lo and parts[-1].hi == iv.hi
    for left, right in zip(parts, parts[1:]):
        assert left.hi == right.lo
    assert all(p.diameter == iv.diameter / k for p in parts)


def test_split_equal_rejects_nonpositive():
    with pytest.raises(ValueError):
        split_equal(ClosedInterval(0, 1), 0)


def test_gap_touching_is_zero_overlap_errors():
    a = ClosedInterval(0, 1)
    assert gap(a, ClosedInterval(1, 2)) == 0
    assert gap(ClosedInterval(3, 4), a) == 2
    with pytest.raises(ValueError):
        gap(a, ClosedInterval(Fraction(1, 2), 2))


@h.given(intervals(), intervals())
def test_sup_distance_dominates_midpoint_distance(a, b):
    assert sup_distance(a, b) >= abs(a.midpoint - b.midpoint)
    assert sup_distance(a, b) == sup_distance(b, a)


@h.given(st.lists(intervals(), min_size=1, max_size=6))
def test_hull_contains_all(ivs):
    big = hull(ivs)
    assert all(big.encloses(iv) for iv in ivs)


@h.given(intervals())
def test_interval_json_roundtrip(iv):
    assert interval_from_json(interval_to_json(iv)) == iv


def test_middle_of_length_exact():
    iv = middle_of_length(ClosedInterval(0, Fraction(1, 2)), Fraction(1, 6))
    assert (iv.lo, iv.hi) == (Fraction(1, 6), Fraction(1, 3))
