import math
import re
import time
from fractions import Fraction

import hypothesis as h
import hypothesis.strategies as st
import pytest

from cantor_shrink.exact import (
    ZERO,
    ClosedInterval,
    Dyadic,
    canonical_dumps,
    common_scale,
    digits_to_int,
    int_to_digits,
    pow2,
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
# scalars and scales


def test_pow2_small_values():
    assert pow2(0) == 1
    assert pow2(3) == 8
    assert pow2(-4) == Fraction(1, 16)


def test_pow2_huge_exponent_bit_length():
    big = pow2(-2_851_272)
    assert big.denominator.bit_length() == 2_851_273
    assert big.numerator == 1


def read_scalar(obj: dict) -> Fraction:
    """Decode a :func:`scalar_to_json` object, as the benchmark's reader does."""
    if "mantissa" in obj:
        return Fraction(int(obj["mantissa"])) * Fraction(2) ** obj["pow2"] * Fraction(3) ** obj["pow3"]
    return Fraction(int(obj["num"]), int(obj["den"]))


@h.given(st.one_of(rationals(), dyadic_triadic()))
def test_scalar_json_roundtrip(q):
    assert read_scalar(scalar_to_json(q)) == q


def test_scalar_factored_form_is_canonical():
    q = Fraction(1, 6) * pow2(-648)
    assert scalar_to_json(q) == {"mantissa": "1", "pow2": -649, "pow3": -1}
    assert scalar_to_json(Fraction(59, 48)) == {"mantissa": "59", "pow2": -4, "pow3": -1}
    assert scalar_to_json(Fraction(0)) == {"num": "0", "den": "1"}


def test_scalar_json_falls_back_for_large_mantissa():
    q = Fraction(10**40 + 1, 2**100)
    obj = scalar_to_json(q)
    assert set(obj) == {"num", "den"}
    assert read_scalar(obj) == q


@h.given(st.one_of(rationals(), dyadic_triadic()), st.sampled_from([1, 5, 7, 35, 3**40 * 11]))
def test_scaled_fraction_is_the_reduced_fraction(q, extra):
    # an integer over an unreduced scale gives the fraction in lowest terms
    reduced = scaled_fraction(q.numerator * extra << 7, q.denominator * extra << 7)
    assert (reduced.numerator, reduced.denominator) == (q.numerator, q.denominator)
    assert scalar_to_json(reduced) == scalar_to_json(q)


@h.given(st.lists(st.one_of(rationals(), dyadic_triadic()), max_size=8), st.sampled_from([1, 6, 7, 1 << 40]))
def test_common_scale_is_the_least_common_denominator(values, scale):
    common, ints = common_scale(values, scale)
    assert common % scale == 0
    assert [Fraction(x, common) for x in ints] == values
    # a smaller multiple of scale would leave a common prime factor p of
    # common / scale and every integer, and common / p would do as well
    assert math.gcd(common // scale, *ints) == 1


@st.composite
def codec_integers(draw):
    """0, ±2^k, ±2^p 3^q, and random integers of up to 200k bits."""
    kind = draw(st.sampled_from(["zero", "power of 2", "2^p 3^q", "random"]))
    sign = draw(st.sampled_from([1, -1]))
    if kind == "zero":
        return 0
    if kind == "power of 2":
        return sign << draw(st.integers(0, 200_000))
    if kind == "2^p 3^q":
        return sign * 3 ** draw(st.integers(0, 400)) << draw(st.integers(0, 200_000))
    return sign * draw(st.randoms(use_true_random=False)).getrandbits(draw(st.integers(1, 200_000)))


@h.given(codec_integers())
@h.settings(derandomize=True, deadline=None, max_examples=150)
def test_digits_roundtrip(x):
    text = int_to_digits(x)
    assert digits_to_int(text, max(x.bit_length(), 1)) == x
    # the digits are the non-adjacent form: their values sum to x, and the
    # exponents fall by at least two from one digit to the next
    digits = [(1 if sign == "+" else -1, int(e)) for sign, e in re.findall(r"([+-])([0-9]+)", text)]
    exponents = [e for _, e in digits]
    assert sum(sign << e for sign, e in digits) == x
    assert all(hi - lo >= 2 for hi, lo in zip(exponents, exponents[1:]))
    assert (text == "0") == (x == 0)


def reference_int_to_digits(x: int) -> str:
    """The non-adjacent form worked out on the whole of |x|, trailing zeros
    and all."""
    if not x:
        return "0"
    m = abs(x)
    half = m >> 1
    three_halves = m + half
    change = half ^ three_halves
    plus, minus = three_halves & change, half & change
    if x < 0:
        plus, minus = minus, plus
    terms = []
    while plus or minus:
        p, q = plus.bit_length(), minus.bit_length()
        if p > q:
            plus ^= 1 << p - 1
            terms.append(f"+{p - 1}")
        else:
            minus ^= 1 << q - 1
            terms.append(f"-{q - 1}")
    return "".join(terms)


@st.composite
def digit_spans(draw):
    """0, and integers of up to 200k bits whose digits span a narrow window
    (a random value of up to 300 bits, shifted anywhere) or a wide one (a
    few signed powers of two anywhere, adjacent ones included)."""
    kind = draw(st.sampled_from(["zero", "narrow", "wide"]))
    if kind == "zero":
        return 0
    if kind == "narrow":
        odd = draw(st.integers(-(1 << 300), 1 << 300))
        return odd << draw(st.integers(0, 200_000 - 301))
    powers = st.tuples(st.sampled_from([1, -1]), st.integers(0, 200_000))
    return sum(sign << e for sign, e in draw(st.lists(powers, min_size=1, max_size=8)))


@h.given(digit_spans())
@h.example(0)
@h.example(-1)
@h.example(-(3 << 199_990))
@h.example((1 << 200_000) - (1 << 199_999))
@h.example(-(1 << 77_000) + 12)
@h.settings(derandomize=True, deadline=None, max_examples=200)
def test_digits_of_the_odd_part_match_the_whole_integer_form(x):
    assert int_to_digits(x) == reference_int_to_digits(x)


def test_digits_form():
    assert int_to_digits(0) == "0"
    assert int_to_digits(1) == "+0"
    assert int_to_digits(-1) == "-0"
    assert int_to_digits(3) == "+2-0"
    assert int_to_digits(-6) == "-3+1"
    assert int_to_digits(81) == "+6+4+0"
    assert int_to_digits((1 << 84370) - (1 << 84366) + (1 << 12)) == "+84370-84366+12"
    assert digits_to_int("-3+1", 8) == -6


def test_hex_form():
    # the hex forms the scheme files used to hold are not read any more
    for text in ["5", "3p40", "-3p1", "1f"]:
        with pytest.raises(ValueError, match="signed-digit|canonical"):
            digits_to_int(text, 64)


@pytest.mark.parametrize("text", ["0x1f", "1F", "12g", " 1f", "", "1p", "p3", "1p-2", "1.5", 5, None, ["1"]])
def test_hex_to_int_rejects_junk(text):
    # every input the removed hex decoder refused, digits_to_int refuses too
    with pytest.raises(ValueError, match="signed-digit|canonical"):
        digits_to_int(text, 64)


def decode_level(texts, max_bits):
    # the strings of a level, read in turn
    return [digits_to_int(text, max_bits) for text in texts]


@st.composite
def levels_sharing_digits(draw):
    """Values whose digit strings share their leading digits, as the ends of
    a scheme level's carriers and cores do: a base value moved by small
    multiples of powers of two, and values cut to their leading digits."""
    base = draw(codec_integers())
    moves = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 200_000)), max_size=6))
    xs = [base] + [base + (m << k) for m, k in moves]
    for x in list(xs):
        digits = re.findall(r"[+-][0-9]+", int_to_digits(x))
        cut = draw(st.integers(0, len(digits)))
        xs.insert(draw(st.integers(0, len(xs))), digits_to_int("".join(digits[:cut]) or "0", 200_100))
    return xs


@h.given(levels_sharing_digits())
@h.settings(derandomize=True, deadline=None, max_examples=80)
def test_digit_level_with_shared_leading_digits_roundtrips(xs):
    texts = [int_to_digits(x) for x in xs]
    assert decode_level(texts, 200_100) == xs


def test_digit_level_resumes_only_at_a_whole_digit():
    # "+123" is a textual prefix of "+1234" but not a digit of it
    assert decode_level(["+123-4", "+1234", "+12", "+123", "+12", "+12-0"], 2000) == [
        (1 << 123) - 16, 1 << 1234, 1 << 12, 1 << 123, 1 << 12, (1 << 12) - 1,
    ]
    assert decode_level(["+7-5", "+70-5", "0", "+70", "+70-68"], 100) == [96, (1 << 70) - 32, 0, 1 << 70, 3 << 68]


def test_digit_level_resumes_past_the_horner_run():
    # strings of a few hundred digits that share their first 0 to 300
    digits = [f"{'+-'[k % 2]}{1000 - 3 * k}" for k in range(300)]
    texts = ["".join(digits[:cut]) + tail for cut, tail in
             [(300, ""), (63, "+2"), (64, "-5"), (65, ""), (200, "+0"), (64, ""), (10, "-800"), (0, "+7")]]
    want = [sum(int(t[0] + "1") << int(t[1:]) for t in re.findall(r"[+-][0-9]+", text)) for text in texts]
    assert decode_level(texts, 1000) == want


def test_dense_digits_decode_in_linear_time():
    # 2^17 digits two apart: Horner's rule alone would copy the value built
    # so far at each digit, about 2 GB here, where reading the digits is a pass
    text = "".join(f"{'+-'[k % 2]}{2 * k}" for k in range(1 << 17, 0, -1))
    x = 4 * (4 ** (1 << 17) - 1) // 5  # the sum of (-4)^k for k = 1 .. 2^17

    def best(run):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            run()
            times.append(time.perf_counter() - start)
        return min(times)

    read = best(lambda: [int(t[2]) for t in re.finditer(r"([+-])([0-9]+)", text)])
    assert digits_to_int(text, 1 << 20) == x
    assert best(lambda: digits_to_int(text, 1 << 20)) < 10 * read + 0.05


def test_dense_digits_encode_in_linear_time():
    # 2^19 digits two apart in a 2^20-bit integer: clearing one digit at a
    # time would copy the integer at each, about 70 GB here, where one scan
    # of its binary string finds them all
    x = 4 * (4 ** (1 << 19) - 1) // 5
    start = time.perf_counter()
    text = int_to_digits(x)
    assert time.perf_counter() - start < 5
    assert text == "".join(f"{'+-'[k % 2]}{2 * k}" for k in range(1 << 19, 0, -1))
    assert int_to_digits(-x) == text.translate(str.maketrans("+-", "-+"))


# strings of digits that are not the canonical form: leading zeros, stray
# signs, ascending, repeated or adjacent exponents
JUNK = ["3", "+03", "+3 ", "+3-", "+-3", "00", "-0+2", "+2+2", "+3+2", "+3-2", "+5+3+4", "+0-0", "+0+0"]


@pytest.mark.parametrize("text", JUNK)
def test_digits_reject_junk(text):
    with pytest.raises(ValueError, match="signed-digit|canonical"):
        digits_to_int(text, 64)


@h.given(st.lists(codec_integers(), max_size=12))
@h.settings(derandomize=True, deadline=None, max_examples=60)
def test_digit_level_roundtrip(xs):
    # a level's strings decode in one pass to the values one decode each gives
    texts = [int_to_digits(x) for x in xs]
    bits = max((x.bit_length() for x in xs), default=1)
    assert decode_level(texts, bits) == xs
    assert [digits_to_int(t, bits) for t in texts] == xs


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("text", JUNK + ["+1,+0", "", 5, None])
def test_digit_level_names_the_string_at_fault(text, where):
    # a string that one decode refuses is refused with the same message
    # wherever it sits in a level, and a later fault does not mask it
    good = [int_to_digits(x) for x in (0, -1, 3 << 40, -(5 << 20))]
    at = {"first": 0, "middle": 2, "last": len(good)}[where]
    with pytest.raises(ValueError) as alone:
        digits_to_int(text, 64)
    level = good[:at] + [text] + good[at:]
    with pytest.raises(ValueError) as exc:
        decode_level(level, 64)
    assert str(exc.value) == str(alone.value)
    with pytest.raises(ValueError) as exc:
        decode_level(level + ["+65", "junk"], 64)
    assert str(exc.value) == str(alone.value)


def test_digit_level_bounds_each_string_before_building_it():
    assert decode_level([], 64) == []
    assert decode_level(["+64-2", "0", "-60"], 64) == [(1 << 64) - 4, 0, -(1 << 60)]
    # refused from the text alone, in whatever place: 2^999999999999 would
    # take 125 GB
    for level in (["+999999999999"], ["+3", "+999999999999-0"], ["0", "+2", "-999999999999"]):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"^'[+-]999999999999(-0)?' exceeds 64 bits$"):
            decode_level(level, 64)
        assert time.perf_counter() - start < 0.1


def test_digits_bound_the_exponent():
    assert digits_to_int("+60", 64) == 1 << 60
    assert digits_to_int("+64-2", 64) == (1 << 64) - 4
    with pytest.raises(ValueError, match="bits"):
        digits_to_int("+65", 64)
    # refused from the text alone: 2^999999999999 would take 125 GB
    start = time.perf_counter()
    with pytest.raises(ValueError, match="bits"):
        digits_to_int("+999999999999", 64)
    assert time.perf_counter() - start < 0.1
    # an exponent of more than twelve digits is not read at all
    with pytest.raises(ValueError, match="signed-digit"):
        digits_to_int("+9999999999999", 64)


# ---------------------------------------------------------------------------
# dyadic clusters


@st.composite
def dyadic_pairs(draw):
    """(x, X): an integer and the Dyadic built from the same terms c 2^l by
    the type's own sums, so that values of up to 10^6 bits cost only their
    terms.  Terms land on, beside or far from one another, so that sums
    carry across cluster boundaries, and a dense run gives long clusters."""
    x, X = 0, ZERO
    top = draw(st.sampled_from([0, 8, 64, 4_000, 1_000_000]), label="top")
    for _ in range(draw(st.integers(0, 6), label="terms")):
        kind = draw(st.sampled_from(["small", "adjacent", "run", "dense"]), label="kind")
        l = draw(st.integers(0, top), label="l")
        if kind == "small":
            c = draw(st.integers(-17, 17), label="c")
        elif kind == "adjacent":  # a carry chain: 2^k - 1, or its negative
            c = draw(st.sampled_from([1, -1]), label="sign") * ((1 << draw(st.integers(1, 90), label="k")) - 1)
        elif kind == "run":  # beside the last term, so that they merge
            c, l = draw(st.sampled_from([1, -1, 3, -3]), label="c"), max(0, l - draw(st.integers(0, 3), label="gap"))
        else:
            c = draw(st.randoms(use_true_random=False), label="bits").getrandbits(draw(st.integers(1, 3_000))) or 1
        x += c << l
        X += Dyadic.term(c, l)
    return x, X


def assert_is(X: Dyadic, x: int) -> None:
    """X is a Dyadic of value x in the documented form, and writes x's digits."""
    assert type(X) is Dyadic and int(X) == x
    assert all(c % 2 for c, _ in X)
    # each cluster's leading non-adjacent digit lies 2 places or more below the next cluster
    assert all(l + (3 * abs(c)).bit_length() <= l_up for (c, l), (_, l_up) in zip(X, X[1:]))
    assert X.sign() == (x > 0) - (x < 0) and bool(X) == bool(x)
    assert X.bit_length() == x.bit_length()
    assert X.digits() == int_to_digits(x)


@h.given(dyadic_pairs(), dyadic_pairs(), st.integers(-40, 40), st.integers(0, 2_000))
@h.example((0, ZERO), (0, ZERO), 0, 0)
@h.example((1, Dyadic.term(1)), (-1, Dyadic.term(-1)), 12, 5)
@h.example((7, Dyadic.term(7)), (8, Dyadic.term(1, 3)), 3, 1)  # 7 + 8 carries into one cluster
@h.example(((1 << 1_000_000) - 1, Dyadic.term(1, 1_000_000) - Dyadic.term(1)), (1 << 999_999, Dyadic.term(1, 999_999)), -1, 0)
@h.settings(derandomize=True, deadline=None, max_examples=300)
def test_dyadic_arithmetic_matches_python_ints(a, b, m, e):
    (x, X), (y, Y) = a, b
    assert_is(X, x)
    assert_is(X + Y, x + y)
    assert_is(X - Y, x - y)
    assert_is(-X, -x)
    assert_is(X.scaled(m, e), x * m << e)
    assert_is(X * m, x * m)
    assert_is(X << e, x << e)
    assert_is((X << e) >> e, x)
    assert (X < Y, X <= Y, X == Y, X != Y, X > Y, X >= Y) == (x < y, x <= y, x == y, x != y, x > y, x >= y)
    assert X == Dyadic.term(x) and X != Dyadic.term(x + 1) and X != x
    assert_is(Dyadic.from_digits(X.digits(), max(x.bit_length(), 1)), x)


def test_dyadic_reads_what_digits_to_int_reads():
    # the same strings, the same refusals with the same messages
    for text in ["0", "-0", "+3-1", "+84370-84366+12", "+64-2"]:
        assert int(Dyadic.from_digits(text, 84370)) == digits_to_int(text, 84370)
    for text in [*JUNK, "+65", 5, None]:
        with pytest.raises(ValueError) as dense:
            digits_to_int(text, 64)
        with pytest.raises(ValueError) as clusters:
            Dyadic.from_digits(text, 64)
        assert str(clusters.value) == str(dense.value)


def test_dyadic_sums_on_a_dense_value_cost_integer_operations():
    # a dense 2^20-bit value, as a corrupted file can hold, read as one
    # cluster: a sum on it is one operation on a Python int, not a pass over
    # some 100,000 clusters in Python
    import random

    x = random.Random(5).getrandbits(1 << 20) | 1
    value, one = Dyadic.from_digits(int_to_digits(x), 1 << 20), Dyadic.term(1, 7)
    start = time.perf_counter()
    for _ in range(10):
        moved = value + one
        assert value < moved and moved - value == one and (value - moved).sign() < 0
    assert time.perf_counter() - start < 0.3
    assert int(moved) == x + 128


def test_dyadic_reads_a_dense_string_in_linear_time():
    # 2^17 digits two apart, as in test_dense_digits_decode_in_linear_time:
    # digits join a cluster by Horner's rule only up to a bounded run
    text = "".join(f"{'+-'[k % 2]}{2 * k}" for k in range(1 << 17, 0, -1))
    start = time.perf_counter()
    value = Dyadic.from_digits(text, 1 << 20)
    assert time.perf_counter() - start < 2
    assert value.digits() == text
    assert int(value) == 4 * (4 ** (1 << 17) - 1) // 5


def test_canonical_dumps_is_order_insensitive():
    a = canonical_dumps({"b": 1, "a": [1, 2]})
    b = canonical_dumps({"a": [1, 2], "b": 1})
    assert a == b == '{"a":[1,2],"b":1}\n'


# ---------------------------------------------------------------------------
# intervals


def test_interval_validates_order():
    with pytest.raises(ValueError):
        ClosedInterval(Fraction(1), Fraction(0))


def test_interval_replace_validates_order():
    # _replace builds through _make, which validates as the constructor does
    assert ClosedInterval(0, 1)._replace(hi=3) == ClosedInterval(0, 3)
    with pytest.raises(ValueError, match="out of order"):
        ClosedInterval(0, 1)._replace(lo=5)
    with pytest.raises(ValueError, match="out of order"):
        ClosedInterval._make((2, 1))
