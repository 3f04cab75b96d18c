"""Exact rational scalars, closed intervals, and canonical JSON encoding.

Every certified quantity in this package is exact: a `fractions.Fraction`,
or an integer over a known integer scale; floats appear only in explicitly
approximate export paths.

Files and reports write exact values as integers over a scale they declare
once (:func:`common_scale` gives the least one): scheme geometry, pair
margins, finite systems, extensions and their certificates.  Each integer
is one canonical string of signed binary digits in non-adjacent form,
``"+84370-84366+12"`` for 2^84370 - 2^84366 + 2^12, written by
:func:`int_to_digits` and read back by :func:`digits_to_int`.  The
level-scale integers have a few dozen nonzero digits at most, and scheme
offsets (format 4) one or two, so the strings stay short whatever the size
of the integer, and each digit costs one linear-time operation to write or
read.  Only the derivative-ratio report writes JSON scalar objects
(:func:`scalar_to_json`), with ``str`` terms: its values are k 2^a 3^b
with small k.

:class:`ClosedInterval` is a ``typing.NamedTuple`` rather than a dataclass:
every command imports this module, and ``dataclasses`` would load
``inspect`` (with ``ast``, ``dis`` and ``tokenize``) into each launch.  It
validates in ``__new__``, and its ``_make`` (which ``_replace`` calls) goes
through ``__new__`` too.  Being a tuple, it unpacks as ``lo, hi`` and
compares equal to the plain tuple ``(lo, hi)``.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from typing import NamedTuple, Union

Rational = Union[Fraction, int]

# ---------------------------------------------------------------------------
# scalars


def pow2(exponent: int) -> Fraction:
    """Return 2**exponent as an exact Fraction (exponent may be negative)."""
    if exponent >= 0:
        return Fraction(1 << exponent)
    return Fraction(1, 1 << (-exponent))


def approx_float(value: Rational) -> float:
    """Nearest float to an exact value; only for human-facing export columns."""
    value = Fraction(value)
    if value == 0:
        return 0.0
    try:
        return float(value)
    except OverflowError:
        return 0.0 if abs(value) < 1 else float("inf") * (1 if value > 0 else -1)


# ---------------------------------------------------------------------------
# signed binary digits: "+e1-e2+e3..." for 2^e1 - 2^e2 + 2^e3 ..., non-adjacent

_DIGITS = re.compile(r"0|(?:[+-](?:0|[1-9][0-9]{0,11}))+")
_TERM = re.compile(r"([+-])([0-9]+)")


def int_to_digits(x: int) -> str:
    """The non-adjacent form of x: its nonzero signed binary digits, highest
    first, as ``+e`` or ``-e`` for ±2^e; ``"0"`` for zero.

    The form of |x| = m 2^k, m odd, is the form of m with k added to every
    exponent, so only m is worked on: every value the loop builds is the
    size of m, not of x (a scheme offset's odd part can be a few bits of a
    77k-bit integer).  With h = m >> 1, the bits of (m + h) ^ h that are set
    in m + h are the digits +1 and those set in h the digits -1, so the
    digits come out of a few C-level operations on the whole integer; the
    loop then only visits the ones that are nonzero.
    """
    if not x:
        return "0"
    m = abs(x)
    k = (m & -m).bit_length() - 1
    m >>= k
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
            terms.append(f"+{p - 1 + k}")
        else:
            minus ^= 1 << q - 1
            terms.append(f"-{q - 1 + k}")
    return "".join(terms)


def digits_bits(text: str) -> int:
    """At most the bits of the integer a signed-digit string writes, read off its leading digit."""
    if not (isinstance(text, str) and _DIGITS.fullmatch(text)):
        raise ValueError(f"{text!r:.40} is not a signed-digit string")
    return 0 if text == "0" else int(_TERM.match(text)[2]) + 1


_HORNER_RUN = 64  # digits of a string read by Horner's rule; the rest are set as bits


def digits_to_int(text: str, max_bits: int) -> int:
    """Parse one :func:`int_to_digits` output whose leading exponent is at
    most ``max_bits``.  Only the canonical form is read: exponents strictly
    descending, no two adjacent, and ``"0"`` for zero; each value has exactly
    one such string.

    The string is checked by one regex, then its value is built by Horner's
    rule, a shift by the fall in exponent and a ±1 per digit.  A Horner step
    copies the value built so far, so past the first ``_HORNER_RUN`` digits
    the rest are set as bits in two byte arrays, added in once: decoding
    stays linear in the length of the string and of its value.

    Raises:
        ValueError: when the string is not of that form or its leading
            exponent exceeds ``max_bits``; both are found before any power
            of two is built.
    """
    if digits_bits(text) > max_bits + 1:
        raise ValueError(f"{text[:40]!r} exceeds {max_bits} bits")
    x = e = 0  # the value so far is x 2^e, e the last exponent read
    base = None  # set past the Horner run: the digits left lie below 2^base
    for k, term in enumerate(_TERM.finditer(text)):
        sign, digits = term.groups()
        f = int(digits)
        if not x:  # the leading digit
            x = 1 if sign == "+" else -1
        elif e - f < 2:
            raise ValueError(f"{text[:40]!r} is not canonical: exponents must fall by at least 2")
        elif base is not None:
            (plus if sign == "+" else minus)[f >> 3] |= 1 << (f & 7)
        else:
            x = (x << e - f) + (1 if sign == "+" else -1)
        e = f
        if k == _HORNER_RUN - 1:
            base = e
            plus, minus = bytearray((e >> 3) + 1), bytearray((e >> 3) + 1)
    if base is None:
        return x << e
    return (x << base) + int.from_bytes(plus, "little") - int.from_bytes(minus, "little")


# ---------------------------------------------------------------------------
# predicted memory
#
# Scheme geometry and finite systems are dense integers over scales that grow
# like 2^(s_n^2), so builders and readers predict their bytes (within about
# 15 % of measured peaks) and refuse work past MEMORY_BOUND before it starts:
# it admits wm4 and od13, the largest schemes that build today, not tr5 or od14.
MEMORY_BOUND = 1 << 32


def dense_bytes(count: int, bits: int) -> int:
    """Predicted bytes of ``count`` integers of up to ``bits`` bits each."""
    return count * -(-bits // 8)


def check_memory(predicted: int, where: str) -> int:
    """``predicted`` bytes, refused with a ValueError naming ``where`` past MEMORY_BOUND."""
    if predicted > MEMORY_BOUND:
        raise ValueError(f"{where}: predicted {predicted} bytes of integers, past the bound of {MEMORY_BOUND}")
    return predicted


# ---------------------------------------------------------------------------
# scales and scalars
#
# Scalar objects take one of two forms:
#   {"num": "<decimal>", "den": "<decimal>"}                exact fraction
#   {"mantissa": "<decimal>", "pow2": e2, "pow3": e3}       mantissa·2^e2·3^e3
# The factored form keeps deep-level ratios compact (mantissa coprime to 6);
# other values are written as num/den.

_MANTISSA_LIMIT = 1 << 64


def _split_powers(n: int, base: int) -> tuple[int, int]:
    """Return (k, m) with n = base**k * m and base ∤ m, for n != 0.

    Deep levels carry exponents in the tens of thousands, so stripping one
    factor per division is quadratic and far too slow; powers of two read off
    the low bits directly, and other bases strip base^(2^i) blocks.
    """
    if base == 2:
        k = (n & -n).bit_length() - 1
        return k, n >> k
    k = 0
    powers = [base]
    while True:
        q, r = divmod(n, powers[-1])
        if r:
            break
        n = q
        k += 1 << (len(powers) - 1)
        powers.append(powers[-1] ** 2)
    for i in range(len(powers) - 2, -1, -1):
        q, r = divmod(n, powers[i])
        if r == 0:
            n = q
            k += 1 << i
    return k, n


def _lowest_terms(num: int, scale: int) -> tuple[int, int, int, int]:
    """num / scale as (m, d, e2, e3), the value m * 2^e2 * 3^e3 / d in lowest
    terms with m coprime to 6 and d coprime to 6m.  The common factor is read
    off the scale's powers of 2 and 3; only the rest of it enters a gcd."""
    p, rest = _split_powers(scale, 2)
    q, c = _split_powers(rest, 3)
    e2, rest = _split_powers(abs(num), 2)
    e3, rest = _split_powers(rest, 3)
    common = math.gcd(rest, c)
    return (rest if num > 0 else -rest) // common, c // common, e2 - p, e3 - q


def scaled_fraction(num: int, scale: int) -> Fraction:
    """``Fraction(num, scale)`` with its terms set directly: they come out of
    :func:`_lowest_terms` coprime, and normalising them again would take a gcd
    of two full-size integers, milliseconds each at deep-level sizes."""
    value = Fraction(0)
    if num:
        m, d, e2, e3 = _lowest_terms(num, scale)
        value._numerator = (m << max(e2, 0)) * 3 ** max(e3, 0)
        value._denominator = (d << max(-e2, 0)) * 3 ** max(-e3, 0)
    return value


def common_scale(values, scale: int = 1) -> tuple[int, list[int]]:
    """``(S, [v S for v in values])``: S the least multiple of ``scale`` over
    which every value is an integer, the least common multiple of ``scale``
    and the values' denominators."""
    values = list(values)
    scale = math.lcm(scale, *{v.denominator for v in values})
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def scalar_to_json(value: Rational) -> dict:
    """Encode an exact rational as a JSON-ready dict.

    Uses the factored mantissa·2^a·3^b form when the mantissa is small enough
    to stay readable, otherwise explicit num/den strings.
    """
    value = Fraction(value)
    if value == 0:
        return {"num": "0", "den": "1"}
    m, d, e2, e3 = _lowest_terms(value.numerator, value.denominator)
    if d == 1 and abs(m) < _MANTISSA_LIMIT:
        return {"mantissa": str(m), "pow2": e2, "pow3": e3}
    return {"num": str(value.numerator), "den": str(value.denominator)}


def canonical_dumps(obj) -> str:
    """Serialize with sorted keys and fixed separators.

    Identical in-memory artifacts serialize to byte-identical text, so rebuilt
    outputs can be compared with a plain file diff.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# closed intervals


class _Interval(NamedTuple):
    lo: Fraction
    hi: Fraction


class ClosedInterval(_Interval):
    """Closed interval [lo, hi] with exact rational endpoints."""

    __slots__ = ()

    def __new__(cls, lo, hi):
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise ValueError(f"interval endpoints out of order: {lo} > {hi}")
        return super().__new__(cls, lo, hi)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def diameter(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2
