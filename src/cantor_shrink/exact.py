"""Exact rational scalars, closed intervals, and canonical JSON encoding.

Every certified quantity in this package is exact: a `fractions.Fraction`,
or an integer over a known integer scale; floats appear only in explicitly
approximate export paths.  Denominators routinely contain powers of two with
exponents in the hundreds of thousands, so decimal serialization uses
divide-and-conquer conversions instead of ``str``/``int`` (CPython's
conversions are quadratic and capped by ``sys.int_max_str_digits``), and
bulk integers are written in hex, which converts in linear time.
"""

from __future__ import annotations

import decimal
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Rational = Union[Fraction, int]

# ---------------------------------------------------------------------------
# scalars


def pow2(exponent: int) -> Fraction:
    """Return 2**exponent as an exact Fraction (exponent may be negative)."""
    if exponent >= 0:
        return Fraction(1 << exponent)
    return Fraction(1, 1 << (-exponent))


def pow3(exponent: int) -> Fraction:
    if exponent >= 0:
        return Fraction(3**exponent)
    return Fraction(1, 3 ** (-exponent))


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
# fast decimal conversion

def _to_decimal(n: int, bits: int, powers: dict) -> decimal.Decimal:
    if bits <= 4096:  # small enough to convert directly
        return decimal.Decimal(n)
    half = bits >> 1
    hi = n >> half
    if half not in powers:
        powers[half] = decimal.Decimal(2) ** half
    return _to_decimal(hi, bits - half, powers) * powers[half] + _to_decimal(n - (hi << half), half, powers)


def int_to_decimal(n: int) -> str:
    """Decimal string of an arbitrary-size integer in subquadratic time: the
    binary digits are split in halves and recombined in `decimal` arithmetic,
    whose multiplication is subquadratic (``str`` divides, in quadratic time)."""
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax = decimal.MAX_PREC, decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True  # exact, or an error
        text = str(_to_decimal(abs(n), n.bit_length(), {}))
    return "-" + text if n < 0 else text


def decimal_to_int(text: str) -> int:
    """Parse a decimal integer string of any length (inverse of int_to_decimal)."""
    if not isinstance(text, str) or not re.fullmatch(r"\s*[-+]?[0-9]+\s*", text):
        raise ValueError(f"not a decimal integer: {text!r:.32}")
    return int(decimal.Decimal(text))  # exact whatever the context's precision


# ---------------------------------------------------------------------------
# hex integers with their trailing zero bits split out: "<hex>p<zeros>"

_HEX = re.compile(r"-?[0-9a-f]+(?:p[0-9]{1,12})?")


def int_to_hex(n: int) -> str:
    """Lower-case hex of n with its trailing zero bits written as ``p<count>``."""
    zeros = (n & -n).bit_length() - 1 if n else 0
    return f"{n >> zeros:x}p{zeros}" if zeros else f"{n:x}"


def hex_to_int(text: str, max_bits: int) -> int:
    """Parse int_to_hex output whose value fits in ``max_bits`` bits.

    Raises:
        ValueError: if the text is not of that form or the value is larger.
    """
    if not isinstance(text, str) or not _HEX.fullmatch(text):
        raise ValueError(f"{text!r:.40} is not a hex integer")
    digits, _, zeros = text.partition("p")
    if 4 * len(digits.lstrip("-")) + int(zeros or 0) > max_bits + 4:
        raise ValueError(f"{text[:40]!r} exceeds {max_bits} bits")
    return int(digits, 16) << int(zeros or 0)


# ---------------------------------------------------------------------------
# scalar JSON encoding
#
# Two interchangeable encodings:
#   {"num": "<decimal>", "den": "<decimal>"}                exact fraction
#   {"mantissa": "<decimal>", "pow2": e2, "pow3": e3}       mantissa·2^e2·3^e3
# The factored form keeps deep-level lengths compact (mantissa coprime to 6);
# values whose mantissa would be astronomical fall back to num/den.

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


def scalar_to_json(value: Rational) -> dict:
    """Encode an exact rational as a JSON-ready dict.

    Uses the factored mantissa·2^a·3^b form when the mantissa is small enough
    to stay readable, otherwise explicit num/den decimal strings.
    """
    value = Fraction(value)
    if value == 0:
        return {"num": "0", "den": "1"}
    m, d, e2, e3 = _lowest_terms(value.numerator, value.denominator)
    if d == 1 and abs(m) < _MANTISSA_LIMIT:
        return {"mantissa": int_to_decimal(m), "pow2": e2, "pow3": e3}
    return {"num": int_to_decimal(value.numerator), "den": int_to_decimal(value.denominator)}


def scalar_from_json(obj: dict) -> Fraction:
    """Decode either scalar encoding.

    Raises:
        ValueError: if the object matches neither encoding or carries a key
            outside it.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"scalar must be a JSON object, got {type(obj).__name__}")
    keys = set(obj)
    if keys == {"num", "den"}:
        den = decimal_to_int(obj["den"])
        if den == 0:
            raise ValueError("scalar denominator is zero")
        return Fraction(decimal_to_int(obj["num"]), den)
    if "mantissa" in keys and keys <= {"mantissa", "pow2", "pow3"}:
        exponents = obj.get("pow2", 0), obj.get("pow3", 0)
        if any(type(e) is not int for e in exponents):
            raise ValueError(f"scalar exponents must be integers, got {exponents!r:.40}")
        return Fraction(decimal_to_int(obj["mantissa"])) * pow2(exponents[0]) * pow3(exponents[1])
    raise ValueError(f"unrecognized scalar encoding: keys {sorted(obj)}")


def canonical_dumps(obj) -> str:
    """Serialize with sorted keys and fixed separators.

    Identical in-memory artifacts serialize to byte-identical text, so rebuilt
    outputs can be compared with a plain file diff.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# closed intervals


@dataclass(frozen=True)
class ClosedInterval:
    """Closed interval [lo, hi] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: {self.lo} > {self.hi}")

    @property
    def diameter(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2
