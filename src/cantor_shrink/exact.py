"""Exact rational scalars, closed intervals, and canonical JSON encoding.

Every certified quantity in this package is a `fractions.Fraction`; floats
appear only in explicitly approximate export paths.  Denominators routinely
contain powers of two with exponents in the millions of bits, so decimal
serialization uses divide-and-conquer conversions instead of ``str``/``int``
(CPython's conversions are quadratic and capped by ``sys.int_max_str_digits``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

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

_POW10: dict[int, int] = {0: 1, 1: 10}
# str()/int() stay comfortably under the interpreter's 4300-digit conversion
# cap at this chunk size, and the recursion depth stays shallow.
_CHUNK = 1024


def _pow10(k: int) -> int:
    cached = _POW10.get(k)
    if cached is None:
        half = _POW10.get(k >> 1)
        if half is None:
            half = _pow10(k >> 1)
        cached = half * half * (10 if k & 1 else 1)
        _POW10[k] = cached
    return cached


def _digit_count(n: int) -> int:
    # 30103/100000 < log10(2); estimate then correct with cached powers.
    count = max(1, (n.bit_length() * 30103) // 100000)
    while _pow10(count) <= n:
        count += 1
    while count > 1 and _pow10(count - 1) > n:
        count -= 1
    return count


def _to_fixed_width(n: int, width: int) -> str:
    if width <= _CHUNK:
        return str(n).rjust(width, "0")
    lower = width >> 1
    hi, lo = divmod(n, _pow10(lower))
    return _to_fixed_width(hi, width - lower) + _to_fixed_width(lo, lower)


def int_to_decimal(n: int) -> str:
    """Decimal string of an arbitrary-size integer in softly linear time."""
    if n < 0:
        return "-" + int_to_decimal(-n)
    return _to_fixed_width(n, _digit_count(n))


def decimal_to_int(text: str) -> int:
    """Parse a decimal string of any length (inverse of int_to_decimal)."""
    text = text.strip()
    if text.startswith("-"):
        return -decimal_to_int(text[1:])
    if text.startswith("+"):
        text = text[1:]
    if not text or not text.isdigit():
        raise ValueError(f"not a decimal integer: {text[:32]!r}...")
    if len(text) <= _CHUNK:
        return int(text)
    split = len(text) >> 1
    return decimal_to_int(text[:-split]) * _pow10(split) + decimal_to_int(text[-split:])


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


def scalar_to_json(value: Rational) -> dict:
    """Encode an exact rational as a JSON-ready dict.

    Uses the factored mantissa·2^a·3^b form when the mantissa is small enough
    to stay readable, otherwise explicit num/den decimal strings.
    """
    value = Fraction(value)
    num, den = value.numerator, value.denominator
    if num == 0:
        return {"num": "0", "den": "1"}
    e2n, rest_n = _split_powers(abs(num), 2)
    e3n, rest_n = _split_powers(rest_n, 3)
    e2d, rest_d = _split_powers(den, 2)
    e3d, rest_d = _split_powers(rest_d, 3)
    if rest_d == 1 and rest_n < _MANTISSA_LIMIT:
        mantissa = rest_n if num > 0 else -rest_n
        return {
            "mantissa": int_to_decimal(mantissa),
            "pow2": e2n - e2d,
            "pow3": e3n - e3d,
        }
    return {"num": int_to_decimal(num), "den": int_to_decimal(den)}


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
        value = Fraction(decimal_to_int(obj["mantissa"]))
        value *= pow2(int(obj.get("pow2", 0)))
        value *= pow3(int(obj.get("pow3", 0)))
        return value
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

    def encloses(self, other: "ClosedInterval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi


def middle_of_length(interval: ClosedInterval, length: Rational) -> ClosedInterval:
    """Concentric closed subinterval of the given absolute length."""
    length = Fraction(length)
    if not 0 < length <= interval.diameter:
        raise ValueError(
            f"length {length} does not fit inside a diameter-{interval.diameter} interval"
        )
    mid = interval.midpoint
    return ClosedInterval(mid - length / 2, mid + length / 2)


def split_equal(interval: ClosedInterval, parts: int) -> list[ClosedInterval]:
    """Split into `parts` equal closed subintervals sharing endpoints.

    Raises:
        ValueError: if parts is not a positive integer.
    """
    if parts <= 0:
        raise ValueError(f"cannot split into {parts} parts")
    step = interval.diameter / parts
    cuts = [interval.lo + step * i for i in range(parts + 1)]
    cuts[-1] = interval.hi
    return [ClosedInterval(cuts[i], cuts[i + 1]) for i in range(parts)]


def gap(a: ClosedInterval, b: ClosedInterval) -> Fraction:
    """Distance between two non-overlapping closed intervals.

    Touching intervals (shared endpoint) have gap 0.

    Raises:
        ValueError: if the interiors overlap.
    """
    left, right = (a, b) if a.lo <= b.lo else (b, a)
    separation = right.lo - left.hi
    if separation < 0:
        raise ValueError(f"intervals overlap: [{a.lo},{a.hi}] and [{b.lo},{b.hi}]")
    return separation


def sup_distance(a: ClosedInterval, b: ClosedInterval) -> Fraction:
    """Largest distance |x - y| over x in a, y in b (hull-based upper bound)."""
    return max(b.hi - a.lo, a.hi - b.lo)


def hull(intervals: Iterable[ClosedInterval]) -> ClosedInterval:
    """Smallest closed interval containing all the given intervals."""
    items = list(intervals)
    if not items:
        raise ValueError("hull of no intervals")
    return ClosedInterval(min(iv.lo for iv in items), max(iv.hi for iv in items))


def interval_to_json(interval: ClosedInterval) -> dict:
    return {"lo": scalar_to_json(interval.lo), "hi": scalar_to_json(interval.hi)}


def interval_from_json(obj: dict) -> ClosedInterval:
    return ClosedInterval(scalar_from_json(obj["lo"]), scalar_from_json(obj["hi"]))
