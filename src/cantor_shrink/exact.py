"""Exact integers and rational scalars, closed intervals, and canonical JSON.

Every certified quantity in this package is exact: a `fractions.Fraction`,
or an integer over a known integer scale; floats appear only in explicitly
approximate export paths.

Files and reports write exact values as integers over a scale they declare
once (:func:`common_scale` gives the least one): scheme geometry, pair
margins, finite systems, extensions and their certificates.  Each integer
is one canonical string of signed binary digits in non-adjacent form,
``"+84370-84366+12"`` for 2^84370 - 2^84366 + 2^12, written by
:func:`int_to_digits` and read back by :func:`digits_to_int`.

Scheme geometry is held as :class:`Dyadic` values: a few clusters c 2^l
whose signed digits are their clusters' digits side by side.  Every length
a scheme stores is one cluster of an odd c of at most 4 bits, or the
difference of two, while its scale runs to millions of bits, so a value
costs its digits, not its magnitude, to hold, add, compare and write.
Finite systems stay dense Python integers over their scale.  Only the
derivative-ratio report writes JSON scalar objects (:func:`scalar_to_json`),
with ``str`` terms: its values are k 2^a 3^b with small k.

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
from operator import itemgetter, methodcaller
from typing import Iterator, NamedTuple, Union

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
    first, as ``+e`` or ``-e`` for ±2^e; ``"0"`` for zero."""
    if not x:
        return "0"
    k = (x & -x).bit_length() - 1
    return _naf(x >> k, k)


def _naf(c: int, k: int) -> str:
    """The non-adjacent form of c 2^k, c odd.

    The form of c 2^k is the form of c with k added to every exponent, so
    only c is worked on: every value built is the size of c, not of c 2^k.
    With h = |c| >> 1, the bits of (|c| + h) ^ h are the nonzero digits,
    those also set in |c| + h the digits +1, so the digits come out of a
    few C-level operations on the whole integer.  A few digits are then
    read off by clearing the top one at a time; past ``_SCANNED_DIGITS``,
    each clearing would copy the whole integer, so the digits are found by
    one scan of the binary strings instead, linear in the size of c.
    """
    if c == 1:
        return f"+{k}"
    if c == -1:
        return f"-{k}"
    m = abs(c)
    half = m >> 1
    three_halves = m + half
    change = half ^ three_halves
    plus, minus = three_halves & change, half & change
    if c < 0:
        plus, minus = minus, plus
    if change.bit_count() > _SCANNED_DIGITS:
        at, top = format(change, "b"), change.bit_length() - 1 + k
        signs = format(plus, f"0{len(at)}b")
        return "".join([f"{'+' if signs[i] == '1' else '-'}{top - i}" for i in map(_START, _ONE.finditer(at))])
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


_SCANNED_DIGITS = 512  # more digits than this are found by a scan (:func:`_naf`)
_ONE = re.compile("1")
_START = methodcaller("start")  # where a match of _ONE begins


def digits_bits(text: str) -> int:
    """At most the bits of the integer a signed-digit string writes, read off its leading digit."""
    if not (isinstance(text, str) and _DIGITS.fullmatch(text)):
        raise ValueError(f"{text!r:.40} is not a signed-digit string")
    return 0 if text == "0" else int(_TERM.match(text)[2]) + 1


def _digit_terms(text: str, max_bits: int) -> Iterator[tuple[int, int]]:
    """(±1, e) for each digit of one :func:`int_to_digits` output, highest
    first, whose leading exponent is at most ``max_bits``.  Only the
    canonical form is read: exponents strictly descending, no two adjacent,
    and ``"0"`` for zero; each value has exactly one such string.

    Raises:
        ValueError: when the string is not of that form or its leading
            exponent exceeds ``max_bits``; both are found before a digit is
            given.
    """
    if digits_bits(text) > max_bits + 1:
        raise ValueError(f"{text[:40]!r} exceeds {max_bits} bits")
    e = None
    for term in _TERM.finditer(text):
        sign, digits = term.groups()
        f = int(digits)
        if e is not None and e - f < 2:
            raise ValueError(f"{text[:40]!r} is not canonical: exponents must fall by at least 2")
        yield (1 if sign == "+" else -1), f
        e = f


_HORNER_RUN = 64  # digits of a string read by Horner's rule; the rest are set as bits


def digits_to_int(text: str, max_bits: int) -> int:
    """Parse one :func:`int_to_digits` output whose leading exponent is at
    most ``max_bits``, as :func:`_digit_terms` reads it.

    The value is built by Horner's rule, a shift by the fall in exponent and
    a ±1 per digit.  A Horner step copies the value built so far, so past the
    first ``_HORNER_RUN`` digits the rest are set as bits in two byte arrays,
    added in once: decoding stays linear in the length of the string and of
    its value.
    """
    x = e = 0  # the value so far is x 2^e, e the last exponent read
    base = None  # set past the Horner run: the digits left lie below 2^base
    for k, (sign, f) in enumerate(_digit_terms(text, max_bits)):
        if not x:  # the leading digit
            x = sign
        elif base is not None:
            (plus if sign > 0 else minus)[f >> 3] |= 1 << (f & 7)
        else:
            x = (x << e - f) + sign
        e = f
        if k == _HORNER_RUN - 1:
            base = e
            plus, minus = bytearray((e >> 3) + 1), bytearray((e >> 3) + 1)
    if base is None:
        return x << e
    return (x << base) + int.from_bytes(plus, "little") - int.from_bytes(minus, "little")


# ---------------------------------------------------------------------------
# dyadic clusters


def _odd(c: int, l: int) -> tuple[int, int]:
    """c 2^l, c != 0, as (odd, exponent)."""
    k = (c & -c).bit_length() - 1
    return c >> k, l + k


class Dyadic(tuple):
    """An exact integer as a short tuple of clusters (c, l), lowest first,
    meaning the sum of c 2^l.

    Each c is odd, and consecutive clusters are at least 2 bits apart: the
    leading digit of one cluster's non-adjacent form lies at least two
    places below the next cluster's 2^l.  Two facts follow, and they are
    why the type is cheap where the value is huge and its digits few:

    * the sign of a value is the sign of its top cluster (the empty tuple
      is zero), since the clusters below it sum to less than 2^(l - 1);
    * the value's non-adjacent form, the signed-digit string of
      :func:`int_to_digits`, is the concatenation of each cluster's own
      form, shifted by its l: writing a value costs its digits, not its
      magnitude, and no sum is ever normalised to that form.

    A sum merges two clusters into one only where they come closer than 2
    bits, so a value's clusters and their sizes follow its digits, not its
    magnitude.  The form of a value is not unique, so values compare by the
    sign of their difference, never as tuples; they are not hashable.  A
    scale is the one-cluster value M 2^P.
    """

    __slots__ = ()
    __hash__ = None

    @classmethod
    def term(cls, c: int, l: int = 0) -> Dyadic:
        """c 2^l, for any integer c."""
        return cls((_odd(c, l),)) if c else ZERO

    @classmethod
    def from_digits(cls, text: str, max_bits: int) -> Dyadic:
        """The value of one signed-digit string, read as :func:`digits_to_int`
        reads it: digits two places apart join one cluster, by Horner's rule
        over at most ``_HORNER_RUN`` digits, so reading stays linear.  A
        value of more than ``_HORNER_RUN`` clusters, dense as no scheme
        length is, is held as the one cluster :func:`digits_to_int` reads,
        so that sums on it are C-level operations on one integer."""
        out = []
        c = e = run = 0  # the cluster being read is c 2^e, of ``run`` digits
        for sign, f in _digit_terms(text, max_bits):
            if c and e - f == 2 and run < _HORNER_RUN:
                c, run = 4 * c + sign, run + 1
            else:
                if c:
                    out.append((c, e))
                c, run = sign, 1
            e = f
        if c:
            out.append((c, e))
        if len(out) > _HORNER_RUN:
            return cls.term(digits_to_int(text, max_bits))
        out.reverse()
        return cls(out)

    def digits(self) -> str:
        """The value's signed-digit string, as :func:`int_to_digits` writes it."""
        if not self:
            return "0"
        return "".join([_naf(c, l) for c, l in reversed(self)])

    def __int__(self) -> int:
        return sum(c << l for c, l in self)

    def __repr__(self) -> str:
        return f"Dyadic({list(self)!r})"

    def sign(self) -> int:
        return (self[-1][0] > 0) - (self[-1][0] < 0) if self else 0

    def bit_length(self) -> int:
        """The bits of the value's magnitude, as ``int.bit_length`` counts them."""
        if not self:
            return 0
        c, l = self[-1]
        # the clusters below shorten the top only when it is a bare power of two they pull down
        return l + abs(c).bit_length() - (abs(c) == 1 and len(self) > 1 and (c > 0) != (self[-2][0] > 0))

    def scaled(self, m: int, e: int = 0) -> Dyadic:
        """The value times m 2^e."""
        if not m:
            return ZERO
        return _sum([(c * m, l + e) for c, l in self])

    def __lshift__(self, e: int) -> Dyadic:
        return Dyadic([(c, l + e) for c, l in self])

    def __rshift__(self, e: int) -> Dyadic:
        """The value over 2^e, which the caller knows to be an integer."""
        return Dyadic([(c, l - e) for c, l in self])

    def __mul__(self, m: int) -> Dyadic:
        return self.scaled(m)

    __rmul__ = __mul__

    def __neg__(self) -> Dyadic:
        return Dyadic([(-c, l) for c, l in self])

    def __add__(self, other: Dyadic) -> Dyadic:
        if not other:
            return self
        if not self:
            return other
        return _sum(_merged(self, other))

    def __sub__(self, other: Dyadic) -> Dyadic:
        if not other:
            return self
        if not self:
            return -other
        return _sum(_merged(self, [(-c, l) for c, l in other]))

    def compare(self, other: Dyadic) -> int:
        """The sign of self - other, read off the top clusters where they decide it.

        Equal top clusters cancel.  Below them, the top clusters (a, l) and
        (b, l') decide when their signs differ, when one reaches 2 bits or
        more above the other, or 1 bit above it with the value at least its
        top bit (:func:`_full`), or when l = l' (a - b, even and nonzero,
        outweighs the clusters below); only otherwise is the difference
        formed.  A value whose top cluster (c, l) reaches bit t = l +
        bit_length(|c|) lies strictly between 2^(t - 2) and 2^t in size.
        """
        i, j = len(self), len(other)
        if i == 1 == j:  # one cluster each, as most lengths are: exact in 2^(t - 1) <= |x| < 2^t
            (a, la), (b, lb) = self[0], other[0]
            if (a > 0) != (b > 0):
                return 1 if a > 0 else -1
            ta, tb = la + abs(a).bit_length(), lb + abs(b).bit_length()
            if ta != tb:
                return 1 if (ta > tb) == (a > 0) else -1
            x, y = (a << la - lb, b) if la > lb else (a, b << lb - la)
            return (x > y) - (x < y)
        while i and j and self[i - 1] == other[j - 1]:
            i, j = i - 1, j - 1
        if not j:
            return 0 if not i else 1 if self[i - 1][0] > 0 else -1
        if not i:
            return -1 if other[j - 1][0] > 0 else 1
        (a, la), (b, lb) = self[i - 1], other[j - 1]
        if (a > 0) != (b > 0):
            return 1 if a > 0 else -1
        if la == lb:
            return 1 if a > b else -1
        ta, tb = la + abs(a).bit_length(), lb + abs(b).bit_length()
        if ta > tb + 1 or ta == tb + 1 and _full(self, i):  # |self| > 2^(ta - 2) >= 2^tb > |other|
            return 1 if a > 0 else -1
        if tb > ta + 1 or tb == ta + 1 and _full(other, j):
            return -1 if b > 0 else 1
        return _sum(_merged(self[:i], [(-c, l) for c, l in other[:j]])).sign()

    def __eq__(self, other) -> bool:
        return type(other) is Dyadic and not self.compare(other)

    def __ne__(self, other) -> bool:
        return not self == other

    def __lt__(self, other: Dyadic) -> bool:
        return self.compare(other) < 0

    def __le__(self, other: Dyadic) -> bool:
        return self.compare(other) <= 0

    def __gt__(self, other: Dyadic) -> bool:
        return self.compare(other) > 0

    def __ge__(self, other: Dyadic) -> bool:
        return self.compare(other) >= 0


_EXPONENT = itemgetter(1)  # a cluster's l


def _full(x: Dyadic, i: int) -> bool:
    """Whether the value of the first i clusters of x is at least its top
    bit in size: its top c is not ±1, or nothing below pulls it down."""
    c = x[i - 1][0]
    return abs(c) > 1 or i == 1 or (x[i - 2][0] > 0) == (c > 0)


def _merged(x, y) -> tuple:
    """The clusters of x and y in ascending l; most sums put one wholly above the other."""
    if x[-1][1] <= y[0][1]:
        return (*x, *y)
    if y[-1][1] <= x[0][1]:
        return (*y, *x)
    return sorted((*x, *y), key=_EXPONENT)


def _sum(terms) -> Dyadic:
    """The Dyadic sum of (c, l) terms, c != 0 any integer, in ascending l:
    a term joins the cluster below it when it starts less than 2 bits above
    that cluster's leading digit (which the non-adjacent form of c != 0
    puts at 2^(bit_length(3|c|) - 2)), and every cluster is made odd as
    :func:`_odd` does, written out here because every sum passes through
    this loop."""
    out = []
    acc = base = 0  # the cluster being gathered is acc 2^base
    for c, l in terms:
        if acc and l < base + (3 * acc if acc > 0 else -3 * acc).bit_length():
            acc += c << l - base
        else:
            if acc:
                k = (acc & -acc).bit_length() - 1
                out.append((acc >> k, base + k))
            acc, base = c, l
    if acc:
        k = (acc & -acc).bit_length() - 1
        out.append((acc >> k, base + k))
    return Dyadic(out)


ZERO = Dyadic()


# ---------------------------------------------------------------------------
# predicted memory
#
# Scheme levels and finite systems hold integers over scales that grow like
# 2^(s_n^2); work past MEMORY_BOUND is refused, from the sizes of what it would
# hold, before it starts.  A scheme is predicted as the dense integers it stands
# for, not its clusters, so the bound admits wm4 and od13, not tr5 or od14.
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
