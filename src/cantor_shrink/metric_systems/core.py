"""Finite metric dynamical systems with exact rational distances.

Everything here is desk scale on purpose: a system is a finite set of points
given by integer coordinates over one scale, and its metric is their
coordinate-sum (L1) distance, a metric by theorem once the tuples are
distinct.  So any certificate computed downstream — local radial shrinking,
separated-set counts, entropy estimates — is a statement about a genuine
metric space and not about unchecked tables.

A system stores one positive integer scale S and its points' integer
coordinates, and no distance: a certificate forms the integers over S one
row per point, walking each orbit of the map so that a point's row is the
image row of the point before it; reduced ``Fraction``s appear only where
a value leaves the module (:func:`~cantor_shrink.exact.scaled_fraction`).
A system file writes every coordinate and radius as an integer over one
declared scale, and is read back into the system of those coordinates.
"""

from __future__ import annotations

import math
import random
from copy import deepcopy
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import islice
from typing import NamedTuple

from cantor_shrink.exact import check_memory, common_scale, dense_bytes, digits_bits, digits_to_int, int_to_digits
from cantor_shrink.exact import scaled_fraction
from cantor_shrink.interval_embed import EmbeddingScheme, absolute_level


def held_bytes(n: int, k: int, bits: int, radii: bool = False) -> int:
    """Predicted bytes of n points of k coordinates of up to ``bits`` bits,
    and radii of a numerator and a denominator that wide: the integers
    dense, and 300 per point for its id, tuple, index, map and successor."""
    return 300 * n + dense_bytes(n * (k + 2 * radii), bits)


@dataclass
class FinitePointSystem:
    """Point ids, integer coordinates over one scale, total self-map.

    ``points[i]`` sits at ``coords[i] / scale``, one integer tuple per
    point, and the distance of two points is the sum over the axes of their
    coordinates' gaps (L1), formed when read, a row at a time (:meth:`row`).
    That is a metric once the tuples are distinct, so only that is checked:
    each axis |p - q| is symmetric and obeys the triangle inequality, so
    does a sum of them, and the sum is positive exactly when the tuples
    differ.  ``eps`` optionally assigns each point the radius inside which
    shrinking is demanded; ``source`` records where the system came from
    (used by label bookkeeping, never by the metric checks).
    """

    points: list
    scale: int
    coords: list
    map: dict
    eps: dict | None = None
    source: dict | None = None
    index: dict = field(init=False, repr=False)
    succ: list = field(init=False, repr=False)
    axes: list = field(init=False, repr=False)

    def __post_init__(self):
        pts, coords, n = self.points, self.coords, len(self.points)
        self.index = index = {x: i for i, x in enumerate(pts)}
        if not pts or len(index) != n:
            raise ValueError("points must be nonempty and distinct")
        self.succ = [index.get(self.map.get(x)) for x in pts]
        if None in self.succ:
            x = pts[self.succ.index(None)]
            raise ValueError(f"map must send {x!r} to a point of the system")
        if type(self.scale) is not int or self.scale <= 0:
            raise ValueError(f"scale must be a positive integer, not {self.scale!r:.40}")
        if len(coords) != n or len(set(map(len, coords))) > 1:
            raise ValueError(f"coordinates must be {n} tuples of one length")
        if len(set(coords)) < n:
            first = {}
            i, j = min((first[c], j) for j, c in enumerate(coords) if first.setdefault(c, j) != j)
            raise ValueError(f"points {pts[i]!r} and {pts[j]!r} share one coordinate tuple")
        self.axes = list(zip(*coords)) or [(0,)]  # one point of no coordinates sits at the origin
        if self.eps is not None:
            for x in pts:
                if self.eps.get(x, Fraction(0)) <= 0:
                    raise ValueError(f"eps radius at {x!r} must be positive")

    @classmethod
    def from_positions(cls, positions: dict, step: dict, eps=None, source=None):
        """Coordinate-sum (L1) metric from per-point coordinates (a rational or
        a tuple of rationals), all put over their least common denominator."""
        coords = [
            tuple(map(Fraction, p)) if isinstance(p, tuple) else (Fraction(p),)
            for p in positions.values()
        ]
        scale, flat = common_scale(c for p in coords for c in p)
        ints = iter(flat)
        ints = [tuple(islice(ints, len(p))) for p in coords]
        return cls(list(positions), scale, ints, dict(step), eps=eps, source=source)

    def row(self, i: int) -> list:
        """d(x_i, x_j) over the scale for every j, summed axis by axis."""
        first, *rest = self.axes
        p = first[i]
        row = [abs(p - q) for q in first]
        for axis in rest:
            p = axis[i]
            row = [d + abs(p - q) for d, q in zip(row, axis)]
        return row

    def d(self, x, y) -> Fraction:
        p, q = self.coords[self.index[x]], self.coords[self.index[y]]
        return scaled_fraction(sum(abs(a - b) for a, b in zip(p, q)), self.scale)


class LrsResult(NamedTuple):
    """Outcome of a radial-shrinking check: flag, failing pair, worst margin."""

    ok: bool
    witness: tuple | None
    min_margin: Fraction | None


def _row_walk(sys: FinitePointSystem):
    """``(i, row i, row of succ[i])`` for every point i, walking each orbit
    from its least unvisited point, so that the image's row is the next
    point's own: each row is formed once on a permutation, at most twice
    otherwise.  The sweep forms n^2 distances as wide as the coordinates'
    span, so its first row is refused past MEMORY_BOUND as if it held them
    all as CPython ints: that bounds its time."""
    n, succ = len(sys.points), sys.succ
    bits = sum(max(axis) - min(axis) for axis in sys.axes).bit_length()
    check_memory(n * n * (24 + 4 * -(-bits // 30)), f"a sweep of {n} points over distances of up to {bits} bits")
    seen = [False] * n
    for start in range(n):
        if seen[start]:
            continue
        i, row = start, sys.row(start)
        first = row
        while True:
            seen[i], j = True, succ[i]
            image = row if j == i else first if j == start else sys.row(j)
            yield i, row, image
            if seen[j]:
                break
            i, row = j, image


def computed_radii(sys: FinitePointSystem) -> dict:
    """Largest usable radius per point: distance to its nearest
    non-shrinking partner, or one unit past the diameter if every partner shrinks."""
    succ, radii, diameter = sys.succ, [None] * len(sys.points), 0
    for i, row, image in _row_walk(sys):
        radii[i] = min((d for d, k in zip(row, succ) if image[k] >= d > 0), default=None)
        diameter = max(diameter, max(row))
    return {x: scaled_fraction(diameter + sys.scale if r is None else r, sys.scale) for x, r in zip(sys.points, radii)}


def check_lrs(sys: FinitePointSystem) -> LrsResult:
    """Is the system locally radially shrinking at every point?

    Uses the system's own radii when provided, otherwise the computed
    maximal feasible ones, from the rows the margins come from.  Returns the
    first failing pair in point order as witness, or the smallest shrink
    margin over all pairs that had to shrink.
    """
    scale, succ, eps = sys.scale, sys.succ, sys.eps
    worst = failure = None  # failure: (i, pair, margin) of the least failing i and its row's first
    for i, row, image in _row_walk(sys):
        image = [image[k] for k in succ]
        if eps is None:
            r = min((d for d, e in zip(row, image) if e >= d > 0), default=max(row) + 1)
        else:  # d < r exactly when D < ceil(r * scale), D being an integer
            r = -(-Fraction(eps[sys.points[i]]) * scale // 1)
        least = min((d - e for d, e in zip(row, image) if 0 < d < r), default=None)
        if least is None:
            continue
        if least > 0:
            worst = least if worst is None else min(worst, least)
        elif failure is None or i < failure[0]:
            j = next(j for j, (d, e) in enumerate(zip(row, image)) if 0 < d < r and d <= e)
            failure = i, (sys.points[i], sys.points[j]), row[j] - image[j]
    if failure is not None:
        return LrsResult(False, failure[1], scaled_fraction(failure[2], scale))
    return LrsResult(True, None, None if worst is None else scaled_fraction(worst, scale))


def split_margins(checks: list, extra=()) -> tuple[int, list, list, list]:
    """The least common denominator of the margins of (entry, margin) checks
    and of ``extra``; the entries with positive margins and the others, each
    margin written over it as signed digits; and the digits of ``extra``."""
    scale, ints = common_scale([*(margin for _, margin in checks), *extra])
    digits = [int_to_digits(x) for x in ints]
    passed, failed = [], []
    for (entry, margin), text in zip(checks, digits):
        (passed if margin > 0 else failed).append({**entry, "margin": text})
    return scale, passed, failed, digits[len(checks):]


def periodic_points(sys: FinitePointSystem) -> list:
    """All points on cycles of the (finite, total) map, sorted: the image of
    f^|P|, as |P| steps from any point end on a cycle, which f maps onto itself."""
    image = set(range(len(sys.points)))
    for _ in sys.points:
        image = {sys.succ[i] for i in image}
    return sorted(sys.points[i] for i in image)


# ---------------------------------------------------------------------------
# randomized oracle for the shrinking-map propositions
# ---------------------------------------------------------------------------


def _random_line_map(rng: random.Random, max_size: int) -> tuple[list, list]:
    """One random map on the line: each point's integer position over the
    denominator they share, 997, 3989, or 997·49·2^(n-1) for the halving
    chain, and each point's successor index."""
    kind = rng.randrange(3)
    if kind == 0:
        return [rng.randrange(1, 1000)], [0]
    n = rng.randint(2, max_size)
    if kind == 1:
        return rng.sample(range(1, 4000), n), [rng.randrange(n) for _ in range(n)]
    # halving chain onto a fixed endpoint: strictly shrinking, never
    # surjective (the fixed point sits on the same geometric ladder so that
    # every pair, not just interior ones, contracts strictly).  Point i sits
    # at centre + offset / 2^(n-1-i), centre = a/997 and offset = ±b/49
    centre = (rng.randrange(1000) * 49) << (n - 1)
    offset = rng.choice([-1, 1]) * rng.randrange(1, 50) * 997
    return [centre + (offset << i) for i in range(n)], [max(i - 1, 0) for i in range(n)]


def _shrinks_on_the_line(positions: list, succ: list) -> bool:
    """Global strict shrinking of the map ``succ`` on distinct integer
    ``positions`` on the line, where d(x, y) is |x - y| over one scale: is
    |x[s_i] - x[s_j]| < |x_i - x_j| for every pair i < j?  A repeated
    position raises ValueError, as a repeated tuple does in a system."""
    if len(set(positions)) < len(positions):
        raise ValueError(f"positions must be distinct, not {positions!r:.60}")
    n = len(positions)
    for i in range(n):
        x, fx = positions[i], positions[succ[i]]
        for j in range(i + 1, n):
            if abs(fx - positions[succ[j]]) >= abs(x - positions[j]):
                return False
    return True


def _vanishing_step(preimages: list, x: int) -> int | None:
    """Steps until the iterated preimages of point ``x`` are empty, given
    each point's preimages; None if they are not within len(preimages) + 1."""
    level, steps = {x}, 0
    while level and steps <= len(preimages):
        level = {y for z in level for y in preimages[z]}
        steps += 1
    return None if level else steps


def _shrinking_claims(succ: list) -> tuple[bool, list, int]:
    """The propositions' checks on one shrinking map, given as the successor
    of each point index: whether it is onto, the claims it breaks in the
    order checked, and the most steps a non-fixed point's iterated preimages
    took to vanish (0 when none was walked)."""
    pts = range(len(succ))
    surjective = len(set(succ)) == len(succ)
    claims = ["surjective"] if surjective and len(succ) != 1 else []
    image = set(pts)
    for _ in pts:
        image = {succ[x] for x in image}
    fixed = [x for x in pts if succ[x] == x]
    if len(image) != 1 or len(fixed) != 1 or image != set(fixed):
        return surjective, [*claims, "unique-fixed-point"], 0
    preimages = [[] for _ in pts]
    for y, x in enumerate(succ):
        preimages[x].append(y)
    steps = [_vanishing_step(preimages, x) for x in pts if x != fixed[0]]
    claims += ["preimage-vanishes"] * steps.count(None)
    return surjective, claims, max(filter(None, steps), default=0)


def shrinking_propositions_oracle(trials: int = 1000, max_size: int = 8, seed: int = 0) -> dict:
    """Hammer the shrinking-map propositions with random maps on the line.

    For every drawn map that happens to shrink globally, assert:
    surjective implies a single point; the eventual image is a unique fixed
    point; every non-fixed point has an empty iterated preimage within |X|
    steps.  Any violation lands in ``counterexamples`` (expected empty —
    these are theorems).

    Every trial draws its own points and map and checks shrinking on the
    integer positions, which needs no distance matrix: the points lie on the
    line over one denominator.  The propositions are decided once per
    distinct map: they read only the successor list, so maps with equal
    lists have equal claims.  Few distinct maps occur (a
    single point is always ``[0]``, a halving chain's map is fixed by its
    length, and few random maps shrink), so 5,000 trials meet a few dozen.

    Raises:
        ValueError: if ``trials`` is below 1 or ``max_size`` below 2.
    """
    if trials < 1:
        raise ValueError(f"the oracle needs at least one trial, not {trials}")
    if max_size < 2:
        raise ValueError(f"the oracle's max_size must be at least 2, not {max_size}")
    rng = random.Random(seed)
    decided: dict[tuple, tuple[bool, list, int]] = {}
    report = {
        "trials": trials,
        "max_size": max_size,
        "seed": seed,
        "shrinking_systems": 0,
        "surjective_shrinking": 0,
        "max_preimage_vanishing_step": 0,
        "counterexamples": [],
    }
    for t in range(trials):
        positions, succ = _random_line_map(rng, max_size)
        if not _shrinks_on_the_line(positions, succ):
            continue
        report["shrinking_systems"] += 1
        key = tuple(succ)
        if key not in decided:
            decided[key] = _shrinking_claims(succ)
        surjective, claims, steps = decided[key]
        report["surjective_shrinking"] += surjective
        report["counterexamples"] += [{"trial": t, "claim": claim} for claim in claims]
        report["max_preimage_vanishing_step"] = max(report["max_preimage_vanishing_step"], steps)
    return report


# ---------------------------------------------------------------------------
# separated sets and entropy
# ---------------------------------------------------------------------------


def _max_clique(adj: list[int]) -> int:
    best = 0

    def colour_sort(cand: int):
        # greedy colouring; a vertex of colour c caps any clique through the
        # remaining candidates at c, which is what makes dense graphs (the
        # shift systems are nearly complete) tractable
        order: list[int] = []
        bounds: list[int] = []
        colour = 0
        rest = cand
        while rest:
            colour += 1
            avail = rest
            while avail:
                low = avail & -avail
                avail ^= low
                v = low.bit_length() - 1
                avail &= ~adj[v]
                rest ^= low
                order.append(v)
                bounds.append(colour)
        return order, bounds

    def expand(cand: int, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        order, bounds = colour_sort(cand)
        while order:
            v = order.pop()
            if size + bounds.pop() <= best:
                return
            expand(cand & adj[v], size + 1)
            cand &= ~(1 << v)

    expand((1 << len(adj)) - 1, 0)
    return best


# the clique search recurses once per clique point: near 1,000 points it meets Python's
# 1,000-frame limit (shift 10, eps 1/64, n 3); 512, the most a matrix file held, take 0.3 s
CLIQUE_POINTS_LIMIT = 512


def separated_count(sys: FinitePointSystem, n: int, eps: Fraction) -> int:
    """Maximal number of points whose orbits eps-separate within n steps.

    Exact branch-and-bound maximum clique on the separation graph, worst
    case exponential, refused past CLIQUE_POINTS_LIMIT points.  Orbits
    separate within m + 1 steps when their points are more than eps apart
    or their images' orbits separate within m; the steps stop at n or at
    one that adds no pair, within |P|^2 steps, as each before it adds one.
    """
    if n < 1:
        raise ValueError("need at least one step")
    if eps <= 0:
        raise ValueError("separation threshold must be positive")
    size = len(sys.points)
    if size > CLIQUE_POINTS_LIMIT:
        raise ValueError(f"a separated count takes at most {CLIQUE_POINTS_LIMIT} points, not {size}")
    # d > eps exactly when D > floor(eps * scale), D being an integer; a row holds
    # one byte per partner, 1 when apart, as one int, so OR is one operation
    threshold = Fraction(eps) * sys.scale // 1
    far = [0] * size
    for i, row, _ in _row_walk(sys):
        far[i] = int.from_bytes(bytes(map(threshold.__lt__, row)))
    succ, apart = sys.succ, far
    for _ in range(n - 1):  # an image's row read through the map: byte j is its byte succ[j]
        read = {u: int.from_bytes(bytes(map(apart[u].to_bytes(size).__getitem__, succ))) for u in set(succ)}
        step = [f | read[u] for f, u in zip(far, succ)]
        if step == apart:
            break
        apart = step
    digits = bytes.maketrans(b"\0\1", b"01")  # byte j of a row becomes bit j of the clique search's
    return _max_clique([int(row.to_bytes(size)[::-1].translate(digits), 2) for row in apart])


def entropy_estimate(sys: FinitePointSystem, eps_list, n_list) -> list[dict]:
    """Table of log s(n, eps)/n rows, one per (eps, n) combination."""
    rows = []
    for eps in eps_list:
        for n in n_list:
            count = separated_count(sys, n, eps)
            rows.append({"n": n, "count": count, "estimate": math.log(count) / n})
    return rows


# ---------------------------------------------------------------------------
# products and scheme-derived systems
# ---------------------------------------------------------------------------


def product_system(sys1: FinitePointSystem, sys2: FinitePointSystem) -> FinitePointSystem:
    """Cartesian product with sum metric and componentwise map.

    Radii combine as the componentwise minimum when both factors carry
    radii, which is exactly what makes local shrinking survive the product.
    Its coordinates are each factor's tuple over the common scale,
    concatenated.
    """
    pts = [(p, q) for p in sys1.points for q in sys2.points]
    scale = math.lcm(sys1.scale, sys2.scale)
    up1, up2 = scale // sys1.scale, scale // sys2.scale
    coords = [tuple(u * up1 for u in c1) + tuple(v * up2 for v in c2) for c1 in sys1.coords for c2 in sys2.coords]
    step = {(p, q): (sys1.map[p], sys2.map[q]) for p, q in pts}
    eps = None
    if sys1.eps is not None and sys2.eps is not None:
        eps = {(p, q): min(sys1.eps[p], sys2.eps[q]) for p, q in pts}
    source = None
    if sys1.source is not None and sys2.source is not None:
        source = {"kind": "product", "factors": [sys1.source, sys2.source]}
    return FinitePointSystem(pts, scale, coords, step, eps=eps, source=source)


def core_midpoints(level: tuple) -> dict:
    """Label -> the midpoint of the cell's core, from 0, for a level
    ``(scale, cells)`` of :func:`~cantor_shrink.interval_embed.absolute_level`."""
    scale, cells = level
    return {label: Fraction(lo + hi, 2 * scale) for label, (_, (lo, hi)) in cells.items()}


def midpoint_system(scheme: EmbeddingScheme, depth: int) -> FinitePointSystem:
    """Depth-``depth`` core midpoints of an odometer scheme, map = +1 mod s.

    A core's midpoint (lo + hi) / 2S, S the level's scale, is (lo + hi) / g
    over their least common denominator 2S / g, g = gcd(2S, every lo + hi):
    2^z, z the fewest trailing zero bits among them, times one gcd chain
    from the small odd part of 2S, so no division is by a wide number.

    Raises:
        ValueError: past MEMORY_BOUND, predicted over that scale before the
            system is built, and where :func:`computed_radii` refuses its sweep.
    """
    if scheme.kind != "odometer":
        raise ValueError("midpoint systems need an odometer scheme (graphs branch)")
    level_scale, cells = absolute_level(scheme, depth)
    two, sums = 2 * level_scale, [lo + hi for _, (lo, hi) in cells.values()]
    z = min((x & -x).bit_length() for x in (two, *sums)) - 1
    odd = math.gcd(two >> (two & -two).bit_length() - 1, *sums)
    scale = (two >> z) // odd
    check_memory(held_bytes(len(sums), 1, scale.bit_length(), radii=True), f"depth {depth}")
    s_d = scheme.spec.extended_modulus(depth)
    step = {label: (label + 1) % s_d for label in cells}
    source = {
        "kind": "odometer-midpoints",
        "moduli": [scheme.spec.extended_modulus(n) for n in range(1, depth + 1)],
        "depth": depth,
    }
    sys = FinitePointSystem(list(cells), scale, [((c >> z) // odd,) for c in sums], step, source=source)
    sys.eps = computed_radii(sys)
    return sys


def full_shift_midpoint_system(depth: int = 6) -> FinitePointSystem:
    """Binary words of a fixed length as dyadic midpoints, map = left shift.

    The entropy negative control: separated counts grow like 2^n, so the
    estimates sit at log 2 instead of decaying.  Word v sits at
    (2v + 1) / 2^(depth + 1).

    Raises:
        ValueError: for a word length below 1, or at the first length up
            to ``depth`` predicted past MEMORY_BOUND, before any word exists.
    """
    if depth < 1:
        raise ValueError(f"the full shift needs a word length of at least 1, not {depth!r}")
    for length in range(1, depth + 1):  # the first length past the bound is refused, never a huge 2^depth
        check_memory(held_bytes(1 << length, 1, length + 2), f"word length {length}")
    words = [format(v, f"0{depth}b") for v in range(2**depth)]
    step = {w: w[1:] + "0" for w in words}
    source = {"kind": "full-shift", "symbols": 2, "depth": depth}
    return FinitePointSystem(words, 2 ** (depth + 1), [(2 * v + 1,) for v in range(2**depth)], step, source=source)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _encode_id(x):
    if isinstance(x, tuple):
        return [_encode_id(v) for v in x]
    return x


def _decode_id(x):
    if isinstance(x, list):
        return tuple(_decode_id(v) for v in x)
    if type(x) not in (int, str):
        raise ValueError(f"field 'points': a point id is an integer, a string or a list of ids, not {x!r:.40}")
    return x


def system_to_json(sys: FinitePointSystem) -> dict:
    """The system's JSON form: one ``scale``, the least multiple of the
    system's over which every radius is an integer, and each point's
    coordinates and each radius as signed binary digits over it."""
    scale, eps = common_scale([] if sys.eps is None else [sys.eps[x] for x in sys.points], sys.scale)
    up = scale // sys.scale
    out = {
        "kind": "finite-system",
        "points": [_encode_id(x) for x in sys.points],
        "metric": "l1",
        "scale": int_to_digits(scale),
        "coords": [[int_to_digits(c * up) for c in point] for point in sys.coords],
        "map": list(sys.succ),
    }
    if sys.eps is not None:
        out["eps"] = [int_to_digits(e) for e in eps]
    if sys.source is not None:
        out["source"] = deepcopy(sys.source)
    return out


def _integers(values, name: str, n: int, decode) -> list:
    """``n`` signed-digit strings from field ``name``, decoded, or a ValueError naming it."""
    if not isinstance(values, list) or len(values) != n:
        raise ValueError(f"field {name!r} must list {n} entries, one per point")
    try:
        return [decode(v) for v in values]
    except ValueError as exc:
        raise ValueError(f"field {name!r}: {exc}") from None


def system_from_json(obj: dict, max_points=math.inf) -> FinitePointSystem:
    """Rebuild a system from its JSON form: n distinct tuples of k
    coordinates over the declared scale, each refused from the text past 64
    bits more than it.  The system it would hold, its coordinates and radii
    that wide, is admitted by the bound from n, k and the scale's leading
    digit before any is decoded, and more than ``max_points`` points are
    refused before anything is decoded.  It keeps a copy of the file's
    ``source``, so editing ``obj`` after the load edits no system.

    Raises:
        ValueError: naming the field, on any entry that is missing, mistyped
            or out of range, and on a file of another metric.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"a finite-system file holds a JSON object, not a {type(obj).__name__}")
    if obj.get("kind") != "finite-system":
        raise ValueError("not a finite-system descriptor")
    if obj.get("metric") != "l1":
        rebuild = "rebuild the file with `cantor-shrink build system`"
        raise ValueError(f"field 'metric' is {obj.get('metric')!r:.40}, not 'l1': {rebuild}")
    if not isinstance(obj.get("points"), list):
        raise ValueError("field 'points' must be a list of point ids")
    n, rows = len(obj["points"]), obj.get("coords")
    if n > max_points:
        raise ValueError(f"field 'points': {n} points, past the limit of {max_points}")
    pts = [_decode_id(x) for x in obj["points"]]
    if not isinstance(rows, list) or len(rows) != n or not all(isinstance(row, list) for row in rows):
        raise ValueError(f"field 'coords' must hold {n} lists, one per point")
    k = max(map(len, rows), default=0)
    [bits] = _integers([obj.get("scale")], "scale", 1, digits_bits)
    # k is the longest tuple's length; a coordinate's or radius's leading digit is at most 64 bits past the scale's
    where = f"field 'coords': {n} points, {k} coordinates each, over a {bits}-bit scale"
    check_memory(held_bytes(n, k, bits + 65, "eps" in obj), where)
    [scale] = _integers([obj["scale"]], "scale", 1, partial(digits_to_int, max_bits=bits))
    if scale <= 0:
        raise ValueError(f"field 'scale' must be positive, not {obj['scale']!r:.40}")
    decode = partial(digits_to_int, max_bits=scale.bit_length() + 64)
    coords, first = [tuple(_integers(row, "coords", len(row), decode)) for row in rows], {}
    for x, c in zip(pts, coords):
        if len(c) != len(coords[0]):
            raise ValueError(f"field 'coords': point {x!r:.40} has {len(c)} coordinates, not {len(coords[0])}")
        if first.setdefault(c, x) != x:
            raise ValueError(f"field 'coords': points {first[c]!r:.40} and {x!r:.40} share one tuple")
    targets = obj.get("map")
    if not isinstance(targets, list) or len(targets) != n:
        raise ValueError(f"field 'map' must list {n} point indices, one per point")
    for t in targets:
        if type(t) is not int or not 0 <= t < n:
            raise ValueError(f"field 'map': {t!r:.40} is not a point index below {n}")
    step = {x: pts[t] for x, t in zip(pts, targets)}
    eps = None
    if "eps" in obj:
        eps = {x: scaled_fraction(e, scale) for x, e in zip(pts, _integers(obj["eps"], "eps", n, decode))}
    return FinitePointSystem(pts, scale, coords, step, eps=eps, source=deepcopy(obj.get("source")))
