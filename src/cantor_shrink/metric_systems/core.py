"""Finite metric dynamical systems with exact rational distances.

Everything here is desk scale on purpose: a system is a finite set of points
given by integer coordinates over one scale, and its metric is their
coordinate-sum (L1) distance, a metric by theorem once the tuples are
distinct.  So any certificate computed downstream — local radial shrinking,
separated-set counts, entropy estimates — is a statement about a genuine
metric space and not about unchecked tables.

A system stores its metric as one positive integer scale S and the n×n
matrix of integers D its coordinates give, indexed by point position, with
d(x_i, x_j) = D[i][j] / S.  The constructors put their inputs over one
common denominator once, and every certificate compares integers over S;
reduced ``Fraction``s appear only where a value leaves the module
(:func:`~cantor_shrink.exact.scaled_fraction`).
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
from cantor_shrink.exact import scaled_fraction, system_bytes
from cantor_shrink.interval_embed import EmbeddingScheme, absolute_level


@dataclass
class FinitePointSystem:
    """Point ids, exact metric as integers over one scale, total self-map.

    ``dist[i][j] / scale`` is the distance between ``points[i]`` and
    ``points[j]``.  ``eps`` optionally assigns each point the radius inside
    which shrinking is demanded; ``source`` records where the system came
    from (used by label bookkeeping, never by the metric checks).

    A system is given by ``coords``, one integer tuple per point over
    ``scale``, and ``dist`` is their coordinate-sum (L1) distance.  That is
    a metric once the tuples are distinct, so only that is checked: each
    axis |p - q| is symmetric and obeys the triangle inequality, so does a
    sum of them, and the sum is positive exactly when the tuples differ
    (and the bound admits the matrix).
    """

    points: list
    scale: int
    coords: list
    map: dict
    eps: dict | None = None
    source: dict | None = None
    dist: list = field(init=False, repr=False)
    index: dict = field(init=False, repr=False)
    succ: list = field(init=False, repr=False)

    def __post_init__(self):
        pts, n = self.points, len(self.points)
        self.index = index = {x: i for i, x in enumerate(pts)}
        if not pts or len(index) != n:
            raise ValueError("points must be nonempty and distinct")
        self.succ = [index.get(self.map.get(x)) for x in pts]
        if None in self.succ:
            x = pts[self.succ.index(None)]
            raise ValueError(f"map must send {x!r} to a point of the system")
        if type(self.scale) is not int or self.scale <= 0:
            raise ValueError(f"scale must be a positive integer, not {self.scale!r:.40}")
        self.dist = self._l1_distances()
        if self.eps is not None:
            for x in pts:
                if self.eps.get(x, Fraction(0)) <= 0:
                    raise ValueError(f"eps radius at {x!r} must be positive")

    def _l1_distances(self) -> list:
        """The coordinate-sum matrix of ``coords``, refused on a repeated
        tuple, naming the first such pair in point order, and past the bound
        predicted over the scale: the package's systems lie within a few
        multiples of it, and the file reader bounds the rest."""
        coords, n = self.coords, len(self.points)
        if len(coords) != n or len(set(map(len, coords))) > 1:
            raise ValueError(f"coordinates must be {n} tuples of one length")
        if len(set(coords)) < n:
            first = {}
            i, j = min((first[c], j) for j, c in enumerate(coords) if first.setdefault(c, j) != j)
            raise ValueError(f"points {self.points[i]!r} and {self.points[j]!r} share one coordinate tuple")
        bits = self.scale.bit_length()
        check_memory(system_bytes(n, bits), f"{n} points over a {bits}-bit scale")
        axes = list(zip(*coords)) or [(0,) * n]
        dist = [[abs(p - q) for q in axes[0]] for p in axes[0]]
        for xs in axes[1:]:
            # summed into the rows in place, so no second matrix is held
            for row, p in zip(dist, xs):
                row[:] = [d + abs(p - q) for d, q in zip(row, xs)]
        return dist

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

    def d(self, x, y) -> Fraction:
        return scaled_fraction(self.dist[self.index[x]][self.index[y]], self.scale)


class LrsResult(NamedTuple):
    """Outcome of a radial-shrinking check: flag, failing pair, worst margin."""

    ok: bool
    witness: tuple | None
    min_margin: Fraction | None


def _image_distances(sys: FinitePointSystem) -> list:
    """Row i, column j: d(f(x_i), f(x_j)) over the system's scale."""
    succ = sys.succ
    return [[row[k] for k in succ] for row in (sys.dist[i] for i in succ)]


def _radii(sys: FinitePointSystem, image: list) -> list:
    """Computed radii over the scale: nearest non-shrinking partner, else
    one unit past the diameter."""
    fallback = max(map(max, sys.dist)) + sys.scale
    return [
        min((d for d, e in zip(row, img) if e >= d > 0), default=fallback)
        for row, img in zip(sys.dist, image)
    ]


def computed_radii(sys: FinitePointSystem) -> dict:
    """Largest usable radius per point: distance to its nearest
    non-shrinking partner, or past the diameter if every partner shrinks."""
    radii = _radii(sys, _image_distances(sys))
    return {x: scaled_fraction(r, sys.scale) for x, r in zip(sys.points, radii)}


def check_lrs(sys: FinitePointSystem) -> LrsResult:
    """Is the system locally radially shrinking at every point?

    Uses the system's own radii when provided, otherwise the computed
    maximal feasible ones.  Returns the first failing pair as witness, or the
    smallest shrink margin over all pairs that had to shrink.
    """
    scale, image = sys.scale, _image_distances(sys)
    if sys.eps is None:
        radii = _radii(sys, image)
    else:
        # d < r exactly when D < ceil(r * scale), D being an integer
        radii = [-(-Fraction(sys.eps[x]) * scale // 1) for x in sys.points]
    worst = None
    for i, (row, img, r) in enumerate(zip(sys.dist, image, radii)):
        margins = [d - e for d, e in zip(row, img) if 0 < d < r]
        if not margins:
            continue
        least = min(margins)
        if least <= 0:
            j = next(j for j, (d, e) in enumerate(zip(row, img)) if 0 < d < r and d <= e)
            margin = scaled_fraction(row[j] - img[j], scale)
            return LrsResult(False, (sys.points[i], sys.points[j]), margin)
        if worst is None or least < worst:
            worst = least
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


def check_shrinking(sys: FinitePointSystem) -> bool:
    """Global strict shrinking: d(f(x), f(y)) < d(x, y) for every pair."""
    dist, succ = sys.dist, sys.succ
    return all(dist[succ[i]][succ[j]] < row[j] for i, row in enumerate(dist) for j in range(i + 1, len(row)))


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


def _random_system(rng: random.Random, max_size: int) -> FinitePointSystem:
    """One random system on the line, built as integers over the denominator
    its positions share: 997, 3989, or 997·49·2^(n-1) for the halving chain."""
    kind = rng.randrange(3)
    if kind == 0:
        return FinitePointSystem([0], 997, [(rng.randrange(1, 1000),)], {0: 0})
    n = rng.randint(2, max_size)
    if kind == 1:
        values = rng.sample(range(1, 4000), n)
        step = {i: rng.randrange(n) for i in range(n)}
        return FinitePointSystem(list(range(n)), 3989, [(v,) for v in values], step)
    # halving chain onto a fixed endpoint: strictly shrinking, never
    # surjective (the fixed point sits on the same geometric ladder so that
    # every pair, not just interior ones, contracts strictly).  Point i sits
    # at centre + offset / 2^(n-1-i), centre = a/997 and offset = ±b/49
    centre = (rng.randrange(1000) * 49) << (n - 1)
    offset = rng.choice([-1, 1]) * rng.randrange(1, 50) * 997
    coords = [(centre + (offset << i),) for i in range(n)]
    step = {i: max(i - 1, 0) for i in range(n)}
    return FinitePointSystem(list(range(n)), (997 * 49) << (n - 1), coords, step)


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
    """Hammer the shrinking-map propositions with random finite systems.

    For every generated system that happens to shrink globally, assert:
    surjective implies a single point; the eventual image is a unique fixed
    point; every non-fixed point has an empty iterated preimage within |X|
    steps.  Any violation lands in ``counterexamples`` (expected empty —
    these are theorems).

    Every trial builds and checks its own system, but the propositions are
    decided once per distinct map: they read only the successor list, so
    systems with equal lists have equal claims.  Few distinct maps occur (a
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
        sys = _random_system(rng, max_size)
        if not check_shrinking(sys):
            continue
        report["shrinking_systems"] += 1
        key = tuple(sys.succ)
        if key not in decided:
            decided[key] = _shrinking_claims(sys.succ)
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
    case exponential, refused past CLIQUE_POINTS_LIMIT points.  Orbits walk
    min(n, |P|^2) steps: a pair's joint orbit repeats a state within |P|^2.
    """
    if n < 1:
        raise ValueError("need at least one step")
    if eps <= 0:
        raise ValueError("separation threshold must be positive")
    size = len(sys.points)
    if size > CLIQUE_POINTS_LIMIT:
        raise ValueError(f"a separated count takes at most {CLIQUE_POINTS_LIMIT} points, not {size}")
    # d > eps exactly when D > floor(eps * scale), D being an integer
    threshold = Fraction(eps) * sys.scale // 1
    dist, succ = sys.dist, sys.succ
    orbits = [[i] for i in range(size)]
    for _ in range(min(n, size * size) - 1):
        for orbit in orbits:
            orbit.append(succ[orbit[-1]])
    adj = [0] * len(dist)
    for i, orbit in enumerate(orbits):
        for j in range(i + 1, len(dist)):
            if any(dist[u][v] > threshold for u, v in zip(orbit, orbits[j])):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return _max_clique(adj)


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


def core_midpoints(scheme: EmbeddingScheme, depth: int) -> dict:
    """Label -> the midpoint of the cell's core at ``depth``, from 0, taken
    from :func:`~cantor_shrink.interval_embed.absolute_level`."""
    scale, cells = absolute_level(scheme, depth)
    return {label: Fraction(lo + hi, 2 * scale) for label, (_, (lo, hi)) in cells.items()}


def midpoint_system(scheme: EmbeddingScheme, depth: int) -> FinitePointSystem:
    """Depth-``depth`` core midpoints of an odometer scheme, map = +1 mod s.

    Raises:
        ValueError: past MEMORY_BOUND, predicted before any point is built
            over twice the level's scale, a multiple of every midpoint's.
    """
    if scheme.kind != "odometer":
        raise ValueError("midpoint systems need an odometer scheme (graphs branch)")
    level = scheme.level(depth)
    check_memory(system_bytes(len(level.cells), level.scale.bit_length() + 1), f"depth {depth}")
    s_d = scheme.spec.extended_modulus(depth)
    positions = core_midpoints(scheme, depth)
    step = {label: (label + 1) % s_d for label in positions}
    source = {
        "kind": "odometer-midpoints",
        "moduli": [scheme.spec.extended_modulus(n) for n in range(1, depth + 1)],
        "depth": depth,
    }
    sys = FinitePointSystem.from_positions(positions, step, source=source)
    sys.eps = computed_radii(sys)
    return sys


def full_shift_midpoint_system(depth: int = 6) -> FinitePointSystem:
    """Binary words of a fixed length as dyadic midpoints, map = left shift.

    The entropy negative control: separated counts grow like 2^n, so the
    estimates sit at log 2 instead of decaying.

    Raises:
        ValueError: for a word length below 1, or at the first length up
            to ``depth`` predicted past MEMORY_BOUND, before any word exists.
    """
    if depth < 1:
        raise ValueError(f"the full shift needs a word length of at least 1, not {depth!r}")
    for length in range(1, depth + 1):  # the first length past the bound is refused, never a huge 2^depth
        check_memory(system_bytes(1 << length, length + 2), f"word length {length}")
    words = [format(v, f"0{depth}b") for v in range(2**depth)]
    positions = {w: Fraction(2 * int(w, 2) + 1, 2 ** (depth + 1)) for w in words}
    step = {w: w[1:] + "0" for w in words}
    source = {"kind": "full-shift", "symbols": 2, "depth": depth}
    return FinitePointSystem.from_positions(positions, step, source=source)


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
    bits more than it, and admitted from n, k and the scale's leading digit
    by the bound before any is decoded; more than ``max_points`` points are
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
    # k is the longest tuple's length; a coordinate's leading digit is at most 64 bits past
    # the scale's, so it lies below 2^(bits+65), and a distance below 2^(bits+66) k: at that
    # width the prediction counts no distance as a shared small int, however the file spreads them
    where = f"field 'coords': {n} points, {k} coordinates each, over a {bits}-bit scale"
    check_memory(system_bytes(n, bits + 66 + k.bit_length()) + dense_bytes(n * k, bits + 65), where)
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
