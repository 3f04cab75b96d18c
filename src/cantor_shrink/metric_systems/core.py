"""Finite metric dynamical systems with exact rational distances.

Everything here is desk scale on purpose: systems are finite point sets whose
metric is validated exactly (symmetry, positivity, triangle inequality) at
construction time, so any certificate computed downstream — local radial
shrinking, separated-set counts, entropy estimates — is a statement about a
genuine metric space and not about unchecked tables.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from cantor_shrink.exact import scalar_from_json, scalar_to_json
from cantor_shrink.interval_embed import EmbeddingScheme


@dataclass
class FinitePointSystem:
    """Point ids, exact metric (both orientations), total self-map.

    ``eps`` optionally assigns each point the radius inside which shrinking
    is demanded; ``source`` records where the system came from (used by
    label bookkeeping, never by the metric checks).
    """

    points: list
    metric: dict
    map: dict
    eps: dict | None = None
    source: dict | None = None

    def __post_init__(self):
        pts = self.points
        ids = set(pts)
        if not pts or len(ids) != len(pts):
            raise ValueError("points must be nonempty and distinct")
        for x in pts:
            if self.map.get(x) not in ids:
                raise ValueError(f"map must send {x!r} to a point of the system")
        for x, y in combinations(pts, 2):
            dxy = self.metric.get((x, y), self.metric.get((y, x)))
            if dxy is None or dxy <= 0:
                raise ValueError(f"metric must be positive and defined on {(x, y)!r}")
            self.metric[(x, y)] = self.metric[(y, x)] = dxy
        for x in pts:
            for y in pts:
                if y is x:
                    continue
                dxy = self.metric[(x, y)]
                for z in pts:
                    if z is x or z is y:
                        continue
                    if dxy + self.metric[(y, z)] < self.metric[(x, z)]:
                        raise ValueError(f"triangle inequality fails on {(x, y, z)!r}")
        if self.eps is not None:
            for x in pts:
                if self.eps.get(x, Fraction(0)) <= 0:
                    raise ValueError(f"radius at {x!r} must be positive")

    @classmethod
    def from_positions(cls, positions: dict, step: dict, eps=None, source=None):
        """Coordinate-sum (L1) metric from per-point coordinate tuples."""
        coords = {
            x: p if isinstance(p, tuple) else (p,) for x, p in positions.items()
        }
        pts = list(positions)
        metric = {}
        for x, y in combinations(pts, 2):
            metric[(x, y)] = sum(abs(a - b) for a, b in zip(coords[x], coords[y]))
        return cls(pts, metric, dict(step), eps=eps, source=source)

    def d(self, x, y) -> Fraction:
        return Fraction(0) if x == y else self.metric[(x, y)]

    def f(self, x):
        return self.map[x]

    @property
    def diameter(self) -> Fraction:
        return max(self.metric[(x, y)] for x, y in combinations(self.points, 2)) if len(self.points) > 1 else Fraction(0)


class LrsResult(NamedTuple):
    """Outcome of a radial-shrinking check: flag, failing pair, worst margin."""

    ok: bool
    witness: tuple | None
    min_margin: Fraction | None


def computed_radii(sys: FinitePointSystem) -> dict:
    """Largest usable radius per point: distance to its nearest
    non-shrinking partner, or past the diameter if every partner shrinks."""
    radii = {}
    fallback = sys.diameter + 1
    for x in sys.points:
        bad = [
            sys.d(x, y)
            for y in sys.points
            if y != x and sys.d(sys.f(x), sys.f(y)) >= sys.d(x, y)
        ]
        radii[x] = min(bad) if bad else fallback
    return radii


def check_lrs(sys: FinitePointSystem) -> LrsResult:
    """Is the system locally radially shrinking at every point?

    Uses the system's own radii when provided, otherwise the computed
    maximal feasible ones.  Returns the first failing pair as witness, or the
    smallest shrink margin over all pairs that had to shrink.
    """
    radii = sys.eps if sys.eps is not None else computed_radii(sys)
    worst = None
    for x in sys.points:
        for y in sys.points:
            if y == x or sys.d(x, y) >= radii[x]:
                continue
            margin = sys.d(x, y) - sys.d(sys.f(x), sys.f(y))
            if margin <= 0:
                return LrsResult(False, (x, y), margin)
            if worst is None or margin < worst:
                worst = margin
    return LrsResult(True, None, worst)


def check_shrinking(sys: FinitePointSystem) -> bool:
    """Global strict shrinking: d(f(x), f(y)) < d(x, y) for every pair."""
    return all(
        sys.d(sys.f(x), sys.f(y)) < sys.d(x, y) for x, y in combinations(sys.points, 2)
    )


def periodic_points(sys: FinitePointSystem) -> list:
    """All points on cycles of the (finite, total) map, sorted."""
    on_cycle = set()
    for x in sys.points:
        y = x
        for _ in range(len(sys.points)):
            y = sys.f(y)
        if y in on_cycle:
            continue
        cycle = [y]
        z = sys.f(y)
        while z != y:
            cycle.append(z)
            z = sys.f(z)
        on_cycle.update(cycle)
    return sorted(on_cycle)


# ---------------------------------------------------------------------------
# randomized oracle for the shrinking-map propositions
# ---------------------------------------------------------------------------


def _random_system(rng: random.Random, max_size: int) -> FinitePointSystem:
    kind = rng.randrange(3)
    if kind == 0:
        pos = Fraction(rng.randrange(1, 1000), 997)
        return FinitePointSystem.from_positions({0: pos}, {0: 0})
    n = rng.randint(2, max_size)
    if kind == 1:
        values = rng.sample(range(1, 4000), n)
        positions = {i: Fraction(values[i], 3989) for i in range(n)}
        step = {i: rng.randrange(n) for i in range(n)}
        return FinitePointSystem.from_positions(positions, step)
    # halving chain onto a fixed endpoint: strictly shrinking, never
    # surjective (the fixed point sits on the same geometric ladder so that
    # every pair, not just interior ones, contracts strictly)
    centre = Fraction(rng.randrange(1000), 997)
    offset = Fraction(rng.choice([-1, 1]) * rng.randrange(1, 50), 49)
    positions = {i: centre + offset / 2 ** (n - 1 - i) for i in range(n)}
    step = {i: max(i - 1, 0) for i in range(n)}
    return FinitePointSystem.from_positions(positions, step)


def shrinking_propositions_oracle(trials: int = 1000, max_size: int = 8, seed: int = 0) -> dict:
    """Hammer the shrinking-map propositions with random finite systems.

    For every generated system that happens to shrink globally, assert:
    surjective implies a single point; the eventual image is a unique fixed
    point; every non-fixed point has an empty iterated preimage within |X|
    steps.  Any violation lands in ``counterexamples`` (expected empty —
    these are theorems).
    """
    rng = random.Random(seed)
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
        pts = sys.points
        if {sys.f(x) for x in pts} == set(pts):
            report["surjective_shrinking"] += 1
            if len(pts) != 1:
                report["counterexamples"].append({"trial": t, "claim": "surjective"})
        image = set(pts)
        for _ in range(len(pts)):
            image = {sys.f(x) for x in image}
        fixed = [x for x in pts if sys.f(x) == x]
        if len(image) != 1 or len(fixed) != 1 or image != set(fixed):
            report["counterexamples"].append({"trial": t, "claim": "unique-fixed-point"})
            continue
        for x in pts:
            if x == fixed[0]:
                continue
            level = {x}
            steps = 0
            while level and steps <= len(pts):
                level = {y for y in pts if sys.f(y) in level}
                steps += 1
            if level:
                report["counterexamples"].append({"trial": t, "claim": "preimage-vanishes"})
            else:
                report["max_preimage_vanishing_step"] = max(
                    report["max_preimage_vanishing_step"], steps
                )
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


def separated_count(sys: FinitePointSystem, n: int, eps: Fraction) -> int:
    """Maximal number of points whose orbits eps-separate within n steps.

    Exact branch-and-bound maximum clique on the separation graph; worst
    case exponential, intended for systems of at most ~64 points.
    """
    if n < 1:
        raise ValueError("need at least one step")
    if eps <= 0:
        raise ValueError("separation threshold must be positive")
    pts = sys.points
    orbits = {x: [x] for x in pts}
    for x in pts:
        for _ in range(n - 1):
            orbits[x].append(sys.f(orbits[x][-1]))
    adj = [0] * len(pts)
    for i, x in enumerate(pts):
        for j in range(i + 1, len(pts)):
            y = pts[j]
            if any(sys.d(u, v) > eps for u, v in zip(orbits[x], orbits[y])):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return _max_clique(adj)


def entropy_estimate(sys: FinitePointSystem, eps_list, n_list) -> list[dict]:
    """Table of log s(n, eps)/n rows, one per (eps, n) combination."""
    rows = []
    for eps in eps_list:
        for n in n_list:
            count = separated_count(sys, n, eps)
            rows.append(
                {
                    "eps": scalar_to_json(Fraction(eps)),
                    "n": n,
                    "count": count,
                    "estimate": math.log(count) / n,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# products and scheme-derived systems
# ---------------------------------------------------------------------------


def product_system(sys1: FinitePointSystem, sys2: FinitePointSystem) -> FinitePointSystem:
    """Cartesian product with sum metric and componentwise map.

    Radii combine as the componentwise minimum when both factors carry
    radii, which is exactly what makes local shrinking survive the product.
    """
    pts = [(p, q) for p in sys1.points for q in sys2.points]
    metric = {}
    for u, v in combinations(pts, 2):
        metric[(u, v)] = sys1.d(u[0], v[0]) + sys2.d(u[1], v[1])
    step = {(p, q): (sys1.f(p), sys2.f(q)) for p, q in pts}
    eps = None
    if sys1.eps is not None and sys2.eps is not None:
        eps = {(p, q): min(sys1.eps[p], sys2.eps[q]) for p, q in pts}
    source = None
    if sys1.source is not None and sys2.source is not None:
        source = {"kind": "product", "factors": [sys1.source, sys2.source]}
    return FinitePointSystem(pts, metric, step, eps=eps, source=source)


def midpoint_system(scheme: EmbeddingScheme, depth: int, with_radii: bool = True) -> FinitePointSystem:
    """Depth-``depth`` core midpoints of an odometer scheme, map = +1 mod s."""
    if scheme.kind != "odometer":
        raise ValueError("midpoint systems need an odometer scheme (graphs branch)")
    level = scheme.level(depth)
    s_d = scheme.spec.extended_modulus(depth)
    positions = {label: cell.D.midpoint for label, cell in level.cells.items()}
    step = {label: (label + 1) % s_d for label in positions}
    source = {
        "kind": "odometer-midpoints",
        "moduli": [scheme.spec.extended_modulus(n) for n in range(1, depth + 1)],
        "depth": depth,
    }
    sys = FinitePointSystem.from_positions(positions, step, source=source)
    if with_radii:
        sys.eps = computed_radii(sys)
    return sys


def full_shift_midpoint_system(depth: int = 6) -> FinitePointSystem:
    """Binary words of a fixed length as dyadic midpoints, map = left shift.

    The entropy negative control: separated counts grow like 2^n, so the
    estimates sit at log 2 instead of decaying.
    """
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
    return x


def system_to_json(sys: FinitePointSystem) -> dict:
    pts = sys.points
    out = {
        "kind": "finite-system",
        "points": [_encode_id(x) for x in pts],
        "metric": "explicit",
        "distances": [
            [scalar_to_json(sys.d(x, y)) for y in pts] for x in pts
        ],
        "map": [pts.index(sys.f(x)) for x in pts],
    }
    if sys.eps is not None:
        out["eps"] = [scalar_to_json(sys.eps[x]) for x in pts]
    if sys.source is not None:
        out["source"] = sys.source
    return out


def system_from_json(obj: dict) -> FinitePointSystem:
    if obj.get("kind") != "finite-system" or obj.get("metric") != "explicit":
        raise ValueError("not a finite-system descriptor")
    pts = [_decode_id(x) for x in obj["points"]]
    metric = {}
    for i, x in enumerate(pts):
        for j, y in enumerate(pts):
            if i < j:
                metric[(x, y)] = scalar_from_json(obj["distances"][i][j])
    step = {x: pts[obj["map"][i]] for i, x in enumerate(pts)}
    eps = None
    if "eps" in obj:
        eps = {x: scalar_from_json(obj["eps"][i]) for i, x in enumerate(pts)}
    return FinitePointSystem(pts, metric, step, eps=eps, source=obj.get("source"))
