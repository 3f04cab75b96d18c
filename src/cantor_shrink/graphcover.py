"""Two-cycle graph towers and their covering maps.

Each level is a wedge of two directed cycles sharing a base vertex; a covering
map sends the cycles of level n+1 around formal words in the cycles of level n.
The inverse limit of such a tower is a Cantor dynamical system; everything here
works with the finite truncations, where branching at the base is explicit.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import NamedTuple

# structured vertex ids: (level, cycle, index); the base vertex is (n, 0, 0)
Vertex = tuple[int, int, int]
Edge = tuple[Vertex, Vertex]


class Graph:
    """Finite directed graph with adjacency lookups."""

    def __init__(self, vertices, edges):
        self.vertices: tuple[Vertex, ...] = tuple(sorted(set(vertices)))
        vertex_set = set(self.vertices)
        self.edges: tuple[Edge, ...] = tuple(sorted(set(edges)))
        for u, v in self.edges:
            if u not in vertex_set or v not in vertex_set:
                raise ValueError(f"edge ({u}, {v}) leaves the vertex set")
        self._out: dict[Vertex, list[Vertex]] = {v: [] for v in self.vertices}
        self._in: dict[Vertex, list[Vertex]] = {v: [] for v in self.vertices}
        for u, v in self.edges:
            self._out[u].append(v)
            self._in[v].append(u)

    def out_neighbors(self, v: Vertex) -> list[Vertex]:
        return list(self._out[v])

    def in_neighbors(self, v: Vertex) -> list[Vertex]:
        return list(self._in[v])

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        return v in self._out.get(u, ())

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __repr__(self):
        return f"Graph({len(self.vertices)} vertices, {len(self.edges)} edges)"


def check_edge_surjective(g: Graph) -> bool:
    """True iff every vertex has at least one incoming and one outgoing edge."""
    return all(g._out[v] and g._in[v] for v in g.vertices)


def check_bidirectional(hom: dict, source: Graph, target: Graph) -> bool:
    """Check the two directional collapse conditions of a cover.

    Out-condition: edges (w,u), (w,u') force hom(u) = hom(u').
    In-condition: edges (w,u), (w',u) force hom(w) = hom(w').

    Raises:
        ValueError: if hom is not a graph homomorphism source -> target.
    """
    for v in source.vertices:
        if v not in hom:
            raise ValueError(f"vertex {v} has no image under the map")
    for u, v in source.edges:
        if not target.has_edge(hom[u], hom[v]):
            raise ValueError(
                f"not a homomorphism: edge ({u}, {v}) maps to non-edge "
                f"({hom[u]}, {hom[v]})"
            )
    for w in source.vertices:
        if len({hom[u] for u in source.out_neighbors(w)}) > 1:
            return False
        if len({hom[u] for u in source.in_neighbors(w)}) > 1:
            return False
    return True


# ---------------------------------------------------------------------------
# levels


def base_vertex(n: int) -> Vertex:
    return (n, 0, 0)


@dataclass(frozen=True)
class TwoCycleLevel:
    """Wedge of two directed cycles at a shared base vertex."""

    n: int
    lengths: tuple[int, int]

    def __post_init__(self):
        if any(length < 2 for length in self.lengths):
            raise ValueError(f"cycle lengths must be >= 2, got {self.lengths}")

    @property
    def base(self) -> Vertex:
        return base_vertex(self.n)

    @property
    def cycle_lengths(self) -> tuple[int, ...]:
        return self.lengths

    def cycle_path(self, cycle: int) -> list[Vertex]:
        """Closed vertex path of the given cycle (1 or 2), base to base."""
        if cycle not in (1, 2):
            raise ValueError(f"no cycle {cycle} at a two-cycle level")
        length = self.lengths[cycle - 1]
        return (
            [self.base]
            + [(self.n, cycle, i) for i in range(1, length)]
            + [self.base]
        )

    @property
    def cycles(self) -> list[list[Vertex]]:
        return [self.cycle_path(1), self.cycle_path(2)]

    @property
    def graph(self) -> Graph:
        vertices, edges = [], []
        for path in self.cycles:
            vertices.extend(path[:-1])
            edges.extend(zip(path, path[1:]))
        return Graph(vertices, edges)


@dataclass(frozen=True)
class CycleLevel:
    """Single directed cycle (appears as the restricted invariant tower)."""

    n: int
    length: int

    def __post_init__(self):
        if self.length < 1:
            raise ValueError(f"cycle length must be positive, got {self.length}")

    @property
    def base(self) -> Vertex:
        return base_vertex(self.n)

    @property
    def cycle_lengths(self) -> tuple[int, ...]:
        return (self.length,)

    def cycle_path(self, cycle: int) -> list[Vertex]:
        if cycle != 1:
            raise ValueError(f"no cycle {cycle} at a single-cycle level")
        return (
            [self.base]
            + [(self.n, 1, i) for i in range(1, self.length)]
            + [self.base]
        )

    @property
    def cycles(self) -> list[list[Vertex]]:
        return [self.cycle_path(1)]

    @property
    def graph(self) -> Graph:
        path = self.cycle_path(1)
        return Graph(path[:-1], list(zip(path, path[1:])))


@dataclass(frozen=True)
class CycleExpr:
    """Formal sum a_1·c_{e_1} + a_2·c_{e_2} + … read left to right."""

    terms: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple((int(a), int(c)) for a, c in self.terms))
        for mult, _ in self.terms:
            if mult < 1:
                raise ValueError(f"multiplicity must be positive, got {mult}")

    def length(self, cycle_lengths) -> int:
        return sum(a * cycle_lengths[c - 1] for a, c in self.terms)


def expand_cycle_expr(level, expr: CycleExpr) -> list[Vertex]:
    """Expand a cycle word into its closed vertex path at the base vertex.

    Raises:
        ValueError: empty expression, or a cycle id missing at this level.
    """
    if not expr.terms:
        raise ValueError("empty cycle expression")
    path = [level.base]
    for mult, cycle in expr.terms:
        if not 1 <= cycle <= len(level.cycles):
            raise ValueError(f"level {level.n} has no cycle {cycle}")
        for _ in range(mult):
            path.extend(level.cycle_path(cycle)[1:])
    return path


# ---------------------------------------------------------------------------
# cover sequences


@dataclass
class CoverSequence:
    """Tower of levels with covering vertex maps homs[n]: V_{n+1} -> V_n."""

    levels: list
    homs: list[dict]
    variant: str | None = None
    _graphs: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def top(self) -> int:
        return len(self.levels) - 1

    def graph(self, n: int) -> Graph:
        if n not in self._graphs:
            self._graphs[n] = self.levels[n].graph
        return self._graphs[n]

    def descriptor(self) -> dict:
        return {"variant": self.variant, "levels": self.top}


def _build_tower(words, levels: int, variant: str) -> CoverSequence:
    """Build levels 0..levels from the initial (2,3) wedge and a word rule."""
    if levels < 1:
        raise ValueError(f"need at least one covering level, got {levels}")
    tower = [TwoCycleLevel(0, (2, 3))]
    homs: list[dict] = []
    for m in range(levels):
        cur = tower[-1]
        next_lengths = tuple(expr.length(cur.cycle_lengths) for expr in words)
        nxt = TwoCycleLevel(m + 1, next_lengths)  # type: ignore[arg-type]
        hom: dict[Vertex, Vertex] = {}
        for cycle_id, expr in enumerate(words, start=1):
            source_path = nxt.cycle_path(cycle_id)
            image_path = expand_cycle_expr(cur, expr)
            if len(source_path) != len(image_path):
                raise AssertionError("cycle word length mismatch")
            for w, v in zip(source_path, image_path):
                previous = hom.setdefault(w, v)
                if previous != v:
                    raise AssertionError(f"inconsistent images for {w}")
        tower.append(nxt)
        homs.append(hom)
    return CoverSequence(tower, homs, variant)


def build_weakly_mixing_sequence(levels: int) -> CoverSequence:
    """Tower whose cycles wrap as c_i' -> 2·c_1 + c_i + c_2.

    Both images traverse both cycles, and the cycle lengths stay consecutive
    integers at every level — the ingredients of the minimality and
    weak-mixing certificates.
    """
    words = (
        CycleExpr(((2, 1), (1, 1), (1, 2))),
        CycleExpr(((2, 1), (1, 2), (1, 2))),
    )
    return _build_tower(words, levels, "weakly-mixing")


def build_transitive_sequence(levels: int) -> CoverSequence:
    """Tower with c_1' -> 3·c_1 and c_2' -> 2·c_1 + 2·c_2 + c_1.

    The first cycle never visits the second, so the tower is transitive but
    not minimal; the c_1 cycles form a closed subtower (an odometer).
    """
    words = (
        CycleExpr(((3, 1),)),
        CycleExpr(((2, 1), (2, 2), (1, 1))),
    )
    return _build_tower(words, levels, "transitive")


def build_sequence(variant: str, levels: int) -> CoverSequence:
    if variant == "weakly-mixing":
        return build_weakly_mixing_sequence(levels)
    if variant == "transitive":
        return build_transitive_sequence(levels)
    raise ValueError(f"unknown cover variant {variant!r}")


# ---------------------------------------------------------------------------
# certificates


def check_minimality_certificate(seq: CoverSequence, n: int) -> bool:
    """True iff every level-(n+1) cycle's image visits all of V_n.

    Raises:
        ValueError: if there is no covering map above level n.
    """
    if n + 1 > seq.top:
        raise ValueError(f"no cover above level {n} (top is {seq.top})")
    hom = seq.homs[n]
    all_vertices = set(seq.graph(n).vertices)
    for path in seq.levels[n + 1].cycles:
        if {hom[w] for w in path} != all_vertices:
            return False
    return True


def check_transitivity_certificate(seq: CoverSequence, n: int) -> bool:
    """True iff the last level-(n+1) cycle's image alone visits all of V_n.

    Weaker than minimality: one sweeping cycle is enough for a dense orbit.

    Raises:
        ValueError: if there is no covering map above level n.
    """
    if n + 1 > seq.top:
        raise ValueError(f"no cover above level {n} (top is {seq.top})")
    hom = seq.homs[n]
    path = seq.levels[n + 1].cycles[-1]
    return {hom[w] for w in path} == set(seq.graph(n).vertices)


def minimality_witness(seq: CoverSequence, n: int):
    """First level-(n+1) cycle whose image misses part of V_n, or None.

    Returns the cycle id together with the sorted missed vertices — the
    concrete obstruction when the minimality certificate fails.
    """
    hom = seq.homs[n]
    all_vertices = set(seq.graph(n).vertices)
    for cycle_id, path in enumerate(seq.levels[n + 1].cycles, start=1):
        missed = sorted(all_vertices - {hom[w] for w in path})
        if missed:
            return {"level": n, "cycle": cycle_id, "missed": missed}
    return None


def return_lengths(level, bound: int) -> set[int]:
    """All closed-path lengths at the base vertex up to `bound`.

    Closed paths are concatenations of full cycles, so this is the set of
    subset sums of the cycle lengths.
    """
    lengths = sorted(level.cycle_lengths)
    reachable = [False] * (bound + 1)
    reachable[0] = True
    for total in range(1, bound + 1):
        reachable[total] = any(
            total >= step and reachable[total - step] for step in lengths
        )
    return {total for total in range(1, bound + 1) if reachable[total]}


def check_weak_mixing_certificate(seq: CoverSequence, n: int) -> bool:
    """True iff two consecutive base return lengths exist at level n.

    Consecutive return lengths rule out any common rotation period; this is
    the finite-level witness used for weak mixing.  Return lengths are subset
    sums of the cycle lengths, searched up to (L1+1)·(L2+1).
    """
    if not 0 <= n <= seq.top:
        raise ValueError(f"level {n} outside the built tower")
    lengths = seq.levels[n].cycle_lengths
    bound = 2 + (lengths[0] + 1) * (lengths[-1] + 1)
    seen = return_lengths(seq.levels[n], bound)
    return any(m + 1 in seen for m in seen)


def invariant_subsystem(seq: CoverSequence) -> CoverSequence:
    """Restrict a tower to its first cycles.

    Valid only when every covering image of cycle 1 stays inside cycle 1; the
    result is a single-cycle tower (an odometer of the cycle lengths).

    Raises:
        ValueError: if some covering image of cycle 1 leaves cycle 1.
    """
    restricted_levels = [
        CycleLevel(lvl.n, lvl.cycle_lengths[0]) for lvl in seq.levels
    ]
    homs = []
    for m, hom in enumerate(seq.homs):
        upper = seq.levels[m + 1]
        keep = set(restricted_levels[m + 1].graph.vertices)
        allowed = set(restricted_levels[m].graph.vertices)
        sub = {}
        for w in upper.cycle_path(1)[:-1]:
            image = hom[w]
            if image not in allowed:
                raise ValueError(
                    f"cycle 1 is not invariant: {w} covers {image} outside cycle 1"
                )
            sub[w] = image
        if set(sub) != keep:
            raise AssertionError("restricted vertex sets misaligned")
        homs.append(sub)
    return CoverSequence(restricted_levels, homs, "restricted")


def minimal_cycle_length(g: Graph) -> int:
    """Length of the shortest closed path through any vertex (directed girth)."""
    best = None
    for v in g.vertices:
        # shortest path back to v from each out-neighbor
        dist = {u: 1 for u in g.out_neighbors(v)}
        queue = deque(g.out_neighbors(v))
        while queue:
            u = queue.popleft()
            if u == v:
                continue
            for w in g.out_neighbors(u):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if v in dist and (best is None or dist[v] < best):
            best = dist[v]
    if best is None:
        raise ValueError("graph has no closed path")
    return best


class PeriodicFreeReport(NamedTuple):
    ok: bool
    minimum: int
    minima: tuple[int, ...]


def periodic_point_free_certificate(seq: CoverSequence, n: int) -> PeriodicFreeReport:
    """Certify that short closed paths die out as the level grows.

    True iff the per-level minimal closed-path lengths are >= 2 and strictly
    increasing through level n, so any fixed period is eventually exceeded.
    Reports the minimum at level n alongside the per-level minima.
    """
    if not 0 <= n <= seq.top:
        raise ValueError(f"level {n} outside the built tower")
    minima = tuple(minimal_cycle_length(seq.graph(m)) for m in range(n + 1))
    ok = minima[0] >= 2 and all(a < b for a, b in zip(minima, minima[1:]))
    return PeriodicFreeReport(ok, minima[-1], minima)


# ---------------------------------------------------------------------------
# structural helpers


def canonical_vertices(level) -> list[Vertex]:
    """Base first, then cycle-1 interiors, then cycle-2 interiors, by position."""
    out = [level.base]
    for path in level.cycles:
        out.extend(path[1:-1])
    return out


def preimages(seq: CoverSequence, n: int, v: Vertex) -> list[Vertex]:
    """Preimages of a level-n vertex under homs[n], in canonical order."""
    hom = seq.homs[n]
    return [w for w in canonical_vertices(seq.levels[n + 1]) if hom[w] == v]


def preimage_counts(seq: CoverSequence, n: int) -> Counter:
    return Counter(seq.homs[n].values())


def signed_index(v: Vertex) -> int:
    """0 at the base, +i on cycle 1, -i on cycle 2."""
    _, cycle, i = v
    if cycle == 0:
        return 0
    return i if cycle == 1 else -i


def vertex_with_signed_index(level, j: int):
    """Inverse of signed_index at a level; None if no such vertex exists."""
    if j == 0:
        return level.base
    cycle, i = (1, j) if j > 0 else (2, -j)
    if cycle > len(level.cycles):
        return None
    if 1 <= i <= level.cycle_lengths[cycle - 1] - 1:
        return (level.n, cycle, i)
    return None
