"""Two-cycle graph towers and their covering maps.

Each level is a wedge of two directed cycles sharing a base vertex; a covering
map sends the cycles of level n+1 around formal words in the cycles of level n.
The inverse limit of such a tower is a Cantor dynamical system; everything here
works with the finite truncations, where branching at the base is explicit.

One record, :class:`CycleLevel`, holds every level: two cycles on a cover
level, one on a level of the restricted tower.  It is a ``typing.NamedTuple``
subclass that validates in ``__new__``, as does its ``_make`` (which
``_replace`` calls), so it compares equal to the plain tuple of its fields.
A word is a plain tuple of (multiplicity, cycle) pairs, checked where
:func:`expand_cycle_expr` reads it.  :class:`CoverSequence` is a plain class:
every graph scheme command imports this module, and ``dataclasses`` would
load ``inspect`` (with ``ast``, ``dis`` and ``tokenize``) into each launch.
"""

from __future__ import annotations

from typing import NamedTuple

# structured vertex ids: (level, cycle, index); the base vertex is (n, 0, 0)
Vertex = tuple[int, int, int]


class Graph:
    """Finite directed graph with adjacency lookups.

    Vertices and edges are deduplicated in the order given before they are
    sorted, so input that comes as a few ordered runs, one per cycle as each
    level emits it, sorts in a pass over those runs.
    """

    def __init__(self, vertices, edges):
        self.vertices: tuple[Vertex, ...] = tuple(sorted(dict.fromkeys(vertices)))
        self._out: dict[Vertex, list[Vertex]] = {v: [] for v in self.vertices}
        self._in: dict[Vertex, list[Vertex]] = {v: [] for v in self.vertices}
        out, into = self._out, self._in
        try:
            for u, v in sorted(dict.fromkeys(edges)):
                out[u].append(v)
                into[v].append(u)
        except KeyError:
            raise ValueError(f"edge ({u}, {v}) leaves the vertex set") from None

    def out_neighbors(self, v: Vertex) -> list[Vertex]:
        return list(self._out[v])

    def __repr__(self):
        return f"Graph({len(self.vertices)} vertices, {sum(map(len, self._out.values()))} edges)"


def check_edge_surjective(g: Graph) -> bool:
    """True iff every vertex has at least one incoming and one outgoing edge."""
    return all(g._out.values()) and all(g._in.values())


def check_bidirectional(hom: dict, source: Graph, target: Graph) -> bool:
    """Check the two directional collapse conditions of a cover.

    Out-condition: edges (w,u), (w,u') force hom(u) = hom(u').
    In-condition: edges (w,u), (w',u) force hom(w) = hom(w').

    Raises:
        ValueError: if hom is not a graph homomorphism source -> target,
            naming the first vertex without an image, else the first edge
            sent to a non-edge, else the first vertex sent outside the target.
    """
    for v in source.vertices:
        if v not in hom:
            raise ValueError(f"vertex {v} has no image under the map")
    # the out-lists, walked in vertex order, hold the edges in sorted order
    target_out, into = target._out, source._in
    for u, near in source._out.items():
        allowed = target_out.get(hom[u], ())
        for v in near:
            if hom[v] not in allowed:
                raise ValueError(
                    f"not a homomorphism: edge ({u}, {v}) maps to non-edge "
                    f"({hom[u]}, {hom[v]})"
                )
    # a vertex on an edge has an image in the target by now; one on no edge may not
    for v, near in source._out.items():
        if not near and not into[v] and hom[v] not in target_out:
            raise ValueError(f"not a homomorphism: vertex {v} maps to {hom[v]}, not a target vertex")
    for neighbours in (source._out, source._in):
        for near in neighbours.values():
            if len(near) > 1:
                image = hom[near[0]]
                if any(hom[u] != image for u in near):
                    return False
    return True


# ---------------------------------------------------------------------------
# levels


def base_vertex(n: int) -> Vertex:
    return (n, 0, 0)


class _Level(NamedTuple):
    n: int
    cycle_lengths: tuple[int, ...]


class CycleLevel(_Level):
    """Wedge of directed cycles of the given lengths at the base vertex
    (n, 0, 0): two at a cover level, one at a level of the restricted tower."""

    __slots__ = ()

    def __new__(cls, n, cycle_lengths):
        if not cycle_lengths or any(length < 2 for length in cycle_lengths):
            raise ValueError(f"cycle lengths must be >= 2, got {cycle_lengths}")
        return super().__new__(cls, n, cycle_lengths)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def base(self) -> Vertex:
        return base_vertex(self.n)

    def cycle_path(self, cycle: int) -> list[Vertex]:
        """Closed vertex path of the given cycle (1, 2, …), base to base."""
        if not 1 <= cycle <= len(self.cycle_lengths):
            raise ValueError(f"level {self.n} has no cycle {cycle}")
        length = self.cycle_lengths[cycle - 1]
        return (
            [self.base]
            + [(self.n, cycle, i) for i in range(1, length)]
            + [self.base]
        )

    @property
    def cycles(self) -> list[list[Vertex]]:
        return [self.cycle_path(c) for c in range(1, len(self.cycle_lengths) + 1)]

    @property
    def graph(self) -> Graph:
        vertices, edges = [], []
        for path in self.cycles:
            vertices.extend(path[:-1])
            edges.extend(zip(path, path[1:]))
        return Graph(vertices, edges)


def expand_cycle_expr(level, word) -> list[Vertex]:
    """Expand a cycle word into its closed vertex path at the base vertex.

    A word is a tuple of (multiplicity, cycle) pairs, the formal sum
    a_1·c_{e_1} + a_2·c_{e_2} + … read left to right.

    Raises:
        ValueError: an empty word, a multiplicity below 1, or a cycle
            missing at this level.
    """
    if not word:
        raise ValueError("empty cycle expression")
    path = [level.base]
    for mult, cycle in word:
        if mult < 1:
            raise ValueError(f"multiplicity must be positive, got {mult}")
        path.extend(level.cycle_path(cycle)[1:] * mult)
    return path


# ---------------------------------------------------------------------------
# cover sequences


class CoverSequence:
    """Tower of levels with covering vertex maps homs[n]: V_{n+1} -> V_n.

    Each level's graph is built once, on first use; two sequences are equal
    when their levels, maps and variant are.
    """

    def __init__(self, levels: list, homs: list[dict], variant: str | None = None):
        self.levels, self.homs, self.variant = levels, homs, variant
        self._graphs: dict[int, Graph] = {}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.levels, self.homs, self.variant) == (other.levels, other.homs, other.variant)

    def __repr__(self):
        return f"CoverSequence(levels={self.levels!r}, homs={self.homs!r}, variant={self.variant!r})"

    @property
    def top(self) -> int:
        return len(self.levels) - 1

    def graph(self, n: int) -> Graph:
        if n not in self._graphs:
            self._graphs[n] = self.levels[n].graph
        return self._graphs[n]

    def descriptor(self) -> dict:
        return {"variant": self.variant, "levels": self.top}


# the word rule of each variant: cycle i of level n+1 wraps around the i-th
# word, its (multiplicity, cycle) pairs read left to right
COVER_WORDS = {
    # c_i' -> 2·c_1 + c_i + c_2: both images traverse both cycles, and the
    # cycle lengths stay consecutive integers at every level — the
    # ingredients of the minimality and weak-mixing certificates
    "weakly-mixing": (
        ((2, 1), (1, 1), (1, 2)),
        ((2, 1), (1, 2), (1, 2)),
    ),
    # c_1' -> 3·c_1 and c_2' -> 2·c_1 + 2·c_2 + c_1: the first cycle never
    # visits the second, so the tower is transitive but not minimal; the c_1
    # cycles form a closed subtower (an odometer)
    "transitive": (
        ((3, 1),),
        ((2, 1), (2, 2), (1, 1)),
    ),
}


def cover_base(variant: str) -> CoverSequence:
    """Level 0 of the variant's tower, the initial (2,3) wedge, with no
    covering level yet: :func:`extend_sequence` adds them one at a time."""
    if not (isinstance(variant, str) and variant in COVER_WORDS):
        raise ValueError(f"unknown cover variant {variant!r}")
    return CoverSequence([CycleLevel(0, (2, 3))], [], variant)


def extend_sequence(seq: CoverSequence) -> None:
    """Add level top + 1 and its covering map onto level top, by the word
    rule of the sequence's variant."""
    words = COVER_WORDS[seq.variant]
    cur = seq.levels[-1]
    nxt = CycleLevel(cur.n + 1, tuple(sum(a * cur.cycle_lengths[c - 1] for a, c in word) for word in words))
    hom: dict[Vertex, Vertex] = {}
    for cycle_id, word in enumerate(words, start=1):
        source_path = nxt.cycle_path(cycle_id)
        image_path = expand_cycle_expr(cur, word)
        if len(source_path) != len(image_path):
            raise AssertionError("cycle word length mismatch")
        for w, v in zip(source_path, image_path):
            previous = hom.setdefault(w, v)
            if previous != v:
                raise AssertionError(f"inconsistent images for {w}")
    seq.levels.append(nxt)
    seq.homs.append(hom)


def build_sequence(variant: str, levels: int) -> CoverSequence:
    """Levels 0..levels of the variant's tower (:data:`COVER_WORDS`)."""
    seq = cover_base(variant)
    if levels < 1:
        raise ValueError(f"need at least one covering level, got {levels}")
    for _ in range(levels):
        extend_sequence(seq)
    return seq


# ---------------------------------------------------------------------------
# certificates


def _missed(seq: CoverSequence, n: int) -> list[list[Vertex]]:
    """For each level-(n+1) cycle, in cycle order, the sorted level-n
    vertices that its covering image misses: the one computation behind the
    minimality, transitivity and witness checks, which raise its ValueError
    when no covering map lies above level n."""
    if not 0 <= n < seq.top:
        raise ValueError(f"no cover above level {n} (top is {seq.top})")
    hom = seq.homs[n]
    all_vertices = set(seq.graph(n).vertices)
    return [sorted(all_vertices.difference(map(hom.__getitem__, path))) for path in seq.levels[n + 1].cycles]


def check_minimality_certificate(seq: CoverSequence, n: int) -> bool:
    """True iff every level-(n+1) cycle's image visits all of V_n."""
    return not any(_missed(seq, n))


def check_transitivity_certificate(seq: CoverSequence, n: int) -> bool:
    """True iff the last level-(n+1) cycle's image alone visits all of V_n.

    Weaker than minimality: one sweeping cycle is enough for a dense orbit.
    """
    return not _missed(seq, n)[-1]


def minimality_witness(seq: CoverSequence, n: int):
    """First level-(n+1) cycle whose image misses part of V_n, or None.

    Returns the cycle id together with the sorted missed vertices — the
    concrete obstruction when the minimality certificate fails.
    """
    for cycle_id, missed in enumerate(_missed(seq, n), start=1):
        if missed:
            return {"level": n, "cycle": cycle_id, "missed": missed}
    return None


def _closed_path_lengths(lengths, bound: int) -> int:
    """Closed-path lengths at the base vertex up to `bound` as a bit mask:
    bit t is set iff a closed path of length t exists (bit 0: the empty path).

    Closed paths are concatenations of full cycles.  Shifts by L, 2L, 4L, …
    within the bound add every multiple of L up to the bound.
    """
    mask = (1 << (bound + 1)) - 1
    reach = 1
    for length in set(lengths):
        shift = length
        while shift <= bound:
            reach |= (reach << shift) & mask
            shift <<= 1
    return reach


def check_weak_mixing_certificate(seq: CoverSequence, n: int) -> bool:
    """True iff two consecutive base return lengths exist at level n.

    Consecutive return lengths rule out any common rotation period; this is
    the finite-level witness used for weak mixing.  Return lengths are sums
    of cycle lengths with repeats up to 2 + (L1+1)·(L2+1), held as a bit
    mask; ``reach & reach >> 1`` has bit t where t and t + 1 are both return
    lengths, and t = 0 (the empty path) is shifted out.  Bit t depends only
    on the sums up to t, so the masks up to 2·max L + 2, 4·max L + 2, … are
    tried in turn, and the full bound is reached only when no smaller one
    shows a pair (always so when the lengths share a factor).
    """
    if not 0 <= n <= seq.top:
        raise ValueError(f"level {n} outside the built tower")
    lengths = seq.levels[n].cycle_lengths
    full = 2 + (lengths[0] + 1) * (lengths[-1] + 1)
    bound = 2 * max(lengths) + 2
    while True:
        bound = min(bound, full)
        reach = _closed_path_lengths(lengths, bound)
        if (reach & reach >> 1) >> 1:
            return True
        if bound == full:
            return False
        bound = 2 * bound - 2


def invariant_subsystem(seq: CoverSequence) -> CoverSequence:
    """Restrict a tower to its first cycles.

    Valid only when every covering image of cycle 1 stays inside cycle 1; the
    result is a single-cycle tower (an odometer of the cycle lengths).

    Raises:
        ValueError: if some covering image of cycle 1 leaves cycle 1.
    """
    restricted_levels = [CycleLevel(lvl.n, lvl.cycle_lengths[:1]) for lvl in seq.levels]
    vertex_sets = [set(lvl.cycle_path(1)[:-1]) for lvl in restricted_levels]
    homs = []
    for m, hom in enumerate(seq.homs):
        upper, keep, allowed = seq.levels[m + 1], vertex_sets[m + 1], vertex_sets[m]
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
    """Length of the shortest closed path through any vertex (directed girth).

    Each vertex of in- and out-degree 1 lies on one chain: the walk on from a
    branch vertex (any other vertex) through such vertices to the next
    branch vertex becomes one weighted edge, and of parallel ones only the
    lightest is kept.  Chain vertices that no such walk meets form cycles of
    their own, each a candidate length.  Dijkstra from each branch vertex back
    to itself then keeps no path as long as the best length so far, and
    picks its next vertex by a scan, which costs the square of the branch
    vertices and no import.  The walks visit each vertex and edge once, and
    a tower level has a single branch vertex, its base.
    """
    out, into = g._out, g._in
    chain = {v for v in g.vertices if len(out[v]) == len(into[v]) == 1}
    branch = [v for v in g.vertices if v not in chain]
    ids = {v: i for i, v in enumerate(branch)}
    arcs: list[dict[int, int]] = []
    for b in branch:
        lightest: dict[int, int] = {}
        for v in out[b]:
            weight = 1
            while v in chain:
                chain.remove(v)
                v = out[v][0]
                weight += 1
            lightest[ids[v]] = min(weight, lightest.get(ids[v], weight))
        arcs.append(lightest)
    best = len(g.vertices) + 1  # no closed path is longer than |V|
    while chain:
        v, length = chain.pop(), 1
        w = out[v][0]
        while w != v:
            chain.remove(w)
            w = out[w][0]
            length += 1
        best = min(best, length)
    for s, row in enumerate(arcs):
        # Dijkstra back to s; a length no shorter than the best is never held
        tentative, done = {t: weight for t, weight in row.items() if weight < best}, set()
        while tentative:
            u = min(tentative, key=tentative.get)
            d = tentative.pop(u)
            if u == s:
                best = d
                break
            done.add(u)
            for t, weight in arcs[u].items():
                if t not in done and d + weight < tentative.get(t, best):
                    tentative[t] = d + weight
    if best > len(g.vertices):
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


def certify_cover(seq: CoverSequence) -> dict:
    """The covering-tower certificate of ``seq``, the report that ``verify
    cover`` prints less its command name.

    Step n records whether homs[n] is a bidirectional homomorphism onto an
    edge-surjective level n, its minimality (with a witness when it fails)
    and, in the transitive tower, its transitivity.  ``pass`` needs every
    step and the variant's certificates: minimal and weakly mixing; or
    transitive, never minimal, restricting to the doubling triple 2·3^n on
    its first cycles, and periodic-point free.
    """
    variant = seq.variant
    steps = []
    for n in range(seq.top):
        entry: dict = {"step": n, "homomorphism": True, "edge_surjective": check_edge_surjective(seq.graph(n))}
        try:
            entry["bidirectional"] = check_bidirectional(seq.homs[n], seq.graph(n + 1), seq.graph(n))
        except ValueError as exc:
            entry.update(homomorphism=False, bidirectional=False, error=str(exc))
        missed = _missed(seq, n)
        witness = next((cycle for cycle, vertices in enumerate(missed, start=1) if vertices), None)
        entry["minimality"] = witness is None
        if witness is not None:
            entry["minimality_witness"] = {"cycle": witness, "missed": [list(v) for v in missed[witness - 1]]}
        if variant == "transitive":
            entry["transitivity"] = not missed[-1]
        steps.append(entry)
    ok = check_edge_surjective(seq.graph(seq.top)) and all(
        s["homomorphism"] and s["bidirectional"] and s["edge_surjective"] for s in steps
    )
    certificates: dict = {}
    if variant == "weakly-mixing":
        certificates["minimality"] = all(s["minimality"] for s in steps)
        certificates["weak_mixing"] = check_weak_mixing_certificate(seq, seq.top)
    elif variant == "transitive":
        certificates["transitivity"] = all(s["transitivity"] for s in steps)
        # the designed failure: no single cycle tower is minimal here, and the
        # certificate must come back with the concrete missed vertices
        certificates["minimality_fails_with_witness"] = not any(s["minimality"] for s in steps)
        lengths = [lvl.cycle_lengths[0] for lvl in invariant_subsystem(seq).levels]
        certificates["restricted_cycle_lengths"] = lengths
        certificates["restricted_is_doubling_triple"] = lengths == [2 * 3**n for n in range(len(lengths))]
        free = periodic_point_free_certificate(seq, seq.top)
        certificates["periodic_point_free"] = free.ok
        certificates["minimal_closed_path_lengths"] = list(free.minima)
    # the two list-valued entries are data, not verdicts
    ok = ok and all(v for v in certificates.values() if type(v) is bool)
    return {"variant": variant, "levels": seq.top, "pass": ok, "steps": steps, "certificates": certificates}


# ---------------------------------------------------------------------------
# structural helpers


def canonical_vertices(level) -> list[Vertex]:
    """Base first, then cycle-1 interiors, then cycle-2 interiors, by position."""
    out = [level.base]
    for path in level.cycles:
        out.extend(path[1:-1])
    return out


def fibres(seq: CoverSequence, n: int) -> dict[Vertex, list[Vertex]]:
    """Level-n vertex -> its preimages under homs[n], in canonical order,
    for every level-n vertex that has one; one pass over level n+1."""
    hom = seq.homs[n]
    out: dict[Vertex, list[Vertex]] = {}
    for w in canonical_vertices(seq.levels[n + 1]):
        out.setdefault(hom[w], []).append(w)
    return out


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
    if cycle > len(level.cycle_lengths):
        return None
    if 1 <= i <= level.cycle_lengths[cycle - 1] - 1:
        return (level.n, cycle, i)
    return None
