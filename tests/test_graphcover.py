import hashlib
import re
from collections import deque
from unittest import mock

import hypothesis as h
import hypothesis.strategies as st
import pytest

from cantor_shrink import graphcover
from cantor_shrink.exact import canonical_dumps
from cantor_shrink.graphcover import (
    _closed_path_lengths,
    COVER_WORDS,
    CoverSequence,
    CycleLevel,
    Graph,
    base_vertex,
    build_sequence,
    canonical_vertices,
    certify_cover,
    check_bidirectional,
    check_edge_surjective,
    check_minimality_certificate,
    check_transitivity_certificate,
    check_weak_mixing_certificate,
    expand_cycle_expr,
    fibres,
    invariant_subsystem,
    minimal_cycle_length,
    minimality_witness,
    periodic_point_free_certificate,
    signed_index,
    vertex_with_signed_index,
)


@pytest.fixture(scope="module")
def wm4():
    return build_sequence("weakly-mixing", 4)


@pytest.fixture(scope="module")
def tr2():
    return build_sequence("transitive", 2)


# ---------------------------------------------------------------------------
# graphs and basic checks


def test_edge_surjective():
    loop = Graph([(0, 0, 0)], [((0, 0, 0), (0, 0, 0))])
    assert check_edge_surjective(loop)
    a, b = (0, 1, 1), (0, 1, 2)
    assert not check_edge_surjective(Graph([a, b], [(a, b)]))
    assert check_edge_surjective(CycleLevel(0, (2, 3)).graph)


def test_graph_rejects_stray_edge():
    with pytest.raises(ValueError):
        Graph([(0, 0, 0)], [((0, 0, 0), (9, 9, 9))])


def test_bidirectional_identity_on_branch_free_graph():
    cycle = CycleLevel(0, (5,)).graph
    ident = {v: v for v in cycle.vertices}
    assert check_bidirectional(ident, cycle, cycle)


def test_bidirectional_rejects_branching_identity_and_nonhom():
    g = CycleLevel(0, (2, 3)).graph
    ident = {v: v for v in g.vertices}
    # the base's two out-neighbors keep distinct images, so the collapse
    # condition fails even though the identity is a homomorphism
    assert not check_bidirectional(ident, g, g)
    with pytest.raises(ValueError):
        # constant maps send edges to the non-edge (base, base)
        check_bidirectional({v: (0, 0, 0) for v in g.vertices}, g, g)


def test_bidirectional_detects_out_split():
    # two copies of a 2-cycle mapping onto one 2-cycle, with the branch
    # vertex's out-neighbors sent to different images
    base = (1, 0, 0)
    u, w = (1, 1, 1), (1, 2, 1)
    source = Graph([base, u, w], [(base, u), (u, base), (base, w), (w, base)])
    t_base, t_u, t_w = (0, 0, 0), (0, 1, 1), (0, 2, 1)
    target = Graph(
        [t_base, t_u, t_w],
        [(t_base, t_u), (t_u, t_base), (t_base, t_w), (t_w, t_base)],
    )
    hom = {base: t_base, u: t_u, w: t_w}
    assert not check_bidirectional(hom, source, target)


def test_bidirectional_refuses_an_image_outside_the_target():
    # c lies on no edge, so no edge check looks its image up in the target
    a, b, c = (1, 1, 1), (1, 1, 2), (1, 2, 1)
    source = Graph([a, b, c], [(a, b), (b, a)])
    t = (0, 0, 0)
    target = Graph([t], [(t, t)])
    text = "not a homomorphism: vertex (1, 2, 1) maps to ('nowhere',), not a target vertex"
    with pytest.raises(ValueError, match=rf"^{re.escape(text)}$"):
        check_bidirectional({a: t, b: t, c: ("nowhere",)}, source, target)
    assert check_bidirectional({a: t, b: t, c: t}, source, target)
    report = certify_cover(CoverSequence([_GraphLevel(target), _GraphLevel(source)], [{a: t, b: t, c: ("nowhere",)}]))
    assert report["steps"][0] == {
        "step": 0, "homomorphism": False, "edge_surjective": True, "bidirectional": False, "error": text,
        "minimality": True,
    }
    assert report["pass"] is False


def test_expand_cycle_expr_paths():
    lvl = CycleLevel(0, (2, 3))
    one = expand_cycle_expr(lvl, ((1, 1),))
    assert one == [(0, 0, 0), (0, 1, 1), (0, 0, 0)]
    nine = expand_cycle_expr(lvl, ((2, 1), (1, 1), (1, 2)))
    assert len(nine) - 1 == 9
    assert nine[0] == nine[-1] == lvl.base
    assert nine == one + one[1:] + one[1:] + lvl.cycle_path(2)[1:]
    with pytest.raises(ValueError, match="^empty cycle expression$"):
        expand_cycle_expr(lvl, ())
    with pytest.raises(ValueError, match="^level 0 has no cycle 3$"):
        expand_cycle_expr(lvl, ((1, 3),))
    for mult in (0, -1):
        with pytest.raises(ValueError, match=rf"^multiplicity must be positive, got {mult}$"):
            expand_cycle_expr(lvl, ((1, 1), (mult, 2)))


def test_levels_hold_any_number_of_cycles_at_one_base():
    for lengths in ((2,), (2, 3), (4, 2, 5)):
        lvl = CycleLevel(7, lengths)
        assert len(lvl.cycles) == len(lengths)
        for c, (path, length) in enumerate(zip(lvl.cycles, lengths), start=1):
            assert path == lvl.cycle_path(c) == [(7, 0, 0)] + [(7, c, i) for i in range(1, length)] + [(7, 0, 0)]
        edges = sum(len(lvl.graph.out_neighbors(v)) for v in lvl.graph.vertices)
        assert len(lvl.graph.vertices) == edges - len(lengths) + 1 == 1 + sum(lengths) - len(lengths)
        assert repr(lvl.graph) == f"Graph({len(lvl.graph.vertices)} vertices, {edges} edges)"
        for c in (0, len(lengths) + 1):
            with pytest.raises(ValueError, match=rf"^level 7 has no cycle {c}$"):
                lvl.cycle_path(c)


def test_records_compare_as_tuples_and_replace_validates():
    # _replace builds through _make, which validates as the constructor does
    lvl = CycleLevel(0, (2, 3))
    assert lvl == (0, (2, 3)) and lvl._replace(cycle_lengths=(9, 10)) == CycleLevel(0, (9, 10))
    assert CycleLevel(0, (2,))._replace(cycle_lengths=(6,)) == (0, (6,))
    for bad in ((1, 3), (3, 1), (1,), (0,), ()):
        with pytest.raises(ValueError, match=rf"^cycle lengths must be >= 2, got {re.escape(str(bad))}$"):
            lvl._replace(cycle_lengths=bad)
        with pytest.raises(ValueError, match="^cycle lengths must be >= 2"):
            CycleLevel(0, bad)


def test_cover_sequences_compare_on_levels_maps_and_variant(tr2):
    again = build_sequence("transitive", 2)
    again.graph(2)  # the graph cache takes no part in equality
    assert again == tr2 and again is not tr2
    assert CoverSequence(tr2.levels, tr2.homs, None) != tr2
    assert CoverSequence(tr2.levels[:2], tr2.homs[:1], "transitive") != tr2
    assert repr(CoverSequence([CycleLevel(0, (2,))], [])) == (
        "CoverSequence(levels=[CycleLevel(n=0, cycle_lengths=(2,))], homs=[], variant=None)"
    )


# ---------------------------------------------------------------------------
# the two towers


def test_weakly_mixing_lengths_and_sizes(wm4):
    assert [lvl.cycle_lengths for lvl in wm4.levels] == [
        (2, 3),
        (9, 10),
        (37, 38),
        (149, 150),
        (597, 598),
    ]
    assert [len(wm4.graph(n).vertices) for n in range(5)] == [4, 18, 74, 298, 1194]


def test_consecutive_cycle_lengths_recursion():
    # L1' = 3·L1 + L2 and L2' = 2·L1 + 2·L2 keep the lengths consecutive
    lengths = [(2, 3)]
    for _ in range(6):
        l1, l2 = lengths[-1]
        lengths.append((3 * l1 + l2, 2 * l1 + 2 * l2))
    assert all(b == a + 1 for a, b in lengths)


def test_transitive_lengths(tr2):
    assert [lvl.cycle_lengths for lvl in tr2.levels] == [(2, 3), (6, 12), (18, 42)]
    assert len(tr2.graph(1).vertices) == 1 + 5 + 11


def test_transitive_first_cycle_image_stays_in_first_cycle(tr2):
    image = {tr2.homs[0][w] for w in tr2.levels[1].cycle_path(1)}
    cycle1 = set(tr2.levels[0].cycle_path(1))
    assert image == cycle1


def test_tower_homs_are_bidirectional_and_surjective(wm4, tr2):
    for seq in (wm4, tr2):
        for n in range(seq.top):
            assert check_edge_surjective(seq.graph(n))
            assert check_bidirectional(seq.homs[n], seq.graph(n + 1), seq.graph(n))
            assert seq.homs[n][base_vertex(n + 1)] == base_vertex(n)


def test_preimage_bound(wm4):
    for n in range(wm4.top):
        counts = {v: len(ws) for v, ws in fibres(wm4, n).items()}
        assert max(counts.values()) <= 12
        assert counts[base_vertex(n)] == 7
        assert max(counts, key=counts.get) == base_vertex(n)


def test_base_preimages_canonical_order(wm4):
    pres = fibres(wm4, 0)[base_vertex(0)]
    assert len(pres) == 7
    assert pres[0] == base_vertex(1)
    # cycle-1 preimages precede cycle-2 preimages
    cycles = [v[1] for v in pres[1:]]
    assert cycles == sorted(cycles)


def test_build_rejects_zero_levels():
    with pytest.raises(ValueError):
        build_sequence("weakly-mixing", 0)


# ---------------------------------------------------------------------------
# certificates


def test_minimality_certificate(wm4, tr2):
    assert all(check_minimality_certificate(wm4, n) for n in range(4))
    assert not check_minimality_certificate(tr2, 0)
    assert not check_minimality_certificate(tr2, 1)
    with pytest.raises(ValueError):
        check_minimality_certificate(wm4, 4)  # no cover above the top


@pytest.mark.parametrize("check", [check_minimality_certificate, check_transitivity_certificate, minimality_witness])
def test_cycle_image_checks_need_a_cover_above_the_level(tr2, check):
    for n in (-1, tr2.top):
        with pytest.raises(ValueError, match=rf"^no cover above level {n} \(top is 2\)$"):
            check(tr2, n)


@pytest.mark.parametrize("levels", [1, 2, 3, 4])
@pytest.mark.parametrize("variant", sorted(COVER_WORDS))
def test_certify_cover_steps_agree_with_the_per_level_checks(variant, levels):
    seq = build_sequence(variant, levels)
    report = certify_cover(seq)
    assert (report["variant"], report["levels"], report["pass"]) == (variant, levels, True)
    assert [step["step"] for step in report["steps"]] == list(range(levels))
    for n, step in enumerate(report["steps"]):
        assert step["homomorphism"] and step["bidirectional"] and step["edge_surjective"]
        minimal = check_minimality_certificate(seq, n)
        witness = minimality_witness(seq, n)
        assert step["minimality"] is minimal is (witness is None)
        if witness is None:
            assert "minimality_witness" not in step
        else:
            # the missed vertices, recomputed from the covering image of the cycle
            path = seq.levels[n + 1].cycles[witness["cycle"] - 1]
            missed = sorted(set(seq.graph(n).vertices) - {seq.homs[n][w] for w in path})
            assert witness == {"level": n, "cycle": witness["cycle"], "missed": missed}
            assert step["minimality_witness"] == {"cycle": witness["cycle"], "missed": [list(v) for v in missed]}
        if variant == "transitive":
            assert step["transitivity"] is check_transitivity_certificate(seq, n)
        else:
            assert "transitivity" not in step


# sha256 of canonical_dumps(certify_cover(build_sequence(variant, levels))),
# pinned before the level records were merged into one: every step, witness
# and certificate holds whatever the records look like
GOLDEN_COVER_CERTIFICATES = {
    "wm1": "545677f1af261bbd7ad705e2c69b3ce1c54c916b822d20a71e1b28cdb40a478c",
    "wm2": "1ae15dc424d98e5bc3c37da15810b81dd35bc94ed4cb8c547d68af9d8b2cf619",
    "wm3": "9106383a47cf7b6ad4f0fbed76b1a8931e47bf75d433cd162af7ea224dd57b6f",
    "wm4": "607dd3b1f46850d3ed91142c0858106b9372d55192e2fc6ebd3883013b0c175d",
    "wm5": "5c3786b384d9b1c2f76f630bd0e39366eff592da7279de9d22c8e7fd9f961204",
    "wm6": "69c4b0b58ed053b4aae4c61e15a79a54539bdf1611bd9cf9579f1e02d42c140f",
    "tr1": "1ec60b61dc380f453af8e26a19f0f4e0bf7bdeb3ee44df24049db4b02a8f41a5",
    "tr2": "f6a64c72ca7a371d0eb16c608b0a5c1b4a18adc59db7798c3f5ac8e30bcaafb1",
    "tr3": "8571d88daf0d1f445d8b43e8da864c4b5976549851a961e5776d9bb77b76a6fc",
    "tr4": "968ddc6e250901889e979c4eaaa2fc749b460d0b33eca39108fc6e05f27e5232",
    "tr5": "a879d555f99dfc1d459988bbed46c3d72260749f1751886025556d2dab3c8e9a",
    "tr6": "0f88e5a21535fdef070667bcf97fd03f365c7c0c5023528bc19bab790a7f302f",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_COVER_CERTIFICATES))
def test_cover_certificates_match_the_pinned_digests(name):
    variant = {"wm": "weakly-mixing", "tr": "transitive"}[name[:2]]
    report = certify_cover(build_sequence(variant, int(name[2:])))
    assert hashlib.sha256(canonical_dumps(report).encode()).hexdigest() == GOLDEN_COVER_CERTIFICATES[name]


def test_certify_cover_fails_on_a_map_that_is_no_homomorphism():
    wm2 = build_sequence("weakly-mixing", 2)
    homs = [dict(hom) for hom in wm2.homs]
    # the edge from the base to (1, 1, 1) now lands on the non-edge from the
    # base to (0, 2, 2)
    homs[0][(1, 1, 1)] = (0, 2, 2)
    report = certify_cover(CoverSequence(list(wm2.levels), homs, "weakly-mixing"))
    step = report["steps"][0]
    assert (step["homomorphism"], step["bidirectional"]) == (False, False)
    assert step["error"] == "not a homomorphism: edge ((1, 0, 0), (1, 1, 1)) maps to non-edge ((0, 0, 0), (0, 2, 2))"
    assert report["steps"][1]["homomorphism"] is True
    assert report["pass"] is False


def test_certify_cover_fails_on_a_tower_under_the_wrong_variant():
    tr3 = build_sequence("transitive", 3)
    report = certify_cover(CoverSequence(list(tr3.levels), list(tr3.homs), "weakly-mixing"))
    assert all(step["homomorphism"] and step["bidirectional"] for step in report["steps"])
    assert not any(step["minimality"] for step in report["steps"])
    assert report["certificates"]["minimality"] is False
    assert report["pass"] is False


def test_weak_mixing_certificate(wm4, tr2):
    assert all(check_weak_mixing_certificate(wm4, n) for n in range(5))
    assert not check_weak_mixing_certificate(tr2, 1)
    assert not check_weak_mixing_certificate(tr2, 2)


def reference_return_lengths(lengths, bound):
    """Closed-path lengths 1..bound at the base vertex by the subset-sum loop
    the bit mask replaced: t is reachable iff t - L is, for some length L."""
    lengths = sorted(lengths)
    reachable = [False] * (bound + 1)
    reachable[0] = True
    for total in range(1, bound + 1):
        reachable[total] = any(
            total >= step and reachable[total - step] for step in lengths
        )
    return {total for total in range(1, bound + 1) if reachable[total]}


def reference_weak_mixing(seq, n):
    lengths = seq.levels[n].cycle_lengths
    seen = reference_return_lengths(lengths, 2 + (lengths[0] + 1) * (lengths[-1] + 1))
    return any(m + 1 in seen for m in seen)


@h.given(
    lengths=st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=4),
    bound=st.integers(min_value=0, max_value=600),
)
@h.example(lengths=[7, 9], bound=6)  # bound below the shortest cycle
@h.example(lengths=[1], bound=64)  # every multiple, up to the bound itself
@h.settings(derandomize=True, max_examples=300, deadline=None)
def test_closed_path_mask_matches_subset_sums(lengths, bound):
    reach = _closed_path_lengths(tuple(lengths), bound)
    assert reach & 1 and reach >> bound + 1 == 0
    found = {t for t in range(1, bound + 1) if reach >> t & 1}
    assert found == reference_return_lengths(lengths, bound)


def test_weak_mixing_certificate_matches_subset_sums(wm4):
    tr3 = build_sequence("transitive", 3)
    verdicts = {}
    for name, seq in [("wm4", wm4), ("tr3", tr3), ("tr3-cycle-1", invariant_subsystem(tr3))]:
        verdicts[name] = [check_weak_mixing_certificate(seq, n) for n in range(seq.top + 1)]
        assert verdicts[name] == [reference_weak_mixing(seq, n) for n in range(seq.top + 1)]
    assert verdicts == {
        "wm4": [True] * 5,
        "tr3": [True, False, False, False],
        "tr3-cycle-1": [False] * 4,
    }


def test_weak_mixing_fails_for_even_lengths():
    seq = CoverSequence([CycleLevel(0, (4, 6))], [], None)
    assert not check_weak_mixing_certificate(seq, 0)


@h.given(
    factor=st.sampled_from([1, 1, 2, 3]),
    lengths=st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=4),
)
@h.example(factor=1, lengths=[7, 9])  # the first pair, 35 and 36, lies past the first bound
@h.example(factor=1, lengths=[19, 21])  # past the third bound
@h.example(factor=1, lengths=[35, 37])  # past the fourth bound
@h.example(factor=1, lengths=[13, 55, 47, 13])  # only the full bound, 198, holds a pair
@h.example(factor=1, lengths=[5, 55, 5])  # the full bound lies below 2·max L + 2
@h.example(factor=2, lengths=[1, 2])
@h.settings(derandomize=True, max_examples=300, deadline=None)
def test_doubling_weak_mixing_verdict_matches_the_full_bound(factor, lengths):
    lengths = [factor * length for length in lengths]
    full = 2 + (lengths[0] + 1) * (lengths[-1] + 1)
    reach = _closed_path_lengths(lengths, full)
    want = (reach & reach >> 1) >> 1 != 0
    bounds = []

    def recorded(lengths, bound):
        bounds.append(bound)
        return _closed_path_lengths(lengths, bound)

    with mock.patch.object(graphcover, "_closed_path_lengths", recorded):
        got = check_weak_mixing_certificate(CoverSequence([_GraphLevel(None, tuple(lengths))], []), 0)
    assert got is want
    # a common factor leaves no consecutive return lengths, found only at the full bound
    assert not (factor > 1 and got)
    assert bounds == sorted(set(bounds)) and bounds[-1] <= full
    assert got or bounds[-1] == full


def test_invariant_subsystem(tr2, wm4):
    sub = invariant_subsystem(tr2)
    assert [lvl.cycle_lengths for lvl in sub.levels] == [(2,), (6,), (18,)]
    for n in range(sub.top):
        assert check_bidirectional(sub.homs[n], sub.graph(n + 1), sub.graph(n))
    assert not check_weak_mixing_certificate(sub, 1)
    with pytest.raises(ValueError):
        invariant_subsystem(wm4)


def test_invariant_subsystem_of_cycle_tower_is_itself():
    levels = [CycleLevel(0, (2,)), CycleLevel(1, (6,))]
    upper, lower = levels[1], levels[0]
    # walk the length-6 cycle three times around the length-2 cycle
    hom = {
        w: lower.cycle_path(1)[j % 2]
        for j, w in enumerate(upper.cycle_path(1)[:-1])
    }
    seq = CoverSequence(levels, [hom], None)
    again = invariant_subsystem(seq)
    assert [lvl.cycle_lengths for lvl in again.levels] == [(2,), (6,)]


def test_periodic_point_free(wm4):
    report = periodic_point_free_certificate(wm4, 4)
    assert report.ok and report.minima == (2, 9, 37, 149, 597)
    assert periodic_point_free_certificate(wm4, 1).minimum == 9
    loop = Graph([(0, 0, 0)], [((0, 0, 0), (0, 0, 0))])
    seq = CoverSequence([_GraphLevel(loop)], [], None)
    bad = periodic_point_free_certificate(seq, 0)
    assert bad.minimum == 1 and not bad.ok


class _GraphLevel:
    """Minimal level wrapper for handcrafted graphs and cycle lengths in tests."""

    def __init__(self, graph, cycle_lengths=()):
        self.graph = graph
        self.cycles = []
        self.cycle_lengths = cycle_lengths


def test_minimal_cycle_length_girth():
    lvl = CycleLevel(3, (5, 8))
    assert minimal_cycle_length(lvl.graph) == 5


def reference_girth(g: Graph) -> int:
    """A full breadth-first search from every vertex, with no cutoff."""
    best = None
    for v in g.vertices:
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


@st.composite
def digraphs(draw):
    """Random digraphs on up to 12 vertices: any edges (self-loops too), or
    only edges from a lower to a higher index, which leave no closed path."""
    size = draw(st.integers(1, 12))
    vertices = [(0, 1, i) for i in range(size)]
    pairs = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))
    edges = draw(st.lists(pairs, max_size=3 * size))
    if draw(st.booleans()):
        edges = [(i, j) for i, j in edges if i < j]
    return Graph(vertices, [(vertices[i], vertices[j]) for i, j in edges])


@st.composite
def chained_digraphs(draw):
    """Random digraphs that contraction must get right: a skeleton on up to
    5 vertices (self-loops and repeated edges allowed), each skeleton edge
    drawn out into a chain through 0 to 6 new vertices, so that a repeated
    edge gives parallel chains of different lengths, and up to 2 cycles of
    1 to 6 new vertices touching nothing else; or skeleton edges only from a
    lower to a higher index and no separate cycle, which leave no closed path."""
    size = draw(st.integers(1, 5))
    acyclic = draw(st.booleans())
    pairs = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))
    skeleton = draw(st.lists(pairs, max_size=3 * size))
    if acyclic:
        skeleton = [(i, j) for i, j in skeleton if i < j]
    vertices, edges = [(0, 0, i) for i in range(size)], []
    for i, j in skeleton:
        inner = [(0, 1, len(vertices) + k) for k in range(draw(st.integers(0, 6)))]
        walk = [vertices[i], *inner, vertices[j]]
        vertices += inner
        edges += zip(walk, walk[1:])
    for _ in range(0 if acyclic else draw(st.integers(0, 2))):
        ring = [(0, 2, len(vertices) + k) for k in range(draw(st.integers(1, 6)))]
        vertices += ring
        edges += zip(ring, ring[1:] + ring[:1])
    return Graph(vertices, edges)


def walks(*paths):
    """The graph of the given walks over vertex numbers."""
    vertex = {i: (0, 1, i) for path in paths for i in path}
    return Graph(vertex.values(), [(vertex[i], vertex[j]) for path in paths for i, j in zip(path, path[1:])])


@h.given(st.one_of(digraphs(), chained_digraphs()))
@h.example(Graph([(0, 1, 0)], [((0, 1, 0), (0, 1, 0))]))
@h.example(Graph([(0, 1, 0), (0, 1, 1)], [((0, 1, 0), (0, 1, 1))]))
@h.example(CycleLevel(2, (37, 38)).graph)
@h.example(walks([0, 1, 2], [0, 3, 4, 5, 6, 2], [2, 0]))  # parallel chains of 2 and 5 edges: girth 3
@h.example(walks([0, 1, 2, 0], [0, 3, 4, 5, 0], [6, 7, 6]))  # a 2-cycle apart from a 3, 4 wedge
@h.example(walks([0, 0], [0, 1, 2, 0]))  # a self-loop on a branch vertex
@h.example(walks([0, 2, 3, 4, 0], [1, 5, 6, 1], [0, 1], [1, 0]))  # Dijkstra must settle the nearest first
@h.example(walks([0, 1, 2, 3, 4], [5, 2]))  # chains with no closed path
@h.settings(derandomize=True, deadline=None, max_examples=400)
def test_minimal_cycle_length_matches_the_full_search(g):
    try:
        want = reference_girth(g)
    except ValueError as exc:
        with pytest.raises(ValueError, match=rf"^{exc}$"):
            minimal_cycle_length(g)
    else:
        assert minimal_cycle_length(g) == want


def test_deep_towers_certify_and_the_mask_stays_narrow(monkeypatch):
    tr6 = build_sequence("transitive", 6)
    report = certify_cover(tr6)
    assert report["pass"]
    # the word rule c_1' = 3·c_1, c_2' = 2·c_1 + 2·c_2 + c_1: closed paths go
    # round whole cycles, so each level's girth is its shorter cycle length
    lengths = [(2, 3)]
    for _ in range(6):
        l1, l2 = lengths[-1]
        lengths.append((3 * l1, 3 * l1 + 2 * l2))
    minima = report["certificates"]["minimal_closed_path_lengths"]
    assert minima == [min(pair) for pair in lengths] == [2 * 3**n for n in range(7)]

    wm7 = build_sequence("weakly-mixing", 7)
    lengths = [(2, 3)]
    for _ in range(7):
        l1, l2 = lengths[-1]
        lengths.append((3 * l1 + l2, 2 * l1 + 2 * l2))
    assert [lvl.cycle_lengths for lvl in wm7.levels] == lengths
    # the full bound would be a 1.46e9-bit mask: fail before any mask wider
    # than the second doubling bound is formed
    widest, bounds = 4 * max(lengths[-1]) + 2, []

    def guarded(lengths, bound):
        if bound > widest:
            pytest.fail(f"a mask up to {bound} at wm7")
        bounds.append(bound)
        return _closed_path_lengths(lengths, bound)

    monkeypatch.setattr(graphcover, "_closed_path_lengths", guarded)
    report = certify_cover(wm7)
    assert report["pass"] and report["certificates"] == {"minimality": True, "weak_mixing": True}
    assert bounds == [2 * max(lengths[-1]) + 2]


def test_fibres_are_the_preimages_in_canonical_order(wm4, tr2):
    for seq in (wm4, tr2):
        for n in range(seq.top):
            upper = canonical_vertices(seq.levels[n + 1])
            scan = {v: [w for w in upper if seq.homs[n][w] == v] for v in seq.graph(n).vertices}
            assert fibres(seq, n) == {v: ws for v, ws in scan.items() if ws}


# ---------------------------------------------------------------------------
# misc structure


def test_signed_indices():
    lvl = CycleLevel(1, (9, 10))
    assert signed_index(lvl.base) == 0
    assert signed_index((1, 1, 4)) == 4
    assert signed_index((1, 2, 7)) == -7
    assert vertex_with_signed_index(lvl, -9) == (1, 2, 9)
    assert vertex_with_signed_index(lvl, 9) is None  # cycle 1 has interiors 1..8
    assert vertex_with_signed_index(lvl, 0) == lvl.base


def test_canonical_vertices_cover_graph(wm4):
    for n in range(3):
        lvl = wm4.levels[n]
        assert sorted(canonical_vertices(lvl)) == list(lvl.graph.vertices)


def test_descriptor(wm4, tr2):
    assert wm4.descriptor() == {"variant": "weakly-mixing", "levels": 4}
    assert tr2.descriptor() == {"variant": "transitive", "levels": 2}
