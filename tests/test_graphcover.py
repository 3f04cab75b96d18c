import pytest

from cantor_shrink.graphcover import (
    CoverSequence,
    CycleExpr,
    CycleLevel,
    Graph,
    TwoCycleLevel,
    base_vertex,
    build_transitive_sequence,
    build_weakly_mixing_sequence,
    canonical_vertices,
    check_bidirectional,
    check_edge_surjective,
    check_minimality_certificate,
    check_weak_mixing_certificate,
    expand_cycle_expr,
    invariant_subsystem,
    minimal_cycle_length,
    periodic_point_free_certificate,
    preimage_counts,
    preimages,
    signed_index,
    vertex_with_signed_index,
)


@pytest.fixture(scope="module")
def wm4():
    return build_weakly_mixing_sequence(4)


@pytest.fixture(scope="module")
def tr2():
    return build_transitive_sequence(2)


# ---------------------------------------------------------------------------
# graphs and basic checks


def test_edge_surjective():
    loop = Graph([(0, 0, 0)], [((0, 0, 0), (0, 0, 0))])
    assert check_edge_surjective(loop)
    a, b = (0, 1, 1), (0, 1, 2)
    assert not check_edge_surjective(Graph([a, b], [(a, b)]))
    assert check_edge_surjective(TwoCycleLevel(0, (2, 3)).graph)


def test_graph_rejects_stray_edge():
    with pytest.raises(ValueError):
        Graph([(0, 0, 0)], [((0, 0, 0), (9, 9, 9))])


def test_bidirectional_identity_on_branch_free_graph():
    cycle = CycleLevel(0, 5).graph
    ident = {v: v for v in cycle.vertices}
    assert check_bidirectional(ident, cycle, cycle)


def test_bidirectional_rejects_branching_identity_and_nonhom():
    g = TwoCycleLevel(0, (2, 3)).graph
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


def test_expand_cycle_expr_paths():
    lvl = TwoCycleLevel(0, (2, 3))
    one = expand_cycle_expr(lvl, CycleExpr(((1, 1),)))
    assert one == [(0, 0, 0), (0, 1, 1), (0, 0, 0)]
    nine = expand_cycle_expr(lvl, CycleExpr(((2, 1), (1, 1), (1, 2))))
    assert len(nine) - 1 == 9
    assert nine[0] == nine[-1] == lvl.base
    with pytest.raises(ValueError):
        expand_cycle_expr(lvl, CycleExpr(()))
    with pytest.raises(ValueError):
        expand_cycle_expr(lvl, CycleExpr(((1, 3),)))
    with pytest.raises(ValueError):
        CycleExpr(((0, 1),))


# ---------------------------------------------------------------------------
# the two towers


def test_weakly_mixing_lengths_and_sizes(wm4):
    assert [lvl.lengths for lvl in wm4.levels] == [
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
    assert [lvl.lengths for lvl in tr2.levels] == [(2, 3), (6, 12), (18, 42)]
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
        counts = preimage_counts(wm4, n)
        assert max(counts.values()) <= 12
        assert counts[base_vertex(n)] == 7
        assert max(counts, key=counts.get) == base_vertex(n)


def test_base_preimages_canonical_order(wm4):
    pres = preimages(wm4, 0, base_vertex(0))
    assert len(pres) == 7
    assert pres[0] == base_vertex(1)
    # cycle-1 preimages precede cycle-2 preimages
    cycles = [v[1] for v in pres[1:]]
    assert cycles == sorted(cycles)


def test_build_rejects_zero_levels():
    with pytest.raises(ValueError):
        build_weakly_mixing_sequence(0)


# ---------------------------------------------------------------------------
# certificates


def test_minimality_certificate(wm4, tr2):
    assert all(check_minimality_certificate(wm4, n) for n in range(4))
    assert not check_minimality_certificate(tr2, 0)
    assert not check_minimality_certificate(tr2, 1)
    with pytest.raises(ValueError):
        check_minimality_certificate(wm4, 4)  # no cover above the top


def test_weak_mixing_certificate(wm4, tr2):
    assert all(check_weak_mixing_certificate(wm4, n) for n in range(5))
    assert not check_weak_mixing_certificate(tr2, 1)
    assert not check_weak_mixing_certificate(tr2, 2)


def test_weak_mixing_fails_for_even_lengths():
    seq = CoverSequence([TwoCycleLevel(0, (4, 6))], [], None)
    assert not check_weak_mixing_certificate(seq, 0)


def test_invariant_subsystem(tr2, wm4):
    sub = invariant_subsystem(tr2)
    assert [lvl.length for lvl in sub.levels] == [2, 6, 18]
    for n in range(sub.top):
        assert check_bidirectional(sub.homs[n], sub.graph(n + 1), sub.graph(n))
    assert not check_weak_mixing_certificate(sub, 1)
    with pytest.raises(ValueError):
        invariant_subsystem(wm4)


def test_invariant_subsystem_of_cycle_tower_is_itself():
    levels = [CycleLevel(0, 2), CycleLevel(1, 6)]
    upper, lower = levels[1], levels[0]
    # walk the length-6 cycle three times around the length-2 cycle
    hom = {
        w: lower.cycle_path(1)[j % 2]
        for j, w in enumerate(upper.cycle_path(1)[:-1])
    }
    seq = CoverSequence(levels, [hom], None)
    again = invariant_subsystem(seq)
    assert [lvl.length for lvl in again.levels] == [2, 6]


def test_periodic_point_free(wm4):
    report = periodic_point_free_certificate(wm4, 4)
    assert report.ok and report.minima == (2, 9, 37, 149, 597)
    assert periodic_point_free_certificate(wm4, 1).minimum == 9
    loop = Graph([(0, 0, 0)], [((0, 0, 0), (0, 0, 0))])
    seq = CoverSequence([_GraphLevel(loop)], [], None)
    bad = periodic_point_free_certificate(seq, 0)
    assert bad.minimum == 1 and not bad.ok


class _GraphLevel:
    """Minimal level wrapper for handcrafted graphs in tests."""

    def __init__(self, graph):
        self.graph = graph
        self.cycles = []
        self.cycle_lengths = ()


def test_minimal_cycle_length_girth():
    lvl = TwoCycleLevel(3, (5, 8))
    assert minimal_cycle_length(lvl.graph) == 5


# ---------------------------------------------------------------------------
# misc structure


def test_signed_indices():
    lvl = TwoCycleLevel(1, (9, 10))
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
