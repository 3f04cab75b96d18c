import math
from fractions import Fraction

import hypothesis as h
import hypothesis.strategies as st
import pytest

from cantor_shrink.exact import canonical_dumps
from cantor_shrink.graphcover import build_sequence
from cantor_shrink.interval_embed import build_graph_scheme, build_odometer_scheme
from cantor_shrink.metric_systems import (
    OMEGA,
    FinitePointSystem,
    backward_return_time,
    build_attractor_repellor,
    build_fixed_point_system,
    certify_slack,
    check_lrs,
    check_shrinking,
    computed_radii,
    entropy_estimate,
    extension_to_json,
    full_shift_midpoint_system,
    midpoint_system,
    periodic_points,
    product_system,
    separated_count,
    shrinking_propositions_oracle,
    slack_sequence,
    system_from_json,
    system_to_json,
    verify_deformed_lrs,
    verify_extension_lrs,
)
from cantor_shrink.odometer import OdometerSpec


def halving_chain(n, centre=Fraction(0), offset=Fraction(1)):
    positions = {i: centre + offset / 2 ** (n - 1 - i) for i in range(n)}
    step = {i: max(i - 1, 0) for i in range(n)}
    return FinitePointSystem.from_positions(positions, step)


@pytest.fixture(scope="module")
def od248():
    return build_odometer_scheme(OdometerSpec.from_list([2, 4, 8]), 3)


@pytest.fixture(scope="module")
def od5():
    return build_odometer_scheme(OdometerSpec.from_list([2, 4, 8, 16, 32]), 5)


@pytest.fixture(scope="module")
def small_ext(od248):
    return build_attractor_repellor(od248, levels=1, tail=4, refine=3)


# ---------------------------------------------------------------------------
# finite systems and shrinking
# ---------------------------------------------------------------------------


def test_identity_is_not_shrinking():
    ident = FinitePointSystem.from_positions(
        {0: Fraction(0), 1: Fraction(1)}, {0: 0, 1: 1}
    )
    assert not check_shrinking(ident)
    # with maximal feasible radii the radial check is vacuous here: each
    # point's radius stops exactly at its non-shrinking partner
    r = check_lrs(ident)
    assert r.ok and r.min_margin is None


def test_halving_chain_contracts_every_pair():
    chain = halving_chain(6)
    assert check_shrinking(chain)
    r = check_lrs(chain)
    assert r.ok and r.min_margin > 0
    assert periodic_points(chain) == [0]


def test_constant_map_shrinks_and_fixes_target():
    sys = FinitePointSystem.from_positions(
        {0: Fraction(0), 1: Fraction(1, 3), 2: Fraction(2)}, {0: 1, 1: 1, 2: 1}
    )
    assert check_shrinking(sys)
    assert periodic_points(sys) == [1]


def test_metric_validation():
    with pytest.raises(ValueError):
        FinitePointSystem(
            points=[0, 1, 2],
            metric={
                (0, 1): Fraction(1),
                (1, 0): Fraction(1),
                (1, 2): Fraction(1),
                (2, 1): Fraction(1),
                (0, 2): Fraction(5),  # violates the triangle via 1
                (2, 0): Fraction(5),
            },
            map={0: 0, 1: 1, 2: 2},
        )
    with pytest.raises(ValueError):
        FinitePointSystem.from_positions({0: Fraction(0)}, {0: 7})
    with pytest.raises(ValueError):
        FinitePointSystem.from_positions(
            {0: Fraction(0), 1: Fraction(1)}, {0: 0, 1: 0}, eps={0: Fraction(0), 1: Fraction(1)}
        )


def test_computed_radii_fallback_past_diameter():
    chain = halving_chain(4)
    radii = computed_radii(chain)
    assert all(r == chain.diameter + 1 for r in radii.values())


@h.given(
    n1=st.integers(min_value=2, max_value=6),
    n2=st.integers(min_value=2, max_value=6),
    off1=st.integers(min_value=1, max_value=9),
    off2=st.integers(min_value=-9, max_value=-1),
)
@h.settings(deadline=None, max_examples=25)
def test_product_of_shrinking_systems_shrinks(n1, n2, off1, off2):
    a = halving_chain(n1, offset=Fraction(off1, 7))
    b = halving_chain(n2, centre=Fraction(1, 2), offset=Fraction(off2, 5))
    prod = product_system(a, b)
    assert check_shrinking(prod)
    assert periodic_points(prod) == [(0, 0)]


def test_oracle_frozen_report_and_determinism():
    rep = shrinking_propositions_oracle(trials=200, max_size=6, seed=1)
    assert rep["counterexamples"] == []
    assert rep["shrinking_systems"] == 152
    assert rep["surjective_shrinking"] == 80
    assert rep["max_preimage_vanishing_step"] == 5
    assert rep == shrinking_propositions_oracle(trials=200, max_size=6, seed=1)


# ---------------------------------------------------------------------------
# separated sets, entropy, midpoint systems
# ---------------------------------------------------------------------------


def test_separated_count_validates_input(od248):
    m2 = midpoint_system(od248, 2)
    with pytest.raises(ValueError):
        separated_count(m2, 0, Fraction(1, 4))
    with pytest.raises(ValueError):
        separated_count(m2, 2, Fraction(0))


def test_depth2_midpoints_all_separate_at_tiny_eps(od248):
    m2 = midpoint_system(od248, 2)
    tiny = Fraction(1, 10**6)
    assert separated_count(m2, 1, tiny) == 4
    assert separated_count(m2, 3, tiny) == 4


def test_shift_separation_counts_frozen():
    sh4 = full_shift_midpoint_system(4)
    assert sh4.f("0110") == "1100"
    quarter = Fraction(1, 4)
    assert [separated_count(sh4, n, quarter) for n in range(1, 5)] == [4, 6, 8, 16]


def test_shift6_estimate_is_exactly_log2_at_full_depth():
    sh6 = full_shift_midpoint_system(6)
    counts = [separated_count(sh6, n, Fraction(1, 4)) for n in range(1, 7)]
    assert counts == [4, 8, 16, 24, 32, 64]
    assert math.log(counts[5]) / 6 == pytest.approx(math.log(2), rel=1e-12)


def test_entropy_table_decreases_along_cap(od248):
    m3 = midpoint_system(od248, 3)
    rows = entropy_estimate(m3, [Fraction(1, 10**9)], [1, 2, 3, 4])
    assert [r["count"] for r in rows] == [8, 8, 8, 8]
    ests = [r["estimate"] for r in rows]
    assert all(a > b for a, b in zip(ests, ests[1:]))
    for r in rows:
        assert r["estimate"] == pytest.approx(math.log(8) / r["n"], rel=1e-12)


def test_entropy_of_singleton_is_zero():
    one = FinitePointSystem.from_positions({0: Fraction(1, 3)}, {0: 0})
    rows = entropy_estimate(one, [Fraction(1, 2)], [1, 3])
    assert [(r["count"], r["estimate"]) for r in rows] == [(1, 0.0), (1, 0.0)]


def test_product_depth3_is_radially_shrinking(od248):
    m3 = midpoint_system(od248, 3)
    prod = product_system(m3, m3)
    assert len(prod.points) == 64
    assert prod.eps[(0, 5)] == min(m3.eps[0], m3.eps[5])
    res = check_lrs(prod)
    assert res.ok and res.min_margin > 0


def test_system_json_roundtrip_with_tuple_ids(od248):
    m2 = midpoint_system(od248, 2)
    prod = product_system(m2, m2)
    again = system_from_json(system_to_json(prod))
    assert again.points == prod.points
    assert again.metric == prod.metric
    assert again.map == prod.map
    assert again.eps == prod.eps
    assert canonical_dumps(system_to_json(again)) == canonical_dumps(system_to_json(prod))


# ---------------------------------------------------------------------------
# attractor-repellor extension
# ---------------------------------------------------------------------------


def test_backward_return_times_match_tower(od248):
    assert [backward_return_time(od248, 0, n) for n in (1, 2, 3)] == [2, 4, 8]


def test_certified_slack_frozen_values(od248):
    assert certify_slack(od248, 1, 2) == Fraction(165, 32768)
    assert certify_slack(od248, 1, 3) == Fraction(6063420080063, 211106232532992)
    assert certify_slack(od248, 2, 3) == Fraction(13958643647, 211106232532992)


def test_slack_certification_input_contracts(od248):
    with pytest.raises(ValueError, match="deeper than the separating cylinder"):
        certify_slack(od248, 2, 2)
    with pytest.raises(ValueError, match="larger depth"):
        certify_slack(od248, 3, 4)


def test_exceptional_anchors_cannot_be_certified(od5):
    # the slow rungs of the length ladder sit on the residue s_{n-1} mod s_n;
    # an anchor through them has its repellor distances capped by a small
    # interval while the image side spreads over a large one
    for anchor, bad_depth in [(1, 1), (2, 2), (4, 3)]:
        with pytest.raises(ValueError, match="not positive"):
            certify_slack(od5, bad_depth, 5, anchor)
    for anchor in (0, 8, 16):
        for n in (1, 2, 3):
            assert certify_slack(od5, n, 5, anchor) > 0


def test_slack_sequence_caps(od5):
    slack = slack_sequence(od5, 3, 5)
    assert slack[0] is None and len(slack) == 5
    assert slack[1] <= Fraction(1, 4)
    for n in (2, 3, 4):
        assert slack[n] <= slack[n - 1] / 4


def test_extension_layout_frozen(small_ext):
    ext = small_ext
    assert ext.k == [0, 2]
    assert ext.pi2(-2) == -1 + ext.slack[2] / 2
    assert ext.pi2(-1) == -1 + ext.slack[2] / 2 + ext.slack[1]
    for j in range(0, 5):
        assert ext.pi2(j) == 1 - Fraction(1, 2 ** (j + 2))
    assert ext.map[("y", 4)] == ("sheet", 5, 1)
    assert ext.map[("sheet", 7, -1)] == ("sheet", 0, -1)
    assert len(ext.ids) == 7 + 2 * 8


def test_extension_report_margins(small_ext):
    rep = verify_extension_lrs(small_ext)
    assert rep.passed and not rep.witnesses
    kinds = {}
    for m in rep.margins:
        kinds[m["kind"]] = kinds.get(m["kind"], 0) + 1
    assert kinds == {
        "critical-pair": 1,
        "isolation": 1,
        "attractor-monotone": 6,
        "sweep": 1,
    }
    obj = rep.to_json()
    assert obj["check"] == "extension-lrs" and obj["pass"] is True


def test_full_extension_certifies_three_levels(od5):
    ext = build_attractor_repellor(od5, levels=3, tail=16, refine=5)
    assert ext.k == [0, 2, 4, 8]
    assert len(ext.ids) == (8 + 16 + 1) + 2 * 32
    rep = verify_extension_lrs(ext)
    assert rep.passed
    crit = [m for m in rep.margins if m["kind"] == "critical-pair"]
    assert [m["n"] for m in crit] == [1, 2, 3]
    # heights interleave strictly between return times on the repellor side
    returns = {-2, -4, -8}
    for j in range(-8, -2):
        if j not in returns:
            assert ext.pi2(j) > ext.pi2(j + 1)
    assert ext.pi2(-4) < ext.pi2(-7) < ext.pi2(-2)


def test_extension_rejects_bad_parameters(od248):
    graph_scheme = build_graph_scheme(build_sequence("weakly-mixing", 1), 1)
    with pytest.raises(ValueError, match="odometer"):
        build_attractor_repellor(graph_scheme, 1, 4, 3)
    with pytest.raises(ValueError, match="at least one return level"):
        build_attractor_repellor(od248, 0, 4, 3)
    with pytest.raises(ValueError, match="rate"):
        build_attractor_repellor(od248, 1, 4, 3, rate=1)
    with pytest.raises(ValueError, match="too shallow"):
        build_attractor_repellor(od248, 2, 4, 3)


def test_extension_json_deterministic(od248, small_ext):
    blob = canonical_dumps(extension_to_json(small_ext))
    rebuilt = build_attractor_repellor(od248, levels=1, tail=4, refine=3)
    assert canonical_dumps(extension_to_json(rebuilt)) == blob
    obj = extension_to_json(small_ext)
    assert obj["k"] == [2] and len(obj["points"]) == 23


# ---------------------------------------------------------------------------
# deformed metric and the unique fixed point
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def rate4_triple(od248):
    ext = build_attractor_repellor(od248, levels=1, tail=4, refine=3, rate=4)
    return build_fixed_point_system(od248, ext, od248, truncation=5)


def test_deformed_grid_and_size(rate4_triple):
    dts = rate4_triple
    assert len(dts.ids) == 2 * 6 * 2 + 1
    assert dts.grid == [Fraction(-1, 4**t) for t in range(6)]
    assert dts.coords[OMEGA] == (0, 0, 0)


def test_deformed_seam_matches_plain_metric(rate4_triple):
    dts = rate4_triple
    u, v = ("w", 0, 0, 0), ("w", 1, 0, 1)
    assert dts.distance(u, v) == dts.plain_distance(u, v) == 1
    # one step off the seam the deformation bites
    u1, v1 = dts.map[u], dts.map[v]
    assert dts.distance(u1, v1) < dts.plain_distance(u1, v1)
    assert dts.distance(OMEGA, u) == Fraction(5, 4)


def test_deformed_report_rate4(rate4_triple):
    rep = verify_deformed_lrs(rate4_triple)
    assert rep.passed and not rep.witnesses
    kinds = {}
    for m in rep.margins:
        kinds[m["kind"]] = kinds.get(m["kind"], 0) + 1
    assert kinds == {"middle-contraction": 6, "collapse-approach": 24, "sweep": 1}
    assert rep.stats["seam_pairs"] == 6
    assert rep.stats["periodic_points"] == 1


def test_omega_is_the_only_periodic_point(rate4_triple):
    assert periodic_points(rate4_triple.as_system()) == [OMEGA]


def test_rate2_control_is_detected(od248):
    ext2 = build_attractor_repellor(od248, levels=1, tail=4, refine=3, rate=2)
    dts2 = build_fixed_point_system(od248, ext2, od248, truncation=5)
    rep = verify_deformed_lrs(dts2)
    assert not rep.passed
    kinds = {w["kind"] for w in rep.witnesses}
    # the middle coordinate no longer beats the outer stretch threefold;
    # the finite truncation still collapses, so no other check trips
    assert kinds == {"middle-contraction"}
    assert len(rep.witnesses) == 5
    assert periodic_points(dts2.as_system()) == [OMEGA]


def test_grid_override_contracts(od248):
    ext = build_attractor_repellor(od248, levels=1, tail=4, refine=3, rate=4)
    ok = build_fixed_point_system(
        od248, ext, od248, 2, grid=[Fraction(-1), Fraction(-1, 5), Fraction(-1, 30)]
    )
    assert len(ok.ids) == 13
    with pytest.raises(ValueError, match="length"):
        build_fixed_point_system(od248, ext, od248, 2, grid=[Fraction(-1), Fraction(-1, 5)])
    with pytest.raises(ValueError, match="seam"):
        build_fixed_point_system(
            od248, ext, od248, 2, grid=[Fraction(-1, 2), Fraction(-1, 4), Fraction(-1, 8)]
        )
    with pytest.raises(ValueError, match="monotone attraction"):
        build_fixed_point_system(
            od248, ext, od248, 2, grid=[Fraction(-1), Fraction(-1, 30), Fraction(-1, 5)]
        )
    with pytest.raises(ValueError, match="at least one contraction"):
        build_fixed_point_system(od248, ext, od248, 0)


@h.given(rate=st.integers(min_value=4, max_value=9), trunc=st.integers(min_value=1, max_value=4))
@h.settings(deadline=None, max_examples=8)
def test_fast_rates_always_certify(rate, trunc):
    sch = build_odometer_scheme(OdometerSpec.from_list([2, 4, 8]), 3)
    ext = build_attractor_repellor(sch, levels=1, tail=2, refine=3, rate=rate)
    dts = build_fixed_point_system(sch, ext, sch, truncation=trunc)
    rep = verify_deformed_lrs(dts)
    assert rep.passed
    assert periodic_points(dts.as_system()) == [OMEGA]
