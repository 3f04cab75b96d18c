import json
from fractions import Fraction

import hypothesis as h
import hypothesis.strategies as st
import pytest

from cantor_shrink.exact import ClosedInterval, canonical_dumps, gap, pow2, scalar_from_json
from cantor_shrink.graphcover import base_vertex, build_sequence, preimage_counts
from cantor_shrink.interval_embed import (
    Cell,
    audit_scheme,
    build_graph_scheme,
    build_odometer_scheme,
    children_of,
    closed_form_ratio_bound,
    derivative_ratio_bound,
    exceptional_labels,
    induced_map_label,
    ratio_csv,
    render_svg,
    scheme_from_json,
    scheme_to_json,
    verify_derivative_ratios,
    verify_lrs_pairs,
)
from cantor_shrink.odometer import OdometerSpec


@pytest.fixture(scope="module")
def od248():
    return build_odometer_scheme(OdometerSpec.from_list([2, 4, 8]), 3)


@pytest.fixture(scope="module")
def wm_scheme():
    return build_graph_scheme(build_sequence("weakly-mixing", 2), 2)


# ---------------------------------------------------------------------------
# odometer geometry


def test_level_one_frozen_geometry(od248):
    lvl = od248.level(1)
    assert lvl.a == Fraction(1, 2)
    assert lvl.b == Fraction(1, 8)
    assert (lvl.cells[0].D.lo, lvl.cells[0].D.hi) == (Fraction(1, 6), Fraction(1, 3))
    assert (lvl.cells[1].D.lo, lvl.cells[1].D.hi) == (Fraction(59, 48), Fraction(61, 48))
    assert gap(lvl.cells[0].D, lvl.cells[1].D) == Fraction(43, 48)


def test_level_two_core_ladder(od248):
    lvl = od248.level(2)
    assert lvl.a == Fraction(1, 32)
    assert lvl.b == Fraction(1, 131072)
    diameters = {j: lvl.cells[j].D.diameter for j in range(4)}
    assert diameters == {
        0: Fraction(1, 1536),
        1: Fraction(1, 24576),
        2: Fraction(1, 393216),
        3: Fraction(1, 96),
    }
    # the ladder restarts at its top immediately after the exceptional label
    assert diameters[3] == lvl.a / 3
    assert diameters[2] == lvl.b / 3


def test_carrier_nesting_iff_congruent(od248):
    coarse, fine = od248.level(1), od248.level(2)
    for j, cell in fine.cells.items():
        for i, parent in coarse.cells.items():
            inside = parent.A.encloses(cell.A)
            assert inside == (i == j % 2)
            if inside:
                assert parent.D.encloses(cell.A)


def test_exceptional_label_is_previous_modulus(od248):
    assert exceptional_labels(od248, 1) == {1}
    assert exceptional_labels(od248, 2) == {2}
    assert exceptional_labels(od248, 3) == {4}


def test_ratio_matches_closed_form(od248):
    assert derivative_ratio_bound(od248, 1) == Fraction(1, 2)
    assert derivative_ratio_bound(od248, 2) == Fraction(1, 8)
    assert closed_form_ratio_bound(od248, 1) == Fraction(3, 2)
    assert closed_form_ratio_bound(od248, 2) == Fraction(3, 8)
    report = verify_derivative_ratios(od248)
    assert report.passed and not report.witnesses
    assert [m["depth"] for m in report.margins] == [1, 2]


def test_ratio_requires_child_level(od248):
    with pytest.raises(ValueError, match="depth"):
        derivative_ratio_bound(od248, 3)


@h.given(first=st.sampled_from([2, 3, 5]), base=st.sampled_from([2, 3]), depth=st.integers(1, 3))
@h.settings(deadline=None, max_examples=25)
def test_ratio_closed_form_any_geometric_tower(first, base, depth):
    tower = OdometerSpec.from_list([first * base**i for i in range(depth + 1)])
    scheme = build_odometer_scheme(tower, depth + 1)
    k = scheme.spec.k(depth + 1)
    computed = derivative_ratio_bound(scheme, depth)
    assert computed == k * pow2(-depth * k)
    assert computed <= closed_form_ratio_bound(scheme, depth)


def test_lrs_depth_one_certificate_and_exclusion(od248):
    report = verify_lrs_pairs(od248, 1)
    assert report.passed
    assert report.margins == [
        {"parent": 0, "pair": [0, 2], "margin": {"mantissa": "10837", "pow2": -18, "pow3": 0}}
    ]
    assert report.excluded == [{"parent": 1, "pair": [1, 3], "reason": "exceptional parent"}]
    assert report.stats["pairs_checked"] == 1


def test_excluded_pair_genuinely_fails(od248):
    # under the exceptional parent the image hull is wider than the core gap,
    # which is exactly why the certificate must leave that parent out
    fine = od248.level(2)
    sup_width = fine.cells[2].A.hi - fine.cells[0].A.lo
    assert sup_width == Fraction(1, 6)
    assert gap(fine.cells[1].D, fine.cells[3].D) < sup_width


def test_lrs_fails_on_widened_core(od248):
    tampered = scheme_from_json(scheme_to_json(od248))
    lvl = tampered.level(2)
    bad = lvl.cells[0]
    lvl.cells[0] = Cell(bad.label, bad.A, bad.A, bad.parent)  # core blown up to carrier
    report = verify_lrs_pairs(tampered, 1)
    assert not report.passed
    assert report.witnesses[0]["pair"] == [0, 2]


def test_audit_catches_off_center_core(od248):
    tampered = scheme_from_json(scheme_to_json(od248))
    lvl = tampered.level(1)
    good = lvl.cells[0]
    shifted = ClosedInterval(good.D.lo + Fraction(1, 1000), good.D.hi + Fraction(1, 1000))
    lvl.cells[0] = Cell(good.label, good.A, shifted, good.parent)
    report = audit_scheme(tampered)
    assert not report.passed
    assert any(w["reason"] == "core not concentric" for w in report.witnesses)


def test_audit_passes_and_counts_cells(od248):
    report = audit_scheme(od248)
    assert report.passed and report.witnesses == []
    assert report.stats == {"kind": "odometer", "depths": [1, 2, 3], "cells": 2 + 4 + 8}


def test_depth_must_be_positive():
    with pytest.raises(ValueError):
        build_odometer_scheme(OdometerSpec.from_list([2, 4]), 0)


def test_listed_tower_extends_for_top_level():
    # the deepest level needs one modulus beyond the list; check it is the
    # geometric continuation and that the audit still closes
    scheme = build_odometer_scheme(OdometerSpec.from_list([3, 6]), 2)
    assert scheme.spec.extended_modulus(3) == 12
    assert audit_scheme(scheme).passed


def test_induced_map_label_steps_residue(od248):
    assert induced_map_label(od248, 2, 3) == 0
    assert induced_map_label(od248, 3, 5) == 6
    with pytest.raises(KeyError):
        induced_map_label(od248, 2, 17)


# ---------------------------------------------------------------------------
# graph-cover geometry


def test_graph_level_zero_frozen(wm_scheme):
    lvl = wm_scheme.level(0)
    assert sorted(lvl.cells) == [-2, -1, 0, 1]
    assert lvl.a == Fraction(1, 2)
    assert lvl.b == pow2(-32) / 6
    assert lvl.cells[0].D.diameter == pow2(-32) / 6
    assert lvl.cells[1].D.diameter == pow2(-36) / 6
    assert lvl.cells[-1].D.diameter == pow2(-36) / 6
    assert lvl.cells[-2].D.diameter == pow2(-24) / 6
    assert lvl.cells[1].A.lo == 1 and lvl.cells[-2].A.hi == Fraction(-3, 2)


def test_graph_level_scales(wm_scheme):
    assert wm_scheme.level(1).a == pow2(-24) / 72
    assert wm_scheme.level(1).b == pow2(-348) / 72
    assert wm_scheme.level(1).cells[0].D.diameter == pow2(-648) / 6
    assert len(wm_scheme.level(1).cells) == 18
    assert len(wm_scheme.level(2).cells) == 74


def test_graph_slots_are_twelfths(wm_scheme):
    for depth in (0, 1):
        parents = wm_scheme.level(depth)
        for label, kids in children_of(wm_scheme, depth).items():
            assert kids, "covering maps are vertex-surjective"
            for child in kids:
                assert child.A.diameter * 12 == parents.cells[label].D.diameter
                assert parents.cells[label].D.encloses(child.A)


def test_graph_fibre_takes_leftmost_slots(wm_scheme):
    seq = wm_scheme.cover
    assert preimage_counts(seq, 0)[base_vertex(0)] == 7
    kids = sorted(children_of(wm_scheme, 0)[0], key=lambda c: c.A.lo)
    base_core = wm_scheme.level(0).cells[0].D
    # seven preimages occupy slots 0..6 of twelve; the rightmost five stay empty
    assert kids[0].A.lo == base_core.lo
    assert kids[-1].A.hi == base_core.lo + 7 * base_core.diameter / 12
    assert kids[0].label == 0  # canonical order starts with the base


def test_graph_exceptional_labels(wm_scheme):
    assert exceptional_labels(wm_scheme, 0) == {1, -1}
    assert exceptional_labels(wm_scheme, 1) == {2, -2}


def test_graph_ratio_closed_form(wm_scheme):
    assert derivative_ratio_bound(wm_scheme, 0) == 12 * pow2(-4)
    assert derivative_ratio_bound(wm_scheme, 1) == 12 * pow2(-18)
    assert closed_form_ratio_bound(wm_scheme, 0) == 36 * pow2(-4)
    assert verify_derivative_ratios(wm_scheme).passed


def test_graph_lrs_reports_both_exclusion_kinds(wm_scheme):
    report = verify_lrs_pairs(wm_scheme, 0)
    assert report.passed
    assert report.stats["pairs_checked"] == 12
    reasons = {e["reason"] for e in report.excluded}
    assert reasons == {"exceptional parent", "successors split across parents"}
    assert all(scalar_from_json(m["margin"]) > 0 for m in report.margins)


def test_graph_lrs_depth_one(wm_scheme):
    report = verify_lrs_pairs(wm_scheme, 1)
    assert report.passed
    assert report.stats["pairs_checked"] == 103


def test_graph_audit_passes(wm_scheme):
    report = audit_scheme(wm_scheme)
    assert report.passed
    assert report.stats["cells"] == 4 + 18 + 74


def test_graph_induced_map_branches_at_base(wm_scheme):
    assert induced_map_label(wm_scheme, 0, 0) == (-1, 1)
    assert induced_map_label(wm_scheme, 0, -2) == (0,)
    assert induced_map_label(wm_scheme, 0, 1) == (0,)


def test_graph_depth_cannot_exceed_tower():
    seq = build_sequence("weakly-mixing", 1)
    with pytest.raises(ValueError, match="tower height"):
        build_graph_scheme(seq, 2)


def test_transitive_variant_also_audits():
    scheme = build_graph_scheme(build_sequence("transitive", 1), 1)
    assert audit_scheme(scheme).passed
    assert verify_lrs_pairs(scheme, 0).passed
    assert len(scheme.level(1).cells) == 17


# ---------------------------------------------------------------------------
# serialization and export


def test_scheme_json_roundtrip_is_byte_identical(od248, wm_scheme):
    for scheme in (od248, wm_scheme):
        blob = canonical_dumps(scheme_to_json(scheme))
        again = scheme_from_json(json.loads(blob))
        assert canonical_dumps(scheme_to_json(again)) == blob
        assert audit_scheme(again).passed


def test_loaded_scheme_keeps_file_intervals(od248):
    obj = scheme_to_json(od248)
    obj["levels"][0]["cells"][0]["D"]["hi"] = {"num": "1", "den": "2"}
    loaded = scheme_from_json(obj)
    assert loaded.level(1).cells[0].D.hi == Fraction(1, 2)
    assert not audit_scheme(loaded).passed


def test_scheme_from_json_rejects_unknown_kind():
    with pytest.raises(ValueError, match="kind"):
        scheme_from_json({"kind": "interval-exchange", "source": {}, "levels": []})


def test_ratio_csv_columns(od248):
    lines = ratio_csv(od248).splitlines()
    assert lines[0] == "depth,max_ratio_num,max_ratio_den,bound,float_approx"
    assert lines[1] == "1,1,2,1.5,0.5"
    assert lines[2] == "2,1,8,0.375,0.125"


def test_render_svg_draws_every_cell(od248):
    svg = render_svg(od248)
    assert svg.startswith("<svg")
    assert svg.count("<rect") == 2 * (2 + 4 + 8)
    assert "n=3" in svg
