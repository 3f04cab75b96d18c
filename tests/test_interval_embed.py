import json
from fractions import Fraction
from itertools import accumulate, combinations
from operator import mul
from typing import NamedTuple

import hypothesis as h
import hypothesis.strategies as st
import pytest

from cantor_shrink.exact import MEMORY_BOUND, ZERO, Dyadic, canonical_dumps, digits_to_int, int_to_digits, pow2
from cantor_shrink.graphcover import base_vertex, build_sequence, fibres
from cantor_shrink.interval_embed import (
    SLOTS_PER_CORE,
    _level_factors,
    absolute_level,
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
    scheme_bytes,
    scheme_from_json,
    scheme_to_json,
    verify_derivative_ratios,
    verify_lrs_pairs,
)
from cantor_shrink.odometer import OdometerSpec


def encloses(outer, inner):
    return outer.lo <= inner.lo and inner.hi <= outer.hi


def gap(a, b):
    """Distance between two disjoint intervals."""
    return max(b.lo - a.hi, a.lo - b.hi)


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
    assert Fraction(int(lvl.a), int(lvl.scale)) == Fraction(1, 2)
    assert Fraction(int(lvl.b), int(lvl.scale)) == Fraction(1, 8)
    assert (lvl.cells[0].D.lo, lvl.cells[0].D.hi) == (Fraction(1, 6), Fraction(1, 3))
    assert (lvl.cells[1].D.lo, lvl.cells[1].D.hi) == (Fraction(59, 48), Fraction(61, 48))
    assert gap(lvl.cells[0].D, lvl.cells[1].D) == Fraction(43, 48)


def test_level_two_core_ladder(od248):
    lvl = od248.level(2)
    assert Fraction(int(lvl.a), int(lvl.scale)) == Fraction(1, 32)
    assert Fraction(int(lvl.b), int(lvl.scale)) == Fraction(1, 131072)
    diameters = {j: lvl.cells[j].D.diameter for j in range(4)}
    assert diameters == {
        0: Fraction(1, 1536),
        1: Fraction(1, 24576),
        2: Fraction(1, 393216),
        3: Fraction(1, 96),
    }
    # the ladder restarts at its top immediately after the exceptional label
    assert diameters[3] == Fraction(int(lvl.a), 3 * int(lvl.scale))
    assert diameters[2] == Fraction(int(lvl.b), 3 * int(lvl.scale))


def test_carrier_nesting_iff_congruent(od248):
    coarse, fine = od248.level(1), od248.level(2)
    for j, cell in fine.cells.items():
        for i, parent in coarse.cells.items():
            inside = encloses(parent.A, cell.A)
            assert inside == (i == j % 2)
            if inside:
                assert encloses(parent.D, cell.A)


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
    k = scheme.spec.extended_k(depth + 1)
    computed = derivative_ratio_bound(scheme, depth)
    assert computed == k * pow2(-depth * k)
    assert computed <= closed_form_ratio_bound(scheme, depth)


def test_lrs_depth_one_certificate_and_exclusion(od248):
    report = verify_lrs_pairs(od248, 1)
    assert report.passed
    # the margin 10837/2^18 over the depth-2 scale 3 * 2^18
    assert int(report.scale) == 3 << 18
    assert report.margins == [{"parent": 0, "pair": [0, 2], "margin": "+15-8-0"}]
    assert Fraction(digits_to_int("+15-8-0", 20), int(report.scale)) == Fraction(10837, 2**18)
    assert report.to_json()["scale"] == "+20-18"
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
    lvl.cells[0] = bad._replace(inset=ZERO, core_width=bad.width)  # core blown up to carrier
    report = verify_lrs_pairs(tampered, 1)
    assert not report.passed
    assert report.witnesses[0]["pair"] == [0, 2]


def test_audit_catches_off_center_core(od248):
    tampered = scheme_from_json(scheme_to_json(od248))
    lvl = tampered.level(1)
    good = lvl.cells[0]
    # one unit of the level scale to the right
    lvl.cells[0] = good._replace(inset=good.inset + Dyadic.term(1))
    report = audit_scheme(tampered)
    assert not report.passed
    assert any(w["reason"] == "core not concentric" for w in report.witnesses)


@pytest.mark.parametrize("end", [0, 1])
@pytest.mark.parametrize("scheme_name", ["od248", "wm_scheme"])
def test_audit_catches_a_carrier_past_its_parent_core(request, scheme_name, end):
    # one child's carrier moved one unit past its parent's core, at either end
    scheme = request.getfixturevalue(scheme_name)
    tampered = scheme_from_json(scheme_to_json(scheme))
    upper, lower = tampered.levels[0], tampered.levels[1]
    refine = int(lower.scale) // int(upper.scale)
    kids = sorted((c for c in lower.cells.values() if c.parent == next(iter(upper.cells))), key=lambda c: c.start)
    child = kids[-end]
    # the carrier's far end stays where it was, and so does its core
    one = Dyadic.term(1)
    if end == 0:  # the carrier starts one unit before its parent's core
        moved = child._replace(start=-one, width=child.start + child.width + one, inset=child.inset + child.start + one)
    else:  # the carrier ends one unit after its parent's core
        moved = child._replace(width=upper.cells[child.parent].core_width * refine + one - child.start)
    lower.cells[child.label] = moved
    reasons = {(w.get("label"), w["reason"]) for w in audit_scheme(tampered).witnesses}
    assert (child.label, "carrier leaves parent core") in reasons
    if scheme.kind == "graph":
        assert (child.label, "carrier is not a twelfth of the core") in reasons


@pytest.fixture(scope="module")
def tr2_scheme():
    return build_graph_scheme(build_sequence("transitive", 2), 2)


@pytest.mark.parametrize("delta", [-3, -1, 1, 3])
@pytest.mark.parametrize("scheme_name", ["od248", "tr2_scheme"])
def test_audit_refuses_a_scale_its_source_does_not_give(request, scheme_name, delta):
    # the factor from one level's scale to the next is the one the source
    # descriptor gives, so a scale moved by a unit or three fails the audit
    # at its own depth, the deepest level's too
    scheme = request.getfixturevalue(scheme_name)
    assert audit_scheme(scheme).passed
    for i, lvl in enumerate(scheme.levels):
        levels = list(scheme.levels)
        levels[i] = lvl._replace(scale=lvl.scale + Dyadic.term(delta))
        report = audit_scheme(scheme._replace(levels=levels))
        assert not report.passed
        assert {"depth": lvl.n, "reason": "scale is not the one its source gives"} in report.witnesses


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
    assert induced_map_label(od248, 2, 3) == (0,)
    assert induced_map_label(od248, 3, 5) == (6,)
    with pytest.raises(KeyError):
        induced_map_label(od248, 2, 17)


# ---------------------------------------------------------------------------
# graph-cover geometry


def test_graph_level_zero_frozen(wm_scheme):
    lvl = wm_scheme.level(0)
    assert sorted(lvl.cells) == [-2, -1, 0, 1]
    assert Fraction(int(lvl.a), int(lvl.scale)) == Fraction(1, 2)
    assert Fraction(int(lvl.b), int(lvl.scale)) == pow2(-32) / 6
    assert lvl.cells[0].D.diameter == pow2(-32) / 6
    assert lvl.cells[1].D.diameter == pow2(-36) / 6
    assert lvl.cells[-1].D.diameter == pow2(-36) / 6
    assert lvl.cells[-2].D.diameter == pow2(-24) / 6
    assert lvl.cells[1].A.lo == 1 and lvl.cells[-2].A.hi == Fraction(-3, 2)


def test_graph_level_scales(wm_scheme):
    lvl = wm_scheme.level(1)
    assert Fraction(int(lvl.a), int(lvl.scale)) == pow2(-24) / 72
    assert Fraction(int(lvl.b), int(lvl.scale)) == pow2(-348) / 72
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
                assert encloses(parents.cells[label].D, child.A)


def test_graph_fibre_takes_leftmost_slots(wm_scheme):
    seq = wm_scheme.cover
    assert len(fibres(seq, 0)[base_vertex(0)]) == 7
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
    assert all(digits_to_int(m["margin"], report.scale.bit_length()) > 0 for m in report.margins)


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
    # a variant's name grows its tower as the levels are admitted
    grown = build_graph_scheme("weakly-mixing", 2)
    assert grown.cover == build_sequence("weakly-mixing", 2)
    assert scheme_to_json(grown) == scheme_to_json(build_graph_scheme(build_sequence("weakly-mixing", 2), 2))


def test_transitive_variant_also_audits():
    scheme = build_graph_scheme(build_sequence("transitive", 1), 1)
    assert audit_scheme(scheme).passed
    assert verify_lrs_pairs(scheme, 0).passed
    assert len(scheme.level(1).cells) == 17


# ---------------------------------------------------------------------------
# level factors


@pytest.mark.parametrize("build", [
    lambda: build_odometer_scheme(OdometerSpec.from_list([2, 4, 8]), 9),
    lambda: build_graph_scheme(build_sequence("transitive", 3), 3),
    lambda: build_graph_scheme(build_sequence("weakly-mixing", 2), 2),
], ids=["od9", "tr3", "wm2"])
def test_level_factors_are_a_small_odd_part_times_a_power_of_two(build):
    # the premise of carrying lengths across levels as x.scaled(m, e): the
    # factor between two level scales is a power of two times an odd part of
    # a few bits
    scheme = build()
    for lvl, nxt in zip(scheme.levels, scheme.levels[1:]):
        refine, rest = divmod(int(nxt.scale), int(lvl.scale))
        assert rest == 0
        assert refine >> (refine & -refine).bit_length() - 1 < 1 << 8


# ---------------------------------------------------------------------------
# serialization and export


def test_scheme_json_roundtrip_is_byte_identical(od248, wm_scheme):
    for scheme in (od248, wm_scheme):
        blob = canonical_dumps(scheme_to_json(scheme))
        again = scheme_from_json(json.loads(blob))
        assert again.levels == scheme.levels
        assert canonical_dumps(scheme_to_json(again)) == blob
        assert audit_scheme(again).passed


def _small_scheme(kind, tower, depth):
    if kind == "odometer":
        return build_odometer_scheme(OdometerSpec.from_list(list(accumulate(tower, mul))), depth)
    return build_graph_scheme(build_sequence(tower, depth), depth)


@h.given(st.one_of(
    # 2 to 4 moduli, given by their branching factors, to depth 6 at most
    st.tuples(st.just("odometer"), st.lists(st.integers(2, 4), min_size=2, max_size=4), st.integers(1, 6)),
    st.tuples(st.just("graph"), st.sampled_from(["weakly-mixing", "transitive"]), st.integers(1, 3)),
))
@h.example(("odometer", [4, 4, 4, 4], 6))
@h.example(("graph", "weakly-mixing", 3))
@h.example(("graph", "transitive", 3))
@h.settings(derandomize=True, deadline=None, max_examples=40)
def test_scheme_files_roundtrip(case):
    # read, then write, gives the file's bytes back
    scheme = _small_scheme(*case)
    blob = canonical_dumps(scheme_to_json(scheme))
    again = scheme_from_json(json.loads(blob))
    assert again.levels == scheme.levels
    assert canonical_dumps(scheme_to_json(again)) == blob
    assert audit_scheme(again).passed


# ---------------------------------------------------------------------------
# the dense reference: the reader, the audit and the pair sweep as they were
# when every endpoint was one integer over its level's scale, each cell placed
# from 0 and the whole level checked in line order


# the parallel lists of a format-5 level, in the order a cell's fields are read
FILE_COLUMNS = ("label", "parent", "start", "width", "inset", "core_width")


class DenseCell(NamedTuple):
    label: int
    carrier: tuple[int, int]
    core: tuple[int, int]
    parent: int | None


class DenseLevel(NamedTuple):
    n: int
    scale: int
    a: int
    b: int
    cells: dict


def dense_levels(obj: dict, factors: dict) -> list[DenseLevel]:
    """A format-5 file's levels with each carrier start added onto the
    parent's core start, carried down by the level factor as ``x * m << e``."""
    levels, above = [], {}
    for entry in obj["levels"]:
        m, e = factors[entry["n"]]
        cells = {}
        for label, parent, *lengths in zip(*(entry[key] for key in FILE_COLUMNS)):
            start, width, inset, core_width = (digits_to_int(t, 1 << 30) for t in lengths)
            lo = start if parent is None else (above[parent].core[0] * m << e) + start
            cells[label] = DenseCell(label, (lo, lo + width), (lo + inset, lo + inset + core_width), parent)
        scale, a, b = (digits_to_int(entry[key], 1 << 30) for key in ("scale", "a", "b"))
        levels.append(DenseLevel(entry["n"], scale, a, b, cells))
        above = cells
    return levels


def dense_audit(scheme, levels: list[DenseLevel], factors: dict) -> list:
    """The audit's witnesses; ``scheme`` gives only the symbolic side."""
    from cantor_shrink.graphcover import canonical_vertices, signed_index, vertex_with_signed_index

    def width(pair):
        return pair[1] - pair[0]

    def encloses(outer, m, e, inner):
        return outer[0] * m << e <= inner[0] and inner[1] <= outer[1] * m << e

    witnesses = []
    above = 1
    for lvl in levels:
        m, e = factors[lvl.n]
        if lvl.scale != above * m << e:
            witnesses.append({"depth": lvl.n, "reason": "scale is not the one its source gives"})
        above = lvl.scale
    for lvl in levels:
        cells = sorted(lvl.cells.values(), key=lambda c: c.carrier[0])
        for c in cells:
            left, right = c.core[0] - c.carrier[0], c.carrier[1] - c.core[1]
            if left != right:
                witnesses.append({"depth": lvl.n, "label": c.label, "reason": "core not concentric"})
            if left <= 0:
                witnesses.append({"depth": lvl.n, "label": c.label, "reason": "core touches carrier"})
        for prev, nxt in zip(cells, cells[1:]):
            if nxt.carrier[0] < prev.carrier[1]:
                witnesses.append({"depth": lvl.n, "label": nxt.label, "reason": "carrier interiors overlap"})
            if nxt.core[0] <= prev.core[1]:
                witnesses.append({"depth": lvl.n, "label": nxt.label, "reason": "cores not separated"})
    if scheme.kind == "odometer":
        spec = scheme.spec
        for lvl in levels:
            n, s_n, s_prev = lvl.n, spec.extended_modulus(lvl.n), spec.extended_modulus(lvl.n - 1)
            if sorted(lvl.cells) != list(range(s_n)):
                witnesses.append({"depth": n, "reason": "labels are not the residues mod s_n"})
                continue
            if lvl.a << n > lvl.scale:
                witnesses.append({"depth": n, "reason": "level scale exceeds 2^-n"})
            step = n * spec.extended_k(n + 1)
            if lvl.b << step * (s_n - 1) != lvl.a:
                witnesses.append({"depth": n, "reason": "stored b does not match its formula"})
            widths = {label: width(c.core) for label, c in lvl.cells.items()}
            ladder = [widths[(s_prev + z) % s_n] for z in range(1, s_n + 1)]
            if any(x <= y for x, y in zip(ladder, ladder[1:])):
                witnesses.append({"depth": n, "reason": "core ladder not strictly decreasing"})
            for i, cell in lvl.cells.items():
                d = widths[i]
                if not lvl.a >= 3 * d >= lvl.b:
                    witnesses.append({"depth": n, "label": i, "reason": "core outside [b/3, a/3]"})
                if n > 3 and 3 * d > width(cell.carrier):
                    witnesses.append({"depth": n, "label": i, "reason": "core above a third of carrier"})
                if i % s_n != s_prev % s_n and widths[(i + 1) % s_n] << step != d:
                    witnesses.append({"depth": n, "label": i, "reason": "successor core ratio off ladder step"})
        for lvl, nxt in zip(levels, levels[1:]):
            m, e = factors[nxt.n]
            for j, cell in nxt.cells.items():
                if cell.parent != j % spec.extended_modulus(lvl.n):
                    witnesses.append({"depth": nxt.n, "label": j, "reason": "parent is not j mod s_n"})
                elif not encloses(lvl.cells[cell.parent].core, m, e, cell.carrier):
                    witnesses.append({"depth": nxt.n, "label": j, "reason": "carrier leaves parent core"})
        return witnesses
    seq = scheme.cover
    for lvl in levels:
        n, s_n = lvl.n, len(seq.graph(lvl.n).vertices)
        if set(lvl.cells) != {signed_index(v) for v in canonical_vertices(seq.levels[n])}:
            witnesses.append({"depth": n, "reason": "labels do not match the level's vertices"})
            continue
        if lvl.a != max(width(c.carrier) for c in lvl.cells.values()):
            witnesses.append({"depth": n, "reason": "level scale is not the widest carrier"})
        if lvl.a << n > lvl.scale:
            witnesses.append({"depth": n, "reason": "level scale exceeds 2^-n"})
        if n > 0 and lvl.b << s_n * s_n != lvl.a:
            witnesses.append({"depth": n, "reason": "stored b does not match its formula"})
        for j, cell in lvl.cells.items():
            d = width(cell.core)
            if d << s_n > lvl.a:
                witnesses.append({"depth": n, "label": j, "reason": "core too wide for its level"})
            if width(cell.carrier) - d <= 2 * d:
                witnesses.append({"depth": n, "label": j, "reason": "core margin thinner than the core"})
    for lvl, nxt in zip(levels, levels[1:]):
        hom = seq.homs[lvl.n]
        m, e = factors[nxt.n]
        for j, cell in nxt.cells.items():
            if cell.parent != signed_index(hom[vertex_with_signed_index(seq.levels[nxt.n], j)]):
                witnesses.append({"depth": nxt.n, "label": j, "reason": "parent is not the covering image"})
                continue
            core = lvl.cells[cell.parent].core
            if width(cell.carrier) * SLOTS_PER_CORE != width(core) * m << e:
                witnesses.append({"depth": nxt.n, "label": j, "reason": "carrier is not a twelfth of the core"})
            if not encloses(core, m, e, cell.carrier):
                witnesses.append({"depth": nxt.n, "label": j, "reason": "carrier leaves parent core"})
    return witnesses


def dense_lrs_report(scheme, levels: list[DenseLevel], depth: int) -> dict:
    """The sibling-pair sweep over endpoints from 0, looking up a child's
    successor cells again for every pair the child is in, as a report's JSON
    form; ``scheme`` gives only the symbolic side.  A pair whose successors
    lie under two parents is excluded on a graph and a witness on an
    odometer, and a sweep that checks no pair fails."""
    skip = exceptional_labels(scheme, depth)
    level = levels[depth + 1 - scheme.min_depth]
    child_map = {label: [] for label in levels[depth - scheme.min_depth].cells}
    for cell in level.cells.values():
        child_map[cell.parent].append(cell)

    def successors(label):
        return [level.cells[j] for j in induced_map_label(scheme, depth + 1, label)]

    margins, witnesses, excluded, checked = [], [], [], 0
    for parent in sorted(child_map):
        for cu, cv in combinations(sorted(child_map[parent], key=lambda c: c.label), 2):
            pair = {"parent": parent, "pair": [cu.label, cv.label]}
            if parent in skip:
                excluded.append({**pair, "reason": "exceptional parent"})
                continue
            if len({c.parent for c in successors(cu.label) + successors(cv.label)}) > 1:
                split = {**pair, "reason": "successors split across parents"}
                (excluded if scheme.kind == "graph" else witnesses).append(split)
                continue
            (u_lo, u_hi), (v_lo, v_hi) = (
                (min(c.carrier[0] for c in successors(x)), max(c.carrier[1] for c in successors(x)))
                for x in (cu.label, cv.label)
            )
            sup = max(v_hi - u_lo, u_hi - v_lo)
            left, right = sorted((cu.core, cv.core))
            inf = right[0] - left[1]
            checked += 1
            if sup < inf:
                margins.append({**pair, "margin": int_to_digits(inf - sup)})
            else:
                witnesses.append({**pair, "sup": int_to_digits(sup), "inf": int_to_digits(inf)})
    out = {"check": "lrs-pairs", "pass": checked > 0 and not witnesses, "witnesses": witnesses, "margins": margins,
           "scale": int_to_digits(level.scale)}
    if excluded:
        out["excluded"] = excluded
    return {**out, "stats": {"depth": depth, "pairs_checked": checked}}


def assert_matches_the_dense_reference(obj: dict, scale_move: tuple | None = None) -> None:
    """The package's audit witnesses, in order, and its pair reports at
    every depth are the dense reference's, for the scheme file ``obj`` with
    level i's scale moved by ``amount`` after the load (``scale_move``)."""
    scheme = scheme_from_json(obj)
    factors = _level_factors(scheme)
    levels = dense_levels(obj, factors)
    if scale_move is not None:
        i, amount = scale_move
        levels[i] = levels[i]._replace(scale=levels[i].scale + amount)
        moved = scheme.levels[i]._replace(scale=scheme.levels[i].scale + Dyadic.term(amount))
        scheme = scheme._replace(levels=[*scheme.levels[:i], moved, *scheme.levels[i + 1:]])
    assert audit_scheme(scheme).witnesses == dense_audit(scheme, levels, factors)
    for depth in range(scheme.min_depth, scheme.max_depth):
        assert verify_lrs_pairs(scheme, depth).to_json() == dense_lrs_report(scheme, levels, depth)


@h.given(
    st.one_of(
        st.tuples(st.just("odometer"), st.lists(st.integers(2, 4), min_size=2, max_size=4), st.integers(2, 5)),
        st.tuples(st.just("graph"), st.sampled_from(["weakly-mixing", "transitive"]), st.integers(1, 2)),
    ),
    st.data(),
)
@h.example(("odometer", [4, 4, 4, 4], 5), None)
@h.example(("graph", "weakly-mixing", 2), None)
@h.example(("graph", "transitive", 2), None)
@h.settings(derandomize=True, deadline=None, max_examples=40)
def test_lrs_report_matches_the_per_pair_sweep(case, data):
    obj = scheme_to_json(_small_scheme(*case))
    if data is not None and data.draw(st.booleans(), label="widen a core"):
        # a child core blown up to its carrier, so that some pairs fail
        entry = obj["levels"][data.draw(st.integers(1, len(obj["levels"]) - 1), label="level")]
        k = data.draw(st.sampled_from(range(len(entry["label"]))), label="cell")
        entry["inset"][k], entry["core_width"][k] = "0", entry["width"][k]
    assert_matches_the_dense_reference(obj)


CORRUPTED = {
    "od248": lambda: build_odometer_scheme(OdometerSpec.from_list([2, 4, 8]), 3),
    "od3612": lambda: build_odometer_scheme(OdometerSpec.from_list([3, 6, 12]), 3),
    "wm2": lambda: build_graph_scheme("weakly-mixing", 2),
    "tr2": lambda: build_graph_scheme("transitive", 2),
}
_CORRUPTED_FILES: dict = {}


@st.composite
def corrupted_files(draw):
    """A scheme file with one field corrupted: one start, width, inset or
    core width moved by ±2^j, one cell given another parent, or one level's
    scale mis-stated."""
    name = draw(st.sampled_from(sorted(CORRUPTED)), label="scheme")
    if name not in _CORRUPTED_FILES:
        _CORRUPTED_FILES[name] = canonical_dumps(scheme_to_json(CORRUPTED[name]()))
    obj = json.loads(_CORRUPTED_FILES[name])
    i = draw(st.integers(0, len(obj["levels"]) - 1), label="level")
    bits = digits_to_int(obj["levels"][i]["scale"], 1 << 30).bit_length()
    amount = draw(st.sampled_from([1, -1]), label="sign") << draw(st.integers(0, bits + 1), label="j")
    kind = draw(st.sampled_from(["move", "parent", "scale"] if i else ["move", "scale"]), label="kind")
    if kind == "scale":
        return obj, (i, amount)
    level = obj["levels"][i]
    k = draw(st.sampled_from(range(len(level["label"]))), label="cell")
    if kind == "parent":
        others = [j for j in obj["levels"][i - 1]["label"] if j != level["parent"][k]]
        level["parent"][k] = draw(st.sampled_from(others), label="parent")
    else:
        column = level[draw(st.sampled_from(FILE_COLUMNS[2:]), label="field")]
        column[k] = int_to_digits(digits_to_int(column[k], 1 << 30) + amount)
    return obj, None


@h.given(corrupted_files())
@h.settings(derandomize=True, deadline=None, max_examples=250)
def test_corrupted_files_give_the_dense_witnesses(case):
    # where a corruption leaves the audit no common parent to measure from,
    # its cells are placed from 0, and give the dense check's witnesses
    obj, scale_move = case
    try:
        scheme_from_json(obj)
    except ValueError as exc:  # a width moved below zero is refused before any check
        assert str(exc).endswith("width < 0")
        return
    assert_matches_the_dense_reference(obj, scale_move)


def _reparented(scheme, depth: int, parents: dict):
    """``scheme`` written and read back with the depth-``depth`` cells of
    ``parents`` given those parents."""
    obj = scheme_to_json(scheme)
    entry = obj["levels"][depth - scheme.min_depth]
    for k, label in enumerate(entry["label"]):
        entry["parent"][k] = parents.get(label, entry["parent"][k])
    return scheme_from_json(obj)


def test_a_sweep_that_checks_no_pair_fails(od248):
    # every depth-2 cell under parent 1, the exceptional label at depth 1:
    # all six pairs are excluded and none is left to check
    bad = _reparented(od248, 2, {label: 1 for label in od248.level(2).cells})
    report = verify_lrs_pairs(bad, 1)
    assert (report.stats["pairs_checked"], len(report.excluded), report.witnesses) == (0, 6, [])
    assert not report.passed
    assert not audit_scheme(bad).passed


def test_odometer_pair_whose_successors_split_is_a_witness(od248):
    # cell 3 under parent 0: the successors of 0, 2 and 3 are 1, 3 and 0,
    # whose parents are 1, 0 and 0, so two of parent 0's pairs split
    bad = _reparented(od248, 2, {3: 0})
    report = verify_lrs_pairs(bad, 1)
    assert report.witnesses == [
        {"parent": 0, "pair": [0, 2], "reason": "successors split across parents"},
        {"parent": 0, "pair": [0, 3], "reason": "successors split across parents"},
    ]
    assert report.stats["pairs_checked"] == 1 and not report.passed
    assert {"depth": 2, "label": 3, "reason": "parent is not j mod s_n"} in audit_scheme(bad).witnesses


def assert_siblings_have_their_successors_under_one_parent(scheme) -> None:
    # the rule that makes an odometer split pair a witness rests on this:
    # siblings u = v (mod s_d) have successors u + 1 = v + 1 (mod s_d)
    for d in range(scheme.min_depth, scheme.max_depth):
        cells = scheme.level(d + 1).cells
        for parent, kids in children_of(scheme, d).items():
            targets = {cells[j].parent for c in kids for j in induced_map_label(scheme, d + 1, c.label)}
            assert len(targets) <= 1, (d, parent, targets)


@h.given(st.lists(st.integers(2, 4), min_size=2, max_size=4), st.integers(2, 6))
@h.example([4, 4, 4, 4], 6)
@h.settings(derandomize=True, deadline=None, max_examples=30)
def test_odometer_siblings_have_their_successors_under_one_parent(tower, depth):
    assert_siblings_have_their_successors_under_one_parent(_small_scheme("odometer", tower, depth))


def test_od9_siblings_have_their_successors_under_one_parent():
    assert_siblings_have_their_successors_under_one_parent(
        build_odometer_scheme(OdometerSpec.from_list([2, 4, 8]), 9))


def test_loaded_scheme_keeps_file_intervals(od248):
    # the core width that puts the core's right end at 1/2
    obj = scheme_to_json(od248)
    cell = od248.level(1).cells[0]
    obj["levels"][0]["core_width"][0] = int_to_digits(int(od248.level(1).scale) // 2 - int(cell.start + cell.inset))
    loaded = scheme_from_json(obj)
    assert loaded.level(1).cells[0].D.hi == Fraction(1, 2)
    assert not audit_scheme(loaded).passed


def test_loaded_offsets_count_from_the_parent_core(od248):
    # one unit more on level-1 cell 1's core inset moves that core, and every
    # descendant of the cell (the odd labels), by 1 / S_1; nothing else moves
    obj = scheme_to_json(od248)
    inset = obj["levels"][0]["inset"]
    inset[1] = int_to_digits(digits_to_int(inset[1], 64) + 1)
    loaded = scheme_from_json(obj)
    for lvl in loaded.levels:
        (scale, cells), (_, built) = absolute_level(loaded, lvl.n), absolute_level(od248, lvl.n)
        shift = scale // int(od248.level(1).scale)
        for label, (carrier, core) in cells.items():
            (want_carrier, want_core), moved = built[label], label % 2 == 1
            assert core == tuple(x + shift * moved for x in want_core)
            assert carrier == tuple(x + shift * (moved and lvl.n > 1) for x in want_carrier)
    assert not audit_scheme(loaded).passed


def test_level_scales_refine_and_factor(od248, wm_scheme):
    # graph scales are 2^p 3^q; the (2, 4, 8) odometer's are 2^p * 3
    for scheme in (od248, wm_scheme):
        scales = [int(lvl.scale) for lvl in scheme.levels]
        for scale, nxt in zip(scales, scales[1:]):
            assert nxt % scale == 0
        for scale in scales:
            rest, q = scale >> (scale & -scale).bit_length() - 1, 0
            while rest % 3 == 0:
                rest, q = rest // 3, q + 1
            assert rest == 1 and (q == 1 if scheme.kind == "odometer" else q >= 1)


def format_4(obj: dict) -> dict:
    """The format-5 scheme file ``obj`` as format 4 wrote it: one object per
    cell, ``{"label", "parent", "A": [start, width], "D": [inset, core
    width]}``, in a level's ``cells`` list."""
    levels = []
    for entry in obj["levels"]:
        level = {key: entry[key] for key in ("n", "scale", "a", "b")}
        level["cells"] = [{"label": label, "parent": parent, "A": [start, width], "D": [inset, core_width]}
                          for label, parent, start, width, inset, core_width
                          in zip(*(entry[key] for key in FILE_COLUMNS))]
        levels.append(level)
    return {**obj, "format": 4, "levels": levels}


def test_scheme_from_json_wants_the_current_format(od248):
    obj = scheme_to_json(od248)
    del obj["format"]
    with pytest.raises(ValueError, match=r"rebuild .*\{\"rule\":\"list\",\"s\":\[2,4,8\]\}"):
        scheme_from_json(obj)
    # a format-2 file, hex endpoints and all, a format-3 file, whose absolute
    # endpoints would read as offsets, and a format-4 file, one object per
    # cell, are told to rebuild before any endpoint is read
    old = format_4(scheme_to_json(od248))
    absolute = [[int_to_digits(x) for x in pair] for pair in absolute_level(od248, 1)[1][0]]
    for version, endpoints in ((2, [["0", "3p40"], ["1p38", "1p39"]]), (3, absolute), (4, None)):
        obj = json.loads(json.dumps(old))
        obj.update(format=version)
        if endpoints is not None:
            obj["levels"][0]["cells"][0]["A"], obj["levels"][0]["cells"][0]["D"] = endpoints
        with pytest.raises(ValueError, match=rf"^field 'format' is {version}, not 5: rebuild the file with "
                                             r"`cantor-shrink build` from its source descriptor "
                                             r"\{\"rule\":\"list\",\"s\":\[2,4,8\]\}$"):
            scheme_from_json(obj)


@pytest.mark.parametrize("offset, field", [("start", "width"), ("inset", "core_width")], ids=["A", "D"])
def test_negative_width_is_refused(od248, offset, field):
    # starts and insets may be negative, widths not: a carrier (A) or core
    # (D) with its ends out of order is refused as bad input, before the audit
    obj = scheme_to_json(od248)
    obj["levels"][1][field][2] = "-3"
    with pytest.raises(ValueError, match=rf"^levels\[1\] label 2: field '{field}': width < 0$"):
        scheme_from_json(obj)
    obj["levels"][1][offset][2], obj["levels"][1][field][2] = "-3", "0"
    assert scheme_from_json(obj).level(2).cells[2]


@pytest.mark.parametrize("fault", ["missing", "not-a-list", "shorter", "longer"])
@pytest.mark.parametrize("key", FILE_COLUMNS)
def test_column_fault_is_refused_before_any_string_of_its_level(od248, key, fault):
    # every string of level 1 is junk, so a fault found after any of them
    # was decoded would be named as that string
    obj = scheme_to_json(od248)
    level = obj["levels"][1]
    level.update(scale="junk", a="junk", b="junk", **{k: ["junk"] * 4 for k in FILE_COLUMNS[2:]})
    if fault == "missing":
        del level[key]
        message = f"file is missing field '{key}'"
    elif fault == "not-a-list":
        level[key] = {"0": level[key][0]}
        message = f"field '{key}' must be a list"
    else:
        level[key] = level[key][:-1] if fault == "shorter" else level[key] + level[key][:1]
        named = "parent" if key == "label" else key  # a label column of another length shows in the next one
        message = f"field '{named}' holds {len(level[named])} entries, not the {len(level['label'])} of 'label'"
    with pytest.raises(ValueError) as exc:
        scheme_from_json(obj)
    assert str(exc.value) == f"levels[1]: {message}"


def test_scheme_from_json_wants_scales_that_refine(od248):
    obj = scheme_to_json(od248)
    obj["levels"][1]["scale"] = int_to_digits(7)
    with pytest.raises(ValueError, match=r"levels\[1\]: field 'scale'"):
        scheme_from_json(obj)


# where a junk string goes in the order a level is decoded (its start,
# width, inset and core_width columns, then a and b), and the field its
# error names
LEVEL_PLACES = {
    "first": (lambda lvl: lvl["start"], 0, "levels[1] label 0: field 'start'"),
    "inset": (lambda lvl: lvl["inset"], 2, "levels[1] label 2: field 'inset'"),
    "middle": (lambda lvl: lvl["core_width"], 1, "levels[1] label 1: field 'core_width'"),
    "last": (lambda lvl: lvl, "b", "levels[1]: field 'b'"),
}


@pytest.mark.parametrize("place", sorted(LEVEL_PLACES))
@pytest.mark.parametrize(
    "text",
    ["3", "+03", "+3 ", "+3-", "+-3", "00", "-0+2", "+2+2", "+3+2", "+3-2", "+5+3+4", "+0-0", "+0+0", "+999999999"],
)
def test_scheme_level_names_the_string_at_fault(od248, text, place):
    # the level is decoded in one pass, and a string it refuses is named with
    # its field and the message one decode of it gives, even with a later
    # fault in the same level
    holder, key, field = LEVEL_PLACES[place]
    obj = scheme_to_json(od248)
    level = obj["levels"][1]
    holder(level)[key] = text
    obj["levels"][2]["start"][0] = "junk"
    if place != "last":
        level["core_width"][-1] = "junk"
    with pytest.raises(ValueError) as alone:
        digits_to_int(text, od248.level(2).scale.bit_length() + 64)
    with pytest.raises(ValueError) as exc:
        scheme_from_json(obj)
    assert str(exc.value) == f"{field}: {alone.value}"


def test_scale_steps_give_the_built_scales(od248, wm_scheme):
    from cantor_shrink.interval_embed import _graph_scale_steps, _odometer_scale_steps

    for scheme, steps in (
        (od248, _odometer_scale_steps(od248.spec, 3)),
        (wm_scheme, _graph_scale_steps(wm_scheme.cover, wm_scheme.max_depth)),
    ):
        scale = 1
        for lvl, (m, e, _) in zip(scheme.levels, steps, strict=True):
            scale = scale * m << e
            assert int(lvl.scale) == scale


def test_scale_the_descriptor_cannot_give_is_refused_before_any_endpoint(od248):
    import tracemalloc

    # every scale, a, b, offset and width near 2^(2^22): a small file that
    # asked the loader for tens of MB before its audit refused it
    obj = scheme_to_json(od248)
    for level in obj["levels"]:
        level.update(scale="+4194300", a="+4194290", b="+4194280")
        for key, text in zip(FILE_COLUMNS[2:], ["+4194200", "+4194250", "+4194210", "+4194240"]):
            level[key] = [text] * len(level["label"])
    text = canonical_dumps(obj)
    assert len(text) < 2000
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^levels\[0\]: field 'scale': '\+4194300' exceeds \d+ bits$"):
            scheme_from_json(json.loads(text))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    # a scale of the right size but another value is refused too
    obj = scheme_to_json(od248)
    obj["levels"][2]["scale"] = int_to_digits(int(od248.level(3).scale) + 1)
    with pytest.raises(ValueError, match=r"^levels\[2\]: field 'scale' is not \+\d+.*, the scale its source gives$"):
        scheme_from_json(obj)


def test_tr4_geometry_is_held_as_clusters_through_write_read_audit_and_pairs():
    import tracemalloc

    # as dense integers over tr4's 834k-bit scale, these four steps peaked at
    # about 280 MB of traced memory; as clusters, at about 2 MB
    scheme = build_graph_scheme("transitive", 4)
    tracemalloc.start()
    try:
        loaded = scheme_from_json(json.loads(canonical_dumps(scheme_to_json(scheme))))
        assert audit_scheme(loaded).passed
        report = verify_lrs_pairs(loaded, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed and report.stats["pairs_checked"] == 927
    assert peak < 8_000_000


def test_claimed_levels_build_no_cover_level_the_file_does_not_hold():
    import tracemalloc

    # wm1 with six junk levels and a descriptor that claims them: a 2 KB
    # file that built the 7-level cover tower (25 MB traced) before its
    # third level was read
    obj = scheme_to_json(build_graph_scheme(build_sequence("weakly-mixing", 1), 1))
    obj["levels"] += [{"n": 0, "scale": "0", "a": "0", "b": "0", **dict.fromkeys(FILE_COLUMNS, [])} for _ in range(6)]
    obj["source"]["levels"] = 7
    text = canonical_dumps(obj)
    assert len(text) < 2500
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^levels\[2\]: field 'n' must be 2$"):
            scheme_from_json(json.loads(text))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_descriptor_asking_for_a_huge_scale_is_refused_from_its_size(od248):
    # s_2 = 2^40 gives the depth-1 core ladder a bottom shift of 2^39: the
    # loader refuses the level from the predicted bytes of its two cells
    # over that scale, without building it
    obj = scheme_to_json(od248)
    obj["source"]["s"] = [2, 1 << 40]
    predicted = (4 * 2 + 3) * ((1 << 36) + 1)  # 12 * 2^(2^39) has 2^39 + 4 bits
    with pytest.raises(ValueError, match=rf"^levels\[0\]: field 'label': predicted {predicted} bytes of integers, "
                                         rf"past the bound of {MEMORY_BOUND}$"):
        scheme_from_json(obj)


def test_written_source_is_a_copy_of_the_schemes(od248):
    # editing the written object, in place and below its top level, leaves
    # the scheme's descriptor and what it writes and reloads as they were
    before = canonical_dumps(scheme_to_json(od248))
    obj = scheme_to_json(od248)
    obj["source"]["s"].append(16)
    obj["source"]["rule"] = "edited"
    assert od248.source == {"rule": "list", "s": [2, 4, 8]}
    again = scheme_from_json(scheme_to_json(od248))
    assert again.source == od248.source
    assert canonical_dumps(scheme_to_json(again)) == canonical_dumps(scheme_to_json(od248)) == before


def test_loaded_source_is_a_copy_of_the_objects(od248):
    # editing the object after the load, in place and below its top level,
    # leaves the loaded scheme's descriptor and what it writes as they were
    before = canonical_dumps(scheme_to_json(od248))
    obj = scheme_to_json(od248)
    loaded = scheme_from_json(obj)
    obj["source"]["s"].append(16)
    obj["source"]["rule"] = "edited"
    assert loaded.source == {"rule": "list", "s": [2, 4, 8]}
    assert loaded.spec.values == (2, 4, 8)
    assert canonical_dumps(scheme_to_json(loaded)) == before


def restated_bytes(steps, cells) -> list[int]:
    """The running totals of predicted bytes of the levels that the (m, e, …)
    scale steps give, with ``cells`` cells each, restated here from the
    rule: 4 integers per cell and 3 more, each of its scale's bytes."""
    totals, total, scale = [], 0, 1
    for (m, e, *_), count in zip(steps, cells, strict=True):
        scale = scale * m << e
        total += (4 * count + 3) * -(-scale.bit_length() // 8)
        totals.append(total)
    return totals


def test_predicted_bytes_admit_wm4_and_od13_and_refuse_tr5_and_od14():
    from cantor_shrink.interval_embed import _graph_scale_steps, _odometer_scale_steps

    # from the scale steps alone, without building a cell: od13 and wm4
    # stay under the bound, od14 and tr5 (and wm5) pass it
    spec = OdometerSpec.from_list([2, 4, 8])
    od = restated_bytes(_odometer_scale_steps(spec, 14), [spec.extended_modulus(n) for n in range(1, 15)])
    graph = {}
    for variant in ("weakly-mixing", "transitive"):
        steps = list(_graph_scale_steps(build_sequence(variant, 5), 5))
        graph[variant] = restated_bytes(steps, [len(exponents) for _, _, exponents in steps])
    assert od[12] <= MEMORY_BOUND < od[13]
    assert graph["weakly-mixing"][4] <= MEMORY_BOUND < graph["weakly-mixing"][5]
    assert graph["transitive"][4] <= MEMORY_BOUND < graph["transitive"][5]
    # each builder refuses at the first such level, so it admitted the
    # levels above, and names the total restated here
    for build, total in (
        (lambda: build_odometer_scheme(spec, 14), od[13]),
        (lambda: build_graph_scheme("transitive", 5), graph["transitive"][5]),
        (lambda: build_graph_scheme("weakly-mixing", 12), graph["weakly-mixing"][5]),
    ):
        depth = 14 if total == od[13] else 5
        with pytest.raises(ValueError, match=rf"^depth {depth}: predicted {total} bytes of integers, "
                                             rf"past the bound of {MEMORY_BOUND}$"):
            build()


def test_built_and_loaded_schemes_predict_the_bytes_their_steps_give(od248, wm_scheme):
    from cantor_shrink.interval_embed import _graph_scale_steps, _odometer_scale_steps

    for scheme, steps in (
        (od248, _odometer_scale_steps(od248.spec, 3)),
        (wm_scheme, _graph_scale_steps(wm_scheme.cover, wm_scheme.max_depth)),
    ):
        expected = restated_bytes(steps, [len(lvl.cells) for lvl in scheme.levels])[-1]
        assert scheme_bytes(scheme) == expected
        assert scheme_bytes(scheme_from_json(json.loads(canonical_dumps(scheme_to_json(scheme))))) == expected


def test_scheme_file_past_the_bound_is_refused_from_its_cells_count(od248):
    import tracemalloc

    # s_2 = 2^30 gives level 1 a scale of 2^29 + 4 bits: its 2 cells predict
    # 0.7 GB, but columns of 400 entries predict 108 GB, and the file is
    # refused from the length of ``label``, before any entry of it is read
    obj = scheme_to_json(od248)
    obj["source"]["s"] = [2, 1 << 30]
    obj["levels"][0].update(dict.fromkeys(FILE_COLUMNS, ["not a cell"] * 400))
    text = canonical_dumps(obj)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=rf"^levels\[0\]: field 'label': predicted \d+ bytes of integers, "
                                             rf"past the bound of {MEMORY_BOUND}$"):
            scheme_from_json(json.loads(text))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


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
