"""Nested-interval embeddings of odometers and graph covers on the real line.

Every depth-``n`` cylinder of the symbolic system receives a closed carrier
interval ``A`` and a concentric core ``D`` strictly inside it, with exact
rational endpoints.  The induced map sends the core of a cell into the core of
its successor cell, and the geometry is tuned so that successor cores shrink
fast enough for the derivative-ratio and locally-radially-shrinking
certificates to close at every finite depth, away from a single exceptional
cell per level.

Two builders are provided: :func:`build_odometer_scheme` for adding machines
and :func:`build_graph_scheme` for inverse limits of graph covers.  Both feed
the same verification battery (:func:`verify_derivative_ratios`,
:func:`verify_lrs_pairs`, :func:`audit_scheme`) and the same canonical JSON
serialization, so a scheme written to disk can be re-audited verbatim.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from cantor_shrink.exact import (
    ClosedInterval,
    approx_float,
    gap,
    hull,
    interval_from_json,
    interval_to_json,
    middle_of_length,
    pow2,
    scalar_from_json,
    scalar_to_json,
    split_equal,
    sup_distance,
)
from cantor_shrink.graphcover import (
    CoverSequence,
    build_sequence,
    canonical_vertices,
    preimages,
    signed_index,
    vertex_with_signed_index,
)
from cantor_shrink.odometer import OdometerSpec


SLOTS_PER_CORE = 12


@dataclass(frozen=True)
class Cell:
    """One cylinder at one depth: carrier interval A, concentric core D.

    ``parent`` is the label of the depth-(n-1) cell whose core contains A,
    or None on the coarsest level.
    """

    label: int
    A: ClosedInterval
    D: ClosedInterval
    parent: int | None


@dataclass
class SchemeLevel:
    """All cells of one depth, keyed by label, plus the level scales a, b."""

    n: int
    a: Fraction
    b: Fraction
    cells: dict[int, Cell]

    @property
    def labels(self) -> list[int]:
        return list(self.cells)

    def cell(self, label: int) -> Cell:
        if label not in self.cells:
            raise KeyError(f"no cell labelled {label} at depth {self.n}")
        return self.cells[label]


@dataclass
class EmbeddingScheme:
    """A finite tower of interval levels together with its symbolic source.

    ``kind`` is "odometer" or "graph"; ``source`` is the descriptor needed to
    rebuild the symbolic side (modulus tower, or cover variant and height).
    ``spec``/``cover`` hold the live symbolic objects when available.
    """

    kind: str
    source: dict
    levels: list[SchemeLevel]
    spec: OdometerSpec | None = None
    cover: CoverSequence | None = None
    _by_depth: dict = field(default_factory=dict, repr=False, compare=False)

    def level(self, n: int) -> SchemeLevel:
        if not self._by_depth:
            self._by_depth.update({lvl.n: lvl for lvl in self.levels})
        if n not in self._by_depth:
            raise ValueError(
                f"depth {n} not built (have {self.min_depth}..{self.max_depth}); "
                "rebuild the scheme with a larger depth"
            )
        return self._by_depth[n]

    @property
    def min_depth(self) -> int:
        return self.levels[0].n

    @property
    def max_depth(self) -> int:
        return self.levels[-1].n


# ---------------------------------------------------------------------------
# odometer scheme
# ---------------------------------------------------------------------------


def _odometer_core_length(spec: OdometerSpec, n: int, label: int, a_n: Fraction) -> Fraction:
    """Core diameter l_n(label): a geometric ladder read off in cyclic order.

    Labels are ranked by how far they sit after s_{n-1} in the cyclic order of
    Z/s_n; each step down the ladder multiplies the length by 2^(-n*k_{n+1}).
    The ladder starts at a_n/3 and bottoms out at b_n/3.
    """
    s_n = spec.extended_modulus(n)
    s_prev = spec.extended_modulus(n - 1)
    k_next = spec.extended_k(n + 1)
    rank = (label - s_prev - 1) % s_n
    return pow2(-n * k_next * rank) * a_n / 3


def build_odometer_scheme(spec: OdometerSpec, depth: int) -> EmbeddingScheme:
    """Embed the odometer with modulus tower s_1 | s_2 | ... up to ``depth``.

    Level 1 places s_1 unit-spaced carriers [i, i + 1/2]; each deeper level
    splits every core into k_{n+1} equal carriers, one per congruence class
    refinement, and shrinks a concentric core into each carrier.  Labels at
    depth n are residues mod s_n, and A_j at depth n+1 sits inside A_i at
    depth n exactly when i = j mod s_n.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    a = Fraction(1, 2)
    b = pow2(-spec.extended_k(2) * (spec.extended_modulus(1) - 1)) * a
    cells: dict[int, Cell] = {}
    for i in range(spec.extended_modulus(1)):
        A = ClosedInterval(Fraction(i), Fraction(i) + a)
        cells[i] = Cell(i, A, middle_of_length(A, _odometer_core_length(spec, 1, i, a)), None)
    levels = [SchemeLevel(1, a, b, cells)]

    for n in range(1, depth):
        prev = levels[-1]
        s_n = spec.extended_modulus(n)
        k_next = spec.extended_k(n + 1)
        a_next = pow2(-n) * prev.b / k_next
        b_next = pow2(-(n + 1) * spec.extended_k(n + 2) * (spec.extended_modulus(n + 1) - 1)) * a_next
        children: dict[int, Cell] = {}
        for i, cell in prev.cells.items():
            for m, part in enumerate(split_equal(cell.D, k_next)):
                j = i + m * s_n
                core = middle_of_length(part, _odometer_core_length(spec, n + 1, j, a_next))
                children[j] = Cell(j, part, core, i)
        levels.append(SchemeLevel(n + 1, a_next, b_next, {j: children[j] for j in sorted(children)}))

    return EmbeddingScheme("odometer", spec.descriptor(), levels, spec=spec)


# ---------------------------------------------------------------------------
# graph-cover scheme
# ---------------------------------------------------------------------------


def _graph_core_length(seq: CoverSequence, n: int, vertex, a_prev: Fraction) -> Fraction:
    """Core diameter for a level-n vertex; ``a_prev`` is the level-(n-1) scale.

    The exponent has three regimes: the base vertex, early cycle positions up
    to the previous level's first-cycle length, and the remaining positions.
    The regime boundary is where successor cores expand instead of shrink,
    which marks the exceptional vertices.
    """
    s_n = len(seq.graph(n).vertices)
    boundary = seq.levels[n - 1].cycle_lengths[0] if n >= 1 else 1
    _, cycle, i = vertex
    if cycle == 0:
        exponent = 2 * s_n * s_n
    elif i <= boundary:
        exponent = 2 * s_n * s_n + i * s_n
    else:
        exponent = s_n * s_n + i * s_n
    return pow2(-exponent) * a_prev / 3


def build_graph_scheme(seq: CoverSequence, depth: int) -> EmbeddingScheme:
    """Embed the inverse limit of ``seq`` down to level ``depth``.

    Level 0 places one unit-spaced carrier [j, j + 1/2] per vertex at its
    signed index j.  Each deeper level cuts every core into twelve equal
    slots and assigns the leftmost slots to the covering map's preimages in
    canonical order (base, cycle-1 interiors, cycle-2 interiors); unused
    slots stay empty.  A vertex's carrier therefore sits inside the core of
    the cell its covering image labels.
    """
    if depth < 0:
        raise ValueError("depth must be at least 0")
    if depth > seq.top:
        raise ValueError(f"depth {depth} exceeds the cover tower height {seq.top}")

    a = Fraction(1, 2)
    cells: dict[int, Cell] = {}
    for v in canonical_vertices(seq.levels[0]):
        j = signed_index(v)
        A = ClosedInterval(Fraction(j), Fraction(j) + a)
        cells[j] = Cell(j, A, middle_of_length(A, _graph_core_length(seq, 0, v, a)), None)
    s_0 = len(seq.graph(0).vertices)
    levels = [SchemeLevel(0, a, pow2(-2 * s_0 * s_0) * a / 3, {j: cells[j] for j in sorted(cells)})]

    for n in range(depth):
        prev = levels[-1]
        children: dict[int, Cell] = {}
        for v in canonical_vertices(seq.levels[n]):
            i = signed_index(v)
            fibre = preimages(seq, n, v)
            if len(fibre) > SLOTS_PER_CORE:
                raise ValueError(
                    f"vertex {v} has {len(fibre)} preimages; only "
                    f"{SLOTS_PER_CORE} slots per core are available"
                )
            slots = split_equal(prev.cells[i].D, SLOTS_PER_CORE)
            for t, w in enumerate(fibre):
                j = signed_index(w)
                core = middle_of_length(slots[t], _graph_core_length(seq, n + 1, w, prev.a))
                children[j] = Cell(j, slots[t], core, i)
        a_next = max(c.A.diameter for c in children.values())
        s_next = len(seq.graph(n + 1).vertices)
        b_next = pow2(-s_next * s_next) * a_next
        levels.append(SchemeLevel(n + 1, a_next, b_next, {j: children[j] for j in sorted(children)}))

    return EmbeddingScheme("graph", seq.descriptor(), levels, cover=seq)


# ---------------------------------------------------------------------------
# labels, successors, exceptional cells
# ---------------------------------------------------------------------------


def _modulus_at(scheme: EmbeddingScheme, depth: int) -> int:
    if scheme.kind == "odometer":
        return scheme.spec.extended_modulus(depth)
    return len(scheme.cover.graph(depth).vertices)


def _vertex_at(scheme: EmbeddingScheme, depth: int, label: int):
    v = vertex_with_signed_index(scheme.cover.levels[depth], label)
    if v is None:
        raise KeyError(f"no vertex with signed index {label} at level {depth}")
    return v


def induced_map_label(scheme: EmbeddingScheme, depth: int, label: int):
    """Where the induced dynamics sends a depth-``depth`` cell.

    Odometer cells step to ``label + 1 (mod s_depth)`` and an int is
    returned; graph cells may branch, so the sorted tuple of successor labels
    is returned.
    """
    level = scheme.level(depth)
    level.cell(label)
    if scheme.kind == "odometer":
        return (label + 1) % scheme.spec.extended_modulus(depth)
    succ = scheme.cover.graph(depth).out_neighbors(_vertex_at(scheme, depth, label))
    return tuple(sorted(signed_index(w) for w in succ))


def _image_labels(scheme: EmbeddingScheme, depth: int, label: int) -> list[int]:
    image = induced_map_label(scheme, depth, label)
    return [image] if isinstance(image, int) else list(image)


def exceptional_labels(scheme: EmbeddingScheme, depth: int) -> set[int]:
    """Labels whose successor core is larger than their own core.

    Odometer levels have exactly one such label, s_{depth-1}; graph levels
    have one per cycle, at the regime boundary of the core-length ladder.
    These cells are excluded from the derivative-ratio maximum and their
    child pairs are excluded from the radial-shrinking certificate.
    """
    if scheme.kind == "odometer":
        s_n = scheme.spec.extended_modulus(depth)
        return {scheme.spec.extended_modulus(depth - 1) % s_n}
    boundary = scheme.cover.levels[depth - 1].cycle_lengths[0] if depth >= 1 else 1
    present = set(scheme.level(depth).cells)
    return {j for j in (boundary, -boundary) if j in present}


def children_of(scheme: EmbeddingScheme, depth: int) -> dict[int, list[Cell]]:
    """Depth-``depth`` labels mapped to their depth-(depth+1) child cells."""
    out: dict[int, list[Cell]] = {label: [] for label in scheme.level(depth).cells}
    for cell in scheme.level(depth + 1).cells.values():
        out[cell.parent].append(cell)
    return out


# ---------------------------------------------------------------------------
# verification reports
# ---------------------------------------------------------------------------


@dataclass
class VerifyReport:
    """Outcome of one certificate: pass/fail, margins, witnesses, exclusions."""

    check: str
    passed: bool
    witnesses: list
    margins: list = field(default_factory=list)
    excluded: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {
            "check": self.check,
            "pass": self.passed,
            "witnesses": self.witnesses,
            "margins": self.margins,
        }
        if self.excluded:
            out["excluded"] = self.excluded
        if self.stats:
            out["stats"] = self.stats
        return out


def derivative_ratio_bound(scheme: EmbeddingScheme, depth: int) -> Fraction:
    """Computed derivative ratio at ``depth``: worst image-core stretch.

    For every non-exceptional parent, take the widest core among its image
    labels at the same depth over the narrowest child carrier one level
    down; return the maximum.  Requires depth+1 to be built.
    """
    child_map = children_of(scheme, depth)
    level = scheme.level(depth)
    skip = exceptional_labels(scheme, depth)
    best: Fraction | None = None
    for label, cell in level.cells.items():
        if label in skip or not child_map[label]:
            continue
        image = max(level.cells[m].D.diameter for m in _image_labels(scheme, depth, label))
        ratio = image / min(c.A.diameter for c in child_map[label])
        if best is None or ratio > best:
            best = ratio
    if best is None:
        raise ValueError(f"no non-exceptional parents with children at depth {depth}")
    return best


def closed_form_ratio_bound(scheme: EmbeddingScheme, depth: int) -> Fraction:
    """A priori bound the computed ratio must stay under (slack factor 3)."""
    if scheme.kind == "odometer":
        k_next = scheme.spec.extended_k(depth + 1)
        return 3 * k_next * pow2(-depth * k_next)
    return 36 * pow2(-_modulus_at(scheme, depth))


def _ratio_depths(scheme: EmbeddingScheme) -> list[int]:
    """Depths whose child level is built, so that a ratio is defined there.

    Raises:
        ValueError: if there is none, so that no ratio check passes vacuously.
    """
    if len(scheme.levels) < 2:
        raise ValueError(
            f"scheme holds levels {scheme.min_depth}..{scheme.max_depth}; "
            "no ratio depth is checkable — rebuild deeper"
        )
    return [lvl.n for lvl in scheme.levels[:-1]]


def verify_derivative_ratios(scheme: EmbeddingScheme) -> VerifyReport:
    """Certify computed ratio <= closed-form bound, strictly decreasing in depth."""
    margins = []
    witnesses = []
    depths = _ratio_depths(scheme)
    previous: Fraction | None = None
    for d in depths:
        computed = derivative_ratio_bound(scheme, d)
        bound = closed_form_ratio_bound(scheme, d)
        entry = {
            "depth": d,
            "computed": scalar_to_json(computed),
            "bound": scalar_to_json(bound),
        }
        if computed > bound:
            witnesses.append({**entry, "reason": "exceeds bound"})
        elif previous is not None and computed >= previous:
            witnesses.append({**entry, "reason": "not strictly decreasing"})
        else:
            margins.append(entry)
        previous = computed
    return VerifyReport(
        check="derivative-ratios",
        passed=not witnesses,
        witnesses=witnesses,
        margins=margins,
        stats={"depths": depths},
    )


def _image_parent_labels(scheme: EmbeddingScheme, depth: int, label: int) -> set[int]:
    """Parents (one level up) of the successor cells of a depth-``depth`` cell."""
    level = scheme.level(depth)
    return {level.cells[m].parent for m in _image_labels(scheme, depth, label)}


def verify_lrs_pairs(scheme: EmbeddingScheme, depth: int) -> VerifyReport:
    """Locally-radially-shrinking certificate over sibling pairs at ``depth``.

    For every pair of distinct depth-(depth+1) cells under a common
    depth-``depth`` parent, compare the supremum distance of their image
    carrier hulls against the gap between their cores, and demand a strictly
    positive margin.  Pairs under an exceptional parent, and graph pairs
    whose successors straddle two parents, are excluded and reported rather
    than failed: the construction only promises shrinking away from them.
    """
    child_map = children_of(scheme, depth)
    skip = exceptional_labels(scheme, depth)
    margins = []
    witnesses = []
    excluded = []
    checked = 0
    for parent in sorted(child_map):
        kids = sorted(child_map[parent], key=lambda c: c.label)
        for cu, cv in combinations(kids, 2):
            pair = {"parent": parent, "pair": [cu.label, cv.label]}
            if parent in skip:
                excluded.append({**pair, "reason": "exceptional parent"})
                continue
            if scheme.kind == "graph":
                targets = _image_parent_labels(scheme, depth + 1, cu.label) | _image_parent_labels(
                    scheme, depth + 1, cv.label
                )
                if len(targets) > 1:
                    excluded.append({**pair, "reason": "successors split across parents"})
                    continue
            child_level = scheme.level(depth + 1)
            sup = sup_distance(
                hull(child_level.cells[m].A for m in _image_labels(scheme, depth + 1, cu.label)),
                hull(child_level.cells[m].A for m in _image_labels(scheme, depth + 1, cv.label)),
            )
            inf = gap(cu.D, cv.D)
            checked += 1
            if sup < inf:
                margins.append({**pair, "margin": scalar_to_json(inf - sup)})
            else:
                witnesses.append(
                    {**pair, "sup": scalar_to_json(sup), "inf": scalar_to_json(inf)}
                )
    return VerifyReport(
        check="lrs-pairs",
        passed=not witnesses,
        witnesses=witnesses,
        margins=margins,
        excluded=excluded,
        stats={"depth": depth, "pairs_checked": checked},
    )


# ---------------------------------------------------------------------------
# structural audit
# ---------------------------------------------------------------------------


def _audit_level_geometry(lvl: SchemeLevel, witnesses: list) -> None:
    cells = sorted(lvl.cells.values(), key=lambda c: c.A.lo)
    for c in cells:
        left = c.D.lo - c.A.lo
        right = c.A.hi - c.D.hi
        if left != right:
            witnesses.append({"depth": lvl.n, "label": c.label, "reason": "core not concentric"})
        if left <= 0:
            witnesses.append({"depth": lvl.n, "label": c.label, "reason": "core touches carrier"})
    for prev, nxt in zip(cells, cells[1:]):
        if nxt.A.lo < prev.A.hi:
            witnesses.append(
                {"depth": lvl.n, "label": nxt.label, "reason": "carrier interiors overlap"}
            )
        if nxt.D.lo <= prev.D.hi:
            witnesses.append({"depth": lvl.n, "label": nxt.label, "reason": "cores not separated"})


def _audit_odometer(scheme: EmbeddingScheme, witnesses: list) -> None:
    spec = scheme.spec
    for lvl in scheme.levels:
        n = lvl.n
        s_n = spec.extended_modulus(n)
        s_prev = spec.extended_modulus(n - 1)
        if sorted(lvl.cells) != list(range(s_n)):
            witnesses.append({"depth": n, "reason": "labels are not the residues mod s_n"})
            continue
        if lvl.a > pow2(-n):
            witnesses.append({"depth": n, "reason": "level scale exceeds 2^-n"})
        if lvl.b != pow2(-n * spec.extended_k(n + 1) * (s_n - 1)) * lvl.a:
            witnesses.append({"depth": n, "reason": "stored b does not match its formula"})
        ladder = [lvl.cells[(s_prev + z) % s_n].D.diameter for z in range(1, s_n + 1)]
        if any(x <= y for x, y in zip(ladder, ladder[1:])):
            witnesses.append({"depth": n, "reason": "core ladder not strictly decreasing"})
        step = pow2(-n * spec.extended_k(n + 1))
        for i, cell in lvl.cells.items():
            d = cell.D.diameter
            if not lvl.a >= 3 * d >= lvl.b:
                witnesses.append({"depth": n, "label": i, "reason": "core outside [b/3, a/3]"})
            if n > 3 and 3 * d > cell.A.diameter:
                witnesses.append({"depth": n, "label": i, "reason": "core above a third of carrier"})
            if i % s_n != s_prev % s_n:
                succ = lvl.cells[(i + 1) % s_n]
                if succ.D.diameter != step * d:
                    witnesses.append(
                        {"depth": n, "label": i, "reason": "successor core ratio off ladder step"}
                    )
    for lvl, nxt in zip(scheme.levels, scheme.levels[1:]):
        s_n = spec.extended_modulus(lvl.n)
        for j, cell in nxt.cells.items():
            if cell.parent != j % s_n:
                witnesses.append({"depth": nxt.n, "label": j, "reason": "parent is not j mod s_n"})
            elif not lvl.cells[cell.parent].D.encloses(cell.A):
                witnesses.append(
                    {"depth": nxt.n, "label": j, "reason": "carrier leaves parent core"}
                )


def _audit_graph(scheme: EmbeddingScheme, witnesses: list) -> None:
    seq = scheme.cover
    for lvl in scheme.levels:
        n = lvl.n
        s_n = len(seq.graph(n).vertices)
        expected = {signed_index(v) for v in canonical_vertices(seq.levels[n])}
        if set(lvl.cells) != expected:
            witnesses.append({"depth": n, "reason": "labels do not match the level's vertices"})
            continue
        if lvl.a != max(c.A.diameter for c in lvl.cells.values()):
            witnesses.append({"depth": n, "reason": "level scale is not the widest carrier"})
        if lvl.a > pow2(-n):
            witnesses.append({"depth": n, "reason": "level scale exceeds 2^-n"})
        if n > 0 and lvl.b != pow2(-s_n * s_n) * lvl.a:
            witnesses.append({"depth": n, "reason": "stored b does not match its formula"})
        for j, cell in lvl.cells.items():
            d = cell.D.diameter
            if d > pow2(-s_n) * lvl.a:
                witnesses.append({"depth": n, "label": j, "reason": "core too wide for its level"})
            if (cell.A.diameter - d) / 2 <= d:
                witnesses.append(
                    {"depth": n, "label": j, "reason": "core margin thinner than the core"}
                )
    for lvl, nxt in zip(scheme.levels, scheme.levels[1:]):
        hom = seq.homs[lvl.n]
        for j, cell in nxt.cells.items():
            v = vertex_with_signed_index(seq.levels[nxt.n], j)
            if cell.parent != signed_index(hom[v]):
                witnesses.append(
                    {"depth": nxt.n, "label": j, "reason": "parent is not the covering image"}
                )
                continue
            parent = lvl.cells[cell.parent]
            if cell.A.diameter * SLOTS_PER_CORE != parent.D.diameter:
                witnesses.append(
                    {"depth": nxt.n, "label": j, "reason": "carrier is not a twelfth of the core"}
                )
            if not parent.D.encloses(cell.A):
                witnesses.append(
                    {"depth": nxt.n, "label": j, "reason": "carrier leaves parent core"}
                )


def audit_scheme(scheme: EmbeddingScheme) -> VerifyReport:
    """Re-check every structural invariant of a built (or loaded) scheme.

    Covers concentricity, disjointness, nesting, label bookkeeping, the level
    scales a and b, and the per-kind core-diameter ladders.  Runs on the
    intervals exactly as stored, so a corrupted file fails here even though
    its source descriptor is intact.
    """
    witnesses: list = []
    for lvl in scheme.levels:
        _audit_level_geometry(lvl, witnesses)
    if scheme.kind == "odometer":
        _audit_odometer(scheme, witnesses)
    else:
        _audit_graph(scheme, witnesses)
    stats = {
        "kind": scheme.kind,
        "depths": [lvl.n for lvl in scheme.levels],
        "cells": sum(len(lvl.cells) for lvl in scheme.levels),
    }
    return VerifyReport("audit", not witnesses, witnesses, stats=stats)


# ---------------------------------------------------------------------------
# serialization and export
# ---------------------------------------------------------------------------


def scheme_to_json(scheme: EmbeddingScheme) -> dict:
    return {
        "kind": scheme.kind,
        "source": scheme.source,
        "levels": [
            {
                "n": lvl.n,
                "a": scalar_to_json(lvl.a),
                "b": scalar_to_json(lvl.b),
                "cells": [
                    {
                        "label": c.label,
                        "A": interval_to_json(c.A),
                        "D": interval_to_json(c.D),
                        "parent": c.parent,
                    }
                    for c in lvl.cells.values()
                ],
            }
            for lvl in scheme.levels
        ],
    }


def scheme_from_json(obj: dict) -> EmbeddingScheme:
    """Rebuild a scheme from its JSON form, intervals taken verbatim.

    The symbolic source is reconstructed from the descriptor so successor
    structure is available, but no interval is recomputed: verification then
    applies to exactly what the file says.  Labels must be distinct integers
    within a level, and each parent must be a label of the level above (null
    on the first level).

    Raises:
        ValueError: naming the field, when the levels, a label, a parent or a
            scalar does not fit the schema.
    """
    kind = obj["kind"]
    if kind not in ("odometer", "graph"):
        raise ValueError(f"unknown scheme kind {kind!r}")
    if not isinstance(obj["levels"], list) or not obj["levels"]:
        raise ValueError("field 'levels' must be a non-empty list")
    levels = []
    parents: set = {None}
    for i, entry in enumerate(obj["levels"]):
        cells = {}
        for c in entry["cells"]:
            label, parent = c["label"], c["parent"]
            if type(label) is not int or label in cells:
                raise ValueError(f"levels[{i}]: field 'label' {label!r} is not a distinct integer")
            if type(parent) not in (int, type(None)) or parent not in parents:
                raise ValueError(
                    f"levels[{i}] label {label}: field 'parent' {parent!r} is not "
                    + ("null on the first level" if i == 0 else "a label of the level above")
                )
            cells[label] = Cell(label, interval_from_json(c["A"]), interval_from_json(c["D"]), parent)
        levels.append(
            SchemeLevel(entry["n"], scalar_from_json(entry["a"]), scalar_from_json(entry["b"]), cells)
        )
        parents = set(cells)
    if kind == "odometer":
        return EmbeddingScheme(kind, obj["source"], levels, spec=OdometerSpec.from_descriptor(obj["source"]))
    cover = build_sequence(obj["source"]["variant"], obj["source"]["levels"])
    return EmbeddingScheme(kind, obj["source"], levels, cover=cover)


def ratio_csv(scheme: EmbeddingScheme) -> str:
    """CSV table of computed ratios per depth with exact numerator/denominator."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["depth", "max_ratio_num", "max_ratio_den", "bound", "float_approx"])
    for d in _ratio_depths(scheme):
        computed = derivative_ratio_bound(scheme, d)
        bound = closed_form_ratio_bound(scheme, d)
        writer.writerow(
            [
                d,
                computed.numerator,
                computed.denominator,
                repr(approx_float(bound)),
                repr(approx_float(computed)),
            ]
        )
    return buf.getvalue()


def render_svg(scheme: EmbeddingScheme, width: int = 960, row_height: int = 56) -> str:
    """Approximate picture of the scheme: carriers outlined, cores filled.

    Intended for eyeballing the nesting only; endpoints are rounded to float
    and widths are clamped to stay visible, so nothing here is exact.
    """
    pad = 20.0
    lo = min(approx_float(c.A.lo) for c in scheme.levels[0].cells.values())
    hi = max(approx_float(c.A.hi) for c in scheme.levels[0].cells.values())
    span = max(hi - lo, 1e-9)
    inner = width - 2 * pad

    def x(value) -> float:
        return pad + (approx_float(value) - lo) / span * inner

    height = row_height * len(scheme.levels) + 2 * pad
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height:.0f}" '
        f'viewBox="0 0 {width} {height:.0f}">',
        f'<title>{scheme.kind} scheme (approximate)</title>',
    ]
    for row, lvl in enumerate(scheme.levels):
        y = pad + row * row_height
        parts.append(
            f'<text x="4" y="{y + 14:.1f}" font-size="11" font-family="monospace">'
            f"n={lvl.n}</text>"
        )
        for c in sorted(lvl.cells.values(), key=lambda c: c.A.lo):
            ax, aw = x(c.A.lo), max(x(c.A.hi) - x(c.A.lo), 0.7)
            dx, dw = x(c.D.lo), max(x(c.D.hi) - x(c.D.lo), 0.7)
            parts.append(
                f'<rect x="{ax:.2f}" y="{y + 6:.1f}" width="{aw:.2f}" height="18" '
                'fill="none" stroke="#4466aa" stroke-width="0.8"/>'
            )
            parts.append(
                f'<rect x="{dx:.2f}" y="{y + 26:.1f}" width="{dw:.2f}" height="10" '
                'fill="#cc3333"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
