"""Nested-interval embeddings of odometers and graph covers on the real line.

Every depth-``n`` cylinder of the symbolic system receives a closed carrier
interval ``A`` and a concentric core ``D`` strictly inside it, with exact
rational endpoints.  The induced map sends the core of a cell into the core of
its successor cell, and the geometry is tuned so that successor cores shrink
fast enough for the derivative-ratio and locally-radially-shrinking
certificates to close at every finite depth, away from a single exceptional
cell per level.

Each level's lengths are integers over one scale S_n = M 2^P, with M = 12
times the small level factors m (S_n = S_{n-1} m 2^e: k_{n+1} 2^(n + E_{n+1})
for the odometer, 3 * 2^(e + 1) for graph covers), and every integer is an
:class:`~cantor_shrink.exact.Dyadic`: a few clusters c 2^l, never a dense
integer the size of the scale.  A cell holds its carrier and its core as
format 5 writes them: the carrier's start from its parent's core start (from
0 on the first level), the carrier's width, the core's start from the
carrier's start, and the core's width.  A format-5 level writes each of these
lengths as one list over its cells (:data:`COLUMNS`), so a load only parses
and a write only concatenates each value's digits.

No certificate forms an absolute position, because each compares lengths
inside one parent: sibling pairs share their parent, the images of an
odometer pair share the parent label + 1, and a graph pair whose successors
split across parents is excluded.  The audit checks disjointness parent by
parent (:func:`_audit_geometry`).  Where a corrupted scheme leaves no
common parent to measure from, that one check places the cells absolutely
(:func:`_absolute_starts`), and so does :func:`absolute_level` for the
readers that build finite systems or the picture at desk depths.
``Cell.A``/``Cell.D`` still give a cell's intervals in fractions, but no
module of the package reads them: they are kept because the benchmark's
largest-denominator count (``perfbench`` ``max_den_bits``) does, and can go
once it reads each level's scale instead.

Two builders are provided: :func:`build_odometer_scheme` for adding machines
and :func:`build_graph_scheme` for inverse limits of graph covers.  Both feed
the same verification battery (:func:`verify_derivative_ratios`,
:func:`verify_lrs_pairs`, :func:`audit_scheme`) and the same canonical JSON
serialization, so a scheme written to disk can be re-audited verbatim.  A
loaded level's scale must be the one its source descriptor gives
(:func:`_odometer_scale_steps`, :func:`_graph_scale_steps`), and builders
and the reader admit each level by its predicted bytes (:func:`_next_scale`)
before it is made, growing a graph cover tower one admitted level at a time.
The prediction counts the dense integers the level would once have held,
not the clusters it holds, so it refuses the same depths as before.

The records (:class:`Cell`, :class:`SchemeLevel`, :class:`EmbeddingScheme`)
are ``typing.NamedTuple``s and :class:`VerifyReport` is a plain class, not
dataclasses: every scheme command imports this module, and ``dataclasses``
would load ``inspect`` (with ``ast``, ``dis`` and ``tokenize``) into each
launch.
"""

from __future__ import annotations

import io
import json
from fractions import Fraction
from functools import partial
from itertools import combinations
from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING, Iterator, NamedTuple

from cantor_shrink.exact import (
    ClosedInterval,
    Dyadic,
    approx_float,
    canonical_dumps,
    check_memory,
    dense_bytes,
    int_to_digits,
    pow2,
    scalar_to_json,
    scaled_fraction,
)
# cantor_shrink.graphcover and cantor_shrink.odometer are imported where a
# cover or an odometer is built or loaded, csv where CSV is written and copy
# where a scheme is, so that each command loads only the layers it runs
if TYPE_CHECKING:
    from cantor_shrink.graphcover import CoverSequence
    from cantor_shrink.odometer import OdometerSpec


SLOTS_PER_CORE = 12
SCHEME_FORMAT = 5
# the lengths a cell holds over its level's scale, and every column a
# format-5 level holds, each named as the field of :class:`Cell` it fills
LENGTHS = ("start", "width", "inset", "core_width")
COLUMNS = ("label", "parent", *LENGTHS)


class Cell(NamedTuple):
    """One cylinder at one depth: carrier interval A, concentric core D.

    ``start`` is the carrier's start less the parent's core start (less 0
    on the coarsest level), ``width`` the carrier's width, ``inset`` the
    core's start less the carrier's and ``core_width`` the core's width,
    all over the level ``scale``.  ``parent`` is the label of the
    depth-(n-1) cell whose core contains A, or None on the coarsest level,
    and ``up`` is that cell.  ``A`` and ``D`` are the intervals from 0 in
    fractions, formed on access through the chain of parents.  The package
    reads :func:`absolute_level` instead; ``A`` and ``D`` (with ``up``,
    ``scale`` and :func:`_carrier_start` behind them) are kept for the
    benchmark's largest-denominator count, which reads them.
    """

    label: int
    start: Dyadic
    width: Dyadic
    inset: Dyadic
    core_width: Dyadic
    parent: int | None
    scale: Dyadic
    up: Cell | None

    @property
    def A(self) -> ClosedInterval:
        lo, scale = int(_carrier_start(self)), int(self.scale)
        return ClosedInterval(scaled_fraction(lo, scale), scaled_fraction(lo + int(self.width), scale))

    @property
    def D(self) -> ClosedInterval:
        lo, scale = int(_carrier_start(self) + self.inset), int(self.scale)
        return ClosedInterval(scaled_fraction(lo, scale), scaled_fraction(lo + int(self.core_width), scale))


def _carrier_start(cell: Cell) -> Dyadic:
    """The cell's carrier start from 0 over its scale, through ``up``; the
    scales are one cluster each, so their ratio is (c / c', l - l').  Only
    ``Cell.A``/``Cell.D`` call it."""
    up = cell.up
    if up is None:
        return cell.start
    (c, l), (c_up, l_up) = cell.scale[0], up.scale[0]
    return (_carrier_start(up) + up.inset).scaled(c // c_up, l - l_up) + cell.start


class SchemeLevel(NamedTuple):
    """All cells of one depth, keyed by label; the level scales a, b are
    integers over ``scale``."""

    n: int
    scale: Dyadic
    a: Dyadic
    b: Dyadic
    cells: dict[int, Cell]

    def cell(self, label: int) -> Cell:
        if label not in self.cells:
            raise KeyError(f"no cell labelled {label} at depth {self.n}")
        return self.cells[label]


class EmbeddingScheme(NamedTuple):
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

    def level(self, n: int) -> SchemeLevel:
        """The depth-n level; depths run consecutively from ``min_depth``."""
        if n < self.min_depth:
            raise ValueError(f"depth {n} is before the scheme's first depth {self.min_depth}")
        if n > self.max_depth:
            raise ValueError(
                f"depth {n} not built (have {self.min_depth}..{self.max_depth}); "
                "rebuild the scheme with a larger depth"
            )
        return self.levels[n - self.min_depth]

    @property
    def min_depth(self) -> int:
        return self.levels[0].n

    @property
    def max_depth(self) -> int:
        return self.levels[-1].n


def _level_bytes(cells: int, bits: int) -> int:
    """Per cell, carrier and core endpoints; per level, scale, a and b: the
    dense integers of ``bits`` bits each that the level stands for."""
    return dense_bytes(4 * cells + 3, bits)


def scheme_bytes(scheme: EmbeddingScheme) -> int:
    """The predicted bytes its builder or reader admitted the scheme by."""
    return sum(_level_bytes(len(lvl.cells), lvl.scale.bit_length()) for lvl in scheme.levels)


def _next_scale(scale: Dyadic, m: int, e: int, cells: int, total: int, where: str) -> tuple[Dyadic, int]:
    """S m 2^e, the scale below S, and ``total``, the predicted bytes of the levels above, plus
    this level's of ``cells`` cells: refused, naming ``where``, before any cell of it is made."""
    scale = scale.scaled(m, e)
    return scale, check_memory(total + _level_bytes(cells, scale.bit_length()), where)


def _admit(steps: Iterator, first: int, cells) -> list[tuple]:
    """A builder's steps for levels ``first``, ``first`` + 1, …, each with its level's scale appended, and
    each level admitted with ``cells(n, step)`` cells (:func:`_next_scale`) before the next step is worked out."""
    admitted, scale, total = [], Dyadic.term(1), 0
    for n, step in enumerate(steps, start=first):
        scale, total = _next_scale(scale, step[0], step[1], cells(n, step), total, f"depth {n}")
        admitted.append((*step, scale))
    return admitted


def _cell(label: int, start: Dyadic, width: Dyadic, half: Dyadic, parent: Cell | None, scale: Dyadic) -> Cell:
    """Carrier [start, start + width] with a concentric core of half-length ``half``."""
    label_up = None if parent is None else parent.label
    return Cell(label, start, width, (width >> 1) - half, half << 1, label_up, scale, parent)


# ---------------------------------------------------------------------------
# odometer scheme
# ---------------------------------------------------------------------------


def _odometer_scale_steps(spec: OdometerSpec, depth: int) -> Iterator[tuple[int, int, int]]:
    """(m, e, r) for levels n = 1..depth.

    The depth-n core ladder ranks labels by how far they sit after s_{n-1}
    in the cyclic order of Z/s_n, and each step down it multiplies a core's
    length by 2^-r, r = n k_{n+1}: over the level's scale the core of label j
    has half-length 2^(r ((s_{n-1} - j) mod s_n)), from 2^E_n, E_n =
    r (s_n - 1), down to 1.  The scales are S_n = S_{n-1} m 2^e (S_0 = 1),
    S_1 = 12 * 2^E_1 and S_{n+1} = S_n k_{n+1} 2^(n + E_{n+1}), so e =
    n - 1 + E_n on every level.  Lazy, so that a level can be refused
    before the steps of deeper levels are worked out.
    """
    for n in range(1, depth + 1):
        rung = n * spec.extended_k(n + 1)
        yield 12 if n == 1 else spec.extended_k(n), n - 1 + rung * (spec.extended_modulus(n) - 1), rung


def build_odometer_scheme(spec: OdometerSpec, depth: int) -> EmbeddingScheme:
    """Embed the odometer with modulus tower s_1 | s_2 | ... up to ``depth``.

    Level 1 places s_1 unit-spaced carriers [i, i + 1/2]; each deeper level
    splits every core into k_{n+1} equal carriers, one per congruence class
    refinement, and shrinks a concentric core into each carrier.  Labels at
    depth n are residues mod s_n, and A_j at depth n+1 sits inside A_i at
    depth n exactly when i = j mod s_n.

    The scale is S_n = 6 / b_n: with E_n the bottom shift of the core ladder
    (:func:`_odometer_scale_steps`), a_n = 6 * 2^E_n and b_n = 6, and
    a_{n+1} = 2^-n b_n / k_{n+1} gives S_{n+1} = S_n k_{n+1} 2^(n + E_{n+1}).
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    steps = _admit(_odometer_scale_steps(spec, depth), 1, lambda n, _: spec.extended_modulus(n))
    _, bottom, rung, scale = steps[0]  # a_1 = 1/2
    s_1 = spec.extended_modulus(1)
    a = Dyadic.term(6, bottom)
    cells = {i: _cell(i, scale * i, a, Dyadic.term(1, rung * ((1 - i) % s_1)), None, scale) for i in range(s_1)}
    levels = [SchemeLevel(1, scale, a, Dyadic.term(6), cells)]

    for n in range(1, depth):
        prev = levels[-1]
        s_n, s_next = spec.extended_modulus(n), spec.extended_modulus(n + 1)
        k_next, e, rung, scale = steps[n]
        bottom = e - n  # E_{n+1}
        children: dict[int, Cell] = {}
        for i, cell in prev.cells.items():
            step = cell.core_width << e  # a k_next-th of the core over the new scale
            for m in range(k_next):
                j = i + m * s_n
                children[j] = _cell(j, step * m, step, Dyadic.term(1, rung * ((s_n - j) % s_next)), cell, scale)
        levels.append(SchemeLevel(n + 1, scale, Dyadic.term(6, bottom), Dyadic.term(6), dict(sorted(children.items()))))

    return EmbeddingScheme("odometer", spec.descriptor(), levels, spec=spec)


# ---------------------------------------------------------------------------
# graph-cover scheme
# ---------------------------------------------------------------------------


def _graph_core_exponent(seq: CoverSequence, n: int, vertex) -> int:
    """e for a level-n core of length 2^-e * a_{n-1} / 3 (a_{-1} = a_0 = 1/2).

    The exponent has three regimes: the base vertex, early cycle positions up
    to the previous level's first-cycle length, and the remaining positions.
    The regime boundary is where successor cores expand instead of shrink,
    which marks the exceptional vertices.
    """
    s_n = len(seq.graph(n).vertices)
    boundary = seq.levels[n - 1].cycle_lengths[0] if n >= 1 else 1
    _, cycle, i = vertex
    if cycle == 0:
        return 2 * s_n * s_n
    if i <= boundary:
        return 2 * s_n * s_n + i * s_n
    return s_n * s_n + i * s_n


def _graph_core_exponents(seq: CoverSequence, n: int) -> dict[int, int]:
    """Signed index -> core exponent of every level-n vertex, in canonical order."""
    from cantor_shrink.graphcover import canonical_vertices, signed_index

    return {signed_index(v): _graph_core_exponent(seq, n, v) for v in canonical_vertices(seq.levels[n])}


def _graph_scale_steps(seq: CoverSequence, depth: int) -> Iterator[tuple[int, int, dict[int, int]]]:
    """(m, e, exponents) for levels n = 0..depth: the level's core exponents
    (:func:`_graph_core_exponents`) and its scale S_n = S_{n-1} m 2^e
    (S_{-1} = 1), S_0 = 12 * 2^e_0 and S_{n+1} = S_n * 3 * 2^(e_{n+1} + 1),
    with e_n the largest core exponent of level n.  Lazy, as
    :func:`_odometer_scale_steps` is, and ``seq`` grows by a level when
    its step is asked for."""
    from cantor_shrink.graphcover import extend_sequence

    for n in range(depth + 1):
        if n > seq.top:
            extend_sequence(seq)
        exponents = _graph_core_exponents(seq, n)
        top = max(exponents.values())
        yield (12, top, exponents) if n == 0 else (3, top + 1, exponents)


def build_graph_scheme(seq: CoverSequence | str, depth: int) -> EmbeddingScheme:
    """Embed the inverse limit of ``seq``, a cover tower or a variant name
    whose tower grows as levels are admitted, down to level ``depth``.

    Level 0 places one unit-spaced carrier [j, j + 1/2] per vertex at its
    signed index j.  Each deeper level cuts every core into twelve equal
    slots and assigns the leftmost slots to the covering map's preimages in
    canonical order (base, cycle-1 interiors, cycle-2 interiors); unused
    slots stay empty.  A vertex's carrier therefore sits inside the core of
    the cell its covering image labels.

    Level n+1 refines the scale by 3 * 2^(e + 1), e its largest core exponent:
    then slot ends and midpoints (24ths of a core), core half-lengths
    2^-e a_n / 6 and b_{n+1} = 2^(-s_{n+1}^2) a_{n+1} (as e >= 2 s_{n+1}^2)
    are integers.
    """
    from cantor_shrink.graphcover import canonical_vertices, cover_base, fibres, signed_index

    if depth < 1:  # a scheme of one level has no ratio or pair depth, and its file is refused
        raise ValueError(f"need at least one covering level, got {depth}")
    if isinstance(seq, str):
        seq = cover_base(seq)
    elif depth > seq.top:
        raise ValueError(f"depth {depth} exceeds the cover tower height {seq.top}")

    steps = _admit(_graph_scale_steps(seq, depth), 0, lambda n, step: len(step[2]))
    _, bottom, exponents, scale = steps[0]  # a_0 = 1/2, and a core of exponent e has half-length 2^-e / 12
    a = Dyadic.term(6, bottom)
    s_0 = len(exponents)
    cells = {j: _cell(j, scale * j, a, Dyadic.term(1, bottom - e), None, scale) for j, e in sorted(exponents.items())}
    levels = [SchemeLevel(0, scale, a, Dyadic.term(2, bottom - 2 * s_0 * s_0), cells)]  # b_0 = a_0 / 3 2^(-2 s_0^2)

    for n in range(depth):
        prev = levels[-1]
        _, e, exponents, scale = steps[n + 1]
        s_next = len(exponents)
        top = e - 1  # the largest core exponent of level n + 1
        unit = prev.a << top  # a_n / 6 over the new scale
        children: dict[int, Cell] = {}
        fibre_of = fibres(seq, n)
        for v in canonical_vertices(seq.levels[n]):
            i = signed_index(v)
            fibre = fibre_of.get(v, [])
            if len(fibre) > SLOTS_PER_CORE:
                raise ValueError(
                    f"vertex {v} has {len(fibre)} preimages; only "
                    f"{SLOTS_PER_CORE} slots per core are available"
                )
            step = prev.cells[i].core_width << top - 1  # a twelfth of the core over the new scale
            for t, w in enumerate(fibre):
                j = signed_index(w)
                children[j] = _cell(j, step * t, step, unit >> exponents[j], prev.cells[i], scale)
        a_next = max(c.width for c in children.values())
        levels.append(SchemeLevel(n + 1, scale, a_next, a_next >> s_next**2, dict(sorted(children.items()))))

    return EmbeddingScheme("graph", seq.descriptor(), levels, cover=seq)


def _level_factors(scheme: EmbeddingScheme) -> dict[int, tuple[int, int]]:
    """Depth n -> (m, e) for every level of ``scheme``, as its source
    descriptor gives them (:func:`_odometer_scale_steps`,
    :func:`_graph_scale_steps`): S_n = S_{n-1} m 2^e, and 1 is the scale
    above the first level.  A length comes to the scale of the level below
    as ``x.scaled(m, e)``."""
    if scheme.kind == "odometer":
        first, steps = 1, _odometer_scale_steps(scheme.spec, scheme.max_depth)
    else:
        first, steps = 0, _graph_scale_steps(scheme.cover, scheme.max_depth)
    return {n: (m, e) for n, (m, e, _) in enumerate(steps, start=first)}


# ---------------------------------------------------------------------------
# labels, successors, exceptional cells
# ---------------------------------------------------------------------------


def induced_map_label(scheme: EmbeddingScheme, depth: int, label: int) -> tuple[int, ...]:
    """Where the induced dynamics sends a depth-``depth`` cell, as the sorted
    tuple of successor labels: ``label + 1 (mod s_depth)`` alone for an
    odometer cell, and one label per out-neighbour for a graph cell, which
    may branch.
    """
    level = scheme.level(depth)
    level.cell(label)
    if scheme.kind == "odometer":
        return ((label + 1) % scheme.spec.extended_modulus(depth),)
    from cantor_shrink.graphcover import signed_index, vertex_with_signed_index

    v = vertex_with_signed_index(scheme.cover.levels[depth], label)
    if v is None:
        raise KeyError(f"no vertex with signed index {label} at level {depth}")
    return tuple(sorted(signed_index(w) for w in scheme.cover.graph(depth).out_neighbors(v)))


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


class VerifyReport:
    """Outcome of one certificate: pass/fail, margins, witnesses, exclusions.

    ``scale`` is declared once when the margins are digit strings over it.
    """

    def __init__(self, check: str, passed: bool, witnesses: list, margins: list | None = None,
                 excluded: list | None = None, stats: dict | None = None, scale: int | None = None):
        self.check, self.passed, self.witnesses, self.scale = check, passed, witnesses, scale
        self.margins = [] if margins is None else margins
        self.excluded = [] if excluded is None else excluded
        self.stats = {} if stats is None else stats

    def to_json(self) -> dict:
        out = {
            "check": self.check,
            "pass": self.passed,
            "witnesses": self.witnesses,
            "margins": self.margins,
        }
        if self.scale is not None:
            out["scale"] = self.scale.digits() if isinstance(self.scale, Dyadic) else int_to_digits(self.scale)
        if self.excluded:
            out["excluded"] = self.excluded
        if self.stats:
            out["stats"] = self.stats
        return out


def derivative_ratio_bound(scheme: EmbeddingScheme, depth: int) -> Fraction:
    """Computed derivative ratio at ``depth``: worst image-core stretch.

    For every non-exceptional parent, take the widest core among its image
    labels at the same depth over the narrowest child carrier one level
    down; return the maximum.  Requires depth+1 to be built.  Each width is
    one cluster c 2^l, so each ratio is a fraction of small integers.
    """
    child_map = children_of(scheme, depth)
    cells = scheme.level(depth).cells
    m, e = _level_factors(scheme)[depth + 1]
    skip = exceptional_labels(scheme, depth)
    best: Fraction | None = None
    for label in cells:
        if label in skip or not child_map[label]:
            continue
        image = max(cells[j].core_width for j in induced_map_label(scheme, depth, label)).scaled(m, e)
        ratio = _ratio(image, min(c.width for c in child_map[label]))
        if best is None or ratio > best:
            best = ratio
    if best is None:
        raise ValueError(f"no non-exceptional parents with children at depth {depth}")
    return best


def _ratio(x: Dyadic, y: Dyadic) -> Fraction:
    """x / y, over the bits the two span rather than over the scale."""
    k = min(x[0][1], y[0][1]) if x else 0
    return Fraction(int(x >> k), int(y >> k))


def closed_form_ratio_bound(scheme: EmbeddingScheme, depth: int) -> Fraction:
    """A priori bound the computed ratio must stay under (slack factor 3)."""
    if scheme.kind == "odometer":
        k_next = scheme.spec.extended_k(depth + 1)
        return 3 * k_next * pow2(-depth * k_next)
    return 36 * pow2(-len(scheme.cover.graph(depth).vertices))


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


def verify_lrs_pairs(scheme: EmbeddingScheme, depth: int) -> VerifyReport:
    """Locally-radially-shrinking certificate over sibling pairs at ``depth``.

    For every pair of distinct depth-(depth+1) cells under a common
    depth-``depth`` parent, compare the supremum distance of their image
    carrier hulls against the gap between their cores, and demand a strictly
    positive margin.  Pairs under an exceptional parent, and graph pairs
    whose successors straddle two parents, are excluded and reported rather
    than failed: the construction only promises shrinking away from them.
    Every quantity is an integer over the depth-(depth+1) scale, which the
    report declares once; margins, sups and infs are written as signed
    binary digits over it.

    The cores of a pair are measured from their common parent's core start,
    and the image hulls from the core start of the images' parent, which
    the images of a checked pair share: each difference is formed inside
    one parent.  Only an odometer pair whose images a corrupted file puts
    under two parents has its hulls placed from 0 (:func:`_absolute_starts`).
    """
    child_map = children_of(scheme, depth)
    skip = exceptional_labels(scheme, depth)
    child_level = scheme.level(depth + 1)
    cells = child_level.cells
    images, targets, hulls = {}, {}, {}
    for label in cells:
        images[label] = induced_map_label(scheme, depth + 1, label)
        targets[label] = {cells[j].parent for j in images[label]}
        if len(targets[label]) == 1:
            hulls[label] = _hull(cells, images[label])
    starts = None  # the level's carrier starts from 0, formed when a pair's images have two parents

    margins = []
    witnesses = []
    excluded = []
    checked = 0
    for parent in sorted(child_map):
        kids = sorted(child_map[parent], key=lambda c: c.label)
        cores = {c.label: _core(c) for c in kids}
        for cu, cv in combinations(kids, 2):
            u, v = cu.label, cv.label
            pair = {"parent": parent, "pair": [u, v]}
            if parent in skip:
                excluded.append({**pair, "reason": "exceptional parent"})
                continue
            if len(targets[u] | targets[v]) == 1:
                (u_lo, u_hi), (v_lo, v_hi) = hulls[u], hulls[v]
            elif scheme.kind == "graph":
                excluded.append({**pair, "reason": "successors split across parents"})
                continue
            else:
                if starts is None:
                    starts = _absolute_starts(scheme, _level_factors(scheme), depth + 1)
                (u_lo, u_hi), (v_lo, v_hi) = (_hull(cells, images[x], starts) for x in (u, v))
            sup = max(v_hi - u_lo, u_hi - v_lo)
            (u_core, u_end), (v_core, v_end) = cores[u], cores[v]
            order = u_core.compare(v_core)  # the cores in the order ``sorted`` gives
            inf = v_core - u_end if order < 0 or order == 0 and u_end <= v_end else u_core - v_end
            checked += 1
            if sup < inf:
                margins.append({**pair, "margin": (inf - sup).digits()})
            else:
                witnesses.append({**pair, "sup": sup.digits(), "inf": inf.digits()})
    return VerifyReport(
        check="lrs-pairs",
        passed=not witnesses,
        witnesses=witnesses,
        margins=margins,
        excluded=excluded,
        stats={"depth": depth, "pairs_checked": checked},
        scale=child_level.scale,
    )


def _core(cell: Cell) -> tuple[Dyadic, Dyadic]:
    """The cell's core, from its parent's core start."""
    lo = cell.start + cell.inset
    return lo, lo + cell.core_width


def _hull(cells: dict, labels, starts: dict | None = None) -> tuple[Dyadic, Dyadic]:
    """The hull of the carriers of ``labels``, from their common parent's core
    start, or from 0 given every cell's carrier start from 0 (``starts``)."""
    if starts is None:
        if len(labels) == 1:
            cell = cells[labels[0]]
            return cell.start, cell.start + cell.width
        starts = {j: cells[j].start for j in labels}
    return min(starts[j] for j in labels), max(starts[j] + cells[j].width for j in labels)


def _absolute_starts(scheme: EmbeddingScheme, factors: dict, depth: int) -> dict[int, Dyadic]:
    """Label -> carrier start from 0 over the level's scale, for every cell
    at ``depth``: each start added onto its stated parent's, level by level.
    Formed only where a check on a corrupted scheme has no common parent to
    measure from; its clusters grow by about one per level."""
    starts: dict = {}
    above = None
    for lvl in scheme.levels[:depth - scheme.min_depth + 1]:
        if above is None:
            starts = {label: c.start for label, c in lvl.cells.items()}
        else:
            m, e = factors[lvl.n]
            bases = {p: (starts[p] + above.cells[p].inset).scaled(m, e) for p in above.cells}
            starts = {label: bases[c.parent] + c.start for label, c in lvl.cells.items()}
        above = lvl
    return starts


def absolute_level(scheme: EmbeddingScheme, depth: int) -> tuple[int, dict[int, tuple]]:
    """``(S, {label: ((carrier lo, hi), (core lo, hi))})``, the depth's
    cells from 0 as dense integers over its dense scale S: for readers at
    desk depths, which build finite systems and the picture from them."""
    level = scheme.level(depth)
    starts = _absolute_starts(scheme, _level_factors(scheme), depth)
    out = {}
    for label, c in level.cells.items():
        lo = int(starts[label])
        core_lo = lo + int(c.inset)
        out[label] = (lo, lo + int(c.width)), (core_lo, core_lo + int(c.core_width))
    return int(level.scale), out


# ---------------------------------------------------------------------------
# structural audit
# ---------------------------------------------------------------------------


def _audit_geometry(scheme: EmbeddingScheme, factors: dict, witnesses: list) -> dict[int, dict[int, bool]]:
    """Concentric cores inside carriers, disjoint carriers and strictly
    separated cores on every level, in the order the cells lie on the line;
    returns, per depth, whether each carrier lies in its parent's core.

    The checks are made parent by parent, from each parent's core start, by
    induction down the levels.  Suppose the cores of level n - 1 are
    strictly separated.  If every carrier of level n lies in its parent's
    core, and every core in its carrier, then the children of two parents
    lie in two disjoint cores, in the order of those cores on the line: two
    cells of different parents can neither overlap nor have touching
    cores, and the line order of level n is its parents' order with each
    parent's children sorted by start.  So only siblings that are
    neighbours on the line are compared, and the cores of level n are
    strictly separated exactly when no sibling pair finds otherwise.  On
    the first level every cell counts as a sibling of every other.

    A level where the premise fails (a carrier outside its parent's core, a
    core outside its carrier, or parent cores that meet) has no such order,
    and is checked as a whole with every cell placed from 0
    (:func:`_absolute_starts`): this gives each witness, in the order, that
    a check of the whole line gives.
    """
    inside: dict[int, dict[int, bool]] = {}
    above, line, separated = None, [], True  # the level above, its labels in line order, its cores apart
    for lvl in scheme.levels:
        rows, here, local = {}, {}, True
        if above is not None:
            m, e = factors[lvl.n]
            spans = {p: above.cells[p].core_width.scaled(m, e) for p in {c.parent for c in lvl.cells.values()}}
        for label, c in lvl.cells.items():
            end = c.start + c.width
            core_lo = c.start + c.inset
            core_hi = core_lo + c.core_width
            right = end - core_hi
            here[label] = above is None or (c.start.sign() >= 0 and end <= spans[c.parent])
            local = local and here[label] and c.inset.sign() >= 0 and right.sign() >= 0
            rows[label] = [c.start, end, core_lo, core_hi, right, c]
        if above is None:
            groups = [list(rows.values())]
        elif local and separated:
            by_parent = {p: [] for p in line}
            for label, c in lvl.cells.items():
                by_parent[c.parent].append(rows[label])
            groups = [group for group in by_parent.values() if group]
        else:
            starts = _absolute_starts(scheme, factors, lvl.n)
            for label, row in rows.items():
                shift = starts[label] - row[0]
                row[:4] = [x + shift for x in row[:4]]
            groups = [list(rows.values())]
        separated = _audit_line(lvl.n, groups, witnesses)
        line = [row[5].label for group in groups for row in group]
        inside[lvl.n] = here
        above = lvl
    return inside


def _audit_line(n: int, groups: list, witnesses: list) -> bool:
    """The checks of one level over ``groups`` of rows [start, end, core
    start, core end, carrier end less core end, cell], each group measured
    from one origin and holding every pair that may meet: every cell in
    line order, then neighbours within each group.  Returns whether the
    level's cores are strictly separated."""
    for group in groups:
        group.sort(key=itemgetter(0))
    for group in groups:
        for row in group:
            c = row[5]
            if c.inset != row[4]:
                witnesses.append({"depth": n, "label": c.label, "reason": "core not concentric"})
            if c.inset.sign() <= 0:
                witnesses.append({"depth": n, "label": c.label, "reason": "core touches carrier"})
    separated = True
    for group in groups:
        for prev, nxt in zip(group, group[1:]):
            if nxt[0] < prev[1]:
                witnesses.append({"depth": n, "label": nxt[5].label, "reason": "carrier interiors overlap"})
            if nxt[2] <= prev[3]:
                witnesses.append({"depth": n, "label": nxt[5].label, "reason": "cores not separated"})
                separated = False
    return separated


def _audit_scales(scheme: EmbeddingScheme, factors: dict, witnesses: list) -> None:
    """Each level's scale must be the level above's times the factor that
    the source descriptor gives, so that the other checks, which carry
    lengths across levels by that factor, compare over the stored scales."""
    above = Dyadic.term(1)
    for lvl in scheme.levels:
        m, e = factors[lvl.n]
        if lvl.scale != above.scaled(m, e):
            witnesses.append({"depth": lvl.n, "reason": "scale is not the one its source gives"})
        above = lvl.scale


def _audit_odometer(scheme: EmbeddingScheme, inside: dict, witnesses: list) -> None:
    spec = scheme.spec
    for lvl in scheme.levels:
        n = lvl.n
        s_n = spec.extended_modulus(n)
        s_prev = spec.extended_modulus(n - 1)
        if len(lvl.cells) != s_n or sorted(lvl.cells) != list(range(s_n)):
            witnesses.append({"depth": n, "reason": "labels are not the residues mod s_n"})
            continue
        if lvl.a << n > lvl.scale:
            witnesses.append({"depth": n, "reason": "level scale exceeds 2^-n"})
        step = n * spec.extended_k(n + 1)
        if lvl.b << step * (s_n - 1) != lvl.a:
            witnesses.append({"depth": n, "reason": "stored b does not match its formula"})
        widths = {label: c.core_width for label, c in lvl.cells.items()}
        ladder = [widths[(s_prev + z) % s_n] for z in range(1, s_n + 1)]
        if any(x <= y for x, y in zip(ladder, ladder[1:])):
            witnesses.append({"depth": n, "reason": "core ladder not strictly decreasing"})
        for i, cell in lvl.cells.items():
            d = widths[i]
            d3 = d * 3
            if not lvl.a >= d3 >= lvl.b:
                witnesses.append({"depth": n, "label": i, "reason": "core outside [b/3, a/3]"})
            if n > 3 and d3 > cell.width:
                witnesses.append({"depth": n, "label": i, "reason": "core above a third of carrier"})
            if i % s_n != s_prev % s_n:
                if widths[(i + 1) % s_n] << step != d:
                    witnesses.append(
                        {"depth": n, "label": i, "reason": "successor core ratio off ladder step"}
                    )
    for lvl, nxt in zip(scheme.levels, scheme.levels[1:]):
        s_n = spec.extended_modulus(lvl.n)
        for j, cell in nxt.cells.items():
            if cell.parent != j % s_n:
                witnesses.append({"depth": nxt.n, "label": j, "reason": "parent is not j mod s_n"})
            elif not inside[nxt.n][j]:
                witnesses.append(
                    {"depth": nxt.n, "label": j, "reason": "carrier leaves parent core"}
                )


def _audit_graph(scheme: EmbeddingScheme, factors: dict, inside: dict, witnesses: list) -> None:
    from cantor_shrink.graphcover import canonical_vertices, signed_index, vertex_with_signed_index

    seq = scheme.cover
    for lvl in scheme.levels:
        n = lvl.n
        s_n = len(seq.graph(n).vertices)
        expected = {signed_index(v) for v in canonical_vertices(seq.levels[n])}
        if set(lvl.cells) != expected:
            witnesses.append({"depth": n, "reason": "labels do not match the level's vertices"})
            continue
        if lvl.a != max(c.width for c in lvl.cells.values()):
            witnesses.append({"depth": n, "reason": "level scale is not the widest carrier"})
        if lvl.a << n > lvl.scale:
            witnesses.append({"depth": n, "reason": "level scale exceeds 2^-n"})
        if n > 0 and lvl.b << s_n * s_n != lvl.a:
            witnesses.append({"depth": n, "reason": "stored b does not match its formula"})
        for j, cell in lvl.cells.items():
            d = cell.core_width
            if d << s_n > lvl.a:
                witnesses.append({"depth": n, "label": j, "reason": "core too wide for its level"})
            if cell.width - d <= d * 2:
                witnesses.append(
                    {"depth": n, "label": j, "reason": "core margin thinner than the core"}
                )
    for lvl, nxt in zip(scheme.levels, scheme.levels[1:]):
        hom = seq.homs[lvl.n]
        m, e = factors[nxt.n]
        for j, cell in nxt.cells.items():
            v = vertex_with_signed_index(seq.levels[nxt.n], j)
            if cell.parent != signed_index(hom[v]):
                witnesses.append(
                    {"depth": nxt.n, "label": j, "reason": "parent is not the covering image"}
                )
                continue
            if cell.width * SLOTS_PER_CORE != lvl.cells[cell.parent].core_width.scaled(m, e):
                witnesses.append(
                    {"depth": nxt.n, "label": j, "reason": "carrier is not a twelfth of the core"}
                )
            if not inside[nxt.n][j]:
                witnesses.append(
                    {"depth": nxt.n, "label": j, "reason": "carrier leaves parent core"}
                )


def audit_scheme(scheme: EmbeddingScheme) -> VerifyReport:
    """Re-check every structural invariant of a built (or loaded) scheme.

    Covers concentricity, disjointness, nesting, label bookkeeping, the
    scale of each level against its source descriptor, the level scales a
    and b, and the per-kind core-diameter ladders.  Runs on the intervals
    exactly as stored, so a corrupted file fails here even though its source
    descriptor is intact.
    """
    witnesses: list = []
    factors = _level_factors(scheme)
    _audit_scales(scheme, factors, witnesses)
    inside = _audit_geometry(scheme, factors, witnesses)
    if scheme.kind == "odometer":
        _audit_odometer(scheme, inside, witnesses)
    else:
        _audit_graph(scheme, factors, inside, witnesses)
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
    """Format-5 JSON: each level's scale, a and b as signed binary digits
    (:meth:`~cantor_shrink.exact.Dyadic.digits`), the last two over that
    scale, and its cells as parallel lists in the level's cell order, one
    per :class:`Cell` field (:data:`COLUMNS`): ``label``, ``parent``, and
    the four lengths over the scale as the cells hold them, ``start`` (the
    carrier's start less its parent's core start, from 0 on the first
    level), ``width``, ``inset`` (the core's start less the carrier's) and
    ``core_width``.  A carrier sits in its parent's core, so a start has the
    few digits below the parent's, where an absolute endpoint repeats all of
    them; and a level names each column once, not once per cell."""
    from copy import deepcopy

    levels = []
    for lvl in scheme.levels:
        cells = lvl.cells.values()
        level = {
            "n": lvl.n,
            "scale": lvl.scale.digits(),
            "a": lvl.a.digits(),
            "b": lvl.b.digits(),
            "label": list(lvl.cells),
            "parent": [c.parent for c in cells],
        }
        for key in LENGTHS:
            level[key] = [x.digits() for x in map(attrgetter(key), cells)]
        levels.append(level)
    return {"format": SCHEME_FORMAT, "kind": scheme.kind, "source": deepcopy(scheme.source), "levels": levels}


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise ValueError(message)


def _field(obj: dict, key: str, where: str | None, parse):
    """``parse(obj[key])``, naming the field (and ``where`` it sits, below
    the top level) in any ValueError it raises."""
    try:
        return parse(obj[key])
    except ValueError as exc:
        raise ValueError(f"{where + ': ' if where else ''}field {key!r}: {exc}") from None


def _read_once(seen: dict, text, max_bits: int) -> Dyadic:
    """``Dyadic.from_digits(text, max_bits)``, each distinct string read
    once: a level's columns repeat about a third of their strings."""
    if type(text) is not str:
        return Dyadic.from_digits(text, max_bits)  # refused
    value = seen.get(text)
    if value is None:
        value = seen[text] = Dyadic.from_digits(text, max_bits)
    return value


def _column(key: str, texts: list, labels: list, where: str, decode) -> list[Dyadic]:
    """The length column ``key`` of a level decoded, naming the label of a
    string it refuses, and of a negative value in a width column."""
    values = []
    for label, text in zip(labels, texts):
        try:
            values.append(decode(text))
        except ValueError as exc:
            raise ValueError(f"{where} label {label}: field {key!r}: {exc}") from None
    if key.endswith("width"):
        for label, value in zip(labels, values):
            _check(value.sign() >= 0, f"{where} label {label}: field {key!r}: width < 0")
    return values


def scheme_signed_digits(obj: dict) -> int:
    """The nonzero digits of every signed-digit string of a scheme file that
    :func:`scheme_from_json` has read: the work its load decoded."""
    levels = obj["levels"]
    texts = [level[key] for level in levels for key in ("scale", "a", "b")]
    texts += ["".join(level[key]) for level in levels for key in LENGTHS]
    return sum(text.count("+") + text.count("-") for text in texts)


def scheme_from_json(obj: dict) -> EmbeddingScheme:
    """Rebuild a scheme from its format-5 JSON form, geometry taken verbatim.

    The symbolic source is reconstructed from the descriptor so successor
    structure is available, but no interval is recomputed: each cell holds
    its four lengths as the file writes them (:func:`scheme_to_json`), and
    verification then applies to exactly what the file says.  Depths
    count up from the kind's first depth.  Before any string of a level is
    decoded, each of its columns must be a list as long as ``label``, the
    level is admitted by that length (:func:`_next_scale`) and its scale
    must be the one the descriptor gives.  Labels are distinct integers
    within a level, each parent is a label of the level above (null on the
    first level), each scale, a, b, start and width is a canonical
    signed-digit string whose exponents stay within the bounds, and no
    width is negative.  A graph descriptor's cover tower is built one level
    at a time as the file's levels are read, so a file that claims more
    levels than it holds builds no more than it holds.  The scheme keeps a
    copy of the descriptor, as the writer writes one, so editing ``obj``
    after the load edits no scheme.

    Raises:
        ValueError: naming the field (and the level of a level's field),
            when the file does not fit the schema; a file of another format
            is told to rebuild from its source.
    """
    _check(isinstance(obj, dict), f"a scheme file holds a JSON object, not a {type(obj).__name__}")
    kind, source = obj["kind"], obj.get("source")
    _check(kind in ("odometer", "graph"), f"unknown scheme kind {kind!r}")
    _check(
        obj.get("format") == SCHEME_FORMAT,
        f"field 'format' is {obj.get('format')!r}, not {SCHEME_FORMAT}: rebuild the file with "
        f"`cantor-shrink build` from its source descriptor {canonical_dumps(source).strip()}",
    )
    _check(isinstance(obj["levels"], list) and obj["levels"], "field 'levels' must be a non-empty list")
    height = len(obj["levels"]) - 1
    if kind == "odometer":
        _check(
            isinstance(source, dict) and source.get("rule", "list") == "list"
            and isinstance(source.get("s"), list) and all(type(v) is int for v in source["s"]),
            "field 'source' must be {\"rule\": \"list\", \"s\": [integers]}",
        )
        from cantor_shrink.odometer import OdometerSpec

        symbolic = {"spec": _field(obj, "source", None, lambda src: OdometerSpec(src["s"]))}
        steps = _odometer_scale_steps(symbolic["spec"], height + 1)
    else:
        _check(
            isinstance(source, dict) and type(source.get("levels")) is int and source["levels"] == height,
            f"field 'source' must be {{\"variant\": ..., \"levels\": {height}}} for {height + 1} levels",
        )
        from cantor_shrink.graphcover import cover_base

        _check(height >= 1, f"need at least one covering level, got {height}")
        symbolic = {"cover": _field(obj, "source", None, lambda src: cover_base(src["variant"]))}
        steps = _graph_scale_steps(symbolic["cover"], height)
    first = 1 if kind == "odometer" else 0
    levels = []
    above: dict = {None: None}  # the cells of the level above, by label
    scale, total = Dyadic.term(1), 0  # the scale above the first level, and the bytes predicted so far
    for i, entry in enumerate(obj["levels"]):
        where = f"levels[{i}]"
        _check(isinstance(entry, dict), f"{where} must be a JSON object")
        missing = next((key for key in ("n", "scale", "a", "b", *COLUMNS) if key not in entry), None)
        _check(missing is None, f"{where}: file is missing field {missing!r}")
        n, labels, parents, *lengths = (entry[key] for key in ("n", *COLUMNS))
        _check(type(n) is int and n == first + i, f"{where}: field 'n' must be {first + i}")
        m, e, _ = next(steps)
        for key, column in zip(COLUMNS, (labels, parents, *lengths)):
            _check(isinstance(column, list), f"{where}: field {key!r} must be a list")
            _check(len(column) == len(labels), f"{where}: field {key!r} holds {len(column)} entries, "
                                               f"not the {len(labels)} of 'label'")
        scale, total = _next_scale(scale, m, e, len(labels), total, f"{where}: field 'label'")
        declared = _field(entry, "scale", where, partial(Dyadic.from_digits, max_bits=scale.bit_length()))
        if declared != scale:
            raise ValueError(f"{where}: field 'scale' is not {scale.digits()}, the scale its source gives")
        distinct = set()
        for label, parent in zip(labels, parents):
            if type(label) is not int or label in distinct:
                raise ValueError(f"{where}: field 'label' {label!r} is not a distinct integer")
            distinct.add(label)
            if type(parent) not in (int, type(None)) or parent not in above:
                raise ValueError(
                    f"{where} label {label}: field 'parent' {parent!r} is not "
                    + ("null on the first level" if i == 0 else "a label of the level above")
                )
        # no start or width lies 2^64 scales from zero
        decode = partial(_read_once, {}, max_bits=scale.bit_length() + 64)
        columns = [_column(key, texts, labels, where, decode) for key, texts in zip(LENGTHS, lengths)]
        cells = {
            label: Cell(label, start, width, inset, core_width, parent, scale, above[parent])
            for label, parent, start, width, inset, core_width in zip(labels, parents, *columns)
        }
        a, b = (_field(entry, key, where, decode) for key in "ab")
        levels.append(SchemeLevel(first + i, scale, a, b, cells))
        above = cells
    return EmbeddingScheme(kind, json.loads(canonical_dumps(source)), levels, **symbolic)


def ratio_csv(scheme: EmbeddingScheme) -> str:
    """CSV table of computed ratios per depth with exact numerator/denominator."""
    import csv

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


def render_svg(scheme: EmbeddingScheme) -> str:
    """Approximate picture of the scheme: carriers outlined, cores filled.

    Intended for eyeballing the nesting only; endpoints are rounded to float
    (each an integer of :func:`absolute_level` divided by its level's
    scale, the float ``Fraction`` gives) and widths are clamped to stay
    visible, so nothing here is exact.
    """
    width, row_height, pad = 960, 56, 20.0
    levels = [absolute_level(scheme, lvl.n) for lvl in scheme.levels]
    scale, first = levels[0]
    lo = min(carrier[0] for carrier, _ in first.values()) / scale
    hi = max(carrier[1] for carrier, _ in first.values()) / scale
    span = max(hi - lo, 1e-9)
    inner = width - 2 * pad

    def x(value: int, scale: int) -> float:
        return pad + (value / scale - lo) / span * inner

    height = row_height * len(scheme.levels) + 2 * pad
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height:.0f}" '
        f'viewBox="0 0 {width} {height:.0f}">',
        f'<title>{scheme.kind} scheme (approximate)</title>',
    ]
    for row, (lvl, (scale, cells)) in enumerate(zip(scheme.levels, levels)):
        y = pad + row * row_height
        parts.append(
            f'<text x="4" y="{y + 14:.1f}" font-size="11" font-family="monospace">'
            f"n={lvl.n}</text>"
        )
        for (a_lo, a_hi), (d_lo, d_hi) in sorted(cells.values(), key=lambda cell: cell[0][0]):
            ax, aw = x(a_lo, scale), max(x(a_hi, scale) - x(a_lo, scale), 0.7)
            dx, dw = x(d_lo, scale), max(x(d_hi, scale) - x(d_lo, scale), 0.7)
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
