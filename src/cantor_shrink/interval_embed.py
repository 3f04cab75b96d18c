"""Nested-interval embeddings of odometers and graph covers on the real line.

Every depth-``n`` cylinder of the symbolic system receives a closed carrier
interval ``A`` and a concentric core ``D`` strictly inside it, with exact
rational endpoints.  The induced map sends the core of a cell into the core of
its successor cell, and the geometry is tuned so that successor cores shrink
fast enough for the derivative-ratio and locally-radially-shrinking
certificates to close at every finite depth, away from a single exceptional
cell per level.

Each level stores its endpoints as integers over one scale S_n, a multiple
of S_{n-1}, so certificates compare integers (rescaled by S_{n+1}/S_n across
levels) instead of normalising fractions with denominators of 10^4+ bits.
Both builders make every level factor S_{n+1}/S_n a small number m times
2^e (k_{n+1} 2^(n + E_{n+1}) for the odometer, 3 * 2^(e + 1) for graph
covers), and the source descriptor gives each level's (m, e)
(:func:`_level_factors`).  A level's integers are carried to the next
level's scale as ``x * m << e``, a product by a small int and a shift, with
(m, e) worked out once per level pair: no per-cell product by the dense
factor, and no division of one scale by the other.  The odometer's core
widths are powers of two, so the one product of two scheme integers, the
derivative ratio's cross-multiplication, goes through :func:`_mul`, which
multiplies the odd parts and shifts the product back.
Files and pair-margin reports write those integers, and the scale, as
signed binary digits (:func:`~cantor_shrink.exact.int_to_digits`).  A
scheme file (format 4) writes each cell as offsets over its level's scale:
the carrier's start from its parent's core start, the core's start from the
carrier's, and the two widths.  A carrier lies in its parent's core, so an
offset has only the digits below the parent's, and the reader adds the
offsets back onto the parent's core start to rebuild the absolute integers.

Two builders are provided: :func:`build_odometer_scheme` for adding machines
and :func:`build_graph_scheme` for inverse limits of graph covers.  Both feed
the same verification battery (:func:`verify_derivative_ratios`,
:func:`verify_lrs_pairs`, :func:`audit_scheme`) and the same canonical JSON
serialization, so a scheme written to disk can be re-audited verbatim.  A
loaded level's scale must be the one its source descriptor gives
(:func:`_odometer_scale_steps`, :func:`_graph_scale_steps`), and builders
and the reader admit each level by its predicted bytes (:func:`_next_scale`)
before it is made, growing a graph cover tower one admitted level at a time.

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
from typing import TYPE_CHECKING, Iterator, NamedTuple

from cantor_shrink.exact import (
    ClosedInterval,
    approx_float,
    canonical_dumps,
    check_memory,
    dense_bytes,
    digits_to_int,
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
SCHEME_FORMAT = 4


class Cell(NamedTuple):
    """One cylinder at one depth: carrier interval A, concentric core D.

    ``carrier`` and ``core`` are (lo, hi) integers over the level ``scale``;
    ``A`` and ``D`` are the same intervals in fractions, built on access.
    ``parent`` is the label of the depth-(n-1) cell whose core contains A,
    or None on the coarsest level.
    """

    label: int
    carrier: tuple[int, int]
    core: tuple[int, int]
    parent: int | None
    scale: int

    @property
    def A(self) -> ClosedInterval:
        return ClosedInterval(*(scaled_fraction(x, self.scale) for x in self.carrier))

    @property
    def D(self) -> ClosedInterval:
        return ClosedInterval(*(scaled_fraction(x, self.scale) for x in self.core))


def _width(pair: tuple[int, int]) -> int:
    return pair[1] - pair[0]


def _core_widths(level: SchemeLevel) -> dict[int, int]:
    """Label -> core width of every cell of a level, each subtracted once."""
    return {label: _width(c.core) for label, c in level.cells.items()}


class SchemeLevel(NamedTuple):
    """All cells of one depth, keyed by label; the endpoints and the level
    scales a, b are integers over ``scale``."""

    n: int
    scale: int
    a: int
    b: int
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


def _mul(x: int, y: int) -> int:
    """``x * y`` for any integers, as the product of their odd parts shifted
    left by their trailing zero bits together."""
    if not x or not y:
        return 0
    ex = (x & -x).bit_length() - 1
    ey = (y & -y).bit_length() - 1
    return (x >> ex) * (y >> ey) << ex + ey


def _level_bytes(cells: int, bits: int) -> int:
    """Per cell, carrier and core endpoints; per level, scale, a and b."""
    return dense_bytes(4 * cells + 3, bits)


def scheme_bytes(scheme: EmbeddingScheme) -> int:
    """The predicted bytes its builder or reader admitted the scheme by."""
    return sum(_level_bytes(len(lvl.cells), lvl.scale.bit_length()) for lvl in scheme.levels)


def _next_scale(scale: int, m: int, e: int, cells: int, total: int, where: str) -> tuple[int, int]:
    """S m 2^e, the scale below S, and ``total``, the predicted bytes of the levels above, plus
    this level's of ``cells`` cells: refused, naming ``where``, before the scale is formed."""
    total = check_memory(total + _level_bytes(cells, (scale * m).bit_length() + e), where)
    return scale * m << e, total


def _admit(steps: Iterator, first: int, cells) -> list[tuple]:
    """A builder's steps for levels ``first``, ``first`` + 1, …, each with its level's scale appended, and
    each level admitted with ``cells(n, step)`` cells (:func:`_next_scale`) before the next step is worked out."""
    admitted, scale, total = [], 1, 0
    for n, step in enumerate(steps, start=first):
        scale, total = _next_scale(scale, step[0], step[1], cells(n, step), total, f"depth {n}")
        admitted.append((*step, scale))
    return admitted


def _cell(label: int, lo: int, width: int, half: int, parent: int | None, scale: int) -> Cell:
    """Carrier [lo, lo + width] with a concentric core of half-length ``half``."""
    mid = lo + (width >> 1)
    return Cell(label, (lo, lo + width), (mid - half, mid + half), parent, scale)


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
    cells = {
        i: _cell(i, i * scale, 6 << bottom, 1 << rung * ((1 - i) % s_1), None, scale)
        for i in range(s_1)
    }
    levels = [SchemeLevel(1, scale, 6 << bottom, 6, cells)]

    for n in range(1, depth):
        prev = levels[-1]
        s_n, s_next = spec.extended_modulus(n), spec.extended_modulus(n + 1)
        k_next, e, rung, scale = steps[n]
        bottom = e - n  # E_{n+1}
        children: dict[int, Cell] = {}
        for i, cell in prev.cells.items():
            lo = cell.core[0] * k_next << e
            step = _width(cell.core) << e  # a k_next-th of the core over the new scale
            for m in range(k_next):
                j = i + m * s_n
                children[j] = _cell(j, lo + m * step, step, 1 << rung * ((s_n - j) % s_next), i, scale)
        levels.append(SchemeLevel(n + 1, scale, 6 << bottom, 6, dict(sorted(children.items()))))

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
    a = 6 << bottom
    s_0 = len(exponents)
    cells = {j: _cell(j, j * scale, a, 1 << bottom - e, None, scale) for j, e in sorted(exponents.items())}
    levels = [SchemeLevel(0, scale, a, a // 3 >> 2 * s_0 * s_0, cells)]

    for n in range(depth):
        prev = levels[-1]
        m, e, exponents, scale = steps[n + 1]
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
            lo = prev.cells[i].core[0] * m << e
            step = _width(prev.cells[i].core) << top - 1  # a twelfth of the core over the new scale
            for t, w in enumerate(fibre):
                j = signed_index(w)
                children[j] = _cell(j, lo + t * step, step, unit >> exponents[j], i, scale)
        a_next = max(_width(c.carrier) for c in children.values())
        levels.append(SchemeLevel(n + 1, scale, a_next, a_next >> s_next**2, dict(sorted(children.items()))))

    return EmbeddingScheme("graph", seq.descriptor(), levels, cover=seq)


def _level_factors(scheme: EmbeddingScheme) -> dict[int, tuple[int, int]]:
    """Depth n -> (m, e) for every level of ``scheme``, as its source
    descriptor gives them (:func:`_odometer_scale_steps`,
    :func:`_graph_scale_steps`): S_n = S_{n-1} m 2^e, and 1 is the scale
    above the first level.  A level's integers come to the scale of the level
    below as ``x * m << e``."""
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
            out["scale"] = int_to_digits(self.scale)
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
    m, e = _level_factors(scheme)[depth + 1]
    skip = exceptional_labels(scheme, depth)
    widths = _core_widths(level)
    best: tuple[int, int] | None = None  # numerator, denominator over the child scale
    for label in level.cells:
        if label in skip or not child_map[label]:
            continue
        image = max(widths[j] for j in induced_map_label(scheme, depth, label)) * m << e
        narrowest = min(_width(c.carrier) for c in child_map[label])
        if best is None or _mul(image, best[1]) > _mul(best[0], narrowest):
            best = (image, narrowest)
    if best is None:
        raise ValueError(f"no non-exceptional parents with children at depth {depth}")
    return scaled_fraction(*best)


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
    binary digits over it.  Each child's successor cells are looked up once,
    for the hull of their carriers and the set of their parents.
    """
    child_map = children_of(scheme, depth)
    skip = exceptional_labels(scheme, depth)
    child_level = scheme.level(depth + 1)
    cells = child_level.cells
    hulls, targets = {}, {}
    for label in cells:
        images = [cells[j] for j in induced_map_label(scheme, depth + 1, label)]
        hulls[label] = min(c.carrier[0] for c in images), max(c.carrier[1] for c in images)
        targets[label] = {c.parent for c in images}

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
            if scheme.kind == "graph" and len(targets[cu.label] | targets[cv.label]) > 1:
                excluded.append({**pair, "reason": "successors split across parents"})
                continue
            (u_lo, u_hi), (v_lo, v_hi) = hulls[cu.label], hulls[cv.label]
            sup = max(v_hi - u_lo, u_hi - v_lo)
            left, right = sorted((cu.core, cv.core))
            inf = right[0] - left[1]
            checked += 1
            if sup < inf:
                margins.append({**pair, "margin": int_to_digits(inf - sup)})
            else:
                witnesses.append({**pair, "sup": int_to_digits(sup), "inf": int_to_digits(inf)})
    return VerifyReport(
        check="lrs-pairs",
        passed=not witnesses,
        witnesses=witnesses,
        margins=margins,
        excluded=excluded,
        stats={"depth": depth, "pairs_checked": checked},
        scale=child_level.scale,
    )


# ---------------------------------------------------------------------------
# structural audit
# ---------------------------------------------------------------------------


def _audit_level_geometry(lvl: SchemeLevel, witnesses: list) -> None:
    cells = sorted(lvl.cells.values(), key=lambda c: c.carrier[0])
    for c in cells:
        left = c.core[0] - c.carrier[0]
        right = c.carrier[1] - c.core[1]
        if left != right:
            witnesses.append({"depth": lvl.n, "label": c.label, "reason": "core not concentric"})
        if left <= 0:
            witnesses.append({"depth": lvl.n, "label": c.label, "reason": "core touches carrier"})
    for prev, nxt in zip(cells, cells[1:]):
        if nxt.carrier[0] < prev.carrier[1]:
            witnesses.append(
                {"depth": lvl.n, "label": nxt.label, "reason": "carrier interiors overlap"}
            )
        if nxt.core[0] <= prev.core[1]:
            witnesses.append({"depth": lvl.n, "label": nxt.label, "reason": "cores not separated"})


def _encloses(outer: tuple[int, int], m: int, e: int, inner: tuple[int, int]) -> bool:
    """Whether ``outer`` (one level up, so scaled by m 2^e) contains ``inner``."""
    return outer[0] * m << e <= inner[0] and inner[1] <= outer[1] * m << e


def _audit_scales(scheme: EmbeddingScheme, factors: dict, witnesses: list) -> None:
    """Each level's scale must be the level above's times the factor that
    the source descriptor gives, so that the other checks, which carry
    integers across levels by that factor, compare over the stored scales."""
    above = 1
    for lvl in scheme.levels:
        m, e = factors[lvl.n]
        if lvl.scale != above * m << e:
            witnesses.append({"depth": lvl.n, "reason": "scale is not the one its source gives"})
        above = lvl.scale


def _audit_odometer(scheme: EmbeddingScheme, factors: dict, witnesses: list) -> None:
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
        widths = _core_widths(lvl)
        ladder = [widths[(s_prev + z) % s_n] for z in range(1, s_n + 1)]
        if any(x <= y for x, y in zip(ladder, ladder[1:])):
            witnesses.append({"depth": n, "reason": "core ladder not strictly decreasing"})
        for i, cell in lvl.cells.items():
            d = widths[i]
            if not lvl.a >= 3 * d >= lvl.b:
                witnesses.append({"depth": n, "label": i, "reason": "core outside [b/3, a/3]"})
            if n > 3 and 3 * d > _width(cell.carrier):
                witnesses.append({"depth": n, "label": i, "reason": "core above a third of carrier"})
            if i % s_n != s_prev % s_n:
                if widths[(i + 1) % s_n] << step != d:
                    witnesses.append(
                        {"depth": n, "label": i, "reason": "successor core ratio off ladder step"}
                    )
    for lvl, nxt in zip(scheme.levels, scheme.levels[1:]):
        s_n = spec.extended_modulus(lvl.n)
        m, e = factors[nxt.n]
        for j, cell in nxt.cells.items():
            if cell.parent != j % s_n:
                witnesses.append({"depth": nxt.n, "label": j, "reason": "parent is not j mod s_n"})
            elif not _encloses(lvl.cells[cell.parent].core, m, e, cell.carrier):
                witnesses.append(
                    {"depth": nxt.n, "label": j, "reason": "carrier leaves parent core"}
                )


def _audit_graph(scheme: EmbeddingScheme, factors: dict, witnesses: list) -> None:
    from cantor_shrink.graphcover import canonical_vertices, signed_index, vertex_with_signed_index

    seq = scheme.cover
    for lvl in scheme.levels:
        n = lvl.n
        s_n = len(seq.graph(n).vertices)
        expected = {signed_index(v) for v in canonical_vertices(seq.levels[n])}
        if set(lvl.cells) != expected:
            witnesses.append({"depth": n, "reason": "labels do not match the level's vertices"})
            continue
        if lvl.a != max(_width(c.carrier) for c in lvl.cells.values()):
            witnesses.append({"depth": n, "reason": "level scale is not the widest carrier"})
        if lvl.a << n > lvl.scale:
            witnesses.append({"depth": n, "reason": "level scale exceeds 2^-n"})
        if n > 0 and lvl.b << s_n * s_n != lvl.a:
            witnesses.append({"depth": n, "reason": "stored b does not match its formula"})
        for j, cell in lvl.cells.items():
            d = _width(cell.core)
            if d << s_n > lvl.a:
                witnesses.append({"depth": n, "label": j, "reason": "core too wide for its level"})
            if _width(cell.carrier) - d <= 2 * d:
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
            core = lvl.cells[cell.parent].core
            if _width(cell.carrier) * SLOTS_PER_CORE != _width(core) * m << e:
                witnesses.append(
                    {"depth": nxt.n, "label": j, "reason": "carrier is not a twelfth of the core"}
                )
            if not _encloses(core, m, e, cell.carrier):
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
    for lvl in scheme.levels:
        _audit_level_geometry(lvl, witnesses)
    if scheme.kind == "odometer":
        _audit_odometer(scheme, factors, witnesses)
    else:
        _audit_graph(scheme, factors, witnesses)
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
    """Format-4 JSON: each level's scale, a and b as signed binary digits
    (:func:`int_to_digits`), the last two over that scale, and each cell as
    offsets and widths over it: ``A`` is [carrier start - parent core start,
    carrier width] and ``D`` is [core start - carrier start, core width],
    carrier starts on the first level counting from 0.  A carrier sits in its
    parent's core, so an offset has the few digits below the parent's, where
    an absolute endpoint repeats all of them."""
    from copy import deepcopy

    levels = []
    factors = _level_factors(scheme)
    for above, lvl in zip([None, *scheme.levels], scheme.levels):
        m, e = factors[lvl.n]
        cells = []
        for c in lvl.cells.values():
            (lo, hi), (core_lo, core_hi) = c.carrier, c.core
            start = lo if c.parent is None else lo - (above.cells[c.parent].core[0] * m << e)
            cells.append({
                "label": c.label,
                "A": [int_to_digits(start), int_to_digits(hi - lo)],
                "D": [int_to_digits(core_lo - lo), int_to_digits(core_hi - core_lo)],
                "parent": c.parent,
            })
        levels.append({
            "n": lvl.n,
            "scale": int_to_digits(lvl.scale),
            "a": int_to_digits(lvl.a),
            "b": int_to_digits(lvl.b),
            "cells": cells,
        })
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


def _offset_width(value, decode) -> tuple[int, int]:
    _check(isinstance(value, list) and len(value) == 2, "not an [offset, width] pair")
    offset, width = decode(value[0]), decode(value[1])
    _check(width >= 0, "width < 0")
    return offset, width


def scheme_signed_digits(obj: dict) -> int:
    """The nonzero digits of every signed-digit string of a scheme file that
    :func:`scheme_from_json` has read: the work its load decoded."""
    levels = obj["levels"]
    texts = [text for level in levels for text in (level["scale"], level["a"], level["b"])]
    texts += [text for level in levels for c in level["cells"] for text in (*c["A"], *c["D"])]
    return sum(text.count("+") + text.count("-") for text in texts)


def scheme_from_json(obj: dict) -> EmbeddingScheme:
    """Rebuild a scheme from its format-4 JSON form, geometry taken verbatim.

    The symbolic source is reconstructed from the descriptor so successor
    structure is available, but no interval is recomputed: each endpoint is
    its file offset added onto the parent's core start (:func:`scheme_to_json`),
    and verification then applies to exactly what the file says.  Depths
    count up from the kind's first depth, each level is admitted by the
    length of its ``cells`` list (:func:`_next_scale`) and its scale must be
    the one the descriptor gives, both before any endpoint is read, labels
    are distinct integers within a level, each parent is a
    label of the level above (null on the first level), each scale, a, b,
    offset and width is a canonical signed-digit string whose exponents stay
    within the bounds, and no width is negative.  A graph descriptor's cover
    tower is built one level at a time as the file's levels are read, so a
    file that claims more levels than it holds builds no more than it holds.
    The scheme keeps a copy of the descriptor, as the writer writes one, so
    editing ``obj`` after the load edits no scheme.

    Raises:
        ValueError: naming the field, when the file does not fit the schema;
            a file of another format is told to rebuild from its source.
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
    scale, total = 1, 0  # the scale above the first level, and the bytes predicted so far
    for i, entry in enumerate(obj["levels"]):
        where = f"levels[{i}]"
        _check(isinstance(entry, dict), f"{where} must be a JSON object")
        _check(type(entry["n"]) is int and entry["n"] == first + i, f"{where}: field 'n' must be {first + i}")
        m, e, _ = next(steps)
        _check(isinstance(entry["cells"], list), f"{where}: field 'cells' must be a list")
        scale, total = _next_scale(scale, m, e, len(entry["cells"]), total, f"{where}: field 'cells'")
        declared = _field(entry, "scale", where, partial(digits_to_int, max_bits=scale.bit_length()))
        if declared != scale:
            raise ValueError(f"{where}: field 'scale' is not {int_to_digits(scale)}, the scale its source gives")
        # no offset or width lies 2^64 scales from zero
        decode = partial(digits_to_int, max_bits=scale.bit_length() + 64)
        pair = partial(_offset_width, decode=decode)
        cells = {}
        for c in entry["cells"]:
            if not isinstance(c, dict):
                raise ValueError(f"{where}: each cell must be a JSON object")
            label, parent = c["label"], c["parent"]
            if type(label) is not int or label in cells:
                raise ValueError(f"{where}: field 'label' {label!r} is not a distinct integer")
            if type(parent) not in (int, type(None)) or parent not in above:
                raise ValueError(
                    f"{where} label {label}: field 'parent' {parent!r} is not "
                    + ("null on the first level" if i == 0 else "a label of the level above")
                )
            here = f"{where} label {label}"
            offset, width = _field(c, "A", here, pair)
            inset, core_width = _field(c, "D", here, pair)
            lo = offset if parent is None else (above[parent].core[0] * m << e) + offset
            core_lo = lo + inset
            cells[label] = Cell(label, (lo, lo + width), (core_lo, core_lo + core_width), parent, scale)
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
    and widths are clamped to stay visible, so nothing here is exact.
    """
    width, row_height, pad = 960, 56, 20.0
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
        for c in sorted(lvl.cells.values(), key=lambda c: c.carrier[0]):
            A, D = c.A, c.D
            ax, aw = x(A.lo), max(x(A.hi) - x(A.lo), 0.7)
            dx, dw = x(D.lo), max(x(D.hi) - x(D.lo), 0.7)
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
