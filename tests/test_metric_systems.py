import hashlib
import itertools
import json
import math
import operator
import random
from fractions import Fraction
from functools import partial

import hypothesis as h
import hypothesis.strategies as st
import pytest

from cantor_shrink import exact
from cantor_shrink.exact import MEMORY_BOUND, canonical_dumps, dense_bytes, digits_to_int, int_to_digits, system_bytes
from cantor_shrink.graphcover import build_sequence
from cantor_shrink.interval_embed import build_graph_scheme, build_odometer_scheme
from cantor_shrink.metric_systems import (
    OMEGA,
    FinitePointSystem,
    LrsResult,
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
from cantor_shrink.metric_systems import core
from cantor_shrink.metric_systems.core import _random_system, _shrinking_claims, _vanishing_step
from cantor_shrink.metric_systems.deformed import _outer_positions
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
        FinitePointSystem.from_positions({0: Fraction(0)}, {0: 7})
    with pytest.raises(ValueError):
        FinitePointSystem.from_positions(
            {0: Fraction(0), 1: Fraction(1)}, {0: 0, 1: 0}, eps={0: Fraction(0), 1: Fraction(1)}
        )


positive = st.fractions(min_value=Fraction(1, 8), max_value=4, max_denominator=12)


def reference_constructor_error(points, coords, step):
    """The first ValueError text of the constructor's checks, run as
    per-pair loops over the points, or None when every check passes."""
    index = {x: i for i, x in enumerate(points)}
    n = len(points)
    if not points or len(index) != n:
        return "points must be nonempty and distinct"
    for x in points:
        if step.get(x) not in index:
            return f"map must send {x!r} to a point of the system"
    for i in range(n):
        for j in range(i + 1, n):
            if coords[i] == coords[j]:
                return f"points {points[i]!r} and {points[j]!r} share one coordinate tuple"
    return None


FAULTS = ("repeated-tuple", "missing-target", "duplicate-point")


@st.composite
def faulty_systems(draw):
    """Up to nine distinct integer points on the line or in the plane under
    a random map, with one or two faults from FAULTS planted (a fault
    needing more points than drawn is skipped), so that the order of the
    checks is pinned as well as their texts."""
    n = draw(st.integers(min_value=1, max_value=9))
    dim = draw(st.integers(min_value=1, max_value=2))
    coords = draw(st.lists(st.tuples(*[st.integers(-20, 20)] * dim), min_size=n, max_size=n, unique=True))
    points = [f"p{i}" for i in range(n)]
    step = {x: points[draw(st.integers(0, n - 1))] for x in points}
    pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    for fault in draw(st.lists(st.sampled_from(FAULTS), min_size=1, max_size=2)):
        if fault == "repeated-tuple" and n > 1:
            i, j = draw(pair)
            coords[i] = coords[j]
        elif fault == "duplicate-point" and n > 1:
            i, j = draw(pair)
            points[i] = points[j]
        elif fault == "missing-target":
            x = draw(st.sampled_from(points))
            if draw(st.booleans()):
                step.pop(x, None)
            else:
                step[x] = "q"
    return points, coords, step


@h.given(case=faulty_systems())
@h.example(case=([], [], {}))
@h.settings(derandomize=True, max_examples=400, deadline=None)
def test_constructor_names_the_first_fault_as_the_per_pair_loops_do(case):
    points, coords, step = case
    want = reference_constructor_error(points, coords, step)
    try:
        FinitePointSystem(points, 1, coords, step)
    except ValueError as exc:
        assert str(exc) == want
    else:
        assert want is None


@st.composite
def small_systems(draw):
    """Systems of up to six distinct plane points (L1 metric) under a random
    map, with radii (or thresholds) often a distance itself or half a unit
    of the system's scale to either side of one, so the checks meet d == r
    and the rounding of r to the scale."""
    n = draw(st.integers(min_value=1, max_value=6))
    coord = st.fractions(min_value=-2, max_value=2, max_denominator=9)
    xs = draw(st.lists(coord, min_size=n, max_size=n, unique=True))
    ys = draw(st.lists(coord, min_size=n, max_size=n))
    positions = {f"p{i}": (xs[i], ys[i]) for i in range(n)}
    step = {x: f"p{draw(st.integers(0, n - 1))}" for x in positions}
    distances = sorted({abs(a - c) + abs(b - e) for a, b in zip(xs, ys) for c, e in zip(xs, ys)} - {0})
    half_unit = Fraction(1, 2 * math.lcm(*(c.denominator for c in xs + ys)))
    near = st.builds(operator.add, st.sampled_from(distances), st.sampled_from([0, half_unit, -half_unit]))
    radius = st.one_of(near, positive) if distances else positive
    eps = draw(st.none() | st.fixed_dictionaries({x: radius for x in positions}))
    return FinitePointSystem.from_positions(positions, step, eps=eps), draw(radius)


def reference_check_lrs(system):
    """check_lrs as a loop over every ordered pair of Fraction distances."""
    pts, d, f = system.points, system.d, system.map.get
    radii = system.eps
    if radii is None:
        diameter = max(d(x, y) for x in pts for y in pts)
        radii = {
            x: min((d(x, y) for y in pts if y != x and d(f(x), f(y)) >= d(x, y)), default=diameter + 1)
            for x in pts
        }
    worst = None
    for x in pts:
        for y in pts:
            if y == x or d(x, y) >= radii[x]:
                continue
            margin = d(x, y) - d(f(x), f(y))
            if margin <= 0:
                return LrsResult(False, (x, y), margin), radii
            if worst is None or margin < worst:
                worst = margin
    return LrsResult(True, None, worst), radii


def reference_separated_count(system, n, eps):
    """Largest set of points whose n-step orbits pairwise eps-separate, by
    trying every subset."""
    pts = system.points
    orbits = {}
    for x in pts:
        orbits[x] = [x]
        for _ in range(n - 1):
            orbits[x].append(system.map[orbits[x][-1]])
    apart = {
        (x, y): any(system.d(u, v) > eps for u, v in zip(orbits[x], orbits[y])) for x in pts for y in pts
    }
    return max(
        len(sub)
        for k in range(1, len(pts) + 1)
        for sub in itertools.combinations(pts, k)
        if all(apart[x, y] for x, y in itertools.combinations(sub, 2))
    )


@h.given(case=small_systems())
@h.settings(derandomize=True, max_examples=150, deadline=None)
def test_integer_certificates_match_the_fraction_loops(case):
    """Radii, radial and global shrinking and separated counts computed on
    integers over the scale agree with the same checks on Fractions."""
    system, eps = case
    lrs, radii = reference_check_lrs(system)
    assert check_lrs(system) == lrs
    if system.eps is None:
        assert computed_radii(system) == radii
    pts = system.points
    assert check_shrinking(system) == all(
        system.d(system.map[x], system.map[y]) < system.d(x, y) for x, y in itertools.combinations(pts, 2)
    )
    for n in (1, 2):
        assert separated_count(system, n, eps) == reference_separated_count(system, n, eps)


# a 2-cycle and a 3-cycle on the line whose pair (a0, b0) separates at
# 8/5 only at its sixth step, more than |P| steps on: a walk of |P| steps
# would count 4 points at n = 6 where there are 5
TWO_CYCLES = FinitePointSystem.from_positions(
    {"a0": Fraction(3), "a1": Fraction(0), "b0": Fraction(3, 2), "b1": Fraction(29, 20), "b2": Fraction(31, 10)},
    {"a0": "a1", "a1": "a0", "b0": "b1", "b1": "b2", "b2": "b0"},
)


@h.given(case=small_systems(), n=st.integers(min_value=1, max_value=80))
@h.example(case=(TWO_CYCLES, Fraction(8, 5)), n=6)
@h.settings(derandomize=True, max_examples=100, deadline=None)
def test_separated_count_walks_at_most_the_square_of_the_points(case, n):
    """Orbits walked for min(n, |P|^2) steps give the count of orbits walked
    for all n, so a request of 10^12 steps costs what |P|^2 does."""
    system, eps = case
    assert separated_count(system, n, eps) == reference_separated_count(system, n, eps)
    assert separated_count(system, 10**12, eps) == reference_separated_count(system, len(system.points) ** 2, eps)


@st.composite
def l1_points(draw):
    """Up to eight integer tuples of one to three axes, distinct or drawn
    freely (and then often repeating one), under a random map over a random
    scale, with radii or none."""
    n = draw(st.integers(min_value=1, max_value=8))
    axes = draw(st.integers(min_value=1, max_value=3))
    tuples = st.tuples(*[st.integers(-4, 4)] * axes)
    coords = draw(st.lists(tuples, min_size=n, max_size=n, unique=draw(st.booleans())))
    points = [f"p{i}" for i in range(n)]
    step = {x: points[draw(st.integers(0, n - 1))] for x in points}
    radius = st.fractions(min_value=Fraction(1, 12), max_value=4, max_denominator=12)
    eps = draw(st.none() | st.fixed_dictionaries({x: radius for x in points}))
    return points, draw(st.integers(min_value=1, max_value=12)), coords, step, eps


@h.given(case=l1_points(), threshold=st.fractions(min_value=Fraction(1, 4), max_value=6, max_denominator=4))
@h.settings(derandomize=True, max_examples=150, deadline=None)
def test_coordinates_and_their_explicit_matrix_give_one_system(case, threshold):
    """A system built from coordinates, checked for distinct tuples only,
    holds their L1 matrix and gives back every distance as the reduced
    Fraction, and is refused on a repeated tuple, naming the first pair in
    point order; its file and its product hold the matrices they should."""
    points, scale, coords, step, eps = case
    dist = [[sum(abs(a - b) for a, b in zip(p, q)) for q in coords] for p in coords]
    try:
        built = FinitePointSystem(points, scale, coords, step, eps=eps)
    except ValueError as exc:
        i, j = next((i, j) for i, j in itertools.combinations(range(len(coords)), 2) if coords[i] == coords[j])
        assert str(exc) == f"points {points[i]!r} and {points[j]!r} share one coordinate tuple"
        return
    assert built.dist == dist
    for (i, x), (j, y) in itertools.product(enumerate(points), repeat=2):
        got, want = built.d(x, y), Fraction(dist[i][j], scale)
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    # a file holds the coordinates, and loads to the system of the same
    # matrix, over a scale the file's radii may have multiplied
    loaded = system_from_json(json.loads(canonical_dumps(system_to_json(built))))
    assert loaded.dist == [[d * (loaded.scale // scale) for d in row] for row in dist]
    assert check_lrs(loaded) == check_lrs(built) and check_shrinking(loaded) == check_shrinking(built)
    assert computed_radii(loaded) == computed_radii(built)
    for n in (1, 2):
        assert separated_count(loaded, n, threshold) == separated_count(built, n, threshold)
    # a product carries its factors' coordinates side by side, so its metric
    # is the sum of theirs, here over a scale both factors' scales divide
    product = product_system(built, FinitePointSystem(points, scale + 1, coords, step))
    up, up_other = product.scale // scale, product.scale // (scale + 1)
    summed = [[u * up + v * up_other for u in row for v in other] for row in dist for other in dist]
    assert system_from_json(system_to_json(product)).dist == product.dist == summed


def test_system_takes_one_coordinate_tuple_per_point():
    points, step = [0, 1], {0: 0, 1: 0}
    with pytest.raises(ValueError, match=r"^coordinates must be 2 tuples of one length$"):
        FinitePointSystem(points, 1, [(0,), (1, 2)], step)
    with pytest.raises(ValueError, match=r"^coordinates must be 2 tuples of one length$"):
        FinitePointSystem(points, 1, [(0,)], step)
    assert FinitePointSystem(points, 1, [(0,), (1,)], step).dist == [[0, 1], [1, 0]]


def test_computed_radii_fallback_past_diameter():
    chain = halving_chain(4)
    radii = computed_radii(chain)
    diameter = max(chain.d(x, y) for x in chain.points for y in chain.points)
    assert all(r == diameter + 1 for r in radii.values())


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


def fraction_random_system(rng, max_size):
    """The oracle's random system as it was built from Fraction positions,
    which ``from_positions`` puts over their least common denominator."""
    kind = rng.randrange(3)
    if kind == 0:
        pos = Fraction(rng.randrange(1, 1000), 997)
        return FinitePointSystem.from_positions({0: pos}, {0: 0})
    n = rng.randint(2, max_size)
    if kind == 1:
        values = rng.sample(range(1, 4000), n)
        positions = {i: Fraction(values[i], 3989) for i in range(n)}
        step = {i: rng.randrange(n) for i in range(n)}
        return FinitePointSystem.from_positions(positions, step)
    centre = Fraction(rng.randrange(1000), 997)
    offset = Fraction(rng.choice([-1, 1]) * rng.randrange(1, 50), 49)
    positions = {i: centre + offset / 2 ** (n - 1 - i) for i in range(n)}
    step = {i: max(i - 1, 0) for i in range(n)}
    return FinitePointSystem.from_positions(positions, step)


@h.given(seed=st.integers(min_value=0, max_value=2**64), max_size=st.integers(min_value=2, max_value=12))
@h.settings(derandomize=True, max_examples=100, deadline=None)
def test_integer_oracle_systems_match_the_fraction_construction(seed, max_size):
    ints, fractions = random.Random(seed), random.Random(seed)
    for _ in range(30):
        got = _random_system(ints, max_size)
        want = fraction_random_system(fractions, max_size)
        assert ints.getstate() == fractions.getstate()
        assert (got.points, got.map) == (want.points, want.map)
        assert [got.d(x, y) for x in got.points for y in got.points] == [
            want.d(x, y) for x in want.points for y in want.points
        ]


# sha256 of the canonical JSON of the oracle report at the benchmark's trial
# count, pinned while the random systems were built from Fraction positions
ORACLE_5000_SHA256 = {
    0: "04d1b76f86914ee00471e3b2cbf8123b1bd2823c4dba0de041d981c877049dee",
    7: "b27a4c318e8991c5607b3ac8a1d645c0c737f4ab71a25598e21ce5ed1f2703fb",
    123: "9af8661e92b3ca1817e0edd280be0d19f2856dd4b6fc17664fbda658c082324c",
}


@pytest.mark.parametrize("seed", sorted(ORACLE_5000_SHA256))
def test_oracle_5000_trials_pinned(seed):
    report = canonical_dumps(shrinking_propositions_oracle(trials=5000, seed=seed))
    assert hashlib.sha256(report.encode()).hexdigest() == ORACLE_5000_SHA256[seed]


def per_trial_oracle(trials, max_size, seed):
    """The oracle as a loop that decides the propositions on every
    shrinking trial, with no cache."""
    rng = random.Random(seed)
    report = {
        "trials": trials,
        "max_size": max_size,
        "seed": seed,
        "shrinking_systems": 0,
        "surjective_shrinking": 0,
        "max_preimage_vanishing_step": 0,
        "counterexamples": [],
    }
    for t in range(trials):
        sys = _random_system(rng, max_size)
        if not check_shrinking(sys):
            continue
        report["shrinking_systems"] += 1
        surjective, claims, steps = _shrinking_claims(sys.succ)
        report["surjective_shrinking"] += surjective
        report["counterexamples"] += [{"trial": t, "claim": claim} for claim in claims]
        report["max_preimage_vanishing_step"] = max(report["max_preimage_vanishing_step"], steps)
    return report


@h.given(
    seed=st.integers(min_value=0, max_value=2**64),
    max_size=st.integers(min_value=2, max_value=12),
    trials=st.integers(min_value=1, max_value=300),
)
@h.settings(derandomize=True, max_examples=100, deadline=None)
def test_oracle_matches_the_per_trial_loop(seed, max_size, trials):
    report = shrinking_propositions_oracle(trials=trials, max_size=max_size, seed=seed)
    assert report == per_trial_oracle(trials, max_size, seed)


@pytest.mark.parametrize("seed", sorted(ORACLE_5000_SHA256))
def test_oracle_decides_each_distinct_map_once(seed, monkeypatch):
    rng = random.Random(seed)
    systems = (_random_system(rng, 8) for _ in range(5000))
    distinct = {tuple(sys.succ) for sys in systems if check_shrinking(sys)}
    calls = []

    def counted(succ):
        calls.append(tuple(succ))
        return _shrinking_claims(succ)

    monkeypatch.setattr(core, "_shrinking_claims", counted)
    shrinking_propositions_oracle(trials=5000, seed=seed)
    assert sorted(calls) == sorted(distinct)


@pytest.mark.parametrize("max_size", [1, 0, -2])
def test_oracle_refuses_max_size_below_two_before_any_trial(max_size, monkeypatch):
    monkeypatch.setattr(core, "_random_system", None)  # a trial would call it
    with pytest.raises(ValueError, match=rf"^the oracle's max_size must be at least 2, not {max_size}$"):
        shrinking_propositions_oracle(trials=10, max_size=max_size)


def preimage_lists(succ):
    lists = [[] for _ in succ]
    for y, x in enumerate(succ):
        lists[x].append(y)
    return lists


def scanning_vanishing_step(succ, x):
    """The preimage walk that scans every point for preimages at each step."""
    pts = range(len(succ))
    level, steps = {x}, 0
    while level and steps <= len(pts):
        level = {y for y in pts if succ[y] in level}
        steps += 1
    return None if level else steps


@pytest.mark.parametrize(
    "succ, found",
    [([1, 0], (True, ["surjective", "unique-fixed-point"], 0)), ([0, 1, 1], (False, ["unique-fixed-point"], 0))],
    ids=["two-cycle", "two-fixed-points"],
)
def test_maps_that_break_the_propositions_are_named(succ, found):
    assert _shrinking_claims(succ) == found


@pytest.mark.parametrize("n", range(1, 9))
def test_preimages_of_a_halving_chain_vanish(n):
    succ = [max(i - 1, 0) for i in range(n)]
    steps = [_vanishing_step(preimage_lists(succ), x) for x in range(1, n)]
    # point i is the image of point i + 1 alone, so its preimages are gone
    # after n - i steps
    assert steps == [scanning_vanishing_step(succ, x) for x in range(1, n)] == list(range(n - 1, 0, -1))
    assert _shrinking_claims(succ) == (n == 1, [], n - 1)


@pytest.mark.parametrize("n", range(1, 6))
def test_preimages_on_a_cycle_never_vanish(n):
    succ = [(i + 1) % n for i in range(n)]
    assert [_vanishing_step(preimage_lists(succ), x) for x in range(n)] == [None] * n
    assert [scanning_vanishing_step(succ, x) for x in range(n)] == [None] * n


def test_oracle_reports_every_broken_claim(monkeypatch):
    """With every system taken as shrinking, the random maps that are not
    contractions land in the report under their trial, claim by claim."""
    monkeypatch.setattr(core, "check_shrinking", lambda sys: True)
    report = shrinking_propositions_oracle(trials=40, max_size=5, seed=2)
    rng = random.Random(2)
    claims = [_shrinking_claims(_random_system(rng, 5).succ)[1] for _ in range(40)]
    assert report["shrinking_systems"] == 40
    assert report["counterexamples"] == [{"trial": t, "claim": c} for t, cs in enumerate(claims) for c in cs]
    assert {c["claim"] for c in report["counterexamples"]} == {"surjective", "unique-fixed-point"}


# ---------------------------------------------------------------------------
# separated sets, entropy, midpoint systems
# ---------------------------------------------------------------------------


def test_midpoint_system_takes_a_level_up_to_the_point_bound(od248, monkeypatch):
    # 8 points, predicted over twice the level's scale before any midpoint
    # is formed, then over the system's own scale, which divides it
    predicted = system_bytes(8, od248.level(3).scale.bit_length() + 1)
    assert system_bytes(8, midpoint_system(od248, 3).scale.bit_length()) <= predicted
    monkeypatch.setattr(exact, "MEMORY_BOUND", predicted)
    assert len(midpoint_system(od248, 3).points) == 8
    monkeypatch.setattr(exact, "MEMORY_BOUND", predicted - 1)
    monkeypatch.setattr(core, "absolute_level", lambda *args: pytest.fail("a midpoint was formed"))
    with pytest.raises(ValueError, match=rf"^depth 3: predicted {predicted} bytes of integers, past the bound"):
        midpoint_system(od248, 3)


def test_scheme_positions_are_the_core_midpoints_of_the_fractions():
    """The midpoint systems at depths 1-8 of the (2, 4, 8) odometer, the
    extension's points at refinements 3-8 (the least a return level admits)
    and the deformed triple's outer coordinates, taken from absolute_level,
    are the midpoints of the Fraction cores Cell.D gives."""
    od8 = build_odometer_scheme(OdometerSpec.from_list([2, 4, 8]), 8)

    def midpoints(depth):
        return {label: (c.D.lo + c.D.hi) / 2 for label, c in od8.level(depth).cells.items()}

    for depth in range(1, 9):
        system = midpoint_system(od8, depth)
        assert {x: Fraction(c, system.scale) for x, (c,) in zip(system.points, system.coords)} == midpoints(depth)
    for refine in range(3, 9):
        ext = build_attractor_repellor(od8, levels=1, tail=0, refine=refine)
        mids, s_m = midpoints(refine), od8.spec.extended_modulus(refine)
        # a sheet point ("sheet", label, sign) and an orbit point ("y", j) sit over label and j mod s_m
        assert all(x == mids[u[1] % s_m] for u, (x, _) in ext.positions.items())
        assert {u[1] for u in ext.positions if u[0] == "sheet"} == set(mids)
    s_1 = od8.spec.extended_modulus(1)
    assert _outer_positions(od8) == {label: mid / s_1 for label, mid in midpoints(1).items()}


def test_full_shift_is_refused_before_its_words(monkeypatch):
    # the words of length 6 are 64 points over the scale 2^7; the bound is
    # checked at each length up to the one asked for, before any word exists
    predicted = system_bytes(64, 8)
    monkeypatch.setattr(exact, "MEMORY_BOUND", predicted)
    assert len(full_shift_midpoint_system(6).points) == 64
    monkeypatch.setattr(exact, "MEMORY_BOUND", predicted - 1)
    monkeypatch.setattr(core, "format", None, raising=False)  # no word is written
    for depth in (6, 7, 10**18):
        with pytest.raises(ValueError, match=rf"^word length 6: predicted {predicted} bytes of integers, past"):
            full_shift_midpoint_system(depth)


def test_system_prediction_is_near_the_traced_peak(od248):
    """The predicted bytes of the shift of word lengths 6 and 9 and of the
    depth-8 midpoints of the (2, 4, 8) odometer are within 25 % of the peak
    tracemalloc sees while each is built: the matrix's slots, its int
    objects past 256, and what each point holds besides."""
    import tracemalloc

    od8 = build_odometer_scheme(OdometerSpec.from_list([2, 4, 8]), 8)
    for build in (partial(full_shift_midpoint_system, 6), partial(full_shift_midpoint_system, 9),
                  partial(midpoint_system, od8, 8)):
        tracemalloc.start()
        try:
            system = build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        predicted = system_bytes(len(system.points), system.scale.bit_length())
        assert 0.75 < predicted / peak < 1.25, (build, predicted, peak)


def test_coordinate_systems_are_refused_past_the_bound_before_their_matrix():
    # 2^15 points of one small coordinate predict 9.6 GB of distances
    n = 1 << 15
    with pytest.raises(ValueError, match=rf"^{n} points over a 16-bit scale: predicted \d+ bytes of integers"):
        FinitePointSystem(list(range(n)), 1 << 15, [(i,) for i in range(n)], {i: 0 for i in range(n)})
    assert system_bytes(n, 16) > MEMORY_BOUND


def test_separated_count_takes_at_most_the_clique_bound():
    # every system file written before files held coordinates had at most
    # 512 points; at 1,024 the clique search would recurse past Python's limit
    sh9 = full_shift_midpoint_system(9)
    assert core.CLIQUE_POINTS_LIMIT == len(sh9.points) == 512
    assert separated_count(sh9, 9, Fraction(1, 64)) == 512
    line = FinitePointSystem(list(range(513)), 1, [(i,) for i in range(513)], {i: i for i in range(513)})
    with pytest.raises(ValueError, match=r"^a separated count takes at most 512 points, not 513$"):
        separated_count(line, 3, Fraction(1, 2))


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
    assert sh4.map["0110"] == "1100"
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
    assert all(r.keys() == {"n", "count", "estimate"} for r in rows)
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
    assert all(again.d(x, y) == prod.d(x, y) for x in prod.points for y in prod.points)
    assert again.map == prod.map
    assert again.eps == prod.eps
    assert canonical_dumps(system_to_json(again)) == canonical_dumps(system_to_json(prod))


def test_system_and_extension_files_copy_the_source_they_write(od248, small_ext):
    m2 = midpoint_system(od248, 2)
    system_to_json(m2)["source"]["moduli"].append(16)
    assert m2.source == {"kind": "odometer-midpoints", "moduli": [2, 4], "depth": 2}
    extension_to_json(small_ext)["source"]["s"].append(16)
    assert small_ext.scheme.source == od248.source == {"rule": "list", "s": [2, 4, 8]}


def test_loaded_system_source_is_a_copy_of_the_objects(od248):
    m2 = midpoint_system(od248, 2)
    obj = system_to_json(m2)
    loaded = system_from_json(obj)
    obj["source"]["moduli"].append(16)
    obj["source"]["kind"] = "edited"
    assert loaded.source == m2.source == {"kind": "odometer-midpoints", "moduli": [2, 4], "depth": 2}
    assert canonical_dumps(system_to_json(loaded)) == canonical_dumps(system_to_json(m2))


@st.composite
def line_systems(draw):
    """Points on the line at multiples of 1/8, a random self-map, and radii
    that are often off the distance scale (1/7, 1/3, ...), or none."""
    n = draw(st.integers(min_value=1, max_value=5))
    xs = draw(st.lists(st.integers(-16, 16), min_size=n, max_size=n, unique=True))
    step = {i: draw(st.integers(0, n - 1)) for i in range(n)}
    eps = None
    if draw(st.booleans()):
        radius = st.fractions(min_value=Fraction(1, 9), max_value=4, max_denominator=9)
        eps = {i: draw(radius) for i in range(n)}
    return FinitePointSystem.from_positions({i: Fraction(x, 8) for i, x in enumerate(xs)}, step, eps=eps)


@h.given(line_systems())
@h.settings(derandomize=True, max_examples=100, deadline=None)
def test_system_json_roundtrip(system):
    """A loaded system has the same distances, map and radii, and writes the
    same bytes again; the file's one scale also puts each radius over it."""
    obj = system_to_json(system)
    again = system_from_json(json.loads(canonical_dumps(obj)))
    assert again.points == system.points and again.map == system.map
    assert all(again.d(x, y) == system.d(x, y) for x in system.points for y in system.points)
    assert again.eps == system.eps
    assert canonical_dumps(system_to_json(again)) == canonical_dumps(obj)
    if system.eps is not None:
        scale = digits_to_int(obj["scale"], 64)
        assert scale == math.lcm(system.scale, *(e.denominator for e in system.eps.values()))


def test_system_file_past_the_bound_is_refused_before_its_distances():
    import tracemalloc

    # 1000 points over a scale of 2^22 bits predict 560 GB of distances: the
    # file is refused from its counts and the scale's leading digit, before
    # the scale or any coordinate (here not even a digit string) is read;
    # each distance is taken as wide as the decoder lets a sum of k
    # coordinates grow, 66 bits past the scale and one per doubling of k
    obj = {
        "kind": "finite-system", "metric": "l1", "scale": "+4194303", "points": list(range(1000)),
        "coords": [["junk"]] * 1000, "map": [0] * 1000,
    }
    predicted = system_bytes(1000, 4194304 + 66 + 1) + dense_bytes(1000, 4194304 + 65)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^field 'coords': 1000 points, 1 coordinates each, over a 4194304-bit "
                                             rf"scale: predicted {predicted} bytes of integers, past the bound of "
                                             rf"{MEMORY_BOUND}$"):
            system_from_json(obj)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000 and predicted > 500 * 10**9
    # the same file over a 1-bit scale passes the bound, and its coordinates are read
    with pytest.raises(ValueError, match=r"^field 'coords': 'junk' is not a signed-digit string$"):
        system_from_json({**obj, "scale": "+0"})
    # one point whose many coordinates would decode to 52 GB is refused too
    many = {**obj, "points": [0], "coords": [["+4194303"] * 100_000], "map": [0]}
    with pytest.raises(ValueError, match=r"^field 'coords': 1 points, 100000 coordinates each, over a 4194304-bit"):
        system_from_json(many)


def test_system_file_of_wide_coordinates_over_a_small_scale_is_refused_before_decoding(monkeypatch):
    # 23,000 points 0..22,999 over the scale 1 are a file of about 200 KB, but
    # most of their 529 million distances are ints past 256, about 19 GB: the
    # prediction takes each as wide as the decoder admits, so none is shared
    n = 23_000
    obj = {
        "kind": "finite-system", "metric": "l1", "scale": "+0", "points": list(range(n)),
        "coords": [[int_to_digits(i)] for i in range(n)], "map": [0] * n,
    }
    predicted = system_bytes(n, 1 + 66 + 1) + dense_bytes(n, 1 + 65)
    assert predicted > MEMORY_BOUND > system_bytes(n, 1)
    monkeypatch.setattr(core, "digits_to_int", lambda *args, **kwargs: pytest.fail("a string was decoded"))
    with pytest.raises(ValueError, match=rf"^field 'coords': {n} points, 1 coordinates each, over a 1-bit scale: "
                                         rf"predicted {predicted} bytes"):
        system_from_json(obj)


def test_system_file_past_a_reader_s_point_limit_is_refused_from_its_count(monkeypatch):
    obj = system_to_json(full_shift_midpoint_system(3))
    assert len(system_from_json(obj, 8).points) == 8
    monkeypatch.setattr(core, "_decode_id", lambda x: pytest.fail("a point id was decoded"))
    with pytest.raises(ValueError, match=r"^field 'points': 8 points, past the limit of 7$"):
        system_from_json(obj, 7)


def test_system_json_puts_radii_off_the_distance_scale_over_one_scale():
    system = FinitePointSystem.from_positions(
        {0: Fraction(0), 1: Fraction(1, 8)}, {0: 0, 1: 0}, eps={0: Fraction(1, 7), 1: Fraction(1, 8)}
    )
    obj = system_to_json(system)
    # 56 = 64 - 8: the points 0 and 1/8 are 0 and 7/56, and the radii 8/56 and 7/56
    assert (obj["scale"], obj["coords"], obj["eps"]) == ("+6-3", [["0"], ["+3-0"]], ["+3", "+3-0"])
    assert system_from_json(obj).eps == {0: Fraction(1, 7), 1: Fraction(1, 8)}


# ---------------------------------------------------------------------------
# attractor-repellor extension
# ---------------------------------------------------------------------------


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
