"""End-to-end acceptance run: twelve certified claims, one line printed each.

Each test covers one acceptance claim and emits a single PASS/FAIL line;
the lines are gathered by conftest into an "acceptance criteria" section at
the end of the pytest run, where capture cannot swallow them.  Builds that
a later claim reuses are shared through module fixtures; the timed claims
do their own timed builds so the clock covers exactly what the claim says
it covers.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from cantor_shrink.cli import main as cli_main
from cantor_shrink.exact import Dyadic, canonical_dumps, pow2
from cantor_shrink.graphcover import build_sequence, certify_cover, fibres
from cantor_shrink.interval_embed import (
    EmbeddingScheme,
    audit_scheme,
    build_graph_scheme,
    build_odometer_scheme,
    closed_form_ratio_bound,
    derivative_ratio_bound,
    exceptional_labels,
    scheme_to_json,
    verify_derivative_ratios,
    verify_lrs_pairs,
)
from cantor_shrink.metric_systems import (
    OMEGA,
    build_attractor_repellor,
    build_fixed_point_system,
    check_lrs,
    entropy_estimate,
    extension_to_json,
    full_shift_midpoint_system,
    midpoint_system,
    periodic_points,
    product_system,
    shrinking_propositions_oracle,
    verify_deformed_lrs,
    verify_extension_lrs,
)
from cantor_shrink.odometer import OdometerSpec


@contextmanager
def criterion(number: int, title: str):
    """Print the one-line verdict even when the body raises."""
    info: dict = {}
    try:
        yield info
    except BaseException:
        _verdict(number, False, title, info)
        raise
    _verdict(number, True, title, info)


def _verdict(number: int, ok: bool, title: str, info: dict) -> None:
    import conftest

    note = f" ({info['note']})" if "note" in info else ""
    line = f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} — {title}{note}"
    print(line)
    conftest.ACCEPTANCE_VERDICTS.append(line)


# ---------------------------------------------------------------------------
# shared builds
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def od9():
    return build_odometer_scheme(OdometerSpec.from_list([2, 4, 8]), 9)


@pytest.fixture(scope="module")
def od3():
    return build_odometer_scheme(OdometerSpec.from_list([2, 4, 8]), 3)


@pytest.fixture(scope="module")
def wm3():
    """Timed weakly-mixing depth-3 scheme; the clock is read by criterion 6."""
    t0 = time.perf_counter()
    seq = build_sequence("weakly-mixing", 3)
    scheme = build_graph_scheme(seq, 3)
    return {"scheme": scheme, "seq": seq, "build_seconds": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def rate4_triple(od3):
    ext = build_attractor_repellor(od3, levels=1, tail=4, refine=3, rate=4)
    return build_fixed_point_system(od3, ext, od3, truncation=5)


# ---------------------------------------------------------------------------
# the twelve claims
# ---------------------------------------------------------------------------


def test_criterion_01_odometer_depth8_audits():
    with criterion(1, "depth-8 odometer audits and exact sandwich") as info:
        t0 = time.perf_counter()
        scheme = build_odometer_scheme(OdometerSpec.from_list([2, 4, 8]), 8)
        report = audit_scheme(scheme)
        elapsed = time.perf_counter() - t0
        info["note"] = f"{elapsed:.1f}s, {report.stats['cells']} cells"
        assert elapsed < 60
        assert report.passed and not report.witnesses
        for lvl in scheme.levels:
            for cell in lvl.cells.values():
                assert lvl.a >= 3 * cell.core_width >= lvl.b


def test_criterion_02_derivative_ratio_decay(od9):
    with criterion(2, "derivative ratios under 3k/2^(jk), decreasing, <=1e-4 by depth 8") as info:
        previous = None
        for depth in range(1, 9):
            computed = derivative_ratio_bound(od9, depth)
            k_next = od9.spec.extended_k(depth + 1)
            assert computed <= 3 * k_next * pow2(-depth * k_next)
            assert computed <= closed_form_ratio_bound(od9, depth)
            if previous is not None:
                assert computed < previous
            previous = computed
        assert previous <= Fraction(1, 10_000)
        # the same depths through the report the CLI prints, on an audited scheme
        assert verify_derivative_ratios(od9).passed
        assert audit_scheme(od9).passed
        info["note"] = f"depth-8 ratio {previous}"


def test_criterion_03_diameter_ratio_identity(od9):
    with criterion(3, "core-diameter identity 2^(-n*k) and one exceptional per thread") as info:
        spec = od9.spec
        for lvl in od9.levels:
            n, s_n = lvl.n, spec.extended_modulus(lvl.n)
            skip = exceptional_labels(od9, n)
            step = pow2(-n * spec.extended_k(n + 1))
            for label, cell in lvl.cells.items():
                if label in skip:
                    continue
                succ = lvl.cells[(label + 1) % s_n]
                assert succ.D.diameter == step * cell.D.diameter
        # a thread x is exceptional at depth n iff x = s_{n-1} (mod s_n);
        # across the built tower that can happen at most once per thread
        deepest = spec.extended_modulus(len(od9.levels))
        for x in range(deepest):
            hits = sum(
                x % spec.extended_modulus(n) == spec.extended_modulus(n - 1)
                for n in range(1, len(od9.levels) + 1)
            )
            assert hits <= 1
        info["note"] = f"{deepest} threads checked"


def test_criterion_04_weakly_mixing_tower():
    with criterion(4, "4-level weakly-mixing tower certificates") as info:
        t0 = time.perf_counter()
        seq = build_sequence("weakly-mixing", 4)
        report = certify_cover(seq)
        assert report["pass"] and report["certificates"] == {"minimality": True, "weak_mixing": True}
        assert max(len(f) for n in range(seq.top) for f in fibres(seq, n).values()) == 7 <= 12
        # length recursion c1' = 3a + b, c2' = 2a + 2b keeps the cycles
        # consecutive through level 6, beyond the built tower
        a, b = 2, 3
        for n in range(1, 7):
            a, b = 3 * a + b, 2 * a + 2 * b
            assert b == a + 1
            if n <= seq.top:
                assert tuple(seq.levels[n].cycle_lengths) == (a, b)
        elapsed = time.perf_counter() - t0
        info["note"] = f"{elapsed:.1f}s, top lengths {seq.levels[4].cycle_lengths}"
        assert elapsed < 10


def test_criterion_05_transitive_tower():
    with criterion(5, "transitive tower: transitive, not minimal, periodic-free") as info:
        report = certify_cover(build_sequence("transitive", 3))
        assert report["pass"]
        for step in report["steps"]:
            assert step["transitivity"] and not step["minimality"]
            witness = step["minimality_witness"]
            assert witness["cycle"] == 1
            # the first cycle misses exactly interior vertices of the second
            assert witness["missed"] and all(v[1] == 2 for v in witness["missed"])
        certs = report["certificates"]
        assert certs["restricted_cycle_lengths"] == [2 * 3**n for n in range(4)]
        minima = certs["minimal_closed_path_lengths"]
        assert certs["periodic_point_free"] and minima == sorted(set(minima))
        info["note"] = f"minimal closed paths {minima}"


def test_criterion_06_graph_scheme_depth3(wm3):
    with criterion(6, "depth-3 graph scheme audits and 12*2^-s ratio") as info:
        t0 = time.perf_counter()
        report = audit_scheme(wm3["scheme"])
        assert report.passed and not report.witnesses
        for depth in range(3):
            s_n = len(wm3["seq"].graph(depth).vertices)
            assert derivative_ratio_bound(wm3["scheme"], depth) == 12 * pow2(-s_n)
        elapsed = wm3["build_seconds"] + time.perf_counter() - t0
        bits = max(
            max(cell.A.lo.denominator.bit_length(), cell.D.lo.denominator.bit_length())
            for cell in wm3["scheme"].level(3).cells.values()
        )
        info["note"] = f"{elapsed:.1f}s, {bits} bit denominators"
        assert elapsed < 300


def test_criterion_07_lrs_margins_everywhere(od9, od3, wm3, rate4_triple):
    with criterion(7, "positive shrinking margins across all five systems") as info:
        for depth in range(1, 8):
            report = verify_lrs_pairs(od9, depth)
            assert report.passed and not report.witnesses and report.margins
        for depth in range(3):
            report = verify_lrs_pairs(wm3["scheme"], depth)
            assert report.passed and not report.witnesses and report.margins
        base = midpoint_system(od3, 3)
        product = product_system(base, base)
        result = check_lrs(product)
        assert result.ok and result.min_margin > 0
        tall = build_odometer_scheme(OdometerSpec.from_list([2, 4, 8, 16, 32]), 5)
        extension = build_attractor_repellor(tall, levels=3, tail=16, refine=5)
        ext_report = verify_extension_lrs(extension)
        assert ext_report.passed and not ext_report.witnesses
        triple_report = verify_deformed_lrs(rate4_triple)
        assert triple_report.passed and not triple_report.witnesses
        # negative control: widen one depth-2 core toward its sibling and the
        # certificate must fail with a concrete witness pair
        level2 = od3.level(2)
        core_width = level2.cells[0].core_width
        widened = level2.cells[0]._replace(core_width=core_width + Dyadic.term(int(level2.scale) // 20))
        corrupted_cells = dict(level2.cells)
        corrupted_cells[0] = widened
        # a fresh scheme object holding the corrupted level
        corrupted = EmbeddingScheme(
            od3.kind,
            od3.source,
            [od3.levels[0], level2._replace(cells=corrupted_cells), od3.levels[2]],
            spec=od3.spec,
        )
        bad = verify_lrs_pairs(corrupted, 1)
        assert not bad.passed and bad.witnesses
        info["note"] = f"corrupted control witness pair {bad.witnesses[0]['pair']}"


def test_criterion_08_shrinking_oracle():
    with criterion(8, "1000-system shrinking oracle, zero counterexamples") as info:
        report = shrinking_propositions_oracle(trials=1000, max_size=8, seed=0)
        assert report["trials"] == 1000
        assert report["counterexamples"] == []
        # a run that meets no shrinking system checks nothing
        assert report["shrinking_systems"] > 0
        assert shrinking_propositions_oracle(trials=1000, max_size=8, seed=0) == report
        info["note"] = f"{report['shrinking_systems']} shrinking systems seen"


def test_criterion_09_entropy_estimates(od3):
    with criterion(9, "entropy estimates decay like log(s_3)/n; shift control at log 2") as info:
        system = midpoint_system(od3, 3)
        eps = Fraction(1, 1_572_864)  # below half the least midpoint spacing
        rows = entropy_estimate(system, [eps], [1, 2, 3])
        import math

        estimates = [row["estimate"] for row in rows]
        assert all(x > y for x, y in zip(estimates, estimates[1:]))
        for row in rows:
            assert row["estimate"] <= math.log(8) / row["n"] + 1e-12
        shift = full_shift_midpoint_system(6)
        control = entropy_estimate(shift, [Fraction(1, 4)], [6])[0]
        assert abs(control["estimate"] - math.log(2)) <= 0.15 * math.log(2)
        info["note"] = f"shift estimate {control['estimate']:.6f}"


def test_criterion_10_unique_periodic_point(rate4_triple):
    with criterion(10, "deformed triple has exactly one periodic point") as info:
        cycle = periodic_points(rate4_triple.as_system())
        assert cycle == [OMEGA]
        info["note"] = "the collapsed point omega"


def test_criterion_11_byte_identical_rebuilds(od3, tmp_path):
    with criterion(11, "rebuilds are byte-identical") as info:
        assert canonical_dumps(scheme_to_json(od3)) == canonical_dumps(
            scheme_to_json(build_odometer_scheme(OdometerSpec.from_list([2, 4, 8]), 3))
        )
        ext = build_attractor_repellor(od3, levels=1, tail=4, refine=3)
        ext_again = build_attractor_repellor(od3, levels=1, tail=4, refine=3)
        assert canonical_dumps(extension_to_json(ext)) == canonical_dumps(extension_to_json(ext_again))
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        for target in (first, second):
            code = cli_main(
                ["build", "graph", "--variant", "weakly-mixing", "--levels", "1", "--out", str(target)]
            )
            assert code == 0
        assert first.read_bytes() == second.read_bytes()
        info["note"] = "scheme, extension, and CLI graph build"


def _certify_deeper(scheme, expected: dict) -> str:
    """Audit ``scheme``, check its derivative ratios against their closed-form
    bounds, and check non-empty pair margins at every pair depth with the
    ``expected`` depth -> (pairs checked, pairs excluded); then widen one
    core of a checked pair at the deepest depth and demand a witness."""
    assert audit_scheme(scheme).passed
    ratios = verify_derivative_ratios(scheme)
    assert ratios.passed and ratios.stats["depths"] == list(expected)
    for depth, (checked, excluded) in expected.items():
        report = verify_lrs_pairs(scheme, depth)
        assert report.passed and not report.witnesses and report.margins
        assert (report.stats["pairs_checked"], len(report.excluded)) == (checked, excluded)
    # negative control, as in criterion 7, one level down from the last depth;
    # the widening, about a twentieth of the scale, is a power of two, so the
    # witness's sup and inf have few binary digits to write
    u, v = report.margins[0]["pair"]
    deepest = scheme.levels[-1]
    cell = deepest.cells[u]
    w = Dyadic.term(1, deepest.scale.bit_length() - 5)
    widened = cell._replace(inset=cell.inset - w, core_width=cell.core_width + 2 * w)
    corrupted = scheme._replace(levels=[*scheme.levels[:-1], deepest._replace(cells={**deepest.cells, u: widened})])
    bad = verify_lrs_pairs(corrupted, depth)
    assert not bad.passed and [u, v] in [w["pair"] for w in bad.witnesses]
    return f"{sum(c for c, _ in expected.values())} pairs, witness {[u, v]}"


def test_criterion_12_one_level_deeper():
    with criterion(12, "tr4 and od11 audit, ratios under their bounds, pair margins at every depth") as info:
        t0 = time.perf_counter()
        # tr4's counts are the package's own output (26 pairs split across
        # parents at each depth); od11's follow from the tower: at depth d
        # each of the s_d parents but the exceptional one has C(k_{d+1}, 2)
        # sibling pairs
        notes = [_certify_deeper(
            build_graph_scheme("transitive", 4), {0: (12, 26), 1: (81, 26), 2: (291, 26), 3: (927, 26)}
        )]
        spec = OdometerSpec.from_list([2, 4, 8])
        pairs = {d: spec.extended_k(d + 1) * (spec.extended_k(d + 1) - 1) // 2 for d in range(1, 11)}
        notes.append(_certify_deeper(
            build_odometer_scheme(spec, 11),
            {d: ((spec.extended_modulus(d) - 1) * n, n) for d, n in pairs.items()},
        ))
        info["note"] = f"{time.perf_counter() - t0:.1f}s; tr4 {notes[0]}; od11 {notes[1]}"
