"""End-to-end acceptance run: eleven certified claims, one line printed each.

Each test covers one acceptance claim and emits a single PASS/FAIL line;
the lines are gathered by conftest into an "acceptance criteria" section at
the end of the pytest run, where capture cannot swallow them.  Builds that
a later claim reuses are shared through module fixtures; the timed claims
do their own timed builds so the clock covers exactly what the claim says
it covers.
"""

import time
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction

import pytest

from cantor_shrink.cli import main as cli_main
from cantor_shrink.exact import ClosedInterval, canonical_dumps, pow2
from cantor_shrink.graphcover import (
    build_sequence,
    check_bidirectional,
    check_edge_surjective,
    check_minimality_certificate,
    check_transitivity_certificate,
    check_weak_mixing_certificate,
    invariant_subsystem,
    minimality_witness,
    periodic_point_free_certificate,
    preimage_counts,
)
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
# the eleven claims
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
                assert lvl.a >= 3 * cell.D.diameter >= lvl.b


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
        for n in range(seq.top):
            assert check_bidirectional(seq.homs[n], seq.graph(n + 1), seq.graph(n))
            assert check_edge_surjective(seq.graph(n))
            assert check_minimality_certificate(seq, n)
        assert check_edge_surjective(seq.graph(seq.top))
        assert check_weak_mixing_certificate(seq, seq.top)
        assert max(max(preimage_counts(seq, n).values()) for n in range(seq.top)) == 7 <= 12
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
        seq = build_sequence("transitive", 3)
        for n in range(seq.top):
            assert check_transitivity_certificate(seq, n)
            assert not check_minimality_certificate(seq, n)
            witness = minimality_witness(seq, n)
            assert witness is not None and witness["cycle"] == 1
            # the first cycle misses exactly interior vertices of the second
            assert all(v[1] == 2 for v in witness["missed"])
        restricted = invariant_subsystem(seq)
        lengths = [lvl.cycle_lengths[0] for lvl in restricted.levels]
        assert lengths == [2 * 3**n for n in range(4)]
        free = periodic_point_free_certificate(seq, seq.top)
        assert free.ok
        assert list(free.minima) == sorted(set(free.minima))
        info["note"] = f"minimal closed paths {list(free.minima)}"


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
        widened = replace(
            level2.cells[0],
            D=ClosedInterval(level2.cells[0].D.lo, level2.cells[0].D.hi + Fraction(1, 20)),
        )
        corrupted_cells = dict(level2.cells)
        corrupted_cells[0] = widened
        # a fresh scheme object, because replace() would carry over the
        # populated depth memo and keep serving the healthy level
        corrupted = EmbeddingScheme(
            od3.kind,
            od3.source,
            [od3.levels[0], replace(level2, cells=corrupted_cells), od3.levels[2]],
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
