"""The workload steps as in-process calls into the package's public API.

For the CLI workloads these functions do what each ``cantor-shrink``
command does, call for call, and write the same files, so the traced run can
split a command's time across layers and its outputs can be checked by the
same code as the CLI's.  The finite-systems workload has no CLI form and
runs only here.  Every call into the package goes through
``Tracer.call``, whose span name is the per-layer metric it feeds.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from cantor_shrink.exact import canonical_dumps
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
)
from cantor_shrink.interval_embed import (
    audit_scheme,
    build_graph_scheme,
    build_odometer_scheme,
    ratio_csv,
    scheme_from_json,
    scheme_to_json,
    verify_derivative_ratios,
    verify_lrs_pairs,
)
from cantor_shrink.metric_systems import (
    build_attractor_repellor,
    build_fixed_point_system,
    check_lrs,
    entropy_estimate,
    full_shift_midpoint_system,
    midpoint_system,
    periodic_points,
    product_system,
    shrinking_propositions_oracle,
    verify_deformed_lrs,
    verify_extension_lrs,
)
from cantor_shrink.odometer import OdometerSpec

from tracing import Tracer


def _write(tr: Tracer, path: Path, text: str, kind: str) -> None:
    path.write_text(text)
    tr.count(f"exact.{kind}_bytes", len(text.encode()))


def _dump_report(tr: Tracer, path: Path, payload) -> None:
    _write(tr, path, tr.call("exact.dumps_s", canonical_dumps, payload), "report")


def max_den_bits(scheme) -> int:
    return max(
        Fraction(x).denominator.bit_length()
        for lvl in scheme.levels
        for c in lvl.cells.values()
        for x in (c.A.lo, c.A.hi, c.D.lo, c.D.hi)
    )


def _count_scheme(tr: Tracer, scheme) -> None:
    if tr.enabled:
        tr.counts["interval_embed.cells"] = sum(len(lvl.cells) for lvl in scheme.levels)
        tr.counts["interval_embed.max_den_bits"] = max_den_bits(scheme)


def _emit_scheme(tr: Tracer, scheme, out: Path) -> str:
    obj = tr.call("interval_embed.to_json_s", scheme_to_json, scheme)
    text = tr.call("exact.dumps_s", canonical_dumps, obj)
    _write(tr, out, text, "scheme")
    _count_scheme(tr, scheme)
    return hashlib.sha256(text.encode()).hexdigest()


def _load_scheme(tr: Tracer, path: Path):
    text = path.read_text()
    obj = tr.call("exact.parse_s", json.loads, text)
    return tr.call("interval_embed.from_json_s", scheme_from_json, obj)


# ---------------------------------------------------------------------------
# mirrors of the CLI commands
# ---------------------------------------------------------------------------


def build_graph(tr: Tracer, out: Path, variant: str, levels: int) -> str:
    seq = tr.call("graphcover.build_s", build_sequence, variant, levels)
    tr.count("graphcover.vertices", sum(len(seq.graph(n).vertices) for n in range(levels + 1)))
    scheme = tr.call("interval_embed.build_s", build_graph_scheme, seq, levels)
    return _emit_scheme(tr, scheme, out)


def build_odometer(tr: Tracer, out: Path, s: list[int], depth: int) -> str:
    spec = OdometerSpec.from_list(s)
    scheme = tr.call("interval_embed.build_s", build_odometer_scheme, spec, depth)
    return _emit_scheme(tr, scheme, out)


def verify_lrs(tr: Tracer, scheme_path: Path, depth: int, out: Path) -> None:
    scheme = _load_scheme(tr, scheme_path)
    depths = [d for d in range(scheme.min_depth, depth + 1) if d <= scheme.max_depth - 1]
    reports = [tr.call("interval_embed.audit_s", audit_scheme, scheme).to_json()]
    for d in depths:
        report = tr.call("interval_embed.lrs_s", verify_lrs_pairs, scheme, d)
        tr.count("interval_embed.lrs_pairs_checked", report.stats["pairs_checked"])
        tr.count("interval_embed.lrs_pairs_excluded", len(report.excluded))
        reports.append(report.to_json())
    combined = {
        "command": "verify-lrs",
        "requested_depth": depth,
        "depths_checked": depths,
        "pass": all(r["pass"] for r in reports),
        "reports": reports,
    }
    _dump_report(tr, out, combined)


def verify_derivative(tr: Tracer, scheme_path: Path, out: Path) -> None:
    scheme = _load_scheme(tr, scheme_path)
    report = tr.call("interval_embed.derivative_s", verify_derivative_ratios, scheme)
    _dump_report(tr, out, {"command": "verify-derivative", **report.to_json()})


def export_ratio(tr: Tracer, scheme_path: Path, out: Path) -> None:
    scheme = _load_scheme(tr, scheme_path)
    _write(tr, out, tr.call("interval_embed.ratio_csv_s", ratio_csv, scheme), "report")


# ---------------------------------------------------------------------------
# finite systems: public calls with no CLI command of their own
# ---------------------------------------------------------------------------


def _system(tr: Tracer, fn, *args):
    """Build a FinitePointSystem; its constructor checks every triangle."""
    system = tr.call("metric_systems.system_build_s", fn, *args)
    n = len(system.points)
    tr.count("metric_systems.triangle_triples", n * (n - 1) * (n - 2))
    return system


def _cert(tr: Tracer, fn, *args):
    tr.count("graphcover.certs")
    return tr.call("graphcover.cert_s", fn, *args)


def cover_certificates(tr: Tracer, out: Path) -> None:
    wm = tr.call("graphcover.build_s", build_sequence, "weakly-mixing", 4)
    tr_seq = tr.call("graphcover.build_s", build_sequence, "transitive", 3)
    for seq in (wm, tr_seq):
        tr.count("graphcover.vertices", sum(len(seq.graph(n).vertices) for n in range(seq.top + 1)))
    wm_steps = [
        {
            "bidirectional": _cert(tr, check_bidirectional, wm.homs[n], wm.graph(n + 1), wm.graph(n)),
            "edge_surjective": _cert(tr, check_edge_surjective, wm.graph(n)),
            "minimality": _cert(tr, check_minimality_certificate, wm, n),
        }
        for n in range(wm.top)
    ]
    tr_steps = [
        {
            "transitivity": _cert(tr, check_transitivity_certificate, tr_seq, n),
            "minimality": _cert(tr, check_minimality_certificate, tr_seq, n),
            "minimality_witness": _cert(tr, minimality_witness, tr_seq, n) is not None,
        }
        for n in range(tr_seq.top)
    ]
    restricted = _cert(tr, invariant_subsystem, tr_seq)
    free = _cert(tr, periodic_point_free_certificate, tr_seq, tr_seq.top)
    payload = {
        "weakly_mixing": {
            "vertices": [len(wm.graph(n).vertices) for n in range(wm.top + 1)],
            "steps": wm_steps,
            "top_edge_surjective": _cert(tr, check_edge_surjective, wm.graph(wm.top)),
            "weak_mixing": _cert(tr, check_weak_mixing_certificate, wm, wm.top),
        },
        "transitive": {
            "steps": tr_steps,
            "restricted_cycle_lengths": [lvl.cycle_lengths[0] for lvl in restricted.levels],
            "periodic_point_free": free.ok,
        },
    }
    _dump_report(tr, out, payload)


def extension(tr: Tracer, out: Path, s: list[int], levels: int, tail: int, refine: int) -> None:
    tall = tr.call("interval_embed.build_s", build_odometer_scheme, OdometerSpec.from_list(s), len(s))
    ext = tr.call(
        "metric_systems.extension_verify_s",
        build_attractor_repellor, tall, levels=levels, tail=tail, refine=refine,
    )
    report = tr.call("metric_systems.extension_verify_s", verify_extension_lrs, ext)
    tr.count("metric_systems.extension_points", report.stats["points"])
    _dump_report(tr, out, report.to_json())


def odometer3(tr: Tracer):
    return tr.call(
        "interval_embed.build_s", build_odometer_scheme, OdometerSpec.from_list([2, 4, 8]), 3
    )


def deformed_triple(tr: Tracer, od3, out: Path) -> None:
    small = tr.call(
        "metric_systems.deformed_s",
        build_attractor_repellor, od3, levels=1, tail=4, refine=3, rate=4,
    )
    triple = tr.call(
        "metric_systems.deformed_s", build_fixed_point_system, od3, small, od3, truncation=5
    )
    report = tr.call("metric_systems.deformed_s", verify_deformed_lrs, triple)
    cycle = tr.call("metric_systems.deformed_s", periodic_points, _system(tr, triple.as_system))
    _dump_report(tr, out, {**report.to_json(), "periodic_points": [list(p) for p in cycle]})


def product(tr: Tracer, od3, out: Path) -> None:
    base = _system(tr, midpoint_system, od3, 3)
    prod = _system(tr, product_system, base, base)
    result = tr.call("metric_systems.check_lrs_s", check_lrs, prod)
    payload = {
        "points": len(prod.points),
        "pass": result.ok,
        "min_margin_positive": result.min_margin is not None and result.min_margin > 0,
    }
    _dump_report(tr, out, payload)


def oracle(tr: Tracer, seed: int, trials: int, out: Path) -> None:
    report = tr.call(
        "metric_systems.oracle_s", shrinking_propositions_oracle, trials=trials, seed=seed
    )
    tr.count("metric_systems.oracle_trials", report["trials"])
    tr.count("metric_systems.oracle_shrinking", report["shrinking_systems"])
    _dump_report(tr, out, report)


# half the least gap between depth-3 midpoints of the (2, 4, 8) odometer
ENTROPY_EPS = Fraction(1, 1_572_864)


def entropy_tables(tr: Tracer, od3, out: Path) -> None:
    base = _system(tr, midpoint_system, od3, 3)
    rows = tr.call("metric_systems.entropy_s", entropy_estimate, base, [ENTROPY_EPS], [1, 2, 3])
    shift = _system(tr, full_shift_midpoint_system, 6)
    control = tr.call("metric_systems.entropy_s", entropy_estimate, shift, [Fraction(1, 4)], [6])
    payload = {
        "odometer": [{"n": r["n"], "count": r["count"], "estimate": r["estimate"]} for r in rows],
        "shift": [{"n": r["n"], "count": r["count"], "estimate": r["estimate"]} for r in control],
    }
    _dump_report(tr, out, payload)
