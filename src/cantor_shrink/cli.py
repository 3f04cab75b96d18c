"""Command-line front end: build schemes and systems, verify certificates,
export tables and pictures.

Every artifact is canonical JSON (sorted keys, fixed separators), so the same
descriptor always yields byte-identical files.  Exit status is 0 when all
requested checks pass, 1 on a verification failure, and 2 on usage or input
errors.  Set CANTOR_SHRINK_LOG=INFO (or DEBUG) for progress logging.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import os
import sys
import time
from contextlib import contextmanager
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
    render_svg,
    scheme_from_json,
    scheme_to_json,
    verify_derivative_ratios,
    verify_lrs_pairs,
)
from cantor_shrink.metric_systems import (
    build_attractor_repellor,
    entropy_estimate,
    extension_to_json,
    full_shift_midpoint_system,
    midpoint_system,
    shrinking_propositions_oracle,
    system_from_json,
    system_to_json,
)
from cantor_shrink.odometer import OdometerSpec

log = logging.getLogger("cantor_shrink.cli")

GRAPH_FEASIBLE_LEVELS = 4


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
        log.info("wrote %s (%d bytes)", out, len(text))
    else:
        sys.stdout.write(text)


def _verdict(passed: bool) -> str:
    return "pass" if passed else "fail"


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


@contextmanager
def _naming(path: str):
    """Put the input file's path in front of a ValueError raised inside."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _load_scheme(path: str):
    with _naming(path):
        try:
            return scheme_from_json(_load_json(path))
        except KeyError as exc:
            raise ValueError(f"scheme file is missing field {exc}") from exc


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")


def _fraction_list(text: str) -> list[Fraction]:
    try:
        return [Fraction(part) for part in text.split(",") if part]
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a comma-separated rational list: {text!r}")


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------


def cmd_build_odometer(args) -> int:
    spec = OdometerSpec.from_list(args.s)
    t0 = time.perf_counter()
    scheme = build_odometer_scheme(spec, args.depth)
    log.info("odometer depth %d built in %.2fs", args.depth, time.perf_counter() - t0)
    _emit(canonical_dumps(scheme_to_json(scheme)), args.out)
    return 0


def cmd_build_graph(args) -> int:
    if args.levels > GRAPH_FEASIBLE_LEVELS:
        print(
            f"warning: graph schemes beyond depth {GRAPH_FEASIBLE_LEVELS} need "
            "astronomically long dyadic scales; expect very long runtimes",
            file=sys.stderr,
        )
    seq = build_sequence(args.variant, args.levels)
    t0 = time.perf_counter()
    scheme = build_graph_scheme(seq, args.levels)
    log.info("graph depth %d built in %.2fs", args.levels, time.perf_counter() - t0)
    _emit(canonical_dumps(scheme_to_json(scheme)), args.out)
    return 0


def cmd_build_extension(args) -> int:
    scheme = _load_scheme(args.scheme)
    ext = build_attractor_repellor(
        scheme, levels=args.levels, tail=args.tail, refine=args.refine, rate=args.rate
    )
    _emit(canonical_dumps(extension_to_json(ext)), args.out)
    return 0


def cmd_build_system(args) -> int:
    if (args.scheme is None) == (args.shift is None):
        raise ValueError("give exactly one of --scheme (with --depth) or --shift")
    if args.shift is not None:
        system = full_shift_midpoint_system(args.shift)
    else:
        if args.depth is None:
            raise ValueError("--scheme needs --depth")
        system = midpoint_system(_load_scheme(args.scheme), args.depth)
    _emit(canonical_dumps(system_to_json(system)), args.out)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify_derivative(args) -> int:
    scheme = _load_scheme(args.scheme)
    t0 = time.perf_counter()
    with _naming(args.scheme):
        report = verify_derivative_ratios(scheme)
    log.info(
        "derivative ratios over depths %s: %s in %.2fs",
        report.stats["depths"], _verdict(report.passed), time.perf_counter() - t0,
    )
    _emit(canonical_dumps({"command": "verify-derivative", **report.to_json()}), args.out)
    return 0 if report.passed else 1


def cmd_verify_lrs(args) -> int:
    scheme = _load_scheme(args.scheme)
    # pair margins at depth d compare the children at depth d+1, so the
    # deepest checkable pair level is one short of the built depth
    feasible = scheme.max_depth - 1
    depths = [d for d in range(scheme.min_depth, args.depth + 1) if d <= feasible]
    if not depths:
        raise ValueError(
            f"{args.scheme}: scheme holds levels {scheme.min_depth}..{scheme.max_depth}; "
            "no pair depth is checkable — rebuild deeper"
        )
    reports = [audit_scheme(scheme).to_json()]
    t0 = time.perf_counter()
    reports.extend(verify_lrs_pairs(scheme, d).to_json() for d in depths)
    log.info("lrs sweep over depths %s in %.2fs", depths, time.perf_counter() - t0)
    combined = {
        "command": "verify-lrs",
        "requested_depth": args.depth,
        "depths_checked": depths,
        "pass": all(r["pass"] for r in reports),
        "reports": reports,
    }
    _emit(canonical_dumps(combined), args.out)
    return 0 if combined["pass"] else 1


def cmd_verify_cover(args) -> int:
    scheme = _load_scheme(args.graph)
    if scheme.kind != "graph":
        raise ValueError("verify cover expects a graph scheme file")
    seq = scheme.cover
    variant = seq.variant
    t0 = time.perf_counter()
    steps = []
    ok = True
    for n in range(seq.top):
        entry: dict = {"step": n}
        try:
            entry["bidirectional"] = check_bidirectional(
                seq.homs[n], seq.graph(n + 1), seq.graph(n)
            )
            entry["homomorphism"] = True
        except ValueError as exc:
            entry["homomorphism"] = False
            entry["error"] = str(exc)
            entry["bidirectional"] = False
        entry["edge_surjective"] = check_edge_surjective(seq.graph(n))
        minimal = check_minimality_certificate(seq, n)
        entry["minimality"] = minimal
        if not minimal:
            witness = minimality_witness(seq, n)
            entry["minimality_witness"] = {
                "cycle": witness["cycle"],
                "missed": [list(v) for v in witness["missed"]],
            }
        if variant == "transitive":
            entry["transitivity"] = check_transitivity_certificate(seq, n)
        steps.append(entry)
        ok = ok and entry["homomorphism"] and entry["bidirectional"] and entry["edge_surjective"]
    ok = ok and check_edge_surjective(seq.graph(seq.top))
    certificates: dict = {}
    if variant == "weakly-mixing":
        certificates["minimality"] = all(s["minimality"] for s in steps)
        certificates["weak_mixing"] = check_weak_mixing_certificate(seq, seq.top)
        ok = ok and certificates["minimality"] and certificates["weak_mixing"]
    elif variant == "transitive":
        certificates["transitivity"] = all(s["transitivity"] for s in steps)
        # the designed failure: no single cycle tower is minimal here, and the
        # certificate must come back with the concrete missed vertices
        certificates["minimality_fails_with_witness"] = all(
            not s["minimality"] and "minimality_witness" in s for s in steps
        )
        restricted = invariant_subsystem(seq)
        lengths = [lvl.cycle_lengths[0] for lvl in restricted.levels]
        certificates["restricted_cycle_lengths"] = lengths
        certificates["restricted_is_doubling_triple"] = lengths == [
            2 * 3**n for n in range(len(lengths))
        ]
        free = periodic_point_free_certificate(seq, seq.top)
        certificates["periodic_point_free"] = free.ok
        certificates["minimal_closed_path_lengths"] = list(free.minima)
        ok = (
            ok
            and certificates["transitivity"]
            and certificates["minimality_fails_with_witness"]
            and certificates["restricted_is_doubling_triple"]
            and certificates["periodic_point_free"]
        )
    log.info(
        "cover certificates for the %s tower over %d levels (%s): %s in %.2fs",
        variant, seq.top, ", ".join(certificates), _verdict(ok), time.perf_counter() - t0,
    )
    combined = {
        "command": "verify-cover",
        "variant": variant,
        "levels": seq.top,
        "pass": ok,
        "steps": steps,
        "certificates": certificates,
    }
    _emit(canonical_dumps(combined), args.out)
    return 0 if ok else 1


def cmd_verify_oracle(args) -> int:
    t0 = time.perf_counter()
    report = shrinking_propositions_oracle(trials=args.trials, seed=args.seed)
    payload = {"command": "verify-oracle", "pass": not report["counterexamples"], **report}
    log.info(
        "shrinking oracle over %d trials with seed %d: %s in %.2fs",
        args.trials, args.seed, _verdict(payload["pass"]), time.perf_counter() - t0,
    )
    _emit(canonical_dumps(payload), args.out)
    return 0 if payload["pass"] else 1


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def cmd_export_ratio(args) -> int:
    scheme = _load_scheme(args.sys)
    with _naming(args.sys):
        table = ratio_csv(scheme)
    _emit(table, args.out)
    return 0


def cmd_export_svg(args) -> int:
    _emit(render_svg(_load_scheme(args.sys)), args.out)
    return 0


def cmd_export_entropy(args) -> int:
    system = system_from_json(_load_json(args.sys))
    rows = entropy_estimate(system, args.eps, args.n)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["eps", "n", "count", "estimate_float"])
    # rows come out eps-major in the order requested
    for eps, row in zip((e for e in args.eps for _ in args.n), rows):
        writer.writerow([str(eps), row["n"], row["count"], repr(row["estimate"])])
    _emit(buf.getvalue(), args.out)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cantor-shrink",
        description="Build, certify, and export nested-interval Cantor systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="construct schemes and systems")
    bsub = build.add_subparsers(dest="what", required=True)

    b_od = bsub.add_parser("odometer", help="nested-interval odometer scheme")
    b_od.add_argument("--s", type=_int_list, required=True, help="tower moduli, e.g. 2,4,8")
    b_od.add_argument("--depth", type=int, required=True)
    b_od.add_argument("--out")
    b_od.set_defaults(func=cmd_build_odometer)

    b_gr = bsub.add_parser("graph", help="graph-cover interval scheme")
    b_gr.add_argument("--variant", choices=["weakly-mixing", "transitive"], required=True)
    b_gr.add_argument("--levels", type=int, required=True)
    b_gr.add_argument("--out")
    b_gr.set_defaults(func=cmd_build_graph)

    b_ex = bsub.add_parser("extension", help="attractor-repellor extension")
    b_ex.add_argument("--scheme", required=True, help="odometer scheme file")
    b_ex.add_argument("--levels", type=int, required=True)
    b_ex.add_argument("--tail", type=int, required=True)
    b_ex.add_argument("--refine", type=int, required=True)
    b_ex.add_argument("--rate", type=int, default=2)
    b_ex.add_argument("--out")
    b_ex.set_defaults(func=cmd_build_extension)

    b_sy = bsub.add_parser("system", help="finite point system (midpoints or shift)")
    b_sy.add_argument("--scheme", help="odometer scheme file")
    b_sy.add_argument("--depth", type=int)
    b_sy.add_argument("--shift", type=int, help="full 2-symbol shift of this word length")
    b_sy.add_argument("--out")
    b_sy.set_defaults(func=cmd_build_system)

    verify = sub.add_parser("verify", help="run certificates, exit 1 on failure")
    vsub = verify.add_subparsers(dest="what", required=True)

    v_de = vsub.add_parser("derivative", help="derivative-ratio decay table")
    v_de.add_argument("--scheme", required=True)
    v_de.add_argument("--out")
    v_de.set_defaults(func=cmd_verify_derivative)

    v_lr = vsub.add_parser("lrs", help="audit plus pair margins up to a depth")
    v_lr.add_argument("--scheme", required=True)
    v_lr.add_argument("--depth", type=int, required=True)
    v_lr.add_argument("--out")
    v_lr.set_defaults(func=cmd_verify_lrs)

    v_co = vsub.add_parser("cover", help="covering-tower certificates")
    v_co.add_argument("--graph", required=True, help="graph scheme file")
    v_co.add_argument("--out")
    v_co.set_defaults(func=cmd_verify_cover)

    v_or = vsub.add_parser("oracle", help="randomized shrinking-map propositions")
    v_or.add_argument("--trials", type=int, default=1000)
    v_or.add_argument("--seed", type=int, default=0)
    v_or.add_argument("--out")
    v_or.set_defaults(func=cmd_verify_oracle)

    export = sub.add_parser("export", help="CSV tables and SVG pictures")
    esub = export.add_subparsers(dest="what", required=True)

    e_ra = esub.add_parser("ratio", help="per-depth max ratio CSV")
    e_ra.add_argument("--sys", required=True, help="scheme file")
    e_ra.add_argument("--out")
    e_ra.set_defaults(func=cmd_export_ratio)

    e_sv = esub.add_parser("svg", help="interval strip picture (approximate)")
    e_sv.add_argument("--sys", required=True, help="scheme file")
    e_sv.add_argument("--out")
    e_sv.set_defaults(func=cmd_export_svg)

    e_en = esub.add_parser("entropy", help="separated-count entropy table CSV")
    e_en.add_argument("--sys", required=True, help="finite-system file")
    e_en.add_argument("--eps", type=_fraction_list, required=True)
    e_en.add_argument("--n", type=_int_list, required=True)
    e_en.add_argument("--out")
    e_en.set_defaults(func=cmd_export_entropy)

    return parser


def main(argv=None) -> int:
    level = os.environ.get("CANTOR_SHRINK_LOG")
    if level:
        logging.basicConfig(level=getattr(logging, level.upper(), logging.INFO))
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
