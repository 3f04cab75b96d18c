"""Command-line front end: build schemes and systems, verify certificates,
export tables and pictures.

Every artifact is canonical JSON (sorted keys, fixed separators), so the same
descriptor always yields byte-identical files.  Exit status is 0 when all
requested checks pass, 1 on a verification failure, and 2 on usage or input
errors.  Set CANTOR_SHRINK_LOG=INFO (or DEBUG) for progress logging.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from cantor_shrink.exact import canonical_dumps
from cantor_shrink.interval_embed import (
    audit_scheme,
    build_graph_scheme,
    build_odometer_scheme,
    graph_scales,
    ratio_csv,
    render_svg,
    scheme_from_json,
    scheme_signed_digits,
    scheme_to_json,
    verify_derivative_ratios,
    verify_lrs_pairs,
)

# cantor_shrink.graphcover, cantor_shrink.metric_systems and
# cantor_shrink.odometer are imported inside the commands that use them, and
# csv where CSV is written, so that each command loads only the layers it runs


def _info(message: str, *args) -> None:
    """Log an INFO line to the ``cantor_shrink.cli`` logger.

    Without a handler the line goes nowhere, so ``logging`` is not imported
    for it: the line is passed on only when something has loaded ``logging``
    already (a test runner, an embedding program, or :func:`main` under
    CANTOR_SHRINK_LOG).
    """
    if _logging():
        sys.modules["logging"].getLogger("cantor_shrink.cli").info(message, *args)


def _logging() -> bool:
    """Whether an INFO line of ``cantor_shrink.cli`` goes anywhere, so that
    a line whose numbers cost work to gather can skip gathering them."""
    logging = sys.modules.get("logging")
    return logging is not None and logging.getLogger("cantor_shrink.cli").isEnabledFor(logging.INFO)

GRAPH_FEASIBLE_LEVELS = 4


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
        _info("wrote %s (%d bytes)", out, len(text))
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
    t0 = time.perf_counter()
    with _naming(path):
        try:
            obj = _load_json(path)
            scheme = scheme_from_json(obj)
        except KeyError as exc:
            raise ValueError(f"scheme file is missing field {exc}") from exc
    if _logging():
        seconds = time.perf_counter() - t0
        _info(
            "loaded %s: %d bytes, %d levels, %d cells, %d signed digits, largest scale %d bits in %.2fs",
            path, os.path.getsize(path), len(scheme.levels), sum(len(lvl.cells) for lvl in scheme.levels),
            scheme_signed_digits(obj), max(lvl.scale.bit_length() for lvl in scheme.levels), seconds,
        )
    return scheme


def _log_system(what: str, system, t0: float) -> None:
    n = len(system.points)
    _info(
        "%s: %d points, %d-bit scale, %d triangle triples checked in %.2fs",
        what, n, system.scale.bit_length(), n * (n - 1) * (n - 2), time.perf_counter() - t0,
    )


def _audit(path: str, scheme):
    t0 = time.perf_counter()
    report = audit_scheme(scheme)
    _info("audit of %s: %s in %.2fs", path, _verdict(report.passed), time.perf_counter() - t0)
    return report


def _audit_fails(path: str, scheme) -> bool:
    """Audit a loaded scheme, and on failure print one line naming the first
    witness: a certificate on geometry that fails its audit certifies nothing."""
    report = _audit(path, scheme)
    if not report.passed:
        w = report.witnesses[0]
        label = f", label {w['label']}" if "label" in w else ""
        print(f"fail: {path}: audit witness at depth {w['depth']}{label}: {w['reason']}", file=sys.stderr)
    return not report.passed


def _comma_list(parse, what: str):
    """An argparse type for a comma-separated list of ``parse`` values, with
    no part empty."""

    def read(text: str) -> list:
        try:
            return [parse(part) for part in text.split(",")]
        except (ValueError, ZeroDivisionError):
            # an empty part, as in "1,,2", "1," or ",", is refused like junk
            raise argparse.ArgumentTypeError(f"not a comma-separated {what} list: {text!r}") from None

    return read


_int_list = _comma_list(int, "integer")
_fraction_list = _comma_list(Fraction, "rational")


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------


def cmd_build_odometer(args) -> int:
    from cantor_shrink.odometer import OdometerSpec

    spec = OdometerSpec.from_list(args.s)
    t0 = time.perf_counter()
    scheme = build_odometer_scheme(spec, args.depth)
    _info("odometer depth %d built in %.2fs", args.depth, time.perf_counter() - t0)
    _emit(canonical_dumps(scheme_to_json(scheme)), args.out)
    return 0


def cmd_build_graph(args) -> int:
    from cantor_shrink.graphcover import build_sequence

    seq = build_sequence(args.variant, args.levels)
    if args.levels > GRAPH_FEASIBLE_LEVELS:
        graph_scales(seq, args.levels)  # a scale no reader loads is refused before the warning
        print(
            f"warning: graph schemes beyond depth {GRAPH_FEASIBLE_LEVELS} need "
            "astronomically long dyadic scales; expect very long runtimes",
            file=sys.stderr,
        )
    t0 = time.perf_counter()
    scheme = build_graph_scheme(seq, args.levels)
    _info("graph depth %d built in %.2fs", args.levels, time.perf_counter() - t0)
    _emit(canonical_dumps(scheme_to_json(scheme)), args.out)
    return 0


def cmd_build_extension(args) -> int:
    from cantor_shrink.metric_systems import build_attractor_repellor, extension_to_json

    scheme = _load_scheme(args.scheme)
    if _audit_fails(args.scheme, scheme):
        return 1
    t0 = time.perf_counter()
    ext = build_attractor_repellor(
        scheme, levels=args.levels, tail=args.tail, refine=args.refine, rate=args.rate
    )
    if _logging():  # the line's counts need the whole system, built and triangle-checked
        _log_system("extension", ext.as_system(), t0)
    _emit(canonical_dumps(extension_to_json(ext)), args.out)
    return 0


def cmd_build_system(args) -> int:
    from cantor_shrink.metric_systems import full_shift_midpoint_system, midpoint_system, system_to_json

    if (args.scheme is None) == (args.shift is None):
        raise ValueError("give exactly one of --scheme (with --depth) or --shift")
    if args.shift is not None:
        if args.depth is not None:
            raise ValueError("--shift takes no --depth: the shift's word length is the --shift value")
        t0 = time.perf_counter()
        system = full_shift_midpoint_system(args.shift)
    else:
        if args.depth is None:
            raise ValueError("--scheme needs --depth")
        scheme = _load_scheme(args.scheme)
        if _audit_fails(args.scheme, scheme):
            return 1
        t0 = time.perf_counter()
        system = midpoint_system(scheme, args.depth)
    _log_system("system", system, t0)
    _emit(canonical_dumps(system_to_json(system)), args.out)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify_derivative(args) -> int:
    scheme = _load_scheme(args.scheme)
    if _audit_fails(args.scheme, scheme):
        return 1
    t0 = time.perf_counter()
    with _naming(args.scheme):
        report = verify_derivative_ratios(scheme)
    _info(
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
    if args.depth < scheme.min_depth:
        raise ValueError(
            f"{args.scheme}: --depth {args.depth} is before the scheme's first depth {scheme.min_depth}"
        )
    depths = [d for d in range(scheme.min_depth, args.depth + 1) if d <= feasible]
    if not depths:
        raise ValueError(
            f"{args.scheme}: scheme holds levels {scheme.min_depth}..{scheme.max_depth}; "
            "no pair depth is checkable — rebuild deeper"
        )
    audit = _audit(args.scheme, scheme)
    reports = [audit.to_json()]
    for d in depths if audit.passed else []:
        t0 = time.perf_counter()
        report = verify_lrs_pairs(scheme, d)
        reports.append(report.to_json())
        counts = Counter(e["reason"] for e in report.excluded)
        reasons = ", ".join(f"{n} {reason}" for reason, n in sorted(counts.items()))
        _info(
            "lrs pairs at depth %d: %s, %d checked, %d excluded%s in %.2fs",
            d, _verdict(report.passed), report.stats["pairs_checked"], len(report.excluded),
            f" ({reasons})" if reasons else "", time.perf_counter() - t0,
        )
    combined = {
        "command": "verify-lrs",
        "requested_depth": args.depth,
        # no pair margin is computed on geometry that fails its audit
        "depths_checked": depths if audit.passed else [],
        "pass": all(r["pass"] for r in reports),
        "reports": reports,
    }
    text = canonical_dumps(combined)
    _info(
        "lrs report over depths %s: %s, %d bytes",
        combined["depths_checked"], _verdict(combined["pass"]), len(text),
    )
    _emit(text, args.out)
    return 0 if combined["pass"] else 1


def cmd_verify_cover(args) -> int:
    from cantor_shrink.graphcover import certify_cover

    scheme = _load_scheme(args.graph)
    if scheme.kind != "graph":
        raise ValueError("verify cover expects a graph scheme file")
    if _audit_fails(args.graph, scheme):
        return 1
    t0 = time.perf_counter()
    report = certify_cover(scheme.cover)
    _info(
        "cover certificates for the %s tower over %d levels (%s): %s in %.2fs",
        report["variant"], report["levels"], ", ".join(report["certificates"]),
        _verdict(report["pass"]), time.perf_counter() - t0,
    )
    _emit(canonical_dumps({"command": "verify-cover", **report}), args.out)
    return 0 if report["pass"] else 1


def cmd_verify_oracle(args) -> int:
    from cantor_shrink.metric_systems import shrinking_propositions_oracle

    t0 = time.perf_counter()
    report = shrinking_propositions_oracle(trials=args.trials, seed=args.seed)
    vacuous = not report["shrinking_systems"]
    if vacuous:
        print(f"fail: no shrinking system in {args.trials} trials; nothing was checked", file=sys.stderr)
    payload = {"command": "verify-oracle", "pass": not vacuous and not report["counterexamples"], **report}
    _info(
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
    if _audit_fails(args.sys, scheme):
        return 1
    with _naming(args.sys):
        table = ratio_csv(scheme)
    _emit(table, args.out)
    return 0


def cmd_export_svg(args) -> int:
    scheme = _load_scheme(args.sys)
    if _audit_fails(args.sys, scheme):
        return 1
    _emit(render_svg(scheme), args.out)
    return 0


def cmd_export_entropy(args) -> int:
    import csv

    from cantor_shrink.metric_systems import entropy_estimate, system_from_json

    t0 = time.perf_counter()
    with _naming(args.sys):
        system = system_from_json(_load_json(args.sys))
    _log_system(f"loaded {args.sys}", system, t0)
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
        import logging

        logging.basicConfig(level=getattr(logging, level.upper(), logging.INFO))
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if _logging():
            import resource

            # ru_maxrss is in KiB on Linux
            _info("peak RSS %.1f MB", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)


if __name__ == "__main__":
    sys.exit(main())
