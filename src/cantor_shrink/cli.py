"""Command-line front end: build schemes and systems, verify certificates,
export tables and pictures.

Every artifact is canonical JSON (sorted keys, fixed separators), so the same
descriptor always yields byte-identical files.  Exit status is 0 when all
requested checks pass, 1 on a verification failure, and 2 on usage or input
errors.  Set CANTOR_SHRINK_LOG=INFO (or DEBUG) for one timed line per stage.
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

from cantor_shrink.exact import canonical_dumps, common_scale
from cantor_shrink.interval_embed import (
    audit_scheme,
    build_graph_scheme,
    build_odometer_scheme,
    ratio_csv,
    render_svg,
    scheme_bytes,
    scheme_from_json,
    scheme_signed_digits,
    scheme_to_json,
    verify_derivative_ratios,
    verify_lrs_pairs,
)

# cantor_shrink.graphcover, cantor_shrink.metric_systems and
# cantor_shrink.odometer are imported inside the commands that use them, and
# csv where CSV is written, so that each command loads only the layers it runs


def _logger():
    """The ``cantor_shrink.cli`` logger when its INFO lines go anywhere, else None.

    Without a handler a line goes nowhere, so ``logging`` is not imported
    for it: lines are passed on only when something has loaded ``logging``
    already (a test runner, an embedding program, or :func:`main` under
    CANTOR_SHRINK_LOG).
    """
    logging = sys.modules.get("logging")
    if logging is not None:
        logger = logging.getLogger("cantor_shrink.cli")
        if logger.isEnabledFor(logging.INFO):
            return logger
    return None


@contextmanager
def _stage(message: str, values):
    """Time the block as one stage and, when it ends without raising, log
    ``message`` with ``values()`` and `` in X.XXs``.  ``values`` is called
    after the clock stops, and only when the line goes somewhere, so a quiet
    run gathers no counts."""
    start = time.perf_counter()
    yield
    seconds = time.perf_counter() - start
    logger = _logger()
    if logger:
        logger.info(message + " in %.2fs", *values(), seconds)


SYSTEM_LINE = "%s: %d points, %d-bit scale, predicted %d bytes"


def _system_values(what: str, n: int, k: int, scale: int, radii: bool = False) -> tuple:
    from cantor_shrink.metric_systems.core import held_bytes

    return what, n, scale.bit_length(), held_bytes(n, k, scale.bit_length(), radii)


def _held_values(what: str, system) -> tuple:
    return _system_values(what, len(system.points), len(system.coords[0]), system.scale, system.eps is not None)


def _emit(render, out: str | None, message: str = "serialised %d bytes", *values) -> None:
    """Write the text ``render()`` to the file ``out``, or to stdout without
    one.  The render is one stage, logged as ``message`` with ``values`` and
    the text's length; the write to a file is another."""
    with _stage(message, lambda: (*values, len(text))):
        text = render()
    if out:
        with _stage("wrote %s (%d bytes)", lambda: (out, len(text))):
            Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _verdict(passed: bool) -> str:
    return "pass" if passed else "fail"


@contextmanager
def _naming(path: str):
    """Put the input file's path in front of a ValueError raised inside."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _read(path: str, decode) -> tuple:
    """``(obj, decode(obj))`` for the JSON value ``obj`` in the file at
    ``path``, with the path in front of a ValueError: a missing field, or
    nesting too deep for the parser or the decoder, is malformed input too."""
    with _naming(path):
        try:
            with open(path) as fh:
                obj = json.load(fh)
            return obj, decode(obj)
        except KeyError as exc:
            raise ValueError(f"file is missing field {exc}") from exc
        except RecursionError:
            raise ValueError("nested too deep to read") from None


def _load_scheme(path: str, kind: str | None = None, needs: str = ""):
    """The scheme in the file at ``path``, refused unless of ``kind`` (if given), as ``needs`` says."""
    line = "loaded %s: %d bytes, %d levels, %d cells, %d signed digits, largest scale %d bits, predicted %d bytes"
    with _stage(line, lambda: (
        path, os.path.getsize(path), len(scheme.levels), sum(len(lvl.cells) for lvl in scheme.levels),
        scheme_signed_digits(obj), max(lvl.scale.bit_length() for lvl in scheme.levels), scheme_bytes(scheme),
    )):
        obj, scheme = _read(path, scheme_from_json)
    if kind is not None and scheme.kind != kind:
        raise ValueError(f"{path}: field 'kind' is {scheme.kind!r}, not {kind!r}: {needs}")
    return scheme


def _audit(path: str, scheme):
    with _stage("audit of %s: %s", lambda: (path, _verdict(report.passed))):
        report = audit_scheme(scheme)
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


def _comma_list(parse, what: str, positive: bool = False):
    """An argparse type for a comma-separated list of ``parse`` values, with
    no part empty and, if ``positive``, every value above 0."""

    def read(text: str) -> list:
        try:
            values = [parse(part) for part in text.split(",")]
        except (ValueError, ZeroDivisionError):
            # an empty part, as in "1,,2", "1," or ",", is refused like junk
            raise argparse.ArgumentTypeError(f"not a comma-separated {what} list: {text!r}") from None
        if positive and min(values) <= 0:
            raise argparse.ArgumentTypeError(f"not a list of positive {what}s: {text!r}")
        return values

    return read


_int_list = _comma_list(int, "integer")
_step_list = _comma_list(int, "integer", positive=True)
_fraction_list = _comma_list(Fraction, "rational", positive=True)


def _at_least(low: int):
    """An argparse type for an integer of at least ``low``."""

    def integer(text: str) -> int:
        value = int(text)  # junk is refused by argparse as an "invalid integer value"
        if value < low:
            raise argparse.ArgumentTypeError(f"not an integer of at least {low}: {text!r}")
        return value

    return integer


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------


def cmd_build_odometer(args) -> int:
    from cantor_shrink.odometer import OdometerSpec

    try:
        spec = OdometerSpec.from_list(args.s)
    except ValueError as exc:
        raise ValueError(f"--s {','.join(map(str, args.s))}: {exc}") from None
    with _stage("odometer depth %d built, predicted %d bytes", lambda: (args.depth, scheme_bytes(scheme))):
        scheme = build_odometer_scheme(spec, args.depth)
    _emit(lambda: canonical_dumps(scheme_to_json(scheme)), args.out)
    return 0


def cmd_build_graph(args) -> int:
    with _stage("graph depth %d built, predicted %d bytes", lambda: (args.levels, scheme_bytes(scheme))):
        scheme = build_graph_scheme(args.variant, args.levels)
    _emit(lambda: canonical_dumps(scheme_to_json(scheme)), args.out)
    return 0


def cmd_build_extension(args) -> int:
    from cantor_shrink.metric_systems import build_attractor_repellor, extension_to_json

    scheme = _load_scheme(args.scheme, "odometer", "the extension construction starts from an odometer scheme")
    if _audit_fails(args.scheme, scheme):
        return 1
    # the line's counts come from the points and the scale their coordinates share, not from a built system
    with _stage(SYSTEM_LINE, lambda: _system_values(
        "extension", len(ext.ids), 2, common_scale(c for xy in ext.positions.values() for c in xy)[0]
    )):
        ext = build_attractor_repellor(scheme, levels=args.levels, tail=args.tail, refine=args.refine, rate=args.rate)
    _emit(lambda: canonical_dumps(extension_to_json(ext)), args.out)
    return 0


def cmd_build_system(args) -> int:
    from cantor_shrink.metric_systems import full_shift_midpoint_system, midpoint_system, system_to_json
    from cantor_shrink.metric_systems.core import CLIQUE_POINTS_LIMIT

    if (args.scheme is None) == (args.shift is None):
        raise ValueError("give exactly one of --scheme (with --depth) or --shift")
    # export entropy, the only reader of these files, takes CLIQUE_POINTS_LIMIT
    # points: more are refused from their count, before any point exists
    past = f"past the {CLIQUE_POINTS_LIMIT} that export entropy takes"
    if args.shift is not None:
        if args.depth is not None:
            raise ValueError("--shift takes no --depth: the shift's word length is the --shift value")
        if args.shift >= CLIQUE_POINTS_LIMIT.bit_length():  # 2^shift is never formed
            raise ValueError(f"--shift {args.shift}: 2^{args.shift} points, {past}")
        build = lambda: full_shift_midpoint_system(args.shift)
    else:
        if args.depth is None:
            raise ValueError("--scheme needs --depth")
        scheme = _load_scheme(args.scheme, "odometer", "midpoint systems need an odometer scheme (graphs branch)")
        if _audit_fails(args.scheme, scheme):
            return 1
        n = len(scheme.level(args.depth).cells)
        if n > CLIQUE_POINTS_LIMIT:
            raise ValueError(f"--depth {args.depth}: {n} points, {past}")
        build = lambda: midpoint_system(scheme, args.depth)
    with _stage(SYSTEM_LINE, lambda: _held_values("system", system)):
        system = build()
    _emit(lambda: canonical_dumps(system_to_json(system)), args.out)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify_derivative(args) -> int:
    scheme = _load_scheme(args.scheme)
    if _audit_fails(args.scheme, scheme):
        return 1
    with _stage(
        "derivative ratios over depths %s: %s", lambda: (report.stats["depths"], _verdict(report.passed))
    ), _naming(args.scheme):
        report = verify_derivative_ratios(scheme)
    _emit(lambda: canonical_dumps({"command": "verify-derivative", **report.to_json()}), args.out)
    return 0 if report.passed else 1


def _pairs_values(depth: int, report) -> tuple:
    counts = Counter(e["reason"] for e in report.excluded)
    reasons = ", ".join(f"{n} {reason}" for reason, n in sorted(counts.items()))
    return (depth, _verdict(report.passed), report.stats["pairs_checked"], len(report.excluded),
            f" ({reasons})" if reasons else "")


def cmd_verify_lrs(args) -> int:
    scheme = _load_scheme(args.scheme)
    # pair margins at depth d compare the children at depth d+1, so the
    # deepest checkable pair level is one short of the built depth
    feasible = scheme.max_depth - 1
    if args.depth < scheme.min_depth:
        raise ValueError(
            f"{args.scheme}: --depth {args.depth} is before the scheme's first depth {scheme.min_depth}"
        )
    depths = list(range(scheme.min_depth, min(args.depth, feasible) + 1))
    if not depths:
        raise ValueError(
            f"{args.scheme}: scheme holds levels {scheme.min_depth}..{scheme.max_depth}; "
            "no pair depth is checkable — rebuild deeper"
        )
    audit = _audit(args.scheme, scheme)
    if not audit.passed:
        depths = []  # no pair margin is computed on geometry that fails its audit
    reports = [audit]
    for d in depths:
        with _stage("lrs pairs at depth %d: %s, %d checked, %d excluded%s", lambda: _pairs_values(d, report)):
            report = verify_lrs_pairs(scheme, d)
        reports.append(report)
    passed = all(r.passed for r in reports)
    _emit(lambda: canonical_dumps({
        "command": "verify-lrs", "requested_depth": args.depth, "depths_checked": depths, "pass": passed,
        "reports": [r.to_json() for r in reports],
    }), args.out, "lrs report over depths %s: %s, %d bytes", depths, _verdict(passed))
    return 0 if passed else 1


def cmd_verify_cover(args) -> int:
    from cantor_shrink.graphcover import certify_cover

    scheme = _load_scheme(args.graph, "graph", "verify cover expects a graph scheme file")
    if _audit_fails(args.graph, scheme):
        return 1
    with _stage("cover certificates for the %s tower over %d levels (%s): %s", lambda: (
        report["variant"], report["levels"], ", ".join(report["certificates"]), _verdict(report["pass"]),
    )):
        report = certify_cover(scheme.cover)
    _emit(lambda: canonical_dumps({"command": "verify-cover", **report}), args.out)
    return 0 if report["pass"] else 1


def cmd_verify_oracle(args) -> int:
    from cantor_shrink.metric_systems import shrinking_propositions_oracle

    with _stage(
        "shrinking oracle over %d trials with seed %d: %d shrinking systems checked, %d counterexamples: %s",
        lambda: (args.trials, args.seed, report["shrinking_systems"], len(report["counterexamples"]), _verdict(passed)),
    ):
        report = shrinking_propositions_oracle(trials=args.trials, seed=args.seed)
        vacuous = not report["shrinking_systems"]
        if vacuous:
            print(f"fail: no shrinking system in {args.trials} trials; nothing was checked", file=sys.stderr)
        passed = not vacuous and not report["counterexamples"]
    _emit(lambda: canonical_dumps({"command": "verify-oracle", "pass": passed, **report}), args.out)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def cmd_export_ratio(args) -> int:
    scheme = _load_scheme(args.sys)
    if _audit_fails(args.sys, scheme):
        return 1
    with _naming(args.sys):
        _emit(lambda: ratio_csv(scheme), args.out)
    return 0


def cmd_export_svg(args) -> int:
    scheme = _load_scheme(args.sys)
    if _audit_fails(args.sys, scheme):
        return 1
    _emit(lambda: render_svg(scheme), args.out)
    return 0


def cmd_export_entropy(args) -> int:
    import csv

    from cantor_shrink.metric_systems import entropy_estimate, system_from_json
    from cantor_shrink.metric_systems.core import CLIQUE_POINTS_LIMIT

    # the clique search's bound is checked from the file's count of points, before anything is built
    with _stage(SYSTEM_LINE, lambda: _held_values(f"loaded {args.sys}", system)):
        _, system = _read(args.sys, lambda obj: system_from_json(obj, CLIQUE_POINTS_LIMIT))

    def table() -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["eps", "n", "count", "estimate_float"])
        # rows come out eps-major in the order requested
        rows = entropy_estimate(system, args.eps, args.n)
        for eps, row in zip((e for e in args.eps for _ in args.n), rows):
            writer.writerow([str(eps), row["n"], row["count"], repr(row["estimate"])])
        return buf.getvalue()

    # the table's refusals, such as an over-wide sweep, come from the file's contents
    with _naming(args.sys):
        _emit(table, args.out)
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
    b_od.add_argument("--depth", type=_at_least(1), required=True)
    b_od.add_argument("--out")
    b_od.set_defaults(func=cmd_build_odometer)

    b_gr = bsub.add_parser("graph", help="graph-cover interval scheme")
    b_gr.add_argument("--variant", choices=["weakly-mixing", "transitive"], required=True)
    b_gr.add_argument("--levels", type=_at_least(1), required=True)
    b_gr.add_argument("--out")
    b_gr.set_defaults(func=cmd_build_graph)

    b_ex = bsub.add_parser("extension", help="attractor-repellor extension")
    b_ex.add_argument("--scheme", required=True, help="odometer scheme file")
    b_ex.add_argument("--levels", type=_at_least(1), required=True)
    b_ex.add_argument("--tail", type=_at_least(0), required=True)
    b_ex.add_argument("--refine", type=int, required=True)
    b_ex.add_argument("--rate", type=_at_least(2), default=2)
    b_ex.add_argument("--out")
    b_ex.set_defaults(func=cmd_build_extension)

    b_sy = bsub.add_parser("system", help="finite point system (midpoints or shift)")
    b_sy.add_argument("--scheme", help="odometer scheme file")
    b_sy.add_argument("--depth", type=int)
    b_sy.add_argument("--shift", type=_at_least(1), help="full 2-symbol shift of this word length")
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
    v_or.add_argument("--trials", type=_at_least(1), default=1000)
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
    e_en.add_argument("--n", type=_step_list, required=True)
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
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    finally:
        logger = _logger()
        if logger:
            import resource

            # ru_maxrss is in KiB on Linux
            logger.info("peak RSS %.1f MB", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)


if __name__ == "__main__":
    sys.exit(main())
