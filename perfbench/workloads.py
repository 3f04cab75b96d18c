"""The three workloads: their steps, and the checks on what the steps wrote.

Each workload is a fixed construction descriptor; the benchmark seed feeds
only the randomized oracle of finite-systems.  The checks compare the
written reports with references that do not come from the package: closed
forms of the constructions (restated here from their rules, as in
``scripts/derive_expected.py``), or, where no closed form exists, counts
observed at the commit that introduced this benchmark and pinned as
determinism freezes.
"""

from __future__ import annotations

import csv
import importlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from tracing import Tracer

Check = tuple[str, bool]


@dataclass(frozen=True)
class CliStep:
    """One ``cantor-shrink`` command; ``kind`` names the cli.<kind>_s metric."""

    kind: str
    argv: tuple[str, ...]
    loads_scheme: bool


@dataclass(frozen=True)
class Workload:
    name: str
    cli_steps: Callable[[Path], list[CliStep]] | None
    inprocess: Callable[[Tracer, Path, int], str | None]
    check: Callable[[Path, int], list[Check]]
    scheme_file: str | None


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------


def tower(s_list: list[int], n: int) -> int:
    """s_n of a listed modulus tower, continued geometrically past the list."""
    if n <= 0:
        return 1
    if n <= len(s_list):
        return s_list[n - 1]
    ratio = s_list[-1] // (s_list[-2] if len(s_list) >= 2 else 1)
    return s_list[-1] * ratio ** (n - len(s_list))


def transitive_sizes(levels: int) -> list[int]:
    """|V_n| of the transitive cover tower: cycles c1' = 3 c1, c2' = 2 c2 + 3 c1
    glued at one base vertex."""
    c1, c2 = 2, 3
    sizes = [c1 + c2 - 1]
    for _ in range(levels):
        c1, c2 = 3 * c1, 2 * c2 + 3 * c1
        sizes.append(c1 + c2 - 1)
    return sizes


def weakly_mixing_sizes(levels: int) -> list[int]:
    """|V_n| of the weakly-mixing tower: each level is 4 |V_{n-1}| + 2."""
    sizes = [4]
    while len(sizes) <= levels:
        sizes.append(4 * sizes[-1] + 2)
    return sizes


def scalar(obj: dict) -> Fraction:
    """Decode a report scalar: {mantissa, pow2, pow3} or {num, den}."""
    if "mantissa" in obj:
        return Fraction(int(obj["mantissa"])) * Fraction(2) ** obj["pow2"] * Fraction(3) ** obj["pow3"]
    return Fraction(int(obj["num"]), int(obj["den"]))


def _read_json(path: Path):
    return json.loads(path.read_text())


def _lrs_checks(report: dict, depths: list[int], cells: int, pairs, excluded) -> list[Check]:
    """Checks on a ``verify lrs`` report; ``pairs``/``excluded`` map depth -> count."""
    checks = [
        ("lrs.pass", report["pass"] is True),
        ("lrs.depths_checked", report["depths_checked"] == depths),
        ("audit.pass", report["reports"][0]["pass"] is True),
        ("audit.cells", report["reports"][0]["stats"]["cells"] == cells),
        ("lrs.report_count", len(report["reports"]) == len(depths) + 1),
    ]
    for d, sub in zip(depths, report["reports"][1:]):
        checks += [
            (f"lrs.d{d}.pass", sub["pass"] is True and not sub["witnesses"]),
            (f"lrs.d{d}.pairs_checked", sub["stats"]["pairs_checked"] == pairs(d)),
            (f"lrs.d{d}.margins", len(sub["margins"]) == pairs(d)),
            (f"lrs.d{d}.excluded", len(sub.get("excluded", [])) == excluded(d)),
        ]
    return checks


# ---------------------------------------------------------------------------
# graph-tr3: the transitive graph-cover scheme, levels 0..3
# ---------------------------------------------------------------------------

GRAPH_VARIANT, GRAPH_LEVELS, GRAPH_LRS_DEPTH = "transitive", 3, 2
# Sibling pairs depend on the cover maps' preimage counts, which have no
# closed form; these are the counts at the commit that added the benchmark.
GRAPH_PAIRS = {0: 12, 1: 81, 2: 291}
GRAPH_EXCLUDED = 26  # 16 under an exceptional parent, 10 split across parents


def graph_cli(work: Path) -> list[CliStep]:
    scheme = str(work / "scheme.json")
    return [
        CliStep("build", ("build", "graph", "--variant", GRAPH_VARIANT, "--levels", str(GRAPH_LEVELS),
                          "--out", scheme), False),
        CliStep("verify", ("verify", "lrs", "--scheme", scheme, "--depth", str(GRAPH_LRS_DEPTH),
                           "--out", str(work / "lrs.json")), True),
    ]


def graph_inprocess(tr: Tracer, work: Path, seed: int) -> str:
    ip = importlib.import_module("inprocess")
    with tr.span("step.build"):
        digest = ip.build_graph(tr, work / "scheme.json", GRAPH_VARIANT, GRAPH_LEVELS)
    with tr.span("step.verify"):
        ip.verify_lrs(tr, work / "scheme.json", GRAPH_LRS_DEPTH, work / "lrs.json")
    return digest


def graph_check(work: Path, seed: int) -> list[Check]:
    return _lrs_checks(
        _read_json(work / "lrs.json"),
        depths=list(range(GRAPH_LRS_DEPTH + 1)),
        cells=sum(transitive_sizes(GRAPH_LEVELS)),
        pairs=GRAPH_PAIRS.get,
        excluded=lambda d: GRAPH_EXCLUDED,
    )


# ---------------------------------------------------------------------------
# odometer-d9: the (2, 4, 8) odometer scheme, levels 1..9
# ---------------------------------------------------------------------------

ODOMETER_S, ODOMETER_DEPTH = [2, 4, 8], 9


def _k(d: int) -> int:
    return tower(ODOMETER_S, d) // tower(ODOMETER_S, d - 1)


def odometer_ratio(d: int) -> Fraction:
    """Computed derivative ratio at depth d: k 2^(-d k) with k = k_{d+1},
    one third of the closed-form bound 3 k 2^(-d k)."""
    return Fraction(_k(d + 1), 2 ** (d * _k(d + 1)))


def _pairs_per_parent(d: int) -> int:
    """Each depth-d parent has k_{d+1} children, so C(k, 2) sibling pairs; the
    single exceptional parent per depth is excluded."""
    return math.comb(_k(d + 1), 2)


def odometer_cli(work: Path) -> list[CliStep]:
    scheme = str(work / "scheme.json")
    s = ",".join(map(str, ODOMETER_S))
    return [
        CliStep("build", ("build", "odometer", "--s", s, "--depth", str(ODOMETER_DEPTH), "--out", scheme),
                False),
        CliStep("verify", ("verify", "derivative", "--scheme", scheme, "--out",
                           str(work / "derivative.json")), True),
        CliStep("verify", ("verify", "lrs", "--scheme", scheme, "--depth", str(ODOMETER_DEPTH - 1),
                           "--out", str(work / "lrs.json")), True),
        CliStep("export", ("export", "ratio", "--sys", scheme, "--out", str(work / "ratio.csv")), True),
    ]


def odometer_inprocess(tr: Tracer, work: Path, seed: int) -> str:
    ip = importlib.import_module("inprocess")
    scheme = work / "scheme.json"
    with tr.span("step.build"):
        digest = ip.build_odometer(tr, scheme, ODOMETER_S, ODOMETER_DEPTH)
    with tr.span("step.verify"):
        ip.verify_derivative(tr, scheme, work / "derivative.json")
    with tr.span("step.verify"):
        ip.verify_lrs(tr, scheme, ODOMETER_DEPTH - 1, work / "lrs.json")
    with tr.span("step.export"):
        ip.export_ratio(tr, scheme, work / "ratio.csv")
    return digest


def odometer_check(work: Path, seed: int) -> list[Check]:
    depths = list(range(1, ODOMETER_DEPTH))
    derivative = _read_json(work / "derivative.json")
    checks = [
        ("derivative.pass", derivative["pass"] is True and not derivative["witnesses"]),
        ("derivative.depths", derivative["stats"]["depths"] == depths),
        ("derivative.margins", [m["depth"] for m in derivative["margins"]] == depths),
    ]
    for m in derivative["margins"]:
        d = m["depth"]
        checks += [
            (f"derivative.d{d}.computed", scalar(m["computed"]) == odometer_ratio(d)),
            (f"derivative.d{d}.bound", scalar(m["bound"]) == 3 * odometer_ratio(d)),
        ]
    checks += _lrs_checks(
        _read_json(work / "lrs.json"),
        depths=depths,
        cells=sum(tower(ODOMETER_S, n) for n in range(1, ODOMETER_DEPTH + 1)),
        pairs=lambda d: (tower(ODOMETER_S, d) - 1) * _pairs_per_parent(d),
        excluded=_pairs_per_parent,
    )
    with open(work / "ratio.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    checks.append(("ratio_csv.depths", [int(r["depth"]) for r in rows] == depths))
    for r in rows:
        d = int(r["depth"])
        value = Fraction(int(r["max_ratio_num"]), int(r["max_ratio_den"]))
        checks.append((f"ratio_csv.d{d}", value == odometer_ratio(d)))
    return checks


# ---------------------------------------------------------------------------
# finite-systems: metric systems and cover certificates, no scheme files
# ---------------------------------------------------------------------------

ORACLE_TRIALS = 5000
TALL_S, EXT_LEVELS, EXT_TAIL, EXT_REFINE = [2, 4, 8, 16, 32], 3, 16, 5


def finite_inprocess(tr: Tracer, work: Path, seed: int) -> None:
    ip = importlib.import_module("inprocess")
    with tr.span("step.covers"):
        ip.cover_certificates(tr, work / "covers.json")
    with tr.span("step.extension"):
        ip.extension(tr, work / "extension.json", TALL_S, EXT_LEVELS, EXT_TAIL, EXT_REFINE)
    with tr.span("step.deformed"):
        od3 = ip.odometer3(tr)
        ip.deformed_triple(tr, od3, work / "deformed.json")
    with tr.span("step.product"):
        ip.product(tr, od3, work / "product.json")
    with tr.span("step.oracle"):
        ip.oracle(tr, seed, ORACLE_TRIALS, work / "oracle.json")
    with tr.span("step.entropy"):
        ip.entropy_tables(tr, od3, work / "entropy.json")


def finite_check(work: Path, seed: int) -> list[Check]:
    from cantor_shrink.metric_systems import OMEGA

    covers = _read_json(work / "covers.json")
    wm, tr = covers["weakly_mixing"], covers["transitive"]
    checks = [
        ("covers.wm.vertices", wm["vertices"] == weakly_mixing_sizes(4)),
        ("covers.wm.steps", len(wm["steps"]) == 4 and all(all(s.values()) for s in wm["steps"])),
        ("covers.wm.top_edge_surjective", wm["top_edge_surjective"] is True),
        ("covers.wm.weak_mixing", wm["weak_mixing"] is True),
        ("covers.tr.transitive", len(tr["steps"]) == 3 and all(s["transitivity"] for s in tr["steps"])),
        ("covers.tr.not_minimal", all(not s["minimality"] and s["minimality_witness"] for s in tr["steps"])),
        ("covers.tr.restricted", tr["restricted_cycle_lengths"] == [2 * 3**n for n in range(4)]),
        ("covers.tr.periodic_point_free", tr["periodic_point_free"] is True),
    ]
    ext = _read_json(work / "extension.json")
    # backward orbit y_{-k_L}..y_0 with k_L = s_L, the forward tail, and two
    # sheets of s_refine points each
    points = tower(TALL_S, EXT_LEVELS) + 1 + EXT_TAIL + 2 * tower(TALL_S, EXT_REFINE)
    checks += [
        ("extension.pass", ext["pass"] is True and not ext["witnesses"]),
        ("extension.points", ext["stats"]["points"] == points),
    ]
    deformed = _read_json(work / "deformed.json")
    checks += [
        ("deformed.pass", deformed["pass"] is True and not deformed["witnesses"]),
        ("deformed.unique_periodic_point", deformed["periodic_points"] == [list(OMEGA)]),
    ]
    product = _read_json(work / "product.json")
    checks += [
        ("product.points", product["points"] == tower([2, 4, 8], 3) ** 2),
        ("product.pass", product["pass"] is True and product["min_margin_positive"] is True),
    ]
    oracle = _read_json(work / "oracle.json")
    checks += [
        ("oracle.trials", oracle["trials"] == ORACLE_TRIALS and oracle["seed"] == seed),
        ("oracle.no_counterexamples", oracle["counterexamples"] == []),
    ]
    entropy = _read_json(work / "entropy.json")
    od, shift = entropy["odometer"], entropy["shift"]
    checks += [
        # below half the least midpoint gap every one of the s_3 = 8 points is
        # separated, so the estimate is exactly log(8)/n
        ("entropy.odometer.counts", [r["count"] for r in od] == [8, 8, 8]),
        ("entropy.odometer.estimates",
         all(abs(r["estimate"] - math.log(8) / r["n"]) <= 1e-12 for r in od)),
        ("entropy.shift.count", [r["count"] for r in shift] == [2**6]),
        ("entropy.shift.near_log2", abs(shift[0]["estimate"] - math.log(2)) <= 0.15 * math.log(2)),
    ]
    return checks


WORKLOADS = {
    w.name: w
    for w in (
        Workload("graph-tr3", graph_cli, graph_inprocess, graph_check, "scheme.json"),
        Workload("odometer-d9", odometer_cli, odometer_inprocess, odometer_check, "scheme.json"),
        Workload("finite-systems", None, finite_inprocess, finite_check, None),
    )
}


def prepare(name: str) -> Workload:
    """Set-up before the first timed step: for the in-process workload, import
    the package; the CLI workloads import it afresh in every command."""
    workload = WORKLOADS[name]
    if workload.cli_steps is None:
        importlib.import_module("inprocess")
    return workload
