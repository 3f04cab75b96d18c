"""The benchmark under ``perfbench/`` drives the package through its public
API.  Importing its in-process steps here makes a removed or renamed name
fail the test suite instead of the benchmark run."""

import json
import os
import subprocess
import sys
from pathlib import Path

import cantor_shrink

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_imports_resolve():
    # a child process, so the benchmark's top-level module names (run,
    # tracing, workloads) never shadow anything in this test session
    src_root = str(Path(cantor_shrink.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src_root, str(PERFBENCH)]))
    proc = subprocess.run(
        [sys.executable, "-c", "import inprocess"], capture_output=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr.decode()


# Run in a child next to the benchmark's modules: write od3's reports with the
# CLI and read them back with the benchmark's own readers, printing the name
# of every reading that disagrees with the package.
READ_REPORTS = """
import json, sys
from pathlib import Path

import workloads
from cantor_shrink.cli import main
from cantor_shrink.interval_embed import (
    closed_form_ratio_bound, derivative_ratio_bound, scheme_from_json, verify_lrs_pairs,
)

work = Path(sys.argv[1])
scheme_path, derivative_path, lrs_path = (work / f"{n}.json" for n in ("od3", "derivative", "lrs"))
assert main(["build", "odometer", "--s", "2,4,8", "--depth", "3", "--out", str(scheme_path)]) == 0
assert main(["verify", "derivative", "--scheme", str(scheme_path), "--out", str(derivative_path)]) == 0
assert main(["verify", "lrs", "--scheme", str(scheme_path), "--depth", "2", "--out", str(lrs_path)]) == 0
scheme = scheme_from_json(json.loads(scheme_path.read_text()))
derivative = json.loads(derivative_path.read_text())
failed = [] if [m["depth"] for m in derivative["margins"]] == [1, 2] else ["derivative.depths"]
for m in derivative["margins"]:
    d = m["depth"]
    if workloads.scalar(m["computed"]) != derivative_ratio_bound(scheme, d):
        failed.append(f"derivative.d{d}.computed")
    if workloads.scalar(m["bound"]) != closed_form_ratio_bound(scheme, d):
        failed.append(f"derivative.d{d}.bound")
pairs = {d: verify_lrs_pairs(scheme, d) for d in (1, 2)}
checks = workloads._lrs_checks(
    json.loads(lrs_path.read_text()), depths=[1, 2], cells=2 + 4 + 8,
    pairs=lambda d: pairs[d].stats["pairs_checked"], excluded=lambda d: len(pairs[d].excluded),
)
failed += [name for name, ok in checks if not ok]
print(json.dumps(failed))
"""


def test_benchmark_reads_the_reports(tmp_path):
    """The benchmark decodes every derivative scalar to the package's value
    and finds in a ``verify lrs`` report every key its checks read, so a
    report format it cannot read fails here before it fails the benchmark."""
    src_root = str(Path(cantor_shrink.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src_root, str(PERFBENCH)]))
    proc = subprocess.run(
        [sys.executable, "-c", READ_REPORTS, str(tmp_path)], capture_output=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode() == "[]\n"


# Run in a child next to the benchmark's modules: the finite-systems
# workload's in-process steps, then its checks on the files they wrote,
# printing the name of every check that fails.
FINITE_SYSTEMS = """
import json, sys
from pathlib import Path

import workloads
from tracing import Tracer

work, seed = Path(sys.argv[1]), 7
workloads.finite_inprocess(Tracer("tier-1", enabled=False), work, seed)
print(json.dumps([name for name, ok in workloads.finite_check(work, seed) if not ok]))
"""


def test_benchmark_checks_the_finite_systems(tmp_path):
    """The benchmark's finite-systems checks read the extension, deformed,
    product, oracle and entropy reports the package writes, and every one
    of them holds."""
    src_root = str(Path(cantor_shrink.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src_root, str(PERFBENCH)]))
    proc = subprocess.run(
        [sys.executable, "-c", FINITE_SYSTEMS, str(tmp_path)], capture_output=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode() == "[]\n"


# Run in a child next to the benchmark's modules: the graph-tr3 and
# odometer-d9 in-process steps under an enabled Tracer, then each workload's
# checks on the files they wrote, printing the failing checks and the counts.
TRACED = """
import json, sys
from pathlib import Path

import workloads
from tracing import Tracer

result = {}
for name, steps, check in (("graph", workloads.graph_inprocess, workloads.graph_check),
                           ("odometer", workloads.odometer_inprocess, workloads.odometer_check)):
    work = Path(sys.argv[1]) / name
    work.mkdir()
    tracer = Tracer("tier-1")
    steps(tracer, work, 7)
    result[name] = {"failed": [n for n, ok in check(work, 7) if not ok], "counts": tracer.to_json()["counts"]}
print(json.dumps(result))
"""


def test_benchmark_traces_the_cli_workloads(tmp_path):
    """The traced steps of the two CLI workloads run and pass their checks,
    and count each scheme's largest denominator, which the benchmark reads
    off the cells' interval views: a change to those fails here, not only
    in a ``--trace 1`` run."""
    src_root = str(Path(cantor_shrink.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src_root, str(PERFBENCH)]))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED, str(tmp_path)], capture_output=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    result = json.loads(proc.stdout)
    for name in ("graph", "odometer"):
        assert result[name]["failed"] == [], name
        assert result[name]["counts"]["interval_embed.max_den_bits"] > 0, name
