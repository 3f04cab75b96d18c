import contextlib
import hashlib
import io
import json
import logging
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import hypothesis as h
import hypothesis.strategies as st
import pytest

import cantor_shrink
from cantor_shrink.cli import main
from cantor_shrink.exact import MEMORY_BOUND, canonical_dumps, digits_to_int, int_to_digits
from cantor_shrink.interval_embed import (
    absolute_level,
    audit_scheme,
    build_odometer_scheme,
    scheme_from_json,
)
from cantor_shrink.metric_systems import (
    build_attractor_repellor,
    build_fixed_point_system,
    ExtensionSystem,
    system_from_json,
    verify_deformed_lrs,
    verify_extension_lrs,
)
from cantor_shrink.odometer import OdometerSpec

# the leading exponent a test accepts when it decodes a digit string of a
# file it built: more than any of them holds
BITS = 1 << 24


def run(argv):
    """Drive the CLI in-process, returning (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_child(argv, log_level=None):
    """Run ``python -m cantor_shrink.cli`` in a child process, output as bytes.

    The child inherits this process's environment, with the source root of
    the imported package first on PYTHONPATH, so it runs the same copy the
    tests import whether or not the package is installed.
    CANTOR_SHRINK_LOG is set to ``log_level``, or removed when that is None.
    """
    return run_python(["-m", "cantor_shrink.cli", *argv], log_level)


def run_python(args, log_level=None, timeout=None):
    """Run ``python *args`` in a child process set up as :func:`run_child`
    says, killed after ``timeout`` seconds when that is given."""
    env = dict(os.environ)
    src_root = str(Path(cantor_shrink.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src_root, env.get("PYTHONPATH")) if p)
    env.pop("CANTOR_SHRINK_LOG", None)
    if log_level is not None:
        env["CANTOR_SHRINK_LOG"] = log_level
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, timeout=timeout)


def cli_log_lines(caplog):
    return [r.getMessage() for r in caplog.records if r.name == "cantor_shrink.cli"]


def child_log_lines(proc):
    """The INFO lines a child wrote to stderr, each without its logger prefix."""
    lines = proc.stderr.decode().splitlines()
    assert all(line.startswith("INFO:cantor_shrink.cli:") for line in lines), lines
    return [line.removeprefix("INFO:cantor_shrink.cli:") for line in lines]


def assert_lines_match(lines, patterns):
    assert len(lines) == len(patterns), lines
    for line, pattern in zip(lines, patterns):
        assert re.fullmatch(pattern, line), (line, pattern)


def scheme_log_lines(path) -> list[str]:
    """Patterns of the two lines a command logs on reading a scheme file
    that passes its audit: the load, then the audit."""
    name = re.escape(str(path))
    return [
        rf"loaded {name}: \d+ bytes, \d+ levels, \d+ cells, \d+ signed digits, largest scale \d+ bits, "
        rf"predicted \d+ bytes in \d+\.\d\ds",
        rf"audit of {name}: pass in \d+\.\d\ds",
    ]


def serialised_line(text: str) -> str:
    """Pattern of the line a command logs on rendering ``text``, its artifact."""
    return rf"serialised {len(text)} bytes in \d+\.\d\ds"


# the last line every command logs
PEAK_LINE = r"peak RSS \d+\.\d MB"


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """Prebuilt artifact files shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    paths = {
        "od3": root / "od3.json",
        "od1": root / "od1.json",
        "wm1": root / "wm1.json",
        "wm2": root / "wm2.json",
        "tr2": root / "tr2.json",
        "sys2": root / "sys2.json",
        "sys3": root / "sys3.json",
        "sh6": root / "sh6.json",
        "root": root,
    }
    assert run(["build", "odometer", "--s", "2,4,8", "--depth", "3", "--out", str(paths["od3"])])[0] == 0
    assert run(["build", "odometer", "--s", "2,4,8", "--depth", "1", "--out", str(paths["od1"])])[0] == 0
    assert run(["build", "graph", "--variant", "weakly-mixing", "--levels", "1", "--out", str(paths["wm1"])])[0] == 0
    assert run(["build", "graph", "--variant", "weakly-mixing", "--levels", "2", "--out", str(paths["wm2"])])[0] == 0
    assert run(["build", "graph", "--variant", "transitive", "--levels", "2", "--out", str(paths["tr2"])])[0] == 0
    assert run(["build", "system", "--scheme", str(paths["od3"]), "--depth", "2", "--out", str(paths["sys2"])])[0] == 0
    assert run(["build", "system", "--scheme", str(paths["od3"]), "--depth", "3", "--out", str(paths["sys3"])])[0] == 0
    assert run(["build", "system", "--shift", "6", "--out", str(paths["sh6"])])[0] == 0
    return paths


# ---------------------------------------------------------------------------
# build: determinism and output modes


def test_rebuild_is_byte_identical(work, tmp_path):
    again = tmp_path / "od3_again.json"
    assert run(["build", "odometer", "--s", "2,4,8", "--depth", "3", "--out", str(again)])[0] == 0
    assert again.read_bytes() == work["od3"].read_bytes()


def test_stdout_matches_file_output(work):
    code, out, _ = run(["build", "odometer", "--s", "2,4,8", "--depth", "3"])
    assert code == 0
    assert out == work["od3"].read_text()
    assert out.endswith("\n")


def test_build_logs_the_build_the_serialise_and_the_write(tmp_path):
    out_path = tmp_path / "od3.json"
    argv = ["build", "odometer", "--s", "2,4,8", "--depth", "3", "--out", str(out_path)]
    logged = run_child(argv, log_level="INFO")
    assert (logged.returncode, logged.stdout) == (0, b"")
    size = out_path.stat().st_size
    assert_lines_match(child_log_lines(logged), [
        r"odometer depth 3 built, predicted \d+ bytes in \d+\.\d\ds",
        rf"serialised {size} bytes in \d+\.\d\ds",
        rf"wrote {re.escape(str(out_path))} \({size} bytes\) in \d+\.\d\ds",
        PEAK_LINE,
    ])
    quiet = run_child(argv)
    assert (quiet.returncode, quiet.stdout, quiet.stderr) == (0, b"", b"")
    assert out_path.stat().st_size == size


def test_build_system_shift(tmp_path):
    code, out, _ = run(["build", "system", "--shift", "2"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["points"]) == 4


def refused_while_parsing(argv) -> str:
    """The last stderr line of ``main(argv)``, after checking that argparse
    stopped it with status 2."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    return err.getvalue().splitlines()[-1]


@pytest.mark.parametrize("depth", ["-1", "0"])
def test_build_system_refuses_shift_depths_out_of_range(depth):
    line = refused_while_parsing(["build", "system", "--shift", depth])
    assert line.endswith(f"error: argument --shift: not an integer of at least 1: '{depth}'")


# (command, flag, least value): each flag below its least value is refused
# while the command line is parsed, and so before the scheme, a file that
# does not exist in the refusal test, is read
EXTENSION_ARGV = ["build", "extension", "--scheme", "{od3}", "--levels", "1", "--tail", "4", "--refine", "3"]
FLAG_BOUNDS = {
    "odometer-depth": (["build", "odometer", "--s", "2,4,8", "--depth", "3"], "--depth", 1),
    "graph-levels": (["build", "graph", "--variant", "transitive", "--levels", "2"], "--levels", 1),
    "extension-levels": (EXTENSION_ARGV, "--levels", 1),
    "extension-tail": (EXTENSION_ARGV, "--tail", 0),
    "extension-rate": ([*EXTENSION_ARGV, "--rate", "4"], "--rate", 2),
    "system-shift": (["build", "system", "--shift", "3"], "--shift", 1),
    "oracle-trials": (["verify", "oracle", "--trials", "50", "--seed", "3"], "--trials", 1),
}


def _with_flag(case, value, scheme):
    argv, flag, _ = FLAG_BOUNDS[case]
    argv = [arg.format(od3=scheme) for arg in argv]
    argv[argv.index(flag) + 1] = str(value)
    return argv


@pytest.mark.parametrize("below", [1, 5])
@pytest.mark.parametrize("case", sorted(FLAG_BOUNDS))
def test_flags_below_their_least_value_are_refused_while_parsing(tmp_path, case, below):
    _, flag, low = FLAG_BOUNDS[case]
    line = refused_while_parsing(_with_flag(case, low - below, tmp_path / "missing.json"))
    assert line.endswith(f"error: argument {flag}: not an integer of at least {low}: '{low - below}'")


@pytest.mark.parametrize("case", sorted(FLAG_BOUNDS))
def test_flags_at_their_least_value_are_accepted(work, case):
    assert run(_with_flag(case, FLAG_BOUNDS[case][2], work["od3"]))[0] == 0


@pytest.mark.parametrize("tower, reason", [
    ("0,4", "s_1 must be at least 2, got 0"), ("4,6", "modulus 6 does not properly extend 4"),
])
def test_build_odometer_names_the_tower_it_refuses(tower, reason):
    assert run(["build", "odometer", "--s", tower, "--depth", "2"]) == (2, "", f"error: --s {tower}: {reason}\n")


def refused_in_a_small_child(argv, seconds=1):
    """The one stderr line of ``main(argv)`` run in a child capped at 1 GB of
    address space, after checking that it exits 2 within ``seconds``."""
    code = (
        "import resource, sys, time\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from cantor_shrink.cli import main\n"
        "t0 = time.perf_counter()\n"
        f"status = main({argv + ['--out', os.devnull]!r})\n"
        "print(status, time.perf_counter() - t0)\n"
    )
    proc = run_python(["-c", code], timeout=60)
    status, elapsed = proc.stdout.decode().split()
    assert status == "2" and float(elapsed) < seconds
    [line] = proc.stderr.decode().splitlines()
    return line


# the first word length of the full shift past the 512 points export entropy
# takes, the only reader of system files: 2^10 points
FIRST_REFUSED_SHIFT = 10


@pytest.mark.parametrize("depth", [str(FIRST_REFUSED_SHIFT), str(10**18)])
def test_build_system_refuses_the_first_shift_past_the_bound(depth):
    # refused from the word length alone, before any word is built: a
    # request of 10^18 is refused in a child that could not hold its words
    line = refused_in_a_small_child(["build", "system", "--shift", depth])
    assert line == f"error: --shift {depth}: 2^{depth} points, past the 512 that export entropy takes"


def test_build_system_writes_the_longest_shift_export_entropy_takes(tmp_path):
    out = tmp_path / "sh9.json"
    assert run(["build", "system", "--shift", str(FIRST_REFUSED_SHIFT - 1), "--out", str(out)])[0] == 0
    code, table, _ = run(["export", "entropy", "--sys", str(out), "--eps", "1/4", "--n", "1"])
    assert (code, table.splitlines()[1]) == (0, "1/4,1,4,1.3862943611198906")


def test_build_system_shortest_shift():
    code, out, _ = run(["build", "system", "--shift", "1"])
    assert code == 0
    assert json.loads(out)["points"] == ["0", "1"]


def test_build_system_refuses_a_depth_with_the_shift():
    code, out, err = run(["build", "system", "--shift", "3", "--depth", "9"])
    assert (code, out) == (2, "")
    assert err == "error: --shift takes no --depth: the shift's word length is the --shift value\n"


# the first depth at which a build's predicted bytes, the level's and those
# of the levels above, pass the bound: level 5 of either graph tower (7.6 GB
# transitive, 126 GB weakly mixing), depth 14 of the (2, 4, 8) odometer (9.1 GB)
FIRST_REFUSED = {"graph": 5, "odometer": 14}


@pytest.mark.parametrize("argv, depth", [
    (["build", "graph", "--variant", "weakly-mixing", "--levels", "5"], 5),
    (["build", "odometer", "--s", "2,4,8", "--depth", "18"], 18),
    (["build", "graph", "--variant", "transitive", "--levels", "5"], 5),
    (["build", "odometer", "--s", "2,4,8", "--depth", "14"], 14),
    (["build", "graph", "--variant", "weakly-mixing", "--levels", "12"], 12),
])
def test_build_refuses_a_scale_no_reader_loads(argv, depth):
    # the child builds nothing: the refusal comes from the predicted bytes
    # of the scale steps, level by level, before any cell is made (and
    # before a graph tower grows past the refused level), so stderr is the
    # error line alone
    line = refused_in_a_small_child(argv)
    refused = min(depth, FIRST_REFUSED[argv[1]])
    match = re.fullmatch(
        rf"error: depth {refused}: predicted (\d+) bytes of integers, past the bound of {MEMORY_BOUND}", line
    )
    assert match and int(match[1]) > MEMORY_BOUND


def test_build_system_needs_exactly_one_source(work):
    code, _, err = run(["build", "system", "--shift", "2", "--scheme", str(work["od3"]), "--depth", "1"])
    assert code == 2 and "exactly one" in err
    code, _, err = run(["build", "system"])
    assert code == 2
    code, _, err = run(["build", "system", "--scheme", str(work["od3"])])
    assert code == 2 and "--depth" in err


def test_build_extension_roundtrip(work, tmp_path):
    out_path = tmp_path / "ext.json"
    args = [
        "build", "extension", "--scheme", str(work["od3"]),
        "--levels", "1", "--tail", "4", "--refine", "3", "--out", str(out_path),
    ]
    assert run(args)[0] == 0
    payload = json.loads(out_path.read_text())
    assert payload["kind"] == "extension"
    assert payload["k"] == [2]
    assert len(payload["points"]) == 23
    again = tmp_path / "ext2.json"
    assert run(args[:-1] + [str(again)])[0] == 0
    assert again.read_bytes() == out_path.read_bytes()


def test_quiet_build_extension_builds_no_system(work, monkeypatch, caplog):
    # nothing the command writes needs the extension's finite system, and
    # its INFO line takes the counts from the points and their common scale
    argv = ["build", "extension", "--scheme", str(work["od3"]), "--levels", "1", "--tail", "4", "--refine", "3"]
    code, out, _ = run(argv)

    def refuse(self):
        raise AssertionError("build extension built the extension's finite system")

    monkeypatch.setattr(ExtensionSystem, "as_system", refuse)
    assert run(argv) == (0, out, "")
    caplog.set_level(logging.INFO, logger="cantor_shrink.cli")
    assert run(argv) == (0, out, "")
    assert any(line.startswith("extension: 23 points, 49-bit scale") for line in cli_log_lines(caplog))


PEAK_RSS = "import resource\nprint(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"


def test_logged_build_extension_peaks_as_the_quiet_one(tmp_path):
    # 619 points over a 604-bit scale: forming their distance matrix for the
    # log line alone raised the logged run's peak from 19 to 62 MB
    scheme = tmp_path / "od3.json"
    assert run(["build", "odometer", "--s", "2,4,8", "--depth", "3", "--out", str(scheme)])[0] == 0
    argv = ["build", "extension", "--scheme", str(scheme), "--levels", "1", "--tail", "600", "--refine", "3"]
    code = f"from cantor_shrink.cli import main\nassert main({argv + ['--out', os.devnull]!r}) == 0\n{PEAK_RSS}"
    peaks = []
    for level in ("INFO", None):
        proc = run_python(["-c", code], log_level=level)
        assert proc.returncode == 0, proc.stderr.decode()
        peaks.append(int(proc.stdout.decode()))  # KiB
    logged, quiet = peaks
    assert abs(logged - quiet) < 4096, peaks


def test_build_extension_continues_the_listed_tower(tmp_path):
    # return depths past the listed moduli read the geometric continuation,
    # as the scheme build does, so a short list and its spelled-out tower
    # give the same extension
    extensions = []
    for s in ("2,4,8", "2,4,8,16,32,64"):
        scheme, ext = tmp_path / f"od-{s}.json", tmp_path / f"ext-{s}.json"
        assert run(["build", "odometer", "--s", s, "--depth", "6", "--out", str(scheme)])[0] == 0
        argv = ["build", "extension", "--scheme", str(scheme), "--levels", "4", "--tail", "2", "--refine", "6"]
        assert run([*argv, "--out", str(ext)]) == (0, "", "")
        extensions.append(json.loads(ext.read_text()))
    short, spelled = extensions
    assert short.pop("source") == {"rule": "list", "s": [2, 4, 8]}
    assert spelled.pop("source") == {"rule": "list", "s": [2, 4, 8, 16, 32, 64]}
    assert short == spelled and short["k"] == [2, 4, 8, 16]


def test_build_system_refuses_a_depth_before_the_first(work):
    code, out, err = run(["build", "system", "--scheme", str(work["od3"]), "--depth", "0"])
    assert (code, out) == (2, "")
    [line] = err.splitlines()
    assert line == "error: depth 0 is before the scheme's first depth 1"


def test_build_system_refuses_a_level_past_the_point_bound(tmp_path):
    # the first depth of the (2, 4, 8) odometer past the 512 points export
    # entropy takes: 1,024 points, refused from the level's count before any
    # midpoint is formed, in a child that loads and audits the scheme
    scheme = tmp_path / "od10.json"
    assert run(["build", "odometer", "--s", "2,4,8", "--depth", "10", "--out", str(scheme)])[0] == 0
    line = refused_in_a_small_child(["build", "system", "--scheme", str(scheme), "--depth", "10"])
    assert line == "error: --depth 10: 1024 points, past the 512 that export entropy takes"


# ---------------------------------------------------------------------------
# verify: exit codes and report shapes


def test_verify_derivative_passes(work):
    code, out, _ = run(["verify", "derivative", "--scheme", str(work["od3"])])
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "verify-derivative"
    assert report["pass"] is True


def test_verify_lrs_clamps_to_feasible_depths(work):
    code, out, _ = run(["verify", "lrs", "--scheme", str(work["od3"]), "--depth", "5"])
    assert code == 0
    report = json.loads(out)
    assert report["requested_depth"] == 5
    # pair depth d compares children at d+1, so a depth-3 scheme checks 1..2
    assert report["depths_checked"] == [1, 2]
    assert report["pass"] is True
    assert [r["check"] for r in report["reports"]] == ["audit", "lrs-pairs", "lrs-pairs"]


def test_verify_lrs_past_the_deepest_depth_checks_no_more(work):
    # the depths stop at the deepest checkable one, so a request of 10^18
    # costs what a request of 2 does, and reports the same
    argv = ["verify", "lrs", "--scheme", str(work["od3"]), "--depth"]
    code, near, _ = run([*argv, "2"])
    start = time.perf_counter()
    far_code, far, _ = run([*argv, str(10**18)])
    assert time.perf_counter() - start < 1
    assert code == far_code == 0
    near, far = json.loads(near), json.loads(far)
    assert (near.pop("requested_depth"), far.pop("requested_depth")) == (2, 10**18)
    assert near == far


def test_verify_lrs_logs_each_depth_and_the_report_size(work, caplog):
    argv = ["verify", "lrs", "--scheme", str(work["od3"]), "--depth", "2"]
    caplog.set_level(logging.INFO, logger="cantor_shrink.cli")
    code, out, _ = run(argv)
    assert code == 0
    patterns = [
        *scheme_log_lines(work["od3"]),
        r"lrs pairs at depth 1: pass, 1 checked, 1 excluded \(1 exceptional parent\) in \d+\.\d\ds",
        r"lrs pairs at depth 2: pass, 3 checked, 1 excluded \(1 exceptional parent\) in \d+\.\d\ds",
        rf"lrs report over depths \[1, 2\]: pass, {len(out)} bytes in \d+\.\d\ds",
        PEAK_LINE,
    ]
    assert_lines_match(cli_log_lines(caplog), patterns)
    # the lines go to stderr under CANTOR_SHRINK_LOG only, and the report
    # keeps its bytes either way
    logged, quiet = run_child(argv, log_level="INFO"), run_child(argv)
    assert logged.stdout == quiet.stdout == out.encode()
    assert_lines_match(child_log_lines(logged), patterns)
    assert quiet.stderr == b""


def test_scheme_load_logs_what_it_read(work, caplog):
    # the file's bytes, levels, cells, nonzero digits, largest scale and
    # predicted bytes, each counted here from the file itself: a level
    # predicts 4 integers per cell and 3 more, each of its scale's bytes
    caplog.set_level(logging.INFO, logger="cantor_shrink.cli")
    for name, command in (("od3", ["export", "ratio", "--sys"]), ("wm2", ["verify", "cover", "--graph"])):
        caplog.clear()
        assert run([*command, str(work[name])])[0] == 0
        text = work[name].read_text()
        obj = json.loads(text)
        strings = [lvl[key] for lvl in obj["levels"] for key in ("scale", "a", "b")]
        strings += [x for lvl in obj["levels"] for key in LENGTH_COLUMNS for x in lvl[key]]
        digits = len(re.findall(r"[+-]", "".join(strings)))
        sizes = [digits_to_int(lvl["scale"], BITS).bit_length() for lvl in obj["levels"]]
        predicted = sum((4 * len(lvl["label"]) + 3) * -(-b // 8) for lvl, b in zip(obj["levels"], sizes))
        cells = sum(len(lvl["label"]) for lvl in obj["levels"])
        load, audit, *_, peak = cli_log_lines(caplog)
        assert re.fullmatch(
            rf"loaded {re.escape(str(work[name]))}: {len(text.encode())} bytes, {len(obj['levels'])} levels, "
            rf"{cells} cells, {digits} signed digits, largest scale {max(sizes)} bits, predicted {predicted} bytes "
            rf"in \d+\.\d\ds",
            load,
        )
        assert re.fullmatch(rf"audit of {re.escape(str(work[name]))}: pass in \d+\.\d\ds", audit)
        assert re.fullmatch(PEAK_LINE, peak)


def test_od9_load_logs_the_cells_and_digits_it_read(tmp_path, caplog):
    # the columns hold what the cells held: od9's 1,022 cells and 4,655
    # nonzero signed digits, now in 43,740 bytes
    path = tmp_path / "od9.json"
    assert run([*GOLDEN_VALUES["od9"][0], "--out", str(path)])[0] == 0
    caplog.set_level(logging.INFO, logger="cantor_shrink.cli")
    assert run(["verify", "derivative", "--scheme", str(path)])[0] == 0
    load = cli_log_lines(caplog)[0]
    assert re.fullmatch(rf"loaded {re.escape(str(path))}: 43740 bytes, 9 levels, 1022 cells, 4655 signed digits, "
                        r"largest scale \d+ bits, predicted \d+ bytes in \d+\.\d\ds", load)


def test_failing_audit_and_bad_input_are_logged(work, tmp_path, caplog):
    caplog.set_level(logging.INFO, logger="cantor_shrink.cli")
    bad = _write_mutated(work, tmp_path / "bad.json", _swap_core_and_carrier)
    assert run(["verify", "derivative", "--scheme", str(bad)])[0] == 1
    assert_lines_match(cli_log_lines(caplog), [
        scheme_log_lines(bad)[0], rf"audit of {re.escape(str(bad))}: fail in \d+\.\d\ds", PEAK_LINE,
    ])
    # input refused as bad logs no load, but still its peak RSS
    caplog.clear()
    bad = _write_mutated(work, tmp_path / "old.json", lambda obj: obj.update(format=3))
    code, out, err = run(["verify", "derivative", "--scheme", str(bad)])
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert_lines_match(cli_log_lines(caplog), [PEAK_LINE])


def test_verify_lrs_log_counts_match_the_report(work, caplog):
    # on a graph scheme, both exclusion reasons, counted as the report lists them
    caplog.set_level(logging.INFO, logger="cantor_shrink.cli")
    code, out, _ = run(["verify", "lrs", "--scheme", str(work["wm2"]), "--depth", "1"])
    assert code == 0
    subs = json.loads(out)["reports"][1:]
    lines = cli_log_lines(caplog)
    assert len(lines) == len(subs) + 4
    assert_lines_match(lines[:2], scheme_log_lines(work["wm2"]))
    for sub, line in zip(subs, lines[2:]):
        reasons = [e["reason"] for e in sub["excluded"]]
        counts = ", ".join(f"{reasons.count(r)} {r}" for r in sorted(set(reasons)))
        prefix = (
            f"lrs pairs at depth {sub['stats']['depth']}: pass, {sub['stats']['pairs_checked']} checked, "
            f"{len(reasons)} excluded ({counts}) in "
        )
        assert line.startswith(prefix) and "successors split across parents" in counts
    assert re.fullmatch(rf"lrs report over depths \[0, 1\]: pass, {len(out)} bytes in \d+\.\d\ds", lines[-2])
    assert re.fullmatch(PEAK_LINE, lines[-1])


def test_verify_lrs_depth_one_scheme_is_unusable(work):
    code, _, err = run(["verify", "lrs", "--scheme", str(work["od1"]), "--depth", "3"])
    assert code == 2
    assert "no pair depth is checkable" in err


def test_verify_lrs_refuses_a_depth_before_the_first(work):
    code, out, err = run(["verify", "lrs", "--scheme", str(work["od3"]), "--depth", "0"])
    assert (code, out) == (2, "")
    assert err == f"error: {work['od3']}: --depth 0 is before the scheme's first depth 1\n"


def test_verify_cover_weakly_mixing(work, caplog):
    caplog.set_level(logging.INFO, logger="cantor_shrink.cli")
    code, out, _ = run(["verify", "cover", "--graph", str(work["wm2"])])
    assert code == 0
    assert_lines_match(cli_log_lines(caplog), [
        *scheme_log_lines(work["wm2"]),
        r"cover certificates for the weakly-mixing tower over 2 levels "
        r"\(minimality, weak_mixing\): pass in \d+\.\d\ds",
        serialised_line(out),
        PEAK_LINE,
    ])
    report = json.loads(out)
    assert report["pass"] is True
    assert report["certificates"] == {"minimality": True, "weak_mixing": True}
    for step in report["steps"]:
        assert step["homomorphism"] and step["bidirectional"] and step["edge_surjective"]
        assert step["minimality"]


def test_verify_cover_transitive(work):
    code, out, _ = run(["verify", "cover", "--graph", str(work["tr2"])])
    assert code == 0
    report = json.loads(out)
    certs = report["certificates"]
    assert certs["transitivity"] is True
    # minimality is supposed to fail here, and passing requires the witness
    assert certs["minimality_fails_with_witness"] is True
    assert certs["restricted_cycle_lengths"] == [2, 6, 18]
    assert certs["restricted_is_doubling_triple"] is True
    assert certs["periodic_point_free"] is True
    assert certs["minimal_closed_path_lengths"] == [2, 6, 18]
    for step in report["steps"]:
        assert step["minimality"] is False
        witness = step["minimality_witness"]
        assert witness["cycle"] == 1 and witness["missed"]


# commands that need one kind of scheme, given the other, with what their
# error line says after naming the file and the field
WRONG_KIND = {
    "verify-cover": (
        ["verify", "cover", "--graph", "{od3}"],
        "field 'kind' is 'odometer', not 'graph': verify cover expects a graph scheme file",
    ),
    "build-system": (
        ["build", "system", "--depth", "1", "--scheme", "{wm2}"],
        "field 'kind' is 'graph', not 'odometer': midpoint systems need an odometer scheme (graphs branch)",
    ),
    "build-extension": (
        ["build", "extension", "--levels", "1", "--tail", "4", "--refine", "3", "--scheme", "{wm2}"],
        "field 'kind' is 'graph', not 'odometer': the extension construction starts from an odometer scheme",
    ),
}


@pytest.mark.parametrize("case", sorted(WRONG_KIND))
def test_scheme_of_the_wrong_kind_is_a_one_line_usage_error(work, case):
    argv, reason = WRONG_KIND[case]
    argv = [arg.format(**work) for arg in argv]
    assert run(argv) == (2, "", f"error: {argv[-1]}: {reason}\n")


def test_verify_oracle_small(work, caplog):
    caplog.set_level(logging.INFO, logger="cantor_shrink.cli")
    code, out, _ = run(["verify", "oracle", "--trials", "50", "--seed", "3"])
    assert code == 0
    assert_lines_match(cli_log_lines(caplog), [
        r"shrinking oracle over 50 trials with seed 3: 31 shrinking systems checked, 0 counterexamples: "
        r"pass in \d+\.\d\ds",
        serialised_line(out), PEAK_LINE,
    ])
    report = json.loads(out)
    assert report["pass"] is True and report["trials"] == 50 and report["shrinking_systems"] == 31
    # same seed, same bytes
    assert run(["verify", "oracle", "--trials", "50", "--seed", "3"])[1] == out


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_oracle_refuses_fewer_than_one_trial(trials):
    line = refused_while_parsing(["verify", "oracle", "--trials", trials])
    assert line.endswith(f"error: argument --trials: not an integer of at least 1: '{trials}'")


def test_verify_oracle_fails_when_no_system_shrinks():
    # seed 0 draws one non-shrinking system in its first trial: no
    # proposition was checked, so the run cannot pass
    code, out, err = run(["verify", "oracle", "--trials", "1", "--seed", "0"])
    assert code == 1
    report = json.loads(out)
    assert report["pass"] is False
    assert (report["trials"], report["shrinking_systems"], report["counterexamples"]) == (1, 0, [])
    assert err == "fail: no shrinking system in 1 trials; nothing was checked\n"


# ---------------------------------------------------------------------------
# export


def test_export_ratio_csv(work):
    code, out, _ = run(["export", "ratio", "--sys", str(work["od3"])])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("depth,")
    # one row per level transition: depths 1 and 2 for a depth-3 scheme
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "1"


def test_export_svg(work):
    code, out, _ = run(["export", "svg", "--sys", str(work["od3"])])
    assert code == 0
    assert out.startswith("<svg ") and out.rstrip().endswith("</svg>")


def test_export_entropy_csv_is_eps_major(work):
    code, out, _ = run([
        "export", "entropy", "--sys", str(work["sys2"]), "--eps", "1/4,1/2", "--n", "1,2",
    ])
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "eps,n,count,estimate_float"
    assert [r.split(",")[:2] for r in rows[1:]] == [
        ["1/4", "1"], ["1/4", "2"], ["1/2", "1"], ["1/2", "2"],
    ]
    assert rows[1].split(",")[2] == "2"


# ---------------------------------------------------------------------------
# error handling


@pytest.mark.parametrize(
    "argv, option",
    [
        (["export", "entropy", "--sys", "{sys2}", "--eps", ",", "--n", "1"], "--eps"),
        (["export", "entropy", "--sys", "{sys2}", "--eps", "1/4", "--n", ","], "--n"),
        (["export", "entropy", "--sys", "{sys2}", "--eps", "1/4", "--n", ",,"], "--n"),
        (["build", "odometer", "--s", ",", "--depth", "2"], "--s"),
        (["export", "entropy", "--sys", "{sys2}", "--eps", "1/4", "--n", "1,,2"], "--n"),
        (["export", "entropy", "--sys", "{sys2}", "--eps", "1/4", "--n", "1,"], "--n"),
        (["export", "entropy", "--sys", "{sys2}", "--eps", "1/4", "--n", ",1"], "--n"),
    ],
)
def test_empty_lists_are_usage_errors(work, argv, option):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main([arg.format(sys2=work["sys2"]) for arg in argv])
    assert exc.value.code == 2
    value = re.escape(repr(argv[argv.index(option) + 1]))
    assert re.search(rf"error: argument {option}: not a comma-separated \w+ list: {value}$", err.getvalue().strip())


def test_malformed_json_is_a_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(["verify", "derivative", "--scheme", str(bad)])
    assert code == 2
    assert err.startswith("error:")


def _nested_point_system(path):
    """A one-point system file whose point id is a list nested 500 deep:
    within the parser's depth, past the recursion of a recursive decoder."""
    point = 0
    for _ in range(500):
        point = [point]
    path.write_text(json.dumps({
        "kind": "finite-system", "metric": "l1", "scale": "+0", "points": [point], "coords": [["0"]], "map": [0],
    }))


@pytest.mark.parametrize("argv, write", [
    (["verify", "derivative", "--scheme", "<file>"], lambda path: path.write_text("[" * 100_000)),
    (["export", "entropy", "--sys", "<file>", "--eps", "1/4", "--n", "1"], lambda path: path.write_text("[" * 100_000)),
    (["export", "entropy", "--sys", "<file>", "--eps", "1/4", "--n", "1"], _nested_point_system),
])
def test_deeply_nested_input_is_a_usage_error(tmp_path, argv, write):
    deep = tmp_path / "deep.json"
    write(deep)
    # in-process, so a RecursionError would surface here as an uncaught exception
    code, out, err = run([str(deep) if arg == "<file>" else arg for arg in argv])
    assert (code, out) == (2, "")
    [line] = err.splitlines()
    assert line == f"error: {deep}: nested too deep to read"


def test_out_of_memory_is_one_line(monkeypatch):
    def exhaust(*args):
        raise MemoryError

    monkeypatch.setattr("cantor_shrink.cli.build_graph_scheme", exhaust)
    assert run(["build", "graph", "--variant", "transitive", "--levels", "2"]) == (2, "", "error: out of memory\n")


def test_missing_scheme_field_names_the_file(tmp_path):
    bad = tmp_path / "hollow.json"
    bad.write_text("{}\n")
    code, _, err = run(["verify", "derivative", "--scheme", str(bad)])
    assert code == 2
    assert "hollow.json" in err and "missing field" in err


# the length columns of a format-5 level, each a list of signed-digit
# strings over the level's scale, one per cell in the order of ``label``
LENGTH_COLUMNS = ("start", "width", "inset", "core_width")
LEVEL_KEYS = ("n", "scale", "a", "b", "label", "parent", *LENGTH_COLUMNS)


def _set_first(obj, i, key, value):
    """Make ``value`` the first entry of column ``key`` of level ``i``."""
    obj["levels"][i][key][0] = value


def _inflate(obj):
    """Every scale, a, b, start and width near 2^(2^22): a file of under
    2 KB that would ask for tens of MB unless its scales are checked first."""
    for level in obj["levels"]:
        level.update(scale="+4194300", a="+4194290", b="+4194280")
        for key, text in zip(LENGTH_COLUMNS, ["+4194200", "+4194250", "+4194210", "+4194240"]):
            level[key] = [text] * len(level["label"])


def _as_format_4(obj):
    """The file as format 4 wrote it: one object per cell, ``{"label",
    "parent", "A": [start, width], "D": [inset, core width]}``."""
    for level in obj["levels"]:
        columns = [level.pop(key) for key in ("label", "parent", *LENGTH_COLUMNS)]
        level["cells"] = [{"label": label, "parent": parent, "A": [start, width], "D": [inset, core_width]}
                          for label, parent, start, width, inset, core_width in zip(*columns)]
    obj["format"] = 4


# single mutations of the od3 scheme file, each with the text its error line
# must name; each must be caught as bad input
SCHEME_MUTATIONS = {
    "levels-emptied": (lambda obj: obj.update(levels=[]), "'levels'"),
    "levels-cut-to-one": (lambda obj: obj.update(levels=obj["levels"][:1]), "levels 1..1"),
    "string-label": (lambda obj: _set_first(obj, 0, "label", "0"), "'label'"),
    "parent-99": (lambda obj: _set_first(obj, 1, "parent", 99), "'parent'"),
    "scalar-other-key": (lambda obj: obj["levels"][1].update(scale={"mantissa": "3", "other": "7"}), "'scale'"),
    "cells-not-a-list": (lambda obj: obj["levels"][1].update(width=5), "levels[1]: field 'width' must be a list"),
    "top-level-list": (lambda obj: [obj], "JSON object"),
    "source-string": (lambda obj: obj.update(source="x"), "'source'"),
    "depth-string": (lambda obj: obj["levels"][0].update(n="1"), "'n'"),
    "endpoint-not-hex": (lambda obj: _set_first(obj, 1, "start", "0x1g"), "levels[1] label 0: field 'start'"),
    "old-format": (lambda obj: obj.pop("format"), "rebuild"),
    "format-3": (
        lambda obj: obj.update(format=3), "field 'format' is 3, not 5: rebuild the file with `cantor-shrink build`"
    ),
    "format-4": (
        _as_format_4,
        "field 'format' is 4, not 5: rebuild the file with `cantor-shrink build` from its source descriptor "
        '{"rule":"list","s":[2,4,8]}',
    ),
    "scales-near-2^2^22": (_inflate, "levels[0]: field 'scale'"),
    "s-not-dividing": (
        lambda obj: obj["source"].update(s=[2, 3, 6]), "field 'source': modulus 3 does not properly extend 2"
    ),
    "s_1-below-2": (lambda obj: obj["source"].update(s=[1, 2]), "field 'source': s_1 must be at least 2, got 1"),
    "s-empty": (lambda obj: obj["source"].update(s=[]), "field 'source': a modulus tower needs at least one modulus"),
    "variant-spiral": (
        lambda obj: obj["source"].update(variant="spiral"), "field 'source': unknown cover variant 'spiral'"
    ),
}
# the file each mutation is made in, where it is not od3
SCHEME_MUTATION_FILES = {"variant-spiral": "wm2"}

SCHEME_COMMANDS = [
    ["verify", "derivative", "--scheme"],
    ["verify", "lrs", "--depth", "2", "--scheme"],
    ["export", "ratio", "--sys"],
]
SCHEME_COMMAND_IDS = ["verify-derivative", "verify-lrs", "export-ratio"]


def _write_mutated(work, path, mutate, source="od3"):
    obj = json.loads(work[source].read_text())
    result = mutate(obj)
    path.write_text(json.dumps(result if isinstance(result, list) else obj))
    return path


@pytest.mark.parametrize("mutation", sorted(SCHEME_MUTATIONS))
@pytest.mark.parametrize("command", SCHEME_COMMANDS, ids=SCHEME_COMMAND_IDS)
def test_mutated_scheme_is_a_one_line_usage_error(work, tmp_path, mutation, command):
    mutate, named = SCHEME_MUTATIONS[mutation]
    bad = _write_mutated(work, tmp_path / f"{mutation}.json", mutate, SCHEME_MUTATION_FILES.get(mutation, "od3"))
    # in-process, so a traceback would surface here as an uncaught exception
    code, out, err = run([*command, str(bad)])
    assert code == 2
    assert out == ""
    [line] = err.splitlines()
    assert line.startswith(f"error: {bad}")
    assert named in line


def _drop_last_depth3_cell(obj):
    for key in ("label", "parent", *LENGTH_COLUMNS):
        obj["levels"][2][key].pop()


def _swap_intervals(level, k):
    """Give the ``k``-th cell of a file level its core as carrier and its
    carrier as core.  In the file's columns that is start + inset as the
    start, the core width as the width, -inset as the inset and the width as
    the core width; the cell's children, measured from its core start, move
    with it."""
    start, width, inset, core_width = (digits_to_int(level[key][k], BITS) for key in LENGTH_COLUMNS)
    for key, value in zip(LENGTH_COLUMNS, (start + inset, core_width, -inset, width)):
        level[key][k] = int_to_digits(value)


def _swap_core_and_carrier(obj):
    _swap_intervals(obj["levels"][1], 1)


@pytest.mark.parametrize("key", LEVEL_KEYS)
def test_missing_level_field_names_its_level(work, tmp_path, key):
    def drop(obj):
        del obj["levels"][2][key]

    bad = _write_mutated(work, tmp_path / "bad.json", drop)
    code, out, err = run(["verify", "derivative", "--scheme", str(bad)])
    assert (code, out) == (2, "")
    assert err == f"error: {bad}: levels[2]: file is missing field {key!r}\n"


@pytest.mark.parametrize(
    "mutate, witness",
    [
        (_drop_last_depth3_cell, "audit witness at depth 3: labels are not the residues mod s_n"),
        (_swap_core_and_carrier, "audit witness at depth 2, label 1: core touches carrier"),
    ],
    ids=["cell-deleted", "core-carrier-swapped"],
)
@pytest.mark.parametrize("command", [["verify", "derivative", "--scheme"], ["export", "ratio", "--sys"]],
                         ids=["verify-derivative", "export-ratio"])
def test_scheme_failing_its_audit_fails_the_command(work, tmp_path, command, mutate, witness):
    bad = _write_mutated(work, tmp_path / "bad.json", mutate)
    code, out, err = run([*command, str(bad)])
    assert code == 1
    assert out == ""
    assert err == f"fail: {bad}: {witness}\n"
    # verify lrs reports the same audit and computes no margin on that geometry
    code, out, _ = run(["verify", "lrs", "--depth", "2", "--scheme", str(bad)])
    report = json.loads(out)
    assert code == 1 and report["depths_checked"] == [] and len(report["reports"]) == 1
    assert report["reports"][0]["check"] == "audit" and not report["reports"][0]["pass"]


# commands that build on a scheme, with the file they read: each audits it
# first and stops with the witness, since geometry that fails its audit
# certifies nothing; verify cover reads graph schemes, so it gets wm2
SCHEME_READERS = {
    "build-system": (["build", "system", "--depth", "2", "--scheme"], "od3"),
    "build-extension": (["build", "extension", "--levels", "1", "--tail", "4", "--refine", "3", "--scheme"], "od3"),
    "export-svg": (["export", "svg", "--sys"], "od3"),
    "verify-cover": (["verify", "cover", "--graph"], "wm2"),
}

AUDIT_WITNESSES = {
    ("od3", "cell-deleted"): "audit witness at depth 3: labels are not the residues mod s_n",
    ("od3", "core-carrier-swapped"): "audit witness at depth 2, label 1: core touches carrier",
    ("wm2", "cell-deleted"): "audit witness at depth 2: labels do not match the level's vertices",
    ("wm2", "core-carrier-swapped"): "audit witness at depth 1, label -8: core touches carrier",
}


@pytest.mark.parametrize(
    "mutation, mutate",
    [("cell-deleted", _drop_last_depth3_cell), ("core-carrier-swapped", _swap_core_and_carrier)],
    ids=["cell-deleted", "core-carrier-swapped"],
)
@pytest.mark.parametrize("reader", sorted(SCHEME_READERS))
def test_scheme_failing_its_audit_stops_every_reader(work, tmp_path, reader, mutation, mutate):
    command, source = SCHEME_READERS[reader]
    bad = _write_mutated(work, tmp_path / "bad.json", mutate, source)
    code, out, err = run([*command, str(bad)])
    assert code == 1
    assert out == ""
    assert err == f"fail: {bad}: {AUDIT_WITNESSES[source, mutation]}\n"


def _setting(value, *path):
    def mutate(obj):
        _at(obj, path[:-1])[path[-1]] = value
    return mutate


def _coordinate_past_the_scale(obj):
    bits = digits_to_int(obj["scale"], BITS).bit_length()
    obj["coords"][0][0] = f"+{bits + 65}"


def _as_explicit(obj):
    """The file as systems were written before they held coordinates: the
    n×n matrix of their distances over the scale."""
    coords = [[digits_to_int(c, BITS) for c in point] for point in obj.pop("coords")]
    obj["distances"] = [[int_to_digits(sum(abs(a - b) for a, b in zip(p, q))) for q in coords] for p in coords]
    obj["metric"] = "explicit"


# single mutations of the depth-3 midpoint system file, each with the text its
# error line must name, from the check that refuses it; each must be caught as
# bad input
SYSTEM_MUTATIONS = {
    "map-index-out-of-range": (_setting(8, "map", 0), "'map'"),
    "map-entry-string": (_setting("1", "map", 0), "'map'"),
    "points-not-a-list": (_setting(5, "points"), "'points'"),
    "short-eps": (lambda obj: obj["eps"].pop(), "'eps'"),
    "top-level-list": (lambda obj: [obj], "JSON object"),
    "zero-scale": (_setting("0", "scale"), "field 'scale' must be positive"),
    # 8 points of a coordinate and a radius: over a scale of 2^31 bits their
    # integers take more than MEMORY_BOUND bytes
    "scale-past-the-limit": (
        _setting("+2147483647", "scale"),
        f"field 'coords': 8 points, 1 coordinates each, over a 2147483648-bit scale: predicted 6442453560 bytes "
        f"of integers, past the bound of {MEMORY_BOUND}",
    ),
    "coords-not-a-list": (_setting(5, "coords"), "field 'coords' must hold 8 lists, one per point"),
    "ragged-coords": (lambda obj: obj["coords"][1].append("0"), "field 'coords': point 1 has 2 coordinates, not 1"),
    "repeated-coords": (
        lambda obj: obj["coords"].__setitem__(2, obj["coords"][1]), "field 'coords': points 1 and 2 share one tuple"
    ),
    "coordinate-past-the-scale": (_coordinate_past_the_scale, "field 'coords': '+"),
    "non-canonical-coordinate": (
        lambda obj: obj["coords"][1].__setitem__(0, _non_canonical(obj["coords"][1][0])), "field 'coords': "
    ),
    "explicit-metric": (
        _as_explicit, "field 'metric' is 'explicit', not 'l1': rebuild the file with `cantor-shrink build system`"
    ),
}


@pytest.mark.parametrize("mutation", sorted(SYSTEM_MUTATIONS))
def test_mutated_system_is_a_one_line_usage_error(work, tmp_path, mutation):
    mutate, named = SYSTEM_MUTATIONS[mutation]
    bad = _write_mutated(work, tmp_path / f"{mutation}.json", mutate, "sys3")
    # in-process, so a traceback would surface here as an uncaught exception
    code, out, err = run(["export", "entropy", "--sys", str(bad), "--eps", "1/4", "--n", "1"])
    assert code == 2
    assert out == ""
    [line] = err.splitlines()
    assert line.startswith(f"error: {bad}: ")
    assert named in line


def test_system_file_without_a_scale_is_told_to_rebuild(tmp_path):
    # the form of every finite-system file written before they declared one
    # scale: a JSON scalar object per distance and radius
    half, zero = {"mantissa": "1", "pow2": -1, "pow3": 0}, {"num": "0", "den": "1"}
    old = tmp_path / "old.json"
    old.write_text(json.dumps({
        "kind": "finite-system", "metric": "explicit", "points": [0, 1], "map": [1, 0],
        "distances": [[zero, half], [half, zero]], "eps": [half, half],
    }))
    code, out, err = run(["export", "entropy", "--sys", str(old), "--eps", "1/4", "--n", "1"])
    assert (code, out) == (2, "")
    rebuild = "rebuild the file with `cantor-shrink build system`"
    assert err == f"error: {old}: field 'metric' is 'explicit', not 'l1': {rebuild}\n"


def test_entropy_table_refuses_a_system_past_the_clique_bound_from_its_count(tmp_path):
    # 513 points, one more than the clique search takes: refused from the
    # length of 'points', naming the file and field, before any coordinate is read
    path = tmp_path / "line513.json"
    path.write_text(json.dumps({
        "kind": "finite-system", "metric": "l1", "scale": "+0", "points": list(range(513)),
        "coords": [["junk"]] * 513, "map": [0] * 513,
    }))
    code, out, err = run(["export", "entropy", "--sys", str(path), "--eps", "1/4", "--n", "1"])
    assert (code, out) == (2, "")
    assert err == f"error: {path}: field 'points': 513 points, past the limit of 512\n"


def test_entropy_table_names_the_file_it_refuses_to_sweep(tmp_path):
    # the 512 shift-9 points, the clique search's limit, with scale and
    # coordinates multiplied up to a 2^200000 scale: a 27 KB file that the
    # reader admits, whose sweep is refused from the coordinates' span
    code, out, _ = run(["build", "system", "--shift", "9"])
    assert code == 0
    obj = json.loads(out)
    shift = 200000 - (digits_to_int(obj["scale"], 64).bit_length() - 1)
    obj["scale"] = int_to_digits(digits_to_int(obj["scale"], 64) << shift)
    obj["coords"] = [[int_to_digits(digits_to_int(c, 64) << shift) for c in point] for point in obj["coords"]]
    path = tmp_path / "wide9.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(["export", "entropy", "--sys", str(path), "--eps", "1/4", "--n", "1"])
    assert (code, out) == (2, "")
    [line] = err.splitlines()
    assert line.startswith(f"error: {path}: a sweep of 512 points over distances of up to 200000 bits: ")


@pytest.mark.parametrize("option, value, what", [
    ("--n", "0", "integers"), ("--n", "1,-2", "integers"), ("--eps", "0", "rationals"), ("--eps", "1/4,-1/2", "rationals"),
])
def test_entropy_steps_and_thresholds_must_be_positive(work, option, value, what):
    argv = {"--n": "1", "--eps": "1/4", option: value}
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(["export", "entropy", "--sys", str(work["sys2"]), "--eps", argv["--eps"], "--n", argv["--n"]])
    assert exc.value.code == 2
    assert err.getvalue().strip().endswith(f"error: argument {option}: not a list of positive {what}: {value!r}")


# the INFO line each command that builds or loads a finite system logs, after
# the load and audit lines of the scheme it reads, if any, and before the
# line of its serialise and its peak RSS: 8 points over 21 bits, each a
# coordinate and a radius's numerator and denominator, predict 8 x 300 +
# 24 x 3 bytes, 23 points of two coordinates over 49 bits 23 x 300 + 46 x 7
SYSTEM_LOG_LINES = {
    "build-system": (
        ["build", "system", "--scheme", "{od3}", "--depth", "3"],
        r"system: 8 points, 21-bit scale, predicted 2472 bytes in \d+\.\d\ds",
    ),
    "build-extension": (
        ["build", "extension", "--scheme", "{od3}", "--levels", "1", "--tail", "4", "--refine", "3"],
        r"extension: 23 points, 49-bit scale, predicted 7222 bytes in \d+\.\d\ds",
    ),
    "export-entropy": (
        ["export", "entropy", "--sys", "{sys3}", "--eps", "1/4", "--n", "1,2"],
        r"loaded \S+sys3\.json: 8 points, 21-bit scale, predicted 2472 bytes in \d+\.\d\ds",
    ),
}


@pytest.mark.parametrize("case", sorted(SYSTEM_LOG_LINES))
def test_finite_system_commands_log_one_line(work, caplog, case):
    argv, pattern = SYSTEM_LOG_LINES[case]
    argv = [arg.format(**work) for arg in argv]
    caplog.set_level(logging.INFO, logger="cantor_shrink.cli")
    code, out, _ = run(argv)
    assert code == 0
    patterns = [
        *(scheme_log_lines(work["od3"]) if "--scheme" in argv else []), pattern, serialised_line(out), PEAK_LINE,
    ]
    assert_lines_match(cli_log_lines(caplog), patterns)
    # the lines go to stderr under CANTOR_SHRINK_LOG only, and the output
    # keeps its bytes either way
    logged, quiet = run_child(argv, log_level="INFO"), run_child(argv)
    assert logged.stdout == quiet.stdout == out.encode()
    assert_lines_match(child_log_lines(logged), patterns)
    assert quiet.stderr == b""


def _json_paths(node, prefix=()):
    """The key path of every value below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _json_paths(value, prefix + (key,))


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


RETYPED = ["1", 1, None, [], {}, 0.5, True]


def _non_canonical(text: str) -> str:
    """The same value in a signed-digit string that is not the canonical one:
    the leading digit ±2^e split into ±2^(e+1) ∓ 2^e, and 0 as +0-0."""
    if text == "0":
        return "+0-0"
    sign, e, rest = re.fullmatch(r"([+-])([0-9]+)(.*)", text).groups()
    return f"{sign}{int(e) + 1}{'-' if sign == '+' else '+'}{e}{rest}"


@st.composite
def single_mutations(draw, obj):
    """Delete a value or retype it; in a scheme file also swap a cell's
    carrier and core, shift one offset or width by one unit of its level
    scale, or rewrite one digit string in a non-canonical form of its
    value.  Applied to ``obj`` in place; returns a description and whether
    the file must be refused."""
    kinds = ["delete", "retype"] + (["swap", "shift", "non-canonical"] if "levels" in obj else [])
    kind = draw(st.sampled_from(kinds))
    if kind in ("delete", "retype"):
        path = draw(st.sampled_from(list(_json_paths(obj))))
        parent, key = _at(obj, path[:-1]), path[-1]
        if kind == "delete":
            del parent[key]
        else:
            parent[key] = draw(st.sampled_from([v for v in RETYPED if type(v) is not type(parent[key])]))
        return f"{kind} {path}", False
    if kind == "non-canonical":
        path = draw(st.sampled_from([
            p for p in _json_paths(obj) if p[-1] in ("scale", "a", "b") or p[-2:-1] in {(k,) for k in LENGTH_COLUMNS}
        ]))
        parent, key = _at(obj, path[:-1]), path[-1]
        parent[key] = _non_canonical(parent[key])
        return f"rewrite {path} as {parent[key]:.40}", True
    level = draw(st.sampled_from(obj["levels"]))
    k = draw(st.sampled_from(range(len(level["label"]))))
    if kind == "swap":
        _swap_intervals(level, k)
        return f"swap carrier and core of level {level['n']} label {level['label'][k]}", False
    field, step = draw(st.sampled_from(LENGTH_COLUMNS)), draw(st.sampled_from([-1, 1]))
    level[field][k] = int_to_digits(digits_to_int(level[field][k], BITS) + step)
    return f"shift level {level['n']} label {level['label'][k]} {field} by {step}", False


def _scheme_audits(obj) -> bool:
    return audit_scheme(scheme_from_json(obj)).passed


def _system_loads(obj) -> bool:
    system_from_json(obj)  # raises unless the file loads
    return True


def _mutation_exits_cleanly(work, data, source, commands, accepts):
    """Apply one drawn mutation to the ``source`` file and run each command on
    it: exit 1 or 2 with no traceback, 2 with one error line naming the file,
    0 only if ``accepts`` takes the mutated file, never 0 or 1 if the file must
    be refused as bad input."""
    obj = json.loads(work[source].read_text())
    description, refused = data.draw(single_mutations(obj))
    h.note(description)
    path = work["root"] / "mutant.json"
    path.write_text(json.dumps(obj))
    try:
        accepted = accepts(obj)
    except (KeyError, ValueError):
        accepted = False
    assert not (refused and accepted)
    for command in commands:
        # in-process, so a traceback surfaces here as an uncaught exception
        code, _, err = run([*command, str(path)])
        assert code == 2 if refused else code in (1, 2) or (code == 0 and accepted)
        if code == 2:
            [line] = err.splitlines()
            assert line.startswith(f"error: {path}")


@h.given(data=st.data())
@h.settings(derandomize=True, max_examples=120, deadline=None)
def test_single_mutations_exit_cleanly(work, data):
    """No single mutation of the od3 scheme file makes a command crash, and
    none passes unless the mutated file still loads and audits."""
    _mutation_exits_cleanly(work, data, "od3", SCHEME_COMMANDS, _scheme_audits)


@h.given(data=st.data())
@h.settings(derandomize=True, max_examples=80, deadline=None)
def test_single_mutations_of_a_graph_scheme_exit_cleanly(work, data):
    _mutation_exits_cleanly(work, data, "wm1", SCHEME_COMMANDS, _scheme_audits)


@h.given(data=st.data())
@h.settings(derandomize=True, max_examples=80, deadline=None)
def test_single_mutations_of_a_system_file_exit_cleanly(work, data):
    command = ["export", "entropy", "--eps", "1/4", "--n", "1,2", "--sys"]
    _mutation_exits_cleanly(work, data, "sys2", [command], _system_loads)


# sha256 of stdout, pinned before scheme geometry became integers over a
# per-level scale: the reports must not move by a byte.  The three verify lrs
# entries were re-pinned when margins became signed binary digits over a
# declared scale; GOLDEN_PAIR_VALUES holds their values across that switch.
# od3-build-system and od3-build-extension were re-pinned when finite systems
# and extensions became signed binary digits over a declared scale, and
# od3-build-system again when system files came to hold coordinates in place
# of distances; GOLDEN_FINITE_VALUES holds their values across both switches
GOLDEN_STDOUT = {
    "od3-verify-derivative": (
        ["verify", "derivative", "--scheme", "{od3}"],
        "0f2082f64cc3452c8e575c7df5bbc976ca8a5dfc8f82822cd5f322ea9e5ce881",
    ),
    "od3-verify-lrs-2": (
        ["verify", "lrs", "--depth", "2", "--scheme", "{od3}"],
        "0f5271116bc6f02a368b74e1e8bccf98151fc272362266aa74bca9f28de3d7fc",
    ),
    "od3-export-ratio": (
        ["export", "ratio", "--sys", "{od3}"],
        "e3c34fb1ad41aae493cd50c530b318ccf9036b65d0f825006eba3bded716d4c3",
    ),
    "wm2-verify-lrs-1": (
        ["verify", "lrs", "--depth", "1", "--scheme", "{wm2}"],
        "32878f31e2a43e330b223a9d4951a18923dd213c0c5172d827ebc16cbb3c4ead",
    ),
    "wm2-verify-cover": (
        ["verify", "cover", "--graph", "{wm2}"],
        "171a9079311fe82b7ba8f33f50a2ab0c6b80bd05b43ebbc105c415fe129679a1",
    ),
    "tr2-verify-lrs-1": (
        ["verify", "lrs", "--depth", "1", "--scheme", "{tr2}"],
        "7557d38eab20395056d46a317274a5812ffaf747c4c073932ec02435195b7d9f",
    ),
    "tr2-verify-cover": (
        ["verify", "cover", "--graph", "{tr2}"],
        "11ec756122de39316120f4cb992953cd63117db73e230e42dc61557954e165c0",
    ),
    "od3-build-system": (
        ["build", "system", "--scheme", "{od3}", "--depth", "2"],
        "a03c6326779ff8ec1448d97692b1759ebcefe9aec37cf84e61fb2019c1a43b30",
    ),
    "od3-build-extension": (
        ["build", "extension", "--scheme", "{od3}", "--levels", "1", "--tail", "4", "--refine", "3"],
        "492c5588d8b32679b19187c30253884b4ef6504192d23736ac9ebe80489b17e9",
    ),
    # pinned before finite systems became integer distance matrices over one scale
    "verify-oracle-200-seed-7": (
        ["verify", "oracle", "--trials", "200", "--seed", "7"],
        "26b7f302b4d9c3bde9a73cbeb335c0f730b8a92acef0aa139da167f011c3136f",
    ),
    "od3-depth3-export-entropy": (
        ["export", "entropy", "--sys", "{sys3}", "--eps", "1/1572864,1/4", "--n", "1,2,3"],
        "9159bf0f608ae541b351bac52c1e7382b07dea2402a4e2ffe7d10d1eb8ea9ecb",
    ),
    "shift6-export-entropy": (
        ["export", "entropy", "--sys", "{sh6}", "--eps", "1/4,1/8", "--n", "1,3,6"],
        "2a4e9e13ba02a84777c713b78b319c47e84580e0c8710524100e68569b6f70be",
    ),
}

# sha256 of the canonical JSON of the extension and deformed-triple reports on
# the finite-systems benchmark inputs, pinned at the same commit as the three
# entries above, and re-pinned with od3-build-system when their margins
# became signed binary digits over a declared scale
GOLDEN_CERTIFICATES = {
    "extension-lrs": "db9278da837776d294237f7f0ec3467ebdcf5ee95be1bde5065015ee58e36d5d",
    "deformed-lrs": "fb96de299541afef182002d36df0b1a52c86ee9be3534a931c4f2653de922ff7",
}

# sha256 of "n label A.lo A.hi D.lo D.hi" lines, one per cell in file order,
# endpoints as reduced fractions; pinned at the same commit
GOLDEN_GEOMETRY = {
    "od3": "cf1a61e738bdfb286950c2df965615d5a8437585b1dae811d66912c9de4d9d00",
    "wm2": "98bde0c95dc28a8edae80dc36f2d3b7ef19561b9f67f5bedc9f6b90157ae37b2",
    "tr2": "e6d3cbf8f73e6787f03c5c8ae355fe3599744e2de0700ad7d5e9111b8a4b83ed",
}

# sha256 of "n label scale A.lo A.hi D.lo D.hi" lines of the loaded od9 and
# tr3 schemes, one per cell in file order, each an integer over the level
# scale written by int_to_digits (a reduced fraction would pass the int
# string limit at these sizes), with the build command of each file; pinned
# while scheme files held absolute endpoints, so that the values hold across
# any change of the file encoding
GOLDEN_VALUES = {
    "od9": (
        ["build", "odometer", "--s", "2,4,8", "--depth", "9"],
        "012caf49ea70356847d2e3795ec97852930602863b442030939b01a9d2c8f86e",
    ),
    "tr3": (
        ["build", "graph", "--variant", "transitive", "--levels", "3"],
        "644deb8dbedf187cd3a0b7e2fb8522b63ee45b5e0e549739bcf6ab8f89fa1e95",
    ),
}


# sha256 of the format-5 scheme files themselves, so that the encoding of the
# values pinned above cannot drift unnoticed; od9 and tr3 are built as
# GOLDEN_VALUES builds them
GOLDEN_SCHEME_FILES = {
    "od3": "1e1a43642840b471169b9000cba0c227d7a1102dfd286148944db7c3927fd34f",
    "wm2": "5ea9953ec4f19206e7170b5017f2a5adf00bc47023439588fe3e16ddf2efa420",
    "tr2": "62163370471ed64e1b79dd8d24023bbb3e81de5a7fd70cd8448a989199e69157",
    "od9": "7394d7c34f9fd3b313c2ea199a0ec229eec64e426c69ebebddc7f709779abdef",
    "tr3": "6f0a87a79ea84b2e6a301b296dedefe7204da4ba63ba6bc7deda4f55f4032559",
}


# sha256 of the pair lines (:func:`_pair_lines`) of each ``verify lrs``
# report in GOLDEN_STDOUT, pinned before margins were written as signed
# binary digits: the values hold whatever the encoding
GOLDEN_PAIR_VALUES = {
    "od3-verify-lrs-2": "3c036f5289632d7a02dd06f65ea90029be05f37f0801e7e1e86435b4085ea312",
    "wm2-verify-lrs-1": "96e229dd99ac45aa6f673d46e5dc1fb91d206a0e5ff8d4ed8509d5036abee4b9",
    "tr2-verify-lrs-1": "edbd8b1df1279181e67e2c99b3299183413b02390e094e9038eb29abfb1778a5",
}


# sha256 of the value lines (:func:`_finite_value_lines`) of the finite-system
# file, the extension file and the two certificate reports above, pinned
# while they wrote {mantissa, pow2, pow3} and {num, den} scalars, before
# they became signed binary digits over a declared scale: the values hold
# whatever the encoding
GOLDEN_FINITE_VALUES = {
    "od3-build-system": "1858d81e38d3d5d7a265d5e8bebc292ff40ec9fe9fe70e62336cbf3d76638f8b",
    "od3-build-extension": "9068fc0cbd6d610d5f5e148de5b93b66058a8d69a4541226302cd5e77a25e2ee",
    "extension-lrs": "ba3c0d8f0b4f461cebba9644a3acc1b96c1e9acc9e94f6d50e7676cdc505eda7",
    "deformed-lrs": "405a0e6f4385457d8fa53056a4ee6ff0e1a3c4af97f0c85d8121060b25573768",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _finite_value_lines(obj: dict) -> str:
    """One line per value of a finite-system file, an extension file or an
    extension or deformed report: each distance, the coordinate-sum of a
    system file's coordinates, and eps by point index, each slack, each
    point's x and y by id, and each margin with its kind and index, every
    value as a reduced fraction."""
    scale = digits_to_int(obj["scale"], BITS)

    def value(text):
        return Fraction(digits_to_int(text, scale.bit_length() + 64), scale)

    coords = [[value(c) for c in point] for point in obj.get("coords", [])]
    lines = [f"distance {i} {j} {sum(abs(a - b) for a, b in zip(p, q))}"
             for i, p in enumerate(coords) for j, q in enumerate(coords)]
    lines += [f"eps {i} {value(v)}" for i, v in enumerate(obj.get("eps", []))]
    lines += [f"slack {n} {value(v)}" for n, v in enumerate(obj.get("slack", obj.get("stats", {}).get("slack", [])), 1)]
    lines += [f"point {p['id']} {value(p['x'])} {value(p['y'])}" for p in obj.get("points", []) if isinstance(p, dict)]
    for entry in obj.get("margins", []) + obj.get("witnesses", []):
        if "margin" in entry:
            index = [entry[key] for key in ("n", "j", "t", "id") if key in entry]
            lines.append(f"{entry['kind']} {index} {value(entry['margin'])}")
    return "".join(line + "\n" for line in lines)


def _pair_lines(report: dict) -> str:
    """One line per sibling pair of a ``verify lrs`` report: depth, parent,
    pair, kind, and the margin, the sup and inf, or the exclusion reason,
    each value as a reduced fraction."""
    lines = []
    for sub in report["reports"][1:]:
        depth = sub["stats"]["depth"]
        scale = digits_to_int(sub["scale"], BITS)

        def value(text):
            return Fraction(digits_to_int(text, scale.bit_length() + 64), scale)

        for entry in sub["margins"]:
            lines.append(f"{depth} {entry['parent']} {entry['pair']} margin {value(entry['margin'])}")
        for entry in sub["witnesses"]:
            sup, inf = (value(entry[key]) for key in ("sup", "inf"))
            lines.append(f"{depth} {entry['parent']} {entry['pair']} witness {sup} {inf}")
        for entry in sub.get("excluded", []):
            lines.append(f"{depth} {entry['parent']} {entry['pair']} excluded {entry['reason']}")
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("case", sorted(GOLDEN_STDOUT))
def test_report_bytes_match_the_pinned_digests(work, case):
    argv, digest = GOLDEN_STDOUT[case]
    code, out, _ = run([arg.format(**work) for arg in argv])
    assert code == 0
    assert sha256(out) == digest


def _certificate_report(name):
    if name == "extension-lrs":
        tall = build_odometer_scheme(OdometerSpec.from_list([2, 4, 8, 16, 32]), 5)
        return verify_extension_lrs(build_attractor_repellor(tall, levels=3, tail=16, refine=5))
    od3 = build_odometer_scheme(OdometerSpec.from_list([2, 4, 8]), 3)
    small = build_attractor_repellor(od3, levels=1, tail=4, refine=3, rate=4)
    return verify_deformed_lrs(build_fixed_point_system(od3, small, od3, truncation=5))


@pytest.mark.parametrize("case", sorted(GOLDEN_PAIR_VALUES))
def test_pair_values_match_the_pinned_digests(work, case):
    argv, _ = GOLDEN_STDOUT[case]
    code, out, _ = run([arg.format(**work) for arg in argv])
    assert code == 0
    assert sha256(_pair_lines(json.loads(out))) == GOLDEN_PAIR_VALUES[case]


@pytest.mark.parametrize("case", sorted(GOLDEN_FINITE_VALUES))
def test_finite_values_match_the_pinned_digests(work, case):
    if case in GOLDEN_CERTIFICATES:
        obj = _certificate_report(case).to_json()
    else:
        code, out, _ = run([arg.format(**work) for arg in GOLDEN_STDOUT[case][0]])
        assert code == 0
        obj = json.loads(out)
    assert sha256(_finite_value_lines(obj)) == GOLDEN_FINITE_VALUES[case]


@pytest.mark.parametrize("name", sorted(GOLDEN_CERTIFICATES))
def test_certificate_bytes_match_the_pinned_digests(name):
    assert sha256(canonical_dumps(_certificate_report(name).to_json())) == GOLDEN_CERTIFICATES[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_GEOMETRY))
def test_scheme_geometry_matches_the_pinned_digest(work, name):
    scheme = scheme_from_json(json.loads(work[name].read_text()))
    text = "".join(
        f"{lvl.n} {c.label} {c.A.lo} {c.A.hi} {c.D.lo} {c.D.hi}\n"
        for lvl in scheme.levels
        for c in lvl.cells.values()
    )
    assert sha256(text) == GOLDEN_GEOMETRY[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_SCHEME_FILES))
def test_scheme_file_bytes_match_the_pinned_digest(work, tmp_path, name):
    path = work.get(name)
    if path is None:
        path = tmp_path / f"{name}.json"
        assert run([*GOLDEN_VALUES[name][0], "--out", str(path)])[0] == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SCHEME_FILES[name]


# sha256 of ``export svg`` on each scheme, pinned while the picture read the
# Fraction endpoints of Cell.A and Cell.D, before it took them from
# absolute_level: the floats, and so the bytes, must not move
GOLDEN_SVG = {
    "od3": (
        ["build", "odometer", "--s", "2,4,8", "--depth", "3"],
        "3c0c18944a29eb1d254089f8f348a51a47364c164beb7c433e3de6683b1f59ae",
    ),
    "od9": (
        GOLDEN_VALUES["od9"][0],
        "e91944f28a79c85c4f4fd5f208efda6794393665b3203f8f83472181cfb63aa1",
    ),
    "tr3": (
        GOLDEN_VALUES["tr3"][0],
        "dd0345993c2d6471f1039a59976b2925d0be4276bd9d8bb59aef51281c8dba81",
    ),
    "wm3": (
        ["build", "graph", "--variant", "weakly-mixing", "--levels", "3"],
        "16597027b85382275448a0650df8c1ac818d2ca4614f3ef69ff712f7088f6461",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SVG))
def test_svg_bytes_match_the_pinned_digest(tmp_path, name):
    argv, digest = GOLDEN_SVG[name]
    path = tmp_path / f"{name}.json"
    assert run([*argv, "--out", str(path)])[0] == 0
    code, out, _ = run(["export", "svg", "--sys", str(path)])
    assert code == 0
    assert sha256(out) == digest


# sha256 of ``verify lrs`` on deeper schemes, as (build command, --depth,
# digest), pinned while an odometer pair whose successors lay under two
# parents was still measured from 0: no scheme that passes its audit has
# such a pair, so these reports must not move by a byte
GOLDEN_LRS_STDOUT = {
    "od9": (GOLDEN_VALUES["od9"][0], "8", "4511d03f3f63136c0d826f7a1b26c4c6a817e202c7535cb04cc5ed4f6fd46bec"),
    "od3612-5": (
        ["build", "odometer", "--s", "3,6,12", "--depth", "5"], "4",
        "a83083201c3398d827c05e486062eec95e1c65577765f3113eb43886ec12e363",
    ),
    "tr3": (GOLDEN_VALUES["tr3"][0], "2", "e585d45e2568288f3fed59eb1cd29f97e5579fd623cc52630d3b09d3077d6cab"),
    "tr4": (
        ["build", "graph", "--variant", "transitive", "--levels", "4"], "3",
        "44b3033f6c6449cd0c39af0650800c314251289f601abdf11e01d3a3abc97fc3",
    ),
    "wm3": (GOLDEN_SVG["wm3"][0], "2", "8fcc75844f3d1eba6c8a5dfbd63c16c94304a0234a877b7ee57785ccdf4ec8dc"),
    "wm4": (
        ["build", "graph", "--variant", "weakly-mixing", "--levels", "4"], "3",
        "2134e2888e43d9d4743656771369653e66963b7b106c942cab4eae1e4b6bca9e",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_LRS_STDOUT))
def test_deep_lrs_reports_match_the_pinned_digests(tmp_path, name):
    argv, depth, digest = GOLDEN_LRS_STDOUT[name]
    path = tmp_path / f"{name}.json"
    assert run([*argv, "--out", str(path)])[0] == 0
    code, out, _ = run(["verify", "lrs", "--scheme", str(path), "--depth", depth])
    assert code == 0
    assert sha256(out) == digest


def _value_lines(scheme) -> str:
    # every endpoint from 0, as a dense integer over the level's scale
    lines = []
    for lvl in scheme.levels:
        scale, cells = absolute_level(scheme, lvl.n)
        lines += [f"{lvl.n} {label} {' '.join(map(int_to_digits, (scale, *carrier, *core)))}\n"
                  for label, (carrier, core) in cells.items()]
    return "".join(lines)


@pytest.mark.parametrize("name", sorted(GOLDEN_VALUES))
def test_loaded_values_match_the_pinned_digest(tmp_path, name):
    argv, digest = GOLDEN_VALUES[name]
    path = tmp_path / f"{name}.json"
    assert run([*argv, "--out", str(path)])[0] == 0
    assert sha256(_value_lines(scheme_from_json(json.loads(path.read_text())))) == digest


def test_missing_file_is_a_usage_error(tmp_path):
    code, _, err = run(["verify", "derivative", "--scheme", str(tmp_path / "nowhere.json")])
    assert code == 2


def test_unknown_subcommand_exits_two():
    proc = run_child(["build", "nonsense"])
    assert proc.returncode == 2
    err = proc.stderr.decode()
    assert "invalid choice" in err and "nonsense" in err


@pytest.mark.parametrize("source, command", [
    ("od3", ["verify", "derivative", "--scheme", "<file>"]),
    ("od3", ["export", "ratio", "--sys", "<file>"]),
    ("wm2", ["verify", "derivative", "--scheme", "<file>"]),
    ("wm2", ["verify", "lrs", "--scheme", "<file>", "--depth", "1"]),
    ("wm2", ["verify", "cover", "--graph", "<file>"]),
    ("wm2", ["build", "graph", "--variant", "weakly-mixing", "--levels", "2"]),
])
def test_scheme_commands_load_only_the_layers_they_run(work, source, command):
    # only build extension/system, verify oracle and export entropy need
    # cantor_shrink.metric_systems, only graph schemes need graphcover and
    # only odometer schemes need odometer; only CSV exports load csv, and no
    # scheme command loads dataclasses (with inspect) or logging, unless
    # CANTOR_SHRINK_LOG asks for the log
    argv = [str(work[source]) if part == "<file>" else part for part in command]
    code = (
        "import sys\n"
        "from cantor_shrink.cli import main\n"
        f"status = main({argv + ['--out', os.devnull]!r})\n"
        "print(status, sorted(m for m in sys.modules if m.startswith('cantor_shrink.')))\n"
        "print(sorted(m for m in ('csv', 'dataclasses', 'inspect', 'logging') if m in sys.modules))\n"
    )
    layers = ["cantor_shrink.cli", "cantor_shrink.exact", "cantor_shrink.interval_embed"]
    if source == "wm2":
        layers.insert(2, "cantor_shrink.graphcover")
    else:
        layers.append("cantor_shrink.odometer")
    stdlib = ["csv"] if command[0] == "export" else []
    proc = run_python(["-c", code])
    assert proc.stdout.decode() == f"0 {layers}\n{stdlib}\n", proc.stderr.decode()
    assert proc.stderr == b""
    logged = run_python(["-c", code], log_level="INFO")
    assert logged.stdout.decode() == f"0 {layers}\n{sorted(stdlib + ['logging'])}\n", logged.stderr.decode()
    lines = child_log_lines(logged)
    if "<file>" in command:
        assert_lines_match(lines[:2], scheme_log_lines(work[source]))
    else:
        assert_lines_match(lines[:1], [r"graph depth 2 built, predicted \d+ bytes in \d+\.\d\ds"])
    # the artifact, as the command writes it to stdout in-process
    size = len(run(argv)[1])
    if "lrs" in command:
        serialise = rf"lrs report over depths \[0, 1\]: pass, {size} bytes"
    else:
        serialise = f"serialised {size} bytes"
    assert_lines_match(lines[-3:], [
        rf"{serialise} in \d+\.\d\ds",
        rf"wrote {re.escape(os.devnull)} \({size} bytes\) in \d+\.\d\ds",
        PEAK_LINE,
    ])


def test_module_entry_point_and_logging(work):
    argv = ["verify", "derivative", "--scheme", str(work["od3"])]
    code, report, _ = run(argv)
    assert code == 0

    logged = run_child(argv, log_level="INFO")
    assert logged.returncode == 0
    # the log goes to stderr only: the report is the in-process report, byte for byte
    assert logged.stdout == report.encode()
    assert json.loads(logged.stdout)["pass"] is True
    assert_lines_match(child_log_lines(logged), [
        *scheme_log_lines(work["od3"]),
        r"derivative ratios over depths \[1, 2\]: pass in \d+\.\d\ds",
        serialised_line(report),
        PEAK_LINE,
    ])

    quiet = run_child(argv)
    assert quiet.returncode == 0
    assert quiet.stdout == report.encode()
    assert quiet.stderr == b""
