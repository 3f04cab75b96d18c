import contextlib
import io
import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cantor_shrink
from cantor_shrink.cli import main


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
    env = dict(os.environ)
    src_root = str(Path(cantor_shrink.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src_root, env.get("PYTHONPATH")) if p)
    env.pop("CANTOR_SHRINK_LOG", None)
    if log_level is not None:
        env["CANTOR_SHRINK_LOG"] = log_level
    return subprocess.run(
        [sys.executable, "-m", "cantor_shrink.cli", *argv], capture_output=True, env=env,
    )


def cli_log_lines(caplog):
    return [r.getMessage() for r in caplog.records if r.name == "cantor_shrink.cli"]


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """Prebuilt artifact files shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    paths = {
        "od3": root / "od3.json",
        "od1": root / "od1.json",
        "wm2": root / "wm2.json",
        "tr2": root / "tr2.json",
        "sys2": root / "sys2.json",
        "root": root,
    }
    assert run(["build", "odometer", "--s", "2,4,8", "--depth", "3", "--out", str(paths["od3"])])[0] == 0
    assert run(["build", "odometer", "--s", "2,4,8", "--depth", "1", "--out", str(paths["od1"])])[0] == 0
    assert run(["build", "graph", "--variant", "weakly-mixing", "--levels", "2", "--out", str(paths["wm2"])])[0] == 0
    assert run(["build", "graph", "--variant", "transitive", "--levels", "2", "--out", str(paths["tr2"])])[0] == 0
    assert run(["build", "system", "--scheme", str(paths["od3"]), "--depth", "2", "--out", str(paths["sys2"])])[0] == 0
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


def test_build_system_shift(tmp_path):
    code, out, _ = run(["build", "system", "--shift", "2"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["points"]) == 4


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


def test_verify_lrs_depth_one_scheme_is_unusable(work):
    code, _, err = run(["verify", "lrs", "--scheme", str(work["od1"]), "--depth", "3"])
    assert code == 2
    assert "no pair depth is checkable" in err


def test_verify_cover_weakly_mixing(work, caplog):
    caplog.set_level(logging.INFO, logger="cantor_shrink.cli")
    code, out, _ = run(["verify", "cover", "--graph", str(work["wm2"])])
    assert code == 0
    [line] = cli_log_lines(caplog)
    assert re.fullmatch(
        r"cover certificates for the weakly-mixing tower over 2 levels "
        r"\(minimality, weak_mixing\): pass in \d+\.\d\ds",
        line,
    )
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


def test_verify_cover_rejects_odometer_scheme(work):
    code, _, err = run(["verify", "cover", "--graph", str(work["od3"])])
    assert code == 2
    assert "graph scheme" in err


def test_verify_oracle_small(work, caplog):
    caplog.set_level(logging.INFO, logger="cantor_shrink.cli")
    code, out, _ = run(["verify", "oracle", "--trials", "50", "--seed", "3"])
    assert code == 0
    [line] = cli_log_lines(caplog)
    assert re.fullmatch(r"shrinking oracle over 50 trials with seed 3: pass in \d+\.\d\ds", line)
    report = json.loads(out)
    assert report["pass"] is True and report["trials"] == 50
    # same seed, same bytes
    assert run(["verify", "oracle", "--trials", "50", "--seed", "3"])[1] == out


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


def test_malformed_json_is_a_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(["verify", "derivative", "--scheme", str(bad)])
    assert code == 2
    assert err.startswith("error:")


def test_missing_scheme_field_names_the_file(tmp_path):
    bad = tmp_path / "hollow.json"
    bad.write_text("{}\n")
    code, _, err = run(["verify", "derivative", "--scheme", str(bad)])
    assert code == 2
    assert "hollow.json" in err and "missing field" in err


# single mutations of the od3 scheme file; each must be caught as bad input
SCHEME_MUTATIONS = {
    "levels-emptied": lambda obj: obj.update(levels=[]),
    "levels-cut-to-one": lambda obj: obj.update(levels=obj["levels"][:1]),
    "string-label": lambda obj: obj["levels"][0]["cells"][0].update(label="0"),
    "parent-99": lambda obj: obj["levels"][1]["cells"][0].update(parent=99),
    "scalar-other-key": lambda obj: obj["levels"][1]["cells"][0]["A"]["lo"].update(other="7"),
}


@pytest.mark.parametrize("mutation", sorted(SCHEME_MUTATIONS))
@pytest.mark.parametrize(
    "command",
    [["verify", "derivative", "--scheme"], ["verify", "lrs", "--depth", "2", "--scheme"], ["export", "ratio", "--sys"]],
    ids=["verify-derivative", "verify-lrs", "export-ratio"],
)
def test_mutated_scheme_is_a_one_line_usage_error(work, tmp_path, mutation, command):
    obj = json.loads(work["od3"].read_text())
    SCHEME_MUTATIONS[mutation](obj)
    bad = tmp_path / f"{mutation}.json"
    bad.write_text(json.dumps(obj))
    # in-process, so a traceback would surface here as an uncaught exception
    code, out, err = run([*command, str(bad)])
    assert code == 2
    assert out == ""
    [line] = err.splitlines()
    assert line.startswith(f"error: {bad}")


def test_missing_file_is_a_usage_error(tmp_path):
    code, _, err = run(["verify", "derivative", "--scheme", str(tmp_path / "nowhere.json")])
    assert code == 2


def test_unknown_subcommand_exits_two():
    proc = run_child(["build", "nonsense"])
    assert proc.returncode == 2
    err = proc.stderr.decode()
    assert "invalid choice" in err and "nonsense" in err


def test_module_entry_point_and_logging(work):
    argv = ["verify", "derivative", "--scheme", str(work["od3"])]
    code, report, _ = run(argv)
    assert code == 0

    logged = run_child(argv, log_level="INFO")
    assert logged.returncode == 0
    # the log goes to stderr only: the report is the in-process report, byte for byte
    assert logged.stdout == report.encode()
    assert json.loads(logged.stdout)["pass"] is True
    assert re.fullmatch(
        r"INFO:cantor_shrink\.cli:derivative ratios over depths \[1, 2\]: pass in \d+\.\d\ds\n",
        logged.stderr.decode(),
    )

    quiet = run_child(argv)
    assert quiet.returncode == 0
    assert quiet.stdout == report.encode()
    assert quiet.stderr == b""
