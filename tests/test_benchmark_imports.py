"""The benchmark under ``perfbench/`` drives the package through its public
API.  Importing its in-process steps here makes a removed or renamed name
fail the test suite instead of the benchmark run."""

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
