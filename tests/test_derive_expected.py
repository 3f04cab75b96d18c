"""``scripts/derive_expected.py`` recomputes the constants frozen into the
tests from the construction rules alone, with no package imports.  Its
output is pinned here, so a change to the constants it derives fails the
test suite instead of passing unnoticed."""

import hashlib
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "derive_expected.py"

# sha256 of the script's standard output, pinned before scheme geometry
# became integers over a per-level scale
EXPECTED_SHA256 = "ef6ca3fbaeb441e9fa148bdf4e69e9b9e890e8e18168c1b646bae8add1781f7f"


def test_derive_expected_output_is_pinned(tmp_path):
    # -I leaves PYTHONPATH, and so src/, off the child's path
    proc = subprocess.run(
        [sys.executable, "-I", str(SCRIPT)], capture_output=True, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == EXPECTED_SHA256
