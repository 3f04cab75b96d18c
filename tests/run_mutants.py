"""Apply each catalogued mutant (``tests/mutants.py``) to a fresh copy of the
tree and run the tests it names; list the mutants that survive.

Run by hand from the repository root, not in tier-1 (each mutant costs a
pytest launch, a few seconds):

    python tests/run_mutants.py            # every mutant
    python tests/run_mutants.py ID [ID…]   # only these

The named tests are first run on an unmutated copy, since a kill means
nothing for a test that fails anyway.  A mutant is killed when every test
it names fails; otherwise it is listed with the tests that still passed.
Exit status 0 when every mutant is killed, 1 otherwise.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))

from mutants import MUTANTS  # noqa: E402

# what a copy needs to run the tests, and nothing a run leaves behind
COPIED = ("src", "tests", "scripts", "pyproject.toml")
IGNORED = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")


def _copy(into: Path) -> None:
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, into / name, ignore=IGNORED)
        else:
            shutil.copy2(source, into / name)


def _passed(tree: Path, ids) -> set[str]:
    """The node ids among ``ids`` that pass in ``tree``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider", *ids],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    if proc.returncode not in (0, 1):  # 2 to 5: interrupted, internal error, usage error, nothing collected
        raise SystemExit(f"pytest exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return set(re.findall(r"^PASSED (\S+)", proc.stdout, re.MULTILINE)) & set(ids)


def main(argv) -> int:
    chosen = [m for m in MUTANTS if not argv or m.id in argv]
    unknown = set(argv) - {m.id for m in MUTANTS}
    if unknown:
        raise SystemExit(f"no such mutant: {', '.join(sorted(unknown))}")
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        clean = Path(tmp) / "clean"
        _copy(clean)
        ids = sorted({node for m in chosen for node in m.killers})
        failing = set(ids) - _passed(clean, ids)
        if failing:
            raise SystemExit("tests that fail without any mutant:\n" + "\n".join(sorted(failing)))
        survivors = []
        for m in chosen:
            tree = Path(tmp) / m.id
            _copy(tree)
            path = tree / m.file
            text = path.read_text()
            assert text.count(m.snippet) == 1, (m.id, "snippet does not occur exactly once")
            path.write_text(text.replace(m.snippet, m.replacement))
            alive = _passed(tree, m.killers)
            print(f"{m.id}: {'killed' if not alive else 'SURVIVED by ' + ', '.join(sorted(alive))}", flush=True)
            if alive:
                survivors.append(m.id)
            shutil.rmtree(tree)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants killed; survivors: {survivors or 'none'}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
