"""The mutant catalogue (``tests/mutants.py``) still fits the code: every
snippet occurs exactly once in its file, and every named test exists.  The
mutants themselves are run by hand with ``tests/run_mutants.py``."""

import ast
import re
from functools import cache
from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parents[1]


def test_mutant_ids_are_distinct():
    assert len({m.id for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("m", MUTANTS, ids=lambda m: m.id)
def test_mutant_snippet_occurs_once_and_changes_the_code(m):
    assert (ROOT / m.file).read_text().count(m.snippet) == 1
    assert m.replacement != m.snippet and m.killers


@cache
def _test_functions(path: str) -> set[str]:
    tree = ast.parse((ROOT / path).read_text())
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


@pytest.mark.parametrize("m", MUTANTS, ids=lambda m: m.id)
def test_mutant_killers_exist(m):
    for node in m.killers:
        path, name = re.fullmatch(r"(tests/test_\w+\.py)::(test_\w+)(?:\[[^\]]+\])?", node).groups()
        assert name in _test_functions(path), node
