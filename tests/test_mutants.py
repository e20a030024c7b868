"""The mutation table of `tests/mutants.py` cannot go stale between its CI
runs: each row's original text occurs exactly once in its src file, and
each test it names is defined. The mutants themselves run in CI only."""

import ast

import pytest

from mutants import MUTANTS, ROOT, occurrences


@pytest.mark.parametrize("mutant", MUTANTS, ids=[mutant.name for mutant in MUTANTS])
def test_each_mutant_edits_text_found_once_and_names_defined_tests(mutant):
    assert occurrences(mutant) == 1
    assert mutant.replacement != mutant.original
    for test_id in mutant.tests:
        path, name = test_id.split("::")
        tree = ast.parse((ROOT / path).read_text())
        defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        assert name in defined, test_id
