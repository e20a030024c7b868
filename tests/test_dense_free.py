"""No runtime path builds a dense operator.

`fock.Operator` and its builders are the tests' oracle: every command and
every verify criterion computes its expectations with banded, shifted
elementwise products instead. Two checks pin that: no module outside `fock`
(and `dynamics`, whose `phase_transform_ladder` oracle returns an Operator)
imports a dense builder, and the commands that once built the largest
matrices run with Operator construction made to fail.
"""

import ast
from pathlib import Path

import pytest

from oscilab import fock
from oscilab.cli import main

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "oscilab"
DENSE_NAMES = {
    "Operator",
    "make_ladder",
    "make_xp",
    "make_hamiltonian",
    "expectation",
    "identity",
    "random_state",
}
ALLOWED = {"fock.py", "dynamics.py", "__init__.py"}


def dense_uses(path: Path) -> list[str]:
    """Dense names a module imports, or reads as attributes of `fock`."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            found += [alias.name for alias in node.names if alias.name in DENSE_NAMES]
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in DENSE_NAMES
            and isinstance(node.value, ast.Name)
            and node.value.id == "fock"
        ):
            found.append(f"fock.{node.attr}")
    return found


def test_the_checker_sees_the_dense_imports_that_remain():
    assert dense_uses(PACKAGE / "dynamics.py") == ["Operator"]
    assert set(dense_uses(PACKAGE / "__init__.py")) >= DENSE_NAMES


@pytest.mark.parametrize(
    "module",
    sorted(p.name for p in PACKAGE.glob("*.py") if p.name not in ALLOWED),
)
def test_runtime_modules_import_no_dense_operator(module):
    assert dense_uses(PACKAGE / module) == []


@pytest.mark.parametrize(
    "argv", [["symmetry-check", "--chi-re", "3", "--n-max", "3000"], ["verify"]]
)
def test_commands_run_with_operator_construction_refused(argv, monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("a runtime path built a dense operator")

    monkeypatch.setattr(fock.Operator, "__post_init__", refuse)
    with pytest.raises(AssertionError):
        fock.make_ladder(2)
    assert main(argv) == 0, capsys.readouterr().err
