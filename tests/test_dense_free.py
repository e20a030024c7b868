"""The package holds no dense operator and no test oracle.

Every command and every verify criterion computes its expectations with
banded, shifted elementwise products. The dense matrices, the phase
transformation as a matrix, the textbook Hermite and eigenfunction forms
and the other references the tests check the package against live in
`tests/oracle.py`. An AST check pins that: no module of `src/oscilab`
defines, imports or reads as an attribute any of those names, imports the
oracle, or reaches `numpy.polynomial`.

Two definitions are exempt, because the benchmark's traced metrics count
calls of them by name (`perfbench/run.py` fails on a metric it cannot
find): `fock.make_xp`, the dense x and p as plain arrays, and
`wavefunction.eigenfunction_table`, the float table of the eigenfunction
recurrence. The corpus calls neither.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "oscilab"
ORACLE_NAMES = {
    "Operator",
    "make_ladder",
    "make_xp",
    "make_hamiltonian",
    "identity",
    "expectation",
    "random_state",
    "fock_state",
    "PhaseAngle",
    "rotate_xp",
    "phase_transform_ladder",
    "transform_state_phase",
    "hermite",
    "eigenfunction",
    "eigenfunction_table",
    "gauss_hermite_grid",
    "quadrature_norm",
    "evolve_label",
    "record_row",
    "record_object",
    "polynomial",
}


# name in the benchmark's traced metrics -> the module that must define it
BENCHMARK_METRIC_DEFS = {"make_xp": "fock.py", "eigenfunction_table": "wavefunction.py"}


def oracle_uses(path: Path) -> list[str]:
    """Oracle names a module defines, imports or reads as an attribute, and
    the modules it imports from the tests."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            exempt = BENCHMARK_METRIC_DEFS.get(node.name) == path.name
            if node.name in ORACLE_NAMES and not exempt:
                found.append(f"def {node.name}")
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] in ("oracle", "tests"):
                found.append(f"from {node.module}")
            found += [alias.name for alias in node.names if alias.name in ORACLE_NAMES]
        elif isinstance(node, ast.Import):
            found += [
                f"import {alias.name}" for alias in node.names
                if alias.name.split(".")[0] in ("oracle", "tests")
                or "polynomial" in alias.name.split(".")
            ]
        elif isinstance(node, ast.Attribute) and node.attr in ORACLE_NAMES:
            found.append(f".{node.attr}")
    return found


def test_the_checker_sees_the_dense_imports_that_remain():
    defined = set(oracle_uses(ROOT / "tests" / "oracle.py"))
    assert {"def Operator", "def make_xp", "def hermite"} <= defined
    assert ".polynomial" in defined  # gauss_hermite_grid's hermgauss
    imported = set(oracle_uses(ROOT / "tests" / "test_fock.py"))
    assert {"from oracle", "Operator", "make_ladder"} <= imported
    assert "from oracle" in oracle_uses(ROOT / "tests" / "test_verify.py")


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_runtime_modules_import_no_dense_operator(module):
    assert oracle_uses(PACKAGE / module) == []
