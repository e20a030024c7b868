"""Every function in the package is one the command line reaches.

The golden corpus (tests/golden/cases) runs through `cli.main` under
`sys.settrace`, in a fresh process so that no cache another test filled
hides a first call, and every function and method defined in `oscilab` must
be entered at least once. The exceptions are named in ALLOWLIST, each with the
reason it stays although no command calls it; the list holds exactly the
functions the trace leaves unentered, so it cannot go stale either way.
"""

import ast
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import oscilab

GOLDEN = Path(__file__).resolve().parent / "golden"
PACKAGE = Path(oscilab.__file__).resolve().parent

ALLOWLIST = {
    "dynamics.Trajectory.__len__": "the README's library example",
    "dynamics.Trajectory.__reduce__": "pickle and copy support for library users",
    "dynamics.Trajectory.__setattr__": "the immutability guard; nothing assigns",
    "dynamics.Trajectory.column": "the README's library example",
    "dynamics.Trajectory.from_columns": "the README's library example",
    "fock.StateVector.norm": "public accessor of a state's norm",
    "fock.Value.__eq__": "value equality for library users; no command compares values",
    "fock.Value.__hash__": "lets labels and parameters key a dict or cache; none does",
    "fock.Value.__reduce__": "pickle and copy support for library users",
    "fock.Value.__repr__": "the field-showing repr for library users and test failures",
    "fock.Value._immutable": "the immutability guard; nothing assigns or deletes",
    "fock.make_xp": "perfbench's traced metric fock.make_xp.calls names it",
    "observables.averages_bruteforce": "perfbench's traced metrics name it",
    "observables.ObservableRecord.__init__": "the record averages_bruteforce returns",
    "observables.record_from_row": "builds the record of averages_bruteforce",
    "wavefunction.WaveSample.__init__": "perfbench's traced metric "
    "wavefunction.wavesample.count wraps it",
    "wavefunction.eigenfunction_table": "perfbench's traced metrics name it",
}


def defined_functions() -> dict[tuple[str, int], str]:
    """(file, first line) of every function and method in the package, the
    line of its first decorator if it has one, as a code object reports it,
    mapped to its qualified name "module.Class.function"."""
    found = {}

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(str(path), first)] = f"{prefix}.{child.name}"
                visit(child, f"{prefix}.{child.name}", path)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}", path)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, path)
    return found


def entered_by_the_corpus() -> set[tuple[str, int]]:
    """(file, first line) of every code object called while the corpus runs
    in this process."""
    spec = importlib.util.spec_from_file_location(
        "golden_regenerate", GOLDEN / "regenerate.py"
    )
    regenerate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regenerate)
    codes = set()

    def trace(frame, event, arg):
        codes.add(frame.f_code)  # no local tracing: only calls are of interest

    previous = sys.gettrace()
    for case in regenerate.read_cases():
        with tempfile.TemporaryDirectory() as workdir:
            sys.settrace(trace)
            try:
                regenerate.run_case(case, Path(workdir))
            finally:
                sys.settrace(previous)
    return {(str(Path(c.co_filename).resolve()), c.co_firstlineno) for c in codes}


def test_the_corpus_enters_every_function_but_the_allowlist():
    defined = defined_functions()
    missing = sorted(set(ALLOWLIST) - set(defined.values()))
    assert not missing, f"allowlisted functions that no longer exist: {missing}"
    result = subprocess.run(
        [sys.executable, __file__],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    entered = {(path, line) for path, line in json.loads(result.stdout)}
    unentered = sorted(name for key, name in defined.items() if key not in entered)
    assert sorted(set(unentered) - set(ALLOWLIST)) == [], "functions no command reaches"
    assert sorted(set(ALLOWLIST) - set(unentered)) == [], "allowlisted but now entered"


if __name__ == "__main__":
    json.dump(sorted(entered_by_the_corpus()), sys.stdout)
