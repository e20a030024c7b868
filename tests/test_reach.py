"""Every statement in the package is one the command line reaches.

The golden corpus (tests/golden/cases) runs through `cli.main` under
`sys.settrace`, in a fresh process so that no cache another test filled
hides a first call, and records each package line that raises a "line"
event. A function's statements are those of its body that hold code: the
lines its code object, and the code of its lambdas and comprehensions, maps
bytecode to (`co_lines()`), less the `def` header, each counted with the
innermost statement around it. Nested functions count on their own. A
statement is entered when one of its lines is, and every statement must be.

The exceptions are named in ALLOWLIST, keyed by the qualified name
"module.Class.function", each with the reason it stays although no command
reaches it. A reason alone covers the whole function, which the corpus must
then leave unentered; a reason followed by source lines covers each
statement of the function whose first line, stripped, is one of them. No
entry names a line number, so the list reads the same on every Python that
maps the same lines, and an entry that covers nothing any more fails as
stale, as does an unentered statement that no entry covers.
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
    # perfbench's traced metrics read these four names (ROADMAP item 1)
    "fock.make_xp": "perfbench's traced metric fock.make_xp.calls names it",
    "observables.averages_bruteforce": "perfbench's traced metrics name it",
    "wavefunction.WaveSample.__init__": "perfbench's traced metric "
    "wavefunction.wavesample.count wraps it",
    "wavefunction.eigenfunction_table": "perfbench's traced metrics name it",
    # the value types' library methods
    "fock.Value.__eq__": "value equality for library users; no command compares values",
    "fock.Value.__hash__": "lets labels and parameters key a dict or cache; none does",
    "fock.Value.__reduce__": "pickle and copy support for library users",
    "fock.Value.__repr__": "the field-showing repr for library users and test failures",
    "fock.Value._immutable": "the immutability guard; nothing assigns or deletes",
    # library checks of what the CLI validates, or builds valid, before the call
    "coherent.occupation_probability": (
        "spectrum asks for levels 0..n_max only",
        'raise ValueError(f"level must be nonnegative, got {n}")',
    ),
    "coherent.resolve_n_max": (
        "the CLI and verify pass their own positive tail tolerances",
        'raise ValueError(f"tail tolerance must be finite and positive, got {tol!r}")',
    ),
    "dynamics.ehrenfest_residual": (
        "the ehrenfest criterion passes two means of thousands of samples each",
        "raise ValueError(",
        'raise ValueError(f"need at least 3 samples, got {x.size}")',
    ),
    "fock.StateVector.__init__": (
        "the package builds finite, nonempty 1-d coefficients",
        'raise ValueError("coeffs must be a nonempty one-dimensional array")',
        'raise ValueError("coefficients must be finite")',
    ),
    "observables._first_moments": (
        "states are finite, and _check_phase keeps every admitted phase finite",
        'raise ValueError("coefficients must be finite")',
    ),
    "observables._propagated_blocks": (
        "every caller passes 1-d sample times",
        'raise ValueError(f"times must be one-dimensional, got shape {times.shape}")',
    ),
    "observables._variance": (
        "numerical guard: no admitted run rounds a variance below its bound",
        "raise ValueError(",
    ),
    "observables.averages_bruteforce_fock": (
        "uncertainty asks for a range of levels below n_max",
        'raise ValueError(f"levels must be one-dimensional, got shape {levels.shape}")',
        "raise ValueError(",
    ),
    "observables.averages_closedform_batch": (
        "every caller passes 1-d sample times",
        'raise ValueError(f"times must be one-dimensional, got shape {times.shape}")',
    ),
    "observables.phase_rotation_drifts": (
        "both callers pass one angle per state row",
        "raise ValueError(",
    ),
    "observables.uncertainty_fock": (
        "uncertainty asks for levels from 0 up",
        'raise ValueError(f"level must be nonnegative, got {levels.min()}")',
    ),
    "verify._uniform_draws": (
        "a negative seed never ends the fold, and run_all would count this raise "
        "as a criterion failure, so cli._validate refuses it first",
        'raise ValueError(f"seed must be nonnegative, got {seed}")',
    ),
    "wavefunction._slices": (
        "packet_sweep passes one grid row per time; the shape check serves library callers",
        "raise ValueError(",
    ),
    "wavefunction.generating_sum_check": (
        "the generating-identity criterion passes its own k_max",
        'raise ValueError(f"k_max must be nonnegative, got {k_max}")',
    ),
    "wavefunction.packet_sweep": (
        "cli._validate refuses grid_points < 3 first",
        'raise ValueError(f"need at least 2 points, got {npoints}")',
    ),
    # the CLI's own guards
    "cli._float_cells": (
        "a \\0 or \\1 in a separator would vanish in the delete pass; no command's does",
        'raise ValueError(f"a separator holds a delete or marker byte: {seps!r}")',
    ),
    "cli._keep_freed_memory": (
        "the fallback for a libc without mallopt; glibc has it",
        "except (AttributeError, OSError):",
        "return",
    ),
    "cli.main": (
        "warnings other than TruncationWarning pass through; no case raises one",
        "warnings.showwarning(w.message, w.category, w.filename, w.lineno)",
    ),
}

# the code objects that belong to the function around them
ANONYMOUS = {"<lambda>", "<listcomp>", "<genexpr>", "<dictcomp>", "<setcomp>"}


def function_statements() -> dict[str, tuple[str, dict[int, tuple[str, set[int]]]]]:
    """Qualified name "module.Class.function" of every function and method
    in the package -> (its file, {first line: (stripped text of that line,
    the lines that hold its code)} for each statement of its body that
    holds code). A line belongs to the innermost statement around it."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        tree = ast.parse(source)
        statement = {}  # line -> first line of the innermost statement around it
        for node in ast.walk(tree):  # outer nodes first, so inner ones overwrite
            if isinstance(node, (ast.stmt, ast.excepthandler)):
                for line in range(node.lineno, node.end_lineno + 1):
                    statement[line] = node.lineno
        named = {}  # first line, as a code object reports it -> (name, first body line)

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    named[first] = (f"{prefix}.{child.name}", child.body[0].lineno)
                    visit(child, f"{prefix}.{child.name}")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}.{child.name}")

        def walk(code, owner):
            if code.co_name not in ANONYMOUS:
                owner = named.get(code.co_firstlineno)
            if owner is not None:
                name, body = owner
                statements = found.setdefault(name, (str(path), {}))[1]
                for _, _, line in code.co_lines():
                    if line is not None and line >= body:
                        first = statement[line]
                        statements.setdefault(first, (text[first - 1].strip(), set()))
                        statements[first][1].add(line)
            for const in code.co_consts:
                if hasattr(const, "co_lines"):
                    walk(const, owner)

        visit(tree, path.stem)
        walk(compile(source, str(path), "exec"), None)
    return found


def entered_by_the_corpus() -> set[tuple[str, int]]:
    """(file, line) of every package line that raised a "line" event while
    the corpus ran in this process."""
    spec = importlib.util.spec_from_file_location(
        "golden_regenerate", GOLDEN / "regenerate.py"
    )
    regenerate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regenerate)
    package = str(PACKAGE)
    lines = set()

    def trace_lines(frame, event, arg):
        if event == "line":
            lines.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    def trace(frame, event, arg):  # local tracing inside the package only
        return trace_lines if frame.f_code.co_filename.startswith(package) else None

    previous = sys.gettrace()
    for case in regenerate.read_cases():
        with tempfile.TemporaryDirectory() as workdir:
            sys.settrace(trace)
            try:
                regenerate.run_case(case, Path(workdir))
            finally:
                sys.settrace(previous)
    return {(str(Path(path).resolve()), line) for path, line in lines}


def reach_report(functions, entered) -> tuple[list[str], list[str]]:
    """What the allowlist misses or no longer needs, one line of text each,
    grouped by function; and the entered share of statements per module."""
    problems, shares = [], {}
    for name, (path, statements) in sorted(functions.items()):
        missed = sorted(
            text for text, lines in statements.values()
            if not any((path, line) in entered for line in lines)
        )
        share = shares.setdefault(name.split(".")[0], [0, 0])
        share[0] += len(statements) - len(missed)
        share[1] += len(statements)
        entry = ALLOWLIST.get(name)
        if isinstance(entry, str):  # the whole function
            if len(missed) < len(statements):
                problems.append(f"{name}: entered now; drop its entry")
            continue
        allowed = set(entry[1:]) if entry else set()
        problems += [f"{name}: unentered: {text}" for text in missed if text not in allowed]
        problems += [f"{name}: stale entry: {text}" for text in sorted(allowed - set(missed))]
    problems += [f"{name}: no such function" for name in sorted(set(ALLOWLIST) - set(functions))]
    shares["all"] = [sum(share[k] for share in shares.values()) for k in (0, 1)]
    return problems, [
        f"{module}: {hit} of {total} statements entered ({100 * hit / total:.1f} %)"
        for module, (hit, total) in shares.items()
    ]


def test_the_corpus_enters_every_statement_but_the_allowlist():
    result = subprocess.run(
        [sys.executable, __file__],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    entered = {(path, line) for path, line in json.loads(result.stdout)}
    problems, shares = reach_report(function_statements(), entered)
    assert not problems, "\n".join(
        ["enter each with a corpus case, allowlist it with a reason or delete it:"]
        + problems + shares
    )


if __name__ == "__main__":
    json.dump(sorted(entered_by_the_corpus()), sys.stdout)
