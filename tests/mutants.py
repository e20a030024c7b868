"""Run the committed mutation checks: each mutant must fail the tests it names.

    python tests/mutants.py

Each row of MUTANTS names a file under `src/oscilab`, one exact piece of its
text, the replacement and the tests that must catch the change. For each
row the script copies `src/`, `tests/` and `pyproject.toml` to a temporary
tree, applies the edit there, and runs the named tests with `pytest -x`.
The mutant is killed when they fail, and survives when they pass. A row
whose text is not found exactly once is stale, and fails loudly, as a
stale reach allowlist entry does; `tests/test_mutants.py` checks that on
every tier-1 run. The exit code is 1 when any mutant survives or is stale.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "oscilab"


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/oscilab
    original: str
    replacement: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "series-from-padded-end", "wavefunction.py",
        "out.real, out.imag = acc[..., :npoints]",
        "out.real, out.imag = acc[..., width - npoints:]",
        ("tests/test_wavefunction.py::test_padded_lanes_never_reach_the_series",),
    ),
    Mutant(
        "only-the-named-subparser", "cli.py",
        "    for name, (help_text, groups) in COMMANDS.items():\n",
        "    for name, (help_text, groups) in COMMANDS.items():\n"
        "        if command in COMMANDS and name != command:\n"
        "            continue\n",
        ("tests/test_cli.py::test_the_parser_for_one_command_parses_as_the_full_parser",),
    ),
    Mutant(
        "unreachable-statement-in-count", "cli.py",
        '    text = str(n) if n < 10**15 else f"{Decimal(n):.3g}"\n',
        "    if n < 0:\n"
        "        return noun\n"
        '    text = str(n) if n < 10**15 else f"{Decimal(n):.3g}"\n',
        ("tests/test_reach.py::test_the_corpus_enters_every_statement_but_the_allowlist",),
    ),
    Mutant(
        "subparsers-without-argument-default", "cli.py",
        "sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)",
        "sub.add_parser(name, help=help_text)",
        ("tests/test_cli.py::"
         "test_the_echo_of_a_field_the_command_does_not_register_is_its_default",),
    ),
    Mutant(
        "plan-arrays-rotated-by-one-cell", "cli.py",
        "[a[cells] for a in plan]",
        "[a[cells] if a.ndim > 1 else np.roll(a[cells], 1) for a in plan]",
        ("tests/test_cli.py::test_float_cells_do_not_depend_on_the_chunk_size",),
    ),
    Mutant(
        "plan-series-at-the-moments-tol", "verify.py",
        "series = resolve_n_max(label, n_max, SERIES_TAIL_TOL)",
        "series = resolve_n_max(label, n_max)",
        ("tests/test_acceptance.py::test_series_criteria_truncate_at_the_series_tail",),
    ),
    Mutant(
        "packet-criterion-on-the-moments-state", "verify.py",
        "for label, _, state in plan:",
        "for label, state, _ in plan:",
        ("tests/test_acceptance.py::test_series_criteria_truncate_at_the_series_tail",),
    ),
    Mutant(
        "closed-form-phase-with-the-centre-subtracted", "wavefunction.py",
        "2.0 * u + a", "2.0 * u - a",
        ("tests/test_wavefunction.py::test_closed_form_is_finite_and_within_1e_12_of_mpmath",
         "tests/test_wavefunction.py::test_two_closed_forms_agree_pointwise"),
    ),
    Mutant(
        "auto-search-without-the-underflow-check", "coherent.py",
        "    _ladder_start(label)  # the search's bound: no tail walk for a label past it\n",
        "",
        ("tests/test_coherent.py::test_an_underflowing_label_is_refused_before_any_tail_walk",),
    ),
    Mutant(
        "packet-norm-without-the-quadrature-weights", "wavefunction.py",
        "weights * np.abs(series) ** 2", "np.abs(series) ** 2",
        ("tests/test_wavefunction.py::"
         "test_packet_sweep_grids_and_moments_are_the_per_slice_oracle_to_the_bit",),
    ),
    Mutant(
        "zero-slice-moments-warn", "wavefunction.py",
        'np.errstate(invalid="ignore")', 'np.errstate(invalid="warn")',
        ("tests/test_wavefunction.py::"
         "test_packet_sweep_gives_a_slice_past_the_seed_underflow_norm_0",),
    ),
)


def occurrences(mutant: Mutant) -> int:
    """How often the mutant's original text occurs in its file."""
    return (PACKAGE / mutant.path).read_text().count(mutant.original)


def run(mutant: Mutant) -> str:
    """The verdict on the mutant, applied to a copy: killed, survived or stale."""
    if occurrences(mutant) != 1:
        return "stale"
    with tempfile.TemporaryDirectory(prefix="oscilab-mutant-") as tmp:
        tree = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", tree / "pyproject.toml")
        target = tree / "src" / "oscilab" / mutant.path
        target.write_text(
            target.read_text().replace(mutant.original, mutant.replacement)
        )
        env = {**os.environ, "PYTHONPATH": str(tree / "src")}
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *mutant.tests],
            cwd=tree, env=env, capture_output=True, text=True,
        )
    if result.returncode not in (0, 1):  # not a test verdict: a usage error
        sys.stdout.write(result.stdout + result.stderr)
        raise SystemExit(f"{mutant.name}: pytest exited {result.returncode}")
    return "survived" if result.returncode == 0 else "killed"


def main() -> int:
    failed = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        verdict = run(mutant)
        print(f"{verdict:8}  {time.perf_counter() - start:6.1f} s  {mutant.name}",
              flush=True)
        failed += verdict != "killed"
    print(f"{len(MUTANTS) - failed}/{len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
