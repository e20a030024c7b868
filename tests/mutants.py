"""Run the committed mutation checks: each mutant must fail the tests it names.

    python tests/mutants.py

Each row of MUTANTS names a file under `src/oscilab`, one exact piece of its
text, the replacement and the tests that must catch the change. For each
row the script copies `src/`, `tests/`, `perfbench/` (a parser test reads
its workload argvs) and `pyproject.toml` to a temporary tree, applies the
edit there, and runs the named tests with `pytest -x`. The mutant is
killed when they fail, and survives when they pass. A row whose text is not
found exactly once is stale, and fails loudly, as a stale reach allowlist
entry does; `tests/test_mutants.py` checks that on every tier-1 run. The
exit code is 1 when any mutant survives or is stale.
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
        "plain-args-without-the-command-defaults", "cli.py",
        "    for flag, keywords in options.items():  # the command's own defaults\n"
        '        if "default" in keywords:\n'
        '            config[dests[flag]] = keywords["default"]\n',
        "",
        ("tests/test_cli.py::test_the_plain_path_parses_as_argparse",),
    ),
    Mutant(
        "plain-args-take-option-like-values", "cli.py",
        '        if text.startswith("-") and text != "-" and not _NEGATIVE_NUMBER.match(text):\n'
        "            return None\n",
        "",
        ("tests/test_cli.py::test_the_plain_path_parses_as_argparse",
         "tests/test_golden.py::"
         "test_parser_cases_match_the_recorded_hashes_on_the_recorded_python"),
    ),
    Mutant(
        "trajectory-t-end-default-dropped", "cli.py",
        '{"--t-end": {"default": 2.0 * math.pi}}', "{}",
        ("tests/test_cli.py::test_oversized_sample_count_exits_1_naming_the_cause",
         "tests/test_golden.py::test_no_corpus_case_warns"),
    ),
    Mutant(
        "spectrum-takes-the-units", "cli.py",
        '"--chi-re --chi-im --n-max --output --format", {}', "_STATE_AND_OUTPUT, {}",
        ("tests/test_cli.py::test_commands_refuse_the_options_they_do_not_read",),
    ),
    Mutant(
        "verify-chi-im-with-the-shared-help", "cli.py",
        '"--chi-im": {"default": None, "help": None}', '"--chi-im": {"default": None}',
        ("tests/test_golden.py::"
         "test_parser_cases_match_the_recorded_hashes_on_the_recorded_python",),
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
        ("tests/test_cli.py::test_the_plain_path_parses_as_argparse",),
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
    Mutant(
        "state-without-the-finiteness-check", "fock.py",
        "        if not np.all(np.isfinite(c)):\n"
        '            raise ValueError("coefficients must be finite")\n',
        "",
        ("tests/test_values.py::test_validation_keeps_its_messages",),
    ),
    Mutant(
        "norm-refusal-reworded", "observables.py",
        'f"state norm {float(norms[worst])!r} deviates from 1 by more than "',
        'f"state norm {float(norms[worst])!r} is off 1 by more than "',
        ("tests/test_observables.py::test_unnormalized_state_rejected_with_measured_norm",
         "tests/test_acceptance.py::test_explicit_n_max_reaches_every_sweeping_criterion"),
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
        for part in ("src", "tests", "perfbench"):
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
