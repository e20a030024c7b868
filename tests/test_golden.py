"""Golden corpus: the bytes of every case in tests/golden/cases, pinned.

The cases run in one child process with one BLAS thread (see
tests/golden/regenerate.py), and once more with two BLAS threads: the packet
series and the brute-force expectations are fixed-order elementwise sums, so
no command's bytes may move with the thread count. Libm, numpy's SIMD loops
and the BLAS build can still differ between machines, so the test is strict
only on a machine whose fingerprint matches the one in the hashes header,
and skips elsewhere.
"""

import contextlib
import importlib.util
import io
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from oscilab import cli

GOLDEN = Path(__file__).resolve().parent / "golden"


def _regenerate_module():
    spec = importlib.util.spec_from_file_location(
        "golden_regenerate", GOLDEN / "regenerate.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _by_case(text: str) -> dict[str, str]:
    """Hashes line per case; the case follows the two-space separator."""
    lines = (line for line in text.splitlines() if not line.startswith("#"))
    return {line.split("  ", 1)[1]: line for line in lines}


def test_every_case_has_one_hashes_line():
    regenerate = _regenerate_module()
    cases = regenerate.read_cases()
    assert len(set(cases)) == len(cases)
    assert list(_by_case(regenerate.HASHES.read_text())) == cases


def _recorded_hashes(regenerate) -> str:
    """The hashes file, after skipping unless this machine recorded it."""
    expected = regenerate.HASHES.read_text()
    prefix = regenerate.FINGERPRINT_PREFIX
    recorded = next(
        line[len(prefix):] for line in expected.splitlines() if line.startswith(prefix)
    )
    here = regenerate.fingerprint()
    if here != recorded:
        pytest.skip(f"hashes recorded on [{recorded}], this machine is [{here}]")
    return expected


def _run_regenerate(*args: str) -> str:
    result = subprocess.run(
        [sys.executable, str(GOLDEN / "regenerate.py"), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def _assert_same_cases(got: dict[str, str], want: dict[str, str]) -> None:
    changed = [case for case in want if got.get(case) != want[case]]
    assert not changed, "cases whose bytes changed:\n" + "\n".join(
        f"  {case}\n    now  {got.get(case)}\n    was  {want[case]}" for case in changed
    )


def test_corpus_matches_the_recorded_hashes():
    regenerate = _regenerate_module()
    expected = _recorded_hashes(regenerate)
    got = _run_regenerate()
    _assert_same_cases(_by_case(got), _by_case(expected))
    assert got == expected


def test_corpus_matches_at_two_blas_threads():
    regenerate = _regenerate_module()
    expected = _recorded_hashes(regenerate)
    got = _run_regenerate("--blas-threads", "2")
    _assert_same_cases(_by_case(got), _by_case(expected))
    assert got == expected


def test_no_corpus_case_warns(tmp_path, monkeypatch):
    # every case, refusals included, ends without a Python warning of any
    # kind: none is recorded, and none reaches the stderr the hashes pin. The
    # one case whose state fills its top levels has `main` write its
    # TruncationWarning as an "oscilab: warning:" line instead. Every case
    # exits as its hashes line records, on any machine, and a refused one
    # writes no stdout and ends on its one error line, with no traceback
    warns = "oscilab trajectory --chi-re 1 --n-max 13 --t-end 0.02"
    regenerate = _regenerate_module()
    recorded = _by_case(regenerate.HASHES.read_text())
    monkeypatch.chdir(tmp_path)
    for case in regenerate.read_cases():
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = cli.main(shlex.split(case)[1:])
        assert not caught, (case, [str(w.message) for w in caught])
        assert "Warning" not in err.getvalue(), case
        assert ("oscilab: warning: " in err.getvalue()) == (case == warns), case
        assert code == int(recorded[case].split()[0]), case
        if code == 1:
            lines = err.getvalue().splitlines()
            refusals = [line for line in lines if re.match(r"oscilab( [\w-]+)?: error: ", line)]
            assert out.getvalue() == "" and refusals == lines[-1:], (case, lines)
            assert "Traceback" not in err.getvalue(), case
