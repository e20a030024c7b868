"""Golden corpus: the bytes of every case in tests/golden/cases, pinned.

The cases run in one child process with one BLAS thread (see
tests/golden/regenerate.py). The `wavefunction`, brute-force and `verify`
digits depend on the BLAS kernel, so the test is strict only on a machine
whose fingerprint matches the one in the hashes header, and skips elsewhere.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_corpus_matches_the_recorded_hashes():
    regenerate = _regenerate_module()
    expected = regenerate.HASHES.read_text()
    prefix = regenerate.FINGERPRINT_PREFIX
    recorded = next(
        line[len(prefix):] for line in expected.splitlines() if line.startswith(prefix)
    )
    here = regenerate.fingerprint()
    if here != recorded:
        pytest.skip(f"hashes recorded on [{recorded}], this machine is [{here}]")
    result = subprocess.run(
        [sys.executable, str(GOLDEN / "regenerate.py")],
        capture_output=True,
        text=True,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    got, want = _by_case(result.stdout), _by_case(expected)
    changed = [case for case in want if got.get(case) != want[case]]
    assert not changed, "cases whose bytes changed:\n" + "\n".join(
        f"  {case}\n    now  {got.get(case)}\n    was  {want[case]}" for case in changed
    )
    assert result.stdout == expected
