"""Run the golden corpus and print, or with --write record, its hashes.

    python tests/golden/regenerate.py                   # print the hashes file
    python tests/golden/regenerate.py --write           # rewrite tests/golden/hashes
    python tests/golden/regenerate.py --blas-threads 2  # the same, at two BLAS threads

Every case in `cases` goes through `oscilab.cli.main` in this one process,
with stdout and stderr captured and an empty working directory of its own.
A hashes line holds the exit code, the sha256 of stdout, of stderr and of
the `--output` file ("-" when the case wrote none), then the case itself.

The script pins the BLAS thread count before numpy loads: one thread unless
`--blas-threads` says otherwise. The `wavefunction` series and every
brute-force average are fixed-order elementwise sums, so their bytes do not
depend on that count. The header records a fingerprint of the machine: the
same bytes are expected only where the fingerprint matches.
"""

from __future__ import annotations

import argparse
import os
import sys


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Run the golden corpus.")
    parser.add_argument("--write", action="store_true", help="rewrite the hashes file")
    parser.add_argument("--blas-threads", type=int, default=1, metavar="N")
    args = parser.parse_args(argv)
    if args.blas_threads < 1:
        parser.error("--blas-threads must be at least 1")
    return args


if __name__ == "__main__":
    ARGS = parse_args(sys.argv[1:])
    for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_name] = str(ARGS.blas_threads)
    os.environ["COLUMNS"] = "80"  # argparse wraps the help texts to this width
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "src")
    )

import contextlib
import hashlib
import io
import platform
import shlex
import tempfile
import warnings
from pathlib import Path

import numpy as np

from oscilab import cli

HERE = Path(__file__).resolve().parent
CASES = HERE / "cases"
HASHES = HERE / "hashes"
FINGERPRINT_PREFIX = "# fingerprint: "
HEADER = (
    "# oscilab golden corpus: exit code, sha256 of stdout, of stderr and of the\n"
    '# --output file ("-" when none), then the case. Regenerate with\n'
    "# python tests/golden/regenerate.py --write\n"
)


def fingerprint() -> str:
    """Python, numpy, BLAS build, SIMD level and machine: what the bytes of
    the corpus depend on.

    The SIMD part is the highest x86-64 level numpy found or has as its
    baseline (X86_V2, X86_V3 or X86_V4): the float loops numpy dispatches
    change with it, and the corpus bytes have been seen to move between
    levels. The feature groups above X86_V4 (AVX512_ICL, AVX512_SPR) select
    only integer, sorting and float16 loops, whose results do not depend on
    them, so a machine that lacks one still checks the bytes. Off x86-64
    the whole found list stands.
    """
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')}-{blas.get('version')}"
        simd_info = config["SIMD Extensions"]
        found = simd_info.get("found", ())
        levels = [name for name in (*simd_info.get("baseline", ()), *found)
                  if name in ("X86_V2", "X86_V3", "X86_V4")]
        simd = max(levels) if levels else ",".join(found)
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        blas_text, simd = "unknown", "unknown"
    return (
        f"python={sys.version_info.major}.{sys.version_info.minor} "
        f"numpy={np.__version__} blas={blas_text} simd={simd} "
        f"machine={platform.machine()}"
    )


def read_cases(path: Path = CASES) -> list[str]:
    lines = (line.strip() for line in path.read_text().splitlines())
    return [line for line in lines if line and not line.startswith("#")]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(case: str, workdir: Path) -> str:
    """One hashes line: the case run through `cli.main` inside `workdir`."""
    argv = shlex.split(case)[1:]  # drop the leading "oscilab"
    written = None
    if "--output" in argv:
        written = workdir / argv[argv.index("--output") + 1]
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        # a fresh warnings registry, so a warning shows as in its own process
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    file_hash = "-"
    if written is not None and written.is_file():
        file_hash = _sha(written.read_bytes())
        written.unlink()
    return (
        f"{code} {_sha(out.getvalue().encode())} {_sha(err.getvalue().encode())} "
        f"{file_hash}  {case}"
    )


def case_lines() -> list[str]:
    """The hashes line of every case."""
    lines = []
    for case in read_cases():
        with tempfile.TemporaryDirectory() as workdir:
            lines.append(run_case(case, Path(workdir)))
    return lines


def corpus_text() -> str:
    """The full hashes file for this machine."""
    header = HEADER + FINGERPRINT_PREFIX + fingerprint()
    return "\n".join([header, *case_lines()]) + "\n"


def main(args: argparse.Namespace) -> int:
    if args.write:
        HASHES.write_text(corpus_text())
    else:
        sys.stdout.write(corpus_text())
    return 0


if __name__ == "__main__":
    sys.exit(main(ARGS))
