"""Check the CLI's float-table kernel against Python's "%.17g", byte for byte.

    python tests/float_kernel.py                  # 10^6 random bit patterns
    python tests/float_kernel.py --columns 7      # as a 7-column CSV table

The cells are every edge value of `edge_floats` and 10^6 float64 values
whose 64 bits are drawn at random from seed 0, so every sign, exponent and
significand (nan and inf included) turns up. They go through
`oscilab.cli._float_cells` as a table of `--columns` columns (one by
default), with the separators of the packet CSV: "," between cells and a
newline after each row, so a table of several columns puts separators at
the kernel's chunk and pass boundaries. Any cell of its bytes that differs
from b"%.17g" % value is printed, and the exit code is then 1. No
hypothesis database is involved, so every run checks the same cells. The
tests call `mismatches` and `random_floats` with counts and seeds of their
own.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from oscilab.cli import _float_cells  # noqa: E402


def _ulps(value: float) -> list[float]:
    return [math.nextafter(value, -math.inf), value, math.nextafter(value, math.inf)]


def exact_ties() -> list[float]:
    """Doubles exactly halfway between two 17-digit decimals: x 10^q an odd
    multiple of 1/2 in [1e16, 1e17), three at each scale q = 1..24 (the only
    scales with one in the kernel's range), and (2^17 + k) / 2^17 for odd k."""
    ties = [(2**17 + k) / 2**17 for k in range(1, 2**12, 2)]
    for q in range(1, 25):
        least, most = -(-2 * 10**16 // 5**q), (2 * 10**17 - 1) // 5**q
        for m in (least | 1, (least + most) // 2 | 1, most - 1 + most % 2):
            if m < 2**53:
                ties.append(m / 2 ** (q + 1))  # exact: m has at most 53 bits
    return ties


def edge_floats() -> list[float]:
    """Signed zeros, non-finite values, subnormals and the extremes; the
    kernel's range bounds 1e16 and 1e-280, and every 10^k, each with its
    neighbours one ulp away; and exact ties.

    The 10^k include 1e-4 and 1e-5, where the format switches between fixed
    and scientific, and the doubles nearest 10^k that lie below it yet print
    as 10^k (k = -14, -70, 98, 129 and ten more), whose digits round up a
    decade.
    """
    values = [0.0, math.inf, math.nan, 5e-324, 2.2250738585072009e-308,
              2.2250738585072014e-308, 1e-300, 1.7976931348623157e308, 0.1, 1 / 3]
    values += _ulps(1e16) + _ulps(1e-280)
    for k in range(-323, 309):
        values += _ulps(float(f"1e{k}"))
    values += exact_ties()
    return values + [-v for v in values]


def random_floats(count: int, seed: int) -> np.ndarray:
    bits = np.random.default_rng(seed).integers(0, 2**64, count, dtype=np.uint64)
    return bits.view(np.float64)


def mismatches(values, columns: int = 1) -> list[tuple]:
    """(value, kernel bytes, b"%.17g" bytes) of every cell the kernel
    writes differently, the values laid out row by row as a table of
    `columns` columns, its last row filled up from the first values. A row
    whose bytes do not split into `columns` cells is one entry: its values,
    its bytes and the bytes it should have."""
    flat = np.asarray(values, dtype=np.float64).ravel()
    table = np.resize(flat, (-(-flat.size // columns), columns))
    lines = b"".join(_float_cells(table, [","] * (columns - 1) + ["\n"])).split(b"\n")
    assert lines.pop() == b"" and len(lines) == len(table)
    bad = []
    for row, line in zip(table.tolist(), lines):
        want = [b"%.17g" % v for v in row]
        cells = line.split(b",")
        if len(cells) != columns:
            bad.append((row, line, b",".join(want)))
        else:
            bad += [(v, g, w) for v, g, w in zip(row, cells, want) if g != w]
    return bad


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--columns", type=int, default=1)
    args = parser.parse_args(argv)
    if args.columns < 1:
        parser.error("--columns must be at least 1")
    edges = edge_floats()
    bad = (mismatches(edges, args.columns)
           + mismatches(random_floats(10**6, 0), args.columns))
    for value, got, want in bad[:20]:
        print(f"{value!r}: kernel {got!r}, %.17g {want!r}")
    print(f"{len(edges)} edge values and 1000000 random bit patterns "
          f"(seed 0), {args.columns}-column table: {len(bad)} mismatches")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
