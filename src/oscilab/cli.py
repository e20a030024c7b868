"""Command-line front end: reproducible runs written to CSV or JSON.

Every command is a pure function of its parsed options (seed included):
`main` hands them on as the run's config, a SimpleNamespace, and `DEFAULTS`
gives each field its one default. Every numeric cell is written with 17
significant digits, as "%.17g" % x, so identical invocations produce
byte-identical files. A table of floats goes through one exact array kernel
(`_float_cells`: a digit plan per pass of two chunks, then the bytes per
chunk), which hands the few cells it cannot decide exactly to "%.17g"
itself; any other table goes cell by cell. The output is ASCII bytes,
yielded in pieces and written as each comes: to a file as is, to stdout
decoded. CSV output is RFC-4180 with '#' comment lines for the schema, the
echoed config (including the resolved truncation level) and footer records;
JSON output is one object with "config", "rows" and "footer".

Each call is a fresh process, so the module imports no more than every
command needs: `json` is imported by the JSON branches only, and argparse
for help and refusals only. One option table gives every flag: `main` reads
an argv of a command and exact `--flag value` pairs straight from it
(`_plain_args`), and hands any other argv to the argparse parser built from
it. `main` keeps freed array memory in the process (`_keep_freed_memory`).

Exit codes: 0 success, 1 usage/invalid config, 2 unwritable output,
3 failed verification. A TruncationWarning goes to stderr as one line.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
import sys
import warnings
from collections.abc import Iterator
from types import SimpleNamespace

import numpy as np

from .coherent import (
    AUTO_TAIL_TOL,
    TRUNCATION_MARGIN,
    CoherentLabel,
    coherent_coefficients,
    occupation_probability,
    resolve_n_max,
    truncation_tail,
)
from .dynamics import sample_count, sample_times
from .fock import OscillatorParams, TruncationWarning, check_n_max
from .observables import (
    RECORD_COLUMNS,
    averages_bruteforce_batch,
    averages_bruteforce_fock,
    averages_closedform_batch,
    phase_rotation_drifts,
    uncertainty_fock,
)
from .verify import format_table, run_all
from .wavefunction import DEFAULT_GRID_HALFWIDTH, DEFAULT_GRID_POINTS, packet_sweep

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_VERIFY = 3

SCHEMA_PREFIX = "oscilab"
SCHEMA_VERSION = "v1"

# The wavefunction command's tail tolerance: a pointwise packet amplitude errs
# like the square root of the tail, here 1e-9, below QUADRATURE_TOL.
AMPLITUDE_TAIL_TOL = 1e-18
# Largest accepted gap between a wavefunction slice's quadrature norm and
# the truncated state's norm; the packet tolerance `verify` uses.
QUADRATURE_TOL = 1e-8
# The most cells one array term of a run may hold; `_admit` refuses a run
# with a larger term before any array exists. Measured at 2^22, a table cell
# costs at most 24 B in either format, its output streamed, and a coefficient
# cell 96 B: every admitted run measured peaks below 0.45 GiB.
MAX_CELLS = 2**22
# Largest ulp a level phase may have, in radians: 2 pi 2^-20, about 6e-6.
PHASE_ULP_LIMIT = 2.0 * math.pi * 2.0**-20


# Every field of a run's config and its default. Both parsers start from
# them all (argparse's root parser supplies them and a subparser's options
# default to SUPPRESS), so a field the argv leaves out, or the command does
# not register, keeps its default here (and in a table command's echoed
# config); an option gives its own default only where its command's differs.
DEFAULTS = {
    "chi_re": 1.0, "chi_im": 0.0, "hbar": 1.0, "mass": 1.0, "omega": 1.0,
    "n_max": "auto", "t_start": 0.0, "t_end": 0.0, "dt": 0.01,
    "grid_halfwidth": DEFAULT_GRID_HALFWIDTH, "grid_points": DEFAULT_GRID_POINTS,
    "output_path": "-", "format": "csv", "seed": 0,
}


def _params(config: SimpleNamespace) -> OscillatorParams:
    """The run's units; OscillatorParams refuses any that are not finite and positive."""
    return OscillatorParams(config.hbar, config.mass, config.omega)


def _label(config: SimpleNamespace) -> CoherentLabel:
    return CoherentLabel(complex(config.chi_re or 0.0, config.chi_im or 0.0))


def _validate(config: SimpleNamespace) -> None:
    """The rules no library function makes, after OscillatorParams checks the
    units; the seed too, whose refusal `run_all` would count as failures."""
    _params(config)
    if not (math.isfinite(config.t_start) and math.isfinite(config.t_end)):
        raise ValueError("t_start and t_end must be finite")
    if config.grid_points < 3 or config.grid_points % 2 == 0:
        raise ValueError(
            f"grid_points must be an odd integer >= 3, got {config.grid_points}"
        )
    if config.seed < 0:
        raise ValueError(f"seed must be nonnegative, got {config.seed}")


def _fmt(value) -> str:
    """One cell: floats at 17 significant digits, ints and strings verbatim, None as null."""
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _csv_cell(value) -> str:
    text = _fmt(value)
    if any(ch in text for ch in ',"\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


# The float-cell kernel writes a table's bytes this many cells at a time and
# plans their digits over passes of two such chunks, so its temporaries stay
# near a megabyte whatever the table's size, inside a 2 MiB L2 cache. A plan
# pays about 40 us of ufunc call overhead whatever its size, a byte chunk a
# few us (AMD EPYC): two-chunk passes halve the plan's share, and larger byte
# chunks would raise the render's peak.
_CHUNK_CELLS = 1 << 12
# Largest scale 10^q it multiplies by: 10^(16 - X) for the smallest decimal
# exponent X = -281 that log10 gives its range, and one more for the correction.
_MAX_SCALE = 298
# A cell's bytes before its separator, as five 8-byte words and a 4-byte
# one: a sign, the "0.000" of a fixed-point value under 1, the lead digit and
# a point slot; four words of four digits, each followed by a point slot (the
# last by "e"); and "-" with three exponent digits. Every cell fills every
# slot, its keep mask zeroes the bytes "%.17g" does not write, and one delete
# pass drops the zeros.
_DIGIT0, _EXP, _CELL_SLOTS = 6, 39, 44
# Cell shapes, the first index of the keep masks: fixed point at decimal
# exponent shape - 4 (-4..15); scientific with a two- or three-digit
# exponent; and a fallback cell, whose one significant digit is its marker.
_SCIENTIFIC, _SCIENTIFIC_3, _OTHER = 20, 21, 22


@functools.cache
def _kernel_tables() -> tuple[np.ndarray, ...]:
    """The float-cell kernel's tables, built on first use.

    10^q for q = 0.._MAX_SCALE as hi + lo (hi the double nearest 10^q, lo
    the double nearest 10^q - hi) with hi's Veltkamp halves; the trailing-zero
    counts of 0000..9999; the cell words and the exponent words (below); and
    the keep masks by (negative, shape, significant digits), 0xFF per kept
    byte, as a cell's five words and its 4-byte word.
    """
    hi, lo, power = [], [], 1
    for _ in range(_MAX_SCALE + 1):
        hi.append(float(power))
        lo.append(float(power - int(hi[-1])))
        power *= 10
    hi, lo = np.array(hi), np.array(lo)
    split = 134217729.0 * hi  # 2^27 + 1
    hi_hi = split - (split - hi)
    zeros = np.zeros(10**4, np.uint8)
    for count, step in enumerate((10, 100, 1000, 10**4), 1):
        zeros[::step] = count

    # the keep masks of the number shapes, slot by slot; sig 0 keeps nothing
    masks = np.zeros((2, _OTHER + 1, 18, _CELL_SLOTS), np.uint8)
    keep = masks[0, :_OTHER, 1:]  # (shape, sig, slot) from sig 1
    sig = np.arange(1, 18)
    # fixed point at decimal exponent shape - 4 writes at least its integer
    # digits, scientific its significant ones
    digits = np.maximum(sig, np.arange(_OTHER)[:, np.newaxis] - 3)
    digits[_SCIENTIFIC:] = sig
    keep[:, :, _DIGIT0:_EXP:2] = (np.arange(17) < digits[:, :, np.newaxis]) * np.uint8(0xFF)
    # the point, unless after the last digit: after digit shape - 4 in fixed
    # point from shape 4 up, after the lead digit in scientific
    shape, row = np.nonzero(sig > np.arange(1, _SCIENTIFIC - 3)[:, np.newaxis])
    keep[shape + 4, row, _DIGIT0 + 1 + 2 * shape] = 0xFF
    keep[_SCIENTIFIC:, 1:, _DIGIT0 + 1] = 0xFF
    for shape in range(4):
        keep[shape, :, 1:6 - shape] = 0xFF  # "0." and 3 - shape zeros
    keep[_SCIENTIFIC:, :, _EXP:_EXP + 2] = 0xFF  # "e-"
    keep[_SCIENTIFIC, :, _EXP + 3:] = 0xFF
    keep[_SCIENTIFIC_3, :, _EXP + 2:] = 0xFF
    masks[1] = masks[0]
    masks[1, :, :, 0] = 0xFF  # the minus sign
    masks[:, _OTHER, 1, 0] = 0xFF  # fallback: its marker byte
    masks = masks.reshape(-1, _CELL_SLOTS)

    # the cell words: each 4-digit group with its point slots, then with its
    # last slot "e" (index + 10^4), then the lead words (index + 2 10^4) of
    # the lead digits and of the fallback marker (lead 10)
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    words = np.full((2 * 10**4 + 11, 8), ord("."), np.uint8)
    groups = words[:2 * 10**4].reshape(2, 10, 10, 10, 10, 8)
    for k in range(4):  # digit k of the group varies along axis k + 1
        groups[..., 2 * k] = digit.reshape((10,) + (1,) * (3 - k))
    words[10**4:2 * 10**4, 7] = ord("e")
    words[2 * 10**4:] = np.frombuffer(b"-0.000..", np.uint8)
    words[2 * 10**4:-1, _DIGIT0] = digit
    words[-1, 0] = 1  # the fallback marker
    # the exponent word of each scale q: "-" and the digits of |q - 16|, the
    # last three of group |q - 16|
    exponent = np.full((_MAX_SCALE + 1, 4), ord("-"), np.uint8)
    exponent[:, 1:] = words[np.abs(np.arange(_MAX_SCALE + 1) - 16), 2::2]
    return (hi, lo, hi_hi, hi - hi_hi, zeros,
            words.view(np.uint64).ravel(), exponent.view(np.uint32).ravel(),
            masks[:, :_EXP + 1].copy().view(np.uint64),
            masks[:, _EXP + 1:].copy().view(np.uint32).ravel())


def _scaled(a: np.ndarray, exp10: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10^(16 - exp10) as p + t: p the rounded product with hi, t its
    exact error (Dekker's TwoProduct) plus a * lo; |p + t - a 10^q| is
    under 2^-100 |p|."""
    hi, lo, hi_hi, hi_lo = _kernel_tables()[:4]
    q = 16 - exp10  # 0.._MAX_SCALE for `_decimal`'s exponents; take refuses more
    p = a * hi.take(q)
    split = 134217729.0 * a
    a_hi = split - (split - a)
    a_lo = a - a_hi
    hh, hl = hi_hi.take(q), hi_lo.take(q)
    err = ((a_hi * hh - p) + a_hi * hl + a_lo * hh) + a_lo * hl
    return p, err + a * lo.take(q)


def _decimal(ax: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 17 significant digits D (an int64 in [1e16, 1e17)) and decimal
    exponent X of each |x| in `ax`, D 10^(X - 16) being |x| rounded to 17
    digits, and where they are exact.

    A finite 1e-280 <= |x| < 1e16 is scaled to p + t = |x| 10^(16 - X) in
    [1e16, 1e17); p is then an integer and D = p + rint(t). That is exact
    unless t lies within 1e-6 of a half unit (every exact tie does) or D
    leaves the decade; those cells, and every cell outside the range, are
    marked not exact.
    """
    fast = (ax >= 1e-280) & (ax < 1e16)
    a = np.where(fast, ax, 1.0)
    exp10 = np.floor(np.log10(a)).astype(np.int64)
    p, t = _scaled(a, exp10)
    # log10 can miss the exponent by one near a power of ten: correct it by
    # the exact signs of p + t - 1e16 and p + t - 1e17, and scale again
    off = ((p - 1e17) + t >= 0).astype(np.int64) - ((p - 1e16) + t < 0)
    miss = np.flatnonzero(off)
    if miss.size:
        exp10[miss] += off[miss]
        p[miss], t[miss] = _scaled(a[miss], exp10[miss])
    r = np.rint(t)
    digits = p.astype(np.int64) + r.astype(np.int64)
    exact = fast & (np.abs(t - r) < 0.5 - 1e-6)
    exact &= (digits >= 10**16) & (digits < 10**17)
    return digits, exp10, exact


def _digit_plan(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per cell of the flat float64 array `x`: the indices of its five cell
    words, of its keep mask and of its exponent word (the scale `_decimal`
    took, 0.._MAX_SCALE), and whether "%.17g" itself must write it, as it
    must every cell `_decimal` cannot write exactly, +-0 aside."""
    zeros = _kernel_tables()[4]
    ax = np.abs(x)
    digits, exp10, exact = _decimal(ax)
    zero = ax == 0  # the digit 0 at `_decimal`'s exponent 0 for its stand-in 1.0
    fallback = ~(exact | zero)

    # the word of the lead digit (10 for the marker) and of each group of
    # four, then the significant digits left once trailing zeros go
    np.copyto(digits, 10**17, where=fallback)
    np.copyto(digits, 0, where=zero)
    high = digits // 10**8
    low = (digits - high * 10**8).astype(np.int32)
    lead, high = np.divmod(high.astype(np.int32), 10**8)
    index = np.empty((x.size, 5), np.intp)
    np.add(lead, 2 * 10**4, out=index[:, 0])  # the lead words follow the groups'
    np.divmod(high, 10**4, out=(index[:, 1], index[:, 2]))
    np.divmod(low, 10**4, out=(index[:, 3], index[:, 4]))
    # trailing zeros: the last group's, and an earlier group's only where
    # every later group is 0000
    trailing = zeros.take(index[:, 4])
    rest = np.flatnonzero(trailing == 4)
    for k in (3, 2, 1):
        more = zeros.take(index[rest, k])
        trailing[rest] += more
        rest = rest[more == 4]
    index[:, 4] += 10**4  # the last group's word ends in "e"
    shape = exp10 + 4
    np.copyto(shape, _SCIENTIFIC, where=exp10 < -4)
    shape += exp10 <= -100  # _SCIENTIFIC_3
    np.copyto(shape, _OTHER, where=fallback)
    shape += np.signbit(x) * (_OTHER + 1)
    return index, shape * 18 + 17 - trailing, 16 - exp10, fallback


def _float_chunk(x: np.ndarray, tails: np.ndarray, plan: list[np.ndarray]) -> bytes:
    """Whole rows of a float64 table, raveled into `x`, with their cells'
    `_digit_plan`: each cell "%.17g" % cell followed by its column's
    separator, the nonzero bytes of its row of `tails` (uint32 words)."""
    cell_words, exp_words, keep64, keep32 = _kernel_tables()[5:]
    index, mask, q, fallback = plan
    block = np.empty((x.size, (11 + tails.shape[1]) // 2), np.uint64)  # 11 slot words
    words = block.view(np.uint32)
    np.bitwise_and(cell_words.take(index), keep64.take(mask, axis=0), out=block[:, :5])
    np.bitwise_and(exp_words.take(q), keep32.take(mask), out=words[:, 10])
    words.reshape(-1, len(tails), words.shape[1])[..., 11:] = tails

    data = block.tobytes().translate(None, b"\0")
    if not fallback.any():
        return data
    texts = [b"%.17g" % value for value in x[fallback].tolist()]
    parts = data.split(b"\1")
    return b"".join(itertools.chain.from_iterable(zip(parts, texts + [b""])))


def _float_cells(table: np.ndarray, seps: list[str]) -> Iterator[bytes]:
    """A float64 (rows, columns) table as ASCII bytes, row by row, each cell
    written as "%.17g" % cell and followed by its column's separator;
    yielded in pieces of whole rows, one per chunk (see _CHUNK_CELLS)."""
    rows, columns = table.shape
    raw = [sep.encode() for sep in seps]
    if any(b"\0" in sep or b"\1" in sep for sep in raw):
        raise ValueError(f"a separator holds a delete or marker byte: {seps!r}")
    # the separators, zero-padded so that each cell fills whole 8-byte words
    width = _CELL_SLOTS + max(map(len, raw))
    tails = np.zeros((columns, -(-width // 8) * 8 - _CELL_SLOTS), np.uint8)
    for k, sep in enumerate(raw):
        tails[k, :len(sep)] = np.frombuffer(sep, np.uint8)
    tails = tails.view(np.uint32)
    step = max(1, _CHUNK_CELLS // columns)  # rows of a chunk
    for start in range(0, rows, 2 * step):
        x = table[start:start + 2 * step].ravel()
        plan = _digit_plan(x)
        for cell in range(0, x.size, step * columns):
            cells = slice(cell, cell + step * columns)
            yield _float_chunk(x[cells], tails, [a[cells] for a in plan])


def _json_text(value) -> str:
    """Minimal deterministic JSON with 17-significant-digit floats.

    The stdlib encoder reprs floats its own way, so numbers go through the
    same formatter as the CSV cells.
    """
    import json  # only JSON output needs it

    if isinstance(value, dict):
        items = ", ".join(
            f"{json.dumps(str(k))}: {_json_text(v)}" for k, v in value.items()
        )
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_json_text(v) for v in value) + "]"
    if isinstance(value, str):
        return json.dumps(value)
    return _fmt(value)


def _config_echo(config: SimpleNamespace, n_max: int | str) -> list[tuple[str, object]]:
    """Every field but output_path, with n_max as resolved (`verify`: as given)."""
    source = "auto" if config.n_max == "auto" else "explicit"
    echo = dict(vars(config), n_max=n_max, n_max_source=source)
    del echo["output_path"]
    return sorted(echo.items())


def _render(
    config: SimpleNamespace,
    echo: list[tuple[str, object]],
    columns: list[str],
    rows: np.ndarray | list[tuple],
    footer: list[dict],
) -> Iterator[bytes]:
    """The output bytes as one iterator of pieces, the head, the body and the
    footer, for `_emit` to write as they come. A table command's float64
    matrix goes through the array kernel `_float_cells`, a chunk a piece,
    `verify`'s row tuples through the per-cell formatters; both write floats
    as "%.17g". The schema is named after the command."""
    schema = f"{SCHEMA_PREFIX}.{config.command}.{SCHEMA_VERSION}"
    matrix = isinstance(rows, np.ndarray)
    if config.format == "csv":
        head = [f"# schema: {schema}"]
        head.append("# config: " + " ".join(f"{k}={_fmt(v)}" for k, v in echo))
        head.append(",".join(columns))
        if matrix:
            body = _float_cells(rows, [","] * (len(columns) - 1) + ["\n"])
        else:
            body = ["".join(",".join(map(_csv_cell, row)) + "\n" for row in rows).encode()]
        feet = "".join(
            "# footer: " + " ".join(f"{k}={_fmt(v)}" for k, v in record.items()) + "\n"
            for record in footer
        )
        return itertools.chain([("\n".join(head) + "\n").encode()], body, [feet.encode()])
    import json  # only JSON output needs it

    head = f'{{"schema": {json.dumps(schema)}, "config": {_json_text(dict(echo))}, "rows": '
    tail = f', "footer": {_json_text(footer)}}}\n'
    if matrix and len(rows):  # a row closes with the next's opening, the last with "}]"
        keys = [json.dumps(str(name)) for name in columns]
        seps = [f", {key}: " for key in keys[1:]]
        body = _float_cells(rows[:-1], seps + [f"}}, {{{keys[0]}: "])
        last = _float_cells(rows[-1:], seps + ["}]"])
        return itertools.chain([f"{head}[{{{keys[0]}: ".encode()], body, last, [tail.encode()])
    rows_text = _json_text([dict(zip(columns, row)) for row in rows])
    return iter([(head + rows_text + tail).encode()])


def _emit(config: SimpleNamespace, pieces: Iterator[bytes]) -> None:
    """Write each piece as it comes: to the file, or decoded to stdout (a text stream)."""
    if config.output_path == "-":
        sys.stdout.writelines(piece.decode() for piece in pieces)
        return
    with open(config.output_path, "wb") as handle:
        handle.writelines(pieces)


def _check_phase(config: SimpleNamespace, t: float, n_max: int) -> None:
    """Refuse a time whose largest level phase, omega |t| (n_max + 1/2), is
    not a finite float (numpy's cos and sin would make it nan), or whose ulp
    exceeds PHASE_ULP_LIMIT, from 2^35 rad up: its phases keep too few digits."""
    phase = config.omega * abs(t) * (n_max + 0.5)
    if not math.isfinite(phase):
        raise ValueError(
            f"the phase omega*|t|*(n_max + 1/2) overflows at t = {t!r} "
            f"(omega {config.omega!r}, n_max {n_max})"
        )
    if math.ulp(phase) > PHASE_ULP_LIMIT:
        raise ValueError(
            f"the phase omega*|t|*(n_max + 1/2) = {phase:.3g} keeps too few digits at "
            f"t = {t!r}: one ulp of it is {math.ulp(phase):.3g} rad, above 2*pi*2^-20 "
            f"(omega {config.omega!r}, n_max {n_max})"
        )


def _count(n: int, noun: str) -> str:
    """n and the plural noun, singular at 1; n to three digits from 10^15 up."""
    from decimal import Decimal  # refusals only; it rounds an int of any size

    text = str(n) if n < 10**15 else f"{Decimal(n):.3g}"
    return f"{text} {noun[:-1] if n == 1 else noun}"


def _admit(config: SimpleNamespace, n_max: int) -> None:
    """Refuse a run whose largest array term passes MAX_CELLS cells, or whose
    moment scales leave the normal floats, from the argv and n_max alone,
    before any sample times, grid or coefficient array exist, and then check
    the level phases at t_start and t_end (0 for a command without times).
    The cells come first: every float product below then takes an n_max
    under MAX_CELLS, never an int past the float range."""
    hbar, mass, omega = config.hbar, config.mass, config.omega
    levels, count = n_max + 1, 0
    if config.command in ("trajectory", "wavefunction"):
        count = sample_count(config.t_start, config.t_end, config.dt)
    # the output table's rows and columns, and the coefficient rows alive at once
    table, rows = {
        "trajectory": ((count, "time samples", 34), (1, "states")),
        "wavefunction": ((count * config.grid_points, "grid points", 7), (count, "slices")),
        "spectrum": ((levels, "levels", 4), (1, "states")),
        "uncertainty": ((levels - TRUNCATION_MARGIN, "number states", 4), (1, "states")),
        "symmetry-check": ((17, "angles", 6), (17, "angles")),
        "verify": ((0, "rows", 0), (5, "slices")),  # its packet's; one state per label on top
    }[config.command]
    terms = [(*table, "columns", "table"), (*rows, levels, "levels", "coefficient")]
    a, a_name, b, b_name, term = max(terms, key=lambda t: t[0] * t[2])
    if a * b > MAX_CELLS:
        raise ValueError(
            f"{_count(a, a_name)} x {_count(b, b_name)} is "
            f"{_count(a * b, term + ' cells')}; the limit is {MAX_CELLS}"
        )
    # a state on levels 0..n_max has <x^2>, <p^2>, <x>^2, <p>^2 and <H> at
    # most top = 4 n_max + 2 times their scale; the ground level's equal it
    top = 4 * n_max + 2
    for term, scale in (
        ("hbar/(2*M*omega)", hbar / (2.0 * mass) / omega),
        ("M*hbar*omega/2", mass * hbar * omega / 2.0),
        ("hbar*omega/2", hbar * omega / 2.0),
    ):
        if not (scale >= sys.float_info.min and math.isfinite(scale * top)):
            raise ValueError(
                f"the moment scale {term} = {scale:.3g} and (4*n_max + 2) times it, "
                f"{scale * top:.3g}, must be finite, normal floats (hbar {hbar!r}, "
                f"mass {mass!r}, omega {omega!r}, n_max {n_max})"
            )
    # the classical energy M omega^2 x^2/2 of the symmetry check's xp drift
    if config.command == "symmetry-check" and not math.isfinite(mass * (omega * omega)):
        raise ValueError(
            f"the energy scale M*omega^2 = {mass * (omega * omega):.3g} must be a "
            f"finite float (hbar {hbar!r}, mass {mass!r}, omega {omega!r})"
        )
    for t in (config.t_start, config.t_end):
        _check_phase(config, t, n_max)


def _trajectory(config, params, label, state):
    times = sample_times(config.t_start, config.t_end, config.dt)
    brute = averages_bruteforce_batch(state, times, params)
    closed = averages_closedform_batch(label, times, params)
    columns, values = ["time"], [times]
    for name in RECORD_COLUMNS:
        columns += [f"{name}_closed", f"{name}_brute", f"{name}_diff"]
        values += [closed[name], brute[name], np.abs(closed[name] - brute[name])]
    return columns, np.column_stack(values), []


def _spectrum(config, params, label, state):
    table = np.empty((state.n_max + 1, 4))
    table[:, 0] = range(state.n_max + 1)
    # level by level: numpy's array complex abs rounds apart from its scalar one
    table[:, 1] = [abs(c) ** 2 for c in state.coeffs]
    table[:, 2] = [occupation_probability(label, n) for n in range(state.n_max + 1)]
    table[:, 3] = np.abs(table[:, 1] - table[:, 2])
    footer = [{"truncation_tail": truncation_tail(label, state.n_max)}]
    return ["n", "prob_coeff", "prob_poisson", "abs_diff"], table, footer


def _uncertainty(config, params, label, state):
    levels = range(max(0, state.n_max + 1 - TRUNCATION_MARGIN))  # second-moment headroom
    table = np.empty((len(levels), 4))
    table[:, 0] = levels
    table[:, 1] = uncertainty_fock(levels, params)
    table[:, 2] = averages_bruteforce_fock(levels, state.n_max, params)["uncertainty"]
    table[:, 3] = np.abs(table[:, 1] - table[:, 2])
    at_start = averages_bruteforce_batch(state, [config.t_start], params)
    coherent_u = float(at_start["uncertainty"][0])
    floor = 0.5 * params.hbar
    footer = [
        {
            "coherent_uncertainty_bruteforce": coherent_u,
            "coherent_uncertainty_exact": floor,
            "abs_diff": abs(coherent_u - floor),
        }
    ]
    return ["n", "product_exact", "product_bruteforce", "abs_diff"], table, footer


def _wavefunction(config, params, label, state):
    times = sample_times(config.t_start, config.t_end, config.dt)
    coeff_norm2 = float(np.vdot(state.coeffs, state.coeffs).real)
    points, series, closed, norms, variances = packet_sweep(
        label, state, times, params, config.grid_halfwidth, config.grid_points
    )
    footer = []
    slices = zip(times.tolist(), norms.tolist(), variances.tolist())
    for s, (t, norm2, variance) in enumerate(slices):
        if abs(norm2 - coeff_norm2) > QUADRATURE_TOL:
            xi = np.abs(points[s]) * math.sqrt(params.mass * params.omega / params.hbar)
            # the closed form's norm where the seed, so every eigenfunction, is 0
            lost = (np.abs(closed[s][np.exp(-0.5 * xi * xi) == 0.0]) ** 2).sum()
            cause = "raise --grid-points or --grid-halfwidth"
            if lost * (points[s, 1] - points[s, 0]) > QUADRATURE_TOL:
                cause = f"the seed exp(-xi^2/2) underflows to 0 at |xi| = {xi.max():.4g}"
            raise ValueError(
                f"the grid cannot resolve the packet at t = {t:g}: its quadrature "
                f"norm {norm2:.6g} is off the state's norm {coeff_norm2:.6g} by "
                f"{abs(norm2 - coeff_norm2):.1e} (tol {QUADRATURE_TOL:.0e}); {cause}"
            )
        footer.append({"t": t, "quadrature_norm": norm2, "packet_variance": variance})
    d = series - closed
    table = np.stack([
        np.broadcast_to(times[:, np.newaxis], points.shape), points,
        series.real, series.imag, closed.real, closed.imag,
        np.hypot(d.real, d.imag),  # the scalar abs(s - c) to the bit; np.abs is not
    ], axis=-1)
    columns = ["t", "x", "series_re", "series_im", "closed_re", "closed_im", "abs_diff"]
    return columns, table.reshape(-1, len(columns)), footer


def _symmetry_check(config, params, label, state):
    alphas = np.linspace(0.0, 2.0 * math.pi, 17)
    drifts = phase_rotation_drifts(
        np.broadcast_to(state.coeffs, (alphas.size, state.coeffs.size)), alphas, params
    )
    footer = [{f"max_{name}": float(values.max()) for name, values in drifts.items()}]
    return ["alpha", *drifts], np.column_stack([alphas, *drifts.values()]), footer


# Every table command: name -> (producer, tail tolerance of its auto
# truncation). A producer maps (config, params, label, state), the state the
# label's time-0 amplitudes, to (columns, rows, footer), rows a float64 matrix
# (an integer column, such as `n`, holds floats that "%.17g" writes as the
# ints). `_run_table` resolves n_max, builds the state once and does the rest.
PRODUCERS = {
    "trajectory": (_trajectory, AUTO_TAIL_TOL),
    "spectrum": (_spectrum, AUTO_TAIL_TOL),
    "uncertainty": (_uncertainty, AUTO_TAIL_TOL),
    "wavefunction": (_wavefunction, AMPLITUDE_TAIL_TOL),
    "symmetry-check": (_symmetry_check, AUTO_TAIL_TOL),
}


def _run_table(config: SimpleNamespace) -> int:
    producer, tail_tol = PRODUCERS[config.command]
    label = _label(config)
    n_max = resolve_n_max(label, None if config.n_max == "auto" else config.n_max, tail_tol)
    _admit(config, n_max)
    state = coherent_coefficients(label, n_max)  # the run's one build, once admitted
    columns, rows, footer = producer(config, _params(config), label, state)
    echo = _config_echo(config, n_max)
    _emit(config, _render(config, echo, columns, rows, footer))
    return EXIT_OK


def _cmd_verify(config: SimpleNamespace) -> int:
    n_max = None if config.n_max == "auto" else check_n_max(config.n_max)
    chi = None
    if config.chi_re is not None or config.chi_im is not None:
        chi = _label(config).chi
    _admit(config, n_max or 0)
    results = run_all(chi=chi, n_max=n_max, seed=config.seed)
    sys.stdout.write(format_table(results) + "\n")
    if config.output_path != "-":
        rows = [(r.name, r.passed, r.detail) for r in results]
        footer = [{"passed": sum(r.passed for r in results), "total": len(results)}]
        # the fields verify reads; it runs in natural units, at its own times and grids
        read = ("chi_im", "chi_re", "command", "format", "n_max", "n_max_source", "seed")
        echo = [item for item in _config_echo(config, config.n_max) if item[0] in read]
        columns = ["criterion", "passed", "detail"]
        _emit(config, _render(config, echo, columns, rows, footer))
    failed = [r.name for r in results if not r.passed]
    if failed:
        sys.stderr.write("verification failed: " + ", ".join(failed) + "\n")
        return EXIT_VERIFY
    return EXIT_OK


# argparse reads an argument that starts with '-' as an option unless its
# `_negative_number_matcher` matches it, and its own pattern misses "-1e-5"
# and "-inf". Every negative float literal starts like this; no option does.
# `_plain_args` takes a value that starts with '-' on the same terms.
_NEGATIVE_NUMBER = re.compile(r"^-(\d|\.\d|inf|nan)", re.IGNORECASE)


def _n_max_type(text: str):
    if text == "auto":
        return "auto"
    try:
        return int(text)
    except ValueError:
        import argparse  # a refusal, which the parser reports

        raise argparse.ArgumentTypeError(f"expected an integer or 'auto', got {text!r}")


# Every option: flag -> its add_argument keywords; a command's entry in
# COMMANDS may override some of them.
OPTIONS = {
    "--chi-re": {"type": float, "help": f"Re chi (default {DEFAULTS['chi_re']:g})"},
    "--chi-im": {"type": float, "help": f"Im chi (default {DEFAULTS['chi_im']:g})"},
    "--hbar": {"type": float}, "--mass": {"type": float}, "--omega": {"type": float},
    "--n-max": {"type": _n_max_type, "help": "truncation level, or 'auto' for the tail "
                f"rule (default {DEFAULTS['n_max']})"},
    "--output": {"dest": "output_path", "help": "output file path, '-' for stdout (default)"},
    "--format": {"choices": ("csv", "json")},
    "--t-start": {"type": float}, "--t-end": {"type": float}, "--dt": {"type": float},
    "--grid-halfwidth": {"type": float, "help": "grid half-width in oscillator lengths "
                         f"(default {DEFAULTS['grid_halfwidth']:g})"},
    "--grid-points": {"type": int,
                      "help": f"odd point count (default {DEFAULTS['grid_points']})"},
    "--seed": {"type": int},
}

# The flags every table command but `spectrum` lists first.
_STATE_AND_OUTPUT = "--chi-re --chi-im --hbar --mass --omega --n-max --output --format"

# Every command: name -> (help line, its flags in the order --help lists
# them, keyword overrides by flag).
COMMANDS = {
    "trajectory": ("closed-form and brute-force averages over time, plus differences",
                   f"{_STATE_AND_OUTPUT} --t-start --t-end --dt",
                   {"--t-end": {"default": 2.0 * math.pi}}),
    "spectrum": ("level populations against the Poisson weights",
                 "--chi-re --chi-im --n-max --output --format", {}),
    "uncertainty": ("fluctuation products of number states and the coherent state",
                    f"{_STATE_AND_OUTPUT} --t-start", {}),
    "wavefunction": ("packet samples: truncated series against the closed form",
                     f"{_STATE_AND_OUTPUT} --t-start --t-end --dt"
                     " --grid-halfwidth --grid-points", {}),
    "symmetry-check": ("phase-rotation invariance report", _STATE_AND_OUTPUT, {}),
    "verify": ("run the acceptance battery (natural units); exit 3 on failure",
               "--output --format --chi-re --chi-im --n-max --seed",
               {"--chi-re": {"default": None,
                             "help": "override the probe set with this single label"},
                "--chi-im": {"default": None, "help": None},
                "--n-max": {"help": None}}),
}


def _options(command: str) -> dict[str, dict]:
    """The command's flags in the order --help lists them, each with its
    add_argument keywords."""
    _, flags, own = COMMANDS[command]
    return {flag: {**OPTIONS[flag], **own.get(flag, {})} for flag in flags.split()}


def _plain_args(argv) -> SimpleNamespace | None:
    """The config argparse gives an argv that is a command and exact
    `--flag value` pairs of its flags, read from the option table without
    building a parser; None for any other argv (help, `--flag=value`, an
    abbreviation, a value argparse would read as an option) and for a value
    its type or choices refuse, all of which `main` leaves to argparse."""
    if not argv or argv[0] not in COMMANDS or len(argv) % 2 == 0:
        return None
    options = _options(argv[0])
    dests = {flag: keywords.get("dest", flag[2:].replace("-", "_"))
             for flag, keywords in options.items()}
    config = dict(DEFAULTS, command=argv[0])
    for flag, keywords in options.items():  # the command's own defaults
        if "default" in keywords:
            config[dests[flag]] = keywords["default"]
    for flag, text in zip(argv[1::2], argv[2::2]):
        if flag not in options:
            return None
        if text.startswith("-") and text != "-" and not _NEGATIVE_NUMBER.match(text):
            return None
        keywords = options[flag]
        try:
            value = keywords.get("type", str)(text)
        except Exception:  # whatever the type raises, argparse reports or raises it
            return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        config[dests[flag]] = value
    return SimpleNamespace(**config)


def build_parser():
    """The argparse parser, one subparser per command with its options, for
    the argvs `_plain_args` leaves to it: help texts, usage errors and the
    spellings it does not read, such as `--flag=value`."""
    import argparse  # help and refusals only: a plain argv never loads it

    class _Parser(argparse.ArgumentParser):
        """argparse exits 2 on bad usage; the file-I/O code owns exit 2 here."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._negative_number_matcher = _NEGATIVE_NUMBER

        def error(self, message):
            self.print_usage(sys.stderr)
            sys.stderr.write(f"{self.prog}: error: {message}\n")
            raise SystemExit(EXIT_USAGE)

    parser = _Parser(
        prog="oscilab",
        description="Harmonic-oscillator coherent-state laboratory",
    )
    parser.set_defaults(**DEFAULTS)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, *_) in COMMANDS.items():
        subparser = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        for flag, keywords in _options(name).items():
            subparser.add_argument(flag, **keywords)
    return parser


# glibc's mallopt parameters M_TRIM_THRESHOLD and M_MMAP_THRESHOLD, and the
# values `main` gives them. By default glibc maps each block of 128 KiB or
# more on its own and unmaps it when freed, and trims the heap top past
# 128 KiB free, so every kernel block, series accumulator and render chunk
# faults its pages in afresh, at about 2.2 us per 4 KiB page on a KVM guest.
# With these, freed blocks of up to 64 MiB stay in the heap for the next one.
# M_TOP_PAD stays unset: padding the heap raised the peak RSS of `verify`.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_THRESHOLD, _MMAP_THRESHOLD = 256 << 20, 64 << 20


def _keep_freed_memory() -> None:
    """Set the two thresholds above; a libc without mallopt is left alone."""
    import ctypes  # numpy has imported it already

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def main(argv=None) -> int:
    _keep_freed_memory()
    argv = sys.argv[1:] if argv is None else argv
    config = _plain_args(argv)
    if config is None:  # help, a refusal or a spelling only argparse reads
        try:
            config = SimpleNamespace(**vars(build_parser().parse_args(argv)))
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    with warnings.catch_warnings(record=True) as caught:
        try:
            _validate(config)
            code = _cmd_verify(config) if config.command == "verify" else _run_table(config)
        except ValueError as exc:  # every refusal, the CLI's and the library's
            sys.stderr.write(f"oscilab: error: {exc}\n")
            code = EXIT_USAGE
        except OSError as exc:
            sys.stderr.write(f"oscilab: I/O error: {exc}\n")
            code = EXIT_IO
    # a TruncationWarning as one line; any other warning as Python shows it
    for w in caught:
        if issubclass(w.category, TruncationWarning):
            sys.stderr.write(f"oscilab: warning: {w.message}\n")
        else:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    return code


if __name__ == "__main__":
    sys.exit(main())
