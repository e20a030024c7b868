"""Command-line front end: reproducible runs written to CSV or JSON.

Every command is a pure function of its RunConfig (seed included), and every
numeric cell is written with 17 significant digits, as "%.17g" % x, so
identical invocations produce byte-identical files. A table of floats goes
through one exact array kernel (`_float_cells`), which hands the few cells
it cannot decide exactly to "%.17g" itself; any other table goes cell by
cell. The output is ASCII bytes: written to a file as rendered, and to
stdout decoded once. CSV output is RFC-4180 with '#' comment lines
for the schema, the echoed config (including the resolved truncation level)
and footer records; JSON output is one object with "config", "rows" and
"footer".

Each call is a fresh process, so the module imports no more than every
command needs: `json` is imported by the JSON branches only, and the
parser is built without argparse parent parsers. `main` keeps freed
array memory in the process (`_keep_freed_memory`).

Exit codes: 0 success, 1 usage/invalid config, 2 unwritable output,
3 failed verification.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import re
import sys

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
from .fock import OscillatorParams, Value
from .observables import (
    RECORD_COLUMNS,
    averages_bruteforce_batch,
    averages_bruteforce_fock,
    averages_closedform_batch,
    phase_rotation_drifts,
    uncertainty_fock,
)
from .verify import format_table, run_all
from .wavefunction import packet_sweep

__all__ = ["RunConfig", "UsageError", "main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_VERIFY = 3

SCHEMA_PREFIX = "oscilab"
SCHEMA_VERSION = "v1"

# Pointwise packet amplitudes err like the square root of the tail, so the
# wavefunction command squares the moment-level tail tolerance.
AMPLITUDE_TAIL_TOL = 1e-18
# Largest accepted gap between a wavefunction slice's quadrature norm and
# the truncated state's norm; the packet tolerance `verify` uses.
QUADRATURE_TOL = 1e-8
# The most cells one array term of a run may hold; `_admit` refuses a run
# with a larger term before any array exists. Measured at 2^22, a table cell
# costs at most 103 B as CSV and 190 B as JSON, rendering included, and a
# coefficient cell 96 B: every admitted run peaks below 0.8 GiB.
MAX_CELLS = 2**22
# Largest ulp a level phase may have, in radians: 2 pi 2^-20, about 6e-6.
PHASE_ULP_LIMIT = 2.0 * math.pi * 2.0**-20


class UsageError(ValueError):
    """Invalid configuration; maps to exit code 1."""


class RunConfig(Value):
    """One command's parsed options; `main` builds it from the argparse
    namespace, so each field is the `dest` of an option."""

    __slots__ = ("command", "chi_re", "chi_im", "hbar", "mass", "omega", "n_max",
                 "t_start", "t_end", "dt", "grid_halfwidth", "grid_points",
                 "output_path", "format", "seed")

    def __init__(self, command: str, chi_re: float | None = 1.0, chi_im: float | None = 0.0,
                 hbar: float = 1.0, mass: float = 1.0, omega: float = 1.0,
                 n_max: int | str = "auto", t_start: float = 0.0, t_end: float = 0.0,
                 dt: float = 0.01, grid_halfwidth: float = 10.0, grid_points: int = 2001,
                 output_path: str = "-", format: str = "csv", seed: int = 0):
        self._init(command, chi_re, chi_im, hbar, mass, omega, n_max, t_start, t_end,
                   dt, grid_halfwidth, grid_points, output_path, format, seed)

    def validate(self) -> None:
        """The checks argparse does not make; it already checks the command,
        `format` and `n_max`."""
        for name in ("hbar", "mass", "omega"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise UsageError(f"{name} must be finite and positive, got {value!r}")
        for name in ("chi_re", "chi_im"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise UsageError(f"{name} must be finite, got {value!r}")
        if not (math.isfinite(self.t_start) and math.isfinite(self.t_end)):
            raise UsageError("t_start and t_end must be finite")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise UsageError(f"dt must be positive, got {self.dt!r}")
        if not math.isfinite(self.grid_halfwidth):
            raise UsageError(f"grid_halfwidth must be finite, got {self.grid_halfwidth!r}")
        if self.grid_halfwidth <= 0:
            raise UsageError(
                f"grid_halfwidth must be positive, got {self.grid_halfwidth!r}"
            )
        if self.grid_points < 3 or self.grid_points % 2 == 0:
            raise UsageError(
                f"grid_points must be an odd integer >= 3, got {self.grid_points}"
            )
        if self.seed < 0:
            raise UsageError(f"seed must be nonnegative, got {self.seed}")

    def params(self) -> OscillatorParams:
        return OscillatorParams(self.hbar, self.mass, self.omega)

    def label(self) -> CoherentLabel:
        return CoherentLabel(complex(self.chi_re or 0.0, self.chi_im or 0.0))

    def resolve_n_max(self, tail_tol: float = AUTO_TAIL_TOL) -> tuple[int, str]:
        """The truncation level and its source; see `coherent.resolve_n_max`."""
        if self.n_max != "auto":
            return int(self.n_max), "explicit"
        return resolve_n_max(self.label(), tol=tail_tol), "auto"


def _fmt(value) -> str:
    """One cell: floats at 17 significant digits, ints and strings verbatim."""
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


# The float-cell kernel works through a table this many cells at a time, so
# its temporaries stay near a megabyte whatever the table's size.
_CHUNK_CELLS = 1 << 14
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
    exact = [10**q for q in range(_MAX_SCALE + 1)]
    hi = np.array([float(v) for v in exact])
    lo = np.array([float(v - int(h)) for v, h in zip(exact, hi.tolist())])
    split = 134217729.0 * hi  # 2^27 + 1
    hi_hi = split - (split - hi)
    four = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T  # 0000..9999
    zeros = np.argmax(four[:, ::-1] != 0, axis=1)
    zeros[0] = 4

    # the keep masks of the number shapes, over (shape, sig, slot)
    shape = np.arange(_OTHER)[:, np.newaxis, np.newaxis]
    sig = np.arange(18)[:, np.newaxis]
    slot = np.arange(_CELL_SLOTS)
    exp10 = shape - 4
    fixed = shape < _SCIENTIFIC
    digits = np.where(fixed, np.maximum(sig, exp10 + 1), sig)
    point = np.where(fixed, exp10, 0)  # the digit the point follows
    k, odd = np.divmod(slot - _DIGIT0, 2)  # digit k's slot, or the point's after it
    body = (slot >= _DIGIT0) & (slot < _EXP)
    keep = body & (odd == 0) & (k < digits)
    keep |= body & (odd == 1) & (k == point) & (point >= 0) & (point < sig - 1)
    keep |= (exp10 < 0) & (slot >= 1) & (slot < 2 - exp10)  # "0." and -exp10 - 1 zeros
    keep |= ~fixed & (slot >= _EXP) & (slot < _EXP + 2)  # "e-"
    keep |= ~fixed & (slot >= _EXP + np.where(shape == _SCIENTIFIC_3, 2, 3))
    keep &= sig > 0  # a number has at least one significant digit
    masks = np.zeros((2, _OTHER + 1, 18, _CELL_SLOTS), np.uint8)
    masks[:, :_OTHER] = keep * np.uint8(0xFF)
    masks[1, :, :, 0] = 0xFF  # the minus sign
    masks[:, _OTHER, 1, 0] = 0xFF  # fallback: its marker byte
    masks = masks.reshape(-1, _CELL_SLOTS)

    # the cell words: each 4-digit group with its point slots, then with its
    # last slot "e" (index + 10^4), then the lead words (index + 2 10^4) of
    # the lead digits and of the fallback marker (lead 10)
    text = four + np.uint8(ord("0"))
    words = np.full((2 * 10**4 + 11, 8), ord("."), np.uint8)
    words[:2 * 10**4, ::2] = np.tile(text, (2, 1))
    words[10**4:2 * 10**4, 7] = ord("e")
    words[2 * 10**4:] = np.frombuffer(b"-0.000..", np.uint8)
    words[2 * 10**4:-1, _DIGIT0] = text[:10, 3]
    words[-1, 0] = 1  # the fallback marker
    # the exponent word of each scale q: "-" and the digits of |q - 16|
    exponent = np.full((_MAX_SCALE + 1, 4), ord("-"), np.uint8)
    exponent[:, 1:] = text[np.abs(np.arange(_MAX_SCALE + 1) - 16), 1:]
    return (hi, lo, hi_hi, hi - hi_hi, zeros.astype(np.uint8),
            words.view(np.uint64).ravel(), exponent.view(np.uint32).ravel(),
            masks[:, :_EXP + 1].copy().view(np.uint64),
            masks[:, _EXP + 1:].copy().view(np.uint32).ravel())


def _scaled(a: np.ndarray, exp10: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10^(16 - exp10) as p + t: p the rounded product with hi, t its
    exact error (Dekker's TwoProduct) plus a * lo; |p + t - a 10^q| is
    under 2^-100 |p|."""
    hi, lo, hi_hi, hi_lo = _kernel_tables()[:4]
    q = np.clip(16 - exp10, 0, _MAX_SCALE)
    p = a * hi[q]
    split = 134217729.0 * a
    a_hi = split - (split - a)
    a_lo = a - a_hi
    hh, hl = hi_hi[q], hi_lo[q]
    err = ((a_hi * hh - p) + a_hi * hl + a_lo * hh) + a_lo * hl
    return p, err + a * lo[q]


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


def _float_chunk(table: np.ndarray, tails: np.ndarray) -> bytes:
    """Rows of a float64 table, each cell "%.17g" % cell followed by its
    column's separator, the nonzero bytes of its row of `tails` (uint32
    words). A cell `_decimal` cannot write exactly, +-0 aside, goes through
    "%.17g" itself."""
    zeros, cell_words, exp_words, keep64, keep32 = _kernel_tables()[4:]
    x = table.ravel()
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
    group_zeros = zeros.take(index[:, 1:])
    index[:, 4] += 10**4  # the last group's word ends in "e"
    trailing = group_zeros[:, 3]
    for k in (2, 1, 0):
        trailing += (trailing == 12 - 4 * k) * group_zeros[:, k]
    shape = exp10 + 4
    np.copyto(shape, _SCIENTIFIC, where=exp10 < -4)
    shape += exp10 <= -100  # _SCIENTIFIC_3
    np.copyto(shape, _OTHER, where=fallback)
    shape += np.signbit(x) * (_OTHER + 1)
    mask = shape * 18 + 17 - trailing

    block = np.empty((x.size, (11 + tails.shape[1]) // 2), np.uint64)  # 11 slot words
    words = block.view(np.uint32)
    np.bitwise_and(cell_words.take(index), keep64.take(mask, axis=0), out=block[:, :5])
    q = 16 - exp10  # the scale `_decimal` took, 0.._MAX_SCALE
    np.bitwise_and(exp_words.take(q), keep32.take(mask), out=words[:, 10])
    words.reshape(table.shape + (-1,))[..., 11:] = tails

    data = block.tobytes().translate(None, b"\0")
    if not fallback.any():
        return data
    texts = [b"%.17g" % value for value in x[fallback].tolist()]
    parts = data.split(b"\1")
    return b"".join(itertools.chain.from_iterable(zip(parts, texts + [b""])))


def _float_cells(table: np.ndarray, seps: list[str]) -> list[bytes]:
    """A float64 (rows, columns) table as ASCII bytes, row by row, each cell
    written as "%.17g" % cell and followed by its column's separator;
    returned in pieces of whole rows."""
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
    step = max(1, _CHUNK_CELLS // columns)
    return [_float_chunk(table[i:i + step], tails) for i in range(0, rows, step)]


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
    if value is None:
        return "null"
    return _fmt(value)


def _config_echo(config: RunConfig, n_max: int, source: str) -> list[tuple[str, object]]:
    """Every field but output_path, with the resolved n_max and its source."""
    echo = dict(zip(config.__slots__, config._fields()), n_max=n_max, n_max_source=source)
    del echo["output_path"]
    for name in ("chi_re", "chi_im"):
        if echo[name] is None:
            echo[name] = 0.0
    return sorted(echo.items())


def _render(
    config: RunConfig,
    schema: str,
    echo: list[tuple[str, object]],
    columns: list[str],
    rows: np.ndarray | list[tuple],
    footer: list[dict],
) -> list[bytes]:
    """The output bytes, in pieces for `_emit` to write as they are. A table
    command's float64 matrix goes through the array kernel `_float_cells`,
    `verify`'s row tuples through the per-cell formatters; both write floats
    as "%.17g"."""
    matrix = isinstance(rows, np.ndarray)
    if config.format == "csv":
        head = [f"# schema: {SCHEMA_PREFIX}.{schema}.{SCHEMA_VERSION}"]
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
        return [("\n".join(head) + "\n").encode(), *body, feet.encode()]
    import json  # only JSON output needs it

    schema_id = json.dumps(f"{SCHEMA_PREFIX}.{schema}.{SCHEMA_VERSION}")
    head = f'{{"schema": {schema_id}, "config": {_json_text(dict(echo))}, "rows": '
    tail = f', "footer": {_json_text(footer)}}}\n'
    if matrix and len(rows):
        keys = [json.dumps(str(name)) for name in columns]
        last = f"}}, {{{keys[0]}: "
        cells = _float_cells(rows, [f", {key}: " for key in keys[1:]] + [last])
        cells[-1] = cells[-1][:-len(last)]
        return [f"{head}[{{{keys[0]}: ".encode(), *cells, f"}}]{tail}".encode()]
    return [(head + _json_text([dict(zip(columns, row)) for row in rows]) + tail).encode()]


def _emit(config: RunConfig, pieces: list[bytes]) -> None:
    """Write the pieces to the output file, or decoded to stdout, a text
    stream that may be a StringIO."""
    if config.output_path == "-":
        sys.stdout.write(b"".join(pieces).decode())
        return
    with open(config.output_path, "wb") as handle:
        handle.writelines(pieces)


def _check_phase(config: RunConfig, t: float, n_max: int) -> None:
    """Refuse a time whose largest level phase, omega |t| (n_max + 1/2), is
    not a finite float (numpy's cos and sin would make it nan), or whose ulp
    exceeds PHASE_ULP_LIMIT, from 2^35 rad up: its phases keep too few digits."""
    phase = config.omega * abs(t) * (n_max + 0.5)
    if not math.isfinite(phase):
        raise UsageError(
            f"the phase omega*|t|*(n_max + 1/2) overflows at t = {t!r} "
            f"(omega {config.omega!r}, n_max {n_max})"
        )
    if math.ulp(phase) > PHASE_ULP_LIMIT:
        raise UsageError(
            f"the phase omega*|t|*(n_max + 1/2) = {phase:.3g} keeps too few digits at "
            f"t = {t!r}: one ulp of it is {math.ulp(phase):.3g} rad, above 2*pi*2^-20 "
            f"(omega {config.omega!r}, n_max {n_max})"
        )


def _count(n: int, noun: str) -> str:
    """n and the plural noun, singular at 1; n to three digits from 10^15 up."""
    from decimal import Decimal  # refusals only; it rounds an int of any size

    text = str(n) if n < 10**15 else f"{Decimal(n):.3g}"
    return f"{text} {noun[:-1] if n == 1 else noun}"


def _admit(config: RunConfig, n_max: int) -> None:
    """Refuse a run whose moment scales leave the normal floats, or whose
    largest array term passes MAX_CELLS cells, from the argv and n_max alone,
    before any sample times, grid or coefficient array exist; the commands
    that sample times first check the interval's ends."""
    hbar, mass, omega, top = config.hbar, config.mass, config.omega, 4 * n_max + 2
    # a state on levels 0..n_max has <x^2>, <p^2>, <x>^2, <p>^2 and <H> at
    # most top = 4 n_max + 2 times their scale; the ground level's equal it
    for term, scale in (
        ("hbar/(2*M*omega)", hbar / (2.0 * mass) / omega),
        ("M*hbar*omega/2", mass * hbar * omega / 2.0),
        ("hbar*omega/2", hbar * omega / 2.0),
    ):
        if not (scale >= sys.float_info.min and math.isfinite(scale * top)):
            raise UsageError(
                f"the moment scale {term} = {scale:.3g} and (4*n_max + 2) times it, "
                f"{scale * top:.3g}, must be finite, normal floats (hbar {hbar!r}, "
                f"mass {mass!r}, omega {omega!r}, n_max {n_max})"
            )
    levels, count = n_max + 1, 0
    if config.command in ("trajectory", "wavefunction"):
        count = sample_count(config.t_start, config.t_end, config.dt)
        for t in (config.t_start, config.t_end):
            _check_phase(config, t, n_max)
    # the output table's rows and columns, and the coefficient rows alive at once
    table, rows = {
        "trajectory": ((count, "time samples", 34), (1, "states")),
        "wavefunction": ((count * config.grid_points, "grid points", 7), (count, "slices")),
        "spectrum": ((levels, "levels", 4), (1, "states")),
        "uncertainty": ((levels - TRUNCATION_MARGIN, "number states", 4), (1, "states")),
        "symmetry-check": ((17, "angles", 6), (17, "angles")),
        "verify": ((0, "rows", 0), (5, "slices")),  # wave-packet-nondiffusion's
    }[config.command]
    terms = [(*table, "columns", "table"), (*rows, levels, "levels", "coefficient")]
    a, a_name, b, b_name, term = max(terms, key=lambda t: t[0] * t[2])
    if a * b > MAX_CELLS:
        raise UsageError(
            f"{_count(a, a_name)} x {_count(b, b_name)} is "
            f"{_count(a * b, term + ' cells')}; the limit is {MAX_CELLS}"
        )


def _trajectory(config, params, label, n_max):
    times = sample_times(config.t_start, config.t_end, config.dt)
    brute = averages_bruteforce_batch(coherent_coefficients(label, n_max), times, params)
    closed = averages_closedform_batch(label, times, params)
    columns, values = ["time"], [times]
    for name in RECORD_COLUMNS[1:]:
        columns += [f"{name}_closed", f"{name}_brute", f"{name}_diff"]
        values += [closed[name], brute[name], np.abs(closed[name] - brute[name])]
    return columns, np.column_stack(values), []


def _spectrum(config, params, label, n_max):
    table = np.empty((n_max + 1, 4))
    table[:, 0] = range(n_max + 1)
    # level by level: numpy's array complex abs rounds apart from its scalar one
    table[:, 1] = [abs(c) ** 2 for c in coherent_coefficients(label, n_max).coeffs]
    table[:, 2] = [occupation_probability(label, n) for n in range(n_max + 1)]
    table[:, 3] = np.abs(table[:, 1] - table[:, 2])
    footer = [{"truncation_tail": truncation_tail(label, n_max)}]
    return ["n", "prob_coeff", "prob_poisson", "abs_diff"], table, footer


def _uncertainty(config, params, label, n_max):
    _check_phase(config, config.t_start, n_max)
    levels = range(max(0, n_max + 1 - TRUNCATION_MARGIN))  # second-moment headroom
    table = np.empty((len(levels), 4))
    table[:, 0] = levels
    table[:, 1] = [uncertainty_fock(n, params) for n in levels]
    table[:, 2] = averages_bruteforce_fock(levels, n_max, params)["uncertainty"]
    table[:, 3] = np.abs(table[:, 1] - table[:, 2])
    state = coherent_coefficients(label, n_max)
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


def _wavefunction(config, params, label, n_max):
    times = sample_times(config.t_start, config.t_end, config.dt)
    coeffs = coherent_coefficients(label, n_max).coeffs
    coeff_norm2 = float(np.vdot(coeffs, coeffs).real)
    points, series, closed, norms, variances = packet_sweep(
        label, times, params, n_max, config.grid_halfwidth, config.grid_points
    )
    finite = np.isfinite(closed).all(axis=1).tolist()
    footer = []
    slices = zip(times.tolist(), norms.tolist(), variances.tolist(), finite)
    for s, (t, norm2, variance, ok) in enumerate(slices):
        if abs(norm2 - coeff_norm2) > QUADRATURE_TOL:
            xi = np.abs(points[s]) * math.sqrt(params.mass * params.omega / params.hbar)
            # the closed form's norm where the seed, so every eigenfunction, is 0
            lost = (np.abs(closed[s][np.exp(-0.5 * xi * xi) == 0.0]) ** 2).sum()
            cause = "raise --grid-points or --grid-halfwidth"
            if lost * (points[s, 1] - points[s, 0]) > QUADRATURE_TOL:
                cause = f"the seed exp(-xi^2/2) underflows to 0 at |xi| = {xi.max():.4g}"
            raise UsageError(
                f"the grid cannot resolve the packet at t = {t:g}: its quadrature "
                f"norm {norm2:.6g} is off the state's norm {coeff_norm2:.6g} by "
                f"{abs(norm2 - coeff_norm2):.1e} (tol {QUADRATURE_TOL:.0e}); {cause}"
            )
        if not ok:
            raise UsageError(
                f"the closed form is not finite at t = {t:g}: its Gaussian factor "
                "leaves the float range (|Im chi(t)| above about 26.6)"
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


def _symmetry_check(config, params, label, n_max):
    alphas = np.linspace(0.0, 2.0 * math.pi, 17)
    coeffs = coherent_coefficients(label, n_max).coeffs
    drifts = phase_rotation_drifts(
        np.broadcast_to(coeffs, (alphas.size, coeffs.size)), alphas, params
    )
    footer = [{f"max_{name}": float(values.max()) for name, values in drifts.items()}]
    return ["alpha", *drifts], np.column_stack([alphas, *drifts.values()]), footer


# Every table command: name -> (producer, tail tolerance of its auto
# truncation). A producer maps (config, params, label, n_max) to
# (columns, rows, footer), rows a float64 matrix (an integer column, such as
# `n`, holds floats that "%.17g" writes as the ints). `_run_table` does the rest.
PRODUCERS = {
    "trajectory": (_trajectory, AUTO_TAIL_TOL),
    "spectrum": (_spectrum, AUTO_TAIL_TOL),
    "uncertainty": (_uncertainty, AUTO_TAIL_TOL),
    "wavefunction": (_wavefunction, AMPLITUDE_TAIL_TOL),
    "symmetry-check": (_symmetry_check, AUTO_TAIL_TOL),
}


def _run_table(config: RunConfig) -> int:
    producer, tail_tol = PRODUCERS[config.command]
    n_max, source = config.resolve_n_max(tail_tol)
    _admit(config, n_max)
    columns, rows, footer = producer(config, config.params(), config.label(), n_max)
    echo = _config_echo(config, n_max, source)
    _emit(config, _render(config, config.command, echo, columns, rows, footer))
    return EXIT_OK


def _cmd_verify(config: RunConfig) -> int:
    chi = None
    if config.chi_re is not None or config.chi_im is not None:
        chi = config.label().chi
        config.resolve_n_max()  # refuse a capped auto truncation before the battery
    n_max = None if config.n_max == "auto" else int(config.n_max)
    _admit(config, n_max or 0)
    results = run_all(chi=chi, n_max=n_max, seed=config.seed)
    sys.stdout.write(format_table(results) + "\n")
    if config.output_path != "-":
        rows = [(r.name, r.passed, r.detail) for r in results]
        footer = [{"passed": sum(r.passed for r in results), "total": len(results)}]
        echo = _config_echo(config, n_max or 0, "auto" if n_max is None else "explicit")
        columns = ["criterion", "passed", "detail"]
        _emit(config, _render(config, "verify", echo, columns, rows, footer))
    failed = [r.name for r in results if not r.passed]
    if failed:
        sys.stderr.write("verification failed: " + ", ".join(failed) + "\n")
        return EXIT_VERIFY
    return EXIT_OK


# argparse reads an argument that starts with '-' as an option unless its
# `_negative_number_matcher` matches it, and its own pattern misses "-1e-5"
# and "-inf". Every negative float literal starts like this; no option does.
_NEGATIVE_NUMBER = re.compile(r"^-(\d|\.\d|inf|nan)", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the file-I/O code owns exit 2 here."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _n_max_type(text: str):
    if text == "auto":
        return "auto"
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer or 'auto', got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"n_max must be nonnegative, got {value}")
    return value


def _state_options(p: argparse.ArgumentParser, units: bool = True) -> None:
    p.add_argument("--chi-re", type=float, default=1.0, help="Re chi (default 1)")
    p.add_argument("--chi-im", type=float, default=0.0, help="Im chi (default 0)")
    if units:
        p.add_argument("--hbar", type=float, default=1.0)
        p.add_argument("--mass", type=float, default=1.0)
        p.add_argument("--omega", type=float, default=1.0)
    p.add_argument(
        "--n-max", type=_n_max_type, default="auto",
        help="truncation level, or 'auto' for the tail rule (default auto)",
    )


def _output_options(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--output", dest="output_path", default="-",
        help="output file path, '-' for stdout (default)",
    )
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _time_options(p: argparse.ArgumentParser, t_end_default: float) -> None:
    p.add_argument("--t-start", type=float, default=0.0)
    p.add_argument("--t-end", type=float, default=t_end_default)
    p.add_argument("--dt", type=float, default=0.01)


def _grid_options(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--grid-halfwidth", type=float, default=10.0,
        help="grid half-width in oscillator lengths (default 10)",
    )
    p.add_argument(
        "--grid-points", type=int, default=2001, help="odd point count (default 2001)"
    )


def build_parser() -> argparse.ArgumentParser:
    """The parser and one subparser per command; each option group is added
    straight to the subparsers that take it, in the order --help lists it."""
    parser = _Parser(
        prog="oscilab",
        description="Harmonic-oscillator coherent-state laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    trajectory = sub.add_parser(
        "trajectory",
        help="closed-form and brute-force averages over time, plus differences",
    )
    _state_options(trajectory)
    _output_options(trajectory)
    _time_options(trajectory, 2.0 * math.pi)
    spectrum = sub.add_parser(
        "spectrum", help="level populations against the Poisson weights"
    )
    _state_options(spectrum, units=False)
    _output_options(spectrum)
    uncertainty = sub.add_parser(
        "uncertainty",
        help="fluctuation products of number states and the coherent state",
    )
    _state_options(uncertainty)
    _output_options(uncertainty)
    uncertainty.add_argument("--t-start", type=float, default=0.0)
    wavefunction = sub.add_parser(
        "wavefunction", help="packet samples: truncated series against the closed form"
    )
    _state_options(wavefunction)
    _output_options(wavefunction)
    _time_options(wavefunction, 0.0)
    _grid_options(wavefunction)
    symmetry = sub.add_parser("symmetry-check", help="phase-rotation invariance report")
    _state_options(symmetry)
    _output_options(symmetry)
    verify = sub.add_parser(
        "verify", help="run the acceptance battery (natural units); exit 3 on failure"
    )
    _output_options(verify)
    verify.add_argument(
        "--chi-re", type=float, default=None,
        help="override the probe set with this single label",
    )
    verify.add_argument("--chi-im", type=float, default=None)
    verify.add_argument("--n-max", type=_n_max_type, default="auto")
    verify.add_argument("--seed", type=int, default=0)
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
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    config = RunConfig(**vars(ns))
    try:
        config.validate()
        return _cmd_verify(config) if config.command == "verify" else _run_table(config)
    except ValueError as exc:  # UsageError and every library refusal
        sys.stderr.write(f"oscilab: error: {exc}\n")
        return EXIT_USAGE
    except OSError as exc:
        sys.stderr.write(f"oscilab: I/O error: {exc}\n")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
