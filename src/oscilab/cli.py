"""Command-line front end: reproducible runs written to CSV or JSON.

Every command is a pure function of its RunConfig (seed included), and every
numeric cell is written with 17 significant digits, as "%.17g" % x, so
identical invocations produce byte-identical files. A table of floats goes
through one exact array kernel (`_float_cells`), which hands the few cells
it cannot decide exactly to "%.17g" itself; any other table goes cell by
cell. CSV output is RFC-4180 with '#' comment lines
for the schema, the echoed config (including the resolved truncation level)
and footer records; JSON output is one object with "config", "rows" and
"footer".

Exit codes: 0 success, 1 usage/invalid config, 2 unwritable output,
3 failed verification.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import re
import sys
from dataclasses import dataclass

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
from .dynamics import sample_times
from .fock import OscillatorParams
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
# Largest ulp a level phase may have, in radians: 2 pi 2^-20, about 6e-6.
PHASE_ULP_LIMIT = 2.0 * math.pi * 2.0**-20


class UsageError(ValueError):
    """Invalid configuration; maps to exit code 1."""


@dataclass
class RunConfig:
    command: str
    chi_re: float | None = 1.0
    chi_im: float | None = 0.0
    hbar: float = 1.0
    mass: float = 1.0
    omega: float = 1.0
    n_max: int | str = "auto"
    t_start: float = 0.0
    t_end: float = 0.0
    dt: float = 0.01
    grid_halfwidth: float = 10.0
    grid_points: int = 2001
    output_path: str = "-"
    format: str = "csv"
    seed: int = 0

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
# A cell's bytes before its separator: a sign, the "0.000" of a fixed-point
# value under 1, 17 digits with a point slot after each but the last, "e-"
# and three exponent digits. Every cell fills every slot, and a keep mask
# picks the bytes "%.17g" writes.
_DIGIT0, _EXP, _CELL_SLOTS = 6, 39, 44
# Cell shapes, the first index of the keep masks: fixed point at decimal
# exponent shape - 4 (-4..15); scientific with a two- or three-digit
# exponent; and zero (0 significant digits) or a fallback cell (1).
_SCIENTIFIC, _SCIENTIFIC_3, _OTHER = 20, 21, 22


@functools.cache
def _kernel_tables() -> tuple[np.ndarray, ...]:
    """The float-cell kernel's tables, built on first use.

    10^q for q = 0.._MAX_SCALE as hi + lo (hi the double nearest 10^q, lo
    the double nearest 10^q - hi) with hi's Veltkamp halves; the ASCII
    digits of 0000..9999 and their trailing-zero counts; and the keep masks
    by (negative, shape, significant digits).
    """
    exact = [10**q for q in range(_MAX_SCALE + 1)]
    hi = np.array([float(v) for v in exact])
    lo = np.array([float(v - int(h)) for v, h in zip(exact, hi.tolist())])
    split = 134217729.0 * hi  # 2^27 + 1
    hi_hi = split - (split - hi)
    four = np.arange(10000)[:, np.newaxis] // np.array([1000, 100, 10, 1]) % 10
    zeros = np.argmax(four[:, ::-1] != 0, axis=1)
    zeros[0] = 4

    masks = np.zeros((2, _OTHER + 1, 18, _CELL_SLOTS), bool)
    masks[1, :, :, 0] = True  # the minus sign
    slots = np.arange(17)
    for shape in range(_OTHER):
        for sig in range(1, 18):
            mask = masks[:, shape, sig]
            if shape < _SCIENTIFIC:
                exp10 = shape - 4
                if exp10 < 0:
                    mask[:, 1:2 - exp10] = True  # "0." and -exp10 - 1 zeros
                digits, point = max(sig, exp10 + 1), exp10
            else:
                mask[:, _EXP:_EXP + 2] = True  # "e-"
                mask[:, _EXP + (2 if shape == _SCIENTIFIC_3 else 3):] = True
                digits, point = sig, 0
            mask[:, _DIGIT0:_EXP:2] = slots < digits
            if 0 <= point < sig - 1:
                mask[:, _DIGIT0 + 1 + 2 * point] = True
    masks[:, _OTHER, 0, 1] = True  # zero: its "0"
    masks[:, _OTHER, 1, 0] = True  # fallback: its marker byte
    # each 4-digit string as one uint32, to gather four bytes at a time
    four = (four + ord("0")).astype(np.uint8).view(np.uint32).ravel()
    return hi, lo, hi_hi, hi - hi_hi, four, zeros, masks.reshape(-1, _CELL_SLOTS)


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


def _float_chunk(table: np.ndarray, template: np.ndarray, sep_keep: np.ndarray) -> str:
    """Rows of a float64 table, each cell "%.17g" % cell followed by its
    column's separator: `template`'s bytes past _CELL_SLOTS where
    `sep_keep` is set. A cell `_decimal` cannot write exactly, +-0 aside,
    goes through "%.17g" itself."""
    _, _, _, _, four, zeros, masks = _kernel_tables()
    x = table.ravel()
    ax = np.abs(x)
    digits, exp10, exact = _decimal(ax)
    fallback = ~exact & (ax != 0)

    # the lead digit and four groups of four, then the significant digits
    # left once trailing zeros go
    digits[~exact] = 10**16
    high = digits // 10**8
    low = (digits - high * 10**8).astype(np.int32)
    lead, high = np.divmod(high.astype(np.int32), 10**8)
    groups = np.empty((x.size, 4), np.int32)
    groups[:, 0], groups[:, 1] = np.divmod(high, 10000)
    groups[:, 2], groups[:, 3] = np.divmod(low, 10000)
    group_zeros = zeros[groups]
    trailing = group_zeros[:, 3]
    for k in (2, 1, 0):
        trailing += np.where(trailing == 12 - 4 * k, group_zeros[:, k], 0)
    sig = np.where(exact, 17 - trailing, fallback)
    shape = np.where(
        exp10 < -4, np.where(exp10 <= -100, _SCIENTIFIC_3, _SCIENTIFIC), exp10 + 4
    )
    shape[~exact] = _OTHER
    shape += np.signbit(x) * (_OTHER + 1)

    block = np.empty(table.shape + template.shape[1:], np.uint8)
    block[:] = template
    cells = block.reshape(x.size, -1)
    cells[:, _DIGIT0] = lead + ord("0")
    cells[:, _DIGIT0 + 2:_EXP:2] = four[groups].view(np.uint8)
    exponent = four[np.clip(-exp10, 0, 999)].view(np.uint8).reshape(x.size, 4)
    cells[:, _EXP + 2:_CELL_SLOTS] = exponent[:, 1:]
    cells[fallback, 0] = 0  # marks where a "%.17g" cell goes
    keep = np.empty(block.shape, bool)
    keep[..., :_CELL_SLOTS] = np.take(masks, shape * 18 + sig, axis=0).reshape(
        table.shape + (_CELL_SLOTS,)
    )
    keep[..., _CELL_SLOTS:] = sep_keep

    text = np.compress(keep.ravel(), block.ravel()).tobytes().decode()
    if not fallback.any():
        return text
    texts = ["%.17g" % value for value in x[fallback].tolist()]
    parts = text.split("\0")
    return "".join(itertools.chain.from_iterable(zip(parts, texts + [""])))


def _float_cells(table: np.ndarray, seps: list[str]) -> list[str]:
    """A float64 (rows, columns) table as text, row by row, each cell written
    as "%.17g" % cell and followed by its column's separator; returned in
    pieces of whole rows, for the caller to join once."""
    rows, columns = table.shape
    raw = [sep.encode() for sep in seps]
    width = max(map(len, raw))
    template = np.zeros((columns, _CELL_SLOTS + width), np.uint8)
    template[:, 0] = ord("-")
    template[:, 1:_DIGIT0] = np.frombuffer(b"0.000", np.uint8)
    template[:, _DIGIT0 + 1:_EXP:2] = ord(".")
    template[:, _EXP:_EXP + 2] = np.frombuffer(b"e-", np.uint8)
    for k, sep in enumerate(raw):
        template[k, _CELL_SLOTS:_CELL_SLOTS + len(sep)] = np.frombuffer(sep, np.uint8)
    sep_keep = np.arange(width) < np.array([len(sep) for sep in raw])[:, np.newaxis]
    step = max(1, _CHUNK_CELLS // columns)
    return [
        _float_chunk(table[i:i + step], template, sep_keep)
        for i in range(0, rows, step)
    ]


def _json_text(value) -> str:
    """Minimal deterministic JSON with 17-significant-digit floats.

    The stdlib encoder reprs floats its own way, so numbers go through the
    same formatter as the CSV cells.
    """
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
    echo = dict(vars(config), n_max=n_max, n_max_source=source)
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
) -> str:
    """The output text. A float64 matrix of rows goes through the array
    kernel `_float_cells`, a list of row tuples through the per-cell
    formatters; both write floats as "%.17g"."""
    matrix = isinstance(rows, np.ndarray)
    if config.format == "csv":
        head = [f"# schema: {SCHEMA_PREFIX}.{schema}.{SCHEMA_VERSION}"]
        head.append("# config: " + " ".join(f"{k}={_fmt(v)}" for k, v in echo))
        head.append(",".join(columns))
        if matrix:
            body = _float_cells(rows, [","] * (len(columns) - 1) + ["\n"])
        else:
            body = [",".join(map(_csv_cell, row)) + "\n" for row in rows]
        feet = [
            "# footer: " + " ".join(f"{k}={_fmt(v)}" for k, v in record.items()) + "\n"
            for record in footer
        ]
        return "".join(["\n".join(head), "\n", *body, *feet])
    # one list of pieces, joined once, so the kernel's rows are copied once
    schema_id = json.dumps(f"{SCHEMA_PREFIX}.{schema}.{SCHEMA_VERSION}")
    pieces = [f'{{"schema": {schema_id}, "config": {_json_text(dict(echo))}, "rows": ']
    if matrix and len(rows):
        keys = [json.dumps(str(name)) for name in columns]
        last = f"}}, {{{keys[0]}: "
        cells = _float_cells(rows, [f", {key}: " for key in keys[1:]] + [last])
        cells[-1] = cells[-1][:-len(last)]
        pieces += [f"[{{{keys[0]}: ", *cells, "}]"]
    else:
        pieces.append(_json_text([dict(zip(columns, row)) for row in rows]))
    pieces.append(f', "footer": {_json_text(footer)}}}\n')
    return "".join(pieces)


def _emit(config: RunConfig, text: str) -> None:
    if config.output_path == "-":
        sys.stdout.write(text)
        return
    with open(config.output_path, "w", newline="") as handle:
        handle.write(text)


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


def _sample_times(config: RunConfig, n_max: int) -> np.ndarray:
    if config.t_end < config.t_start:
        raise UsageError(
            f"t_end ({config.t_end}) must not precede t_start ({config.t_start})"
        )
    for t in (config.t_start, config.t_end):
        _check_phase(config, t, n_max)
    return sample_times(config.t_start, config.t_end, config.dt)


def _trajectory(config, params, label, n_max):
    times = _sample_times(config, n_max)
    brute = averages_bruteforce_batch(coherent_coefficients(label, n_max), times, params)
    closed = averages_closedform_batch(label, times, params)
    columns, values = ["time"], [times]
    for name in RECORD_COLUMNS[1:]:
        columns += [f"{name}_closed", f"{name}_brute", f"{name}_diff"]
        values += [closed[name], brute[name], np.abs(closed[name] - brute[name])]
    return columns, np.column_stack(values), []


def _spectrum(config, params, label, n_max):
    state = coherent_coefficients(label, n_max)
    rows = []
    for n in range(n_max + 1):
        from_coeff = float(abs(state.coeffs[n]) ** 2)
        from_poisson = occupation_probability(label, n)
        rows.append((n, from_coeff, from_poisson, abs(from_coeff - from_poisson)))
    footer = [{"truncation_tail": truncation_tail(label, n_max)}]
    return ["n", "prob_coeff", "prob_poisson", "abs_diff"], rows, footer


def _uncertainty(config, params, label, n_max):
    _check_phase(config, config.t_start, n_max)
    levels = range(max(0, n_max + 1 - TRUNCATION_MARGIN))  # second-moment headroom
    products = averages_bruteforce_fock(levels, n_max, params)["uncertainty"].tolist()
    rows = []
    for n, brute in zip(levels, products):
        exact = uncertainty_fock(n, params)
        rows.append((n, exact, brute, abs(exact - brute)))
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
    return ["n", "product_exact", "product_bruteforce", "abs_diff"], rows, footer


def _wavefunction(config, params, label, n_max):
    times = _sample_times(config, n_max)
    coeffs = coherent_coefficients(label, n_max).coeffs
    coeff_norm2 = float(np.vdot(coeffs, coeffs).real)
    points, series, closed, norms, variances = packet_sweep(
        label, times, params, n_max, config.grid_halfwidth, config.grid_points
    )
    finite = np.isfinite(closed).all(axis=1).tolist()
    footer = []
    slices = zip(times.tolist(), norms.tolist(), variances.tolist(), finite)
    for t, norm2, variance, ok in slices:
        if abs(norm2 - coeff_norm2) > QUADRATURE_TOL:
            raise UsageError(
                f"the grid cannot resolve the packet at t = {t:g}: its quadrature "
                f"norm {norm2:.6g} is off the state's norm {coeff_norm2:.6g} by "
                f"{abs(norm2 - coeff_norm2):.1e} (tol {QUADRATURE_TOL:.0e}); raise "
                "--grid-points or --grid-halfwidth"
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
# (columns, rows, footer): rows a float64 matrix when every column is float,
# else a list of row tuples. `_run_table` does the rest.
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
    results = run_all(chi=chi, n_max=n_max, seed=config.seed)
    sys.stdout.write(format_table(results) + "\n")
    if config.output_path != "-":
        rows = [(r.name, r.passed, r.detail) for r in results]
        footer = [{"passed": sum(r.passed for r in results), "total": len(results)}]
        resolved = 0 if n_max is None else n_max
        source = "auto" if n_max is None else "explicit"
        echo = _config_echo(config, resolved, source)
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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="oscilab",
        description="Harmonic-oscillator coherent-state laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def state_parent(units: bool = True) -> argparse.ArgumentParser:
        p = _Parser(add_help=False)
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
        return p

    out = _Parser(add_help=False)
    out.add_argument(
        "--output", dest="output_path", default="-",
        help="output file path, '-' for stdout (default)",
    )
    out.add_argument("--format", choices=("csv", "json"), default="csv")

    def time_parent(t_end_default: float) -> argparse.ArgumentParser:
        p = _Parser(add_help=False)
        p.add_argument("--t-start", type=float, default=0.0)
        p.add_argument("--t-end", type=float, default=t_end_default)
        p.add_argument("--dt", type=float, default=0.01)
        return p

    grid = _Parser(add_help=False)
    grid.add_argument(
        "--grid-halfwidth", type=float, default=10.0,
        help="grid half-width in oscillator lengths (default 10)",
    )
    grid.add_argument(
        "--grid-points", type=int, default=2001, help="odd point count (default 2001)"
    )

    sub.add_parser(
        "trajectory", parents=[state_parent(), out, time_parent(2.0 * math.pi)],
        help="closed-form and brute-force averages over time, plus differences",
    )
    sub.add_parser(
        "spectrum", parents=[state_parent(units=False), out],
        help="level populations against the Poisson weights",
    )
    uncertainty = sub.add_parser(
        "uncertainty", parents=[state_parent(), out],
        help="fluctuation products of number states and the coherent state",
    )
    uncertainty.add_argument("--t-start", type=float, default=0.0)
    sub.add_parser(
        "wavefunction", parents=[state_parent(), out, time_parent(0.0), grid],
        help="packet samples: truncated series against the closed form",
    )
    sub.add_parser(
        "symmetry-check", parents=[state_parent(), out],
        help="phase-rotation invariance report",
    )
    verify = sub.add_parser(
        "verify", parents=[out],
        help="run the acceptance battery (natural units); exit 3 on failure",
    )
    verify.add_argument(
        "--chi-re", type=float, default=None,
        help="override the probe set with this single label",
    )
    verify.add_argument("--chi-im", type=float, default=None)
    verify.add_argument("--n-max", type=_n_max_type, default="auto")
    verify.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
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
