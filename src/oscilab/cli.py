"""Command-line front end: reproducible runs written to CSV or JSON.

Every command is a pure function of its RunConfig (seed included), and every
numeric cell is written with 17 significant digits, so identical invocations
produce byte-identical files. CSV output is RFC-4180 with '#' comment lines
for the schema, the echoed config (including the resolved truncation level)
and footer records; JSON output is one object with "config", "rows" and
"footer".

Exit codes: 0 success, 1 usage/invalid config, 2 unwritable output,
3 failed verification.
"""

from __future__ import annotations

import argparse
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
from .dynamics import propagate_fock, sample_times
from .fock import OscillatorParams
from .observables import (
    RECORD_COLUMNS,
    averages_bruteforce,
    averages_bruteforce_batch,
    averages_bruteforce_fock,
    averages_closedform_batch,
    phase_rotation_drifts,
    uncertainty_fock,
)
from .verify import format_table, run_all
from .wavefunction import (
    default_packet_grid,
    packet_moments,
    psi_closed_grid,
    psi_series_grid,
)

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
        if self.t_end < self.t_start:
            raise UsageError(
                f"t_end ({self.t_end}) must not precede t_start ({self.t_start})"
            )
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise UsageError(f"dt must be positive, got {self.dt!r}")
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
    if type(value) is float:  # the common cell; a float never needs quoting
        return format(value, ".17g")
    text = _fmt(value)
    if any(ch in text for ch in ',"\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


class _JSONText(str):
    """Text already rendered as JSON, which `_json_text` emits verbatim."""


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
    if isinstance(value, _JSONText):
        return value
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
    rows: list[tuple],
    footer: list[dict],
) -> str:
    # an all-float table renders each row with one %-format, the same bytes
    # as its cells one by one: "%.17g" % x is format(x, ".17g") to the byte
    all_float = set(map(type, itertools.chain.from_iterable(rows))) <= {float}
    if config.format == "csv":
        lines = [f"# schema: {SCHEMA_PREFIX}.{schema}.{SCHEMA_VERSION}"]
        lines.append("# config: " + " ".join(f"{k}={_fmt(v)}" for k, v in echo))
        lines.append(",".join(columns))
        if all_float:
            line = ",".join(["%.17g"] * len(columns))
            lines.extend(line % row for row in rows)
        else:
            lines.extend(",".join(map(_csv_cell, row)) for row in rows)
        for record in footer:
            lines.append(
                "# footer: " + " ".join(f"{k}={_fmt(v)}" for k, v in record.items())
            )
        lines.append("")  # the final newline, without a second copy of the text
        return "\n".join(lines)
    if all_float:
        keys = (json.dumps(str(name)).replace("%", "%%") for name in columns)
        line = "{" + ", ".join(f"{key}: %.17g" for key in keys) + "}"
        table = _JSONText("[" + ", ".join(line % row for row in rows) + "]")
    else:
        table = [dict(zip(columns, row)) for row in rows]
    payload = {
        "schema": f"{SCHEMA_PREFIX}.{schema}.{SCHEMA_VERSION}",
        "config": dict(echo),
        "rows": table,
        "footer": footer,
    }
    return _json_text(payload) + "\n"


def _emit(config: RunConfig, text: str) -> None:
    if config.output_path == "-":
        sys.stdout.write(text)
        return
    with open(config.output_path, "w", newline="") as handle:
        handle.write(text)


def _trajectory(config, params, label, n_max):
    times = sample_times(config.t_start, config.t_end, config.dt)
    brute = averages_bruteforce_batch(coherent_coefficients(label, n_max), times, params)
    closed = averages_closedform_batch(label, times, params)
    columns, values = ["time"], [times]
    for name in RECORD_COLUMNS[1:]:
        columns += [f"{name}_closed", f"{name}_brute", f"{name}_diff"]
        values += [closed[name], brute[name], np.abs(closed[name] - brute[name])]
    return columns, list(zip(*(v.tolist() for v in values))), []


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
    levels = range(max(0, n_max + 1 - TRUNCATION_MARGIN))  # second-moment headroom
    products = averages_bruteforce_fock(levels, n_max, params)["uncertainty"].tolist()
    rows = []
    for n, brute in zip(levels, products):
        exact = uncertainty_fock(n, params)
        rows.append((n, exact, brute, abs(exact - brute)))
    state = propagate_fock(coherent_coefficients(label, n_max), config.t_start, params)
    coherent_u = averages_bruteforce(state, params).uncertainty
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
    times = sample_times(config.t_start, config.t_end, config.dt).tolist()
    coeffs = coherent_coefficients(label, n_max).coeffs
    coeff_norm2 = float(np.vdot(coeffs, coeffs).real)
    centers = averages_closedform_batch(label, times, params)["mean_x"]
    grids = [
        default_packet_grid(
            params, center=c, halfwidth=config.grid_halfwidth,
            npoints=config.grid_points,
        )
        for c in centers.tolist()
    ]
    stack = psi_series_grid(
        label, np.array([grid.points for grid in grids]), times, params, n_max
    )
    columns = ["t", "x", "series_re", "series_im", "closed_re", "closed_im", "abs_diff"]
    rows = []
    footer = []
    for t, grid, series in zip(times, grids, stack):
        norm2, _, variance = packet_moments(series, grid)
        if abs(norm2 - coeff_norm2) > QUADRATURE_TOL:
            raise UsageError(
                f"the grid cannot resolve the packet at t = {t:g}: its quadrature "
                f"norm {norm2:.6g} is off the state's norm {coeff_norm2:.6g} by "
                f"{abs(norm2 - coeff_norm2):.1e} (tol {QUADRATURE_TOL:.0e}); raise "
                "--grid-points or --grid-halfwidth"
            )
        closed = psi_closed_grid(label, grid.points, t, params, "complex_center")
        d = series - closed
        # np.hypot is the scalar abs(s - c) to the bit; np.abs is not
        rows.extend(zip(
            itertools.repeat(t), grid.points.tolist(),
            series.real.tolist(), series.imag.tolist(),
            closed.real.tolist(), closed.imag.tolist(),
            np.hypot(d.real, d.imag).tolist(),
        ))
        footer.append(
            {"t": t, "quadrature_norm": norm2, "packet_variance": variance}
        )
    return columns, rows, footer


def _symmetry_check(config, params, label, n_max):
    alphas = np.linspace(0.0, 2.0 * math.pi, 17)
    coeffs = coherent_coefficients(label, n_max).coeffs
    drifts = phase_rotation_drifts(
        np.broadcast_to(coeffs, (alphas.size, coeffs.size)), alphas, params
    )
    rows = list(zip(alphas.tolist(), *(values.tolist() for values in drifts.values())))
    footer = [{f"max_{name}": float(values.max()) for name, values in drifts.items()}]
    return ["alpha", *drifts], rows, footer


# Every table command: name -> (producer, tail tolerance of its auto
# truncation). A producer maps (config, params, label, n_max) to
# (columns, rows, footer); `_run_table` does the rest.
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

    state = _Parser(add_help=False)
    state.add_argument("--chi-re", type=float, default=1.0, help="Re chi (default 1)")
    state.add_argument("--chi-im", type=float, default=0.0, help="Im chi (default 0)")
    state.add_argument("--hbar", type=float, default=1.0)
    state.add_argument("--mass", type=float, default=1.0)
    state.add_argument("--omega", type=float, default=1.0)
    state.add_argument(
        "--n-max", type=_n_max_type, default="auto",
        help="truncation level, or 'auto' for the tail rule (default auto)",
    )

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
        "trajectory", parents=[state, out, time_parent(2.0 * math.pi)],
        help="closed-form and brute-force averages over time, plus differences",
    )
    sub.add_parser(
        "spectrum", parents=[state, out],
        help="level populations against the Poisson weights",
    )
    sub.add_parser(
        "uncertainty", parents=[state, out, time_parent(0.0)],
        help="fluctuation products of number states and the coherent state",
    )
    sub.add_parser(
        "wavefunction", parents=[state, out, time_parent(0.0), grid],
        help="packet samples: truncated series against the closed form",
    )
    sub.add_parser(
        "symmetry-check", parents=[state, out],
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
