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
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .coherent import (
    TRUNCATION_MARGIN,
    CoherentLabel,
    auto_n_max,
    coherent_coefficients,
    occupation_probability,
    truncation_tail,
)
from .dynamics import (
    PhaseAngle,
    propagate_fock,
    rotate_xp,
    sample_times,
    transform_state_phase,
)
from .fock import (
    NormalizationError,
    OscillatorParams,
    expectation,
    fock_state,
    make_hamiltonian,
    make_ladder,
)
from .observables import (
    RECORD_COLUMNS,
    averages_bruteforce,
    averages_closedform,
    record_row,
    uncertainty_fock,
)
from .verify import format_table, run_all
from .wavefunction import (
    WaveSample,
    default_packet_grid,
    packet_moments,
    psi_closed_grid,
    psi_series_grid,
    quadrature_norm,
)

__all__ = ["RunConfig", "UsageError", "main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_VERIFY = 3

COMMANDS = (
    "trajectory",
    "spectrum",
    "uncertainty",
    "wavefunction",
    "symmetry-check",
    "verify",
)

SCHEMA_PREFIX = "oscilab"
SCHEMA_VERSION = "v1"

# Pointwise packet amplitudes err like the square root of the tail, so the
# wavefunction command squares the moment-level tail tolerance.
AMPLITUDE_TAIL_TOL = 1e-18


class UsageError(Exception):
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
        if self.command not in COMMANDS:
            raise UsageError(f"unknown command {self.command!r}")
        if self.format not in ("csv", "json"):
            raise UsageError(f"format must be csv or json, got {self.format!r}")
        for name in ("hbar", "mass", "omega"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise UsageError(f"{name} must be finite and positive, got {value!r}")
        for name in ("chi_re", "chi_im"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise UsageError(f"{name} must be finite, got {value!r}")
        if not isinstance(self.n_max, str):
            if self.n_max < 0:
                raise UsageError(f"n_max must be nonnegative, got {self.n_max}")
        elif self.n_max != "auto":
            raise UsageError(f"n_max must be an integer or 'auto', got {self.n_max!r}")
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

    def params(self) -> OscillatorParams:
        return OscillatorParams(self.hbar, self.mass, self.omega)

    def label(self) -> CoherentLabel:
        return CoherentLabel(complex(self.chi_re or 0.0, self.chi_im or 0.0))

    def resolve_n_max(self, tail_tol: float | None = None) -> tuple[int, str]:
        if self.n_max == "auto":
            if tail_tol is None:
                return auto_n_max(self.label()) + TRUNCATION_MARGIN, "auto"
            return auto_n_max(self.label(), tol=tail_tol) + TRUNCATION_MARGIN, "auto"
        return int(self.n_max), "explicit"


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
    echo = {
        "command": config.command,
        "chi_re": 0.0 if config.chi_re is None else config.chi_re,
        "chi_im": 0.0 if config.chi_im is None else config.chi_im,
        "hbar": config.hbar,
        "mass": config.mass,
        "omega": config.omega,
        "n_max": n_max,
        "n_max_source": source,
        "t_start": config.t_start,
        "t_end": config.t_end,
        "dt": config.dt,
        "grid_halfwidth": config.grid_halfwidth,
        "grid_points": config.grid_points,
        "format": config.format,
        "seed": config.seed,
    }
    return sorted(echo.items())


def _render(
    config: RunConfig,
    schema: str,
    echo: list[tuple[str, object]],
    columns: list[str],
    rows: list[tuple],
    footer: list[dict],
) -> str:
    if config.format == "csv":
        lines = [f"# schema: {SCHEMA_PREFIX}.{schema}.{SCHEMA_VERSION}"]
        lines.append("# config: " + " ".join(f"{k}={_fmt(v)}" for k, v in echo))
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(_csv_cell(v) for v in row))
        for record in footer:
            lines.append(
                "# footer: " + " ".join(f"{k}={_fmt(v)}" for k, v in record.items())
            )
        return "\n".join(lines) + "\n"
    payload = {
        "schema": f"{SCHEMA_PREFIX}.{schema}.{SCHEMA_VERSION}",
        "config": dict(echo),
        "rows": [dict(zip(columns, row)) for row in rows],
        "footer": footer,
    }
    return _json_text(payload) + "\n"


def _emit(config: RunConfig, text: str) -> None:
    if config.output_path == "-":
        sys.stdout.write(text)
        return
    with open(config.output_path, "w", newline="") as handle:
        handle.write(text)


def _cmd_trajectory(config: RunConfig) -> int:
    params = config.params()
    label = config.label()
    n_max, source = config.resolve_n_max()
    times = sample_times(config.t_start, config.t_end, config.dt)
    base = coherent_coefficients(label, n_max)
    columns = ["time"]
    for name in RECORD_COLUMNS[1:]:
        columns += [f"{name}_closed", f"{name}_brute", f"{name}_diff"]
    rows = []
    for t in times:
        closed = record_row(averages_closedform(label, float(t), params))[1:]
        brute = record_row(
            averages_bruteforce(propagate_fock(base, float(t), params), params)
        )[1:]
        row: list[float] = [float(t)]
        for c, b in zip(closed, brute):
            row += [c, b, abs(c - b)]
        rows.append(tuple(row))
    _emit(
        config,
        _render(config, "trajectory", _config_echo(config, n_max, source), columns, rows, []),
    )
    return EXIT_OK


def _cmd_spectrum(config: RunConfig) -> int:
    label = config.label()
    n_max, source = config.resolve_n_max()
    state = coherent_coefficients(label, n_max)
    rows = []
    for n in range(n_max + 1):
        from_coeff = float(abs(state.coeffs[n]) ** 2)
        from_poisson = occupation_probability(label, n)
        rows.append((n, from_coeff, from_poisson, abs(from_coeff - from_poisson)))
    footer = [{"truncation_tail": truncation_tail(label, n_max)}]
    _emit(
        config,
        _render(
            config,
            "spectrum",
            _config_echo(config, n_max, source),
            ["n", "prob_coeff", "prob_poisson", "abs_diff"],
            rows,
            footer,
        ),
    )
    return EXIT_OK


def _cmd_uncertainty(config: RunConfig) -> int:
    params = config.params()
    label = config.label()
    n_max, source = config.resolve_n_max()
    rows = []
    for n in range(max(0, n_max + 1 - TRUNCATION_MARGIN)):  # second-moment headroom
        exact = uncertainty_fock(n, params)
        brute = averages_bruteforce(fock_state(n, n_max), params).uncertainty
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
    _emit(
        config,
        _render(
            config,
            "uncertainty",
            _config_echo(config, n_max, source),
            ["n", "product_exact", "product_bruteforce", "abs_diff"],
            rows,
            footer,
        ),
    )
    return EXIT_OK


def _cmd_wavefunction(config: RunConfig) -> int:
    params = config.params()
    label = config.label()
    n_max, source = config.resolve_n_max(tail_tol=AMPLITUDE_TAIL_TOL)
    times = sample_times(config.t_start, config.t_end, config.dt)
    columns = ["t", "x", "series_re", "series_im", "closed_re", "closed_im", "abs_diff"]
    rows = []
    footer = []
    for t in times:
        t = float(t)
        center = averages_closedform(label, t, params).mean_x
        grid = default_packet_grid(
            params, center=center, halfwidth=config.grid_halfwidth,
            npoints=config.grid_points,
        )
        series = psi_series_grid(label, grid.points, t, params, n_max)
        closed = psi_closed_grid(label, grid.points, t, params, "complex_center")
        for x, s, c in zip(grid.points, series, closed):
            rows.append(
                (t, float(x), s.real, s.imag, c.real, c.imag, float(abs(s - c)))
            )
        samples = [WaveSample(float(x), v) for x, v in zip(grid.points, series)]
        norm2 = quadrature_norm(samples, grid)
        _, _, variance = packet_moments(samples, grid)
        footer.append(
            {"t": t, "quadrature_norm": norm2, "packet_variance": variance}
        )
    _emit(
        config,
        _render(
            config, "wavefunction", _config_echo(config, n_max, source), columns, rows, footer
        ),
    )
    return EXIT_OK


def _cmd_symmetry_check(config: RunConfig) -> int:
    params = config.params()
    label = config.label()
    n_max, source = config.resolve_n_max()
    state = coherent_coefficients(label, n_max)
    a, ad = make_ladder(n_max)
    number_op = ad @ a
    hamiltonian = make_hamiltonian(params, n_max)
    h_ref = expectation(hamiltonian, state).real
    n_ref = expectation(number_op, state).real
    a_ref = expectation(a, state)
    base = averages_bruteforce(state, params)

    def classical_energy(x: float, p: float) -> float:
        return 0.5 * params.mass * params.omega**2 * x**2 + p**2 / (2.0 * params.mass)

    energy_ref = classical_energy(base.mean_x, base.mean_p)
    rows = []
    for alpha in np.linspace(0.0, 2.0 * math.pi, 17):
        angle = PhaseAngle(float(alpha))
        rotated = transform_state_phase(state, angle)
        a_rot = expectation(a, rotated)
        expected_a = complex(np.exp(-1j * angle.alpha)) * a_ref
        x_rot, p_rot = rotate_xp(base.mean_x, base.mean_p, angle, params)
        rows.append(
            (
                float(alpha),
                abs(expectation(hamiltonian, rotated).real - h_ref),
                abs(expectation(number_op, rotated).real - n_ref),
                abs(a_rot - expected_a),
                abs(abs(a_rot) - abs(a_ref)),
                abs(classical_energy(x_rot, p_rot) - energy_ref),
            )
        )
    columns = [
        "alpha",
        "h_drift",
        "n_drift",
        "a_rotation_error",
        "a_modulus_drift",
        "xp_energy_drift",
    ]
    footer = [
        {
            "max_h_drift": max(r[1] for r in rows),
            "max_n_drift": max(r[2] for r in rows),
            "max_a_rotation_error": max(r[3] for r in rows),
            "max_a_modulus_drift": max(r[4] for r in rows),
            "max_xp_energy_drift": max(r[5] for r in rows),
        }
    ]
    _emit(
        config,
        _render(
            config, "symmetry-check", _config_echo(config, n_max, source), columns, rows, footer
        ),
    )
    return EXIT_OK


def _cmd_verify(config: RunConfig) -> int:
    chi = None
    if config.chi_re is not None or config.chi_im is not None:
        chi = complex(config.chi_re or 0.0, config.chi_im or 0.0)
    n_max = None if config.n_max == "auto" else int(config.n_max)
    results = run_all(chi=chi, n_max=n_max, seed=config.seed)
    sys.stdout.write(format_table(results) + "\n")
    if config.output_path != "-":
        rows = [(r.name, r.passed, r.detail) for r in results]
        footer = [{"passed": sum(r.passed for r in results), "total": len(results)}]
        resolved = 0 if n_max is None else n_max
        source = "auto" if n_max is None else "explicit"
        _emit(
            config,
            _render(
                config,
                "verify",
                _config_echo(config, resolved, source),
                ["criterion", "passed", "detail"],
                rows,
                footer,
            ),
        )
    failed = [r.name for r in results if not r.passed]
    if failed:
        sys.stderr.write("verification failed: " + ", ".join(failed) + "\n")
        return EXIT_VERIFY
    return EXIT_OK


_HANDLERS = {
    "trajectory": _cmd_trajectory,
    "spectrum": _cmd_spectrum,
    "uncertainty": _cmd_uncertainty,
    "wavefunction": _cmd_wavefunction,
    "symmetry-check": _cmd_symmetry_check,
    "verify": _cmd_verify,
}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the file-I/O code owns exit 2 here."""

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
    state.add_argument("--seed", type=int, default=0)

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


def _config_from_namespace(ns: argparse.Namespace) -> RunConfig:
    config = RunConfig(command=ns.command)
    for name in (
        "chi_re", "chi_im", "hbar", "mass", "omega", "n_max", "t_start", "t_end",
        "dt", "grid_halfwidth", "grid_points", "output_path", "format", "seed",
    ):
        if hasattr(ns, name):
            setattr(config, name, getattr(ns, name))
    return config


def main(argv=None) -> int:
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    config = _config_from_namespace(ns)
    try:
        config.validate()
        return _HANDLERS[config.command](config)
    except (UsageError, NormalizationError, ValueError) as exc:
        sys.stderr.write(f"oscilab: error: {exc}\n")
        return EXIT_USAGE
    except OSError as exc:
        sys.stderr.write(f"oscilab: I/O error: {exc}\n")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
