"""Output checks for the benchmark workloads, needing no stored golden file.

Each check recomputes what the file must hold from the oscilab argv alone,
so it works for any seed. `check_output` raises `OutputError` naming the
first defect of a wrong file. Only the standard library is used: the checks
must not share code with the program they judge.
"""

from __future__ import annotations

import cmath
import csv
import math

# Closed-form and brute-force trajectory columns, relative to max(1, |exact|).
TRAJECTORY_TOL = 1e-9
# Packet amplitudes (units length**-1/2) against the closed-form Gaussian.
PACKET_TOL = 1e-8
# Quadrature norm against 1 and packet variance against hbar / 2 M omega.
FOOTER_TOL = 1e-8

TRAJECTORY_NAMES = (
    "mean_x", "mean_p", "mean_x2", "mean_p2", "n_avg", "a_avg_re", "a_avg_im",
    "a2_avg_re", "a2_avg_im", "uncertainty", "energy",
)
VERIFY_CRITERIA = (
    "minimal-uncertainty", "fock-uncertainty", "anomalous-averages",
    "ehrenfest-mean-motion", "energy-constancy", "wave-packet-nondiffusion",
    "hermite-generating-identity", "annihilation-eigenstate", "phase-symmetry",
    "propagator-vs-rk4",
)


class OutputError(Exception):
    """The output file is missing, malformed or numerically wrong."""


def _options(argv: list[str]) -> dict[str, str]:
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}


def _number(opts: dict[str, str], key: str, default: float) -> float:
    return float(opts.get(key, default))


def _read(path) -> tuple[list[str], list[str], list[list[str]]]:
    """(comment lines, column names, data rows) of an oscilab CSV file."""
    try:
        with open(path, newline="") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise OutputError(f"cannot read output: {exc}") from None
    comments = [line for line in lines if line.startswith("#")]
    table = list(csv.reader(line for line in lines if not line.startswith("#")))
    if not table:
        raise OutputError("output has no column header")
    return comments, table[0], table[1:]


def _footers(comments: list[str]) -> list[dict[str, str]]:
    records = []
    for line in comments:
        if line.startswith("# footer: "):
            records.append(dict(f.split("=", 1) for f in line[10:].split()))
    return records


def _floats(row: list[str], where: str) -> list[float]:
    try:
        values = [float(v) for v in row]
    except ValueError:
        raise OutputError(f"{where}: non-numeric cell in {row!r}") from None
    if not all(math.isfinite(v) for v in values):
        raise OutputError(f"{where}: non-finite cell in {row!r}")
    return values


def _sample_count(opts: dict[str, str]) -> tuple[float, float, int]:
    t0 = _number(opts, "t-start", 0.0)
    dt = _number(opts, "dt", 0.01)
    count = int(math.floor((_number(opts, "t-end", 0.0) - t0) / dt + 1e-9)) + 1
    return t0, dt, count


def _label(opts: dict[str, str]) -> complex:
    return complex(_number(opts, "chi-re", 1.0), _number(opts, "chi-im", 0.0))


def _units(opts: dict[str, str]) -> tuple[float, float, float]:
    return (_number(opts, "hbar", 1.0), _number(opts, "mass", 1.0),
            _number(opts, "omega", 1.0))


def _trajectory_exact(chi: complex, t: float, hbar, mass, omega) -> dict[str, float]:
    chit = chi * cmath.exp(-1j * omega * t)
    lam = abs(chi) ** 2
    sq = 2.0 * (chit * chit).real
    x_unit = hbar / (2.0 * mass * omega)
    p_unit = mass * hbar * omega / 2.0
    return {
        "mean_x": 2.0 * math.sqrt(x_unit) * chit.real,
        "mean_p": 2.0 * math.sqrt(p_unit) * chit.imag,
        "mean_x2": x_unit * (sq + 2.0 * lam + 1.0),
        "mean_p2": p_unit * (2.0 * lam + 1.0 - sq),
        "n_avg": lam,
        "a_avg_re": chit.real,
        "a_avg_im": chit.imag,
        "a2_avg_re": (chit * chit).real,
        "a2_avg_im": (chit * chit).imag,
        "uncertainty": 0.5 * hbar,
        "energy": hbar * omega * (lam + 0.5),
    }


def check_trajectory(argv: list[str], path) -> None:
    opts = _options(argv)
    chi, units = _label(opts), _units(opts)
    t0, dt, count = _sample_count(opts)
    _, columns, rows = _read(path)
    expected = ["time"] + [f"{n}_{k}" for n in TRAJECTORY_NAMES
                           for k in ("closed", "brute", "diff")]
    if columns != expected:
        raise OutputError(f"trajectory columns {columns!r}")
    if len(rows) != count:
        raise OutputError(f"trajectory has {len(rows)} rows, expected {count}")
    for k, row in enumerate(rows):
        values = dict(zip(columns, _floats(row, f"row {k}")))
        t = t0 + k * dt
        if abs(values["time"] - t) > 1e-12 * max(1.0, abs(t)):
            raise OutputError(f"row {k}: time {values['time']!r}, expected {t!r}")
        for name, exact in _trajectory_exact(chi, t, *units).items():
            tol = TRAJECTORY_TOL * max(1.0, abs(exact))
            closed, brute = values[f"{name}_closed"], values[f"{name}_brute"]
            for kind, got in (("closed", closed), ("brute", brute)):
                if abs(got - exact) > tol:
                    raise OutputError(
                        f"row {k}: {name}_{kind} = {got!r}, closed form {exact!r}"
                    )
            if abs(values[f"{name}_diff"] - abs(closed - brute)) > tol:
                raise OutputError(f"row {k}: {name}_diff is not |closed - brute|")


def _packet(chi: complex, t: float, hbar, mass, omega):
    """(mean x, psi(x)) of the packet in the mean-coordinate form: a plane wave
    on a real-centered Gaussian, not the complex-center form the program uses."""
    chit = chi * cmath.exp(-1j * omega * t)
    xb = 2.0 * math.sqrt(hbar / (2.0 * mass * omega)) * chit.real
    pb = 2.0 * math.sqrt(mass * hbar * omega / 2.0) * chit.imag
    prefactor = (mass * omega / (math.pi * hbar)) ** 0.25
    phase0 = -(0.5 * omega * t + 0.5 * pb * xb / hbar)
    width = mass * omega / (2.0 * hbar)

    def psi(x: float) -> complex:
        phase = phase0 + pb * x / hbar
        amplitude = prefactor * math.exp(-width * (x - xb) ** 2)
        return complex(amplitude * math.cos(phase), amplitude * math.sin(phase))

    return xb, psi


def check_wavefunction(argv: list[str], path) -> None:
    opts = _options(argv)
    chi, units = _label(opts), _units(opts)
    hbar, mass, omega = units
    t0, dt, slices = _sample_count(opts)
    points = int(opts.get("grid-points", 2001))
    span = _number(opts, "grid-halfwidth", 10.0) * math.sqrt(hbar / (mass * omega))
    comments, columns, rows = _read(path)
    if columns != ["t", "x", "series_re", "series_im", "closed_re", "closed_im", "abs_diff"]:
        raise OutputError(f"wavefunction columns {columns!r}")
    if len(rows) != slices * points:
        raise OutputError(
            f"wavefunction has {len(rows)} rows, expected {slices} x {points}"
        )
    for k, row in enumerate(rows):
        t, x, s_re, s_im, c_re, c_im, diff = _floats(row, f"row {k}")
        if k % points == 0:
            slice_t = t0 + (k // points) * dt
            center, psi = _packet(chi, slice_t, *units)
        if abs(t - slice_t) > 1e-12 * max(1.0, abs(slice_t)):
            raise OutputError(f"row {k}: t = {t!r}, expected {slice_t!r}")
        grid_x = center - span + 2.0 * span * (k % points) / (points - 1)
        if abs(x - grid_x) > 1e-9 * max(1.0, span):
            raise OutputError(f"row {k}: x = {x!r}, grid point {grid_x!r}")
        exact = psi(x)
        series, closed = complex(s_re, s_im), complex(c_re, c_im)
        for kind, got in (("series", series), ("closed", closed)):
            if abs(got - exact) > PACKET_TOL:
                raise OutputError(f"row {k}: {kind} {got!r}, closed form {exact!r}")
        if abs(diff - abs(series - closed)) > PACKET_TOL:
            raise OutputError(f"row {k}: abs_diff is not |series - closed|")
    footers = _footers(comments)
    if len(footers) != slices:
        raise OutputError(f"{len(footers)} footer records, expected {slices}")
    variance = hbar / (2.0 * mass * omega)
    for record in footers:
        try:
            norm = float(record["quadrature_norm"])
            var = float(record["packet_variance"])
        except (KeyError, ValueError):
            raise OutputError(f"malformed footer {record!r}") from None
        if not (abs(norm - 1.0) <= FOOTER_TOL and abs(var - variance) <= FOOTER_TOL):
            raise OutputError(f"footer norm {norm!r} / variance {var!r}")


def check_verify(argv: list[str], path) -> None:
    comments, columns, rows = _read(path)
    if columns != ["criterion", "passed", "detail"]:
        raise OutputError(f"verify columns {columns!r}")
    verdicts = {}
    for row in rows:
        if len(row) != 3:
            raise OutputError(f"malformed verify row {row!r}")
        verdicts[row[0]] = row[1]
    missing = [name for name in VERIFY_CRITERIA if name not in verdicts]
    if missing or len(verdicts) != len(rows):
        raise OutputError(f"verify rows miss or repeat criteria: {missing!r}")
    failed = [name for name, verdict in verdicts.items() if verdict != "true"]
    if failed:
        raise OutputError(f"criteria not passed: {failed!r}")
    footers = _footers(comments)
    expected = {"passed": str(len(rows)), "total": str(len(rows))}
    if footers != [expected]:
        raise OutputError(f"verify footer {footers!r}, expected {expected!r}")


CHECKS = {
    "trajectory": check_trajectory,
    "wavefunction": check_wavefunction,
    "verify": check_verify,
}


def check_output(argv: list[str], path) -> None:
    """Raise OutputError unless the file the oscilab call wrote is right."""
    CHECKS[argv[0]](argv, path)
