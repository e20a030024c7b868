"""Quadratic observables: means, second moments, uncertainty product, energy.

Two independent routes compute the same record. `averages_bruteforce`
evaluates matrix expectation values in the truncated basis and works for any
state; `averages_closedform` evaluates the exact coherent-state expressions
as functions of the evolved label. Tests pin the two against each other.

`averages_bruteforce_batch` is the fast brute-force path over many times,
returning one array per RECORD_COLUMNS name. It propagates a whole block of
times with one phase multiply and takes every expectation with one matrix
product per operator. Tests pin it to the per-state `averages_bruteforce`,
which stays the reference.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .coherent import CoherentLabel
from .fock import (
    NormalizationError,
    OscillatorParams,
    StateVector,
    TruncationWarning,
    level_phases,
    make_hamiltonian,
    make_ladder,
    make_xp,
)

__all__ = [
    "ObservableRecord",
    "RECORD_COLUMNS",
    "record_row",
    "record_object",
    "record_from_row",
    "averages_bruteforce",
    "averages_bruteforce_batch",
    "averages_closedform",
    "uncertainty_fock",
]

# Second moments couple n to n +/- 2, so results are only trusted when the
# occupied support keeps that much headroom below the truncation edge.
SUPPORT_MASS_TOL = 1e-10
# Rounding may push a variance slightly negative; anything worse is a bug.
VARIANCE_CLIP_TOL = 1e-12

DEFAULT_NORM_TOL = 1e-10

# Times per block of the batched kernel. At the largest automatic truncation
# (1025 levels) one complex block is 4 MiB, whatever the number of times.
BATCH_TIMES = 256


@dataclass(frozen=True)
class ObservableRecord:
    """One time sample of every computed average.

    Creation/annihilation averages are stored once; their conjugates
    (<a+> = conj(<a>), <a+ a+> = conj(<a a>)) are implied, not stored.
    """

    time: float
    mean_x: float
    mean_p: float
    mean_x2: float
    mean_p2: float
    n_avg: float
    a_avg: complex
    a2_avg: complex
    uncertainty: float
    energy: float


RECORD_COLUMNS = (
    "time",
    "mean_x",
    "mean_p",
    "mean_x2",
    "mean_p2",
    "n_avg",
    "a_avg_re",
    "a_avg_im",
    "a2_avg_re",
    "a2_avg_im",
    "uncertainty",
    "energy",
)


def record_row(record: ObservableRecord) -> tuple[float, ...]:
    """Flatten a record into the RECORD_COLUMNS order (complex split re/im)."""
    return (
        record.time,
        record.mean_x,
        record.mean_p,
        record.mean_x2,
        record.mean_p2,
        record.n_avg,
        record.a_avg.real,
        record.a_avg.imag,
        record.a2_avg.real,
        record.a2_avg.imag,
        record.uncertainty,
        record.energy,
    )


def record_object(record: ObservableRecord) -> dict[str, float]:
    """Record as a flat mapping, matching the CSV column names."""
    return dict(zip(RECORD_COLUMNS, record_row(record)))


def record_from_row(row) -> ObservableRecord:
    """Inverse of `record_row`: a record from values in RECORD_COLUMNS order."""
    (time, mean_x, mean_p, mean_x2, mean_p2, n_avg,
     a_re, a_im, a2_re, a2_im, uncertainty, energy) = map(float, row)
    return ObservableRecord(
        time, mean_x, mean_p, mean_x2, mean_p2, n_avg,
        complex(a_re, a_im), complex(a2_re, a2_im), uncertainty, energy,
    )


@lru_cache(maxsize=64)
def _bundle(hbar: float, mass: float, omega: float, n_max: int):
    """Operator matrices reused across repeated evaluations at one setting."""
    params = OscillatorParams(hbar, mass, omega)
    a, ad = make_ladder(n_max)
    x, p = make_xp(params, n_max)
    h = make_hamiltonian(params, n_max)
    mats = {
        "a": a.matrix,
        "num": ad.matrix @ a.matrix,
        "x": x.matrix,
        "p": p.matrix,
        "x2": x.matrix @ x.matrix,
        "p2": p.matrix @ p.matrix,
        "h": h.matrix,
        "a2": a.matrix @ a.matrix,
    }
    for m in mats.values():
        m.setflags(write=False)
    return mats


def _variance(second_moment, mean):
    """second_moment - mean^2 elementwise, rounding-level negatives set to 0."""
    var = np.asarray(second_moment - mean * mean)
    worst = float(np.min(var))
    if worst < -VARIANCE_CLIP_TOL:
        raise ValueError(
            f"variance {worst!r} is more negative than rounding can explain"
        )
    return np.where(var < 0.0, 0.0, var)


def averages_bruteforce(
    state: StateVector, params: OscillatorParams, norm_tol: float = DEFAULT_NORM_TOL
) -> ObservableRecord:
    """All averages of one state by matrix expectation in the truncated basis.

    Raises NormalizationError (carrying the measured norm) when the state is
    not normalized within norm_tol. Warns with TruncationWarning when the top
    two levels carry enough weight to bias the second moments.
    """
    c = state.coeffs
    norm = float(np.linalg.norm(c))
    if abs(norm - 1.0) > norm_tol:
        raise NormalizationError(norm, norm_tol)

    top_mass = float(np.sum(np.abs(c[-2:]) ** 2))
    if top_mass > SUPPORT_MASS_TOL:
        warnings.warn(
            f"top two levels carry probability {top_mass:.3e}; second moments "
            f"near the truncation edge are unreliable",
            TruncationWarning,
            stacklevel=2,
        )

    mats = _bundle(params.hbar, params.mass, params.omega, state.n_max)

    def ev(key: str) -> complex:
        return complex(np.vdot(c, mats[key] @ c))

    mean_x = ev("x").real
    mean_p = ev("p").real
    mean_x2 = ev("x2").real
    mean_p2 = ev("p2").real
    var_x = _variance(mean_x2, mean_x)
    var_p = _variance(mean_p2, mean_p)
    return ObservableRecord(
        time=state.time,
        mean_x=mean_x,
        mean_p=mean_p,
        mean_x2=mean_x2,
        mean_p2=mean_p2,
        n_avg=ev("num").real,
        a_avg=ev("a"),
        a2_avg=ev("a2"),
        uncertainty=math.sqrt(var_x * var_p),
        energy=ev("h").real,
    )


def averages_bruteforce_batch(
    base: StateVector, times, params: OscillatorParams
) -> dict[str, np.ndarray]:
    """`averages_bruteforce` of `base` propagated by each of `times`, as columns.

    Returns one float array per RECORD_COLUMNS name, "time" holding
    base.time + t. Row k equals averages_bruteforce(propagate_fock(base,
    times[k], params), params) up to rounding: the propagated coefficients
    are the same to the bit, and each expectation is still a literal matrix
    expectation, <c|M|c> = sum(conj(C) * (C M^T)) row by row.

    Every sample gets the checks of the per-state path: finite coefficients,
    DEFAULT_NORM_TOL (the NormalizationError carries the worst norm of the
    first block that fails) and the variance clip. A single TruncationWarning
    reports the largest top-two level mass. Times go through in blocks of
    BATCH_TIMES, so memory does not grow with their number.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError(f"times must be one-dimensional, got shape {times.shape}")
    mats = _bundle(params.hbar, params.mass, params.omega, base.n_max)
    columns = {name: np.empty(times.size) for name in RECORD_COLUMNS}
    top_mass = 0.0
    for start in range(0, times.size, BATCH_TIMES):
        block = slice(start, start + BATCH_TIMES)
        c = base.coeffs * level_phases(params, times[block], base.n_max)
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        norms = np.linalg.norm(c, axis=1)
        worst = int(np.argmax(np.abs(norms - 1.0)))
        if abs(norms[worst] - 1.0) > DEFAULT_NORM_TOL:
            raise NormalizationError(float(norms[worst]), DEFAULT_NORM_TOL)
        top_mass = max(top_mass, float(np.max(np.sum(np.abs(c[:, -2:]) ** 2, axis=1))))
        c_conj = c.conj()

        def ev(key: str) -> np.ndarray:
            return np.einsum("ij,ij->i", c_conj, c @ mats[key].T)

        mean_x = ev("x").real
        mean_p = ev("p").real
        mean_x2 = ev("x2").real
        mean_p2 = ev("p2").real
        a_avg = ev("a")
        a2_avg = ev("a2")
        fields = {
            "time": base.time + times[block],
            "mean_x": mean_x,
            "mean_p": mean_p,
            "mean_x2": mean_x2,
            "mean_p2": mean_p2,
            "n_avg": ev("num").real,
            "a_avg_re": a_avg.real,
            "a_avg_im": a_avg.imag,
            "a2_avg_re": a2_avg.real,
            "a2_avg_im": a2_avg.imag,
            "uncertainty": np.sqrt(
                _variance(mean_x2, mean_x) * _variance(mean_p2, mean_p)
            ),
            "energy": ev("h").real,
        }
        for name in RECORD_COLUMNS:
            columns[name][block] = fields[name]
    if top_mass > SUPPORT_MASS_TOL:
        warnings.warn(
            f"top two levels carry probability up to {top_mass:.3e}; second "
            f"moments near the truncation edge are unreliable",
            TruncationWarning,
            stacklevel=2,
        )
    return columns


def averages_closedform(
    label: CoherentLabel, t: float, params: OscillatorParams
) -> ObservableRecord:
    """All coherent-state averages as explicit functions of the evolved label.

    With chi(t) = chi exp(-i omega t):
        <a> = chi(t),  <a a> = chi(t)^2,  <a+ a> = |chi|^2,
        mean x  = sqrt(hbar/2M omega) (chi*(t) + chi(t)),
        mean p  = i sqrt(M hbar omega/2) (chi*(t) - chi(t)),
        mean x^2 = (hbar/2M omega) (chi*^2 + chi^2 + 2|chi|^2 + 1),
        mean p^2 = -(M hbar omega/2) (chi*^2 + chi^2 - 2|chi|^2 - 1),
    the uncertainty product is hbar/2 identically and the energy
    hbar omega (|chi|^2 + 1/2) never depends on t.
    """
    hbar, mass, omega = params.hbar, params.mass, params.omega
    chit = label.chi * complex(np.exp(-1j * omega * t))
    lam = label.nbar
    sq = 2.0 * (chit * chit).real  # chi*(t)^2 + chi(t)^2
    x_scale = math.sqrt(hbar / (2.0 * mass * omega))
    p_scale = math.sqrt(mass * hbar * omega / 2.0)
    return ObservableRecord(
        time=float(t),
        mean_x=2.0 * x_scale * chit.real,
        mean_p=2.0 * p_scale * chit.imag,
        mean_x2=(hbar / (2.0 * mass * omega)) * (sq + 2.0 * lam + 1.0),
        mean_p2=(mass * hbar * omega / 2.0) * (2.0 * lam + 1.0 - sq),
        n_avg=lam,
        a_avg=chit,
        a2_avg=chit * chit,
        uncertainty=0.5 * hbar,
        energy=hbar * omega * (lam + 0.5),
    )


def uncertainty_fock(n: int, params: OscillatorParams) -> float:
    """Coordinate-momentum fluctuation product of level n: hbar (n + 1/2)."""
    n = int(n)
    if n < 0:
        raise ValueError(f"level must be nonnegative, got {n}")
    return params.hbar * (n + 0.5)
