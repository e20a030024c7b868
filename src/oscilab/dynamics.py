"""Phase transformations, exact Fock-basis propagation, mean-motion checks.

The Hamiltonian is diagonal in the number basis, so time evolution is exact
per-level phase rotation; no integrator lives in the library. The phase
transformation a -> a e^(i alpha) acts on states as coeffs[n] -> coeffs[n]
e^(-i n alpha); the consistency of the two pictures is verified through
expectation values in the tests, not assumed.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

import numpy as np

from .coherent import (
    TRUNCATION_MARGIN,
    CoherentLabel,
    auto_n_max,
    coherent_coefficients,
)
from .fock import Operator, OscillatorParams, StateVector, level_phases
from .observables import (
    RECORD_COLUMNS,
    ObservableRecord,
    averages_bruteforce_batch,
    averages_closedform,
    record_from_row,
    record_row,
)

__all__ = [
    "PhaseAngle",
    "Trajectory",
    "phase_transform_ladder",
    "rotate_xp",
    "transform_state_phase",
    "propagate_fock",
    "sample_times",
    "sample_trajectory",
    "ehrenfest_residual",
]

TRAJECTORY_METHODS = ("bruteforce", "closedform")

# Far above any sampling the commands use (a period at dt = 1e-3 is 6,284
# samples); checked before anything is allocated.
MAX_TIME_SAMPLES = 10**7


@dataclass(frozen=True)
class PhaseAngle:
    """Rotation angle of the phase transformation, in radians."""

    alpha: float

    def __post_init__(self):
        if not math.isfinite(self.alpha):
            raise ValueError(f"angle must be finite, got {self.alpha!r}")
        object.__setattr__(self, "alpha", float(self.alpha))

    @property
    def reduced(self) -> float:
        """Angle folded into [0, 2 pi), for reporting only."""
        return self.alpha % (2.0 * math.pi)


class Trajectory:
    """Uniformly sampled observables, one read-only array per RECORD_COLUMNS name.

    Build it from records, `Trajectory(records, dt)`, or from the columns of
    a batched kernel, `Trajectory.from_columns(columns, dt)`. Either way the
    time column must be nonempty, strictly increasing and spaced by dt.
    """

    __slots__ = ("_columns", "dt")

    def __init__(self, records: Iterable[ObservableRecord], dt: float):
        rows = [record_row(r) for r in records]
        if not rows:
            raise ValueError("trajectory needs at least one record")
        self._set(dict(zip(RECORD_COLUMNS, np.array(rows).T)), dt)

    @classmethod
    def from_columns(cls, columns: Mapping[str, np.ndarray], dt: float) -> "Trajectory":
        if set(columns) != set(RECORD_COLUMNS):
            raise ValueError(f"columns must be exactly {RECORD_COLUMNS}")
        traj = object.__new__(cls)
        traj._set(columns, dt)
        return traj

    def _set(self, columns: Mapping[str, np.ndarray], dt: float) -> None:
        arrays = {}
        for name in RECORD_COLUMNS:
            values = np.array(columns[name], dtype=float)
            values.setflags(write=False)
            arrays[name] = values
        times = arrays["time"]
        if times.ndim != 1 or times.size == 0:
            raise ValueError("trajectory needs at least one record")
        if any(values.shape != times.shape for values in arrays.values()):
            raise ValueError("every column must have one value per time")
        if not (math.isfinite(dt) and dt > 0):
            raise ValueError(f"dt must be finite and positive, got {dt!r}")
        if times.size > 1:
            steps = np.diff(times)
            if np.any(steps <= 0):
                raise ValueError("record times must be strictly increasing")
            tol = 1e-9 * max(1.0, float(np.max(np.abs(times))))
            if np.max(np.abs(steps - dt)) > tol:
                raise ValueError("record times must be uniformly spaced by dt")
        object.__setattr__(self, "_columns", arrays)
        object.__setattr__(self, "dt", float(dt))

    def __setattr__(self, name, value):
        raise AttributeError("Trajectory is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through the validating constructor, since
        # restoring slots one by one would go through __setattr__.
        return (Trajectory.from_columns, (self._columns, self.dt))

    def __len__(self) -> int:
        return self._columns["time"].size

    @property
    def records(self) -> tuple[ObservableRecord, ...]:
        """The samples as records, all of them rebuilt on each access.

        That is O(len) per access; to read single values take
        `column(name)[k]` instead.
        """
        rows = zip(*(self._columns[name] for name in RECORD_COLUMNS))
        return tuple(record_from_row(row) for row in rows)

    def times(self) -> np.ndarray:
        return self._columns["time"]

    def column(self, name: str) -> np.ndarray:
        """One RECORD_COLUMNS column; complex averages are split into _re/_im."""
        if name not in self._columns:
            raise KeyError(f"no column {name!r}; columns are {RECORD_COLUMNS}")
        return self._columns[name]


def phase_transform_ladder(a: Operator, alpha: PhaseAngle) -> Operator:
    """Rotated annihilation operator a * e^(i alpha).

    The creation-operator rule (conjugate phase) follows from `.dagger`.
    """
    return Operator(a.matrix * complex(np.exp(1j * alpha.alpha)), a.n_max)


def rotate_xp(
    mean_x: float, mean_p: float, alpha: PhaseAngle, params: OscillatorParams
) -> tuple[float, float]:
    """Coordinate-momentum rotation induced by the phase transformation.

    x' = -(p / M omega) sin(alpha) + x cos(alpha)
    p' = p cos(alpha) + M omega x sin(alpha)
    The classical energy form M omega^2 x^2 / 2 + p^2 / 2M is invariant.
    """
    sin_a = math.sin(alpha.alpha)
    cos_a = math.cos(alpha.alpha)
    m_omega = params.mass * params.omega
    x_new = -(mean_p / m_omega) * sin_a + mean_x * cos_a
    p_new = mean_p * cos_a + m_omega * mean_x * sin_a
    return x_new, p_new


def transform_state_phase(state: StateVector, alpha: PhaseAngle) -> StateVector:
    """State-space image of the phase transformation: coeffs[n] * e^(-i n alpha).

    Norm and level populations are untouched; a coherent state maps to the
    coherent state of the rotated label chi e^(-i alpha).
    """
    n = np.arange(state.coeffs.size)
    phases = np.exp(-1j * alpha.alpha * n)
    return StateVector(state.coeffs * phases, state.n_max, time=state.time)


def propagate_fock(state: StateVector, t: float, params: OscillatorParams) -> StateVector:
    """Exact evolution by t: each level rotates by e^(-i omega (n + 1/2) t).

    Composes additively: propagating by t1 then t2 equals propagating by
    t1 + t2. Level populations never change.
    """
    phases = level_phases(params, float(t), state.n_max)
    return StateVector(state.coeffs * phases, state.n_max, time=state.time + float(t))


def sample_times(t_start: float, t_end: float, dt: float) -> np.ndarray:
    """Uniform samples t_start + k dt up to and including t_end (within rounding).

    Raises ValueError, before allocating, when that is more than
    MAX_TIME_SAMPLES samples.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if t_end < t_start:
        raise ValueError(f"need t_end >= t_start, got [{t_start}, {t_end}]")
    steps = (t_end - t_start) / dt + 1e-9
    if not steps < MAX_TIME_SAMPLES:
        requested = math.floor(steps) + 1 if steps < 1e15 else f"{steps + 1:.3g}"
        raise ValueError(
            f"dt={dt!r} over [{t_start!r}, {t_end!r}] asks for {requested} "
            f"time samples; the limit is {MAX_TIME_SAMPLES}"
        )
    count = int(math.floor(steps)) + 1
    return t_start + dt * np.arange(count)


def sample_trajectory(
    label: CoherentLabel,
    params: OscillatorParams,
    t_start: float,
    t_end: float,
    dt: float,
    method: str = "bruteforce",
    n_max: int | None = None,
) -> Trajectory:
    """Observables of a coherent state on a uniform time grid.

    method="bruteforce" propagates the truncated state exactly and takes
    matrix expectations (`averages_bruteforce_batch`); method="closedform"
    evaluates the label formulas (`averages_closedform`) time by time. When
    n_max is None the truncation-tail rule picks it, plus TRUNCATION_MARGIN
    levels of headroom for the second moments.
    """
    if method not in TRAJECTORY_METHODS:
        raise ValueError(f"method must be one of {TRAJECTORY_METHODS}, got {method!r}")
    times = sample_times(t_start, t_end, dt)
    if method == "closedform":
        return Trajectory([averages_closedform(label, t, params) for t in times], dt)
    if n_max is None:
        n_max = auto_n_max(label) + TRUNCATION_MARGIN
    base = coherent_coefficients(label, n_max)
    return Trajectory.from_columns(averages_bruteforce_batch(base, times, params), dt)


def ehrenfest_residual(
    traj: Trajectory, params: OscillatorParams
) -> tuple[float, float]:
    """Worst violation of the classical oscillator equations along a trajectory.

    At interior samples, centered differences test both the second-order
    equations D2 x + omega^2 x = 0, D2 p + omega^2 p = 0 and the first-order
    relations D x = p / M, D p = -M omega^2 x; per component the worse of
    the two is returned. For exact means both scale as dt^2.
    """
    if len(traj) < 3:
        raise ValueError(f"need at least 3 records, got {len(traj)}")
    dt = traj.dt
    omega2 = params.omega**2
    x = traj.column("mean_x")
    p = traj.column("mean_p")

    def second(values: np.ndarray) -> np.ndarray:
        return (values[2:] - 2.0 * values[1:-1] + values[:-2]) / (dt * dt)

    def first(values: np.ndarray) -> np.ndarray:
        return (values[2:] - values[:-2]) / (2.0 * dt)

    res_x2 = float(np.max(np.abs(second(x) + omega2 * x[1:-1])))
    res_x1 = float(np.max(np.abs(first(x) - p[1:-1] / params.mass)))
    res_p2 = float(np.max(np.abs(second(p) + omega2 * p[1:-1])))
    res_p1 = float(np.max(np.abs(first(p) + params.mass * omega2 * x[1:-1])))
    return max(res_x2, res_x1), max(res_p2, res_p1)
