"""Exact Fock-basis propagation, columnar trajectories, mean-motion checks.

The Hamiltonian is diagonal in the number basis, so time evolution is exact
per-level phase rotation; no integrator lives in the library. The phase
transformation a -> a e^(i alpha), coeffs[n] -> coeffs[n] e^(-i n alpha) on
states, is applied by `observables.phase_rotation_drifts`; the tests check
it against the rotated ladder matrix of `tests/oracle.py`.
"""

from __future__ import annotations

import math
from collections.abc import Mapping

import numpy as np

from .coherent import CoherentLabel, coherent_coefficients, resolve_n_max
from .fock import OscillatorParams, StateVector, level_phases
from .observables import (
    RECORD_COLUMNS,
    ObservableRecord,
    averages_bruteforce_batch,
    record_from_row,
)

__all__ = [
    "Trajectory",
    "propagate_fock",
    "sample_times",
    "sample_trajectory",
    "ehrenfest_residual",
]

# Far above any sampling the commands use (a period at dt = 1e-3 is 6,284
# samples); checked before anything is allocated.
MAX_TIME_SAMPLES = 10**7


class Trajectory:
    """Uniformly sampled observables, one read-only array per RECORD_COLUMNS name.

    `Trajectory.from_columns(columns, dt)` is the one constructor; it takes
    the columns of a batched kernel and checks that the time column is
    nonempty, strictly increasing and spaced by dt.
    """

    __slots__ = ("_columns", "dt")

    @classmethod
    def from_columns(cls, columns: Mapping[str, np.ndarray], dt: float) -> "Trajectory":
        if set(columns) != set(RECORD_COLUMNS):
            raise ValueError(f"columns must be exactly {RECORD_COLUMNS}")
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
        traj = object.__new__(cls)
        object.__setattr__(traj, "_columns", arrays)
        object.__setattr__(traj, "dt", float(dt))
        return traj

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

    def column(self, name: str) -> np.ndarray:
        """One RECORD_COLUMNS column; complex averages are split into _re/_im."""
        if name not in self._columns:
            raise KeyError(f"no column {name!r}; columns are {RECORD_COLUMNS}")
        return self._columns[name]


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
    n_max: int | None = None,
) -> Trajectory:
    """Observables of a coherent state on a uniform time grid.

    Propagates the truncated state exactly and takes its averages from the
    banded kernel (`averages_bruteforce_batch`). When n_max is None,
    `resolve_n_max` applies the truncation-tail rule plus TRUNCATION_MARGIN
    levels of headroom for the second moments.
    """
    times = sample_times(t_start, t_end, dt)
    base = coherent_coefficients(label, resolve_n_max(label, n_max))
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
