"""Exact Fock-basis propagation, columnar trajectories, mean-motion checks.

The Hamiltonian is diagonal in the number basis, so time evolution is exact
per-level phase rotation; no integrator lives in the library. The phase
transformation a -> a e^(i alpha), coeffs[n] -> coeffs[n] e^(-i n alpha) on
states, is applied by `observables.phase_rotation_drifts`; the tests check
it against the rotated ladder matrix of `tests/oracle.py`.

`ehrenfest_residual` takes bare <x> and <p> arrays, so the
`ehrenfest-mean-motion` criterion builds no `Trajectory`; it checks its
sample times with `check_uniform_times`, the code behind the spacing
checks of `Trajectory.from_columns`.
"""

from __future__ import annotations

import math
from collections.abc import Mapping

import numpy as np

from .fock import OscillatorParams, StateVector, level_phases
from .observables import RECORD_COLUMNS

__all__ = [
    "Trajectory",
    "propagate_fock",
    "sample_times",
    "sample_count",
    "check_uniform_times",
    "ehrenfest_residual",
]


class Trajectory:
    """Uniformly sampled observables, one read-only array per RECORD_COLUMNS name.

    `Trajectory.from_columns(columns, dt)` is the one constructor; it takes
    the columns of a batched kernel and checks that the time column is
    nonempty, strictly increasing and spaced by dt (`check_uniform_times`).
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
        if any(values.shape != times.shape for values in arrays.values()):
            raise ValueError("every column must have one value per time")
        check_uniform_times(times, dt)
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

    def column(self, name: str) -> np.ndarray:
        """One RECORD_COLUMNS column; complex averages are split into _re/_im."""
        if name not in self._columns:
            raise KeyError(f"no column {name!r}; columns are {RECORD_COLUMNS}")
        return self._columns[name]


def check_uniform_times(times: np.ndarray, dt: float) -> None:
    """Raise ValueError unless the 1-d times are nonempty, dt is finite and
    positive, and the times strictly increase in steps of dt to within
    1e-9 max(1, |t|)."""
    if times.ndim != 1 or times.size == 0:
        raise ValueError("trajectory needs at least one record")
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got {dt!r}")
    if times.size > 1:
        steps = np.diff(times)
        if np.any(steps <= 0):
            raise ValueError("record times must be strictly increasing")
        tol = 1e-9 * max(1.0, float(np.max(np.abs(times))))
        if np.max(np.abs(steps - dt)) > tol:
            raise ValueError("record times must be uniformly spaced by dt")


def propagate_fock(state: StateVector, t: float, params: OscillatorParams) -> StateVector:
    """Exact evolution by t: each level rotates by e^(-i omega (n + 1/2) t).

    Composes additively: propagating by t1 then t2 equals propagating by
    t1 + t2. Level populations never change.
    """
    phases = level_phases(params, float(t), state.n_max)
    return StateVector(state.coeffs * phases, state.n_max, time=state.time + float(t))


def sample_times(t_start: float, t_end: float, dt: float) -> np.ndarray:
    """Uniform samples t_start + k dt up to and including t_end (within rounding)."""
    return t_start + dt * np.arange(sample_count(t_start, t_end, dt))


def sample_count(t_start: float, t_end: float, dt: float) -> int:
    """The number of `sample_times(t_start, t_end, dt)`, computed without
    allocating. Refuses a nonpositive dt, a reversed interval and a count
    that is not finite (dt nan, or so small that the count overflows)."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if t_end < t_start:
        raise ValueError(f"t_end ({t_end}) must not precede t_start ({t_start})")
    steps = (t_end - t_start) / dt + 1e-9
    if not math.isfinite(steps):
        raise ValueError(
            f"dt={dt!r} over [{t_start!r}, {t_end!r}] asks for {steps + 1} time samples"
        )
    return int(math.floor(steps)) + 1


def ehrenfest_residual(
    mean_x: np.ndarray, mean_p: np.ndarray, dt: float, params: OscillatorParams
) -> tuple[float, float]:
    """Worst violation of the classical oscillator equations by <x> and <p>
    sampled at the uniform spacing dt.

    At interior samples, centered differences test both the second-order
    equations D2 x + omega^2 x = 0, D2 p + omega^2 p = 0 and the first-order
    relations D x = p / M, D p = -M omega^2 x; per component the worse of
    the two is returned. For exact means both scale as dt^2. The caller
    vouches for the spacing, with `check_uniform_times` on the sample times.
    """
    x = np.asarray(mean_x, dtype=float)
    p = np.asarray(mean_p, dtype=float)
    if x.ndim != 1 or x.shape != p.shape:
        raise ValueError(
            f"need two 1-d arrays of one length, got shapes {x.shape} and {p.shape}"
        )
    if x.size < 3:
        raise ValueError(f"need at least 3 samples, got {x.size}")
    omega2 = params.omega**2

    def second(values: np.ndarray) -> np.ndarray:
        return (values[2:] - 2.0 * values[1:-1] + values[:-2]) / (dt * dt)

    def first(values: np.ndarray) -> np.ndarray:
        return (values[2:] - values[:-2]) / (2.0 * dt)

    res_x2 = float(np.max(np.abs(second(x) + omega2 * x[1:-1])))
    res_x1 = float(np.max(np.abs(first(x) - p[1:-1] / params.mass)))
    res_p2 = float(np.max(np.abs(second(p) + omega2 * p[1:-1])))
    res_p1 = float(np.max(np.abs(first(p) + params.mass * omega2 * x[1:-1])))
    return max(res_x2, res_x1), max(res_p2, res_p1)
