"""Exact Fock-basis propagation, sample times, mean-motion checks.

The Hamiltonian is diagonal in the number basis, so time evolution is exact
per-level phase rotation; no integrator lives in the library. The phase
transformation a -> a e^(i alpha), coeffs[n] -> coeffs[n] e^(-i n alpha) on
states, is applied by `observables.phase_rotation_drifts`; the tests check
it against the rotated ladder matrix of `tests/oracle.py`.

`ehrenfest_residual` takes bare <x> and <p> arrays sampled at one spacing,
such as `sample_times` builds.
"""

from __future__ import annotations

import math

import numpy as np

from .fock import OscillatorParams, StateVector, level_phases

__all__ = [
    "propagate_fock",
    "sample_times",
    "sample_count",
    "ehrenfest_residual",
]


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
    allocating. Refuses a nonpositive or infinite dt (its times would be nan), a
    reversed interval and a count that is not finite (dt nan, or too small)."""
    if dt <= 0 or dt == math.inf:
        raise ValueError(f"dt must be {'positive' if dt <= 0 else 'finite'}, got {dt}")
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
    vouches that the samples are evenly spaced by dt.
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
