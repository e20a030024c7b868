"""Truncated Fock-space core: oscillator parameters, states, level phases.

Everything is expressed in the number basis |0>..|n_max>. No operator
matrix is built on any runtime path: every average comes from the banded
products of `observables`, and the dense matrices the tests check them
against live in `tests/oracle.py`. All values are immutable after
construction and every operation is a pure function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "NormalizationError",
    "TruncationWarning",
    "OscillatorParams",
    "StateVector",
    "level_phases",
]


class DimensionMismatchError(ValueError):
    """State, grid or stack sizes do not line up."""


class NormalizationError(ValueError):
    """State norm deviates from 1 by more than the allowed tolerance."""

    def __init__(self, norm: float, tol: float):
        super().__init__(
            f"state norm {norm!r} deviates from 1 by more than tolerance {tol!r}"
        )
        self.norm = norm
        self.tol = tol


class TruncationWarning(UserWarning):
    """Occupied levels sit too close to the truncation edge to trust results."""


@dataclass(frozen=True)
class OscillatorParams:
    """Physical constants hbar, mass M and angular frequency omega.

    The defaults give natural units hbar = M = omega = 1, which is what the
    test suites mostly use; any strictly positive values are accepted.
    """

    hbar: float = 1.0
    mass: float = 1.0
    omega: float = 1.0

    def __post_init__(self):
        for name in ("hbar", "mass", "omega"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")

    @property
    def length_scale(self) -> float:
        """Natural oscillator length sqrt(hbar / (M omega))."""
        return math.sqrt(self.hbar / (self.mass * self.omega))


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex amplitudes over |0>..|n_max| plus the time they refer to.

    The coefficient array is stored read-only; physical states have squared
    norm 1 up to the tolerance of whoever consumes them.
    """

    coeffs: np.ndarray
    n_max: int | None = None
    time: float = 0.0

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=complex)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coeffs must be a nonempty one-dimensional array")
        n_max = c.size - 1 if self.n_max is None else int(self.n_max)
        if c.size != n_max + 1:
            raise DimensionMismatchError(
                f"{c.size} coefficients do not fit n_max={n_max}"
            )
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        if not math.isfinite(self.time):
            raise ValueError("time must be finite")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "n_max", n_max)
        object.__setattr__(self, "time", float(self.time))

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


def _check_n_max(n_max: int) -> int:
    n_max = int(n_max)
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    return n_max


def level_phases(params: OscillatorParams, t, n_max: int) -> np.ndarray:
    """Exact evolution phases exp(-i omega t (n + 1/2)) of levels 0..n_max.

    A scalar t gives one row of n_max + 1 phases; a 1-D array of times gives
    one row per time. Every propagator goes through here, so a row is the
    same to the bit whichever way it was asked for.

    The exponent's real part is zero, so the phases are the real cos and sin
    of one angle array, written into the two halves of the result. With the
    same angle this equals the complex np.exp(-1j omega t (n + 1/2)) to the
    bit (a test pins it), and skips the complex exponential's extra work.
    """
    n = np.arange(_check_n_max(n_max) + 1)
    t = np.asarray(t, dtype=float)[..., np.newaxis]
    angle = -params.omega * t * (n + 0.5)
    # the complex exponent's imaginary part is +0 + angle, so +0 rather than
    # -0 at t = 0: add +0 here too, so that sin gives the same signed zero
    angle += 0.0
    phases = np.empty(angle.shape, dtype=complex)
    np.cos(angle, out=phases.real)
    np.sin(angle, out=phases.imag)
    return phases


def make_xp(params: OscillatorParams, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense x = sqrt(hbar/2M omega) (a+ + a) and p = i sqrt(M hbar omega/2)
    (a+ - a) as arrays. No command builds them; the function stays because
    perfbench's traced metric `fock.make_xp.calls` counts its calls."""
    levels = np.sqrt(np.arange(1, _check_n_max(n_max) + 1, dtype=float))
    a = np.diag(levels, k=1).astype(complex)
    x_scale = math.sqrt(params.hbar / (2.0 * params.mass * params.omega))
    p_scale = math.sqrt(params.mass * params.hbar * params.omega / 2.0)
    return x_scale * (a.conj().T + a), 1j * p_scale * (a.conj().T - a)
