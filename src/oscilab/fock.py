"""Truncated Fock-space core: oscillator parameters, states, level phases.

Everything is expressed in the number basis |0>..|n_max>; a state is its
amplitudes alone, and the times they are carried to belong to the caller.
No operator matrix is built on any runtime path: every average comes from
the banded products of `observables`, and the dense matrices the tests
check them against live in `tests/oracle.py`. All values are immutable
after construction and every operation is a pure function of its inputs.

The package's value types (`OscillatorParams`, `StateVector`,
`coherent.CoherentLabel`, `verify.CriterionResult` and
`wavefunction.WaveSample`) derive from `Value`: fields in `__slots__`, set
once by a hand-written `__init__`.
Every CLI call imports them afresh, so they are plain classes rather than
dataclasses, whose methods are built with `exec` on import.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "TruncationWarning",
    "Value",
    "OscillatorParams",
    "StateVector",
    "check_n_max",
    "level_phases",
]


class TruncationWarning(UserWarning):
    """Occupied levels sit too close to the truncation edge to trust results."""


class Value:
    """Base of the immutable value types: the fields are the subclass's
    `__slots__`, in order, and its `__init__` sets each once through `_init`.

    Assigning or deleting a field raises AttributeError; the repr shows
    every field; values compare and hash by class and field values; pickle
    and copy rebuild a value through its validating constructor.
    """

    __slots__ = ()

    def _init(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _immutable(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r} of "
                             f"immutable {type(self).__name__}")

    __setattr__ = __delattr__ = _immutable

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__reduce__() == other.__reduce__()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.__reduce__())

    def __reduce__(self):
        return (type(self), tuple(getattr(self, name) for name in self.__slots__))


class OscillatorParams(Value):
    """Physical constants hbar, mass M and angular frequency omega.

    The defaults give natural units hbar = M = omega = 1, which is what the
    test suites mostly use; any strictly positive values are accepted.
    """

    __slots__ = ("hbar", "mass", "omega")

    def __init__(self, hbar: float = 1.0, mass: float = 1.0, omega: float = 1.0):
        for name, value in (("hbar", hbar), ("mass", mass), ("omega", omega)):
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        self._init(hbar, mass, omega)

    @property
    def length_scale(self) -> float:
        """Natural oscillator length sqrt(hbar / (M omega))."""
        return math.sqrt(self.hbar / (self.mass * self.omega))


class StateVector(Value):
    """Complex amplitudes over |0>..|n_max>, n_max being coeffs.size - 1.

    The coefficient array is stored read-only; physical states have squared
    norm 1 up to the tolerance of whoever consumes them. States compare and
    hash by identity, as an array has no single truth value.
    """

    __slots__ = ("coeffs",)
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, coeffs: np.ndarray):
        c = np.array(coeffs, dtype=complex)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coeffs must be a nonempty one-dimensional array")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        c.setflags(write=False)
        self._init(c)

    @property
    def n_max(self) -> int:
        return self.coeffs.size - 1


def check_n_max(n_max: int) -> int:
    """n_max as an int, refused when negative: the shared check of a truncation level."""
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
    n = np.arange(check_n_max(n_max) + 1)
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
    levels = np.sqrt(np.arange(1, check_n_max(n_max) + 1, dtype=float))
    a = np.diag(levels, k=1).astype(complex)
    x_scale = math.sqrt(params.hbar / (2.0 * params.mass * params.omega))
    p_scale = math.sqrt(params.mass * params.hbar * params.omega / 2.0)
    return x_scale * (a.conj().T + a), 1j * p_scale * (a.conj().T - a)
