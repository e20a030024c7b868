"""Truncated Fock-space core: oscillator parameters, states, operator matrices.

Everything is expressed in the number basis |0>..|n_max>. The dense complex
matrices (`Operator`, `make_ladder`, `make_xp`, `make_hamiltonian`,
`expectation`) are the tests' oracle: they keep products, commutators and
expectation values trivial, and no runtime path builds one, since every
command computes its averages with the banded products of `observables`.
All values are immutable after construction and every operation is a pure
function of its inputs.
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
    "Operator",
    "make_ladder",
    "make_xp",
    "make_hamiltonian",
    "level_phases",
    "fock_state",
    "identity",
    "expectation",
    "random_state",
]


class DimensionMismatchError(ValueError):
    """Operator, state or grid sizes do not line up."""


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


@dataclass(frozen=True, eq=False)
class Operator:
    """Dense complex square matrix acting on the truncated number basis."""

    matrix: np.ndarray
    n_max: int | None = None

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise ValueError(f"matrix must be square and nonempty, got shape {m.shape}")
        n_max = m.shape[0] - 1 if self.n_max is None else int(self.n_max)
        if m.shape[0] != n_max + 1:
            raise DimensionMismatchError(
                f"matrix dimension {m.shape[0]} does not fit n_max={n_max}"
            )
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix entries must be finite")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "n_max", n_max)

    @property
    def dagger(self) -> "Operator":
        return Operator(self.matrix.conj().T, self.n_max)

    def __matmul__(self, other: "Operator") -> "Operator":
        if self.n_max != other.n_max:
            raise DimensionMismatchError(
                f"cannot multiply operators at n_max {self.n_max} and {other.n_max}"
            )
        return Operator(self.matrix @ other.matrix, self.n_max)

    def __add__(self, other: "Operator") -> "Operator":
        if self.n_max != other.n_max:
            raise DimensionMismatchError(
                f"cannot add operators at n_max {self.n_max} and {other.n_max}"
            )
        return Operator(self.matrix + other.matrix, self.n_max)

    def __sub__(self, other: "Operator") -> "Operator":
        if self.n_max != other.n_max:
            raise DimensionMismatchError(
                f"cannot subtract operators at n_max {self.n_max} and {other.n_max}"
            )
        return Operator(self.matrix - other.matrix, self.n_max)

    def __mul__(self, scalar: complex) -> "Operator":
        return Operator(self.matrix * scalar, self.n_max)

    __rmul__ = __mul__


def _check_n_max(n_max: int) -> int:
    n_max = int(n_max)
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    return n_max


def make_ladder(n_max: int) -> tuple[Operator, Operator]:
    """Annihilation and creation matrices at truncation n_max.

    a has a[n-1, n] = sqrt(n) on the superdiagonal and zeros elsewhere;
    the creation operator is its conjugate transpose. The truncated pair
    satisfies [a, a+] = 1 everywhere except the corner entry (n_max, n_max),
    which picks up -n_max.
    """
    n_max = _check_n_max(n_max)
    a = np.diag(np.sqrt(np.arange(1, n_max + 1, dtype=float)), k=1).astype(complex)
    return Operator(a, n_max), Operator(a.conj().T, n_max)


def make_xp(params: OscillatorParams, n_max: int) -> tuple[Operator, Operator]:
    """Position and momentum matrices.

    x = sqrt(hbar / 2 M omega) (a+ + a),  p = i sqrt(M hbar omega / 2) (a+ - a);
    both come out exactly Hermitian.
    """
    n_max = _check_n_max(n_max)
    a, ad = make_ladder(n_max)
    x_scale = math.sqrt(params.hbar / (2.0 * params.mass * params.omega))
    p_scale = math.sqrt(params.mass * params.hbar * params.omega / 2.0)
    x = Operator(x_scale * (ad.matrix + a.matrix), n_max)
    p = Operator(1j * p_scale * (ad.matrix - a.matrix), n_max)
    return x, p


def make_hamiltonian(params: OscillatorParams, n_max: int) -> Operator:
    """Diagonal Hamiltonian with level energies hbar omega (n + 1/2)."""
    n_max = _check_n_max(n_max)
    levels = params.hbar * params.omega * (np.arange(n_max + 1) + 0.5)
    return Operator(np.diag(levels).astype(complex), n_max)


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


def fock_state(n: int, n_max: int) -> StateVector:
    """Number eigenstate |n> as a basis vector at truncation n_max."""
    n_max = _check_n_max(n_max)
    n = int(n)
    if n < 0 or n > n_max:
        raise ValueError(f"level n={n} out of range 0..{n_max}")
    c = np.zeros(n_max + 1, dtype=complex)
    c[n] = 1.0
    return StateVector(c, n_max, time=0.0)


def identity(n_max: int) -> Operator:
    n_max = _check_n_max(n_max)
    return Operator(np.eye(n_max + 1, dtype=complex), n_max)


def expectation(op: Operator, state: StateVector) -> complex:
    """<state| op |state>.

    The state is assumed normalized; no norm check happens here. The result
    is real up to rounding when op is Hermitian but is always returned as a
    complex number.
    """
    if op.matrix.shape[0] != state.coeffs.size:
        raise DimensionMismatchError(
            f"operator dimension {op.matrix.shape[0]} does not match "
            f"state length {state.coeffs.size}"
        )
    return complex(np.vdot(state.coeffs, op.matrix @ state.coeffs))


def random_state(n_max: int, rng=None, time: float = 0.0) -> StateVector:
    """Haar-like random normalized state: i.i.d. complex Gaussian amplitudes."""
    n_max = _check_n_max(n_max)
    rng = np.random.default_rng(rng)
    c = rng.standard_normal(n_max + 1) + 1j * rng.standard_normal(n_max + 1)
    return StateVector(c / np.linalg.norm(c), n_max, time=time)
