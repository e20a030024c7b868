"""Coherent states in the truncated number basis.

Amplitudes follow C_n = chi**n / sqrt(n!) * exp(-|chi|^2 / 2), but are built
by the multiplicative ladder C_{n+1} = C_n * chi / sqrt(n+1): the literal
formula overflows n! and underflows chi**n long before truncation levels of
interest, while the ladder stays well-scaled for any n.

The truncation tail (total Poisson weight above n_max) is the single error
control for everything downstream; `auto_n_max` turns it into a
deterministic truncation policy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc

from .fock import (
    DimensionMismatchError,
    Operator,
    OscillatorParams,
    StateVector,
    level_phases,
)

__all__ = [
    "CoherentLabel",
    "coherent_coefficients",
    "occupation_probability",
    "evolve_label",
    "dynamical_coherent_state",
    "annihilation_residual",
    "truncation_tail",
    "auto_n_max",
]

AUTO_TAIL_TOL = 1e-12
AUTO_N_MAX_CAP = 1024
# Levels added above auto_n_max wherever a truncation is resolved
# automatically: second moments couple n to n + 2, so they need this much
# headroom below the truncation edge.
TRUNCATION_MARGIN = 2


@dataclass(frozen=True)
class CoherentLabel:
    """The complex amplitude labelling a coherent state (dimensionless)."""

    chi: complex

    def __post_init__(self):
        chi = complex(self.chi)
        if not (math.isfinite(chi.real) and math.isfinite(chi.imag)):
            raise ValueError(f"label must be finite, got {chi!r}")
        object.__setattr__(self, "chi", chi)

    @property
    def nbar(self) -> float:
        """Mean occupation |chi|^2."""
        return abs(self.chi) ** 2


def coherent_coefficients(label: CoherentLabel, n_max: int) -> StateVector:
    """Coherent-state amplitudes truncated at n_max, at time 0.

    The squared norm equals 1 minus the Poisson tail mass above n_max;
    callers decide adequacy via `truncation_tail`.
    """
    n_max = int(n_max)
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    chi = label.chi
    c0 = math.exp(-0.5 * abs(chi) ** 2)
    if n_max == 0:
        return StateVector(np.array([c0], dtype=complex), 0, time=0.0)
    ratios = chi / np.sqrt(np.arange(1, n_max + 1, dtype=float))
    coeffs = np.empty(n_max + 1, dtype=complex)
    coeffs[0] = c0
    coeffs[1:] = c0 * np.cumprod(ratios)
    return StateVector(coeffs, n_max, time=0.0)


def occupation_probability(label: CoherentLabel, n: int) -> float:
    """Poisson weight of level n: exp(-|chi|^2) |chi|^(2n) / n!.

    Evaluated in log space so large n stays finite.
    """
    n = int(n)
    if n < 0:
        raise ValueError(f"level must be nonnegative, got {n}")
    lam = label.nbar
    if lam == 0.0:
        return 1.0 if n == 0 else 0.0
    return math.exp(-lam + n * math.log(lam) - math.lgamma(n + 1))


def evolve_label(label: CoherentLabel, t: float, params: OscillatorParams) -> CoherentLabel:
    """Label at time t: chi * exp(-i omega t). Modulus is preserved."""
    return CoherentLabel(label.chi * complex(np.exp(-1j * params.omega * t)))


def dynamical_coherent_state(
    label: CoherentLabel, t: float, params: OscillatorParams, n_max: int
) -> StateVector:
    """Exact time-dependent coherent state truncated at n_max.

    Each amplitude carries the level phase exp(-i omega (n + 1/2) t); this
    equals the time-0 coherent state of the evolved label times the global
    phase exp(-i omega t / 2).
    """
    base = coherent_coefficients(label, n_max)
    phases = level_phases(params, t, n_max)
    return StateVector(base.coeffs * phases, n_max, time=float(t))


def annihilation_residual(
    state: StateVector, evolved: CoherentLabel, a: Operator
) -> float:
    """Norm of (a - chi(t)) applied to the state.

    Zero for an exact coherent state; for one truncated at n_max it is
    bounded by |C_n_max| * sqrt(n_max + 1), so it quantifies how badly the
    truncation broke the eigenstate property.
    """
    if a.matrix.shape[0] != state.coeffs.size:
        raise DimensionMismatchError(
            f"operator dimension {a.matrix.shape[0]} does not match "
            f"state length {state.coeffs.size}"
        )
    residual = a.matrix @ state.coeffs - evolved.chi * state.coeffs
    return float(np.linalg.norm(residual))


def truncation_tail(label: CoherentLabel, n_max: int) -> float:
    """Total Poisson weight above n_max for mean occupation |chi|^2.

    Uses the regularized lower incomplete gamma function, which equals the
    complementary Poisson CDF exactly.
    """
    n_max = int(n_max)
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    lam = label.nbar
    if lam == 0.0:
        return 0.0
    return float(gammainc(n_max + 1, lam))


def auto_n_max(
    label: CoherentLabel, tol: float = AUTO_TAIL_TOL, cap: int = AUTO_N_MAX_CAP
) -> int:
    """Smallest n_max with truncation tail below tol, capped at `cap`.

    The tail is monotone nonincreasing in n_max, so a bisection finds the
    minimal adequate truncation.
    """
    if truncation_tail(label, 0) < tol:
        return 0
    if truncation_tail(label, cap) >= tol:
        return cap
    lo, hi = 0, cap
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if truncation_tail(label, mid) < tol:
            hi = mid
        else:
            lo = mid
    return hi
