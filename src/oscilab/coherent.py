"""Coherent states in the truncated number basis.

Amplitudes follow C_n = chi**n / sqrt(n!) * exp(-|chi|^2 / 2), but are built
by the multiplicative ladder C_{n+1} = C_n * chi / sqrt(n+1): the literal
formula overflows n! and underflows chi**n long before truncation levels of
interest, while the ladder stays well-scaled for any n. The dynamical
coherent state at time t is these amplitudes carried forward by the exact
level phases, `dynamics.propagate_fock(coherent_coefficients(label, n_max),
t, params)`: the time-0 state of the evolved label chi exp(-i omega t),
times the global phase exp(-i omega t / 2).

The truncation tail (total Poisson weight above n_max) is the single error
control for everything downstream, and `resolve_n_max` alone turns a tail
tolerance into n_max: the smallest truncation whose tail is below it, found
by one bisection, plus the second-moment margin, or a TruncationCapError
past AUTO_N_MAX_CAP. The tail is a direct sum of Poisson weights started from
Loader's saddle-point form of the weight (C. Loader, "Fast and accurate
computation of binomial probabilities", 2000), so this module needs only
`math` and numpy.
"""

from __future__ import annotations

import itertools
import math
import sys

import numpy as np

from .fock import OscillatorParams, StateVector, Value, check_n_max

__all__ = [
    "CoherentLabel",
    "coherent_coefficients",
    "occupation_probability",
    "annihilation_residual",
    "truncation_tail",
    "resolve_n_max",
    "TruncationCapError",
]

AUTO_TAIL_TOL = 1e-12
AUTO_N_MAX_CAP = 1024
# Levels `resolve_n_max` adds above the tail rule's n_max: second moments
# couple n to n + 2, so they need this much headroom below the truncation edge.
TRUNCATION_MARGIN = 2


class CoherentLabel(Value):
    """The complex amplitude labelling a coherent state (dimensionless)."""

    __slots__ = ("chi",)

    def __init__(self, chi: complex):
        chi = complex(chi)
        if not (math.isfinite(chi.real) and math.isfinite(chi.imag)):
            raise ValueError(f"label must be finite, got {chi!r}")
        try:  # abs() and ** raise OverflowError past the float range
            abs(chi) ** 2
        except OverflowError:
            raise ValueError(f"label {chi!r} is too large: |chi|^2 overflows") from None
        self._init(chi)

    @property
    def nbar(self) -> float:
        """Mean occupation |chi|^2."""
        return abs(self.chi) ** 2


def coherent_coefficients(label: CoherentLabel, n_max: int) -> StateVector:
    """Coherent-state amplitudes truncated at n_max, at time 0.

    The squared norm equals 1 minus the Poisson tail mass above n_max;
    callers decide adequacy via `truncation_tail`. Raises ValueError when the
    ladder start exp(-|chi|^2 / 2) underflows past the smallest normal float
    (|chi| above about 37.64), since every amplitude would then be lost.
    """
    n_max = check_n_max(n_max)
    chi = label.chi
    c0 = math.exp(-0.5 * abs(chi) ** 2)
    if c0 < sys.float_info.min:
        raise ValueError(
            f"label {chi!r} is too large: its amplitudes underflow "
            f"(exp(-|chi|^2/2) = {c0:.3g} is below the smallest normal float)"
        )
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


def _evolved_chi(
    label: CoherentLabel, times, params: OscillatorParams
) -> tuple[np.ndarray, np.ndarray]:
    """Re and Im of chi(t) = chi exp(-i omega t) at each of the 1-d `times`.

    The phase is cos and sin of +0 - omega t, the exponent that Python's
    complex -1j * omega * t holds, and chi times it is taken in real
    arithmetic, as Python's complex `*` takes it (numpy's rounds otherwise),
    so each element is label.chi * complex(np.exp(-1j * omega * t)) to the bit.
    """
    angle = -params.omega * np.asarray(times, dtype=float)
    angle += 0.0  # -0 to +0, as in the complex exponent
    cos, sin = np.cos(angle), np.sin(angle)
    ar, ai = label.chi.real, label.chi.imag
    return ar * cos - ai * sin, ar * sin + ai * cos


def annihilation_residual(state: StateVector, evolved: CoherentLabel) -> float:
    """Norm of (a - chi(t)) applied to the state.

    (a c)_n = sqrt(n + 1) c_(n+1) is a shifted elementwise product, zero on
    the top level, so no ladder matrix is built. The residual is zero for an
    exact coherent state; for one truncated at n_max it is bounded by
    |C_n_max| * sqrt(n_max + 1), so it quantifies how badly the truncation
    broke the eigenstate property.
    """
    c = state.coeffs
    lowered = np.zeros_like(c)
    lowered[:-1] = np.sqrt(np.arange(1, c.size, dtype=float)) * c[1:]
    return float(np.linalg.norm(lowered - evolved.chi * c))


# stirlerr(n) = log(n!) - log(sqrt(2 pi n) (n/e)^n) for n = 1..15 (Loader's
# table); above 15 its Stirling series is used.
_STIRLERR = (
    0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
)
# Below the mean, P(N <= n) is at most exp(-bd0(n, lam)) (the Chernoff
# bound); past this exponent it is under half an ulp of 1.
_LOWER_TAIL_NEGLIGIBLE = 40.0


def _stirlerr(n: int) -> float:
    """Error of Stirling's formula for log(n!), n >= 1."""
    if n <= len(_STIRLERR):
        return _STIRLERR[n - 1]
    nn = float(n) * n
    if n > 500:
        return (1 / 12 - 1 / 360 / nn) / n
    if n > 80:
        return (1 / 12 - (1 / 360 - 1 / 1260 / nn) / nn) / n
    if n > 35:
        return (1 / 12 - (1 / 360 - (1 / 1260 - 1 / 1680 / nn) / nn) / nn) / n
    return (
        1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn
    ) / n


def _bd0(x: float, mu: float) -> float:
    """Deviance term x log(x / mu) + mu - x, without cancellation near x = mu."""
    if x == 0:
        return mu
    if abs(x - mu) >= 0.1 * (x + mu):
        return x * math.log(x / mu) + mu - x
    v = (x - mu) / (x + mu)
    s = (x - mu) * v
    ej = 2 * x * v
    v *= v
    for j in itertools.count(1):
        ej *= v
        s_next = s + ej / (2 * j + 1)
        if s_next == s:
            return s
        s = s_next


def _poisson_weight(k: int, lam: float) -> float:
    """exp(-lam) lam^k / k! for k >= 1, in Loader's saddle-point form."""
    return math.exp(-_stirlerr(k) - _bd0(k, lam)) / math.sqrt(2 * math.pi * k)


def truncation_tail(label: CoherentLabel, n_max: int) -> float:
    """Total Poisson weight above n_max for mean occupation |chi|^2.

    A direct sum of the weights of the levels above n_max. It starts at the
    largest of them, level max(n_max + 1, floor(|chi|^2)), whose weight comes
    from Loader's saddle-point form, and walks outward by the ratios lam / k
    (up) and k / lam (down to n_max + 1). Both walks see decreasing terms and
    stop when a term no longer changes the sum, so small tails keep their
    relative accuracy (about 1e-12), where 1 - CDF would not. The sum is 0.0
    when the start weight underflows, and 1.0 when the Chernoff bound puts
    the weight at or below n_max under half an ulp of 1; it never exceeds 1.
    """
    n_max = check_n_max(n_max)
    lam = label.nbar
    if lam == 0.0:
        return 0.0
    low = n_max + 1
    start = max(low, math.floor(lam))
    if start > low and _bd0(n_max, lam) > _LOWER_TAIL_NEGLIGIBLE:
        return 1.0
    first = total = _poisson_weight(start, lam)  # 0.0 once it underflows
    term, k = first, start
    while True:
        k += 1
        term *= lam / k
        if total + term == total:
            break
        total += term
    term, k = first, start
    while k > low:
        term *= k / lam
        k -= 1
        if total + term == total:
            break
        total += term
    return min(total, 1.0)  # rounding can lift a sum near 1 past it


class TruncationCapError(ValueError):
    """The capped auto truncation leaves a tail at or above the tolerance."""

    def __init__(self, needed: int, tol: float):
        self.needed = needed
        super().__init__(
            f"auto truncation needs at least n_max = {needed} for a tail below "
            f"{tol:.0e}, but auto is capped at n_max = {AUTO_N_MAX_CAP}; "
            "pass --n-max to set it explicitly"
        )


def resolve_n_max(
    label: CoherentLabel, n_max: int | None = None, tol: float = AUTO_TAIL_TOL
) -> int:
    """The explicit n_max, refused when negative, or TRUNCATION_MARGIN levels
    above the smallest n_max whose truncation tail is below tol.

    The tail is nonincreasing in n_max, so one bisection finds the smallest
    adequate truncation: over 0..AUTO_N_MAX_CAP, and on up to 2**53 only when
    the tail at the cap is still at or above tol (exact below 2**53, a lower
    bound at it). A result past the cap raises TruncationCapError, naming the
    n_max the tolerance needs.
    """
    if n_max is not None:
        return check_n_max(n_max)
    lo, hi = -1, AUTO_N_MAX_CAP  # tail(lo) >= tol; tail(hi) < tol unless hi = 2**53
    if truncation_tail(label, hi) >= tol:
        lo, hi = hi, 2**53
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if truncation_tail(label, mid) < tol:
            hi = mid
        else:
            lo = mid
    if hi > AUTO_N_MAX_CAP:
        raise TruncationCapError(hi + TRUNCATION_MARGIN, tol)
    return hi + TRUNCATION_MARGIN
