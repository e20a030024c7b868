"""Self-contained acceptance suite: every shipped claim, checked numerically.

Each criterion is a function returning a pass/fail result with the measured
worst case; `run_all` executes the whole battery deterministically (seeded)
in natural units. The `verify` CLI command prints the table and gates its
exit code on it.

The naive Runge-Kutta coefficient integrator defined here exists purely as
an independent cross-check of the exact spectral propagator. Library code
never evolves anything with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coherent import (
    TRUNCATION_MARGIN,
    CoherentLabel,
    annihilation_residual,
    auto_n_max,
    coherent_coefficients,
    dynamical_coherent_state,
    evolve_label,
)
from .dynamics import (
    PhaseAngle,
    ehrenfest_residual,
    propagate_fock,
    rotate_xp,
    sample_trajectory,
    transform_state_phase,
)
from .fock import (
    OscillatorParams,
    expectation,
    fock_state,
    make_hamiltonian,
    make_ladder,
    random_state,
)
from .observables import averages_bruteforce, averages_closedform, uncertainty_fock
from .wavefunction import (
    WaveSample,
    default_packet_grid,
    generating_sum_check,
    packet_moments,
    psi_closed_grid,
    psi_series_grid,
)

__all__ = ["CriterionResult", "DEFAULT_CHI_SET", "run_all", "format_table"]

DEFAULT_CHI_SET = (0j, 1 + 0j, 2j, 1 + 1j, -1.5 + 0.5j)


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str

    def __post_init__(self):
        # numpy comparisons leak np.bool_, which serializers must not see
        object.__setattr__(self, "passed", bool(self.passed))


def _resolved_n_max(label: CoherentLabel, override: int | None) -> int:
    return override if override is not None else auto_n_max(label) + TRUNCATION_MARGIN


def _two_period_times(params: OscillatorParams, count: int) -> np.ndarray:
    return np.linspace(0.0, 2.0 * (2.0 * math.pi / params.omega), count)


def check_minimal_uncertainty(
    chi_set, n_max: int | None = None
) -> CriterionResult:
    """Coherent-state uncertainty product equals hbar/2 at all times."""
    params = OscillatorParams()
    tol = 1e-9
    worst = 0.0
    for chi in chi_set:
        label = CoherentLabel(chi)
        nm = _resolved_n_max(label, n_max)
        for t in _two_period_times(params, 8):
            state = dynamical_coherent_state(label, t, params, nm)
            rec = averages_bruteforce(state, params)
            worst = max(worst, abs(rec.uncertainty - 0.5 * params.hbar))
    return CriterionResult(
        "minimal-uncertainty",
        worst < tol,
        f"max |I - hbar/2| = {worst:.3e} (tol {tol:.0e})",
    )


def check_fock_uncertainty() -> CriterionResult:
    """Level-n uncertainty product equals hbar (n + 1/2), n = 0..20."""
    params = OscillatorParams()
    tol = 1e-10
    n_max = 40
    worst = 0.0
    for n in range(21):
        rec = averages_bruteforce(fock_state(n, n_max), params)
        worst = max(worst, abs(rec.uncertainty - uncertainty_fock(n, params)))
    return CriterionResult(
        "fock-uncertainty",
        worst < tol,
        f"max |I_n - hbar (n + 1/2)| = {worst:.3e} (tol {tol:.0e})",
    )


def check_anomalous_averages(
    chi_set, n_max: int | None = None
) -> CriterionResult:
    """<a>, <a a>, <a+ a> match the evolved label; zero exactly on Fock states."""
    params = OscillatorParams()
    tol = 1e-9
    worst = 0.0
    for chi in chi_set:
        label = CoherentLabel(chi)
        nm = _resolved_n_max(label, n_max)
        for t in _two_period_times(params, 8):
            state = dynamical_coherent_state(label, t, params, nm)
            rec = averages_bruteforce(state, params)
            chit = evolve_label(label, t, params).chi
            worst = max(
                worst,
                abs(rec.a_avg - chit),
                abs(rec.a2_avg - chit * chit),
                abs(rec.n_avg - label.nbar),
            )
    exact_zero = True
    for n in range(6):
        rec = averages_bruteforce(fock_state(n, 12), params)
        exact_zero = exact_zero and rec.a_avg == 0 and rec.a2_avg == 0
    return CriterionResult(
        "anomalous-averages",
        worst < tol and exact_zero,
        f"max label mismatch = {worst:.3e} (tol {tol:.0e}), "
        f"fock averages exactly zero: {exact_zero}",
    )


def check_ehrenfest(chi: complex | None = None) -> CriterionResult:
    """Mean coordinate and momentum obey the classical oscillator equation.

    Centered-difference residuals stay below 1e-5 at dt = 1e-3 and shrink
    fourfold (to within 20%) when dt halves.
    """
    params = OscillatorParams()  # omega = 1 pinned by the tolerance model
    label = CoherentLabel(1 + 0j if chi is None else chi)
    period = 2.0 * math.pi / params.omega
    tol = 1e-5
    coarse = ehrenfest_residual(
        sample_trajectory(label, params, 0.0, period, 1e-3, "bruteforce"), params
    )
    fine = ehrenfest_residual(
        sample_trajectory(label, params, 0.0, period, 5e-4, "bruteforce"), params
    )
    ok = max(coarse) < tol
    ratios = []
    for c, f in zip(coarse, fine):
        if c < 1e-12 and f < 1e-12:
            continue  # identically zero means, nothing to scale
        ratio = c / f
        ratios.append(ratio)
        ok = ok and 3.2 <= ratio <= 4.8
    ratio_text = ", ".join(f"{r:.2f}" for r in ratios) if ratios else "n/a"
    return CriterionResult(
        "ehrenfest-mean-motion",
        ok,
        f"residuals (x, p) = ({coarse[0]:.3e}, {coarse[1]:.3e}) at dt=1e-3 "
        f"(tol {tol:.0e}); halving ratios = {ratio_text}",
    )


def check_energy_constancy(
    chi_set, n_max: int | None = None
) -> CriterionResult:
    """Mean energy is time independent and equals hbar omega (|chi|^2 + 1/2)."""
    params = OscillatorParams()
    spread_tol = 1e-10
    value_tol = 1e-9
    worst_spread = 0.0
    worst_value = 0.0
    for chi in chi_set:
        label = CoherentLabel(chi)
        nm = _resolved_n_max(label, n_max)
        base = coherent_coefficients(label, nm)
        energies = np.array(
            [
                averages_bruteforce(propagate_fock(base, t, params), params).energy
                for t in _two_period_times(params, 100)
            ]
        )
        expected = params.hbar * params.omega * (label.nbar + 0.5)
        worst_spread = max(worst_spread, float(energies.max() - energies.min()))
        worst_value = max(worst_value, float(np.max(np.abs(energies - expected))))
    return CriterionResult(
        "energy-constancy",
        worst_spread < spread_tol and worst_value < value_tol,
        f"max spread = {worst_spread:.3e} (tol {spread_tol:.0e}), "
        f"max value error = {worst_value:.3e} (tol {value_tol:.0e})",
    )


def check_wave_packet(chi_set) -> CriterionResult:
    """Series and closed-form packets agree; the packet width never changes."""
    params = OscillatorParams()
    n_max = 64
    diff_tol = 1e-8
    var_tol = 1e-8
    expected_var = params.hbar / (2.0 * params.mass * params.omega)
    worst_diff = 0.0
    worst_var = 0.0
    times = (0.0, 0.7, math.pi, 4.2, 2.0 * math.pi)
    for chi in chi_set:
        label = CoherentLabel(chi)
        for t in times:
            center = averages_closedform(label, t, params).mean_x
            grid = default_packet_grid(params, center=center)
            series = psi_series_grid(label, grid.points, t, params, n_max)
            closed = psi_closed_grid(label, grid.points, t, params, "complex_center")
            worst_diff = max(worst_diff, float(np.max(np.abs(series - closed))))
            samples = [
                WaveSample(x, v) for x, v in zip(grid.points, series)
            ]
            _, _, var = packet_moments(samples, grid)
            worst_var = max(worst_var, abs(var - expected_var))
    return CriterionResult(
        "wave-packet-nondiffusion",
        worst_diff < diff_tol and worst_var < var_tol,
        f"max |series - closed| = {worst_diff:.3e} (tol {diff_tol:.0e}), "
        f"max width drift = {worst_var:.3e} (tol {var_tol:.0e})",
    )


def check_generating_identity(seed: int) -> CriterionResult:
    """Hermite generating-function partial sums converge to exp(2xt - t^2)."""
    tol = 1e-12
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(20):
        x = rng.uniform(-3.0, 3.0)
        t = rng.uniform(-0.9, 0.9)
        worst = max(worst, generating_sum_check(x, t, 60))
    return CriterionResult(
        "hermite-generating-identity",
        worst < tol,
        f"max residual = {worst:.3e} (tol {tol:.0e})",
    )


def check_annihilation_eigenstate(
    chi_set, n_max: int | None = None
) -> CriterionResult:
    """The evolved state stays an annihilation eigenstate, except when
    deliberately under-truncated."""
    params = OscillatorParams()
    tol = 1e-10
    worst = 0.0
    for chi in chi_set:
        label = CoherentLabel(chi)
        nm = 64 if n_max is None else n_max
        a, _ = make_ladder(nm)
        for t in (0.0, 1.1):
            state = dynamical_coherent_state(label, t, params, nm)
            worst = max(
                worst,
                annihilation_residual(state, evolve_label(label, t, params), a),
            )
    # under-truncated control: the residual must be grossly visible
    bad_label = CoherentLabel(3 + 0j)
    a12, _ = make_ladder(12)
    bad = annihilation_residual(
        coherent_coefficients(bad_label, 12), bad_label, a12
    )
    return CriterionResult(
        "annihilation-eigenstate",
        worst < tol and bad > 1e-2,
        f"max residual = {worst:.3e} (tol {tol:.0e}); "
        f"under-truncated control = {bad:.3e} (must exceed 1e-02)",
    )


def check_phase_symmetry(seed: int) -> CriterionResult:
    """Phase rotation leaves <H> and <a+ a> alone, rotates <a>, and
    preserves the classical energy form of the rotated means."""
    params = OscillatorParams()
    n_max = 24
    inv_tol = 1e-10
    rot_tol = 1e-12
    rng = np.random.default_rng(seed)
    a, ad = make_ladder(n_max)
    num = ad @ a
    h = make_hamiltonian(params, n_max)
    worst_inv = 0.0
    worst_rot = 0.0
    worst_energy = 0.0
    m_omega2 = params.mass * params.omega**2
    for _ in range(100):
        state = random_state(n_max, rng)
        alpha = PhaseAngle(rng.uniform(-4.0 * math.pi, 4.0 * math.pi))
        rotated = transform_state_phase(state, alpha)
        worst_inv = max(
            worst_inv,
            abs(expectation(h, rotated).real - expectation(h, state).real),
            abs(expectation(num, rotated).real - expectation(num, state).real),
        )
        a_before = expectation(a, state)
        a_after = expectation(a, rotated)
        worst_rot = max(
            worst_rot,
            abs(a_after - complex(np.exp(-1j * alpha.alpha)) * a_before),
            abs(abs(a_after) - abs(a_before)),
        )
        x, p = rng.standard_normal(2) * 2.0
        x_new, p_new = rotate_xp(x, p, alpha, params)
        energy_before = 0.5 * m_omega2 * x**2 + p**2 / (2.0 * params.mass)
        energy_after = 0.5 * m_omega2 * x_new**2 + p_new**2 / (2.0 * params.mass)
        worst_energy = max(worst_energy, abs(energy_after - energy_before))
    return CriterionResult(
        "phase-symmetry",
        worst_inv < inv_tol and worst_rot < rot_tol and worst_energy < rot_tol,
        f"max invariant drift = {worst_inv:.3e} (tol {inv_tol:.0e}), "
        f"max <a> rotation error = {worst_rot:.3e}, "
        f"max classical energy drift = {worst_energy:.3e} (tol {rot_tol:.0e})",
    )


def rk4_coefficients(state, params: OscillatorParams, t_total: float, steps: int):
    """Naive fixed-step RK4 on i hbar dC/dt = H C, as an independent oracle.

    Deliberately generic: a dense matrix-vector product per stage, no use of
    the diagonal structure the exact propagator exploits.
    """
    generator = -1j * make_hamiltonian(params, state.n_max).matrix / params.hbar
    dt = t_total / steps
    c = np.array(state.coeffs, dtype=complex)
    for _ in range(steps):
        k1 = generator @ c
        k2 = generator @ (c + 0.5 * dt * k1)
        k3 = generator @ (c + 0.5 * dt * k2)
        k4 = generator @ (c + dt * k3)
        c = c + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return c


def check_propagator_vs_rk4(
    chi: complex | None = None, n_max: int | None = None
) -> CriterionResult:
    """The exact spectral propagator agrees with brute RK4 integration."""
    params = OscillatorParams()
    tol = 1e-7
    label = CoherentLabel(1 + 0j if chi is None else chi)
    nm = _resolved_n_max(label, n_max)
    base = coherent_coefficients(label, nm)
    period = 2.0 * math.pi / params.omega
    steps = round(period / 1e-4)
    numeric = rk4_coefficients(base, params, period, steps)
    exact = propagate_fock(base, period, params).coeffs
    worst = float(np.max(np.abs(numeric - exact)))
    return CriterionResult(
        "propagator-vs-rk4",
        worst < tol,
        f"max coefficient error = {worst:.3e} (tol {tol:.0e}) "
        f"over one period at {steps} steps",
    )


def run_all(
    chi: complex | None = None, n_max: int | None = None, seed: int = 0
) -> list[CriterionResult]:
    """Run every criterion; exceptions count as failures of their criterion.

    With chi/n_max given, the sweeping criteria run at that single setting
    instead of the built-in probe set; pinned controls stay pinned.
    """
    chi_set = DEFAULT_CHI_SET if chi is None else (complex(chi),)
    battery: list[tuple[str, Callable[[], CriterionResult]]] = [
        ("minimal-uncertainty", lambda: check_minimal_uncertainty(chi_set, n_max)),
        ("fock-uncertainty", check_fock_uncertainty),
        ("anomalous-averages", lambda: check_anomalous_averages(chi_set, n_max)),
        ("ehrenfest-mean-motion", lambda: check_ehrenfest(chi)),
        ("energy-constancy", lambda: check_energy_constancy(chi_set, n_max)),
        ("wave-packet-nondiffusion", lambda: check_wave_packet(chi_set)),
        ("hermite-generating-identity", lambda: check_generating_identity(seed)),
        (
            "annihilation-eigenstate",
            lambda: check_annihilation_eigenstate(chi_set, n_max),
        ),
        ("phase-symmetry", lambda: check_phase_symmetry(seed)),
        ("propagator-vs-rk4", lambda: check_propagator_vs_rk4(chi, n_max)),
    ]
    results = []
    for name, runner in battery:
        try:
            results.append(runner())
        except Exception as exc:  # a crash counts against the criterion
            results.append(
                CriterionResult(name, False, f"raised {type(exc).__name__}: {exc}")
            )
    return results


def format_table(results: list[CriterionResult]) -> str:
    width = max(len(r.name) for r in results)
    lines = [
        f"{'PASS' if r.passed else 'FAIL'}  {r.name.ljust(width)}  {r.detail}"
        for r in results
    ]
    passed = sum(r.passed for r in results)
    lines.append(f"{passed}/{len(results)} criteria passed")
    return "\n".join(lines)
