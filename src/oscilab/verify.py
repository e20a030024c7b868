"""Self-contained acceptance suite: every shipped claim, checked numerically.

Each criterion is a function returning a pass/fail result with the measured
worst case; `run_all` executes the whole battery deterministically (seeded)
in natural units. The `verify` CLI command prints the table and gates its
exit code on it.

The Runge-Kutta coefficient integrator defined here exists purely as an
independent cross-check of the exact spectral propagator. Library code never
evolves anything with it. Because the Hamiltonian is diagonal, N classical
RK4 steps multiply each level by R^N, with R RK4's stability polynomial; the
oracle composes R - 1 by binary powering in increment form, so N steps cost
O(log N) array operations and no exponential is evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coherent import (
    CoherentLabel,
    annihilation_residual,
    coherent_coefficients,
    dynamical_coherent_state,
    evolve_label,
    resolve_n_max,
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
    make_hamiltonian,
    make_ladder,
    random_state,
)
from .observables import (
    RECORD_COLUMNS,
    averages_bruteforce_batch,
    averages_bruteforce_fock,
    averages_closedform,
    record_from_row,
    uncertainty_fock,
)
from .wavefunction import (
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
        base = coherent_coefficients(label, resolve_n_max(label, n_max))
        products = averages_bruteforce_batch(
            base, _two_period_times(params, 8), params
        )["uncertainty"]
        worst = max(worst, float(np.max(np.abs(products - 0.5 * params.hbar))))
    return CriterionResult(
        "minimal-uncertainty",
        worst < tol,
        f"max |I - hbar/2| = {worst:.3e} (tol {tol:.0e})",
    )


def check_fock_uncertainty() -> CriterionResult:
    """Level-n uncertainty product equals hbar (n + 1/2), n = 0..20."""
    params = OscillatorParams()
    tol = 1e-10
    levels = range(21)
    products = averages_bruteforce_fock(levels, 40, params)["uncertainty"]
    worst = max(abs(u - uncertainty_fock(n, params)) for n, u in zip(levels, products))
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
        base = coherent_coefficients(label, resolve_n_max(label, n_max))
        times = _two_period_times(params, 8)
        columns = averages_bruteforce_batch(base, times, params)
        for k, t in enumerate(times):
            rec = record_from_row([columns[name][k] for name in RECORD_COLUMNS])
            chit = evolve_label(label, t, params).chi
            worst = max(
                worst,
                abs(rec.a_avg - chit),
                abs(rec.a2_avg - chit * chit),
                abs(rec.n_avg - label.nbar),
            )
    fock = averages_bruteforce_fock(range(6), 12, params)
    anomalous = ("a_avg_re", "a_avg_im", "a2_avg_re", "a2_avg_im")
    exact_zero = not any(np.any(fock[name]) for name in anomalous)
    return CriterionResult(
        "anomalous-averages",
        worst < tol and exact_zero,
        f"max label mismatch = {worst:.3e} (tol {tol:.0e}), "
        f"fock averages exactly zero: {exact_zero}",
    )


def check_ehrenfest(
    chi: complex | None = None, n_max: int | None = None
) -> CriterionResult:
    """Mean coordinate and momentum obey the classical oscillator equation.

    Centered-difference residuals stay below 1e-5 at dt = 1e-3 and shrink
    fourfold (to within 20%) when dt halves. n_max=None applies the auto
    truncation rule.
    """
    params = OscillatorParams()  # omega = 1 pinned by the tolerance model
    label = CoherentLabel(1 + 0j if chi is None else chi)
    period = 2.0 * math.pi / params.omega
    tol = 1e-5
    coarse = ehrenfest_residual(
        sample_trajectory(label, params, 0.0, period, 1e-3, "bruteforce", n_max),
        params,
    )
    fine = ehrenfest_residual(
        sample_trajectory(label, params, 0.0, period, 5e-4, "bruteforce", n_max),
        params,
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
        base = coherent_coefficients(label, resolve_n_max(label, n_max))
        energies = averages_bruteforce_batch(
            base, _two_period_times(params, 100), params
        )["energy"]
        expected = params.hbar * params.omega * (label.nbar + 0.5)
        worst_spread = max(worst_spread, float(energies.max() - energies.min()))
        worst_value = max(worst_value, float(np.max(np.abs(energies - expected))))
    return CriterionResult(
        "energy-constancy",
        worst_spread < spread_tol and worst_value < value_tol,
        f"max spread = {worst_spread:.3e} (tol {spread_tol:.0e}), "
        f"max value error = {worst_value:.3e} (tol {value_tol:.0e})",
    )


def check_wave_packet(chi_set, n_max: int | None = None) -> CriterionResult:
    """Series and closed-form packets agree; the packet width never changes.

    n_max=None uses 64 levels, ample for every label of the probe set.
    """
    params = OscillatorParams()
    n_max = 64 if n_max is None else n_max
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
            _, _, var = packet_moments(series, grid)
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
    """Fixed-step RK4 on i hbar dC/dt = H C, as an independent oracle.

    H is diagonal, so one classical RK4 step multiplies each coefficient by
    RK4's stability polynomial R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 at
    z = g dt, with g the level's entry of G = -i H / hbar, and `steps` steps
    multiply it by R^steps. The four stages run once on the unit state give
    the increment w = R - 1, and binary powering composes it in the same
    increment form, (1 + u)(1 + v) = 1 + (u + v + u v), so squaring w gives
    2 w + w^2. 1 + w is never rounded: |w| is about |z|, so a rounded 1 + w
    would drop the digits of w below the unit's last bit, and the power
    would multiply that loss by `steps`. No exponential is evaluated, so the
    error is the method's own O(dt^4), unrelated to the exact phases of
    `propagate_fock`, and the cost is O(log steps) array operations.
    """
    g = -1j * np.diagonal(make_hamiltonian(params, state.n_max).matrix) / params.hbar
    dt = t_total / steps
    k1 = g
    k2 = g * (1.0 + 0.5 * dt * k1)
    k3 = g * (1.0 + 0.5 * dt * k2)
    k4 = g * (1.0 + dt * k3)
    w = (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    acc = np.zeros_like(w)  # the increment of R^0 = 1
    while True:
        if steps & 1:
            acc = acc + w + acc * w
        steps >>= 1
        if not steps:
            break
        w = 2.0 * w + w * w
    c = np.array(state.coeffs, dtype=complex)
    return c + c * acc


def check_propagator_vs_rk4(
    chi: complex | None = None, n_max: int | None = None
) -> CriterionResult:
    """The exact spectral propagator agrees with brute RK4 integration.

    chi=None runs every label of DEFAULT_CHI_SET; the detail reports the
    worst error and the largest step count of any label.
    """
    params = OscillatorParams()
    tol = 1e-7
    period = 2.0 * math.pi / params.omega
    worst = 0.0
    most_steps = 0
    for label in map(CoherentLabel, DEFAULT_CHI_SET if chi is None else (chi,)):
        nm = resolve_n_max(label, n_max)
        base = coherent_coefficients(label, nm)
        # RK4's global error on the top level, whose phase over the period is
        # theta = E_max period / hbar, is about N |theta / N|^5 / 120: take
        # dt = 1e-4, or the smallest N that holds that error to tol / 100.
        theta = params.omega * (nm + 0.5) * period
        needed = math.ceil((100.0 * theta**5 / (120.0 * tol)) ** 0.25)
        steps = max(round(period / 1e-4), needed)
        numeric = rk4_coefficients(base, params, period, steps)
        exact = propagate_fock(base, period, params).coeffs
        worst = max(worst, float(np.max(np.abs(numeric - exact))))
        most_steps = max(most_steps, steps)
    return CriterionResult(
        "propagator-vs-rk4",
        worst < tol,
        f"max coefficient error = {worst:.3e} (tol {tol:.0e}) "
        f"over one period at up to {most_steps} steps",
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
        ("ehrenfest-mean-motion", lambda: check_ehrenfest(chi, n_max)),
        ("energy-constancy", lambda: check_energy_constancy(chi_set, n_max)),
        ("wave-packet-nondiffusion", lambda: check_wave_packet(chi_set, n_max)),
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
