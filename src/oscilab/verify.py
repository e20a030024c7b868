"""Self-contained acceptance suite: every shipped claim, checked numerically.

Each criterion is a function returning a pass/fail result with the measured
worst case; `run_all` executes the whole battery deterministically (seeded)
in natural units. The `verify` CLI command prints the table and gates its
exit code on it.

The seed selects the draws of `hermite-generating-identity` and
`phase-symmetry` from a SplitMix64 stream (a golden-ratio Weyl sequence
through a 64-bit mixer) computed with integer numpy, so `numpy.random` is
never imported. `phase-symmetry` passes its whole block of random states to
`observables.phase_rotation_drifts`, the sweep behind the `symmetry-check`
command; no criterion builds a dense operator. `ehrenfest-mean-motion`
reads only <x> and <p>, so it takes them from `observables.mean_motion_batch`,
which skips the second moments.

The Runge-Kutta coefficient integrator defined here exists purely as an
independent cross-check of the exact spectral propagator. Library code never
evolves anything with it. Because the Hamiltonian is diagonal, N classical
RK4 steps multiply each level by R^N, with R RK4's stability polynomial; the
oracle composes R - 1 by binary powering in increment form, so N steps cost
O(log N) array operations and no exponential is evaluated.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Callable

import numpy as np

from .coherent import (
    CoherentLabel,
    annihilation_residual,
    coherent_coefficients,
    resolve_n_max,
)
from .dynamics import ehrenfest_residual, propagate_fock, sample_times
from .fock import OscillatorParams, StateVector, Value
from .observables import (
    averages_bruteforce_batch,
    averages_bruteforce_fock,
    averages_closedform_batch,
    mean_motion_batch,
    phase_rotation_drifts,
    uncertainty_fock,
)
from .wavefunction import generating_sum_check, packet_sweep

__all__ = ["CriterionResult", "DEFAULT_CHI_SET", "run_all", "format_table"]

DEFAULT_CHI_SET = (0j, 1 + 0j, 2j, 1 + 1j, -1.5 + 0.5j)

# The packet series (tol 1e-8) and the annihilation residual (tol 1e-10) err
# like the square root of the truncation tail, so their auto truncation takes
# a far tighter tail than the moments' AUTO_TAIL_TOL: at chi = 5 a tail of
# 1e-18 (n_max 82) still left a residual of 1.8e-09, where 1e-24 takes 93.
SERIES_TAIL_TOL = 1e-24

# SplitMix64 (Steele, Lea and Flood, OOPSLA 2014): a Weyl sequence with the
# golden-ratio step 2^64 / phi, each state passed through a 64-bit mixer.
_WEYL_STEP = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer on a uint64 array: a bijection of 64-bit words.
    Array arithmetic wraps modulo 2^64 without a warning."""
    z = (z ^ (z >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> 27)) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> 31)


def _uniform_draws(seed: int, count: int) -> np.ndarray:
    """`count` doubles in [0, 1) from the stream that `seed` selects.

    The seed is folded into a 64-bit key 64 bits at a time,
    key = mix((key xor limb) + step), so any nonnegative integer works, and
    below 2^64 the fold is a bijection: distinct seeds get distinct keys.
    Draw k is the top 53 bits of mix(key + k step), k = 1..count. The mixer
    decorrelates the Weyl states, so two keys give unrelated streams rather
    than shifted copies of one sequence. Everything is integer numpy, so the
    same seed gives the same bytes on any machine.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    key = np.zeros(1, dtype=np.uint64)
    while True:
        key = _mix64((key ^ np.uint64(seed & _MASK64)) + np.uint64(_WEYL_STEP))
        seed >>= 64
        if not seed:
            break
    k = np.arange(1, count + 1, dtype=np.uint64)
    words = _mix64(key + k * np.uint64(_WEYL_STEP))
    return (words >> 11).astype(float) * 2.0**-53


def _normal_draws(u: np.ndarray) -> np.ndarray:
    """Standard normal draws from an even number of uniforms in [0, 1), by
    Box-Muller: each pair (u1, u2) gives r cos(2 pi u2) and r sin(2 pi u2)
    with r = sqrt(-2 ln(1 - u1))."""
    radius = np.sqrt(-2.0 * np.log1p(-u[0::2]))
    angle = 2.0 * math.pi * u[1::2]
    return np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1).ravel()


class CriterionResult(Value):
    """One criterion's verdict and the measured values behind it."""

    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str):
        # numpy comparisons leak np.bool_, which serializers must not see
        self._init(name, bool(passed), detail)


def _label_plan(chi_set, n_max: int | None):
    """Each label of chi_set with its time-0 states at the moments' and the
    series' truncation, `resolve_n_max` at AUTO_TAIL_TOL and SERIES_TAIL_TOL,
    built once at the latter: the ladder makes the former a bit-exact prefix.
    A label the plan cannot build raises ValueError: a negative n_max, or
    amplitudes that underflow, refused before any tail walk under auto."""
    plan = []
    for label in map(CoherentLabel, chi_set):
        moments = resolve_n_max(label, n_max)
        series = resolve_n_max(label, n_max, SERIES_TAIL_TOL)
        full = coherent_coefficients(label, series)
        prefix = StateVector(full.coeffs[:moments + 1]) if moments < series else full
        plan.append((label, prefix, full))
    return plan


def _label_sweep(plan):
    """Each label of the plan with the 100 times over two periods, in natural
    units, and its `averages_bruteforce_batch` columns at them."""
    params = OscillatorParams()
    times = np.linspace(0.0, 2.0 * (2.0 * math.pi / params.omega), 100)
    return [
        (label, times, averages_bruteforce_batch(base, times, params))
        for label, base, _ in plan
    ]


def check_minimal_uncertainty(sweep) -> CriterionResult:
    """Coherent-state uncertainty product equals hbar/2 at all times, on the
    `_label_sweep` that `run_all` shares among three criteria."""
    params = OscillatorParams()
    tol = 1e-9
    worst = 0.0
    for _, _, columns in sweep:
        products = columns["uncertainty"]
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
    worst = float(np.max(np.abs(products - uncertainty_fock(levels, params))))
    return CriterionResult(
        "fock-uncertainty",
        worst < tol,
        f"max |I_n - hbar (n + 1/2)| = {worst:.3e} (tol {tol:.0e})",
    )


def check_anomalous_averages(sweep) -> CriterionResult:
    """<a>, <a a>, <a+ a> match the evolved label's closed-form columns on the
    shared `_label_sweep`; zero exactly on Fock states."""
    params = OscillatorParams()
    tol = 1e-9
    worst = 0.0
    for label, times, brute in sweep:
        closed = averages_closedform_batch(label, times, params)
        errors = [np.abs(brute["n_avg"] - closed["n_avg"])]
        for name in ("a_avg", "a2_avg"):  # moduli of the complex differences
            errors.append(np.hypot(
                brute[f"{name}_re"] - closed[f"{name}_re"],
                brute[f"{name}_im"] - closed[f"{name}_im"],
            ))
        worst = max(worst, float(np.max(errors)))
    fock = averages_bruteforce_fock(range(6), 12, params)
    anomalous = ("a_avg_re", "a_avg_im", "a2_avg_re", "a2_avg_im")
    exact_zero = not any(np.any(fock[name]) for name in anomalous)
    return CriterionResult(
        "anomalous-averages",
        worst < tol and exact_zero,
        f"max label mismatch = {worst:.3e} (tol {tol:.0e}), "
        f"fock averages exactly zero: {exact_zero}",
    )


def check_ehrenfest(base: StateVector) -> CriterionResult:
    """<x> and <p> of the state `base` obey the classical oscillator equation.

    Centered-difference residuals stay below 1e-5 at dt = 1e-3 and shrink
    fourfold (to within 20%) when dt halves.

    Only <x> and <p> are computed (`mean_motion_batch`), and only at the
    dt = 5e-4 times. The dt = 1e-3 sample times are their even rows to the
    bit, and a row's averages do not depend on the rows around it, so the
    coarse residual is taken on those rows.
    """
    params = OscillatorParams()  # omega = 1 pinned by the tolerance model
    period = 2.0 * math.pi / params.omega
    tol = 1e-5
    times = sample_times(0.0, period, 5e-4)
    motion = mean_motion_batch(base, times, params)
    mean_x, mean_p = motion["mean_x"], motion["mean_p"]
    coarse = ehrenfest_residual(mean_x[::2], mean_p[::2], 1e-3, params)
    fine = ehrenfest_residual(mean_x, mean_p, 5e-4, params)
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


def check_energy_constancy(sweep) -> CriterionResult:
    """Mean energy is time independent and equals hbar omega (|chi|^2 + 1/2),
    on the shared `_label_sweep`."""
    params = OscillatorParams()
    spread_tol = 1e-10
    value_tol = 1e-9
    worst_spread = 0.0
    worst_value = 0.0
    for label, _, columns in sweep:
        energies = columns["energy"]
        expected = params.hbar * params.omega * (label.nbar + 0.5)
        worst_spread = max(worst_spread, float(energies.max() - energies.min()))
        worst_value = max(worst_value, float(np.max(np.abs(energies - expected))))
    return CriterionResult(
        "energy-constancy",
        worst_spread < spread_tol and worst_value < value_tol,
        f"max spread = {worst_spread:.3e} (tol {spread_tol:.0e}), "
        f"max value error = {worst_value:.3e} (tol {value_tol:.0e})",
    )


def check_wave_packet(plan) -> CriterionResult:
    """Series and closed-form packets agree; the packet width never changes.

    Each label's five slices, of its series state and each on a grid around
    its mean, come from one `packet_sweep` call, the sweep behind the
    `wavefunction` command. The maxima propagate nan, so a slice with a
    non-finite difference or variance fails it and its detail reads nan. A
    slice wholly past the seed underflow has norm 0 and no width: the detail
    counts it and it fails.
    """
    params = OscillatorParams()
    diff_tol = 1e-8
    var_tol = 1e-8
    expected_var = params.hbar / (2.0 * params.mass * params.omega)
    diffs, drifts, dead = [], [], 0
    times = (0.0, 0.7, math.pi, 4.2, 2.0 * math.pi)
    for label, _, state in plan:
        _, series, closed, norms, variances = packet_sweep(label, state, times, params)
        diffs.append(np.max(np.abs(series - closed)))
        drifts.append(np.max(np.abs(variances[norms != 0] - expected_var), initial=0.0))
        dead += int(np.count_nonzero(norms == 0))
    worst_diff, worst_var = float(np.max(diffs)), float(np.max(drifts))
    detail = (
        f"max |series - closed| = {worst_diff:.3e} (tol {diff_tol:.0e}), "
        f"max width drift = {worst_var:.3e} (tol {var_tol:.0e})"
    ) + (f", slices wholly past the seed underflow = {dead}" if dead else "")
    passed = worst_diff < diff_tol and worst_var < var_tol and not dead
    return CriterionResult("wave-packet-nondiffusion", passed, detail)


def check_generating_identity(seed: int) -> CriterionResult:
    """Hermite generating-function partial sums converge to exp(2xt - t^2)."""
    tol = 1e-12
    u = _uniform_draws(seed, 40)
    xs = -3.0 + 6.0 * u[0::2]
    ts = -0.9 + 1.8 * u[1::2]
    worst = 0.0
    for x, t in zip(xs.tolist(), ts.tolist()):
        worst = max(worst, generating_sum_check(x, t, 60))
    return CriterionResult(
        "hermite-generating-identity",
        worst < tol,
        f"max residual = {worst:.3e} (tol {tol:.0e})",
    )


def check_annihilation_eigenstate(plan) -> CriterionResult:
    """The evolved series state of each label stays an annihilation
    eigenstate, except when deliberately under-truncated."""
    params = OscillatorParams()
    tol = 1e-10
    worst = 0.0
    times = (0.0, 1.1)
    for label, _, base in plan:
        closed = averages_closedform_batch(label, times, params)
        for k, t in enumerate(times):
            chit = complex(closed["a_avg_re"][k], closed["a_avg_im"][k])  # <a>
            state = propagate_fock(base, t, params)
            worst = max(worst, annihilation_residual(state, CoherentLabel(chit)))
    # under-truncated control: the residual must be grossly visible
    bad_label = CoherentLabel(3 + 0j)
    bad = annihilation_residual(coherent_coefficients(bad_label, 12), bad_label)
    return CriterionResult(
        "annihilation-eigenstate",
        worst < tol and bad > 1e-2,
        f"max residual = {worst:.3e} (tol {tol:.0e}); "
        f"under-truncated control = {bad:.3e} (must exceed 1e-02)",
    )


def _phase_symmetry_draws(seed: int):
    """The states, angles and classical points `check_phase_symmetry` draws.

    Returns a (100, 25) block of normalized states at n_max 24 with i.i.d.
    complex Gaussian amplitudes, one angle per state, uniform in
    [-4 pi, 4 pi], and one classical (x, p) pair per state, each coordinate
    2 N(0, 1). All come from the seed's `_uniform_draws`.
    """
    rows, levels = 100, 25
    split = 2 * rows * levels
    u = _uniform_draws(seed, split + 3 * rows)
    amplitudes = _normal_draws(u[:split]).reshape(rows, 2, levels)
    states = amplitudes[:, 0] + 1j * amplitudes[:, 1]
    prob = states.real * states.real + states.imag * states.imag
    states /= np.sqrt(prob.sum(axis=1))[:, np.newaxis]
    alphas = -4.0 * math.pi + 8.0 * math.pi * u[split:split + rows]
    xs, ps = 2.0 * _normal_draws(u[split + rows:]).reshape(rows, 2).T
    return states, alphas, xs, ps


def check_phase_symmetry(seed: int) -> CriterionResult:
    """Phase rotation leaves <H> and <a+ a> alone, rotates <a>, and
    preserves the classical energy form of the rotated means.

    The drawn block goes through `phase_rotation_drifts`, which rotates
    c_n by e^(-i n alpha) elementwise and reads both blocks from the banded
    kernel; each reported value is the largest of its columns over the 100
    states.
    """
    inv_tol = 1e-10
    rot_tol = 1e-12
    states, alphas, xs, ps = _phase_symmetry_draws(seed)
    drifts = phase_rotation_drifts(states, alphas, OscillatorParams(), xs, ps)
    worst = {name: float(np.max(values)) for name, values in drifts.items()}
    worst_inv = max(worst["h_drift"], worst["n_drift"])
    worst_rot = max(worst["a_rotation_error"], worst["a_modulus_drift"])
    worst_energy = worst["xp_energy_drift"]
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
    levels = params.hbar * params.omega * (np.arange(state.n_max + 1) + 0.5)
    g = -1j * levels / params.hbar
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


def check_propagator_vs_rk4(plan) -> CriterionResult:
    """The exact spectral propagator agrees with brute RK4 integration on
    the amplitudes of every label of the plan; the detail reports the worst
    error and the largest step count of any label."""
    params = OscillatorParams()
    tol = 1e-7
    period = 2.0 * math.pi / params.omega
    worst = 0.0
    most_steps = 0
    for _, base, _ in plan:
        # RK4's global error on the top level, whose phase over the period is
        # theta = E_max period / hbar, is about N |theta / N|^5 / 120: take
        # the smallest N that holds that error to tol / 100.
        theta = params.omega * (base.n_max + 0.5) * period
        steps = math.ceil((100.0 * theta**5 / (120.0 * tol)) ** 0.25)
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
    instead of the built-in probe set; pinned controls stay pinned. A label
    that `_label_plan` cannot build raises ValueError before any criterion.
    """
    chi_set = DEFAULT_CHI_SET if chi is None else (complex(chi),)
    plan = _label_plan(chi_set, n_max)
    # ehrenfest-mean-motion's one label: chi, or the probe set's 1 + 0j
    motion = plan[0 if chi is not None else DEFAULT_CHI_SET.index(1 + 0j)][1]
    # one sweep for three criteria; if it raises, so does each reader
    sweep = functools.cache(lambda: _label_sweep(plan))
    battery: list[tuple[str, Callable[[], CriterionResult]]] = [
        ("minimal-uncertainty", lambda: check_minimal_uncertainty(sweep())),
        ("fock-uncertainty", check_fock_uncertainty),
        ("anomalous-averages", lambda: check_anomalous_averages(sweep())),
        ("ehrenfest-mean-motion", lambda: check_ehrenfest(motion)),
        ("energy-constancy", lambda: check_energy_constancy(sweep())),
        ("wave-packet-nondiffusion", lambda: check_wave_packet(plan)),
        ("hermite-generating-identity", lambda: check_generating_identity(seed)),
        ("annihilation-eigenstate", lambda: check_annihilation_eigenstate(plan)),
        ("phase-symmetry", lambda: check_phase_symmetry(seed)),
        ("propagator-vs-rk4", lambda: check_propagator_vs_rk4(plan)),
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
