"""verify's oracles and draws against references: the RK4 oracle against
its own dense definition to the bit and the textbook step loop to rounding,
the phase-symmetry sweep against dense expectations, and the seeded draws."""

import math
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import oracle
from oracle import (
    PhaseAngle,
    expectation,
    make_hamiltonian,
    make_ladder,
    transform_state_phase,
)
from oscilab.coherent import CoherentLabel, coherent_coefficients, resolve_n_max
from oscilab.dynamics import propagate_fock
from oscilab.fock import OscillatorParams, StateVector
from oscilab import verify
from oscilab.verify import (
    DEFAULT_CHI_SET,
    _normal_draws,
    _phase_symmetry_draws,
    _uniform_draws,
    check_phase_symmetry,
    check_wave_packet,
    rk4_coefficients,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")
FORTY_DIGITS = 3141592653589793238462643383279502884197

CASES = [(OscillatorParams(), chi) for chi in DEFAULT_CHI_SET + (5 + 0j,)]
CASES.append((OscillatorParams(2.0, 0.5, 1.7), 1 - 0.5j))


def dense_rk4(state, params, t_total, steps):
    """RK4 with a dense matrix-vector product per stage."""
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


def dense_increment_rk4(state, params, t_total, steps):
    """R^steps - 1 from the dense stages on the identity, applied to the state.

    The stages give the one-step increment W = R(G dt) - 1 as a matrix; its
    diagonal is composed by the increment rule (1 + u)(1 + v) = 1 + (u + v
    + u v), taking the bits of `steps` from the lowest.
    """
    generator = -1j * make_hamiltonian(params, state.n_max).matrix / params.hbar
    dt = t_total / steps
    one = np.eye(state.n_max + 1, dtype=complex)
    k1 = generator @ one
    k2 = generator @ (one + 0.5 * dt * k1)
    k3 = generator @ (one + 0.5 * dt * k2)
    k4 = generator @ (one + dt * k3)
    increment = (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    w = np.diagonal(increment)
    assert not np.any(increment - np.diag(w))
    acc = np.zeros_like(w)
    for bit in reversed(bin(steps)[2:]):
        if bit == "1":
            acc = acc + w + acc * w
        w = 2.0 * w + w * w
    c = np.array(state.coeffs, dtype=complex)
    return c + c * acc


def _case(params, chi):
    label = CoherentLabel(chi)
    n_max = resolve_n_max(label)
    return coherent_coefficients(label, n_max), 2.0 * math.pi / params.omega


@pytest.mark.parametrize("params, chi", CASES)
def test_rk4_matches_the_dense_oracle_bit_for_bit(params, chi):
    base, period = _case(params, chi)
    for steps in (1, 2000, 33659):  # 33659: propagator-vs-rk4's on the probe set
        fast = rk4_coefficients(base, params, period, steps)
        reference = dense_increment_rk4(base, params, period, steps)
        assert np.array_equal(fast.view(float), reference.view(float)), steps


@pytest.mark.parametrize("params, chi", CASES)
def test_rk4_matches_the_textbook_step_loop(params, chi):
    base, period = _case(params, chi)
    for steps in (200, 2000):
        fast = rk4_coefficients(base, params, period, steps)
        reference = dense_rk4(base, params, period, steps)
        assert np.max(np.abs(fast - reference)) < 1e-13, steps


def test_rk4_is_not_the_exact_propagator():
    params = OscillatorParams()
    base, period = _case(params, 5 + 0j)
    numeric = rk4_coefficients(base, params, period, 200)
    exact = propagate_fock(base, period, params).coeffs
    assert np.max(np.abs(numeric - exact)) > 1e-6


SEEDS = [0, 1, 2, 7, 8, 2**64 - 1, 2**64, 2**64 + 1, FORTY_DIGITS, FORTY_DIGITS + 1]


def test_uniform_draws_repeat_per_seed_and_share_no_value_between_seeds():
    streams = [_uniform_draws(seed, 500) for seed in SEEDS]
    for seed, stream in zip(SEEDS, streams):
        assert stream.tobytes() == _uniform_draws(seed, 500).tobytes()
        assert stream[:40].tobytes() == _uniform_draws(seed, 40).tobytes()
        assert np.all((0.0 <= stream) & (stream < 1.0))
    # a stream that shifted or repeated another would share its values
    values = np.concatenate(streams)
    assert np.unique(values).size == values.size


def splitmix64_draws(seed, count):
    """The textbook SplitMix64 loop on Python integers, keyed like
    `_uniform_draws`: the seed folds into the starting state 64 bits at a
    time, then each draw is the top 53 bits of the next output."""
    mask = (1 << 64) - 1

    def mix(z):
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    state = 0
    while True:
        state = mix(((state ^ (seed & mask)) + 0x9E3779B97F4A7C15) & mask)
        seed >>= 64
        if not seed:
            break
    draws = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        draws.append((mix(state) >> 11) * 2.0**-53)
    return np.array(draws)


@pytest.mark.parametrize("seed", SEEDS)
def test_uniform_draws_are_the_splitmix64_loop_to_the_bit(seed):
    assert _uniform_draws(seed, 300).tobytes() == splitmix64_draws(seed, 300).tobytes()


def test_draws_follow_their_distributions():
    u = _uniform_draws(5, 20000)
    assert abs(u.mean() - 0.5) < 0.01
    assert np.histogram(u, bins=10, range=(0.0, 1.0))[0].min() > 1800
    g = _normal_draws(u)
    assert g.size == u.size
    assert abs(g.mean()) < 0.03 and abs(g.std() - 1.0) < 0.03
    assert abs(np.mean(np.abs(g) < 1.0) - 0.6827) < 0.015


def test_negative_seed_is_refused():
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        _uniform_draws(-1, 4)


def test_phase_symmetry_draws_keep_their_ranges():
    states, alphas, xs, ps = _phase_symmetry_draws(0)
    assert states.shape == (100, 25) and alphas.shape == xs.shape == ps.shape == (100,)
    prob = np.abs(states) ** 2
    np.testing.assert_allclose(prob.sum(axis=1), 1.0, rtol=0, atol=1e-14)
    assert prob[:, -2:].sum(axis=1).min() > 1e-4  # random states fill the top
    assert np.all(np.abs(alphas) <= 4.0 * math.pi)
    assert alphas.min() < -3.0 * math.pi and alphas.max() > 3.0 * math.pi
    assert 1.5 < np.std(np.concatenate([xs, ps])) < 2.5  # 2 N(0, 1)


def _measured(detail, name):
    return float(re.search(re.escape(name) + r" = ([0-9.e+-]+)", detail).group(1))


@pytest.mark.parametrize("seed", [0, 1, FORTY_DIGITS])
def test_phase_symmetry_matches_dense_expectations(seed, monkeypatch):
    params = OscillatorParams()
    states, alphas, _, _ = _phase_symmetry_draws(seed)
    a, ad = make_ladder(24)
    num = ad @ a
    h = make_hamiltonian(params, 24)
    worst_inv = worst_rot = 0.0
    for coeffs, alpha in zip(states, alphas):
        state = StateVector(coeffs)
        rotated = transform_state_phase(state, PhaseAngle(alpha))
        worst_inv = max(
            worst_inv,
            abs(expectation(h, rotated).real - expectation(h, state).real),
            abs(expectation(num, rotated).real - expectation(num, state).real),
        )
        a_before = expectation(a, state)
        a_after = expectation(a, rotated)
        worst_rot = max(
            worst_rot,
            abs(a_after - complex(np.exp(-1j * alpha)) * a_before),
            abs(abs(a_after) - abs(a_before)),
        )

    def no_dense_matrix(self):
        raise AssertionError("check_phase_symmetry built a dense operator")

    monkeypatch.setattr(oracle.Operator, "__post_init__", no_dense_matrix)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = check_phase_symmetry(seed)
    assert result.passed, result.detail
    assert abs(_measured(result.detail, "max invariant drift") - worst_inv) < 1e-13
    assert abs(_measured(result.detail, "max <a> rotation error") - worst_rot) < 1e-13


def test_verify_loads_no_numpy_random():
    code = (
        "import runpy, sys\n"
        "sys.argv = ['oscilab', 'verify']\n"
        "try:\n"
        "    runpy.run_module('oscilab', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "print('numpy.random' in sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    assert result.stdout.splitlines()[-2:] == ["10/10 criteria passed", "False"]


@pytest.mark.parametrize("part", ["closed", "variance"])
def test_a_non_finite_packet_slice_fails_and_its_detail_reads_nan(part, monkeypatch):
    # Python's max keeps its first argument over a nan, so only a maximum
    # that propagates nan fails a nan slice
    sweep = verify.packet_sweep

    def one_nan_slice(*args, **kwargs):
        points, series, closed, norm2, variance = sweep(*args, **kwargs)
        closed, variance = closed.copy(), variance.copy()
        if part == "closed":
            closed[2, 1000] = complex(math.nan, 0.0)
        else:
            variance[2] = math.nan
        return points, series, closed, norm2, variance

    plan = verify._label_plan((1.0 + 0j,), None)
    finite = check_wave_packet(plan)
    monkeypatch.setattr(verify, "packet_sweep", one_nan_slice)
    result = check_wave_packet(plan)
    assert finite.passed and not result.passed
    diff, drift = finite.detail.split(", ")
    if part == "closed":
        assert result.detail == f"max |series - closed| = nan (tol 1e-08), {drift}"
    else:
        assert result.detail == f"{diff}, max width drift = nan (tol 1e-08)"


def test_im_chi_27_fails_on_the_underflowing_hermite_seed_without_a_warning():
    # every closed-form slice is finite; the t = 4.2 slice's grid reaches
    # |xi| = 43.3, where the series' seed exp(-xi^2/2) underflows to 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = check_wave_packet(verify._label_plan((27j,), None))
    assert not result.passed
    assert result.detail == (
        "max |series - closed| = 7.009e-07 (tol 1e-08), "
        "max width drift = 5.929e-14 (tol 1e-08)"
    )


def test_slices_wholly_past_the_seed_underflow_are_counted_and_fail():
    # at chi = 36 the t = 0, pi and 2 pi grids lie wholly past the seed
    # underflow: norm 0 and no width, so the drift is the other two slices'
    # and the count says why the criterion fails
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = check_wave_packet(verify._label_plan((36 + 0j,), None))
    assert not result.passed
    assert result.detail == (
        "max |series - closed| = 8.857e-01 (tol 1e-08), "
        "max width drift = 3.595e-01 (tol 1e-08), "
        "slices wholly past the seed underflow = 3"
    )
