import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscilab.coherent import (
    CoherentLabel,
    coherent_coefficients,
    resolve_n_max,
)
from oracle import (
    PhaseAngle,
    closedform_trajectory,
    expectation,
    fock_state,
    make_hamiltonian,
    make_ladder,
    phase_transform_ladder,
    random_state,
    rotate_xp,
    transform_state_phase,
)
from oscilab.dynamics import ehrenfest_residual, propagate_fock, sample_times
from oscilab.fock import OscillatorParams
from oscilab.observables import averages_bruteforce, averages_bruteforce_batch

PARAMS = OscillatorParams()


def test_phase_transform_zero_angle_is_identity():
    a, _ = make_ladder(6)
    np.testing.assert_array_equal(
        phase_transform_ladder(a, PhaseAngle(0.0)).matrix, a.matrix
    )


def test_phase_transform_half_turn_negates():
    a, _ = make_ladder(6)
    np.testing.assert_allclose(
        phase_transform_ladder(a, PhaseAngle(math.pi)).matrix, -a.matrix, atol=1e-15
    )


def test_phase_cancels_in_number_operator():
    a, ad = make_ladder(10)
    rotated = phase_transform_ladder(a, PhaseAngle(0.7))
    before = ad.matrix @ a.matrix
    after = rotated.dagger.matrix @ rotated.matrix
    np.testing.assert_allclose(after, before, atol=1e-14)


def test_rotate_xp_identity_and_quarter_turn():
    assert rotate_xp(1.3, -0.4, PhaseAngle(0.0), PARAMS) == (1.3, -0.4)
    np.testing.assert_allclose(
        rotate_xp(1.0, 0.0, PhaseAngle(math.pi / 2), PARAMS), (0.0, 1.0), atol=1e-15
    )


@settings(deadline=None)
@given(
    x=st.floats(-10, 10),
    p=st.floats(-10, 10),
    alpha=st.floats(-10, 10),
)
def test_rotate_xp_preserves_classical_energy(x, p, alpha):
    x_new, p_new = rotate_xp(x, p, PhaseAngle(alpha), PARAMS)
    before = 0.5 * x**2 + 0.5 * p**2
    after = 0.5 * x_new**2 + 0.5 * p_new**2
    assert after == pytest.approx(before, abs=1e-12)


def test_state_phase_transform_rotates_coherent_label():
    label = CoherentLabel(1.2 - 0.4j)
    alpha = PhaseAngle(0.9)
    rotated = transform_state_phase(coherent_coefficients(label, 32), alpha)
    expected = coherent_coefficients(
        CoherentLabel(label.chi * np.exp(-1j * alpha.alpha)), 32
    )
    np.testing.assert_allclose(rotated.coeffs, expected.coeffs, atol=1e-12)


def test_state_phase_transform_on_fock_is_global_phase():
    alpha = PhaseAngle(1.1)
    rotated = transform_state_phase(fock_state(3, 6), alpha)
    assert rotated.coeffs[3] == pytest.approx(np.exp(-3j * alpha.alpha), abs=1e-15)
    assert np.count_nonzero(rotated.coeffs) == 1


def test_state_phase_transform_expectations():
    # the broken-symmetry signature: <a> rotates, <a+ a> does not
    label = CoherentLabel(1.0)
    state = coherent_coefficients(label, 32)
    a, ad = make_ladder(32)
    num = ad @ a
    alpha = PhaseAngle(0.7)
    rotated = transform_state_phase(state, alpha)
    a_before = expectation(a, state)
    a_after = expectation(a, rotated)
    assert a_after == pytest.approx(np.exp(-1j * alpha.alpha) * a_before, abs=1e-12)
    assert abs(a_after - a_before) > 0.1
    assert expectation(num, rotated).real == pytest.approx(
        expectation(num, state).real, abs=1e-12
    )
    assert abs(rotated.norm() - state.norm()) < 1e-14


def test_fock_states_have_nothing_observable_to_rotate():
    state = fock_state(4, 10)
    rotated = transform_state_phase(state, PhaseAngle(2.3))
    before = averages_bruteforce(state, PARAMS)
    after = averages_bruteforce(rotated, PARAMS)
    for name in ("a_avg_re", "a_avg_im"):
        assert before[name][0] == after[name][0] == 0
    for name in ("uncertainty", "energy"):
        assert after[name][0] == pytest.approx(before[name][0], abs=1e-12)


def test_hamiltonian_expectation_invariant_under_phase():
    h = make_hamiltonian(PARAMS, 32)
    rng = np.random.default_rng(17)
    for _ in range(100):
        state = random_state(32, rng)
        alpha = PhaseAngle(rng.uniform(-2 * math.pi, 2 * math.pi))
        rotated = transform_state_phase(state, alpha)
        drift = abs(expectation(h, rotated).real - expectation(h, state).real)
        assert drift < 1e-10


def test_propagate_zero_time_is_identity():
    state = coherent_coefficients(CoherentLabel(1j), 12)
    evolved = propagate_fock(state, 0.0, PARAMS)
    np.testing.assert_array_equal(evolved.coeffs, state.coeffs)
    assert evolved.time == state.time


def test_propagate_preserves_populations():
    state = random_state(16, rng=5)
    evolved = propagate_fock(state, 3.7, PARAMS)
    np.testing.assert_allclose(
        np.abs(evolved.coeffs), np.abs(state.coeffs), atol=1e-15
    )


@settings(deadline=None)
@given(t1=st.floats(-10, 10), t2=st.floats(-10, 10))
def test_propagator_group_law(t1, t2):
    state = random_state(8, rng=2)
    two_steps = propagate_fock(propagate_fock(state, t1, PARAMS), t2, PARAMS)
    one_step = propagate_fock(state, t1 + t2, PARAMS)
    np.testing.assert_allclose(two_steps.coeffs, one_step.coeffs, atol=1e-12)


def test_sample_times_includes_endpoint():
    times = sample_times(0.0, 2 * math.pi, 2 * math.pi / 100)
    assert len(times) == 101
    assert times[-1] == pytest.approx(2 * math.pi, abs=1e-12)
    with pytest.raises(ValueError):
        sample_times(0.0, 1.0, -0.1)
    with pytest.raises(ValueError, match="dt must be finite, got inf"):
        sample_times(0.0, 1.0, math.inf)  # its one time would be 0 + inf * 0, nan


def test_mean_motion_follows_classical_solution():
    label = CoherentLabel(1 + 0.5j)
    base = coherent_coefficients(label, resolve_n_max(label))
    dt = 2 * math.pi / 256
    times = sample_times(0.0, 2 * math.pi, dt)
    columns = averages_bruteforce_batch(base, times, PARAMS)
    t = columns["time"]
    x0 = columns["mean_x"][0]
    p0 = columns["mean_p"][0]
    expected = x0 * np.cos(t) + (p0 / (PARAMS.mass * PARAMS.omega)) * np.sin(t)
    np.testing.assert_allclose(columns["mean_x"], expected, atol=1e-10)


def residual_of(columns: dict, dt: float):
    return ehrenfest_residual(columns["mean_x"], columns["mean_p"], dt, PARAMS)


def test_ehrenfest_residual_zero_for_stationary_state():
    base = fock_state(2, 8)
    columns = averages_bruteforce_batch(base, sample_times(0.0, 0.4, 0.1), PARAMS)
    assert residual_of(columns, 0.1) == (0.0, 0.0)


def test_ehrenfest_residual_small_and_quadratic_in_dt():
    label = CoherentLabel(1)
    coarse = residual_of(closedform_trajectory(label, PARAMS, 0.0, 2 * math.pi, 1e-3), 1e-3)
    fine = residual_of(closedform_trajectory(label, PARAMS, 0.0, 2 * math.pi, 5e-4), 5e-4)
    assert max(coarse) < 1e-5
    for c, f in zip(coarse, fine):
        assert c / f == pytest.approx(4.0, rel=0.2)


def test_ehrenfest_needs_three_records():
    columns = closedform_trajectory(CoherentLabel(1), PARAMS, 0.0, 0.01, 0.01)
    assert columns["time"].size == 2
    with pytest.raises(ValueError):
        residual_of(columns, 0.01)
    with pytest.raises(ValueError):  # one <p> short of the <x>
        ehrenfest_residual(np.zeros(3), np.zeros(2), 0.01, PARAMS)


def test_phase_angle_reduction():
    assert PhaseAngle(5 * math.pi).reduced == pytest.approx(math.pi, abs=1e-12)
    with pytest.raises(ValueError):
        PhaseAngle(float("inf"))
