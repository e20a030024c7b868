"""Time-batched sampling: phase rows, sample times and the averages' columns."""

import math

import numpy as np
import pytest

from oracle import closedform_trajectory
from oscilab.coherent import (
    TRUNCATION_MARGIN,
    CoherentLabel,
    coherent_coefficients,
    dynamical_coherent_state,
    resolve_n_max,
)
from oscilab.dynamics import propagate_fock, sample_count, sample_times
from oscilab.fock import (
    NormalizationError,
    OscillatorParams,
    TruncationWarning,
    level_phases,
)
from oscilab.observables import (
    RECORD_COLUMNS,
    SUPPORT_MASS_TOL,
    averages_bruteforce_batch,
)

PARAMS = OscillatorParams()


def test_phase_rows_are_bit_identical_to_the_per_state_propagators():
    params = OscillatorParams(omega=1.7)  # omega = 1 would hide reordering
    label = CoherentLabel(1.2 - 0.7j)
    n_max = resolve_n_max(label)
    base = coherent_coefficients(label, n_max)
    times = np.linspace(-3.0, 40.0, 123)
    block = base.coeffs * level_phases(params, times, n_max)
    for t, row in zip(times, block):
        np.testing.assert_array_equal(row, propagate_fock(base, t, params).coeffs)
        np.testing.assert_array_equal(
            row, dynamical_coherent_state(label, t, params, n_max).coeffs
        )


def test_bruteforce_and_closedform_trajectories_agree():
    label = CoherentLabel(-1.5 + 0.5j)
    base = coherent_coefficients(label, resolve_n_max(label))
    times = sample_times(0.0, 2 * math.pi, 0.01)
    brute = averages_bruteforce_batch(base, times, PARAMS)
    closed = closedform_trajectory(label, PARAMS, 0.0, 2 * math.pi, 0.01)
    np.testing.assert_array_equal(brute["time"], closed["time"])
    for name in RECORD_COLUMNS:
        np.testing.assert_allclose(brute[name], closed[name], atol=1e-9, rtol=0)


def test_bruteforce_sampling_rejects_gross_under_truncation():
    with pytest.raises(NormalizationError):
        averages_bruteforce_batch(
            coherent_coefficients(CoherentLabel(3), 4), sample_times(0.0, 1.0, 0.1), PARAMS
        )


def test_bruteforce_sampling_warns_when_only_the_edge_mass_is_too_large():
    label = CoherentLabel(1)
    n_max = resolve_n_max(label, tol=1e-10) - TRUNCATION_MARGIN
    coeffs = coherent_coefficients(label, n_max).coeffs
    # normalized within the default 1e-10, yet too much weight at the edge
    assert abs(np.linalg.norm(coeffs) - 1.0) < 1e-10
    assert np.sum(np.abs(coeffs[-2:]) ** 2) > SUPPORT_MASS_TOL
    with pytest.warns(TruncationWarning):
        averages_bruteforce_batch(
            coherent_coefficients(label, n_max), sample_times(0.0, 1.0, 0.1), PARAMS
        )


@pytest.mark.parametrize("dt, requested", [(5e-324, "inf"), (float("nan"), "nan")])
def test_sample_times_refuses_a_count_that_is_not_finite(dt, requested):
    with pytest.raises(ValueError, match=f"asks for {requested} time samples"):
        sample_times(0.0, 2 * math.pi, dt)


def test_sample_count_takes_any_finite_count():
    # the size bound is the CLI's admission; the library counts what it is asked
    assert sample_count(0.0, 2 * math.pi, 1e-300) > 10**300
    assert sample_times(0.0, 1.0, 1e-6).size == 1_000_001


def test_coarse_sample_times_are_the_even_fine_rows_to_the_bit():
    # 5e-4 is 1e-3 / 2 exactly in binary, so 5e-4 * 2k rounds as 1e-3 * k
    coarse = sample_times(0.0, 2.0 * math.pi, 1e-3)
    even = sample_times(0.0, 2.0 * math.pi, 5e-4)[::2]
    np.testing.assert_array_equal(coarse, even)
    assert coarse.tobytes() == even.tobytes()
