"""Columnar trajectories and the time-batched sampling behind them."""

import copy
import math
import pickle

import numpy as np
import pytest

from oracle import closedform_trajectory, record_row
from oscilab.coherent import (
    CoherentLabel,
    auto_n_max,
    coherent_coefficients,
    dynamical_coherent_state,
)
from oscilab.dynamics import (
    MAX_TIME_SAMPLES,
    Trajectory,
    propagate_fock,
    sample_times,
    sample_trajectory,
)
from oscilab.fock import (
    NormalizationError,
    OscillatorParams,
    TruncationWarning,
    level_phases,
)
from oscilab.observables import RECORD_COLUMNS, SUPPORT_MASS_TOL, ObservableRecord

PARAMS = OscillatorParams()


def test_phase_rows_are_bit_identical_to_the_per_state_propagators():
    params = OscillatorParams(omega=1.7)  # omega = 1 would hide reordering
    label = CoherentLabel(1.2 - 0.7j)
    n_max = auto_n_max(label) + 2
    base = coherent_coefficients(label, n_max)
    times = np.linspace(-3.0, 40.0, 123)
    block = base.coeffs * level_phases(params, times, n_max)
    for t, row in zip(times, block):
        np.testing.assert_array_equal(row, propagate_fock(base, t, params).coeffs)
        np.testing.assert_array_equal(
            row, dynamical_coherent_state(label, t, params, n_max).coeffs
        )


def test_columns_are_read_only_arrays_and_records_round_trip():
    traj = sample_trajectory(CoherentLabel(1 + 1j), PARAMS, 0.0, 1.0, 0.1)
    assert len(traj) == 11
    for name in RECORD_COLUMNS:
        values = traj.column(name)
        assert values.shape == (11,) and not values.flags.writeable
    records = traj.records
    assert len(records) == 11
    assert all(isinstance(record, ObservableRecord) for record in records)
    for name in RECORD_COLUMNS:
        np.testing.assert_array_equal(
            [record_row(record)[RECORD_COLUMNS.index(name)] for record in records],
            traj.column(name),
        )
    with pytest.raises(KeyError):
        traj.column("a_avg")  # complex averages are stored as _re/_im
    with pytest.raises(AttributeError):
        traj.dt = 1.0


def test_pickle_and_copy_rebuild_an_equal_trajectory():
    traj = sample_trajectory(CoherentLabel(0.5 - 1j), PARAMS, 0.0, 2.0, 0.25)
    for clone in (
        pickle.loads(pickle.dumps(traj)),
        copy.copy(traj),
        copy.deepcopy(traj),
    ):
        assert type(clone) is Trajectory and clone.dt == traj.dt
        for name in RECORD_COLUMNS:
            np.testing.assert_array_equal(clone.column(name), traj.column(name))
            assert not clone.column(name).flags.writeable


def test_from_columns_validates_shape_and_sampling():
    columns = {name: np.zeros(3) for name in RECORD_COLUMNS}
    columns["time"] = np.array([0.0, 0.5, 1.0])
    assert len(Trajectory.from_columns(columns, 0.5)) == 3
    with pytest.raises(ValueError):
        Trajectory.from_columns(columns, 0.25)
    with pytest.raises(ValueError):
        Trajectory.from_columns({**columns, "energy": np.zeros(2)}, 0.5)
    with pytest.raises(ValueError):
        Trajectory.from_columns({k: v for k, v in columns.items() if k != "energy"}, 0.5)
    with pytest.raises(ValueError):
        Trajectory.from_columns({name: np.zeros(0) for name in RECORD_COLUMNS}, 0.5)


def test_bruteforce_and_closedform_trajectories_agree():
    label = CoherentLabel(-1.5 + 0.5j)
    brute = sample_trajectory(label, PARAMS, 0.0, 2 * math.pi, 0.01)
    closed = closedform_trajectory(label, PARAMS, 0.0, 2 * math.pi, 0.01)
    np.testing.assert_array_equal(brute.column("time"), closed.column("time"))
    for name in RECORD_COLUMNS:
        np.testing.assert_allclose(
            brute.column(name), closed.column(name), atol=1e-9, rtol=0
        )


def test_bruteforce_sampling_rejects_gross_under_truncation():
    with pytest.raises(NormalizationError):
        sample_trajectory(CoherentLabel(3), PARAMS, 0.0, 1.0, 0.1, n_max=4)


def test_bruteforce_sampling_warns_when_only_the_edge_mass_is_too_large():
    label = CoherentLabel(1)
    n_max = auto_n_max(label, tol=1e-10)
    coeffs = coherent_coefficients(label, n_max).coeffs
    # normalized within the default 1e-10, yet too much weight at the edge
    assert abs(np.linalg.norm(coeffs) - 1.0) < 1e-10
    assert np.sum(np.abs(coeffs[-2:]) ** 2) > SUPPORT_MASS_TOL
    with pytest.warns(TruncationWarning):
        sample_trajectory(label, PARAMS, 0.0, 1.0, 0.1, n_max=n_max)


@pytest.mark.parametrize("dt", [1e-300, 5e-324, float("nan")])
def test_sample_times_refuses_oversized_counts(dt):
    with pytest.raises(ValueError, match=f"the limit is {MAX_TIME_SAMPLES}"):
        sample_times(0.0, 2 * math.pi, dt)


def test_sample_times_names_the_requested_count():
    with pytest.raises(ValueError, match="asks for 10000001 time samples"):
        sample_times(0.0, 1.0, 1e-7)
    assert sample_times(0.0, 1.0, 1e-6).size == 1_000_001


def test_coarse_sample_times_are_the_even_fine_rows_to_the_bit():
    # 5e-4 is 1e-3 / 2 exactly in binary, so 5e-4 * 2k rounds as 1e-3 * k
    coarse = sample_times(0.0, 2.0 * math.pi, 1e-3)
    even = sample_times(0.0, 2.0 * math.pi, 5e-4)[::2]
    np.testing.assert_array_equal(coarse, even)
    assert coarse.tobytes() == even.tobytes()
