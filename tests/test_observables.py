import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle import (
    PhaseAngle,
    closedform_trajectory,
    expectation,
    fock_state,
    make_hamiltonian,
    make_ladder,
    make_xp,
    random_state,
    record_row,
    rotate_xp,
)
from oscilab.coherent import (
    CoherentLabel,
    coherent_coefficients,
    dynamical_coherent_state,
    resolve_n_max,
)
from oscilab.fock import (
    NormalizationError,
    OscillatorParams,
    StateVector,
    TruncationWarning,
)
from oscilab import observables
from oscilab.dynamics import propagate_fock
from oscilab.observables import (
    BATCH_CELLS,
    DEFAULT_NORM_TOL,
    RECORD_COLUMNS,
    _variance,
    averages_bruteforce,
    averages_bruteforce_batch,
    averages_bruteforce_fock,
    averages_closedform_batch,
    mean_motion_batch,
    phase_rotation_drifts,
    uncertainty_fock,
)
from oscilab.verify import DEFAULT_CHI_SET

PARAMS = OscillatorParams()


def test_fock_state_record():
    rec = averages_bruteforce(fock_state(3, 12), PARAMS)
    assert tuple(rec) == RECORD_COLUMNS
    assert all(values.dtype == float and values.shape == (1,) for values in rec.values())
    assert rec["mean_x"][0] == 0.0
    assert rec["mean_p"][0] == 0.0
    assert rec["uncertainty"][0] == pytest.approx(3.5, abs=1e-10)
    assert rec["n_avg"][0] == pytest.approx(3.0, abs=1e-12)
    assert rec["energy"][0] == pytest.approx(3.5, abs=1e-12)
    for name in ("a_avg_re", "a_avg_im", "a2_avg_re", "a2_avg_im"):
        assert rec[name][0] == 0


def test_ground_state_reaches_uncertainty_floor():
    rec = averages_bruteforce(fock_state(0, 8), PARAMS)
    assert rec["uncertainty"][0] == pytest.approx(0.5, abs=1e-12)


def test_coherent_occupation_matches_label():
    rec = averages_bruteforce(coherent_coefficients(CoherentLabel(2), 64), PARAMS)
    assert rec["n_avg"][0] == pytest.approx(4.0, abs=1e-10)


def test_closedform_values_at_zero_time():
    rec = averages_closedform_batch(CoherentLabel(1), [0.0], PARAMS)
    assert rec["mean_x"][0] == pytest.approx(math.sqrt(2), rel=1e-15)
    assert rec["mean_p"][0] == 0.0
    assert rec["uncertainty"][0] == 0.5
    assert complex(rec["a_avg_re"][0], rec["a_avg_im"][0]) == 1 + 0j


def test_closedform_energy():
    for t in (0.0, 0.9, 17.3):
        rec = averages_closedform_batch(CoherentLabel(1 + 1j), [t], PARAMS)
        assert rec["energy"][0] == pytest.approx(2.5, rel=1e-15)
        assert rec["uncertainty"][0] == 0.5


@pytest.mark.parametrize("chi", [0.5, 1, 2j, 1 + 1j, -1.5])
@pytest.mark.parametrize("t", [0.0, 0.3, 1.7, 2 * math.pi])
def test_closed_and_brute_force_agree_fieldwise(chi, t):
    label = CoherentLabel(chi)
    n_max = resolve_n_max(label, tol=1e-14)
    state = dynamical_coherent_state(label, t, PARAMS, n_max)
    brute = record_row(averages_bruteforce(state, PARAMS))
    single = averages_closedform_batch(label, [t], PARAMS)
    closed = [single[name][0] for name in RECORD_COLUMNS]
    np.testing.assert_allclose(brute, closed, atol=1e-9, rtol=0)


def test_bruteforce_energy_time_independent():
    label = CoherentLabel(1.5j)
    base = coherent_coefficients(label, resolve_n_max(label))
    energies = [
        averages_bruteforce(propagate_fock(base, t, PARAMS), PARAMS)["energy"][0]
        for t in np.linspace(0.0, 4 * math.pi, 100)
    ]
    assert max(energies) - min(energies) < 1e-10


@pytest.mark.parametrize(
    "params", [OscillatorParams(), OscillatorParams(2.0, 0.5, 3.0)]
)
def test_energy_partition_between_kinetic_and_potential(params):
    label = CoherentLabel(1 - 0.8j)
    for t in (0.0, 0.6):
        rec = averages_closedform_batch(label, [t], params)
        split = rec["mean_p2"][0] / (2 * params.mass) + (
            0.5 * params.mass * params.omega**2
        ) * rec["mean_x2"][0]
        assert rec["energy"][0] == pytest.approx(split, abs=1e-10)
        n_max = resolve_n_max(label)
        brute = averages_bruteforce(
            dynamical_coherent_state(label, t, params, n_max), params
        )
        split_brute = brute["mean_p2"][0] / (2 * params.mass) + (
            0.5 * params.mass * params.omega**2
        ) * brute["mean_x2"][0]
        assert brute["energy"][0] == pytest.approx(split_brute, abs=1e-10)


@pytest.mark.filterwarnings("ignore::oscilab.fock.TruncationWarning")
def test_uncertainty_floor_for_random_states():
    # random states legitimately occupy the top levels; the edge warning is expected
    rng = np.random.default_rng(42)
    for _ in range(200):
        rec = averages_bruteforce(random_state(20, rng), PARAMS)
        assert rec["uncertainty"][0] >= 0.5 - 1e-9
        assert rec["mean_x2"][0] >= rec["mean_x"][0] ** 2 - 1e-12
        assert rec["mean_p2"][0] >= rec["mean_p"][0] ** 2 - 1e-12


def test_pair_average_is_square_of_single_for_coherent_only():
    def pair_excess(state):
        rec = averages_bruteforce(state, PARAMS)
        a_avg = complex(rec["a_avg_re"][0], rec["a_avg_im"][0])
        return abs(complex(rec["a2_avg_re"][0], rec["a2_avg_im"][0]) - a_avg**2)

    assert pair_excess(coherent_coefficients(CoherentLabel(1.2 + 0.5j), 40)) < 1e-10
    # a generic superposition does not factorize
    mixed = StateVector(np.array([1, 1, 0, 0], dtype=complex) / math.sqrt(2))
    assert pair_excess(mixed) > 0.1


def test_unnormalized_state_rejected_with_measured_norm():
    doubled = StateVector(2.0 * fock_state(1, 6).coeffs)
    with pytest.raises(NormalizationError) as excinfo:
        averages_bruteforce(doubled, PARAMS)
    assert excinfo.value.norm == pytest.approx(2.0, rel=1e-12)


def test_top_heavy_state_warns_about_truncation():
    with pytest.warns(TruncationWarning) as caught:
        averages_bruteforce(fock_state(12, 12), PARAMS)
    assert [w.filename for w in caught] == [__file__]  # the caller's file


@pytest.mark.parametrize("t", [0.0, -0.0, 0.9, -3.3, 1e4])
def test_averages_bruteforce_is_row_0_of_the_batch_to_the_bit(t):
    params = OscillatorParams(2.0, 0.5, 3.0)
    base = coherent_coefficients(CoherentLabel(1.2 - 0.7j), 30)
    record = averages_bruteforce(propagate_fock(base, t, params), params)
    batch = averages_bruteforce_batch(base, [t], params)
    assert tuple(record) == tuple(batch) == RECORD_COLUMNS
    for name in RECORD_COLUMNS:
        assert record[name].tobytes() == batch[name].tobytes(), name


@pytest.mark.parametrize("gap", [0.5 * DEFAULT_NORM_TOL, 2.0 * DEFAULT_NORM_TOL])
def test_averages_bruteforce_refuses_norms_off_by_more_than_the_default_tolerance(gap):
    # |1> and a coherent state scaled to norm 1 + gap, off 1 by gap to an ulp
    for state in (fock_state(1, 6), coherent_coefficients(CoherentLabel(1 - 1j), 30)):
        scaled = StateVector((1.0 + gap) * state.coeffs)
        assert abs(abs(scaled.norm() - 1.0) - gap) < 1e-15
        if gap < DEFAULT_NORM_TOL:
            rec = averages_bruteforce(scaled, PARAMS)
            assert np.isfinite(rec["energy"][0])
            continue
        with pytest.raises(NormalizationError) as excinfo:
            averages_bruteforce(scaled, PARAMS)
        assert excinfo.value.norm == pytest.approx(scaled.norm(), rel=1e-15)
        assert excinfo.value.tol == DEFAULT_NORM_TOL


def test_uncertainty_fock_formula():
    assert uncertainty_fock(0, PARAMS) == 0.5
    assert uncertainty_fock(3, PARAMS) == 3.5
    assert uncertainty_fock(3, OscillatorParams(hbar=3.0)) == 10.5
    with pytest.raises(ValueError, match="level must be nonnegative, got -1"):
        uncertainty_fock(-1, PARAMS)


@pytest.mark.parametrize("hbar", [1.0, 2.0, 0.7, 1e-34, 1e300])
def test_uncertainty_fock_column_is_the_scalar_formula_to_the_bit(hbar):
    params = OscillatorParams(hbar=hbar)
    near_2_52 = [2**52 + d for d in range(-3, 4)]
    for levels in (np.arange(4097), np.array(near_2_52), range(5), [2**52 - 1]):
        want = np.array([hbar * (int(n) + 0.5) for n in levels])  # Python floats
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # inf past the float range, silently
            got = uncertainty_fock(levels, params)
        assert got.dtype == float and got.tobytes() == want.tobytes()
    # a scalar level gives the scalar
    assert np.ndim(uncertainty_fock(7, params)) == 0
    assert uncertainty_fock(7, params) == hbar * (7 + 0.5)
    assert uncertainty_fock(np.arange(0), params).shape == (0,)


def test_uncertainty_fock_names_a_negative_level_anywhere():
    for levels, named in (([-1, 0, 1], -1), ([0, 1, 2, -7], -7), ([3, -2, 5, -4], -4)):
        with pytest.raises(ValueError, match=f"level must be nonnegative, got {named}$"):
            uncertainty_fock(np.array(levels), PARAMS)


@pytest.mark.parametrize("n", range(11))
def test_uncertainty_fock_matches_bruteforce(n):
    rec = averages_bruteforce(fock_state(n, 13), PARAMS)
    assert rec["uncertainty"][0] == pytest.approx(uncertainty_fock(n, PARAMS), abs=1e-10)


@pytest.mark.parametrize("hbar", [1e-170, 1e200, 1e300])
def test_uncertainty_product_stays_in_range_where_var_x_var_p_leaves_it(hbar):
    # var_x var_p underflows below the normal floats at hbar 1e-170 and
    # overflows from about 1e154 up; its root hbar/2 stays in range
    params = OscillatorParams(hbar=hbar)
    base = coherent_coefficients(CoherentLabel(1 + 0.5j), 30)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        coherent = averages_bruteforce_batch(base, np.linspace(0.0, 1.0, 5), params)
        levels = averages_bruteforce_fock(range(10), 13, params)
    np.testing.assert_allclose(coherent["uncertainty"], 0.5 * hbar, rtol=1e-12)
    np.testing.assert_allclose(
        levels["uncertainty"], hbar * (np.arange(10) + 0.5), rtol=1e-12
    )


def test_variance_clipping_policy():
    assert _variance(1.0, 1.0) == 0.0
    assert _variance(4.0, 2.0 + 1e-13) == 0.0  # rounding-level negativity clips
    with pytest.raises(ValueError):
        _variance(4.0, 2.0 + 1e-5)  # real negativity is an error
    # elementwise on arrays, with one bad entry failing the whole batch
    np.testing.assert_array_equal(
        _variance(np.array([1.0, 4.0, 5.0]), np.array([1.0, 2.0 + 1e-13, 2.0])),
        [0.0, 0.0, 1.0],
    )
    with pytest.raises(ValueError):
        _variance(np.array([5.0, 4.0]), np.array([2.0, 2.0 + 1e-5]))


# blocks of 256 rows below: not a multiple of the block size, and negative
# times included
BATCH_SAMPLE_TIMES = np.linspace(-1.0, 7.0, 256 + 45)


@pytest.mark.parametrize("chi", DEFAULT_CHI_SET + (5.0, 3 - 4j))
def test_batched_bruteforce_matches_per_state_oracle(monkeypatch, chi):
    label = CoherentLabel(chi)
    base = coherent_coefficients(label, resolve_n_max(label))
    monkeypatch.setattr(observables, "BATCH_CELLS", 256 * (base.n_max + 1))
    columns = averages_bruteforce_batch(base, BATCH_SAMPLE_TIMES, PARAMS)
    assert tuple(columns) == RECORD_COLUMNS
    oracle = np.array(
        [
            record_row(averages_bruteforce(propagate_fock(base, t, PARAMS), PARAMS))
            for t in BATCH_SAMPLE_TIMES
        ]
    )
    for k, name in enumerate(RECORD_COLUMNS):
        np.testing.assert_array_equal(columns[name], oracle[:, k])


def test_batched_bruteforce_time_column_is_offset_by_base_time():
    base = propagate_fock(coherent_coefficients(CoherentLabel(1), 18), 0.5, PARAMS)
    times = np.array([0.0, 0.25, 1.0])
    np.testing.assert_array_equal(
        averages_bruteforce_batch(base, times, PARAMS)["time"], 0.5 + times
    )


def test_batched_bruteforce_shares_the_per_state_checks():
    label = CoherentLabel(3)
    with pytest.raises(NormalizationError) as excinfo:
        averages_bruteforce_batch(coherent_coefficients(label, 4), [0.0, 1.0], PARAMS)
    assert excinfo.value.norm == pytest.approx(
        coherent_coefficients(label, 4).norm(), rel=1e-12
    )
    with pytest.warns(TruncationWarning):
        averages_bruteforce_batch(fock_state(12, 12), np.arange(300.0), PARAMS)
    with pytest.raises(ValueError):
        averages_bruteforce_batch(fock_state(1, 6), np.zeros((2, 2)), PARAMS)
    empty = averages_bruteforce_batch(fock_state(1, 6), [], PARAMS)
    assert all(values.shape == (0,) for values in empty.values())


def test_closedform_anomalous_averages_track_label():
    label = CoherentLabel(0.7 - 1.1j)
    for t in (0.0, 2.1):
        rec = averages_closedform_batch(label, [t], PARAMS)
        chit = label.chi * complex(np.exp(-1j * PARAMS.omega * t))
        a_avg = complex(rec["a_avg_re"][0], rec["a_avg_im"][0])
        a2_avg = complex(rec["a2_avg_re"][0], rec["a2_avg_im"][0])
        assert a_avg == pytest.approx(chit, abs=1e-15)
        assert a2_avg == pytest.approx(chit * chit, abs=1e-15)
        assert rec["n_avg"][0] == pytest.approx(label.nbar, abs=1e-15)


def assert_kernel_matches_dense(states, params):
    """Each record field within 1e-13 of <c|M|c> with M the dense oracle
    product, relative to max(1, |<c|M|c>|, s); every state has the same
    n_max. s is the scale of M's entries: sqrt(hbar/2M omega) for x,
    sqrt(M hbar omega/2) for p, their squares for x^2 and p^2, hbar omega
    for H and 1 for the ladder products. A mean near 0 is a sum of terms of
    size s, so its rounding scales with s, not with the mean."""
    n_max = states[0].n_max
    a, ad = make_ladder(n_max)
    x, p = make_xp(params, n_max)
    x2_scale = params.hbar / (2.0 * params.mass * params.omega)
    p2_scale = params.mass * params.hbar * params.omega / 2.0
    ops = {
        "mean_x": (x, math.sqrt(x2_scale)), "mean_p": (p, math.sqrt(p2_scale)),
        "mean_x2": (x @ x, x2_scale), "mean_p2": (p @ p, p2_scale),
        "n_avg": (ad @ a, 1.0), "a_avg": (a, 1.0), "a2_avg": (a @ a, 1.0),
        "energy": (make_hamiltonian(params, n_max), params.hbar * params.omega),
    }
    for state in states:
        rec = averages_bruteforce(state, params)
        for name, (op, scale) in ops.items():
            want = expectation(op, state)
            if name in ("a_avg", "a2_avg"):
                got = complex(rec[f"{name}_re"][0], rec[f"{name}_im"][0])
            else:
                got, want = rec[name][0], want.real
            bound = 1e-13 * max(1.0, abs(want), scale)
            assert abs(got - want) <= bound, (name, got, want)


@pytest.mark.filterwarnings("ignore::oscilab.fock.TruncationWarning")
@pytest.mark.parametrize("n_max", [0, 1, 2, 16, 64, 551])
def test_kernel_matches_the_dense_matrices(n_max):
    rng = np.random.default_rng(n_max)
    params = OscillatorParams(2.0, 0.5, 3.0)
    # random states and |n_max> fill the top level, where the truncated
    # x.matrix @ x.matrix has no a a+ term: <n_max|x x|n_max> weighs n_max,
    # not 2 n_max + 1
    states = [random_state(n_max, rng) for _ in range(3)]
    states += [fock_state(n, n_max) for n in {0, n_max // 2, max(0, n_max - 1), n_max}]
    assert_kernel_matches_dense(states, params)
    assert_kernel_matches_dense(states, PARAMS)


@pytest.mark.filterwarnings("ignore::oscilab.fock.TruncationWarning")
@settings(deadline=None, max_examples=60)
@given(
    n_max=st.integers(0, 40),
    seed=st.integers(0, 2**32 - 1),
    hbar=st.floats(1e-3, 1e3),
    mass=st.floats(1e-3, 1e3),
    omega=st.floats(1e-3, 1e3),
)
# p's entries are sqrt(M hbar omega/2) = 418 here: this draw's <p> = 0.856
# rounds by 1.9e-13, past 1e-13 max(1, |<p>|) but far within 1e-13 * 418
@example(n_max=38, seed=242, hbar=40.0, mass=41.0, omega=213.0)
def test_kernel_matches_the_dense_matrices_for_any_state_and_units(
    n_max, seed, hbar, mass, omega
):
    state = random_state(n_max, np.random.default_rng(seed))
    assert_kernel_matches_dense([state], OscillatorParams(hbar, mass, omega))


# one row, and around the block bounds of the 552 levels of n_max 551 and
# past the one block of the 31 and 41 levels of n_max 30 and 40
BLOCK_EDGE_ROWS = [1, *(BATCH_CELLS // 552 + d for d in (-1, 0, 1))]
BLOCK_EDGE_ROWS += [BATCH_CELLS // 41 + 1, BATCH_CELLS // 31 + 1]


@pytest.mark.filterwarnings("ignore::oscilab.fock.TruncationWarning")
@pytest.mark.parametrize("rows", BLOCK_EDGE_ROWS)
def test_every_batched_row_equals_the_one_row_call_to_the_bit(rows):
    rng = np.random.default_rng(rows)
    times = rng.uniform(-5.0, 5.0, rows)
    bases = (random_state(30, rng, time=0.25), coherent_coefficients(CoherentLabel(20), 551))
    for base in bases:
        columns = averages_bruteforce_batch(base, times, PARAMS)
        for k in (0, rows // 2, rows - 1):
            state = propagate_fock(base, times[k], PARAMS)
            want = record_row(averages_bruteforce(state, PARAMS))
            assert record_row(columns, k) == want
    levels = rng.integers(0, 41, rows)
    columns = averages_bruteforce_fock(levels, 40, PARAMS)
    for k in (0, rows // 2, rows - 1):
        want = record_row(averages_bruteforce(fock_state(levels[k], 40), PARAMS))
        assert record_row(columns, k) == want


def _outcome(fn, base, times, params):
    """fn's result or the ValueError it raised, and every warning it issued
    as (category, text, file)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn(base, times, params)
        except ValueError as exc:  # NormalizationError included
            result = exc
    return result, [(w.category, str(w.message), w.filename) for w in caught]


def assert_mean_motion_is_the_batch_kernel(base, times, params):
    """mean_motion_batch gives averages_bruteforce_batch's mean_x and mean_p
    to the byte, or the same refusal; and the same warnings either way."""
    motion, motion_warnings = _outcome(mean_motion_batch, base, times, params)
    full, full_warnings = _outcome(averages_bruteforce_batch, base, times, params)
    assert motion_warnings == full_warnings
    assert all(filename == __file__ for _, _, filename in motion_warnings)
    if isinstance(full, ValueError):
        assert type(motion) is type(full) and str(motion) == str(full)
        return None
    assert tuple(motion) == ("mean_x", "mean_p")
    assert [values.tobytes() for values in motion.values()] == [
        full["mean_x"].tobytes(), full["mean_p"].tobytes()
    ]
    return motion


@settings(deadline=None, max_examples=80)
@given(
    chi_re=st.floats(-9.0, 9.0),
    chi_im=st.floats(-9.0, 9.0),
    hbar=st.floats(1e-3, 1e3),
    mass=st.floats(1e-3, 1e3),
    omega=st.floats(1e-3, 1e3),
    n_max=st.integers(0, 200),
    count=st.integers(0, 40),
    block_rows=st.integers(1, 41),
    seed=st.integers(0, 2**32 - 1),
)
@example(chi_re=1.0, chi_im=0.5, hbar=1.0, mass=1.0, omega=1.0, n_max=16,
         count=7, block_rows=1, seed=0)
# n_max 1 and 1-row blocks: <a> is one complex product per row, which must
# round as it does inside a 2-row block
@example(chi_re=0.0, chi_im=2.220446049250313e-16, hbar=1.0, mass=1.0,
         omega=1.0, n_max=1, count=2, block_rows=1, seed=0)
def test_mean_motion_batch_is_the_batch_kernels_means_to_the_bit(
    chi_re, chi_im, hbar, mass, omega, n_max, count, block_rows, seed
):
    # the blocks of `block_rows` rows cross bounds whenever count exceeds it;
    # the default bound gives the same bytes, one block or several
    params = OscillatorParams(hbar, mass, omega)
    base = coherent_coefficients(CoherentLabel(complex(chi_re, chi_im)), n_max)
    times = np.random.default_rng(seed).uniform(-10.0, 10.0, count)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(observables, "BATCH_CELLS", block_rows * (n_max + 1))
        motion = assert_mean_motion_is_the_batch_kernel(base, times, params)
    if motion is not None:
        default, _ = _outcome(mean_motion_batch, base, times, params)
        assert [v.tobytes() for v in default.values()] == [
            v.tobytes() for v in motion.values()
        ]


def test_mean_motion_batch_refuses_and_warns_as_the_batch_kernel():
    under = coherent_coefficients(CoherentLabel(3), 4)
    with pytest.raises(NormalizationError) as excinfo:
        mean_motion_batch(under, [0.0, 1.0], PARAMS)
    assert excinfo.value.norm == pytest.approx(under.norm(), rel=1e-12)
    assert_mean_motion_is_the_batch_kernel(under, [0.0, 1.0], PARAMS)
    with np.errstate(invalid="ignore"):  # cos(inf) is nan: non-finite rows
        with pytest.raises(ValueError, match="coefficients must be finite"):
            mean_motion_batch(fock_state(1, 6), [0.0, np.inf], PARAMS)
        assert_mean_motion_is_the_batch_kernel(fock_state(1, 6), [0.0, np.inf], PARAMS)
    with pytest.warns(TruncationWarning):
        mean_motion_batch(fock_state(12, 12), np.arange(300.0), PARAMS)
    assert_mean_motion_is_the_batch_kernel(fock_state(12, 12), np.arange(300.0), PARAMS)
    with pytest.raises(ValueError, match="one-dimensional"):
        mean_motion_batch(fock_state(1, 6), np.zeros((2, 2)), PARAMS)
    empty = mean_motion_batch(fock_state(1, 6), [], PARAMS)
    assert [values.shape for values in empty.values()] == [(0,), (0,)]


def test_fock_states_give_the_exact_uncertainty_product():
    levels = range(41)
    products = averages_bruteforce_fock(levels, 42, PARAMS)["uncertainty"]
    assert products.tobytes() == uncertainty_fock(levels, PARAMS).tobytes()
    for n, product in zip(levels, products):
        rec = averages_bruteforce(fock_state(n, 42), PARAMS)
        assert rec["uncertainty"][0] == product


def test_fock_columns_check_their_levels():
    with pytest.raises(ValueError):
        averages_bruteforce_fock([0, 7], 6, PARAMS)
    with pytest.raises(ValueError):
        averages_bruteforce_fock([-1], 6, PARAMS)
    with pytest.raises(ValueError):
        averages_bruteforce_fock([[0]], 6, PARAMS)
    with pytest.warns(TruncationWarning):
        averages_bruteforce_fock([5], 6, PARAMS)
    empty = averages_bruteforce_fock([], 6, PARAMS)
    assert tuple(empty) == RECORD_COLUMNS
    assert all(values.shape == (0,) for values in empty.values())


def test_drifts_rotate_the_given_classical_pairs_as_rotate_xp_does():
    params = OscillatorParams(2.0, 0.5, 1.7)
    states = np.array([random_state(12, seed).coeffs for seed in range(9)])
    alphas = np.linspace(-4.0 * math.pi, 4.0 * math.pi, 9)
    xs = np.linspace(-3.0, 3.0, 9)
    ps = np.linspace(2.5, -2.5, 9)

    def energy(x, p):
        return 0.5 * params.mass * params.omega**2 * x**2 + p**2 / (2.0 * params.mass)

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a full top level draws no warning
        drifts = phase_rotation_drifts(states, alphas, params, xs, ps)
    for k, (x, p, alpha) in enumerate(zip(xs, ps, alphas)):
        x_new, p_new = rotate_xp(x, p, PhaseAngle(alpha), params)
        want = abs(energy(x_new, p_new) - energy(x, p))
        assert abs(drifts["xp_energy_drift"][k] - want) <= 1e-13 * energy(x, p)
    assert max(drifts["h_drift"].max(), drifts["n_drift"].max()) < 1e-12


def test_drifts_need_one_angle_per_row_and_normalized_rows():
    states = np.array([fock_state(1, 4).coeffs] * 3)
    with pytest.raises(ValueError, match="one angle per row"):
        phase_rotation_drifts(states, [0.1, 0.2], PARAMS)
    with pytest.raises(NormalizationError):
        phase_rotation_drifts(2.0 * states, [0.1, 0.2, 0.3], PARAMS)


def textbook_closedform(label, t, params):
    """One RECORD_COLUMNS row of the closed forms in Python complex arithmetic."""
    hbar, mass, omega = params.hbar, params.mass, params.omega
    chit = label.chi * complex(np.exp(-1j * omega * t))
    a2 = chit * chit
    lam = label.nbar
    return (
        float(t),
        2.0 * math.sqrt(hbar / (2.0 * mass * omega)) * chit.real,
        2.0 * math.sqrt(mass * hbar * omega / 2.0) * chit.imag,
        (hbar / (2.0 * mass * omega)) * (2.0 * a2.real + 2.0 * lam + 1.0),
        (mass * hbar * omega / 2.0) * (2.0 * lam + 1.0 - 2.0 * a2.real),
        lam,
        chit.real,
        chit.imag,
        a2.real,
        a2.imag,
        0.5 * hbar,
        hbar * omega * (lam + 0.5),
    )


CLOSED_TIMES = [0.0, -0.0, -3.3, 0.7, 50.0, 1e4, 1e6]
CLOSED_LABELS = [0j, 1.5 + 0j, -3.0 + 0j, 0.8j, -1.5 + 0.5j, 0.7 - 1.3j, 20.0 + 7.0j]
CLOSED_PARAMS = [
    OscillatorParams(),
    OscillatorParams(2.0, 0.5, 1.7),
    OscillatorParams(0.3, 3.0, 123.4),
]


@pytest.mark.parametrize("params", CLOSED_PARAMS)
@pytest.mark.parametrize("chi", CLOSED_LABELS)
def test_closedform_columns_are_the_textbook_formula_to_the_bit(chi, params):
    # numpy's complex `*` would move some of these cells by an ulp; the kernel
    # takes the same real products as Python's complex arithmetic
    label = CoherentLabel(chi)
    reference = np.array([textbook_closedform(label, t, params) for t in CLOSED_TIMES])
    columns = averages_closedform_batch(label, CLOSED_TIMES, params)
    assert tuple(columns) == RECORD_COLUMNS
    for k, name in enumerate(RECORD_COLUMNS):
        assert columns[name].tobytes() == reference[:, k].tobytes(), name
    for t, row in zip(CLOSED_TIMES, reference):
        single = averages_closedform_batch(label, [t], params)
        assert np.array([single[name][0] for name in RECORD_COLUMNS]).tobytes() == (
            row.tobytes()
        )


@pytest.mark.parametrize("params", CLOSED_PARAMS)
@pytest.mark.parametrize("t_start, dt", [(-3.3, 0.37), (1e6, 0.25)])
def test_closedform_trajectory_is_the_textbook_formula_to_the_bit(params, t_start, dt):
    label = CoherentLabel(-1.5 + 0.5j)
    columns = closedform_trajectory(label, params, t_start, t_start + 20 * dt, dt)
    reference = np.array([textbook_closedform(label, t, params) for t in columns["time"]])
    assert columns["time"].size == 21
    for k, name in enumerate(RECORD_COLUMNS):
        assert columns[name].tobytes() == reference[:, k].tobytes(), name


def test_closedform_columns_take_a_flat_time_axis():
    empty = averages_closedform_batch(CoherentLabel(1.0), [], PARAMS)
    assert all(values.shape == (0,) for values in empty.values())
    with pytest.raises(ValueError, match="one-dimensional"):
        averages_closedform_batch(CoherentLabel(1.0), [[0.0, 1.0]], PARAMS)
