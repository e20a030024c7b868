import contextlib
import math
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_hermite

from oracle import (
    SpatialGrid,
    default_packet_grid,
    eigenfunction,
    gauss_hermite_grid,
    hermite,
    psi_schrodinger_grid,
    slice_moments,
    trapezoid_grid,
)
from oscilab.coherent import CoherentLabel, coherent_coefficients
from oscilab.dynamics import propagate_fock
from oscilab.fock import DimensionMismatchError, OscillatorParams
from oscilab.observables import averages_closedform_batch
from oscilab import wavefunction
from oscilab.wavefunction import (
    WaveSample,
    eigenfunction_table,
    generating_sum_check,
    packet_moments,
    packet_sweep,
    psi_closed_grid,
    psi_series_grid,
)

PARAMS = OscillatorParams()
SRC = str(Path(__file__).resolve().parent.parent / "src")

# The package's complex-center Gaussian and the oracle's mean-coordinate form.
CLOSED_FORMS = {"complex_center": psi_closed_grid, "schrodinger": psi_schrodinger_grid}


def direct_eigenfunction(n, x, params):
    """Textbook formula oracle, safe only for small n."""
    xi = np.asarray(x) * math.sqrt(params.mass * params.omega / params.hbar)
    norm = (params.mass * params.omega / (math.pi * params.hbar)) ** 0.25
    norm /= math.sqrt(2.0**n * math.factorial(n))
    return norm * np.exp(-0.5 * xi**2) * eval_hermite(n, xi)


def one_slice(grid_form, label, x, t, params, *n_max):
    """A grid form at the one time t on the points x, a scalar or a 1-d
    array, through a 1-slice stack."""
    return grid_form(label, np.reshape(x, (1, -1)), [t], params, *n_max)[0]


def samples_from(values, grid):
    """The amplitude array the moment functions take, aligned with the grid."""
    values = np.asarray(values, dtype=complex)
    assert values.shape == grid.points.shape
    return values


def test_hermite_base_cases():
    xs = np.linspace(-3, 3, 7)
    np.testing.assert_array_equal(hermite(0, xs), np.ones(7))
    assert hermite(1, 2.5) == 5.0
    assert hermite(2, 1.5) == 7.0


def test_hermite_matches_scipy():
    rng = np.random.default_rng(3)
    xs = rng.uniform(-3, 3, size=40)
    for n in range(26):
        np.testing.assert_allclose(
            hermite(n, xs), eval_hermite(n, xs), rtol=1e-10, atol=1e-10
        )


def test_eigenfunction_values_at_origin():
    assert eigenfunction(0, 0.0, PARAMS) == pytest.approx(
        0.7511255444649425, rel=1e-15
    )
    assert eigenfunction(1, 0.0, PARAMS) == 0.0


@pytest.mark.parametrize(
    "params", [OscillatorParams(), OscillatorParams(2.0, 0.5, 3.0)]
)
def test_eigenfunction_matches_direct_formula(params):
    xs = np.linspace(-4 * params.length_scale, 4 * params.length_scale, 31)
    for n in range(11):
        np.testing.assert_allclose(
            eigenfunction(n, xs, params),
            direct_eigenfunction(n, xs, params),
            atol=1e-12,
        )


def test_eigenfunction_unit_norm_by_quadrature():
    grid = default_packet_grid(PARAMS)
    values = eigenfunction(3, grid.points, PARAMS)
    assert packet_moments(
        samples_from(values, grid), grid.points, grid.weights
    )[0] == pytest.approx(1.0, abs=1e-8)
    points, weights = gauss_hermite_grid(64, PARAMS)
    values = eigenfunction(3, points, PARAMS)
    assert packet_moments(values, points, weights)[0] == pytest.approx(1.0, abs=1e-12)


def test_eigenfunctions_orthonormal_under_quadrature():
    grid = default_packet_grid(PARAMS)
    table = eigenfunction_table(10, grid.points, PARAMS)
    gram = (table * grid.weights) @ table.T
    assert np.max(np.abs(gram - np.eye(11))) < 1e-7


def test_generating_sum_trivial_and_converged():
    assert generating_sum_check(1.7, 0.0, 0) == 0.0
    assert generating_sum_check(0.7, 0.4, 40) < 1e-12


def test_generating_sum_residual_squeezed_by_term_tail():
    # signed terms make the residual itself oscillate, but the absolute term
    # tail is a nonincreasing envelope that drives it to the rounding floor
    for x, t in ((1.1, 0.8), (-2.0, 0.55)):
        terms = [
            abs(t) ** k * abs(float(eval_hermite(k, x))) / math.factorial(k)
            for k in range(61)
        ]
        tails = [sum(terms[k + 1 :]) for k in range(41)]
        for b1, b2 in zip(tails, tails[1:]):
            assert b2 <= b1
        for k in range(6, 41):
            assert generating_sum_check(x, t, k) <= tails[k] + 1e-12
        assert generating_sum_check(x, t, 40) < 1e-12


def test_series_vacuum_is_ground_gaussian_with_phase():
    grid = default_packet_grid(PARAMS, npoints=201)
    for t in (0.0, 1.1):
        series = one_slice(psi_series_grid, CoherentLabel(0), grid.points, t, PARAMS, 16)
        expected = eigenfunction(0, grid.points, PARAMS) * np.exp(-0.5j * t)
        np.testing.assert_allclose(series, expected, atol=1e-14)


def test_series_matches_closed_form_at_origin():
    sample_series = one_slice(psi_series_grid, CoherentLabel(1), 0.0, 0.0, PARAMS, 64)[0]
    sample_closed = one_slice(psi_closed_grid, CoherentLabel(1), 0.0, 0.0, PARAMS)[0]
    assert abs(sample_series - sample_closed) < 1e-10


@pytest.mark.parametrize("chi", [0.5, 1, 2j, 1 + 1j, -1.5 + 0.5j])
@pytest.mark.parametrize("t", [0.0, 1.3, 2 * math.pi])
def test_series_and_closed_form_agree_on_grid(chi, t):
    label = CoherentLabel(chi)
    center = averages_closedform_batch(label, [t], PARAMS)["mean_x"][0]
    grid = default_packet_grid(PARAMS, center=center)
    series = one_slice(psi_series_grid, label, grid.points, t, PARAMS, 64)
    closed = one_slice(psi_closed_grid, label, grid.points, t, PARAMS)
    assert np.max(np.abs(series - closed)) < 1e-8


def test_two_closed_forms_agree_pointwise():
    # past |Im chi(t)| = 26.6 the textbook complex-centre form overflows;
    # the oracle's real-centred Gaussian cannot, so it is the reference there
    rng = np.random.default_rng(5)
    for chi in (1 + 1j, 27j, 36j, -30 + 20j):
        label = CoherentLabel(chi)
        for t in [*rng.uniform(0, 4 * math.pi, 20), 1e3, -1e4, 1e4]:
            center = averages_closedform_batch(label, [t], PARAMS)["mean_x"][0]
            x = center + rng.uniform(-4, 4)
            a = one_slice(psi_closed_grid, label, x, t, PARAMS)[0]
            b = one_slice(psi_schrodinger_grid, label, x, t, PARAMS)[0]
            assert np.isfinite(a)
            assert abs(a - b) < 1e-12, (chi, t, x, a, b)


def test_closed_form_vacuum():
    xs = np.linspace(-3, 3, 11)
    for closed_grid in CLOSED_FORMS.values():
        values = one_slice(closed_grid, CoherentLabel(0), xs, 0.7, PARAMS)
        expected = eigenfunction(0, xs, PARAMS) * np.exp(-0.35j)
        np.testing.assert_allclose(values, expected, atol=1e-14)


@pytest.mark.parametrize(
    "params", [OscillatorParams(), OscillatorParams(2.0, 0.5, 3.0)]
)
def test_packet_width_never_changes(params):
    label = CoherentLabel(2)
    expected_var = params.hbar / (2 * params.mass * params.omega)
    for t in np.linspace(0.0, 2 * math.pi / params.omega, 7):
        center = averages_closedform_batch(label, [t], params)["mean_x"][0]
        grid = default_packet_grid(params, center=center)
        values = one_slice(psi_closed_grid, label, grid.points, t, params)
        _, _, var = packet_moments(samples_from(values, grid), grid.points, grid.weights)
        assert var == pytest.approx(expected_var, abs=1e-9)


def test_packet_center_tracks_mean_position():
    label = CoherentLabel(1.5)
    for t in (0.0, 0.9, 2.4):
        mean_x = averages_closedform_batch(label, [t], PARAMS)["mean_x"][0]
        grid = default_packet_grid(PARAMS, center=mean_x)
        values = one_slice(psi_series_grid, label, grid.points, t, PARAMS, 64)
        step = grid.points[1] - grid.points[0]
        peak = grid.points[np.argmax(np.abs(values))]
        assert abs(peak - mean_x) <= step


def test_phase_gradient_at_center_is_mean_momentum():
    label = CoherentLabel(1 + 1j)
    h = 1e-5
    for t in (0.4, 2.0):
        rec = averages_closedform_batch(label, [t], PARAMS)
        mean_x, mean_p = rec["mean_x"][0], rec["mean_p"][0]
        for closed_grid in CLOSED_FORMS.values():
            left = one_slice(closed_grid, label, mean_x - h, t, PARAMS)[0]
            right = one_slice(closed_grid, label, mean_x + h, t, PARAMS)[0]
            gradient = np.angle(right / left) / (2 * h)
            assert gradient == pytest.approx(mean_p / PARAMS.hbar, abs=1e-6)


def test_quadrature_norm_ground_state():
    grid = trapezoid_grid(-8.0, 8.0, 2001)
    values = eigenfunction(0, grid.points, PARAMS)
    assert packet_moments(
        samples_from(values, grid), grid.points, grid.weights
    )[0] == pytest.approx(1.0, abs=1e-10)


def test_packet_moments_refuse_an_empty_grid():
    empty = SpatialGrid(np.array([]), np.array([]))
    with pytest.raises(ValueError, match="zero-norm"):
        packet_moments([], empty.points, empty.weights)


def test_quadrature_norm_shifted_packet():
    label = CoherentLabel(2)
    t = 1.234
    center = averages_closedform_batch(label, [t], PARAMS)["mean_x"][0]
    grid = default_packet_grid(PARAMS, center=center)
    values = one_slice(psi_closed_grid, label, grid.points, t, PARAMS)
    assert packet_moments(
        samples_from(values, grid), grid.points, grid.weights
    )[0] == pytest.approx(1.0, abs=1e-8)


def test_packet_moments_length_mismatch():
    grid = trapezoid_grid(0.0, 1.0, 5)
    for size in (1, 4):
        with pytest.raises(DimensionMismatchError):
            packet_moments(np.ones(size, dtype=complex), grid.points, grid.weights)


@pytest.mark.parametrize(
    "bad", [complex(math.nan, 0.0), complex(0.0, math.inf), complex(-math.inf, 1.0)]
)
def test_moments_reject_non_finite_amplitudes(bad):
    grid = trapezoid_grid(-4.0, 4.0, 9)
    values = eigenfunction(0, grid.points, PARAMS).astype(complex)
    values[3] = bad
    with pytest.raises(ValueError, match="finite"):
        packet_moments(values, grid.points, grid.weights)


def test_wave_sample_requires_finite_value():
    with pytest.raises(ValueError):
        WaveSample(0.0, complex(float("nan"), 0.0))


def test_gauss_hermite_grid_is_positive_and_increasing():
    points, weights = gauss_hermite_grid(32, PARAMS)
    assert np.all(np.diff(points) > 0)
    assert np.all(weights > 0)


@pytest.mark.parametrize(
    "n_max, chi, grid",
    [
        (0, 0.4 - 0.2j, np.linspace(-3.0, 9.0, 97)),
        (1, -1.0 + 0.5j, np.linspace(-7.5, 2.0, 101)),
        (2, 1.5j, np.linspace(0.3, 6.0, 33)),
        (64, 2.0 - 1.0j, np.linspace(-6.0, 11.0, 401)),
        (589, 20.0 * np.exp(0.7j), np.linspace(10.0, 30.0, 2001)),
    ],
)
def test_series_is_the_float_table_product_to_the_bit(n_max, chi, grid):
    # off-centre grids; the series is the float table product summed in a
    # fixed order, k ascending, to the bit, and within 1e-13 of the dense
    # (BLAS) product, whose summation order is its own
    label = CoherentLabel(chi)
    for t in (0.0, 0.9):
        coeffs = propagate_fock(coherent_coefficients(label, n_max), t, PARAMS).coeffs
        table = eigenfunction_table(n_max, grid, PARAMS)
        fixed_order = np.zeros(grid.size, dtype=complex)
        for c_k, row in zip(coeffs, table):
            fixed_order += c_k * row
        series = one_slice(psi_series_grid, label, grid, t, PARAMS, n_max)
        assert series.dtype == complex
        assert np.array_equal(series, fixed_order)
        assert series.tobytes() == fixed_order.tobytes()
        assert np.max(np.abs(series - coeffs @ table)) <= 1e-13


STACK_LABELS = {0: 0.4 - 0.2j, 1: -1.0 + 0.5j, 64: 2.0 - 1.0j, 589: 20.0 * np.exp(0.7j)}


@pytest.mark.parametrize("slices", [1, 2, 9])
@pytest.mark.parametrize("n_max", sorted(STACK_LABELS))
@pytest.mark.parametrize("pass_points", [None, 2 * 2001])
def test_stacked_slices_equal_the_per_slice_calls_to_the_bit(
    monkeypatch, slices, n_max, pass_points
):
    # each slice has its own time and its own grid around its own mean; with
    # pass_points set, the 9-slice stack runs in passes of 2, 2, 2, 2 and 1
    if pass_points is not None:
        monkeypatch.setattr(wavefunction, "_SERIES_PASS_POINTS", pass_points)
    label = CoherentLabel(STACK_LABELS[n_max])
    times = np.linspace(0.0, 2.0 * math.pi, slices) + 0.3
    centers = averages_closedform_batch(label, times, PARAMS)["mean_x"].tolist()
    halfwidths = np.linspace(6.0, 10.0, slices)
    points = np.array(
        [np.linspace(c - h, c + h, 2001) for c, h in zip(centers, halfwidths)]
    )
    stacked = psi_series_grid(label, points, times, PARAMS, n_max)
    assert stacked.shape == points.shape and stacked.dtype == complex
    for s in range(slices):
        single = one_slice(psi_series_grid, label, points[s], times[s], PARAMS, n_max)
        np.testing.assert_array_equal(stacked[s].view(float), single.view(float))
        assert stacked[s].tobytes() == single.tobytes()


@pytest.mark.parametrize("npoints", [1, 7, 8, 9, 2001, 2008])
@pytest.mark.parametrize("several_passes", [False, True])
def test_padded_lanes_never_reach_the_series(monkeypatch, npoints, several_passes):
    # the recurrence runs on rows padded to whole 64-byte lines (8 floats)
    # with each slice's last point; the series of a 5-slice stack, in one
    # pass or in passes of 2, 2 and 1 slices, is the fixed-order product of
    # the textbook table, and each slice its own call, to the bit
    if several_passes:
        monkeypatch.setattr(wavefunction, "_SERIES_PASS_POINTS", 2 * npoints)
    widths = []
    rows = wavefunction._eigenfunction_rows

    def recorded(n_max, xs, params, scratch):
        widths.append(xs.shape)
        return rows(n_max, xs, params, scratch)

    monkeypatch.setattr(wavefunction, "_eigenfunction_rows", recorded)
    label, n_max = CoherentLabel(2.0 - 1.0j), 40
    times = np.linspace(0.0, 2.0, 5)
    points = np.linspace(-7.0, 7.0, npoints) + np.linspace(-0.5, 0.5, 5)[:, np.newaxis]
    stacked = psi_series_grid(label, points, times, PARAMS, n_max)
    width = -(-npoints // 8) * 8
    assert widths == ([(2, width)] * 2 + [(1, width)] if several_passes else [(5, width)])
    for s, t in enumerate(times):
        coeffs = propagate_fock(coherent_coefficients(label, n_max), t, PARAMS).coeffs
        fixed_order = np.zeros(npoints, dtype=complex)
        for c_k, row in zip(coeffs, textbook_table(n_max, points[s], PARAMS)):
            fixed_order += c_k * row
        single = one_slice(psi_series_grid, label, points[s], t, PARAMS, n_max)
        assert stacked[s].tobytes() == single.tobytes() == fixed_order.tobytes()


@pytest.mark.parametrize(
    "chi, n_max, times",
    [
        (20.0, 589, np.linspace(0.0, 2.0 * math.pi, 9)),
        (1.5 - 0.5j, 24, np.array([0.0, -0.0, -3.3, 1e4])),
        (-1.0 + 0.5j, 8, np.linspace(-5.0, 5.0, 40)),  # two passes of 20 slices
    ],
)
def test_every_slice_uses_the_dynamical_state_coefficients_to_the_bit(
    monkeypatch, chi, n_max, times
):
    # with phi_k replaced by the indicator of point k, the series at point k
    # of slice s is c_k(t_s) itself (its zeros made +0 by the accumulator)
    def indicator_rows(top, points, params, scratch):
        for k in range(top + 1):
            row = np.zeros(points.shape)
            row[:, k] = 1.0
            yield row

    monkeypatch.setattr(wavefunction, "_eigenfunction_rows", indicator_rows)
    monkeypatch.setattr(wavefunction, "_SERIES_PASS_POINTS", 20 * 600)
    label = CoherentLabel(chi)
    points = np.zeros((times.size, 600))
    series = psi_series_grid(label, points, times, PARAMS, n_max)
    for t, got in zip(times, series):
        want = propagate_fock(coherent_coefficients(label, n_max), t, PARAMS).coeffs + 0.0
        assert got[: n_max + 1].tobytes() == want.tobytes()
        assert not np.any(got[n_max + 1:])


MISMATCHED_STACKS = [
    (np.zeros((2, 5)), [0.0, 1.0, 2.0]),  # three times, two slices
    (np.zeros(2), [0.0, 1.0]),  # a flat axis for two times
    (np.zeros((2, 5)), 0.0),  # a stack for one time
    (np.zeros(5), 0.0),  # one time on a flat axis: a 1-slice stack is (1, 5)
    (np.zeros((1, 2, 5)), [0.0]),
    (np.zeros((2, 5)), np.zeros((2, 1))),
]


@pytest.mark.parametrize("x, t", MISMATCHED_STACKS)
def test_mismatched_stack_shapes_are_refused(x, t):
    with pytest.raises(DimensionMismatchError):
        psi_series_grid(CoherentLabel(1.0), x, t, PARAMS, 8)


@pytest.mark.parametrize("form", CLOSED_FORMS)
@pytest.mark.parametrize("x, t", MISMATCHED_STACKS)
def test_closed_forms_refuse_the_series_mismatched_shapes(x, t, form):
    with pytest.raises(DimensionMismatchError):
        CLOSED_FORMS[form](CoherentLabel(1.0), x, t, PARAMS)


def per_time_closed_form(label, xs, t, params, form):
    """The closed forms as one time writes them: every scalar factor a
    Python number, chi(t) the Python complex chi * exp(-i omega t)."""
    hbar, mass, omega = params.hbar, params.mass, params.omega
    prefactor = (mass * omega / (math.pi * hbar)) ** 0.25
    if form == "complex_center":
        chit = label.chi * complex(np.exp(-1j * omega * t))
        u = xs * math.sqrt(mass * omega / (2.0 * hbar)) - chit.real
        gauss = np.exp(-u * u + 1j * (chit.imag * (2.0 * u + chit.real)))
        factor = prefactor * complex(np.exp(-0.5j * omega * t))
        # factor * gauss as Python's complex `*` takes it
        values = np.empty_like(gauss)
        values.real = factor.real * gauss.real - factor.imag * gauss.imag
        values.imag = factor.real * gauss.imag + factor.imag * gauss.real
        return values
    rec = averages_closedform_batch(label, [t], params)
    xb, pb = float(rec["mean_x"][0]), float(rec["mean_p"][0])
    phase = np.exp(-1j * (0.5 * omega * t + 0.5 * pb * xb / hbar))
    plane = np.exp(1j * (pb / hbar) * xs)
    gauss = np.exp(-(mass * omega / (2.0 * hbar)) * (xs - xb) ** 2)
    return prefactor * phase * plane * gauss


PACKET_LARGE_TIMES = np.linspace(0.0, 2.0 * math.pi, 9)
EDGE_TIMES = np.array([0.0, -0.0, -3.3, 1e4])


@pytest.mark.parametrize("form", CLOSED_FORMS)
@pytest.mark.parametrize(
    "chi, params, times",
    [
        (20.0, PARAMS, PACKET_LARGE_TIMES),  # the packet-large label
        (20.0 * np.exp(2.4j), PARAMS, PACKET_LARGE_TIMES),
        (1.5 - 0.5j, OscillatorParams(2.0, 0.5, 3.0), PACKET_LARGE_TIMES),
        (20.0, PARAMS, EDGE_TIMES),
        (20.0 * np.exp(2.4j), PARAMS, EDGE_TIMES),
        (1.5 - 0.5j, OscillatorParams(2.0, 0.5, 3.0), EDGE_TIMES),
    ],
)
def test_closed_form_slices_are_their_single_time_calls_to_the_bit(
    chi, params, times, form
):
    # numpy's complex `*` in place of the complex-centre form's real-arithmetic
    # product moves 6,349 of the 18,009 packet-large cells, by up to 1.6e-16
    # (AVX-512 host)
    label = CoherentLabel(chi)
    centers = averages_closedform_batch(label, times, params)["mean_x"].tolist()
    points = np.array([default_packet_grid(params, center=c).points for c in centers])
    stacked = CLOSED_FORMS[form](label, points, times, params)
    assert stacked.shape == points.shape and stacked.dtype == complex
    for t, xs, got in zip(times.tolist(), points, stacked):
        single = one_slice(CLOSED_FORMS[form], label, xs, t, params)
        want = per_time_closed_form(label, xs, t, params, form)
        assert got.tobytes() == single.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "chi, params, n_max, times, halfwidth, npoints",
    [
        (20.0, PARAMS, 589, PACKET_LARGE_TIMES, 10.0, 2001),  # packet-large
        (1.5 - 0.5j, OscillatorParams(2.0, 0.5, 3.0), 40, EDGE_TIMES, 7.0, 501),
        (0, PARAMS, 16, np.array([0.3]), 10.0, 3),
    ],
)
def test_packet_sweep_rows_are_the_per_slice_calls_to_the_bit(
    chi, params, n_max, times, halfwidth, npoints
):
    label = CoherentLabel(chi)
    sweep = packet_sweep(label, times, params, n_max, halfwidth, npoints)
    assert [part.shape for part in sweep] == [(times.size, npoints)] * 3 + [times.shape] * 2
    for s, t in enumerate(times.tolist()):
        center = averages_closedform_batch(label, [t], params)["mean_x"][0]
        grid = default_packet_grid(params, center, halfwidth, npoints)
        series = one_slice(psi_series_grid, label, grid.points, t, params, n_max)
        closed = one_slice(psi_closed_grid, label, grid.points, t, params)
        want = per_time_closed_form(label, grid.points, t, params, "complex_center")
        assert closed.tobytes() == want.tobytes()
        norm2, _, variance = packet_moments(series, grid.points, grid.weights)
        expected = [grid.points, series, closed, np.float64(norm2), np.float64(variance)]
        assert [part[s].tobytes() for part in sweep] == [e.tobytes() for e in expected]


@pytest.fixture(scope="module")
def mpmath():
    return pytest.importorskip("mpmath")


def complex_center_at_40_digits(mpmath, label, x, t, params):
    """The textbook complex-centre packet,
        N exp(-|chi|^2/2) exp(-i omega t/2) exp(chi(t)^2/2)
            exp(-(M omega / 2 hbar) (x - chi(t) sqrt(2 hbar / M omega))^2),
    at 40 digits. It takes the double -omega * t that chi(t) is built from
    as its exact angle: that rounding, up to 1e-12 rad at omega t = 2e4, is
    the input's, and no form of the packet can undo it."""
    with mpmath.workdps(40):
        hbar, mass, omega = (mpmath.mpf(v) for v in (params.hbar, params.mass, params.omega))
        angle = mpmath.mpf(-params.omega * t)
        chi = mpmath.mpc(label.chi.real, label.chi.imag)
        chit = chi * mpmath.expj(angle)
        norm = (mass * omega / (mpmath.pi * hbar)) ** mpmath.mpf(0.25)
        shift = chit * mpmath.sqrt(2 * hbar / (mass * omega))
        return complex(
            norm * mpmath.exp(-abs(chi) ** 2 / 2 + chit * chit / 2)
            * mpmath.expj(angle / 2)
            * mpmath.exp(-(mass * omega / (2 * hbar)) * (mpmath.mpf(x) - shift) ** 2)
        )


@settings(max_examples=60, deadline=None)
@given(
    chi=st.complex_numbers(max_magnitude=37.0),
    units=st.tuples(*[st.floats(0.5, 2.0)] * 3),
    t=st.floats(-1e4, 1e4),
)
def test_closed_form_is_finite_and_within_1e_12_of_mpmath(mpmath, chi, units, t):
    # |Im chi(t)| past 26.6 included, where the textbook form's Gaussian
    # factor overflows in floats
    params = OscillatorParams(*units)
    label = CoherentLabel(chi)
    center = averages_closedform_batch(label, [t], params)["mean_x"][0]
    points = default_packet_grid(params, center).points
    got = one_slice(psi_closed_grid, label, points, t, params)
    assert np.isfinite(got).all()
    for x, value in zip(points[::100].tolist(), got[::100].tolist()):
        want = complex_center_at_40_digits(mpmath, label, x, t, params)
        assert abs(value - want) <= 1e-12 * max(1.0, abs(want)), (x, value, want)


# Prints the highest x86-64 level numpy dispatches to and the sha256 of the
# closed form on the packet-large stack: chi = 20, 9 times over one period,
# 2001 points around each mean.
_CLOSED_DIGEST_CHILD = """
import hashlib, math
import numpy as np
from oscilab.coherent import CoherentLabel
from oscilab.fock import OscillatorParams
from oscilab.observables import averages_closedform_batch
from oscilab.wavefunction import psi_closed_grid
simd = np.show_config(mode="dicts")["SIMD Extensions"]
levels = [n for n in (*simd.get("baseline", ()), *simd.get("found", ())) if n.startswith("X86_V")]
label, params = CoherentLabel(20.0), OscillatorParams()
times = np.linspace(0.0, 2.0 * math.pi, 9)
centers = averages_closedform_batch(label, times, params)["mean_x"]
points = np.linspace(centers - 10.0, centers + 10.0, 2001, axis=-1)
closed = psi_closed_grid(label, points, times, params)
print(max(levels, default="none"), hashlib.sha256(closed.tobytes()).hexdigest())
"""
_ABOVE_X86_V3 = "X86_V4 AVX512_ICL AVX512_SPR"


def closed_digest(disabled: str | None) -> tuple[str, str]:
    """(SIMD level, digest) from a child with NPY_DISABLE_CPU_FEATURES set
    to `disabled`, or unset."""
    env = {"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"}
    if disabled is not None:
        env["NPY_DISABLE_CPU_FEATURES"] = disabled
    result = subprocess.run(
        [sys.executable, "-c", _CLOSED_DIGEST_CHILD],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0, result.stderr
    level, digest = result.stdout.split()
    return level, digest


@pytest.mark.parametrize(
    "level, disabled", [("X86_V3", _ABOVE_X86_V3), ("X86_V2", _ABOVE_X86_V3 + " X86_V3")]
)
def test_closed_form_bytes_do_not_depend_on_the_simd_level(level, disabled):
    # numpy's complex `*` rounds differently at X86_V2 than above it, and
    # its float `exp` at AVX-512 than below it; the closed form uses neither
    child_level, digest = closed_digest(disabled)
    if child_level != level:
        pytest.skip(f"this machine dispatches to {child_level}, not {level}")
    assert digest == closed_digest(None)[1]


def test_packet_sweep_refuses_a_zero_norm_slice():
    # at chi = 36 the whole default grid lies past |xi| = 38.6, where the
    # series' Gaussian seed underflows, so the t = 0 slice is zero
    with pytest.raises(ValueError, match="zero-norm"):
        packet_sweep(CoherentLabel(36.0), [0.0], PARAMS, 1300)


def textbook_table(n_max, xs, params):
    """The recurrence written out row by row, with numpy temporaries."""
    xi = xs * math.sqrt(params.mass * params.omega / params.hbar)
    table = np.empty((n_max + 1, xs.size))
    table[0] = (params.mass * params.omega / (math.pi * params.hbar)) ** 0.25 * np.exp(
        -0.5 * xi * xi
    )
    if n_max >= 1:
        table[1] = math.sqrt(2.0) * xi * table[0]
    for k in range(1, n_max):
        table[k + 1] = (
            math.sqrt(2.0 / (k + 1)) * xi * table[k]
            - math.sqrt(k / (k + 1.0)) * table[k - 1]
        )
    return table


@pytest.mark.parametrize(
    "params", [OscillatorParams(), OscillatorParams(2.0, 0.5, 3.0)]
)
@pytest.mark.parametrize("n_max", [0, 1, 2, 40, 300])
def test_table_is_the_textbook_recurrence_to_the_bit(params, n_max):
    xs = np.linspace(-5.0, 8.0, 131) * params.length_scale
    reference = textbook_table(n_max, xs, params)
    table = eigenfunction_table(n_max, xs, params)
    assert np.array_equal(table, reference)
    assert table.tobytes() == reference.tobytes()


def test_vacuum_series_stops_at_its_last_nonzero_level(monkeypatch):
    # every coefficient above level 0 is exactly zero, so the n_max 64 series
    # runs one recurrence row and equals the n_max 0 series to the bit
    label = CoherentLabel(0)
    rows_run = []
    rows = wavefunction._eigenfunction_rows

    def counted(n_max, xs, params, scratch):
        for row in rows(n_max, xs, params, scratch):
            rows_run.append(row.shape)
            yield row

    monkeypatch.setattr(wavefunction, "_eigenfunction_rows", counted)
    times = np.array([0.0, 0.7, math.pi, 4.2, 2.0 * math.pi])
    points = np.tile(np.linspace(-10.0, 10.0, 2001), (times.size, 1))
    full = psi_series_grid(label, points, times, PARAMS, 64)
    assert len(rows_run) == 1
    bare = psi_series_grid(label, points, times, PARAMS, 0)
    assert full.tobytes() == bare.tobytes()
    for t in (0.0, -1.3):
        single = one_slice(psi_series_grid, label, points[0], t, PARAMS, 64)
        bare_single = one_slice(psi_series_grid, label, points[0], t, PARAMS, 0)
        assert single.tobytes() == bare_single.tobytes()


@contextlib.contextmanager
def caller_bufsize(size):
    """numpy's ufunc buffer set to `size` elements for the body, as a caller
    of the package might set it, and reset after."""
    before = np.setbufsize(size)
    try:
        yield
    finally:
        np.setbufsize(before)


def series_stack(npoints, slices=3):
    """(label, points, times) of a stack of shifted grids of `npoints` points."""
    times = np.linspace(0.0, 2.0, slices)
    points = np.linspace(-6.0, 6.0, npoints) + np.linspace(-0.5, 0.5, slices)[:, None]
    return CoherentLabel(1.5 - 0.5j), points, times


def test_series_restores_the_buffer_size_when_the_recurrence_raises(monkeypatch):
    rows = wavefunction._eigenfunction_rows
    inside = []

    def failing(n_max, xs, params, scratch):
        for k, row in enumerate(rows(n_max, xs, params, scratch)):
            inside.append(np.getbufsize())
            if k == 3:
                raise RuntimeError("recurrence failed")
            yield row

    monkeypatch.setattr(wavefunction, "_eigenfunction_rows", failing)
    label, points, times = series_stack(2001)
    with caller_bufsize(8192):
        with pytest.raises(RuntimeError, match="recurrence failed"):
            psi_series_grid(label, points, times, PARAMS, 24)
        assert np.getbufsize() == 8192
    assert inside[-1] == 2000  # the scope was entered: one row, to a multiple of 16


@pytest.mark.parametrize("npoints", [7, 2001, 8209])
def test_series_bytes_do_not_depend_on_the_buffer_size(monkeypatch, npoints):
    label, points, times = series_stack(npoints)
    calls = []
    for size in (16, 8192):
        with caller_bufsize(size):
            calls.append(psi_series_grid(label, points, times, PARAMS, 40).tobytes())
    # and with the scope taken out: numpy's default buffer, which copies
    monkeypatch.setattr(np, "setbufsize", lambda size: None)
    calls.append(psi_series_grid(label, points, times, PARAMS, 40).tobytes())
    assert calls[0] == calls[1] == calls[2]


@pytest.mark.parametrize("size", [16, 1024, 4096, 8192])
@pytest.mark.parametrize("npoints", [2, 7, 2001, 4113, 8209])
def test_series_never_asks_for_a_buffer_above_the_callers_and_restores_it(
    monkeypatch, size, npoints
):
    asked = []
    setbufsize = np.setbufsize

    def spy(value):
        asked.append(value)
        return setbufsize(value)

    label, points, times = series_stack(npoints)
    with caller_bufsize(size):
        monkeypatch.setattr(np, "setbufsize", spy)
        psi_series_grid(label, points, times, PARAMS, 12)
        monkeypatch.undo()
        assert np.getbufsize() == size
    assert asked and asked[-1] == size  # the last call restores the caller's
    for value in asked:
        # never above the caller's, and numpy 1's rules: a multiple of 16, at most 10^7
        assert 16 <= value <= size and value % 16 == 0
    assert min(asked) == min(size, max(16, npoints // 16 * 16))


def assert_sweep_is_the_per_slice_oracle(monkeypatch, label, times, params, n_max,
                                         halfwidth, npoints):
    """The (S, N) grid, weights and moments of `packet_sweep` against
    default_packet_grid and slice_moments of each slice, by bytes."""
    seen = []

    def spy(amplitudes, points, weights):
        moments = packet_moments(amplitudes, points, weights)
        seen.append((amplitudes, points, weights, moments))
        return moments

    monkeypatch.setattr(wavefunction, "packet_moments", spy)
    sweep = packet_sweep(label, times, params, n_max, halfwidth, npoints)
    (series, points, weights, moments), = seen
    assert points is sweep[0] and series is sweep[1]
    assert points.flags.c_contiguous and weights.flags.c_contiguous
    assert points.shape == weights.shape == (len(times), npoints)
    centers = averages_closedform_batch(label, times, params)["mean_x"]
    for s, center in enumerate(centers.tolist()):
        grid = default_packet_grid(params, center, halfwidth, npoints)
        assert points[s].tobytes() == grid.points.tobytes()
        assert weights[s].tobytes() == grid.weights.tobytes()
        want = np.array(slice_moments(series[s], grid))
        assert np.array([m[s] for m in moments]).tobytes() == want.tobytes()
        assert sweep[3][s] == want[0] and sweep[4][s] == want[2]


def test_packet_sweep_grids_and_moments_are_the_per_slice_oracle_to_the_bit(monkeypatch):
    rng = np.random.default_rng(18)
    for _ in range(300):
        params = OscillatorParams(*(10.0 ** rng.uniform(-3.0, 3.0, size=3)))
        label = CoherentLabel(complex(*rng.uniform(-3.0, 3.0, size=2)))
        times = rng.uniform(-10.0, 10.0, size=int(rng.integers(1, 10)))
        halfwidth = float(10.0 ** rng.uniform(-2.0, 2.0))
        npoints = int(rng.integers(2, 2002))
        assert_sweep_is_the_per_slice_oracle(
            monkeypatch, label, times, params, 8, halfwidth, npoints
        )


@pytest.mark.parametrize(
    "chi, n_max, times",
    [
        (20.0, 589, PACKET_LARGE_TIMES),  # packet-large
        (-1.5 + 0.5j, 64, np.array([0.0, 0.7, math.pi, 4.2, 2.0 * math.pi])),  # verify
    ],
)
def test_packet_sweep_shapes_of_the_commands_are_the_per_slice_oracle(
    monkeypatch, chi, n_max, times
):
    assert_sweep_is_the_per_slice_oracle(
        monkeypatch, CoherentLabel(chi), times, PARAMS, n_max, 10.0, 2001
    )


def test_packet_moments_refuse_the_first_bad_slice_in_order():
    points = np.tile(np.linspace(-4.0, 4.0, 9), (3, 1))
    weights = np.ones_like(points)
    values = np.ones(points.shape, dtype=complex)
    values[1] = 0.0
    values[2, 4] = math.nan
    with pytest.raises(ValueError, match="zero-norm"):
        packet_moments(values, points, weights)
    values[0, 0] = math.inf
    with pytest.raises(ValueError, match="amplitudes must be finite"):
        packet_moments(values, points, weights)
    with pytest.raises(DimensionMismatchError):
        packet_moments(values, points, weights[:, 1:])


@pytest.mark.parametrize(
    "halfwidth, npoints, match",
    [
        (math.inf, 2001, "halfwidth must be finite and positive, got inf"),
        (math.nan, 2001, "halfwidth must be finite and positive, got nan"),
        (0.0, 2001, "halfwidth must be finite and positive, got 0.0"),
        (-1.0, 2001, "halfwidth must be finite and positive, got -1.0"),
        (10.0, 1, "need at least 2 points, got 1"),
        (1e-20, 2001, "around centre 28.284271247461902 is not strictly increasing"),
        (1e-15, 2001, "around centre 28.284271247461902 is not strictly increasing"),
        (1e154, 2001, "the grid of halfwidth 1e+154 around centre 28.284271247461902 "
                      "is too wide"),
    ],
)
def test_packet_sweep_refuses_a_bad_grid_without_a_warning(halfwidth, npoints, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(match)):
            packet_sweep(CoherentLabel(20.0), [0.0, 1.0], PARAMS, 589, halfwidth, npoints)


@settings(max_examples=60, deadline=None)
@given(
    log_units=st.tuples(*[st.floats(-12.0, 12.0)] * 3),
    log_halfwidth=st.floats(-25.0, 160.0),
    chi=st.complex_numbers(max_magnitude=5.0),
)
def test_packet_sweep_returns_or_refuses_without_a_warning(log_units, log_halfwidth, chi):
    # nothing may warn on the way, and a returned closed form is finite
    params = OscillatorParams(*(10.0**u for u in log_units))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            _, _, closed, _, _ = packet_sweep(
                CoherentLabel(chi), [0.0, 0.5], params, 40, 10.0**log_halfwidth, 41
            )
        except ValueError:
            return
    assert np.isfinite(closed).all()
