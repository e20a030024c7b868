import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammainc
from scipy.stats import poisson

from oscilab import coherent
from oscilab.coherent import (
    TRUNCATION_MARGIN,
    CoherentLabel,
    annihilation_residual,
    coherent_coefficients,
    occupation_probability,
    resolve_n_max,
    truncation_tail,
)
from oracle import auto_n_max, make_ladder
from oscilab.dynamics import propagate_fock
from oscilab.fock import OscillatorParams
from oscilab.observables import averages_closedform_batch
from oscilab.verify import DEFAULT_CHI_SET

PARAMS = OscillatorParams()


def evolved_label(label, t):
    """chi(t) = chi exp(-i omega t) as the label the a_avg columns hold."""
    closed = averages_closedform_batch(label, [t], PARAMS)
    return CoherentLabel(complex(closed["a_avg_re"][0], closed["a_avg_im"][0]))


def poisson_tail_direct(lam: float, n_max: int, terms: int = 400) -> float:
    """Independent tail oracle: log-space term-by-term summation."""
    return sum(
        math.exp(-lam + n * math.log(lam) - math.lgamma(n + 1))
        for n in range(n_max + 1, n_max + 1 + terms)
    )


def test_vacuum_label_is_ground_state():
    state = coherent_coefficients(CoherentLabel(0), 5)
    np.testing.assert_array_equal(state.coeffs, [1, 0, 0, 0, 0, 0])
    assert state.time == 0.0


def test_single_level_amplitude():
    state = coherent_coefficients(CoherentLabel(1), 0)
    assert state.coeffs[0] == pytest.approx(0.6065306597126334, rel=1e-15)


def test_norm_is_one_minus_tail():
    label = CoherentLabel(1)
    state = coherent_coefficients(label, 64)
    assert state.norm() ** 2 == pytest.approx(1.0, abs=1e-12)
    # cross-check against the direct tail sum at a leakier truncation
    leaky = coherent_coefficients(CoherentLabel(2.3 + 0.4j), 12)
    lam = abs(2.3 + 0.4j) ** 2
    assert leaky.norm() ** 2 == pytest.approx(
        1.0 - poisson_tail_direct(lam, 12), abs=1e-13
    )


@pytest.mark.parametrize("chi", [0.5, 1 + 1j, 2j, -2.5, 3.9])
def test_amplitudes_squared_are_poisson(chi):
    label = CoherentLabel(chi)
    state = coherent_coefficients(label, 48)
    probs = np.abs(state.coeffs) ** 2
    for n in range(49):
        expected = occupation_probability(label, n)
        if expected > 1e-300:
            assert probs[n] == pytest.approx(expected, rel=1e-12)


def test_occupation_probability_against_scipy():
    for chi in (0.7, 1.5j, 2 - 1j):
        label = CoherentLabel(chi)
        lam = label.nbar
        for n in (0, 1, 5, 20, 300):
            assert occupation_probability(label, n) == pytest.approx(
                float(poisson.pmf(n, lam)), rel=1e-10, abs=1e-300
            )


def test_occupation_probability_values():
    assert occupation_probability(CoherentLabel(1), 0) == pytest.approx(
        0.36787944117144233, rel=1e-15
    )
    assert occupation_probability(CoherentLabel(0), 0) == 1.0
    assert occupation_probability(CoherentLabel(0), 3) == 0.0
    # |chi|^2 = 4 puts the distribution mode at a 3-4 tie
    label = CoherentLabel(2)
    assert occupation_probability(label, 4) == pytest.approx(
        occupation_probability(label, 3), rel=1e-13
    )
    probs = [occupation_probability(label, n) for n in range(30)]
    assert {int(np.argmax(probs))} <= {3, 4}


def test_truncation_tail_values():
    assert truncation_tail(CoherentLabel(0), 0) == 0.0
    assert truncation_tail(CoherentLabel(0), 17) == 0.0
    assert truncation_tail(CoherentLabel(1), 0) == pytest.approx(
        0.6321205588285577, rel=1e-14
    )


def test_truncation_tail_matches_direct_sum():
    for chi, n_max in ((1.6, 10), (3j, 12), (0.4 - 0.2j, 3)):
        label = CoherentLabel(chi)
        assert truncation_tail(label, n_max) == pytest.approx(
            poisson_tail_direct(label.nbar, n_max), rel=1e-10
        )


def test_truncation_tail_monotone_nonincreasing():
    label = CoherentLabel(1.7 + 0.3j)
    tails = [truncation_tail(label, n) for n in range(40)]
    assert all(t2 <= t1 for t1, t2 in zip(tails, tails[1:]))


@pytest.mark.parametrize("chi", [0.3, 1 + 1j, -2.2 + 0.1j])
@pytest.mark.parametrize("n_max", [8, 32])
def test_norm_plus_tail_partition_of_unity(chi, n_max):
    label = CoherentLabel(chi)
    norm2 = coherent_coefficients(label, n_max).norm() ** 2
    assert norm2 + truncation_tail(label, n_max) == pytest.approx(1.0, abs=1e-12)


def test_evolve_label_identity_and_half_turn():
    label = CoherentLabel(1)
    assert evolved_label(label, 0.0).chi == label.chi
    assert evolved_label(label, math.pi).chi == pytest.approx(-1.0, abs=1e-15)


@settings(deadline=None)
@given(
    re=st.floats(-4, 4),
    im=st.floats(-4, 4),
    t=st.floats(-50, 50),
)
def test_evolve_label_preserves_modulus(re, im, t):
    label = CoherentLabel(complex(re, im))
    evolved = evolved_label(label, t)
    assert abs(evolved.chi) == pytest.approx(abs(label.chi), abs=1e-12)


def test_dynamical_state_at_zero_time():
    label = CoherentLabel(0.8 - 0.6j)
    np.testing.assert_array_equal(
        propagate_fock(coherent_coefficients(label, 20), 0.0, PARAMS).coeffs,
        coherent_coefficients(label, 20).coeffs,
    )


def test_dynamical_state_populations_frozen():
    label = CoherentLabel(1.3j)
    base = np.abs(coherent_coefficients(label, 24).coeffs) ** 2
    for t in (0.1, 1.7, 12.0):
        now = propagate_fock(coherent_coefficients(label, 24), t, PARAMS).coeffs
        now = np.abs(now) ** 2
        assert abs(np.sum(now) - np.sum(base)) < 1e-14
        np.testing.assert_allclose(now, base, atol=1e-15)


def test_dynamical_state_full_period_global_phase():
    # at omega t = 2 pi every level phase is exp(-i 2 pi (n + 1/2)) = -1
    label = CoherentLabel(1)
    t0 = coherent_coefficients(label, 32).coeffs
    evolved = propagate_fock(coherent_coefficients(label, 32), 2 * math.pi, PARAMS).coeffs
    np.testing.assert_allclose(evolved, -t0, atol=1e-12)


@pytest.mark.parametrize("chi", [0.5, 1 + 1j, 2j])
@pytest.mark.parametrize("t", [0.0, 0.4, 3.9])
def test_dynamical_state_is_evolved_label_times_global_phase(chi, t):
    label = CoherentLabel(chi)
    dcs = propagate_fock(coherent_coefficients(label, 40), t, PARAMS).coeffs
    rotated = coherent_coefficients(evolved_label(label, t), 40).coeffs
    global_phase = np.exp(-0.5j * PARAMS.omega * t)
    np.testing.assert_allclose(dcs, global_phase * rotated, atol=1e-12)


def test_annihilation_residual_vacuum_exact_zero():
    label = CoherentLabel(0)
    assert annihilation_residual(coherent_coefficients(label, 6), label) == 0.0


def test_annihilation_residual_well_truncated():
    label = CoherentLabel(1)
    state = coherent_coefficients(label, 64)
    residual = annihilation_residual(state, label)
    bound = abs(state.coeffs[-1]) * math.sqrt(65)
    assert residual < 1e-10
    # the analytic bound binds only above the rounding floor of the product
    assert residual <= bound + 1e-14


def test_annihilation_residual_under_truncated():
    label = CoherentLabel(3)
    assert annihilation_residual(coherent_coefficients(label, 12), label) > 0.01


@pytest.mark.parametrize("chi", [1, 2j, 1 + 1j])
def test_annihilation_residual_decays_at_tail_bound_rate(chi):
    noise_floor = 1e-13  # rounding of the product; decay saturates here
    label = CoherentLabel(chi)
    residuals = []
    for n_max in (16, 32, 64):
        state = coherent_coefficients(label, n_max)
        residual = annihilation_residual(state, label)
        bound = abs(state.coeffs[-1]) * math.sqrt(n_max + 1)
        assert residual <= max(bound * (1 + 1e-9), noise_floor)
        residuals.append(residual)
    for r1, r2 in zip(residuals, residuals[1:]):
        assert r2 <= max(r1, noise_floor)


@pytest.mark.parametrize("chi", DEFAULT_CHI_SET)
@pytest.mark.parametrize("n_max", [4, 12, 64, 622])
def test_annihilation_residual_is_the_dense_ladder_product_to_the_bit(chi, n_max):
    a, _ = make_ladder(n_max)
    label = CoherentLabel(chi)
    for t in (0.0, 1.1):
        state = propagate_fock(coherent_coefficients(label, n_max), t, PARAMS)
        evolved = evolved_label(label, t)
        dense = np.linalg.norm(a.matrix @ state.coeffs - evolved.chi * state.coeffs)
        assert annihilation_residual(state, evolved) == dense


def test_resolve_n_max_minimality():
    label = CoherentLabel(1.3 - 0.7j)
    n = resolve_n_max(label) - TRUNCATION_MARGIN
    assert truncation_tail(label, n) < 1e-12
    assert truncation_tail(label, n - 1) >= 1e-12


# |chi| whose smallest n_max with a tail below 1e-12 is 1024, the top of the
# search's first bracket, and the largest |chi| whose amplitudes are built
FIRST_BRACKET_EDGE_CHI = 28.560098510768736
BUILDABLE_EDGE_CHI = 37.6403


def test_resolve_n_max_edge_cases():
    assert resolve_n_max(CoherentLabel(0)) == TRUNCATION_MARGIN
    assert resolve_n_max(CoherentLabel(1), tol=2.0) == TRUNCATION_MARGIN
    assert resolve_n_max(CoherentLabel(1), tol=1e-18) > resolve_n_max(CoherentLabel(1))
    # on either side of the first bracket's top: one search, no cap
    edge = CoherentLabel(FIRST_BRACKET_EDGE_CHI)
    assert truncation_tail(edge, 1023) >= 1e-12
    assert resolve_n_max(edge) == 1024 + TRUNCATION_MARGIN
    assert resolve_n_max(CoherentLabel(FIRST_BRACKET_EDGE_CHI + 1e-3)) == 1025 + TRUNCATION_MARGIN
    # the largest buildable label resolves at every tolerance; past it, none
    last = CoherentLabel(BUILDABLE_EDGE_CHI)
    assert [resolve_n_max(last, tol=tol) for tol in (1e-12, 1e-18, 1e-24)] == [1692, 1761, 1819]
    assert np.isfinite(coherent_coefficients(last, 1819).coeffs).all()
    for chi in (37.6404, 1e100):
        with pytest.raises(ValueError, match="amplitudes underflow"):
            resolve_n_max(CoherentLabel(chi))


@pytest.mark.parametrize("tol", [0.0, -1e-12, math.nan, math.inf, -math.inf])
def test_resolve_n_max_refuses_a_tolerance_the_search_cannot_meet(tol):
    with pytest.raises(ValueError, match="tail tolerance must be finite and positive"):
        resolve_n_max(CoherentLabel(1), tol=tol)
    assert resolve_n_max(CoherentLabel(1), 3, tol) == 3  # an explicit n_max needs none


@pytest.mark.parametrize("chi", [37.6404, 27 + 27j, 40, 1e5, 1e6, 1e100])
def test_an_underflowing_label_is_refused_before_any_tail_walk(monkeypatch, chi):
    walks = []

    def tail(label, n_max):
        walks.append(n_max)
        raise AssertionError("a tail walk for a label whose amplitudes underflow")

    monkeypatch.setattr(coherent, "truncation_tail", tail)
    label = CoherentLabel(chi)
    for tol in (1e-12, 1e-18, 1e-24):
        with pytest.raises(ValueError, match="amplitudes underflow") as info:
            resolve_n_max(label, tol=tol)
        assert repr(label.chi) in str(info.value)
    assert walks == []


def test_label_requires_finite_value():
    with pytest.raises(ValueError):
        CoherentLabel(complex(float("nan"), 0))


def test_resolve_n_max_explicit_and_auto():
    label = CoherentLabel(1.5 - 0.25j)
    assert resolve_n_max(label, 7) == 7
    for tol in (1e-12, 1e-18):
        auto = scipy_auto_n_max(label, tol)
        assert resolve_n_max(label, tol=tol) == auto + TRUNCATION_MARGIN
    assert resolve_n_max(CoherentLabel(40), 2000) == 2000  # explicit: no amplitude check
    with pytest.raises(ValueError, match="n_max must be nonnegative, got -1"):
        resolve_n_max(CoherentLabel(1), -1)  # explicit is still checked
    # past n_max = 1024 auto answers: the tail is below tol there and not
    # one level lower
    for chi, tol, n_max in ((30, 1e-12, 1121), (30, 1e-18, 1177), (28, 1e-24, 1088)):
        assert resolve_n_max(CoherentLabel(chi), tol=tol) == n_max
        assert truncation_tail(CoherentLabel(chi), n_max - TRUNCATION_MARGIN) < tol
        assert truncation_tail(CoherentLabel(chi), n_max - TRUNCATION_MARGIN - 1) >= tol
    with pytest.raises(ValueError, match=re.escape("label (40+0j) is too large")):
        resolve_n_max(CoherentLabel(40))


@pytest.mark.parametrize("chi", [1e200, 1e155j, complex(1e308, 1e308)])
def test_label_whose_nbar_overflows_is_refused(chi):
    with pytest.raises(ValueError, match="too large"):
        CoherentLabel(chi)


def test_large_finite_nbar_is_accepted():
    label = CoherentLabel(1e150)
    assert label.nbar == pytest.approx(1e300)


# Mean occupations for the tail checks, up to |chi| = 38 (nbar 1444).
TAIL_NBARS = (0.01, 0.1, 0.5, 1.0, 2.3125, 5.0, 10.0, 30.0, 100.0, 300.0, 700.0,
              1000.0, 1444.0)


def label_with_nbar(nbar: float) -> CoherentLabel:
    return CoherentLabel(math.sqrt(nbar))


def scipy_tail(label: CoherentLabel, n_max: int) -> float:
    """The parent's tail: the regularized lower incomplete gamma function."""
    return 0.0 if label.nbar == 0.0 else float(gammainc(n_max + 1, label.nbar))


def scipy_auto_n_max(label: CoherentLabel, tol: float) -> int:
    """Smallest n_max with a scipy tail below tol: a bracket doubled from
    [0, 1], then bisected."""
    if scipy_tail(label, 0) < tol:
        return 0
    lo, hi = 0, 1
    while scipy_tail(label, hi) >= tol:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if scipy_tail(label, mid) < tol:
            hi = mid
        else:
            lo = mid
    return hi


@pytest.mark.parametrize("nbar", TAIL_NBARS)
def test_truncation_tail_matches_scipy_gammainc(nbar):
    label = label_with_nbar(nbar)
    for n_max in range(int(label.nbar + 40 * math.sqrt(label.nbar)) + 1):
        ours, ref = truncation_tail(label, n_max), scipy_tail(label, n_max)
        if ref < 1e-300:  # scipy underflows; so must the sum, near enough
            assert ours < 1e-290
        else:
            assert ours == pytest.approx(ref, rel=1e-11, abs=0.0), n_max


@settings(deadline=None, max_examples=200)
@given(nbar=st.floats(1e-6, 3000.0), n_max=st.integers(0, 5000))
def test_truncation_tail_monotone_and_nonnegative_property(nbar, n_max):
    label = CoherentLabel(math.sqrt(nbar))
    here, above = truncation_tail(label, n_max), truncation_tail(label, n_max + 1)
    assert 0.0 <= above <= here <= 1.0


def test_truncation_tail_limits():
    assert truncation_tail(CoherentLabel(1), 2**52) == 0.0  # start weight underflows
    assert truncation_tail(CoherentLabel(1e100), 2**53) == 1.0  # Chernoff: all above
    assert truncation_tail(CoherentLabel(30), 0) == 1.0  # Chernoff: all above
    # below the mean but inside the Chernoff cut, the sum runs: 1 - 1.7e-7
    tail = truncation_tail(CoherentLabel(10), 50)
    assert tail < 1.0
    assert tail == pytest.approx(float(gammainc(51, 100.0)), rel=0.0, abs=4e-15)
    # unclamped, rounding lifts these sums to 1.0000000000000002
    label = label_with_nbar(1000.0)
    assert all(truncation_tail(label, n) <= 1.0 for n in range(731, 760))


def buildable(label: CoherentLabel) -> bool:
    """Whether the amplitude ladder's start exp(-|chi|^2 / 2) is a normal float."""
    return math.exp(-0.5 * label.nbar) >= sys.float_info.min


@pytest.mark.parametrize("tol", [1e-12, 1e-18])
def test_resolve_n_max_matches_a_scipy_bisection(tol):
    # a dense |chi| sweep up to 38; the tail depends on |chi| only. Every
    # buildable label resolves, past 1024 too; the rest are refused
    refused = 0
    for chi in np.linspace(0.0, 38.0, 3801):
        label = CoherentLabel(float(chi))
        if not buildable(label):
            refused += 1
            with pytest.raises(ValueError, match="amplitudes underflow"):
                resolve_n_max(label, tol=tol)
            continue
        assert resolve_n_max(label, tol=tol) == scipy_auto_n_max(label, tol) + TRUNCATION_MARGIN, chi
    assert refused == 36  # |chi| 37.65..38.00


# |chi| across the first bracket's top at each tolerance, across the
# buildable edge and on to 1e4
RESOLVER_CHIS = np.concatenate([
    np.linspace(0.0, 40.0, 401),
    [FIRST_BRACKET_EDGE_CHI, 27.73640367432479, 27.05381905464064],  # at 1e-18, 1e-24
    np.geomspace(40.0, 1e4, 25)[1:],
])


@pytest.mark.parametrize("tol", [1e-12, 1e-18, 1e-24])
def test_resolve_n_max_equals_the_oracle_search(tol):
    # the search from [-1, 1024] gives what the oracle's, doubled from
    # [0, 1], gives for every buildable label, and refuses every other one
    resolved = 0
    for chi in RESOLVER_CHIS:
        label = CoherentLabel(float(chi))
        if buildable(label):
            resolved += 1
            assert resolve_n_max(label, tol=tol) == auto_n_max(label, tol), chi
        else:
            with pytest.raises(ValueError, match="amplitudes underflow"):
                resolve_n_max(label, tol=tol)
    assert 0 < resolved < len(RESOLVER_CHIS)


def parent_n_max(label: CoherentLabel, tol: float) -> int | None:
    """The rule auto truncation had while it was capped at 1024: one
    bisection over [-1, 1024], None where the tail at 1024 is not below tol."""
    if truncation_tail(label, 1024) >= tol:
        return None
    lo, hi = -1, 1024
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if truncation_tail(label, mid) < tol:
            hi = mid
        else:
            lo = mid
    return hi + TRUNCATION_MARGIN


@pytest.mark.parametrize("tol", [1e-12, 1e-18, 1e-24])
def test_labels_below_the_old_cap_keep_their_n_max(tol):
    # so every byte of a run at such a label stays as it was
    kept = 0
    for chi in RESOLVER_CHIS:
        label = CoherentLabel(float(chi))
        before = parent_n_max(label, tol)
        if before is not None:
            kept += 1
            assert resolve_n_max(label, tol=tol) == before, chi
    assert kept > 250


def test_truncation_tail_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    worst = 0.0
    for nbar in TAIL_NBARS:
        label = label_with_nbar(nbar)
        lam = mpmath.mpf(label.nbar)  # the exact double the sum sees
        top = int(label.nbar + 40 * math.sqrt(label.nbar)) + 1
        for n_max in sorted(set(range(0, top, max(1, top // 25))) | {top}):
            ref = mpmath.gammainc(n_max + 1, 0, lam, regularized=True)
            if ref < 1e-300:
                continue
            ours = truncation_tail(label, n_max)
            worst = max(worst, float(abs(ours - ref) / ref))
    assert worst < 2e-12  # 4.4e-13 measured; scipy's gammainc errs by 5.8e-12


@pytest.mark.parametrize("chi", [38, 27 + 27j, -40j, 1e3])
def test_coherent_coefficients_refuse_underflowing_amplitudes(chi):
    label = CoherentLabel(chi)
    with pytest.raises(ValueError, match="amplitudes underflow") as info:
        coherent_coefficients(label, 1200)
    assert repr(label.chi) in str(info.value)


def test_a_smaller_truncation_is_a_prefix_to_the_byte():
    # the ladder's running product never looks ahead: chi = 20 at the
    # `verify` moments' (551) and the `wavefunction` command's (589) n_max,
    # cut from the series' (622)
    label = CoherentLabel(20.0)
    full = coherent_coefficients(label, 622).coeffs
    for n_max in (551, 589):
        assert full[:n_max + 1].tobytes() == coherent_coefficients(label, n_max).coeffs.tobytes()


def test_coherent_coefficients_just_below_the_underflow_edge():
    label = CoherentLabel(37.6)  # exp(-|chi|^2 / 2) = 1.0e-307, still normal
    state = coherent_coefficients(label, 1700)
    assert np.all(np.isfinite(state.coeffs))
    assert state.norm() ** 2 == pytest.approx(
        1.0 - truncation_tail(label, 1700), abs=1e-12
    )
