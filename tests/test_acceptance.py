"""Acceptance gate: the full verification battery must pass end to end.

Runs every criterion at its shipped tolerance through the same code path the
`verify` CLI command uses, printing one pass/fail line per criterion (shown
with pytest -s, and on any failure).
"""

import math
import re

import pytest

from oscilab.verify import DEFAULT_CHI_SET, _label_plan, run_all

CRITERIA = (
    "minimal-uncertainty",
    "fock-uncertainty",
    "anomalous-averages",
    "ehrenfest-mean-motion",
    "energy-constancy",
    "wave-packet-nondiffusion",
    "hermite-generating-identity",
    "annihilation-eigenstate",
    "phase-symmetry",
    "propagator-vs-rk4",
)


@pytest.fixture(scope="module")
def battery():
    results = run_all(seed=0)
    return {result.name: result for result in results}


def test_battery_covers_every_criterion(battery):
    assert set(battery) == set(CRITERIA)


@pytest.mark.parametrize("name", CRITERIA)
def test_criterion(battery, name):
    result = battery[name]
    print(f"{'PASS' if result.passed else 'FAIL'}  {name}: {result.detail}")
    assert result.passed, f"{name}: {result.detail}"


def test_probe_set_spans_the_stated_labels():
    assert DEFAULT_CHI_SET == (0j, 1 + 0j, 2j, 1 + 1j, -1.5 + 0.5j)


def test_overridden_run_fails_loudly_when_under_truncated():
    results = {r.name: r for r in run_all(chi=3 + 0j, n_max=4, seed=0)}
    assert not results["annihilation-eigenstate"].passed
    assert any(not r.passed for r in results.values())


def test_explicit_n_max_reaches_every_sweeping_criterion():
    # n_max = 4 keeps 5.5% of the chi = 3 state: the plan holds it at both
    # truncations, and both criteria must see that, ehrenfest-mean-motion
    # with the worst norm of its first block, the text of the
    # `verify --chi-re 3 --n-max 4` corpus case
    plan = _label_plan((3 + 0j,), 4)
    assert [(base.n_max, series) for _, base, series in plan] == [(4, 4)]
    results = {r.name: r for r in run_all(chi=3 + 0j, n_max=4, seed=0)}
    assert results["ehrenfest-mean-motion"].detail == (
        "raised NormalizationError: state norm 0.23444325858319087 deviates "
        "from 1 by more than tolerance 1e-10"
    )
    assert results["wave-packet-nondiffusion"].detail == (
        "max |series - closed| = 7.759e-01 (tol 1e-08), "
        "max width drift = 2.301e+00 (tol 1e-08)"
    )


def test_ehrenfest_detail_is_pinned(battery):
    from oscilab.verify import check_ehrenfest

    # run_all's Ehrenfest label on the probe set is 1 + 0j
    detail = (
        "residuals (x, p) = (2.357e-07, 2.357e-07) at dt=1e-3 (tol 1e-05); "
        "halving ratios = 4.00, 4.00"
    )
    assert check_ehrenfest(_label_plan((1 + 0j,), None)[0][1]).detail == detail
    assert battery["ehrenfest-mean-motion"].detail == detail


@pytest.mark.parametrize("chi", DEFAULT_CHI_SET)
def test_ehrenfest_reads_the_coarse_trajectory_from_the_fine_one(monkeypatch, chi):
    # the dt = 1e-3 <x> and <p> whose residual check_ehrenfest reports equal
    # independently sampled columns, column by column and residual by residual
    from oscilab import verify
    from oscilab.coherent import CoherentLabel, coherent_coefficients, resolve_n_max
    from oscilab.dynamics import ehrenfest_residual, sample_times
    from oscilab.fock import OscillatorParams
    from oscilab.observables import averages_bruteforce_batch

    seen = {}

    def recording_residual(mean_x, mean_p, dt, params):
        residual = ehrenfest_residual(mean_x, mean_p, dt, params)
        seen[dt] = (mean_x, mean_p, residual)
        return residual

    monkeypatch.setattr(verify, "ehrenfest_residual", recording_residual)
    params = OscillatorParams()
    label = CoherentLabel(chi)
    base = coherent_coefficients(label, resolve_n_max(label))
    verify.check_ehrenfest(base)
    times = sample_times(0.0, 2.0 * math.pi, 1e-3)
    independent = averages_bruteforce_batch(base, times, params)
    mean_x, mean_p, residual = seen[1e-3]
    assert mean_x.tobytes() == independent["mean_x"].tobytes()
    assert mean_p.tobytes() == independent["mean_p"].tobytes()
    assert residual == ehrenfest_residual(
        independent["mean_x"], independent["mean_p"], 1e-3, params
    )


@pytest.mark.parametrize("chi", [5 + 0j, 10 + 0j, 3 - 4j])
def test_series_criteria_pass_at_the_plans_series_n_max(chi):
    # n_max 64 left the chi = 5 packet at 3.6e-06 and its residual at 2.8e-05
    from oscilab.verify import check_annihilation_eigenstate, check_wave_packet

    for check in (check_wave_packet, check_annihilation_eigenstate):
        result = check(_label_plan((chi,), None))
        assert result.passed, result.detail


@pytest.mark.parametrize(
    "chi, n_max, expected", [(0j, None, 2), (5 + 0j, None, 93), (5 + 0j, 4, 4)]
)
def test_series_criteria_truncate_at_the_series_tail(monkeypatch, chi, n_max, expected):
    # the plan's series n_max is resolve_n_max(label, n_max, SERIES_TAIL_TOL):
    # the label's own level at a 1e-24 tail, or an explicit n_max unchanged;
    # both series criteria truncate there
    from oscilab import verify
    from oscilab.coherent import CoherentLabel, resolve_n_max

    assert resolve_n_max(CoherentLabel(chi), n_max, verify.SERIES_TAIL_TOL) == expected
    packet_levels, state_levels = [], []
    packet_sweep, propagate = verify.packet_sweep, verify.propagate_fock

    def recording_sweep(label, times, params, n_max):
        packet_levels.append(n_max)
        return packet_sweep(label, times, params, n_max)

    def recording_propagate(state, t, params):
        state_levels.append(state.n_max)
        return propagate(state, t, params)

    monkeypatch.setattr(verify, "packet_sweep", recording_sweep)
    monkeypatch.setattr(verify, "propagate_fock", recording_propagate)
    plan = _label_plan((chi,), n_max)
    verify.check_wave_packet(plan)
    verify.check_annihilation_eigenstate(plan)
    assert packet_levels == [expected]
    assert state_levels == [expected, expected]  # at t = 0 and t = 1.1


def test_propagator_vs_rk4_detail_is_pinned():
    from oscilab.verify import check_propagator_vs_rk4

    # the fewest steps N with N |theta / N|^5 / 120 <= 1e-9 at the probe
    # set's top level, n_max 27 of chi = 2i: theta = 27.5 * 2 pi
    theta = 27.5 * 2.0 * math.pi
    steps = math.ceil((100.0 * theta**5 / (120.0 * 1e-7)) ** 0.25)
    assert steps == 33659
    assert check_propagator_vs_rk4(_label_plan(DEFAULT_CHI_SET, None)).detail == (
        "max coefficient error = 5.909e-13 (tol 1e-07) "
        f"over one period at up to {steps} steps"
    )


def test_propagator_vs_rk4_refines_its_steps_for_high_levels():
    # dt = 1e-4 leaves an RK4 error of 3.664e-04 at level 1200
    from oscilab.verify import check_propagator_vs_rk4

    result = check_propagator_vs_rk4(_label_plan((30 + 0j,), 1200))
    assert result.passed, result.detail


def test_wave_packet_detail_is_pinned():
    from oscilab.verify import check_wave_packet

    assert check_wave_packet(_label_plan(DEFAULT_CHI_SET, None)).detail == (
        "max |series - closed| = 3.190e-14 (tol 1e-08), "
        "max width drift = 3.886e-16 (tol 1e-08)"
    )


def test_seed_fixes_the_randomized_checks():
    from oscilab.verify import check_generating_identity, check_phase_symmetry

    assert check_generating_identity(7).detail == check_generating_identity(7).detail
    assert check_phase_symmetry(7).detail == check_phase_symmetry(7).detail
    assert check_phase_symmetry(7).detail != check_phase_symmetry(8).detail


def _counting_sweeps(monkeypatch, fail_at=None):
    """Record the length of every time axis verify sweeps by brute force,
    raising RuntimeError on an axis of length fail_at."""
    from oscilab import verify
    from oscilab.observables import averages_bruteforce_batch

    lengths = []

    def counting(base, times, params):
        lengths.append(len(times))
        if len(times) == fail_at:
            raise RuntimeError("forced sweep failure")
        return averages_bruteforce_batch(base, times, params)

    monkeypatch.setattr(verify, "averages_bruteforce_batch", counting)
    return lengths


SWEEP_READERS = ("minimal-uncertainty", "anomalous-averages", "energy-constancy")


def test_one_run_sweeps_each_label_once(monkeypatch):
    # the three readers share one 100-time sweep; no other criterion calls
    # averages_bruteforce_batch
    lengths = _counting_sweeps(monkeypatch)
    results = run_all(seed=0)
    assert all(result.passed for result in results)
    assert lengths == [100] * len(DEFAULT_CHI_SET)


def test_a_failing_sweep_fails_each_of_its_readers(monkeypatch):
    lengths = _counting_sweeps(monkeypatch, fail_at=100)
    results = {result.name: result for result in run_all(seed=0)}
    # the first label raised, once per reader
    assert lengths == [100] * len(SWEEP_READERS)
    for name in SWEEP_READERS:
        assert not results[name].passed
        assert results[name].detail == "raised RuntimeError: forced sweep failure"
    others = set(CRITERIA) - set(SWEEP_READERS)
    assert all(results[name].passed for name in others)


@pytest.mark.parametrize(
    "chi, n_max, cause",
    [
        (28 + 0j, None, "needs at least n_max = 1088 for a tail below 1e-24"),
        (40 + 0j, None, "needs at least n_max = 1891 for a tail below 1e-12"),
        (None, -1, "n_max must be nonnegative, got -1"),
        (40 + 0j, 10, "label (40+0j) is too large: its amplitudes underflow"),
    ],
)
def test_a_label_the_plan_cannot_build_raises_before_any_criterion(
    monkeypatch, chi, n_max, cause
):
    # a capped truncation (the moments' before the series'), a negative n_max
    # and underflowing amplitudes each raise out of run_all, with no verdict
    from oscilab import verify

    ran = []
    for name in dir(verify):
        if name.startswith("check_"):
            monkeypatch.setattr(verify, name, lambda *args, name=name: ran.append(name))
    with pytest.raises(ValueError, match=re.escape(cause)):
        run_all(chi=chi, n_max=n_max, seed=0)
    assert ran == []


def test_one_run_resolves_each_label_twice_and_builds_its_amplitudes_once(monkeypatch):
    # the plan resolves the moments' then the series' truncation of each
    # label and builds the moments' amplitudes; of the criteria, only
    # annihilation-eigenstate builds amplitudes: each label's at its series
    # n_max, then its under-truncated control's
    from oscilab import verify
    from oscilab.coherent import AUTO_TAIL_TOL

    levels = [(base.n_max, series) for _, base, series in _label_plan(DEFAULT_CHI_SET, None)]
    resolved, built = [], []
    resolve, build = verify.resolve_n_max, verify.coherent_coefficients

    def recording_resolve(label, n_max=None, tol=AUTO_TAIL_TOL):
        resolved.append((label.chi, tol))
        return resolve(label, n_max, tol)

    def recording_build(label, n_max):
        built.append((label.chi, n_max))
        return build(label, n_max)

    monkeypatch.setattr(verify, "resolve_n_max", recording_resolve)
    monkeypatch.setattr(verify, "coherent_coefficients", recording_build)
    assert all(result.passed for result in run_all(seed=0))
    tols = (AUTO_TAIL_TOL, verify.SERIES_TAIL_TOL)
    assert resolved == [(chi, tol) for chi in DEFAULT_CHI_SET for tol in tols]
    pairs = list(zip(DEFAULT_CHI_SET, levels))
    assert built == (
        [(chi, moments) for chi, (moments, _) in pairs]
        + [(chi, series) for chi, (_, series) in pairs]
        + [(3 + 0j, 12)]
    )
