"""Acceptance gate: the full verification battery must pass end to end.

Runs every criterion at its shipped tolerance through the same code path the
`verify` CLI command uses, printing one pass/fail line per criterion (shown
with pytest -s, and on any failure).
"""

import math

import pytest

from oscilab.verify import DEFAULT_CHI_SET, run_all

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
    from oscilab.fock import NormalizationError
    from oscilab.verify import check_ehrenfest, check_wave_packet

    # n_max = 4 keeps 5.5% of the chi = 3 state: both criteria must see that,
    # ehrenfest-mean-motion with the worst norm of its first block, the text
    # of the `verify --chi-re 3 --n-max 4` corpus case
    with pytest.raises(NormalizationError) as excinfo:
        check_ehrenfest(3 + 0j, n_max=4)
    assert str(excinfo.value) == (
        "state norm 0.23444325858319087 deviates from 1 by more than tolerance 1e-10"
    )
    assert check_wave_packet((3 + 0j,), n_max=4).detail == (
        "max |series - closed| = 7.759e-01 (tol 1e-08), "
        "max width drift = 2.301e+00 (tol 1e-08)"
    )


def test_ehrenfest_detail_is_pinned():
    from oscilab.verify import check_ehrenfest

    assert check_ehrenfest().detail == (
        "residuals (x, p) = (2.357e-07, 2.357e-07) at dt=1e-3 (tol 1e-05); "
        "halving ratios = 4.00, 4.00"
    )


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
    verify.check_ehrenfest(chi)
    params = OscillatorParams()
    label = CoherentLabel(chi)
    base = coherent_coefficients(label, resolve_n_max(label))
    times = sample_times(0.0, 2.0 * math.pi, 1e-3)
    independent = averages_bruteforce_batch(base, times, params)
    mean_x, mean_p, residual = seen[1e-3]
    assert mean_x.tobytes() == independent["mean_x"].tobytes()
    assert mean_p.tobytes() == independent["mean_p"].tobytes()
    assert residual == ehrenfest_residual(
        independent["mean_x"], independent["mean_p"], 1e-3, params
    )


@pytest.mark.parametrize("chi", [5 + 0j, 10 + 0j, 3 - 4j])
def test_series_criteria_resolve_their_truncation_from_the_label(chi):
    # n_max 64 left the chi = 5 packet at 3.6e-06 and its residual at 2.8e-05
    from oscilab.verify import check_annihilation_eigenstate, check_wave_packet

    for check in (check_wave_packet, check_annihilation_eigenstate):
        result = check((chi,))
        assert result.passed, result.detail


def test_series_truncation_is_floored_at_the_fixed_level():
    # the probe set keeps the fixed 64 levels, so its bytes do not move
    from oscilab.coherent import CoherentLabel
    from oscilab.verify import _series_n_max

    for chi in DEFAULT_CHI_SET:
        assert _series_n_max(CoherentLabel(chi), None) == 64
        assert _series_n_max(CoherentLabel(chi), 4) == 4
    assert _series_n_max(CoherentLabel(5), None) == 93
    assert _series_n_max(CoherentLabel(10), None) == 220


def test_propagator_vs_rk4_detail_is_pinned():
    from oscilab.verify import check_propagator_vs_rk4

    assert check_propagator_vs_rk4().detail == (
        "max coefficient error = 4.809e-14 (tol 1e-07) "
        "over one period at up to 62832 steps"
    )


def test_propagator_vs_rk4_refines_its_steps_for_high_levels():
    # dt = 1e-4 leaves an RK4 error of 3.664e-04 at level 1200
    from oscilab.verify import check_propagator_vs_rk4

    result = check_propagator_vs_rk4(30 + 0j, n_max=1200)
    assert result.passed, result.detail


def test_wave_packet_detail_is_pinned():
    from oscilab.verify import check_wave_packet

    assert check_wave_packet(DEFAULT_CHI_SET).detail == (
        "max |series - closed| = 2.136e-15 (tol 1e-08), "
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


def test_one_run_sweeps_each_label_once_at_eight_times(monkeypatch):
    lengths = _counting_sweeps(monkeypatch)
    results = run_all(seed=0)
    assert all(result.passed for result in results)
    # minimal-uncertainty and anomalous-averages read one 8-time sweep;
    # energy-constancy takes its own at 100 times
    assert sorted(lengths) == [8] * len(DEFAULT_CHI_SET) + [100] * len(DEFAULT_CHI_SET)


def test_a_failing_sweep_fails_both_of_its_readers(monkeypatch):
    lengths = _counting_sweeps(monkeypatch, fail_at=8)
    results = {result.name: result for result in run_all(seed=0)}
    assert lengths.count(8) == 2  # the first label raised, once per reader
    for name in ("minimal-uncertainty", "anomalous-averages"):
        assert not results[name].passed
        assert results[name].detail == "raised RuntimeError: forced sweep failure"
    others = set(CRITERIA) - {"minimal-uncertainty", "anomalous-averages"}
    assert all(results[name].passed for name in others)
