"""Acceptance gate: the full verification battery must pass end to end.

Runs every criterion at its shipped tolerance through the same code path the
`verify` CLI command uses, printing one pass/fail line per criterion (shown
with pytest -s, and on any failure).
"""

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

    # n_max = 4 keeps 5.5% of the chi = 3 state: both criteria must see that
    with pytest.raises(NormalizationError):
        check_ehrenfest(3 + 0j, n_max=4)
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
