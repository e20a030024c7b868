import math

import numpy as np
import pytest

from oracle import (
    Operator,
    expectation,
    fock_state,
    identity,
    make_hamiltonian,
    make_ladder,
    make_xp,
    random_state,
)
from oscilab import fock
from oscilab.fock import (
    DimensionMismatchError,
    OscillatorParams,
    StateVector,
    level_phases,
)


def test_ladder_two_level_matrix():
    a, ad = make_ladder(1)
    np.testing.assert_array_equal(a.matrix, np.array([[0, 1], [0, 0]], dtype=complex))
    np.testing.assert_array_equal(ad.matrix, np.array([[0, 0], [1, 0]], dtype=complex))


def test_ladder_entries_follow_sqrt_rule():
    # a|n> = sqrt(n)|n-1> puts sqrt(n) at (n-1, n) and nothing else
    a, _ = make_ladder(2)
    assert a.matrix[0, 1] == 1.0
    assert a.matrix[1, 2] == pytest.approx(math.sqrt(2), rel=1e-15)
    assert np.count_nonzero(a.matrix) == 2


@pytest.mark.parametrize("n_max", [0, 1, 5, 33])
def test_creation_is_exact_conjugate_transpose(n_max):
    a, ad = make_ladder(n_max)
    np.testing.assert_array_equal(ad.matrix, a.matrix.conj().T)


def test_commutator_is_identity_except_corner():
    # direct matrix arithmetic: truncation breaks only the corner entry
    n_max = 8
    a, ad = make_ladder(n_max)
    comm = a.matrix @ ad.matrix - ad.matrix @ a.matrix
    expected = np.eye(n_max + 1, dtype=complex)
    expected[n_max, n_max] = -n_max
    np.testing.assert_allclose(comm, expected, atol=1e-13)


@pytest.mark.parametrize(
    "params", [OscillatorParams(), OscillatorParams(2.5, 0.7, 3.1)]
)
def test_the_package_make_xp_is_the_oracle_matrices_to_the_bit(params):
    for n_max in (0, 1, 9):
        x, p = fock.make_xp(params, n_max)
        dense_x, dense_p = make_xp(params, n_max)
        assert x.tobytes() == dense_x.matrix.tobytes()
        assert p.tobytes() == dense_p.matrix.tobytes()


def test_xp_unit_parameter_matrices():
    x, p = make_xp(OscillatorParams(), 1)
    s = math.sqrt(0.5)
    np.testing.assert_array_equal(x.matrix, np.array([[0, s], [s, 0]], dtype=complex))
    np.testing.assert_array_equal(
        p.matrix, np.array([[0, -1j * s], [1j * s, 0]], dtype=complex)
    )


@pytest.mark.parametrize(
    "params", [OscillatorParams(), OscillatorParams(2.5, 0.7, 3.1)]
)
def test_xp_hamiltonian_hermitian_exactly(params):
    x, p = make_xp(params, 9)
    h = make_hamiltonian(params, 9)
    for op in (x, p, h):
        np.testing.assert_array_equal(op.matrix, op.matrix.conj().T)


def test_hamiltonian_diagonal_values():
    h = make_hamiltonian(OscillatorParams(), 2)
    np.testing.assert_array_equal(np.diag(h.matrix).real, [0.5, 1.5, 2.5])
    h0 = make_hamiltonian(OscillatorParams(hbar=2.0, omega=3.0), 0)
    np.testing.assert_array_equal(h0.matrix, [[3.0]])


@pytest.mark.parametrize(
    "params", [OscillatorParams(), OscillatorParams(2.0, 0.5, 3.0)]
)
def test_hamiltonian_matches_quadratic_form_below_truncation(params):
    # H and p^2/2M + M omega^2 x^2/2 agree except where products leak past n_max
    n_max = 12
    h = make_hamiltonian(params, n_max)
    x, p = make_xp(params, n_max)
    quad = p.matrix @ p.matrix / (2 * params.mass) + (
        0.5 * params.mass * params.omega**2
    ) * (x.matrix @ x.matrix)
    block = slice(0, n_max - 1)
    np.testing.assert_allclose(quad[block, block], h.matrix[block, block], atol=1e-12)


def test_hamiltonian_eigenvalues_are_level_energies():
    params = OscillatorParams(hbar=2.0, omega=3.0)
    h = make_hamiltonian(params, 10)
    np.testing.assert_allclose(
        np.linalg.eigvalsh(h.matrix), 6.0 * (np.arange(11) + 0.5), atol=1e-12
    )


def test_fock_state_basis_vectors():
    np.testing.assert_array_equal(fock_state(0, 4).coeffs, [1, 0, 0, 0, 0])
    np.testing.assert_array_equal(fock_state(2, 2).coeffs, [0, 0, 1])
    assert fock_state(2, 2).time == 0.0


def test_fock_state_out_of_range():
    with pytest.raises(ValueError):
        fock_state(3, 2)
    with pytest.raises(ValueError):
        fock_state(-1, 2)


def test_expectation_number_operator_counts_quanta():
    a, ad = make_ladder(8)
    num = ad @ a
    value = expectation(num, fock_state(3, 8))
    assert value.real == pytest.approx(3.0, abs=1e-13)
    assert value.imag == 0.0


def test_expectation_position_zero_on_number_states():
    x, p = make_xp(OscillatorParams(), 6)
    for n in range(7):
        assert expectation(x, fock_state(n, 6)) == 0
        assert expectation(p, fock_state(n, 6)) == 0


def test_expectation_identity_is_norm():
    rng = np.random.default_rng(7)
    for _ in range(5):
        state = random_state(12, rng)
        assert expectation(identity(12), state).real == pytest.approx(1.0, abs=1e-12)


def test_expectation_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        expectation(identity(4), fock_state(0, 3))


def test_expectation_hermitian_imaginary_part_negligible():
    params = OscillatorParams()
    x, p = make_xp(params, 16)
    h = make_hamiltonian(params, 16)
    rng = np.random.default_rng(11)
    for _ in range(50):
        state = random_state(16, rng)
        for op in (x, p, h):
            assert abs(expectation(op, state).imag) < 1e-12


@pytest.mark.parametrize("bad", [dict(hbar=0), dict(mass=-1.0), dict(omega=float("nan"))])
def test_params_reject_nonpositive(bad):
    with pytest.raises(ValueError):
        OscillatorParams(**bad)


def test_params_length_scale():
    params = OscillatorParams(hbar=2.0, mass=0.5, omega=4.0)
    assert params.length_scale == pytest.approx(1.0, rel=1e-15)


def test_state_vector_validation():
    with pytest.raises(DimensionMismatchError):
        StateVector(np.ones(3), n_max=4)
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, float("inf")]))
    state = StateVector(np.array([1.0, 0.0]))
    assert state.n_max == 1
    with pytest.raises(ValueError):
        state.coeffs[0] = 5.0  # frozen storage


def test_operator_requires_square_matrix():
    with pytest.raises(ValueError):
        Operator(np.ones((2, 3)))
    with pytest.raises(DimensionMismatchError):
        Operator(np.eye(3), n_max=4)


def test_operator_algebra_dimension_checks():
    small = identity(2)
    big = identity(3)
    with pytest.raises(DimensionMismatchError):
        _ = small @ big
    with pytest.raises(DimensionMismatchError):
        _ = small + big


def test_random_state_is_normalized_and_reproducible():
    s1 = random_state(20, rng=123)
    s2 = random_state(20, rng=123)
    assert s1.norm() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_array_equal(s1.coeffs, s2.coeffs)


@pytest.mark.parametrize(
    "params", [OscillatorParams(), OscillatorParams(2.0, 0.5, 1.7)]
)
def test_level_phases_equal_the_complex_exponential_to_the_bit(params):
    # the real cos/sin of the angle are the complex exp of the angle times -1j
    times = np.concatenate([
        [0.0, -0.0, 1e-300, -2.5, 1e4, -1e4, 9999.999999, 10001.5],
        np.linspace(-20.0, 20.0, 4001),
        np.linspace(9990.0, 10010.0, 401),
    ])
    for n_max in (0, 16, 589):
        n = np.arange(n_max + 1)
        reference = np.exp(-1j * params.omega * times[:, np.newaxis] * (n + 0.5))
        phases = level_phases(params, times, n_max)
        assert phases.tobytes() == reference.tobytes()
        for t in (0.0, -3.25, 1e4):
            row = np.exp(-1j * params.omega * t * (n + 0.5))
            assert level_phases(params, t, n_max).tobytes() == row.tobytes()
