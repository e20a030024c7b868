"""The RK4 oracle against its dense textbook form, to the bit."""

import math

import numpy as np
import pytest

from oscilab.coherent import CoherentLabel, coherent_coefficients, resolve_n_max
from oscilab.fock import OscillatorParams, make_hamiltonian
from oscilab.verify import DEFAULT_CHI_SET, rk4_coefficients

CASES = [(OscillatorParams(), chi) for chi in DEFAULT_CHI_SET + (5 + 0j,)]
CASES.append((OscillatorParams(2.0, 0.5, 1.7), 1 - 0.5j))


def dense_rk4(state, params, t_total, steps):
    """RK4 with a dense matrix-vector product per stage."""
    generator = -1j * make_hamiltonian(params, state.n_max).matrix / params.hbar
    dt = t_total / steps
    c = np.array(state.coeffs, dtype=complex)
    for _ in range(steps):
        k1 = generator @ c
        k2 = generator @ (c + 0.5 * dt * k1)
        k3 = generator @ (c + 0.5 * dt * k2)
        k4 = generator @ (c + dt * k3)
        c = c + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return c


@pytest.mark.parametrize("params, chi", CASES)
def test_rk4_matches_the_dense_oracle_bit_for_bit(params, chi):
    label = CoherentLabel(chi)
    n_max = resolve_n_max(label)
    matrix = make_hamiltonian(params, n_max).matrix
    # The elementwise product equals the dense one only for a diagonal H.
    assert not np.any(matrix - np.diag(np.diagonal(matrix)))
    base = coherent_coefficients(label, n_max)
    period = 2.0 * math.pi / params.omega
    fast = rk4_coefficients(base, params, period, 2000)
    reference = dense_rk4(base, params, period, 2000)
    assert np.array_equal(fast.view(float), reference.view(float))
