"""The RK4 oracle against dense references: its own definition to the bit,
and the textbook step loop to rounding."""

import math

import numpy as np
import pytest

from oscilab.coherent import CoherentLabel, coherent_coefficients, resolve_n_max
from oscilab.dynamics import propagate_fock
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


def dense_increment_rk4(state, params, t_total, steps):
    """R^steps - 1 from the dense stages on the identity, applied to the state.

    The stages give the one-step increment W = R(G dt) - 1 as a matrix; its
    diagonal is composed by the increment rule (1 + u)(1 + v) = 1 + (u + v
    + u v), taking the bits of `steps` from the lowest.
    """
    generator = -1j * make_hamiltonian(params, state.n_max).matrix / params.hbar
    dt = t_total / steps
    one = np.eye(state.n_max + 1, dtype=complex)
    k1 = generator @ one
    k2 = generator @ (one + 0.5 * dt * k1)
    k3 = generator @ (one + 0.5 * dt * k2)
    k4 = generator @ (one + dt * k3)
    increment = (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    w = np.diagonal(increment)
    assert not np.any(increment - np.diag(w))
    acc = np.zeros_like(w)
    for bit in reversed(bin(steps)[2:]):
        if bit == "1":
            acc = acc + w + acc * w
        w = 2.0 * w + w * w
    c = np.array(state.coeffs, dtype=complex)
    return c + c * acc


def _case(params, chi):
    label = CoherentLabel(chi)
    n_max = resolve_n_max(label)
    return coherent_coefficients(label, n_max), 2.0 * math.pi / params.omega


@pytest.mark.parametrize("params, chi", CASES)
def test_rk4_matches_the_dense_oracle_bit_for_bit(params, chi):
    base, period = _case(params, chi)
    for steps in (1, 2000, 62832):
        fast = rk4_coefficients(base, params, period, steps)
        reference = dense_increment_rk4(base, params, period, steps)
        assert np.array_equal(fast.view(float), reference.view(float)), steps


@pytest.mark.parametrize("params, chi", CASES)
def test_rk4_matches_the_textbook_step_loop(params, chi):
    base, period = _case(params, chi)
    for steps in (200, 2000):
        fast = rk4_coefficients(base, params, period, steps)
        reference = dense_rk4(base, params, period, steps)
        assert np.max(np.abs(fast - reference)) < 1e-13, steps


def test_rk4_is_not_the_exact_propagator():
    params = OscillatorParams()
    base, period = _case(params, 5 + 0j)
    numeric = rk4_coefficients(base, params, period, 200)
    exact = propagate_fock(base, period, params).coeffs
    assert np.max(np.abs(numeric - exact)) > 1e-6
