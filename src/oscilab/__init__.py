"""oscilab: a numerical laboratory for harmonic-oscillator coherent states.

Builds truncated number-basis operators, constructs stationary and dynamical
coherent states, evolves them exactly, and checks every closed-form claim
(means, second moments, minimal uncertainty, constant energy, non-diffusing
packet, broken phase symmetry) against brute-force matrix numerics.
"""

from .coherent import (
    CoherentLabel,
    annihilation_residual,
    auto_n_max,
    coherent_coefficients,
    dynamical_coherent_state,
    evolve_label,
    occupation_probability,
    truncation_tail,
)
from .dynamics import (
    PhaseAngle,
    Trajectory,
    ehrenfest_residual,
    phase_transform_ladder,
    propagate_fock,
    rotate_xp,
    sample_trajectory,
    transform_state_phase,
)
from .fock import (
    DimensionMismatchError,
    NormalizationError,
    Operator,
    OscillatorParams,
    StateVector,
    TruncationWarning,
    expectation,
    fock_state,
    identity,
    level_phases,
    make_hamiltonian,
    make_ladder,
    make_xp,
    random_state,
)
from .observables import (
    ObservableRecord,
    averages_bruteforce,
    averages_bruteforce_batch,
    averages_closedform,
    uncertainty_fock,
)
from .wavefunction import (
    SpatialGrid,
    WaveSample,
    default_packet_grid,
    eigenfunction,
    gauss_hermite_grid,
    generating_sum_check,
    hermite,
    packet_moments,
    psi_closed,
    psi_series,
    quadrature_norm,
    trapezoid_grid,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "DimensionMismatchError",
    "NormalizationError",
    "TruncationWarning",
    "OscillatorParams",
    "StateVector",
    "Operator",
    "make_ladder",
    "make_xp",
    "make_hamiltonian",
    "level_phases",
    "fock_state",
    "identity",
    "expectation",
    "random_state",
    "CoherentLabel",
    "coherent_coefficients",
    "occupation_probability",
    "evolve_label",
    "dynamical_coherent_state",
    "annihilation_residual",
    "truncation_tail",
    "auto_n_max",
    "ObservableRecord",
    "averages_bruteforce",
    "averages_bruteforce_batch",
    "averages_closedform",
    "uncertainty_fock",
    "SpatialGrid",
    "WaveSample",
    "hermite",
    "eigenfunction",
    "generating_sum_check",
    "psi_series",
    "psi_closed",
    "quadrature_norm",
    "packet_moments",
    "trapezoid_grid",
    "default_packet_grid",
    "gauss_hermite_grid",
    "PhaseAngle",
    "Trajectory",
    "phase_transform_ladder",
    "rotate_xp",
    "transform_state_phase",
    "propagate_fock",
    "sample_trajectory",
    "ehrenfest_residual",
]
