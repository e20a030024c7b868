"""oscilab: a numerical laboratory for harmonic-oscillator coherent states.

Builds truncated number-basis operators, constructs stationary and dynamical
coherent states, evolves them exactly, and checks every closed-form claim
(means, second moments, minimal uncertainty, constant energy, non-diffusing
packet, broken phase symmetry) against brute-force matrix numerics.
"""

from types import ModuleType as _ModuleType

from .coherent import (
    CoherentLabel,
    TruncationCapError,
    annihilation_residual,
    auto_n_max,
    coherent_coefficients,
    dynamical_coherent_state,
    evolve_label,
    occupation_probability,
    resolve_n_max,
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
    averages_bruteforce_fock,
    averages_closedform,
    averages_closedform_batch,
    phase_rotation_drifts,
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

# every name imported above, so the list cannot drift from the imports
__all__ = ["__version__"] + [
    name for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
