"""oscilab: a numerical laboratory for harmonic-oscillator coherent states.

Constructs stationary and dynamical coherent states in a truncated number
basis, evolves them exactly, and checks every closed-form claim (means,
second moments, minimal uncertainty, constant energy, non-diffusing packet,
broken phase symmetry) against brute-force expectation values taken with
banded products of the amplitudes.
"""

from types import ModuleType as _ModuleType

from .coherent import (
    CoherentLabel,
    TruncationCapError,
    annihilation_residual,
    coherent_coefficients,
    occupation_probability,
    resolve_n_max,
    truncation_tail,
)
from .dynamics import ehrenfest_residual, propagate_fock
from .fock import (
    DimensionMismatchError,
    NormalizationError,
    OscillatorParams,
    StateVector,
    TruncationWarning,
    level_phases,
)
from .observables import (
    averages_bruteforce,
    averages_bruteforce_batch,
    averages_bruteforce_fock,
    averages_closedform_batch,
    phase_rotation_drifts,
    uncertainty_fock,
)
from .wavefunction import WaveSample, generating_sum_check, packet_moments

__version__ = "0.1.0"

# every name imported above, so the list cannot drift from the imports
__all__ = ["__version__"] + [
    name for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
