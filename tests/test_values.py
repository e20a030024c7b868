"""The value types: constructors, validation, immutability, equality, pickling.

`OscillatorParams`, `StateVector`, `CoherentLabel`, `CriterionResult` and
`WaveSample` are plain classes on the `fock.Value` base, with no dataclass
behind them; these tests pin what a frozen dataclass gave each of them.
The averages are no value type: `observables` returns them as columns.
"""

import copy
import inspect
import math
import pickle

import numpy as np
import pytest

from oscilab.coherent import CoherentLabel
from oscilab.fock import OscillatorParams, StateVector
from oscilab.verify import CriterionResult
from oscilab.wavefunction import WaveSample

# per value type: a builder, called twice for two equal values, and a value
# that differs from them in one field
EXAMPLES = {
    "OscillatorParams": (lambda: OscillatorParams(2.0, 0.5, 3.0),
                         OscillatorParams(2.0, 0.5, 3.5)),
    "CoherentLabel": (lambda: CoherentLabel(1.5 - 0.25j), CoherentLabel(1.5)),
    "CriterionResult": (lambda: CriterionResult("energy-constancy", True, "ok"),
                        CriterionResult("energy-constancy", False, "ok")),
    "WaveSample": (lambda: WaveSample(0.25, 1 - 1j), WaveSample(0.25, 1 + 1j)),
}


def example(name):
    if name == "StateVector":
        return StateVector([0.6, 0.8j])
    return EXAMPLES[name][0]()


def test_constructors_keep_their_signatures_and_defaults():
    def defaults(cls):
        return {name: p.default for name, p in inspect.signature(cls).parameters.items()}

    empty = inspect.Parameter.empty
    assert defaults(OscillatorParams) == {"hbar": 1.0, "mass": 1.0, "omega": 1.0}
    assert defaults(StateVector) == {"coeffs": empty}
    assert defaults(CoherentLabel) == {"chi": empty}
    assert defaults(CriterionResult) == {"name": empty, "passed": empty, "detail": empty}
    assert defaults(WaveSample) == {"x": empty, "value": empty}


def test_constructors_normalize_their_fields():
    params = OscillatorParams()
    assert (params.hbar, params.mass, params.omega) == (1.0, 1.0, 1.0)
    state = StateVector([1, 0])
    assert state.coeffs.dtype == complex and not state.coeffs.flags.writeable
    assert state.n_max == 1 and type(state.n_max) is int
    assert CoherentLabel(2).chi == 2 + 0j and type(CoherentLabel(2).chi) is complex
    assert CriterionResult("c", np.bool_(True), "").passed is True
    sample = WaveSample(1, 2)
    assert (type(sample.x), type(sample.value)) == (float, complex)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: OscillatorParams(hbar=0.0), ValueError,
         "hbar must be finite and positive, got 0.0"),
        (lambda: OscillatorParams(mass=-1.0), ValueError,
         "mass must be finite and positive, got -1.0"),
        (lambda: OscillatorParams(omega=math.inf), ValueError,
         "omega must be finite and positive, got inf"),
        (lambda: StateVector(np.ones((2, 2))), ValueError,
         "coeffs must be a nonempty one-dimensional array"),
        (lambda: StateVector([]), ValueError,
         "coeffs must be a nonempty one-dimensional array"),
        (lambda: StateVector([1.0, math.nan]), ValueError, "coefficients must be finite"),
        (lambda: CoherentLabel(complex(math.nan, 0.0)), ValueError,
         "label must be finite, got (nan+0j)"),
        (lambda: CoherentLabel(1e200), ValueError,
         "label (1e+200+0j) is too large: |chi|^2 overflows"),
        (lambda: WaveSample(math.inf, 0.0), ValueError, "sample must be finite"),
        (lambda: WaveSample(0.0, complex(0.0, math.nan)), ValueError,
         "sample must be finite"),
    ],
)
def test_validation_keeps_its_messages(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert str(caught.value) == message


@pytest.mark.parametrize("name", [*EXAMPLES, "StateVector"])
def test_fields_refuse_assignment_and_deletion(name):
    value = example(name)
    field = type(value).__slots__[0]
    before = getattr(value, field)
    with pytest.raises(AttributeError, match=f"cannot assign to or delete field '{field}'"):
        setattr(value, field, before)
    with pytest.raises(AttributeError, match=f"field '{field}' of immutable {name}"):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1  # no __dict__ either
    assert getattr(value, field) is before


@pytest.mark.parametrize("name", EXAMPLES)
def test_values_compare_and_hash_by_class_and_fields(name):
    build, different = EXAMPLES[name]
    first, second = build(), build()
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert first != different and not first == different
    assert first != tuple(getattr(first, field) for field in first.__slots__)


def test_states_compare_and_hash_by_identity():
    state = StateVector([1.0, 0.0])
    twin = StateVector([1.0, 0.0])
    assert state == state and state != twin
    assert hash(state) == object.__hash__(state)
    assert len({state, twin}) == 2


@pytest.mark.parametrize("name", [*EXAMPLES, "StateVector"])
def test_repr_shows_every_field(name):
    value = example(name)
    fields = ", ".join(f"{field}={getattr(value, field)!r}" for field in value.__slots__)
    assert repr(value) == f"{name}({fields})"


@pytest.mark.parametrize("name", [*EXAMPLES, "StateVector"])
def test_pickle_and_copy_round_trip(name):
    value = example(name)
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is type(value)
        if name == "StateVector":
            np.testing.assert_array_equal(twin.coeffs, value.coeffs)
            assert not twin.coeffs.flags.writeable
            assert twin.n_max == value.n_max
        else:
            assert twin == value


def test_a_state_is_its_amplitudes_alone():
    # coeffs is the one field, so pickle and copy rebuild a state through
    # the constructor from it, and n_max is read off its size
    coeffs = np.arange(1.0, 6.0) * (1 - 1j)
    state = StateVector(coeffs / np.linalg.norm(coeffs))
    assert StateVector.__slots__ == ("coeffs",)
    assert state.__reduce__() == (StateVector, (state.coeffs,))
    assert state.n_max == state.coeffs.size - 1 == 4
    for twin in (pickle.loads(pickle.dumps(state)), copy.copy(state), copy.deepcopy(state)):
        assert type(twin) is StateVector and twin is not state
        assert twin.coeffs.tobytes() == state.coeffs.tobytes()
        assert twin.n_max == 4 and not twin.coeffs.flags.writeable
    for keyword in ("n_max", "time"):
        with pytest.raises(TypeError):
            StateVector(coeffs, **{keyword: 0})
