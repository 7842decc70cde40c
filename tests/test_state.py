"""State-vector construction and invariants."""

import numpy as np
import pytest

from twirlsim import StateVector


def test_basis_label_sets_msb_first_index():
    state = StateVector.basis("101")
    assert state.n_qubits == 3
    expected = np.zeros(8, dtype=complex)
    expected[5] = 1.0
    assert np.array_equal(state.amplitudes, expected)


def test_basis_label_msb_convention_distinguishes_mirrored_labels():
    assert np.flatnonzero(StateVector.basis("10").amplitudes)[0] == 2
    assert np.flatnonzero(StateVector.basis("01").amplitudes)[0] == 1


@pytest.mark.parametrize("label", ["", "012", "ab", "2"])
def test_bad_basis_labels_rejected(label):
    with pytest.raises(ValueError, match="basis label"):
        StateVector.basis(label)


def test_norm_enforced_on_construction():
    with pytest.raises(ValueError, match="norm"):
        StateVector(1, np.array([1.0, 1.0]))


def test_nan_amplitudes_rejected_on_construction():
    with pytest.raises(ValueError, match="norm nan"):
        StateVector(1, np.array([np.nan, 0.0]))


def test_shape_enforced_on_construction():
    with pytest.raises(ValueError, match="shape"):
        StateVector(2, np.array([1.0, 0.0]))


def test_amplitudes_are_read_only():
    state = StateVector.basis("0")
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.5


def test_constructor_copies_input_array():
    raw = np.array([1.0 + 0.0j, 0.0j])
    state = StateVector(1, raw)
    raw[0] = 0.0
    assert state.amplitudes[0] == 1.0
