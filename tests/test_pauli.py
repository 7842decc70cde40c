"""Pauli operators against independently built dense matrices."""

import json
import math
import re

import numpy as np
import pytest

from twirlsim import (
    PauliSum,
    PauliTerm,
    StateVector,
    dense_matrix,
    expectation,
    hamiltonian_by_name,
    named_observable,
    observable_zbar,
    schwinger_hamiltonian,
    single_z,
)
from twirlsim.pauli import apply_axes, apply_operator

I2 = np.eye(2)
SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SZ = np.array([[1.0, 0.0], [0.0, -1.0]])


def kron(*mats):
    out = np.array([[1.0 + 0.0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def test_one_qubit_chain_matrix():
    j = 2.0
    expected = np.array([[j, 1.0], [1.0, -j]], dtype=complex)
    assert np.allclose(dense_matrix(schwinger_hamiltonian(1, j)), expected, atol=1e-14)


def test_two_qubit_chain_matrix():
    j = 0.7
    expected = 0.5 * kron(SX, SX) + 0.5 * kron(SY, SY) + j * kron(SZ, I2)
    assert np.allclose(dense_matrix(schwinger_hamiltonian(2, j)), expected, atol=1e-14)


def test_three_qubit_chain_matrix():
    j = 1.3
    expected = (
        0.5 * kron(SX, SX, I2)
        + 0.5 * kron(I2, SX, SX)
        + 0.5 * kron(SY, SY, I2)
        + 0.5 * kron(I2, SY, SY)
        + j * kron(SZ, I2, I2)
        + j * kron(SZ, SZ, I2)
    )
    assert np.allclose(dense_matrix(schwinger_hamiltonian(3, j)), expected, atol=1e-14)


def test_three_qubit_term_order_and_coefficients():
    op = schwinger_hamiltonian(3, 1.3)
    assert [t.axes for t in op.terms] == ["XXI", "IXX", "YYI", "IYY", "ZII", "ZZI"]
    assert [t.coeff for t in op.terms] == [0.5, 0.5, 0.5, 0.5, 1.3, 1.3]


def test_unsupported_system_size_rejected():
    with pytest.raises(ValueError, match="unsupported system size"):
        schwinger_hamiltonian(4, 1.0)


@pytest.mark.parametrize(
    "coupling",
    [-0.1, float("nan"), float("inf"), True, "1", 1j, pytest.param(10**400, id="10**400")],
)
def test_bad_coupling_rejected(coupling):
    with pytest.raises(ValueError, match=f"coupling.*{coupling!r}"):
        schwinger_hamiltonian(1, coupling)


def test_hamiltonian_by_name():
    assert hamiltonian_by_name("schwinger-2q", 0.5) == schwinger_hamiltonian(2, 0.5)
    with pytest.raises(ValueError, match="unknown hamiltonian"):
        hamiltonian_by_name("schwinger-4q", 1.0)


def test_zbar_observable_terms():
    op = observable_zbar()
    assert [t.axes for t in op.terms] == ["ZII", "IZI", "IIZ"]
    assert np.allclose([t.coeff for t in op.terms], [1 / 3, -1 / 3, 1 / 3])


def test_named_observable_resolution():
    assert named_observable("Zbar", 3) == observable_zbar()
    assert named_observable("Z1", 3) == single_z(3, 1)
    assert named_observable("Z", 1) == single_z(1, 0)
    with pytest.raises(ValueError, match="Zbar is defined on three"):
        named_observable("Zbar", 2)
    with pytest.raises(ValueError, match="unknown observable"):
        named_observable("Q", 3)
    with pytest.raises(ValueError, match="out of range"):
        named_observable("Z3", 3)


def test_named_observables_are_shared_but_counted_first():
    for n_qubits in (1, 2):
        assert named_observable("Z0", n_qubits) is named_observable("Z0", n_qubits)
    # True == 1 and 2.0 == 2 would hit those cache entries without the count rule
    for n_qubits in (True, 2.0):
        with pytest.raises(ValueError, match=rf"positive integer, got {n_qubits!r}$"):
            named_observable("Z0", n_qubits)


def test_expectation_hand_values():
    # alternating charge of |101> is (-1 - 1 - 1) / 3, its energy -2J
    state = StateVector.basis("101")
    assert expectation(state, observable_zbar()) == pytest.approx(-1.0)
    assert expectation(state, schwinger_hamiltonian(3, 1.0)) == pytest.approx(-2.0)
    assert expectation(StateVector.basis("000"), schwinger_hamiltonian(3, 1.0)) == pytest.approx(2.0)


def test_expectation_register_mismatch():
    with pytest.raises(ValueError, match="does not match"):
        expectation(StateVector.basis("0"), schwinger_hamiltonian(2, 1.0))


def test_apply_axes_hand_values():
    plus_i = apply_axes(np.array([1.0 + 0.0j, 0.0j]), "Y")
    assert np.allclose(plus_i, [0.0, 1.0j])
    minus_i = apply_axes(np.array([0.0j, 1.0 + 0.0j]), "Y")
    assert np.allclose(minus_i, [-1.0j, 0.0])
    flipped = apply_axes(np.array([1.0 + 0.0j, 0.0j]), "X")
    assert np.allclose(flipped, [0.0, 1.0])
    signed = apply_axes(np.array([0.5 + 0.0j, 0.5 + 0.0j]), "Z")
    assert np.allclose(signed, [0.5, -0.5])


def test_apply_operator_matches_dense():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        op = schwinger_hamiltonian(n, 1.7)
        vec = rng.normal(size=2**n) + 1.0j * rng.normal(size=2**n)
        assert np.allclose(apply_operator(vec, op), dense_matrix(op) @ vec, atol=1e-12)


def test_identity_string_application_copies():
    vec = np.array([0.6 + 0.0j, 0.8j])
    out = apply_axes(vec, "I")
    assert np.allclose(out, vec)
    out[0] = 0.0
    assert vec[0] == 0.6


def test_dense_limit_env(monkeypatch):
    monkeypatch.setenv("TWIRL_DENSE_LIMIT", "2")
    with pytest.raises(ValueError, match="cap"):
        dense_matrix(schwinger_hamiltonian(3, 1.0))
    monkeypatch.setenv("TWIRL_DENSE_LIMIT", "abc")
    with pytest.raises(ValueError, match="not an integer"):
        dense_matrix(schwinger_hamiltonian(3, 1.0))
    monkeypatch.setenv("TWIRL_DENSE_LIMIT", "0")
    with pytest.raises(ValueError, match="positive"):
        dense_matrix(schwinger_hamiltonian(3, 1.0))
    monkeypatch.setenv("TWIRL_DENSE_LIMIT", "3")
    assert dense_matrix(schwinger_hamiltonian(3, 1.0)).shape == (8, 8)


def test_json_round_trip_preserves_order_and_values():
    op = schwinger_hamiltonian(3, 3.7)
    data = {"n_qubits": 3, "terms": [{"coeff": t.coeff, "axes": t.axes} for t in op.terms]}
    assert PauliSum.from_dict(json.loads(json.dumps(data))) == op


def test_term_validation():
    with pytest.raises(ValueError, match="finite"):
        PauliTerm(float("nan"), "X")
    # an int beyond float range is refused, not an OverflowError
    for coeff in (True, "1", 1j, 10**400):
        with pytest.raises(ValueError, match=f"coefficient {coeff!r} must be a finite real number"):
            PauliTerm(coeff, "Z")
    assert PauliTerm(np.float32(0.5), "Z") == PauliTerm(0.5, "Z")
    with pytest.raises(ValueError, match="axes"):
        PauliTerm(1.0, "XQ")
    with pytest.raises(ValueError, match="axes"):
        PauliTerm(1.0, "")
    # a list of letters would pass the letter check and fail later, on hashing
    for axes in (["X", "Z"], ("X",), b"XZ", 3):
        with pytest.raises(ValueError, match=re.escape(f"axes {axes!r} must be a nonempty")):
            PauliTerm(1.0, axes)


def test_sum_validation():
    with pytest.raises(ValueError, match="at least one term"):
        PauliSum(1, ())
    with pytest.raises(ValueError, match="acts on"):
        PauliSum(2, (PauliTerm(1.0, "X"),))
    # each coefficient is finite, but a dense build or an evolution adds them up
    big = PauliSum(1, (PauliTerm(1e308, "Z"),))
    message = re.escape("summed |coefficient| of the terms is inf, not finite")
    with pytest.raises(ValueError, match=message):
        PauliSum(1, big.terms * 2 + (PauliTerm(1.0, "X"),))
    with pytest.raises(ValueError, match=message):
        big + PauliSum(1, (PauliTerm(-1e308, "X"),))
    with pytest.raises(ValueError, match=message):
        schwinger_hamiltonian(3, 1e308)


def test_arithmetic_preserves_order():
    a = schwinger_hamiltonian(2, 1.0)
    b = single_z(2, 1)
    total = 0.5 * a + b
    assert [t.axes for t in total.terms] == ["XX", "YY", "ZI", "IZ"]
    assert [t.coeff for t in total.terms] == [0.25, 0.25, 0.5, 1.0]
    with pytest.raises(ValueError, match="different registers"):
        a + single_z(1, 0)
    # a bool is not a scalar, as it is not a coefficient
    with pytest.raises(TypeError):
        a * True
    with pytest.raises(TypeError):
        True * a


_ORACLE_FACTORS = {"I": I2, "X": SX, "Y": SY, "Z": SZ}


def _oracle(axes):
    return kron(*(_ORACLE_FACTORS[c] for c in axes))


def test_pauli_kernel_matches_kron_oracle():
    rng = np.random.default_rng(20231)
    for n in range(1, 7):
        pool = ["I" * n] + ["".join(rng.choice(list("IXYZ"), size=n)) for _ in range(5)]
        for _ in range(60):
            picks = rng.integers(len(pool), size=rng.integers(1, 6))
            terms = tuple(PauliTerm(float(rng.normal()), pool[k]) for k in picks)
            expected = np.zeros((2**n, 2**n), dtype=complex)
            for term in terms:
                expected += term.coeff * _oracle(term.axes)
            assert np.array_equal(dense_matrix(PauliSum(n, terms)), expected)
        for axes in pool:
            vec = rng.normal(size=2**n) + 1.0j * rng.normal(size=2**n)
            assert np.array_equal(apply_axes(vec, axes), _oracle(axes) @ vec)


def test_apply_axes_rejects_wrong_length():
    with pytest.raises(ValueError):
        apply_axes(np.ones(4, dtype=complex), "XYZ")
