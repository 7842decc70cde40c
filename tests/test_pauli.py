"""Pauli operators against independently built dense matrices."""

import json
import pickle
import re

import numpy as np
import pytest

from twirlsim import (
    AdiabaticSchedule,
    Backend,
    PauliSum,
    StateVector,
    adiabatic_prepare,
    dense_matrix,
    evolve_trotter,
    expectation,
    hamiltonian_by_name,
    named_observable,
    schwinger_hamiltonian,
    staggered_start,
)
from twirlsim import pauli, spectral
from twirlsim.cli import main
from twirlsim.manifest import bundled_names, load_manifest
from twirlsim.pauli import apply_axes, apply_operator
from twirlsim.twirl import resolve_observables

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
    assert [axes for _, axes in op.terms] == ["XXI", "IXX", "YYI", "IYY", "ZII", "ZZI"]
    assert [coeff for coeff, _ in op.terms] == [0.5, 0.5, 0.5, 0.5, 1.3, 1.3]


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
    zbar = PauliSum(3, ((1 / 3, "ZII"), (-1 / 3, "IZI"), (1 / 3, "IIZ")))
    assert named_observable("Zbar", 3) == zbar


def test_named_observable_resolution():
    assert named_observable("Z1", 3) == PauliSum(3, ((1.0, "IZI"),))
    assert named_observable("Z", 1) == PauliSum(1, ((1.0, "Z"),))
    with pytest.raises(ValueError, match="Zbar is defined on three"):
        named_observable("Zbar", 2)
    with pytest.raises(ValueError, match="unknown observable"):
        named_observable("Q", 3)
    with pytest.raises(ValueError, match="out of range"):
        named_observable("Z3", 3)


@pytest.mark.parametrize("n_qubits", [1, 2, 3])
def test_named_observable_puts_z_on_its_qubit(n_qubits):
    for k in range(n_qubits):
        factors = [SZ if q == k else I2 for q in range(n_qubits)]
        assert np.array_equal(dense_matrix(named_observable(f"Z{k}", n_qubits)), kron(*factors))


@pytest.mark.parametrize("n_qubits", [11, 12])
def test_named_observable_reads_a_multi_digit_qubit_index(n_qubits):
    rest = "I" * (n_qubits - 11)
    assert named_observable("Z10", n_qubits) == PauliSum(n_qubits, ((1.0, "I" * 10 + "Z" + rest),))
    assert named_observable("Z0", n_qubits) == PauliSum(n_qubits, ((1.0, "Z" + "I" * 10 + rest),))
    with pytest.raises(ValueError, match=rf"^qubit 12 out of range for {n_qubits} qubit"):
        named_observable("Z12", n_qubits)


@pytest.mark.parametrize("name", ["Z01", "Z00", "Z\u0661", "Z\u00b2", "Z+1", "Z 1", "Z1 ", "Z1_0"])
def test_named_observable_takes_only_plain_decimal_indices(name):
    # int() would read each of these but the superscript, which it fails on with its own message
    with pytest.raises(ValueError, match=f"^unknown observable {re.escape(repr(name))}$"):
        named_observable(name, 3)


@pytest.mark.parametrize("digits", [4301, 5000])
def test_a_long_qubit_index_is_out_of_range_before_int_reads_it(digits):
    # int() refuses a string of over 4300 digits with its own message
    index = "9" * digits
    with pytest.raises(ValueError, match=f"^qubit {index} out of range for 3 qubit\\(s\\)$"):
        named_observable("Z" + index, 3)


def test_bare_z_needs_a_one_qubit_register():
    for n_qubits in (2, 3):
        with pytest.raises(ValueError) as caught:
            named_observable("Z", n_qubits)
        assert str(caught.value) == 'observable "Z" is only unambiguous on one qubit, use "Z<k>"'


def test_pauli_sum_adds_only_pauli_sums():
    with pytest.raises(TypeError) as caught:
        schwinger_hamiltonian(1, 1.0) + 1
    assert str(caught.value) == "unsupported operand type(s) for +: 'PauliSum' and 'int'"


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
    assert expectation(state, named_observable("Zbar", 3)) == pytest.approx(-1.0)
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


def _apply_term_by_term(amplitudes, op):
    """Reference: one apply_axes per term, added up in term order."""
    acc = np.zeros_like(amplitudes, dtype=complex)
    for coeff, axes in op.terms:
        acc += coeff * apply_axes(amplitudes, axes)
    return acc


def _random_operator(rng, n_qubits, n_terms):
    terms = []
    for _ in range(n_terms):
        axes = "".join(rng.choice(list("IXYZ"), size=n_qubits))
        # exact zeros of either sign and unit coefficients among the random ones
        coeff = rng.normal() if rng.random() < 0.7 else rng.choice([0.0, -0.0, 1.0, -1.0])
        terms.append((float(coeff), axes))
    return PauliSum(n_qubits, tuple(terms))


def test_apply_operator_matches_the_term_by_term_sum_byte_for_byte():
    rng = np.random.default_rng(33)
    sizes = [(n, int(rng.integers(1, 41))) for n in range(1, 11) for _ in range(12)]
    # many terms on few amplitudes: the sum must still run in term order
    sizes += [(1, 30), (1, 40), (2, 40)]
    for n_qubits, n_terms in sizes:
        op = _random_operator(rng, n_qubits, n_terms)
        dim = 2**n_qubits
        noise = rng.normal(size=dim) + 1.0j * rng.normal(size=dim)
        # a basis state makes most products exact zeros, whose signs must match too
        basis = np.zeros(dim, dtype=complex)
        basis[rng.integers(dim)] = 1.0
        for amplitudes in (noise, basis, basis.real):
            applied, expected = apply_operator(amplitudes, op), _apply_term_by_term(amplitudes, op)
            assert applied.dtype == expected.dtype and applied.shape == expected.shape
            assert applied.tobytes() == expected.tobytes()


def test_apply_operator_refuses_amplitudes_of_another_register():
    with pytest.raises(ValueError, match=r"^amplitudes of shape \(4,\) do not fit 3 qubit\(s\)$"):
        apply_operator(np.ones(4, dtype=complex), schwinger_hamiltonian(3, 1.0))


def test_operator_equality_and_hash_follow_the_term_values():
    op = PauliSum(2, ((0.5, "XX"), (-1.0, "ZI")))
    twin = PauliSum(2, ((0.5, "XX"), (-1.0, "ZI")))
    assert twin is not op and twin == op and hash(twin) == hash(op)
    for other in (
        PauliSum(2, ((0.5, "XX"), (-1.5, "ZI"))),  # a coefficient
        PauliSum(2, ((0.5, "XX"), (-1.0, "IZ"))),  # an axes string
        PauliSum(2, ((-1.0, "ZI"), (0.5, "XX"))),  # the term order
        PauliSum(3, ((0.5, "XXI"), (-1.0, "ZII"))),  # the register size
    ):
        assert other != op and not other == op
    assert op != op.terms and op.__eq__(op.terms) is NotImplemented
    # 0.0 == -0.0, as between the coefficients themselves
    zero, negative_zero = PauliSum(1, ((0.0, "Z"),)), PauliSum(1, ((-0.0, "Z"),))
    assert zero == negative_zero and hash(zero) == hash(negative_zero)


def test_an_equal_operator_hits_the_eigensystem_cache():
    terms = ((0.5, "XXI"), (-0.25, "IZY"), (1.5, "ZII"))
    op, twin = PauliSum(3, terms), PauliSum(3, list(terms))
    cached = spectral._eigensystem(op)
    hits = spectral._eigensystem.cache_info().hits
    assert twin is not op and twin.terms is not op.terms
    assert spectral._eigensystem(twin) is cached
    assert spectral._eigensystem.cache_info().hits == hits + 1


def _hopping_chain(n_qubits):
    """XX + YY on each bond and Z on each qubit: 3 n - 2 terms."""
    strings = [
        "I" * q + axis * 2 + "I" * (n_qubits - q - 2) for q in range(n_qubits - 1) for axis in "XY"
    ]
    strings += ["I" * q + "Z" + "I" * (n_qubits - q - 1) for q in range(n_qubits)]
    return PauliSum(n_qubits, tuple((0.5 + 0.01 * k, s) for k, s in enumerate(strings)))


def test_operators_survive_pickle():
    op = schwinger_hamiltonian(3, 1.3)
    vec = np.arange(8) + 0.5j
    before = pickle.loads(pickle.dumps(op))
    applied = apply_operator(vec, op)
    after = pickle.loads(pickle.dumps(op))
    for copy in (before, after):
        assert copy == op and hash(copy) == hash(op)
        assert apply_operator(vec, copy).tobytes() == applied.tobytes()
    # a pickle carries the operator's values only, never a compiled form
    chain = _hopping_chain(10)
    assert len(chain.terms) == 28
    size = len(pickle.dumps(chain))
    amplitudes = StateVector.basis("0110100101").amplitudes
    apply_operator(amplitudes, chain)
    evolve_trotter(amplitudes, chain, 0.3, 2)
    assert len(pickle.dumps(chain)) == size


def test_equal_strings_share_one_compiled_form():
    op = _hopping_chain(6)
    twin = PauliSum(6, tuple((-1.5, axes) for _, axes in op.terms))
    vec = StateVector.basis("011010").amplitudes
    apply_operator(vec, op)
    dense_matrix(twin)
    sources, phases = pauli._compiled(op._axes)
    assert np.shares_memory(pauli._compiled(twin._axes)[0], sources)
    assert not sources.flags.writeable and not phases.flags.writeable
    # the operators hold no array, so no copy of the form
    for held in (op, twin):
        assert not any(isinstance(value, np.ndarray) for value in vars(held).values())


def test_each_tuple_of_strings_is_compiled_once(capsys):
    """The compile cache misses once per distinct tuple of strings a batch
    uses, and a ramp's slices, which share their strings, miss once in all."""
    used = set()
    for name in bundled_names():
        manifest = load_manifest(name)
        op = manifest.operator
        used.add(op._axes)
        used.update(o._axes for _, o in resolve_observables(manifest.config.observables, op))
        if manifest.prepare is not None:
            # each ramp slice holds the start's strings, then the target's
            used.add(staggered_start(op.n_qubits)._axes + op._axes)
    pauli._compiled.cache_clear()
    assert main(["batch", "--bundled"]) == 0
    assert pauli._compiled.cache_info().misses == len(used) == 11
    # table-13's 400 split-step slices read the entry its exact ramp compiled
    before = pauli._compiled.cache_info()
    assert main(["run", "--config", "table-13", "--backend", "trotter:16"]) == 0
    after = pauli._compiled.cache_info()
    assert after.misses == before.misses and after.hits >= before.hits + 400
    capsys.readouterr()
    pauli._compiled.cache_clear()
    start, target = staggered_start(3), schwinger_hamiltonian(3, 0.7)
    adiabatic_prepare("101", start, target, AdiabaticSchedule(5.0, 400), Backend(2))
    assert pauli._compiled.cache_info()[:2] == (399, 1)


def test_identity_string_application_copies():
    vec = np.array([0.6 + 0.0j, 0.8j])
    out = apply_axes(vec, "I")
    assert np.allclose(out, vec)
    out[0] = 0.0
    assert vec[0] == 0.6


def test_dense_limit_caps_dense_builds(monkeypatch):
    monkeypatch.setattr(pauli, "DENSE_LIMIT", 2)
    with pytest.raises(ValueError, match=r"^dense matrix for 3 qubits exceeds the 2-qubit cap$"):
        dense_matrix(schwinger_hamiltonian(3, 1.0))
    monkeypatch.setattr(pauli, "DENSE_LIMIT", 3)
    assert dense_matrix(schwinger_hamiltonian(3, 1.0)).shape == (8, 8)


def test_json_round_trip_preserves_order_and_values():
    op = schwinger_hamiltonian(3, 3.7)
    data = {"n_qubits": 3, "terms": [{"coeff": c, "axes": a} for c, a in op.terms]}
    assert PauliSum.from_dict(json.loads(json.dumps(data))) == op


def test_term_validation():
    with pytest.raises(ValueError, match="finite"):
        PauliSum(1, ((float("nan"), "X"),))
    # an int beyond float range is refused, not an OverflowError
    for coeff in (True, "1", 1j, 10**400):
        with pytest.raises(ValueError, match=f"coefficient {coeff!r} must be a finite real number"):
            PauliSum(1, ((coeff, "Z"),))
    single = PauliSum(1, ((np.float32(0.5), "Z"),))
    assert single == PauliSum(1, ((0.5, "Z"),)) and type(single.terms[0][0]) is float
    with pytest.raises(ValueError, match="axes"):
        PauliSum(2, ((1.0, "XQ"),))
    with pytest.raises(ValueError, match="axes"):
        PauliSum(1, ((1.0, ""),))
    # a list of letters would pass the letter check and fail later, on hashing
    for axes in (["X", "Z"], ("X",), b"XZ", 3):
        with pytest.raises(ValueError, match=re.escape(f"axes {axes!r} must be a nonempty")):
            PauliSum(2, ((1.0, axes),))
    # a term is a (coeff, axes) pair and nothing else
    for term in ("X", (1.0,), None, (1.0, "X", 2)):
        message = re.escape(f"term {term!r} must be a (coeff, axes) pair")
        with pytest.raises(ValueError, match=message):
            PauliSum(1, (term,))


def test_sum_validation():
    with pytest.raises(ValueError, match="at least one term"):
        PauliSum(1, ())
    with pytest.raises(ValueError, match="acts on"):
        PauliSum(2, ((1.0, "X"),))
    # each coefficient is finite, but a dense build or an evolution adds them up
    big = PauliSum(1, ((1e308, "Z"),))
    message = re.escape("summed |coefficient| of the terms is inf, not finite")
    with pytest.raises(ValueError, match=message):
        PauliSum(1, big.terms * 2 + ((1.0, "X"),))
    with pytest.raises(ValueError, match=message):
        schwinger_hamiltonian(3, 1e308)


_ORACLE_FACTORS = {"I": I2, "X": SX, "Y": SY, "Z": SZ}


def _oracle(axes):
    return kron(*(_ORACLE_FACTORS[c] for c in axes))


def test_pauli_kernel_matches_kron_oracle():
    rng = np.random.default_rng(20231)
    for n in range(1, 7):
        pool = ["I" * n] + ["".join(rng.choice(list("IXYZ"), size=n)) for _ in range(5)]
        for _ in range(60):
            picks = rng.integers(len(pool), size=rng.integers(1, 6))
            terms = tuple((float(rng.normal()), pool[k]) for k in picks)
            expected = np.zeros((2**n, 2**n), dtype=complex)
            for coeff, axes in terms:
                expected += coeff * _oracle(axes)
            assert np.array_equal(dense_matrix(PauliSum(n, terms)), expected)
        for axes in pool:
            vec = rng.normal(size=2**n) + 1.0j * rng.normal(size=2**n)
            assert np.array_equal(apply_axes(vec, axes), _oracle(axes) @ vec)


def test_apply_axes_rejects_wrong_length():
    with pytest.raises(ValueError):
        apply_axes(np.ones(4, dtype=complex), "XYZ")
