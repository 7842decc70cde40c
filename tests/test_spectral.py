"""Tests for the spectral toolbox: ordering, closed forms, evolution."""

import math
import re

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.csgraph

from oracles import exact_propagate, group_slices, projector, random_pauli_sum, random_state
from twirlsim import (
    PauliSum,
    SpectralDecomposition,
    StateVector,
    closed_form_spectrum,
    eigendecompose,
    evolve_exact,
    overlap_weights,
    schwinger_hamiltonian,
    spectral,
)
from twirlsim.cli import main
from twirlsim.pauli import dense_matrix


# ---------------------------------------------------------------------------
# eigenvalues against hand-derived closed forms


def test_one_qubit_eigenvalues():
    j = 2.0
    root = math.sqrt(1.0 + j * j)
    dec = eigendecompose(schwinger_hamiltonian(1, j))
    np.testing.assert_allclose(dec.eigenvalues, [-root, root], atol=1e-12)


def test_one_qubit_ground_vector_direction():
    # ground of [[J, 1], [1, -J]] is proportional to (1, -J - sqrt(1+J^2))
    j = 2.0
    root = math.sqrt(1.0 + j * j)
    dec = eigendecompose(schwinger_hamiltonian(1, j))
    ground = dec.eigenstate(0).amplitudes
    ratio = ground[1] / ground[0]
    assert abs(ratio - (-j - root)) < 1e-10
    assert ground[0].real > 0


def test_two_qubit_eigenvalues_and_corners():
    j = 0.7
    root = math.sqrt(1.0 + j * j)
    dec = eigendecompose(schwinger_hamiltonian(2, j))
    np.testing.assert_allclose(dec.eigenvalues, [-root, -j, j, root], atol=1e-12)
    # the Hamming-weight corners decouple: |11> sits at -J, |00> at +J
    np.testing.assert_allclose(
        dec.eigenstate(1).amplitudes, StateVector.basis("11").amplitudes, atol=1e-10
    )
    np.testing.assert_allclose(
        dec.eigenstate(2).amplitudes, StateVector.basis("00").amplitudes, atol=1e-10
    )


def test_three_qubit_eigenvalues():
    c = math.sqrt(3.0)
    s = math.sqrt(6.0)
    expected = [-(1.0 + c), -s, 0.0, 0.0, 0.0, c - 1.0, 2.0, s]
    dec = eigendecompose(schwinger_hamiltonian(3, 1.0))
    np.testing.assert_allclose(dec.eigenvalues, expected, atol=1e-12)
    closed = closed_form_spectrum(3, 1.0)
    np.testing.assert_allclose(closed.eigenvalues, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# canonical ordering and phase convention


def test_zero_modes_ordered_by_first_support():
    # threefold zero level at J=1: weight-1 mode, weight-2 mode, |111>
    closed = closed_form_spectrum(3, 1.0)
    odd = np.zeros(8)
    odd[[1, 2, 4]] = [1.0, -2.0, -1.0]
    odd /= np.linalg.norm(odd)
    even = np.zeros(8)
    even[[3, 6]] = [1.0, -1.0]
    even /= np.linalg.norm(even)
    np.testing.assert_allclose(closed.eigenstate(2).amplitudes, odd, atol=1e-12)
    np.testing.assert_allclose(closed.eigenstate(3).amplitudes, even, atol=1e-12)
    np.testing.assert_allclose(
        closed.eigenstate(4).amplitudes, StateVector.basis("111").amplitudes, atol=1e-12
    )


def test_degenerate_tie_breaks_at_half_coupling():
    # J=1/2 pins 2J and c-J both at 1; |000> (support 0) sorts first
    closed = closed_form_spectrum(3, 0.5)
    np.testing.assert_allclose(
        closed.eigenvalues,
        [-2.0, -math.sqrt(3.0), 0.0, 0.0, 0.0, 1.0, 1.0, math.sqrt(3.0)],
        atol=1e-12,
    )
    np.testing.assert_allclose(
        closed.eigenstate(5).amplitudes, StateVector.basis("000").amplitudes, atol=1e-12
    )
    uniform = np.zeros(8)
    uniform[[3, 5, 6]] = 1.0 / math.sqrt(3.0)
    np.testing.assert_allclose(closed.eigenstate(6).amplitudes, uniform, atol=1e-12)


def test_phase_convention_and_residuals():
    for n, j in [(1, 1.0), (2, 0.7), (3, 1.0), (3, 0.3)]:
        op = schwinger_hamiltonian(n, j)
        dec = eigendecompose(op)
        matrix = dense_matrix(op)
        for k in range(dec.dim):
            column = dec.eigenvectors[:, k]
            lead = column[np.flatnonzero(np.abs(column) > 1e-8)[0]]
            assert lead.real > 0 and abs(lead.imag) < 1e-10
            residual = matrix @ column - dec.eigenvalues[k] * column
            assert np.linalg.norm(residual) < 1e-10


def test_numeric_matches_closed_form_projectors():
    # individual vectors inside a degenerate level are basis-dependent,
    # so compare subspace projectors group by group
    for n in (1, 2, 3):
        for j in (0.0, 0.5, 1.0, 2.0, 3.7):
            numeric = eigendecompose(schwinger_hamiltonian(n, j))
            closed = closed_form_spectrum(n, j)
            gram = closed.eigenvectors.conj().T @ closed.eigenvectors
            np.testing.assert_allclose(gram, np.eye(closed.dim), atol=1e-12)
            np.testing.assert_allclose(
                numeric.eigenvalues, closed.eigenvalues, atol=1e-10
            )
            for block in group_slices(closed.eigenvalues):
                delta = projector(numeric.eigenvectors, block) - projector(
                    closed.eigenvectors, block
                )
                assert float(np.max(np.abs(delta))) < 1e-8


@pytest.mark.parametrize(
    "n_qubits, coupling", [(1, 1e200), (1, 1e154), (2, 1e160), (3, 1e154), (3, 6e153)]
)
def test_closed_form_refuses_a_coupling_that_overflows(n_qubits, coupling):
    # a level, or only the norm of a level's vector, passes the float range
    message = f"coupling J={coupling!r} overflows the closed-form spectrum of the {n_qubits}-qubit"
    with pytest.raises(ValueError, match=re.escape(message)):
        closed_form_spectrum(n_qubits, coupling)
    # below the overflow the closed form still holds
    dec = closed_form_spectrum(n_qubits, 1e150)
    assert np.isfinite(dec.eigenvalues).all() and np.isfinite(dec.eigenvectors).all()


def _oracle_first_support(column):
    hits = np.flatnonzero(np.abs(column) > 1e-8)
    return int(hits[0]) if hits.size else 0


def _oracle_canonical(values, vectors, tol=1e-8):
    """The canonical order and phase fix as a per-column loop over ``eigh`` output."""
    order = np.argsort(values, kind="stable")
    values = values[order]
    vectors = vectors[:, order]
    perm = []
    for block in group_slices(values, tol):
        members = range(block.start, block.stop)
        perm.extend(sorted(members, key=lambda i: _oracle_first_support(vectors[:, i])))
    values, vectors = values[perm], vectors[:, perm]
    fixed = vectors.copy()
    for i in range(fixed.shape[1]):
        lead = fixed[_oracle_first_support(fixed[:, i]), i]
        if abs(lead) > 0:
            fixed[:, i] *= lead.conjugate() / abs(lead)
    return values, fixed


def test_canonical_eigenbasis_matches_loop_oracle():
    rng = np.random.default_rng(2024)
    degenerate = 0
    for _ in range(3000):
        op = random_pauli_sum(rng, int(rng.integers(1, 6)), 7)
        values, vectors = _oracle_canonical(*np.linalg.eigh(dense_matrix(op)))
        dec = eigendecompose(op)
        assert dec.eigenvalues.tobytes() == values.tobytes()
        assert dec.eigenvectors.tobytes() == vectors.tobytes()
        assert dec.eigenvectors.flags.c_contiguous
        degenerate += len(group_slices(values)) < values.size
    assert degenerate > 1000


def test_chained_near_degenerate_levels_decompose():
    # gaps of 9e-9 chain all four levels into one run, ordered by support:
    # the levels come out as 1.35e-8, -0.45e-8, 0.45e-8, -1.35e-8
    op = PauliSum(2, ((0.45e-8, "ZI"), (0.9e-8, "IZ")))
    values, vectors = _oracle_canonical(*np.linalg.eigh(dense_matrix(op)))
    dec = eigendecompose(op)
    assert dec.eigenvalues.tobytes() == values.tobytes()
    assert dec.eigenvectors.tobytes() == vectors.tobytes()
    np.testing.assert_allclose(dec.eigenvalues, [1.35e-8, -0.45e-8, 0.45e-8, -1.35e-8], rtol=1e-9)


def test_canonical_basis_on_a_stack_matches_each_slice():
    rng = np.random.default_rng(2025)
    degenerate = 0
    for n_qubits in range(1, 6):
        matrices = np.stack([dense_matrix(random_pauli_sum(rng, n_qubits, 7)) for _ in range(60)])
        outputs = [np.linalg.eigh(matrix) for matrix in matrices]
        values = np.stack([v for v, _ in outputs])
        vectors = np.stack([w for _, w in outputs])
        # one stacked eigh returns the bytes of the per-slice calls
        stacked_values, stacked_vectors = np.linalg.eigh(matrices)
        assert stacked_values.tobytes() == values.tobytes()
        assert stacked_vectors.tobytes() == vectors.tobytes()
        canonical_values, canonical_vectors = spectral._canonical_basis(values, vectors)
        # two leading axes canonicalize like one
        dim = 2**n_qubits
        nested = spectral._canonical_basis(
            values.reshape(6, 10, dim), vectors.reshape(6, 10, dim, dim)
        )
        assert nested[0].tobytes() == canonical_values.tobytes()
        assert nested[1].tobytes() == canonical_vectors.tobytes()
        for k, (slice_values, slice_vectors) in enumerate(outputs):
            expected_values, expected_vectors = spectral._canonical_basis(
                slice_values, slice_vectors
            )
            assert canonical_values[k].tobytes() == expected_values.tobytes()
            assert canonical_vectors[k].tobytes() == expected_vectors.tobytes()
            assert canonical_vectors[k].flags.c_contiguous
            degenerate += len(group_slices(expected_values)) < expected_values.size
    assert degenerate > 100


def _hopping_chain(rng, n_qubits):
    """XX+YY hopping with a staggered random Z field: it conserves Hamming weight."""
    terms = []
    for q in range(n_qubits - 1):
        hop = float(rng.uniform(0.5, 1.0))
        terms += [(hop, "I" * q + 2 * axis + "I" * (n_qubits - q - 2)) for axis in "XY"]
    for q in range(n_qubits):
        field = (-1) ** q * float(rng.uniform(0.5, 1.5))
        terms.append((field, "I" * q + "Z" + "I" * (n_qubits - q - 1)))
    return PauliSum(n_qubits, tuple(terms))


def _block_eigh(matrix):
    """The number of connected components of the nonzero pattern, and the ascending
    eigenvalues and eigenvector columns from one eigh per component: the sector
    split of ROADMAP item 2."""
    n_blocks, labels = scipy.sparse.csgraph.connected_components(matrix != 0, directed=False)
    values = np.empty(len(matrix))
    vectors = np.zeros_like(matrix)
    start = 0
    for block in range(n_blocks):
        index = np.flatnonzero(labels == block)
        stop = start + index.size
        block_values, block_vectors = np.linalg.eigh(matrix[np.ix_(index, index)])
        values[start:stop], vectors[index, start:stop] = block_values, block_vectors
        start = stop
    order = np.argsort(values, kind="stable")
    return n_blocks, values[order], vectors[:, order]


@pytest.mark.parametrize(
    "n_qubits, generic", [(6, False), (8, False), (9, False), (7, True), (9, True)]
)
def test_sector_split_eigensystem_matches_the_canonical_one(n_qubits, generic):
    rng = np.random.default_rng(1000 + n_qubits)
    # a chain splits into its weight sectors, a sum of a few random strings into cosets
    op = random_pauli_sum(rng, n_qubits, 7) if generic else _hopping_chain(rng, n_qubits)
    matrix = dense_matrix(op)
    values, vectors = spectral._canonical_eigh(matrix)
    blocks, split_values, split_vectors = _block_eigh(matrix)
    assert blocks > 1 if generic else blocks == n_qubits + 1
    np.testing.assert_allclose(split_values, values, rtol=0, atol=1e-12)
    for block in group_slices(values):
        delta = projector(split_vectors, block) - projector(vectors, block)
        assert np.abs(delta).max() < 1e-10


def test_cache_returns_same_object():
    first = eigendecompose(schwinger_hamiltonian(2, 1.0))
    second = eigendecompose(schwinger_hamiltonian(2, 1.0))
    assert first is second


def test_cache_keeps_a_few_operators():
    for step in range(10):
        eigendecompose(schwinger_hamiltonian(3, 0.1 * step))
    assert spectral._eigensystem.cache_info().currsize <= 4


def test_bundled_batch_builds_each_operator_once(capsys):
    spectral._eigensystem.cache_clear()
    assert main(["batch", "--bundled"]) == 0
    capsys.readouterr()
    assert spectral._eigensystem.cache_info().misses == 3


# ---------------------------------------------------------------------------
# exact evolution


def test_evolution_matches_expm():
    rng = np.random.default_rng(11)
    op = schwinger_hamiltonian(3, 1.0)
    state = random_state(rng, 3)
    tau = 0.37
    propagator = scipy.linalg.expm(-1j * tau * dense_matrix(op))
    evolved = evolve_exact(state.amplitudes, op, tau)
    np.testing.assert_allclose(evolved, propagator @ state.amplitudes, atol=1e-10)


def test_evolution_composes_and_preserves_norm():
    op = schwinger_hamiltonian(2, 0.8)
    state = StateVector.basis("01")
    once = evolve_exact(evolve_exact(state.amplitudes, op, 0.4), op, 0.9)
    at_once = evolve_exact(state.amplitudes, op, 1.3)
    np.testing.assert_allclose(once, at_once, atol=1e-12)
    assert abs(np.linalg.norm(at_once) - 1.0) < 1e-12
    frozen = evolve_exact(state.amplitudes, op, 0.0)
    np.testing.assert_allclose(frozen, state.amplitudes, atol=1e-12)


def test_propagation_helper_matches_the_matmul_expression():
    rng = np.random.default_rng(2026)
    for n_qubits in range(1, 11):
        dim = 2**n_qubits
        raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        matrices = [raw + raw.conj().T]
        if n_qubits <= 5:
            # Pauli sums bring degenerate levels and eigenvectors with exact zeros
            matrices += [dense_matrix(random_pauli_sum(rng, n_qubits, 7)) for _ in range(4)]
        random = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        states = [np.eye(dim, dtype=complex)[k] for k in {0, dim - 1, int(rng.integers(dim))}]
        states.append(random / np.linalg.norm(random))
        for matrix in matrices:
            values, vectors = spectral._canonical_eigh(matrix)
            for tau in (0.37, -1.3, float(rng.uniform(-20.0, 20.0))):
                phases = np.exp(-1.0j * tau * values)
                for amplitudes in states:
                    expected = exact_propagate(amplitudes, values, vectors, tau)
                    evolved = spectral._propagate(amplitudes, phases, vectors.conj().T, vectors)
                    assert evolved.tobytes() == expected.tobytes()


def test_cached_eigensystem_routes_match_the_per_call_adjoint():
    # evolve_exact and overlap_weights against conj().T taken afresh on every call
    rng = np.random.default_rng(2028)
    for n_qubits in range(1, 11):
        dim = 2**n_qubits
        random = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        states = [np.eye(dim, dtype=complex)[k] for k in {0, dim - 1, int(rng.integers(dim))}]
        states.append(random / np.linalg.norm(random))
        for op in [random_pauli_sum(rng, n_qubits, 7) for _ in range(2 if n_qubits > 8 else 4)]:
            dec = eigendecompose(op)
            values, vectors = dec.eigenvalues, dec.eigenvectors
            for amplitudes in states:
                for tau in (0.37, -1.3, float(rng.uniform(-20.0, 20.0))):
                    expected = exact_propagate(amplitudes, values, vectors, tau)
                    assert evolve_exact(amplitudes, op, tau).tobytes() == expected.tobytes()
                weights = overlap_weights(StateVector(n_qubits, amplitudes), dec)
                expected = np.abs(vectors.conj().T @ amplitudes) ** 2
                assert weights.tobytes() == expected.tobytes()


def test_stacked_phases_and_adjoints_match_each_slice():
    rng = np.random.default_rng(2027)
    for n_qubits in range(1, 6):
        dim = 2**n_qubits
        matrices = np.stack([dense_matrix(random_pauli_sum(rng, n_qubits, 7)) for _ in range(20)])
        values, vectors = spectral._canonical_eigh(matrices)
        amplitudes = np.eye(dim, dtype=complex)[int(rng.integers(dim))]
        for dt in (0.05, -2.5):
            phases = np.exp(-1.0j * dt * values)
            adjoints = vectors.conj().transpose(0, 2, 1)
            for k in range(len(matrices)):
                assert phases[k].tobytes() == np.exp(-1.0j * dt * values[k]).tobytes()
                assert adjoints[k].strides == vectors[k].conj().T.strides
                expected = exact_propagate(amplitudes, values[k], vectors[k], dt)
                evolved = spectral._propagate(amplitudes, phases[k], adjoints[k], vectors[k])
                assert evolved.tobytes() == expected.tobytes()
                amplitudes = evolved


def test_evolution_validation():
    op = schwinger_hamiltonian(2, 1.0)
    with pytest.raises(ValueError, match="different registers"):
        evolve_exact(StateVector.basis("0").amplitudes, op, 0.1)
    with pytest.raises(ValueError, match="finite"):
        evolve_exact(StateVector.basis("01").amplitudes, op, float("nan"))
    state = StateVector.basis("01").amplitudes
    for tau in (True, "1", 1j):
        with pytest.raises(ValueError, match=f"time {tau!r} must be a finite real number"):
            evolve_exact(state, op, tau)
    assert np.array_equal(evolve_exact(state, op, np.float32(0.5)), evolve_exact(state, op, 0.5))


# ---------------------------------------------------------------------------
# overlap resolution


def test_overlap_weights_for_basis_101():
    # |101> spreads over the weight-2 triple: the ground level takes
    # (J+c)^2 / (2 + (J+c)^2), the c-J level the complement, the
    # antisymmetric zero mode nothing
    j = 1.0
    c = math.sqrt(3.0)
    dec = eigendecompose(schwinger_hamiltonian(3, j))
    weights = overlap_weights(StateVector.basis("101"), dec)
    w_ground = (j + c) ** 2 / (2.0 + (j + c) ** 2)
    w_upper = (c - j) ** 2 / (2.0 + (c - j) ** 2)
    assert abs(weights[0] - w_ground) < 1e-10
    assert abs(weights[5] - w_upper) < 1e-10
    assert abs(float(np.sum(weights)) - 1.0) < 1e-9
    assert np.argmax(weights) == 0
    with pytest.raises(ValueError):
        weights[0] = 0.0


def test_overlap_accepts_every_state_within_the_norm_tolerance():
    # a norm off by 8e-10 passes StateVector; its weights sum to 1 + 1.6e-9
    amplitudes = np.zeros(8, dtype=complex)
    amplitudes[5] = 1.0 + 8e-10
    state = StateVector(3, amplitudes)
    weights = overlap_weights(state, eigendecompose(schwinger_hamiltonian(3, 1.0)))
    assert float(np.sum(weights)) == pytest.approx(1.0 + 1.6e-9, abs=1e-12)


def test_overlap_register_mismatch():
    dec = eigendecompose(schwinger_hamiltonian(2, 1.0))
    with pytest.raises(ValueError, match="different registers"):
        overlap_weights(StateVector.basis("0"), dec)


# ---------------------------------------------------------------------------
# container validation


def test_decomposition_rejects_bad_shapes():
    with pytest.raises(ValueError, match="square"):
        SpectralDecomposition(np.array([0.0, 1.0]), np.eye(3))
    with pytest.raises(ValueError, match="power of two"):
        SpectralDecomposition(np.zeros(3), np.eye(3))
    with pytest.raises(ValueError, match="power of two"):
        SpectralDecomposition(np.zeros(1), np.eye(1))


def test_decomposition_arrays_are_read_only():
    for dec in (eigendecompose(schwinger_hamiltonian(1, 1.0)), closed_form_spectrum(2, 0.5)):
        with pytest.raises(ValueError):
            dec.eigenvalues[0] = 99.0
        with pytest.raises(ValueError):
            dec.eigenvectors[0, 0] = 99.0
    # the constructor freezes the arrays it is given instead of copying them
    values, vectors = spectral._canonical_eigh(dense_matrix(schwinger_hamiltonian(2, 1.0)))
    dec = SpectralDecomposition(values, vectors)
    assert dec.eigenvalues is values and dec.eigenvectors is vectors
    assert not values.flags.writeable and not vectors.flags.writeable
