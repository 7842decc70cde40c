"""Randomized invariant checks, shared with the acceptance suite.

Each runner draws its own generator from a seed, performs ``cases``
independent randomized checks, and returns the number it ran, so the
acceptance suite can budget a total case count across all three.
"""

import numpy as np
import pytest
import scipy.linalg

from oracles import random_state
from twirlsim import (
    PauliSum,
    TauMode,
    choose_tau,
    eigendecompose,
    evolve_exact,
    expectation,
    keep_probability,
    overlap_weights,
    schwinger_hamiltonian,
    twirl_round,
)
from twirlsim.pauli import apply_operator, dense_matrix

AXES = "IXYZ"


def _random_sum(rng, n_qubits):
    terms = tuple(
        (
            float(rng.uniform(-2.0, 2.0)),
            "".join(AXES[i] for i in rng.integers(0, 4, size=n_qubits)),
        )
        for _ in range(int(rng.integers(1, 5)))
    )
    return PauliSum(n_qubits, terms)


def run_pauli_cases(cases, seed=0):
    """Operator algebra against dense matrices on random inputs."""
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        n = int(rng.integers(1, 4))
        op = _random_sum(rng, n)
        other = _random_sum(rng, n)
        state = random_state(rng, n)
        matrix = dense_matrix(op)
        assert np.max(np.abs(matrix - matrix.conj().T)) < 1e-12
        applied = apply_operator(state.amplitudes, op)
        np.testing.assert_allclose(applied, matrix @ state.amplitudes, atol=1e-10)
        direct = float(np.real(np.vdot(state.amplitudes, matrix @ state.amplitudes)))
        assert abs(expectation(state, op) - direct) < 1e-10
        both = dense_matrix(PauliSum(n, op.terms + other.terms))
        np.testing.assert_allclose(both, matrix + dense_matrix(other), atol=1e-12)
        scale = float(rng.uniform(-3.0, 3.0))
        scaled = PauliSum(n, tuple((scale * coeff, axes) for coeff, axes in op.terms))
        np.testing.assert_allclose(dense_matrix(scaled), scale * matrix, atol=1e-12)
    return cases


def run_spectral_cases(cases, seed=0):
    """Eigensystem and propagator invariants on random operators."""
    rng = np.random.default_rng(seed)
    for index in range(cases):
        if rng.random() < 0.5:
            n = int(rng.integers(1, 4))
            op = schwinger_hamiltonian(n, float(rng.uniform(0.0, 3.0)))
        else:
            n = int(rng.integers(1, 4))
            op = _random_sum(rng, n)
        matrix = dense_matrix(op)
        dec = eigendecompose(op)
        assert np.all(np.diff(dec.eigenvalues) >= -1e-8)
        residual = matrix @ dec.eigenvectors - dec.eigenvectors * dec.eigenvalues
        assert float(np.max(np.abs(residual))) < 1e-9
        rebuilt = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.conj().T
        assert float(np.max(np.abs(rebuilt - matrix))) < 1e-9
        state = random_state(rng, n)
        tau_a = float(rng.uniform(-3.0, 3.0))
        tau_b = float(rng.uniform(-3.0, 3.0))
        stepwise = evolve_exact(evolve_exact(state.amplitudes, op, tau_a), op, tau_b)
        combined = evolve_exact(state.amplitudes, op, tau_a + tau_b)
        np.testing.assert_allclose(stepwise, combined, atol=1e-9)
        assert abs(np.linalg.norm(combined) - 1.0) < 1e-10
        if index % 5 == 0:
            propagator = scipy.linalg.expm(-1j * tau_a * matrix)
            np.testing.assert_allclose(
                evolve_exact(state.amplitudes, op, tau_a),
                propagator @ state.amplitudes,
                atol=1e-8,
            )
        weights = overlap_weights(state, dec)
        assert abs(float(np.sum(weights)) - 1.0) < 1e-9
    return cases


def run_twirl_cases(cases, seed=0):
    """Filtering-round invariants: dual-route keep probability and the
    guarantee that the targeted eigencomponent is never damped."""
    rng = np.random.default_rng(seed)
    done = 0
    while done < cases:
        n = int(rng.integers(1, 4))
        op = schwinger_hamiltonian(n, float(rng.uniform(0.0, 3.0)))
        dec = eigendecompose(op)
        state = random_state(rng, n)
        before = overlap_weights(state, dec)
        candidates = [
            j
            for j in range(dec.dim)
            if abs(dec.eigenvalues[j]) > 1e-6 and before[j] > 1e-8
        ]
        if not candidates:
            continue
        target = candidates[int(rng.integers(0, len(candidates)))]
        mode = TauMode.QUARTER if rng.random() < 0.5 else TauMode.FULL
        tau, prefactor = choose_tau(float(dec.eigenvalues[target]), mode, op._norm_bound)
        posterior, p = twirl_round(state, op, tau, prefactor)
        predicted = keep_probability(state, op, tau, prefactor)
        assert abs(p - predicted) < 1e-10
        assert 0.0 < p <= 1.0 + 1e-12
        assert abs(np.linalg.norm(posterior.amplitudes) - 1.0) < 1e-10
        after = overlap_weights(posterior, dec)
        # the aimed-at component sits at filter angle zero, so its weight
        # can only be renormalized upward
        assert after[target] >= before[target] - 1e-12
        assert abs(after[target] - before[target] / p) < 1e-9
        if mode is TauMode.FULL:
            for j in range(dec.dim):
                if abs(dec.eigenvalues[j]) < 1e-9:
                    assert after[j] >= before[j] - 1e-12
        done += 1
    return done


# ---------------------------------------------------------------------------
# smoke coverage so the invariants run in the unit suite too


def test_pauli_invariants_hold():
    assert run_pauli_cases(150, seed=1) == 150


def test_spectral_invariants_hold():
    assert run_spectral_cases(150, seed=2) == 150


def test_twirl_invariants_hold():
    assert run_twirl_cases(150, seed=3) == 150


def test_runner_inputs_are_reproducible():
    first = np.random.default_rng(9).integers(0, 1 << 30, size=4)
    second = np.random.default_rng(9).integers(0, 1 << 30, size=4)
    np.testing.assert_array_equal(first, second)


def test_quarter_round_angle_is_exact_at_target():
    # sanity for the invariant used above: aiming at a level zeroes its
    # angle, so that level alone keeps everything, on any ancilla count
    op = schwinger_hamiltonian(2, 1.3)
    dec = eigendecompose(op)
    tau, prefactor = choose_tau(float(dec.eigenvalues[0]), TauMode.QUARTER, op._norm_bound)
    for ancillas in (1, 4):
        kept = keep_probability(dec.eigenstate(0), op, tau, prefactor, ancillas)
        assert kept == pytest.approx(1.0, abs=1e-12)
