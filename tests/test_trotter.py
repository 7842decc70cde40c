"""Tests for the split-step integrator.

``golden/trotter_bytes.json`` holds the sha256 of the bytes
``evolve_trotter`` returns for each case of ``_sweep_cases``. Regenerate
it only for a deliberate change of output:

    PYTHONPATH=src python tests/test_trotter.py
"""

import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from oracles import split_step_sweep
from twirlsim import (
    Backend,
    PauliSum,
    StateVector,
    evolve_exact,
    evolve_trotter,
    schwinger_hamiltonian,
    trotter_errors,
)

GOLDEN = Path(__file__).parent / "golden" / "trotter_bytes.json"


def test_single_term_is_exact():
    # with one term the splitting is the exact rotation at any step count
    op = PauliSum(2, ((0.83, "XY"),))
    state = StateVector.basis("10")
    exact = evolve_exact(state.amplitudes, op, 1.7)
    for steps in (1, 3):
        approx = evolve_trotter(state.amplitudes, op, 1.7, steps)
        np.testing.assert_allclose(approx, exact, atol=1e-12)


def test_commuting_terms_are_exact():
    op = PauliSum(2, ((1.0, "ZI"), (0.5, "ZZ")))
    state = StateVector(2, np.full(4, 0.5))
    exact = evolve_exact(state.amplitudes, op, 2.1)
    approx = evolve_trotter(state.amplitudes, op, 2.1, 1)
    np.testing.assert_allclose(approx, exact, atol=1e-12)


def test_three_qubit_error_reference_point():
    # frozen reference: 8 steps over a quarter period of the J=1 chain
    op = schwinger_hamiltonian(3, 1.0)
    err = trotter_errors(op, np.pi / 2.0, [8])[0]
    assert err == pytest.approx(1.784e-2, abs=5e-5)


def test_error_scales_as_second_order():
    op = schwinger_hamiltonian(3, 1.0)
    errors = [trotter_errors(op, np.pi / 2.0, [steps])[0] for steps in (8, 16, 32)]
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.4 < coarse / fine < 4.7


def test_high_step_count_matches_exact_evolution():
    op = schwinger_hamiltonian(3, 1.0)
    state = StateVector.basis("101")
    exact = evolve_exact(state.amplitudes, op, np.pi / 2.0)
    approx = evolve_trotter(state.amplitudes, op, np.pi / 2.0, 512)
    fidelity = abs(np.vdot(exact, approx)) ** 2
    assert fidelity > 1.0 - 1e-6


def test_norm_is_preserved():
    op = schwinger_hamiltonian(2, 0.6)
    state = StateVector.basis("01")
    evolved = evolve_trotter(state.amplitudes, op, 5.0, 7)
    assert abs(np.linalg.norm(evolved) - 1.0) < 1e-12


def test_plan_and_argument_validation():
    op = schwinger_hamiltonian(1, 1.0)
    state = StateVector.basis("0").amplitudes
    with pytest.raises(ValueError, match="positive integer"):
        evolve_trotter(state, op, 1.0, -2)
    with pytest.raises(ValueError, match="positive integer"):
        trotter_errors(op, 1.0, [0])[0]
    with pytest.raises(ValueError, match="finite"):
        evolve_trotter(state, op, float("inf"), 4)
    with pytest.raises(ValueError, match="finite"):
        trotter_errors(op, float("nan"), [4])[0]
    with pytest.raises(ValueError, match="different registers"):
        evolve_trotter(StateVector.basis("00").amplitudes, op, 1.0, 4)
    # a finite coefficient and time whose half-step angle overflows
    big = PauliSum(1, ((1e200, "X"), (1.0, "Z")))
    message = re.escape("evolution time 1e+200 times summed |coefficient| 1e+200 overflows")
    with pytest.raises(ValueError, match=message):
        evolve_trotter(state, big, 1e200, 2)
    with pytest.raises(ValueError, match=message):
        trotter_errors(big, 1e200, [2])[0]
    # 10**10 steps keep each angle finite, but the exact phase tau * e overflows
    big = PauliSum(1, ((1e300, "X"), (1.0, "Z")))
    message = re.escape("evolution time 10000000000.0 times summed |coefficient| 1e+300 overflows")
    with pytest.raises(ValueError, match=message):
        trotter_errors(big, 1e10, [10**10])[0]
    # a time is a real number: not a bool, a string or a complex
    for tau in (True, "1", 1j):
        with pytest.raises(ValueError, match=f"time {tau!r} must be a finite real number"):
            evolve_trotter(state, op, tau, 4)
        with pytest.raises(ValueError, match=f"time {tau!r} must be a finite real number"):
            trotter_errors(op, tau, [4])[0]
    for tau in (np.float64(0.7), 2):
        want = evolve_trotter(state, op, float(tau), 4)
        assert np.array_equal(evolve_trotter(state, op, tau, 4), want)


def _random_axes(rng, n_qubits, alphabet="IXYZ"):
    return "".join(rng.choice(list(alphabet), n_qubits))


def _chain_sum(rng, n_qubits):
    """The benchmark chain: XX+YY hopping on each bond, then a staggered Z field."""
    terms = []
    for q in range(n_qubits - 1):
        hop = float(rng.uniform(0.5, 1.0))
        terms += [(hop, "I" * q + 2 * axis + "I" * (n_qubits - q - 2)) for axis in "XY"]
    for q in range(n_qubits):
        field = (-1) ** q * float(rng.uniform(0.5, 1.5))
        terms.append((field, "I" * q + "Z" + "I" * (n_qubits - q - 1)))
    return PauliSum(n_qubits, tuple(terms))


def _mixed_sum(rng, n_qubits):
    """Diagonal (I/Z) strings interleaved with strings holding at least one X or Y."""
    terms = []
    for _ in range(int(rng.integers(1, 4))):
        terms.append((float(rng.normal()), _random_axes(rng, n_qubits, "IZ")))
        flip = list(_random_axes(rng, n_qubits))
        flip[rng.integers(n_qubits)] = str(rng.choice(list("XY")))
        terms.append((float(rng.normal()), "".join(flip)))
    return PauliSum(n_qubits, tuple(terms))


def _sweep_cases(rng):
    """(op, amplitudes, tau, steps): random strings, then each shape the sweep branches on."""
    ops = []
    for _ in range(300):
        n_qubits = int(rng.integers(1, 9))
        terms = tuple(
            (float(rng.normal()), _random_axes(rng, n_qubits))
            for _ in range(int(rng.integers(1, 7)))
        )
        ops.append(PauliSum(n_qubits, terms))
    for _ in range(60):
        # every rotation diagonal
        n_qubits = int(rng.integers(1, 9))
        terms = tuple(
            (float(rng.normal()), _random_axes(rng, n_qubits, "IZ"))
            for _ in range(int(rng.integers(1, 7)))
        )
        ops.append(PauliSum(n_qubits, terms))
    ops += [_mixed_sum(rng, int(rng.integers(1, 9))) for _ in range(60)]
    ops += [_chain_sum(rng, n_qubits) for n_qubits in (8, 10) for _ in range(3)]
    for case, op in enumerate(ops):
        dim = 2**op.n_qubits
        if case % 2:
            amps = rng.normal(size=dim) + 1.0j * rng.normal(size=dim)
            amps /= np.linalg.norm(amps)
        else:
            amps = np.zeros(dim, dtype=complex)
            amps[rng.integers(dim)] = 1.0
        yield op, amps, float(rng.uniform(-100.0, 100.0)), int(rng.integers(1, 33))


def test_sweep_matches_textbook_rotations():
    """Split-step evolution equals the per-term textbook formula value for value.

    Values, not ``tobytes``: an exact zero amplitude may come out as -0.0
    on one side and 0.0 on the other, and nothing downstream reads its sign.
    """
    for case, (op, amps, tau, steps) in enumerate(_sweep_cases(np.random.default_rng(11))):
        got = evolve_trotter(amps, op, tau, steps)
        want = split_step_sweep(amps, op, tau, steps)
        assert np.array_equal(got, want), (case, op, tau, steps)


def _sweep_digests():
    """The sha256 of each sweep case's result bytes, in case order."""
    return [
        hashlib.sha256(evolve_trotter(amps, op, tau, steps).tobytes()).hexdigest()
        for op, amps, tau, steps in _sweep_cases(np.random.default_rng(11))
    ]


def test_sweep_bytes_match_their_pin():
    """Split-step evolution returns the pinned bytes for every sweep case,
    the sign of each exact zero included, which a value comparison cannot show."""
    assert _sweep_digests() == json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_sweep_leaves_its_input_alone():
    """The result is a fresh array; a read-only or writable input is never written."""
    rng = np.random.default_rng(5)
    op = _chain_sum(rng, 8)
    diagonal = PauliSum(3, ((0.4, "ZIZ"), (-1.1, "IZI")))
    frozen = StateVector.basis("10010110").amplitudes
    assert not frozen.flags.writeable
    got = evolve_trotter(frozen, op, 0.7, 4)
    assert not np.shares_memory(got, frozen)
    for case_op in (op, diagonal):
        dim = 2**case_op.n_qubits
        writable = rng.normal(size=dim) + 1.0j * rng.normal(size=dim)
        writable /= np.linalg.norm(writable)
        before = writable.copy()
        got = evolve_trotter(writable, case_op, 0.7, 4)
        assert np.array_equal(writable, before)
        assert not np.shares_memory(got, writable)
        first = Backend(16).evolve(writable, case_op, 1.3)
        second = Backend(16).evolve(writable, case_op, 1.3)
        assert np.array_equal(first, second)
        assert not np.shares_memory(first, second)
        assert np.array_equal(writable, before)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_sweep_digests(), indent=1) + "\n", encoding="utf-8")
