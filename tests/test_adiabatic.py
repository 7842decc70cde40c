"""Tests for ramped ground-state preparation."""

import numpy as np
import pytest

from twirlsim import (
    AdiabaticSchedule,
    Backend,
    PauliSum,
    PauliTerm,
    adiabatic_prepare,
    eigendecompose,
    evolve_exact,
    expectation,
    schwinger_hamiltonian,
    staggered_start,
)
from twirlsim import adiabatic, spectral
from twirlsim.cli import execute_manifest
from twirlsim.manifest import load_manifest
from twirlsim.state import StateVector


def test_staggered_start_terms():
    op = staggered_start(3)
    assert [term.axes for term in op.terms] == ["ZII", "IZI", "IIZ"]
    assert [term.coeff for term in op.terms] == [1.0, -1.0, 1.0]
    # the alternating label is the unique ground state of the start operator
    ground = eigendecompose(op).eigenstate(0)
    target = StateVector.basis("101")
    assert abs(np.vdot(ground.amplitudes, target.amplitudes)) ** 2 > 1.0 - 1e-12


def test_schedule_validation():
    with pytest.raises(ValueError, match="positive"):
        AdiabaticSchedule(total_time=0.0)
    with pytest.raises(ValueError, match="positive"):
        AdiabaticSchedule(total_time=float("inf"))
    for total_time in (True, "1", 1j):
        with pytest.raises(ValueError, match=f"positive finite real number, got {total_time!r}"):
            AdiabaticSchedule(total_time=total_time)
    assert AdiabaticSchedule(total_time=np.float32(2.5)).total_time == 2.5
    with pytest.raises(ValueError, match="positive integer"):
        AdiabaticSchedule(steps=0)


def test_default_ramp_reaches_the_ground_state():
    target = schwinger_hamiltonian(3, 1.0)
    prepared = adiabatic_prepare("101", staggered_start(3), target)
    ground = eigendecompose(target).eigenstate(0)
    fidelity = abs(np.vdot(ground.amplitudes, prepared.amplitudes)) ** 2
    assert fidelity > 0.9999
    assert expectation(prepared, target) == pytest.approx(-2.732031, abs=1e-5)


def test_slower_ramp_is_better():
    target = schwinger_hamiltonian(3, 1.0)
    start = staggered_start(3)
    ground = eigendecompose(target).eigenstate(0)

    def fidelity(schedule):
        prepared = adiabatic_prepare("101", start, target, schedule)
        return abs(np.vdot(ground.amplitudes, prepared.amplitudes)) ** 2

    quick = fidelity(AdiabaticSchedule(total_time=5.0, steps=100))
    slow = fidelity(AdiabaticSchedule(total_time=20.0, steps=400))
    assert quick > 0.99
    assert slow > quick


def test_split_step_ramp_tracks_the_exact_ramp():
    target = schwinger_hamiltonian(3, 1.0)
    schedule = AdiabaticSchedule(total_time=5.0, steps=50)
    exact = adiabatic_prepare("101", staggered_start(3), target, schedule)
    split = adiabatic_prepare("101", staggered_start(3), target, schedule, Backend(4))
    assert 1.0 - 1e-6 < exact.fidelity(split) < 1.0 - 1e-12


def test_register_mismatches():
    with pytest.raises(ValueError, match="different registers"):
        adiabatic_prepare("10", staggered_start(2), schwinger_hamiltonian(3, 1.0))
    with pytest.raises(ValueError, match="different registers"):
        adiabatic_prepare("101", staggered_start(2), schwinger_hamiltonian(2, 1.0))


def _oracle_ramp(initial, start_op, target_op, schedule):
    """The ramp as a loop of frozen Pauli sums, each through ``evolve_exact``."""
    state = StateVector.basis(initial) if isinstance(initial, str) else initial
    amplitudes = state.amplitudes
    dt = schedule.total_time / schedule.steps
    for k in range(schedule.steps):
        s = (k + 0.5) / schedule.steps
        amplitudes = evolve_exact(amplitudes, (1.0 - s) * start_op + s * target_op, dt)
    return StateVector(state.n_qubits, amplitudes)


def _random_op(rng, n_qubits):
    terms = []
    for _ in range(int(rng.integers(1, 5))):
        axes = "".join(rng.choice(list("IXYZ"), n_qubits))
        coeff = float(rng.choice([0.5, 1.0, -1.0])) if rng.random() < 0.5 else float(rng.normal())
        terms.append(PauliTerm(coeff, axes))
    return PauliSum(n_qubits, tuple(terms))


@pytest.mark.parametrize("steps", [1, 7, 50])
def test_ramp_matches_frozen_operator_oracle(steps):
    rng = np.random.default_rng(steps)
    for _ in range(40):
        n_qubits = int(rng.integers(1, 5))
        start, target = _random_op(rng, n_qubits), _random_op(rng, n_qubits)
        raw = rng.normal(size=2**n_qubits) + 1j * rng.normal(size=2**n_qubits)
        initial = StateVector.from_amplitudes(raw)
        schedule = AdiabaticSchedule(total_time=float(rng.uniform(0.1, 10.0)), steps=steps)
        expected = _oracle_ramp(initial, start, target, schedule)
        prepared = adiabatic_prepare(initial, start, target, schedule)
        assert prepared.amplitudes.tobytes() == expected.amplitudes.tobytes()
    for n_qubits in (1, 2, 3):
        for coupling in (0.0, 0.5, 1.0, 2.0):
            start, target = staggered_start(n_qubits), schwinger_hamiltonian(n_qubits, coupling)
            label = ("10" * n_qubits)[:n_qubits]
            schedule = AdiabaticSchedule(total_time=20.0, steps=steps)
            expected = _oracle_ramp(label, start, target, schedule)
            prepared = adiabatic_prepare(label, start, target, schedule)
            assert prepared.amplitudes.tobytes() == expected.amplitudes.tobytes()


@pytest.mark.parametrize("chunk", [1, 3, 5])
def test_chunked_ramp_matches_frozen_operator_oracle(chunk, monkeypatch):
    # step counts of 1, a chunk and one either side of it, and a non-multiple
    rng = np.random.default_rng(100 + chunk)
    for steps in sorted({1, chunk - 1, chunk, chunk + 1, 2 * chunk + 1, 3 * chunk + 2} - {0}):
        for n_qubits in (1, 2, 3, 4):
            monkeypatch.setattr(adiabatic, "RAMP_STACK_BYTES", chunk * 16 * 4**n_qubits)
            start, target = _random_op(rng, n_qubits), _random_op(rng, n_qubits)
            raw = rng.normal(size=2**n_qubits) + 1j * rng.normal(size=2**n_qubits)
            initial = StateVector.from_amplitudes(raw)
            schedule = AdiabaticSchedule(total_time=float(rng.uniform(0.1, 10.0)), steps=steps)
            expected = _oracle_ramp(initial, start, target, schedule)
            prepared = adiabatic_prepare(initial, start, target, schedule)
            assert prepared.amplitudes.tobytes() == expected.amplitudes.tobytes()


def test_ramp_scenario_leaves_the_eigensystem_cache_alone():
    shared = eigendecompose(schwinger_hamiltonian(3, 1.0))
    misses = spectral._eigensystem.cache_info().misses
    execute_manifest(load_manifest("table-13"))
    assert spectral._eigensystem.cache_info().misses - misses <= 4
    assert eigendecompose(schwinger_hamiltonian(3, 1.0)) is shared
