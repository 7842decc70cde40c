"""Ramped state preparation between two Hamiltonians.

The ramp freezes the interpolated operator on each of ``steps`` equal
slices of the total time, evaluating the mix at the slice midpoint, and
evolves under that frozen operator. Slow ramps from the ground state of
the start operator land close to the ground state of the target.

On the exact backend the slice matrices do not depend on the state, so
they are built in chunks: each chunk's slices are scattered straight
from the compiled terms into one ``(k, d, d)`` stack of at most
``RAMP_STACK_BYTES``, diagonalized by one stacked ``eigh`` and put into
the canonical eigenbasis in one stack-aware pass, the same one the
eigensystem cache uses. Each chunk's phases exp(-i dt e) and conjugated
eigenvectors are then computed in one array call each. Only the
propagation through the slices is sequential, three calls per slice:
into the eigenbasis, the phases, and back. Nothing enters the cache:
every slice is a distinct operator, used once, and caching it would
only evict reusable entries.
The split-step backend evolves the frozen ``PauliSum`` of each slice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import (
    PauliSum,
    PauliTerm,
    _check_count,
    _check_time,
    _compiled,
    _is_finite_real,
    _scatter,
)
from .spectral import _canonical_eigh, _propagate
from .state import StateVector
from .twirl import Backend

# Bytes of one stack of slice matrices; at 10 qubits and above a chunk is one slice.
RAMP_STACK_BYTES = 16 * 2**20


@dataclass(frozen=True)
class AdiabaticSchedule:
    """Total ramp time and number of frozen slices."""

    total_time: float = 20.0
    steps: int = 400

    def __post_init__(self) -> None:
        if not _is_finite_real(self.total_time) or self.total_time <= 0:
            raise ValueError(
                f"total time must be a positive finite real number, got {self.total_time!r}"
            )
        object.__setattr__(self, "steps", _check_count(self.steps, "step count"))


def staggered_start(n_qubits: int) -> PauliSum:
    """Alternating-sign Z chain whose ground state is a basis state."""
    n_qubits = _check_count(n_qubits, "operator qubit count")
    terms = []
    for qubit in range(n_qubits):
        axes = "".join("Z" if q == qubit else "I" for q in range(n_qubits))
        terms.append(PauliTerm(1.0 if qubit % 2 == 0 else -1.0, axes))
    return PauliSum(n_qubits, tuple(terms))


def adiabatic_prepare(
    initial: StateVector | str,
    start_op: PauliSum,
    target_op: PauliSum,
    schedule: AdiabaticSchedule = AdiabaticSchedule(),
    backend: Backend = Backend(),
) -> StateVector:
    """Ramp ``initial`` from ``start_op`` to ``target_op``."""
    state = StateVector.basis(initial) if isinstance(initial, str) else initial
    if start_op.n_qubits != target_op.n_qubits:
        raise ValueError("start and target operators act on different registers")
    if state.n_qubits != start_op.n_qubits:
        raise ValueError("initial state and operators act on different registers")
    # a slice's summed |coefficient| is at most the larger of the two ends'
    dt = _check_time(float(schedule.total_time) / schedule.steps, start_op)
    _check_time(dt, target_op)
    midpoints = (np.arange(schedule.steps) + 0.5) / schedule.steps
    amplitudes = state.amplitudes
    if backend.steps is not None:
        for s in midpoints.tolist():
            amplitudes = backend.evolve(amplitudes, (1.0 - s) * start_op + s * target_op, dt)
        return StateVector(state.n_qubits, amplitudes)
    start = [(term.coeff, _compiled(term.axes)) for term in start_op.terms]
    target = [(term.coeff, _compiled(term.axes)) for term in target_op.terms]
    chunk = max(1, RAMP_STACK_BYTES // (16 * 4**state.n_qubits))
    for first in range(0, schedule.steps, chunk):
        s = midpoints[first : first + chunk]
        # the terms, order and coefficients of dense_matrix((1 - s) * start_op + s * target_op)
        weighted = [((1.0 - s) * c, p) for c, p in start] + [(s * c, p) for c, p in target]
        values, vectors = _canonical_eigh(_scatter(state.n_qubits, weighted))
        phases = np.exp(-1.0j * dt * values)
        for k, adjoint in enumerate(vectors.conj().transpose(0, 2, 1)):
            amplitudes = _propagate(amplitudes, phases[k], adjoint, vectors[k])
    return StateVector(state.n_qubits, amplitudes)
