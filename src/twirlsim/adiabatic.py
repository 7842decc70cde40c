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
A chunk's working set is several times its stack, since the stack, its
eigenvectors, their canonical copy and the conjugate are alive at once,
so the stack is kept small: 128 KiB, the least that still hands a
3-qubit ramp's ``eigh`` enough slices per call to keep its time. The
output bytes do not depend on the chunk size.
The split-step backend evolves the frozen ``PauliSum`` of each slice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import (
    COUNT_LIMIT,
    PauliSum,
    _check_count,
    _check_time,
    _is_finite_real,
    _scatter,
)
from .spectral import _canonical_eigh, _propagate
from .state import StateVector
from .twirl import Backend

# Bytes of one chunk's (k, d, d) stack of slice matrices, at least one slice.
# A chunk holds its stack, the stacked eigenvectors, _canonical_basis's reordered
# copy and |V| mask, and the conjugated stack at once: its traced peak is 3-5x the
# stack. 128 KiB (128 slices of 3 qubits, 2 of 6, one from 7 up) is the smallest
# size tried at which a 3-qubit ramp keeps its time: table-13's 400 slices took
# 3.33 ms at 16 MiB, 3.34 at 128 KiB, 3.90 at 64 KiB and 4.60 at 32 KiB (one
# BLAS thread, shared 2-vCPU host).
RAMP_STACK_BYTES = 128 * 2**10


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
        object.__setattr__(self, "steps", _check_count(self.steps, "step count", below=COUNT_LIMIT))


def staggered_start(n_qubits: int) -> PauliSum:
    """Alternating-sign Z chain whose ground state is a basis state."""
    n_qubits = _check_count(n_qubits, "operator qubit count")
    terms = []
    for qubit in range(n_qubits):
        axes = "".join("Z" if q == qubit else "I" for q in range(n_qubits))
        terms.append((1.0 if qubit % 2 == 0 else -1.0, axes))
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
    s = (np.arange(schedule.steps) + 0.5) / schedule.steps
    # the slice operators (1 - s) start_op + s target_op: each term with its weight on every slice
    weighted = [(1.0 - s, *t) for t in start_op.terms] + [(s, *t) for t in target_op.terms]
    amplitudes = state.amplitudes
    if backend.steps is not None:
        for k in range(schedule.steps):
            terms = tuple((w[k] * coeff, axes) for w, coeff, axes in weighted)
            amplitudes = backend.evolve(amplitudes, PauliSum(state.n_qubits, terms), dt)
        return StateVector(state.n_qubits, amplitudes)
    chunk = max(1, RAMP_STACK_BYTES // (16 * 4**state.n_qubits))
    for first in range(0, schedule.steps, chunk):
        slices = [(i, w[first : first + chunk] * coeff) for i, (w, coeff, _) in enumerate(weighted)]
        values, vectors = _canonical_eigh(_scatter(start_op._axes + target_op._axes, slices))
        phases = np.exp(-1.0j * dt * values)
        for k, adjoint in enumerate(vectors.conj().transpose(0, 2, 1)):
            amplitudes = _propagate(amplitudes, phases[k], adjoint, vectors[k])
    return StateVector(state.n_qubits, amplitudes)
