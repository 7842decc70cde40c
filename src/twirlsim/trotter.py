"""Second-order split-step time evolution.

One step over dt sweeps the terms forward applying exp(-i c_k P_k dt/2)
each, then sweeps them in reverse. The symmetric sweep cancels the
first-order commutator error, so the step error is O(dt^3) and the
full-interval error O(tau^2 / steps^2).

The sweep is compiled once per call. With ``(P v)[b] = phase[b] * v[source[b]]``
each rotation is ``cos(angle) * v - factor * v[source]`` with
``factor = 1j * sin(angle) * phase``. The input is copied once, into the
array the sweep then updates in place, next to one scratch buffer of the
same length; both are allocated once per call. Each rotation is three ufunc
calls into them: ``factor * v[source]`` into the scratch buffer, ``v * cos``
into ``v``, and ``v - scratch`` into ``v``. A diagonal term (no X or Y) has
the identity as its ``source``, so it multiplies ``v`` directly and skips
the gather; the gather of the other terms is the one array a rotation
allocates, since ``take`` into a second buffer measured slower. ``cos`` is
kept as a complex scalar, so numpy converts no Python float per call.

Every product and difference is the IEEE operation of the textbook
``cos(angle) * v - 1j * sin(angle) * (P v)``, so the values are its values.
Each phase is one of 1, i, -1 and -i, so each component of ``factor`` is
exactly +-sin(angle) or +-0, and every nonzero product rounds once, as it
does there; only the sign of an exact zero amplitude can differ.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

from .pauli import PauliSum, PauliTerm, _check_count, _check_time, _compiled, dense_matrix


def evolve_trotter(amplitudes: np.ndarray, op: PauliSum, tau: float, steps: int) -> np.ndarray:
    """Amplitudes after ``steps`` symmetric sweeps approximating exp(-i tau op)."""
    steps = _check_count(steps, "step count")
    if np.shape(amplitudes) != (2**op.n_qubits,):
        raise ValueError("amplitudes and operator act on different registers")
    dt = _check_time(tau, op) / steps
    rotations = []
    for term in op.terms:
        # exp(-i angle P) psi = cos(angle) psi - i sin(angle) P psi
        angle = term.coeff * dt / 2.0
        source, phase = _compiled(term.axes)
        cos = np.complex128(math.cos(angle))
        if not any(axis in "XY" for axis in term.axes):
            source = None  # diagonal: P v = phase * v, no gather
        rotations.append((cos, source, 1.0j * math.sin(angle) * phase))
    sweep = rotations + rotations[::-1]
    amps = np.array(amplitudes, dtype=complex)
    scratch = np.empty_like(amps)
    # local names spare three module attribute lookups per rotation
    multiply, subtract = np.multiply, np.subtract
    for _ in range(steps):
        for cos, source, factor in sweep:
            multiply(factor, amps if source is None else amps[source], out=scratch)
            multiply(amps, cos, out=amps)
            subtract(amps, scratch, out=amps)
    return amps


def trotter_error(op: PauliSum, tau: float, steps: int) -> float:
    """Operator-norm distance between the split-step and exact propagators."""
    steps = _check_count(steps, "step count")
    tau = _check_time(tau, op)
    dt = tau / steps
    matrix = dense_matrix(op)
    values, vectors = np.linalg.eigh(matrix)
    exact = (vectors * np.exp(-1.0j * tau * values)) @ vectors.conj().T
    dim = matrix.shape[0]
    factors = []
    for term in op.terms:
        angle = term.coeff * dt / 2.0
        dense_term = dense_matrix(PauliSum(op.n_qubits, (PauliTerm(1.0, term.axes),)))
        factors.append(math.cos(angle) * np.eye(dim) - 1.0j * math.sin(angle) * dense_term)
    step = reduce(np.matmul, factors + factors[::-1])
    approx = np.linalg.matrix_power(step, steps)
    return float(np.linalg.norm(approx - exact, 2))
