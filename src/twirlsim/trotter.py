"""Second-order split-step time evolution.

One step over dt sweeps the terms forward applying exp(-i c_k P_k dt/2)
each, then sweeps them in reverse. The symmetric sweep cancels the
first-order commutator error, so the step error is O(dt^3) and the
full-interval error O(tau^2 / steps^2).

The sweep is built once per call from the rows of the operator's compiled
form. With ``(P v)[b] = phase[b] * v[source[b]]`` each rotation is
``cos(angle) * v - factor * v[source]`` with ``factor = 1j * sin(angle) *
phase``. The input is copied once, into the array the sweep then updates
in place, next to one scratch buffer of the same length; both are
allocated once per call. Each rotation is three ufunc calls into them:
``factor * v[source]`` into the scratch buffer, ``v * cos`` into ``v``,
and ``v - scratch`` into ``v``. A diagonal term (no X or Y) has the
identity as its ``source``, so it multiplies ``v`` directly and skips the
gather; the gather of the other terms is the one array a rotation
allocates, since ``take`` into a second buffer measured slower.

The call forms are chosen by measurement, not by the values they give,
which are the same. On an 8-qubit chain (256 amplitudes, 704 rotations per
16-step evolve, numpy 2.4, shared 2-vCPU host), a rotation took 3.9 us of
CPU time with ``cos`` as an ``np.complex128`` scalar and ``out`` by keyword.
Each call given a numpy scalar first wraps it in an array, about 0.37 us;
``cos`` is therefore built once as a 0-d complex array. ``out`` passed by
keyword costs about 0.07 us per call over passing it by position. With
both, a rotation took 3.3 us (-15%).

Every product and difference is the IEEE operation of the textbook
``cos(angle) * v - 1j * sin(angle) * (P v)``, so the values are its values.
Each phase is one of 1, i, -1 and -i, so each component of ``factor`` is
exactly +-sin(angle) or +-0, and every nonzero product rounds once, as it
does there; only the sign of an exact zero amplitude can differ.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from functools import reduce

import numpy as np

from .pauli import (
    COUNT_LIMIT,
    PauliSum,
    _check_count,
    _check_time,
    _compiled,
    _scatter,
    dense_matrix,
)

def evolve_trotter(amplitudes: np.ndarray, op: PauliSum, tau: float, steps: int) -> np.ndarray:
    """Amplitudes after ``steps`` symmetric sweeps approximating exp(-i tau op)."""
    steps = _check_count(steps, "step count", below=COUNT_LIMIT)
    if np.shape(amplitudes) != (2**op.n_qubits,):
        raise ValueError("amplitudes and operator act on different registers")
    dt = _check_time(tau, op) / steps
    rotations = []
    for coeff, axes, source, phase in zip(op._coeffs, op._axes, *_compiled(op._axes)):
        # exp(-i angle P) psi = cos(angle) psi - i sin(angle) P psi
        angle = coeff * dt / 2.0
        cos = np.array(math.cos(angle), dtype=complex)  # 0-d: see the module docstring
        if not axes.strip("IZ"):
            source = None  # diagonal: P v = phase * v, no gather
        rotations.append((cos, source, 1.0j * math.sin(angle) * phase))
    sweep = rotations + rotations[::-1]
    amps = np.array(amplitudes, dtype=complex)
    scratch = np.empty_like(amps)
    # local names spare three module attribute lookups per rotation
    multiply, subtract = np.multiply, np.subtract
    for _ in range(steps):
        for cos, source, factor in sweep:
            multiply(factor, amps if source is None else amps[source], scratch)
            multiply(amps, cos, amps)
            subtract(amps, scratch, amps)
    return amps


def trotter_errors(op: PauliSum, tau: float, steps: Iterable[int]) -> list[float]:
    """Operator-norm distance between the split-step and exact propagators, per step count.

    The dense matrix, its eigensystem, the exact propagator and each term's
    Pauli matrix are built once; only the split-step factors depend on the
    step count.
    """
    counts = [_check_count(count, "step count", below=COUNT_LIMIT) for count in steps]
    tau = _check_time(tau, op)
    matrix = dense_matrix(op)
    values, vectors = np.linalg.eigh(matrix)
    exact = (vectors * np.exp(-1.0j * tau * values)) @ vectors.conj().T
    identity = np.eye(matrix.shape[0])
    # each term's Pauli matrix, as a one-term dense_matrix builds it
    paulis = [(coeff, _scatter(op._axes, [(t, 1.0)])) for t, coeff in enumerate(op._coeffs)]
    errors = []
    for count in counts:
        dt = tau / count
        factors = []
        for coeff, pauli in paulis:
            angle = coeff * dt / 2.0
            factors.append(math.cos(angle) * identity - 1.0j * math.sin(angle) * pauli)
        step = reduce(np.matmul, factors + factors[::-1])
        approx = np.linalg.matrix_power(step, count)
        errors.append(float(np.linalg.norm(approx - exact, 2)))
    return errors
