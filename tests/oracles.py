"""Reference computations that several test modules check the engine against."""

import math

import numpy as np

from twirlsim.pauli import apply_axes


def group_slices(values, tol=1e-8):
    """Slices of near-degenerate runs in an ascending eigenvalue list."""
    slices = []
    start = 0
    for k in range(1, len(values) + 1):
        if k == len(values) or values[k] - values[k - 1] > tol:
            slices.append(slice(start, k))
            start = k
    return slices


def projector(vectors, block):
    """The projector onto the columns ``block`` of ``vectors``."""
    cols = vectors[:, block]
    return cols @ cols.conj().T


def split_step_sweep(amplitudes, op, tau, steps):
    """The symmetric split-step sweep written out term by term:
    exp(-i a P) psi = cos(a) psi - i sin(a) P psi."""
    dt = tau / steps
    amps = np.array(amplitudes, dtype=complex)
    for _ in range(steps):
        for term in op.terms + op.terms[::-1]:
            angle = term.coeff * dt / 2.0
            amps = math.cos(angle) * amps - 1.0j * math.sin(angle) * apply_axes(amps, term.axes)
    return amps
