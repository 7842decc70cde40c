"""Reference computations that several test modules check the engine against."""

import math

import numpy as np

from twirlsim.pauli import PauliSum, apply_axes
from twirlsim.state import StateVector
from twirlsim.twirl import choose_tau


def random_pauli_sum(rng, n_qubits, terms_below):
    """A sum of 1 to ``terms_below - 1`` random Pauli strings, with coefficients
    from {0.5, +-1} half of the time, so degenerate levels occur."""
    terms = []
    for _ in range(int(rng.integers(1, terms_below))):
        axes = "".join(rng.choice(list("IXYZ"), n_qubits))
        coeff = float(rng.choice([0.5, 1.0, -1.0])) if rng.random() < 0.5 else float(rng.normal())
        terms.append((coeff, axes))
    return PauliSum(n_qubits, tuple(terms))


def random_state(rng, n_qubits):
    """A normalized state from complex Gaussian amplitudes."""
    raw = rng.normal(size=2**n_qubits) + 1j * rng.normal(size=2**n_qubits)
    return StateVector(n_qubits, raw / np.linalg.norm(raw))


def ramp_slice(start, target, s):
    """The ramp's operator (1 - s) start + s target, term by term, start's terms first."""
    terms = [((1.0 - s) * coeff, axes) for coeff, axes in start.terms]
    terms += [(s * coeff, axes) for coeff, axes in target.terms]
    return PauliSum(start.n_qubits, tuple(terms))


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


def exact_propagate(amplitudes, values, vectors, tau):
    """Exact propagation in the eigenbasis as one ``@`` expression, computing its
    own phases and adjoint.

    The coordinates come first in the product: with fused multiply-adds a
    complex product can differ in its last bit when its operands swap.
    """
    return vectors @ ((vectors.conj().T @ amplitudes) * np.exp(-1j * tau * values))


def split_step_sweep(amplitudes, op, tau, steps):
    """The symmetric split-step sweep written out term by term:
    exp(-i a P) psi = cos(a) psi - i sin(a) P psi."""
    dt = tau / steps
    amps = np.array(amplitudes, dtype=complex)
    for _ in range(steps):
        for coeff, axes in op.terms + op.terms[::-1]:
            angle = coeff * dt / 2.0
            amps = math.cos(angle) * amps - 1.0j * math.sin(angle) * apply_axes(amps, axes)
    return amps


def weight_protocol(weights, levels, rounds, norm_bound):
    """The filter formula followed through a protocol on eigenlevel weights alone.

    ``weights`` holds the initial state's weight on each eigenlevel, whose
    energy ``levels`` holds, ``rounds`` the protocol's ``RoundSpec``s, and
    ``norm_bound`` the operator's summed |coefficient|, which scales the
    zero-energy rule.
    Each round keeps w cos((arg phi - tau e) / 2)**(2 a) of a level at
    energy e and weight w, for ``a`` ancillas, and takes its energy from
    its override or else from the weights' mean energy. Returns the
    energy used, p_round and <H> after each round, after ``(None, 1.0,
    <H>)`` for the initial state.
    """
    weights = np.asarray(weights, dtype=float)
    levels = np.asarray(levels, dtype=float)
    steps = [(None, 1.0, float(weights @ levels / weights.sum()))]
    for spec in rounds:
        energy = steps[-1][2] if spec.energy_override is None else spec.energy_override
        tau, prefactor = choose_tau(energy, spec.mode, norm_bound)
        kept = weights * np.cos((np.angle(prefactor) - tau * levels) / 2.0) ** (2 * spec.ancillas)
        steps.append((energy, float(kept.sum() / weights.sum()), float(kept @ levels / kept.sum())))
        weights = kept
    return steps
