"""Exact spectral analysis: eigensystems, closed forms, exact evolution.

Eigenpairs are reported in a canonical order so that repeated runs and
the analytic forms line up: ascending eigenvalue, and inside a
near-degenerate run (gap below ``DEGENERACY_TOL``) ascending first
supported basis index. Each eigenvector is rescaled so its first
supported amplitude is positive real, which removes the arbitrary
global phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .pauli import PauliSum, _check_time, dense_matrix, schwinger_hamiltonian
from .state import StateVector

DEGENERACY_TOL = 1e-8
SUPPORT_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues in the canonical order and matching eigenvector columns.

    The arrays are frozen in place, not copied: they come fresh from
    ``_canonical_basis``, which alone fixes their order.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self) -> None:
        values, vectors = self.eigenvalues, self.eigenvectors
        if values.ndim != 1 or vectors.shape != (values.size, values.size):
            raise ValueError("need a square eigenvector matrix matching the eigenvalues")
        dim = values.size
        if dim < 2 or dim & (dim - 1):
            raise ValueError("dimension must be a power of two of at least one qubit")
        values.setflags(write=False)
        vectors.setflags(write=False)

    @cached_property
    def adjoint(self) -> np.ndarray:
        """``eigenvectors.conj().T``, computed on first use and kept with the eigensystem."""
        adjoint = self.eigenvectors.conj().T
        adjoint.setflags(write=False)
        return adjoint

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.size)

    @property
    def n_qubits(self) -> int:
        return self.dim.bit_length() - 1

    def eigenstate(self, index: int) -> StateVector:
        """Eigenvector ``index`` as a state."""
        return StateVector(self.n_qubits, self.eigenvectors[:, index])


def _canonical_basis(values: np.ndarray, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs in the canonical order, each column's leading amplitude positive real.

    ``values`` is ``(..., d)`` and ``vectors`` is ``(..., d, d)`` with the
    eigenvectors as columns; leading axes are a stack of independent
    eigensystems, each canonicalized as if on its own. The returned
    eigenvectors are a fresh C-contiguous array.
    """
    stack, dim = values.shape[:-1], values.shape[-1]
    values = values.reshape(-1, dim)
    vectors = vectors.reshape(-1, dim, dim)
    # fancy indexing with a row index; take_along_axis costs ~5 us more per call at small dim
    rows, columns = np.arange(len(values))[:, None], np.arange(dim)
    first = np.argmax(np.abs(vectors) > SUPPORT_TOL, axis=1)
    order = np.argsort(values, axis=1, kind="stable")
    ascending = values[rows, order]
    group = np.zeros(values.shape, dtype=np.intp)
    np.cumsum(ascending[:, 1:] - ascending[:, :-1] > DEGENERACY_TOL, axis=1, out=group[:, 1:])
    order = order[rows, np.lexsort((first[rows, order], group), axis=1)]
    first = first[rows, order]
    fixed = vectors[rows[:, :, None], columns[:, None], order[:, None, :]]
    leads = fixed[rows, first, columns]
    # np.hypot rounds as the scalar abs(lead) does; np.abs on a complex array may not
    fixed *= (leads.conj() / np.hypot(leads.real, leads.imag))[:, None, :]
    return values[rows, order].reshape(stack + (dim,)), fixed.reshape(stack + (dim, dim))


def _canonical_eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical eigensystem of a Hermitian matrix or a stack of them, uncached."""
    return _canonical_basis(*np.linalg.eigh(matrix))


def _propagate(
    amplitudes: np.ndarray, phases: np.ndarray, adjoint: np.ndarray, vectors: np.ndarray
) -> np.ndarray:
    """Amplitudes after exp(-i tau H) for H with eigenvector columns ``vectors``.

    ``phases`` holds exp(-i tau e) for each eigenvalue e. ``adjoint`` must
    be laid out as ``vectors.conj().T`` is: the transposed view of a
    C-contiguous conjugate, such as one slice of a conjugated stack
    transposed on its last two axes. Given that layout, ``ndarray.dot``
    makes the same BLAS call as ``@``, so the bytes match, at about half
    the cost per call on small matrices.
    """
    coords = adjoint.dot(amplitudes)
    # coordinates first: numpy's complex product may round differently with the operands swapped
    coords *= phases
    return vectors.dot(coords)


# A protocol reuses one operator. At the 12-qubit dense cap the eigenvectors take
# 268 MB and the adjoint evolve_exact caches with them 268 MB more, so an entry in
# use holds about 537 MB and the full cache about 2.1 GB.
@lru_cache(maxsize=4)
def _eigensystem(op: PauliSum) -> SpectralDecomposition:
    return SpectralDecomposition(*_canonical_eigh(dense_matrix(op)))


def eigendecompose(op: PauliSum) -> SpectralDecomposition:
    """Numeric eigensystem of a Pauli sum, cached per operator."""
    return _eigensystem(op)


def closed_form_spectrum(n_qubits: int, coupling: float) -> SpectralDecomposition:
    """Analytic eigensystem of the built-in chain at coupling J.

    The one- and two-qubit spectra are +-sqrt(1 + J^2) plus, on two
    qubits, the decoupled |00> and |11> levels at +-J. The three-qubit
    operator splits over two hopping triples and two frozen corners,
    giving -(J + c), -s, a threefold zero level, c - J, 2J, and s with
    c = sqrt(2 + J^2) and s = sqrt(2 + 4 J^2).
    """
    # coupling validation matches the operator builder
    schwinger_hamiltonian(n_qubits, coupling)
    j = float(coupling)
    # each level: its energy and the unnormalized amplitudes it supports, by basis index
    if n_qubits == 1:
        root = math.sqrt(1.0 + j * j)
        levels = [(-root, {0: 1.0, 1: -j - root}), (root, {0: 1.0, 1: root - j})]
    elif n_qubits == 2:
        root = math.sqrt(1.0 + j * j)
        levels = [
            (-root, {1: 1.0, 2: -j - root}),
            (-j, {3: 1.0}),
            (j, {0: 1.0}),
            (root, {1: 1.0, 2: root - j}),
        ]
    else:
        # hopping acts inside {001, 010, 100} and {011, 101, 110}
        c = math.sqrt(2.0 + j * j)
        s = math.sqrt(2.0 + 4.0 * j * j)
        levels = [
            (-(j + c), {3: 1.0, 5: -(j + c), 6: 1.0}),
            (-s, {1: 2.0 * j - s, 2: 2.0, 4: -(s + 2.0 * j)}),
            (0.0, {1: 1.0, 2: -2.0 * j, 4: -1.0}),
            (0.0, {3: 1.0, 6: -1.0}),
            (0.0, {7: 1.0}),
            (c - j, {3: 1.0, 5: c - j, 6: 1.0}),
            (2.0 * j, {0: 1.0}),
            (s, {1: s + 2.0 * j, 2: 2.0, 4: s - 2.0 * j}),
        ]
    # every level's energy is in its vector, so finite squared norms hold the
    # levels too; a coupling past about 1e154 overflows its square
    if not all(math.isfinite(sum(a * a for a in amps.values())) for _, amps in levels):
        raise ValueError(
            f"coupling J={coupling!r} overflows the closed-form spectrum "
            f"of the {n_qubits}-qubit chain"
        )
    vectors = np.zeros((2**n_qubits, len(levels)), dtype=complex)
    for vec, (_, amplitudes) in zip(vectors.T, levels):
        vec[list(amplitudes)] = list(amplitudes.values())
        vec /= np.linalg.norm(vec)
    values = np.array([energy for energy, _ in levels])
    return SpectralDecomposition(*_canonical_basis(values, vectors))


def evolve_exact(amplitudes: np.ndarray, op: PauliSum, tau: float) -> np.ndarray:
    """Amplitudes after exp(-i tau op), through the cached eigensystem."""
    if np.shape(amplitudes) != (2**op.n_qubits,):
        raise ValueError("amplitudes and operator act on different registers")
    tau = _check_time(tau, op)
    dec = _eigensystem(op)
    phases = np.exp(-1.0j * tau * dec.eigenvalues)
    return _propagate(amplitudes, phases, dec.adjoint, dec.eigenvectors)


def overlap_weights(state: StateVector, dec: SpectralDecomposition) -> np.ndarray:
    """Read-only weight of each eigenlevel in a state; they sum to its squared norm."""
    if state.n_qubits != dec.n_qubits:
        raise ValueError("state and decomposition act on different registers")
    weights = np.abs(dec.adjoint @ state.amplitudes) ** 2
    weights.setflags(write=False)
    return weights
