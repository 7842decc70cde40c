"""Normalized state vectors over a small qubit register.

Qubit 0 is the most significant bit of the basis index throughout the
package: the label "110" names basis index 6, and a dense operator acts
on amplitudes ordered by that index. Amplitude arrays held by a
:class:`StateVector` are read-only; every operation returns a new state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pauli import _check_count

NORM_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class StateVector:
    """Unit-norm complex amplitudes for ``n_qubits`` qubits.

    Construction rejects vectors whose norm deviates from 1 by more than
    ``NORM_TOL``; use :meth:`from_amplitudes` to normalize explicitly.
    """

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_qubits", _check_count(self.n_qubits, "state qubit count"))
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != (2**self.n_qubits,):
            raise ValueError(
                f"amplitude vector has shape {amps.shape}, "
                f"expected ({2**self.n_qubits},) for {self.n_qubits} qubit(s)"
            )
        norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= NORM_TOL:  # a NaN norm fails this too
            raise ValueError(f"state norm {norm!r} is not 1 within {NORM_TOL}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def _trusted(cls, n_qubits: int, amplitudes: np.ndarray) -> StateVector:
        """A state around a fresh unit-norm complex array of the right shape.

        For engine results normalized by their maker: the array is frozen
        in place, with no copy and no norm check.
        """
        amplitudes.setflags(write=False)
        state = object.__new__(cls)
        object.__setattr__(state, "n_qubits", n_qubits)
        object.__setattr__(state, "amplitudes", amplitudes)
        return state

    @classmethod
    def basis(cls, label: str) -> StateVector:
        """Computational basis state from a bit string such as "101"."""
        if not label or any(c not in "01" for c in label):
            raise ValueError(f"basis label {label!r} must be a nonempty string of 0s and 1s")
        index = int(label, 2)
        amps = np.zeros(2 ** len(label), dtype=complex)
        amps[index] = 1.0
        return cls(len(label), amps)

    @classmethod
    def from_amplitudes(cls, amplitudes: np.ndarray) -> StateVector:
        """Build a state from arbitrary amplitudes, normalizing them."""
        amps = np.asarray(amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size < 2 or amps.size & (amps.size - 1):
            raise ValueError("amplitudes must be a 1-d array of length 2**n")
        norm = float(np.linalg.norm(amps))
        if norm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        if not math.isfinite(norm):
            raise ValueError(f"cannot normalize amplitudes of norm {norm!r}")
        return cls(int(amps.size).bit_length() - 1, amps / norm)

    def fidelity(self, other: StateVector) -> float:
        """Squared overlap |<self|other>|**2."""
        if self.n_qubits != other.n_qubits:
            raise ValueError("fidelity needs states on the same register")
        return float(abs(np.vdot(self.amplitudes, other.amplitudes)) ** 2)
