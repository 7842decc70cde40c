"""Normalized state vectors over a small qubit register.

Qubit 0 is the most significant bit of the basis index throughout the
package: the label "110" names basis index 6, and a dense operator acts
on amplitudes ordered by that index. Amplitude arrays held by a
:class:`StateVector` are read-only; every operation returns a new state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import _check_count

NORM_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class StateVector:
    """Unit-norm complex amplitudes for ``n_qubits`` qubits.

    Construction rejects vectors whose norm deviates from 1 by more than
    ``NORM_TOL``.
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
