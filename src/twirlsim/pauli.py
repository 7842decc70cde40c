"""Pauli-string operators with real coefficients.

A :class:`PauliTerm` is one coefficient times a tensor product of
single-qubit Paulis written as a string over "IXYZ", with position 0
acting on qubit 0 (the most significant bit of the basis index). A
:class:`PauliSum` is an ordered sum of such terms; term order is part of
the value and is preserved by arithmetic and by :meth:`PauliSum.from_dict`.

Each axes string is compiled once into its symplectic (X mask, Z mask)
form (Aaronson and Gottesman, arXiv:quant-ph/0406196): with ``x``
marking the X and Y axes, ``z`` the Y and Z axes and ``nY`` the number
of Y axes, the string maps ``|b>`` to ``i**nY (-1)**popcount(b & z)
|b ^ x>``. Applying it is one gather and one phase multiply; its dense
matrix is a scatter of the phases.

Dense matrices are only materialized up to a register-size cap so that
an accidental large build fails fast instead of exhausting memory. The
cap defaults to 12 qubits and can be overridden through the
``TWIRL_DENSE_LIMIT`` environment variable.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    # annotation only: state imports the count rule from here
    from .state import StateVector

AXES = "IXYZ"

DENSE_LIMIT_ENV = "TWIRL_DENSE_LIMIT"
DENSE_LIMIT_DEFAULT = 12


# Concrete types, not numbers.Real: the ABC check is several times slower per
# float, and every PauliTerm and every evolve runs this rule.
_REAL_TYPES = (int, float, np.integer, np.floating)


def _is_finite_real(value: object) -> bool:
    """Times, energies, couplings and coefficients: finite reals, never a bool."""
    try:
        return (
            isinstance(value, _REAL_TYPES) and not isinstance(value, bool) and math.isfinite(value)
        )
    except OverflowError:  # an int too large for a float is not finite either
        return False


def _check_real(value: object, what: str) -> None:
    if not _is_finite_real(value):
        raise ValueError(f"{what} {value!r} must be a finite real number")


def _check_time(tau: object, op: PauliSum) -> float:
    """An evolution time under ``op``, returned as its ``float()``.

    Every Pauli string has operator norm 1, so |tau| times the summed
    |coefficient| bounds each phase tau e and each split-step angle: while
    that product is finite, no evolution of ``op`` over ``tau`` overflows.
    """
    _check_real(tau, "evolution time")
    tau = float(tau)  # a float32 time would keep float32 arithmetic
    if not math.isfinite(tau * op._norm_bound):
        raise ValueError(
            f"evolution time {tau!r} times summed |coefficient| {op._norm_bound!r} overflows"
        )
    return tau


def _check_count(value: object, what: str, low: int = 1, below: int | None = None) -> int:
    """Counts, seeds, indices and register sizes: ints or numpy integers, never a bool.

    Returns ``int(value)``, so a numpy integer goes no further than the check.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        count = int(value)
        if low <= count and (below is None or count < below):
            return count
    sign = "positive" if low == 1 else "non-negative"
    # every bound in use is a power of two
    bound = "" if below is None else f" below 2**{below.bit_length() - 1}"
    raise ValueError(f"{what} must be a {sign} integer{bound}, got {value!r}")


def dense_limit() -> int:
    """Current register-size cap for dense matrix construction."""
    raw = os.environ.get(DENSE_LIMIT_ENV)
    if raw is None:
        return DENSE_LIMIT_DEFAULT
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{DENSE_LIMIT_ENV}={raw!r} is not an integer") from exc
    if value < 1:
        raise ValueError(f"{DENSE_LIMIT_ENV} must be positive, got {value}")
    return value


@dataclass(frozen=True)
class PauliTerm:
    """One real coefficient times a Pauli string such as 1.5 * "XZI"."""

    coeff: float
    axes: str

    def __post_init__(self) -> None:
        _check_real(self.coeff, "coefficient")
        object.__setattr__(self, "coeff", float(self.coeff))
        axes = self.axes
        if not isinstance(axes, str) or not axes or axes.strip(AXES):
            raise ValueError(f"axes {axes!r} must be a nonempty string over {AXES!r}")

    @property
    def n_qubits(self) -> int:
        return len(self.axes)


@dataclass(frozen=True)
class PauliSum:
    """Ordered sum of Pauli terms acting on a fixed register."""

    n_qubits: int
    terms: tuple[PauliTerm, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_qubits", _check_count(self.n_qubits, "operator qubit count"))
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise ValueError("operator needs at least one term")
        for term in self.terms:
            if term.n_qubits != self.n_qubits:
                raise ValueError(
                    f"term {term.axes!r} acts on {term.n_qubits} qubit(s), "
                    f"operator is on {self.n_qubits}"
                )
        # evolution and dense builds add the terms up, so their sum must stay finite
        total = sum(abs(term.coeff) for term in self.terms)
        if not math.isfinite(total):
            raise ValueError(f"summed |coefficient| of the terms is {total}, not finite")
        # the operator-norm bound of _check_time; not a field, so equality and hashing ignore it
        object.__setattr__(self, "_norm_bound", total)

    def __add__(self, other: PauliSum) -> PauliSum:
        if not isinstance(other, PauliSum):
            return NotImplemented
        if other.n_qubits != self.n_qubits:
            raise ValueError("cannot add operators on different registers")
        return PauliSum(self.n_qubits, self.terms + other.terms)

    def __mul__(self, scalar: float) -> PauliSum:
        if not _is_finite_real(scalar):
            return NotImplemented
        return PauliSum(
            self.n_qubits,
            tuple(PauliTerm(scalar * t.coeff, t.axes) for t in self.terms),
        )

    __rmul__ = __mul__

    @classmethod
    def from_dict(cls, data: dict) -> PauliSum:
        return cls(
            n_qubits=data["n_qubits"],
            terms=tuple(PauliTerm(t["coeff"], t["axes"]) for t in data["terms"]),
        )


@lru_cache(maxsize=256)
def _compiled(axes: str) -> tuple[np.ndarray, np.ndarray]:
    """Gather index and phase of a Pauli string: ``(P v)[b] = phase[b] * v[source[b]]``."""
    x = int("".join("1" if axis in "XY" else "0" for axis in axes), 2)
    z = int("".join("1" if axis in "YZ" else "0" for axis in axes), 2)
    source = np.arange(2 ** len(axes)) ^ x
    parity = np.zeros_like(source)
    for shift in range(len(axes)):
        parity ^= (source & z) >> shift
    phase = np.array([1, 1j, -1, -1j])[(axes.count("Y") + 2 * (parity & 1)) % 4]
    source.flags.writeable = phase.flags.writeable = False
    return source, phase


def apply_axes(amplitudes: np.ndarray, axes: str) -> np.ndarray:
    """Apply a Pauli string to raw amplitudes without building a matrix."""
    source, phase = _compiled(axes)
    if np.shape(amplitudes) != source.shape:
        raise ValueError(
            f"amplitudes of shape {np.shape(amplitudes)} do not fit {len(axes)} qubit(s)"
        )
    return phase * amplitudes[source]


def apply_operator(amplitudes: np.ndarray, op: PauliSum) -> np.ndarray:
    """Apply a Pauli sum to raw amplitudes, term by term."""
    acc = np.zeros_like(amplitudes, dtype=complex)
    for term in op.terms:
        acc += term.coeff * apply_axes(amplitudes, term.axes)
    return acc


def _scatter(
    n_qubits: int, weighted: Iterable[tuple[float | np.ndarray, tuple[np.ndarray, np.ndarray]]]
) -> np.ndarray:
    """Dense sum of ``coeff * P`` over ``(coeff, _compiled(P))`` pairs, in order.

    Each ``coeff`` is a float, giving one ``(d, d)`` matrix, or an array of
    ``k`` per-slice coefficients of the same length in every pair, giving
    a ``(k, d, d)`` stack.
    """
    limit = dense_limit()
    if n_qubits > limit:
        raise ValueError(
            f"dense matrix for {n_qubits} qubits exceeds the {limit}-qubit cap; "
            f"raise {DENSE_LIMIT_ENV} to override"
        )
    weighted = list(weighted)
    dim = 2**n_qubits
    row_starts = np.arange(0, dim * dim, dim)
    stack = np.shape(weighted[0][0])
    matrix = np.zeros(stack + (dim * dim,), dtype=complex)
    for coeff, (source, phase) in weighted:
        # the transposed view puts the flattened matrix axis first for one matrix and a stack alike
        matrix.T[row_starts + source] += np.multiply.outer(phase, coeff)
    return matrix.reshape(stack + (dim, dim))


def dense_matrix(op: PauliSum) -> np.ndarray:
    """Dense matrix of a Pauli sum, qubit 0 as the most significant index bit."""
    return _scatter(op.n_qubits, ((term.coeff, _compiled(term.axes)) for term in op.terms))


def expectation(state: StateVector, op: PauliSum) -> float:
    """Real expectation value <state|op|state>."""
    if state.n_qubits != op.n_qubits:
        raise ValueError(
            f"state on {state.n_qubits} qubit(s) does not match operator on {op.n_qubits}"
        )
    # op is Hermitian, so any imaginary part is rounding
    return float(np.vdot(state.amplitudes, apply_operator(state.amplitudes, op)).real)


def schwinger_hamiltonian(n_qubits: int, coupling: float) -> PauliSum:
    """Staggered lattice gauge chain at dimensionless coupling J.

    The supported sizes and their term lists, in fixed order:

    * 1 qubit:  X + J Z
    * 2 qubits: (X0 X1)/2 + (Y0 Y1)/2 + J Z0
    * 3 qubits: (X0 X1)/2 + (X1 X2)/2 + (Y0 Y1)/2 + (Y1 Y2)/2 + J Z0 + J Z0 Z1

    J is the squared gauge coupling times the squared lattice spacing and
    must be a finite non-negative real; the bundled scenarios use J in
    [0, 4].
    """
    _check_real(coupling, "coupling")
    if coupling < 0:
        raise ValueError(f"coupling must be non-negative, got {coupling!r}")
    j = float(coupling)
    if n_qubits == 1:
        terms = [PauliTerm(1.0, "X"), PauliTerm(j, "Z")]
    elif n_qubits == 2:
        terms = [
            PauliTerm(0.5, "XX"),
            PauliTerm(0.5, "YY"),
            PauliTerm(j, "ZI"),
        ]
    elif n_qubits == 3:
        terms = [
            PauliTerm(0.5, "XXI"),
            PauliTerm(0.5, "IXX"),
            PauliTerm(0.5, "YYI"),
            PauliTerm(0.5, "IYY"),
            PauliTerm(j, "ZII"),
            PauliTerm(j, "ZZI"),
        ]
    else:
        raise ValueError(f"unsupported system size {n_qubits}, supported sizes are 1, 2, 3")
    return PauliSum(n_qubits, tuple(terms))


# the built-in chains by name, each with its register size
CHAINS = {"schwinger-1q": 1, "schwinger-2q": 2, "schwinger-3q": 3}


def hamiltonian_by_name(name: str, coupling: float) -> PauliSum:
    """Resolve a built-in Hamiltonian name such as "schwinger-3q"."""
    if name not in CHAINS:
        known = ", ".join(sorted(CHAINS))
        raise ValueError(f"unknown hamiltonian {name!r}, known names: {known}")
    return schwinger_hamiltonian(CHAINS[name], coupling)


def single_z(n_qubits: int, qubit: int) -> PauliSum:
    """Z on one qubit of an ``n_qubits`` register."""
    n_qubits = _check_count(n_qubits, "operator qubit count")
    qubit = _check_count(qubit, "qubit", low=0)
    if qubit >= n_qubits:
        raise ValueError(f"qubit {qubit} out of range for {n_qubits} qubit(s)")
    axes = "".join("Z" if q == qubit else "I" for q in range(n_qubits))
    return PauliSum(n_qubits, (PauliTerm(1.0, axes),))


def observable_zbar() -> PauliSum:
    """Staggered charge proxy (Z0 - Z1 + Z2) / 3 on three qubits."""
    return PauliSum(
        3,
        (
            PauliTerm(1.0 / 3.0, "ZII"),
            PauliTerm(-1.0 / 3.0, "IZI"),
            PauliTerm(1.0 / 3.0, "IIZ"),
        ),
    )


def named_observable(name: str, n_qubits: int) -> PauliSum:
    """Resolve an observable name used in manifests and CLI output.

    "H" is resolved by the caller (it depends on the Hamiltonian); this
    handles "Z" (single qubit), "Z0".."Z9", and "Zbar". Each operator is
    built once per name and register size and then shared.
    """
    # checked before the cache: True and 2.0 would hit the entries of 1 and 2
    return _named_observable(name, _check_count(n_qubits, "operator qubit count"))


@lru_cache(maxsize=64)
def _named_observable(name: str, n_qubits: int) -> PauliSum:
    if name == "Zbar":
        if n_qubits != 3:
            raise ValueError("Zbar is defined on three qubits")
        return observable_zbar()
    if name == "Z":
        if n_qubits != 1:
            raise ValueError('observable "Z" is only unambiguous on one qubit, use "Z<k>"')
        return single_z(1, 0)
    if len(name) == 2 and name[0] == "Z" and name[1].isdigit():
        return single_z(n_qubits, int(name[1]))
    raise ValueError(f"unknown observable {name!r}")
