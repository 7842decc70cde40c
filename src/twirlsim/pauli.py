"""Pauli-string operators with real coefficients.

A :class:`PauliSum` is an ordered sum of terms, each a ``(coeff, axes)``
pair: a real coefficient times a tensor product of single-qubit Paulis
written as a string over "IXYZ", with position 0 acting on qubit 0 (the
most significant bit of the basis index). Term order is part of the
value and is preserved by :meth:`PauliSum.from_dict`.

Each tuple of axes strings is compiled once, into one read-only pair of
``(k, 2**n)`` arrays held in one cache keyed by the tuple: row t holds
the gather indices and phases of string t in its symplectic (X mask,
Z mask) form (Aaronson and Gottesman, arXiv:quant-ph/0406196). With
``x`` marking the X and Y axes, ``z`` the Y and Z axes and ``nY`` the
number of Y axes, a string maps ``|b>`` to ``i**nY (-1)**popcount(b & z)
|b ^ x>``. Every consumer reads the rows of its operator's tuple, so
operators with equal strings share one entry, and a :class:`PauliSum`
holds only values: its pairs, which its equality and hash compare in C,
and its coefficients and strings as tuples of their own.

Dense matrices are only materialized up to ``DENSE_LIMIT`` (12) qubits,
so that an accidental large build fails fast instead of exhausting memory.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    # annotation only: state imports the count rule from here
    from .state import StateVector

AXES = "IXYZ"

DENSE_LIMIT = 12
# int() refuses a text of more decimal digits than this with its own error
_INT_DIGITS = 4300


# Concrete types, not numbers.Real: the ABC check is several times slower per
# float, and every Pauli term and every evolve runs this rule.
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


# the ceiling of shot, active, ancilla and step counts: numpy's binomial draws
# take a count as a 64-bit C long, and the other counts share its bound
COUNT_LIMIT = 2**63


def _check_count(value: object, what: str, low: int = 1, below: int | None = None) -> int:
    """Counts, seeds and register sizes: ints or numpy integers, never a bool.

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


def _plain_decimal(text: str) -> bool:
    """Whether ``text`` spells a count in plain decimal: ASCII digits, no sign,
    separator or leading zero. int() would also read "01", "+1", "1_0", " 1"
    and other scripts' digits."""
    return text.isascii() and text.isdigit() and (text == "0" or text[0] != "0")


@dataclass(frozen=True)
class PauliSum:
    """Ordered sum of ``(coeff, axes)`` terms acting on a fixed register,
    such as ``PauliSum(2, [(0.5, "XX"), (1.0, "ZI")])``.

    Each coefficient is stored as its ``float()``. Two sums are equal when
    their registers and their pairs, in order, are equal.
    """

    n_qubits: int
    terms: tuple[tuple[float, str], ...]

    def __post_init__(self) -> None:
        n_qubits = _check_count(self.n_qubits, "operator qubit count")
        terms = []
        for term in self.terms:
            if not isinstance(term, tuple) or len(term) != 2:
                raise ValueError(f"term {term!r} must be a (coeff, axes) pair")
            coeff, axes = term
            _check_real(coeff, "coefficient")
            if not isinstance(axes, str) or not axes or axes.strip(AXES):
                raise ValueError(f"axes {axes!r} must be a nonempty string over {AXES!r}")
            if len(axes) != n_qubits:
                raise ValueError(
                    f"term {axes!r} acts on {len(axes)} qubit(s), operator is on {n_qubits}"
                )
            terms.append((float(coeff), axes))
        if not terms:
            raise ValueError("operator needs at least one term")
        object.__setattr__(self, "n_qubits", n_qubits)
        object.__setattr__(self, "terms", tuple(terms))
        coeffs, axes = zip(*terms)
        # evolution and dense builds add the terms up, so their sum must stay finite
        total = sum(map(abs, coeffs))
        if not math.isfinite(total):
            raise ValueError(f"summed |coefficient| of the terms is {total}, not finite")
        # not fields, so equality and hashing ignore them: the operator-norm bound of
        # _check_time, and the values the compiled form is read with and keyed by
        self.__dict__.update(_norm_bound=total, _coeffs=coeffs, _axes=axes)

    @classmethod
    def from_dict(cls, data: dict) -> PauliSum:
        return cls(data["n_qubits"], tuple((t["coeff"], t["axes"]) for t in data["terms"]))


# One entry per distinct tuple of strings: a batch of the 15 bundled manifests
# uses 11, a chunk of any perfbench workload at most 10. A row takes 24 bytes per
# amplitude, 96 KB at the 12-qubit dense cap, so a 34-term 12-qubit chain's
# entry takes 3.3 MB and a full cache of such entries about 53 MB.
@lru_cache(maxsize=16)
def _compiled(axes: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Gather indices and phases ``(k, 2**n)`` of k strings of n axes each:
    ``(P_t v)[b] = phases[t, b] * v[sources[t, b]]``."""
    x = np.array([[int("".join("1" if a in "XY" else "0" for a in s), 2)] for s in axes])
    z = np.array([[int("".join("1" if a in "YZ" else "0" for a in s), 2)] for s in axes])
    y_count = np.array([[s.count("Y")] for s in axes])
    sources = np.arange(2 ** len(axes[0])) ^ x
    parity = np.zeros_like(sources)
    for shift in range(len(axes[0])):
        parity ^= (sources & z) >> shift
    phases = np.array([1, 1j, -1, -1j])[(y_count + 2 * (parity & 1)) % 4]
    sources.flags.writeable = phases.flags.writeable = False
    return sources, phases


def apply_axes(amplitudes: np.ndarray, axes: str) -> np.ndarray:
    """Apply a Pauli string to raw amplitudes without building a matrix."""
    sources, phases = _compiled((axes,))
    if np.shape(amplitudes) != sources.shape[1:]:
        raise ValueError(
            f"amplitudes of shape {np.shape(amplitudes)} do not fit {len(axes)} qubit(s)"
        )
    return phases[0] * amplitudes[sources[0]]


def apply_operator(amplitudes: np.ndarray, op: PauliSum) -> np.ndarray:
    """Apply a Pauli sum to raw amplitudes, all terms at once.

    The result has the bytes of ``acc = 0j; acc += coeff * apply_axes(amplitudes, axes)``
    over the terms in order: the same products, and a reduce over the
    leading axis that adds the rows one after another, from ``0j``.
    """
    sources, phases = _compiled(op._axes)
    if np.shape(amplitudes) != sources.shape[1:]:
        raise ValueError(
            f"amplitudes of shape {np.shape(amplitudes)} do not fit {op.n_qubits} qubit(s)"
        )
    terms = phases * amplitudes[sources]
    terms *= np.array(op._coeffs)[:, None]
    return np.add.reduce(terms, axis=0, initial=0j)


def _scatter(axes: tuple[str, ...], rows: Iterable[tuple[int, float | np.ndarray]]) -> np.ndarray:
    """Dense sum of ``coeff * P_t`` over ``(t, coeff)`` rows, in order, ``P_t`` being ``axes[t]``.

    Each ``coeff`` is a float, giving one ``(d, d)`` matrix, or an array of
    ``k`` per-slice coefficients of the same length in every row, giving
    a ``(k, d, d)`` stack. The cap is checked before the strings are compiled.
    """
    n_qubits = len(axes[0])
    if n_qubits > DENSE_LIMIT:
        raise ValueError(f"dense matrix for {n_qubits} qubits exceeds the {DENSE_LIMIT}-qubit cap")
    sources, phases = _compiled(axes)
    rows = list(rows)
    dim = 2**n_qubits
    row_starts = np.arange(0, dim * dim, dim)
    stack = np.shape(rows[0][1])
    matrix = np.zeros(stack + (dim * dim,), dtype=complex)
    for t, coeff in rows:
        # the transposed view puts the flattened matrix axis first for one matrix and a stack alike
        matrix.T[row_starts + sources[t]] += np.multiply.outer(phases[t], coeff)
    return matrix.reshape(stack + (dim, dim))


def dense_matrix(op: PauliSum) -> np.ndarray:
    """Dense matrix of a Pauli sum, qubit 0 as the most significant index bit."""
    return _scatter(op._axes, enumerate(op._coeffs))


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
        terms = [(1.0, "X"), (j, "Z")]
    elif n_qubits == 2:
        terms = [(0.5, "XX"), (0.5, "YY"), (j, "ZI")]
    elif n_qubits == 3:
        terms = [(0.5, "XXI"), (0.5, "IXX"), (0.5, "YYI"), (0.5, "IYY"), (j, "ZII"), (j, "ZZI")]
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


def named_observable(name: str, n_qubits: int) -> PauliSum:
    """Resolve an observable name used in manifests and CLI output.

    "H" is resolved by the caller (it depends on the Hamiltonian); this
    handles "Z" (single qubit), "Z<k>" for qubit k (in decimal digits with
    no leading zero, as in "Z0" or "Z10"), and "Zbar". Each operator is
    built once per name and register size and then shared.
    """
    # checked before the cache: True and 2.0 would hit the entries of 1 and 2
    return _named_observable(name, _check_count(n_qubits, "operator qubit count"))


@lru_cache(maxsize=64)
def _named_observable(name: str, n_qubits: int) -> PauliSum:
    if name == "Zbar":
        if n_qubits != 3:
            raise ValueError("Zbar is defined on three qubits")
        return PauliSum(3, ((1.0 / 3.0, "ZII"), (-1.0 / 3.0, "IZI"), (1.0 / 3.0, "IIZ")))
    if name == "Z":
        if n_qubits != 1:
            raise ValueError('observable "Z" is only unambiguous on one qubit, use "Z<k>"')
        return PauliSum(1, ((1.0, "Z"),))
    index = name[1:]
    if name[:1] == "Z" and _plain_decimal(index):
        # an index with more digits than the register size is out of range, and int() may refuse it
        if len(index) > len(str(n_qubits)) or int(index) >= n_qubits:
            raise ValueError(f"qubit {index} out of range for {n_qubits} qubit(s)")
        qubit = int(index)
        return PauliSum(n_qubits, ((1.0, "I" * qubit + "Z" + "I" * (n_qubits - qubit - 1)),))
    raise ValueError(f"unknown observable {name!r}")
