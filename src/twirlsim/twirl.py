"""Ancilla-filtered projection toward Hamiltonian eigenstates.

One filtering round attaches a number of fresh ancillas in sequence.
Each ancilla applies (I + phi U(tau)) / 2 to the register, where U is
the time evolution over tau and phi is a unit-modulus prefactor, and
only runs in which the ancilla reads 0 are kept. An eigencomponent at
energy e picks up the kept-amplitude factor exp(i theta/2) cos(theta/2)
per ancilla, with theta = arg(phi) - tau e, so components with theta
a multiple of 2 pi pass untouched and the rest are damped.

The period tau comes from an energy estimate E for the wanted state:

* quarter mode: tau = pi / (2 E) with phi = i, the sharpest filter
  around E itself;
* full mode: tau = 2 pi / E with phi = 1, which passes E, its
  harmonics, and zero. Passing zero makes it the only mode that can
  target a zero-energy state, driven by a nonzero E borrowed from
  elsewhere in the spectrum.

Neither mode has a usable period at E = 0, so an estimate that is zero
on the operator's scale is rejected; rounds aimed at zero-energy states
must carry an explicit ``energy_override``.

Shot-noise emulation (``shots``) draws the surviving-run count of each
round and estimates the observables from seeded binomial draws. Each
state is sampled once: a record's observables and the next round's
sampled energy estimate come from one ``sample_shots`` call.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .pauli import (
    COUNT_LIMIT,
    _INT_DIGITS,
    PauliSum,
    _check_count,
    _check_real,
    _check_time,
    _is_finite_real,
    expectation,
    named_observable,
)
from .shots import PostSelectionError, _draw, sample_shots, stream_starts
from .spectral import eigendecompose, evolve_exact, overlap_weights
from .state import StateVector
from .trotter import evolve_trotter

# An energy within this fraction of the operator's summed |coefficient| is zero:
# rounding puts about eps sum|c| into each level e, so a quarter-mode angle tau e
# carries about (pi / 2) eps sum|c| / |E| of error, 3.5e-7 rad at the bound and
# more below it, where rounding rather than the state sets the filter.
ZERO_ENERGY_REL = 1e-9
EXTINCTION_TOL = 1e-14
PREFACTOR_TOL = 1e-12
# a sampled energy estimate's name among the observables, which are H, Z, Z<k> or Zbar
_ESTIMATE = "energy estimate"
# a backend's spelling in manifests and on the command line: no sign, separator or leading zero
BACKEND_PATTERN = "exact|trotter:[1-9][0-9]*"


class ZeroEnergyError(ValueError):
    """Raised when a round's energy estimate is too close to zero."""


class TauMode(Enum):
    """How a round turns an energy estimate into a period."""

    QUARTER = "quarter"
    FULL = "full"


def choose_tau(energy: float, mode: TauMode, norm_bound: float) -> tuple[float, complex]:
    """Period and prefactor for one filtering round at energy E.

    ``norm_bound`` is the operator's summed |coefficient| (``op._norm_bound``):
    an energy within ``ZERO_ENERGY_REL`` times it of zero is refused, and so
    is one whose full period 2 pi / E overflows (below about 3.5e-308).
    """
    _check_real(energy, "energy estimate")
    if not (_is_finite_real(norm_bound) and norm_bound >= 0):
        raise ValueError(f"summed |coefficient| {norm_bound!r} must be finite and >= 0")
    energy = float(energy)  # a float32 estimate would keep float32 arithmetic
    # <=, so that an operator of zero coefficients refuses its zero energy too
    if abs(energy) <= ZERO_ENERGY_REL * norm_bound or math.isinf(2.0 * math.pi / energy):
        raise ZeroEnergyError(
            "energy estimate is zero within tolerance; a zero-energy target "
            "needs an explicit energy_override (full mode) instead"
        )
    if mode is TauMode.QUARTER:
        # 2.0 * energy overflows above ~9e307; pi / 2.0 is exact, so this rounds the same quotient once
        return math.pi / 2.0 / energy, 1.0j
    if mode is TauMode.FULL:
        return 2.0 * math.pi / energy, 1.0 + 0.0j
    raise ValueError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class Backend:
    """Time-evolution strategy: exact, or split-step with ``steps`` sweeps."""

    steps: int | None = None

    def __post_init__(self) -> None:
        if self.steps is not None:
            steps = _check_count(self.steps, "step count", below=COUNT_LIMIT)
            object.__setattr__(self, "steps", steps)

    @classmethod
    def parse(cls, text: str) -> Backend:
        """Parse "exact" or "trotter:<steps>", the steps in plain decimal within int()'s digits."""
        if len(text) > len("trotter:") + _INT_DIGITS or not re.fullmatch(BACKEND_PATTERN, text):
            raise ValueError(f'unknown backend {text!r}, expected "exact" or "trotter:<steps>"')
        return cls() if text == "exact" else cls(int(text.split(":", 1)[1]))

    def label(self) -> str:
        return "exact" if self.steps is None else f"trotter:{self.steps}"

    def evolve(self, amplitudes: np.ndarray, op: PauliSum, tau: float) -> np.ndarray:
        if self.steps is None:
            return evolve_exact(amplitudes, op, tau)
        return evolve_trotter(amplitudes, op, tau, self.steps)


def _check_prefactor(prefactor: complex) -> None:
    # written so that a NaN modulus fails the comparison too
    if not abs(abs(prefactor) - 1.0) <= PREFACTOR_TOL:
        raise ValueError(f"prefactor {prefactor!r} must have unit modulus")


def keep_probability(
    state: StateVector, op: PauliSum, tau: float, prefactor: complex, ancillas: int = 1
) -> float:
    """Keep probability of one round, predicted from the eigenbasis.

    Level j of weight w_j sits at filter angle theta_j = arg(phi) - tau e_j
    and keeps cos(theta_j / 2)**2 per ancilla. That factor has period 2 pi
    in theta, so the angle needs no wrapping.
    """
    tau = _check_time(tau, op)
    _check_prefactor(prefactor)
    ancillas = _check_count(ancillas, "ancilla count", below=COUNT_LIMIT)
    dec = eigendecompose(op)
    angles = np.angle(prefactor) - tau * dec.eigenvalues
    return float(np.sum(overlap_weights(state, dec) * np.cos(angles / 2.0) ** (2 * ancillas)))


def twirl_round(
    state: StateVector,
    op: PauliSum,
    tau: float,
    prefactor: complex,
    ancillas: int = 1,
    backend: Backend = Backend(),
) -> tuple[StateVector, float]:
    """One filtering round; returns the posterior and its keep probability."""
    _check_prefactor(prefactor)
    ancillas = _check_count(ancillas, "ancilla count", below=COUNT_LIMIT)
    current = state.amplitudes
    probability = 1.0
    for _ in range(ancillas):
        mixed = 0.5 * (current + prefactor * backend.evolve(current, op, tau))
        kept = float(np.vdot(mixed, mixed).real)
        if kept < EXTINCTION_TOL:
            raise PostSelectionError(
                f"post-selection probability collapsed to {kept:.3e}; "
                "the filter left no support"
            )
        current = mixed / math.sqrt(kept)
        probability *= kept
    # a fresh array of unit norm by construction, so the posterior skips the checks
    return StateVector._trusted(state.n_qubits, current), probability


@dataclass(frozen=True)
class RoundSpec:
    """One protocol round: mode, optional energy override, ancilla count."""

    mode: TauMode
    energy_override: float | None = None
    ancillas: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.mode, TauMode):
            raise ValueError(f"mode must be a TauMode, got {self.mode!r}")
        if self.energy_override is not None:
            _check_real(self.energy_override, "energy override")
        ancillas = _check_count(self.ancillas, "ancilla count", below=COUNT_LIMIT)
        object.__setattr__(self, "ancillas", ancillas)


@dataclass(frozen=True)
class TwirlConfig:
    """Protocol-level settings shared by every round."""

    rounds: tuple[RoundSpec, ...]
    backend: Backend = Backend()
    shots: int | None = None
    seed: int = 0
    observables: tuple[str, ...] = ("H",)
    noisy_energy: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "rounds", tuple(self.rounds))
        object.__setattr__(self, "observables", tuple(self.observables))
        if not self.rounds:
            raise ValueError("protocol needs at least one round")
        if self.shots is not None:
            shots = _check_count(self.shots, "shot count", below=COUNT_LIMIT)
            object.__setattr__(self, "shots", shots)
        object.__setattr__(self, "seed", _check_count(self.seed, "seed", low=0))
        if not self.observables:
            raise ValueError("protocol needs at least one observable")
        if self.noisy_energy and self.shots is None:
            raise ValueError("noisy_energy needs a shot count")


@dataclass(frozen=True)
class RoundRecord:
    """Everything measured after one round; round 0 is the initial state."""

    round_index: int
    energy_used: float | None
    tau: float | None
    prefactor: complex | None
    p_round: float
    p_cumulative: float
    expectations: dict[str, float]
    active_count: int | None = None
    # the state the record describes; equality and repr leave it out
    state: StateVector | None = field(default=None, compare=False, repr=False)


def resolve_observables(names: tuple[str, ...], op: PauliSum) -> list[tuple[str, PauliSum]]:
    """Resolve observable names against a Hamiltonian, keeping order; each name once."""
    repeated = [name for i, name in enumerate(names) if name in names[:i]]
    if repeated:
        raise ValueError(f"observable {repeated[0]!r} is listed more than once")
    return [(name, op if name == "H" else named_observable(name, op.n_qubits)) for name in names]


def run_protocol(
    initial: StateVector | str,
    op: PauliSum,
    config: TwirlConfig,
) -> list[RoundRecord]:
    """Run a full protocol and report one record per round.

    Record 0 describes the initial state before any filtering. Unless a
    round carries an override, its energy estimate is the current <H>:
    the exact expectation by default, or a sampled estimate when both
    ``shots`` and ``noisy_energy`` are set. Without shots, a record that
    holds ``"H"`` holds that exact expectation, and the next round takes
    it from there.

    An abort is the ``PostSelectionError`` or ``ZeroEnergyError`` raised
    where it happened, re-raised with its message naming its round and a
    ``records`` attribute holding the records made before it.
    """
    state = StateVector.basis(initial) if isinstance(initial, str) else initial
    if state.n_qubits != op.n_qubits:
        raise ValueError("initial state and Hamiltonian act on different registers")
    observables = resolve_observables(config.observables, op)
    n_obs = sum(len(o.terms) for _, o in observables)
    if config.shots is not None:
        # per round: stream 0 draws the survivors, the observables' terms
        # follow, then H's terms for a sampled energy estimate
        n_streams = 1 + n_obs + (len(op.terms) if config.noisy_energy else 0)
        starts = stream_starts(config.seed, len(config.rounds) + 1, n_streams)

    records: list[RoundRecord] = []
    active = config.shots
    energy = tau = prefactor = None
    p_round = p_cumulative = 1.0
    for index in range(len(config.rounds) + 1):
        if index:
            spec = config.rounds[index - 1]
            energy = estimate if spec.energy_override is None else spec.energy_override
            try:
                tau, prefactor = choose_tau(energy, spec.mode, op._norm_bound)
                state, p_round = twirl_round(
                    state, op, tau, prefactor, spec.ancillas, config.backend
                )
            except (ZeroEnergyError, PostSelectionError) as exc:
                exc.args, exc.records = (f"round {index}: {exc}",), records
                raise
            energy = float(energy)
            p_cumulative *= p_round
            if config.shots is not None:
                # rounding can lift the product of keep probabilities past 1
                active = _draw(starts[index][0], config.shots, min(1.0, p_cumulative))
        # the next round estimates <H> on this state unless it has an override
        estimated = index < len(config.rounds) and config.rounds[index].energy_override is None
        if config.shots is None:
            expectations = {name: expectation(state, obs) for name, obs in observables}
        else:
            ops, streams = observables, starts[index][1 : 1 + n_obs]
            if estimated and config.noisy_energy:
                # a sampled estimate's terms draw from the next round's streams
                ops, streams = ops + [(_ESTIMATE, op)], streams + starts[index + 1][1 + n_obs :]
            try:
                expectations = sample_shots(state, ops, active, streams)
            except PostSelectionError as exc:
                exc.args, exc.records = (f"{exc} in round {index}",), records
                raise
        if estimated and config.noisy_energy:
            estimate = expectations.pop(_ESTIMATE)
        elif estimated:
            exact_h = config.shots is None and "H" in expectations
            estimate = expectations["H"] if exact_h else expectation(state, op)
        records.append(
            RoundRecord(
                index, energy, tau, prefactor, p_round, p_cumulative, expectations, active, state
            )
        )
    return records
