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

Neither mode has a usable period at E = 0, so a vanishing estimate is
rejected; rounds aimed at zero-energy states must carry an explicit
``energy_override``.

Shot-noise emulation draws the surviving-run count of round k as a
binomial over the cumulative keep probability, and estimates each
observable term from a binomial over its exact outcome probability on
the current state. Each draw comes from its own PCG64 stream, the one
``default_rng(SeedSequence(seed, spawn_key=(round, stream)))`` starts,
so a full protocol is reproducible from its seed alone and insensitive
to evaluation order. Before its first round a protocol computes the
start states of every stream it can draw from, rounds 0..R by streams
0..S-1, in one seeding pass. The seed's pool is numpy's own, from
``SeedSequence(seed)``: a spawn key only pads the seed to the pool size
and goes on hashing its words in. The hash constants of that hashing do
not depend on the data, so the round and stream words are hashed into
per-shape tables once, kept read-only, and each protocol only mixes them
into its seed's pool, one array step per word over the whole grid. Each
draw sets its start on one generator per thread; building a
SeedSequence and a Generator per draw would cost about 15 times the
draw itself. A draw at p = 0 or p = 1 does not touch its stream: numpy
returns 0 or n there whatever the stream holds, and no stream is drawn
twice.

A state's outcome probabilities are computed once per distinct Pauli
string. Each thread keeps those of the last state it sampled, so a
string shared between observables (H's ZII is Z0; Zbar's axes are
Z0-Z2) and the next round's sampled energy estimate, drawn on the same
state as the record before it, reuse them.
"""

from __future__ import annotations

import math
import re
import threading
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .pauli import PauliSum, _check_count, _check_real, _compiled, expectation, named_observable
from .spectral import eigendecompose, evolve_exact, overlap_weights
from .state import StateVector
from .trotter import evolve_trotter

ZERO_ENERGY_TOL = 1e-12
EXTINCTION_TOL = 1e-14
PREFACTOR_TOL = 1e-12
# a backend's spelling in manifests and on the command line: no sign, separator or leading zero
BACKEND_PATTERN = "exact|trotter:[1-9][0-9]*"


class ZeroEnergyError(ValueError):
    """Raised when a round's energy estimate is too close to zero."""


class PostSelectionError(RuntimeError):
    """Raised when post-selection has no surviving probability or shots."""


class TauMode(Enum):
    """How a round turns an energy estimate into a period."""

    QUARTER = "quarter"
    FULL = "full"


def choose_tau(energy: float, mode: TauMode) -> tuple[float, complex]:
    """Period and prefactor for one filtering round at energy E."""
    _check_real(energy, "energy estimate")
    energy = float(energy)  # a float32 estimate would keep float32 arithmetic
    if abs(energy) < ZERO_ENERGY_TOL:
        raise ZeroEnergyError(
            "energy estimate is zero within tolerance; a zero-energy target "
            "needs an explicit energy_override (full mode) instead"
        )
    if mode is TauMode.QUARTER:
        return math.pi / (2.0 * energy), 1.0j
    if mode is TauMode.FULL:
        return 2.0 * math.pi / energy, 1.0 + 0.0j
    raise ValueError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class Backend:
    """Time-evolution strategy: exact, or split-step with ``steps`` sweeps."""

    steps: int | None = None

    def __post_init__(self) -> None:
        if self.steps is not None:
            object.__setattr__(self, "steps", _check_count(self.steps, "step count"))

    @classmethod
    def parse(cls, text: str) -> Backend:
        """Parse "exact" or "trotter:<steps>", the steps in plain decimal digits."""
        if not re.fullmatch(BACKEND_PATTERN, text):
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
    _check_real(tau, "evolution time")
    _check_prefactor(prefactor)
    ancillas = _check_count(ancillas, "ancilla count")
    dec = eigendecompose(op)
    angles = np.angle(prefactor) - float(tau) * dec.eigenvalues
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
    ancillas = _check_count(ancillas, "ancilla count")
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
        object.__setattr__(self, "ancillas", _check_count(self.ancillas, "ancilla count"))


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
            # numpy's binomial draws take the count as a 64-bit C long
            object.__setattr__(self, "shots", _check_count(self.shots, "shot count", below=2**63))
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


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx) and the
# 128-bit PCG64 multiplier (O'Neill 2014)
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_POOL_SIZE = 4
# generate_state(4, uint64) hashes eight words cycling twice over the pool;
# its hash constants, and the multipliers they step to, are the same for every pool
_STATE_HASH = np.array(
    [_HASH_INIT_B * _HASH_MULT_B**i & _MASK32 for i in range(2 * _POOL_SIZE)], dtype=np.uint64
).reshape(2, _POOL_SIZE)
_STATE_MULT = _STATE_HASH * _HASH_MULT_B & _MASK32
_local = threading.local()


def _words(value: int) -> tuple[int, ...]:
    """Little-endian 32-bit words of a non-negative integer; 0 is one word."""
    # as a Python int: a numpy integer would wrap in the hashing
    value = _check_count(value, "stream coordinate", low=0)
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return tuple(words)


def _after(h: int, n_words: int) -> int:
    """The hash constant after ``n_words`` words, each mixed into every pool entry."""
    return h * pow(_HASH_MULT_A, _POOL_SIZE * n_words, 2**32) & _MASK32


# The hashing works elementwise on uint64 arrays of 32-bit values: a product
# of two such values fits in 64 bits, and a wrapped subtraction is masked
# back to 32.
def _mix(x, y):
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return r ^ r >> 16


@lru_cache(maxsize=64)
def _word_hashes(rows: tuple[tuple[int, ...], ...], h: int) -> np.ndarray:
    """Hashed words of equal-length rows, ready to mix into pools: ``(rows, words, pool)``.

    Word k of a row meets pool entry i under the hash constant h * A**(4k + i),
    so the table depends only on the words and ``h``, and one grid shape is
    hashed once. The rows must be validated ints: ``(True,) == (1,)`` as keys.
    The table is shared between calls, so it is read-only.
    """
    n_words = len(rows[0])
    consts = np.array(
        [h * _HASH_MULT_A**j & _MASK32 for j in range(_POOL_SIZE * n_words)], dtype=np.uint64
    ).reshape(n_words, _POOL_SIZE)
    # numpy's hashmix: xor the constant, multiply by its next step, fold the high half
    value = np.array(rows, dtype=np.uint64)[..., None] ^ consts
    value = value * (consts * _HASH_MULT_A & _MASK32) & _MASK32
    table = value ^ value >> 16
    table.flags.writeable = False
    return table


def _absorb(pool: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Mix each row's hashed words (see ``_word_hashes``) into every pool entry.

    Pools lie along the last axis of ``pool``; the other axes broadcast
    against the rows of ``table``.
    """
    for k in range(table.shape[-2]):
        pool = _mix(pool, table[..., k, :])
    return pool


def _seed_prefix(seed: int) -> tuple[np.ndarray, int]:
    """SeedSequence pool and hash constant after every word of the seed.

    A nonempty spawn key pads the seed to the pool size, so every stream
    of a seed starts from this prefix and goes on with its round and
    stream words. numpy's pool for the bare seed is that prefix: with no
    spawn key it hashes zero words in place of the padding.
    """
    n_words = len(_words(seed))
    pool = np.random.SeedSequence(int(seed)).pool.astype(np.uint64)
    return pool, _after(_HASH_INIT_A, max(_POOL_SIZE, n_words))


def _group_words(values: Sequence[int]) -> tuple:
    """``(positions, word rows)`` of the values, one pair per word count, as tuples."""
    groups: dict[int, tuple[list[int], list[tuple[int, ...]]]] = {}
    for index, value in enumerate(values):
        words = _words(value)
        positions, rows = groups.setdefault(len(words), ([], []))
        positions.append(index)
        rows.append(words)
    return tuple((tuple(positions), tuple(rows)) for positions, rows in groups.values())


# a range holds only ints, and equal ranges hold the same ones, so the
# ranges a protocol passes are grouped once
_range_groups = lru_cache(maxsize=64)(_group_words)


def _word_groups(values: Sequence[int]) -> tuple:
    return _range_groups(values) if isinstance(values, range) else _group_words(values)


def stream_starts(
    seed: int, rounds: Sequence[int], streams: Sequence[int]
) -> list[list[tuple[int, int]]]:
    """PCG64 ``(state, inc)`` starts of the streams (seed, round, stream).

    Row i, column j is the start of ``default_rng(SeedSequence(seed,
    spawn_key=(rounds[i], streams[j])))``; the seed, rounds and streams
    are non-negative integers. ``sample_shots`` takes one row's starts for
    its terms, and ``run_protocol`` draws round k's survivors from stream
    0 and its observables' terms from streams 1 onward. The hash
    constants do not depend on the data, so the rounds' and streams'
    words are hashed once per grid shape, and each word is one array
    step over every grid point with the same word counts.
    """
    prefix, h0 = _seed_prefix(seed)
    stream_groups = _word_groups(streams)
    starts = [[(0, 0)] * len(streams) for _ in rounds]
    for rows, round_words in _word_groups(rounds):
        round_pool = _absorb(prefix, _word_hashes(round_words, h0))
        h1 = _after(h0, len(round_words[0]))
        for cols, stream_words in stream_groups:
            pool = _absorb(round_pool[:, None], _word_hashes(stream_words, h1))
            w = (pool[..., None, :] ^ _STATE_HASH) * _STATE_MULT & _MASK32
            # generate_state's eight words read as four little-endian uint64
            # values: PCG64 seeds with the first two as its state and the
            # last two as its stream
            w = (w ^ w >> 16).astype("<u4").reshape(*pool.shape[:-1], 2 * _POOL_SIZE)
            values = w.view("<u8").tolist()
            for i, row in zip(rows, values):
                for j, (a, b, c, d) in zip(cols, row):
                    inc = (c << 65 | d << 1 | 1) & _MASK128
                    starts[i][j] = ((inc + (a << 64 | b)) * _PCG_MULT + inc) & _MASK128, inc
    return starts


def _draw(start: tuple[int, int], n: int, p: float) -> int:
    """One binomial(n, p) draw from a stream's PCG64 ``(state, inc)`` start."""
    # numpy's draw is 0 at p = 0 and n at p = 1 whatever the stream holds, and
    # no stream is drawn twice, so skipping the generator shifts no later draw
    if p == 0.0:
        return 0
    if p == 1.0:
        return n
    generator = getattr(_local, "generator", None)
    if generator is None:
        # made on the first draw; numpy.random itself first loads in stream_starts,
        # so runs without shots never import it
        generator = _local.generator = np.random.Generator(np.random.PCG64(0))
    state, inc = start
    generator.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return int(generator.binomial(n, p))


def _outcome_probability(amplitudes: np.ndarray, axes: str) -> float:
    """Probability (1 + <P>) / 2 that the Pauli string reads +1, clamped to [0, 1]."""
    source, phase = _compiled(axes)
    # apply_axes's expression, without its register check on every term
    value = float(np.vdot(amplitudes, phase * amplitudes[source]).real)
    return min(1.0, max(0.0, (1.0 + value) / 2.0))


def _probabilities(state: StateVector) -> dict[str, float]:
    """This thread's outcome probabilities on ``state``, by Pauli string.

    Only the last state sampled is kept, alive until the thread samples
    another: a protocol samples each state for its record and then for
    the next round's energy estimate.
    """
    memo = getattr(_local, "probabilities", None)
    if memo is None or memo[0] is not state:
        memo = _local.probabilities = (state, {})
    return memo[1]


def sample_shots(
    state: StateVector,
    ops: list[tuple[str, PauliSum]],
    active: int,
    starts: list[tuple[int, int]],
) -> dict[str, float]:
    """Binomial estimates of named observables from ``active`` runs.

    Term t of the flattened operator list draws from the stream that
    starts at ``starts[t]`` (see ``stream_starts``), so estimates do not
    depend on when or in what order they are computed. Each distinct
    Pauli string's outcome probability is computed once per state.
    """
    # numpy's binomial takes the count as a 64-bit C long, and fixed-outcome draws skip numpy
    active = _check_count(active, "active count", low=0, below=2**63)
    if active == 0:
        raise PostSelectionError("no active runs left")
    n_terms = sum(len(op.terms) for _, op in ops)
    if len(starts) != n_terms:
        raise ValueError(f"need one stream start per term: {n_terms} terms, {len(starts)} starts")
    probabilities = _probabilities(state)
    estimates: dict[str, float] = {}
    draws = iter(starts)
    for name, op in ops:
        if op.n_qubits != state.n_qubits:
            raise ValueError(
                f"state on {state.n_qubits} qubit(s) does not match "
                f"observable {name!r} on {op.n_qubits}"
            )
        total = 0.0
        for term in op.terms:
            p = probabilities.get(term.axes)
            if p is None:
                p = probabilities[term.axes] = _outcome_probability(state.amplitudes, term.axes)
            hits = _draw(next(draws), active, p)
            total += term.coeff * (2.0 * hits / active - 1.0)
        estimates[name] = total
    return estimates


def resolve_observables(names: tuple[str, ...], op: PauliSum) -> list[tuple[str, PauliSum]]:
    """Resolve observable names against a Hamiltonian, keeping order."""
    resolved: list[tuple[str, PauliSum]] = []
    for name in names:
        resolved.append((name, op if name == "H" else named_observable(name, op.n_qubits)))
    return resolved


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
        starts = stream_starts(config.seed, range(len(config.rounds) + 1), range(n_streams))

    def measure(current: StateVector, round_index: int, active: int | None) -> dict[str, float]:
        if config.shots is None:
            return {name: expectation(current, obs) for name, obs in observables}
        try:
            return sample_shots(current, observables, active, starts[round_index][1 : 1 + n_obs])
        except PostSelectionError as exc:
            raise PostSelectionError(f"{exc} in round {round_index}") from None

    records: list[RoundRecord] = []
    active = config.shots
    records.append(
        RoundRecord(
            round_index=0,
            energy_used=None,
            tau=None,
            prefactor=None,
            p_round=1.0,
            p_cumulative=1.0,
            expectations=measure(state, 0, active),
            active_count=active,
        )
    )
    p_cumulative = 1.0
    for index, spec in enumerate(config.rounds, start=1):
        if spec.energy_override is not None:
            energy = spec.energy_override
        elif config.shots is None and "H" in config.observables:
            energy = records[-1].expectations["H"]
        elif config.shots is not None and config.noisy_energy:
            energy = sample_shots(state, [("H", op)], active, starts[index][1 + n_obs :])["H"]
        else:
            energy = expectation(state, op)
        try:
            tau, prefactor = choose_tau(energy, spec.mode)
            state, p_round = twirl_round(state, op, tau, prefactor, spec.ancillas, config.backend)
        except (ZeroEnergyError, PostSelectionError) as exc:
            raise type(exc)(f"round {index}: {exc}") from None
        p_cumulative *= p_round
        if config.shots is not None:
            # rounding can lift the product of keep probabilities past 1
            active = _draw(starts[index][0], config.shots, min(1.0, p_cumulative))
        records.append(
            RoundRecord(
                round_index=index,
                energy_used=float(energy),
                tau=float(tau),
                prefactor=prefactor,
                p_round=p_round,
                p_cumulative=p_cumulative,
                expectations=measure(state, index, active),
                active_count=active,
            )
        )
    return records
