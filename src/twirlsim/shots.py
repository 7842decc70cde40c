"""Shot-noise emulation: seeded binomial readout of the kept runs.

A protocol draws the surviving-run count of round k as a binomial over
the cumulative keep probability, and estimates each observable term from
a binomial over its exact outcome probability on the current state.
Each draw comes from its own PCG64 stream, the one
``default_rng(SeedSequence(seed, spawn_key=(round, stream)))`` starts,
so a full protocol is reproducible from its seed alone and insensitive
to evaluation order. Before its first round a protocol computes the
start states of every stream it can draw from, the grid of rounds
0..R by streams 0..S-1, in one seeding pass. The seed's pool is numpy's
own, from ``SeedSequence(seed)``: a spawn key only pads the seed to the
pool size and goes on hashing its words in. Every round and stream
index on the grid is one 32-bit word, and the hash constants do not
depend on the data, so the indices 0..n-1 are hashed into one read-only
table per length, and each protocol mixes the round table and then the
stream table into its seed's pool, one array step each. Each
draw sets its start on one generator per thread; building a
SeedSequence and a Generator per draw would cost about 15 times the
draw itself. A draw at p = 0 or p = 1 does not touch its stream: numpy
returns 0 or n there whatever the stream holds, and no stream is drawn
twice.

``sample_shots`` computes each distinct Pauli string's outcome
probability once per call (H's ZII is Z0; Zbar's axes are Z0-Z2) and
keeps nothing after it returns, so each state is sampled once, with
every operator it is read for.
"""

from __future__ import annotations

import threading
from functools import lru_cache

import numpy as np

from .pauli import COUNT_LIMIT, PauliSum, _check_count, _compiled
from .state import StateVector


class PostSelectionError(RuntimeError):
    """Raised when post-selection has no surviving probability or shots."""


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
def _index_hashes(n: int, h: int) -> np.ndarray:
    """Hashed indices 0..n-1, each one word, ready to mix into pools: ``(n, pool)``.

    The word meets pool entry i under the hash constant h * A**i, so the
    table depends only on ``n`` and ``h``. It is shared between calls, so
    it is read-only.
    """
    consts = np.array([h * _HASH_MULT_A**i & _MASK32 for i in range(_POOL_SIZE)], dtype=np.uint64)
    # numpy's hashmix: xor the constant, multiply by its next step, fold the high half
    value = np.arange(n, dtype=np.uint64)[:, None] ^ consts
    value = value * (consts * _HASH_MULT_A & _MASK32) & _MASK32
    table = value ^ value >> 16
    table.flags.writeable = False
    return table


def _seed_prefix(seed: int) -> tuple[np.ndarray, int]:
    """SeedSequence pool and hash constant after every word of the seed.

    A nonempty spawn key pads the seed to the pool size, so every stream
    of a seed starts from this prefix and goes on with its round and
    stream words. numpy's pool for the bare seed is that prefix: with no
    spawn key it hashes zero words in place of the padding.
    """
    # as a Python int: a numpy integer would wrap in the hashing
    seed = _check_count(seed, "seed", low=0)
    pool = np.random.SeedSequence(seed).pool.astype(np.uint64)
    return pool, _after(_HASH_INIT_A, max(_POOL_SIZE, -(-seed.bit_length() // 32)))


def stream_starts(seed: int, n_rounds: int, n_streams: int) -> list[list[tuple[int, int]]]:
    """PCG64 ``(state, inc)`` starts of the streams (seed, round, stream).

    Row r, column s is the start of ``default_rng(SeedSequence(seed,
    spawn_key=(r, s)))`` for r below ``n_rounds`` and s below
    ``n_streams``; the seed is a non-negative integer and both counts
    are positive integers below 2**32. ``sample_shots`` takes one row's
    starts for its terms, and ``run_protocol`` draws round k's survivors
    from stream 0 and its observables' terms from streams 1 onward.
    """
    prefix, h = _seed_prefix(seed)
    n_rounds = _check_count(n_rounds, "round count", below=2**32)
    n_streams = _check_count(n_streams, "stream count", below=2**32)
    rounds = _mix(prefix, _index_hashes(n_rounds, h))
    pool = _mix(rounds[:, None], _index_hashes(n_streams, _after(h, 1)))
    w = (pool[..., None, :] ^ _STATE_HASH) * _STATE_MULT & _MASK32
    # generate_state's eight words read as four little-endian uint64 values:
    # PCG64 seeds with the first two as its state and the last two as its stream
    w = (w ^ w >> 16).astype("<u4").reshape(n_rounds, n_streams, 2 * _POOL_SIZE)
    starts = []
    for row in w.view("<u8").tolist():
        starts.append([])
        for a, b, c, d in row:
            inc = (c << 65 | d << 1 | 1) & _MASK128
            starts[-1].append((((inc + (a << 64 | b)) * _PCG_MULT + inc) & _MASK128, inc))
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


def _outcome_probability(amplitudes: np.ndarray, op: PauliSum, t: int) -> float:
    """Probability (1 + <P>) / 2 that term ``t``'s Pauli string reads +1, clamped to [0, 1]."""
    sources, phases = _compiled(op._axes)
    # apply_axes's expression, without its register check on every term
    value = float(np.vdot(amplitudes, phases[t] * amplitudes[sources[t]]).real)
    return min(1.0, max(0.0, (1.0 + value) / 2.0))


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
    Pauli string's outcome probability is computed once per call, so a
    state is sampled in one call with every operator it is read for.
    """
    # fixed-outcome draws skip numpy, but are held to its bound all the same
    active = _check_count(active, "active count", low=0, below=COUNT_LIMIT)
    if active == 0:
        raise PostSelectionError("no active runs left")
    n_terms = sum(len(op.terms) for _, op in ops)
    if len(starts) != n_terms:
        raise ValueError(f"need one stream start per term: {n_terms} terms, {len(starts)} starts")
    probabilities: dict[str, float] = {}
    estimates: dict[str, float] = {}
    draws = iter(starts)
    for name, op in ops:
        if op.n_qubits != state.n_qubits:
            raise ValueError(
                f"state on {state.n_qubits} qubit(s) does not match "
                f"observable {name!r} on {op.n_qubits}"
            )
        total = 0.0
        for t, (coeff, axes) in enumerate(op.terms):
            p = probabilities.get(axes)
            if p is None:
                p = probabilities[axes] = _outcome_probability(state.amplitudes, op, t)
            hits = _draw(next(draws), active, p)
            total += coeff * (2.0 * hits / active - 1.0)
        estimates[name] = total
    return estimates
