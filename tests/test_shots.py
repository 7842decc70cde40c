"""Tests for the shot-noise emulation layer."""

import argparse
import gc
import math
import re
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from twirlsim import (
    Backend,
    PauliSum,
    PauliTerm,
    PostSelectionError,
    RoundSpec,
    TauMode,
    TwirlConfig,
    dense_matrix,
    expectation,
    run_protocol,
    sample_shots,
    schwinger_hamiltonian,
    stream_starts,
    twirl_round,
)
from twirlsim import shots
from twirlsim.cli import _run_overrides
from twirlsim.pauli import single_z
from twirlsim.shots import _draw
from twirlsim.state import StateVector
from twirlsim.twirl import resolve_observables


def _config(**overrides):
    settings = dict(rounds=(RoundSpec(TauMode.QUARTER),) * 2, shots=5000, seed=3)
    settings.update(overrides)
    return TwirlConfig(**settings)


def test_same_seed_reproduces_everything():
    op = schwinger_hamiltonian(1, 1.0)
    first = run_protocol("0", op, _config())
    second = run_protocol("0", op, _config())
    assert first == second


def test_different_seeds_differ():
    op = schwinger_hamiltonian(1, 1.0)
    base = run_protocol("0", op, _config())
    other = run_protocol("0", op, _config(seed=4))
    assert base != other


def test_round_zero_uses_every_shot():
    op = schwinger_hamiltonian(1, 1.0)
    records = run_protocol("0", op, _config())
    assert records[0].active_count == 5000
    for record in records:
        assert 0 <= record.active_count <= 5000


def test_deterministic_outcome_is_estimated_exactly():
    # <Z0> = 1 on |00> pins the per-term binomial at its ceiling
    state = StateVector.basis("00")
    ops = [("Z0", single_z(2, 0)), ("Z1", single_z(2, 1))]
    estimates = sample_shots(state, ops, 17, stream_starts(5, 2, 3)[1][1:])
    assert estimates["Z0"] == 1.0
    assert estimates["Z1"] == 1.0


@pytest.mark.parametrize("seed", [None, True, -1, 2.0, "3"])
def test_config_rejects_seeds_the_streams_cannot_take(seed):
    message = f"seed must be a non-negative integer, got {seed!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        _config(seed=seed)


@pytest.mark.parametrize(
    "seed, n_rounds, n_streams",
    [(-1, 1, 1), (0, -1, 1), (0, 1, -1)],
    ids=["seed", "round", "stream"],
)
def test_negative_stream_coordinates_are_rejected(seed, n_rounds, n_streams):
    with pytest.raises(ValueError, match="must be a (non-negative|positive) integer"):
        stream_starts(seed, n_rounds, n_streams)


@pytest.mark.parametrize("value", [True, 2.0, 0, 2**32])
@pytest.mark.parametrize("what", ["round count", "stream count"])
def test_grid_counts_are_positive_and_below_2_32(what, value):
    # every index on the grid is one 32-bit word
    counts = {"round count": 1, "stream count": 1, what: value}
    message = f"{what} must be a positive integer below 2**32, got {value!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        stream_starts(0, counts["round count"], counts["stream count"])


_NON_NEGATIVE_SITES = {
    "config-seed": lambda value: _config(seed=value),
    "streams-seed": lambda value: stream_starts(value, 1, 1),
    "active": lambda value: sample_shots(
        StateVector.basis("0"), [("Z", single_z(1, 0))], value, stream_starts(1, 3, 2)[2][1:]
    ),
    "qubit": lambda value: single_z(2, value),
    "cli-seed": lambda value: _run_overrides(
        argparse.Namespace(backend=None, shots=None, seed=value, prepare=None)
    ),
}


@pytest.mark.parametrize("value", [True, 2.0, -1])
@pytest.mark.parametrize("site", list(_NON_NEGATIVE_SITES))
def test_non_negative_counts_reject_bools_floats_and_negatives(site, value):
    message = rf"non-negative integer( below 2\*\*63)?, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        _NON_NEGATIVE_SITES[site](value)


def test_numpy_integer_counts_run_like_ints():
    op = schwinger_hamiltonian(2, 1.0)

    def run(count, seed):
        config = TwirlConfig(
            rounds=(RoundSpec(TauMode.QUARTER, ancillas=count(2)),) * 2,
            backend=Backend(count(4)),
            shots=count(50),
            seed=seed,
            observables=("H", "Z1"),
        )
        return config, run_protocol("01", op, config)

    config, records = run(np.int64, np.uint64(3))
    assert records == run(int, 3)[1]
    stored = [config.shots, config.seed, config.backend.steps, config.rounds[0].ancillas]
    assert [type(value) for value in stored] == [int] * 4
    assert all(type(record.active_count) is int for record in records)


def test_sample_shots_needs_active_runs():
    state = StateVector.basis("0")
    ops = [("Z", single_z(1, 0))]
    with pytest.raises(PostSelectionError, match="no active runs left"):
        sample_shots(state, ops, 0, stream_starts(1, 3, 2)[2][1:])


def test_sample_shots_bounds_the_active_count():
    # |0> reads Z = +1 on every run, so no draw would catch the count
    ops = [("Z", single_z(1, 0))]
    starts = stream_starts(1, 3, 2)[2][1:]
    assert sample_shots(StateVector.basis("0"), ops, 2**63 - 1, starts) == {"Z": 1.0}
    with pytest.raises(ValueError, match=re.escape("below 2**63, got 9223372036854775808")):
        sample_shots(StateVector.basis("0"), ops, 2**63, starts)


def test_sample_shots_needs_one_start_per_term():
    ops = [("Z", single_z(1, 0))]
    with pytest.raises(ValueError, match="one stream start per term: 1 terms, 2 starts"):
        sample_shots(StateVector.basis("0"), ops, 10, stream_starts(1, 3, 3)[2][1:])


def test_starved_post_selection_raises():
    # forty ancillas against a mostly mismatched state keep ~1% of runs,
    # so a single shot dies out in the first round
    op = schwinger_hamiltonian(1, 1.0)
    config = TwirlConfig(
        rounds=(RoundSpec(TauMode.QUARTER, energy_override=1.0, ancillas=40),),
        shots=1,
        seed=0,
    )
    with pytest.raises(PostSelectionError, match="round 1"):
        run_protocol("0", op, config)


def test_noisy_energy_feeds_sampled_estimate_into_tau():
    op = schwinger_hamiltonian(1, 1.0)
    clean = run_protocol("0", op, _config(shots=400))
    noisy = run_protocol("0", op, _config(shots=400, noisy_energy=True))
    assert clean[1].energy_used == pytest.approx(1.0)
    assert noisy[1].energy_used != clean[1].energy_used
    assert noisy[1].tau == pytest.approx(math.pi / (2.0 * noisy[1].energy_used))


def test_large_shot_count_tracks_exact_run():
    op = schwinger_hamiltonian(1, 1.0)
    exact = run_protocol("0", op, _config(shots=None, seed=0))
    sampled = run_protocol("0", op, _config(shots=200000, seed=11))
    assert sampled[-1].expectations["H"] == pytest.approx(
        exact[-1].expectations["H"], abs=0.02
    )


# ---------------------------------------------------------------------------
# draws against numpy's own seeded streams

# Eight amplitudes of 1/4 or 3/4: every Pauli expectation is a short dyadic
# sum, so outcome probabilities are exact however they are computed.
_DYADIC = StateVector(3, np.array([1, 1, 1, 1, 1, 1, 1, 3]) / 4)
_TERMS = [
    ("A", PauliSum(3, [PauliTerm(1.0, "ZII"), PauliTerm(-1.5, "IXI"), PauliTerm(0.25, "XXZ")])),
    ("B", PauliSum(3, [PauliTerm(2.0, "YIY"), PauliTerm(-0.75, "ZZZ")])),
]
# on |010> a Z term reads +1 or -1: p at 1 and at 0
_BASIS = StateVector.basis("010")
_EDGE_TERMS = [("E", PauliSum(3, [PauliTerm(1.0, "ZII"), PauliTerm(0.5, "IZI")]))]
# 2**128 is the first seed of five words, where the hash constant after the seed moves on
SEEDS = [0, 1, 2**31 - 1, 2**32, 2**64 + 3, 2**128 - 1, 2**128, 2**130 + 7, 2**200 + 1]


def _oracle_hits(seed, round_index, stream, n, p):
    sequence = np.random.SeedSequence(entropy=seed, spawn_key=(round_index, stream))
    return int(np.random.default_rng(sequence).binomial(n, p))


def _oracle_estimates(state, ops, active, seed, round_index, stream_base):
    estimates = {}
    stream = stream_base
    for name, op in ops:
        total = 0.0
        for term in op.terms:
            single = dense_matrix(PauliSum(op.n_qubits, [PauliTerm(1.0, term.axes)]))
            p_plus = (1.0 + np.vdot(state.amplitudes, single @ state.amplitudes).real) / 2.0
            hits = _oracle_hits(seed, round_index, stream, active, p_plus)
            total += term.coeff * (2.0 * hits / active - 1.0)
            stream += 1
        estimates[name] = total
    return estimates


@pytest.mark.parametrize("seed", SEEDS)
def test_sample_shots_matches_numpy_streams(seed):
    for state, ops in ((_DYADIC, _TERMS), (_BASIS, _EDGE_TERMS)):
        n_terms = sum(len(op.terms) for _, op in ops)
        grid = stream_starts(seed, 8, 4 + n_terms)
        for round_index in (0, 1, 7):
            for stream_base in (1, 4):
                starts = grid[round_index][stream_base : stream_base + n_terms]
                for active in (1, 1000, 2**63 - 1):
                    got = sample_shots(state, ops, active, starts)
                    want = _oracle_estimates(state, ops, active, seed, round_index, stream_base)
                    assert got == want, (seed, round_index, active, stream_base)


def _oracle_start(seed, round_index, stream):
    sequence = np.random.SeedSequence(entropy=seed, spawn_key=(round_index, stream))
    state = np.random.PCG64(sequence).state["state"]
    return state["state"], state["inc"]


@pytest.mark.parametrize("seed", SEEDS)
def test_stream_starts_match_numpy_seeding(seed):
    shapes = ((1, 1), (3, 7), (5, 12), (1, 30))
    # every shape again under a second seed and then the first, each time after
    # the other shapes: a repeated grid shape must seed as it did the first time
    for current in (seed, seed + 1, seed):
        for n_rounds, n_streams in shapes:
            got = stream_starts(current, n_rounds, n_streams)
            want = [
                [_oracle_start(current, r, s) for s in range(n_streams)] for r in range(n_rounds)
            ]
            assert got == want, (current, n_rounds, n_streams)
    # the hashed indices are shared between calls
    assert not shots._index_hashes(2, shots._HASH_INIT_A).flags.writeable


# the grids run_protocol seeds: rounds 0..R for one to five rounds, by stream 0
# for the survivors, then every observable term of a 3-qubit chain and H's terms
_CHAIN = schwinger_hamiltonian(3, 1.0)
_CHAIN_OBSERVABLES = resolve_observables(("H", "Z0", "Z1", "Z2", "Zbar"), _CHAIN)
_GRID_STREAMS = 1 + sum(len(obs.terms) for _, obs in _CHAIN_OBSERVABLES) + len(_CHAIN.terms)


@pytest.mark.parametrize("seed", SEEDS)
def test_protocol_grids_match_numpy_seeding(seed):
    # each shape under a second seed as well, after every shape of the first
    for current in (seed, seed + 1):
        want = [[_oracle_start(current, r, s) for s in range(_GRID_STREAMS)] for r in range(6)]
        for n_rounds in range(2, 7):
            for n_streams in range(1, _GRID_STREAMS + 1):
                got = stream_starts(current, n_rounds, n_streams)
                grid = [row[:n_streams] for row in want[:n_rounds]]
                assert got == grid, (current, n_rounds, n_streams)


def test_resolved_observables_are_built_once():
    op = schwinger_hamiltonian(3, 1.0)
    names = ("H", "Z0", "Z2", "Zbar")
    first, second = resolve_observables(names, op), resolve_observables(names, op)
    assert [name for name, _ in first] == list(names)
    assert all(a is b for (_, a), (_, b) in zip(first, second))
    assert first[0][1] is op


def test_numpy_integer_coordinates_draw_like_ints():
    got = stream_starts(np.int64(2**62 + 5), np.uint32(7), np.int16(3))
    assert got == stream_starts(2**62 + 5, 7, 3)
    assert stream_starts(np.uint64(2**64 - 1), np.int8(2), np.uint64(5)) == stream_starts(
        2**64 - 1, 2, 5
    )


def test_fixed_outcome_draws_match_numpy_streams():
    # p of 0 or 1 fixes the outcome whatever the stream holds
    for seed in (0, 2**64 + 3):
        for round_index, stream in ((0, 0), (3, 5)):
            start = stream_starts(seed, 4, 6)[round_index][stream]
            for n in (1, 1000, 2**63 - 1):
                for p in (0.0, 1.0):
                    want = _oracle_hits(seed, round_index, stream, n, p)
                    assert _draw(start, n, p) == want, (seed, round_index, n, p)


def test_each_string_is_evaluated_once_per_state(monkeypatch):
    # H's ZII is Z0, Zbar's axes are Z0-Z2, and round k + 1's energy is
    # sampled on round k's state: 8 distinct strings on each of 5 states,
    # against 12 per record and 6 per energy estimate, 84 in all, without reuse
    calls = []
    evaluate = shots._outcome_probability

    def counted(amplitudes, axes):
        calls.append(axes)
        return evaluate(amplitudes, axes)

    monkeypatch.setattr(shots, "_outcome_probability", counted)
    config = TwirlConfig(
        rounds=(RoundSpec(TauMode.QUARTER, ancillas=2),) * 4,
        shots=10**5,
        seed=7,
        observables=("H", "Z0", "Z1", "Z2", "Zbar"),
        noisy_energy=True,
    )
    run_protocol("100", schwinger_hamiltonian(3, 1.3), config)
    assert len(calls) == 40
    assert len(set(calls)) == 8


def test_sampling_keeps_no_state_alive():
    state = StateVector.from_amplitudes([1, 1])
    alive = weakref.ref(state)
    sample_shots(state, [("Z", single_z(1, 0))], 10, stream_starts(1, 1, 2)[0][1:])
    del state
    gc.collect()
    assert alive() is None


def test_sample_shots_names_both_registers():
    ops = [("Z0", single_z(2, 0))]
    message = "state on 3 qubit(s) does not match observable 'Z0' on 2"
    with pytest.raises(ValueError, match=re.escape(message)):
        sample_shots(StateVector.basis("000"), ops, 10, stream_starts(1, 1, 2)[0][1:])


# initial basis state and observables per register size; the observables
# share Pauli strings with H and with each other (H's ZII is Z0, Zbar's
# axes are Z0-Z2)
_PROTOCOLS = {
    1: ("1", ("H", "Z")),
    2: ("10", ("H", "Z0", "Z1")),
    3: ("100", ("H", "Z0", "Zbar")),
}


_SEEDS_AND_SHOTS = [(0, 1000), (2**64 + 3, 10**6)]
_ENERGIES = pytest.mark.parametrize(
    "noisy_energy", [False, True], ids=["exact-energy", "noisy-energy"]
)


@_ENERGIES
@pytest.mark.parametrize("seed, shots", _SEEDS_AND_SHOTS)
def test_survivor_counts_match_numpy_streams(seed, shots, noisy_energy):
    _check_survivor_counts(seed, shots, noisy_energy, _quarter_rounds(2), n_qubits=3)


# the remaining register sizes and ancilla counts; 3 qubits with 2 ancillas is above
@pytest.mark.parametrize("n_qubits, ancillas", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)])
@_ENERGIES
@pytest.mark.parametrize("seed, shots", _SEEDS_AND_SHOTS)
def test_survivor_counts_match_numpy_streams_on_every_register(
    seed, shots, noisy_energy, n_qubits, ancillas
):
    _check_survivor_counts(seed, shots, noisy_energy, _quarter_rounds(ancillas), n_qubits)


# overrides between estimated rounds: records 0 and 2 feed no estimate
# forward, records 1 and 3 do, and the last record has no round after it
_MIXED_ROUNDS = (
    RoundSpec(TauMode.FULL, energy_override=2.2),
    RoundSpec(TauMode.QUARTER, ancillas=2),
    RoundSpec(TauMode.QUARTER, energy_override=-0.9),
    RoundSpec(TauMode.QUARTER),
)


@pytest.mark.parametrize("n_qubits", [1, 2, 3])
@_ENERGIES
@pytest.mark.parametrize("seed, shots", _SEEDS_AND_SHOTS)
def test_mixed_schedules_match_numpy_streams(seed, shots, noisy_energy, n_qubits):
    _check_survivor_counts(seed, shots, noisy_energy, _MIXED_ROUNDS, n_qubits)


def _quarter_rounds(ancillas):
    return (RoundSpec(TauMode.QUARTER, ancillas=ancillas),) * 3


def _check_survivor_counts(seed, shots, noisy_energy, rounds, n_qubits):
    initial, names = _PROTOCOLS[n_qubits]
    op = schwinger_hamiltonian(n_qubits, 1.3)
    config = TwirlConfig(
        rounds=rounds,
        shots=shots,
        seed=seed,
        observables=names,
        noisy_energy=noisy_energy,
    )
    records = run_protocol(initial, op, config)
    observables = resolve_observables(config.observables, op)
    # stream 0 draws the survivors, the observables' terms follow, then H's terms
    energy_base = 1 + sum(len(obs.terms) for _, obs in observables)
    state = StateVector.basis(initial)
    assert records[0].active_count == shots
    assert records[0].expectations == _oracle_estimates(state, observables, shots, seed, 0, 1)
    for before, record in zip(records, records[1:]):
        k = record.round_index
        spec = rounds[k - 1]
        if spec.energy_override is not None:
            assert record.energy_used == spec.energy_override, k
        elif noisy_energy:
            energy = _oracle_estimates(state, [("H", op)], before.active_count, seed, k, energy_base)
            assert record.energy_used == energy["H"], k
        else:
            assert record.energy_used == expectation(state, op), k
        state, _ = twirl_round(state, op, record.tau, record.prefactor, ancillas=spec.ancillas)
        p = min(1.0, record.p_cumulative)
        assert record.active_count == _oracle_hits(seed, k, 0, shots, p)
        want = _oracle_estimates(state, observables, record.active_count, seed, k, 1)
        assert record.expectations == want, k


# ---------------------------------------------------------------------------
# the streams stay independent of call history and threads


def _shot_run(seed):
    op = schwinger_hamiltonian(2, 0.7)
    config = _config(shots=2000, seed=seed, noisy_energy=seed % 2 == 0)
    return run_protocol("10", op, config)


def test_interleaved_seeds_do_not_disturb_each_other():
    first = _shot_run(5)
    other = _shot_run(6)
    again = _shot_run(5)
    assert first == again
    assert first != other


def test_threads_reproduce_a_sequential_run():
    seeds = list(range(100))
    sequential = [_shot_run(seed) for seed in seeds]

    def run_all(part):
        return [_shot_run(seed) for seed in part]

    # switch threads often, so the two threads' draws interleave
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            halves = [pool.submit(run_all, seeds[i::2]) for i in (0, 1)]
            threaded = [half.result(timeout=120) for half in halves]
    finally:
        sys.setswitchinterval(interval)
    assert threaded[0] == sequential[0::2]
    assert threaded[1] == sequential[1::2]
