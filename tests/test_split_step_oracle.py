"""The split-step route held to the exact one by its per-evolve error.

Each ancilla applies M = (I + phi U) / 2, with norm at most 1, and the
split-step route applies M~ with U~ in place of U, so ||M - M~|| =
||U - U~|| / 2. With tau the same on both routes, the unnormalized
vectors after round k differ by at most

    delta = 1/2 sum_{j <= k} a_j eps_j,  eps_j = trotter_errors(op, tau_j, [steps])[0],

for a_j ancillas in round j. It follows that

    |p_cum - p~_cum| <= delta (2 sqrt(p_cum) + delta),
    |<O> - <O~>| <= 4 ||O|| delta / sqrt(p_cum),  ||O|| <= sum |c|.

Each bound also allows 1e-12 for rounding.
"""

import math

import numpy as np

from oracles import ramp_slice, random_pauli_sum, random_state
from twirlsim import (
    AdiabaticSchedule,
    Backend,
    PostSelectionError,
    RoundSpec,
    TauMode,
    TwirlConfig,
    adiabatic_prepare,
    run_protocol,
    schwinger_hamiltonian,
    staggered_start,
    trotter_errors,
)

ROUNDING = 1e-12


def _random_protocol(rng):
    n_qubits = int(rng.integers(1, 6))
    op = random_pauli_sum(rng, n_qubits, 6)
    initial = random_state(rng, n_qubits)
    # an override on every round puts the same tau on both routes
    rounds = tuple(
        RoundSpec(
            TauMode(str(rng.choice(["quarter", "full"]))),
            energy_override=float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 3.0)),
            ancillas=int(rng.integers(1, 4)),
        )
        for _ in range(int(rng.integers(1, 5)))
    )
    return op, initial, rounds, int(rng.integers(1, 17))


def test_split_step_protocols_stay_within_the_propagated_error():
    rng = np.random.default_rng(16)
    p_ratios = []
    for _ in range(200):
        op, initial, rounds, steps = _random_protocol(rng)
        try:
            exact = run_protocol(initial, op, TwirlConfig(rounds))
            split = run_protocol(initial, op, TwirlConfig(rounds, backend=Backend(steps)))
        except PostSelectionError:
            continue
        norm = sum(abs(coeff) for coeff, _ in op.terms)
        delta = 0.0
        for spec, want, got in zip(rounds, exact[1:], split[1:]):
            assert got.tau == want.tau
            delta += 0.5 * spec.ancillas * trotter_errors(op, want.tau, [steps])[0]
            p = want.p_cumulative
            p_bound = delta * (2.0 * math.sqrt(p) + delta)
            h_bound = 4.0 * norm * delta / math.sqrt(p)
            p_gap = abs(p - got.p_cumulative)
            h_gap = abs(want.expectations["H"] - got.expectations["H"])
            assert p_gap <= p_bound + ROUNDING
            assert h_gap <= h_bound + ROUNDING
            if p_bound > ROUNDING:
                p_ratios.append(p_gap / p_bound)
    assert len(p_ratios) > 300
    # the bound is close to tight somewhere, so it is not vacuous
    assert max(p_ratios) >= 0.5


def test_split_step_ramp_stays_within_its_slice_errors():
    start, target = staggered_start(3), schwinger_hamiltonian(3, 1.0)
    schedule = AdiabaticSchedule(total_time=5.0, steps=50)
    steps = 4
    exact = adiabatic_prepare("101", start, target, schedule)
    split = adiabatic_prepare("101", start, target, schedule, Backend(steps))
    dt = schedule.total_time / schedule.steps
    bound = sum(
        trotter_errors(ramp_slice(start, target, (k + 0.5) / schedule.steps), dt, [steps])[0]
        for k in range(schedule.steps)
    )
    gap = float(np.linalg.norm(exact.amplitudes - split.amplitudes))
    assert 0.0 < gap <= bound + ROUNDING
