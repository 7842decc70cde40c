"""Whole protocols against the filter formula on eigenlevel weights, and every level reached.

Each round keeps w cos((arg phi - tau e) / 2)**(2 a) of a level at energy e
and weight w, for a ancillas (``oracles.weight_protocol``), so p_round
and <H> follow from the initial weights without evolving any amplitude.
"""

import math

import numpy as np
import pytest

from oracles import group_slices, projector, random_pauli_sum, random_state, weight_protocol
from twirlsim import (
    PostSelectionError,
    RoundSpec,
    StateVector,
    TauMode,
    TwirlConfig,
    ZeroEnergyError,
    closed_form_spectrum,
    dense_matrix,
    run_protocol,
    schwinger_hamiltonian,
)

# The worst deviations from a weight oracle that fed back its own estimates,
# over 204 random protocols whose estimates kept tau moderate. The check below,
# which feeds the oracle the engine's energies, stays within 2e-13 on its draws.
P_ROUND_TOL = 2.6e-9
ENERGY_TOL = 1.2e-8


def _random_protocol(rng):
    """A 1-5 qubit sum, a random or basis initial state, and 1-4 rounds of
    mixed modes and 1-3 ancillas, half of them with an energy override."""
    n_qubits = int(rng.integers(1, 6))
    op = random_pauli_sum(rng, n_qubits, 7)
    if rng.random() < 0.5:
        initial = random_state(rng, n_qubits)
    else:
        initial = StateVector.basis("".join(rng.choice(["0", "1"], n_qubits)))
    rounds = tuple(
        RoundSpec(
            TauMode.QUARTER if rng.random() < 0.5 else TauMode.FULL,
            float(rng.normal()) if rng.random() < 0.5 else None,
            int(rng.integers(1, 4)),
        )
        for _ in range(int(rng.integers(1, 5)))
    )
    return initial, op, rounds


def test_protocols_follow_the_level_weight_formula():
    # The oracle takes each round's energy as the engine used it, and each
    # estimated energy is checked against the oracle's mean energy before
    # that round. Left to feed back its own estimates, the oracle drifts
    # from the engine as dtau/dE = pi / (2 E**2) grows: up to 3e-8 in
    # p_round at E = 0.014, and 0.06-0.4 where an estimate of 8e-12 set
    # tau near 8e11.
    rng = np.random.default_rng(13)
    checked = aborted = 0
    while checked < 200:
        initial, op, rounds = _random_protocol(rng)
        try:
            records = run_protocol(initial, op, TwirlConfig(rounds=rounds))
        except (PostSelectionError, ZeroEnergyError):
            aborted += 1
            continue
        levels, vectors = np.linalg.eigh(dense_matrix(op))
        weights = np.abs(vectors.conj().T @ initial.amplitudes) ** 2
        used = [RoundSpec(s.mode, r.energy_used, s.ancillas) for s, r in zip(rounds, records[1:])]
        steps = weight_protocol(weights, levels, used, op._norm_bound)
        for k, (record, (_, p_round, energy)) in enumerate(zip(records, steps)):
            assert record.p_round == pytest.approx(p_round, abs=P_ROUND_TOL), (checked, k)
            assert record.expectations["H"] == pytest.approx(energy, abs=ENERGY_TOL), (checked, k)
            if k and rounds[k - 1].energy_override is None:
                estimate = steps[k - 1][2]
                assert record.energy_used == pytest.approx(estimate, abs=ENERGY_TOL), (checked, k)
        checked += 1
    # the draws that abort are skipped, but they are a minority
    assert aborted < checked


def _reaching_protocol(target, levels):
    """Rounds that damp every level but ``target`` (and its aliases).

    A zero target: full mode at E = 2|e| keeps e at angle pi, so it
    removes level e and keeps zero. A nonzero target: quarter mode at
    E = target / (1 + 4 n) keeps the target for every integer n and moves
    a level at e by 2 pi n e / target, so a sweep of n up to the widest
    level over the narrowest gap damps every level whose ratio to the
    target is not 1 modulo 4.
    """
    distinct = [float(levels[block][0]) for block in group_slices(levels)]
    if abs(target) < 1e-9:
        return tuple(RoundSpec(TauMode.FULL, 2.0 * abs(e)) for e in distinct if abs(e) > 1e-9)
    gap = min(b - a for a, b in zip(distinct, distinct[1:]))
    reach = math.ceil(max(map(abs, distinct)) / gap) + 1
    return tuple(
        RoundSpec(TauMode.QUARTER, target / (1 + 4 * n), 4) for n in range(-reach, reach + 1)
    )


def _final_weight(n_qubits, coupling, target, block_projector):
    levels = closed_form_spectrum(n_qubits, coupling).eigenvalues
    # a random state has weight on every level
    initial = random_state(np.random.default_rng(n_qubits), n_qubits)
    rounds = _reaching_protocol(target, levels)
    records = run_protocol(initial, schwinger_hamiltonian(n_qubits, coupling), TwirlConfig(rounds))
    amplitudes = records[-1].state.amplitudes
    return float(np.vdot(amplitudes, block_projector @ amplitudes).real)


# No two levels of these chains at these couplings stand in a ratio that
# is an integer 1 modulo 4, which no quarter or full filter tells apart
# (see the next test).
@pytest.mark.parametrize("coupling", [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0])
@pytest.mark.parametrize("n_qubits", [1, 2, 3])
def test_every_level_group_is_reached(n_qubits, coupling):
    closed = closed_form_spectrum(n_qubits, coupling)
    # degenerate levels pass every filter alike, so the claim is on each group
    for block in group_slices(closed.eigenvalues):
        target = float(closed.eigenvalues[block][0])
        weight = _final_weight(n_qubits, coupling, target, projector(closed.eigenvectors, block))
        assert weight >= 0.999, (target, weight)


def test_levels_in_ratio_minus_three_pass_together():
    # on three qubits at J = 0.25 the levels 0.5 and -1.5 stand in ratio
    # -3: every filter that keeps one keeps the other, so only the pair is
    # reached
    closed = closed_form_spectrum(3, 0.25)
    levels = closed.eigenvalues
    blocks = {round(float(levels[block][0]), 9): block for block in group_slices(levels)}
    alone = projector(closed.eigenvectors, blocks[0.5])
    pair = alone + projector(closed.eigenvectors, blocks[-1.5])
    assert _final_weight(3, 0.25, 0.5, alone) < 0.9
    assert _final_weight(3, 0.25, 0.5, pair) >= 0.999
