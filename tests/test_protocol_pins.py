"""Pins of every record field and every abort ``run_protocol`` gives on a seeded set of protocols.

``golden/protocol_records.json`` maps each case name to the records the
protocol returned (each field, floats exactly) or to the class and
message of the abort it raised. The cases cover the exact and split-step
backends, shot emulation with and without sampled energy estimates,
energy overrides, post-selection extinction, shot extinction and zero
energy estimates.

Regenerate it only for a deliberate change of output:

    PYTHONPATH=src python tests/test_protocol_pins.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from oracles import random_pauli_sum
from twirlsim import (
    Backend,
    PostSelectionError,
    RoundSpec,
    TauMode,
    TwirlConfig,
    ZeroEnergyError,
    run_protocol,
    schwinger_hamiltonian,
)

GOLDEN = Path(__file__).parent / "golden" / "protocol_records.json"
# the record fields, in declaration order
FIELDS = (
    "round_index",
    "energy_used",
    "tau",
    "prefactor",
    "p_round",
    "p_cumulative",
    "expectations",
    "active_count",
)


def _random_case(seed):
    """One protocol drawn from ``seed``: a 1-3 qubit sum, 1-4 rounds of
    mixed modes with some overrides (a few of them zero), either backend,
    and shots with or without a sampled energy estimate on half of them."""
    rng = np.random.default_rng(seed)
    n_qubits = int(rng.integers(1, 4))
    op = random_pauli_sum(rng, n_qubits, 5)
    rounds = []
    for _ in range(int(rng.integers(1, 5))):
        override = None
        if rng.random() < 0.4:
            override = 0.0 if rng.random() < 0.15 else float(rng.normal())
        mode = TauMode.QUARTER if rng.random() < 0.6 else TauMode.FULL
        rounds.append(RoundSpec(mode, override, int(rng.integers(1, 4))))
    backend = Backend() if rng.random() < 0.6 else Backend(int(rng.integers(1, 9)))
    shots = None if rng.random() < 0.5 else int(rng.choice([3, 10, 100, 10**4]))
    names = ["H"] + [f"Z{k}" for k in range(n_qubits)]
    picked = [name for name in names if rng.random() < 0.6] or [names[-1]]
    config = TwirlConfig(
        rounds=tuple(rounds),
        backend=backend,
        shots=shots,
        seed=int(rng.integers(0, 100)),
        observables=tuple(picked),
        noisy_energy=shots is not None and rng.random() < 0.5,
    )
    initial = "".join(rng.choice(["0", "1"], n_qubits))
    return initial, op, config


def _named_cases():
    """Protocols that reach each abort kind, and each backend under shots, by construction."""
    one = schwinger_hamiltonian(1, 1.0)
    three = schwinger_hamiltonian(3, 1.3)
    quarter = RoundSpec(TauMode.QUARTER)
    return {
        # sampled feedback loses every run in round 2
        "no-active-runs": (
            "0",
            one,
            TwirlConfig((quarter,) * 4, shots=4, seed=7, noisy_energy=True),
        ),
        # E=2 gives tau = pi on the J=0 chain, which sends |0> to minus itself
        "extinction": (
            "0",
            schwinger_hamiltonian(1, 0.0),
            TwirlConfig((RoundSpec(TauMode.FULL, energy_override=2.0),)),
        ),
        "zero-estimate": ("010", schwinger_hamiltonian(3, 1.0), TwirlConfig((quarter,))),
        "zero-override": (
            "0",
            one,
            TwirlConfig((quarter, RoundSpec(TauMode.FULL, energy_override=0.0), quarter)),
        ),
        "trotter-shots-noisy": (
            "100",
            three,
            TwirlConfig(
                (RoundSpec(TauMode.QUARTER, ancillas=2), RoundSpec(TauMode.FULL, 2.2), quarter),
                backend=Backend(6),
                shots=10**5,
                seed=11,
                observables=("H", "Z0", "Zbar"),
                noisy_energy=True,
            ),
        ),
        "exact-shots-overrides": (
            "001",
            three,
            TwirlConfig(
                (RoundSpec(TauMode.FULL, -0.9, 3), quarter, RoundSpec(TauMode.QUARTER, 1.1)),
                shots=500,
                seed=2,
                observables=("Zbar", "H"),
            ),
        ),
    }


def _cases():
    cases = {f"random-{seed:03d}": _random_case(seed) for seed in range(90)}
    cases.update(_named_cases())
    return cases


CASES = _cases()


def _pin(initial, op, config):
    """The records as JSON-ready values, or the abort's class and message."""
    try:
        records = run_protocol(initial, op, config)
    except (PostSelectionError, ZeroEnergyError) as exc:
        return {"abort": [type(exc).__name__, str(exc)]}
    pinned = []
    for record in records:
        values = {name: getattr(record, name) for name in FIELDS}
        if values["prefactor"] is not None:
            values["prefactor"] = [values["prefactor"].real, values["prefactor"].imag]
        pinned.append(values)
    return {"records": pinned}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_protocol_matches_its_pin(name, golden):
    # a JSON round trip keeps every float's bits
    assert _pin(*CASES[name]) == golden[name]


def test_pins_cover_every_abort_and_route(golden):
    aborts = [pin["abort"] for pin in golden.values() if "abort" in pin]
    assert any(kind == "ZeroEnergyError" and "energy estimate is zero" in m for kind, m in aborts)
    assert any(kind == "PostSelectionError" and "collapsed" in m for kind, m in aborts)
    assert any(kind == "PostSelectionError" and "no active runs left" in m for kind, m in aborts)
    configs = [CASES[name][2] for name, pin in golden.items() if "records" in pin]
    assert any(c.shots is None and c.backend.steps is None for c in configs)
    assert any(c.shots is None and c.backend.steps is not None for c in configs)
    assert any(c.noisy_energy and c.backend.steps is not None for c in configs)
    assert any(c.shots is not None and not c.noisy_energy for c in configs)
    overridden = [c for c in configs if any(s.energy_override is not None for s in c.rounds)]
    assert any(c.shots is None for c in overridden) and any(c.noisy_energy for c in overridden)
    assert sorted(golden) == sorted(CASES)


if __name__ == "__main__":
    pinned = {name: _pin(*case) for name, case in CASES.items()}
    previous = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    for key in sorted(pinned.keys() | previous.keys()):
        if pinned.get(key) != previous.get(key):
            print(f"re-pinned: {key}")
    GOLDEN.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")
