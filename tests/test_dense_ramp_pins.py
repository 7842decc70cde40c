"""Byte pins of the dense matrices and ramped states built from compiled Pauli strings.

``golden/dense_ramp_bytes.json`` holds the sha256 of the bytes
``dense_matrix`` returns for each operator of ``_dense_cases``, and of
the amplitudes ``adiabatic_prepare`` returns for each ramp of
``_ramp_cases`` on the exact backend and on ``trotter:4``. The sign of
every exact zero is part of the bytes, which a value comparison cannot
show. Regenerate it only for a deliberate change of output:

    PYTHONPATH=src python tests/test_dense_ramp_pins.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from oracles import random_pauli_sum, random_state
from test_pauli import _random_operator
from twirlsim import AdiabaticSchedule, Backend, adiabatic_prepare, dense_matrix

GOLDEN = Path(__file__).parent / "golden" / "dense_ramp_bytes.json"
BACKENDS = {"exact": Backend(), "trotter:4": Backend(4)}


def _dense_cases(rng):
    """Three operators of 1 to 40 random terms on each register of 1 to 10 qubits."""
    return [
        _random_operator(rng, n_qubits, int(rng.integers(1, 41)))
        for n_qubits in range(1, 11)
        for _ in range(3)
    ]


def _ramp_cases(rng):
    """(initial, start, target, schedule): ten random ramps on each register of 1 to 4 qubits."""
    cases = []
    for n_qubits in range(1, 5):
        for _ in range(10):
            start = random_pauli_sum(rng, n_qubits, 6)
            target = random_pauli_sum(rng, n_qubits, 6)
            schedule = AdiabaticSchedule(float(rng.uniform(0.1, 5.0)), int(rng.integers(1, 60)))
            cases.append((random_state(rng, n_qubits), start, target, schedule))
    return cases


def _digest(array):
    return hashlib.sha256(array.tobytes()).hexdigest()


def _digests():
    ops = _dense_cases(np.random.default_rng(34))
    pins = {"dense_matrix": [_digest(dense_matrix(op)) for op in ops]}
    cases = _ramp_cases(np.random.default_rng(340))
    for name, backend in BACKENDS.items():
        pins[f"adiabatic {name}"] = [
            _digest(adiabatic_prepare(*case, backend=backend).amplitudes) for case in cases
        ]
    return pins


def test_dense_and_ramp_bytes_match_their_pins():
    assert _digests() == json.loads(GOLDEN.read_text(encoding="utf-8"))


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_digests(), indent=1) + "\n", encoding="utf-8")
