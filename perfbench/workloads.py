"""Seeded inputs for the twirlsim benchmark.

Every workload draws its scenarios from a fixed pool whose reference
outputs were recorded once (see ``record.py``). The run seed picks the
order, and for the chain workloads also which pool entries a run
reaches before its time is up. The held-out seed switches to a second
pool drawn from different generator seeds, so a claim tuned on the
usual seeds can be re-checked on inputs it has never seen.

This module imports nothing from twirlsim: the program only ever sees
the manifest files written here.
"""

from __future__ import annotations

import json
import os
import random

WORKLOADS = ("bundled", "chain-exact", "chain-trotter", "shots")
HELDOUT_SEED = 7919

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

# chain-exact register sizes by position within each chunk of 20: mostly
# 9 qubits (dense dimension 512), one 10-qubit and two 8-qubit chains.
# Every chunk has the same mix, so runs that complete more or fewer
# chunks still measure the same workload.
EXACT_PATTERN = tuple(10 if i == 0 else 8 if i in (5, 15) else 9 for i in range(20))
EXACT_CYCLES = 6  # the pool holds six chunks' worth
TROTTER_POOL = 128
TROTTER_QUBITS = 8
SHOTS_POOL = 1024

# Scenarios run in chunks, one fresh child interpreter per chunk. A
# chunk never spans two cycles (passes over the pool), so no scenario
# repeats inside an interpreter and the eigensystem cache only helps
# where scenarios really share an operator. bundled runs one pass of the
# 15 scenarios per interpreter, like ``batch --bundled``.
CHUNK = {"bundled": 15, "chain-exact": len(EXACT_PATTERN), "chain-trotter": 8, "shots": SHOTS_POOL}

# The traced run always covers the same chunks, so its counts repeat exactly.
TRACE_CHUNKS = {"bundled": 3, "chain-exact": 1, "chain-trotter": 3, "shots": 1}


def pool_name(seed: int) -> str:
    return "heldout" if seed == HELDOUT_SEED else "main"


def reference_path(workload: str, pool: str) -> str:
    name = workload if workload == "bundled" else f"{workload}-{pool}"
    return os.path.join(REFERENCE_DIR, f"{name}.json")


def _chain(rng: random.Random, name: str, n_qubits: int, backend: str) -> dict:
    """XX+YY hopping with a staggered random Z field, at half filling."""
    terms = []
    for q in range(n_qubits - 1):
        hop = rng.uniform(0.5, 1.0)
        for axis in "XY":
            axes = ["I"] * n_qubits
            axes[q] = axes[q + 1] = axis
            terms.append({"coeff": hop, "axes": "".join(axes)})
    for q in range(n_qubits):
        axes = ["I"] * n_qubits
        axes[q] = "Z"
        sign = 1.0 if q % 2 == 0 else -1.0
        terms.append({"coeff": sign * rng.uniform(0.5, 1.5), "axes": "".join(axes)})
    ones = set(rng.sample(range(n_qubits), n_qubits // 2))
    return {
        "name": name,
        "hamiltonian": {"n_qubits": n_qubits, "terms": terms},
        "initial": "".join("1" if q in ones else "0" for q in range(n_qubits)),
        "rounds": [{"mode": "quarter", "ancillas": 4}] * 4,
        "backend": backend,
        "observables": ["H", "Z0"],
    }


def _shots(rng: random.Random, name: str) -> dict:
    n_qubits = rng.choice((1, 2, 3))
    return {
        "name": name,
        "hamiltonian": {"name": f"schwinger-{n_qubits}q", "J": rng.uniform(0.0, 4.0)},
        "initial": "".join(rng.choice("01") for _ in range(n_qubits)),
        "rounds": [{"mode": "quarter", "ancillas": rng.randint(1, 2)}] * 4,
        "shots": int(round(10.0 ** rng.uniform(2.0, 6.0))),
        "seed": rng.randrange(2**31),
        # every single-qubit Z (and Zbar) keeps the binomial sampler busy
        "observables": ["H"] + [f"Z{q}" for q in range(n_qubits)] + ["Zbar"] * (n_qubits == 3),
        "noisy_energy": rng.random() < 0.5,
    }


def pool(workload: str, pool_id: str) -> dict[str, dict]:
    """Generated manifests of one pool, by scenario id (bundled: empty)."""
    if workload == "bundled":
        return {}
    out: dict[str, dict] = {}
    if workload == "chain-exact":
        counts: dict[int, int] = {}
        for size in EXACT_PATTERN * EXACT_CYCLES:
            counts[size] = counts.get(size, 0) + 1
        for size in sorted(counts):
            for i in range(counts[size]):
                sid = f"exact-{pool_id}-{size}q-{i:03d}"
                out[sid] = _chain(random.Random(sid), sid, size, "exact")
    elif workload == "chain-trotter":
        for i in range(TROTTER_POOL):
            sid = f"trotter-{pool_id}-{i:03d}"
            out[sid] = _chain(random.Random(sid), sid, TROTTER_QUBITS, "trotter:16")
    elif workload == "shots":
        for i in range(SHOTS_POOL):
            sid = f"shots-{pool_id}-{i:04d}"
            out[sid] = _shots(random.Random(sid), sid)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


def qubits(sid: str) -> int:
    """Register size of a chain-exact scenario id such as exact-main-9q-017."""
    return int(sid.rsplit("-", 2)[1][:-1])


def _cycle(workload: str, ids: list[str], seed: int, cycle: int) -> list[str]:
    """One pass over the pool in seeded order.

    chain-exact keeps register sizes at fixed positions so every seed
    sees the same size mix; the seed only picks which chains fill them.
    """
    rng = random.Random(f"{workload}:{seed}:{cycle}")
    if workload != "chain-exact":
        order = sorted(ids)
        rng.shuffle(order)
        return order
    by_size: dict[int, list[str]] = {}
    for sid in sorted(ids):
        by_size.setdefault(qubits(sid), []).append(sid)
    for group in by_size.values():
        rng.shuffle(group)
    return [by_size[size].pop() for size in EXACT_PATTERN * EXACT_CYCLES]


def chunk(workload: str, ids: list[str], seed: int, index: int) -> list[str]:
    """Scenario ids of chunk ``index`` of a run; ``ids`` is the whole pool."""
    size = CHUNK[workload]
    per_cycle = len(ids) // size
    if per_cycle * size != len(ids):
        raise ValueError(f"{workload}: pool of {len(ids)} is not whole chunks of {size}")
    start = (index % per_cycle) * size
    return _cycle(workload, ids, seed, index // per_cycle)[start : start + size]


def write_inputs(workload: str, pool_id: str, directory: str) -> dict[str, str]:
    """Write a pool's manifests as files; returns id -> path."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for sid, manifest in pool(workload, pool_id).items():
        path = os.path.join(directory, f"{sid}.json")
        text = json.dumps(manifest, indent=1)
        # concurrent runs write the same bytes; replace atomically
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
        paths[sid] = path
    return paths
