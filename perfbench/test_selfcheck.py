"""Self-checks of the benchmark harness.

    python -m pytest perfbench/test_selfcheck.py

Not part of the package test suite (``testpaths`` points at ``tests``):
the traced runs below take about a minute.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

REPEATED_COUNTS = (
    "trotter.rotations",
    "twirl.ancilla_steps",
    "twirl.shot_draws",
    "spectral.eigh_calls",
    "pauli.dense_builds",
    "state.constructions",
    "twirl.aborts",
)


def bench(root: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_for_one_seed(workload):
    runs = []
    for _ in range(2):
        proc = bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        runs.append(result["metrics"])
    for name in REPEATED_COUNTS:
        assert runs[0][name]["value"] == runs[1][name]["value"], name


def test_chunks_are_seeded_and_never_repeat_a_scenario():
    ids = list(workloads.pool("chain-exact", "main"))
    chunks = [workloads.chunk("chain-exact", ids, 5, k) for k in range(len(ids) // 20)]
    assert chunks[0] == workloads.chunk("chain-exact", ids, 5, 0)
    assert chunks[0] != workloads.chunk("chain-exact", ids, 6, 0)
    assert sorted(sid for c in chunks for sid in c) == sorted(ids)
    for c in chunks:
        assert [workloads.qubits(sid) for sid in c] == list(workloads.EXACT_PATTERN)


def test_tail_has_ten_samples_beyond_it():
    times = [float(i) for i in range(100)]
    value, percentile = run.tail(times)
    assert sum(t > value for t in times) == 10
    assert percentile == 90.0
    value, percentile = run.tail([float(i) for i in range(5000)])
    assert (value, percentile) == (4949.0, 99.0)


def test_missing_layer_is_absent_not_fatal():
    summary = {
        "installed": ["trotter.evolve"],
        "inclusive_s": {"trotter.evolve": 1.0},
        "self_s": {"trotter.evolve": 1.0},
        "counts": {"trotter.rotations": 64},
    }
    metrics = tracing.layer_metrics(summary, {"shots": 0, "kept": 0, "aborts": 0}, 0.1)
    assert metrics["trotter.rotations"] == (64, "count")
    assert "pauli.apply_calls" not in metrics


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench(str(tmp_path), "--workload", "shots", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_short_run_still_measures_every_metric():
    proc = bench(ROOT, "--workload", "bundled", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        names = [m["name"] for m in json.load(handle)["end_to_end"]]
    assert result["correct"] and sorted(result["metrics"]) == sorted(names)
