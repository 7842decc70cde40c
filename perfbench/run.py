"""twirlsim benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout that holds ``src/twirlsim``. Each run
is a closed loop with one client: scenarios run one at a time, in child
interpreters (``child.py``) pinned to one BLAS/OpenMP thread, and every
output is checked against the recorded reference. Generated inputs,
per-run results and traced spans go to ``.perfbench-out/``.

``--trace 0`` runs chunks of scenarios, one fresh child interpreter per
chunk, and cold CLI subprocesses for ``--seconds`` and reports the
end-to-end metrics. ``--trace 1`` runs a fixed set of chunks
(``workloads.TRACE_CHUNKS``) once untraced and once traced with
wrappers around twirlsim's public functions, and reports per-layer
metrics. The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import child as checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
SETUP_SAMPLES = 5  # set-up is measured in at least this many fresh children
COLD_RUNS = 11
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("TWIRL_")}
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = SRC
    return env


def run_child(args, chunk: int, trace: int = 0) -> dict:
    """One fresh interpreter running chunk ``chunk`` (-1: set-up only)."""
    out = os.path.join(OUT, "runs", f"{args.tag}-chunk{chunk}-trace{trace}.json")
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--chunk", str(chunk),
        "--src", SRC, "--inputs", args.inputs, "--trace", str(trace), "--out", out,
    ]
    if trace:
        cmd += ["--spans", out[: -len(".json")] + "-spans.tsv"]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise BenchError(f"chunk {chunk} exited with {proc.returncode}:\n{proc.stderr}")
    with open(out, encoding="utf-8") as handle:
        result = json.load(handle)
    os.remove(out)
    return result


def cold_commands(args, reference: dict, ids: list[str]) -> list[tuple[list[str], str | None]]:
    """Cold ``python -m twirlsim`` invocations with default flags."""
    if args.workload == "bundled":
        return [(["batch", "--bundled"], None)] * COLD_RUNS
    order = [sid for k in range(2) for sid in workloads.chunk(args.workload, ids, args.seed, k)]
    if args.workload == "shots":
        # shot scenarios that abort exit with an error; time completed ones
        order = [s for s in order if reference["outputs"][s][0] == "ok"]
    elif args.workload == "chain-exact":
        # leave out the one 10-qubit chain per chunk; time the common sizes
        order = [s for s in order if workloads.qubits(s) != 10]
    return [
        (["run", "--config", os.path.join(args.inputs, f"{sid}.json"), "--format", "json"], sid)
        for sid in order[:COLD_RUNS]
    ]


def cold_cli(args, reference: dict, argv: list[str], sid: str | None) -> tuple[float, list, str | None]:
    """Time one cold CLI subprocess between two probes and check its output."""
    before = checks.probe()
    begin = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "twirlsim", *argv],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    elapsed = time.perf_counter() - begin
    probes = [before, checks.probe()]
    label = "cold " + " ".join(argv)
    if proc.returncode != 0:
        return elapsed, probes, f"{label}: exit code {proc.returncode}"
    if sid is None:
        ok = proc.stdout == reference["batch_stdout"]
        return elapsed, probes, None if ok else f"{label}: output differs from the recorded output"
    summary = checks.shots_summary if args.workload == "shots" else checks.chain_summary
    reason = checks.mismatch(args.workload, reference["outputs"][sid], summary(proc.stdout))
    return elapsed, probes, None if reason is None else f"{label}: {reason}"


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, capped at p99.

    Returns (value, percentile). The cap matters only beyond 1000 samples,
    where the top ten would be host hiccups rather than slow scenarios.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    rank = min(n - 10, (99 * n + 99) // 100)  # nearest rank of the percentile
    return ordered[rank - 1], 100.0 * rank / n


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def scaled(results: list[dict]) -> list[float]:
    """Scenario times at the reference probe speed (see child.py)."""
    return [
        t * checks.PROBE_REF_S / speed
        for r in results
        for t, speed in zip(r["times"], r["speeds"])
    ]


def measure(args, reference: dict, ids: list[str]) -> tuple[dict, dict, list, int]:
    """Untraced run: end-to-end metrics.

    Chunks run back to back until ``--seconds`` have passed. The cold CLI
    runs are spread evenly over the same interval, so that every metric
    samples the whole run rather than one stretch of it.
    """
    results, cold, failures = [], [], []
    commands = cold_commands(args, reference, ids)
    begin = time.perf_counter()
    while time.perf_counter() - begin < args.seconds or len(cold) < len(commands) or not results:
        due = len(cold) * args.seconds / len(commands)
        if len(cold) < len(commands) and time.perf_counter() - begin >= due:
            elapsed, probes, failure = cold_cli(args, reference, *commands[len(cold)])
            cold.append((elapsed, probes))
            failures += [failure] if failure else []
        elif time.perf_counter() - begin < args.seconds or not results:
            results.append(run_child(args, len(results)))
    setup_runs = list(results)
    while len(setup_runs) < SETUP_SAMPLES:
        setup_runs.append(run_child(args, -1))
    ref = checks.PROBE_REF_S
    times = scaled(results)
    setups = [r["setup_s"] * ref / r["setup_speed"] for r in setup_runs]
    cold_times = [elapsed * ref * 2 / sum(probes) for elapsed, probes in cold]
    tail_s, tail_pct = tail(times)
    failures += [f for r in results for f in r["failures"]]
    attempted = len(times) + len(cold)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "scenario_p50_s": (statistics.median(times), "s"),
        "scenario_tail_s": (tail_s, "s"),
        "scenarios_per_s": (len(times) / sum(times), "1/s"),
        "cold_cli_s": (statistics.median(cold_times), "s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in results), "MB"),
    }
    raw = [t for r in results for t in r["times"]]
    info = {
        "scenarios": len(times),
        "chunks": len(results),
        "setup_samples": len(setups),
        "cold_runs": len(cold),
        "tail_percentile": tail_pct,
        "failed_frac": len(failures) / attempted,
        "probe_fastest_ms": min(r["probe_min"] for r in setup_runs) * 1e3,
        "probe_median_ms": statistics.median(s for r in results for s in r["speeds"]) * 1e3,
        "unscaled": {
            "setup_s": statistics.median(r["setup_s"] for r in setup_runs),
            "scenario_p50_s": statistics.median(raw),
            "scenarios_per_s": len(raw) / sum(raw),
            "cold_cli_s": statistics.median(elapsed for elapsed, _ in cold),
        },
    }
    return metrics, info, failures, attempted


def measure_traced(args) -> tuple[dict, dict, list, int]:
    """Traced run: fixed chunks, each once untraced and once traced."""
    import tracing

    plain, traced = [], []
    for chunk in range(workloads.TRACE_CHUNKS[args.workload]):
        plain.append(run_child(args, chunk))
        traced.append(run_child(args, chunk, trace=1))
    summary = {"inclusive_s": {}, "self_s": {}, "counts": {}}
    for result in traced:
        for part in summary:
            for key, value in result["trace"][part].items():
                summary[part][key] = summary[part].get(key, 0) + value
    summary["installed"] = traced[0]["trace"]["installed"]
    summary["missing"] = traced[0]["trace"]["missing"]
    outcomes = {k: sum(r["outcomes"][k] for r in traced) for k in ("shots", "kept", "aborts")}
    overhead = sum(scaled(traced)) / sum(scaled(plain)) - 1.0
    metrics = tracing.layer_metrics(summary, outcomes, overhead)
    both = plain + traced
    attempted = sum(len(r["times"]) for r in both)
    failures = [f for r in both for f in r["failures"]]
    info = {
        "scenarios": attempted,
        "chunks": len(both),
        "missing_layers": summary["missing"],
        "failed_frac": len(failures) / attempted,
        "spans": os.path.join(OUT, "runs", f"{args.tag}-chunk*-trace1-spans.tsv"),
    }
    return metrics, info, failures, attempted


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "twirlsim", "__init__.py")):
        sys.stderr.write(f"no twirlsim sources under {SRC}; run from a twirlsim checkout\n")
        return 2
    pool = workloads.pool_name(args.seed)
    with open(workloads.reference_path(args.workload, pool), encoding="utf-8") as handle:
        reference = json.load(handle)
    ids = list(reference["outputs"])
    args.tag = f"{args.workload}-seed{args.seed}-{os.getpid()}"
    args.inputs = os.path.join(OUT, "inputs", f"{args.workload}-{pool}")
    os.makedirs(os.path.join(OUT, "runs"), exist_ok=True)
    workloads.write_inputs(args.workload, pool, args.inputs)

    try:
        # warm-up: byte-compiles the sources and fills the file cache
        env = run_child(args, -1)["env"]
        if args.trace:
            metrics, info, failures, attempted = measure_traced(args)
        else:
            metrics, info, failures, attempted = measure(args, reference, ids)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    env["git_commit"] = git_commit()
    env["pool"] = pool
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": env, "info": info, "failures": failures[:20],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(os.path.join(OUT, "runs", f"{args.tag}-trace{args.trace}.json"), "w") as handle:
        json.dump(record, handle, indent=1)

    for failure in failures[:5]:
        sys.stderr.write(f"FAILED {failure}\n")
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"run: {json.dumps(info, sort_keys=True)}")
    lines = dict(metrics)
    lines["failed_frac"] = (info["failed_frac"], "ratio")
    for name, (value, unit) in lines.items():
        print(f"{args.workload:<14} {name:<28} {value:>14.6g} {unit}")
    if not args.trace:
        print(f"{args.workload:<14} scenario_tail_s is p{info['tail_percentile']:.2f} "
              f"of {info['scenarios']} scenarios")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
