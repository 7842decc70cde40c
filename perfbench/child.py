"""One benchmark child interpreter: set up, run scenarios, check them.

Started by ``run.py`` with BLAS/OpenMP pinned to one thread and the
checkout's ``src`` first on ``PYTHONPATH``. Set-up time is the time to
import twirlsim in this fresh interpreter plus the time to load and
validate every manifest of the workload. The child then runs its chunk
of scenarios one at a time (a closed loop with one client), and compares
each output with the recorded reference outside the timed region.

Every measurement is paired with a probe: a fixed piece of pure-Python
work timed right before and after it. On a shared host the speed of the
machine can drop by half for tens of seconds when its neighbours get
busy; ``run.py`` scales each time by PROBE_REF_S / (mean of its two
probes), so the reported times are those of a machine on which the
probe takes PROBE_REF_S (about its uncontended time on a current x86-64
core), and run-to-run contention largely cancels.
"""

import time

PROBE_EVERY_S = 0.05  # probe at least this often between scenarios
PROBE_REF_S = 1.0e-3


def probe() -> float:
    """Seconds taken by a fixed piece of pure-Python work."""
    begin = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i
    return time.perf_counter() - begin


SETUP_PROBE = probe()
START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import workloads  # noqa: E402

CHAIN_TOL = 1e-8  # absolute, on energy_used, p_round, p_cumulative and expectations


def run_cli(cli, config: str) -> tuple[int, str]:
    """``twirlsim run --config <config> --format json``, in process."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(["run", "--config", config, "--format", "json"])
    return code, buffer.getvalue()


def run_shots(ts, manifest: dict) -> list:
    """One shot-noise scenario through ``run_protocol``; aborts are outcomes."""
    ham = manifest["hamiltonian"]
    config = ts.TwirlConfig(
        rounds=tuple(
            ts.RoundSpec(ts.TauMode(r["mode"]), ancillas=r["ancillas"]) for r in manifest["rounds"]
        ),
        shots=manifest["shots"],
        seed=manifest["seed"],
        observables=tuple(manifest["observables"]),
        noisy_energy=manifest["noisy_energy"],
    )
    op = ts.hamiltonian_by_name(ham["name"], ham["J"])
    try:
        records = ts.run_protocol(manifest["initial"], op, config)
    except (ts.PostSelectionError, ts.ZeroEnergyError) as exc:
        return [type(exc).__name__]
    return ["ok", [r.active_count for r in records]]


def chain_summary(text: str) -> list:
    """Per-round values of a chain scenario's CLI JSON that are checked."""
    return [
        [r["energy_used"], r["p_round"], r["p_cumulative"], r["expectations"]]
        for r in json.loads(text)["rounds"]
    ]


def shots_summary(text: str) -> list:
    """The CLI JSON of a completed shot scenario in ``run_shots`` form."""
    return ["ok", [r["active_count"] for r in json.loads(text)["rounds"]]]


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return abs(a - b) <= CHAIN_TOL


def mismatch(workload: str, reference, got) -> str | None:
    """Why ``got`` differs from the reference, or None when it matches."""
    if workload in ("bundled", "shots"):
        return None if got == reference else "differs from the recorded output"
    if len(got) != len(reference):
        return f"{len(got)} rounds, reference has {len(reference)}"
    for index, (row, ref) in enumerate(zip(got, reference)):
        if not all(_close(x, y) for x, y in zip(row[:3], ref[:3])):
            return f"round {index}: {row[:3]} vs {ref[:3]}"
        if row[3].keys() != ref[3].keys() or not all(
            _close(row[3][k], ref[3][k]) for k in ref[3]
        ):
            return f"round {index}: expectations {row[3]} vs {ref[3]}"
    return None


def environment(ts) -> dict:
    """Versions and thread settings the measurement ran under."""
    from importlib import metadata

    import numpy

    blas = "unknown"
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except Exception:  # older numpy has no dict mode; the record stays partial
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "jsonschema": metadata.version("jsonschema"),
        "blas": blas,
        "blas_threads": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": os.cpu_count(),
        "twirlsim": getattr(ts, "__version__", "unknown"),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--chunk", type=int, required=True, help="-1: set up only")
    parser.add_argument("--src", required=True)
    parser.add_argument("--inputs", help="directory of generated manifests")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans", help="file for the traced spans")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    import twirlsim as ts
    import twirlsim.cli

    import_s = time.perf_counter() - START
    if not os.path.abspath(ts.__file__).startswith(os.path.abspath(args.src) + os.sep):
        sys.stderr.write(f"twirlsim imported from {ts.__file__}, not from {args.src}\n")
        return 2
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    pool = workloads.pool_name(args.seed)
    with open(workloads.reference_path(args.workload, pool), encoding="utf-8") as handle:
        reference = json.load(handle)["outputs"]
    ids = list(reference)
    if args.workload == "bundled":
        configs = {sid: sid for sid in ids}
    else:
        configs = {sid: os.path.join(args.inputs, f"{sid}.json") for sid in ids}
    # set-up is the import above plus this loop; the harness's own reading is not timed
    begin = time.perf_counter()
    for sid in ids:
        ts.load_manifest(configs[sid])
    setup_s = import_s + time.perf_counter() - begin
    probes = [SETUP_PROBE, probe()]
    if args.workload == "bundled" and sorted(ts.bundled_names()) != sorted(ids):
        sys.stderr.write("bundled scenarios differ from the recorded reference\n")
        return 2
    manifests = {}
    if args.workload == "shots":
        for sid in ids:
            with open(configs[sid], encoding="utf-8") as handle:
                manifests[sid] = json.load(handle)
    order = [] if args.chunk < 0 else workloads.chunk(args.workload, ids, args.seed, args.chunk)

    def run_one(sid: str):
        """(seconds, output, failure) of one scenario; only the call is timed."""
        begin = time.perf_counter()
        try:
            if args.workload == "shots":
                got = run_shots(ts, manifests[sid])
            else:
                code, text = run_cli(twirlsim.cli, configs[sid])
        except Exception:  # one broken scenario is a failure, not the end of the run
            return time.perf_counter() - begin, None, traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - begin
        if args.workload == "shots":
            return elapsed, got, None
        if code != 0:
            return elapsed, None, f"exit code {code}"
        return elapsed, text if args.workload == "bundled" else chain_summary(text), None

    times, speeds, failures = [], [], []
    outcomes = {"shots": 0, "kept": 0, "aborts": 0}
    last_probe, last_at = probe(), time.perf_counter()
    probes.append(last_probe)

    def flush() -> None:
        nonlocal last_probe, last_at
        now = probe()
        probes.append(now)
        speeds.extend([(last_probe + now) / 2] * (len(times) - len(speeds)))
        last_probe, last_at = now, time.perf_counter()

    for sid in order:
        if tracer is not None:
            tracer.scenario = sid
        elapsed, got, failure = run_one(sid)
        times.append(elapsed)
        if failure is None:
            failure = mismatch(args.workload, reference[sid], got)
        if failure is not None:
            failures.append(f"{sid}: {failure}")
        elif args.workload == "shots":
            outcomes["shots"] += manifests[sid]["shots"]
            if got[0] == "ok":
                outcomes["kept"] += got[1][-1]
            else:
                outcomes["aborts"] += 1
        if time.perf_counter() - last_at >= PROBE_EVERY_S:
            flush()
    if len(speeds) < len(times):
        flush()

    result = {
        "setup_s": setup_s,
        "setup_speed": (probes[0] + probes[1]) / 2,
        "times": times,
        "speeds": speeds,
        "probe_min": min(probes),
        "failures": failures,
        "outcomes": outcomes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(ts),
        "trace": None if tracer is None else tracer.summary(),
    }
    if tracer is not None and args.spans:
        tracer.write(args.spans)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
