"""Record the reference outputs that every benchmark run is checked against.

Run once, from the root of a checkout, at the commit whose outputs are
the reference:

    python3 perfbench/record.py

It runs every pool scenario of every workload (both pools) in this
process and writes ``perfbench/reference/*.json``: the exact CLI JSON
bytes for ``bundled`` (plus the stdout of ``batch --bundled``), the
checked per-round values for the chains, and the active counts or the
abort for ``shots``.
"""

import json
import os
import subprocess
import sys

import child
import workloads
from run import OUT, ROOT, SRC, THREAD_ENV, git_commit

# pinned before numpy is first imported, as in the benchmark's children
os.environ.update(THREAD_ENV)
sys.path.insert(0, SRC)


def record(workload: str, pool_id: str, scratch: str) -> dict:
    import twirlsim as ts
    import twirlsim.cli

    data: dict = {"commit": git_commit(), "workload": workload, "pool": pool_id}
    outputs = {}
    if workload == "bundled":
        for name in ts.bundled_names():
            code, text = child.run_cli(twirlsim.cli, name)
            if code != 0:
                raise SystemExit(f"{name}: exit code {code}")
            outputs[name] = text
        batch = subprocess.run(
            [sys.executable, "-m", "twirlsim", "batch", "--bundled"],
            cwd=ROOT,
            env={**os.environ, "PYTHONPATH": SRC},
            capture_output=True,
            text=True,
            check=True,
        )
        data["batch_stdout"] = batch.stdout
    else:
        paths = workloads.write_inputs(workload, pool_id, scratch)
        for sid, path in paths.items():
            if workload == "shots":
                with open(path, encoding="utf-8") as handle:
                    outputs[sid] = child.run_shots(ts, json.load(handle))
            else:
                code, text = child.run_cli(twirlsim.cli, path)
                if code != 0:
                    raise SystemExit(f"{sid}: exit code {code}")
                outputs[sid] = child.chain_summary(text)
        data["tolerance"] = child.CHAIN_TOL if workload.startswith("chain") else 0
    data["outputs"] = outputs
    return data


def write(data: dict, path: str) -> None:
    """JSON with one output per line, so a re-recording diffs by scenario."""
    head = {k: v for k, v in data.items() if k != "outputs"}
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(head.items())]
    outputs = [
        f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(data["outputs"].items())
    ]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("{\n" + ",\n".join(lines) + ',\n"outputs": {\n' + ",\n".join(outputs) + "\n}}\n")


def main() -> int:
    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    scratch = os.path.join(OUT, "record")
    for workload in workloads.WORKLOADS:
        for pool_id in ("main",) if workload == "bundled" else ("main", "heldout"):
            data = record(workload, pool_id, os.path.join(scratch, f"{workload}-{pool_id}"))
            path = workloads.reference_path(workload, pool_id)
            write(data, path)
            print(f"{path}: {len(data['outputs'])} outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
