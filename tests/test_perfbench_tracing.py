"""The benchmark's tracer still finds and reads every function it wraps.

``perfbench/tracing.py`` wraps engine functions by name and reads some of
their parameters (``op``, ``steps``, ``schedule``, ``ancillas``, ``ops``).
A rename there drops a layer's metrics without an error, so this runs the
traced CLI in a fresh interpreter, where the wrappers cannot leak into
other tests, and checks that no layer went missing.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

RUNS = [
    ["run", "--config", "table-13"],
    ["run", "--config", "table-12", "--backend", "trotter:16"],
    ["run", "--config", "table-01-ket0", "--shots", "1000", "--seed", "3"],
    ["spectrum", "--qubits", "2", "--j", "1"],
]

SCRIPT = """
import contextlib, io, json, sys
import twirlsim.cli
import tracing

tracer = tracing.Tracer()
tracer.install()
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(twirlsim.cli.main(argv))
names = [span[0] for span in tracing.SPANS] + [count[0] for count in tracing.COUNTS]
print(json.dumps({"codes": codes, "names": names, "summary": tracer.summary()}))
"""


def test_tracer_keeps_every_layer():
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]),
        PYTHONDONTWRITEBYTECODE="1",
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(RUNS)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    summary = report["summary"]
    # the shot-noise run may miss its targets (exit 1); nothing may fail outright
    assert set(report["codes"]) <= {0, 1}
    assert summary["missing"] == []
    assert sorted(set(report["names"]) - set(summary["installed"])) == []
    # every span ran, so each counter read its parameters at least once
    spans = {name for name in report["names"] if "." in name} - set(summary["counts"])
    assert sorted(spans - set(summary["inclusive_s"])) == []
