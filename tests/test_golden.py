"""Byte-for-byte pins of the CLI output.

``golden/cli.json`` maps each argv (joined with spaces) to the exit code,
stdout and stderr that ``main`` produced for it. It covers every bundled
scenario in each format, with and without ``--no-check``, the override
flags, ``spectrum`` and ``trotter-scan`` in each format, ``batch`` and the
error paths that do not depend on a temporary directory.

Regenerate it only for a deliberate change of output:

    PYTHONPATH=src python tests/test_golden.py

The regenerator prints the argv of every entry it adds, changes or
drops, so the scope of a re-pin is visible.
"""

import json
from pathlib import Path

import pytest

from twirlsim.cli import main
from twirlsim.manifest import bundled_names

GOLDEN = Path(__file__).parent / "golden" / "cli.json"
FORMATS = ("text", "csv", "json")

ARGVS = (
    [["run", "--config", name, "--format", fmt] for name in bundled_names() for fmt in FORMATS]
    + [
        ["run", "--config", name, "--format", fmt, "--no-check"]
        for name in bundled_names()
        for fmt in ("text", "json")
    ]
    + [
        ["run", "--config", "table-12", "--backend", "trotter:16"],
        ["run", "--config", "table-12", "--backend", "trotter:16", "--format", "json"],
        ["run", "--config", "table-01-ket0", "--shots", "1000", "--seed", "3"],
        ["run", "--config", "table-04", "--shots", "1000", "--seed", "3", "--format", "csv"],
        ["run", "--config", "table-05", "--shots", "none", "--format", "json"],
        ["run", "--config", "table-13", "--prepare", "adiabatic:T=5,steps=50"],
        ["run", "--config", "table-13", "--prepare", "none"],
        ["run", "--config", "table-13", "--prepare", "none", "--format", "json"],
        ["run", "--config", "table-04", "--prepare", "sudden"],
        ["run", "--config", "table-99"],
    ]
    + [
        [command, "--qubits", str(qubits), "--j", "1", "--format", fmt]
        for command in ("spectrum", "trotter-scan")
        for qubits in (1, 2, 3)
        for fmt in FORMATS
    ]
    + [
        ["spectrum", "--qubits", "2", "--j", "0.5"],
        ["trotter-scan", "--qubits", "2", "--j", "2", "--tau", "0.7", "--steps", "4,8"],
        ["trotter-scan", "--qubits", "1", "--j", "1", "--steps", "0,8"],
        ["batch", "--bundled"],
        ["batch", "--bundled", "--shots", "1000", "--seed", "3"],
        ["batch", "--bundled", "--prepare", "none"],
        ["batch"],
    ]
)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_cli_output_matches_golden(argv, golden, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    actual = {"code": code, "stdout": captured.out, "stderr": captured.err}
    assert actual == golden[" ".join(argv)]


if __name__ == "__main__":
    import contextlib
    import io

    pinned = {}
    for argv in ARGVS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        pinned[" ".join(argv)] = {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    previous = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    for key in sorted(pinned.keys() | previous.keys()):
        if pinned.get(key) != previous.get(key):
            print(f"re-pinned: {key}")
    GOLDEN.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")
