"""Tests for the package's public namespace and its import graph."""

import os
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import twirlsim

# Registers the package without running its __init__, so the named module
# is the first of the package to import.
_IMPORT_FIRST = """
import importlib, importlib.util, sys
sys.modules["twirlsim"] = importlib.util.module_from_spec(importlib.util.find_spec("twirlsim"))
importlib.import_module(sys.argv[1])
assert "twirlsim.twirl" not in sys.modules, "imported the protocol layer"
"""


def test_every_export_resolves_once():
    names = twirlsim.__all__
    assert len(set(names)) == len(names) == 38
    assert [name for name in names if not hasattr(twirlsim, name)] == []
    # a term is a (coeff, axes) pair, with no class of its own
    assert not hasattr(twirlsim, "PauliTerm")
    # named_observable is the one builder of Z<k>, Z and Zbar
    for name in ("single_z", "observable_zbar"):
        assert not hasattr(twirlsim, name) and not hasattr(twirlsim.pauli, name)


@pytest.mark.parametrize("module", ["twirlsim.state", "twirlsim.pauli", "twirlsim.shots"])
def test_state_and_pauli_import_without_a_cycle(module):
    # state takes the count rule from pauli; pauli names StateVector only in
    # annotations; shots draws on both and twirl imports it, never the reverse
    result = subprocess.run(
        [sys.executable, "-c", _IMPORT_FIRST, module], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr


def test_readme_python_example_runs():
    repo = Path(__file__).resolve().parents[1]
    blocks = re.findall(r"^```python\n(.*?)^```$", (repo / "README.md").read_text(), re.S | re.M)
    assert len(blocks) == 1
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    result = subprocess.run(
        [sys.executable, "-c", blocks[0]], capture_output=True, text=True, timeout=60, env=env
    )
    assert (result.returncode, result.stderr) == (0, "")


def test_readme_entry_points_are_exported():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sentence = re.search(r"Other entry points:(.*?)\.(?:\s|$)", text, re.S).group(1)
    names = re.findall(r"`(\w+)`", sentence)
    assert len(names) >= 10
    assert [name for name in names if name not in twirlsim.__all__] == []


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    # from a working directory outside the repo, holding the files the examples name
    from twirlsim.cli import main

    repo = Path(__file__).resolve().parents[1]
    blocks = re.findall(r"^```sh\n(.*?)^```$", (repo / "README.md").read_text(), re.S | re.M)
    lines = [line for block in blocks for line in block.splitlines()]
    commands = [shlex.split(line) for line in lines if line.startswith("twirlsim ")]
    assert len(commands) == 7
    scenario = {
        "name": "my-scenario",
        "hamiltonian": {"name": "schwinger-2q", "J": 1.0},
        "initial": "01",
        "rounds": [{"mode": "quarter"}] * 2,
    }
    (tmp_path / "my-scenario.json").write_text(json.dumps(scenario), encoding="utf-8")
    (tmp_path / "scenarios").mkdir()
    (tmp_path / "scenarios" / "mine.json").write_text(json.dumps(scenario), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, argv
        assert capsys.readouterr().err == "", argv
    assert os.listdir("results") == ["my-scenario.json"]


_RULE_BASE = {
    "name": "rule",
    "hamiltonian": {"name": "schwinger-3q", "J": 1.0},
    "initial": "101",
    "rounds": [{"mode": "quarter"}],
}


def test_readme_input_rule_examples_are_refused_as_stated(capsys, tmp_path):
    from twirlsim.cli import main

    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = text.split("### Input rules\n", 1)[1].split("\n#", 1)[0]
    # the manifest base the README states is the one this test merges into
    assert f"`{json.dumps(_RULE_BASE)}`" in " ".join(table.split())
    cells = [
        [cell.strip() for cell in line.strip("|").split(" | ")]
        for line in table.splitlines()
        if line.startswith("| ")
    ]
    rows = [row for row in cells if row[0].startswith("`-")]
    fragments = [row for row in cells if row[2].startswith("`{")]
    assert len(rows) >= 15 and len(fragments) >= 11
    for _, _, fragment, message, code in fragments:
        path = tmp_path / "rule.json"
        path.write_text(json.dumps({**_RULE_BASE, **json.loads(fragment.strip("`"))}))
        got = main(["run", "--config", str(path)])
        out, err = capsys.readouterr()
        prefix = message.strip("`")
        assert (got, out, err.count("\n"), err[: len(prefix)]) == (int(code), "", 1, prefix)
    for flag, _, example, message, code in rows:
        argv = shlex.split(example.strip("`"))
        assert flag.strip("`") in argv
        if argv[0].startswith("-"):
            # an override flag: refused under run and batch alike
            runs = [("run", ["run", "--config", "table-13", *argv])]
            runs.append(("batch", ["batch", "--bundled", *argv]))
        else:
            runs = [(argv[0], argv)]
        for command, full in runs:
            try:
                got = main(full)
            except SystemExit as exc:  # the argument parser's refusal
                got = exc.code
            out, err = capsys.readouterr()
            prefix = message.strip("`").replace("twirlsim run:", f"twirlsim {command}:")
            assert (got, out, err.splitlines()[-1][: len(prefix)]) == (int(code), "", prefix)
