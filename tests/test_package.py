"""Tests for the package's public namespace and its import graph."""

import os
import re
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
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(twirlsim, name)] == []


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
