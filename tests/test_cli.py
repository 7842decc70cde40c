"""Tests for the command line front end."""

import json
import subprocess
import sys

import pytest

from twirlsim import __version__
from twirlsim.cli import main

VIOLATING = {
    "name": "doomed",
    "hamiltonian": {"name": "schwinger-1q", "J": 1.0},
    "initial": "0",
    "rounds": [{"mode": "quarter"}],
    "observables": ["H"],
    "expected": [{"observable": "H", "value": 99.0, "tol": 0.001}],
}


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_text(capsys):
    assert main(["spectrum", "--qubits", "3", "--j", "1"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "spectrum schwinger-3q  J=1"
    assert "-2.732051" in lines[2]
    # the first zero mode carries <Zbar> = 5/9
    assert "0.555556" in lines[4]
    assert "-0.000000" not in out
    deviation = float(lines[-1].split("=")[1])
    assert deviation < 1e-10


def test_spectrum_csv(capsys):
    assert main(["spectrum", "--qubits", "2", "--j", "1", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "index,energy,closed_form,Z0"
    assert len(lines) == 5
    assert lines[1].startswith("0,")


def test_spectrum_json_and_out_dir(tmp_path, capsys):
    assert main(["spectrum", "--qubits", "1", "--j", "2", "--format", "json"]) == 0
    streamed = capsys.readouterr().out
    payload = json.loads(streamed)
    assert payload["hamiltonian"] == {"name": "schwinger-1q", "J": 2.0}
    assert payload["levels"][0]["energy"] == pytest.approx(-(5.0**0.5))
    assert payload["tool_version"] == __version__
    out_dir = tmp_path / "reports"
    assert main(
        ["spectrum", "--qubits", "1", "--j", "2", "--format", "json", "--out", str(out_dir)]
    ) == 0
    written = (out_dir / "spectrum-schwinger-1q-J2.json").read_text(encoding="utf-8")
    assert written == streamed


# ---------------------------------------------------------------------------
# run


def test_run_bundled_scenario_passes(capsys):
    assert main(["run", "--config", "table-04"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("scenario table-04")
    assert "check <H> @ round 1:" in out
    assert "check <Zbar> @ round 1:" in out
    assert "all targets satisfied" in out


def test_run_violation_exits_one(tmp_path, capsys):
    path = _write(tmp_path, "doomed.json", VIOLATING)
    assert main(["run", "--config", path]) == 1
    out = capsys.readouterr().out
    assert "VIOLATED" in out
    assert "1 target(s) violated" in out


def test_run_violation_reports_on_stderr_for_json(tmp_path, capsys):
    path = _write(tmp_path, "doomed.json", VIOLATING)
    assert main(["run", "--config", path, "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["ok"] is False
    assert "wanted 99.000000" in captured.err


def test_run_no_check_ignores_targets(tmp_path, capsys):
    path = _write(tmp_path, "doomed.json", VIOLATING)
    assert main(["run", "--config", path, "--no-check"]) == 0
    assert "check" not in capsys.readouterr().out


def test_run_csv_shape(capsys):
    assert main(["run", "--config", "table-04", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "round,E_used,tau,p_round,p_cum,active_count,H,Zbar"
    assert len(lines) == 3


def test_run_json_reruns_are_identical(tmp_path):
    first = tmp_path / "a"
    second = tmp_path / "b"
    for out_dir in (first, second):
        assert main(
            ["run", "--config", "table-12", "--format", "json", "--out", str(out_dir)]
        ) == 0
    text_a = (first / "table-12.json").read_text(encoding="utf-8")
    text_b = (second / "table-12.json").read_text(encoding="utf-8")
    assert text_a == text_b
    payload = json.loads(text_a)
    assert payload["ok"] is True
    assert payload["rounds"][0]["mode"] is None
    assert payload["rounds"][1]["mode"] == "quarter"
    assert payload["rounds"][1]["prefactor"] == [0.0, 1.0]
    assert payload["rounds"][1]["p_round"] == pytest.approx(0.564614, abs=1e-6)


def test_run_with_shot_noise(capsys):
    code = main(
        ["run", "--config", "table-01-ket0", "--shots", "1000000", "--seed", "7"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "shots: 1000000  seed: 7" in out
    assert "active" in out
    assert "all targets satisfied" in out


def test_run_prepare_none_breaks_ramp_scenario(capsys):
    # dropping the ramp leaves round 0 far from the prepared energy
    assert main(["run", "--config", "table-13", "--prepare", "none"]) == 1
    assert "VIOLATED" in capsys.readouterr().out


def test_run_bad_prepare_flag(capsys):
    assert main(["run", "--config", "table-04", "--prepare", "sudden"]) == 2
    assert "config error" in capsys.readouterr().err


def test_run_unknown_scenario(capsys):
    assert main(["run", "--config", "table-99"]) == 2
    assert "bundled scenarios" in capsys.readouterr().err


def test_run_malformed_manifest(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{oops", encoding="utf-8")
    assert main(["run", "--config", str(path)]) == 2
    assert "config error in" in capsys.readouterr().err


def test_run_zero_energy_scenario(tmp_path, capsys):
    payload = {
        "name": "stuck",
        "hamiltonian": {"name": "schwinger-3q", "J": 1.0},
        "initial": "010",
        "rounds": [{"mode": "quarter"}],
    }
    path = _write(tmp_path, "stuck.json", payload)
    assert main(["run", "--config", path]) == 2
    assert "round 1: energy estimate is zero" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# trotter-scan


def test_trotter_scan_text(capsys):
    code = main(["trotter-scan", "--qubits", "3", "--j", "1", "--steps", "8,16,32"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("split-step error scan schwinger-3q")
    order = float(lines[-1].split(":")[1])
    assert 1.7 < order < 2.3


def test_trotter_scan_csv(capsys):
    code = main(
        ["trotter-scan", "--qubits", "1", "--j", "1", "--steps", "4,8", "--format", "csv"]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "steps,error"
    assert len(lines) == 3


def test_trotter_scan_rejects_bad_steps(capsys):
    assert main(["trotter-scan", "--qubits", "1", "--j", "1", "--steps", "0,8"]) == 2
    assert "config error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# batch


def test_batch_bundled_all_pass(capsys):
    assert main(["batch", "--bundled"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "15/15 scenario(s) passed"
    assert all(": ok" in line for line in lines[:-1])


def test_batch_directory_with_mixed_results(tmp_path, capsys):
    good = dict(VIOLATING, name="fine", expected=[])
    _write(tmp_path, "a-fine.json", good)
    _write(tmp_path, "b-doomed.json", VIOLATING)
    (tmp_path / "c-broken.json").write_text("{oops", encoding="utf-8")
    assert main(["batch", "--config-dir", str(tmp_path)]) == 2
    out = capsys.readouterr().out
    assert "fine: ok (0 target(s))" in out
    assert "1 target(s) violated" in out
    assert "1/3 scenario(s) passed" in out


def test_batch_reports_unreadable_manifest_and_goes_on(tmp_path, capsys):
    _write(tmp_path, "a-fine.json", dict(VIOLATING, name="fine", expected=[]))
    (tmp_path / "sub.json").mkdir()
    assert main(["batch", "--config-dir", str(tmp_path)]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "fine: ok (0 target(s))"
    assert lines[1].startswith(f"{tmp_path / 'sub.json'}: config error")
    assert lines[2] == "1/2 scenario(s) passed"


def test_run_directory_config_is_a_config_error(tmp_path, capsys):
    (tmp_path / "sub.json").mkdir()
    assert main(["run", "--config", str(tmp_path / "sub.json")]) == 2
    assert "config error in" in capsys.readouterr().err


def test_batch_needs_a_source(capsys):
    assert main(["batch"]) == 2
    assert "batch needs" in capsys.readouterr().err


def test_batch_rejects_missing_directory(tmp_path, capsys):
    assert main(["batch", "--config-dir", str(tmp_path / "nope")]) == 2
    assert "not a directory" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# entry points


def test_argparse_usage_error_exits_two():
    with pytest.raises(SystemExit) as info:
        main(["spectrum"])
    assert info.value.code == 2


def test_module_entry_point_reports_version():
    result = subprocess.run(
        [sys.executable, "-m", "twirlsim", "--version"],
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == f"twirlsim {__version__}"
