"""Tests for the command line front end."""

import json
import os
import stat
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from twirlsim import (
    AdiabaticSchedule,
    Backend,
    PauliSum,
    __version__,
    bundled_names,
    cli,
    load_manifest,
)
from twirlsim import manifest as manifest_module
from twirlsim.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden" / "cli.json").read_text(encoding="utf-8"))

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


@pytest.mark.parametrize("qubits, coupling", [("1", "1e200"), ("3", "1e154")])
def test_spectrum_refuses_a_coupling_that_overflows(qubits, coupling, capsys):
    assert main(["spectrum", "--qubits", qubits, "--j", coupling]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"config error: coupling J={float(coupling)!r} overflows the closed-form spectrum "
        f"of the {qubits}-qubit chain\n"
    )


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


SETTINGS = {
    "name": "settings",
    "hamiltonian": {"name": "schwinger-1q", "J": 1.0},
    "initial": "0",
    "rounds": [{"mode": "quarter", "ancillas": 2}],
    "backend": "trotter:4",
    "shots": 100,
    "seed": 9,
    "observables": ["H", "Z"],
    "noisy_energy": True,
    "prepare": {"kind": "adiabatic", "total_time": 2.0, "steps": 5},
}


@pytest.mark.parametrize(
    "flags, settings, prepare",
    [
        ([], {}, AdiabaticSchedule(2.0, 5)),
        (["--backend", "exact", "--seed", "1"], {"backend": Backend(), "seed": 1},
         AdiabaticSchedule(2.0, 5)),
        (["--shots", "50", "--prepare", "none"], {"shots": 50}, None),
        (["--prepare", "adiabatic:steps=3"], {}, AdiabaticSchedule(steps=3)),
    ],
    ids=["none", "backend+seed", "shots+prepare", "prepare"],
)
@pytest.mark.parametrize("command", ["run", "batch"])
def test_override_flags_reach_the_config(
    command, flags, settings, prepare, tmp_path, monkeypatch
):
    path = _write(tmp_path, "settings.json", SETTINGS)
    manifest = load_manifest(path)
    seen = []
    real = cli.execute_manifest
    monkeypatch.setattr(cli, "execute_manifest", lambda m: seen.append(m) or real(m))
    source = ["--config", path] if command == "run" else ["--config-dir", str(tmp_path)]
    assert main([command, *source, *flags]) == 0
    # the flags given replace their settings; every other one is the manifest's
    assert [m.config for m in seen] == [replace(manifest.config, **settings)]
    assert [m.prepare for m in seen] == [prepare]


def test_no_override_flags_leave_the_loaded_manifest_as_it_is():
    manifest = load_manifest("table-08")
    assert cli._overridden(manifest, {}) is manifest


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--config", "table-01-ket0"],
        ["run", "--config", "table-01-ket0", "--shots", "100"],
        ["batch", "--bundled"],
    ],
)
def test_negative_seed_is_rejected(argv, capsys):
    assert main([*argv, "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: --seed: seed must be a non-negative integer, got -1\n"


SHOTS_RULE = "shot count must be a positive integer below 2**63"
STEPS_RULE = "step count must be a positive integer below 2**63"
TIME_RULE = "total time must be a positive finite real number"


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--shots", "1.5", f"--shots: {SHOTS_RULE}, got '1.5'"),
        ("--shots", "abc", f"--shots: {SHOTS_RULE}, got 'abc'"),
        ("--shots", "0", f"--shots: {SHOTS_RULE}, got 0"),
        ("--prepare", "adiabatic:T=x", f"--prepare: {TIME_RULE}, got 'x'"),
        ("--prepare", "adiabatic:T=inf", f"--prepare: {TIME_RULE}, got inf"),
        ("--prepare", "adiabatic:steps=2.5", f"--prepare: {STEPS_RULE}, got '2.5'"),
        # int() reads each of these as a count
        *(("--shots", raw, f"--shots: {SHOTS_RULE}, got {raw!r}")
          for raw in ("\u0668", "1_000", "+8", "08", " 8")),
        *(("--prepare", f"adiabatic:steps={raw}", f"--prepare: {STEPS_RULE}, got {raw!r}")
          for raw in ("\u0665", "05")),
        # int() reads each of these as 16; the manifest's backend pattern refuses them
        *(
            ("--backend", raw,
             f'--backend: unknown backend {raw!r}, expected "exact" or "trotter:<steps>"')
            for raw in ("trotter:1_6", "trotter: 16", "trotter:+16", "trotter:016")
        ),
        # well-formed step counts at or past the bound: the flag names the bound they broke
        *(
            ("--backend", f"trotter:{steps}", f"--backend: {STEPS_RULE}, got {steps}")
            for steps in (2**63, 10**400, int("9" * 4300))
        ),
        # int() reads at most 4300 digits; past that the value is malformed
        ("--backend", "trotter:" + "9" * 4301,
         f'--backend: unknown backend \'trotter:{"9" * 4301}\', '
         'expected "exact" or "trotter:<steps>"'),
        # counts at or past the bound of the field they set, refused before any scenario runs
        *(("--shots", str(shots), f"--shots: {SHOTS_RULE}, got {shots}")
          for shots in (2**63, 10**20)),
        *(("--prepare", f"adiabatic:steps={steps}", f"--prepare: {STEPS_RULE}, got {steps}")
          for steps in (2**63, 10**30, 10**400)),
    ],
    ids=["shots=1.5", "shots=abc", "shots=0", "T=x", "T=inf", "steps=2.5",
         "shots=arabic8", "shots=1_000", "shots=+8", "shots=08", "shots=space8",
         "steps=arabic5", "steps=05",
         "backend=1_6", "backend=space16", "backend=+16", "backend=016",
         "backend=2**63", "backend=10**400", "backend=9x4300", "backend=9x4301",
         "shots=2**63", "shots=10**20", "steps=2**63", "steps=10**30", "steps=10**400"],
)
def test_bad_override_values_name_their_flag(flag, value, message, capsys):
    # one line on stderr and none on stdout: batch prints no scenario verdict
    for source in (["run", "--config", "table-13"], ["batch", "--bundled"]):
        assert main([*source, flag, value]) == 2
        assert capsys.readouterr() == ("", f"config error: {message}\n")


@pytest.mark.parametrize("source", [["run", "--config", "table-13"], ["batch", "--bundled"]])
def test_the_largest_shot_count_runs(source, capsys):
    assert main([*source, "--shots", str(2**63 - 1)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv",
    [
        *(
            ["run", "--config", "table-04", "--seed", raw]
            for raw in ("\u0663", "0_3", "+3", "03", "-0")
        ),
        *(
            [command, "--j", "1", "--qubits", raw]
            for command in ("spectrum", "trotter-scan")
            for raw in ("\u0662", "02", "+2", "2_")
        ),
    ],
    ids=" ".join,
)
def test_argparse_count_flags_take_only_plain_decimal(argv, capsys):
    # the flag's value is the last argument
    with pytest.raises(SystemExit) as caught:
        main(argv)
    assert caught.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f": invalid count value: {argv[-1]!r}\n")


def test_oversized_shot_flag_is_a_config_error(capsys):
    assert main(["run", "--config", "table-01-ket0", "--shots", str(10**20)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: --shots: {SHOTS_RULE}, got {10**20}\n"


@pytest.mark.parametrize("shots, code", [(2**63 - 1, 0), (2**63, 2)])
def test_manifest_shot_count_is_bounded(shots, code, tmp_path, capsys):
    payload = {**VIOLATING, "name": "many-shots", "expected": [], "shots": shots}
    assert main(["run", "--config", _write(tmp_path, "many.json", payload)]) == code
    err = capsys.readouterr().err
    if code:
        assert err == f"config error at /shots: expected at most {2**63 - 1}, got {shots}\n"
    else:
        assert err == ""


def test_keep_probability_rounded_above_one_still_draws(tmp_path, capsys):
    # rounding lifts this run's p_cumulative to 1 + 4e-16 from round 2 on
    payload = {
        "name": "rounded-keep",
        "hamiltonian": {
            "n_qubits": 1,
            "terms": [
                {"coeff": 1.0, "axes": "Y"},
                {"coeff": 0.5, "axes": "Z"},
                {"coeff": -1.0, "axes": "X"},
            ],
        },
        "initial": "0",
        "rounds": [{"mode": "full", "ancillas": 3}] * 3,
        "shots": 1000,
        "seed": 0,
    }
    path = _write(tmp_path, "rounded.json", payload)
    assert main(["run", "--config", path, "--format", "json"]) == 0
    rounds = json.loads(capsys.readouterr().out)["rounds"]
    assert [r["active_count"] for r in rounds] == [1000] * 4


def test_run_prepare_none_breaks_ramp_scenario(capsys):
    # dropping the ramp leaves round 0 far from the prepared energy
    assert main(["run", "--config", "table-13", "--prepare", "none"]) == 1
    assert "VIOLATED" in capsys.readouterr().out


def test_run_bad_prepare_flag(capsys):
    assert main(["run", "--config", "table-04", "--prepare", "sudden"]) == 2
    assert "config error" in capsys.readouterr().err


def test_bare_prepare_adiabatic_takes_the_default_schedule(capsys):
    schedule = AdiabaticSchedule()
    spelled = f"adiabatic:T={schedule.total_time},steps={schedule.steps}"
    outputs = []
    for prepare in ("adiabatic", spelled):
        assert main(["run", "--config", "table-04", "--prepare", prepare, "--format", "json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["prepare"] == {
        "kind": "adiabatic",
        "total_time": schedule.total_time,
        "steps": schedule.steps,
    }


@pytest.mark.parametrize(
    "prepare, message",
    [
        ("adiabatic:T", "config error: malformed prepare option 'T'\n"),
        ("adiabatic:T=5,", "config error: malformed prepare option ''\n"),
        ("adiabatic:X=1", "config error: unknown prepare option 'X'\n"),
        ("adiabatic:T=5,step=9", "config error: unknown prepare option 'step'\n"),
        ("adiabatic:steps=3,steps=5", "config error: repeated prepare option 'steps'\n"),
        ("adiabatic:T=1,T=2", "config error: repeated prepare option 'T'\n"),
        ("adiabatic:T=1,steps=3,T=1", "config error: repeated prepare option 'T'\n"),
    ],
)
def test_run_refuses_malformed_and_unknown_prepare_options(prepare, message, capsys):
    for source in (["run", "--config", "table-04"], ["batch", "--bundled"]):
        assert main([*source, "--prepare", prepare]) == 2
        assert capsys.readouterr() == ("", message)


@pytest.mark.parametrize("backend", ["exact", "trotter:2"])
def test_run_refuses_a_ramp_time_that_overflows(backend, capsys):
    # one slice of 1.7e308 times the start chain's summed |coefficient| of 3
    argv = ["run", "--config", "table-04", "--prepare", "adiabatic:T=1.7e308,steps=1"]
    assert main(argv + ["--backend", backend]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "config error: evolution time 1.7e+308 times summed |coefficient| 3.0 overflows\n"
    )


def test_run_reads_a_two_digit_observable_index(tmp_path, capsys):
    # the split-step backend runs the 11 qubits without a dense matrix
    manifest = {
        "name": "eleven",
        "hamiltonian": {"n_qubits": 11, "terms": [{"coeff": 1.0, "axes": "Z" + "I" * 10}]},
        "initial": "0" * 10 + "1",
        "rounds": [{"mode": "quarter"}],
        "backend": "trotter:1",
        "observables": ["H", "Z10", "Z0"],
        "expected": [{"observable": "Z10", "value": -1.0, "tol": 1e-12}],
    }
    path = _write(tmp_path, "eleven.json", manifest)
    assert main(["run", "--config", path, "--format", "json"]) == 0
    rounds = json.loads(capsys.readouterr().out)["rounds"]
    assert [r["expectations"]["Z10"] for r in rounds] == [-1.0, -1.0]
    assert [r["expectations"]["Z0"] for r in rounds] == [1.0, 1.0]


def test_the_exact_backend_stops_at_the_dense_cap_and_trotter_runs_past_it(tmp_path, capsys):
    manifest = {
        "name": "thirteen",
        "hamiltonian": {
            "n_qubits": 13,
            "terms": [{"coeff": 1.0, "axes": "Z" * 13}, {"coeff": 0.5, "axes": "X" + "I" * 12}],
        },
        "initial": "0" * 13,
        "rounds": [{"mode": "quarter", "ancillas": 1}],
    }
    path = _write(tmp_path, "thirteen.json", manifest)
    assert main(["run", "--config", path]) == 2
    message = "config error: dense matrix for 13 qubits exceeds the 12-qubit cap\n"
    assert capsys.readouterr() == ("", message)
    assert main(["run", "--config", path, "--backend", "trotter:1"]) == 0


@pytest.mark.parametrize("name", ["Z01", "Z\u0661", "Z\u00b2", "Z+1"])
def test_run_refuses_an_observable_index_out_of_plain_digits(name, tmp_path, capsys):
    path = _write(tmp_path, "odd.json", dict(VIOLATING, observables=[name], expected=[]))
    assert main(["run", "--config", path]) == 2
    message = f"config error at /observables/0: unknown observable {name!r}\n"
    assert capsys.readouterr() == ("", message)


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
    assert main(["run", "--config", path]) == 3
    assert "runtime abort: round 1: energy estimate is zero" in capsys.readouterr().err


def _large_coefficients(shots=None):
    terms = [
        (3455841.9, "ZZI"),
        (-13031572.3, "IIX"),
        (4463745.7, "XZX"),
        (3645724.0, "XII"),
        (284222.4, "ZYZ"),
    ]
    return {
        "name": "large",
        "hamiltonian": {"n_qubits": 3, "terms": [{"coeff": c, "axes": a} for c, a in terms]},
        "initial": "101",
        "rounds": [{"mode": "quarter", "ancillas": 2}] * 3,
        "shots": shots,
    }


def test_run_large_coefficients_leave_rounding_in_the_expectation(tmp_path, capsys):
    # <H> picks up an imaginary part of -4.7e-10 from rounding alone
    path = _write(tmp_path, "large.json", _large_coefficients())
    assert main(["run", "--config", path, "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert [r["round"] for r in json.loads(captured.out)["rounds"]] == [0, 1, 2, 3]


def test_run_refuses_a_coupling_that_overflows_the_hamiltonian(tmp_path, capsys):
    # J = 1e308 keeps every coefficient finite, but their sum overflows
    payload = {
        "name": "overflow",
        "hamiltonian": {"name": "schwinger-3q", "J": 1e308},
        "initial": "000",
        "rounds": [{"mode": "quarter", "energy_override": 1.0}],
    }
    path = _write(tmp_path, "overflow.json", payload)
    assert main(["run", "--config", path, "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error at /hamiltonian: summed |coefficient|")


def test_run_refuses_an_integer_beyond_float_range(tmp_path, capsys):
    big = 10**400
    payload = {
        "name": "huge",
        "hamiltonian": {"name": "schwinger-1q", "J": big},
        "initial": "0",
        "rounds": [{"mode": "full", "energy_override": big}],
    }
    path = _write(tmp_path, "huge.json", payload)
    assert main(["run", "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"config error at /hamiltonian/J: expected a finite number, got {big}\n"
        f"config error at /rounds/0/energy_override: expected a finite number, got {big}\n"
    )


def _table_rows(text, first):
    """The header and rows of the text table whose header starts with ``first``."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(first))
    end = next((i for i in range(start, len(lines)) if not lines[i].strip()), len(lines))
    return lines[start], lines[start + 1 : end]


@pytest.mark.parametrize("shots", [None, 10**15])
def test_run_text_table_keeps_wide_cells_apart(shots, tmp_path, capsys):
    # <H> near 5e6 overflows its column, and so does an active count of 1e15
    path = _write(tmp_path, "large.json", _large_coefficients(shots))
    assert main(["run", "--config", path]) == 0
    header, rows = _table_rows(capsys.readouterr().out, "round")
    assert len(rows) == 4
    for row in rows:
        assert len(row.split()) == len(header.split())


def test_run_text_table_shows_tiny_tau(tmp_path, capsys):
    # tau is near 4.5e-7 here, which six fixed decimals would print as zero
    path = _write(tmp_path, "large.json", _large_coefficients())
    assert main(["run", "--config", path, "--format", "json"]) == 0
    taus = [r["tau"] for r in json.loads(capsys.readouterr().out)["rounds"]]
    assert main(["run", "--config", path]) == 0
    header, rows = _table_rows(capsys.readouterr().out, "round")
    column = header.split().index("tau")
    assert rows[0].split()[column] == "-"
    for row, tau in zip(rows[1:], taus[1:]):
        assert tau != 0 and f"{float(row.split()[column]):.2e}" == f"{tau:.2e}"


def test_spectrum_text_table_keeps_wide_cells_apart(capsys):
    assert main(["spectrum", "--qubits", "2", "--j", "1e7"]) == 0
    header, rows = _table_rows(capsys.readouterr().out, "index")
    assert len(rows) == 5  # four levels and the deviation line
    for row in rows[:-1]:
        assert len(row.split()) == len(header.split())


def _noisy_one_qubit(seed):
    # four shots with sampled energy feedback: seed 2 samples <H> = 0 in
    # round 1, seed 7 loses every run in round 2
    return {
        "name": f"noisy-{seed}",
        "hamiltonian": {"name": "schwinger-1q", "J": 1.0},
        "initial": "0",
        "rounds": [{"mode": "quarter"}] * 3,
        "shots": 4,
        "seed": seed,
        "noisy_energy": True,
    }


@pytest.mark.parametrize(
    "seed, reason",
    [
        (2, "runtime abort: round 1: energy estimate is zero within tolerance"),
        (7, "runtime abort: no active runs left in round 2"),
    ],
)
def test_run_runtime_abort_exits_three(seed, reason, tmp_path, capsys):
    path = _write(tmp_path, "noisy.json", _noisy_one_qubit(seed))
    assert main(["run", "--config", path, "--format", "json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(reason)


def test_run_refuses_a_zero_energy_override_before_it_runs(tmp_path, capsys):
    payload = {
        "name": "zero",
        "hamiltonian": {"name": "schwinger-1q", "J": 1.0},
        "initial": "0",
        "rounds": [{"mode": "full", "energy_override": 0}],
    }
    path = _write(tmp_path, "zero.json", payload)
    assert main(["run", "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "config error at /rounds/0/energy_override: energy_override 0 is zero on the "
        "operator's scale: within 1e-09 times the summed |coefficient| 2.0, or so small that "
        "its period overflows; a filter round needs a nonzero energy\n"
    )


@pytest.mark.parametrize("override", [1e-310, 1e-320], ids=["period-overflows", "within-tol"])
def test_a_subnormal_override_is_refused_by_the_whole_rule(override, tmp_path, capsys):
    # on Σ|c| = 1e-310, 1e-310 is far above the tolerance but 2π/E overflows;
    # 1e-320 is within the tolerance, and one message states both causes
    payload = {
        "name": "subnormal",
        "hamiltonian": {"n_qubits": 1, "terms": [{"coeff": 1e-310, "axes": "Z"}]},
        "initial": "0",
        "rounds": [{"mode": "full", "energy_override": override}],
    }
    path = _write(tmp_path, "subnormal.json", payload)
    assert main(["run", "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"config error at /rounds/0/energy_override: energy_override {override!r} is zero on "
        "the operator's scale: within 1e-09 times the summed |coefficient| 1e-310, or so small "
        "that its period overflows; a filter round needs a nonzero energy\n"
    )


def test_shots_none_on_a_noisy_energy_manifest_is_a_config_error(tmp_path, capsys):
    path = _write(tmp_path, "noisy.json", _noisy_one_qubit(2))
    assert main(["run", "--config", path, "--shots", "none"]) == 2
    assert capsys.readouterr().err == "config error: noisy_energy needs a shot count\n"


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


@pytest.mark.parametrize("qubits", ["1", "2"])
def test_trotter_scan_fits_no_order_to_rounding_noise(qubits, capsys):
    # at J=0 these chains split into commuting terms, so every error is rounding
    assert main(["trotter-scan", "--qubits", qubits, "--j", "0"]) == 0
    assert "estimated order" not in capsys.readouterr().out
    assert main(["trotter-scan", "--qubits", qubits, "--j", "0", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert max(p["error"] for p in payload["points"]) < 1e-12
    assert payload["estimated_order"] is None


def test_trotter_scan_fits_an_order_to_distinct_step_counts_only(capsys):
    # two errors at one step count carry no slope
    assert main(["trotter-scan", "--qubits", "2", "--j", "1", "--steps", "8,8"]) == 0
    captured = capsys.readouterr()
    assert "estimated order" not in captured.out and captured.err == ""
    args = ["trotter-scan", "--qubits", "2", "--j", "1", "--steps", "8,8", "--format", "json"]
    assert main(args) == 0
    assert json.loads(capsys.readouterr().out)["estimated_order"] is None
    assert main(["trotter-scan", "--qubits", "2", "--j", "1", "--steps", "8,8,16"]) == 0
    order = float(capsys.readouterr().out.splitlines()[-1].removeprefix("estimated order:"))
    assert 1.7 < order < 2.3


def test_trotter_scan_rejects_bad_steps(capsys):
    assert main(["trotter-scan", "--qubits", "1", "--j", "1", "--steps", "0,8"]) == 2
    assert capsys.readouterr().err == "config error: step counts must be positive\n"


@pytest.mark.parametrize(
    "raw",
    ["1_6,32", "+8", "8,,16", "8, 16", "-8", "8.0", "8,", "", "²", "08,16", "8,016", "00"]
    # int() refuses a count of over 4300 digits with its own error
    + [pytest.param("8," + "9" * 5000, id="8,9x5000")]
    + [pytest.param(f"8,{10**400}", id="8,10**400")],
)
def test_trotter_scan_takes_only_decimal_digits(raw, capsys):
    assert main(["trotter-scan", "--qubits", "1", "--j", "1", "--steps", raw]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    message = f"--steps must be comma-separated step counts in decimal digits, got {raw!r}"
    if raw == f"8,{10**400}":
        # plain decimal digits, past float range: the step-count rule refuses it
        message = f"step count must be a positive integer below 2**63, got {10**400}"
    assert captured.err == f"config error: {message}\n"


def test_trotter_scan_diagonalizes_once_per_scan(monkeypatch, capsys):
    calls = []
    eigh = np.linalg.eigh

    def counted(matrix):
        calls.append(matrix.shape)
        return eigh(matrix)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    assert main(["trotter-scan", "--qubits", "3", "--j", "1"]) == 0
    assert calls == [(8, 8)]


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


def test_batch_reports_runtime_aborts_per_scenario(tmp_path, capsys):
    _write(tmp_path, "a-fine.json", dict(VIOLATING, name="fine", expected=[]))
    _write(tmp_path, "b-zero.json", _noisy_one_qubit(2))
    _write(tmp_path, "c-starved.json", _noisy_one_qubit(7))
    (tmp_path / "d-broken.json").write_text("{oops", encoding="utf-8")
    assert main(["batch", "--config-dir", str(tmp_path)]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "fine: ok (0 target(s))"
    assert lines[1].startswith(f"{tmp_path / 'b-zero.json'}: runtime abort: round 1: energy")
    starved = f"{tmp_path / 'c-starved.json'}: runtime abort: no active runs left in round 2"
    assert lines[2] == starved
    assert lines[3].startswith(f"{tmp_path / 'd-broken.json'}: config error")
    assert lines[4] == "1/4 scenario(s) passed"


def test_batch_refuses_step_counts_past_float_range_as_config_errors(tmp_path, capsys):
    fine = dict(VIOLATING, name="fine", expected=[])
    _write(tmp_path, "a-backend.json", dict(fine, backend=f"trotter:{10**400}"))
    _write(tmp_path, "b-prepare.json", dict(fine, prepare={"kind": "adiabatic", "steps": 10**400}))
    assert main(["batch", "--config-dir", str(tmp_path)]) == 2
    rule = f"step count must be a positive integer below 2**63, got {10**400}"
    assert capsys.readouterr().out.splitlines() == [
        f"{tmp_path / 'a-backend.json'}: config error at /backend: {rule}",
        f"{tmp_path / 'b-prepare.json'}: config error at /prepare/steps: {rule}",
        "0/2 scenario(s) passed",
    ]


@pytest.mark.parametrize("ancillas", [2**63, 10**400], ids=["2**63", "10**400"])
def test_an_ancilla_count_past_the_bound_is_a_config_error(ancillas, tmp_path, capsys):
    # each ancilla runs one evolution, so a count past the bound would never finish
    rounds = [{"mode": "quarter"}, {"mode": "full", "ancillas": ancillas}]
    path = _write(tmp_path, "many.json", dict(VIOLATING, rounds=rounds, expected=[]))
    message = (
        "config error at /rounds/1/ancillas: "
        f"ancilla count must be a positive integer below 2**63, got {ancillas}"
    )
    assert main(["run", "--config", path]) == 2
    assert capsys.readouterr() == ("", message + "\n")
    assert main(["batch", "--config-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().out.splitlines() == [f"{path}: {message}", "0/1 scenario(s) passed"]


def test_repeated_observable_is_a_config_error(tmp_path, capsys):
    path = _write(tmp_path, "twice.json", dict(VIOLATING, observables=["H", "H"], expected=[]))
    assert main(["run", "--config", path, "--format", "csv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "config error at /observables/1: observable 'H' is listed more than once\n"
    )


def test_batch_internal_error_is_one_scenario_line(tmp_path, capsys, monkeypatch):
    real = cli.execute_manifest

    def flaky(manifest):
        if manifest.name == "doomed":
            raise RuntimeError("boom")
        return real(manifest)

    monkeypatch.setattr(cli, "execute_manifest", flaky)
    _write(tmp_path, "a-doomed.json", VIOLATING)
    _write(tmp_path, "b-fine.json", dict(VIOLATING, name="fine", expected=[]))
    assert main(["batch", "--config-dir", str(tmp_path)]) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith("Traceback")
    assert captured.err.endswith("RuntimeError: boom\n")
    lines = captured.out.splitlines()
    assert lines == [
        f"{tmp_path / 'a-doomed.json'}: internal error: RuntimeError: boom",
        "fine: ok (0 target(s))",
        "1/2 scenario(s) passed",
    ]


def test_batch_out_naming_a_file_is_a_config_error_per_scenario(tmp_path, capsys):
    _write(tmp_path, "a-fine.json", dict(VIOLATING, name="fine", expected=[]))
    _write(tmp_path, "b-doomed.json", VIOLATING)
    target = tmp_path / "taken"
    target.write_text("", encoding="utf-8")
    assert main(["batch", "--config-dir", str(tmp_path), "--out", str(target)]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert all(": config error: cannot write into" in line for line in lines[:2])
    assert lines[2] == "0/2 scenario(s) passed"


def test_batch_out_refuses_a_second_scenario_of_the_same_name(tmp_path, capsys):
    configs, out = tmp_path / "configs", tmp_path / "out"
    configs.mkdir()
    same = dict(VIOLATING, name="same", expected=[])
    first = _write(configs, "a.json", same)
    second = _write(configs, "b.json", dict(same, hamiltonian={"name": "schwinger-1q", "J": 2.0}))
    _write(configs, "c.json", dict(same, name="other"))
    assert main(["batch", "--config-dir", str(configs), "--out", str(out)]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "same: ok (0 target(s))",
        f"{second}: config error: scenario name 'same' is taken by {first}, "
        "whose --out file it would overwrite",
        "other: ok (0 target(s))",
        "2/3 scenario(s) passed",
    ]
    assert sorted(path.name for path in out.iterdir()) == ["other.json", "same.json"]
    written = json.loads((out / "same.json").read_text(encoding="utf-8"))
    assert written["hamiltonian"]["J"] == 1.0


def test_run_out_naming_a_file_is_a_config_error(tmp_path, capsys):
    target = tmp_path / "taken"
    target.write_text("", encoding="utf-8")
    assert main(["run", "--config", "table-01-ket0", "--out", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write into")
    assert len(err.splitlines()) == 1


def test_failed_out_rename_leaves_no_temp_file(tmp_path, monkeypatch, capsys):
    def refuse(source, destination):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(cli.os, "replace", refuse)
    out = tmp_path / "out"
    assert main(["run", "--config", "table-04", "--format", "json", "--out", str(out)]) == 2
    message = f"config error: cannot write into {str(out)!r}: Permission denied\n"
    assert capsys.readouterr() == ("", message)
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=oct)
def test_out_files_get_the_mode_open_would_give(umask, tmp_path, capsys):
    configs, out = tmp_path / "configs", tmp_path / "out"
    configs.mkdir()
    _write(configs, "fine.json", dict(VIOLATING, name="fine", expected=[]))
    previous = os.umask(umask)
    try:
        assert main(["run", "--config", "table-04", "--format", "json", "--out", str(out)]) == 0
        assert main(["batch", "--config-dir", str(configs), "--out", str(out)]) == 0
        with open(tmp_path / "reference", "w", encoding="utf-8"):
            pass
    finally:
        os.umask(previous)
    wanted = 0o666 & ~umask
    assert stat.S_IMODE((tmp_path / "reference").stat().st_mode) == wanted
    assert sorted(path.name for path in out.iterdir()) == ["fine.json", "table-04.json"]
    for path in out.iterdir():
        assert stat.S_IMODE(path.stat().st_mode) == wanted, path.name


def test_batch_out_writes_each_bundled_scenario_as_run_json_prints_it(tmp_path, capsys):
    assert main(["batch", "--bundled", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    names = bundled_names()
    assert sorted(path.name for path in tmp_path.iterdir()) == [f"{name}.json" for name in names]
    for name in names:
        golden = GOLDEN[f"run --config {name} --format json"]["stdout"]
        assert (tmp_path / f"{name}.json").read_bytes() == golden.encode("utf-8"), name


def test_each_scenario_builds_its_hamiltonian_once(tmp_path, monkeypatch, capsys):
    builds = []
    # the named and the inline constructor the manifest module calls
    for owner, attribute in ((manifest_module, "hamiltonian_by_name"), (PauliSum, "from_dict")):
        build = getattr(owner, attribute)
        monkeypatch.setattr(
            owner, attribute, lambda *args, build=build: builds.append(1) or build(*args)
        )
    inline = dict(
        VIOLATING, hamiltonian={"n_qubits": 1, "terms": [{"coeff": 1.0, "axes": "Z"}]}, expected=[]
    )
    for config in ("table-04", _write(tmp_path, "inline.json", inline)):
        builds.clear()
        assert main(["run", "--config", config]) == 0
        assert len(builds) == 1, config


def test_run_directory_config_is_a_config_error(tmp_path, capsys):
    (tmp_path / "sub.json").mkdir()
    assert main(["run", "--config", str(tmp_path / "sub.json")]) == 2
    assert "config error in" in capsys.readouterr().err


def test_batch_needs_a_source(capsys):
    assert main(["batch"]) == 2
    assert "batch needs" in capsys.readouterr().err


@pytest.mark.parametrize("exists", [False, True], ids=["missing-dir", "dir"])
def test_batch_refuses_both_sources(exists, tmp_path, capsys):
    directory = tmp_path if exists else tmp_path / "nope"
    assert main(["batch", "--bundled", "--config-dir", str(directory)]) == 2
    message = "config error: batch takes --config-dir or --bundled, not both\n"
    assert capsys.readouterr() == ("", message)


def test_batch_rejects_missing_directory(tmp_path, capsys):
    assert main(["batch", "--config-dir", str(tmp_path / "nope")]) == 2
    assert "not a directory" in capsys.readouterr().err


def test_batch_refuses_a_directory_without_manifests(tmp_path, capsys):
    (tmp_path / "notes.txt").write_text("{}", encoding="utf-8")
    (tmp_path / "manifest.json.bak").write_text("{}", encoding="utf-8")
    assert main(["batch", "--config-dir", str(tmp_path)]) == 2
    message = f"config error: no manifests found in {str(tmp_path)!r}\n"
    assert capsys.readouterr() == ("", message)


def test_bundled_batch_reads_only_the_package_files(tmp_path, monkeypatch, capsys):
    # a directory and a valid manifest file in the working directory, named
    # as bundled scenarios are
    (tmp_path / "table-04").mkdir()
    _write(tmp_path, "table-05", dict(VIOLATING, name="shadow", expected=[]))
    monkeypatch.chdir(tmp_path)
    assert main(["batch", "--bundled"]) == 0
    assert capsys.readouterr() == (GOLDEN["batch --bundled"]["stdout"], "")
    # run --config still takes a path first
    assert main(["run", "--config", "table-05", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["name"] == "shadow"


# ---------------------------------------------------------------------------
# entry points


def test_argparse_usage_error_exits_two():
    with pytest.raises(SystemExit) as info:
        main(["spectrum"])
    assert info.value.code == 2


def test_main_builds_its_parser_once(monkeypatch, capsys):
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    assert main(["spectrum", "--qubits", "1", "--j", "1"]) == 0
    assert main(["run", "--config", "table-04"]) == 0
    with pytest.raises(SystemExit):
        main(["run"])
    assert main(["trotter-scan", "--qubits", "1", "--j", "1"]) == 0
    assert len(builds) == 1


def test_cli_import_builds_no_parser():
    code = "import sys, twirlsim.cli as cli; sys.exit(cli._parser.cache_info().currsize)"
    subprocess.run([sys.executable, "-c", code], check=True)


OVERRIDDEN = ["run", "--config", "table-04", "--shots", "1000", "--seed", "3", "--format", "csv"]
PLAIN = ["run", "--config", "table-04", "--format", "csv"]


def _golden_entry(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return {"code": code, "stdout": captured.out, "stderr": captured.err}


def test_flags_of_one_call_do_not_reach_the_next(capsys):
    for argv in (OVERRIDDEN, PLAIN, OVERRIDDEN, PLAIN):
        assert _golden_entry(argv, capsys) == GOLDEN[" ".join(argv)]


@pytest.mark.parametrize(
    "refused",
    [["run"], ["run", "--config", "table-04", "--shots", "9", "--seed", "x"], ["--version"]],
    ids=" ".join,
)
def test_an_argparse_exit_leaves_the_next_call_unchanged(refused, capsys):
    with pytest.raises(SystemExit):
        main(refused)
    capsys.readouterr()
    assert _golden_entry(PLAIN, capsys) == GOLDEN[" ".join(PLAIN)]


@pytest.mark.parametrize("module", ["jsonschema", "numpy.random"])
def test_cli_import_leaves_module_out(module):
    # jsonschema is a test-only oracle; numpy.random loads when a shot run seeds its streams
    code = f"import sys, twirlsim.cli; sys.exit({module!r} in sys.modules)"
    subprocess.run([sys.executable, "-c", code], check=True)


def test_module_entry_point_reports_version():
    result = subprocess.run(
        [sys.executable, "-m", "twirlsim", "--version"],
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == f"twirlsim {__version__}"


# Runs batch --bundled with its second scenario held until the reader has
# closed stdout, so that the reader closes it after exactly one line.
_SECOND_SCENARIO_WAITS = """
import sys
from twirlsim import cli
run = cli.execute_manifest
calls = []
def execute_manifest(manifest):
    calls.append(manifest)
    if len(calls) == 2:
        sys.stdout.flush()
        sys.stdin.read()
    return run(manifest)
cli.execute_manifest = execute_manifest
sys.exit(cli.main(["batch", "--bundled"]))
"""


def _stdout_env(buffered: bool) -> dict:
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    return env if buffered else {**env, "PYTHONUNBUFFERED": "1"}


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_batch_ends_quietly_when_stdout_closes_after_one_line(buffered, tmp_path):
    with open(tmp_path / "stderr", "w+", encoding="utf-8") as err:
        proc = subprocess.Popen(
            [sys.executable, "-c", _SECOND_SCENARIO_WAITS],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=err,
            env=_stdout_env(buffered),
        )
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            proc.stdin.close()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
        err.seek(0)
        assert (first, code, err.read()) == (b"table-01-ket0: ok (2 target(s))\n", 141, "")
    assert cli.EXIT_CLOSED == 141


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_run_ends_quietly_when_stdout_has_no_reader(buffered):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "twirlsim", "run", "--config", "table-13"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
            env=_stdout_env(buffered),
        )
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (cli.EXIT_CLOSED, "")
