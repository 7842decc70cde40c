"""Tests for manifest loading, validation, and conversion."""

import json
from dataclasses import replace

import pytest

from twirlsim import (
    AdiabaticSchedule,
    Backend,
    Manifest,
    ManifestError,
    TauMode,
    bundled_names,
    load_manifest,
    parse_manifest,
    validate_manifest,
)

EXPECTED_BUNDLED = [
    "table-01-ket0",
    "table-01-ket1",
    "table-02-ket01",
    "table-02-ket10",
    "table-03",
    "table-04",
    "table-05",
    "table-06",
    "table-07",
    "table-08",
    "table-09",
    "table-10",
    "table-11",
    "table-12",
    "table-13",
]


def _base(**overrides):
    data = {
        "name": "unit",
        "hamiltonian": {"name": "schwinger-1q", "J": 1.0},
        "initial": "0",
        "rounds": [{"mode": "quarter"}],
    }
    data.update(overrides)
    return data


# ---------------------------------------------------------------------------
# bundled scenarios


def test_bundled_names_are_stable():
    assert bundled_names() == EXPECTED_BUNDLED


def test_every_bundled_scenario_parses():
    for name in bundled_names():
        manifest = load_manifest(name)
        assert manifest.name == name
        manifest.build_hamiltonian()


def test_load_accepts_bare_name_and_suffix():
    assert load_manifest("table-04") == load_manifest("table-04.json")


def test_unknown_name_lists_the_alternatives():
    with pytest.raises(ManifestError, match="bundled scenarios"):
        load_manifest("table-99")


# ---------------------------------------------------------------------------
# file loading


def test_load_from_path(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_base()), encoding="utf-8")
    manifest = load_manifest(path)
    assert manifest.name == "unit"
    assert manifest.rounds[0].mode is TauMode.QUARTER


def test_malformed_json_is_reported(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ManifestError, match="config error in"):
        load_manifest(path)


def test_non_object_document_is_rejected(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]", encoding="utf-8")
    with pytest.raises(ManifestError, match="must be a JSON object"):
        load_manifest(path)


# ---------------------------------------------------------------------------
# schema validation with JSON-pointer diagnostics


def test_valid_data_passes_silently():
    validate_manifest(_base())


@pytest.mark.parametrize(
    "mutation, pointer",
    [
        ({"rounds": [{"mode": "half"}]}, "/rounds/0/mode"),
        ({"initial": "012"}, "/initial"),
        ({"shots": 0}, "/shots"),
        ({"backend": "trotter:0"}, "/backend"),
        ({"seed": -1}, "/seed"),
        ({"observables": []}, "/observables"),
        ({"expected": [{"observable": "H", "value": 1.0, "tol": 0.0}]}, "/expected/0/tol"),
        ({"prepare": {"kind": "sudden"}}, "/prepare/kind"),
        # the name is the output file stem under --out
        ({"name": "../escaped"}, "/name"),
        ({"name": "nested/x"}, "/name"),
    ],
)
def test_schema_errors_name_the_pointer(mutation, pointer):
    with pytest.raises(ManifestError, match=f"config error at {pointer}"):
        validate_manifest(_base(**mutation))


def test_missing_required_key():
    data = _base()
    del data["initial"]
    with pytest.raises(ManifestError, match="initial"):
        validate_manifest(data)


def test_unexpected_key_is_rejected():
    with pytest.raises(ManifestError, match="surprise"):
        validate_manifest(_base(surprise=1))


def test_unknown_hamiltonian_name():
    with pytest.raises(ManifestError, match="config error at /hamiltonian"):
        validate_manifest(_base(hamiltonian={"name": "schwinger-4q"}))


def test_multiple_errors_are_all_reported():
    data = _base(initial="2", shots=0)
    with pytest.raises(ManifestError) as info:
        validate_manifest(data)
    assert str(info.value).count("config error") == 2


# ---------------------------------------------------------------------------
# cross-field consistency


def test_initial_length_must_match_register():
    data = _base(hamiltonian={"name": "schwinger-2q"}, initial="0")
    with pytest.raises(ManifestError, match="config error at /initial"):
        parse_manifest(data)


def test_observables_must_resolve():
    data = _base(observables=["H", "Q5"])
    with pytest.raises(ManifestError, match="config error at /observables/1"):
        parse_manifest(data)


def test_target_observable_must_be_listed():
    data = _base(expected=[{"observable": "Z", "value": 1.0, "tol": 0.1}])
    with pytest.raises(ManifestError, match="config error at /expected/0/observable"):
        parse_manifest(data)


def test_target_round_must_exist():
    data = _base(expected=[{"observable": "H", "value": 1.0, "tol": 0.1, "round": 7}])
    with pytest.raises(ManifestError, match="config error at /expected/0/round"):
        parse_manifest(data)


def test_noisy_energy_needs_shots():
    with pytest.raises(ManifestError, match="config error at /noisy_energy"):
        parse_manifest(_base(noisy_energy=True))


# ---------------------------------------------------------------------------
# parsing results


def test_defaults_after_parse():
    manifest = parse_manifest(_base())
    assert manifest.backend == Backend()
    assert manifest.shots is None
    assert manifest.seed == 0
    assert manifest.observables == ("H",)
    assert manifest.noisy_energy is False
    assert manifest.prepare is None
    assert manifest.targets == ()


def test_round_fields_are_parsed():
    data = _base(
        rounds=[
            {"mode": "full", "energy_override": -0.2, "ancillas": 3},
            {"mode": "quarter"},
        ]
    )
    manifest = parse_manifest(data)
    first, second = manifest.rounds
    assert first.mode is TauMode.FULL
    assert first.energy_override == -0.2
    assert first.ancillas == 3
    assert second.mode is TauMode.QUARTER
    assert second.energy_override is None
    assert second.ancillas == 1


def test_prepare_defaults_and_overrides():
    assert parse_manifest(_base(prepare={"kind": "adiabatic"})).prepare == AdiabaticSchedule()
    custom = parse_manifest(
        _base(prepare={"kind": "adiabatic", "total_time": 5.0, "steps": 100})
    ).prepare
    assert custom == AdiabaticSchedule(total_time=5.0, steps=100)


def test_inline_hamiltonian_builds():
    data = _base(
        hamiltonian={
            "n_qubits": 2,
            "terms": [{"coeff": 0.5, "axes": "XX"}, {"coeff": 1.0, "axes": "ZI"}],
        },
        initial="01",
    )
    op = parse_manifest(data).build_hamiltonian()
    assert op.n_qubits == 2
    assert [(t.coeff, t.axes) for t in op.terms] == [(0.5, "XX"), (1.0, "ZI")]


def test_inline_hamiltonian_axis_length_mismatch():
    data = _base(
        hamiltonian={"n_qubits": 2, "terms": [{"coeff": 1.0, "axes": "XXX"}]},
        initial="01",
    )
    with pytest.raises(ManifestError, match="config error at /hamiltonian"):
        parse_manifest(data)


def test_to_config_keeps_and_overrides():
    manifest = parse_manifest(_base(shots=100, seed=9))
    kept = manifest.to_config()
    assert kept.shots == 100 and kept.seed == 9
    swapped = replace(manifest, shots=None, seed=1, backend=Backend("trotter", 8)).to_config()
    assert swapped.shots is None
    assert swapped.seed == 1
    assert swapped.backend == Backend("trotter", 8)


def test_manifest_named_hamiltonian_builds():
    manifest = Manifest(
        name="x",
        hamiltonian={"name": "schwinger-3q", "J": 0.5},
        initial="000",
        rounds=(parse_manifest(_base()).rounds[0],),
    )
    op = manifest.build_hamiltonian()
    assert op.n_qubits == 3
    assert (op.terms[-1].axes, op.terms[-1].coeff) == ("ZZI", 0.5)
