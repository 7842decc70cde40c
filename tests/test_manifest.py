"""Tests for manifest loading, validation, and conversion."""

import copy
import json
import math
import random
from pathlib import Path

import pytest

from twirlsim import (
    AdiabaticSchedule,
    Manifest,
    ManifestError,
    RoundSpec,
    TauMode,
    TwirlConfig,
    bundled_names,
    hamiltonian_by_name,
    load_manifest,
    parse_manifest,
    validate_manifest,
)
from twirlsim import manifest as manifest_module
from twirlsim.manifest import BUNDLED_DIR, RULES, _compile, _object

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

# Every message of the oracle test's mutation corpus, byte for byte. Regenerate
# it only for a deliberate change of wording:
#
#     PYTHONPATH=src python tests/test_manifest.py
MESSAGES_GOLDEN = Path(__file__).parent / "golden" / "manifest_errors.json"


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
        assert manifest.operator.n_qubits == len(manifest.initial)


def test_load_accepts_bare_name_and_suffix():
    assert load_manifest("table-04") == load_manifest("table-04.json")


def test_bundled_files_go_through_the_file_read_path(tmp_path, monkeypatch):
    # a bundled scenario is read and its errors mapped as a user's file is
    monkeypatch.setattr(manifest_module, "BUNDLED_DIR", str(tmp_path))
    (tmp_path / "fine.json").write_text(json.dumps(_base(name="fine")), encoding="utf-8")
    (tmp_path / "broken.json").write_text("{oops", encoding="utf-8")
    (tmp_path / "sub.json").mkdir()
    (tmp_path / "list.json").write_text("[1]", encoding="utf-8")
    assert bundled_names() == ["broken", "fine", "list", "sub"]
    assert load_manifest("fine").name == "fine"
    with pytest.raises(ManifestError) as caught:
        load_manifest("broken")
    assert str(caught.value).startswith(f"config error in {tmp_path / 'broken.json'}: Expecting")
    with pytest.raises(ManifestError, match=r"^config error in .*sub\.json: \[Errno 21\]"):
        load_manifest("sub")
    with pytest.raises(ManifestError, match="^config error at /: manifest must be a JSON object$"):
        load_manifest("list")


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
    assert manifest.config.rounds[0].mode is TauMode.QUARTER


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
        # integers are JSON integers: not 2.0, 1e3 or a boolean
        ({"seed": 2.0}, "/seed"),
        ({"seed": True}, "/seed"),
        ({"shots": 1e3}, "/shots"),
        ({"rounds": [{"mode": "quarter", "ancillas": 2.0}]}, "/rounds/0/ancillas"),
        ({"prepare": {"kind": "adiabatic", "steps": 1e3}}, "/prepare/steps"),
        (
            {"expected": [{"observable": "H", "value": 1.0, "tol": 0.1, "round": 1.0}]},
            "/expected/0/round",
        ),
        (
            {"hamiltonian": {"n_qubits": 1.0, "terms": [{"coeff": 1.0, "axes": "Z"}]}},
            "/hamiltonian/n_qubits",
        ),
        # numbers are finite: json.load reads NaN and Infinity literals
        ({"expected": [{"observable": "H", "value": 1.0, "tol": math.nan}]}, "/expected/0/tol"),
        ({"expected": [{"observable": "H", "value": -math.inf, "tol": 0.1}]}, "/expected/0/value"),
        ({"rounds": [{"mode": "full", "energy_override": math.inf}]}, "/rounds/0/energy_override"),
        ({"prepare": {"kind": "adiabatic", "total_time": math.inf}}, "/prepare/total_time"),
        ({"hamiltonian": {"name": "schwinger-1q", "J": math.inf}}, "/hamiltonian/J"),
        (
            {"hamiltonian": {"n_qubits": 1, "terms": [{"coeff": math.nan, "axes": "Z"}]}},
            "/hamiltonian/terms/0/coeff",
        ),
        # numpy's binomial takes the shot count as a 64-bit C long
        ({"shots": 2**63}, "/shots"),
        # an int beyond float range is no finite number
        ({"hamiltonian": {"name": "schwinger-1q", "J": 10**400}}, "/hamiltonian/J"),
        (
            {"rounds": [{"mode": "full", "energy_override": -(10**400)}]},
            "/rounds/0/energy_override",
        ),
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


def test_rules_compile_and_unknown_rule_keys_are_refused():
    _compile(RULES)
    # a misspelled bound would otherwise check nothing
    with pytest.raises(ValueError, match=r"unknown rule key\(s\) \['minimum'\]"):
        _compile({"type": "number", "minimum": 0})
    with pytest.raises(ValueError, match="'maximum'"):
        _compile(_object(("n",), n={"type": "array", "items": {"type": "integer", "maximum": 3}}))
    # the named and the inline form are compiled as rules of their own
    inline = _object(("n",), n={"type": "integer"})
    with pytest.raises(ValueError, match="'maximum'"):
        _compile({"type": "object", "named": {**inline, "maximum": 3}, "inline": inline})


# ---------------------------------------------------------------------------
# differential check against a JSON Schema validator

_NAMED_HAMILTONIAN = {
    "type": "object",
    "required": ["name"],
    "additionalProperties": False,
    "properties": {
        "name": {"enum": ["schwinger-1q", "schwinger-2q", "schwinger-3q"]},
        "J": {"type": "number", "minimum": 0},
    },
}

_INLINE_HAMILTONIAN = {
    "type": "object",
    "required": ["n_qubits", "terms"],
    "additionalProperties": False,
    "properties": {
        "n_qubits": {"type": "integer", "minimum": 1},
        "terms": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["coeff", "axes"],
                "additionalProperties": False,
                "properties": {
                    "coeff": {"type": "number"},
                    "axes": {"type": "string", "pattern": "^[IXYZ]+$"},
                },
            },
        },
    },
}

# The manifest rules as a draft 2020-12 schema: the oracle for validate_manifest.
ORACLE_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["name", "hamiltonian", "initial", "rounds"],
    "additionalProperties": False,
    "properties": {
        "name": {"type": "string", "pattern": "^[A-Za-z0-9][A-Za-z0-9._-]*$"},
        "description": {"type": "string"},
        "hamiltonian": {"oneOf": [_NAMED_HAMILTONIAN, _INLINE_HAMILTONIAN]},
        "initial": {"type": "string", "pattern": "^[01]+$"},
        "rounds": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["mode"],
                "additionalProperties": False,
                "properties": {
                    "mode": {"enum": ["quarter", "full"]},
                    "energy_override": {"type": "number"},
                    "ancillas": {"type": "integer", "minimum": 1},
                },
            },
        },
        "backend": {"type": "string", "pattern": "^(exact|trotter:[1-9][0-9]*)$"},
        "shots": {"type": ["integer", "null"], "minimum": 1, "maximum": 2**63 - 1},
        "seed": {"type": "integer", "minimum": 0},
        "observables": {
            "type": "array",
            "minItems": 1,
            "items": {"type": "string", "minLength": 1},
        },
        "noisy_energy": {"type": "boolean"},
        "prepare": {
            "type": "object",
            "required": ["kind"],
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["adiabatic"]},
                "total_time": {"type": "number", "exclusiveMinimum": 0},
                "steps": {"type": "integer", "minimum": 1},
            },
        },
        "expected": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["observable", "value", "tol"],
                "additionalProperties": False,
                "properties": {
                    "observable": {"type": "string", "minLength": 1},
                    "value": {"type": "number"},
                    "tol": {"type": "number", "exclusiveMinimum": 0},
                    "round": {"type": "integer", "minimum": 0},
                },
            },
        },
        "notes": {"type": "string"},
    },
}

# Replacement values: wrong types, out-of-bounds numbers and strings that miss
# the patterns, next to some valid ones. Integer-valued floats and non-finite
# numbers are left out: the schema's integer type takes 2.0 and its number
# type takes NaN, where validate_manifest rejects both on purpose.
_VALUES = [
    "", "x", "abc", "01x", "0", "101", "IXQ", "XZ", "../x", "trotter:0", "trotter:8",
    "exact", "half", "quarter", "adiabatic", "schwinger-2q", "schwinger-4q",
    -3, -1, 0, 1, 5, -0.5, 0.25, 1.5, True, False, None,
    [], ["x"], [""], [1], {}, {"k": 1}, {"mode": "full"},
]
_KEYS = [
    "name", "description", "hamiltonian", "initial", "rounds", "backend", "shots",
    "seed", "observables", "noisy_energy", "prepare", "expected", "notes", "J",
    "n_qubits", "terms", "coeff", "axes", "mode", "energy_override", "ancillas",
    "kind", "total_time", "steps", "observable", "value", "tol", "round", "surprise",
]


def _nodes(node, path=()):
    """Every (path, value) pair of a JSON document, the root first."""
    yield path, node
    if isinstance(node, dict):
        children = list(node.items())
    elif isinstance(node, list):
        children = list(enumerate(node))
    else:
        return
    for key, child in children:
        yield from _nodes(child, path + (key,))


def _mutate(rng, data):
    """Apply one random edit to a manifest in place."""
    nodes = list(_nodes(data))
    objects = [node for _, node in nodes if isinstance(node, dict)]
    arrays = [node for _, node in nodes if isinstance(node, list)]
    kind = rng.choice(["drop", "add", "replace", "replace", "empty", "inline"])
    if kind == "inline":
        n_qubits = rng.randint(1, 3)
        terms = [
            {"coeff": rng.choice([0.5, -1, 2.25]), "axes": "".join(rng.choices("IXYZ", k=n_qubits))}
            for _ in range(rng.randint(1, 3))
        ]
        data["hamiltonian"] = {"n_qubits": n_qubits, "terms": terms}
    elif kind == "drop":
        node = rng.choice(objects)
        if node:
            del node[rng.choice(sorted(node))]
    elif kind == "add":
        rng.choice(objects)[rng.choice(_KEYS)] = copy.deepcopy(rng.choice(_VALUES))
    elif kind == "empty" and arrays:
        rng.choice(arrays).clear()
    else:
        path, _ = rng.choice(nodes[1:])
        parent = data
        for part in path[:-1]:
            parent = parent[part]
        parent[path[-1]] = copy.deepcopy(rng.choice(_VALUES))


def _under_hamiltonian(pointers):
    return {p for p in pointers if p == "/hamiltonian" or p.startswith("/hamiltonian/")}


def _reported_pointers(data):
    try:
        validate_manifest(data)
    except ManifestError as exc:
        prefix = "config error at "
        lines = str(exc).splitlines()
        return {line[len(prefix) :].split(": ", 1)[0] for line in lines if line.startswith(prefix)}
    return set()


def _corpus(name):
    """100 seeded mutations of a bundled manifest, each with one to three edits."""
    text = (Path(BUNDLED_DIR) / f"{name}.json").read_text(encoding="utf-8")
    rng = random.Random(EXPECTED_BUNDLED.index(name))
    for _ in range(100):
        data = json.loads(text)
        for _ in range(rng.randint(1, 3)):
            _mutate(rng, data)
        yield data


@pytest.mark.parametrize("name", EXPECTED_BUNDLED)
def test_validation_matches_json_schema_oracle(name):
    import jsonschema

    oracle = jsonschema.Draft202012Validator(ORACLE_SCHEMA)

    def pointer(path):
        return "/" + "/".join(str(p) for p in path)

    verdicts = set()
    for data in _corpus(name):
        expected, branch, branch_pointers = set(), None, set()
        for error in oracle.iter_errors(data):
            leaf = jsonschema.exceptions.best_match([error])
            expected.add(pointer(leaf.absolute_path))
            if leaf is not error:
                # only /hamiltonian has a oneOf; its best match took one branch
                branch = leaf.relative_schema_path[0]
                branch_pointers = {
                    pointer(e.absolute_path)
                    for e in error.context
                    if e.relative_schema_path[0] == branch
                }
        got = _reported_pointers(data)
        context = f"{json.dumps(data)}: got {sorted(got)}, oracle {sorted(expected)}"
        verdicts.add(bool(got))
        assert bool(got) == bool(expected), context
        assert got - _under_hamiltonian(got) == expected - _under_hamiltonian(expected), context
        got_h, expected_h = _under_hamiltonian(got), _under_hamiltonian(expected)
        hamiltonian = data.get("hamiltonian")
        # validation picks the /hamiltonian branch by the presence of "name"
        chosen = int("name" not in hamiltonian) if isinstance(hamiltonian, dict) else None
        if branch != chosen:
            assert bool(got_h) == bool(expected_h), context
        elif branch is None:
            assert got_h == expected_h, context
        else:
            # the oracle names one error of the branch: the best match
            assert expected_h <= got_h <= branch_pointers, context
    assert verdicts == {False, True}


def _messages(name):
    """The ManifestError text of each corpus case, None where it validates."""
    texts = []
    for data in _corpus(name):
        try:
            validate_manifest(data)
        except ManifestError as exc:
            texts.append(str(exc))
        else:
            texts.append(None)
    return texts


@pytest.fixture(scope="module")
def golden_messages():
    return json.loads(MESSAGES_GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", EXPECTED_BUNDLED)
def test_validation_messages_match_golden(name, golden_messages):
    assert _messages(name) == golden_messages[name]


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


def test_a_repeated_observable_is_refused_at_its_second_place():
    data = _base(observables=["H", "Z", "Q5", "Z"])
    with pytest.raises(ManifestError) as caught:
        parse_manifest(data)
    # the earlier refusal wins
    assert str(caught.value).startswith("config error at /observables/2: unknown observable")
    data = _base(observables=["Z", "H", "Z", "H"])
    with pytest.raises(ManifestError) as caught:
        parse_manifest(data)
    assert str(caught.value) == (
        "config error at /observables/2: observable 'Z' is listed more than once"
    )


@pytest.mark.parametrize("steps", [2**63, 10**400], ids=["2**63", "10**400"])
@pytest.mark.parametrize("where", ["/backend", "/prepare/steps"])
def test_step_counts_stay_below_2_63(where, steps):
    # 10**400 is past float range, where a step length would overflow
    if where == "/backend":
        data = _base(backend=f"trotter:{steps}")
    else:
        data = _base(prepare={"kind": "adiabatic", "steps": steps})
    with pytest.raises(ManifestError) as caught:
        parse_manifest(data)
    assert str(caught.value) == (
        f"config error at {where}: step count must be a positive integer below 2**63, got {steps}"
    )


@pytest.mark.parametrize("ancillas", [2**63, 10**400], ids=["2**63", "10**400"])
def test_ancilla_counts_stay_below_2_63(ancillas):
    data = _base(rounds=[{"mode": "quarter"}, {"mode": "quarter", "ancillas": ancillas}])
    with pytest.raises(ManifestError) as caught:
        parse_manifest(data)
    assert str(caught.value) == (
        "config error at /rounds/1/ancillas: "
        f"ancilla count must be a positive integer below 2**63, got {ancillas}"
    )


def test_the_largest_step_count_loads():
    manifest = parse_manifest(
        _base(backend=f"trotter:{2**63 - 1}", prepare={"kind": "adiabatic", "steps": 2**63 - 1})
    )
    assert manifest.config.backend.steps == manifest.prepare.steps == 2**63 - 1


def test_a_long_observable_index_is_out_of_range():
    data = _base(observables=["H", "Z" + "9" * 5000])
    with pytest.raises(ManifestError) as caught:
        parse_manifest(data)
    assert str(caught.value) == (
        f"config error at /observables/1: qubit {'9' * 5000} out of range for 1 qubit(s)"
    )


def test_a_backend_step_count_past_the_int_digit_limit_is_a_backend_error():
    # the RULES pattern takes any number of digits, and int() refuses over 4300 with its own error
    backend = "trotter:" + "9" * 5000
    with pytest.raises(ManifestError) as caught:
        parse_manifest(_base(backend=backend))
    assert str(caught.value) == (
        f"config error at /backend: unknown backend {backend!r}, "
        'expected "exact" or "trotter:<steps>"'
    )


def test_target_observable_must_be_listed():
    data = _base(expected=[{"observable": "Z", "value": 1.0, "tol": 0.1}])
    with pytest.raises(ManifestError, match="config error at /expected/0/observable"):
        parse_manifest(data)


def test_target_round_must_exist():
    data = _base(expected=[{"observable": "H", "value": 1.0, "tol": 0.1, "round": 7}])
    with pytest.raises(ManifestError, match="config error at /expected/0/round"):
        parse_manifest(data)


@pytest.mark.parametrize(
    "mode, override",
    [("full", 0), ("full", -0.0), ("quarter", 0), ("full", -5e-13), ("quarter", 1.5e-9)],
)
def test_a_zero_energy_override_is_a_config_error(mode, override):
    # schwinger-1q at J=1 is X + Z, of summed |coefficient| 2
    rounds = [
        {"mode": "quarter", "energy_override": 1.0},
        {"mode": mode, "energy_override": override},
    ]
    with pytest.raises(ManifestError) as caught:
        parse_manifest(_base(rounds=rounds))
    assert str(caught.value) == (
        f"config error at /rounds/1/energy_override: energy_override {override!r} "
        "is zero on the operator's scale: within 1e-09 times the summed |coefficient| 2.0, "
        "or so small that its period overflows; a filter round needs a nonzero energy"
    )
    # the tolerance is the run-time rule's, so an energy just past it passes
    rounds[1]["energy_override"] = -2.01e-9
    assert parse_manifest(_base(rounds=rounds)).config.rounds[1].energy_override == -2.01e-9
    # and the rule scales with the operator
    rounds[1]["energy_override"] = 1.5e-9
    manifest = parse_manifest(_base(hamiltonian={"name": "schwinger-1q", "J": 0.0}, rounds=rounds))
    assert manifest.config.rounds[1].energy_override == 1.5e-9


def test_noisy_energy_needs_shots():
    message = "config error at /noisy_energy: noisy_energy needs a shot count"
    with pytest.raises(ManifestError, match=f"^{message}$"):
        parse_manifest(_base(noisy_energy=True))


# ---------------------------------------------------------------------------
# parsing results


def test_defaults_after_parse():
    # an absent key takes the default of the engine type it lands in
    data = _base(rounds=[{"mode": "quarter"}, {"mode": "full"}])
    manifest = parse_manifest(data)
    assert manifest.config == TwirlConfig(rounds=manifest.config.rounds)
    assert manifest.config.rounds == (RoundSpec(TauMode.QUARTER), RoundSpec(TauMode.FULL))
    assert manifest == Manifest(
        name="unit",
        hamiltonian=data["hamiltonian"],
        initial="0",
        config=manifest.config,
        operator=hamiltonian_by_name("schwinger-1q", 1.0),
    )


def test_round_fields_are_parsed():
    data = _base(
        rounds=[
            {"mode": "full", "energy_override": -0.2, "ancillas": 3},
            {"mode": "quarter"},
        ]
    )
    manifest = parse_manifest(data)
    first, second = manifest.config.rounds
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
    op = parse_manifest(data).operator
    assert op.n_qubits == 2
    assert op.terms == ((0.5, "XX"), (1.0, "ZI"))


def test_inline_hamiltonian_axis_length_mismatch():
    data = _base(
        hamiltonian={"n_qubits": 2, "terms": [{"coeff": 1.0, "axes": "XXX"}]},
        initial="01",
    )
    with pytest.raises(ManifestError, match="config error at /hamiltonian"):
        parse_manifest(data)


def test_manifest_named_hamiltonian_builds():
    data = _base(hamiltonian={"name": "schwinger-3q", "J": 0.5}, initial="000")
    op = parse_manifest(data).operator
    assert op.n_qubits == 3
    assert op.terms[-1] == (0.5, "ZZI")


if __name__ == "__main__":
    pinned = {name: _messages(name) for name in EXPECTED_BUNDLED}
    MESSAGES_GOLDEN.write_text(json.dumps(pinned, indent=1) + "\n", encoding="utf-8")
