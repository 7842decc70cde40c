"""Experiment manifests: JSON descriptions of filtering scenarios.

A manifest names a Hamiltonian (built-in by name, or inline as a term
list), an initial basis state, the round schedule, and optional targets
used as pass/fail checks. A set of ready-made scenarios ships with the
package and can be addressed by bare name from the command line.

Validation runs a checker compiled from ``RULES`` once, at import: one
closure per rule, making only the tests that rule declares, with the
closures of an array's items and an object's fields under it. A value's
JSON pointer is built only when the value fails a test.
"""

from __future__ import annotations

import json
import os
import re
from collections.abc import Callable
from dataclasses import dataclass

from .adiabatic import AdiabaticSchedule
from .pauli import CHAINS, COUNT_LIMIT, PauliSum, _is_finite_real, hamiltonian_by_name
from .twirl import (
    BACKEND_PATTERN,
    ZERO_ENERGY_REL,
    Backend,
    RoundSpec,
    TauMode,
    TwirlConfig,
    ZeroEnergyError,
    choose_tau,
    resolve_observables,
)


BUNDLED_DIR = os.path.join(os.path.dirname(__file__), "manifests")


class ManifestError(ValueError):
    """Raised for unreadable, invalid, or inconsistent manifests."""


def _object(required: tuple[str, ...], **fields: dict) -> dict:
    return {"type": "object", "required": required, "fields": fields}


def _array(items: dict, nonempty: bool = True) -> dict:
    return {"type": "array", "nonempty": nonempty, "items": items}


_NUMBER = {"type": "number"}
_POSITIVE = {"type": "number", "above": 0}
_COUNT = {"type": "integer", "min": 1}
_TEXT = {"type": "string"}
_LABEL = {"type": "string", "nonempty": True}

# The manifest rules. A rule may give a "type" (a key of _TYPES), "null"
# (None is allowed too), "enum" (the allowed values), "pattern" (to match
# in full), a lower bound "min" (inclusive) or "above" (exclusive), an
# upper bound "max" (inclusive), "nonempty", the rule of each array
# element ("items"), and the "fields" of an object with the "required"
# ones (any other key is an error). The hamiltonian is "named" when it
# has a "name" key and "inline" otherwise, the same choice
# _check_consistency makes when it builds the operator. _compile turns the
# rules into the checker validate_manifest runs, and refuses a key it does
# not know, so a misspelled bound cannot pass as no bound.
RULES = _object(
    ("name", "hamiltonian", "initial", "rounds"),
    name={"type": "string", "pattern": "[A-Za-z0-9][A-Za-z0-9._-]*"},
    description=_TEXT,
    hamiltonian={
        "type": "object",
        "named": _object(
            ("name",),
            name={"enum": tuple(CHAINS)},
            J={"type": "number", "min": 0},
        ),
        "inline": _object(
            ("n_qubits", "terms"),
            n_qubits=_COUNT,
            terms=_array(
                _object(
                    ("coeff", "axes"), coeff=_NUMBER, axes={"type": "string", "pattern": "[IXYZ]+"}
                )
            ),
        ),
    },
    initial={"type": "string", "pattern": "[01]+"},
    rounds=_array(
        _object(
            ("mode",), mode={"enum": ("quarter", "full")}, energy_override=_NUMBER, ancillas=_COUNT
        )
    ),
    backend={"type": "string", "pattern": BACKEND_PATTERN},
    shots={"type": "integer", "null": True, "min": 1, "max": COUNT_LIMIT - 1},
    seed={"type": "integer", "min": 0},
    observables=_array(_LABEL),
    noisy_energy={"type": "boolean"},
    prepare=_object(("kind",), kind={"enum": ("adiabatic",)}, total_time=_POSITIVE, steps=_COUNT),
    expected=_array(
        _object(
            ("observable", "value", "tol"),
            observable=_LABEL,
            value=_NUMBER,
            tol=_POSITIVE,
            round={"type": "integer", "min": 0},
        ),
        nonempty=False,
    ),
    notes=_TEXT,
)


@dataclass(frozen=True)
class TargetSpec:
    """Pass/fail band for one observable after one round (None = final)."""

    observable: str
    value: float
    tol: float
    round: int | None = None


@dataclass(frozen=True)
class Manifest:
    """A validated scenario ready to run, its protocol settings in ``config``,
    its Hamiltonian in ``operator`` and, as written, in ``hamiltonian``."""

    name: str
    hamiltonian: dict
    initial: str
    config: TwirlConfig
    operator: PauliSum
    prepare: AdiabaticSchedule | None = None
    targets: tuple[TargetSpec, ...] = ()
    description: str = ""
    notes: str = ""


# A compiled rule: check(value, where, errors) appends a (where, message) pair to
# errors for each broken rule, where is None at the root and (parent's where,
# key) below it, so a JSON pointer is only built for a value that fails.
_Check = Callable[[object, tuple | None, list], None]

# JSON type -> (test, what a failure expects); a boolean is no integer, and a
# number is a finite int or float, by the engine's rule for real numbers
_TYPES = {
    "object": (lambda value: isinstance(value, dict), "a JSON object"),
    "array": (lambda value: isinstance(value, list), "a JSON array"),
    "string": (lambda value: isinstance(value, str), "a JSON string"),
    "boolean": (lambda value: isinstance(value, bool), "a JSON boolean"),
    "integer": (
        lambda value: isinstance(value, int) and not isinstance(value, bool),
        "a JSON integer",
    ),
    "number": (
        lambda value: isinstance(value, (int, float)) and _is_finite_real(value),
        "a finite number",
    ),
}

_RULE_KEYS = frozenset(
    {"type", "null", "enum", "pattern", "min", "above", "max", "nonempty", "items"}
    | {"fields", "required", "named", "inline"}
)


def _compile(rule: dict) -> _Check:
    """The check of ``rule``: the tests it declares, then the checks of its items,
    its named or inline form, or its fields; raises on an unknown rule key."""
    unknown = rule.keys() - _RULE_KEYS
    if unknown:
        raise ValueError(f"unknown rule key(s) {sorted(unknown)} in {rule!r}")
    nullable = rule.get("null", False)
    is_type, type_text = _TYPES[rule["type"]] if "type" in rule else (None, "")
    # (broken(value), what a failure expects), run once the type test passed
    tests = []
    if "enum" in rule:
        allowed = rule["enum"]
        tests.append((lambda value: value not in allowed, f"one of {list(allowed)}"))
    if "pattern" in rule:
        fullmatch = re.compile(rule["pattern"]).fullmatch
        tests.append((lambda value: fullmatch(value) is None, f"a match for {rule['pattern']!r}"))
    if "min" in rule:
        low = rule["min"]
        tests.append((lambda value: value < low, f"at least {low}"))
    if "above" in rule:
        floor = rule["above"]
        tests.append((lambda value: value <= floor, f"more than {floor}"))
    if "max" in rule:
        high = rule["max"]
        tests.append((lambda value: value > high, f"at most {high}"))
    if rule.get("nonempty"):
        tests.append((lambda value: not value, "a non-empty value"))

    items = _compile(rule["items"]) if "items" in rule else None
    forms = {form: _compile(rule[form]) for form in ("named", "inline") if form in rule}
    required = rule.get("required", ())
    fields = {key: _compile(f) for key, f in rule["fields"].items()} if "fields" in rule else None

    def check(value: object, where: tuple | None, errors: list) -> None:
        if value is None and nullable:
            return
        if is_type is not None and not is_type(value):
            errors.append((where, f"expected {type_text}, got {value!r}"))
            return
        for broken, expected in tests:
            if broken(value):
                errors.append((where, f"expected {expected}, got {value!r}"))
        if items is not None:
            for index, item in enumerate(value):
                items(item, (where, index), errors)
        elif forms:
            forms["named" if "name" in value else "inline"](value, where, errors)
        elif fields is not None:
            for key in required:
                if key not in value:
                    errors.append((where, f"missing required property {key!r}"))
            for key, item in value.items():
                field_check = fields.get(key)
                if field_check is None:
                    errors.append((where, f"unexpected property {key!r}"))
                else:
                    field_check(item, (where, key), errors)

    return check


def _pointer(where: tuple | None) -> str:
    keys = []
    while where is not None:
        where, key = where
        keys.append(f"/{key}")
    return "".join(reversed(keys))


_CHECK = _compile(RULES)


def validate_manifest(data: object) -> None:
    """Check raw manifest data against RULES, naming the offending JSON pointer."""
    found: list = []
    _CHECK(data, None, found)
    if found:
        errors = [(_pointer(where), message) for where, message in found]
        errors.sort(key=lambda e: (e[0].split("/"), e[1]))
        lines = [f"config error at {path or '/'}: {message}" for path, message in errors]
        raise ManifestError("\n".join(dict.fromkeys(lines)))


def parse_manifest(data: dict) -> Manifest:
    """Validate raw data and build a Manifest, with cross-field checks.

    Only the keys present are passed on, so an absent one takes the default
    its type declares: TwirlConfig, RoundSpec, AdiabaticSchedule, TargetSpec
    or Manifest.
    """
    validate_manifest(data)
    operator = _check_consistency(data)
    settings = _given(data, "shots", "seed", "observables", "noisy_energy")
    if "backend" in data:
        settings["backend"] = _at("/backend", Backend.parse, data["backend"])
    # RULES checks every other RoundSpec field, so only the ancilla bound can refuse
    rounds = [
        _at(f"/rounds/{k}/ancillas", lambda: RoundSpec(**{**r, "mode": TauMode(r["mode"])}))
        for k, r in enumerate(data["rounds"])
    ]
    fields = _given(data, "description", "notes")
    if "prepare" in data:
        prepare = _given(data["prepare"], "total_time", "steps")
        # RULES bounds the total time, so only the step count can refuse
        fields["prepare"] = _at("/prepare/steps", lambda: AdiabaticSchedule(**prepare))
    if "expected" in data:
        fields["targets"] = tuple(TargetSpec(**t) for t in data["expected"])
    # RULES already bounds every other TwirlConfig field, so only its noisy_energy rule can refuse
    config = _at("/noisy_energy", lambda: TwirlConfig(rounds, **settings))
    return Manifest(data["name"], data["hamiltonian"], data["initial"], config, operator, **fields)


def _given(data: dict, *keys: str) -> dict:
    return {key: data[key] for key in keys if key in data}


def _at(pointer: str, build: Callable, *args: object) -> object:
    """``build(*args)``, its ValueError reported as a config error at ``pointer``."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ManifestError(f"config error at {pointer}: {exc}") from None


def _check_consistency(data: dict) -> PauliSum:
    """Cross-field checks on validated data; returns the Hamiltonian they built."""
    spec = data["hamiltonian"]
    if "name" in spec:
        op = _at("/hamiltonian", hamiltonian_by_name, spec["name"], spec.get("J", 1.0))
    else:
        op = _at("/hamiltonian", PauliSum.from_dict, spec)
    initial = data["initial"]
    if len(initial) != op.n_qubits:
        raise ManifestError(
            f"config error at /initial: label {initial!r} has "
            f"{len(initial)} bit(s), hamiltonian acts on {op.n_qubits} qubit(s)"
        )
    for k, spec in enumerate(data["rounds"]):
        if "energy_override" not in spec:
            continue
        # choose_tau's rule, refused here since a fixed energy cannot become nonzero at run time
        try:
            choose_tau(spec["energy_override"], TauMode.FULL, op._norm_bound)
        except ZeroEnergyError:
            raise ManifestError(
                f"config error at /rounds/{k}/energy_override: energy_override "
                f"{spec['energy_override']!r} is zero on the operator's scale: within "
                f"{ZERO_ENERGY_REL} times the summed |coefficient| {op._norm_bound!r}, "
                "or so small that its period overflows; a filter round needs a nonzero energy"
            ) from None
    observables = tuple(data.get("observables", TwirlConfig.observables))
    try:
        resolve_observables(observables, op)
    except ValueError:
        # the shortest prefix refused ends at the name to point at
        for i in range(len(observables)):
            _at(f"/observables/{i}", resolve_observables, observables[: i + 1], op)
    for i, target in enumerate(data.get("expected", ())):
        if target["observable"] not in observables:
            raise ManifestError(
                f"config error at /expected/{i}/observable: {target['observable']!r} "
                "is not among the manifest observables"
            )
        if "round" in target and target["round"] > len(data["rounds"]):
            raise ManifestError(
                f"config error at /expected/{i}/round: round {target['round']} "
                f"is beyond the last round {len(data['rounds'])}"
            )
    return op


def json_entries(directory: str) -> list[str]:
    """The ``*.json`` entries of ``directory``, sorted."""
    return sorted(entry for entry in os.listdir(directory) if entry.endswith(".json"))


def bundled_names() -> list[str]:
    """Names of the scenarios shipped with the package."""
    return [entry[: -len(".json")] for entry in json_entries(BUNDLED_DIR)]


def _read(path: str) -> dict | None:
    """The manifest object in the file at ``path``, None when no file is there."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except FileNotFoundError:
        return None
    except (OSError, ValueError) as exc:
        raise ManifestError(f"config error in {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ManifestError("config error at /: manifest must be a JSON object")
    return data


def load_manifest(source: str | os.PathLike) -> Manifest:
    """Load a manifest from a file path or, when no file is there, a bundled scenario name."""
    path = os.fspath(source)
    data = _read(path)
    if data is None:
        name = path[: -len(".json")] if path.endswith(".json") else path
        data = _read(os.path.join(BUNDLED_DIR, f"{name}.json"))
    if data is None:
        raise ManifestError(
            f"config error: {path!r} is neither a file nor a bundled scenario; "
            f"bundled scenarios: {', '.join(bundled_names())}"
        )
    return parse_manifest(data)
