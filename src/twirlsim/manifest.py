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
from importlib import resources

from .adiabatic import AdiabaticSchedule
from .pauli import CHAINS, PauliSum, _is_finite_real, hamiltonian_by_name, named_observable
from .twirl import BACKEND_PATTERN, Backend, RoundSpec, TauMode, TwirlConfig


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
# has a "name" key and "inline" otherwise, the same choice _hamiltonian
# makes. _compile turns the rules into the checker validate_manifest runs,
# and refuses a key it does not know, so a misspelled bound cannot pass as
# no bound.
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
    # numpy's binomial draws take the count as a 64-bit C long
    shots={"type": "integer", "null": True, "min": 1, "max": 2**63 - 1},
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


def _hamiltonian(spec: dict) -> PauliSum:
    if "name" in spec:
        return hamiltonian_by_name(spec["name"], spec.get("J", 1.0))
    return PauliSum.from_dict(spec)


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
    """The check of ``rule``, running only the tests it declares; raises on an unknown key."""
    inner = _inner(rule)
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

    def check(value: object, where: tuple | None, errors: list) -> None:
        if value is None and nullable:
            return
        if is_type is not None and not is_type(value):
            errors.append((where, f"expected {type_text}, got {value!r}"))
            return
        for broken, expected in tests:
            if broken(value):
                errors.append((where, f"expected {expected}, got {value!r}"))
        if inner is not None:
            inner(value, where, errors)

    return check


def _inner(rule: dict) -> _Check | None:
    """The check of an array's items or an object's keys, None for a scalar rule."""
    unknown = rule.keys() - _RULE_KEYS
    if unknown:
        raise ValueError(f"unknown rule key(s) {sorted(unknown)} in {rule!r}")
    if "items" in rule:
        item_check = _compile(rule["items"])

        def items(value: list, where: tuple | None, errors: list) -> None:
            for index, item in enumerate(value):
                item_check(item, (where, index), errors)

        return items
    if "named" in rule:
        named, inline = _inner(rule["named"]), _inner(rule["inline"])
        return lambda value, where, errors: (named if "name" in value else inline)(
            value, where, errors
        )
    if "fields" not in rule:
        return None
    required = rule.get("required", ())
    field_checks = {key: _compile(field) for key, field in rule["fields"].items()}

    def keys(value: dict, where: tuple | None, errors: list) -> None:
        for key in required:
            if key not in value:
                errors.append((where, f"missing required property {key!r}"))
        for key, item in value.items():
            field_check = field_checks.get(key)
            if field_check is None:
                errors.append((where, f"unexpected property {key!r}"))
            else:
                field_check(item, (where, key), errors)

    return keys


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
        settings["backend"] = Backend.parse(data["backend"])
    rounds = [RoundSpec(**{**r, "mode": TauMode(r["mode"])}) for r in data["rounds"]]
    fields = _given(data, "description", "notes")
    if "prepare" in data:
        fields["prepare"] = AdiabaticSchedule(**_given(data["prepare"], "total_time", "steps"))
    if "expected" in data:
        fields["targets"] = tuple(TargetSpec(**t) for t in data["expected"])
    config = TwirlConfig(rounds, **settings)
    return Manifest(data["name"], data["hamiltonian"], data["initial"], config, operator, **fields)


def _given(data: dict, *keys: str) -> dict:
    return {key: data[key] for key in keys if key in data}


def _check_consistency(data: dict) -> PauliSum:
    """Cross-field checks on validated data; returns the Hamiltonian they built."""
    try:
        op = _hamiltonian(data["hamiltonian"])
    except ValueError as exc:
        raise ManifestError(f"config error at /hamiltonian: {exc}") from None
    initial = data["initial"]
    if len(initial) != op.n_qubits:
        raise ManifestError(
            f"config error at /initial: label {initial!r} has "
            f"{len(initial)} bit(s), hamiltonian acts on {op.n_qubits} qubit(s)"
        )
    observables = data.get("observables", TwirlConfig.observables)
    for i, name in enumerate(observables):
        if name == "H":
            continue
        try:
            named_observable(name, op.n_qubits)
        except ValueError as exc:
            raise ManifestError(f"config error at /observables/{i}: {exc}") from None
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
    if data.get("noisy_energy") and data.get("shots") is None:
        raise ManifestError("config error at /noisy_energy: needs a shot count")
    return op


def bundled_names() -> list[str]:
    """Names of the scenarios shipped with the package."""
    root = resources.files(__package__) / "manifests"
    return sorted(
        entry.name[: -len(".json")]
        for entry in root.iterdir()
        if entry.name.endswith(".json")
    )


def load_manifest(source: str | os.PathLike) -> Manifest:
    """Load a manifest from a file path or a bundled scenario name."""
    path = os.fspath(source)
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except FileNotFoundError:
        name = path[: -len(".json")] if path.endswith(".json") else path
        entry = resources.files(__package__) / "manifests" / f"{name}.json"
        if not entry.is_file():
            known = ", ".join(bundled_names())
            raise ManifestError(
                f"config error: {path!r} is neither a file nor a bundled scenario; "
                f"bundled scenarios: {known}"
            ) from None
        data = json.loads(entry.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ManifestError(f"config error in {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ManifestError("config error at /: manifest must be a JSON object")
    return parse_manifest(data)
