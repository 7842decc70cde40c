"""Experiment manifests: JSON descriptions of filtering scenarios.

A manifest names a Hamiltonian (built-in by name, or inline as a term
list), an initial basis state, the round schedule, and optional targets
used as pass/fail checks. A set of ready-made scenarios ships with the
package and can be addressed by bare name from the command line.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass
from importlib import resources

from .adiabatic import AdiabaticSchedule
from .pauli import PauliSum, hamiltonian_by_name, named_observable
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
# has a "name" key and "inline" otherwise, the same choice
# Manifest.build_hamiltonian makes.
RULES = _object(
    ("name", "hamiltonian", "initial", "rounds"),
    name={"type": "string", "pattern": "[A-Za-z0-9][A-Za-z0-9._-]*"},
    description=_TEXT,
    hamiltonian={
        "type": "object",
        "named": _object(
            ("name",),
            name={"enum": ("schwinger-1q", "schwinger-2q", "schwinger-3q")},
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
    round_index: int | None = None


@dataclass(frozen=True)
class Manifest:
    """A validated scenario ready to run, its protocol settings in ``config``."""

    name: str
    hamiltonian: dict
    initial: str
    config: TwirlConfig
    prepare: AdiabaticSchedule | None = None
    targets: tuple[TargetSpec, ...] = ()
    description: str = ""
    notes: str = ""

    def build_hamiltonian(self) -> PauliSum:
        return _hamiltonian(self.hamiltonian)


def _hamiltonian(spec: dict) -> PauliSum:
    if "name" in spec:
        return hamiltonian_by_name(spec["name"], spec.get("J", 1.0))
    return PauliSum.from_dict(spec)


# JSON type -> Python types; a boolean is no integer and a number is finite
_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "integer": int,
    "number": (int, float),
}


def _check(value: object, rule: dict, path: str, errors: list) -> None:
    """Append a (JSON pointer, message) pair to ``errors`` for each broken rule."""

    def fail(expected: str) -> None:
        errors.append((path, f"expected {expected}, got {value!r}"))

    if value is None and rule.get("null"):
        return
    kind = rule.get("type")
    if kind is not None and not (
        isinstance(value, _TYPES[kind])
        and isinstance(value, bool) == (kind == "boolean")
        and (kind != "number" or math.isfinite(value))
    ):
        fail("a finite number" if kind == "number" else f"a JSON {kind}")
        return
    if "enum" in rule and value not in rule["enum"]:
        fail(f"one of {list(rule['enum'])}")
    if "pattern" in rule and not re.fullmatch(rule["pattern"], value):
        fail(f"a match for {rule['pattern']!r}")
    if "min" in rule and value < rule["min"]:
        fail(f"at least {rule['min']}")
    if "above" in rule and value <= rule["above"]:
        fail(f"more than {rule['above']}")
    if "max" in rule and value > rule["max"]:
        fail(f"at most {rule['max']}")
    if rule.get("nonempty") and not value:
        fail("a non-empty value")
    for index, item in enumerate(value if "items" in rule else ()):
        _check(item, rule["items"], f"{path}/{index}", errors)
    if "named" in rule:
        rule = rule["named"] if "name" in value else rule["inline"]
    for key in rule.get("required", ()):
        if key not in value:
            errors.append((path, f"missing required property {key!r}"))
    for key, item in value.items() if "fields" in rule else ():
        if key in rule["fields"]:
            _check(item, rule["fields"][key], f"{path}/{key}", errors)
        else:
            errors.append((path, f"unexpected property {key!r}"))


def validate_manifest(data: object) -> None:
    """Check raw manifest data against RULES, naming the offending JSON pointer."""
    errors: list = []
    _check(data, RULES, "", errors)
    if errors:
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
    _check_consistency(data)
    settings = _given(data, "shots", "seed", "observables", "noisy_energy")
    if "backend" in data:
        settings["backend"] = Backend.parse(data["backend"])
    rounds = [RoundSpec(**{**r, "mode": TauMode(r["mode"])}) for r in data["rounds"]]
    fields = _given(data, "description", "notes")
    if "prepare" in data:
        fields["prepare"] = AdiabaticSchedule(**_given(data["prepare"], "total_time", "steps"))
    if "expected" in data:
        fields["targets"] = tuple(
            TargetSpec(**{"round_index" if k == "round" else k: v for k, v in t.items()})
            for t in data["expected"]
        )
    config = TwirlConfig(rounds, **settings)
    return Manifest(data["name"], data["hamiltonian"], data["initial"], config, **fields)


def _given(data: dict, *keys: str) -> dict:
    return {key: data[key] for key in keys if key in data}


def _check_consistency(data: dict) -> None:
    """Cross-field checks on validated data, made before the TwirlConfig is built."""
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
    if os.path.exists(path):
        try:
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError) as exc:
            raise ManifestError(f"config error in {path}: {exc}") from None
    else:
        name = path[: -len(".json")] if path.endswith(".json") else path
        entry = resources.files(__package__) / "manifests" / f"{name}.json"
        if not entry.is_file():
            known = ", ".join(bundled_names())
            raise ManifestError(
                f"config error: {path!r} is neither a file nor a bundled scenario; "
                f"bundled scenarios: {known}"
            )
        data = json.loads(entry.read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise ManifestError("config error at /: manifest must be a JSON object")
    return parse_manifest(data)
