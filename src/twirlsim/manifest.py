"""Experiment manifests: JSON descriptions of filtering scenarios.

A manifest names a Hamiltonian (built-in by name, or inline as a term
list), an initial basis state, the round schedule, and optional targets
used as pass/fail checks. A set of ready-made scenarios ships with the
package and can be addressed by bare name from the command line.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from importlib import resources

import jsonschema

from .adiabatic import AdiabaticSchedule
from .pauli import PauliSum, hamiltonian_by_name, named_observable
from .twirl import Backend, RoundSpec, TauMode, TwirlConfig


class ManifestError(ValueError):
    """Raised for unreadable, invalid, or inconsistent manifests."""


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

SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["name", "hamiltonian", "initial", "rounds"],
    "additionalProperties": False,
    "properties": {
        "name": {"type": "string", "pattern": "^[A-Za-z0-9][A-Za-z0-9._-]*$"},
        "description": {"type": "string"},
        "hamiltonian": {
            "oneOf": [
                {
                    "type": "object",
                    "required": ["name"],
                    "additionalProperties": False,
                    "properties": {
                        "name": {
                            "enum": ["schwinger-1q", "schwinger-2q", "schwinger-3q"]
                        },
                        "J": {"type": "number", "minimum": 0},
                    },
                },
                _INLINE_HAMILTONIAN,
            ]
        },
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
        "shots": {"type": ["integer", "null"], "minimum": 1},
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


@dataclass(frozen=True)
class TargetSpec:
    """Pass/fail band for one observable after one round (None = final)."""

    observable: str
    value: float
    tol: float
    round_index: int | None = None


@dataclass(frozen=True)
class Manifest:
    """A validated scenario ready to run."""

    name: str
    hamiltonian: dict
    initial: str
    rounds: tuple[RoundSpec, ...]
    backend: Backend = Backend()
    shots: int | None = None
    seed: int = 0
    observables: tuple[str, ...] = ("H",)
    noisy_energy: bool = False
    prepare: AdiabaticSchedule | None = None
    targets: tuple[TargetSpec, ...] = ()
    description: str = ""
    notes: str = ""

    def build_hamiltonian(self) -> PauliSum:
        if "name" in self.hamiltonian:
            return hamiltonian_by_name(
                self.hamiltonian["name"], self.hamiltonian.get("J", 1.0)
            )
        return PauliSum.from_dict(self.hamiltonian)

    def to_config(self) -> TwirlConfig:
        return TwirlConfig(
            rounds=self.rounds,
            backend=self.backend,
            shots=self.shots,
            seed=self.seed,
            observables=self.observables,
            noisy_energy=self.noisy_energy,
        )


def _pointer(path) -> str:
    parts = "/".join(str(p) for p in path)
    return "/" + parts if parts else "/"


def validate_manifest(data: object) -> None:
    """Schema-check raw manifest data, naming the offending JSON pointer."""
    validator = jsonschema.Draft202012Validator(SCHEMA)
    errors = sorted(
        validator.iter_errors(data), key=lambda e: (list(map(str, e.absolute_path)), e.message)
    )
    if errors:
        lines = []
        for error in errors:
            leaf = jsonschema.exceptions.best_match([error])
            lines.append(f"config error at {_pointer(leaf.absolute_path)}: {leaf.message}")
        raise ManifestError("\n".join(dict.fromkeys(lines)))


def parse_manifest(data: dict) -> Manifest:
    """Validate raw data and build a Manifest, with cross-field checks."""
    validate_manifest(data)
    rounds = tuple(
        RoundSpec(
            mode=TauMode(r["mode"]),
            energy_override=r.get("energy_override"),
            ancillas=r.get("ancillas", 1),
        )
        for r in data["rounds"]
    )
    manifest = Manifest(
        name=data["name"],
        hamiltonian=data["hamiltonian"],
        initial=data["initial"],
        rounds=rounds,
        backend=Backend.parse(data.get("backend", "exact")),
        shots=data.get("shots"),
        seed=data.get("seed", 0),
        observables=tuple(data.get("observables", ["H"])),
        noisy_energy=data.get("noisy_energy", False),
        prepare=_parse_prepare(data.get("prepare")),
        targets=tuple(
            TargetSpec(
                observable=t["observable"],
                value=t["value"],
                tol=t["tol"],
                round_index=t.get("round"),
            )
            for t in data.get("expected", [])
        ),
        description=data.get("description", ""),
        notes=data.get("notes", ""),
    )
    _check_consistency(manifest)
    return manifest


def _parse_prepare(data: dict | None) -> AdiabaticSchedule | None:
    if data is None:
        return None
    return AdiabaticSchedule(
        total_time=data.get("total_time", 20.0), steps=data.get("steps", 400)
    )


def _check_consistency(manifest: Manifest) -> None:
    try:
        op = manifest.build_hamiltonian()
    except ValueError as exc:
        raise ManifestError(f"config error at /hamiltonian: {exc}") from None
    if len(manifest.initial) != op.n_qubits:
        raise ManifestError(
            f"config error at /initial: label {manifest.initial!r} has "
            f"{len(manifest.initial)} bit(s), hamiltonian acts on {op.n_qubits} qubit(s)"
        )
    for i, name in enumerate(manifest.observables):
        if name == "H":
            continue
        try:
            named_observable(name, op.n_qubits)
        except ValueError as exc:
            raise ManifestError(f"config error at /observables/{i}: {exc}") from None
    for i, target in enumerate(manifest.targets):
        if target.observable not in manifest.observables:
            raise ManifestError(
                f"config error at /expected/{i}/observable: {target.observable!r} "
                "is not among the manifest observables"
            )
        if target.round_index is not None and target.round_index > len(manifest.rounds):
            raise ManifestError(
                f"config error at /expected/{i}/round: round {target.round_index} "
                f"is beyond the last round {len(manifest.rounds)}"
            )
    if manifest.noisy_energy and manifest.shots is None:
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
