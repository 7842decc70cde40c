"""Command line front end.

Subcommands:

* ``spectrum``: numeric and analytic eigenvalues of a built-in chain.
* ``run``: execute one scenario manifest and check its targets.
* ``trotter-scan``: split-step error against the exact propagator.
* ``batch``: run every manifest in a directory (or all bundled ones) in
  order, one verdict per line. A manifest that cannot be read or run is
  reported on its own line and the batch goes on.

Exit codes: 0 on success, 1 when a target check fails, 2 for unusable
configuration or arguments; ``batch`` exits with the worst code of its
scenarios. Output carries no timestamps or machine details, so identical
invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .adiabatic import AdiabaticSchedule, adiabatic_prepare, staggered_start
from .manifest import Manifest, ManifestError, bundled_names, load_manifest
from .pauli import expectation, schwinger_hamiltonian, single_z, observable_zbar
from .spectral import closed_form_spectrum, eigendecompose
from .state import StateVector
from .trotter import trotter_error
from .twirl import Backend, PostSelectionError, RoundRecord, run_protocol

EXIT_OK = 0
EXIT_TARGET = 1
EXIT_CONFIG = 2

# ManifestError and ZeroEnergyError are ValueErrors
_FAILURES = (ValueError, PostSelectionError)


def _error_text(exc: Exception) -> str:
    return str(exc) if isinstance(exc, ManifestError) else f"config error: {exc}"


def _write_atomic(path: str, text: str) -> None:
    # write to a sibling temp file, then rename over the destination
    directory = os.path.dirname(path) or "."
    handle, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as tmp:
            tmp.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _emit(text: str, out_dir: str | None, filename: str) -> None:
    if out_dir is None:
        sys.stdout.write(text)
        return
    os.makedirs(out_dir, exist_ok=True)
    _write_atomic(os.path.join(out_dir, filename), text)


def _fmt(value: float | None, precision: int = 6) -> str:
    if value is None:
        return "-"
    text = f"{value:.{precision}f}"
    # a value that rounds to zero prints without a stray minus sign
    if text.startswith("-") and float(text) == 0.0:
        text = text[1:]
    return text


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _lines(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


def _csv(header: list[str], rows) -> str:
    return _lines([",".join(header)] + [",".join(map(_csv_cell, row)) for row in rows])


def _json(payload: dict) -> str:
    payload = {**payload, "tool_version": __version__}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _render(args: argparse.Namespace, stem: str, *, text, csv, json) -> bool:
    """Write the ``args.format`` rendering to stdout or into ``args.out``.

    The renderers are called lazily, so only the chosen one runs. Returns
    whether the text rendering went to stdout.
    """
    renderers = {"text": (text, "txt"), "csv": (csv, "csv"), "json": (json, "json")}
    render, ext = renderers[args.format]
    _emit(render(), args.out, f"{stem}.{ext}")
    return args.out is None and args.format == "text"


# ---------------------------------------------------------------- spectrum


def _spectrum_observable(n_qubits: int):
    if n_qubits == 3:
        return "Zbar", observable_zbar()
    if n_qubits == 2:
        return "Z0", single_z(2, 0)
    return "Z", single_z(1, 0)


def _spectrum_rows(n_qubits: int, coupling: float):
    numeric = eigendecompose(schwinger_hamiltonian(n_qubits, coupling))
    closed = closed_form_spectrum(n_qubits, coupling)
    obs_name, obs = _spectrum_observable(n_qubits)
    rows = []
    for i in range(closed.dim):
        rows.append(
            {
                "index": i,
                "energy": float(numeric.eigenvalues[i]),
                "closed_form": float(closed.eigenvalues[i]),
                obs_name: expectation(closed.eigenstate(i), obs),
            }
        )
    deviation = float(np.max(np.abs(numeric.eigenvalues - closed.eigenvalues)))
    return rows, obs_name, deviation


def cmd_spectrum(args: argparse.Namespace) -> int:
    rows, obs_name, deviation = _spectrum_rows(args.qubits, args.j)
    title = f"schwinger-{args.qubits}q"
    columns = ["index", "energy", "closed_form", obs_name]

    def text() -> str:
        lines = [f"spectrum {title}  J={args.j:g}"]
        lines.append(f"{'index':<6}{'energy':>14}{'closed_form':>14}{'<' + obs_name + '>':>12}")
        for row in rows:
            lines.append(
                f"{row['index']:<6}{_fmt(row['energy']):>14}"
                f"{_fmt(row['closed_form']):>14}{_fmt(row[obs_name]):>12}"
            )
        lines.append(f"max |energy - closed_form| = {deviation:.3e}")
        return _lines(lines)

    _render(
        args,
        f"spectrum-{title}-J{args.j:g}",
        text=text,
        csv=lambda: _csv(columns, ([row[c] for c in columns] for row in rows)),
        json=lambda: _json(
            {
                "hamiltonian": {"name": title, "J": args.j},
                "levels": rows,
                "max_deviation": deviation,
            }
        ),
    )
    return EXIT_OK


# --------------------------------------------------------------------- run


@dataclass(frozen=True)
class TargetResult:
    observable: str
    round_index: int
    value: float
    tol: float
    actual: float
    ok: bool


@dataclass(frozen=True)
class RunResult:
    manifest: Manifest
    records: list[RoundRecord]
    targets: list[TargetResult]

    @property
    def ok(self) -> bool:
        return all(t.ok for t in self.targets)


def execute_manifest(manifest: Manifest) -> RunResult:
    """Run one scenario and check its targets."""
    op = manifest.build_hamiltonian()
    config = manifest.to_config()
    if manifest.prepare is None:
        initial: StateVector | str = manifest.initial
    else:
        initial = adiabatic_prepare(
            manifest.initial,
            staggered_start(op.n_qubits),
            op,
            manifest.prepare,
            config.backend,
        )
    records = run_protocol(initial, op, config)
    checks = []
    for target in manifest.targets:
        round_index = (
            len(manifest.rounds) if target.round_index is None else target.round_index
        )
        actual = records[round_index].expectations[target.observable]
        checks.append(
            TargetResult(
                observable=target.observable,
                round_index=round_index,
                value=target.value,
                tol=target.tol,
                actual=actual,
                ok=abs(actual - target.value) <= target.tol,
            )
        )
    return RunResult(manifest=manifest, records=records, targets=checks)


def _hamiltonian_label(manifest: Manifest) -> str:
    if "name" in manifest.hamiltonian:
        return f"{manifest.hamiltonian['name']} J={manifest.hamiltonian.get('J', 1.0):g}"
    return f"inline ({manifest.hamiltonian['n_qubits']} qubits)"


def _run_text(result: RunResult, check: bool) -> str:
    manifest = result.manifest
    lines = [f"scenario {manifest.name}"]
    if manifest.description:
        lines.append(f"  {manifest.description}")
    lines.append(f"  hamiltonian: {_hamiltonian_label(manifest)}")
    lines.append(f"  initial: |{manifest.initial}>")
    shots = "none" if manifest.shots is None else str(manifest.shots)
    lines.append(f"  backend: {manifest.backend.label()}  shots: {shots}  seed: {manifest.seed}")
    if manifest.prepare is not None:
        lines.append(
            f"  prepare: adiabatic ramp, total_time={manifest.prepare.total_time:g}, "
            f"steps={manifest.prepare.steps}"
        )
    modes = " ".join(
        f"{spec.mode.value}x{spec.ancillas}"
        + ("" if spec.energy_override is None else f"(E={spec.energy_override:g})")
        for spec in manifest.rounds
    )
    lines.append(f"  rounds: {modes}")
    lines.append("")
    obs_names = list(manifest.observables)
    header = f"{'round':<6}{'energy_used':>13}{'tau':>11}{'p_round':>10}{'p_cum':>10}"
    if manifest.shots is not None:
        header += f"{'active':>10}"
    for name in obs_names:
        header += f"{'<' + name + '>':>12}"
    lines.append(header)
    for record in result.records:
        row = (
            f"{record.round_index:<6}"
            f"{_fmt(record.energy_used):>13}"
            f"{_fmt(record.tau):>11}"
            f"{record.p_round:>10.6f}"
            f"{record.p_cumulative:>10.6f}"
        )
        if manifest.shots is not None:
            row += f"{record.active_count:>10}"
        for name in obs_names:
            row += f"{_fmt(record.expectations[name]):>12}"
        lines.append(row)
    if check and result.targets:
        lines.append("")
        for target in result.targets:
            verdict = "ok" if target.ok else "VIOLATED"
            lines.append(
                f"check <{target.observable}> @ round {target.round_index}: "
                f"{target.actual:.6f} vs {target.value:.6f} +/- {target.tol:g}  {verdict}"
            )
        bad = sum(not t.ok for t in result.targets)
        lines.append("all targets satisfied" if bad == 0 else f"{bad} target(s) violated")
    if manifest.notes:
        lines.append(f"note: {manifest.notes}")
    return _lines(lines)


def _run_csv(result: RunResult) -> str:
    obs_names = list(result.manifest.observables)
    return _csv(
        ["round", "E_used", "tau", "p_round", "p_cum", "active_count"] + obs_names,
        (
            [r.round_index, r.energy_used, r.tau, r.p_round, r.p_cumulative, r.active_count]
            + [r.expectations[name] for name in obs_names]
            for r in result.records
        ),
    )


def _run_json(result: RunResult, check: bool) -> str:
    manifest = result.manifest
    payload = {
        "name": manifest.name,
        "hamiltonian": manifest.hamiltonian,
        "initial": manifest.initial,
        "backend": manifest.backend.label(),
        "shots": manifest.shots,
        "seed": manifest.seed,
        "prepare": None
        if manifest.prepare is None
        else {
            "kind": "adiabatic",
            "total_time": manifest.prepare.total_time,
            "steps": manifest.prepare.steps,
        },
        "rounds": [
            {
                "round": record.round_index,
                "mode": None
                if record.round_index == 0
                else manifest.rounds[record.round_index - 1].mode.value,
                "energy_used": record.energy_used,
                "tau": record.tau,
                "prefactor": None
                if record.prefactor is None
                else [record.prefactor.real, record.prefactor.imag],
                "p_round": record.p_round,
                "p_cumulative": record.p_cumulative,
                "active_count": record.active_count,
                "expectations": record.expectations,
            }
            for record in result.records
        ],
    }
    if manifest.notes:
        payload["notes"] = manifest.notes
    if check:
        payload["targets"] = [
            {
                "observable": t.observable,
                "round": t.round_index,
                "value": t.value,
                "tol": t.tol,
                "actual": t.actual,
                "ok": t.ok,
            }
            for t in result.targets
        ]
        payload["ok"] = result.ok
    return _json(payload)


def _parse_prepare_flag(text: str) -> AdiabaticSchedule | None:
    if text == "none":
        return None
    if text == "adiabatic":
        return AdiabaticSchedule()
    if text.startswith("adiabatic:"):
        schedule = {}
        for part in text.split(":", 1)[1].split(","):
            if "=" not in part:
                raise ValueError(f"malformed prepare option {part!r}")
            key, raw = part.split("=", 1)
            if key == "T":
                schedule["total_time"] = float(raw)
            elif key == "steps":
                schedule["steps"] = int(raw)
            else:
                raise ValueError(f"unknown prepare option {key!r}")
        return AdiabaticSchedule(**schedule)
    raise ValueError('prepare must be "none", "adiabatic", or "adiabatic:T=..,steps=.."')


def _add_override_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--backend", help='"exact" or "trotter:<steps>"')
    parser.add_argument("--shots", help='shot count, or "none" for exact expectations')
    parser.add_argument("--seed", type=int, help="seed for shot-noise emulation")
    parser.add_argument(
        "--prepare", help='"none", "adiabatic", or "adiabatic:T=<time>,steps=<n>"'
    )


def _run_overrides(args: argparse.Namespace) -> dict:
    overrides: dict = {}
    if args.backend is not None:
        overrides["backend"] = Backend.parse(args.backend)
    if args.shots is not None:
        overrides["shots"] = None if args.shots == "none" else int(args.shots)
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.prepare is not None:
        overrides["prepare"] = _parse_prepare_flag(args.prepare)
    return overrides


def cmd_run(args: argparse.Namespace) -> int:
    manifest = replace(load_manifest(args.config), **_run_overrides(args))
    result = execute_manifest(manifest)
    check = not args.no_check
    shown = _render(
        args,
        manifest.name,
        text=lambda: _run_text(result, check),
        csv=lambda: _run_csv(result),
        json=lambda: _run_json(result, check),
    )
    if not check or result.ok:
        return EXIT_OK
    if not shown:
        # the text verdict is not on stdout, so name the violations on stderr
        for target in result.targets:
            if not target.ok:
                sys.stderr.write(
                    f"{manifest.name}: <{target.observable}> @ round "
                    f"{target.round_index} = {target.actual:.6f}, wanted "
                    f"{target.value:.6f} +/- {target.tol:g}\n"
                )
    return EXIT_TARGET


# ------------------------------------------------------------ trotter-scan


def cmd_trotter_scan(args: argparse.Namespace) -> int:
    op = schwinger_hamiltonian(args.qubits, args.j)
    steps = [int(s) for s in args.steps.split(",")]
    if any(s < 1 for s in steps):
        raise ValueError("step counts must be positive")
    errors = [trotter_error(op, args.tau, s) for s in steps]
    order = None
    if len(steps) >= 2 and all(e > 0 for e in errors):
        slope, _ = np.polyfit(np.log(np.array(steps, float)), np.log(errors), 1)
        order = float(-slope)
    title = f"schwinger-{args.qubits}q"

    def text() -> str:
        lines = [f"split-step error scan {title}  J={args.j:g}  tau={args.tau:.6f}"]
        lines.append(f"{'steps':<8}{'error':>12}")
        for count, err in zip(steps, errors):
            lines.append(f"{count:<8}{err:>12.3e}")
        if order is not None:
            lines.append(f"estimated order: {order:.2f}")
        return _lines(lines)

    _render(
        args,
        f"trotter-scan-{title}",
        text=text,
        csv=lambda: _csv(["steps", "error"], zip(steps, errors)),
        json=lambda: _json(
            {
                "hamiltonian": {"name": title, "J": args.j},
                "tau": args.tau,
                "points": [{"steps": count, "error": err} for count, err in zip(steps, errors)],
                "estimated_order": order,
            }
        ),
    )
    return EXIT_OK


# ------------------------------------------------------------------- batch


def cmd_batch(args: argparse.Namespace) -> int:
    if args.bundled:
        sources = bundled_names()
    else:
        if args.config_dir is None:
            raise ManifestError("config error: batch needs --config-dir or --bundled")
        if not os.path.isdir(args.config_dir):
            raise ManifestError(f"config error: {args.config_dir!r} is not a directory")
        sources = sorted(
            os.path.join(args.config_dir, entry)
            for entry in os.listdir(args.config_dir)
            if entry.endswith(".json")
        )
        if not sources:
            raise ManifestError(f"config error: no manifests found in {args.config_dir!r}")
    overrides = _run_overrides(args)
    codes = []
    for source in sources:
        line, code = _batch_verdict(source, overrides, args.out)
        sys.stdout.write(f"{line}\n")
        codes.append(code)
    sys.stdout.write(f"{codes.count(EXIT_OK)}/{len(codes)} scenario(s) passed\n")
    return max(codes)


def _batch_verdict(source: str, overrides: dict, out_dir: str | None) -> tuple[str, int]:
    try:
        result = execute_manifest(replace(load_manifest(source), **overrides))
    except _FAILURES as exc:
        return f"{source}: {_error_text(exc)}", EXIT_CONFIG
    name = result.manifest.name
    if out_dir is not None:
        _emit(_run_json(result, True), out_dir, f"{name}.json")
    bad = sum(not t.ok for t in result.targets)
    if bad:
        return f"{name}: {bad} target(s) violated", EXIT_TARGET
    return f"{name}: ok ({len(result.targets)} target(s))", EXIT_OK


# -------------------------------------------------------------- entrypoint


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twirlsim",
        description="Ancilla-filtered eigenstate preparation on small Pauli chains.",
    )
    parser.add_argument("--version", action="version", version=f"twirlsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    spectrum = sub.add_parser("spectrum", help="eigenvalues of a built-in chain")
    spectrum.add_argument("--qubits", type=int, required=True, choices=(1, 2, 3))
    spectrum.add_argument("--j", type=float, required=True, help="coupling J")
    spectrum.add_argument("--format", choices=("text", "csv", "json"), default="text")
    spectrum.add_argument("--out", help="directory to write the output file into")
    spectrum.set_defaults(func=cmd_spectrum)

    run = sub.add_parser("run", help="run one scenario manifest")
    run.add_argument("--config", required=True, help="manifest path or bundled name")
    _add_override_flags(run)
    run.add_argument("--format", choices=("text", "csv", "json"), default="text")
    run.add_argument("--out", help="directory to write the output file into")
    run.add_argument(
        "--no-check", action="store_true", help="skip target checks and always exit 0"
    )
    run.set_defaults(func=cmd_run)

    scan = sub.add_parser("trotter-scan", help="split-step error scan")
    scan.add_argument("--qubits", type=int, required=True, choices=(1, 2, 3))
    scan.add_argument("--j", type=float, required=True, help="coupling J")
    scan.add_argument("--tau", type=float, default=math.pi / 2)
    scan.add_argument("--steps", default="8,16,32,64", help="comma-separated step counts")
    scan.add_argument("--format", choices=("text", "csv", "json"), default="text")
    scan.add_argument("--out", help="directory to write the output file into")
    scan.set_defaults(func=cmd_trotter_scan)

    batch = sub.add_parser("batch", help="run every manifest in a directory, in order")
    batch.add_argument("--config-dir", help="directory of manifest JSON files")
    batch.add_argument(
        "--bundled", action="store_true", help="run the bundled scenarios instead"
    )
    _add_override_flags(batch)
    batch.add_argument("--out", help="directory to write per-scenario JSON into")
    batch.set_defaults(func=cmd_batch)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _FAILURES as exc:
        sys.stderr.write(f"{_error_text(exc)}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
