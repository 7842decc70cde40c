"""Command line front end.

Subcommands:

* ``spectrum``: numeric and analytic eigenvalues of a built-in chain.
* ``run``: execute one scenario manifest and check its targets.
* ``trotter-scan``: split-step error against the exact propagator.
* ``batch``: run every manifest in a directory (or all bundled ones) in
  order, one verdict per line. A manifest that cannot be read or run is
  reported on its own line and the batch goes on. With ``--out``, a
  scenario whose name an earlier one took is a config error and writes
  nothing.

Exit codes: 0 on success, 1 when a target check fails, 2 for unusable
configuration or arguments, 3 when a run aborts (post-selection left no
support or no active runs, or an energy estimate was zero), and 4 when
one ``batch`` scenario hits an internal error; ``batch`` exits with the
worst code of its scenarios. Output carries no timestamps or machine
details, so identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import traceback
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import __version__
from .adiabatic import AdiabaticSchedule, adiabatic_prepare, staggered_start
from .manifest import Manifest, ManifestError, bundled_names, load_manifest
from .pauli import _check_count, expectation, named_observable, schwinger_hamiltonian
from .spectral import closed_form_spectrum, eigendecompose
from .state import StateVector
from .trotter import trotter_error
from .twirl import Backend, PostSelectionError, RoundRecord, ZeroEnergyError, run_protocol

EXIT_OK = 0
EXIT_TARGET = 1
EXIT_CONFIG = 2
EXIT_ABORT = 3
EXIT_INTERNAL = 4

# ManifestError, ZeroEnergyError and unwritable --out targets are ValueErrors
_FAILURES = (ValueError, PostSelectionError)


def _failure(exc: Exception) -> tuple[str, int]:
    """Message and exit code for one of the ``_FAILURES``."""
    if isinstance(exc, (PostSelectionError, ZeroEnergyError)):
        return f"runtime abort: {exc}", EXIT_ABORT
    if isinstance(exc, ManifestError):
        return str(exc), EXIT_CONFIG
    return f"config error: {exc}", EXIT_CONFIG


def _write_atomic(path: str, text: str) -> None:
    # write to a sibling temp file, then rename over the destination; the file is
    # made with 0o666 for the umask to cut, as open(path, "w") would make it
    tmp_path = os.path.join(os.path.dirname(path), f".tmp-{os.urandom(8).hex()}")
    handle = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
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
    try:
        os.makedirs(out_dir, exist_ok=True)
        _write_atomic(os.path.join(out_dir, filename), text)
    except OSError as exc:
        raise ValueError(f"cannot write into {out_dir!r}: {exc.strerror or exc}") from exc


def _fmt(value: float | None, tiny: bool = False) -> str:
    """Six decimals, or "-" for None; with ``tiny`` a nonzero value that
    would print as zero keeps six significant digits instead."""
    if value is None:
        return "-"
    text = f"{value:.6f}"
    if float(text) == 0.0:
        # a value that rounds to zero prints without a stray minus sign
        text = f"{value:.6g}" if tiny and value else text.lstrip("-")
    return text


def _row(first: int | str, cells: list[str], widths: list[int]) -> str:
    """Text-table row: ``first`` left-aligned in 6 columns, then each cell right-aligned.

    A cell that fills or overflows its width gets one leading space instead
    of padding, so neighbouring cells never run together.
    """
    return f"{first:<6}" + "".join(
        f"{cell:>{width}}" if len(cell) < width else f" {cell}"
        for cell, width in zip(cells, widths)
    )


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


# the observable the spectrum table reports, by chain size
_SPECTRUM_OBSERVABLE = {1: "Z", 2: "Z0", 3: "Zbar"}


def _spectrum_rows(n_qubits: int, coupling: float):
    numeric = eigendecompose(schwinger_hamiltonian(n_qubits, coupling))
    closed = closed_form_spectrum(n_qubits, coupling)
    obs_name = _SPECTRUM_OBSERVABLE[n_qubits]
    obs = named_observable(obs_name, n_qubits)
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
        widths = [14, 14, 12]
        lines.append(_row("index", ["energy", "closed_form", f"<{obs_name}>"], widths))
        for row in rows:
            cells = [_fmt(row["energy"]), _fmt(row["closed_form"]), _fmt(row[obs_name])]
            lines.append(_row(row["index"], cells, widths))
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
    round: int
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
    op = manifest.operator
    config = manifest.config
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
        round_index = len(config.rounds) if target.round is None else target.round
        actual = records[round_index].expectations[target.observable]
        checks.append(
            TargetResult(
                observable=target.observable,
                round=round_index,
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


# The scalar round columns: the RoundRecord field (also the JSON key), the CSV
# header, the text header, width and cell. Text drops active_count without shots.
_ROUND_COLUMNS = (
    ("energy_used", "E_used", "energy_used", 13, functools.partial(_fmt, tiny=True)),
    ("tau", "tau", "tau", 11, functools.partial(_fmt, tiny=True)),
    ("p_round", "p_round", "p_round", 10, "{:.6f}".format),
    ("p_cumulative", "p_cum", "p_cum", 10, "{:.6f}".format),
    ("active_count", "active_count", "active", 10, str),
)


def _run_text(result: RunResult, check: bool) -> str:
    manifest, config = result.manifest, result.manifest.config
    lines = [f"scenario {manifest.name}"]
    if manifest.description:
        lines.append(f"  {manifest.description}")
    lines.append(f"  hamiltonian: {_hamiltonian_label(manifest)}")
    lines.append(f"  initial: |{manifest.initial}>")
    shots = "none" if config.shots is None else str(config.shots)
    lines.append(f"  backend: {config.backend.label()}  shots: {shots}  seed: {config.seed}")
    if manifest.prepare is not None:
        lines.append(
            f"  prepare: adiabatic ramp, total_time={manifest.prepare.total_time:g}, "
            f"steps={manifest.prepare.steps}"
        )
    modes = " ".join(
        f"{spec.mode.value}x{spec.ancillas}"
        + ("" if spec.energy_override is None else f"(E={spec.energy_override:g})")
        for spec in config.rounds
    )
    lines.append(f"  rounds: {modes}")
    lines.append("")
    obs_names = list(config.observables)
    columns = [c for c in _ROUND_COLUMNS if config.shots is not None or c[0] != "active_count"]
    header = [c[2] for c in columns] + [f"<{name}>" for name in obs_names]
    widths = [c[3] for c in columns] + [12] * len(obs_names)
    lines.append(_row("round", header, widths))
    for record in result.records:
        cells = [cell(getattr(record, field)) for field, _, _, _, cell in columns]
        cells += [_fmt(record.expectations[name]) for name in obs_names]
        lines.append(_row(record.round_index, cells, widths))
    if check and result.targets:
        lines.append("")
        for target in result.targets:
            verdict = "ok" if target.ok else "VIOLATED"
            lines.append(
                f"check <{target.observable}> @ round {target.round}: "
                f"{target.actual:.6f} vs {target.value:.6f} +/- {target.tol:g}  {verdict}"
            )
        bad = sum(not t.ok for t in result.targets)
        lines.append("all targets satisfied" if bad == 0 else f"{bad} target(s) violated")
    if manifest.notes:
        lines.append(f"note: {manifest.notes}")
    return _lines(lines)


def _run_csv(result: RunResult) -> str:
    obs_names = list(result.manifest.config.observables)
    return _csv(
        ["round"] + [c[1] for c in _ROUND_COLUMNS] + obs_names,
        (
            [r.round_index]
            + [getattr(r, c[0]) for c in _ROUND_COLUMNS]
            + [r.expectations[name] for name in obs_names]
            for r in result.records
        ),
    )


def _run_json(result: RunResult, check: bool) -> str:
    manifest, config = result.manifest, result.manifest.config
    payload = {
        "name": manifest.name,
        "hamiltonian": manifest.hamiltonian,
        "initial": manifest.initial,
        "backend": config.backend.label(),
        "shots": config.shots,
        "seed": config.seed,
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
                else config.rounds[record.round_index - 1].mode.value,
                "prefactor": None
                if record.prefactor is None
                else [record.prefactor.real, record.prefactor.imag],
                "expectations": record.expectations,
                **{c[0]: getattr(record, c[0]) for c in _ROUND_COLUMNS},
            }
            for record in result.records
        ],
    }
    if manifest.notes:
        payload["notes"] = manifest.notes
    if check:
        payload["targets"] = [asdict(t) for t in result.targets]
        payload["ok"] = result.ok
    return _json(payload)


def _positive(flag: str, raw: str, kind: type) -> int | float:
    """``raw`` as a positive finite int or float, or an error that names ``flag``."""
    try:
        value = kind(raw)
    except ValueError:
        value = 0
    if not 0 < value < math.inf:
        noun = "integer" if kind is int else "number"
        raise ValueError(f"{flag} must be a positive {noun}, got {raw!r}")
    return value


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
                schedule["total_time"] = _positive("--prepare T", raw, float)
            elif key == "steps":
                schedule["steps"] = _positive("--prepare steps", raw, int)
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


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "csv", "json"), default="text")
    parser.add_argument("--out", help="directory to write the output file into")


def _run_overrides(args: argparse.Namespace) -> dict:
    """The override flags given, parsed, by the field they replace."""
    overrides: dict = {}
    if args.backend is not None:
        try:
            overrides["backend"] = Backend.parse(args.backend)
        except ValueError:
            raise ValueError(
                f'--backend must be "exact" or "trotter:<steps>", got {args.backend!r}'
            ) from None
    if args.shots is not None:
        overrides["shots"] = None if args.shots == "none" else _positive("--shots", args.shots, int)
    if args.seed is not None:
        overrides["seed"] = _check_count(args.seed, "--seed", low=0)
    if args.prepare is not None:
        overrides["prepare"] = _parse_prepare_flag(args.prepare)
    return overrides


def _overridden(manifest: Manifest, overrides: dict) -> Manifest:
    """``manifest`` with ``overrides``: ``prepare`` replaces its schedule, the rest its config."""
    settings = dict(overrides)
    prepare = settings.pop("prepare", manifest.prepare)
    return replace(manifest, prepare=prepare, config=replace(manifest.config, **settings))


def cmd_run(args: argparse.Namespace) -> int:
    manifest = _overridden(load_manifest(args.config), _run_overrides(args))
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
                    f"{target.round} = {target.actual:.6f}, wanted "
                    f"{target.value:.6f} +/- {target.tol:g}\n"
                )
    return EXIT_TARGET


# ------------------------------------------------------------ trotter-scan


def cmd_trotter_scan(args: argparse.Namespace) -> int:
    op = schwinger_hamiltonian(args.qubits, args.j)
    entries = args.steps.split(",")
    # int() would also read "1_6", "+8" and " 8"
    if not all(entry.isascii() and entry.isdigit() for entry in entries):
        raise ValueError(
            f"--steps must be comma-separated step counts in decimal digits, got {args.steps!r}"
        )
    steps = [int(entry) for entry in entries]
    if any(s < 1 for s in steps):
        raise ValueError("step counts must be positive")
    errors = [trotter_error(op, args.tau, s) for s in steps]
    order = None
    # a fit needs two distinct step counts, and errors at rounding level (zero
    # in exact arithmetic) carry no order to fit
    if len(set(steps)) >= 2 and all(e > 1e-12 for e in errors):
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
    claimed: dict[str, str] = {}
    for source in sources:
        line, code = _batch_verdict(source, overrides, args.out, claimed)
        sys.stdout.write(f"{line}\n")
        codes.append(code)
    sys.stdout.write(f"{codes.count(EXIT_OK)}/{len(codes)} scenario(s) passed\n")
    return max(codes)


def _batch_verdict(
    source: str, overrides: dict, out_dir: str | None, claimed: dict[str, str]
) -> tuple[str, int]:
    """One batch line and its exit code; ``claimed`` maps each output name to its source."""
    try:
        manifest = load_manifest(source)
        if out_dir is not None:
            earlier = claimed.setdefault(manifest.name, source)
            if earlier != source:
                raise ValueError(
                    f"scenario name {manifest.name!r} is taken by {earlier}, "
                    "whose --out file it would overwrite"
                )
        result = execute_manifest(_overridden(manifest, overrides))
        if out_dir is not None:
            _emit(_run_json(result, True), out_dir, f"{result.manifest.name}.json")
    except _FAILURES as exc:
        text, code = _failure(exc)
        return f"{source}: {text}", code
    except Exception as exc:
        # one broken scenario must not end the batch; keep its traceback on stderr
        sys.stderr.write(traceback.format_exc())
        return f"{source}: internal error: {type(exc).__name__}: {exc}", EXIT_INTERNAL
    name = result.manifest.name
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
    _add_output_flags(spectrum)
    spectrum.set_defaults(func=cmd_spectrum)

    run = sub.add_parser("run", help="run one scenario manifest")
    run.add_argument("--config", required=True, help="manifest path or bundled name")
    _add_override_flags(run)
    _add_output_flags(run)
    run.add_argument(
        "--no-check", action="store_true", help="skip target checks and always exit 0"
    )
    run.set_defaults(func=cmd_run)

    scan = sub.add_parser("trotter-scan", help="split-step error scan")
    scan.add_argument("--qubits", type=int, required=True, choices=(1, 2, 3))
    scan.add_argument("--j", type=float, required=True, help="coupling J")
    scan.add_argument("--tau", type=float, default=math.pi / 2)
    scan.add_argument("--steps", default="8,16,32,64", help="comma-separated step counts")
    _add_output_flags(scan)
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first main call, not at import; parse_args keeps no state between calls
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except _FAILURES as exc:
        text, code = _failure(exc)
        sys.stderr.write(f"{text}\n")
        return code


if __name__ == "__main__":
    sys.exit(main())
