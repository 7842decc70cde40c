"""Spans and counts around twirlsim's public functions (traced run only).

Each wrapper is installed on every name that binds the original
function: the defining module, the package namespace, and any module
that imported the name directly (``twirl`` binds ``evolve_exact``,
``trotter`` binds ``apply_axes``). ``numpy.linalg.eigh`` is wrapped for
the ``spectral`` eigensolver. A function that no longer exists is
reported missing and the metrics built from it are left out.

Spans are kept in memory as ``[name, start, end, parent, scenario]``
and written out when the run ends. A span's self time is its duration
minus the durations of its direct children; calls on one thread nest,
so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

# (span name, owner, attribute, counts taken from the bound arguments)
SPANS = (
    ("cli.main", "twirlsim.cli", "main", None),
    ("manifest.load", "twirlsim.manifest", "load_manifest", lambda a: {"manifest.calls": 1}),
    ("adiabatic.prepare", "twirlsim.adiabatic", "adiabatic_prepare",
     lambda a: {"adiabatic.slices": a["schedule"].steps}),
    ("twirl.protocol", "twirlsim.twirl", "run_protocol", None),
    ("twirl.round", "twirlsim.twirl", "twirl_round",
     lambda a: {"twirl.ancilla_steps": a["ancillas"]}),
    ("twirl.sample_shots", "twirlsim.twirl", "sample_shots",
     lambda a: {"twirl.shot_draws": sum(len(op.terms) for _, op in a["ops"])}),
    ("trotter.evolve", "twirlsim.trotter", "evolve_trotter",
     lambda a: {"trotter.rotations": a["steps"] * 2 * len(a["op"].terms)}),
    ("spectral.eigendecompose", "twirlsim.spectral", "eigendecompose",
     lambda a: {"spectral.requests": 1}),
    ("spectral.evolve_exact", "twirlsim.spectral", "evolve_exact",
     lambda a: {"spectral.requests": 1}),
    ("spectral.eigh", "numpy.linalg", "eigh", lambda a: {"spectral.eigh_calls": 1}),
    ("pauli.dense_matrix", "twirlsim.pauli", "dense_matrix",
     lambda a: {"pauli.dense_builds": 1, "pauli.dense_bytes": 16 * 4 ** a["op"].n_qubits}),
    ("pauli.expectation", "twirlsim.pauli", "expectation", None),
)

# Hot leaves are counted without a span, so their time stays in the
# caller's self time and the tracing cost stays small.
COUNTS = (
    ("pauli.apply_calls", "twirlsim.pauli", "apply_axes"),
    ("state.constructions", "twirlsim.state:StateVector", "__post_init__"),
)


def _owner(path: str):
    module, _, attr = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, attr) if attr else owner


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.installed: set[str] = set()
        self.missing: list[str] = []
        self.scenario: str | None = None
        self._stack: list[int] = []

    def _add(self, counts: dict[str, int]) -> None:
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0) + value

    def _span(self, name: str, counter, func):
        signature = inspect.signature(func) if counter else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if counter is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    self._add(counter(bound.arguments))
                except (TypeError, KeyError, AttributeError):
                    # the signature changed: drop this layer's metrics, keep running
                    self.installed.discard(name)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.scenario]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return func(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    def _count(self, key: str, func):
        counts = self.counts
        counts.setdefault(key, 0)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return func(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every listed function that exists, wherever it is bound."""
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "twirlsim"]
        targets = [
            (name, owner, attr, functools.partial(self._span, name, counter))
            for name, owner, attr, counter in SPANS
        ]
        targets += [
            (key, owner, attr, functools.partial(self._count, key)) for key, owner, attr in COUNTS
        ]
        for name, owner_path, attr, wrap in targets:
            try:
                owner = _owner(owner_path)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            wrapper = wrap(original)
            setattr(owner, attr, wrapper)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
            self.installed.add(name)

    def summary(self) -> dict:
        """Per-span-name inclusive and self seconds, plus the counts."""
        inclusive: dict[str, float] = {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            inclusive[name] = inclusive.get(name, 0.0) + (end - start)
            if parent >= 0:
                child_time[parent] += end - start
        own: dict[str, float] = {}
        for (name, start, end, _, _), inner in zip(self.spans, child_time):
            own[name] = own.get(name, 0.0) + (end - start - inner)
        return {
            "inclusive_s": inclusive,
            "self_s": own,
            "counts": dict(self.counts),
            "installed": sorted(self.installed),
            "missing": self.missing,
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index\tname\tstart\tend\tparent\tscenario\n")
            for i, (name, start, end, parent, scenario) in enumerate(self.spans):
                handle.write(f"{i}\t{name}\t{start!r}\t{end!r}\t{parent}\t{scenario}\n")


def layer_metrics(summary: dict, outcomes: dict, overhead_frac: float) -> dict[str, tuple]:
    """Per-layer metrics as name -> (value, unit); missing layers left out."""
    installed = set(summary["installed"])
    inclusive, own, counts = summary["inclusive_s"], summary["self_s"], summary["counts"]
    out: dict[str, tuple] = {}

    def put(name, needs, value, unit):
        if all(n in installed for n in needs):
            out[name] = (value, unit)

    put("pauli.dense_matrix_s", ["pauli.dense_matrix"], inclusive.get("pauli.dense_matrix", 0.0), "s")
    put("pauli.dense_builds", ["pauli.dense_matrix"], counts.get("pauli.dense_builds", 0), "count")
    put("pauli.dense_bytes", ["pauli.dense_matrix"], counts.get("pauli.dense_bytes", 0), "B")
    put("pauli.apply_calls", ["pauli.apply_calls"], counts.get("pauli.apply_calls", 0), "count")
    put("pauli.expectation_s", ["pauli.expectation"], inclusive.get("pauli.expectation", 0.0), "s")
    put("spectral.eigendecompose_s", ["spectral.eigendecompose"],
        inclusive.get("spectral.eigendecompose", 0.0), "s")
    put("spectral.evolve_exact_s", ["spectral.evolve_exact"],
        inclusive.get("spectral.evolve_exact", 0.0), "s")
    put("spectral.eigh_s", ["spectral.eigh"], inclusive.get("spectral.eigh", 0.0), "s")
    put("spectral.eigh_calls", ["spectral.eigh"], counts.get("spectral.eigh_calls", 0), "count")
    requests = counts.get("spectral.requests", 0)
    reuse = 1.0 - counts.get("spectral.eigh_calls", 0) / requests if requests else 0.0
    put("spectral.reuse_ratio",
        ["spectral.eigh", "spectral.eigendecompose", "spectral.evolve_exact"], reuse, "ratio")
    put("adiabatic.prepare_s", ["adiabatic.prepare"], inclusive.get("adiabatic.prepare", 0.0), "s")
    put("adiabatic.slices", ["adiabatic.prepare"], counts.get("adiabatic.slices", 0), "count")
    put("trotter.evolve_s", ["trotter.evolve"], inclusive.get("trotter.evolve", 0.0), "s")
    put("trotter.rotations", ["trotter.evolve"], counts.get("trotter.rotations", 0), "count")
    put("twirl.round_self_s", ["twirl.round"], own.get("twirl.round", 0.0), "s")
    put("twirl.protocol_self_s", ["twirl.protocol"], own.get("twirl.protocol", 0.0), "s")
    put("twirl.ancilla_steps", ["twirl.round"], counts.get("twirl.ancilla_steps", 0), "count")
    put("twirl.sample_shots_s", ["twirl.sample_shots"],
        inclusive.get("twirl.sample_shots", 0.0), "s")
    put("twirl.shot_draws", ["twirl.sample_shots"], counts.get("twirl.shot_draws", 0), "count")
    shots = outcomes["shots"]
    put("twirl.keep_fraction", [], outcomes["kept"] / shots if shots else 0.0, "ratio")
    put("twirl.aborts", [], outcomes["aborts"], "count")
    put("state.constructions", ["state.constructions"], counts.get("state.constructions", 0), "count")
    put("manifest.load_s", ["manifest.load"], inclusive.get("manifest.load", 0.0), "s")
    put("manifest.calls", ["manifest.load"], counts.get("manifest.calls", 0), "count")
    put("cli.self_s", ["cli.main"], own.get("cli.main", 0.0), "s")
    put("trace.overhead_frac", [], overhead_frac, "ratio")
    return out
