"""Spans around calls into gatesynth, recorded from the benchmark's own files.

A wrapper replaces the module attribute that a caller looks up, so
gatesynth.compiler.kak_decompose times the target's KAK inside
synthesize and gatesynth.zzsynth.kak_decompose the entangler's inside
extract_zz. Calls a module makes to itself are not wrapped, so the
reflection recursion inside synth_zz_block stays one span. A span
records (layer, start, end, parent span, op id); its self time is its
duration minus that of its direct children. Spans stay in memory until
the run ends.
"""

import importlib
import json
import sys
import time
from collections import defaultdict

# Layer -> (module, attribute) pairs whose calls it times.
SPAN_POINTS = (
    ("compiler.synthesize", (("gatesynth", "synthesize"), ("gatesynth.cli", "synthesize"))),
    ("kak.kak_decompose", (("gatesynth.compiler", "kak_decompose"),
                           ("gatesynth.zzsynth", "kak_decompose"))),
    ("zzsynth.prepare_resource", (("gatesynth.compiler", "prepare_resource"),)),
    ("zzsynth.extract_zz", (("gatesynth.zzsynth", "extract_zz"),)),
    ("zzsynth.amplify", (("gatesynth.zzsynth", "amplify"),)),
    ("blocksynth.synth_zz_block", (("gatesynth.compiler", "synth_zz_block"),)),
    ("compiler.merge_locals", (("gatesynth.compiler", "merge_locals"),)),
    ("matcore.evaluate", (("gatesynth.compiler", "evaluate"), ("gatesynth.cli", "evaluate"))),
    ("matcore.phase_distance", (("gatesynth.compiler", "phase_distance"),
                                ("gatesynth.cli", "phase_distance"))),
    ("gates.resolve_gate", (("gatesynth.cli", "resolve_gate"),)),
    ("gates.resolve_descriptor", (("gatesynth.cli", "resolve_descriptor"),)),
    ("serialize.emit_circuit_document", (("gatesynth.cli", "emit_circuit_document"),)),
    ("serialize.parse_circuit_document", (("gatesynth.cli", "parse_circuit_document"),)),
    ("cli.main", (("gatesynth.cli", "main"),)),
)

# cli.main spans are named by subcommand.
CLI_SUBCOMMANDS = ("synth", "verify")
LAYERS = tuple(name for name, _ in SPAN_POINTS if name != "cli.main") + tuple(
    f"cli.main.{sub}" for sub in CLI_SUBCOMMANDS)

# Counted, not timed: called inside hot loops, where a span would cost
# more than the call. Every gatesynth module binding the function is wrapped.
COUNT_POINTS = (("matcore.tensor", "gatesynth.matcore", "tensor"),
                ("matcore.require_unitary", "gatesynth.matcore", "require_unitary"))

PER_LAYER_METRICS = (
    tuple((f"{layer}.{stat}", unit, "lower")
          for layer in LAYERS
          for stat, unit in (("us", "us"), ("self_us", "us"),
                             ("self_share", "ratio"), ("calls", "count")))
    + (("op.us", "us", "lower"), ("op.self_us", "us", "lower"),
       ("zzsynth.prepare_resource.calls_per_entangler", "count", "lower"),
       ("zzsynth.prepare_resource.distinct_entanglers", "count", "higher"),
       ("zzsynth.resource_apps", "count", "lower"),
       ("compiler.residual_max", "norm", "lower"),
       ("matcore.tensor.calls", "count", "lower"),
       ("matcore.require_unitary.calls", "count", "lower"),
       ("serialize.document_bytes", "bytes", "lower"),
       ("trace.overhead_targets_per_s", "1/s", "higher"),
       ("trace.layer_self_sum_us", "us", "lower"))
)


def _subcommand(args, kwargs) -> str:
    argv = args[0] if args else kwargs.get("argv")
    return argv[0] if argv else "none"


def _count_entangler_apps(resource) -> int | None:
    elements = getattr(getattr(resource, "circuit", None), "elements", None)
    if elements is None:
        return None
    return sum(type(e).__name__ == "EntanglerApp" for e in elements)


class Tracer:
    """Installs the wrappers, records spans and turns them into layer metrics.

    Counts (calls, entanglers, resource size, document bytes) cover only
    ops with id below count_ops, a prefix every run completes, so they
    repeat exactly for one seed. Times cover every traced op.
    """

    def __init__(self, count_ops: int):
        self.count_ops = count_ops
        self.op = -1
        self.names: list[str] = ["op"]
        self._ids = {"op": 0}
        self.spans: list[list] = []
        self._stack = [-1]
        self.counts: dict[str, int] = defaultdict(int)
        self.entanglers: set[bytes] = set()
        self.resource_apps: list[int] = []
        self.document_bytes: list[int] = []
        self.residual_max = 0.0
        self.missing: list[str] = []
        self._patched: list[tuple] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, fn, name: str, split=None, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        fixed = None if split else self._id(name)

        def wrapper(*args, **kwargs):
            nid = fixed if split is None else self._id(f"{name}.{split(args, kwargs)}")
            rec = [nid, clock(), 0.0, stack[-1], self.op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result
        return wrapper

    def _counter(self, fn, name: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.op < self.count_ops:
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _observe_resource(self, args, resource) -> None:
        if self.op < self.count_ops:
            self.entanglers.add(args[0].tobytes())
            apps = _count_entangler_apps(resource)
            if apps is not None:
                self.resource_apps.append(apps)

    def _observe_document(self, args, text) -> None:
        if self.op < self.count_ops:
            self.document_bytes.append(len(text.encode()))

    def _observe_synthesis(self, args, result) -> None:
        residual = getattr(result[1], "residual", None)
        if residual is not None:
            self.residual_max = max(self.residual_max, float(residual))

    def _patch(self, module_name: str, attr: str, make) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        self._patched.append((module, attr, original))
        setattr(module, attr, make(original))

    def install(self) -> None:
        observers = {"zzsynth.prepare_resource": self._observe_resource,
                     "serialize.emit_circuit_document": self._observe_document,
                     "compiler.synthesize": self._observe_synthesis}
        for name, points in SPAN_POINTS:
            split = _subcommand if name == "cli.main" else None
            for module_name, attr in points:
                self._patch(module_name, attr, lambda fn, name=name, split=split:
                            self._span(fn, name, split, observers.get(name)))
        for name, home, attr in COUNT_POINTS:
            original = getattr(importlib.import_module(home), attr, None)
            bound = [m for m_name, m in sorted(sys.modules.items())
                     if m_name.split(".")[0] == "gatesynth" and m is not None
                     and original is not None and getattr(m, attr, None) is original]
            if not bound:
                self.missing.append(f"{home}.{attr}")
            for module in bound:
                self._patch(module.__name__, attr, lambda fn, name=name: self._counter(fn, name))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def traced(self, call):
        """Wrap a benchmark op call in the root span of its op id."""
        span = self._span(call, "op")

        def run(i, op):
            self.op = i
            return span(i, op)
        return run

    @property
    def op_count(self) -> int:
        return sum(1 for rec in self.spans if rec[0] == 0)

    def metrics(self, untraced_tps: float, traced_tps: float) -> dict:
        n = len(self.names)
        incl, self_t, calls = [0.0] * n, [0.0] * n, [0] * n
        child = [0.0] * len(self.spans)
        for nid, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for idx, (nid, start, end, _, op) in enumerate(self.spans):
            incl[nid] += end - start
            self_t[nid] += end - start - child[idx]
            if op < self.count_ops:
                calls[nid] += 1
        n_ops = max(self.op_count, 1)
        prefix = max(min(self.count_ops, n_ops), 1)
        op_total = max(incl[0], 1e-9)
        out = {}
        layer_self = 0.0
        for layer in LAYERS:
            nid = self._ids.get(layer)
            i_t, s_t, c = (incl[nid], self_t[nid], calls[nid]) if nid is not None else (0.0, 0.0, 0)
            layer_self += s_t
            out[f"{layer}.us"] = i_t / n_ops * 1e6
            out[f"{layer}.self_us"] = s_t / n_ops * 1e6
            out[f"{layer}.self_share"] = s_t / op_total
            out[f"{layer}.calls"] = c / prefix
        prepare = self._ids.get("zzsynth.prepare_resource")
        prepare_calls = calls[prepare] if prepare is not None else 0
        out.update({
            "op.us": op_total / n_ops * 1e6,
            "op.self_us": self_t[0] / n_ops * 1e6,
            "zzsynth.prepare_resource.calls_per_entangler":
                prepare_calls / max(len(self.entanglers), 1),
            "zzsynth.prepare_resource.distinct_entanglers": len(self.entanglers),
            "zzsynth.resource_apps": _mean(self.resource_apps),
            "compiler.residual_max": self.residual_max,
            "matcore.tensor.calls": self.counts["matcore.tensor"] / prefix,
            "matcore.require_unitary.calls": self.counts["matcore.require_unitary"] / prefix,
            "serialize.document_bytes": _mean(self.document_bytes),
            "trace.overhead_targets_per_s": traced_tps - untraced_tps,
            "trace.layer_self_sum_us": layer_self / n_ops * 1e6,
        })
        return out

    def write(self, path) -> None:
        """Spans as JSON lines: a header naming the layers, then one span per line."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"layers": self.names,
                                 "fields": ["layer", "start", "end", "parent", "op"]}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _mean(values: list) -> float:
    return sum(values) / len(values) if values else 0.0
