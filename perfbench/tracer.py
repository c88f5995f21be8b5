"""In-memory span recorder and the wrappers it places around birevnf's layers.

The spans are recorded from the benchmark's own code: ``instrument`` replaces
public functions and methods of each module with timing wrappers, and
rebinds every reference to them (a name imported by another module, an alias
such as ``__rmul__ = __mul__``) so that calls between modules are traced too.
The program's own source is not changed.

A span's self time is its duration minus the durations of its child spans.
Counters are taken at the same boundaries, so each ratio is measured where
the work happens.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict
from math import comb

# span name -> (module, attribute path) of the traced callable
SPANS = {
    "cli.main": ("cli", "main"),
    "cli.load_config": ("cli", "load_config"),
    "continuous.context_build": ("continuous", "SymmetryContext.from_case"),
    "continuous.enumerate_pairs": ("continuous", "enumerate_involution_pairs"),
    "group.membership": ("group", "membership"),
    "symmetry_ops.pipeline": ("symmetry_ops", "pipeline"),
    "symmetry_ops.extend": ("symmetry_ops", "extend_hilbert_basis"),
    "symmetry_ops.transport": ("symmetry_ops", "generators_over_extension"),
    "symmetry_ops.project": ("symmetry_ops", "project_generators"),
    "symmetry_ops.transfer_T": ("symmetry_ops", "transfer_T"),
    "symmetry_ops.prune_ring": ("symmetry_ops", "prune_ring"),
    "symmetry_ops.prune_module": ("symmetry_ops", "prune_module"),
    "symmetry_ops.certify": ("symmetry_ops", "certify"),
    "symmetry_ops.ring_products": ("symmetry_ops", "ring_products"),
    "oracle.slice_space": ("oracle", "slice_space"),
    "oracle.module_slice": ("oracle", "module_slice"),
    "oracle.spans_equal": ("oracle", "spans_equal"),
    "linalg.echelon_insert": ("linalg", "Echelon.insert"),
    "linalg.echelon_nullspace": ("linalg", "Echelon.nullspace"),
    "linalg.spanbasis_insert": ("linalg", "SpanBasis.insert"),
    "linalg.spanbasis_contains": ("linalg", "SpanBasis.contains"),
    "poly.mul": ("poly", "Polynomial.__mul__"),
    "poly.substitute_linear": ("poly", "Polynomial.substitute_linear"),
    "poly.apply_linear": ("poly", "PolyMap.apply_linear"),
    "poly.conj_check": ("poly", "check_conjugation_compatible"),
    "normalform.assemble": ("normalform", "assemble"),
    "normalform.emit": ("normalform", "emit"),
}

# call counts reported under a name of their own
CALLS_NAME = {"continuous.context_build": "continuous.context_builds"}

# counter name -> (numerator, denominator) of the ratios reported
RATIOS = {
    "symmetry_ops.ring_products_reuse_ratio": (
        "ring_products.repeats", "symmetry_ops.ring_products"),
    "symmetry_ops.prune_keep_ratio": ("prune_module.kept", "prune_module.offered"),
    "symmetry_ops.project_nonzero_ratio": (
        "transfer_T.nonzero", "symmetry_ops.transfer_T"),
    "oracle.dim_per_raw_ratio": ("oracle.slice_dim", "oracle.raw_monomials"),
    "linalg.echelon_rank_ratio": ("echelon.raised", "linalg.echelon_insert"),
    "linalg.spanbasis_rank_ratio": ("spanbasis.raised", "linalg.spanbasis_insert"),
    "poly.conj_check_distinct_ratio": ("conj_check.distinct", "poly.conj_check"),
}
COUNTS = {"oracle.raw_monomials": "count", "oracle.slice_dim": "count",
          "normalform.emit_bytes": "bytes"}


class Tracer:
    """Spans and counters of one traced pass, kept in memory until it ends.

    Times are integer nanoseconds from ``time.perf_counter_ns``.  Each span
    is six integers in one flat array: id, parent id (-1 for a root), name
    index, job index, start, end.
    """

    FIELDS = ("id", "parent", "name", "job", "start_ns", "end_ns")

    def __init__(self):
        self.names: list[str] = []
        self.spans = array("q")
        self.calls = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.counters = defaultdict(int)
        self.job = -1
        self.started = 0
        self._stack: list[list] = []  # [span id, child nanoseconds]
        self._seen: dict[str, set] = defaultdict(set)
        self._kept: list = []

    def start_job(self):
        self.job += 1
        self._seen.clear()
        self._kept.clear()

    def keep(self, obj):
        """Hold `obj` until the job ends, so that its id is not reused."""
        self._kept.append(obj)

    def first_in_job(self, kind: str, key) -> bool:
        seen = self._seen[kind]
        if key in seen:
            return False
        seen.add(key)
        return True

    def wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        stack, spans, clock = self._stack, self.spans, time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [self.started, 0]
            self.started += 1
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.calls[name] += 1
                self.total_ns[name] += duration
                self.self_ns[name] += duration - frame[1]
                spans.extend((frame[0], parent, index, self.job, start, end))

        traced.__wrapped__ = fn
        return traced

    def metrics(self) -> dict:
        """Per-layer figures: calls, total and self seconds, counts, ratios."""
        out = {}
        for span in SPANS:
            out[CALLS_NAME.get(span, span + "_calls")] = (self.calls[span], "count")
            out[span + "_s"] = (self.total_ns[span] / 1e9, "s")
            out[span + "_self_s"] = (self.self_ns[span] / 1e9, "s")
        for name, unit in COUNTS.items():
            out[name] = (self.counters[name], unit)
        for name, (num, den) in RATIOS.items():
            numerator = self.counters.get(num, self.calls.get(num, 0))
            base = self.counters.get(den, self.calls.get(den, 0))
            out[name] = (numerator / base if base else 0.0, "ratio")
        return out

    def counts(self) -> dict:
        """Every figure that must repeat exactly on a deterministic engine."""
        return {
            name: value
            for name, (value, unit) in self.metrics().items()
            if unit != "s"
        }

    def dump(self, path: str):
        """Write the names, then one JSON list of FIELDS per span, in end order."""
        spans = self.spans
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": self.names, "fields": self.FIELDS}, handle)
            handle.write("\n")
            for k in range(0, len(spans), 6):
                handle.write(json.dumps(spans[k:k + 6].tolist()) + "\n")


def _rebind(old, new):
    """Point every reference to `old` in birevnf's modules and classes at `new`."""
    for name, module in list(sys.modules.items()):
        if name != "birevnf" and not name.startswith("birevnf."):
            continue
        owners = [module] + [
            value for value in vars(module).values()
            if isinstance(value, type) and value.__module__ == name
        ]
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if value is old:
                    setattr(owner, key, new)
                elif isinstance(value, classmethod) and value.__func__ is old:
                    setattr(owner, key, classmethod(new))


def _original(module, path: str):
    """The function at `path` in `module`, or None if there is none."""
    owner = module
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
    value = vars(owner).get(attr) if owner is not None else None
    return value.__func__ if isinstance(value, classmethod) else value


def _counting_hooks(tracer: Tracer) -> dict:
    """Wrappers that take the counts behind the ratios, keyed by span name."""
    counters = tracer.counters

    def ring_products(fn):
        def counted(basis, degree, *rest, **kwargs):
            if not tracer.first_in_job("ring_products", (tuple(basis), degree)):
                counters["ring_products.repeats"] += 1
            return fn(basis, degree, *rest, **kwargs)
        return counted

    def prune_module(fn):
        def counted(gens, *rest, **kwargs):
            gens = tuple(gens)
            kept = fn(gens, *rest, **kwargs)
            counters["prune_module.offered"] += len(gens)
            counters["prune_module.kept"] += len(kept)
            return kept
        return counted

    def transfer_t(fn):
        def counted(*args, **kwargs):
            image = fn(*args, **kwargs)
            if image:
                counters["transfer_T.nonzero"] += 1
            return image
        return counted

    def slice_space(fn):
        def counted(context, degree, kind, *rest, **kwargs):
            result = fn(context, degree, kind, *rest, **kwargs)
            sgroup = context.continuous
            # a function slice has one component, a map slice n + 2
            components = 1 if kind in ("invariant", "anti_invariant") else sgroup.nblocks + 2
            counters["oracle.raw_monomials"] += (
                comb(sgroup.nvars - 1 + degree, degree) * components
            )
            counters["oracle.slice_dim"] += result.dimension
            return result
        return counted

    def insert(counter):
        def hook(fn):
            def counted(*args, **kwargs):
                raised = fn(*args, **kwargs)
                counters[counter] += bool(raised)
                return raised
            return counted
        return hook

    def conj_check(fn):
        def counted(matrix, nvars, *rest, **kwargs):
            # hashing a matrix by value is slow, so do it once per object;
            # holding the object keeps its id from being reused in the job
            if tracer.first_in_job("conj_check.object", (id(matrix), nvars)):
                tracer.keep(matrix)
                key = (nvars, tuple(tuple(row) for row in matrix))
                if tracer.first_in_job("conj_check", key):
                    counters["conj_check.distinct"] += 1
            return fn(matrix, nvars, *rest, **kwargs)
        return counted

    def emit(fn):
        def counted(*args, **kwargs):
            text = fn(*args, **kwargs)
            counters["normalform.emit_bytes"] += len(text.encode("utf-8"))
            return text
        return counted

    return {
        "symmetry_ops.ring_products": ring_products,
        "symmetry_ops.prune_module": prune_module,
        "symmetry_ops.transfer_T": transfer_t,
        "oracle.slice_space": slice_space,
        "linalg.echelon_insert": insert("echelon.raised"),
        "linalg.spanbasis_insert": insert("spanbasis.raised"),
        "poly.conj_check": conj_check,
        "normalform.emit": emit,
    }


def instrument(tracer: Tracer) -> list[str]:
    """Trace every callable in SPANS, for the rest of this process.

    Returns the spans whose callable the program no longer has; they read 0.
    """
    import importlib

    modules = {
        name: importlib.import_module("birevnf." + name)
        for name in {module for module, _ in SPANS.values()}
    }
    hooks = _counting_hooks(tracer)
    missing = []
    for span, (module, path) in SPANS.items():
        original = _original(modules[module], path)
        if original is None:
            missing.append(span)
            continue
        traced = tracer.wrap(span, original)
        # counting runs outside the span, so it does not inflate the layer
        _rebind(original, hooks[span](traced) if span in hooks else traced)
    return missing
