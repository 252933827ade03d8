"""Span tracing installed from outside the package.

``Tracer.install`` wraps the public functions and methods in ``TARGETS``.  A
module-level function is replaced wherever a ``quantloc`` module holds a
reference to it, so calls through ``from .x import f`` are traced too; a
method is replaced on its class.  A target that no longer exists makes
``install`` raise, so a refactor cannot silently empty a metric.

Every call records a span (id, name, start, end, parent, thread, op) in
memory, and per-name totals: calls, inclusive time, self time (the span's
duration minus that of its direct children) and the target's own counters.
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from functools import wraps

import numpy as np


def _samples(args, result):
    return {"samples": np.asarray(result).size}


def _bits(args, result):
    return {"bits": np.asarray(args[1]).size}


def _needed(args, result):
    # Samples a sweep needs at least: every sensor of every trial at the largest K.
    plan = args[0]
    return {"needed": plan.trials * len(plan.scenario.sensors) * max(plan.k_grid)}


def _clamped(args, result):
    return {"clamped": int(result.clamped)}


def _meets(args, result):
    return {"meets": int(bool(result))}


def _flagged(args, result):
    return {"flagged": sum(row.decision for row in result.rows), "rows": len(result.rows)}


def _bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


# (layer name, module, attribute or Class.method, counter of the call)
TARGETS = (
    ("montecarlo.sweep_delta", "quantloc.montecarlo", "sweep_delta", _needed),
    ("montecarlo.generate_dataset", "quantloc.montecarlo", "generate_dataset", None),
    ("measurement.sample_signal", "quantloc.measurement", "sample_signal", _samples),
    ("attacks.apply_attack", "quantloc.attacks", "apply_attack", _bits),
    ("rng.make_generator", "quantloc.rng", "make_generator", None),
    ("analysis.composite_exponents", "quantloc.analysis", "composite_exponents", None),
    ("measurement.freq", "quantloc.measurement", "QuantizedDataset.freq", None),
    ("measurement.nmle_distance", "quantloc.measurement", "nmle_distance", _clamped),
    ("noise.inv_cdf", "quantloc.noise", "GaussianNoise.inv_cdf", None),
    ("noise.cdf", "quantloc.noise", "GaussianNoise.cdf", None),
    ("scenario.sensor", "quantloc.scenario", "ScenarioConfig.sensor", None),
    ("geometry.analytic", "quantloc.geometry", "circle_meets_region_analytic", _meets),
    ("geometry.discretized", "quantloc.geometry", "circle_meets_region_discretized", _meets),
    ("detector.detect_all", "quantloc.detector", "detect_all", _flagged),
    ("detector.delta_admissible", "quantloc.detector", "delta_admissible", None),
    ("fileio.load_scenario", "quantloc.fileio", "load_scenario", None),
    ("fileio.load_dataset", "quantloc.fileio", "load_dataset", _bytes),
)

LAYERS = tuple(t[0] for t in TARGETS)


def layer_unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith(".bytes"):
        return "B"
    if "_per_s" in metric:
        return "1/s"
    if metric.endswith(("_frac", "_ratio", "_per_needed")):
        return "ratio"
    return "count"


class Tracer:
    """In-memory spans and per-layer totals; not shared between processes."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.op = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name, start, end, frame, stack) -> None:
        duration = end - start
        if stack:
            stack[-1][1] += duration
        parent = stack[-1][0] if stack else 0
        self.spans.append((frame[0], name, start, end, parent, threading.get_ident(), self.op))
        self.calls[name] += 1
        self.total_ns[name] += duration
        self.self_ns[name] += duration - frame[1]

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around one operation."""
        frame = [next(self._ids), 0]
        stack = self._stack()
        stack.append(frame)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self._record(name, start, end, frame, stack)

    def _wrap(self, name, fn, counter):
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            frame = [next(tracer._ids), 0]
            stack = tracer._stack()
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer._record(name, start, end, frame, stack)
            if counter is not None:
                for key, value in counter(args, result).items():
                    tracer.counts[f"{name}.{key}"] += value
            return result

        return traced

    def install(self) -> None:
        """Wrap every target; raises if one is missing."""
        modules = [m for n, m in list(sys.modules.items()) if n == "quantloc" or n.startswith("quantloc.")]
        for name, module_name, attr, counter in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self._wrap(name, original, counter))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def write_spans(self, path) -> None:
        """Spans as gzipped JSON lines, one per span, in completion order."""
        with gzip.open(path, "wt") as fh:
            for span_id, name, start, end, parent, thread, op in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start_ns": start, "end_ns": end,
                         "parent": parent, "thread": thread, "op": op}
                    )
                    + "\n"
                )
