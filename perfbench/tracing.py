"""Spans and counters recorded around skewbench's public functions.

The tracer lives outside the program: it replaces each listed function with
a wrapper in every `skewbench.*` module that holds a reference to it (the
modules import functions by name, so patching the defining module alone
would miss most calls), and puts the originals back afterwards.

Two kinds of pass use it, never together:
  * a timing pass (`Recorder`) keeps one span per call, from which each
    layer's self time is its spans' durations minus their child spans;
  * a memory pass (`PeakMeter`) runs tracemalloc only inside the functions
    in `PEAK_LAYERS` and records the largest allocation peak of each call
    above what was allocated at entry. tracemalloc slows small-allocation
    code such as the tree several-fold, so it never runs in a timing pass.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import os
import re
import sys
import threading
import time
import tracemalloc
from dataclasses import dataclass, field

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _tree_depth(model) -> int:
    depth, todo = 0, [(0, 0)]
    while todo:
        index, d = todo.pop()
        depth = max(depth, d)
        node = model.nodes[index]
        if node.left >= 0:
            todo += [(node.left, d + 1), (node.right, d + 1)]
    return depth


def _rows(result, ds, *args, **kwargs):
    return {"rows_in": ds.n, "rows_out": result.n}


# (module, function, layer, counters(result, *args, **kwargs) -> {counter: value}).
# Counters ending in "_max" aggregate by maximum, all others by sum.
LAYERS = (
    ("skewbench.datagen", "generate_imbalanced", "datagen.generate_imbalanced",
     lambda result, spec: {"rows": result[0].n}),
    ("skewbench.evaluation", "_run_unit", "evaluation.unit", None),
    ("skewbench.evaluation", "stratified_kfold", "evaluation.stratified_kfold", None),
    ("skewbench.evaluation", "evaluate_folds", "evaluation.evaluate_folds", None),
    ("skewbench.evaluation", "confusion", "evaluation.metrics", None),
    ("skewbench.evaluation", "metrics_from", "evaluation.metrics", None),
    ("skewbench.evaluation", "auc", "evaluation.metrics", None),
    ("skewbench.resample", "random_oversample", "resample.ro", _rows),
    ("skewbench.resample", "cluster_oversample", "resample.co", _rows),
    ("skewbench.resample", "smote", "resample.smote", _rows),
    ("skewbench.resample", "ncr", "resample.ncr", _rows),
    ("skewbench.resample", "sparsity", "resample.sparsity", _rows),
    ("skewbench.classify", "knn_predict_batch", "classify.knn_predict_batch",
     lambda result, model, queries: {"pairs": len(result[0]) * model.train.n}),
    ("skewbench.classify", "tree_fit", "classify.tree_fit",
     lambda result, ds, *a, **k: {"rows": ds.n, "nodes": len(result.nodes),
                                  "depth_max": _tree_depth(result)}),
    ("skewbench.classify", "tree_predict_batch", "classify.tree_predict_batch", None),
    ("skewbench.clustering", "estimate_bandwidth", "clustering.estimate_bandwidth", None),
    ("skewbench.clustering", "mean_shift", "clustering.mean_shift",
     lambda result, *a, **k: {"clusters": len(result.centers)}),
    ("skewbench.io", "write_dataset_csv", "io.write_dataset_csv",
     lambda result, ds, path: {"bytes": os.path.getsize(path)}),
    ("skewbench.io", "read_dataset_csv", "io.read_dataset_csv",
     lambda result, path: {"bytes": os.path.getsize(path)}),
    ("skewbench.plotting", "scatter_svg", "plotting.scatter_svg",
     lambda result, *a, **k: {"bytes": len(result)}),
)

PEAK_LAYERS = frozenset({"classify.knn_predict_batch", "resample.ncr", "resample.smote",
                         "clustering.estimate_bandwidth", "clustering.mean_shift"})


@dataclass
class Span:
    """One call of a wrapped function. `hook_s` is time spent computing counters."""

    id: int
    parent: int | None
    name: str
    start: float
    end: float
    cpu_s: float = 0.0
    hook_s: float = 0.0
    failed: bool = False
    counters: dict[str, int] = field(default_factory=dict)


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per layer: Σ span duration − Σ direct-child durations − counter time."""
    child_total: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_total[s.parent] = child_total.get(s.parent, 0.0) + (s.end - s.start)
    out: dict[str, float] = {}
    for s in spans:
        own = (s.end - s.start) - child_total.get(s.id, 0.0) - s.hook_s
        out[s.name] = out.get(s.name, 0.0) + own
    return out


def summarize(spans: list[Span]) -> dict:
    """Calls, self seconds and counters per layer, plus every unit span's wall and CPU."""
    layers: dict[str, dict] = {}
    for name, seconds in self_times(spans).items():
        layers[name] = {"calls": 0, "self_s": seconds, "counters": {}}
    for s in spans:
        entry = layers[s.name]
        entry["calls"] += 1
        for key, value in s.counters.items():
            old = entry["counters"].get(key, 0)
            entry["counters"][key] = max(old, value) if key.endswith("_max") else old + value
    units = [{"wall_s": s.end - s.start, "cpu_s": s.cpu_s, "failed": s.failed}
             for s in spans if s.name == "evaluation.unit"]
    return {"layers": layers, "units": units}


class Recorder:
    """Collects spans from any number of threads; each thread keeps its own stack."""

    def __init__(self, clock=time.perf_counter, cpu_clock=time.thread_time):
        self.spans: list[Span] = []
        self._clock = clock
        self._cpu_clock = cpu_clock
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn, counters=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            cpu0 = self._cpu_clock()
            start = self._clock()
            span = Span(span_id, parent, layer, start, start, failed=True)
            try:
                result = fn(*args, **kwargs)
                span.failed = False
                return result
            finally:
                stack.pop()
                span.cpu_s = self._cpu_clock() - cpu0
                returned = self._clock()
                if counters is not None and not span.failed:
                    span.counters = counters(result, *args, **kwargs)
                span.end = self._clock()
                span.hook_s = span.end - returned
                with self._lock:
                    self.spans.append(span)
        return wrapper


class PeakMeter:
    """Largest tracemalloc peak per layer, net of memory held at call entry.

    tracemalloc is started at the outermost metered call and stopped when it
    returns. A nested metered call resets the peak, so each frame folds the
    peak seen so far into its parent before the reset. Single-threaded only.
    """

    def __init__(self):
        self.peaks: dict[str, int] = {}
        self._frames: list[list[int]] = []  # [bytes at entry, highest peak seen]

    def wrap(self, layer: str, fn, counters=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            elif self._frames:
                self._fold(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            frame = [tracemalloc.get_traced_memory()[0], 0]
            self._frames.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                self._frames.pop()
                peak = max(frame[1], tracemalloc.get_traced_memory()[1])
                self._fold(peak)
                if started:
                    tracemalloc.stop()
                self.peaks[layer] = max(self.peaks.get(layer, 0), peak - frame[0])
        return wrapper

    def _fold(self, peak: int) -> None:
        if self._frames:
            self._frames[-1][1] = max(self._frames[-1][1], peak)


@contextlib.contextmanager
def patched(wrap, layers=LAYERS):
    """Replace each layer function with `wrap(layer, fn, counters)` wherever it is bound.

    Yields the (module, attribute, original) list; every original is put
    back on exit, also when wrapping fails part way.
    """
    importlib.import_module("skewbench.cli")  # binds every by-name import
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "skewbench" or name.startswith("skewbench."))]
    patches = []
    try:
        for module_name, attr, layer, counters in layers:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = wrap(layer, original, counters)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, name, original))
                        setattr(module, name, wrapper)
        yield patches
    finally:
        for module, name, original in reversed(patches):
            setattr(module, name, original)
