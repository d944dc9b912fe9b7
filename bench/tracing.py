"""Spans around the calls into each widesense layer, recorded from outside.

``Tracer.install`` replaces each public function of a layer at every module
of the package that holds it under its name, which is where callers look it
up (``engine.sasr`` and ``experiments.sasr`` as well as ``recovery.sasr``),
plus a few methods on classes.  ``Tracer.remove`` puts the originals back.
A span records its layer, its parent span, the operation it belongs to and
its start and end.  A layer's self time is the duration of its spans minus
the part covered by their child spans.  Counts are kept at the same
boundaries; a call made directly inside a span of the same layer (such as
``run_frame`` stepping ``iter_frame_steps``) is not counted twice.
"""

from __future__ import annotations

import inspect
import json
import math
import time
from collections import defaultdict

# layer -> (module of definition, public function names)
FUNCTION_LAYERS = {
    "recovery.pursuit": ("recovery", ("omp", "sasr")),
    "sensing.draw_matrix": ("sensing", ("draw_matrix",)),
    "sensing.acquire": ("sensing", ("acquire",)),
    "signals.synthesis": ("signals", ("signal_time_series", "synthesize_grid_signal",
                                      "synthesize_signal", "random_grid_spectrum")),
    "validation": ("validation", None),   # every public function of the module
    "rng.stream_seed": ("rng", ("stream_seed",)),
    "engine.frame": ("engine", ("run_frame", "iter_frame_steps")),
    "engine.energy_detect": ("engine", ("energy_detect",)),
    "experiments.run": ("experiments", ("run_experiment",)),
    "experiments.table": ("experiments", ("load_config",)),
    "cli.main": ("cli", ("main",)),
}

# layer -> (module, class, method names)
METHOD_LAYERS = (
    ("recovery.correlations", "recovery", "FourierDictionary", ("correlations",)),
    ("recovery.column", "recovery", "FourierDictionary", ("column",)),
    ("experiments.table", "experiments", "ExperimentConfig", ("from_dict", "to_dict")),
    ("experiments.table", "experiments", "ResultTable", ("write", "to_csv_text", "to_json_text")),
)

MODULES = ("cli", "engine", "experiments", "recovery", "sensing", "signals", "validation", "rng")


def _correlation_flops(args, _result) -> float:
    # A real (r, n) matrix against a complex residual is two real products
    # of 2 r n flops each, and the length-n FFT counts 5 n log2 n.
    rows, cols = args[0].shape
    return 4.0 * rows * cols + 5.0 * cols * math.log2(cols)


COUNTERS = {
    "recovery.correlations": ("flops", _correlation_flops),
    "recovery.pursuit": ("iterations", lambda _args, result: result.iterations),
    "sensing.draw_matrix": ("mb", lambda _args, result: result.size * result.itemsize / 1e6),
    "engine.frame": ("steps", lambda _args, result: result.steps_used),
}


class Tracer:
    """Spans and counts of the traced calls, kept in memory."""

    def __init__(self, package):
        self.package = package
        self.spans = []            # [layer, parent index, op, start, end]
        self.stack = []            # indices of the open spans
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.op = 0
        self.missing = []
        self._saved = []

    # -- recording ---------------------------------------------------------

    def _open(self, layer):
        parent = self.stack[-1] if self.stack else -1
        nested = parent >= 0 and self.spans[parent][0] == layer
        self.stack.append(len(self.spans))
        self.spans.append([layer, parent, self.op, time.perf_counter(), None])
        return nested

    def _close(self):
        self.spans[self.stack.pop()][4] = time.perf_counter()

    def _wrap(self, layer, fn):
        counter = COUNTERS.get(layer)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # Each step of the generator is its own span; the caller's work
            # between steps stays outside.
            def wrapped_gen(*args, **kwargs):
                nested = tracer._open(layer)
                try:
                    gen = fn(*args, **kwargs)
                finally:
                    tracer._close()
                if not nested:
                    tracer.calls[layer] += 1
                while True:
                    nested = tracer._open(layer)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._close()
                    if not nested:
                        tracer.counts[f"{layer}.steps"] += 1
                    yield item
            return wrapped_gen

        def wrapped(*args, **kwargs):
            nested = tracer._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            if not nested:
                tracer.calls[layer] += 1
                if counter is not None:
                    tracer.counts[f"{layer}.{counter[0]}"] += counter[1](args, result)
            return result
        return wrapped

    # -- installing --------------------------------------------------------

    def _replace(self, owner, name, new):
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def install(self):
        self.missing = []
        modules = {name: getattr(self.package, name) for name in MODULES}
        for layer, (home, names) in FUNCTION_LAYERS.items():
            source = modules[home]
            if names is None:
                names = [n for n in getattr(source, "__all__", ())
                         if inspect.isfunction(getattr(source, n, None))]
            for name in names:
                original = getattr(source, name, None)
                if not inspect.isfunction(original):
                    self.missing.append(f"{home}.{name}")
                    continue
                wrapper = self._wrap(layer, original)
                for module in (self.package, *modules.values()):
                    if module.__dict__.get(name) is original:
                        self._replace(module, name, wrapper)
        for layer, home, cls_name, names in METHOD_LAYERS:
            cls = getattr(modules[home], cls_name, None)
            for name in names:
                raw = cls.__dict__.get(name) if cls is not None else None
                if isinstance(raw, classmethod):
                    self._replace(cls, name, classmethod(self._wrap(layer, raw.__func__)))
                elif inspect.isfunction(raw):
                    self._replace(cls, name, self._wrap(layer, raw))
                else:
                    self.missing.append(f"{home}.{cls_name}.{name}")

    def remove(self):
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    # -- results -----------------------------------------------------------

    def self_seconds(self) -> dict:
        """Self time per layer: span durations minus their children's."""
        child = [0.0] * len(self.spans)
        for layer, parent, _op, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(float)
        for (layer, _parent, _op, start, end), inner in zip(self.spans, child):
            totals[layer] += (end - start) - inner
        return totals

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for index, (layer, parent, op, start, end) in enumerate(self.spans):
                fh.write(json.dumps([index, parent, op, layer, start, end]) + "\n")


def layer_metrics(tracer: Tracer, overhead_s: float) -> dict:
    """Per-layer metrics of the traced operations, with their units."""
    self_s = tracer.self_seconds()
    calls, counts = tracer.calls, tracer.counts

    def per_call_us(layer):
        return self_s[layer] * 1e6 / calls[layer] if calls[layer] else 0.0

    correlation_s = self_s["recovery.correlations"]
    metrics = {
        "recovery.correlations.calls": (calls["recovery.correlations"], "count"),
        "recovery.correlations.self_ms": (correlation_s * 1e3, "ms"),
        "recovery.correlations.us_per_call": (per_call_us("recovery.correlations"), "us"),
        "recovery.correlations.gflops": (
            counts["recovery.correlations.flops"] / correlation_s / 1e9 if correlation_s else 0.0,
            "GFLOP/s"),
        "recovery.column.calls": (calls["recovery.column"], "count"),
        "recovery.column.self_ms": (self_s["recovery.column"] * 1e3, "ms"),
        "recovery.column.us_per_call": (per_call_us("recovery.column"), "us"),
        "recovery.pursuit.calls": (calls["recovery.pursuit"], "count"),
        "recovery.pursuit.self_ms": (self_s["recovery.pursuit"] * 1e3, "ms"),
        "recovery.pursuit.iterations": (int(counts["recovery.pursuit.iterations"]), "count"),
        "sensing.draw_matrix.calls": (calls["sensing.draw_matrix"], "count"),
        "sensing.draw_matrix.self_ms": (self_s["sensing.draw_matrix"] * 1e3, "ms"),
        "sensing.draw_matrix.mb": (counts["sensing.draw_matrix.mb"], "MB"),
        "sensing.acquire.calls": (calls["sensing.acquire"], "count"),
        "sensing.acquire.self_ms": (self_s["sensing.acquire"] * 1e3, "ms"),
        "signals.synthesis.calls": (calls["signals.synthesis"], "count"),
        "signals.synthesis.self_ms": (self_s["signals.synthesis"] * 1e3, "ms"),
        "validation.calls": (calls["validation"], "count"),
        "validation.self_ms": (self_s["validation"] * 1e3, "ms"),
        "rng.stream_seed.calls": (calls["rng.stream_seed"], "count"),
        "rng.stream_seed.self_ms": (self_s["rng.stream_seed"] * 1e3, "ms"),
        "experiments.run.self_ms": (self_s["experiments.run"] * 1e3, "ms"),
        "experiments.table.self_ms": (self_s["experiments.table"] * 1e3, "ms"),
        "engine.frame.calls": (calls["engine.frame"], "count"),
        "engine.frame.self_ms": (self_s["engine.frame"] * 1e3, "ms"),
        "engine.frame.steps": (int(counts["engine.frame.steps"]), "count"),
        "engine.energy_detect.calls": (calls["engine.energy_detect"], "count"),
        "engine.energy_detect.self_ms": (self_s["engine.energy_detect"] * 1e3, "ms"),
        "cli.main.self_ms": (self_s["cli.main"] * 1e3, "ms"),
        "trace.overhead_ms": (overhead_s * 1e3, "ms"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
