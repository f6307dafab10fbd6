"""Span tracer for the benchmark's traced run (``--trace 1``).

The tracer wraps the public callables of every bvm module from outside:
module-level functions, plus the methods that carry each layer's work
(``Distribution.sample``, ``ModelFunction.evaluate``,
``ComparisonFn.on_batch``, ``AgreementRule.kernel_many``,
``Scenario.draw_pairs``). It then rebinds every bvm module global that
still names an original, because modules such as ``metrics`` and
``studies`` bind ``estimate_bvm_mc`` at import. ``src/`` is not changed.

Each wrapped call records a span (id, parent id, name, start, end) in an
in-memory list. Per-item scalar calls (``kernel``, ``pair``, ``density``,
``cdf``, ``quantile`` and the comparison helpers the metric loops call
once per draw) get no span: they are counted, and their outermost calls
timed, in per-thread counters. Self time is a span's duration minus the
part of it that its child spans cover; children that ran on the worker
threads of ``estimate_bvm_mc`` overlap, so the covered part is the union
of their intervals.

This module is imported only by a traced run, after its untraced rounds.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
import tracemalloc
from collections import defaultdict

LAYERS = ("rng", "distributions", "models", "comparison", "agreement",
          "engine", "metrics", "config", "studies", "cli")

# Module functions called once per draw or per point: counted, not spanned.
SCALAR_FUNCTIONS = {
    "comparison": {"abs_diff", "sq_diff", "mean_abs_error", "max_abs_error", "per_point_abs_error",
                   "fraction_within", "coverage_fraction", "band_arrays", "ecdf", "area_metric",
                   "binned_prob_diff", "kl_divergence", "symmetrized_kl", "js_divergence", "hellinger",
                   "divergence"},
}
# Per-item wrappers that only forward to a counted call, and the chunk loops
# whose draws belong to the caller's span.
UNWRAPPED = {
    "rng": {"num_chunks", "assemble_chunks"},
    "agreement": {"evaluate_kernel"},
    "metrics": {"kernel_on_value"},
}
PEAK_SPANS = {"engine.estimate_bvm_mc", "engine.sweep"}


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent id, name, start, end)
        self.peaks_mb = defaultdict(float)  # span name -> largest traced MB allocated by one call
        self.track_peaks = False  # the two PEAK_SPANS must not nest
        self._ids = itertools.count(1)
        self._main = threading.get_ident()
        self._main_stack = []
        self._local = threading.local()
        self._thread_states = []
        self._states_lock = threading.Lock()
        self._patches = []  # (owner, attribute, original)

    # -- per-thread state ------------------------------------------------

    def _state(self):
        st = getattr(self._local, "state", None)
        if st is None:
            st = {"stack": self._main_stack if threading.get_ident() == self._main else [],
                  "calls": defaultdict(int), "seconds": defaultdict(float),
                  "depth": defaultdict(int), "counts": defaultdict(float)}
            self._local.state = st
            with self._states_lock:
                self._thread_states.append(st)
        return st

    def counts(self) -> dict:
        """Counters summed over threads: '<family>.calls', '<family>.s' and hook counts."""
        out = defaultdict(float)
        for st in list(self._thread_states):
            for k, v in st["calls"].items():
                out[f"{k}.calls"] += v
            for k, v in st["seconds"].items():
                out[f"{k}.s"] += v
            for k, v in st["counts"].items():
                out[k] += v
        return dict(out)

    def reset_counts(self):
        for st in list(self._thread_states):
            for key in ("calls", "seconds", "counts"):
                st[key].clear()

    # -- wrappers ----------------------------------------------------------

    def span(self, name, fn, hook=None):
        tracer = self
        spans, ids, main_stack = self.spans, self._ids, self._main_stack
        peak = name in PEAK_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            stack = st["stack"]
            if stack:
                parent = stack[-1]
            else:  # a worker thread: its work belongs to the main thread's open span
                try:
                    parent = main_stack[-1]
                except IndexError:
                    parent = 0
            sid = next(ids)
            stack.append(sid)
            measure = peak and tracer.track_peaks
            if measure:  # traced only inside the call: the peak is what the call allocated
                tracemalloc.start()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans.append((sid, parent, name, t0, t1))
                if measure:
                    extra = tracemalloc.get_traced_memory()[1] / 1e6
                    tracemalloc.stop()
                    tracer.peaks_mb[name] = max(tracer.peaks_mb[name], extra)
            if hook is not None:
                hook(st["counts"], args, kwargs, result)
            return result

        return wrapper

    def counted(self, family, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            st["calls"][family] += 1
            depth = st["depth"]
            if depth[family]:
                return fn(*args, **kwargs)
            depth[family] = 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                st["seconds"][family] += time.perf_counter() - t0
                depth[family] = 0

        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        _set(owner, attr, value)

    def install(self):
        import bvm.cli  # noqa: F401  (imports config, metrics and studies too)

        mods = {layer: sys.modules[f"bvm.{layer}"] for layer in LAYERS}
        hooks = _hooks(mods)
        replaced = {}
        for layer, mod in mods.items():
            for name, obj in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__
                        or name in UNWRAPPED.get(layer, ())):
                    continue
                if name in SCALAR_FUNCTIONS.get(layer, ()):
                    replaced[obj] = self.counted(f"{layer}.scalar", obj)
                else:
                    replaced[obj] = self.span(f"{layer}.{name}", obj, hooks.get(f"{layer}.{name}"))

        dist, ag, comp = mods["distributions"], mods["agreement"], mods["comparison"]
        methods = [
            (dist.Distribution, "sample", self.span("distributions.sample", dist.Distribution.sample,
                                                    hooks["distributions.sample"])),
            (mods["models"].ModelFunction, "evaluate",
             self.span("models.evaluate", mods["models"].ModelFunction.evaluate, hooks["models.evaluate"])),
            (comp.ComparisonFn, "on_batch", self.span("comparison.on_batch", comp.ComparisonFn.on_batch)),
            (comp.Ecdf, "__call__", self.counted("comparison.scalar", comp.Ecdf.__call__)),
            (mods["engine"].Scenario, "draw_pairs",
             self.span("engine.draw_pairs", mods["engine"].Scenario.draw_pairs)),
        ]
        for cls in _subclasses(dist.Distribution):
            for meth in ("density", "cdf", "quantile"):
                if meth in cls.__dict__:
                    methods.append((cls, meth, self.counted("distributions.scalar", cls.__dict__[meth])))
        for cls in _subclasses(ag.AgreementRule):
            if "kernel_many" in cls.__dict__:
                methods.append((cls, "kernel_many", self.span("agreement.kernel_many", cls.__dict__["kernel_many"])))
            if "kernel" in cls.__dict__:
                methods.append((cls, "kernel", self.counted("agreement.kernel", cls.__dict__["kernel"])))
        for fn_obj in {id(f): f for f in comp._REGISTRY.values()}.values():
            methods.append((fn_obj, "pair", self.counted("comparison.scalar", fn_obj.pair)))
        for owner, attr, wrapper in methods:
            self._patch(owner, attr, wrapper)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "bvm" and not mod_name.startswith("bvm."):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    self._patch(mod, name, replaced[obj])

    def uninstall(self):
        while self._patches:
            _set(*self._patches.pop())

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(f"{sid}\t{parent}\t{name}\t{t0!r}\t{t1!r}\n")


def _set(owner, attr, value):
    if isinstance(owner, type) or inspect.ismodule(owner):
        setattr(owner, attr, value)
    else:  # a frozen dataclass instance
        object.__setattr__(owner, attr, value)


def _subclasses(cls):
    out, todo = [cls], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in out:
                out.append(sub)
                todo.append(sub)
    return out


def _hooks(mods):
    """Count hooks: (per-thread counts, args, kwargs, result) -> None."""
    band_stream = mods["rng"].BAND_STREAM
    sample_sig = inspect.signature(mods["distributions"].Distribution.sample)

    def sample(c, args, kwargs, result):
        bound = sample_sig.bind(*args, **kwargs)
        n = int(bound.arguments["n"])
        c["distributions.values_drawn"] += n
        if bound.arguments.get("stream", 0) == band_stream:
            c["config.band_paths"] += n

    def evaluate(c, args, kwargs, result):
        c["models.paths_evaluated"] += result.shape[0] if result.ndim == 2 else 1

    def weighted_paths(c, args, kwargs, result):
        c["engine.sweep_paths"] += result[0].shape[0]

    def sweep(c, args, kwargs, result):
        c["engine.sweep_cells"] += result.values.size

    def chunk_rng(c, args, kwargs, result):
        c["rng.chunk_rng_calls"] += 1

    return {
        "distributions.sample": sample,
        "models.evaluate": evaluate,
        "engine.weighted_paths": weighted_paths,
        "engine.sweep": sweep,
        "rng.chunk_rng": chunk_rng,
    }


# ---------------------------------------------------------------------------
# Span arithmetic


def covered(intervals, lo, hi) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def span_times(spans):
    """Per span name: (inclusive seconds, self seconds, span count)."""
    children = defaultdict(list)
    for sid, parent, _, t0, t1 in spans:
        children[parent].append((t0, t1))
    out = defaultdict(lambda: [0.0, 0.0, 0])
    for sid, _, name, t0, t1 in spans:
        row = out[name]
        row[0] += t1 - t0
        row[1] += (t1 - t0) - covered(children.get(sid, ()), t0, t1)
        row[2] += 1
    return {k: tuple(v) for k, v in out.items()}


def layer_metrics(spans, counts: dict) -> dict:
    """The per-layer metrics of one round, from its spans and counters."""
    t = span_times(spans)

    def incl(name):
        return t.get(name, (0.0, 0.0, 0))[0]

    def self_s(name):
        return t.get(name, (0.0, 0.0, 0))[1]

    def layer_self(layer):
        return sum(v[1] for k, v in t.items() if k.startswith(layer + "."))

    return {
        "rng.chunk_rng_calls": counts.get("rng.chunk_rng_calls", 0.0),
        "rng.chunk_rng_s": incl("rng.chunk_rng"),
        "distributions.sample_s": self_s("distributions.sample"),
        "distributions.values_drawn": counts.get("distributions.values_drawn", 0.0),
        "distributions.scalar_calls": counts.get("distributions.scalar.calls", 0.0),
        "distributions.scalar_s": counts.get("distributions.scalar.s", 0.0),
        "models.evaluate_s": incl("models.evaluate"),
        "models.paths_evaluated": counts.get("models.paths_evaluated", 0.0),
        "comparison.on_batch_s": incl("comparison.on_batch"),
        "comparison.scalar_calls": counts.get("comparison.scalar.calls", 0.0),
        "comparison.scalar_s": counts.get("comparison.scalar.s", 0.0),
        "agreement.kernel_many_s": self_s("agreement.kernel_many"),
        "agreement.kernel_calls": counts.get("agreement.kernel.calls", 0.0),
        "agreement.kernel_s": counts.get("agreement.kernel.s", 0.0),
        "engine.estimate_bvm_mc_self_s": self_s("engine.estimate_bvm_mc"),
        "engine.weighted_paths_s": incl("engine.weighted_paths"),
        "engine.sweep_self_s": self_s("engine.sweep"),
        "engine.sweep_paths": counts.get("engine.sweep_paths", 0.0),
        "engine.sweep_cells": counts.get("engine.sweep_cells", 0.0),
        "metrics.frequentist_s": incl("metrics.frequentist"),
        "metrics.binned_pdf_metric_s": incl("metrics.binned_pdf_metric"),
        "metrics.area_metric_validation_s": incl("metrics.area_metric_validation"),
        "metrics.divergence_validation_s": incl("metrics.divergence_validation"),
        "metrics.statistical_power_bvm_s": incl("metrics.statistical_power_bvm"),
        "metrics.bayesian_evidence_s": incl("metrics.bayesian_evidence"),
        "config.load_config_s": incl("config.load_config"),
        "config.build_scenario_s": incl("config.build_scenario"),
        "config.band_paths": counts.get("config.band_paths", 0.0),
        "studies.run_study_self_s": layer_self("studies"),
        "cli.main_self_s": layer_self("cli"),
    }
