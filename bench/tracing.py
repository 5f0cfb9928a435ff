"""Spans, counters and GC accounting around calls into centerwalk's layers.

The tracer wraps, from outside the program, every public function of the
layer modules (and every other module's import-time binding of it), the
``Kernel`` constructor, the private Monte Carlo endpoint sampler, and
``multiply`` on each ``Group`` subclass.  Spans (name, start, end, parent)
are kept in memory and written out at the end of the run; per-function
totals, self times and counts are accumulated as the spans close, so
metrics stay exact even when the stored span list is capped.

``multiply`` is only counted, never timed per call: its per-call cost is
measured afterwards by replaying a fixed sample of the round's own operand
pairs in a tight loop with the original method.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = ("groups", "group_walks", "markov_graph", "dirichlet_forms",
          "evolution", "serialization", "cli")

#: hot helpers that are counted but get no span (their time stays in the caller)
COUNT_ONLY = {
    "dirichlet_forms.apply_kernel",
    "dirichlet_forms.kernel_step",
    "dirichlet_forms.random_test_function",
    "evolution.path_rng",
    "markov_graph.split_edge_walk",
    "serialization.encode_vertex",
    "serialization.decode_vertex",
}

#: private functions that are layer boundaries all the same
EXTRA = (("evolution", "_mc_endpoints"),)

#: operand pairs kept per Group subclass for the multiply replay
SAMPLE_PAIRS = 4096

#: spans stored per traced round; later ones are still summed into the metrics
MAX_SPANS = 100_000

#: (name, unit) of every per-layer metric, in report order
PER_LAYER = (
    ("groups.multiply_calls", "count"),
    ("groups.multiply_ns", "ns"),
    ("evolution.evolve_s", "s"),
    ("evolution.evolve_pairs", "count"),
    ("evolution.evolve_ns_per_pair", "ns"),
    ("evolution.peak_support", "count"),
    ("evolution.fit_cv_s", "s"),
    ("evolution.fit_cv_points", "count"),
    ("evolution.escape_s", "s"),
    ("evolution.mc_sample_s", "s"),
    ("evolution.lamp_identity_s", "s"),
    ("evolution.speed_s", "s"),
    ("evolution.entropy_s", "s"),
    ("evolution.mc_steps", "count"),
    ("evolution.mc_steps_per_s", "1/s"),
    ("group_walks.word_ball_s", "s"),
    ("group_walks.word_ball_vertices", "count"),
    ("group_walks.c1_search_s", "s"),
    ("group_walks.c1_search_nodes", "count"),
    ("group_walks.cayley_kernel_s", "s"),
    ("group_walks.translated_decomposition_s", "s"),
    ("group_walks.f2_reduce_s", "s"),
    ("markov_graph.kernel_build_s", "s"),
    ("markov_graph.kernel_edges", "count"),
    ("markov_graph.verify_centering_s", "s"),
    ("markov_graph.invariance_check_s", "s"),
    ("markov_graph.decomposition_s", "s"),
    ("dirichlet_forms.sector_ratio_s", "s"),
    ("dirichlet_forms.form_calls", "count"),
    ("dirichlet_forms.green_comparison_s", "s"),
    ("serialization.canonical_json_s", "s"),
    ("serialization.results_bytes", "MB"),
    ("cli.main_s", "s"),
    ("cli.report_bytes", "MB"),
    ("runtime.gc_s", "s"),
    ("runtime.gc_collections", "count"),
    ("runtime.cpu_s", "s"),
    ("runtime.trace_overhead_s", "s"),
)


class GCMeter:
    """Collections and pause time from ``gc.callbacks``; ``charge`` gets each pause."""

    def __init__(self, charge: Optional[Callable[[float], None]] = None):
        self.seconds = 0.0
        self.collections = 0
        self._charge = charge
        self._t0 = 0.0

    def _callback(self, phase, info):
        if phase == "start":
            self._t0 = time.perf_counter()
            return
        dt = time.perf_counter() - self._t0
        self.seconds += dt
        self.collections += 1
        if self._charge is not None:
            self._charge(dt)

    def __enter__(self):
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._callback)


class _MulStats:
    """Call count and a systematic sample of operand pairs for one Group subclass."""

    def __init__(self, original):
        self.original = original
        self.calls = 0
        self.stride = 1
        self.pairs: List[Tuple] = []

    def keep(self, group, x, y):
        self.pairs.append((group, x, y))
        if len(self.pairs) >= 2 * SAMPLE_PAIRS:
            # halve the sample and double the stride: stays uniform over the calls
            self.pairs = self.pairs[1::2]
            self.stride *= 2


class Tracer:
    """One traced round: ``with Tracer() as t:`` run the round, then read the metrics."""

    def __init__(self):
        self.spans: List[Tuple] = []
        self.spans_dropped = 0
        self._stack: List[list] = []
        self._next_id = 0
        self.calls: Dict[str, int] = {}
        self.total: Dict[str, float] = {}
        self.self_time: Dict[str, float] = {}
        self.nested: Dict[Tuple[str, str], float] = {}
        self.counts: Dict[str, float] = {}
        self.peaks: Dict[str, int] = {}
        self.gc_by_layer: Dict[str, float] = {}
        self.mul: Dict[str, _MulStats] = {}
        self._patches: List[Tuple[object, str, object]] = []
        self.gc = GCMeter(self._charge_gc)

    # -- accounting --------------------------------------------------------

    def _charge_gc(self, dt: float):
        layer = self._stack[-1][0].split(".")[0] if self._stack else "benchmark"
        self.gc_by_layer[layer] = self.gc_by_layer.get(layer, 0.0) + dt

    def add(self, name: str, value: float):
        self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name: str, value: int):
        self.peaks[name] = max(self.peaks.get(name, 0), value)

    def _span_wrapper(self, name: str, fn, pre=None, post=None):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(args, kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][3] if stack else None
            frame = [name, clock(), 0.0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                self.calls[name] = self.calls.get(name, 0) + 1
                self.total[name] = self.total.get(name, 0.0) + dur
                self.self_time[name] = self.self_time.get(name, 0.0) + dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                    key = (stack[-1][0], name)
                    self.nested[key] = self.nested.get(key, 0.0) + dur
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((span_id, name, frame[1], end, parent))
                else:
                    self.spans_dropped += 1
            if post is not None:
                post(result, args, kwargs)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- hooks for the metrics that need arguments or results ---------------

    def _hooks(self, name: str, fn):
        sig = inspect.signature(fn)

        def arg(args, kwargs, key):
            return sig.bind(*args, **kwargs).arguments[key]

        if name == "evolution.evolve":
            def pre(args, kwargs):
                self.add("evolve_pairs", len(arg(args, kwargs, "dist")) * len(arg(args, kwargs, "step")))
            return pre, lambda res, a, k: self.peak("peak_support", len(res))
        if name in ("evolution.mc_sample", "evolution._mc_endpoints"):
            def pre(args, kwargs):
                self.add("mc_steps", arg(args, kwargs, "t") * arg(args, kwargs, "n_paths"))
            return pre, None
        if name == "evolution.fit_cv_constant":
            return None, lambda res, a, k: self.add("fit_cv_points", len(res.margins))
        if name == "group_walks.word_ball":
            return None, lambda res, a, k: self.add("word_ball_vertices", len(res))
        if name == "group_walks.c1_search":
            return None, lambda res, a, k: self.add("c1_search_nodes", res.nodes)
        if name == "serialization.canonical_json_bytes":
            return None, lambda res, a, k: self.add("results_bytes", len(res))
        return None, None

    # -- install / uninstall -------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        originals = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"centerwalk.{layer}")
            names = [n for n, obj in vars(mod).items()
                     if inspect.isfunction(obj) and obj.__module__ == mod.__name__
                     and not n.startswith("_")]
            names += [n for lay, n in EXTRA if lay == layer and hasattr(mod, n)]
            for n in names:
                fn = getattr(mod, n)
                name = f"{layer}.{n}"
                if name in COUNT_ONLY:
                    originals[fn] = self._count_wrapper(name, fn)
                else:
                    originals[fn] = self._span_wrapper(name, fn, *self._hooks(name, fn))
        # rebind in every module that imported the function by name
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "centerwalk" or mod_name.startswith("centerwalk.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in originals:
                    self._set(mod, attr, originals[obj])

        groups = importlib.import_module("centerwalk.groups")
        for cls in vars(groups).values():
            if (inspect.isclass(cls) and issubclass(cls, groups.Group)
                    and cls is not groups.Group and "multiply" in vars(cls)):
                self._set(cls, "multiply", self._multiply_wrapper(cls))

        mg = importlib.import_module("centerwalk.markov_graph")
        init = mg.Kernel.__init__

        def count_edges(res, args, kwargs):
            kernel = args[0]
            self.add("kernel_edges", sum(len(kernel.row(x)) for x in kernel.window))

        self._set(mg.Kernel, "__init__",
                  self._span_wrapper("markov_graph.Kernel", init, None, count_edges))
        self.gc.__enter__()

    def _multiply_wrapper(self, cls):
        stats = self.mul[cls.__name__] = _MulStats(cls.__dict__["multiply"])
        original = stats.original

        def multiply(group, x, y):
            stats.calls += 1
            if stats.calls % stats.stride == 0:
                stats.keep(group, x, y)
            return original(group, x, y)

        return multiply

    def uninstall(self):
        self.gc.__exit__()
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results ---------------------------------------------------------------

    def multiply_ns(self, repeats: int = 5) -> Dict[str, float]:
        """Median ns per call of each class's original multiply on its sampled pairs."""
        out = {}
        clock = time.perf_counter
        for cls_name, stats in self.mul.items():
            if not stats.pairs:
                continue
            f = stats.original
            pairs = stats.pairs
            per_call = []
            for _ in range(repeats):
                t0 = clock()
                for g, x, y in pairs:
                    f(g, x, y)
                per_call.append((clock() - t0) / len(pairs))
            out[cls_name] = statistics.median(per_call) * 1e9
        return out

    def metrics(self, mul_ns: Dict[str, float]) -> Dict[str, float]:
        """Per-layer metrics of this round, except the runtime ones."""
        tot = lambda *names: sum(self.total.get(n, 0.0) for n in names)
        calls = sum(s.calls for s in self.mul.values())
        weighted = sum(self.mul[c].calls * ns for c, ns in mul_ns.items())
        pairs = self.counts.get("evolve_pairs", 0)
        evolve_s = tot("evolution.evolve")
        steps = self.counts.get("mc_steps", 0)
        sampler_s = tot("evolution.mc_sample", "evolution._mc_endpoints")
        green = tot("dirichlet_forms.green_comparison") - self.nested.get(
            ("dirichlet_forms.green_comparison", "dirichlet_forms.sector_ratio"), 0.0)
        return {
            "groups.multiply_calls": calls,
            "groups.multiply_ns": weighted / calls if calls else 0.0,
            "evolution.evolve_s": evolve_s,
            "evolution.evolve_pairs": pairs,
            "evolution.evolve_ns_per_pair": evolve_s / pairs * 1e9 if pairs else 0.0,
            "evolution.peak_support": self.peaks.get("peak_support", 0),
            "evolution.fit_cv_s": tot("evolution.fit_cv_constant"),
            "evolution.fit_cv_points": self.counts.get("fit_cv_points", 0),
            "evolution.escape_s": tot("evolution.escape_probability"),
            "evolution.mc_sample_s": tot("evolution.mc_sample"),
            "evolution.lamp_identity_s": tot("evolution.wreath_lamp_identity"),
            "evolution.speed_s": tot("evolution.speed_estimate"),
            "evolution.entropy_s": tot("evolution.entropy_estimate"),
            "evolution.mc_steps": steps,
            "evolution.mc_steps_per_s": steps / sampler_s if sampler_s else 0.0,
            "group_walks.word_ball_s": tot("group_walks.word_ball"),
            "group_walks.word_ball_vertices": self.counts.get("word_ball_vertices", 0),
            "group_walks.c1_search_s": tot("group_walks.c1_search"),
            "group_walks.c1_search_nodes": self.counts.get("c1_search_nodes", 0),
            "group_walks.cayley_kernel_s": tot("group_walks.cayley_kernel"),
            "group_walks.translated_decomposition_s": tot("group_walks.translated_cycle_decomposition"),
            "group_walks.f2_reduce_s": tot("group_walks.f2_reduce"),
            "markov_graph.kernel_build_s": tot("markov_graph.Kernel"),
            "markov_graph.kernel_edges": self.counts.get("kernel_edges", 0),
            "markov_graph.verify_centering_s": tot("markov_graph.verify_centering"),
            "markov_graph.invariance_check_s": tot("markov_graph.invariance_check"),
            "markov_graph.decomposition_s": tot("markov_graph.reversible_decomposition",
                                                "markov_graph.circulation_to_cycles"),
            "dirichlet_forms.sector_ratio_s": tot("dirichlet_forms.sector_ratio"),
            "dirichlet_forms.form_calls": self.calls.get("dirichlet_forms.dirichlet_form", 0),
            "dirichlet_forms.green_comparison_s": green,
            "serialization.canonical_json_s": tot("serialization.canonical_json_bytes"),
            "serialization.results_bytes": self.counts.get("results_bytes", 0) / 1e6,
            "cli.main_s": tot("cli.main"),
            "cli.report_bytes": self.counts.get("report_bytes", 0) / 1e6,
        }

    def dump(self) -> dict:
        """Everything the spans file holds for this round."""
        return {
            "spans": [{"id": i, "name": n, "start": s, "end": e, "parent": p}
                      for i, n, s, e, p in self.spans],
            "spans_dropped": self.spans_dropped,
            "functions": {
                n: {"calls": self.calls[n], "total_s": self.total.get(n, 0.0),
                    "self_s": self.self_time.get(n, 0.0)}
                for n in sorted(self.calls)
            },
            "gc_s_by_layer": dict(sorted(self.gc_by_layer.items())),
            "multiply_calls_by_class": {c: s.calls for c, s in sorted(self.mul.items())},
        }
