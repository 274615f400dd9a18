"""Spans around fmpp's public functions, recorded from outside the package.

``Tracer.install`` replaces each target function at every ``fmpp`` module
attribute that refers to it (so ``from .core import x`` imports are covered
too) with a wrapper that records a span: name, start, end and the index of
the enclosing span.  Per-point scalars such as ``infer._spatial_density`` or
``CadlagPath.__call__`` get no wrapper; their cost is the self time of their
caller.  ``Tracer.restore`` puts every original object back.

A layer is the fmpp module a span's function belongs to; metric names drop
the leading underscore of ``_kernels`` and ``_optim`` (``kernels.``,
``optim.``), since a metric name starts with a letter.

Kernel ``ops`` and ``bytes`` are computed from the argument shapes of each
call, not measured: ``ops`` counts the arithmetic the kernel specifies and
``bytes`` the dense intermediate arrays the NumPy variant materialises.
"""
from __future__ import annotations

import functools
import importlib
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "ground", "marks", "core", "geometry", "stats", "infer",
          "optim", "kernels")
KERNELS = ("pair_stats", "gibbs_chain", "gi_integrate_values",
           "coverage_count", "neighbour_counts")
PENALTY = 1e12      # the objective value fmpp's fits return on NumericalError
MARKER = "__perfbench_original__"


# ---------------------------------------------------------------------------
# counts taken from arguments and results
# ---------------------------------------------------------------------------
def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _parent_name(tracer, rec):
    return tracer.spans[rec[3]][0] if rec[3] >= 0 else None


def _count_paths(tracer, paths):
    tracer.counts["marks.values"] += sum(p.values.size for p in paths)
    tracer.counts["core.paths_built"] += len(paths)


def _on_attach(tracer, rec, args, kwargs, result):
    _count_paths(tracer, result)


def _on_gi_integrate(tracer, rec, args, kwargs, result):
    # attach_marks already counts the paths it gets from gi_integrate
    if _parent_name(tracer, rec) != "marks.attach_marks":
        _count_paths(tracer, result)


def _on_ground(tracer, rec, args, kwargs, result):
    name = rec[0]
    if name == "ground.simulate_lgcp":
        n = len(result[1])
    elif name == "ground.simulate_immigration_death":
        n = len(result[0])
    else:
        n = len(result)
    tracer.counts["ground.points"] += n


def _on_to_json(tracer, rec, args, kwargs, result):
    tracer.counts["core.json_bytes"] += len(result)


def _on_from_json(tracer, rec, args, kwargs, result):
    tracer.counts["core.json_bytes"] += len(args[0])
    tracer.counts["core.paths_built"] += len(result)


def _on_csv(tracer, rec, args, kwargs, result):
    tracer.counts["core.csv_bytes"] += os.path.getsize(args[1])


def _on_section(tracer, rec, args, kwargs, result):
    tracer.counts["geometry.disks"] += len(result)


def _on_coverage(tracer, rec, args, kwargs, result):
    res = int(_arg(args, kwargs, 2, "resolution", 128))
    tracer.counts["geometry.pixels"] += res * res


def _on_pairs(tracer, rec, args, kwargs, result):
    n = len(args[0])      # points of a configuration, or located curves
    tracer.counts["stats.pairs"] += n * (n - 1) // 2


def _note_quad_nodes(tracer, nodes):
    key = "infer.quad_nodes"
    tracer.counts[key] = max(tracer.counts[key], nodes)


def _on_loglik(tracer, rec, args, kwargs, result):
    q = int(_arg(args, kwargs, 3, "quad_res", 64))
    _note_quad_nodes(tracer, q ** args[0].window.dim + q)


def _on_pseudolik(tracer, rec, args, kwargs, result):
    q = int(_arg(args, kwargs, 3, "quad_res", 64))
    w = args[0].window
    _note_quad_nodes(tracer, q ** (w.dim + (1 if w.is_temporal else 0)))


def kernel_cost(name: str, args: tuple, result) -> tuple:
    """Computed (operations, bytes) of one kernel call from its arguments."""
    if name == "pair_stats":
        pts, lags = args[0], args[3]
        n, d = pts.shape
        L = len(lags)
        pairs = n * (n - 1) // 2
        return (pairs * (4 * d + 4 + 8 * L),
                8 * (n * n * (d + 2) + pairs * (L + 4)))
    if name == "gibbs_chain":
        steps = args[6].shape[0]
        d = int(args[12])
        n = len(result)              # final state stands in for the path of n
        return steps * n * (3 * d + 1), 8 * steps * n * (d + 1)
    if name == "gi_integrate_values":
        n = args[0].shape[0]
        nsteps, inter_code, sigma_code = int(args[5]), int(args[8]), int(args[10])
        stages = 4 if sigma_code == 0 else 1
        per_drift = 3 * n + (8 * n * n if inter_code else 0)
        per_bytes = 8 * (4 * n * n if inter_code else 4 * n)
        return nsteps * stages * per_drift, nsteps * stages * per_bytes
    if name == "coverage_count":
        k = args[0].shape[0]
        res = int(args[4])
        return res * res * k * 6, 8 * res * res * k * 4
    if name == "neighbour_counts":
        q, p, d = args[0].shape[0], args[1].shape[0], int(args[6])
        return q * p * (3 * d + 1), 8 * q * p * (d + 1)
    raise ValueError(f"no cost model for kernel {name!r}")


def _kernel_hook(kernel):
    def hook(tracer, rec, args, kwargs, result):
        ops, nbytes = kernel_cost(kernel, args, result)
        tracer.counts[f"kernels.{kernel}.ops"] += ops
        tracer.counts[f"kernels.{kernel}.bytes"] += nbytes
    return hook


# (module, attribute, span name, hook); the span name's first part is the layer
TARGETS = [
    ("fmpp.cli", "run_simulate", "cli.run_simulate", None),
    ("fmpp.cli", "run_summarize", "cli.run_summarize", None),
    ("fmpp.cli", "run_geometry", "cli.run_geometry", None),
    ("fmpp.cli", "run_estimate", "cli.run_estimate", None),
    ("fmpp.ground", "simulate_poisson", "ground.simulate_poisson", _on_ground),
    ("fmpp.ground", "simulate_lgcp", "ground.simulate_lgcp", _on_ground),
    ("fmpp.ground", "simulate_immigration_death",
     "ground.simulate_immigration_death", _on_ground),
    ("fmpp.ground", "simulate_gibbs", "ground.simulate_gibbs", _on_ground),
    ("fmpp.marks", "attach_marks", "marks.attach_marks", _on_attach),
    ("fmpp.marks", "gi_integrate", "marks.gi_integrate", _on_gi_integrate),
    ("fmpp.marks", "make_configuration", "marks.make_configuration", None),
    ("fmpp.core", "configuration_to_json", "core.to_json", _on_to_json),
    ("fmpp.core", "configuration_from_json", "core.from_json", _on_from_json),
    ("fmpp.core", "write_configuration_csv", "core.csv", _on_csv),
    ("fmpp.core", "skorohod_distance", "core.skorohod", None),
    ("fmpp.core", "uniform_distance", "core.uniform_distance", None),
    ("fmpp.geometry", "section", "geometry.section", _on_section),
    ("fmpp.geometry", "coverage_fraction", "geometry.coverage", _on_coverage),
    ("fmpp.stats", "intensity_estimate", "stats.intensity", None),
    ("fmpp.stats", "pcf_ground", "stats.pcf", _on_pairs),
    ("fmpp.stats", "trace_variogram", "stats.variogram", _on_pairs),
    ("fmpp.infer", "fit_loglik_temporal", "infer.fit", None),
    ("fmpp.infer", "fit_pseudolikelihood", "infer.fit", None),
    ("fmpp.infer", "least_squares_marks", "infer.fit", None),
    ("fmpp.infer", "optimize", "infer.optimize", None),
    ("fmpp.infer", "loglik_temporal", "infer.loglik", _on_loglik),
    ("fmpp.infer", "pseudolikelihood", "infer.pseudolik", _on_pseudolik),
] + [("fmpp._kernels", k, f"kernels.{k}", _kernel_hook(k)) for k in KERNELS]


def _fmpp_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "fmpp" or name.startswith("fmpp."))]


def find_wrappers() -> list:
    """Names of fmpp attributes that currently hold a tracing wrapper."""
    from fmpp.core import Configuration

    found = [f"{m.__name__}.{k}" for m in _fmpp_modules()
             for k, v in vars(m).items() if hasattr(v, MARKER)]
    if hasattr(Configuration.__init__, MARKER):
        found.append("fmpp.core.Configuration.__init__")
    return found


# ---------------------------------------------------------------------------
# the tracer
# ---------------------------------------------------------------------------
class Tracer:
    """Records spans in memory while installed; ``spans`` holds lists
    ``[name, start, end, parent_index]`` (parent -1 for a root span)."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self._patches = []

    def wrap(self, name: str, fn, hook=None):
        spans, stack = self.spans, self.stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(tracer, rec, args, kwargs, result)
            return result

        setattr(wrapper, MARKER, fn)
        return wrapper

    def _wrap_nelder_mead(self, fn):
        def count_fit(tracer, rec, args, kwargs, result):
            tracer.counts["optim.fits"] += 1
            tracer.counts["optim.converged"] += bool(result[3])

        def count_eval(tracer, rec, args, kwargs, value):
            tracer.counts["infer.objective_evals"] += 1
            tracer.counts["infer.penalised_evals"] += float(value) >= PENALTY

        inner = self.wrap("optim.nelder_mead", fn, count_fit)

        @functools.wraps(fn)
        def wrapper(objective, *args, **kwargs):
            # the objective is a closure of infer's fit functions
            return inner(self.wrap("infer.objective", objective, count_eval),
                         *args, **kwargs)

        setattr(wrapper, MARKER, fn)
        return wrapper

    def _patch_everywhere(self, original, replacement):
        for mod in _fmpp_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for modname, attr, name, hook in TARGETS:
            fn = getattr(importlib.import_module(modname), attr)
            self._patch_everywhere(fn, self.wrap(name, fn, hook))
        optim = importlib.import_module("fmpp._optim")
        fn = optim.nelder_mead
        self._patch_everywhere(fn, self._wrap_nelder_mead(fn))
        from fmpp.core import Configuration

        init = Configuration.__init__
        self._patches.append((Configuration, "__init__", init))
        Configuration.__init__ = self.wrap("core.config_build", init)

    def restore(self):
        """Put back every original object; returns the number restored."""
        n = len(self._patches)
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return n


# ---------------------------------------------------------------------------
# self time and per-layer metrics
# ---------------------------------------------------------------------------
def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, parent) in enumerate(spans):
        covered = [(max(lo, start), min(hi, end)) for lo, hi in children[i]]
        out.append((end - start)
                   - _union_length([c for c in covered if c[1] > c[0]]))
    return out


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


PER_LAYER = (
    [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [("ground.busy_s", "s"), ("ground.points", "count"),
       ("marks.attach_s", "s"), ("marks.gi_integrate_s", "s"),
       ("marks.gi_integrate_calls", "count"), ("marks.values", "count"),
       ("core.to_json_s", "s"), ("core.from_json_s", "s"), ("core.csv_s", "s"),
       ("core.json_bytes", "bytes"), ("core.csv_bytes", "bytes"),
       ("core.config_build_s", "s"), ("core.paths_built", "count"),
       ("core.skorohod_s", "s"), ("core.skorohod_calls", "count"),
       ("geometry.section_s", "s"), ("geometry.coverage_s", "s"),
       ("geometry.disks", "count"), ("geometry.pixels", "count"),
       ("stats.pcf_s", "s"), ("stats.variogram_s", "s"),
       ("stats.intensity_s", "s"), ("stats.pairs", "count"),
       ("infer.fit_s", "s"), ("infer.objective_evals", "count"),
       ("infer.objective_s_mean", "s"), ("infer.penalised_evals", "count"),
       ("infer.useful_eval_ratio", "ratio"), ("infer.loglik_s", "s"),
       ("infer.pseudolik_s", "s"), ("infer.quad_nodes", "count"),
       ("optim.converged", "ratio")]
    + [(f"kernels.{k}.{m}", u) for k in KERNELS
       for m, u in (("calls", "count"), ("self_s", "s"), ("ops", "ops"),
                    ("bytes", "bytes"))]
    + [("trace.stage_wall_s", "s"), ("trace.self_sum_s", "s"),
       ("trace.unattributed_s", "s"), ("trace.overhead_s", "s"),
       ("trace.spans", "count")]
)

# busy-time metrics: metric name -> span name
_BUSY = {
    "marks.attach_s": "marks.attach_marks",
    "marks.gi_integrate_s": "marks.gi_integrate",
    "core.to_json_s": "core.to_json",
    "core.from_json_s": "core.from_json",
    "core.csv_s": "core.csv",
    "core.config_build_s": "core.config_build",
    "core.skorohod_s": "core.skorohod",
    "geometry.section_s": "geometry.section",
    "geometry.coverage_s": "geometry.coverage",
    "stats.pcf_s": "stats.pcf",
    "stats.variogram_s": "stats.variogram",
    "stats.intensity_s": "stats.intensity",
    "infer.fit_s": "infer.fit",
    "infer.loglik_s": "infer.loglik",
    "infer.pseudolik_s": "infer.pseudolik",
}
_CALLS = {"marks.gi_integrate_calls": "marks.gi_integrate",
          "core.skorohod_calls": "core.skorohod"}


def summarize_spans(spans) -> dict:
    """Totals over a span list: per-name busy time, self time and calls,
    per-layer self time, and the busy time of each layer's outermost spans."""
    selfs = self_times(spans)
    busy = Counter()
    self_by_name = Counter()
    calls = Counter()
    layer_self = Counter()
    layer_busy = Counter()
    for i, ((name, start, end, parent), s) in enumerate(zip(spans, selfs)):
        calls[name] += 1
        self_by_name[name] += s
        layer = layer_of(name)
        layer_self[layer] += s
        # count a span's time once when a span of the same name encloses it
        p, nested_name, nested_layer = parent, False, False
        while p >= 0:
            pname = spans[p][0]
            nested_name |= pname == name
            nested_layer |= layer_of(pname) == layer
            p = spans[p][3]
        if not nested_name:
            busy[name] += end - start
        if not nested_layer:
            layer_busy[layer] += end - start
    return {"busy": busy, "self": self_by_name, "calls": calls,
            "layer_self": layer_self, "layer_busy": layer_busy,
            "self_sum": sum(selfs), "spans": len(spans)}


def per_layer_metrics(summary: dict, counts: Counter, pipelines: int,
                      stage_wall: float, overhead: float) -> dict:
    """Per-layer metric values per pipeline, every name of PER_LAYER present
    (zero where a workload does not reach the layer)."""
    k = float(pipelines)
    busy, calls = summary["busy"], summary["calls"]
    out = {f"{layer}.self_s": summary["layer_self"][layer] / k
           for layer in LAYERS}
    out["ground.busy_s"] = summary["layer_busy"]["ground"] / k
    for metric, span in _BUSY.items():
        out[metric] = busy[span] / k
    for metric, span in _CALLS.items():
        out[metric] = calls[span] / k
    for key in ("ground.points", "marks.values", "core.json_bytes",
                "core.csv_bytes", "core.paths_built", "geometry.disks",
                "geometry.pixels", "stats.pairs", "infer.objective_evals",
                "infer.penalised_evals"):
        out[key] = counts[key] / k
    evals = counts["infer.objective_evals"]
    out["infer.objective_s_mean"] = busy["infer.objective"] / evals if evals else 0.0
    out["infer.useful_eval_ratio"] = ((evals - counts["infer.penalised_evals"])
                                      / evals if evals else 0.0)
    out["infer.quad_nodes"] = counts["infer.quad_nodes"]
    fits = counts["optim.fits"]
    out["optim.converged"] = counts["optim.converged"] / fits if fits else 0.0
    for kname in KERNELS:
        span = f"kernels.{kname}"
        out[f"{span}.calls"] = calls[span] / k
        out[f"{span}.self_s"] = summary["self"][span] / k
        out[f"{span}.ops"] = counts[f"{span}.ops"] / k
        out[f"{span}.bytes"] = counts[f"{span}.bytes"] / k
    out["trace.stage_wall_s"] = stage_wall / k
    out["trace.self_sum_s"] = summary["self_sum"] / k
    out["trace.unattributed_s"] = (stage_wall - summary["self_sum"]) / k
    out["trace.overhead_s"] = overhead
    out["trace.spans"] = summary["spans"] / k
    return {name: out[name] for name, _ in PER_LAYER}
