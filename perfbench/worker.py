"""One measured run of one workload, in its own process.

run.py starts this file with BLAS/OpenMP threads pinned and ``src`` on
PYTHONPATH, so the process's peak RSS belongs to this workload alone.  It
runs the workload's pipeline (simulate, then its other CLI stages) on a new
input per iteration, checks every iteration's outputs outside the timed
region, and writes its raw measurements as JSON to ``--out``.

With ``--trace 1`` it first runs untraced iterations for half the time,
then the same inputs again with every fmpp layer traced; the difference in
pipeline time is the tracing overhead.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from importlib import metadata
from pathlib import Path
from time import perf_counter

import numpy as np

import fmpp._jit
import fmpp.cli
from run import THREAD_VARS
from tracing import Tracer, find_wrappers, per_layer_metrics, summarize_spans
from workloads import WORKLOADS, path_metric

MIN_ITERATIONS = 3
# the benchmark's own bookkeeping between a stage's clock reads and its root
# span, allowed on top of the tracing overhead
GAP_SLACK_S = 1e-3
# a replicate r of a config with seed s uses seed s + r; 101 apart keeps the
# iterations' replicate seeds distinct
SEED_STRIDE = 101


def iteration_seed(seed: int, i: int) -> int:
    return seed * 10007 + SEED_STRIDE * i


def run_stage(stage: str, cfg: dict, out: Path):
    """Run one stage through the public CLI function; (exit code, value)."""
    cli = fmpp.cli
    seed = int(cfg["seed"])
    if stage == "simulate":
        return cli.run_simulate(cfg, out, seed, int(cfg["replicates"])), None
    if stage == "summarize":
        return cli.run_summarize(cfg, out, seed), None
    if stage == "geometry":
        return cli.run_geometry(cfg, out, seed), None
    if stage == "estimate":
        return cli.run_estimate(cfg, out, seed), None
    if stage == "path_metric":
        return 0, path_metric(out)
    raise ValueError(f"unknown stage {stage!r}")


def run_pipeline(stages, cfg: dict, out: Path, sink):
    """Time every stage; a stage that raises or exits non-zero is a failure
    and the pipeline goes on, so later stages fail on their own."""
    times, ctx, failures = {}, {}, []
    for stage in stages:
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                code, value = run_stage(stage, cfg, out)
        except Exception as exc:   # recorded as a failed stage call
            code, value = None, None
            failures.append((stage, "".join(
                traceback.format_exception_only(type(exc), exc)).strip()))
        times[stage] = perf_counter() - t0
        if value is not None:
            ctx[stage] = value
        if code not in (0, None):
            failures.append((stage, f"exit code {code}"))
    return times, ctx, failures


def check_rerun(cfg: dict, out: Path, again: Path, sink) -> list:
    """Simulating the same config again gives byte-identical files, apart
    from the manifest timestamp."""
    with contextlib.redirect_stdout(sink):
        fmpp.cli.run_simulate(cfg, again, int(cfg["seed"]),
                              int(cfg["replicates"]))
    fails = []
    names = sorted(p.name for p in out.iterdir() if p.name != "manifest.json"
                   and p.name.startswith(("configuration_r", "marks_r")))
    for name in names:
        if (out / name).read_bytes() != (again / name).read_bytes():
            fails.append(("simulate", f"rerun of simulate changed {name}"))
    manifests = []
    for d in (out, again):
        m = json.loads((d / "manifest.json").read_text(encoding="utf-8"))
        m.pop("timestamp", None)
        manifests.append(m)
    if manifests[0] != manifests[1]:
        fails.append(("simulate", "rerun of simulate changed manifest.json"))
    shutil.rmtree(again, ignore_errors=True)
    return fails


class Run:
    """Measurements, failures and harness checks of one worker run."""

    def __init__(self, name: str, seed: int, tiny: bool, workdir: Path):
        self.wl = WORKLOADS[name]
        self.stages = ("simulate",) + self.wl.stages
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir
        self.sink = open(os.devnull, "w", encoding="utf-8")
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.sizes = None

    def harness_check(self, ok: bool, message: str):
        """A check on the benchmark itself counts as one more attempted call."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(["harness", message])

    def iterate(self, budget: float | None, count: int | None = None,
                tracer: Tracer | None = None) -> list:
        """Run pipelines on inputs 0, 1, ... until ``count`` are done or the
        next one would take the measured time past ``budget`` seconds."""
        records = []
        measured = 0.0
        i = 0
        while True:
            cfg = self.wl.make_config(iteration_seed(self.seed, i), self.tiny)
            out = self.workdir / f"it{i:03d}{'-traced' if tracer else ''}"
            if tracer is not None:
                tracer.install()
            try:
                times, ctx, failures = run_pipeline(self.stages, cfg, out,
                                                    self.sink)
            finally:
                if tracer is not None:
                    tracer.restore()
            self.check(cfg, out, ctx, failures, first=(i == 0 and tracer is None))
            shutil.rmtree(out, ignore_errors=True)
            records.append(times)
            pipeline = sum(times.values())
            measured += pipeline
            i += 1
            if count is not None:
                if i >= count:
                    break
            elif i >= MIN_ITERATIONS and measured + pipeline > budget:
                break
        return records

    def check(self, cfg, out, ctx, failures, first: bool):
        """Output checks, run after the timed stages of one iteration."""
        fails = list(failures)
        if not failures:
            try:
                fails += self.wl.check(cfg, out, ctx)
                if first:
                    fails += check_rerun(cfg, out, self.workdir / "rerun",
                                         self.sink)
            except Exception as exc:   # a crashing check is a failed check
                fails.append((self.stages[-1], f"check raised {exc!r}"))
        if first and self.sizes is None and not failures:
            self.sizes = self.wl.sizes(cfg, out)
        failed_stages = {stage for stage, _ in fails}
        self.attempted += len(self.stages)
        self.failed += len(failed_stages)
        self.failures += [list(f) for f in fails]


def environment() -> dict:
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "using_numba": bool(fmpp._jit.USING_NUMBA),
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="shrunken inputs, for the self-tests")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    run = Run(args.workload, args.seed, args.tiny, args.workdir)
    run.harness_check(not find_wrappers(),
                      "tracing wrappers in fmpp before the untraced run")
    result = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "stages": list(run.stages)}
    if args.trace == 0:
        records = run.iterate(args.seconds)
    else:
        records = run.iterate(args.seconds / 2)
        tracer = Tracer()
        traced = run.iterate(None, count=len(records), tracer=tracer)
        k = len(traced)
        stage_wall = sum(sum(t.values()) for t in traced)
        # paired by input, so the first iteration's lazy imports cancel out
        overhead = statistics.median(
            sum(t.values()) - sum(u.values()) for t, u in zip(traced, records))
        summary = summarize_spans(tracer.spans)
        per_layer = per_layer_metrics(summary, tracer.counts, k, stage_wall,
                                      overhead)
        gap = per_layer["trace.unattributed_s"]
        run.harness_check(abs(gap) <= max(overhead, 0.0) + GAP_SLACK_S,
                          f"layer self times miss the traced stage wall time "
                          f"by {gap:.6f} s per pipeline, more than the "
                          f"tracing overhead {overhead:.6f} s")
        result["per_layer"] = per_layer
    run.harness_check(not find_wrappers(),
                      "tracing wrappers left in fmpp at the end of the run")
    result.update({
        "iterations": len(records),
        "stage_times": {s: [t[s] for t in records] for s in run.stages},
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sizes": run.sizes,
        "env": environment(),
    })
    args.out.write_text(json.dumps(result), encoding="utf-8")
    run.sink.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
