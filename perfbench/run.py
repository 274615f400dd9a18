#!/usr/bin/env python3
"""Benchmark of fmpp's command-line pipelines, end to end and per layer.

    python3 perfbench/run.py --workload growth-ls --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Run from the root of a source checkout: fmpp is imported from ``src``.
Each workload runs in a fresh child process (perfbench/worker.py) with
BLAS/OpenMP threads pinned to 1, through the public CLI stage functions
``fmpp.cli.run_simulate``, ``run_summarize``, ``run_geometry`` and
``run_estimate`` and the path metric ``fmpp.core.skorohod_distance``.
Every iteration of a run simulates a new input made from ``--seed``; the
run reports medians over its iterations and checks every output outside
the timed region.

End-to-end metrics (``--trace 0``), in the result line:
  setup_s      fresh interpreter, ``import fmpp.cli`` and the config parse,
               median of several set-ups
  pipeline_s   all stages of the workload, i.e. time to a checked result
  peak_rss_mb  peak RSS of the workload's process
Above the result line go the median of each stage the workload runs
(``simulate_s``, ``summarize_s``, ``geometry_s``, ``estimate_s``,
``path_metric_s``), the tail percentile when a run has enough samples, the
sample count, and ``failed_frac``.  Stage times stay out of the result line
because a metric there must be non-zero on every workload.  ``--trace 1``
instead reports per-layer metrics (see tracing.py) from a traced run of the
same inputs.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = (("setup_s", "s"), ("pipeline_s", "s"), ("peak_rss_mb", "MB"))
SETUP_REPEATS = 7
SETUP_PROBE = ("import json, sys, fmpp.cli; "
               "json.loads(open(sys.argv[1], encoding='utf-8').read())")
PINNED_THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_TIMEOUT = 30.0
WORKER_TIMEOUT = 160.0


def tail_percentile(values) -> tuple | None:
    """The highest whole percentile with at least ten samples beyond it, as
    (percentile, value); None below twenty samples, where it would not lie
    above the median."""
    n = len(values)
    if n < 20:
        return None
    p = math.floor(100.0 * (1.0 - 10.0 / n))
    return p, statistics.quantiles(values, n=100)[p - 1]


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in THREAD_VARS:
        env[var] = PINNED_THREADS
    return env


def measure_setup(cfg_path: Path, env: dict) -> list:
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_PROBE,
                                 str(cfg_path)], env=env, cwd=ROOT,
                                stdout=subprocess.DEVNULL)
        # a blocking wait: Popen.wait(timeout) polls in steps of up to 50 ms,
        # which would quantise the measured time
        killer = threading.Timer(SETUP_TIMEOUT, proc.kill)
        killer.start()
        try:
            code = proc.wait()
        finally:
            killer.cancel()
        times.append(perf_counter() - t0)
        if code != 0:
            raise subprocess.CalledProcessError(code, proc.args)
    return times


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 tiny: bool = False) -> dict | None:
    """One run of one workload in a child process; None when it broke."""
    workdir = ROOT / ".bench_out" / f"{name}-s{seed}-t{trace}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = child_env(ROOT / "src")
    try:
        setup = []
        if trace == 0:
            cfg_path = workdir / "config.json"
            cfg_path.write_text(json.dumps(WORKLOADS[name].make_config(seed, tiny)),
                                encoding="utf-8")
            setup = measure_setup(cfg_path, env)
        out = workdir / "result.json"
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--workdir", str(workdir), "--out", str(out)]
        if tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                              timeout=WORKER_TIMEOUT)
        if proc.returncode != 0 or not out.is_file():
            print(f"{name}: worker exited with code {proc.returncode}",
                  file=sys.stderr)
            return None
        result = json.loads(out.read_text(encoding="utf-8"))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"{name}: {exc}", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["setup_times"] = setup
    return result


def pipeline_times(result: dict) -> list:
    st = result["stage_times"]
    return [sum(st[s][i] for s in result["stages"])
            for i in range(result["iterations"])]


def metrics_of(result: dict) -> dict:
    """Metric name -> (value, unit) for the run's trace mode."""
    if result["trace"]:
        return {name: (result["per_layer"][name], unit)
                for name, unit in PER_LAYER}
    values = {"setup_s": statistics.median(result["setup_times"]),
              "pipeline_s": statistics.median(pipeline_times(result)),
              "peak_rss_mb": result["peak_rss_mb"]}
    return {name: (values[name], unit) for name, unit in END_TO_END}


def _timing_line(name: str, values) -> str:
    tail = tail_percentile(values)
    tail_text = (f"p{tail[0]} {tail[1]:.4f} s" if tail
                 else "no tail percentile (under 20 samples)")
    return (f"{name:<16} median {statistics.median(values):.4f} s  "
            f"{tail_text}  n={len(values)}")


def report(result: dict, metrics: dict) -> list:
    """Human-readable lines: stage timings, sizes, environment, failures."""
    name = result["workload"]
    lines = [f"# {name}: seed {result['seed']}, {result['iterations']} "
             f"iterations, trace {result['trace']}",
             f"# sizes {json.dumps(result['sizes'])}",
             f"# env {json.dumps(result['env'])}"]
    if result["trace"] == 0:
        lines.append(_timing_line("setup_s", result["setup_times"]))
        for stage in result["stages"]:
            lines.append(_timing_line(f"{stage}_s",
                                      result["stage_times"][stage]))
        lines.append(_timing_line("pipeline_s", pipeline_times(result)))
    frac = result["failed"] / result["attempted"]
    lines.append(f"{'failed_frac':<16} {frac:.4f} ratio  "
                 f"({result['failed']} of {result['attempted']} calls)")
    for stage, message in result["failures"]:
        lines.append(f"# FAILED {stage}: {message}")
    if result["trace"]:
        lines.append("# per-layer values per pipeline; kernels.*.ops and "
                     ".bytes are computed from argument shapes")
    for metric, (value, unit) in metrics.items():
        lines.append(f"{metric:<34} {value:.6g} {unit}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="fmpp CLI pipeline benchmark (see the module docstring)")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fmpp" / "cli.py").is_file():
        print(f"no fmpp sources under {ROOT / 'src'}: perfbench must sit in "
              f"a source checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        results.append(result)
    combined = {"attempted": 0, "failed": 0, "metrics": {}}
    for result in results:
        metrics = metrics_of(result)
        print("\n".join(report(result, metrics)))
        prefix = f"{result['workload']}." if len(results) > 1 else ""
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{prefix}{m}": {"value": v, "unit": u}
                                    for m, (v, u) in metrics.items()})
    print(json.dumps({"correct": combined["failed"] == 0, **combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
