"""Self-tests of the benchmark: span arithmetic, wrapper install and
restore, and a tiny-size run of every workload in both trace modes.

    python3 -m pytest -q perfbench/tests
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
from tracing import MARKER, Tracer, find_wrappers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------
SPANS = [
    ["cli.run_estimate", 0.0, 10.0, -1],
    ["marks.gi_integrate", 1.0, 4.0, 0],
    ["kernels.gi_integrate_values", 2.0, 3.0, 1],
    ["core.from_json", 5.0, 9.0, 0],
    ["core.config_build", 6.0, 7.0, 3],
    ["cli.run_geometry", 12.0, 13.0, -1],
]


def test_self_time_subtracts_children():
    assert tracing.self_times(SPANS) == pytest.approx([3.0, 2.0, 1.0, 3.0,
                                                       1.0, 1.0])


def test_self_time_of_overlapping_children_uses_their_union():
    spans = [["cli.a", 0.0, 10.0, -1], ["core.b", 1.0, 4.0, 0],
             ["core.c", 3.0, 6.0, 0], ["core.d", 9.0, 12.0, 0]]
    # children cover [1, 6] and [9, 10] of the parent
    assert tracing.self_times(spans)[0] == pytest.approx(4.0)


def test_layer_self_times_add_up_to_root_spans():
    summary = tracing.summarize_spans(SPANS)
    assert summary["self_sum"] == pytest.approx(11.0)
    assert dict(summary["layer_self"]) == pytest.approx(
        {"cli": 4.0, "marks": 2.0, "kernels": 1.0, "core": 4.0})
    # config_build nests inside another core span: core is busy 4 s, not 5 s
    assert summary["layer_busy"]["core"] == pytest.approx(4.0)
    assert summary["busy"]["core.config_build"] == pytest.approx(1.0)


def test_per_layer_metrics_are_per_pipeline_and_complete():
    summary = tracing.summarize_spans(SPANS)
    counts = tracing.Counter({"infer.objective_evals": 4,
                              "infer.penalised_evals": 1})
    out = tracing.per_layer_metrics(summary, counts, 2, 11.5, 0.2)
    assert [name for name, _ in tracing.PER_LAYER] == list(out)
    assert out["cli.self_s"] == pytest.approx(2.0)
    assert out["marks.gi_integrate_s"] == pytest.approx(1.5)
    assert out["kernels.gi_integrate_values.calls"] == pytest.approx(0.5)
    assert out["infer.useful_eval_ratio"] == pytest.approx(0.75)
    assert out["trace.unattributed_s"] == pytest.approx(0.25)
    assert out["stats.pcf_s"] == 0.0


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(list(range(19))) is None
    assert run.tail_percentile(list(range(20)))[0] == 50
    p, value = run.tail_percentile(list(range(1, 101)))
    assert p == 90 and 90.0 <= value <= 91.0


# ---------------------------------------------------------------------------
# wrapper install and restore
# ---------------------------------------------------------------------------
def test_install_wraps_every_lookup_site_and_restore_puts_originals_back():
    import fmpp._kernels
    import fmpp.cli
    import fmpp.core
    import fmpp.infer
    import fmpp.stats

    sites = [(fmpp.cli, "configuration_to_json"),
             (fmpp.core, "configuration_to_json"),
             (fmpp.infer, "nelder_mead"), (fmpp.stats, "nelder_mead"),
             (fmpp.infer, "gi_integrate"), (fmpp.marks, "gi_integrate"),
             (fmpp._kernels, "neighbour_counts"),
             (fmpp.core.Configuration, "__init__")]
    originals = [getattr(owner, attr) for owner, attr in sites]
    assert find_wrappers() == []

    tracer = Tracer()
    tracer.install()
    try:
        for owner, attr in sites:
            assert hasattr(getattr(owner, attr), MARKER), attr
        # the first reflection lands past 2, where the objective is penalised
        fit = fmpp.infer.optimize(
            lambda th: 1e12 if th[0] > 2.0 else (th[0] - 2.5) ** 2, [1.9],
            [(0.0, 3.0)], budget=60)
        q, p = np.random.default_rng(0).random((3, 2)), np.zeros((5, 2))
        fmpp._kernels.neighbour_counts(q, p, np.ones(2), False, 0.1, -1.0, 2)
    finally:
        restored = tracer.restore()
    assert restored >= len(sites)
    assert tracer.restore() == 0

    for (owner, attr), original in zip(sites, originals):
        assert getattr(owner, attr) is original, attr
    assert find_wrappers() == []
    names = {s[0] for s in tracer.spans}
    assert {"infer.optimize", "optim.nelder_mead", "infer.objective",
            "kernels.neighbour_counts"} <= names
    assert tracer.counts["infer.objective_evals"] == fit.iterations
    assert tracer.counts["infer.penalised_evals"] >= 1
    assert tracer.counts["kernels.neighbour_counts.ops"] == 3 * 5 * 7
    nm = next(s for s in tracer.spans if s[0] == "optim.nelder_mead")
    objective = next(s for s in tracer.spans if s[0] == "infer.objective")
    assert tracer.spans[objective[3]] is nm


# ---------------------------------------------------------------------------
# the benchmark definition and tiny runs
# ---------------------------------------------------------------------------
def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == \
        list(tracing.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(name, trace):
    result = run.run_workload(name, 1, 0.1, trace, tiny=True)
    assert result is not None
    assert result["failures"] == [] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["sizes"]) == {"points_per_replicate", "grid_steps",
                                    "pairs", "quad_nodes"}
    assert result["env"]["threads"]["OMP_NUM_THREADS"] == "1"
    metrics = run.metrics_of(result)
    key = "per_layer" if trace else "end_to_end"
    assert {m: u for m, (v, u) in metrics.items()} == \
        {m["name"]: m["unit"] for m in BENCHMARK[key]}
    if not trace:
        assert all(v > 0 for v, _ in metrics.values())


def test_without_sources_the_command_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "growth-ls",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
