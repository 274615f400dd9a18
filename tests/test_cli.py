import hashlib
import json
import os
import shutil
import subprocess
import sys
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import fmpp
from fmpp import cli, core, infer
from fmpp.cli import main
from fmpp.core import Window, configuration_from_json, read_configuration_files
from fmpp.ground import HomogeneousPoisson, simulate_poisson
from fmpp.stats import campbell_check, gnz_check


def write_cfg(tmp_path: Path, cfg: dict, name="cfg.json") -> str:
    p = tmp_path / name
    p.write_text(json.dumps(cfg), encoding="utf-8")
    return str(p)


BASE = {
    "window": {"lo": [0, 0], "hi": [1, 1]},
    "seed": 3,
    "replicates": 2,
    "model": {
        "ground": {"family": "poisson", "rate": 80.0},
        "aux": {"kind": "none"},
        "marks": {"model": "constant", "value": 0.02},
        "mark_grid": {"dt": 0.1},
    },
}


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # fmpp runs on NumPy alone: importing the CLI, the Gibbs chain, the
    # Papangelou counts and a pseudo-likelihood fit load no scipy, and with
    # scipy blocked every CLI stage runs on a box and on a torus
    src = str(Path(fmpp.__file__).resolve().parents[1])
    path = [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    gibbs = ("from fmpp.core import Window\n"
             "from fmpp.ground import PairwiseGibbs, simulate_gibbs\n"
             "from fmpp.infer import ParametricModel, fit_pseudolikelihood\n"
             "w = Window((0, 0), (1, 1), torus=True)\n"
             "x = simulate_gibbs(PairwiseGibbs(100.0, 0.5, 0.05), w, 2000, 1)\n"
             "m = ParametricModel('gibbs', (60.0, 0.5), w,\n"
             "                    bounds=((1.0, 500.0), (0.0, 1.0)),\n"
             "                    interaction_range=0.05)\n"
             "assert fit_pseudolikelihood(m, x, budget=50, quad_res=16).iterations\n")
    for code in ("import fmpp.cli\n", gibbs):
        code += ("import sys\n"
                 "assert not any(m.startswith('scipy') for m in sys.modules)\n")
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       timeout=120)
    args = []
    for torus in (False, True):
        cfg = {**BASE, "window": {**BASE["window"], "torus": torus},
               "summarize": {"intensity": {"cells": 4},
                             "pcf": {"lags": [0.05, 0.1, 0.15]},
                             "variogram": {"bins": 5},
                             "coverage": {"times": [0.5], "resolution": 32}},
               "estimate": {"scheme": "mle-janossy"},
               "geometry": {"times": [0.5], "resolution": 32},
               "check": {"replicates": 10}}
        args += [write_cfg(tmp_path, cfg, f"cfg-{torus}.json"),
                 str(tmp_path / f"out-{torus}")]
    stages = ("import sys\n"
              "sys.modules['scipy'] = None\n"
              "from fmpp.cli import main\n"
              "for cfg, out in zip(sys.argv[1::2], sys.argv[2::2]):\n"
              "    for stage in ('simulate', 'summarize', 'estimate', 'geometry',\n"
              "                  'check'):\n"
              "        code = main([stage, '--config', cfg, '--out', out])\n"
              "        assert code == 0, (stage, code)\n")
    subprocess.run([sys.executable, "-c", stages, *args], env=env, check=True,
                   timeout=300)
    for torus in (False, True):
        for name in ("intensity", "pcf", "variogram", "coverage", "sections"):
            assert (tmp_path / f"out-{torus}" / f"{name}.csv").is_file()
        assert (tmp_path / f"out-{torus}" / "fit.json").is_file()
        assert (tmp_path / f"out-{torus}" / "checks.json").is_file()


class TestSimulate:
    def test_deterministic_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        for name in ("configuration_r000.json", "configuration_r001.json",
                     "marks_r000.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert m1["config_hash"] == m2["config_hash"]

    def test_ground_aux_and_marks_draw_from_independent_streams(self, tmp_path):
        # aux types and Wiener increments used to come from the ground's own
        # stream: at seed 11 type i was 1 + [u_i >= 0.5] for the uniforms u
        # of that seed, and the first path's increments were its normals
        cfg_obj = json.loads(json.dumps(BASE))
        cfg_obj.update(seed=11, replicates=1)
        cfg_obj["model"]["aux"] = {"kind": "types", "probs": [0.5, 0.5]}
        cfg_obj["model"]["marks"] = {"model": "wiener", "scale": 1.0}
        cfg = write_cfg(tmp_path, cfg_obj)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        for name in ("configuration_r000.json", "marks_r000.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        c = configuration_from_json((out1 / "configuration_r000.json").read_text())
        # the ground stays on the seed itself
        locs = simulate_poisson(HomogeneousPoisson(80.0), Window((0, 0), (1, 1)), 11)
        np.testing.assert_array_equal(c.spatial_locations(), locs)
        n = len(c)
        assert n > 50
        types = np.array([p.aux.discrete for p in c.points])
        assert set(types) == {1, 2}
        u = np.random.default_rng(11).random(n)
        assert not np.array_equal(types, 1 + (u >= 0.5))
        mark = c.points[0].mark
        z = np.random.default_rng(11).standard_normal(mark.grid.size - 1)
        assert not np.allclose(np.diff(mark.values), np.sqrt(np.diff(mark.grid)) * z)

    def test_zero_rate_empty_points(self, tmp_path):
        cfg_obj = json.loads(json.dumps(BASE))
        cfg_obj["model"]["ground"]["rate"] = 0.0
        cfg = write_cfg(tmp_path, cfg_obj)
        out = tmp_path / "z"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        c = configuration_from_json(
            (out / "configuration_r000.json").read_text())
        assert len(c) == 0
        assert (out / "configuration_r000.cols").exists()
        assert len(read_configuration_files(out / "configuration_r000.json")) == 0

    def test_seed_flag_overrides(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        main(["simulate", "--config", cfg, "--out", str(out1), "--seed", "9"])
        main(["simulate", "--config", cfg, "--out", str(out2), "--seed", "10"])
        a = (out1 / "configuration_r000.json").read_text()
        b = (out2 / "configuration_r000.json").read_text()
        assert a != b

    def test_invalid_spec_names_field(self, tmp_path, capsys):
        bad = json.loads(json.dumps(BASE))
        del bad["model"]["ground"]["rate"]
        cfg = write_cfg(tmp_path, bad)
        assert main(["simulate", "--config", cfg, "--out",
                     str(tmp_path / "x")]) == 1
        assert "model.ground" in capsys.readouterr().err

    def test_absorption_never_lengthens_a_life(self, tmp_path):
        # overlap growth under negative_policy "absorb": a mark absorbed in
        # the step that holds its own death still dies at that death, so no
        # support ends after min(t + lifetime, t_star)
        cfg_obj = {
            "window": {"lo": [0, 0], "hi": [1, 1], "t_star": 1.0},
            "seed": 4,
            "model": {
                "ground": {"family": "immigration-death",
                           "arrival_rate": 200.0, "death_rate": 0.5},
                "aux": {"kind": "lifetime", "rate": 0.5},
                "marks": {"model": "growth-interaction",
                          "growth": ["linear", 2.0, 0.08],
                          "interaction": ["overlap", 40.0], "m0": 0.01,
                          "negative_policy": "absorb"},
                "mark_grid": {"dt": 0.05},
            },
        }
        out = tmp_path / "absorb"
        assert main(["simulate", "--config", write_cfg(tmp_path, cfg_obj),
                     "--out", str(out)]) == 0
        doc = json.loads((out / "configuration_r000.json").read_text())
        ends = [(p["mark"]["support"][1],
                 min(p["t"] + p["aux"]["continuous"][0], p["mark"]["t_star"]))
                for p in doc["points"]]
        assert sum(end < death for end, death in ends) >= 10
        assert all(end <= death for end, death in ends)


SPATIAL ={"lo": [0, 0], "hi": [1, 1]}
TEMPORAL = {"lo": [0, 0], "hi": [1, 1], "t_star": 1.0}
GROWTH = {"ground": {"family": "immigration-death", "arrival_rate": 4.0,
                     "death_rate": 1.0},
          "aux": {"kind": "lifetime", "rate": 1.0}}
NAN = float("nan")


@pytest.mark.parametrize("window, model, field", [
    ({"lo": [0, 0], "hi": [1, NAN]}, {"ground": {"family": "poisson", "rate": 5.0}},
     "spatial box"),
    ({"lo": [0, 0], "hi": [1, 1], "time_scale": NAN},
     {"ground": {"family": "poisson", "rate": 5.0}}, "time_scale"),
    ({"lo": [0, 0], "hi": [1, 1]}, {"ground": {"family": "poisson", "rate": NAN}},
     "rate"),
    ({"lo": [0, 0], "hi": [1, 1]}, {"ground": {"family": "poisson", "rate": 5.0},
                                    "mark_grid": {"dt": NAN}}, "mark_grid.dt"),
    (TEMPORAL, {"ground": {"family": "loglinear-t", "a": NAN, "b": 0.0}},
     "max_rate"),
    (TEMPORAL, {"ground": {"family": "immigration-death", "arrival_rate": NAN,
                           "death_rate": 1.0}}, "arrival and death rates"),
    ({"lo": [0, 0], "hi": [1, 1]},
     {"ground": {"family": "lgcp", "mean": 1.0,
                 "kernel": ["exponential", NAN, 0.2], "grid": [2, 2]}},
     "field variance"),
    ({"lo": [0, 0], "hi": [1, 1]},
     {"ground": {"family": "gibbs", "beta": NAN, "gamma": 0.5, "range": 0.1}},
     "beta"),
    ({"lo": [0, 0], "hi": [1, 1]}, {"ground": {"family": "poisson", "rate": 5.0},
                                    "marks": {"model": "wiener", "scale": NAN}},
     "Wiener scale"),
    ({"lo": [0, 0], "hi": [1, 1]},
     {"ground": {"family": "poisson", "rate": 5.0},
      "marks": {"model": "geostatistical",
                "kernel": ["gaussian", NAN, 0.3, 0.5]}}, "field variance"),
    (TEMPORAL, {**GROWTH, "marks": {"model": "growth-interaction",
                                    "growth": ["linear", 1.0, 1.0], "m0": NAN}},
     "initial mark value"),
    (TEMPORAL, {**GROWTH, "marks": {"model": "growth-interaction",
                                    "growth": ["linear", 1.0, 1.0],
                                    "noise": ["const", NAN]}}, "noise scale"),
])
def test_nan_in_config_is_a_validation_error(tmp_path, capsys, window, model,
                                             field):
    # every check is written so that NaN fails it
    cfg = write_cfg(tmp_path, {"window": window, "seed": 1, "model": model})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and field in err
    assert "Traceback" not in err


INF = float("inf")
GIBBS = {"family": "gibbs", "beta": 100.0, "gamma": 0.5, "range": 0.05,
         "steps": 200}
POISSON = {"ground": {"family": "poisson", "rate": 20.0}}


def _growth(**marks):
    return {**GROWTH, "marks": {"model": "growth-interaction",
                                "growth": ["linear", 1.0, 1.0], **marks}}


@pytest.mark.parametrize("window, model, field", [
    # numbers of the wrong type, infinite or not a count
    (SPATIAL, {"ground": {"family": "poisson", "rate": "50"}}, "model.ground.rate"),
    (SPATIAL, {"ground": {**GIBBS, "beta": "100"}}, "model.ground.beta"),
    (SPATIAL, {"ground": {"family": "poisson", "rate": INF}}, "rate"),
    ({"lo": [0, 0], "hi": [1, INF]}, {"ground": {"family": "poisson", "rate": 5.0}},
     "hi"),
    (SPATIAL, {"ground": {"family": "poisson", "rate": True}}, "model.ground.rate"),
    (SPATIAL, {"ground": {**GIBBS, "steps": 2.5}}, "model.ground.steps"),
    (TEMPORAL, {"ground": {"family": "loglinear-t", "a": 1.0, "b": INF}},
     "model.ground.b"),
    # model parameters that used to fail further in
    (SPATIAL, {"ground": {"family": "lgcp", "mean": 1.0,
                          "kernel": ["exponential", 1.0, 0.0], "grid": [4, 4]}},
     "kernel ranges"),
    (SPATIAL, {"ground": {"family": "lgcp", "mean": 1.0,
                          "kernel": ["exponential", 1.0, 0.2], "grid": [0, 8]}},
     "grid"),
    (SPATIAL, {**POISSON, "marks": {"model": "geostatistical",
                                    "kernel": ["exponential", 1.0, 0.0, 0.3]}},
     "kernel ranges"),
    (TEMPORAL, _growth(interaction=["gauss", 1.0, 0.0]), "interaction range"),
    (TEMPORAL, _growth(interaction=["gauss", 1.0]), "interaction function"),
    (TEMPORAL, {**GROWTH, "marks": {"model": "growth-interaction",
                                    "growth": ["linear", 1]}}, "growth function"),
    (SPATIAL, {**POISSON, "aux": {"kind": "types", "probs": [0.5, -0.5, 1.0]}},
     "model.aux.probs"),
    (SPATIAL, {**POISSON, "aux": {"kind": "types", "probs": [0, 0]}},
     "model.aux.probs"),
    (SPATIAL, {**POISSON, "aux": {"kind": "lifetime", "rate": 0}}, "model.aux.rate"),
    # a boolean field that is not a boolean
    ({"lo": [0, 0], "hi": [1, 1], "torus": "no"}, POISSON, "torus"),
])
def test_bad_config_number_is_a_validation_error(tmp_path, capsys, window, model,
                                                 field):
    cfg = write_cfg(tmp_path, {"window": window, "seed": 1, "model": model})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and field in err
    assert "Traceback" not in err


@pytest.mark.parametrize("stage, section, field", [
    ("summarize", {"summarize": {"pcf": {"lags": [0.1, NAN]}}}, "summarize.pcf.lags"),
    ("geometry", {"geometry": {"times": [0.5], "resolution": "64"}},
     "geometry.resolution"),
    ("check", {"check": {"checks": ["gnz"], "replicates": 3,
                         "lambda_factor": NAN}}, "check.lambda_factor"),
    ("check", {"check": {"checks": ["campbell"], "replicates": 3,
                         "box": [[0, 0], [0.5, 0.5], [1, 1]]}}, "check.box"),
    ("estimate", {"estimate": {"scheme": "mle-janossy", "theta0": ["10"]}},
     "estimate.theta0"),
    ("estimate", {"estimate": {"scheme": "mle-janossy", "bounds": [[1e-9]]}},
     "estimate.bounds"),
    # counts, bandwidths, replicates and budgets too small to compute with
    ("summarize", {"summarize": {"intensity": {"cells": 0}}}, "cell counts"),
    ("summarize", {"summarize": {"pcf": {"lags": [0.1], "bandwidth": 0}}},
     "bandwidth"),
    ("check", {"check": {"checks": ["campbell"], "quad_res": 0}}, "cell counts"),
    ("check", {"check": {"replicates": 1}}, "two or more replicates"),
    ("estimate", {"estimate": {"scheme": "mle-janossy", "budget": 0}}, "budget"),
])
def test_bad_stage_number_is_a_validation_error(tmp_path, capsys, stage, section,
                                                field):
    cfg = write_cfg(tmp_path, {"window": SPATIAL, "seed": 1, "model": POISSON,
                               **section})
    out = str(tmp_path / "x")
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    capsys.readouterr()
    assert main([stage, "--config", cfg, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and field in err


# simulate and summarize outputs of the random-field layer: an LGCP ground
# with geostatistical marks, and a temporal LGCP with intensity marks
LGCP_GEOSTAT = {
    "window": {"lo": [0, 0], "hi": [1, 1]}, "seed": 5, "replicates": 2,
    "model": {"ground": {"family": "lgcp", "mean": 3.5,
                         "kernel": ["exponential", 0.5, 0.2], "grid": [6, 6]},
              "aux": {"kind": "types", "probs": [0.5, 0.5]},
              "marks": {"model": "geostatistical", "mean": 1.0,
                        "kernel": ["gaussian", 0.4, 0.3, 0.5]},
              "mark_grid": {"dt": 0.25}},
    "summarize": {"intensity": {"cells": 3}, "pcf": {"lags": [0.1, 0.2]},
                  "variogram": {"bins": 4}},
}
LGCP_INTENSITY = {
    "window": {"lo": [0, 0], "hi": [1, 1], "t_star": 2.0}, "seed": 5,
    "replicates": 1,
    "model": {"ground": {"family": "lgcp", "mean": 3.0,
                         "kernel": ["gaussian", 0.3, 0.3, 0.5],
                         "grid": [3, 3, 2]},
              "marks": {"model": "intensity"}, "mark_grid": {"dt": 0.5}},
}


def output_digests(out: Path) -> dict:
    # the .cols cache's bytes depend on the configuration's columns alone
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(out.iterdir()) if f.name != "manifest.json"}


class TestRandomFieldPinned:
    """SHA-256 of the outputs, recorded when the LGCP cell grid and the
    geostatistical Cholesky factors were still built by their own copies."""

    def test_lgcp_geostatistical(self, tmp_path):
        cfg = write_cfg(tmp_path, LGCP_GEOSTAT)
        out = tmp_path / "geo"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert main(["summarize", "--config", cfg, "--out", str(out)]) == 0
        # the two .cols caches were pinned when the cache became one flat
        # file of raw columns
        assert output_digests(out) == {
            "configuration_r000.cols":
                "b4c29b9c3968b418fd4925858cd3bf2d3adbd6801d8574eb97810d97136a1312",
            "configuration_r000.json":
                "9682e889222c7039d34b1bc364409fc62dd7af7e820dd04d5abba4288155ea86",
            "configuration_r001.cols":
                "96603afcefc9fb92d820483fc92ca3252af0684af00799868945c5088b3fab62",
            "configuration_r001.json":
                "2373febe964bb629eec71f14f9c55a6bd4f8b7da6217779173b55961f66443ff",
            "intensity.csv":
                "00bc590af5a4e65921586456bbaf4f314b8d44a68d58f5c2adb422edb68e8e3c",
            "marks_r000.csv":
                "4b2dba0708f4e05b16142d171195330900531e8ed13161e594dca28d055fc48c",
            "marks_r001.csv":
                "0cfe415fb5a4b7062e6b2b8d93836d8809bfba37c6a3c256c17e2025d2811e70",
            "pcf.csv":
                "9fdf232c2d79f7f2febc3a2c3906dc92ca58a3d21c8ec8ba9015a312b422f42f",
            "variogram.csv":
                "f1ea5c877259ee2ad7ede2292bad1cb68b9fb8b4276678bc4155fbfbc8d0bd71",
        }

    def test_temporal_lgcp_intensity_marks(self, tmp_path):
        # only the marks CSV is pinned: the JSON now records the horizon
        # 2.0 as each mark's t_star
        cfg = write_cfg(tmp_path, LGCP_INTENSITY)
        out = tmp_path / "int"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert output_digests(out)["marks_r000.csv"] == (
            "b69067df87ee08baa0b346e31ef10301bb98250fee445fc71adc8dc5c76d5ecb")
        c = configuration_from_json((out / "configuration_r000.json").read_text())
        assert len(c) and {m.t_star for m in c.marks} == {2.0}


class TestMissingConfigFields:
    """A missing field exits 1 and names it, in every subcommand."""

    @pytest.mark.parametrize("ground, field", [
        (None, "model.ground"),
        ({}, "model.ground.family"),
        ({"family": "poisson"}, "model.ground.rate"),
    ])
    def test_check(self, tmp_path, capsys, ground, field):
        model = {"family": "poisson"} if ground is None else {"ground": ground}
        cfg = write_cfg(tmp_path, {"window": {"lo": [0, 0], "hi": [1, 1]},
                                   "model": model, "check": {"replicates": 2}})
        assert main(["check", "--config", cfg, "--out", str(tmp_path / "x")]) == 1
        assert f"'{field}'" in capsys.readouterr().err

    def test_least_squares_growth(self, tmp_path, capsys):
        cfg_obj = {
            "window": {"lo": [0, 0], "hi": [1, 1], "t_star": 1.0}, "seed": 6,
            "model": {"ground": {"family": "immigration-death",
                                 "arrival_rate": 4.0, "death_rate": 1.0},
                      "aux": {"kind": "lifetime", "rate": 1.0},
                      "marks": {"model": "growth-interaction",
                                "growth": ["linear", 1.5, 0.8]},
                      "mark_grid": {"dt": 0.1}},
            "schedule": [0.5],
            "estimate": {"scheme": "least-squares", "theta0": [0.5, 0.5]},
        }
        out = tmp_path / "ls"
        assert main(["simulate", "--config", write_cfg(tmp_path, cfg_obj),
                     "--out", str(out)]) == 0
        del cfg_obj["model"]["marks"]["growth"]
        cfg = write_cfg(tmp_path, cfg_obj, "nogrowth.json")
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == 1
        assert "'model.marks.growth'" in capsys.readouterr().err


class TestSummarize:
    def test_round_trip_growth_interaction(self, tmp_path):
        cfg_obj = {
            "window": {"lo": [0, 0], "hi": [1, 1], "t_star": 1.0},
            "seed": 1,
            "replicates": 2,
            "model": {
                "ground": {"family": "immigration-death", "arrival_rate": 10.0,
                           "death_rate": 1e-6},
                "aux": {"kind": "lifetime", "rate": 1e-6},
                "marks": {"model": "growth-interaction",
                          "growth": ["linear", 2.0, 0.08],
                          "m0": 0.0},
                "mark_grid": {"dt": 0.01},
            },
            "summarize": {"coverage": {"times": [0.2, 0.4, 0.6, 0.8],
                                       "resolution": 64}},
        }
        cfg = write_cfg(tmp_path, cfg_obj)
        out = tmp_path / "gi"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert main(["summarize", "--config", cfg, "--out", str(out)]) == 0
        lines = [l for l in (out / "coverage.csv").read_text().splitlines()
                 if not l.startswith("#")]
        header, rows = lines[0], lines[1:]
        assert header.split(",")[0] == "t"
        pooled = [float(r.split(",")[-1]) for r in rows]
        # radii only grow: pooled coverage is nondecreasing over time
        assert all(b >= a - 1e-12 for a, b in zip(pooled, pooled[1:]))

    def test_pcf_pooled_near_one(self, tmp_path):
        cfg_obj = json.loads(json.dumps(BASE))
        cfg_obj["model"]["ground"]["rate"] = 150.0
        cfg_obj["replicates"] = 30
        cfg_obj["summarize"] = {"pcf": {"lags": [0.05, 0.1, 0.15, 0.2]}}
        cfg = write_cfg(tmp_path, cfg_obj)
        out = tmp_path / "pcf"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert main(["summarize", "--config", cfg, "--out", str(out)]) == 0
        lines = [l for l in (out / "pcf.csv").read_text().splitlines()
                 if not l.startswith("#")][1:]
        pooled = np.array([float(l.split(",")[-1]) for l in lines])
        assert np.all(np.abs(pooled - 1.0) < 0.15)

    @pytest.mark.parametrize("field, corrupt", [
        ("'grid'", lambda mark: mark.pop("grid")),
        ("'support'", lambda mark: mark.update(support=[0])),
        ("'values'", lambda mark: mark["values"].__setitem__(1, "a")),
        ("'aux'", lambda point: point.update(aux={"discrete": "a"})),
    ], ids=["no grid", "one support end", "string value", "string aux"])
    def test_malformed_configuration_file_exits_one(self, tmp_path, capsys,
                                                    field, corrupt):
        cfg = write_cfg(tmp_path, dict(BASE, replicates=1,
                                       summarize={"pcf": {"lags": [0.1]}}))
        out = tmp_path / "bad"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        path = out / "configuration_r000.json"
        doc = json.loads(path.read_text())
        point = doc["points"][0]
        corrupt(point if field == "'aux'" else point["mark"])
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["summarize", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error: point 0:")
        assert field in err

    @pytest.mark.parametrize("bins", [0, -3])
    def test_variogram_bin_count_below_one_exits_one(self, tmp_path, capsys,
                                                     bins):
        cfg = write_cfg(tmp_path, dict(BASE, replicates=1, summarize={
            "variogram": {"bins": bins}}))
        out = tmp_path / "vario"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert main(["summarize", "--config", cfg, "--out", str(out)]) == 1
        assert "bin count" in capsys.readouterr().err
        assert not (out / "variogram.csv").exists()

    def test_missing_inputs_error(self, tmp_path, capsys):
        cfg_obj = dict(BASE, summarize={"pcf": {"lags": [0.1]}})
        cfg = write_cfg(tmp_path, cfg_obj)
        assert main(["summarize", "--config", cfg, "--out",
                     str(tmp_path / "nope")]) == 1
        assert "no configurations" in capsys.readouterr().err


class TestEstimate:
    def test_temporal_mle_closed_form(self, tmp_path):
        cfg_obj = {
            "window": {"lo": [0], "hi": [1], "t_star": 4.0},
            "seed": 2,
            "replicates": 1,
            "model": {"ground": {"family": "poisson-t", "rate": 6.0},
                      "marks": {"model": "none"},
                      "mark_grid": {"dt": 0.5}},
            "estimate": {"scheme": "mle-temporal", "budget": 600},
        }
        cfg = write_cfg(tmp_path, cfg_obj)
        out = tmp_path / "est"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "fit.json").read_text())
        c = configuration_from_json((out / "configuration_r000.json").read_text())
        assert rep["converged"]
        assert rep["theta_hat"][0] == pytest.approx(len(c) / 4.0, rel=1e-6)

    def test_incompatible_scheme_exits_one(self, tmp_path, capsys):
        cfg_obj = dict(BASE, estimate={"scheme": "mle-temporal"})
        cfg = write_cfg(tmp_path, cfg_obj)
        out = tmp_path / "bad"
        main(["simulate", "--config", cfg, "--out", str(out)])
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == 1
        assert "incompatible" in capsys.readouterr().err

    def test_nonconvergence_exits_three(self, tmp_path):
        cfg_obj = {
            "window": {"lo": [0], "hi": [1], "t_star": 4.0},
            "seed": 2,
            "replicates": 1,
            "model": {"ground": {"family": "poisson-t", "rate": 6.0},
                      "marks": {"model": "none"},
                      "mark_grid": {"dt": 0.5}},
            "estimate": {"scheme": "mle-temporal", "budget": 4},
        }
        cfg = write_cfg(tmp_path, cfg_obj)
        out = tmp_path / "noconv"
        main(["simulate", "--config", cfg, "--out", str(out)])
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == 3

    def test_least_squares_growth_recovery(self, tmp_path):
        cfg_obj = {
            "window": {"lo": [0, 0], "hi": [1, 1], "t_star": 1.0},
            "seed": 6,
            "replicates": 1,
            "model": {
                "ground": {"family": "immigration-death", "arrival_rate": 8.0,
                           "death_rate": 1e-6},
                "aux": {"kind": "lifetime", "rate": 1e-6},
                "marks": {"model": "growth-interaction",
                          "growth": ["linear", 1.5, 0.8], "m0": 0.0,
                          "dt": 0.01},
                "mark_grid": {"dt": 0.01},
            },
            "schedule": [0.25, 0.5, 0.75],
            "estimate": {"scheme": "least-squares", "theta0": [0.5, 0.5],
                         "bounds": [[0.01, 10.0], [0.01, 10.0]],
                         "budget": 800},
        }
        cfg = write_cfg(tmp_path, cfg_obj)
        out = tmp_path / "ls"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "fit.json").read_text())
        assert rep["theta_hat"][0] == pytest.approx(1.5, rel=1e-3)
        assert rep["theta_hat"][1] == pytest.approx(0.8, rel=1e-3)

    @pytest.mark.parametrize("interaction", [None, ["gauss", 0.5, 0.3]])
    def test_least_squares_fits_at_simulated_dt(self, tmp_path, interaction):
        # README-shaped config on a coarse mark grid and no marks.dt; the
        # fit must integrate on the grid (and cutoff) the data came from
        marks_spec = {"model": "growth-interaction",
                      "growth": ["linear", 2.0, 0.08], "m0": 0.0}
        if interaction is not None:
            marks_spec.update(interaction=interaction, interaction_cutoff=0.2)
        cfg_obj = {
            "window": {"lo": [0, 0], "hi": [1, 1], "t_star": 1.0},
            "seed": 1,
            "replicates": 1,
            "model": {
                "ground": {"family": "immigration-death",
                           "arrival_rate": 10.0, "death_rate": 0.5},
                "aux": {"kind": "lifetime", "rate": 0.5},
                "marks": marks_spec,
                "mark_grid": {"dt": 0.05},
            },
            "schedule": [0.25, 0.5, 0.75],
            "estimate": {"scheme": "least-squares", "theta0": [1.0, 0.05],
                         "bounds": [[0.01, 10], [0.001, 1]]},
        }
        out = tmp_path / "ls"
        cfg = write_cfg(tmp_path, cfg_obj)
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        if interaction is not None:
            uncut = json.loads(json.dumps(cfg_obj))
            del uncut["model"]["marks"]["interaction_cutoff"]
            out_uncut = tmp_path / "uncut"
            main(["simulate", "--config", write_cfg(tmp_path, uncut, "u.json"),
                  "--out", str(out_uncut)])
            assert ((out / "marks_r000.csv").read_bytes()
                    != (out_uncut / "marks_r000.csv").read_bytes())
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "fit.json").read_text())
        assert rep["theta_hat"] == pytest.approx([2.0, 0.08], rel=1e-6)

    def test_least_squares_fits_the_negative_policy(self, tmp_path, capsys):
        # overlap growth that drives marks negative: estimate fits the
        # simulated model, negative policy included, so at the pinned true
        # growth law the "absorb" fit is exact, and an "error" fit of the
        # same data stops on the negative mark
        cfg_obj = {
            "window": {"lo": [0, 0], "hi": [1, 1], "t_star": 1.0},
            "seed": 4,
            "model": {
                "ground": {"family": "immigration-death",
                           "arrival_rate": 200.0, "death_rate": 0.5},
                "aux": {"kind": "lifetime", "rate": 0.5},
                "marks": {"model": "growth-interaction",
                          "growth": ["linear", 2.0, 0.08],
                          "interaction": ["overlap", 40.0], "m0": 0.0,
                          "negative_policy": "absorb"},
                "mark_grid": {"dt": 0.05},
            },
            "schedule": [0.25, 0.5, 0.75],
            "estimate": {"scheme": "least-squares", "theta0": [2.0, 0.08],
                         "bounds": [[2.0, 2.0], [0.08, 0.08]]},
        }
        out = tmp_path / "absorb"
        cfg = write_cfg(tmp_path, cfg_obj)
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads((out / "fit.json").read_text())["objective"] == 0.0
        cfg_obj["model"]["marks"]["negative_policy"] = "error"
        cfg_obj["estimate"]["input"] = str(out)
        cfg = write_cfg(tmp_path, cfg_obj, "error.json")
        capsys.readouterr()
        assert main(["estimate", "--config", cfg,
                     "--out", str(tmp_path / "error")]) == 2
        assert "went negative" in capsys.readouterr().err

    def test_pseudo_gibbs_runs(self, tmp_path):
        cfg_obj = {
            "window": {"lo": [0, 0], "hi": [1, 1]},
            "seed": 4,
            "replicates": 1,
            "model": {"ground": {"family": "gibbs", "beta": 60.0,
                                 "gamma": 0.5, "range": 0.05,
                                 "steps": 15000},
                      "marks": {"model": "none"},
                      "mark_grid": {"dt": 0.5}},
            "estimate": {"scheme": "pseudo", "budget": 400, "quad_res": 24,
                         "theta0": [40.0, 0.7]},
        }
        cfg = write_cfg(tmp_path, cfg_obj)
        out = tmp_path / "gibbs"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        code = main(["estimate", "--config", cfg, "--out", str(out)])
        rep = json.loads((out / "fit.json").read_text())
        assert code in (0, 3)
        assert len(rep["theta_hat"]) == 2


class TestReadmeExample:
    def test_readme_config_runs_end_to_end(self, tmp_path):
        cfg_obj = {
            "window": {"lo": [0, 0], "hi": [1, 1], "t_star": 1.0},
            "seed": 1,
            "replicates": 4,
            "model": {
                "ground": {"family": "immigration-death",
                           "arrival_rate": 10.0, "death_rate": 0.5},
                "aux": {"kind": "lifetime", "rate": 0.5},
                "marks": {"model": "growth-interaction",
                          "growth": ["linear", 2.0, 0.08], "m0": 0.0},
                "mark_grid": {"dt": 0.01},
            },
            "schedule": [0.25, 0.5, 0.75],
            "summarize": {"coverage": {"times": [0.2, 0.4, 0.6, 0.8],
                                       "resolution": 128}},
            "estimate": {"scheme": "least-squares", "theta0": [1.0, 0.05],
                         "bounds": [[0.01, 10], [0.001, 1]]},
        }
        cfg = write_cfg(tmp_path, cfg_obj)
        out = tmp_path / "readme"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert main(["summarize", "--config", cfg, "--out", str(out)]) == 0
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "fit.json").read_text())
        assert rep["theta_hat"][0] == pytest.approx(2.0, rel=1e-3)
        assert rep["theta_hat"][1] == pytest.approx(0.08, rel=1e-3)


class TestGeometryCommand:
    def test_section_export(self, tmp_path):
        cfg_obj = dict(BASE, geometry={"times": [0.5], "resolution": 64})
        cfg = write_cfg(tmp_path, cfg_obj)
        out = tmp_path / "geo"
        main(["simulate", "--config", cfg, "--out", str(out)])
        assert main(["geometry", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "sections.csv").read_text().splitlines()
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == "replicate,t,x,y,radius"


GIBBS_CHECK = {
    "window": {"lo": [0, 0], "hi": [1, 1]}, "seed": 11,
    "model": {"ground": {"family": "gibbs", "beta": 100.0, "gamma": 0.5,
                         "range": 0.05, "steps": 20000}},
    "check": {"replicates": 20, "quad_res": 32},
}
# space-time cylinders: range 0.08 in space and 0.1 in time
GIBBS_ST_CHECK = {
    "window": {"lo": [0, 0], "hi": [1, 1], "t_star": 1.0}, "seed": 11,
    "model": {"ground": {"family": "gibbs", "beta": 100.0, "gamma": 0.5,
                         "range": 0.08, "temporal_range": 0.1,
                         "steps": 20000}},
    "check": {"replicates": 20, "quad_res": 16},
}


class TestCheckCommand:
    def test_campbell_and_janossy_pass(self, tmp_path):
        cfg_obj = dict(BASE, check={"checks": ["campbell", "janossy"],
                                    "replicates": 150})
        cfg = write_cfg(tmp_path, cfg_obj)
        out = tmp_path / "chk"
        assert main(["check", "--config", cfg, "--out", str(out)]) == 0
        results = json.loads((out / "checks.json").read_text())
        assert all(r["passed"] for r in results)

    def test_corrupted_intensity_fails_gnz(self, tmp_path):
        cfg_obj = dict(BASE, check={"checks": ["gnz"], "replicates": 150,
                                    "lambda_factor": 2.0})
        cfg = write_cfg(tmp_path, cfg_obj)
        out = tmp_path / "chk2"
        assert main(["check", "--config", cfg, "--out", str(out)]) == 0
        results = json.loads((out / "checks.json").read_text())
        assert not results[0]["passed"]

    def test_honest_gnz_passes(self, tmp_path):
        cfg_obj = dict(BASE, check={"checks": ["gnz"], "replicates": 150})
        cfg = write_cfg(tmp_path, cfg_obj)
        out = tmp_path / "chk3"
        assert main(["check", "--config", cfg, "--out", str(out)]) == 0
        results = json.loads((out / "checks.json").read_text())
        assert results[0]["passed"]


    @pytest.mark.parametrize("factor, passed", [(1.0, True), (2.0, False)])
    def test_gibbs_gnz(self, tmp_path, factor, passed):
        # GNZ on the chain that simulate runs, with the Papangelou intensity
        # that the pseudo-likelihood fits; gnz is the default on gibbs ground
        cfg_obj = json.loads(json.dumps(GIBBS_CHECK))
        cfg_obj["check"]["lambda_factor"] = factor
        out = tmp_path / "gchk"
        assert main(["check", "--config", write_cfg(tmp_path, cfg_obj),
                     "--out", str(out)]) == 0
        (result,) = json.loads((out / "checks.json").read_text())
        assert result["check"] == "gnz" and result["passed"] is passed

    @pytest.mark.parametrize("factor, passed", [(1.0, True), (2.0, False)])
    def test_space_time_gibbs_gnz(self, tmp_path, factor, passed):
        # the time half of the neighbour rule, in the chain and in the
        # Papangelou intensity
        cfg_obj = json.loads(json.dumps(GIBBS_ST_CHECK))
        cfg_obj["check"]["lambda_factor"] = factor
        out = tmp_path / "stchk"
        assert main(["check", "--config", write_cfg(tmp_path, cfg_obj),
                     "--out", str(out)]) == 0
        (result,) = json.loads((out / "checks.json").read_text())
        assert result["check"] == "gnz" and result["passed"] is passed

    @pytest.mark.parametrize("name", ["campbell", "janossy"])
    def test_gibbs_has_only_gnz(self, tmp_path, capsys, name):
        cfg_obj = json.loads(json.dumps(GIBBS_CHECK))
        cfg_obj["check"]["checks"] = ["gnz", name]
        assert main(["check", "--config", write_cfg(tmp_path, cfg_obj),
                     "--out", str(tmp_path / "x")]) == 1
        assert f"'{name}'" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("t_star", [1.0, 2.0])
    def test_temporal_window_box_bounds_space(self, tmp_path, t_star):
        # the box bounds the spatial coordinates of the (x, t) ground rows,
        # so the intensity side is rate * |box| * t_star
        rate = 50.0
        cfg = write_cfg(tmp_path, {
            "window": {"lo": [0, 0], "hi": [1, 1], "t_star": t_star},
            "model": {"ground": {"family": "poisson", "rate": rate}},
            "check": {"checks": ["campbell", "gnz"], "replicates": 20}})
        out = tmp_path / "chk_t"
        assert main(["check", "--config", cfg, "--out", str(out)]) == 0
        results = {r["check"]: r for r in
                   json.loads((out / "checks.json").read_text())}
        assert results["campbell"]["rhs"] == pytest.approx(rate * 0.25 * t_star,
                                                           rel=1e-12)
        assert results["campbell"]["passed"] and results["gnz"]["passed"]

    @pytest.mark.parametrize("ground, theta, perturbed", [
        ({"family": "poisson-t", "rate": 60.0}, (60.0,), (75.0,)),
        ({"family": "loglinear-t", "a": 4.0, "b": 0.5}, (4.0, 0.5), (4.0, 0.7)),
    ])
    def test_temporal_simulators_satisfy_the_fitted_models_identities(
            self, ground, theta, perturbed):
        # simulate draws the temporal Poisson families from an intensity of
        # its own; estimate fits infer.ground_intensity, so the Campbell and
        # GNZ identities of that model must hold on simulate's draws (seed
        # 0, 200 replicates, 3 standard errors), and a perturbed model fail
        # them
        cfg = {"window": {"lo": [0, 0], "hi": [1, 1], "t_star": 2.0},
               "model": {"ground": ground}}
        window = cli._window_from(cfg)
        simulate = partial(cli._simulate_one, cfg, window)
        in_box = lambda g: np.all(g[:, :2] <= 0.5, axis=1).astype(float)

        def checks(theta):
            model = infer.ParametricModel(ground["family"], theta, window)
            return [
                campbell_check(simulate, lambda c: in_box(c.ground),
                               lambda g: infer.ground_intensity(model, g) * in_box(g),
                               window, replicates=200),
                gnz_check(simulate, partial(infer.papangelou, model),
                          lambda u, pts, own: in_box(u), window, replicates=200,
                          quad_res=16)]

        assert all(rep.passed() for rep in checks(theta))
        assert not any(rep.passed() for rep in checks(perturbed))


class TestJanossyScheme:
    def test_events_built_once_per_fit(self, tmp_path):
        cfg = write_cfg(tmp_path, dict(BASE, estimate={
            "scheme": "mle-janossy", "theta0": [10.0], "budget": 600}))
        out = tmp_path / "once"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        with mock.patch.object(infer, "_events", wraps=infer._events) as events:
            assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
        assert events.call_count == 1
        rep = json.loads((out / "fit.json").read_text())
        # several objective evaluations, within the budget, share the one build
        assert 1 < rep["iterations"] <= 600
        # the objective is the maximized log J, as for the other likelihoods
        c = read_configuration_files(out / "configuration_r000.json")
        model = infer.ParametricModel("poisson", rep["theta_hat"], c.window)
        assert rep["objective"] == pytest.approx(
            infer.janossy_density(model, c).log_value, rel=1e-12)

    def test_mle_janossy_recovers_rate(self, tmp_path):
        cfg_obj = dict(BASE, estimate={"scheme": "mle-janossy",
                                       "theta0": [10.0], "budget": 600})
        cfg = write_cfg(tmp_path, cfg_obj)
        out = tmp_path / "jan"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "fit.json").read_text())
        c = configuration_from_json((out / "configuration_r000.json").read_text())
        # maximizer of the finite-sample likelihood is n / |W|
        assert rep["theta_hat"][0] == pytest.approx(len(c), rel=1e-6)

    def test_mle_janossy_at_large_n(self, tmp_path):
        # the Janossy density itself under/overflows here; its log does not
        cfg_obj = json.loads(json.dumps(BASE))
        cfg_obj["replicates"] = 1
        cfg_obj["model"]["ground"]["rate"] = 800.0
        cfg_obj["estimate"] = {"scheme": "mle-janossy", "theta0": [10.0],
                               "budget": 600}
        cfg = write_cfg(tmp_path, cfg_obj)
        out = tmp_path / "jan800"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "fit.json").read_text())
        c = configuration_from_json((out / "configuration_r000.json").read_text())
        assert len(c) > 700
        assert rep["theta_hat"][0] == pytest.approx(len(c), rel=1e-6)


# every stage that reads configurations: a spatial pattern with discrete
# aux marks and Wiener marks, and a temporal one with continuous aux marks
# and finite mark supports
NPZ_SPATIAL = {
    "window": {"lo": [0, 0], "hi": [1, 1]}, "seed": 7, "replicates": 2,
    "model": {"ground": {"family": "poisson", "rate": 60.0},
              "aux": {"kind": "types", "probs": [0.5, 0.5]},
              "marks": {"model": "wiener", "scale": 1.0},
              "mark_grid": {"dt": 0.1}},
    "summarize": {"intensity": {"cells": 3}, "pcf": {"lags": [0.1, 0.2]},
                  "variogram": {"bins": 4}},
    "estimate": {"scheme": "mle-janossy", "theta0": [10.0], "budget": 600,
                 "replicate": 1},
}
NPZ_TEMPORAL = {
    "window": {"lo": [0, 0], "hi": [1, 1], "t_star": 1.0}, "seed": 7,
    "replicates": 2,
    "model": {"ground": {"family": "immigration-death", "arrival_rate": 12.0,
                         "death_rate": 0.5},
              "aux": {"kind": "lifetime", "rate": 0.5},
              "marks": {"model": "growth-interaction",
                        "growth": ["linear", 2.0, 0.08], "m0": 0.0},
              "mark_grid": {"dt": 0.1}},
    "schedule": [0.25, 0.5, 0.75],
    "summarize": {"coverage": {"times": [0.3, 0.6], "resolution": 32}},
    "estimate": {"scheme": "least-squares", "theta0": [1.0, 0.05],
                 "bounds": [[0.01, 10], [0.001, 1]], "replicate": 1},
    "geometry": {"times": [0.3, 0.6], "resolution": 32},
}


class TestNpzCache:
    """Later stages read simulate's configuration_rNNN.cols in place of the
    JSON and write the same bytes as from the JSON."""

    @pytest.mark.parametrize("cfg_obj, stages", [
        (NPZ_SPATIAL, (("summarize", ("intensity.csv", "pcf.csv",
                                      "variogram.csv")),
                       ("estimate", ("fit.json",)))),
        (NPZ_TEMPORAL, (("summarize", ("coverage.csv",)),
                        ("estimate", ("fit.json",)),
                        ("geometry", ("coverage.csv", "sections.csv")))),
    ], ids=["spatial", "temporal"])
    def test_stage_outputs_same_without_cache(self, tmp_path, cfg_obj, stages):
        cfg = write_cfg(tmp_path, cfg_obj)
        cached, plain = tmp_path / "cached", tmp_path / "plain"
        assert main(["simulate", "--config", cfg, "--out", str(cached)]) == 0
        assert sorted(f.name for f in cached.glob("*.cols")) == [
            "configuration_r000.cols", "configuration_r001.cols"]
        shutil.copytree(cached, plain)
        for f in plain.glob("*.cols"):
            f.unlink()
        for stage, outputs in stages:
            with mock.patch.object(core, "configuration_from_json",
                                   side_effect=AssertionError("read the JSON")):
                assert main([stage, "--config", cfg, "--out", str(cached)]) == 0
            assert main([stage, "--config", cfg, "--out", str(plain)]) == 0
            for name in outputs:
                assert (cached / name).read_bytes() == (plain / name).read_bytes()

    def test_replicates_in_number_order(self, tmp_path):
        # as strings r1000 sorts before r101
        cfg = write_cfg(tmp_path, dict(BASE, replicates=3, estimate={
            "scheme": "mle-janossy", "theta0": [10.0], "budget": 600,
            "replicate": 2}))
        out = tmp_path / "order"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        for old, new in (("000", "101"), ("001", "999"), ("002", "1000")):
            for suffix in (".json", ".cols"):
                (out / f"configuration_r{old}{suffix}").rename(
                    out / f"configuration_r{new}{suffix}")
        want = [configuration_from_json(
                    (out / f"configuration_r{r}.json").read_text())
                for r in ("101", "999", "1000")]
        assert len({len(c) for c in want}) == 3
        got = cli._load_replicates({}, out)
        assert [c.ground.tobytes() for c in got] == [
            c.ground.tobytes() for c in want]
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "fit.json").read_text())
        assert rep["theta_hat"][0] == pytest.approx(len(want[2]), rel=1e-6)

    def test_estimate_reads_only_its_replicate(self, tmp_path, capsys):
        cfg_obj = dict(BASE, estimate={"scheme": "mle-janossy",
                                       "theta0": [10.0], "budget": 600})
        cfg = write_cfg(tmp_path, cfg_obj)
        out = tmp_path / "one"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        (out / "configuration_r001.json").write_text("not json")
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
        cfg = write_cfg(tmp_path, dict(cfg_obj, estimate={
            **cfg_obj["estimate"], "replicate": 2}), "far.json")
        capsys.readouterr()
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == 1
        assert "estimate.replicate out of range" in capsys.readouterr().err
