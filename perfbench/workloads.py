"""The benchmark's workloads: fmpp configs made from a seed, the CLI stages
each one runs after ``simulate``, its output checks and its input sizes.

Every config is a plain dict built from the seed alone, so the same seed
gives the same inputs.  ``tiny=True`` shrinks a workload for the self-tests.
Checks read the stage outputs after the timed region and return a list of
``(stage, message)`` failures; they never raise for a failed check.

Sizes are chosen so that one pipeline takes one to four seconds on a
2-core box without numba, so that a run of about 25 s takes its medians
over several pipelines, each on a new input.  The growth workload
integrates its marks at dt 0.05 for both ``mark_grid.dt`` and ``marks.dt``:
the two agree, so the CLI fits with the discretisation it simulated with.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    stages: tuple        # stages run after simulate, in order
    make_config: Callable[[int, bool], dict]
    check: Callable[[dict, Path, dict], list]
    sizes: Callable[[dict, Path], dict]


def read_csv_rows(path: Path) -> list:
    """Float rows of a CLI CSV file, below its metadata and header lines."""
    lines = [ln for ln in Path(path).read_text(encoding="utf-8").splitlines()
             if ln and not ln.startswith("#")]
    return [[float(v) for v in ln.split(",")] for ln in lines[1:]]


def load_replicate(out: Path):
    """Replicate 0, the one the estimate and path-metric stages use."""
    from fmpp.core import configuration_from_json

    text = (out / "configuration_r000.json").read_text(encoding="utf-8")
    return configuration_from_json(text)


def _replicate_counts(cfg: dict, out: Path) -> list:
    return [len(json.loads((out / f"configuration_r{r:03d}.json")
                           .read_text(encoding="utf-8"))["points"])
            for r in range(int(cfg["replicates"]))]


def _grid_steps(cfg: dict) -> int:
    w = cfg["window"]
    horizon = w.get("t_star") or 1.0
    return int(round(horizon / cfg["model"]["mark_grid"]["dt"]))


def _fit(out: Path) -> dict:
    return json.loads((out / "fit.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# growth-ls: coupled growth-interaction marks, least squares, geometry, paths.
# The least-squares objective re-integrates the coupled ODE at every
# evaluation; no other workload reaches mark integration, geometry or the
# time-warp metric.
# ---------------------------------------------------------------------------
GROWTH_TRUTH = (2.0, 0.08)
# marks of replicate 0 whose time-warp distance is measured
PATH_PAIRS = ((0, 1), (2, 3))
PATH_RESOLUTION = 4


def growth_ls_config(seed: int, tiny: bool = False) -> dict:
    dt = 0.1 if tiny else 0.05
    return {
        "window": {"lo": [0, 0], "hi": [1, 1], "t_star": 1.0},
        "seed": seed,
        "replicates": 2,
        "model": {
            "ground": {"family": "immigration-death",
                       "arrival_rate": 12.0 if tiny else 30.0,
                       "death_rate": 0.5},
            "aux": {"kind": "lifetime", "rate": 0.5},
            "marks": {"model": "growth-interaction",
                      "growth": ["linear", *GROWTH_TRUTH],
                      "interaction": ["gauss", 1.0, 0.1],
                      "m0": 0.0, "dt": dt},
            "mark_grid": {"dt": dt},
        },
        "schedule": [0.25, 0.5, 0.75],
        "geometry": {"times": [0.2, 0.4, 0.6, 0.8],
                     "resolution": 64 if tiny else 256},
        "estimate": {"scheme": "least-squares", "theta0": [1.0, 0.05],
                     "bounds": [[0.01, 10], [0.001, 1]]},
    }


def path_metric(out: Path) -> list:
    """Time-warp and uniform distances of the fixed mark pairs of replicate 0,
    looked up on ``fmpp.core`` at call time so a traced run sees them."""
    import fmpp.core

    c = load_replicate(out)
    marks = [p.mark for p in c.points]
    return [(fmpp.core.skorohod_distance(marks[i], marks[j], PATH_RESOLUTION),
             fmpp.core.uniform_distance(marks[i], marks[j]))
            for i, j in PATH_PAIRS]


def growth_ls_check(cfg: dict, out: Path, ctx: dict) -> list:
    fails = []
    fit = _fit(out)
    if not fit["converged"]:
        fails.append(("estimate", "least-squares fit did not converge"))
    for got, want in zip(fit["theta_hat"], GROWTH_TRUTH):
        if not abs(got - want) <= 1e-6 * abs(want):
            fails.append(("estimate", f"theta_hat {fit['theta_hat']} is not "
                                      f"within 1e-6 relative of {GROWTH_TRUTH}"))
            break
    rows = read_csv_rows(out / "coverage.csv")
    if not all(0.0 <= v <= 1.0 for row in rows for v in row[1:]):
        fails.append(("geometry", "coverage fraction outside [0, 1]"))
    for warp, unif in ctx.get("path_metric", ()):
        # the identity warp is a candidate, so warp <= min(uniform, 1)
        if not (math.isfinite(warp) and warp <= min(unif, 1.0)):
            fails.append(("path_metric", f"time-warp distance {warp} exceeds "
                                         f"min(uniform {unif}, 1)"))
    return fails


def growth_ls_sizes(cfg: dict, out: Path) -> dict:
    n = _replicate_counts(cfg, out)
    return {"points_per_replicate": n, "grid_steps": _grid_steps(cfg),
            "pairs": n[0] * (n[0] - 1) // 2, "quad_nodes": 0}


# ---------------------------------------------------------------------------
# gibbs-pl: pairwise-interaction Gibbs ground, pseudo-likelihood fit.  The
# birth-death chain and per-point neighbour counts dominate.
# ---------------------------------------------------------------------------
GIBBS_TRUTH = (200.0, 0.3)


def gibbs_pl_config(seed: int, tiny: bool = False) -> dict:
    return {
        "window": {"lo": [0, 0], "hi": [1, 1]},
        "seed": seed,
        "replicates": 1,
        "model": {
            "ground": {"family": "gibbs",
                       "beta": 40.0 if tiny else GIBBS_TRUTH[0],
                       "gamma": GIBBS_TRUTH[1], "range": 0.05,
                       "steps": 2000 if tiny else 20000},
            "marks": {"model": "constant", "value": 1.0},
            "mark_grid": {"dt": 0.5},
        },
        "estimate": {"scheme": "pseudo", "quad_res": 12 if tiny else 48,
                     "theta0": [150.0, 0.5]},
    }


def _gibbs_model(cfg: dict, theta):
    from fmpp import infer
    from fmpp.core import Window

    w = cfg["window"]
    g = cfg["model"]["ground"]
    # the bounds run_estimate uses by default
    return infer.ParametricModel("gibbs", tuple(theta),
                                 Window(tuple(w["lo"]), tuple(w["hi"])),
                                 ((1e-6, 1e6), (1e-6, 1.0)),
                                 interaction_range=g["range"])


def gibbs_pl_check(cfg: dict, out: Path, ctx: dict) -> list:
    from fmpp import infer

    theta_hat = _fit(out)["theta_hat"]
    data = [infer.Observation(p.x, p.t) for p in load_replicate(out).points]
    quad_res = int(cfg["estimate"]["quad_res"])
    truth = (cfg["model"]["ground"]["beta"], cfg["model"]["ground"]["gamma"])

    def pl(theta):
        return infer.pseudolikelihood(_gibbs_model(cfg, theta), data, None,
                                      quad_res)

    at_hat = pl(theta_hat)
    fails = []
    for label, theta in (("theta0", cfg["estimate"]["theta0"]),
                         ("truth", truth)):
        if not at_hat >= pl(theta):
            fails.append(("estimate", f"log pseudo-likelihood at theta_hat "
                                      f"{at_hat} is below its value at {label}"))
    return fails


def gibbs_pl_sizes(cfg: dict, out: Path) -> dict:
    n = _replicate_counts(cfg, out)
    q = int(cfg["estimate"]["quad_res"])
    return {"points_per_replicate": n, "grid_steps": _grid_steps(cfg),
            "pairs": n[0] * (n[0] - 1) // 2, "quad_nodes": q * q}


# ---------------------------------------------------------------------------
# loglinear-mle: temporal Poisson with rate exp(a + b t), temporal MLE.  Scalar
# intensity calls dominate; the workload barely touches ground, marks, core,
# stats or the kernels, so it is the control for changes there.
# ---------------------------------------------------------------------------
LOGLINEAR_TRUTH = (4.0, 0.5)
LOGLIK_QUAD_RES = 64     # fit_loglik_temporal's default, used by the CLI


def loglinear_mle_config(seed: int, tiny: bool = False) -> dict:
    return {
        "window": {"lo": [0, 0], "hi": [1, 1], "t_star": 2.0},
        "seed": seed,
        "replicates": 1,
        "model": {
            "ground": {"family": "loglinear-t",
                       "a": 2.0 if tiny else LOGLINEAR_TRUTH[0],
                       "b": LOGLINEAR_TRUTH[1]},
            "mark_grid": {"dt": 0.5},
        },
        "estimate": {"scheme": "mle-temporal", "theta0": [3.0, 0.0]},
    }


def loglinear_mle_check(cfg: dict, out: Path, ctx: dict) -> list:
    from fmpp import infer
    from fmpp.core import Window

    w = cfg["window"]
    window = Window(tuple(w["lo"]), tuple(w["hi"]), w["t_star"])
    data = [infer.Observation(p.x, p.t) for p in load_replicate(out).points]

    def loglik(theta):
        model = infer.ParametricModel("loglinear-t", tuple(theta), window,
                                      ((-10.0, 10.0), (-10.0, 10.0)))
        return infer.loglik_temporal(model, data, None, LOGLIK_QUAD_RES)

    g = cfg["model"]["ground"]
    at_hat = loglik(_fit(out)["theta_hat"])
    at_truth = loglik((g["a"], g["b"]))
    if not at_hat >= at_truth:
        return [("estimate", f"log-likelihood at theta_hat {at_hat} is below "
                             f"its value {at_truth} at the truth")]
    return []


def loglinear_mle_sizes(cfg: dict, out: Path) -> dict:
    q = LOGLIK_QUAD_RES
    return {"points_per_replicate": _replicate_counts(cfg, out),
            "grid_steps": _grid_steps(cfg), "pairs": 0,
            "quad_nodes": q * q + q}


# ---------------------------------------------------------------------------
# wiener-2k: about 2k Wiener-marked points, written out and summarized.  CSV
# and JSON I/O, dense pair statistics and the trace-variogram dominate, and
# the n^2 pair arrays set peak memory; it barely touches infer.
# ---------------------------------------------------------------------------
PCF_TOL = 0.15
# bins whose centre is within this distance hold enough pairs for the
# pooled trace-variogram to sit near its random-labelling value 1/2
VARIOGRAM_H_MAX = 0.75
VARIOGRAM_TOL = 0.1


def wiener_2k_config(seed: int, tiny: bool = False) -> dict:
    return {
        "window": {"lo": [0, 0], "hi": [1, 1]},
        "seed": seed,
        "replicates": 1,
        "model": {
            "ground": {"family": "poisson", "rate": 600.0 if tiny else 2000.0},
            "aux": {"kind": "types", "probs": [0.5, 0.5]},
            "marks": {"model": "wiener", "scale": 1.0},
            "mark_grid": {"dt": 0.01},
        },
        "summarize": {
            "intensity": {"cells": 8},
            "pcf": {"lags": [0.025, 0.05, 0.075, 0.1, 0.125, 0.15, 0.2]},
            "variogram": {"bins": 15},
        },
    }


def wiener_2k_check(cfg: dict, out: Path, ctx: dict) -> list:
    fails = []
    rows = read_csv_rows(out / "pcf.csv")
    bad = [(r[0], r[-1]) for r in rows if not abs(r[-1] - 1.0) <= PCF_TOL]
    if bad:
        fails.append(("summarize", f"pooled pcf farther than {PCF_TOL} from 1 "
                                   f"at (lag, value) {bad}"))
    rows = read_csv_rows(out / "variogram.csv")
    bad = [(r[0], r[-1]) for r in rows
           if r[0] <= VARIOGRAM_H_MAX and not abs(r[-1] - 0.5) <= VARIOGRAM_TOL]
    if bad:
        fails.append(("summarize", f"pooled trace-variogram farther than "
                                   f"{VARIOGRAM_TOL} from 1/2 at (h, value) {bad}"))
    return fails


def wiener_2k_sizes(cfg: dict, out: Path) -> dict:
    n = _replicate_counts(cfg, out)
    return {"points_per_replicate": n, "grid_steps": _grid_steps(cfg),
            "pairs": sum(k * (k - 1) // 2 for k in n), "quad_nodes": 0}


WORKLOADS = {w.name: w for w in (
    Workload("growth-ls",
             ("geometry", "estimate", "path_metric"),
             growth_ls_config, growth_ls_check, growth_ls_sizes),
    Workload("gibbs-pl",
             ("estimate",), gibbs_pl_config, gibbs_pl_check, gibbs_pl_sizes),
    Workload("loglinear-mle",
             ("estimate",), loglinear_mle_config, loglinear_mle_check,
             loglinear_mle_sizes),
    Workload("wiener-2k",
             ("summarize",), wiener_2k_config, wiener_2k_check,
             wiener_2k_sizes),
)}
