"""Command-line entry point.

Subcommands: simulate, summarize, estimate, geometry, check.  A single JSON
config document drives every subcommand; registry names (ground families,
growth functions, kernels, variogram families) are strings resolved at load
time.  Outputs are CSV (comma separator, '.' decimal, '#' metadata lines
above the header) and JSON; replicate r uses seed + r, so reruns with the
same config and seed are byte-identical apart from the manifest timestamp.
``simulate`` also writes each replicate's ``.cols`` column cache, which the
later stages read in place of its JSON while the two match.

Exit codes: 0 success/converged, 1 validation error, 2 runtime or numerical
error, 3 non-convergence.
"""
from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import re
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from . import geometry as geo
from . import ground, infer, marks, stats
from .core import (
    AuxMeasure,
    AuxTable,
    Configuration,
    ReferenceSpec,
    SampleSchedule,
    Window,
    configuration_from_json,  # noqa: F401  (fmpp.cli attributes that perfbench wraps)
    configuration_to_json,  # noqa: F401
    read_configuration_files,
    write_configuration_csv,  # noqa: F401
    write_configuration_files,
)
from .errors import NonConvergenceError, NumericalError, ValidationError

__all__ = ["main", "run_simulate", "run_summarize", "run_estimate",
           "run_geometry", "run_check"]


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------
def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise ValidationError(f"missing required config field '{path}.{key}'")
    return obj[key]


_REQUIRED = object()


def _checked(value, field: str, integer: bool = False, ranged: bool = False):
    """The one reader of a config number: ``value`` as given (an int with
    ``integer``).  A string, a boolean, a null or a count that is not an
    integer is a ValidationError naming ``field``, and so are NaN and the
    infinities unless ``ranged``: then the model class that receives the
    value checks its range, NaN and infinities included."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"config field '{field}' must be a number")
    if integer:
        if not (math.isfinite(value) and value == int(value)):
            raise ValidationError(f"config field '{field}' must be an integer")
        return int(value)
    if not (ranged or math.isfinite(value)):
        raise ValidationError(f"config field '{field}' must be finite")
    return value


def _number(obj: dict, key: str, path: str, default=_REQUIRED,
            integer: bool = False, ranged: bool = False):
    """The number ``obj[key]`` through ``_checked``; ``default`` where the
    key is absent or null, if a default is given."""
    if default is not _REQUIRED and obj.get(key) is None:
        return default
    return _checked(_require(obj, key, path), f"{path}.{key}".lstrip("."),
                    integer, ranged)


def _numbers(obj: dict, key: str, path: str, default=_REQUIRED,
             integer: bool = False, ranged: bool = False,
             width: int | None = None) -> tuple:
    """The list ``obj[key]`` of numbers (with ``width``, of lists of
    ``width`` numbers) as a tuple (of tuples), each number through
    ``_checked``; ``default`` where the key is absent or null."""
    if default is not _REQUIRED and obj.get(key) is None:
        return default
    values, field = _require(obj, key, path), f"{path}.{key}".lstrip(".")
    rows = values if width is not None and isinstance(values, list) else [values]
    if not all(isinstance(r, list) and len(r) == (width or len(r)) for r in rows):
        raise ValidationError(f"config field '{field}' must be a list of "
                              + (f"{width}-number lists" if width else "numbers"))
    read = lambda row: tuple(_checked(v, field, integer, ranged) for v in row)
    return tuple(map(read, values)) if width is not None else read(values)


def _spec(obj: dict, key: str, path: str, default=_REQUIRED) -> tuple:
    """A registry entry ``[name, number, ...]`` as a tuple; its numbers
    are ``ranged`` (the model class checks them)."""
    if default is not _REQUIRED and obj.get(key) is None:
        return default
    spec, field = _require(obj, key, path), f"{path}.{key}"
    if not (isinstance(spec, list) and spec and isinstance(spec[0], str)):
        raise ValidationError(f"config field '{field}' must be [name, number, ...]")
    return (spec[0], *(_checked(v, field, ranged=True) for v in spec[1:]))


def _window_from(cfg: dict) -> Window:
    w = _require(cfg, "window", "")
    return Window(_numbers(w, "lo", "window", ranged=True),
                  _numbers(w, "hi", "window", ranged=True),
                  _number(w, "t_star", "window", None, ranged=True),
                  w.get("torus", False),
                  _number(w, "time_scale", "window", 1.0, ranged=True))


def _config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _mark_grid(cfg: dict, window: Window) -> np.ndarray:
    dt = _number(cfg.get("model", {}).get("mark_grid", {}), "dt",
                 "model.mark_grid", 0.01, ranged=True)
    horizon = window.t_star if window.is_temporal else 1.0
    n = int(round(horizon / dt)) if dt > 0 else 0
    if n < 1 or abs(n * dt - horizon) > 1e-9 * max(horizon, 1.0):
        raise ValidationError("model.mark_grid.dt must divide the horizon")
    return np.arange(n + 1) * dt


def _gibbs_from(gspec: dict) -> ground.PairwiseGibbs:
    """The pairwise-interaction model of a ``gibbs`` ground section."""
    return ground.PairwiseGibbs(*(_number(gspec, key, "model.ground", ranged=True)
                                  for key in ("beta", "gamma", "range")),
                                _number(gspec, "temporal_range", "model.ground",
                                        None, ranged=True))


def _csv_write(path: Path, metadata: dict, header: list, rows: list):
    with open(path, "w", encoding="utf-8") as fh:
        for k, v in metadata.items():
            fh.write(f"# {k}={v}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def _fmt(x) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------
def _mark_model(mark_spec: dict, field):
    """The mark model of the config section ``model.marks``, which
    ``simulate`` attaches and ``estimate`` fits; ``field`` is the LGCP
    ground's intensity field, or None."""
    mname = mark_spec.get("model", "none")
    if mname == "none":
        return marks.Deterministic(("constant", 1.0))
    if mname == "constant":
        return marks.Deterministic(
            ("constant", float(_number(mark_spec, "value", "model.marks"))))
    if mname == "wiener":
        return marks.Wiener(float(_number(mark_spec, "scale", "model.marks",
                                          1.0, ranged=True)))
    if mname == "growth-interaction":
        return marks.GrowthInteraction(
            _spec(mark_spec, "growth", "model.marks"),
            _spec(mark_spec, "interaction", "model.marks", ("none",)),
            _spec(mark_spec, "noise", "model.marks", ("zero",)),
            float(_number(mark_spec, "m0", "model.marks", 0.0, ranged=True)),
            mark_spec.get("negative_policy", "clamp"),
            _number(mark_spec, "interaction_cutoff", "model.marks", None, ranged=True))
    if mname == "geostatistical":
        return marks.Geostatistical(
            _number(mark_spec, "mean", "model.marks", 0.0),
            _spec(mark_spec, "kernel", "model.marks"))
    if mname == "intensity":
        if field is None:
            raise ValidationError("model.marks 'intensity' needs an lgcp ground")
        return marks.IntensityDependent(field)
    raise ValidationError(f"unknown mark model '{mname}' in model.marks")


def _simulate_one(cfg: dict, window: Window, seed: int) -> Configuration:
    model = _require(cfg, "model", "")
    gspec = _require(model, "ground", "model")
    family = _require(gspec, "family", "model.ground")
    aux_spec = model.get("aux", {"kind": "none"})
    mark_spec = model.get("marks", {"model": "none"})
    grid = _mark_grid(cfg, window)
    # the ground draws from seed itself; aux marks and functional marks each
    # draw from their own child stream of it
    aux_seed, mark_seed = np.random.SeedSequence(seed).spawn(2)
    rng = np.random.default_rng(aux_seed)
    field = None
    births = lifetimes = None

    if family == "poisson":
        locs = ground.simulate_poisson(
            ground.HomogeneousPoisson(_number(gspec, "rate", "model.ground",
                                              ranged=True)),
            window, seed)
    elif family == "lgcp":
        field, locs = ground.simulate_lgcp(
            ground.LogGaussianCox(
                _number(gspec, "mean", "model.ground"),
                _spec(gspec, "kernel", "model.ground"),
                _numbers(gspec, "grid", "model.ground", integer=True)),
            window, seed)
    elif family == "immigration-death":
        xs, births, lifetimes = ground.simulate_immigration_death(
            ground.ImmigrationDeath(
                _number(gspec, "arrival_rate", "model.ground", ranged=True),
                _number(gspec, "death_rate", "model.ground", ranged=True)),
            window, seed)
        locs = np.hstack([xs, births[:, None]])
    elif family == "gibbs":
        locs = ground.simulate_gibbs(
            _gibbs_from(gspec), window,
            _number(gspec, "steps", "model.ground", 20000, integer=True), seed)
    elif family in ("poisson-t", "loglinear-t"):
        if not window.is_temporal:
            raise ValidationError("model.ground.family needs window.t_star")
        if family == "poisson-t":
            rate = float(_number(gspec, "rate", "model.ground", ranged=True))
            tmodel = ground.HomogeneousPoisson(rate / window.volume)
        else:
            a = float(_number(gspec, "a", "model.ground", ranged=True))
            b = float(_number(gspec, "b", "model.ground"))
            # NaN in a reaches the bound, which rejects it
            lam_max = float(np.exp(np.maximum(a, a + b * window.t_star))) / window.volume
            tmodel = ground.InhomogeneousPoisson(partial(
                infer.ground_intensity,
                infer.ParametricModel("loglinear-t", (a, b), window)), lam_max)
        locs = ground.simulate_poisson(tmodel, window, seed)
    else:
        raise ValidationError(f"unknown ground family '{family}' in model.ground")

    n = len(locs)
    kind = aux_spec.get("kind", "none")
    if kind == "types":
        probs = np.asarray(_numbers(aux_spec, "probs", "model.aux"), dtype=float)
        if not (np.all(probs >= 0.0) and np.sum(probs) > 0.0):
            raise ValidationError("config field 'model.aux.probs' must be "
                                  "nonnegative with a positive sum")
        draws = rng.choice(len(probs), size=n, p=probs / probs.sum()) + 1
        auxs = AuxTable(draws, np.empty((n, 0)))
        reference = ReferenceSpec(AuxMeasure("counting", (len(probs),)))
    elif kind == "lifetime":
        if lifetimes is None:
            rate = float(_number(aux_spec, "rate", "model.aux"))
            if not rate > 0.0:
                raise ValidationError("config field 'model.aux.rate' must be positive")
            lifetimes = rng.exponential(1.0 / rate, size=n)
        auxs = AuxTable(np.zeros(n, dtype=np.int64), lifetimes[:, None])
        reference = ReferenceSpec(AuxMeasure("expon", (1.0,)))
    elif kind == "none":
        auxs = AuxTable(np.ones(n, dtype=np.int64), np.empty((n, 0)))
        reference = ReferenceSpec(AuxMeasure("counting", (1,)))
    else:
        raise ValidationError(f"unknown aux kind '{kind}' in model.aux")

    paths = marks.attach_marks(window, locs, auxs, _mark_model(mark_spec, field),
                               grid, mark_seed)
    return marks.make_configuration(window, locs, auxs, paths, reference)


def run_simulate(cfg: dict, out: Path, seed: int, replicates: int) -> int:
    window = _window_from(cfg)
    out.mkdir(parents=True, exist_ok=True)
    files = []
    for r in range(replicates):
        c = _simulate_one(cfg, window, seed + r)
        jpath = out / f"configuration_r{r:03d}.json"
        cpath = out / f"marks_r{r:03d}.csv"
        write_configuration_files(c, jpath, cpath,
                                  {"seed": seed + r, "replicate": r})
        # the manifest lists the exports, not the .cols cache of the JSON
        files += [jpath.name, cpath.name]
        print(f"replicate {r}: {len(c)} points -> {jpath.name}")
    manifest = {
        "command": "simulate",
        "config_hash": _config_hash(cfg),
        "seed": seed,
        "replicates": replicates,
        "files": files,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1),
                                       encoding="utf-8")
    return 0


# ---------------------------------------------------------------------------
# summarize
# ---------------------------------------------------------------------------
_REPLICATE_FILE = re.compile(r"configuration_r(\d+)\.json")


def _load_replicates(section: dict, out: Path, only: int | None = None) -> list:
    """The configurations ``simulate`` wrote to ``section["input"]``
    (default ``out``), in the order of their replicate numbers, each read
    from its ``.cols`` cache while that matches its JSON; with ``only``, just
    the one at that position."""
    indir = Path(section.get("input", out))
    numbered = sorted((int(m.group(1)), p.name, p)
                      for p in indir.glob("configuration_r*.json")
                      if (m := _REPLICATE_FILE.fullmatch(p.name)))
    if not numbered:
        raise ValidationError(f"no configurations found under '{indir}'")
    paths = [p for _, _, p in numbered]
    if only is not None:
        if not 0 <= only < len(paths):
            raise ValidationError("estimate.replicate out of range")
        paths = paths[only:only + 1]
    return [read_configuration_files(p) for p in paths]


def _coverage(configs: list, times, res: int):
    """The coverage CSV header and rows (t, the covered fraction of each
    replicate, their mean), and per time the sections of every replicate."""
    header = (["t"] + [f"fraction_r{r:03d}" for r in range(len(configs))]
              + ["pooled"])
    rows, sections = [], []
    for t in times:
        secs = [geo.section(c, t) for c in configs]
        fr = [geo.coverage_fraction(s, c.window, res)
              for s, c in zip(secs, configs)]
        rows.append([_fmt(t), *[_fmt(v) for v in fr], _fmt(float(np.mean(fr)))])
        sections.append(secs)
    return header, rows, sections


def run_summarize(cfg: dict, out: Path, seed: int) -> int:
    section = cfg.get("summarize", {})
    configs = _load_replicates(section, out)
    out.mkdir(parents=True, exist_ok=True)
    meta = {"config_hash": _config_hash(cfg), "seed": seed,
            "replicates": len(configs)}

    if "intensity" in section:
        cells = _number(section["intensity"], "cells", "summarize.intensity", 8,
                        integer=True)
        surfaces = [stats.intensity_estimate(c, cells) for c in configs]
        header = ["cell"] + [f"lambda_r{r:03d}" for r in range(len(configs))] + ["pooled"]
        vals = np.stack([s.values.ravel() for s in surfaces])
        rows = [[i, *[_fmt(v) for v in vals[:, i]], _fmt(vals[:, i].mean())]
                for i in range(vals.shape[1])]
        _csv_write(out / "intensity.csv", {**meta, "cells": cells}, header, rows)

    if "pcf" in section:
        psec = section["pcf"]
        lags = np.asarray(_numbers(psec, "lags", "summarize.pcf"), dtype=float)
        bw = _number(psec, "bandwidth", "summarize.pcf", None)
        ests = []
        for c in configs:
            if len(c) < 2:
                raise ValidationError("summarize.pcf: no points in a replicate")
            ests.append(stats.pcf_ground(c, lags, bw))
        vals = np.stack([e.values for e in ests])
        header = ["r"] + [f"g_r{r:03d}" for r in range(len(configs))] + ["pooled"]
        rows = [[_fmt(lags[i]), *[_fmt(v) for v in vals[:, i]],
                 _fmt(vals[:, i].mean())] for i in range(len(lags))]
        _csv_write(out / "pcf.csv",
                   {**meta, "bandwidth": ests[0].bandwidth,
                    "edge_correction": ests[0].edge_correction}, header, rows)

    if "variogram" in section:
        bins = _number(section["variogram"], "bins", "summarize.variogram", 15,
                       integer=True)
        ests = [stats.trace_variogram(c.spatial_locations(), c.marks, bins)
                for c in configs]
        centers = ests[0].bin_centers
        header = ["h"] + [f"gamma_r{r:03d}" for r in range(len(configs))] + ["pooled"]
        vals = np.stack([e.values for e in ests])
        rows = [[_fmt(centers[i]), *[_fmt(v) for v in vals[:, i]],
                 _fmt(vals[:, i].mean())] for i in range(len(centers))]
        _csv_write(out / "variogram.csv", {**meta, "bins": bins}, header, rows)

    if "coverage" in section:
        csec = section["coverage"]
        times = _numbers(csec, "times", "summarize.coverage")
        res = _number(csec, "resolution", "summarize.coverage", 128, integer=True)
        header, rows, _ = _coverage(configs, times, res)
        _csv_write(out / "coverage.csv", {**meta, "resolution": res}, header, rows)
    return 0


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------
def run_estimate(cfg: dict, out: Path, seed: int) -> int:
    section = _require(cfg, "estimate", "")
    scheme = _require(section, "scheme", "estimate")
    window = _window_from(cfg)
    gspec = _require(_require(cfg, "model", ""), "ground", "model")
    family = _require(gspec, "family", "model.ground")
    compatible = {"mle-temporal": ("poisson-t", "loglinear-t"),
                  "pseudo": ("gibbs",),
                  "mle-janossy": ("poisson",),
                  "least-squares": ("poisson", "immigration-death", "gibbs",
                                    "poisson-t", "loglinear-t", "lgcp")}
    if scheme not in compatible:
        raise ValidationError(f"unknown estimate.scheme '{scheme}'")
    if family not in compatible[scheme]:
        raise ValidationError(
            f"estimate.scheme '{scheme}' is incompatible with ground family "
            f"'{family}' (needs one of {compatible[scheme]})")
    rep = _number(section, "replicate", "estimate", 0, integer=True)
    (c,) = _load_replicates(section, out, only=rep)
    schedule = (SampleSchedule(_numbers(cfg, "schedule", ""))
                if cfg.get("schedule") else None)
    budget = _number(section, "budget", "estimate", 500, integer=True)
    theta0 = partial(_numbers, section, "theta0", "estimate")
    bounds = partial(_numbers, section, "bounds", "estimate", width=2)

    if scheme == "mle-temporal":
        model = infer.ParametricModel(
            family, theta0((1.0,) if family == "poisson-t" else (0.0, 0.0)), window,
            bounds(((1e-9, 1e6),) if family == "poisson-t"
                   else ((-10.0, 10.0), (-10.0, 10.0))))
        fit = infer.fit_loglik_temporal(model, c, None, budget=budget)
    elif scheme == "pseudo":
        gibbs = _gibbs_from(gspec)
        model = infer.ParametricModel(
            "gibbs", theta0((gibbs.beta, gibbs.gamma)), window,
            bounds(((1e-6, 1e6), (1e-6, 1.0))), interaction_range=gibbs.range_,
            temporal_range=gibbs.temporal_range)
        fit = infer.fit_pseudolikelihood(
            model, c, None, budget=budget,
            quad_res=_number(section, "quad_res", "estimate", 48, integer=True))
    elif scheme == "mle-janossy":
        model = infer.ParametricModel("poisson", theta0((1.0,)), window,
                                      bounds(((1e-9, 1e6),)))
        fit = infer.fit_janossy(model, c, budget=budget)
    else:  # least-squares
        mspec = _require(cfg["model"], "marks", "model")
        if mspec.get("model") != "growth-interaction":
            raise ValidationError(
                "estimate.scheme 'least-squares' needs growth-interaction marks")
        if schedule is None:
            raise ValidationError("estimate 'least-squares' needs a schedule")
        # the model simulate built, with the growth parameters fitted
        mark_model = _mark_model(mspec, None)

        def family_fn(theta):
            return replace(mark_model, growth=(mark_model.growth[0], *theta))

        if not window.is_temporal:
            raise ValidationError(
                "estimate 'least-squares' needs window.t_star (birth times)")
        lifetimes = marks._lifetimes(c.auxs)
        if lifetimes is None:
            raise ValidationError(
                "estimate 'least-squares' needs lifetime aux marks "
                "(model.aux.kind = 'lifetime')")
        observed = c.marks.at(schedule.times)
        # integrate on the grid the marks were simulated on
        grid = _mark_grid(cfg, window)
        fit = infer.least_squares_marks(
            family_fn, (c.spatial_locations(), c.ground[:, -1], lifetimes),
            observed, schedule, theta0(), bounds(None),
            dt=float(grid[1] - grid[0]), t_star=window.t_star,
            budget=budget, seed=seed)

    out.mkdir(parents=True, exist_ok=True)
    report = {**fit.to_dict(), "seed": seed, "replicate": rep,
              "config_hash": _config_hash(cfg)}
    (out / "fit.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    print(json.dumps(report))
    if not fit.converged:
        raise NonConvergenceError(f"{scheme} fit did not converge")
    return 0


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------
def run_geometry(cfg: dict, out: Path, seed: int) -> int:
    section = cfg.get("geometry", {})
    times = _numbers(section, "times", "geometry")
    res = _number(section, "resolution", "geometry", 128, integer=True)
    configs = _load_replicates(section, out)
    out.mkdir(parents=True, exist_ok=True)
    meta = {"config_hash": _config_hash(cfg), "resolution": res}
    header, cov_rows, sections = _coverage(configs, times, res)
    sec_rows = [[r, _fmt(t), _fmt(s.centers[k, 0]), _fmt(s.centers[k, 1]),
                 _fmt(s.radii[k])]
                for t, secs in zip(times, sections)
                for r, s in enumerate(secs) for k in range(len(s))]
    _csv_write(out / "sections.csv", meta,
               ["replicate", "t", "x", "y", "radius"], sec_rows)
    _csv_write(out / "coverage.csv", meta, header, cov_rows)
    return 0


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------
def run_check(cfg: dict, out: Path, seed: int) -> int:
    section = _require(cfg, "check", "")
    replicates = _number(section, "replicates", "check", 200, integer=True)
    window = _window_from(cfg)
    gspec = _require(_require(cfg, "model", ""), "ground", "model")
    family = _require(gspec, "family", "model.ground")
    # the checks with an exact right side (an oracle) on each ground family
    oracles = {"poisson": ("campbell", "gnz", "janossy"), "gibbs": ("gnz",)}
    if family not in oracles:
        raise ValidationError("check needs the poisson or gibbs ground family")
    names = section.get("checks", list(oracles[family]))
    for name in names:
        if name not in oracles[family]:
            raise ValidationError(f"check '{name}' has no oracle for the "
                                  f"'{family}' ground family")
    if family == "gibbs":
        gibbs = _gibbs_from(gspec)
        model = infer.ParametricModel(
            "gibbs", (gibbs.beta, gibbs.gamma), window,
            interaction_range=gibbs.range_, temporal_range=gibbs.temporal_range)
    else:
        model = infer.ParametricModel(
            "poisson", (float(_number(gspec, "rate", "model.ground")),), window)
    simulate = partial(_simulate_one, cfg, window)
    lo = np.asarray(window.lo)
    box = _numbers(section, "box", "check", (lo, lo + 0.5 * window.sides),
                   width=window.dim)
    if len(box) != 2:
        raise ValidationError("config field 'check.box' must be [lo, hi]")
    blo, bhi = np.asarray(box, dtype=float)
    results = []

    def report(name, rep):
        results.append({"check": name, "lhs": rep.lhs, "rhs": rep.rhs,
                        "se": rep.se, "passed": rep.passed()})

    def in_box(g):
        # (m,) indicator of the (m, D) ground rows whose space part is in the box
        x = g[:, :window.dim]
        return np.all((x >= blo) & (x <= bhi), axis=1).astype(float)

    if "campbell" in names:
        report("campbell", stats.campbell_check(
            simulate, lambda c: in_box(c.ground),
            lambda g: infer.ground_intensity(model, g) * in_box(g),
            window, replicates, seed,
            quad_res=_number(section, "quad_res", "check", 64, integer=True)))
    if "gnz" in names:
        factor = float(_number(section, "lambda_factor", "check", 1.0))
        report("gnz", stats.gnz_check(
            simulate,
            lambda u, pts, own: factor * infer.papangelou(model, u, pts, own),
            lambda u, pts, own: in_box(u), window, replicates, seed,
            quad_res=_number(section, "quad_res", "check", 32, integer=True)))
    if "janossy" in names:
        mean = infer.ground_intensity_mass(model)
        default_n = max(30, int(np.ceil(mean + 12.0 * np.sqrt(mean) + 12.0)))
        total = infer.janossy_total_mass(
            model, _number(section, "n_max", "check", default_n, integer=True))
        results.append({"check": "janossy", "lhs": total, "rhs": 1.0, "se": 0.0,
                        "passed": abs(total - 1.0) < 1e-6})
    out.mkdir(parents=True, exist_ok=True)
    (out / "checks.json").write_text(json.dumps(results, indent=1),
                                     encoding="utf-8")
    _csv_write(out / "checks.csv", {"config_hash": _config_hash(cfg),
                                    "seed": seed, "replicates": replicates},
               ["check", "lhs", "rhs", "se", "passed"],
               [[r["check"], _fmt(r["lhs"]), _fmt(r["rhs"]), _fmt(r["se"]),
                 r["passed"]] for r in results])
    for r in results:
        print(f"{r['check']}: lhs={r['lhs']:.6g} rhs={r['rhs']:.6g} "
              f"se={r['se']:.3g} passed={r['passed']}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fmpp",
        description="simulate, summarize, fit and check function-marked "
                    "point patterns")
    parser.add_argument("command",
                        choices=["simulate", "summarize", "estimate",
                                 "geometry", "check"])
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--replicates", type=int, default=None,
                        help="override the config replicate count")
    args = parser.parse_args(argv)

    try:
        cfg = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(cfg, dict):
            raise ValidationError("config must be a JSON object")
        seed = (args.seed if args.seed is not None
                else _number(cfg, "seed", "", 0, integer=True))
        replicates = (args.replicates if args.replicates is not None
                      else _number(cfg, "replicates", "", 1, integer=True))
        if replicates < 1:
            raise ValidationError("replicates must be >= 1")
        out = Path(args.out)
        if args.command == "simulate":
            return run_simulate(cfg, out, seed, replicates)
        if args.command == "summarize":
            return run_summarize(cfg, out, seed)
        if args.command == "estimate":
            return run_estimate(cfg, out, seed)
        if args.command == "geometry":
            return run_geometry(cfg, out, seed)
        return run_check(cfg, out, seed)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except NonConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
