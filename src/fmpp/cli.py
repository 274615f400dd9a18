"""Command-line entry point.

Subcommands: simulate, summarize, estimate, geometry, check.  A single JSON
config document drives every subcommand; registry names (ground families,
growth functions, kernels, variogram families) are strings resolved at load
time.  Outputs are CSV (comma separator, '.' decimal, '#' metadata lines
above the header) and JSON; replicate r uses seed + r, so reruns with the
same config and seed are byte-identical apart from the manifest timestamp.
``simulate`` also writes each replicate's ``.npz`` cache, which the later
stages read in place of its JSON while the two match.

Exit codes: 0 success/converged, 1 validation error, 2 runtime or numerical
error, 3 non-convergence.
"""
from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import re
import sys
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


def _window_from(cfg: dict) -> Window:
    w = _require(cfg, "window", "")
    return Window(tuple(_require(w, "lo", "window")),
                  tuple(_require(w, "hi", "window")),
                  w.get("t_star"), w.get("torus", False),
                  w.get("time_scale", 1.0))


def _config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _mark_grid(cfg: dict, window: Window) -> np.ndarray:
    dt = cfg.get("model", {}).get("mark_grid", {}).get("dt", 0.01)
    horizon = window.t_star if window.is_temporal else 1.0
    n = int(round(horizon / dt))
    if n < 1 or abs(n * dt - horizon) > 1e-9 * max(horizon, 1.0):
        raise ValidationError("model.mark_grid.dt must divide the horizon")
    return np.arange(n + 1) * dt


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
            ground.HomogeneousPoisson(_require(gspec, "rate", "model.ground")),
            window, seed)
    elif family == "lgcp":
        field, locs = ground.simulate_lgcp(
            ground.LogGaussianCox(
                _require(gspec, "mean", "model.ground"),
                tuple(_require(gspec, "kernel", "model.ground")),
                tuple(_require(gspec, "grid", "model.ground"))),
            window, seed)
    elif family == "immigration-death":
        xs, births, lifetimes = ground.simulate_immigration_death(
            ground.ImmigrationDeath(
                _require(gspec, "arrival_rate", "model.ground"),
                _require(gspec, "death_rate", "model.ground")),
            window, seed)
        locs = np.hstack([xs, births[:, None]])
    elif family == "gibbs":
        locs = ground.simulate_gibbs(
            ground.PairwiseGibbs(
                _require(gspec, "beta", "model.ground"),
                _require(gspec, "gamma", "model.ground"),
                _require(gspec, "range", "model.ground"),
                gspec.get("temporal_range")),
            window, int(gspec.get("steps", 20000)), seed)
    elif family in ("poisson-t", "loglinear-t"):
        if not window.is_temporal:
            raise ValidationError("model.ground.family needs window.t_star")
        if family == "poisson-t":
            rate = float(_require(gspec, "rate", "model.ground"))
            tmodel = ground.HomogeneousPoisson(rate / window.volume)
        else:
            a = float(_require(gspec, "a", "model.ground"))
            b = float(_require(gspec, "b", "model.ground"))
            lam_max = max(np.exp(a), np.exp(a + b * window.t_star)) / window.volume
            tmodel = ground.InhomogeneousPoisson(
                lambda g: np.exp(a + b * g[:, -1]) / window.volume, lam_max)
        locs = ground.simulate_poisson(tmodel, window, seed)
    else:
        raise ValidationError(f"unknown ground family '{family}' in model.ground")

    n = len(locs)
    kind = aux_spec.get("kind", "none")
    if kind == "types":
        probs = np.asarray(_require(aux_spec, "probs", "model.aux"), dtype=float)
        draws = rng.choice(len(probs), size=n, p=probs / probs.sum()) + 1
        auxs = AuxTable(draws, np.empty((n, 0)))
        reference = ReferenceSpec(AuxMeasure("counting", (len(probs),)))
    elif kind == "lifetime":
        if lifetimes is None:
            rate = float(_require(aux_spec, "rate", "model.aux"))
            lifetimes = rng.exponential(1.0 / rate, size=n)
        auxs = AuxTable(np.zeros(n, dtype=np.int64), lifetimes[:, None])
        reference = ReferenceSpec(AuxMeasure("expon", (1.0,)))
    elif kind == "none":
        auxs = AuxTable(np.ones(n, dtype=np.int64), np.empty((n, 0)))
        reference = ReferenceSpec(AuxMeasure("counting", (1,)))
    else:
        raise ValidationError(f"unknown aux kind '{kind}' in model.aux")

    mname = mark_spec.get("model", "none")
    if mname == "none":
        mark_model = marks.Deterministic(("constant", 1.0))
    elif mname == "constant":
        mark_model = marks.Deterministic(
            ("constant", float(_require(mark_spec, "value", "model.marks"))))
    elif mname == "wiener":
        mark_model = marks.Wiener(float(mark_spec.get("scale", 1.0)))
    elif mname == "growth-interaction":
        mark_model = marks.GrowthInteraction(
            tuple(_require(mark_spec, "growth", "model.marks")),
            tuple(mark_spec.get("interaction", ("none",))),
            tuple(mark_spec.get("noise", ("zero",))),
            float(mark_spec.get("m0", 0.0)),
            mark_spec.get("negative_policy", "clamp"),
            mark_spec.get("interaction_cutoff"))
    elif mname == "geostatistical":
        mark_model = marks.Geostatistical(
            mark_spec.get("mean", 0.0),
            tuple(_require(mark_spec, "kernel", "model.marks")))
    elif mname == "intensity":
        if field is None:
            raise ValidationError("model.marks 'intensity' needs an lgcp ground")
        mark_model = marks.IntensityDependent(field)
    else:
        raise ValidationError(f"unknown mark model '{mname}' in model.marks")
    paths = marks.attach_marks(window, locs, auxs, mark_model, grid, mark_seed)
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
        # the manifest lists the exports, not the .npz cache of the JSON
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
    from its ``.npz`` cache while that matches its JSON; with ``only``, just
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
        cells = section["intensity"].get("cells", 8)
        surfaces = [stats.intensity_estimate(c, cells) for c in configs]
        header = ["cell"] + [f"lambda_r{r:03d}" for r in range(len(configs))] + ["pooled"]
        vals = np.stack([s.values.ravel() for s in surfaces])
        rows = [[i, *[_fmt(v) for v in vals[:, i]], _fmt(vals[:, i].mean())]
                for i in range(vals.shape[1])]
        _csv_write(out / "intensity.csv", {**meta, "cells": cells}, header, rows)

    if "pcf" in section:
        psec = section["pcf"]
        lags = np.asarray(_require(psec, "lags", "summarize.pcf"), dtype=float)
        bw = psec.get("bandwidth")
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
        bins = section["variogram"].get("bins", 15)
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
        times = _require(csec, "times", "summarize.coverage")
        res = int(csec.get("resolution", 128))
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
    rep = int(section.get("replicate", 0))
    (c,) = _load_replicates(section, out, only=rep)
    schedule = (SampleSchedule(tuple(cfg["schedule"]))
                if cfg.get("schedule") else None)
    budget = int(section.get("budget", 500))

    if scheme == "mle-temporal":
        theta0 = section.get("theta0", [1.0] if family == "poisson-t" else [0.0, 0.0])
        bounds = section.get("bounds",
                             [[1e-9, 1e6]] if family == "poisson-t"
                             else [[-10.0, 10.0], [-10.0, 10.0]])
        model = infer.ParametricModel(family, theta0, window,
                                      tuple(tuple(b) for b in bounds))
        fit = infer.fit_loglik_temporal(model, c, None, budget=budget)
    elif scheme == "pseudo":
        theta0 = section.get("theta0", [_require(gspec, "beta", "model.ground"),
                                        _require(gspec, "gamma", "model.ground")])
        bounds = section.get("bounds", [[1e-6, 1e6], [1e-6, 1.0]])
        model = infer.ParametricModel(
            "gibbs", theta0, window, tuple(tuple(b) for b in bounds),
            interaction_range=_require(gspec, "range", "model.ground"),
            temporal_range=gspec.get("temporal_range"))
        fit = infer.fit_pseudolikelihood(model, c, None, budget=budget,
                                         quad_res=int(section.get("quad_res", 48)))
    elif scheme == "mle-janossy":
        model = infer.ParametricModel(
            "poisson", section.get("theta0", [1.0]), window,
            tuple(tuple(b) for b in section.get("bounds", [[1e-9, 1e6]])))
        fit = infer.fit_janossy(model, c, budget=budget)
    else:  # least-squares
        mspec = _require(cfg["model"], "marks", "model")
        if mspec.get("model") != "growth-interaction":
            raise ValidationError(
                "estimate.scheme 'least-squares' needs growth-interaction marks")
        if schedule is None:
            raise ValidationError("estimate 'least-squares' needs a schedule")
        growth_name = _require(mspec, "growth", "model.marks")[0]
        interaction = tuple(mspec.get("interaction", ("none",)))
        m0 = float(mspec.get("m0", 0.0))
        cutoff = mspec.get("interaction_cutoff")

        def family_fn(theta):
            return marks.GrowthInteraction((growth_name, *theta), interaction,
                                           ("zero",), m0,
                                           interaction_cutoff=cutoff)

        if not window.is_temporal:
            raise ValidationError(
                "estimate 'least-squares' needs window.t_star (birth times)")
        lifetimes = marks._lifetimes(c.auxs)
        if lifetimes is None:
            raise ValidationError(
                "estimate 'least-squares' needs lifetime aux marks "
                "(model.aux.kind = 'lifetime')")
        observed = c.marks.at(schedule.times)
        theta0 = _require(section, "theta0", "estimate")
        bounds = section.get("bounds")
        # integrate on the grid the marks were simulated on
        grid = _mark_grid(cfg, window)
        fit = infer.least_squares_marks(
            family_fn, (c.spatial_locations(), c.ground[:, -1], lifetimes),
            observed, schedule, theta0,
            [tuple(b) for b in bounds] if bounds else None,
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
    times = _require(section, "times", "geometry")
    res = int(section.get("resolution", 128))
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
    names = section.get("checks", ["campbell", "gnz", "janossy"])
    replicates = int(section.get("replicates", 200))
    window = _window_from(cfg)
    gspec = _require(_require(cfg, "model", ""), "ground", "model")
    if _require(gspec, "family", "model.ground") != "poisson":
        raise ValidationError("check needs the homogeneous poisson ground family")
    rate = float(_require(gspec, "rate", "model.ground"))
    model = infer.ParametricModel("poisson", (rate,), window)
    lo = np.asarray(window.lo)
    blo, bhi = np.asarray(section.get("box") or [lo, lo + 0.5 * window.sides],
                          dtype=float)
    results = []

    def report(name, rep):
        results.append({"check": name, "lhs": rep.lhs, "rhs": rep.rhs,
                        "se": rep.combined_se, "passed": rep.passed()})

    def in_box(g):
        # (m,) indicator of the (m, D) ground rows whose space part is in the box
        x = g[:, :window.dim]
        return np.all((x >= blo) & (x <= bhi), axis=1).astype(float)

    def simulate(s):
        locs = ground.simulate_poisson(ground.HomogeneousPoisson(rate), window, s)
        auxs = AuxTable(np.ones(len(locs), dtype=np.int64),
                        np.empty((len(locs), 0)))
        return marks.make_configuration(
            window, locs, auxs,
            marks.attach_marks(window, locs, auxs,
                               marks.Deterministic(("constant", 1.0)),
                               np.linspace(0.0, window.t_star or 1.0, 3), s))

    if "campbell" in names:
        report("campbell", stats.campbell_check(
            simulate, lambda c: in_box(c.ground), lambda g: rate * in_box(g),
            window, replicates, seed, quad_res=int(section.get("quad_res", 64))))
    if "gnz" in names:
        lam = model.with_theta([rate * float(section.get("lambda_factor", 1.0))])
        report("gnz", stats.gnz_check(
            simulate, partial(infer.papangelou, lam), lambda u, pts, own: in_box(u),
            window, replicates, seed, quad_res=int(section.get("quad_res", 32))))
    if "janossy" in names:
        mean = rate * window.ground_volume
        default_n = max(30, int(np.ceil(mean + 12.0 * np.sqrt(mean) + 12.0)))
        total = infer.janossy_total_mass(model, int(section.get("n_max", default_n)))
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
        seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
        replicates = (args.replicates if args.replicates is not None
                      else int(cfg.get("replicates", 1)))
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
