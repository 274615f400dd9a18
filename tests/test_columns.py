"""The column contract of the user callables: each is called once per
simulation, configuration, replicate or check, on whole arrays, and no
fmpp module builds or reads a per-point ``MarkedPoint`` or ``AuxMark``."""
import json
from unittest import mock

import numpy as np
import pytest

from fmpp import core, infer
from fmpp.cli import main
from fmpp.core import AuxMark, AuxTable, SampleSchedule, Window, shift
from fmpp.errors import ValidationError
from fmpp.ground import (
    HomogeneousPoisson,
    InhomogeneousPoisson,
    LogGaussianCox,
    observable_retention,
    simulate_lgcp,
    simulate_poisson,
    thin,
)
from fmpp.marks import (
    AuxDensitySpec,
    Deterministic,
    Geostatistical,
    GrowthInteraction,
    Wiener,
    attach_marks,
    aux_density_eval,
    geostat_marking,
    make_configuration,
)
from fmpp.stats import campbell_check, gnz_check, pcf_mark_sampled
from test_cli import (
    BASE,
    LGCP_GEOSTAT,
    LGCP_INTENSITY,
    NPZ_SPATIAL,
    NPZ_TEMPORAL,
    write_cfg,
)

UNIT = Window((0, 0), (1, 1))
GRID = np.linspace(0.0, 1.0, 11)


def wiener_config(seed, rate=120.0, types=2):
    """A Poisson pattern on the unit square with random types and Wiener
    marks on GRID."""
    locs = simulate_poisson(HomogeneousPoisson(rate), UNIT, seed)
    labels = np.random.default_rng(seed).integers(1, types + 1, len(locs))
    auxs = [AuxMark(discrete=int(l)) for l in labels]
    return make_configuration(UNIT, locs, auxs,
                              attach_marks(UNIT, locs, auxs, Wiener(1.0), GRID, seed))


def counted(fn):
    """``fn`` behind a Mock that counts and records its calls."""
    return mock.Mock(side_effect=fn)


class TestOneCallPerUse:
    def test_intensity_once_per_simulation(self):
        lam = counted(lambda g: 200.0 * g[:, 0])
        locs = simulate_poisson(InhomogeneousPoisson(lam, 200.0), UNIT, 4)
        assert lam.call_count == 1
        (cand,), _ = lam.call_args
        assert cand.shape[1] == 2 and len(cand) > len(locs) > 0

    def test_lgcp_mean_once_per_simulation(self):
        mean = counted(lambda g: 3.0 + g[:, 1])
        field, _ = simulate_lgcp(
            LogGaussianCox(mean, ("exponential", 0.0, 0.2), (4, 5)), UNIT, 0)
        assert mean.call_count == 1
        (centres,), _ = mean.call_args
        assert centres.shape == (20, 2)
        np.testing.assert_array_equal(np.log(field.values).ravel(),
                                      3.0 + centres[:, 1])

    def test_deterministic_fn_once_per_attach(self):
        fn = counted(lambda g, auxs, t: g[:, :1] * t)
        locs = np.random.default_rng(1).random((2000, 2))
        auxs = [AuxMark(discrete=1)] * len(locs)
        table = attach_marks(UNIT, locs, auxs, Deterministic(fn),
                             np.linspace(0.0, 1.0, 101), 0)
        assert fn.call_count == 1
        (g, got_auxs, t), _ = fn.call_args
        assert g.shape == (2000, 2) and len(got_auxs) == 2000 and t.shape == (101,)
        np.testing.assert_array_equal(table.values, locs[:, :1] * t)

    def test_deterministic_fn_wrong_shape_rejected(self):
        with pytest.raises(ValidationError):
            attach_marks(UNIT, np.random.default_rng(0).random((3, 2)),
                         [AuxMark(discrete=1)] * 3,
                         Deterministic(lambda g, auxs, t: 2.0 * t), GRID, 0)

    def test_geostatistical_mean_once_per_marking(self):
        mean = counted(lambda x, t: x[:, :1] + t)
        locs = np.random.default_rng(2).random((30, 2))
        table = geostat_marking(locs, Geostatistical(mean, ("exponential", 0.0, 0.3)),
                                GRID, 0, 1.0)
        assert mean.call_count == 1
        np.testing.assert_array_equal(table.values, locs[:, :1] + GRID)

    def test_retention_once_per_thinning(self):
        c = wiener_config(3)
        retention = counted(lambda c: c.ground[:, 0])
        kept = thin(c, retention, 7)
        assert retention.call_count == 1
        rng = np.random.default_rng(7)
        want = rng.random(len(c)) < c.ground[:, 0]
        np.testing.assert_array_equal(kept.ground, c.ground[want])

    def test_classes_and_test_once_per_estimate(self):
        c = wiener_config(5)
        lags = np.array([0.05, 0.1])
        classes = counted(lambda c: [a.discrete for a in c.auxs])
        out = pcf_mark_sampled(c, SampleSchedule((0.5,)), lags, 0.05,
                               classes=classes)
        assert classes.call_count == 1
        assert sorted(out) == [(1, 1), (1, 2), (2, 2)]
        assert all(type(a) is int and type(b) is int for a, b in out)
        test = counted(lambda u: u[:, 0] ** 2)
        pcf_mark_sampled(c, SampleSchedule((0.3, 0.5)), lags, 0.05, test=test)
        assert test.call_count == 1
        (samples,), _ = test.call_args
        assert samples.shape == (len(c), 2)

    def test_campbell_callables_once_per_replicate(self):
        h = counted(lambda c: (c.ground[:, 0] <= 0.5).astype(float))
        rhs = counted(lambda g: np.where(g[:, 0] <= 0.5, 120.0, 0.0))
        rep = campbell_check(wiener_config, h, rhs, UNIT, replicates=7, seed=0)
        assert h.call_count == 7 and rhs.call_count == 1
        assert rep.rhs == pytest.approx(60.0, rel=1e-12)

    def test_gnz_callables_once_per_replicate(self):
        h = counted(lambda u, pts, own: (u[:, 0] <= 0.5).astype(float))
        lam = counted(lambda u, pts, own: np.full(len(u), 120.0))
        gnz_check(wiener_config, lam, h, UNIT, replicates=5, seed=0, quad_res=16)
        assert lam.call_count == 5 and h.call_count == 10
        owns = [call.args[2] for call in h.call_args_list]
        assert all(np.all(own == -1) for own in owns[1::2])
        for call in h.call_args_list[0::2]:
            u, pts, own = call.args
            np.testing.assert_array_equal(u, pts)
            np.testing.assert_array_equal(own, np.arange(len(pts)))

    def test_gnz_leave_one_out_matches_deletion(self):
        # h counts the other pattern points within 0.1 of each query: the
        # left side is twice the close pairs of each replicate
        def h(u, pts, own):
            d = np.sqrt(((u[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
            close = d <= 0.1
            rows = np.flatnonzero(own >= 0)
            close[rows, own[rows]] = False
            return close.sum(axis=1).astype(float)

        rep = gnz_check(wiener_config, lambda u, pts, own: np.full(len(u), 120.0),
                        h, UNIT, replicates=3, seed=11, quad_res=8)
        want = []
        for s in range(11, 14):
            pts = wiener_config(s).ground
            want.append(sum(np.sum(np.sqrt(((np.delete(pts, i, axis=0) - pts[i]) ** 2)
                                           .sum(-1)) <= 0.1)
                            for i in range(len(pts))))
        assert rep.lhs == pytest.approx(np.mean(want), rel=1e-12)


LOGLINEAR_T = {
    "window": {"lo": [0], "hi": [1], "t_star": 3.0}, "seed": 4, "replicates": 1,
    "model": {"ground": {"family": "loglinear-t", "a": 2.0, "b": 0.4},
              "marks": {"model": "none"}, "mark_grid": {"dt": 0.5}},
    "estimate": {"scheme": "mle-temporal", "budget": 400},
}
TEMPORAL_CHECK = {
    "window": {"lo": [0, 0], "hi": [1, 1], "t_star": 2.0},
    "model": {"ground": {"family": "poisson", "rate": 30.0}},
    "check": {"checks": ["campbell", "gnz", "janossy"], "replicates": 5,
              "quad_res": 8},
}


@pytest.fixture
def no_point_views():
    """Building a ``MarkedPoint`` or reading ``Configuration.points`` fails."""
    def refuse(*args, **kwargs):
        raise AssertionError("a per-point view was built")

    with mock.patch.object(core.Configuration, "points", property(refuse)), \
            mock.patch.object(core.MarkedPoint, "__init__", refuse):
        yield


class TestNoPerPointViews:
    @pytest.mark.parametrize("cfg_obj, stages", [
        (dict(BASE, check={"checks": ["campbell", "gnz", "janossy"],
                           "replicates": 5, "quad_res": 8},
              estimate={"scheme": "mle-janossy", "theta0": [10.0]}),
         ("simulate", "check", "estimate")),
        (LGCP_GEOSTAT, ("simulate", "summarize")),
        (LGCP_INTENSITY, ("simulate",)),
        (NPZ_SPATIAL, ("simulate", "summarize", "estimate")),
        (NPZ_TEMPORAL, ("simulate", "summarize", "estimate", "geometry")),
        (LOGLINEAR_T, ("simulate", "estimate")),
        (TEMPORAL_CHECK, ("check",)),
    ], ids=["base", "lgcp-geostat", "lgcp-intensity", "npz-spatial",
            "npz-temporal", "loglinear-t", "temporal-check"])
    def test_cli_stages(self, tmp_path, no_point_views, cfg_obj, stages):
        cfg = write_cfg(tmp_path, cfg_obj)
        out = tmp_path / "out"
        for stage in stages:
            assert main([stage, "--config", cfg, "--out", str(out)]) == 0, stage
        if "check" in stages:
            results = json.loads((out / "checks.json").read_text())
            assert [r["check"] for r in results] == ["campbell", "gnz", "janossy"]

    def test_library_callables(self, no_point_views):
        c = wiener_config(8)
        thin(c, observable_retention(SampleSchedule((0.5,))), 0)
        thin(c, lambda c: np.full(len(c), 0.5), 1)
        lags = np.array([0.05, 0.1])
        pcf_mark_sampled(c, SampleSchedule((0.5,)), lags, 0.05,
                         classes=lambda c: [a.discrete for a in c.auxs])
        pcf_mark_sampled(c, SampleSchedule((0.5,)), lags, 0.05,
                         test=lambda u: u[:, 0] ** 2)
        campbell_check(wiener_config, lambda c: np.ones(len(c)),
                       lambda g: np.full(len(g), 120.0), UNIT, replicates=2)
        gnz_check(wiener_config, lambda u, pts, own: np.full(len(u), 120.0),
                  lambda u, pts, own: np.ones(len(u)), UNIT, replicates=2,
                  quad_res=8)


@pytest.fixture
def no_aux_objects():
    """Building an ``AuxMark``, an ``AuxTable`` row view included, fails."""
    def refuse(self):
        raise AssertionError("a per-point aux mark was built")

    with mock.patch.object(core.AuxMark, "__post_init__", refuse):
        yield


class TestNoPerPointAuxMarks:
    """Every stage reads and writes the aux columns: no fmpp module builds
    an ``AuxMark``, with the .cols cache or from the JSON alone."""

    @pytest.mark.parametrize("cache", [True, False], ids=["npz", "json"])
    @pytest.mark.parametrize("cfg_obj, stages", [
        (NPZ_TEMPORAL, ("summarize", "estimate", "geometry")),
        (dict(NPZ_SPATIAL, geometry={"times": [0.5], "resolution": 32}),
         ("summarize", "estimate", "geometry")),
    ], ids=["lifetime-temporal", "types-spatial"])
    def test_cli_stages(self, tmp_path, no_aux_objects, cfg_obj, stages, cache):
        cfg = write_cfg(tmp_path, cfg_obj)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        if not cache:
            for f in out.glob("*.cols"):
                f.unlink()
        for stage in stages:
            assert main([stage, "--config", cfg, "--out", str(out)]) == 0, stage

    def test_library(self, no_aux_objects):
        w = Window((0, 0), (1, 1), t_star=1.0)
        rng = np.random.default_rng(3)
        ground = np.column_stack([rng.random((30, 2)), rng.random(30) * 0.8])
        auxs = AuxTable(rng.integers(1, 3, 30), rng.exponential(0.5, (30, 1)))
        marks = attach_marks(w, ground, auxs,
                             GrowthInteraction(("linear", 2.0, 0.08)), GRID, 0)
        c = make_configuration(w, ground, auxs, marks)
        typed = make_configuration(
            UNIT, ground[:, :2], auxs,
            attach_marks(UNIT, ground[:, :2], auxs,
                         Geostatistical(0.0, per_class=True), GRID, 1))
        thin(typed, lambda c: np.full(len(c), 0.5), 2)
        shift(c, (0.0, 0.0, 0.05))
        spec = AuxDensitySpec(discrete_probs=[0.4, 0.6],
                              continuous_density=lambda g, v: 2.0 * np.exp(-2.0 * v[:, 0]))
        assert aux_density_eval(spec, ground, auxs) > 0
        model = infer.ParametricModel("poisson-t", (30.0,), w, aux=spec)
        assert np.isfinite(infer.loglik_temporal(model, c))
