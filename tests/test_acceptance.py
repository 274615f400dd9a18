"""Acceptance suite: one test per release criterion, at fixed tolerances.

Each test prints a single PASS/FAIL line with its runtime; run with
``pytest tests/test_acceptance.py -v -s`` to see the tally.
"""
import math
import time

import numpy as np
import pytest
from scipy import stats as sps

from fmpp.core import AuxMark, CadlagPath, MarkedPoint, SampleSchedule, Window, skorohod_distance
from fmpp.geometry import coverage_fraction, expected_coverage, section
from fmpp.ground import (
    HomogeneousPoisson,
    ImmigrationDeath,
    InhomogeneousPoisson,
    PairwiseGibbs,
    observable_retention,
    simulate_gibbs,
    simulate_immigration_death,
    simulate_poisson,
    thin,
)
from fmpp.infer import (
    Observation,
    ParametricModel,
    fit_loglik_temporal,
    fit_pseudolikelihood,
    janossy_total_mass,
    least_squares_marks,
    optimize,
    pseudolikelihood,
)
from fmpp.marks import (
    Deterministic,
    GrowthInteraction,
    attach_marks,
    brownian_fidi,
    gi_integrate,
    make_configuration,
)
from fmpp.stats import (
    VariogramModel,
    campbell_check,
    gnz_check,
    kriging_predict,
    kriging_weights,
    pcf_ground,
    trace_variogram,
)

UNIT = Window((0, 0), (1, 1))


class _Criterion:
    def __init__(self, number, label, budget_s):
        self.number = number
        self.label = label
        self.budget_s = budget_s
        self.t0 = None

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"\nACCEPTANCE {self.number:2d} [{self.label}]: {status} "
              f"({dt:.2f}s / budget {self.budget_s:.0f}s)")
        if exc_type is None and dt > self.budget_s:
            raise AssertionError(
                f"criterion {self.number} exceeded its runtime budget: "
                f"{dt:.2f}s > {self.budget_s}s")
        return False


def poisson_config(seed, rate, window=UNIT):
    locs = simulate_poisson(HomogeneousPoisson(rate), window, seed)
    auxs = [AuxMark(discrete=1)] * len(locs)
    grid = np.linspace(0, 1, 3)
    paths = attach_marks(window, locs, auxs, Deterministic(("constant", 1.0)),
                         grid, seed)
    return make_configuration(window, locs, auxs, paths)


def test_criterion_01_poisson_calibration():
    with _Criterion(1, "poisson calibration", 5):
        counts = np.array([
            len(simulate_poisson(HomogeneousPoisson(100.0), UNIT, s))
            for s in range(1000)])
        assert abs(np.mean(counts) - 100.0) < 3 * math.sqrt(0.1)
        # chi-square goodness of fit against Poisson(100), cells pooled to
        # expected count >= 5
        ks = np.arange(60, 141)
        probs = sps.poisson(100.0).pmf(ks)
        probs = np.concatenate([[sps.poisson(100.0).cdf(59)], probs,
                                [1 - sps.poisson(100.0).cdf(140)]])
        obs = np.concatenate([[np.sum(counts < 60)],
                              [np.sum(counts == k) for k in ks],
                              [np.sum(counts > 140)]])
        exp = 1000 * probs
        o_pool, e_pool, acc_o, acc_e = [], [], 0.0, 0.0
        for o, e in zip(obs, exp):
            acc_o, acc_e = acc_o + o, acc_e + e
            if acc_e >= 5:
                o_pool.append(acc_o)
                e_pool.append(acc_e)
                acc_o = acc_e = 0.0
        o_pool[-1] += acc_o
        e_pool[-1] += acc_e
        stat = float(np.sum((np.asarray(o_pool) - np.asarray(e_pool)) ** 2
                            / np.asarray(e_pool)))
        pval = float(1 - sps.chi2(len(o_pool) - 1).cdf(stat))
        assert pval > 0.01


def test_criterion_02_poisson_pair_correlation():
    with _Criterion(2, "poisson pair correlation = 1", 30):
        lags = np.linspace(0.05, 0.2, 7)
        vals = [pcf_ground(poisson_config(s, 200.0), lags).values
                for s in range(100)]
        pooled = np.mean(vals, axis=0)
        assert np.all(np.abs(pooled - 1.0) < 0.05)


def test_criterion_03_growth_ode_oracle():
    with _Criterion(3, "growth ODE closed form", 1):
        a, b = 2.0, 1.3
        paths = gi_integrate(
            (np.array([[0.5, 0.5]]), np.array([0.0]), np.array([10.0])),
            GrowthInteraction(("linear", a, b)), 1e-3, 0, 1.0)
        p = paths[0]
        inside = p.grid < p.support[1]
        exact = b * (1 - np.exp(-a * p.grid[inside]))
        assert np.max(np.abs(p.values[inside] - exact)) < 1e-6


def test_criterion_04_least_squares_recovery():
    with _Criterion(4, "least-squares mark recovery", 60):
        a_true, b_true = 1.5, 0.8
        sched = SampleSchedule((0.25, 0.5, 0.75, 1.0))
        family = lambda th: GrowthInteraction(("linear", th[0], th[1]))
        bounds = [(0.01, 10.0), (0.01, 10.0)]

        def experiment(seed, noise):
            rng = np.random.default_rng(seed)
            n = 8
            pts = (rng.random((n, 2)), np.zeros(n), np.full(n, 10.0))
            gen = GrowthInteraction(("linear", a_true, b_true), noise=noise)
            paths = gi_integrate(pts, gen, 0.01, seed, 1.0)
            observed = np.array([[p(s) for s in sched.times] for p in paths])
            return least_squares_marks(family, pts, observed, sched,
                                       [0.5, 0.5], bounds, dt=0.01,
                                       t_star=1.0, budget=800)

        noiseless = experiment(0, ("zero",))
        assert abs(noiseless.theta[0] - a_true) / a_true < 1e-4
        assert abs(noiseless.theta[1] - b_true) / b_true < 1e-4
        thetas = np.array([experiment(s, ("const", 0.01)).theta
                           for s in range(1, 21)])
        bias = np.abs(thetas.mean(axis=0) - [a_true, b_true])
        assert bias[0] / a_true < 0.05 and bias[1] / b_true < 0.05


def test_criterion_05_temporal_mle():
    with _Criterion(5, "temporal MLE closed form + loglinear", 60):
        # homogeneous fixtures: the optimizer lands on n / |W_T|
        for seed, t_star, rate in ((0, 2.0, 6.0), (1, 4.0, 3.0), (2, 1.0, 20.0)):
            w = Window((0,), (1,), t_star=t_star)
            locs = simulate_poisson(HomogeneousPoisson(rate), w, seed)
            data = [Observation((x[0],), x[1]) for x in locs]
            if not data:
                continue
            m = ParametricModel("poisson-t", (1.0,), w, bounds=((1e-9, 1e5),))
            fit = fit_loglik_temporal(m, data, budget=700)
            assert fit.converged
            assert abs(fit.theta[0] - len(data) / t_star) <= 1e-6 * len(data) / t_star
        # log-linear truth recovered across replicates
        a_true, b_true, t_star = 2.0, 0.5, 5.0
        w = Window((0,), (1,), t_star=t_star)
        lam_max = math.exp(a_true + b_true * t_star)
        b_hats = []
        for seed in range(50):
            model = InhomogeneousPoisson(
                lambda g: np.exp(a_true + b_true * g[:, -1]), lam_max)
            locs = simulate_poisson(model, w, seed)
            data = [Observation((x[0],), x[1]) for x in locs]
            m = ParametricModel("loglinear-t", (1.0, 0.1), w,
                                bounds=((-8.0, 8.0), (-8.0, 8.0)))
            b_hats.append(fit_loglik_temporal(m, data, budget=700).theta[1])
        b_hats = np.asarray(b_hats)
        se = b_hats.std(ddof=1) / math.sqrt(len(b_hats))
        assert abs(b_hats.mean() - b_true) < 3 * se


def test_criterion_06_janossy_normalization():
    with _Criterion(6, "janossy normalization", 10):
        for lam in (0.5, 1.0, 2.0):
            m = ParametricModel("poisson", (lam,), UNIT)
            assert abs(janossy_total_mass(m, n_max=30) - 1.0) < 1e-6
        # with the sampled-mark factor integrated by quadrature
        m = ParametricModel("poisson", (1.5,), UNIT, fidi=brownian_fidi(1.0))
        total = janossy_total_mass(m, n_max=30,
                                   mark_grid=np.linspace(-8, 8, 801),
                                   schedule=SampleSchedule((1.0,)))
        assert abs(total - 1.0) < 1e-6


def test_criterion_07_thinning_identity():
    with _Criterion(7, "thinning and observable process", 10):
        counts = []
        for s in range(1000):
            c = poisson_config(s, 100.0)
            counts.append(len(thin(c, lambda c: np.full(len(c), 0.5),
                                   50_000 + s)))
        se = math.sqrt(50.0 / 1000)
        assert abs(np.mean(counts) - 50.0) < 3 * se
        # exact set equality for the observable process on a fixture
        supports = [(0.1, 0.3), (0.3, 0.5), (0.5, 0.9), (0.85, 0.86)]
        grid = np.linspace(0, 1, 101)
        pts = []
        for i, (a, b) in enumerate(supports):
            vals = np.where((grid >= a) & (grid < b), 1.0, 0.0)
            path = CadlagPath(grid, vals, (a, b), "step", 1.0)
            pts.append(MarkedPoint((0.1 + 0.2 * i, 0.5), None,
                                   AuxMark(discrete=1), path))
        c = make_configuration(UNIT, [p.x for p in pts],
                               [p.aux for p in pts], [p.mark for p in pts])
        sched = SampleSchedule((0.3, 0.85))
        kept = thin(c, observable_retention(sched), 0)
        kept_supports = sorted(p.mark.support for p in kept.points)
        assert kept_supports == [(0.3, 0.5), (0.5, 0.9), (0.85, 0.86)]


def test_criterion_08_boolean_coverage(trapezoid):
    with _Criterion(8, "boolean coverage", 20):
        # single-disk pixel fixture
        r, res = 0.25, 256
        c = poisson_config(0, 0.0)
        grid = np.linspace(0, 1, 3)
        center, auxs = np.array([[0.5, 0.5]]), [AuxMark(discrete=1)]
        path = attach_marks(UNIT, center, auxs, Deterministic(("constant", r)),
                            grid, 0)
        c1 = make_configuration(UNIT, center, auxs, path)
        frac = coverage_fraction(section(c1, 0.5), UNIT, res)
        assert abs(frac - math.pi * r * r) < 2.0 / res
        # sparse growth system on a torus vs the expected-coverage formula
        torus = Window((0, 0), (1, 1), t_star=2.0, torus=True)
        alpha, mu, t_eval = 3.0, 1.0, 1.5
        a_g, b_g = 1.5, 0.05
        gi = GrowthInteraction(("linear", a_g, b_g), m0=0.0)
        fractions = []
        for seed in range(400):
            xs, births, lifetimes = simulate_immigration_death(
                ImmigrationDeath(alpha, mu), torus, seed)
            paths = gi_integrate((xs, births, lifetimes), gi, 0.005, seed, 2.0)
            locs = np.hstack([xs, births[:, None]])
            c = make_configuration(torus, locs,
                                   [AuxMark(continuous=(float(l),))
                                    for l in lifetimes], paths)
            fractions.append(coverage_fraction(section(c, t_eval), torus, 128))
        # independent oracle for E[M(t)^2]: age density alpha e^(-mu a) / nu
        nu = alpha * (1 - math.exp(-mu * t_eval)) / mu
        ages = np.linspace(0, t_eval, 4001)
        radius = b_g * (1 - np.exp(-a_g * ages))
        dens = alpha * np.exp(-mu * ages)
        m2 = float(trapezoid(radius ** 2 * dens, ages)) / nu
        target = expected_coverage(("poisson", nu, 80), m2, torus)
        se = np.std(fractions, ddof=1) / math.sqrt(len(fractions))
        assert abs(np.mean(fractions) - target) < 3 * se


def test_criterion_09_skorohod_metric():
    with _Criterion(9, "skorohod metric", 5):
        f = CadlagPath([0.0, 0.3, 0.7], [1.0, -0.5, 2.0], (0.0, np.inf),
                       "step", 1.0)
        assert skorohod_distance(f, f, 16) == 0.0
        z = CadlagPath([0.0], [0.0], (0.0, np.inf), "step", 1.0)
        c = CadlagPath([0.0], [0.1], (0.0, np.inf), "step", 1.0)
        target = 0.1 * (1 - math.exp(-1.0))
        assert abs(skorohod_distance(z, c, 16) - target) < 1e-9
        eps = 0.01
        sf = CadlagPath([0.0, 0.5], [0.0, 1.0], (0.0, np.inf), "step", 1.0)
        sg = CadlagPath([0.0, 0.5 + eps], [0.0, 1.0], (0.0, np.inf), "step", 1.0)
        d = skorohod_distance(sf, sg, 16)
        identity_cost = math.exp(-0.5) - math.exp(-1.0)
        assert d <= identity_cost + 1e-12
        from test_core import oracle_skorohod
        oracle = oracle_skorohod(sf, sg, 1.0, 4)
        assert abs(d - oracle) <= 0.10 * oracle


def test_criterion_10_pseudolikelihood_self_consistency():
    with _Criterion(10, "pseudo-likelihood self-consistency", 120):
        beta, gamma, rng_ = 50.0, 0.5, 0.05
        thetas = []
        for seed in range(20):
            pts = simulate_gibbs(PairwiseGibbs(beta, gamma, rng_), UNIT,
                                 25000, seed)
            data = [Observation(tuple(x)) for x in pts]
            m = ParametricModel("gibbs", (30.0, 0.8), UNIT,
                                bounds=((1e-3, 1e4), (1e-3, 1.0)),
                                interaction_range=rng_)
            fit = fit_pseudolikelihood(m, data, budget=400, quad_res=32)
            thetas.append(fit.theta)
        thetas = np.asarray(thetas)
        mean = thetas.mean(axis=0)
        assert abs(mean[0] - beta) / beta < 0.25
        assert abs(mean[1] - gamma) / gamma < 0.25
        # poisson reduction: gamma pinned at 1 gives the closed-form rate
        locs = simulate_poisson(HomogeneousPoisson(70.0), UNIT, 99)
        data = [Observation(tuple(x)) for x in locs]

        def objective(th):
            mm = ParametricModel("gibbs", (th[0], 1.0), UNIT,
                                 interaction_range=rng_)
            return -pseudolikelihood(mm, data, quad_res=16)

        fit = optimize(objective, [30.0], [(1e-3, 1e4)], budget=500)
        assert fit.converged
        assert abs(fit.theta[0] - len(data)) / len(data) < 1e-6


def test_criterion_11_identity_checks():
    with _Criterion(11, "campbell and conditional-intensity checks", 30):
        simulate = lambda s: poisson_config(s, 100.0)
        in_box = lambda g: ((g[:, 0] <= 0.5) & (g[:, 1] <= 0.5)).astype(float)
        rep = campbell_check(simulate, lambda c: in_box(c.ground),
                             lambda g: 100.0 * in_box(g),
                             UNIT, replicates=300, seed=0)
        assert rep.passed()
        h = lambda u, pts, own: (u[:, 0] <= 0.5).astype(float)
        good = gnz_check(simulate, lambda u, pts, own: np.full(len(u), 100.0),
                         h, UNIT, replicates=300, seed=1)
        assert good.passed()
        bad = gnz_check(simulate, lambda u, pts, own: np.full(len(u), 200.0),
                        h, UNIT, replicates=300, seed=1)
        assert not bad.passed()


def test_criterion_12_trace_variogram_kriging():
    with _Criterion(12, "trace-variogram and kriging", 10):
        sigma, t_len, k = 1.0, 2.0, 11
        grid = np.linspace(0, t_len, k)
        per_bin = []
        for seed in range(60):
            rng = np.random.default_rng(seed)
            locs, vals = [], []
            for _ in range(25):
                locs.append(rng.random(2))
                vals.append(sigma * rng.standard_normal(k))
            marks = CadlagPath.rows(grid, np.array(vals), None, "step", t_len)
            per_bin.append(trace_variogram(np.array(locs), marks, bins=3).values)
        per_bin = np.asarray(per_bin)
        target = sigma * sigma * t_len
        means = per_bin.mean(axis=0)
        ses = per_bin.std(axis=0, ddof=1) / math.sqrt(len(per_bin))
        assert np.all(np.abs(means - target) < 3 * ses)
        # kriging exactness at an observed site and unit weight sum
        rng = np.random.default_rng(123)
        locs = np.asarray([[0.1, 0.1], [0.9, 0.4], [0.5, 0.8]])
        marks = CadlagPath.rows(grid, rng.standard_normal((3, k)), None,
                                "step", t_len)
        model = VariogramModel("exponential", 0.0, 1.0, 0.4)
        pred = kriging_predict(locs, marks, np.asarray([0.9, 0.4]), model)
        np.testing.assert_array_equal(pred.values, marks.values[1])
        wts = kriging_weights(locs, np.asarray([0.3, 0.3]), model)
        assert abs(wts.sum() - 1.0) < 1e-10
