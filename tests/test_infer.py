import functools
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fmpp
from fmpp._optim import gauss_newton, nelder_mead
from fmpp._kernels import neighbour_counts
from fmpp.core import AuxMark, Configuration, SampleSchedule, Window, cylinder_contains
from fmpp.errors import NumericalError, ValidationError
from fmpp.ground import (HomogeneousPoisson, InhomogeneousPoisson, PairwiseGibbs,
                         simulate_gibbs, simulate_poisson)
from fmpp.infer import (
    FitResult,
    Observation,
    ParametricModel,
    conditional_intensity,
    density_wrt_poisson,
    fit_janossy,
    fit_loglik_temporal,
    fit_pseudolikelihood,
    ground_intensity_mass,
    intensity_functional,
    janossy_density,
    janossy_total_mass,
    least_squares_marks,
    loglik_temporal,
    optimize,
    papangelou,
    pseudolikelihood,
)
from fmpp.marks import (
    AuxDensitySpec,
    Deterministic,
    FidiDensitySpec,
    GrowthInteraction,
    Wiener,
    attach_marks,
    brownian_fidi,
    deterministic_fidi,
    gi_integrate,
    make_configuration,
)
from fmpp.stats import gnz_check

W = Window((0, 0), (1, 1))
WT = Window((0,), (1,), t_star=2.0)
PHI0 = 1.0 / math.sqrt(2 * math.pi)


class TestIntensityFunctional:
    def test_poisson_two_type_brownian(self):
        m = ParametricModel("poisson", (10.0,), W,
                            aux=AuxDensitySpec(discrete_probs=np.array([0.5, 0.5])),
                            fidi=brownian_fidi(1.0))
        val = intensity_functional(
            m, [Observation((0.3, 0.4), None, AuxMark(discrete=1), (0.0,))],
            SampleSchedule((1.0,)))
        assert val.shape == (1,)
        assert val[0] == pytest.approx(10.0 * 0.5 * PHI0)

    def test_degenerate_marks_drop_factor(self):
        m = ParametricModel("poisson", (10.0,), W,
                            aux=AuxDensitySpec(discrete_probs=np.array([0.5, 0.5])),
                            fidi=deterministic_fidi())
        val = intensity_functional(
            m, [Observation((0.3, 0.4), None, AuxMark(discrete=2), (123.0,))],
            SampleSchedule((1.0,)))
        assert val == pytest.approx([10.0 * 0.5])

    def test_zero_rate_region(self):
        m = ParametricModel("poisson", (0.0,), W)
        assert intensity_functional(m, [Observation((0.5, 0.5))]).tolist() == [0.0]

    def test_rows_are_points(self):
        # one value per row, each that row's one-row value; a bare ground
        # array carries no marks and needs a model without mark factors
        m = ParametricModel("poisson", (10.0,), W,
                            aux=AuxDensitySpec(discrete_probs=np.array([0.2, 0.8])),
                            fidi=brownian_fidi(1.0))
        sched = SampleSchedule((1.0,))
        data = [Observation((0.1 * i, 0.5), None, AuxMark(discrete=1 + i % 2),
                            (0.3 * i,)) for i in range(5)]
        vals = intensity_functional(m, data, sched)
        assert vals.tolist() == [intensity_functional(m, [o], sched)[0]
                                 for o in data]
        assert vals[1] == pytest.approx(10.0 * 0.8 * PHI0 * math.exp(-0.045))
        g = np.array([[0.1, 0.2], [0.7, 0.9]])
        plain = ParametricModel("poisson", (10.0,), W)
        assert intensity_functional(plain, g).tolist() == [10.0, 10.0]
        with pytest.raises(ValidationError):
            intensity_functional(m, g, sched)


class TestConditionalIntensity:
    def test_uniform_ground_part(self):
        m = ParametricModel("poisson-t", (3.0,), WT)
        val = conditional_intensity(m, (), [Observation((0.5,), 1.0)])
        assert val == pytest.approx([3.0 * 1.0])  # |W_S| = 1

    def test_loglinear_b_zero_reduces(self):
        m_const = ParametricModel("poisson-t", (math.exp(1.2),), WT)
        m_ll = ParametricModel("loglinear-t", (1.2, 0.0), WT)
        for t in (0.1, 0.9, 1.7):
            a = conditional_intensity(m_const, (), [Observation((0.4,), t)])
            b = conditional_intensity(m_ll, (), [Observation((0.4,), t)])
            assert a == pytest.approx(b)

    def test_history_must_be_sorted_and_past(self):
        m = ParametricModel("poisson-t", (3.0,), WT)
        with pytest.raises(ValidationError):
            conditional_intensity(m, (0.9, 0.4), [Observation((0.5,), 1.0)])
        with pytest.raises(ValidationError):
            conditional_intensity(m, (1.5,), [Observation((0.5,), 1.0)])
        # the history must precede every query time, not only the last
        with pytest.raises(ValidationError):
            conditional_intensity(m, (0.5,), np.array([[0.5, 1.0], [0.5, 0.4]]))

    def test_expectation_equals_intensity_functional(self):
        # the rate families are history-free, so the identity is exact
        # realization by realization; check it over simulated histories
        m = ParametricModel("loglinear-t", (0.5, 0.4), WT)
        rng = np.random.default_rng(0)
        t0 = 1.3
        target = intensity_functional(m, [Observation((0.4,), t0)])
        vals = []
        for _ in range(50):
            hist = np.sort(rng.random(5) * t0 * 0.99)
            vals.append(conditional_intensity(m, hist, [Observation((0.4,), t0)]))
        assert np.allclose(vals, target)

    def test_rows_are_points(self):
        m = ParametricModel("loglinear-t", (0.5, 0.4), WT)
        g = np.array([[0.4, 1.3], [0.1, 1.9], [0.8, 1.1]])
        vals = conditional_intensity(m, (0.2, 1.0), g)
        assert vals == pytest.approx(np.exp(0.5 + 0.4 * g[:, 1]), rel=1e-15)
        assert vals.tolist() == intensity_functional(m, g).tolist()


class TestLoglikTemporal:
    def test_homogeneous_closed_form(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            n = rng.poisson(12)
            data = [Observation((float(rng.random()),), float(rng.random() * 2.0))
                    for _ in range(n)]
            if n == 0:
                continue
            m = ParametricModel("poisson-t", (1.0,), WT, bounds=((1e-9, 1e4),))
            fit = fit_loglik_temporal(m, data, budget=600)
            assert fit.converged
            assert fit.theta[0] == pytest.approx(n / 2.0, rel=1e-6)

    def test_empty_data_is_minus_compensator(self):
        m = ParametricModel("poisson-t", (3.0,), WT)
        assert loglik_temporal(m, []) == pytest.approx(-3.0 * 2.0, rel=1e-9)

    def test_mark_factor_separability(self):
        # changing the (fixed) mark density leaves the rate maximizer alone
        rng = np.random.default_rng(1)
        data = [Observation((float(rng.random()),), float(rng.random() * 2.0),
                            None, (float(rng.standard_normal()),))
                for _ in range(15)]
        sched = SampleSchedule((0.5,))
        fits = []
        for scale in (1.0, 2.0):
            m = ParametricModel("poisson-t", (1.0,), WT,
                                bounds=((1e-9, 1e4),),
                                fidi=brownian_fidi(scale))
            fits.append(fit_loglik_temporal(m, data, sched, budget=600).theta[0])
        assert fits[0] == pytest.approx(fits[1], rel=1e-6)

    def test_zero_intensity_data_point_errors(self):
        m = ParametricModel("poisson-t", (0.0,), WT)
        with pytest.raises(NumericalError):
            loglik_temporal(m, [Observation((0.5,), 1.0)])

    def test_loglinear_recovery(self):
        a_true, b_true = 1.3, 0.6
        w = Window((0,), (1,), t_star=3.0)
        lam = lambda g: np.exp(a_true + b_true * g[:, -1])
        model = InhomogeneousPoisson(lam, math.exp(a_true + b_true * 3.0))
        locs = simulate_poisson(model, w, 7)
        data = [Observation((x[0],), x[1]) for x in locs]
        m = ParametricModel("loglinear-t", (0.0, 0.0), w,
                            bounds=((-8.0, 8.0), (-8.0, 8.0)))
        fit = fit_loglik_temporal(m, data, budget=900)
        assert fit.converged
        assert abs(fit.theta[1] - b_true) < 0.5  # single realization, loose

    def test_mle_invariance_under_rescaling(self):
        # x -> c x with rate -> rate / c^2 leaves the fit equivariant
        rng = np.random.default_rng(3)
        pts = rng.random((20, 2))
        c = 2.0
        w1 = Window((0, 0), (1, 1), t_star=1.0)
        w2 = Window((0, 0), (c, c), t_star=1.0)
        data1 = [Observation(tuple(x), float(rng.random())) for x in pts]
        data2 = [Observation(tuple(c * x), o.t) for x, o in
                 zip(pts, data1)]
        m1 = ParametricModel("poisson-t", (1.0,), w1, bounds=((1e-9, 1e5),))
        m2 = ParametricModel("poisson-t", (1.0,), w2, bounds=((1e-9, 1e5),))
        f1 = fit_loglik_temporal(m1, data1, budget=600)
        f2 = fit_loglik_temporal(m2, data2, budget=600)
        # the temporal rate is unchanged; the spatial density absorbs 1/c^2
        assert f1.theta[0] == pytest.approx(f2.theta[0], rel=1e-6)

    def test_non_finite_start_value_fails_loudly(self):
        # exp(1000 t) overflows the compensator, so log L = -inf at theta0
        m = ParametricModel("loglinear-t", (0.0, 1000.0), WT)
        with np.errstate(over="ignore"):
            assert loglik_temporal(m, []) == -math.inf
            with pytest.raises(ValidationError, match="finite at the start"):
                fit_loglik_temporal(m, [], budget=50)


class TestJanossy:
    def test_log_value_finite_at_large_n(self):
        # the raw product over- and underflows from n of a few hundred
        rho, n = 800.0, 800
        data = [Observation(tuple(x)) for x in np.random.default_rng(0).random((n, 2))]
        j = janossy_density(ParametricModel("poisson", (rho,), W), data)
        assert np.isfinite(j.log_value)
        assert j.log_value == pytest.approx(-rho * W.volume + n * math.log(rho),
                                            rel=1e-12)
        ratio = density_wrt_poisson(ParametricModel("poisson", (700.0,), W), data,
                                    ParametricModel("poisson", (rho,), W))
        assert ratio == pytest.approx(math.exp(100.0 + n * math.log(700.0 / rho)),
                                      rel=1e-9)

    def test_long_mark_schedule_stays_finite(self):
        # 400 Brownian samples: each transition density is moderate, but
        # their product underflows, so the mark factor is summed in logs
        times = np.arange(1, 401) / 400
        u = np.cumsum(2.5 * np.random.default_rng(0).standard_normal(400))
        var = 50.0 ** 2 * np.diff(times, prepend=0.0)
        du = np.diff(u, prepend=0.0)
        exact = float(np.sum(-0.5 * np.log(2 * np.pi * var) - 0.5 * du ** 2 / var))
        assert exact == pytest.approx(-932.4058, abs=1e-4)
        w = Window((0,), (1,), t_star=1.0)
        m = ParametricModel("poisson-t", (2.0,), w, fidi=brownian_fidi(50.0))
        data = [Observation((0.5,), 0.5, None, tuple(u))]
        sched = SampleSchedule(tuple(times))
        # log rate minus the compensator of the unit rate-2 window
        want = exact + math.log(2.0) - 2.0
        assert janossy_density(m, data, sched).log_value == pytest.approx(
            want, rel=1e-12)
        assert loglik_temporal(m, data, sched) == pytest.approx(want, rel=1e-12)
        assert pseudolikelihood(m, data, sched) == pytest.approx(want, rel=1e-12)

    def test_void_probability(self):
        m = ParametricModel("poisson", (1.0,), W)
        assert janossy_density(m, []).value == pytest.approx(math.exp(-1.0))

    def test_single_point_formula(self):
        lam = 1.7
        m = ParametricModel("poisson", (lam,), W)
        j = janossy_density(m, [Observation((0.5, 0.5))])
        assert j.value == pytest.approx(math.exp(-lam) * lam)
        assert j.normalized

    def test_normalization_series(self):
        for lam in (0.5, 1.0, 2.0):
            m = ParametricModel("poisson", (lam,), W)
            assert janossy_total_mass(m, 30) == pytest.approx(1.0, abs=1e-6)

    def test_normalization_with_mark_quadrature(self):
        m = ParametricModel("poisson", (1.0,), W, fidi=brownian_fidi(1.0))
        grid = np.linspace(-8, 8, 801)
        total = janossy_total_mass(m, 30, mark_grid=grid,
                                   schedule=SampleSchedule((1.0,)))
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_gibbs_unnormalized_flag(self):
        m = ParametricModel("gibbs", (50.0, 0.5), W, interaction_range=0.05)
        j = janossy_density(m, [Observation((0.5, 0.5))])
        assert not j.normalized
        with pytest.raises(ValidationError):
            janossy_total_mass(m)


class TestDensityWrtPoisson:
    def test_self_density_is_one(self):
        ref = ParametricModel("poisson", (3.0,), W)
        for data in ([], [Observation((0.5, 0.5))],
                     [Observation((0.2, 0.2)), Observation((0.8, 0.3))]):
            assert density_wrt_poisson(ref, data, ref) == pytest.approx(1.0)

    def test_doubled_intensity_empty_config(self):
        ref = ParametricModel("poisson", (3.0,), W)
        dbl = ParametricModel("poisson", (6.0,), W)
        assert density_wrt_poisson(dbl, [], ref) == pytest.approx(math.exp(-3.0))

    def test_unit_mean_under_reference(self):
        ref = ParametricModel("poisson", (2.0,), W)
        other = ParametricModel("poisson", (3.0,), W)
        vals = []
        for seed in range(5000):
            locs = simulate_poisson(HomogeneousPoisson(2.0), W, seed)
            data = [Observation(tuple(x)) for x in locs]
            vals.append(density_wrt_poisson(other, data, ref))
        se = np.std(vals) / math.sqrt(len(vals))
        assert abs(np.mean(vals) - 1.0) < 3 * se

    def test_infinite_aux_measure_rejected(self):
        from fmpp.core import AuxMeasure
        spec = AuxDensitySpec(continuous_density=lambda loc, l: 1.0,
                              measure=AuxMeasure("lebesgue", (0.0, np.inf)))
        m = ParametricModel("poisson", (2.0,), W, aux=spec)
        with pytest.raises(ValidationError):
            density_wrt_poisson(m, [], ParametricModel("poisson", (2.0,), W))


class TestPapangelou:
    def test_poisson_configuration_free(self):
        m = ParametricModel("poisson", (7.0,), W)
        obs = [Observation((0.3, 0.3))]
        empty = papangelou(m, obs, [])
        full = papangelou(m, obs, [Observation((0.6, 0.6)),
                                   Observation((0.1, 0.9))])
        assert empty.tolist() == full.tolist() == [7.0]

    def test_gibbs_counts_neighbours(self):
        m = ParametricModel("gibbs", (50.0, 0.5), W, interaction_range=0.05)
        cfg = [Observation((0.5, 0.5)), Observation((0.52, 0.5))]
        assert papangelou(m, [Observation((0.1, 0.1))], cfg).tolist() == [50.0]
        assert papangelou(m, [Observation((0.51, 0.5))], cfg).tolist() == [50.0 * 0.25]

    def test_candidate_in_configuration_zero(self):
        m = ParametricModel("gibbs", (50.0, 0.5), W, interaction_range=0.05)
        cfg = [Observation((0.5, 0.5))]
        assert papangelou(m, [Observation((0.5, 0.5))], cfg).tolist() == [0.0]

    def test_rows_are_queries(self):
        # own rows leave their pattern row out; -1 sees the whole pattern
        m = ParametricModel("gibbs", (50.0, 0.5), W, interaction_range=0.05)
        pattern = np.array([[0.5, 0.5], [0.52, 0.5], [0.9, 0.9]])
        queries = np.array([[0.5, 0.5], [0.5, 0.5], [0.51, 0.5], [0.1, 0.1],
                            [0.9, 0.9]])
        got = papangelou(m, queries, pattern, np.array([0, -1, 0, -1, 2]))
        assert got.tolist() == [25.0, 0.0, 25.0, 50.0, 50.0]
        assert papangelou(m, queries[:1], pattern).tolist() == [0.0]

    @pytest.mark.parametrize("theta, R, T, w", [
        ((50.0, 0.5), 0.05, -0.5, W),
        ((math.nan, 0.5), 0.05, None, W),
        ((50.0, 0.5), math.nan, None, W),
        ((50.0, 0.5), 0.05, None, Window((0, 0), (1, 1), t_star=1.0)),
    ])
    def test_gibbs_model_rejects_what_pairwise_gibbs_rejects(self, theta, R, T, w):
        with pytest.raises(ValidationError):
            simulate_gibbs(PairwiseGibbs(*theta, R, T), w, 1, 0)
        with pytest.raises(ValidationError):
            ParametricModel("gibbs", theta, w, interaction_range=R,
                            temporal_range=T)

    @pytest.mark.parametrize("torus", [False, True])
    def test_one_neighbourhood(self, torus):
        # cylinder_contains, the kernel count and papangelou take the same
        # pairs as neighbours: pairs placed at distance R by angle, and
        # (0.1, 0.1)/(0.4, 0.5), whose squared distance rounds above R^2
        w, R, n = Window((0, 0), (2, 2), torus=torus), 0.5, 400
        m = ParametricModel("gibbs", (2.0, 0.5), w, interaction_range=R)
        rng = np.random.default_rng(19)
        angle = 2.0 * np.pi * rng.random(n)
        a = 2.0 * rng.random((n, 2)) if torus else 0.5 + rng.random((n, 2))
        b = a + R * np.column_stack([np.cos(angle), np.sin(angle)])
        a = np.vstack([[0.1, 0.1], a])
        b = np.vstack([[0.4, 0.5], np.mod(b, 2.0) if torus else b])
        near = [cylinder_contains((p, None), R, 0.0, (q, None), w)
                for p, q in zip(a, b)]
        counts = [int(neighbour_counts(p[None], q[None], w.sides, torus, R,
                                       -1.0, 2)[0]) for p, q in zip(a, b)]
        lam = [float(papangelou(m, p[None], q[None])[0]) for p, q in zip(a, b)]
        assert not near[0] and 0 < sum(near) < n
        assert counts == [int(v) for v in near]
        assert lam == [1.0 if v else 2.0 for v in near]

    def test_own_rows_are_checked(self):
        m = ParametricModel("gibbs", (50.0, 0.5), W, interaction_range=0.05)
        pattern, queries = np.array([[0.5, 0.5], [0.9, 0.9]]), np.array([[0.1, 0.1]])
        for own in (np.array([0, 1]), np.array([2]), np.array([-2]),
                    np.array([0.0]), np.array([[0]])):
            with pytest.raises(ValidationError):
                papangelou(m, queries, pattern, own)

    def test_marks_multiply_in(self):
        # a bare query array carries no marks, so mark factors need columns
        m = ParametricModel("gibbs", (50.0, 0.5), W, interaction_range=0.05,
                            aux=AuxDensitySpec(discrete_probs=np.array([0.2, 0.8])))
        queries = [Observation((0.51, 0.5), None, AuxMark(discrete=2)),
                   Observation((0.1, 0.1), None, AuxMark(discrete=1))]
        got = papangelou(m, queries, np.array([[0.5, 0.5]]))
        assert got == pytest.approx([50.0 * 0.5 * 0.8, 50.0 * 0.2], rel=1e-15)
        with pytest.raises(ValidationError):
            papangelou(m, np.array([[0.1, 0.1]]), np.array([[0.5, 0.5]]))

    def test_hereditarity_on_enumerated_configs(self):
        # if the density is positive on a configuration it is positive on
        # every sub-configuration
        m = ParametricModel("gibbs", (10.0, 0.3), W, interaction_range=0.2)
        pts = [Observation((0.1, 0.1)), Observation((0.2, 0.1)),
               Observation((0.8, 0.8))]
        for r in range(len(pts) + 1):
            for sub in itertools.combinations(pts, r):
                val = janossy_density(m, list(sub)).value
                assert val > 0.0
                for rr in range(r):
                    for subsub in itertools.combinations(sub, rr):
                        assert janossy_density(m, list(subsub)).value > 0.0


class TestPseudolikelihood:
    def test_poisson_equals_likelihood_shape(self):
        locs = simulate_poisson(HomogeneousPoisson(60.0), W, 3)
        data = [Observation(tuple(x)) for x in locs]
        n = len(data)
        for rho in (40.0, 60.0, 80.0):
            m = ParametricModel("poisson", (rho,), W)
            pl = pseudolikelihood(m, data, quad_res=16)
            ll = n * math.log(rho) - rho * W.volume
            assert pl == pytest.approx(ll, rel=1e-9)

    def test_temporal_poisson_pl_equals_loglik(self):
        # for Poisson models the Papangelou intensity is the intensity, so
        # the pseudo-likelihood IS the likelihood
        rng = np.random.default_rng(8)
        data = [Observation((float(rng.random()),), float(rng.random() * 2.0))
                for _ in range(14)]
        for rho in (3.0, 7.0, 11.0):
            m = ParametricModel("poisson-t", (rho,), WT)
            ll = loglik_temporal(m, data, quad_res=32)
            pl = pseudolikelihood(m, data, quad_res=32)
            assert pl == pytest.approx(ll, rel=1e-9)

    def test_gamma_fixed_one_recovers_poisson_rate(self):
        locs = simulate_poisson(HomogeneousPoisson(75.0), W, 5)
        data = [Observation(tuple(x)) for x in locs]

        def objective(th):
            m = ParametricModel("gibbs", (th[0], 1.0), W, interaction_range=0.05)
            return -pseudolikelihood(m, data, quad_res=16)

        fit = optimize(objective, [30.0], [(1e-3, 1e4)], budget=500)
        assert fit.theta[0] == pytest.approx(len(data) / W.volume, rel=1e-6)

    def test_vanishing_papangelou_errors(self):
        # hard core with a data pair closer than the range
        m = ParametricModel("gibbs", (10.0, 0.0), W, interaction_range=0.2)
        data = [Observation((0.5, 0.5)), Observation((0.55, 0.5))]
        with pytest.raises(NumericalError):
            pseudolikelihood(m, data, quad_res=8)


class TestLeastSquaresMarks:
    def test_one_point_constant_family(self):
        # constant trajectories f = theta (zero growth from m0 = theta):
        # the one-point one-time least-squares solution is the observation
        sched = SampleSchedule((0.5,))
        family = lambda th: GrowthInteraction(("linear", 0.0, 1.0), m0=th[0])
        pts = (np.array([[0.5, 0.5]]), np.array([0.0]), np.array([10.0]))
        fit = least_squares_marks(family, pts, np.array([[0.7]]), sched,
                                  [0.2], [(0.0, 5.0)], dt=0.005, t_star=1.0,
                                  budget=400)
        assert fit.theta[0] == pytest.approx(0.7, rel=1e-6)

    def test_zero_step_is_a_validation_error(self):
        family = lambda th: GrowthInteraction(("linear", 0.0, 1.0), m0=th[0])
        pts = (np.array([[0.5, 0.5]]), np.array([0.0]), np.array([10.0]))
        with pytest.raises(ValidationError, match="step must divide"):
            least_squares_marks(family, pts, np.array([[0.7]]),
                                SampleSchedule((0.5,)), [0.2], [(0.0, 5.0)],
                                dt=0.0, t_star=1.0)

    def test_noiseless_recovery(self):
        a_true, b_true = 1.5, 0.8
        rng = np.random.default_rng(2)
        n = 6
        pts = (rng.random((n, 2)), np.zeros(n), np.full(n, 10.0))
        model = GrowthInteraction(("linear", a_true, b_true))
        sched = SampleSchedule((0.25, 0.5, 0.75, 1.0))
        paths = gi_integrate(pts, model, 0.01, 0, 1.0)
        observed = np.array([[p(s) for s in sched.times] for p in paths])
        family = lambda th: GrowthInteraction(("linear", th[0], th[1]))
        fit = least_squares_marks(family, pts, observed, sched, [0.5, 0.5],
                                  [(0.01, 10.0), (0.01, 10.0)], dt=0.01,
                                  t_star=1.0, budget=800)
        assert fit.converged
        assert fit.theta[0] == pytest.approx(a_true, rel=1e-4)
        assert fit.theta[1] == pytest.approx(b_true, rel=1e-4)

    def test_torus_correction_round_runs(self):
        rng = np.random.default_rng(4)
        n = 4
        pts = (rng.random((n, 2)), np.zeros(n), np.full(n, 10.0))
        model = GrowthInteraction(("linear", 1.0, 0.5), ("gauss", 0.2, 0.3))
        sched = SampleSchedule((0.5, 1.0))
        paths = gi_integrate(pts, model, 0.01, 0, 1.0)
        observed = np.array([[p(s) for s in sched.times] for p in paths])
        family = lambda th: GrowthInteraction(("linear", th[0], th[1]),
                                              ("gauss", 0.2, 0.3))

        def torus_sim(theta, seed):
            r = np.random.default_rng(seed)
            k = 3
            return (r.random((k, 2)) + np.array([1.0, 0.0]),  # outside W
                    np.zeros(k), np.full(k, 10.0))

        fit = least_squares_marks(family, pts, observed, sched, [0.8, 0.6],
                                  [(0.01, 5.0), (0.01, 5.0)], dt=0.02,
                                  t_star=1.0, budget=300,
                                  torus_simulator=torus_sim)
        assert isinstance(fit, FitResult)
        assert fit.scheme == "least-squares"

    def test_torus_refit_counts_both_fits(self):
        # every residual evaluation builds the model once, so the family's
        # calls count the evaluations of the first fit and the refit
        rng = np.random.default_rng(4)
        n = 4
        pts = (rng.random((n, 2)), np.zeros(n), np.full(n, 10.0))
        model = GrowthInteraction(("linear", 1.0, 0.5), ("gauss", 0.2, 0.3))
        sched = SampleSchedule((0.5, 1.0))
        paths = gi_integrate(pts, model, 0.01, 0, 1.0)
        observed = np.array([[p(s) for s in sched.times] for p in paths])
        calls = {"family": 0, "torus": 0}

        def family(th):
            calls["family"] += 1
            return GrowthInteraction(("linear", th[0], th[1]),
                                     ("gauss", 0.2, 0.3))

        def torus_sim(theta, seed):
            calls["torus"] += 1
            assert calls["family"] > 0  # the first fit has run
            return (np.array([[1.2, 0.5], [1.1, 0.2]]), np.zeros(2),
                    np.full(2, 10.0))

        fit = least_squares_marks(family, pts, observed, sched, [0.8, 0.6],
                                  [(0.01, 5.0), (0.01, 5.0)], dt=0.02,
                                  t_star=1.0, budget=300,
                                  torus_simulator=torus_sim)
        assert calls["torus"] == 1
        assert fit.iterations == calls["family"]

    def test_fit_leaves_scipy_optimize_unloaded(self):
        # the residual minimizer is NumPy only: a cold ``fmpp estimate``
        # would otherwise pay scipy.optimize's import time
        src = str(Path(fmpp.__file__).resolve().parents[1])
        path = [src] + ([os.environ["PYTHONPATH"]]
                        if os.environ.get("PYTHONPATH") else [])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from fmpp.core import SampleSchedule\n"
            "from fmpp.infer import least_squares_marks\n"
            "from fmpp.marks import GrowthInteraction\n"
            "pts = (np.array([[0.2, 0.3], [0.6, 0.7]]), np.zeros(2),"
            " np.full(2, 10.0))\n"
            "fam = lambda th: GrowthInteraction(('linear', th[0], th[1]),"
            " ('gauss', 0.2, 0.3))\n"
            "fit = least_squares_marks(fam, pts, np.full((2, 2), 0.5),"
            " SampleSchedule((0.5, 1.0)), [1.0, 0.5], [(0.01, 5.0)] * 2,"
            " dt=0.05, t_star=1.0)\n"
            "assert fit.iterations > 3\n"
            "assert 'scipy.optimize' not in sys.modules\n")
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       timeout=120)


    def test_objective_matches_per_path_reference(self, monkeypatch):
        # the residuals read the integrated value matrix at the schedule
        # rows; the reference samples one CadlagPath per point
        import fmpp.infer as infer

        rng = np.random.default_rng(8)
        n = 8
        pts = (rng.random((n, 2)) * 0.3, rng.random(n) * 0.5,
               0.2 + rng.random(n))
        # point 0 dies at 0.555, inside the grid step that holds the sample
        # time 0.557, so only the support check zeroes that sample
        pts[1][0], pts[2][0] = 0.1, 0.455
        sched = SampleSchedule((0.1, 0.3, 0.557, 0.8, 1.0))
        observed = rng.random((n, len(sched)))
        extra = (rng.random((3, 2)) + np.array([1.0, 0.0]), np.zeros(3),
                 np.full(3, 10.0))
        families = [
            lambda th: GrowthInteraction(("linear", th[0], th[1])),
            lambda th: GrowthInteraction(("linear", th[0], th[1]),
                                         ("gauss", 0.4, 0.3),
                                         interaction_cutoff=0.2),
            # strong overlap drives marks negative and absorbs them
            lambda th: GrowthInteraction(("logistic", th[0], th[1]),
                                         ("overlap", 4.0), m0=0.3,
                                         negative_policy="absorb"),
            # theta moves the gauss range, so each theta needs a new plan
            lambda th: GrowthInteraction(("linear", th[0], 1.0),
                                         ("gauss", 0.4, th[1])),
            # theta moves m0, which the plan does not hold
            lambda th: GrowthInteraction(("linear", 1.5, th[1]),
                                         ("gauss", 0.4, 0.3), m0=th[0]),
        ]
        for family in families:
            captured = []

            def capture(residuals, theta0, bounds, budget):
                captured.append(residuals)
                return np.asarray(theta0, dtype=float), 0.0, 0, True

            monkeypatch.setattr(infer, "gauss_newton", capture)
            least_squares_marks(family, pts, observed, sched, [1.0, 0.5],
                                dt=0.01, t_star=1.0,
                                torus_simulator=lambda th, seed: extra)
            monkeypatch.undo()
            assert len(captured) == 2
            for residuals, more in zip(captured, (None, extra)):
                allp = pts if more is None else tuple(
                    np.concatenate([a, b]) for a, b in zip(pts, more))
                for theta in ([1.0, 0.5], [2.5, 0.8], [0.3, 1.7]):
                    paths = gi_integrate(allp, family(theta), 0.01, 0, 1.0)
                    want = [observed[i] - np.asarray(
                        [paths[i](s) for s in sched.times]) for i in range(n)]
                    got = residuals(np.asarray(theta))
                    np.testing.assert_array_equal(got, np.concatenate(want))
                    assert float(got @ got) == pytest.approx(
                        sum(float(np.sum(w ** 2)) for w in want), rel=1e-12)


class TestNonFiniteGround:
    # a NaN or infinite coordinate in the queries, the pattern or the data
    # is rejected, not read as a point that has no neighbours
    PATTERN = np.random.default_rng(1).random((50, 2))
    GIBBS = ParametricModel("gibbs", (100.0, 0.5), W, interaction_range=0.1)

    @pytest.mark.parametrize("queries, pattern", [
        (np.array([[np.nan, 0.2]]), PATTERN),
        ([Observation((0.3, np.inf))], PATTERN),
        (PATTERN[:2], np.vstack([PATTERN, [[np.nan, 0.5]]])),
        (PATTERN[:2], [Observation((0.5, -np.inf))]),
    ])
    def test_papangelou(self, queries, pattern):
        with pytest.raises(ValidationError, match="finite"):
            papangelou(self.GIBBS, queries, pattern)

    def test_pseudolikelihood(self):
        data = [Observation(tuple(x)) for x in self.PATTERN]
        assert math.isfinite(pseudolikelihood(self.GIBBS, data))
        with pytest.raises(ValidationError, match="finite"):
            pseudolikelihood(self.GIBBS, data + [Observation((np.nan, 0.2))])

    def test_janossy_density(self):
        m = ParametricModel("poisson", (50.0,), W)
        with pytest.raises(ValidationError, match="finite"):
            janossy_density(m, np.vstack([self.PATTERN, [[np.inf, 0.1]]]))


class TestOptimizer:
    def test_quadratic(self):
        fit = optimize(lambda th: (th[0] - 3.0) ** 2, [0.0], budget=500)
        assert fit.theta[0] == pytest.approx(3.0, abs=1e-6)
        assert fit.converged

    def test_constant_returns_start(self):
        fit = optimize(lambda th: 4.2, [1.7], budget=200)
        assert fit.theta[0] == 1.7

    def test_bound_active_optimum(self):
        fit = optimize(lambda th: (th[0] - 3.0) ** 2, [0.0],
                       bounds=[(-5.0, 2.0)], budget=500)
        assert fit.theta[0] == pytest.approx(2.0, abs=1e-6)

    def test_never_worse_than_start(self):
        # adversarial objective: better start than anything nearby
        fit = optimize(lambda th: 0.0 if th[0] == 1.0 else 5.0, [1.0],
                       budget=50)
        assert fit.theta[0] == 1.0 and fit.objective == 0.0

    def test_budget_exhaustion_flags_nonconvergence(self):
        fit = optimize(lambda th: (th[0] - 3.0) ** 2, [0.0], budget=4)
        assert not fit.converged

    def test_nonfinite_start_rejected(self):
        with pytest.raises(ValidationError):
            optimize(lambda th: float("nan"), [0.0], budget=10)

    @pytest.mark.parametrize("budget", [0, 1, 2])
    def test_budget_below_start_simplex_rejected(self, budget):
        # the start simplex of a 2-parameter fit takes 3 evaluations
        calls = []

        def f(th):
            calls.append(1)
            return float(th @ th)

        with pytest.raises(ValidationError, match="budget"):
            nelder_mead(f, [1.0, 2.0], budget=budget)
        assert not calls
        assert nelder_mead(f, [1.0, 2.0], budget=3)[2] == len(calls) == 3


class TestGaussNewton:
    def test_linear_residuals_solved(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(7, 3))
        truth = np.array([1.5, -0.25, 4.0])
        b = a @ truth
        theta, f, evals, converged = gauss_newton(lambda th: a @ th - b,
                                                  np.zeros(3), budget=200)
        assert converged
        np.testing.assert_allclose(theta, truth, rtol=0.0, atol=1e-12)
        assert f <= 1e-20

    def test_rosenbrock_residuals(self):
        res = lambda th: np.array([10.0 * (th[1] - th[0] ** 2), 1.0 - th[0]])
        theta, f, _, converged = gauss_newton(res, [-1.2, 1.0], budget=500)
        assert converged
        np.testing.assert_allclose(theta, [1.0, 1.0], rtol=0.0, atol=1e-10)

    def test_bound_active_optimum(self):
        # the unconstrained optimum (3, 1) lies outside theta_0 <= 2; on the
        # bound the coupled second coordinate has to move on to 1.2, which
        # the clipped unconstrained step never reaches
        res = lambda th: np.array([th[0] + 2.0 * th[1] - 5.0,
                                   th[0] - th[1] - 2.0])
        theta, f, _, converged = gauss_newton(
            res, [0.0, 0.0], bounds=[(-5.0, 2.0), (-5.0, 5.0)], budget=200)
        assert converged
        # at a non-zero residual forward differences stop about 1e-8 short
        np.testing.assert_allclose(theta, [2.0, 1.2], rtol=0.0, atol=1e-7)
        assert f == pytest.approx(1.8, rel=1e-12)

    def test_trial_points_stay_in_bounds(self):
        seen = []

        def res(th):
            seen.append(th.copy())
            return np.array([th[0] - 3.0, 2.0 * (th[1] + 1.0)])

        lo, hi = np.array([0.0, -0.5]), np.array([2.0, 5.0])
        theta, _, evals, _ = gauss_newton(res, [2.0, 5.0],
                                          bounds=list(zip(lo, hi)), budget=100)
        assert len(seen) == evals
        assert all(np.all((lo <= x) & (x <= hi)) for x in seen)
        np.testing.assert_allclose(theta, [2.0, -0.5], rtol=0.0, atol=1e-12)

    def test_never_worse_than_start(self):
        # adversarial residuals: better at the start than anywhere nearby
        res = lambda th: np.array([0.0 if th[0] == 1.0 else 5.0])
        theta, f, _, _ = gauss_newton(res, [1.0], budget=50)
        assert theta[0] == 1.0 and f == 0.0
        # a jump just after the start makes the forward-difference slope
        # point uphill: every step it suggests is worse
        res = lambda th: np.array([2.0 - th[0] if th[0] > 0.0
                                   else 1.0 - 10.0 * th[0]])
        theta, f, _, _ = gauss_newton(res, [0.0], budget=50)
        assert theta[0] == 0.0 and f == 1.0

    @pytest.mark.parametrize("budget", [1, 2, 3, 4, 5, 6, 9, 14])
    def test_budget_counts_jacobian_evaluations(self, budget):
        calls = []

        def res(th):
            calls.append(1)
            return np.array([10.0 * (th[1] - th[0] ** 2), 1.0 - th[0]])

        _, _, evals, converged = gauss_newton(res, [-1.2, 1.0], budget=budget)
        assert evals == len(calls) <= budget
        assert not converged

    def test_rerun_gives_identical_bits(self):
        tt = np.linspace(0.0, 2.0, 9)
        obs = 3.0 * np.exp(-0.7 * tt) + 0.01 * np.sin(7.0 * tt)
        res = lambda th: obs - th[0] * np.exp(-th[1] * tt)
        runs = [gauss_newton(res, [1.0, 0.1], [(0.0, 10.0), (0.0, 5.0)], 300)
                for _ in range(3)]
        for theta, f, evals, converged in runs[1:]:
            assert theta.tobytes() == runs[0][0].tobytes()
            assert (f, evals, converged) == runs[0][1:]
        assert runs[0][3]

    def test_nonfinite_start_rejected(self):
        with pytest.raises(ValidationError):
            gauss_newton(lambda th: np.array([1.0, float("nan")]), [0.0],
                         budget=10)

    def test_zero_budget_rejected(self):
        calls = []

        def res(th):
            calls.append(1)
            return th

        with pytest.raises(ValidationError, match="budget"):
            gauss_newton(res, [1.0, 2.0], budget=0)
        assert not calls


class TestSpatialDensityFamilies:
    def test_loglinear_x_normalizes(self, trapezoid):
        from fmpp.infer import _spatial_density
        m = ParametricModel("poisson-t", (2.0,), WT, spatial=("loglinear-x", 1.7))
        xs = np.linspace(0.0, 1.0, 2001)
        dens = _spatial_density(m, xs[:, None])
        assert trapezoid(dens, xs) == pytest.approx(1.0, abs=1e-6)

    def test_loglinear_x_tilts_the_likelihood(self):
        data_right = [Observation((0.9,), 0.5), Observation((0.95,), 1.0)]
        flat = ParametricModel("poisson-t", (1.0,), WT)
        tilted = ParametricModel("poisson-t", (1.0,), WT,
                                 spatial=("loglinear-x", 3.0))
        assert (loglik_temporal(tilted, data_right)
                > loglik_temporal(flat, data_right))


# ---------------------------------------------------------------------------
# brute-force references: one scalar evaluation per data point and per node
# ---------------------------------------------------------------------------
def _ref_event_factor(model, obs, schedule):
    """Mark and aux factor of one event under ``MARKED``, by hand: the
    Brownian increments' Gaussian densities times the type probability."""
    fac = 1.0
    if model.fidi is not None:
        s0, u0 = 0.0, 0.0
        for s, u in zip(schedule.times, obs.u):
            var = BROWNIAN_SCALE ** 2 * (s - s0)
            fac *= math.exp(-0.5 * (u - u0) ** 2 / var) / math.sqrt(2 * math.pi * var)
            s0, u0 = s, u
    if model.aux is not None:
        fac *= TYPE_PROBS[obs.aux.discrete - 1]
    return fac


def _ref_ground(model, g, others):
    """Ground (Papangelou) intensity at one ground location, by hand."""
    w = model.window
    if model.ground == "gibbs":
        beta, gamma = model.theta
        count = 0
        for h in others:
            d = np.abs(np.asarray(g[: w.dim]) - np.asarray(h[: w.dim]))
            if w.torus:
                d = np.minimum(d, w.sides - d)
            near = math.sqrt(float(np.sum(d * d))) <= model.interaction_range
            if near and model.temporal_range is not None and len(g) > w.dim:
                near = abs(g[-1] - h[-1]) <= model.temporal_range
            count += near
        return beta * gamma ** count
    if model.ground == "poisson":
        return model.theta[0]
    x, t = np.asarray(g[: w.dim]), g[-1]
    rate = (model.theta[0] if model.ground == "poisson-t"
            else math.exp(model.theta[0] + model.theta[1] * t))
    if model.spatial[0] == "uniform":
        return rate / w.volume
    c = np.asarray(model.spatial[1:])
    z = np.prod([(math.exp(ca * hi) - math.exp(ca * lo)) / ca
                 for ca, lo, hi in zip(c, w.lo, w.hi)])
    return rate * math.exp(float(c @ x)) / z


def _ref_midpoints(lo, hi, q):
    edges = np.linspace(lo, hi, q + 1)
    return 0.5 * (edges[:-1] + edges[1:]), (hi - lo) / q


def _ref_pseudolikelihood(model, data, schedule, q):
    w = model.window
    pts = [tuple(o.x) + ((o.t,) if o.t is not None else ()) for o in data]
    total = 0.0
    for i, obs in enumerate(data):
        rest = np.delete(np.asarray(pts), i, axis=0)
        total += math.log(_ref_ground(model, pts[i], rest)
                          * _ref_event_factor(model, obs, schedule))
    axes = [_ref_midpoints(lo, hi, q) for lo, hi in zip(w.lo, w.hi)]
    if w.is_temporal:
        axes.append(_ref_midpoints(0.0, w.t_star, q))
    cell = math.prod(a[1] for a in axes)
    integral = sum(_ref_ground(model, node, pts)
                   for node in itertools.product(*(a[0] for a in axes)))
    return total - integral * cell


def _ref_loglik_temporal(model, data, schedule, q):
    w = model.window
    total = sum(math.log(_ref_ground(model, tuple(o.x) + (o.t,), ())
                         * _ref_event_factor(model, o, schedule)) for o in data)
    axes = [_ref_midpoints(lo, hi, q) for lo, hi in zip(w.lo, w.hi)]
    t_mids, dt = _ref_midpoints(0.0, w.t_star, q)
    cell = math.prod(a[1] for a in axes)
    compensator = sum(_ref_ground(model, tuple(x) + (t,), ()) * cell * dt
                      for x in itertools.product(*(a[0] for a in axes))
                      for t in t_mids)
    return total - compensator


def _ref_papangelou(model, queries, pattern, own, schedule):
    """Papangelou intensity query by query: zero where the query equals a
    pattern row other than its own, else the ground intensity given the
    other rows times the query's mark and aux factor."""
    rows = [tuple(o.x) + ((o.t,) if o.t is not None else ()) for o in pattern]
    out = []
    for obs, j in zip(queries, own):
        g = tuple(obs.x) + ((obs.t,) if obs.t is not None else ())
        others = [r for i, r in enumerate(rows) if i != j]
        out.append(0.0 if g in others else _ref_ground(model, g, np.asarray(others))
                   * _ref_event_factor(model, obs, schedule))
    return out


def _marked_data(rng, n, w):
    """n observations in w with two-type aux marks and Brownian samples."""
    out = []
    for _ in range(n):
        x = tuple(float(lo + (hi - lo) * rng.random()) for lo, hi in zip(w.lo, w.hi))
        t = float(rng.random() * w.t_star) if w.is_temporal else None
        out.append(Observation(x, t, AuxMark(discrete=int(rng.integers(1, 3))),
                               tuple(rng.standard_normal(2))))
    return out


BROWNIAN_SCALE, TYPE_PROBS = 1.5, (0.3, 0.7)
MARKED = dict(aux=AuxDensitySpec(discrete_probs=np.array(TYPE_PROBS)),
              fidi=brownian_fidi(BROWNIAN_SCALE))
SCHED2 = SampleSchedule((0.4, 0.9))


class TestBruteForceOracle:
    @pytest.mark.parametrize("theta", [(40.0, 0.2), (90.0, 0.55), (150.0, 1.0)])
    def test_pseudolikelihood_gibbs_torus(self, theta):
        w = Window((0, 0), (1, 2), torus=True)
        data = _marked_data(np.random.default_rng(11), 40, w)
        m = ParametricModel("gibbs", theta, w, interaction_range=0.15, **MARKED)
        assert pseudolikelihood(m, data, SCHED2, quad_res=12) == pytest.approx(
            _ref_pseudolikelihood(m, data, SCHED2, 12), rel=1e-12)

    @pytest.mark.parametrize("theta", [(5.0, 0.1), (12.0, 0.6)])
    def test_pseudolikelihood_space_time_gibbs(self, theta):
        w = Window((0, 0), (1, 1), t_star=3.0)
        data = _marked_data(np.random.default_rng(12), 30, w)
        m = ParametricModel("gibbs", theta, w, interaction_range=0.3,
                            temporal_range=0.7, **MARKED)
        assert pseudolikelihood(m, data, SCHED2, quad_res=8) == pytest.approx(
            _ref_pseudolikelihood(m, data, SCHED2, 8), rel=1e-12)

    @pytest.mark.parametrize("theta", [(0.3, -0.4), (1.2, 0.5), (2.0, 1.1)])
    def test_temporal_likelihoods_loglinear_x(self, theta):
        w = Window((0, 0), (1, 2), t_star=2.0)
        data = _marked_data(np.random.default_rng(13), 25, w)
        m = ParametricModel("loglinear-t", theta, w,
                            spatial=("loglinear-x", 1.3, -0.6), **MARKED)
        assert loglik_temporal(m, data, SCHED2, quad_res=10) == pytest.approx(
            _ref_loglik_temporal(m, data, SCHED2, 10), rel=1e-12)
        assert pseudolikelihood(m, data, SCHED2, quad_res=6) == pytest.approx(
            _ref_pseudolikelihood(m, data, SCHED2, 6), rel=1e-12)

    @pytest.mark.parametrize("case", ["torus", "space-time", "poisson-t"])
    def test_papangelou(self, case):
        if case == "torus":
            w = Window((0, 0), (1, 2), torus=True)
            m = ParametricModel("gibbs", (90.0, 0.55), w, interaction_range=0.15,
                                **MARKED)
        elif case == "space-time":
            w = Window((0, 0), (1, 1), t_star=3.0)
            m = ParametricModel("gibbs", (12.0, 0.6), w, interaction_range=0.3,
                                temporal_range=0.7, **MARKED)
        else:
            w = Window((0, 0), (1, 2), t_star=2.0)
            m = ParametricModel("poisson-t", (7.0,), w,
                                spatial=("loglinear-x", 1.3, -0.6), **MARKED)
        rng = np.random.default_rng(16)
        pattern = _marked_data(rng, 30, w)
        # fresh locations, and pattern rows: left out by their own row, by
        # another row, or seen whole (the last two coincide, so give zero)
        queries = _marked_data(rng, 12, w) + [
            Observation(pattern[i].x, pattern[i].t, AuxMark(discrete=1 + i % 2),
                        (0.1 * i, -0.2)) for i in range(0, 30, 3)]
        own = np.concatenate([rng.integers(-1, 30, 12),
                              [i if i % 2 else (-1 if i % 4 else i + 1)
                               for i in range(0, 30, 3)]])
        got = papangelou(m, queries, pattern, own, SCHED2)
        want = _ref_papangelou(m, queries, pattern, own, SCHED2)
        assert np.sum(np.asarray(want) == 0.0) == 5
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_fit_objective_is_the_public_function(self):
        w = Window((0, 0), (1, 1), torus=True)
        data = _marked_data(np.random.default_rng(14), 30, w)
        m = ParametricModel("gibbs", (30.0, 0.5), w, bounds=((1.0, 500.0), (0.0, 1.0)),
                            interaction_range=0.1, **MARKED)
        fit = fit_pseudolikelihood(m, data, SCHED2, budget=200, quad_res=10)
        assert fit.objective == pseudolikelihood(m.with_theta(fit.theta), data,
                                                 SCHED2, quad_res=10)
        wt = Window((0,), (1,), t_star=2.0)
        data = _marked_data(np.random.default_rng(15), 20, wt)
        m = ParametricModel("loglinear-t", (0.0, 0.0), wt,
                            bounds=((-5.0, 5.0), (-5.0, 5.0)), **MARKED)
        fit = fit_loglik_temporal(m, data, SCHED2, budget=200, quad_res=10)
        assert fit.objective == loglik_temporal(m.with_theta(fit.theta), data,
                                                SCHED2, quad_res=10)


class TestOnePoissonLikelihood:
    # a Poisson model's likelihood, Janossy density and pseudo-likelihood
    # are one quantity, sum log lambda - integral of lambda
    @pytest.mark.parametrize("spatial", [("uniform",), ("loglinear-x", 1.3, -0.6)])
    @pytest.mark.parametrize("ground, theta", [("poisson-t", (7.0,)),
                                               ("loglinear-t", (1.2, 0.5))])
    def test_three_log_values_agree(self, ground, theta, spatial):
        w = Window((0, 0), (1, 2), t_star=2.0)
        data = _marked_data(np.random.default_rng(13), 25, w)
        m = ParametricModel(ground, theta, w, spatial=spatial, **MARKED)
        log_j = janossy_density(m, data, SCHED2, quad_res=64).log_value
        assert math.isfinite(log_j)
        assert log_j == loglik_temporal(m, data, SCHED2, quad_res=64)
        assert log_j == pseudolikelihood(m, data, SCHED2, quad_res=64)

    def test_janossy_fit_objective_is_the_log_density(self):
        locs = simulate_poisson(HomogeneousPoisson(50.0), W, 4)
        data = [Observation(tuple(x)) for x in locs]
        m = ParametricModel("poisson", (10.0,), W, bounds=((1e-9, 1e6),))
        fit = fit_janossy(m, data, budget=600)
        log_j = janossy_density(m.with_theta(fit.theta), data).log_value
        assert log_j > 0.0
        assert fit.objective == log_j
        assert fit.theta[0] == pytest.approx(len(data) / W.volume, rel=1e-6)

    def test_zero_rate_at_a_data_point(self):
        # the Janossy density vanishes (the likelihood raises, see
        # TestLoglikTemporal.test_zero_intensity_data_point_errors)
        zero = ParametricModel("poisson", (0.0,), W)
        j = janossy_density(zero, [Observation((0.5, 0.5))])
        assert j.value == 0.0 and j.log_value == -math.inf
        typed = ParametricModel("poisson", (3.0,), W,
                                aux=AuxDensitySpec(discrete_probs=np.array([0.0, 1.0])))
        first_type = [Observation((0.5, 0.5), None, AuxMark(discrete=1))]
        j = janossy_density(typed, first_type)
        assert j.value == 0.0 and j.log_value == -math.inf
        assert density_wrt_poisson(zero, [Observation((0.5, 0.5))],
                                   ParametricModel("poisson", (2.0,), W)) == 0.0
        with pytest.raises(NumericalError, match="reference intensity"):
            density_wrt_poisson(ParametricModel("poisson", (2.0,), W), first_type,
                                typed)

    def test_poisson_compensator_is_the_intensity_mass(self):
        w = Window((0, 0), (1, 2), t_star=2.0)
        m = ParametricModel("loglinear-t", (1.2, 0.5), w,
                            spatial=("loglinear-x", 1.3, -0.6))
        assert -loglik_temporal(m, [], quad_res=16) == ground_intensity_mass(m, 16)
        flat = ParametricModel("poisson", (3.5,), w)
        assert -pseudolikelihood(flat, [], quad_res=4) == 3.5 * w.ground_volume


def test_gibbs_chain_meets_the_papangelou_intensity():
    # GNZ: E sum h(x, X - x) = E int h(u, X) lambda(u; X) du, with the birth
    # death chain and the Papangelou intensity written independently; a
    # chain of 5 000 steps is not yet in equilibrium here
    beta, gamma, rng_ = 100.0, 0.5, 0.05

    @functools.lru_cache(maxsize=None)
    def simulate(seed):
        locs = simulate_gibbs(PairwiseGibbs(beta, gamma, rng_), W, 20000, seed)
        auxs = [AuxMark(discrete=1)] * len(locs)
        return make_configuration(W, locs, auxs, attach_marks(
            W, locs, auxs, Deterministic(("constant", 1.0)), np.linspace(0, 1, 3),
            seed))

    def in_box(u, pts, own):
        return np.all(u <= 0.5, axis=1).astype(float)

    reports = [gnz_check(simulate, functools.partial(papangelou, ParametricModel(
        "gibbs", (beta, g), W, interaction_range=rng_)), in_box, W,
        replicates=40, seed=11, quad_res=32) for g in (gamma, 1.0)]
    assert reports[0].passed(3.0), reports[0]
    assert not reports[1].passed(3.0), reports[1]


def test_pseudolikelihood_fit_counts_neighbours_twice(monkeypatch):
    # the interaction ranges are fixed, so the counts are built once per fit
    import fmpp._kernels as kernels

    calls = []
    inner = kernels.neighbour_counts

    def counting(*args):
        calls.append(args[0].shape[0])
        return inner(*args)

    monkeypatch.setattr(kernels, "neighbour_counts", counting)
    locs = simulate_poisson(HomogeneousPoisson(80.0), W, 21)
    data = [Observation(tuple(x)) for x in locs]
    m = ParametricModel("gibbs", (60.0, 0.5), W, bounds=((1.0, 500.0), (0.0, 1.0)),
                        interaction_range=0.05)
    fit = fit_pseudolikelihood(m, data, budget=300, quad_res=16)
    assert fit.iterations > 20
    assert len(calls) <= 2


class TestColumnarEvents:
    def test_spec_calls_do_not_grow_with_n(self):
        # one build of the event factors makes 1 initial, k - 1 transition
        # and one aux call, whatever n is
        n, k = 2000, 20
        calls = {"initial": 0, "transition": 0, "aux": 0}
        bm = brownian_fidi(1.0)

        def initial(s1, u):
            calls["initial"] += 1
            return bm.initial(s1, u)

        def transition(t, s, u_t, u_s):
            calls["transition"] += 1
            return bm.transition(t, s, u_t, u_s)

        def probs(g):
            calls["aux"] += 1
            return np.broadcast_to([0.4, 0.6], (g.shape[0], 2))

        rng = np.random.default_rng(5)
        sched = SampleSchedule(tuple(np.arange(1, k + 1) / k))
        data = [Observation((float(x),), float(2.0 * t),
                            AuxMark(discrete=int(rng.integers(1, 3))),
                            tuple(np.cumsum(0.2 * rng.standard_normal(k))))
                for x, t in rng.random((n, 2))]
        m = ParametricModel("poisson-t", (1000.0,), WT,
                            aux=AuxDensitySpec(discrete_probs=probs),
                            fidi=FidiDensitySpec(initial, transition))
        for build in (loglik_temporal, pseudolikelihood):
            calls.update(initial=0, transition=0, aux=0)
            assert np.isfinite(build(m, data, sched, quad_res=8))
            assert calls == {"initial": 1, "transition": k - 1, "aux": 1}

    def test_configuration_equals_its_observations(self):
        # a Configuration is read as columns; its per-point Observations,
        # built by hand, give the same likelihoods bit for bit
        w = Window((0, 0), (1, 1), t_star=2.0)
        rng = np.random.default_rng(9)
        n = 30
        ground = np.column_stack([rng.random((n, 2)), 2.0 * rng.random(n)])
        auxs = [AuxMark(discrete=int(v)) for v in rng.integers(1, 3, n)]
        grid = np.linspace(0.0, 2.0, 41)
        c = Configuration(w, ground, auxs, attach_marks(w, ground, auxs, Wiener(1.5),
                                                        grid, 3))
        sched = SampleSchedule((0.4, 0.9))
        data = [Observation(tuple(p.x), p.t, p.aux,
                            tuple(float(p.mark(s)) for s in sched.times))
                for p in c.points]
        m = ParametricModel("loglinear-t", (1.0, 0.3), w, **MARKED)
        assert loglik_temporal(m, c, sched) == loglik_temporal(m, data, sched)
        assert pseudolikelihood(m, c, sched) == pseudolikelihood(m, data, sched)
        assert (janossy_density(m, c, sched).log_value
                == janossy_density(m, data, sched).log_value)

    def test_observations_need_the_window_dimension(self):
        m = ParametricModel("poisson", (3.0,), W)
        with pytest.raises(ValidationError):
            janossy_density(m, [Observation((0.5,))])
        with pytest.raises(ValidationError):
            janossy_density(m, [Observation((0.5, 0.5), 1.0)])
        # a time is not a coordinate, and a temporal window needs one
        with pytest.raises(ValidationError):
            intensity_functional(m, [Observation((0.5,), 0.3)])
        mt = ParametricModel("poisson-t", (3.0,), WT)
        with pytest.raises(ValidationError):
            loglik_temporal(mt, [Observation((0.5, 1.0))])
        w3, g, auxs = Window((0, 0), (1, 1), t_star=2.0), [[0.5, 0.5, 1.0]], [
            AuxMark(discrete=1)]
        c = Configuration(w3, g, auxs, attach_marks(w3, g, auxs, Wiener(),
                                                    np.linspace(0, 2, 5), 0))
        with pytest.raises(ValidationError):
            janossy_density(m, c)


class TestJanossyAuxMass:
    def test_location_dependent_probabilities_summing_to_one(self):
        # types (x, 1 - x) at every location: the aux mass is one, so the
        # series is the plain truncated Poisson total
        lam = 3.0
        plain = ParametricModel("poisson", (lam,), W)
        typed = ParametricModel("poisson", (lam,), W, aux=AuxDensitySpec(
            discrete_probs=lambda g: np.column_stack([g[:, 0], 1.0 - g[:, 0]])))
        n_max = 6
        want = sum(math.exp(-lam) * lam ** n / math.factorial(n)
                   for n in range(n_max + 1))
        assert janossy_total_mass(typed, n_max) == pytest.approx(want, rel=1e-12)
        assert janossy_total_mass(typed, n_max) == pytest.approx(
            janossy_total_mass(plain, n_max), rel=1e-12)

    def test_location_dependent_aux_mass(self):
        # types (x/2, 1/2): the aux mass integrates x/2 + 1/2 to 3/4, which
        # the midpoint rule gets exactly for a linear integrand
        lam, n_max = 2.0, 8
        m = ParametricModel("poisson", (lam,), W, aux=AuxDensitySpec(
            discrete_probs=lambda g: np.column_stack([g[:, 0] / 2,
                                                      np.full(len(g), 0.5)])))
        want = sum(math.exp(-lam) * (0.75 * lam) ** n / math.factorial(n)
                   for n in range(n_max + 1))
        assert janossy_total_mass(m, n_max, quad_res=16) == pytest.approx(
            want, rel=1e-12)
