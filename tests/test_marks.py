import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats as sps

from fmpp.core import AuxMark, AuxMeasure, CadlagPath, SampleSchedule, Window
from fmpp.errors import NumericalError, ValidationError
from fmpp.ground import HomogeneousPoisson, LogGaussianCox, simulate_lgcp, simulate_poisson
from fmpp.marks import (
    DEGENERATE_DENSITY,
    _uniform_grid,
    AuxDensitySpec,
    Deterministic,
    Geostatistical,
    GrowthInteraction,
    IntensityDependent,
    Wiener,
    attach_marks,
    aux_density_eval,
    brownian_fidi,
    deterministic_fidi,
    fidi_density_eval,
    geostat_marking,
    gi_integrate,
    intensity_dependent_marking,
    make_configuration,
)

GRID = np.linspace(0.0, 1.0, 101)
UNIT = Window((0, 0), (1, 1))


def ground_points(n, seed=0):
    """Locations and aux marks of n uniform points on the unit square."""
    rng = np.random.default_rng(seed)
    return rng.random((n, 2)), [AuxMark(discrete=1)] * n


class TestUniformGrid:
    """The one rule for the mark grid 0, dt, .., horizon."""

    def test_a_step_makes_the_grid(self):
        np.testing.assert_array_equal(_uniform_grid(0.1, 1.0), np.arange(11) * 0.1)
        np.testing.assert_array_equal(_uniform_grid(0.5, 2.0), [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_a_given_grid_within_the_tolerance_is_the_made_one(self):
        # linspace and arange differ in the last bits of some times
        got = _uniform_grid(np.linspace(0.0, 1.0, 11), 1.0)
        np.testing.assert_array_equal(got, np.arange(11) * 0.1)

    @pytest.mark.parametrize("step", [0.3, 0.0, -0.1, math.nan, math.inf, 2.0,
                                      [0.0], [0.0, 0.25, 0.5],
                                      [0.0, 0.1, 0.5, 1.0], [0.0, 0.5, 0.5, 1.0],
                                      [0.0, 0.25, 0.75, 1.0]])
    def test_anything_else_is_a_validation_error(self, step):
        with pytest.raises(ValidationError, match="x must divide the mark "
                           "horizon 1.0 into equal steps"):
            _uniform_grid(step, 1.0, "x")


class TestDeterministicMarks:
    def test_constant_recovers_classical_marks(self):
        paths = attach_marks(UNIT, *ground_points(4), Deterministic(("constant", 2.5)),
                             GRID, 0)
        assert all(p(0.3) == 2.5 and p(0.9) == 2.5 for p in paths)

    def test_callable_family(self):
        fn = lambda g, auxs, t: np.tile(2.0 * t, (len(g), 1))
        paths = attach_marks(UNIT, *ground_points(1), Deterministic(fn), GRID, 0)
        assert paths[0](0.5) == pytest.approx(1.0)

    def test_unknown_registry_name(self):
        with pytest.raises(ValidationError):
            attach_marks(UNIT, *ground_points(1), Deterministic(("nope", 1.0)),
                         GRID, 0)


class TestWienerMarks:
    def test_starts_at_zero(self):
        paths = attach_marks(UNIT, *ground_points(5), Wiener(1.0), GRID, 3)
        assert all(p(0.0) == 0.0 for p in paths)

    def test_marginal_variance(self):
        sw = 1.3
        t = 0.64
        vals = []
        for seed in range(40):
            paths = attach_marks(UNIT, *ground_points(50, seed), Wiener(sw), GRID,
                                 seed)
            vals.extend(p(t) for p in paths)
        vals = np.asarray(vals)
        target = sw * sw * t
        se = np.sqrt(2.0 / (len(vals) - 1)) * target  # var of sample variance
        assert abs(vals.var(ddof=1) - target) < 3 * se

    def test_marks_at_distinct_points_uncorrelated(self):
        a_vals, b_vals = [], []
        for seed in range(2000):
            paths = attach_marks(UNIT, *ground_points(2, seed), Wiener(1.0),
                                 np.linspace(0, 1, 21), seed)
            a_vals.append(paths[0](1.0))
            b_vals.append(paths[1](1.0))
        corr = np.corrcoef(a_vals, b_vals)[0, 1]
        assert abs(corr) < 3.0 / np.sqrt(2000)

    def test_stationary_marginal_mark_law(self):
        # homogeneous ground + random labelling: the mark law at any two
        # fixed regions is the same (two-sample KS not rejected at 1%)
        left, right = [], []
        w = Window((0, 0), (1, 1))
        for seed in range(300):
            locs = simulate_poisson(HomogeneousPoisson(30.0), w, seed)
            paths = attach_marks(w, locs, [AuxMark(discrete=1)] * len(locs),
                                 Wiener(1.0), np.linspace(0, 1, 11), seed)
            for x, p in zip(locs, paths):
                (left if x[0] < 0.5 else right).append(p(0.7))
        assert sps.ks_2samp(left, right).pvalue > 0.01


class TestGrowthInteraction:
    def test_linear_growth_closed_form(self):
        a, b = 2.0, 1.3
        paths = gi_integrate((np.array([[0.5, 0.5]]), np.array([0.0]),
                              np.array([10.0])),
                             GrowthInteraction(growth=("linear", a, b)),
                             1e-3, 0, 1.0)
        p = paths[0]
        inside = p.grid < p.support[1]
        exact = b * (1 - np.exp(-a * p.grid[inside]))
        assert np.max(np.abs(p.values[inside] - exact)) < 1e-6

    def test_symmetric_pair_equal_marks(self):
        pts = (np.array([[0.2, 0.2], [0.8, 0.8]]), np.zeros(2), np.full(2, 9.0))
        paths = gi_integrate(pts, GrowthInteraction(("linear", 1.0, 1.0),
                                                    ("gauss", 0.4, 0.5)),
                             0.01, 0, 1.0)
        np.testing.assert_array_equal(paths[0].values, paths[1].values)

    def test_noise_only_is_brownian(self):
        s0 = 0.4
        vals = []
        for seed in range(400):
            paths = gi_integrate((np.array([[0.5, 0.5]]), np.array([0.0]),
                                  np.array([10.0])),
                                 GrowthInteraction(("linear", 0.0, 0.0),
                                                   noise=("const", s0), m0=2.0),
                                 0.01, seed, 1.0)
            vals.append(paths[0](0.5))
        var = np.var(vals, ddof=1)
        target = s0 * s0 * 0.5
        se = np.sqrt(2.0 / (len(vals) - 1)) * target
        assert abs(var - target) < 3 * se

    def test_deterministic_is_bitwise_reproducible(self):
        pts = (np.array([[0.3, 0.3], [0.6, 0.6]]), np.array([0.0, 0.2]),
               np.array([5.0, 5.0]))
        gi = GrowthInteraction(("logistic", 1.5, 2.0), ("overlap", 0.1))
        a = gi_integrate(pts, gi, 0.01, 0, 1.0)
        b = gi_integrate(pts, gi, 0.01, 123, 1.0)  # seed ignored when noise-free
        for p, q in zip(a, b):
            np.testing.assert_array_equal(p.values, q.values)

    def test_zero_outside_support(self):
        pts = (np.array([[0.5, 0.5]]), np.array([0.3]), np.array([0.4]))
        paths = gi_integrate(pts, GrowthInteraction(("linear", 1.0, 1.0),
                                                    m0=0.5), 0.01, 0, 1.0)
        p = paths[0]
        outside = (p.grid < 0.3) | (p.grid >= 0.7)
        assert np.all(p.values[outside] == 0.0)
        assert p.support == (pytest.approx(0.3), pytest.approx(0.7))

    def test_negative_policy_error(self):
        gi = GrowthInteraction(("linear", 0.0, 0.0), noise=("const", 5.0),
                               m0=0.01, negative_policy="error")
        with pytest.raises(NumericalError):
            gi_integrate((np.array([[0.5, 0.5]]), np.array([0.0]),
                          np.array([10.0])), gi, 0.01, 1, 1.0)

    def test_negative_policy_clamp_keeps_nonnegative(self):
        gi = GrowthInteraction(("linear", 0.0, 0.0), noise=("const", 5.0),
                               m0=0.01, negative_policy="clamp")
        paths = gi_integrate((np.array([[0.5, 0.5]]), np.array([0.0]),
                              np.array([10.0])), gi, 0.01, 1, 1.0)
        assert np.min(paths[0].values) >= 0.0

    def test_negative_policy_absorb_truncates_support(self):
        gi = GrowthInteraction(("linear", 0.0, 0.0), noise=("const", 5.0),
                               m0=0.01, negative_policy="absorb")
        paths = gi_integrate((np.array([[0.5, 0.5]]), np.array([0.0]),
                              np.array([10.0])), gi, 0.01, 1, 1.0)
        p = paths[0]
        assert p.support[1] < 1.0  # huge noise kills the mark early
        assert np.all(p.values[p.grid >= p.support[1]] == 0.0)
        assert np.min(p.values) >= 0.0

    def test_absorbed_marks_die_at_a_grid_time(self):
        # an absorbed mark dies at the grid time after it went negative: its
        # support ends there, not a rounding error past it, and the mark is
        # 0 from that grid time on instead of re-entering at m0
        rng = np.random.default_rng(0)
        n = 40
        xs, births = rng.random((n, 2)), rng.random(n) * 0.3
        lifetimes = 0.5 + rng.random(n)
        gi = GrowthInteraction(("linear", 1.0, 1.0), ("gauss", 0.5, 0.3),
                               ("const", 0.6), m0=0.1,
                               negative_policy="absorb")
        paths = gi_integrate((xs, births, lifetimes), gi, 0.01, 3, 1.0)
        absorbed = 0
        for p, death in zip(paths, np.minimum(births + lifetimes, 1.0)):
            end = p.support[1]
            if end < death:
                absorbed += 1
                assert end in p.grid
                nearest = np.argmin(np.abs(p.grid - end))
                assert np.all(p.values[nearest:] == 0.0)
        assert absorbed >= 10

    def test_step_must_divide_horizon(self):
        with pytest.raises(ValidationError):
            gi_integrate((np.array([[0.5, 0.5]]), np.array([0.0]),
                          np.array([1.0])),
                         GrowthInteraction(), 0.3, 0, 1.0)

    @pytest.mark.parametrize("step", [0.0, -0.1])
    def test_nonpositive_step_is_a_validation_error(self, step):
        with pytest.raises(ValidationError, match="step must divide"):
            gi_integrate((np.array([[0.5, 0.5]]), np.array([0.0]),
                          np.array([1.0])),
                         GrowthInteraction(), step, 0, 1.0)

    @pytest.mark.parametrize("spec", [
        dict(growth=("linear", 1.0)), dict(interaction=("gauss", 1.0)),
        dict(interaction=("gauss", 1.0, 0.0)), dict(interaction=("overlap",)),
        dict(noise=("const",)), dict(growth=("linear", 1.0, math.inf)),
        dict(noise=("const", math.inf)), dict(m0=math.inf),
        dict(interaction_cutoff=0.0)])
    def test_growth_parameters_are_checked(self, spec):
        with pytest.raises(ValidationError):
            GrowthInteraction(**spec)

    @pytest.mark.parametrize("build", [
        lambda: Wiener(math.inf),
        lambda: Geostatistical(kernel=("exponential", 1.0, 0.0, 0.3)),
        lambda: Geostatistical(kernel=("gaussian", 1.0, 0.3, math.inf))])
    def test_field_and_scale_parameters_are_checked(self, build):
        with pytest.raises(ValidationError):
            build()

    @pytest.mark.parametrize("grid", [[0.0, 0.1, 0.5, 1.0], [0.0, 0.25, 0.5]])
    def test_attach_needs_the_integration_grid(self, grid):
        # the marks are integrated on 0, dt, .., t_star with dt the grid's
        # first step, so any other grid would come back replaced
        temporal = Window((0, 0), (1, 1), t_star=1.0)
        locs = np.column_stack([ground_points(3)[0], [0.0, 0.2, 0.4]])
        with pytest.raises(ValidationError, match="growth-interaction mark "
                           "grid must divide the mark horizon"):
            attach_marks(temporal, locs, [AuxMark(continuous=(0.5,))] * 3,
                         GrowthInteraction(), np.array(grid), 1)

    def test_interaction_cutoff_drops_far_pairs(self):
        pts = (np.array([[0.1, 0.1], [0.9, 0.9]]), np.zeros(2),
               np.full(2, 9.0))
        interacting = gi_integrate(
            pts, GrowthInteraction(("linear", 1.0, 1.0), ("gauss", 0.5, 1.0)),
            0.01, 0, 1.0)
        cut = gi_integrate(
            pts, GrowthInteraction(("linear", 1.0, 1.0), ("gauss", 0.5, 1.0),
                                   interaction_cutoff=0.1), 0.01, 0, 1.0)
        isolated = gi_integrate(pts, GrowthInteraction(("linear", 1.0, 1.0)),
                                0.01, 0, 1.0)
        assert not np.allclose(interacting[0].values, isolated[0].values)
        np.testing.assert_allclose(cut[0].values, isolated[0].values)


class TestGeostatMarking:
    def test_memory_of_the_spatial_factor(self):
        # the location distances are summed one coordinate at a time and
        # squared in place: four n x n arrays at the peak, where an (n, n, d)
        # difference array formed first peaked at six
        n = 1500
        locs = np.random.default_rng(1).random((n, 2))
        model = Geostatistical(1.0, ("gaussian", 0.4, 0.3, 0.5))
        tracemalloc.start()
        try:
            geostat_marking(locs, model, np.linspace(0, 1, 21), 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * n * n * 8

    def test_zero_variance_gives_mean_surface(self):
        mean = lambda x, t: x[:, :1] + t
        paths = geostat_marking(np.array([[0.25, 0.5]]),
                                Geostatistical(mean, ("exponential", 0.0, 0.3)),
                                GRID, 0, 1.0)
        assert paths[0](0.5) == pytest.approx(0.75, abs=1e-9)

    def test_nearby_points_nearly_identical(self):
        locs = np.array([[0.5, 0.5], [0.5 + 1e-6, 0.5]])
        model = Geostatistical(0.0, ("gaussian", 1.0, 0.3, 0.3))
        a_vals, b_vals = [], []
        for seed in range(300):
            paths = geostat_marking(locs, model, np.linspace(0, 1, 6), seed, 1.0)
            a_vals.append(paths[0](0.4))
            b_vals.append(paths[1](0.4))
        assert np.corrcoef(a_vals, b_vals)[0, 1] > 0.99

    def test_separable_kernel_covariance(self):
        var, rho = 1.0, 0.4
        locs = np.array([[0.2, 0.5], [0.6, 0.5]])  # distance 0.4
        model = Geostatistical(0.0, ("exponential", var, rho, rho))
        a_vals, b_vals = [], []
        for seed in range(800):
            paths = geostat_marking(locs, model, np.linspace(0, 1, 4), seed, 1.0)
            a_vals.append(paths[0](0.0))
            b_vals.append(paths[1](0.0))
        cov = np.cov(a_vals, b_vals)[0, 1]
        target = var * np.exp(-0.4 / rho)
        se = np.sqrt((1 + target ** 2) / 800)
        assert abs(cov - target) < 3 * se

    def test_per_class_fields(self):
        locs = [[0.2, 0.2], [0.2001, 0.2]]
        auxs = [AuxMark(discrete=1), AuxMark(discrete=2)]
        model = Geostatistical(0.0, ("gaussian", 1.0, 0.3), per_class=True)
        a_vals, b_vals = [], []
        for seed in range(300):
            paths = attach_marks(UNIT, locs, auxs, model, np.linspace(0, 1, 4),
                                 seed)
            a_vals.append(paths[0](0.5))
            b_vals.append(paths[1](0.5))
        # different classes read different fields: essentially uncorrelated
        assert abs(np.corrcoef(a_vals, b_vals)[0, 1]) < 0.2


class TestIntensityDependentMarks:
    def test_constant_field_constant_marks(self):
        w = Window((0, 0), (1, 1))
        field, locs = simulate_lgcp(
            LogGaussianCox(np.log(20.0), ("exponential", 0.0, 0.2), (6, 6)),
            w, 5)
        paths = intensity_dependent_marking(field, locs, np.linspace(0, 1, 5))
        for p in paths:
            assert p(0.3) == pytest.approx(20.0)

    def test_same_cell_equal_marks(self):
        w = Window((0, 0), (1, 1))
        field, _ = simulate_lgcp(
            LogGaussianCox(1.0, ("exponential", 0.5, 0.3), (4, 4)), w, 8)
        locs = np.array([[0.1, 0.1], [0.11, 0.12]])  # same 1/4-cell
        paths = intensity_dependent_marking(field, locs, np.linspace(0, 1, 3))
        np.testing.assert_array_equal(paths[0].values, paths[1].values)

    def test_marks_track_local_counts(self):
        w = Window((0, 0), (1, 1))
        model = LogGaussianCox(np.log(30.0), ("exponential", 1.0, 0.3), (5, 5))
        mark_means, counts = [], []
        for seed in range(150):
            field, locs = simulate_lgcp(model, w, seed)
            if len(locs) == 0:
                continue
            paths = intensity_dependent_marking(field, locs,
                                                np.linspace(0, 1, 3))
            mark_means.append(np.mean([p(0.5) for p in paths]))
            counts.append(len(locs))
        assert np.corrcoef(mark_means, counts)[0, 1] > 0.0

    def test_outside_grid_errors(self):
        w = Window((0, 0), (1, 1))
        field, _ = simulate_lgcp(
            LogGaussianCox(1.0, ("exponential", 0.0, 0.2), (4, 4)), w, 0)
        with pytest.raises(ValidationError):
            intensity_dependent_marking(field, np.array([[2.0, 0.5]]),
                                        np.linspace(0, 1, 3))

    def test_needs_field(self):
        with pytest.raises(ValidationError):
            attach_marks(UNIT, *ground_points(1), IntensityDependent(), GRID, 0)

    @pytest.mark.parametrize("window", [UNIT, Window((0, 0), (1, 1), t_star=2.0)])
    def test_marks_carry_the_window_horizon(self, window):
        # like every other mark model: the window's t_star, or the last grid
        # time on a spatial window
        grid = np.linspace(0.0, 1.0, 5)
        shape = (3, 3, 2) if window.is_temporal else (3, 3)
        field, locs = simulate_lgcp(
            LogGaussianCox(4.0, ("gaussian", 0.3, 0.3), shape), window, 1)
        assert len(locs)
        auxs = [AuxMark(discrete=1)] * len(locs)
        want = window.t_star if window.is_temporal else 1.0
        for model in (IntensityDependent(field), Wiener(1.0),
                      Geostatistical(0.0, ("gaussian", 0.3, 0.3))):
            paths = attach_marks(window, locs, auxs, model, grid, 0)
            assert {p.t_star for p in paths} == {want}


class TestFidiDensities:
    def test_brownian_two_times(self):
        spec = brownian_fidi(1.0)
        val = fidi_density_eval(spec, SampleSchedule((1.0, 2.0)),
                                np.array([[0.0, 0.0]]))
        phi0 = 1.0 / np.sqrt(2 * np.pi)
        assert val == pytest.approx(phi0 * phi0)

    def test_single_time_is_marginal(self):
        spec = brownian_fidi(1.0)
        val = fidi_density_eval(spec, SampleSchedule((4.0,)), np.array([[1.0]]))
        assert val == pytest.approx(np.exp(-1.0 / 8) / np.sqrt(2 * np.pi * 4.0))

    def test_deterministic_sentinel(self):
        out = fidi_density_eval(deterministic_fidi(), SampleSchedule((1.0,)),
                                np.array([[0.5]]))
        assert out is DEGENERATE_DENSITY

    def test_brownian_integrates_to_one(self):
        spec = brownian_fidi(1.0)
        s = SampleSchedule((0.5, 1.0))
        u = np.linspace(-6, 6, 161)
        du = u[1] - u[0]
        total = 0.0
        for u1 in u:
            for u2 in u:
                total += fidi_density_eval(spec, s, np.array([[u1, u2]]))
        total *= du * du
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_specs_return_column_log_densities(self):
        spec = brownian_fidi(2.0)
        u = np.array([0.0, 1.0, -3.0])
        np.testing.assert_allclose(spec.initial(0.5, u),
                                   sps.norm.logpdf(u, 0.0, 2.0 * np.sqrt(0.5)),
                                   rtol=1e-14)
        np.testing.assert_allclose(spec.transition(1.5, 0.5, u, u[::-1]),
                                   sps.norm.logpdf(u, u[::-1], 2.0), rtol=1e-14)
        # two rows: the joint density is the product of the row densities
        rows = np.array([[0.3, 0.1], [-1.2, 0.4]])
        s = SampleSchedule((0.5, 1.5))
        assert fidi_density_eval(spec, s, rows) == pytest.approx(
            fidi_density_eval(spec, s, rows[:1]) * fidi_density_eval(spec, s, rows[1:]),
            rel=1e-14)

    def test_transition_order_enforced(self):
        spec = brownian_fidi(1.0)
        with pytest.raises(ValidationError):
            spec.transition(0.5, 1.0, np.array([0.0]), np.array([0.0]))


class TestAuxDensities:
    def test_uniform_types(self):
        spec = AuxDensitySpec(discrete_probs=np.array([0.5, 0.5]))
        val = aux_density_eval(spec, [[0.1, 0.2]], [AuxMark(discrete=2)])
        assert val == 0.5

    def test_independent_product(self):
        spec = AuxDensitySpec(discrete_probs=np.array([0.25, 0.75]))
        locs = np.array([[0.1, 0.2], [0.5, 0.5]])
        vals = [AuxMark(discrete=1), AuxMark(discrete=2)]
        assert aux_density_eval(spec, locs, vals) == pytest.approx(0.25 * 0.75)

    def test_exponential_lifetime_density(self):
        mu = 2.0
        spec = AuxDensitySpec(
            continuous_density=lambda g, l: mu * np.exp(-mu * l[:, 0]),
            measure=AuxMeasure("lebesgue", (0.0, np.inf)))
        val = aux_density_eval(spec, [[0.0, 0.0]], [AuxMark(continuous=(0.3,))])
        assert val == pytest.approx(mu * np.exp(-mu * 0.3))

    def test_density_normalizations(self, trapezoid):
        # discrete probs sum to one under the counting measure
        spec = AuxDensitySpec(discrete_probs=np.array([0.3, 0.7]))
        assert np.sum(spec.discrete_probs) == pytest.approx(1.0)
        # exponential lifetime density integrates to one under Lebesgue
        mu = 2.0
        ll = np.linspace(0, 20, 20001)
        assert trapezoid(mu * np.exp(-mu * ll), ll) == pytest.approx(1.0, abs=1e-6)

    def test_value_outside_range_rejected(self):
        spec = AuxDensitySpec(discrete_probs=np.array([0.5, 0.5]))
        with pytest.raises(ValidationError):
            aux_density_eval(spec, [[0.0, 0.0]], [AuxMark(discrete=3)])

    def test_location_dependent_types_one_call(self):
        # the callable sees the whole (n, D) ground array once and returns
        # (n, k); each point reads its own row
        calls = []

        def probs(g):
            calls.append(g.shape)
            return np.column_stack([g[:, 0], 1.0 - g[:, 0]])

        spec = AuxDensitySpec(discrete_probs=probs)
        locs = np.array([[0.1, 0.5], [0.25, 0.5], [0.8, 0.5]])
        vals = [AuxMark(discrete=1), AuxMark(discrete=2), AuxMark(discrete=2)]
        assert aux_density_eval(spec, locs, vals) == pytest.approx(
            0.1 * 0.75 * 0.2, rel=1e-15)
        assert calls == [(3, 2)]

    def test_missing_continuous_value_rejected(self):
        spec = AuxDensitySpec(continuous_density=lambda g, l: np.ones(len(g)),
                              measure=AuxMeasure("lebesgue", (0.0, 1.0)))
        with pytest.raises(ValidationError):
            aux_density_eval(spec, [[0.0, 0.0], [0.5, 0.5]],
                             [AuxMark(continuous=(0.3,)), AuxMark(discrete=1)])

    def test_joint_keyword_rejected(self):
        # the likelihoods treat aux marks as independent given the ground,
        # so there is no joint density to declare
        with pytest.raises(TypeError):
            AuxDensitySpec(joint=lambda locs, vals: 0.0)


class TestPathsRespectSupports:
    def test_all_generators_zero_outside_support(self):
        pts = (np.array([[0.2, 0.2], [0.7, 0.7]]), np.array([0.1, 0.4]),
               np.array([0.3, 0.2]))
        paths = gi_integrate(pts, GrowthInteraction(("linear", 1.0, 1.0),
                                                    m0=0.3), 0.01, 3, 1.0)
        for p in paths:
            a, b = p.support
            outside = (p.grid < a) | (p.grid >= b)
            assert np.all(p.values[outside] == 0.0)


class TestDiffusionMarks:
    def test_linear_drift_mean(self):
        from fmpp.marks import Diffusion
        # dM = -2 M dt + 0.3 dW from 1: E[M(t)] = exp(-2 t)
        model = Diffusion(drift=lambda m, t: -2.0 * m,
                          diffusion=lambda m, t: 0.3, m0=1.0)
        grid = np.linspace(0, 1, 101)
        vals = []
        for seed in range(400):
            paths = attach_marks(UNIT, *ground_points(1, seed), model, grid, seed)
            vals.append(paths[0](1.0))
        target = np.exp(-2.0)
        se = np.std(vals) / np.sqrt(len(vals))
        assert abs(np.mean(vals) - target) < 3 * se + 0.01  # EM step bias

    @pytest.mark.parametrize("seed", [3, 2014])
    def test_matrix_draw_matches_point_loop_bit_for_bit(self, seed):
        from fmpp.marks import Diffusion

        def drift(m, t):
            return 0.5 - m * t

        def diffusion(m, t):
            return 0.2 + 0.1 * abs(m)

        rng = np.random.default_rng(seed + 100)
        grid = np.concatenate([[0.0], np.sort(rng.random(7))])   # non-uniform
        locs, auxs = ground_points(5, seed)
        paths = attach_marks(UNIT, locs, auxs, Diffusion(drift, diffusion, 0.3),
                             grid, seed)
        # reference: one standard_normal(k - 1) draw per point
        stream = np.random.default_rng(seed)
        want = []
        for _ in range(5):
            vals = np.empty_like(grid)
            vals[0] = 0.3
            noise = stream.standard_normal(len(grid) - 1)
            for j in range(len(grid) - 1):
                dt = grid[j + 1] - grid[j]
                m = vals[j]
                vals[j + 1] = (m + drift(m, grid[j]) * dt
                               + diffusion(m, grid[j]) * np.sqrt(dt) * noise[j])
            want.append(vals.tobytes())
        assert [p.values.tobytes() for p in paths] == want

    def test_steps_every_row_at_once(self):
        # drift and diffusion see the (n,) column of marks: k - 1 calls each
        from fmpp.marks import Diffusion
        calls = []

        def drift(m, t):
            calls.append(m.shape)
            return -m

        grid = np.linspace(0, 1, 11)
        paths = attach_marks(UNIT, *ground_points(6), Diffusion(
            drift, lambda m, t: 0.1 * np.ones_like(m), 1.0), grid, 5)
        assert len(paths) == 6
        assert calls == [(6,)] * 10

    def test_zero_diffusion_is_deterministic(self):
        from fmpp.marks import Diffusion
        model = Diffusion(drift=lambda m, t: 1.0, diffusion=lambda m, t: 0.0,
                          m0=0.5)
        grid = np.linspace(0, 1, 51)
        paths = attach_marks(UNIT, *ground_points(1), model, grid, 7)
        assert paths[0](1.0) == pytest.approx(1.5, abs=1e-9)


# ---------------------------------------------------------------------------
# one value matrix per attachment
# ---------------------------------------------------------------------------
def wiener_loop(grid, n, scale, seed):
    """Wiener marks drawn one point at a time, each from its own
    standard_normal(k - 1) call on the shared stream."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        steps = np.sqrt(np.diff(grid)) * rng.standard_normal(len(grid) - 1)
        out.append(scale * np.concatenate([[0.0], np.cumsum(steps)]))
    return out


class TestValueMatrix:
    @pytest.mark.parametrize("seed", [0, 7, 2014])
    @pytest.mark.parametrize("scale", [1.3, 0.0])
    def test_wiener_matrix_draw_matches_point_loop_bit_for_bit(self, seed, scale):
        rng = np.random.default_rng(seed + 100)
        grid = np.concatenate([[0.0], np.sort(rng.random(30))])   # non-uniform
        locs, auxs = ground_points(25, seed)
        paths = attach_marks(UNIT, locs, auxs, Wiener(scale), grid, seed)
        want = wiener_loop(grid, 25, scale, seed)
        # tobytes tells -0.0 from 0.0, which scale 0 gives on negative sums
        assert [p.values.tobytes() for p in paths] == [v.tobytes() for v in want]
        assert all(p.support == (0.0, np.inf) and p.t_star == grid[-1]
                   for p in paths)

    def test_attached_paths_share_one_grid(self):
        locs, auxs = ground_points(6)
        temporal = Window((0, 0), (1, 1), t_star=1.0)
        births = np.linspace(0.0, 0.5, 6)
        lifetimes = [AuxMark(continuous=(0.4,))] * 6
        for paths in (
                attach_marks(UNIT, locs, auxs, Wiener(1.0), GRID, 1),
                attach_marks(UNIT, locs, auxs, Deterministic(("linear", 1.0, 2.0)),
                             GRID, 1),
                attach_marks(UNIT, locs, auxs,
                             Geostatistical(0.0, ("exponential", 1.0, 0.3)),
                             GRID, 1),
                attach_marks(temporal, np.column_stack([locs, births]), lifetimes,
                             GrowthInteraction(("linear", 1.0, 1.0)), GRID, 1)):
            assert len(paths) == 6
            assert all(p.grid is paths[0].grid for p in paths)
            assert paths[0].values is not paths[1].values

    def test_rows_equal_paths_built_one_by_one(self):
        grid = np.linspace(0.0, 1.0, 5)
        values = np.array([[0.0, 1.0, 2.0, 0.0, 0.0], [3.0, 4.0, 5.0, 6.0, 7.0]])
        supports = [(0.25, 0.75), (0.0, np.inf)]
        rows = CadlagPath.rows(grid, values, supports, "linear", 2.0)
        assert rows == [CadlagPath(grid, v, s, "linear", 2.0)
                        for v, s in zip(values, supports)]
        assert CadlagPath.rows(grid, np.empty((0, 5))) == []

    REJECTED = {
        "empty grid": ([], [], None, "step", None),
        "length mismatch": ([0.0, 0.5, 1.0], [0.0, 1.0], None, "step", None),
        "decreasing grid": ([0.0, 0.5, 0.25], [1.0, 1.0, 1.0], None, "step", None),
        "repeated grid time": ([0.0, 0.5, 0.5], [1.0, 1.0, 1.0], None, "step", None),
        "nan grid time": ([0.0, np.nan, 1.0], [1.0, 1.0, 1.0], None, "step", None),
        "nan value": ([0.0, 0.5, 1.0], [1.0, np.nan, 1.0], None, "step", None),
        "infinite value": ([0.0, 0.5, 1.0], [1.0, np.inf, 1.0], None, "step", None),
        "support end before start": ([0.0, 0.5, 1.0], [0.0, 0.0, 0.0], (0.6, 0.4),
                                     "step", None),
        "nan support": ([0.0, 0.5, 1.0], [0.0, 0.0, 0.0], (np.nan, 1.0),
                        "step", None),
        "grid beyond t_star": ([0.0, 0.5, 1.0], [1.0, 1.0, 1.0], None, "step", 0.9),
        "unknown mode": ([0.0, 0.5, 1.0], [1.0, 1.0, 1.0], None, "cubic", None),
        "nonzero before support": ([0.0, 0.5, 1.0], [1.0, 1.0, 1.0], (0.5, 2.0),
                                   "step", None),
        "nonzero at support end": ([0.0, 0.5, 1.0], [0.0, 1.0, 1.0], (0.5, 1.0),
                                   "step", None),
    }

    @pytest.mark.parametrize("case", sorted(REJECTED))
    def test_rows_rejects_what_init_rejects(self, case):
        grid, values, support, mode, t_star = self.REJECTED[case]
        with pytest.raises(ValidationError) as one:
            CadlagPath(grid, values, support, mode, t_star)
        supports = None if support is None else [support]
        with pytest.raises(ValidationError) as matrix:
            CadlagPath.rows(grid, [values], supports, mode, t_star)
        if len(grid) and len(grid) == len(values):
            assert str(matrix.value) == str(one.value)
            # the same defect in the middle row of three
            zeros = [0.0] * len(grid)
            supports = None if support is None else [support] * 3
            with pytest.raises(ValidationError, match=str(one.value)):
                CadlagPath.rows(grid, [zeros, values, zeros], supports, mode,
                                t_star)
