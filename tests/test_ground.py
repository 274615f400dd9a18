import numpy as np
import pytest
from scipy import stats as sps

from fmpp.core import AuxMark, SampleSchedule, Window
from fmpp.errors import NumericalError, ValidationError
from fmpp.ground import (
    HomogeneousPoisson,
    ImmigrationDeath,
    InhomogeneousPoisson,
    LogGaussianCox,
    PairwiseGibbs,
    observable_retention,
    simulate_gibbs,
    simulate_immigration_death,
    simulate_lgcp,
    simulate_poisson,
    thin,
)
from fmpp.marks import Deterministic, attach_marks, make_configuration

UNIT_SQUARE = Window((0, 0), (1, 1))


def as_config(locs, window=UNIT_SQUARE, value=1.0):
    grid = np.linspace(0, 1, 3)
    auxs = [AuxMark(discrete=1)] * len(locs)
    paths = attach_marks(window, locs, auxs, Deterministic(("constant", value)),
                         grid, 0)
    return make_configuration(window, locs, auxs, paths)


class TestPoisson:
    def test_zero_rate_empty(self):
        assert len(simulate_poisson(HomogeneousPoisson(0.0), UNIT_SQUARE, 0)) == 0

    def test_deterministic_given_seed(self):
        a = simulate_poisson(HomogeneousPoisson(50.0), UNIT_SQUARE, 9)
        b = simulate_poisson(HomogeneousPoisson(50.0), UNIT_SQUARE, 9)
        np.testing.assert_array_equal(a, b)
        c = simulate_poisson(HomogeneousPoisson(50.0), UNIT_SQUARE, 10)
        assert not np.array_equal(a, c)

    def test_mean_count(self):
        counts = [len(simulate_poisson(HomogeneousPoisson(100.0), UNIT_SQUARE, s))
                  for s in range(1000)]
        se = np.sqrt(100.0 / 1000)
        assert abs(np.mean(counts) - 100.0) < 3 * se

    def test_counts_chi_square_gof(self):
        counts = np.array([
            len(simulate_poisson(HomogeneousPoisson(100.0), UNIT_SQUARE, s))
            for s in range(1000)])
        lo, hi = 75, 126
        edges = list(range(lo, hi + 1))
        obs = np.array([np.sum(counts == k) for k in edges])
        obs = np.concatenate([[np.sum(counts < lo)], obs, [np.sum(counts > hi)]])
        probs = sps.poisson(100.0).pmf(edges)
        probs = np.concatenate([[sps.poisson(100.0).cdf(lo - 1)], probs,
                                [1 - sps.poisson(100.0).cdf(hi)]])
        # pool cells with small expected counts
        exp = 1000 * probs
        o_pool, e_pool = [], []
        acc_o = acc_e = 0.0
        for o, e in zip(obs, exp):
            acc_o += o
            acc_e += e
            if acc_e >= 5:
                o_pool.append(acc_o)
                e_pool.append(acc_e)
                acc_o = acc_e = 0.0
        o_pool[-1] += acc_o
        e_pool[-1] += acc_e
        stat = np.sum((np.array(o_pool) - np.array(e_pool)) ** 2 / np.array(e_pool))
        pval = 1 - sps.chi2(len(o_pool) - 1).cdf(stat)
        assert pval > 0.01

    def test_disjoint_halves_independent(self):
        left, right = [], []
        for s in range(600):
            locs = simulate_poisson(HomogeneousPoisson(100.0), UNIT_SQUARE, s)
            left.append(np.sum(locs[:, 0] < 0.5))
            right.append(np.sum(locs[:, 0] >= 0.5))
        cov = np.cov(left, right)[0, 1]
        se = 50.0 / np.sqrt(600)  # var of count products approx lam1*lam2
        assert abs(cov) < 3 * se

    def test_inhomogeneous_rejection(self):
        model = InhomogeneousPoisson(lambda g: 200.0 * g[:, 0], 200.0)
        locs = simulate_poisson(model, UNIT_SQUARE, 4)
        # more mass on the right half
        assert np.sum(locs[:, 0] > 0.5) > np.sum(locs[:, 0] < 0.5)

    def test_rejection_bound_breach_detected(self):
        model = InhomogeneousPoisson(lambda g: np.full(len(g), 300.0), 100.0)
        with pytest.raises(NumericalError):
            simulate_poisson(model, UNIT_SQUARE, 0)

    def test_outputs_simple(self):
        locs = simulate_poisson(HomogeneousPoisson(200.0), UNIT_SQUARE, 3)
        as_config(locs)  # simplicity enforced by the constructor


class TestLgcp:
    def test_zero_variance_reduces_to_poisson(self):
        model = LogGaussianCox(np.log(50.0), ("exponential", 0.0, 0.2), (8, 8))
        counts = [len(simulate_lgcp(model, UNIT_SQUARE, s)[1]) for s in range(400)]
        se = np.sqrt(50 / 400)
        assert abs(np.mean(counts) - 50.0) < 3 * se

    def test_lognormal_mean(self):
        sig2 = 0.5
        model = LogGaussianCox(0.0, ("exponential", sig2, 0.25), (10, 10))
        counts = [len(simulate_lgcp(model, UNIT_SQUARE, s)[1]) for s in range(500)]
        expect = np.exp(sig2 / 2)
        se = np.std(counts) / np.sqrt(len(counts))
        assert abs(np.mean(counts) - expect) < 3 * se

    def test_same_seed_identical(self):
        model = LogGaussianCox(2.0, ("gaussian", 0.3, 0.2), (6, 6))
        f1, l1 = simulate_lgcp(model, UNIT_SQUARE, 11)
        f2, l2 = simulate_lgcp(model, UNIT_SQUARE, 11)
        np.testing.assert_array_equal(f1.values, f2.values)
        np.testing.assert_array_equal(l1, l2)

    def test_indefinite_covariance_raises(self, monkeypatch):
        # eigenvalue -0.5 * variance: no jitter up to 1e-6 * variance repairs
        # it, and a larger one would replace the field with noise
        import fmpp.ground as ground

        def indefinite(model, centers, d_spatial):
            m = len(centers)
            return model.kernel[1] * (np.eye(m) - 1.5 * np.ones((m, m)) / m)

        monkeypatch.setattr(ground, "_covariance", indefinite)
        model = LogGaussianCox(2.0, ("gaussian", 0.3, 0.2), (6, 6))
        with pytest.raises(NumericalError):
            simulate_lgcp(model, UNIT_SQUARE, 0)

    def test_field_lookup(self):
        model = LogGaussianCox(np.log(3.0), ("exponential", 0.0, 0.2), (4, 4))
        field, _ = simulate_lgcp(model, UNIT_SQUARE, 0)
        assert field((0.1, 0.1)) == pytest.approx(3.0)
        with pytest.raises(ValidationError):
            field((5.0, 0.1))

    @pytest.mark.parametrize("window, grid", [
        (Window((0, 0), (1, 1), t_star=4.0), (4, 8, 2)),
        (Window((-0.3, 2.0), (0.7, 2.5), t_star=3.0), (5, 3, 7)),
        (Window((0.1, 0.0), (0.4, 1.0)), (3, 1)),
    ])
    def test_vectorised_lookup_matches_argmin_at_cell_edges(self, window, grid):
        # every cell edge and centre of each axis, combined over the axes:
        # one call over the (m, D) array takes the cell a per-axis argmin
        # takes, which is the first of two equally near centres
        field, _ = simulate_lgcp(LogGaussianCox(1.0, ("exponential", 0.0, 0.2),
                                                grid), window, 0)
        coords = []
        for ax, width, (lo, hi) in zip(field.axes, field.widths,
                                       window.ground_bounds):
            edges = np.concatenate([ax - 0.5 * width, ax + 0.5 * width, [lo, hi]])
            coords.append(np.concatenate([edges, ax]))
        pts = np.stack(np.meshgrid(*coords, indexing="ij"), -1).reshape(
            -1, len(grid))
        want = np.array([[int(np.argmin(np.abs(ax - c)))
                          for c, ax in zip(p, field.axes)] for p in pts])
        got = np.column_stack(field.cell_index(pts))
        np.testing.assert_array_equal(got, want)
        assert [field.cell_index(p) for p in pts[:50]] == [tuple(w) for w in
                                                          want[:50].tolist()]
        np.testing.assert_array_equal(field(pts), field.values[tuple(want.T)])
        # some edges are exactly as near to the centres on either side
        dists = [np.abs(ax[:, None] - c) for c, ax in zip(coords, field.axes)]
        assert sum(int(np.sum(np.sum(d == d.min(axis=0), axis=0) > 1))
                   for d in dists) > 0
        for bad in (window.ground_bounds[0][1] + field.widths[0], np.nan):
            out = pts[:3].copy()
            out[1, 0] = bad
            with pytest.raises(ValidationError):
                field.cell_index(out)

    @pytest.mark.parametrize("window, grid", [
        (Window((0, 0), (0.5, 1)), (1, 4)),
        (Window((0, 0), (0.5, 1), t_star=4.0), (4, 4, 1)),
    ])
    def test_one_cell_axis_spans_its_side(self, window, grid):
        # an axis of one cell spans its side, so the points stay in the
        # window and the mean count is the field times the ground volume
        model = LogGaussianCox(5.0, ("exponential", 0.0, 0.2), grid)
        lo, hi = np.asarray(window.ground_bounds).T
        counts = []
        for seed in range(200):
            field, locs = simulate_lgcp(model, window, seed)
            assert np.all((locs >= lo) & (locs <= hi))
            assert field.cell_volume == pytest.approx(
                window.ground_volume / np.prod(grid), rel=1e-12)
            counts.append(len(locs))
        expect = np.exp(5.0) * window.ground_volume
        se = np.std(counts) / np.sqrt(len(counts))
        assert abs(np.mean(counts) - expect) < 3 * se
        with pytest.raises(ValidationError):
            field(hi + 0.1)

    @pytest.mark.parametrize("window, grid", [
        (UNIT_SQUARE, (5, 4)),
        (Window((0, 0), (0.5, 1), t_star=4.0), (3, 4, 2)),
        (Window((0, 0), (0.5, 1), t_star=4.0), (4, 1, 3)),
    ])
    def test_points_match_per_cell_loop(self, window, grid):
        # the oracle replays the field and count draws, then places each
        # cell's points with its own uniform draw, one cell at a time
        model = LogGaussianCox(3.0, ("gaussian", 0.4, 0.3), grid)
        for seed in range(20):
            field, locs = simulate_lgcp(model, window, seed)
            rng = np.random.default_rng(seed)
            rng.standard_normal(field.values.size)
            counts = rng.poisson(field.values * field.cell_volume)
            pts = [np.asarray([ax[i] for ax, i in zip(field.axes, idx)])
                   + (rng.random((counts[idx], len(grid))) - 0.5) * field.widths
                   for idx in np.ndindex(counts.shape)]
            want = np.vstack(pts)
            assert locs.tobytes() == want.tobytes() and locs.shape == want.shape


class TestImmigrationDeath:
    def test_needs_temporal_window(self):
        with pytest.raises(ValidationError):
            simulate_immigration_death(ImmigrationDeath(5.0, 1.0), UNIT_SQUARE, 0)

    def test_mean_birth_count(self):
        w = Window((0, 0), (1, 1), t_star=10.0)
        ns = [len(simulate_immigration_death(ImmigrationDeath(5.0, 1.0), w, s)[1])
              for s in range(400)]
        se = np.sqrt(50 / 400)
        assert abs(np.mean(ns) - 50.0) < 3 * se

    def test_stationary_alive_mean(self):
        # alive count at t_star approaches arrival/death for long horizons
        w = Window((0, 0), (1, 1), t_star=30.0)
        alive = []
        for s in range(400):
            xs, births, lifetimes = simulate_immigration_death(
                ImmigrationDeath(4.0, 2.0), w, s)
            deaths = np.minimum(births + lifetimes, 30.0)
            alive.append(np.sum((births <= 29.999) & (deaths > 29.999)))
        se = np.std(alive) / np.sqrt(len(alive))
        assert abs(np.mean(alive) - 2.0) < 3 * se

    def test_huge_death_rate_kills_instantly(self):
        w = Window((0, 0), (1, 1), t_star=5.0)
        xs, births, lifetimes = simulate_immigration_death(
            ImmigrationDeath(10.0, 1e6), w, 1)
        assert np.all(lifetimes < 1e-3)


@pytest.mark.parametrize("build", [
    lambda: HomogeneousPoisson(np.inf),
    lambda: InhomogeneousPoisson(lambda g: np.ones(len(g)), np.inf),
    lambda: ImmigrationDeath(np.inf, 1.0),
    lambda: ImmigrationDeath(1.0, np.inf),
    lambda: LogGaussianCox(np.inf, ("exponential", 1.0, 0.2), (4, 4)),
    lambda: LogGaussianCox(1.0, ("exponential", np.inf, 0.2), (4, 4)),
    lambda: LogGaussianCox(1.0, ("exponential", 1.0, 0.0), (4, 4)),
    lambda: LogGaussianCox(1.0, ("gaussian", 1.0, 0.2, np.inf), (4, 4)),
    lambda: LogGaussianCox(1.0, ("gaussian", 1.0), (4, 4)),
    lambda: LogGaussianCox(1.0, ("exponential", 1.0, 0.2), (0, 8)),
])
def test_infinite_or_degenerate_parameters_rejected(build):
    # each would fail further in: rng.poisson of an infinite mean, a 0/0
    # correlation or a division by a zero cell count
    with pytest.raises(ValidationError):
        build()


class TestGibbs:
    def test_gamma_above_one_rejected(self):
        with pytest.raises(ValidationError):
            PairwiseGibbs(10.0, 1.2, 0.1)

    @pytest.mark.parametrize("args", [
        (np.nan, 0.5, 0.05), (np.inf, 0.5, 0.05), (-np.inf, 0.5, 0.05),
        (50.0, np.nan, 0.05), (50.0, 0.5, np.nan), (50.0, 0.5, 0.05, np.nan),
    ])
    def test_nan_and_infinite_parameters_rejected(self, args):
        # NaN fails every comparison, so a check like beta <= 0 let it pass
        with pytest.raises(ValidationError):
            PairwiseGibbs(*args)

    def test_hard_core_no_close_pairs(self):
        pts = simulate_gibbs(PairwiseGibbs(50.0, 0.0, 0.1), UNIT_SQUARE,
                             20000, 7)
        if len(pts) > 1:
            d = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
            np.testing.assert_array_less(0.1, d[np.triu_indices(len(pts), 1)])

    def test_gamma_one_is_poisson_mean(self):
        counts = [len(simulate_gibbs(PairwiseGibbs(50.0, 1.0, 0.05),
                                     UNIT_SQUARE, 15000, s)) for s in range(60)]
        se = np.std(counts) / np.sqrt(len(counts))
        assert abs(np.mean(counts) - 50.0) < 3 * se

    def test_gamma_one_matches_poisson_distribution(self):
        gibbs_counts, gibbs_nn = [], []
        pois_counts, pois_nn = [], []
        for s in range(120):
            g = simulate_gibbs(PairwiseGibbs(40.0, 1.0, 0.05), UNIT_SQUARE,
                               12000, s)
            p = simulate_poisson(HomogeneousPoisson(40.0), UNIT_SQUARE, 9000 + s)
            gibbs_counts.append(len(g))
            pois_counts.append(len(p))
            for pts, acc in ((g, gibbs_nn), (p, pois_nn)):
                if len(pts) > 1:
                    d = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
                    np.fill_diagonal(d, np.inf)
                    acc.extend(d.min(axis=1).tolist())
        assert sps.ks_2samp(gibbs_counts, pois_counts).pvalue > 0.01
        assert sps.ks_2samp(gibbs_nn, pois_nn).pvalue > 0.01

    def test_matches_independent_chain(self):
        """Second, structurally different MCMC over the same density."""
        beta, gamma, R = 50.0, 0.5, 0.05

        def independent_chain(seed, steps=9000, p_birth=0.35):
            # asymmetric birth/death proposal mix, detailed balance against
            # beta^n gamma^(pairs) wrt the unit-rate Poisson on the unit square
            rng = np.random.default_rng(seed)
            # the state is pts[:n], in insertion order
            pts = np.empty((steps, 2))
            n = 0
            for _ in range(steps):
                if rng.random() < p_birth:
                    x = rng.random(2)
                    cnt = np.sum(np.hypot(x[0] - pts[:n, 0], x[1] - pts[:n, 1])
                                 <= R)
                    accept = (beta * gamma ** cnt * (1 - p_birth)
                              / ((n + 1) * p_birth))
                    if rng.random() < min(1.0, accept):
                        pts[n] = x
                        n += 1
                elif n:
                    i = rng.integers(n)
                    x = pts[i]
                    # the point itself sits at distance 0
                    cnt = np.sum(np.hypot(x[0] - pts[:n, 0], x[1] - pts[:n, 1])
                                 <= R) - 1
                    accept = (n * p_birth
                              / (beta * gamma ** cnt * (1 - p_birth)))
                    if rng.random() < min(1.0, accept):
                        pts[i:n - 1] = pts[i + 1:n]
                        n -= 1
            return pts[:n].copy()

        ours, theirs = [], []
        ours_pairs, theirs_pairs = [], []
        for s in range(50):
            a = simulate_gibbs(PairwiseGibbs(beta, gamma, R), UNIT_SQUARE,
                               12000, s)
            b = independent_chain(5000 + s)
            ours.append(len(a))
            theirs.append(len(b))
            for pts, acc in ((a, ours_pairs), (b, theirs_pairs)):
                if len(pts) > 1:
                    d = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
                    acc.append(np.sum(d[np.triu_indices(len(pts), 1)] <= R))
        assert sps.ks_2samp(ours, theirs).pvalue > 0.01
        assert sps.ks_2samp(ours_pairs, theirs_pairs).pvalue > 0.01


class TestThin:
    def _config(self, seed, rate=100.0):
        return as_config(simulate_poisson(HomogeneousPoisson(rate),
                                          UNIT_SQUARE, seed))

    def test_keep_all(self):
        c = self._config(0)
        assert len(thin(c, lambda c: np.ones(len(c)), 1)) == len(c)

    def test_drop_all(self):
        c = self._config(0)
        assert len(thin(c, lambda c: np.zeros(len(c)), 1)) == 0

    def test_half_retention_halves_intensity(self):
        counts = [len(thin(self._config(s), lambda c: np.full(len(c), 0.5),
                           10_000 + s))
                  for s in range(500)]
        se = np.sqrt(50.0 / 500)
        assert abs(np.mean(counts) - 50.0) < 3 * se

    def test_composition_equals_product(self):
        pq_counts, direct_counts = [], []
        for s in range(500):
            c = self._config(s)
            pq = thin(thin(c, lambda c: np.full(len(c), 0.6), 20_000 + s),
                      lambda c: np.full(len(c), 0.5), 30_000 + s)
            direct = thin(c, lambda c: np.full(len(c), 0.3), 40_000 + s)
            pq_counts.append(len(pq))
            direct_counts.append(len(direct))
        se = np.sqrt(np.var(pq_counts) / 500 + np.var(direct_counts) / 500)
        assert abs(np.mean(pq_counts) - np.mean(direct_counts)) < 3 * se

    def test_matches_one_draw_per_point(self):
        c = self._config(3)
        rng = np.random.default_rng(7)
        want = [i for i, p in enumerate(c.points) if rng.random() < p.x[0]]
        np.testing.assert_array_equal(thin(c, lambda c: c.ground[:, 0], 7).ground,
                                      c.ground[want])

    def test_retention_out_of_range_rejected(self):
        c = self._config(0)
        with pytest.raises(ValidationError):
            thin(c, lambda c: np.full(len(c), 1.5), 0)


class TestObservableRetention:
    def _point_with_support(self, a, b):
        """A one-point configuration whose mark has support [a, b)."""
        grid = np.linspace(0, 1, 11)
        vals = np.where((grid >= a) & (grid < b), 1.0, 0.0)
        from fmpp.core import CadlagPath
        path = CadlagPath(grid, vals, (a, b), "step", 1.0)
        return make_configuration(UNIT_SQUARE, [[0.5, 0.5]],
                                  [AuxMark(discrete=1)], [path])

    def test_support_hit(self):
        r = observable_retention(SampleSchedule((0.5,)))
        assert r(self._point_with_support(0.2, 0.8)).tolist() == [1.0]

    def test_support_missed(self):
        r = observable_retention(SampleSchedule((0.5,)))
        assert r(self._point_with_support(0.2, 0.4)).tolist() == [0.0]

    def test_left_endpoint_closed(self):
        r = observable_retention(SampleSchedule((0.5,)))
        assert r(self._point_with_support(0.5, 0.6)).tolist() == [1.0]
        assert r(self._point_with_support(0.4, 0.5)).tolist() == [0.0]


class TestSpatioTemporalGibbs:
    def test_cylinder_hard_core(self):
        wt = Window((0, 0), (1, 1), t_star=1.0)
        model = PairwiseGibbs(80.0, 0.0, 0.15, temporal_range=0.2)
        pts = simulate_gibbs(model, wt, 20000, 11)
        assert len(pts) > 0
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                ds = np.hypot(pts[i, 0] - pts[j, 0], pts[i, 1] - pts[j, 1])
                dt = abs(pts[i, 2] - pts[j, 2])
                assert not (ds <= 0.15 and dt <= 0.2)

    def test_temporal_window_needs_temporal_range(self):
        wt = Window((0, 0), (1, 1), t_star=1.0)
        with pytest.raises(ValidationError):
            simulate_gibbs(PairwiseGibbs(10.0, 0.5, 0.1), wt, 100, 0)


class TestTemporalLgcp:
    def test_space_time_field_mean_count(self):
        wt = Window((0,), (1,), t_star=1.0)
        sig2 = 0.4
        model = LogGaussianCox(np.log(30.0), ("exponential", sig2, 0.3, 0.3),
                               (6, 6))
        counts = [len(simulate_lgcp(model, wt, s)[1]) for s in range(300)]
        expect = 30.0 * np.exp(sig2 / 2)
        se = np.std(counts) / np.sqrt(len(counts))
        assert abs(np.mean(counts) - expect) < 3 * se

    def test_field_lookup_uses_time_axis(self):
        wt = Window((0,), (1,), t_star=1.0)
        model = LogGaussianCox(lambda g: g[:, -1],
                               ("exponential", 0.0, 0.3, 0.3), (4, 4))
        field, _ = simulate_lgcp(model, wt, 0)
        early = field((0.5, 0.125))
        late = field((0.5, 0.875))
        assert late > early
