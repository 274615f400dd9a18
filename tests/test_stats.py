import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from fmpp.core import AuxMark, CadlagPath, SampleSchedule, Window, midpoint_rule
from fmpp.errors import NumericalError, ValidationError
from fmpp.ground import HomogeneousPoisson, PairwiseGibbs, simulate_gibbs, simulate_poisson
from fmpp.marks import Deterministic, Wiener, attach_marks, make_configuration
from fmpp.stats import (
    CheckReport,
    VariogramModel,
    campbell_check,
    fit_variogram,
    gnz_check,
    intensity_estimate,
    kriging_predict,
    kriging_weights,
    pcf_ground,
    pcf_mark_sampled,
    trace_variogram,
)
from fmpp import _kernels, stats
from fmpp.core import shift

W = Window((0, 0), (1, 1))
GRID = np.linspace(0, 1, 6)


def poisson_config(seed, rate=200.0, window=W, mark_value=1.0):
    locs = simulate_poisson(HomogeneousPoisson(rate), window, seed)
    auxs = [AuxMark(discrete=1)] * len(locs)
    paths = attach_marks(window, locs, auxs, Deterministic(("constant", mark_value)),
                         GRID, seed)
    return make_configuration(window, locs, auxs, paths)


class TestIntensityEstimate:
    def test_box_mass_conservation_exact(self):
        c = poisson_config(0)
        s = intensity_estimate(c, cells=8)
        assert s.integral() == float(len(c))

    @pytest.mark.parametrize("cells, shape", [(np.int64(8), (8, 8)),
                                              ((8, 5), (8, 5))])
    def test_cell_count_for_every_axis_or_per_axis(self, cells, shape):
        c = poisson_config(0)
        for mode in ("box", "kernel"):
            s = intensity_estimate(c, cells, mode, bandwidth=0.2)
            assert s.values.shape == shape
        assert intensity_estimate(c, cells).integral() == float(len(c))

    def test_empty_configuration(self):
        c = make_configuration(W, [], [], [])
        s = intensity_estimate(c, cells=4)
        assert np.all(s.values == 0.0)

    def test_single_point_single_cell(self):
        locs = np.array([[0.1, 0.1]])
        auxs = [AuxMark(discrete=1)]
        paths = attach_marks(W, locs, auxs, Deterministic(("constant", 1.0)),
                             GRID, 0)
        c = make_configuration(W, locs, auxs, paths)
        s = intensity_estimate(c, cells=4)
        vals = s.values
        assert vals[0, 0] == pytest.approx(16.0)  # 1 / (0.25 * 0.25)
        assert np.sum(vals > 0) == 1

    @pytest.mark.parametrize("cells", [0, -2, (4, 0)])
    def test_cell_count_below_one_rejected(self, cells):
        with pytest.raises(ValidationError, match="cell counts"):
            intensity_estimate(poisson_config(0), cells)

    @pytest.mark.parametrize("cells", [2.5, 8.0, True, (4, 2.5), (4, True), "8"])
    def test_cell_count_not_an_integer_rejected(self, cells):
        with pytest.raises(ValidationError, match="cells must be integer"):
            intensity_estimate(poisson_config(0), cells)

    def test_spatial_mean_unbiased(self):
        means = [np.mean(intensity_estimate(poisson_config(s, 100.0), 4).values)
                 for s in range(200)]
        se = np.std(means) / np.sqrt(len(means))
        assert abs(np.mean(means) - 100.0) < 3 * se


class TestPcfGround:
    LAGS = np.linspace(0.05, 0.2, 7)

    def test_poisson_near_one(self):
        vals = np.mean([pcf_ground(poisson_config(s), self.LAGS).values
                        for s in range(100)], axis=0)
        assert np.all(np.abs(vals - 1.0) < 0.05)

    def test_hard_core_vanishes_below_range(self):
        pts = simulate_gibbs(PairwiseGibbs(200.0, 0.0, 0.1), W, 30000, 3)
        auxs = [AuxMark(discrete=1)] * len(pts)
        paths = attach_marks(W, pts, auxs, Deterministic(("constant", 1.0)),
                             GRID, 0)
        c = make_configuration(W, pts, auxs, paths)
        est = pcf_ground(c, np.array([0.03, 0.05]), bandwidth=0.02)
        assert np.all(est.values < 0.05)

    def test_two_points_support_near_their_distance(self):
        locs = np.array([[0.4, 0.5], [0.6, 0.5]])  # distance 0.2
        auxs = [AuxMark(discrete=1)] * 2
        paths = attach_marks(W, locs, auxs, Deterministic(("constant", 1.0)),
                             GRID, 0)
        c = make_configuration(W, locs, auxs, paths)
        est = pcf_ground(c, np.array([0.1, 0.2, 0.3]), bandwidth=0.05)
        assert est.values[1] > 0
        assert est.values[0] == 0 and est.values[2] == 0

    def test_too_few_points(self):
        c = make_configuration(W, [], [], [])
        with pytest.raises(ValidationError):
            pcf_ground(c, self.LAGS)

    def test_lag_bound(self):
        with pytest.raises(ValidationError):
            pcf_ground(poisson_config(0), np.array([0.6]))

    @pytest.mark.parametrize("bandwidth", [0.0, -0.02, math.nan, math.inf])
    def test_bandwidth_not_positive_and_finite_rejected(self, bandwidth):
        with pytest.raises(ValidationError, match="bandwidth"):
            pcf_ground(poisson_config(0), self.LAGS, bandwidth)

    @pytest.mark.parametrize("lags", [[0.1, math.nan], [math.inf], [-math.inf, 0.1],
                                      [[0.05, 0.1], [0.15, 0.2]], 0.1, []])
    def test_lags_not_finite_or_not_1d_rejected(self, lags):
        # a NaN lag passed every bound check and made the reach NaN, which
        # zeroed every value, the finite lags' too
        with pytest.raises(ValidationError, match="lags"):
            pcf_ground(poisson_config(0), lags)
        with pytest.raises(ValidationError, match="lags"):
            pcf_mark_sampled(poisson_config(0), SampleSchedule((0.5,)), lags)

    def test_torus_shift_invariance_exact(self):
        wt = Window((0, 0), (1, 1), torus=True)
        c = poisson_config(5, 100.0, wt)
        est = pcf_ground(c, self.LAGS, 0.05)
        est2 = pcf_ground(shift(c, (0.37, 0.61)), self.LAGS, 0.05)
        np.testing.assert_allclose(est.values, est2.values, rtol=1e-9)


class TestPcfMarkSampled:
    LAGS = np.linspace(0.05, 0.2, 4)

    def test_constant_marks_identical_to_ground(self):
        c = poisson_config(3, mark_value=2.5)
        ground = pcf_ground(c, self.LAGS, 0.05)
        marked = pcf_mark_sampled(c, SampleSchedule((0.5,)), self.LAGS, 0.05,
                                  test=lambda u: u[:, 0])["weighted"]
        np.testing.assert_array_equal(ground.values, marked.values)

    def test_random_labelling_matches_ground(self):
        diffs = []
        for seed in range(60):
            locs = simulate_poisson(HomogeneousPoisson(150.0), W, seed)
            auxs = [AuxMark(discrete=1)] * len(locs)
            paths = attach_marks(W, locs, auxs, Wiener(1.0), np.linspace(0, 1, 11),
                                 seed)
            c = make_configuration(W, locs, auxs, paths)
            g = pcf_ground(c, self.LAGS, 0.05).values
            m = pcf_mark_sampled(c, SampleSchedule((0.5,)), self.LAGS, 0.05,
                                 test=lambda u: u[:, 0] ** 2)["weighted"].values
            diffs.append(m - g)
        mean_diff = np.mean(diffs, axis=0)
        se = np.std(diffs, axis=0) / math.sqrt(len(diffs))
        assert np.all(np.abs(mean_diff) < 3 * np.maximum(se, 1e-12))

    def test_separated_classes_cross_pcf_vanishes(self):
        # class 1 on the left strip, class 2 on the right: no cross pairs
        # closer than the strip gap
        rng = np.random.default_rng(0)
        left = np.column_stack([rng.random(40) * 0.3, rng.random(40)])
        right = np.column_stack([0.7 + rng.random(40) * 0.3, rng.random(40)])
        locs = np.vstack([left, right])
        labels = [1] * 40 + [2] * 40
        auxs = [AuxMark(discrete=l) for l in labels]
        paths = attach_marks(W, locs, auxs, Deterministic(("constant", 1.0)),
                             GRID, 0)
        c = make_configuration(W, locs, auxs, paths)
        out = pcf_mark_sampled(c, SampleSchedule((0.5,)),
                               np.array([0.05, 0.15]), 0.04,
                               classes=lambda c: [a.discrete for a in c.auxs])
        np.testing.assert_array_equal(out[(1, 2)].values, 0.0)
        assert np.any(out[(1, 1)].values > 0)

    def test_independent_classes_cross_pcf_near_one(self):
        # two independently thinned halves of a Poisson pattern: all class
        # estimates are flat at one
        rng_cls = np.random.default_rng(77)
        accum = {}
        for seed in range(80):
            locs = simulate_poisson(HomogeneousPoisson(200.0), W, seed)
            labels = rng_cls.integers(1, 3, size=len(locs))
            auxs = [AuxMark(discrete=int(l)) for l in labels]
            paths = attach_marks(W, locs, auxs, Deterministic(("constant", 1.0)),
                                 GRID, seed)
            c = make_configuration(W, locs, auxs, paths)
            out = pcf_mark_sampled(c, SampleSchedule((0.5,)), self.LAGS, 0.05,
                                   classes=lambda c: [a.discrete for a in c.auxs])
            for key, est in out.items():
                accum.setdefault(key, []).append(est.values)
        for key, vals in accum.items():
            pooled = np.mean(vals, axis=0)
            assert np.all(np.abs(pooled - 1.0) < 0.1), (key, pooled)

    def test_schedule_outside_horizon(self):
        c = poisson_config(0)
        with pytest.raises(ValidationError):
            pcf_mark_sampled(c, SampleSchedule((2.0,)), self.LAGS)


class TestTraceVariogram:
    def curves_iid(self, seed, n=25, sigma=1.0, k=11):
        """(locations, mark table) of n iid curves at uniform locations."""
        rng = np.random.default_rng(seed)
        grid = np.linspace(0, 2, k)
        locs, vals = [], []
        for _ in range(n):
            vals.append(sigma * rng.standard_normal(k))
            locs.append(rng.random(2))
        return np.array(locs), CadlagPath.rows(grid, np.array(vals), None,
                                               "step", 2.0)

    @pytest.mark.parametrize("bins", [0, -3, [0.5]])
    def test_fewer_than_one_bin_rejected(self, bins):
        with pytest.raises(ValidationError, match="bin"):
            trace_variogram(*self.curves_iid(1), bins)

    @pytest.mark.parametrize("bins", [2.5, 3.0, True, np.float64(4.0), "4"])
    def test_bin_count_not_an_integer_rejected(self, bins):
        # 2.5 used to run with 2 bins and True with 1
        with pytest.raises(ValidationError, match="bins must be an integer"):
            trace_variogram(*self.curves_iid(1), bins)

    def test_numpy_integer_bin_count(self):
        curves = self.curves_iid(1)
        a = trace_variogram(*curves, np.int64(4))
        b = trace_variogram(*curves, 4)
        np.testing.assert_array_equal(a.bin_edges, b.bin_edges)
        np.testing.assert_array_equal(a.values, b.values)

    @pytest.mark.parametrize("edges", [[0.0, 0.5, 0.2, 1.0], [0.0, math.nan, 1.0],
                                       [0.0, 0.5, 0.5, 1.0], [math.nan, 1.0],
                                       [1.0, 0.0]])
    def test_edges_not_strictly_increasing_rejected(self, edges):
        # on these 50 curves [0, 0.5, 0.2, 1] counted [158, 0, 1051] pairs
        # and [0, nan, 1] counted [1209, 0]
        with pytest.raises(ValidationError, match="increasing"):
            trace_variogram(*self.curves_iid(1, n=50), np.array(edges))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_location_rejected(self, bad):
        locs, marks = self.curves_iid(1)
        locs[3, 1] = bad
        with pytest.raises(ValidationError, match="finite"):
            trace_variogram(locs, marks)
        with pytest.raises(ValidationError, match="finite"):
            kriging_predict(locs, marks, np.array([0.5, 0.5]),
                            VariogramModel("exponential", 0.0, 1.0, 0.3))

    def test_matches_per_bin_loop(self):
        # reference: dense distance and difference matrices, one mask per bin
        locs, marks = self.curves_iid(5, n=40)
        edges = np.array([0.1, 0.25, 0.4, 0.55, 0.7])   # excludes some pairs
        V, grid = marks.values, marks.grid
        wts = np.zeros(grid.size)
        wts[:-1] += 0.5 * np.diff(grid)
        wts[1:] += 0.5 * np.diff(grid)
        S = (V * wts) @ V.T
        D = 0.5 * (np.diag(S)[:, None] + np.diag(S)[None, :] - 2.0 * S)
        H = np.sqrt(np.sum((locs[:, None, :] - locs[None, :, :]) ** 2, axis=-1))
        iu = np.triu_indices(len(marks), k=1)
        h, d = H[iu], D[iu]
        assert np.any(h < edges[0]) and np.any(h > edges[-1])
        idx = np.clip(np.searchsorted(edges, h, side="right") - 1, 0, len(edges) - 2)
        values = np.zeros(len(edges) - 1)
        counts = np.zeros(len(edges) - 1, dtype=int)
        for k in range(len(edges) - 1):
            mask = (idx == k) & (h >= edges[0]) & (h <= edges[-1])
            counts[k] = int(np.sum(mask))
            if counts[k]:
                values[k] = float(np.mean(d[mask]))
        est = trace_variogram(locs, marks, bins=edges)
        np.testing.assert_array_equal(est.counts, counts)
        np.testing.assert_allclose(est.values, values, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("bins", [None, 7, np.array([0.1, 0.25, 0.4, 0.7])])
    def test_row_blocks_match_one_block(self, monkeypatch, bins):
        curves = self.curves_iid(6, n=40)
        whole = trace_variogram(*curves, bins)
        # 7 rows per block: five full blocks and a last one of 5 rows
        monkeypatch.setattr(_kernels, "_BLOCK_ENTRIES", 7 * 40)
        blocked = trace_variogram(*curves, bins)
        np.testing.assert_array_equal(blocked.bin_edges, whole.bin_edges)
        np.testing.assert_array_equal(blocked.counts, whole.counts)
        np.testing.assert_allclose(blocked.values, whole.values, rtol=1e-12, atol=0)

    def test_default_bins_at_edges_and_at_hmax(self):
        # points on a line at 0, at every inner default edge, one float either
        # side of it, and at hmax; the edges follow from hmax alone
        # at hmax 1.3 the plain quotient misses both ways
        hmax, nbins = 1.3, 15
        edges = np.linspace(0.0, hmax * (1 + 1e-12), nbins + 1)
        xs = np.unique(np.concatenate([
            [0.0, hmax], edges[1:-1], np.nextafter(edges[1:-1], 0.0),
            np.nextafter(edges[1:-1], 1.0)]))
        rng = np.random.default_rng(9)
        grid = np.linspace(0, 1, 4)
        locs = np.column_stack([xs, np.zeros_like(xs)])
        marks = CadlagPath.rows(grid, rng.standard_normal((len(xs), 4)), None,
                                "step", 1.0)
        est = trace_variogram(locs, marks, nbins)
        np.testing.assert_array_equal(est.bin_edges, edges)
        h = np.abs(xs[:, None] - xs[None, :])[np.triu_indices(len(xs), k=1)]
        assert np.isin(edges[1:-1], h).all() and hmax in h
        idx = np.clip(np.searchsorted(edges, h, side="right") - 1, 0, nbins - 1)
        np.testing.assert_array_equal(est.counts,
                                      np.bincount(idx, minlength=nbins))

    def test_equal_width_bin_index_matches_searchsorted(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            top = rng.random() * 10.0 ** rng.integers(-6, 7)
            edges = np.linspace(0.0, top, int(rng.integers(1, 500)) + 1)
            h = np.concatenate([edges, np.nextafter(edges, np.inf),
                                np.nextafter(edges, -np.inf), rng.random(200) * top])
            h = h[(h >= 0.0) & (h <= top)]
            np.testing.assert_array_equal(
                stats._equal_bin_index(edges, h),
                np.searchsorted(edges, h, side="right") - 1)

    def test_coincident_locations_fill_the_last_default_bin(self):
        # every default edge is 0, as is every distance
        grid = np.linspace(0, 1, 3)
        marks = CadlagPath.rows(grid, [[1.0, 2.0, 3.0], [0.0, 2.0, 3.0],
                                       [1.0, 1.0, 1.0]])
        est = trace_variogram(np.full((3, 2), 0.5), marks)
        np.testing.assert_array_equal(est.counts, [0] * 14 + [3])

    def test_memory_below_one_dense_pair_matrix(self):
        # one dense n x n float64 matrix takes 8 n^2 bytes
        n = 2000
        locs, marks = self.curves_iid(8, n=n, k=101)
        tracemalloc.start()
        try:
            trace_variogram(locs, marks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n

    def test_identical_curves_zero(self):
        grid = np.linspace(0, 1, 5)
        est = trace_variogram([(0.0, 0.0), (0.5, 0.5), (0.2, 0.8)],
                              CadlagPath.rows(grid, np.ones((3, 5)), None,
                                              "step", 1.0), bins=3)
        assert np.all(est.values == 0.0)

    def test_constant_offset_pair(self):
        grid = np.linspace(0, 2, 21)
        marks = CadlagPath.rows(grid, [np.zeros(21), np.full(21, 3.0)], None,
                                "step", 2.0)
        est = trace_variogram([(0.0, 0.0), (0.4, 0.0)], marks,
                              bins=np.array([0.0, 1.0]))
        assert est.values[0] == pytest.approx(0.5 * 9.0 * 2.0)
        assert est.counts[0] == 1

    def test_iid_curves_flat_at_sigma2_T(self):
        # E[gamma(h)] = sigma^2 * |T| for iid curves at any distance
        vals = []
        for seed in range(60):
            est = trace_variogram(*self.curves_iid(seed), bins=3)
            vals.append(est.values)
        vals = np.asarray(vals)
        target = 1.0 * 2.0
        means = vals.mean(axis=0)
        ses = vals.std(axis=0) / math.sqrt(len(vals))
        assert np.all(np.abs(means - target) < 3 * ses)

    def test_pair_order_symmetric(self):
        locs, marks = self.curves_iid(3, n=10)
        a = trace_variogram(locs, marks, bins=4)
        b = trace_variogram(locs[::-1], marks.take(slice(None, None, -1)),
                            bins=4)
        np.testing.assert_allclose(np.sort(a.values), np.sort(b.values),
                                   atol=1e-12)

    def test_common_curve_invariance(self):
        locs, marks = self.curves_iid(4, n=8)
        shifted = CadlagPath.rows(marks.grid, marks.values + np.sin(marks.grid),
                                  None, "step", 2.0)
        a = trace_variogram(locs, marks, bins=4)
        b = trace_variogram(locs, shifted, bins=4)
        np.testing.assert_allclose(a.values, b.values, atol=1e-10)

    def test_requires_two_curves(self):
        with pytest.raises(ValidationError):
            trace_variogram(*self.curves_iid(0, n=1))

    def test_empty_bins_flagged(self):
        grid = np.linspace(0, 1, 4)
        marks = CadlagPath.rows(grid, np.ones((2, 4)), None, "step", 1.0)
        est = trace_variogram([(0.0, 0.0), (0.1, 0.0)], marks,
                              bins=np.array([0.0, 0.05, 0.2]))
        assert est.counts[0] == 0 and est.counts[1] == 1


class TestLargestDistance:
    """The pruned search of the default variogram edges against the root of
    the largest entry of the whole distance matrix, to the bit."""

    @staticmethod
    def brute(locs):
        dx = locs[:, None, :] - locs[None, :, :]
        return math.sqrt(np.max(np.sum(dx * dx, axis=-1)))

    @staticmethod
    def circle(n, rng):
        # every point is as far from the centroid as the pair is apart
        # halved, so every point is a candidate
        theta = np.sort(rng.random(n)) * 2.0 * np.pi
        return 2.5 * np.column_stack([np.cos(theta), np.sin(theta)]) + 0.3

    @pytest.mark.parametrize("make", [
        lambda rng: rng.random((500, 2)),
        lambda rng: rng.random((400, 2)) * 1e-9 + 1e6,
        lambda rng: TestLargestDistance.circle(300, rng),
        lambda rng: np.outer(rng.random(200), [0.6, -0.8]),
        lambda rng: np.full((50, 2), 0.25),
        lambda rng: np.vstack([np.full((30, 2), 0.5), [[0.5, 0.75]]]),
        lambda rng: rng.random((100, 1)),
        lambda rng: rng.random((300, 3)),
        lambda rng: rng.integers(-2, 3, (120, 3)).astype(float),
        lambda rng: rng.random((2, 2)),
    ], ids=["uniform", "uniform-far", "circle", "collinear", "coincident",
            "coincident-and-one", "1-d", "3-d", "lattice-ties", "two"])
    def test_matches_the_whole_matrix(self, make, monkeypatch):
        locs = make(np.random.default_rng(21))
        want = self.brute(locs)
        assert stats._largest_distance(locs) == want
        # a small block budget splits the candidates into several blocks
        monkeypatch.setattr(_kernels, "_BLOCK_ENTRIES", 64)
        assert stats._largest_distance(locs) == want

    def test_overflow_keeps_every_point(self):
        locs = np.array([[-1e200, 0.0], [1e200, 0.0], [0.0, 1.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            assert stats._largest_distance(locs) == self.brute(locs) == math.inf

    def test_random_sets(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            n, d = rng.integers(2, 80), rng.integers(1, 4)
            locs = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-6, 6)
            assert stats._largest_distance(locs) == self.brute(locs)

    def test_default_edges_follow_it(self):
        locs, marks = TestTraceVariogram().curves_iid(23, n=60)
        est = trace_variogram(locs, marks)
        np.testing.assert_array_equal(est.bin_edges, np.linspace(
            0.0, self.brute(locs) * (1 + 1e-12), 16))


class TestKriging:
    MODEL = VariogramModel("exponential", 0.0, 1.0, 0.3)

    def _curves(self):
        """(locations, mark table) of two curves."""
        grid = np.linspace(0, 1, 9)
        rng = np.random.default_rng(5)
        return (np.array([[0.0, 0.0], [1.0, 0.0]]),
                CadlagPath.rows(grid, rng.standard_normal((2, 9)), None,
                                "step", 1.0))

    def test_single_curve_weight_one(self):
        locs, marks = self._curves()
        pred = kriging_predict(locs[:1], marks.take([0]), np.array([0.4, 0.4]),
                               self.MODEL)
        np.testing.assert_array_equal(pred.values, marks.values[0])
        assert kriging_weights(locs[:1], np.array([0.4, 0.4]),
                               self.MODEL)[0] == 1.0

    def test_exact_interpolation_at_observed_site(self):
        locs, marks = self._curves()
        pred = kriging_predict(locs, marks, np.array([1.0, 0.0]), self.MODEL)
        np.testing.assert_array_equal(pred.values, marks.values[1])
        # the kriging system itself places all weight on the matching site
        wts = kriging_weights(locs, np.array([1.0, 0.0]) + 1e-9, self.MODEL)
        assert wts[1] == pytest.approx(1.0, abs=1e-6)

    def test_symmetric_layout_half_weights(self):
        wts = kriging_weights(np.array([[0.0, 0.0], [1.0, 0.0]]),
                              np.array([0.5, 0.0]), self.MODEL)
        np.testing.assert_allclose(wts, [0.5, 0.5], atol=1e-12)

    def test_memory_of_the_kriging_system(self):
        # the location distances are summed one coordinate at a time and
        # squared in place: about four n x n arrays at the peak, where an
        # (n, n, d) difference array formed first peaked at six
        n = 1500
        locs = np.random.default_rng(1).random((n, 2))
        tracemalloc.start()
        try:
            kriging_weights(locs, np.array([0.3, 0.4]), self.MODEL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * n * n * 8

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(7)
        locs = rng.random((12, 2))
        wts = kriging_weights(locs, np.array([0.3, 0.3]), self.MODEL)
        assert abs(wts.sum() - 1.0) < 1e-10

    def test_singular_system_detected(self):
        locs = np.array([[0.2, 0.2], [0.2, 0.2]])  # duplicate sites
        with pytest.raises(NumericalError):
            kriging_weights(locs, np.array([0.9, 0.9]), self.MODEL)

    def test_fit_variogram_recovers_shape(self):
        model = VariogramModel("exponential", 0.0, 2.0, 0.25)
        h = np.linspace(0.02, 1.0, 15)
        dh = h[1] - h[0]
        est_vals = model(h)
        from fmpp.stats import VariogramEstimate
        edges = np.concatenate([[h[0] - dh / 2], h + dh / 2])
        est = VariogramEstimate(edges, est_vals, np.full(15, 50))
        fit = fit_variogram(est, "exponential")
        np.testing.assert_allclose(fit(h), est_vals, atol=0.05)

    def test_spherical_family(self):
        m = VariogramModel("spherical", 0.1, 1.0, 0.5)
        assert m(0.0) == 0.0
        assert m(10.0) == pytest.approx(1.1)


class TestCheckReport:
    def test_fields(self):
        assert [f.name for f in dataclasses.fields(CheckReport)] == [
            "lhs", "rhs", "se", "replicates"]

    def test_se_is_that_of_the_mean_difference(self):
        # Campbell's right side is the same on every draw, so the standard
        # error is that of the left side's mean alone
        sums = [float(np.sum(poisson_config(s, 100.0).ground[:, 0] <= 0.5))
                for s in range(3, 13)]
        rep = campbell_check(lambda s: poisson_config(s, 100.0),
                             lambda c: (c.ground[:, 0] <= 0.5).astype(float),
                             lambda g: np.full(len(g), 50.0), W, replicates=10,
                             seed=3, quad_res=8)
        assert rep.lhs == np.mean(sums) and rep.rhs == 50.0
        assert rep.se == pytest.approx(np.std(sums, ddof=1) / math.sqrt(10),
                                       rel=1e-12)

    @pytest.mark.parametrize("replicates", [-1, 0, 1])
    def test_fewer_than_two_replicates_rejected(self, replicates):
        sim = lambda s: poisson_config(s, 100.0)
        with pytest.raises(ValidationError, match="two or more replicates"):
            campbell_check(sim, lambda c: np.ones(len(c)),
                           lambda g: np.full(len(g), 100.0), W, replicates)
        with pytest.raises(ValidationError, match="two or more replicates"):
            gnz_check(sim, lambda u, pts, own: np.full(len(u), 100.0),
                      lambda u, pts, own: np.ones(len(u)), W, replicates)


class TestCampbell:
    def simulate(self, seed):
        return poisson_config(seed, rate=100.0)

    def test_indicator_box(self):
        box_lo, box_hi = np.array([0.0, 0.0]), np.array([0.5, 0.5])
        in_box = lambda g: np.all((g >= box_lo) & (g <= box_hi), axis=1)
        rep = campbell_check(self.simulate, lambda c: in_box(c.ground),
                             lambda g: np.where(in_box(g), 100.0, 0.0),
                             W, replicates=300, seed=0)
        assert rep.rhs == pytest.approx(25.0, rel=1e-6)
        assert rep.passed()

    def test_zero_functional(self):
        rep = campbell_check(self.simulate, lambda c: np.zeros(len(c)),
                             lambda g: np.zeros(len(g)), W, replicates=20, seed=0)
        assert rep.lhs == 0.0 and rep.rhs == 0.0

    def test_factorized_mark_bin(self):
        # h = indicator(location in B) * indicator(mark at s in [a,b)):
        # under independent marking the intensity side factorizes
        def sim(seed):
            locs = simulate_poisson(HomogeneousPoisson(80.0), W, seed)
            auxs = [AuxMark(discrete=1)] * len(locs)
            paths = attach_marks(W, locs, auxs, Wiener(1.0), np.linspace(0, 1, 11),
                                 seed)
            return make_configuration(W, locs, auxs, paths)

        s_time, lo = 0.5, 0.0
        p_mark = 0.5  # P(B(0.5) >= 0) by symmetry
        h = lambda c: ((c.ground[:, 0] <= 0.5)
                       & (c.marks.at(s_time)[:, 0] >= lo)).astype(float)
        rhs = lambda g: np.where(g[:, 0] <= 0.5, 80.0 * p_mark, 0.0)
        rep = campbell_check(sim, h, rhs, W, replicates=400, seed=10)
        assert rep.passed()


class TestGnz:
    def simulate(self, seed):
        return poisson_config(seed, rate=100.0)

    def test_poisson_residual_zero(self):
        h = lambda u, pts, own: (u[:, 0] <= 0.5).astype(float)
        rep = gnz_check(self.simulate, lambda u, pts, own: np.full(len(u), 100.0),
                        h, W, replicates=300, seed=2)
        assert rep.passed()

    def test_wrong_intensity_detected(self):
        h = lambda u, pts, own: (u[:, 0] <= 0.5).astype(float)
        rep = gnz_check(self.simulate, lambda u, pts, own: np.full(len(u), 50.0),
                        h, W, replicates=300, seed=2)
        # residual approx + half the box mass
        assert not rep.passed()
        assert (rep.lhs - rep.rhs) == pytest.approx(25.0, abs=3 * rep.se)

    def test_zero_functional_exact(self):
        rep = gnz_check(self.simulate, lambda u, pts, own: np.full(len(u), 100.0),
                        lambda u, pts, own: np.zeros(len(u)), W, replicates=10,
                        seed=0)
        assert rep.lhs == 0.0 and rep.rhs == 0.0


class TestPcfOtherDimensions:
    def test_1d_poisson_near_one(self):
        w1 = Window((0.0,), (4.0,))
        lags = np.linspace(0.1, 0.5, 5)
        vals = []
        for seed in range(150):
            locs = simulate_poisson(HomogeneousPoisson(60.0), w1, seed)
            auxs = [AuxMark(discrete=1)] * len(locs)
            paths = attach_marks(w1, locs, auxs, Deterministic(("constant", 1.0)),
                                 GRID, seed)
            c = make_configuration(w1, locs, auxs, paths)
            vals.append(pcf_ground(c, lags, 0.1).values)
        pooled = np.mean(vals, axis=0)
        assert np.all(np.abs(pooled - 1.0) < 0.05)

    def test_3d_poisson_near_one(self):
        w3 = Window((0, 0, 0), (1, 1, 1))
        lags = np.linspace(0.08, 0.25, 4)
        vals = []
        for seed in range(100):
            locs = simulate_poisson(HomogeneousPoisson(300.0), w3, seed)
            auxs = [AuxMark(discrete=1)] * len(locs)
            paths = attach_marks(w3, locs, auxs, Deterministic(("constant", 1.0)),
                                 GRID, seed)
            c = make_configuration(w3, locs, auxs, paths)
            vals.append(pcf_ground(c, lags, 0.05).values)
        pooled = np.mean(vals, axis=0)
        assert np.all(np.abs(pooled - 1.0) < 0.08)


class TestKernelIntensityMode:
    def test_kernel_mode_smooths(self):
        c = poisson_config(1, 100.0)
        s = intensity_estimate(c, cells=16, mode="kernel", bandwidth=0.2)
        assert s.mode == "kernel"
        assert np.all(s.values >= 0)
        # interior values are near the true rate
        assert abs(np.mean(s.values[4:12, 4:12]) - 100.0) < 40.0

    def test_kernel_mode_needs_bandwidth(self):
        c = poisson_config(1, 50.0)
        with pytest.raises(ValidationError):
            intensity_estimate(c, cells=8, mode="kernel")
        for bandwidth in (0.0, -0.2, math.nan, math.inf):
            with pytest.raises(ValidationError, match="bandwidth"):
                intensity_estimate(c, cells=8, mode="kernel", bandwidth=bandwidth)

    @staticmethod
    def loop_oracle(c, cells, bandwidth):
        """The kernel surface one point at a time: the (cells, D) kernel
        pass of each point on the midpoint nodes, summed."""
        bounds = c.window.ground_bounds
        cells = (cells,) * len(bounds) if np.ndim(cells) == 0 else tuple(cells)
        grid, _ = midpoint_rule(bounds, cells)
        values = np.zeros(grid.shape[0])
        for x in c.locations():
            u = (grid - x[None, :]) / bandwidth
            values += np.prod(np.where(np.abs(u) < 1,
                                       0.75 * (1 - u * u) / bandwidth, 0.0), axis=1)
        return values.reshape(cells)

    @pytest.mark.parametrize("window, cells, rate", [
        (Window((0, 0), (1, 1)), 64, 2000.0),
        (Window((-1.0, 0.5), (2.0, 1.5)), (7, 5), 40.0),
        (Window((0,), (2.0,)), 33, 300.0),
        (Window((0, 0), (1, 1), t_star=2.0), (9, 6, 11), 150.0),
    ], ids=["spatial-64", "spatial-ragged", "line", "temporal"])
    def test_kernel_mode_matches_the_point_loop(self, window, cells, rate,
                                                monkeypatch):
        c = poisson_config(3, rate, window)
        # a small block budget splits the points into several blocks
        for budget in (_kernels._BLOCK_ENTRIES, 64):
            monkeypatch.setattr(_kernels, "_BLOCK_ENTRIES", budget)
            got = intensity_estimate(c, cells, mode="kernel", bandwidth=0.3)
            want = self.loop_oracle(c, cells, 0.3)
            assert got.values.shape == want.shape
            np.testing.assert_allclose(got.values, want, rtol=1e-12, atol=0)
        assert np.count_nonzero(want) > want.size // 2

    def test_kernel_mode_empty_pattern(self):
        c = make_configuration(W, np.zeros((0, 2)), [], [])
        s = intensity_estimate(c, (4, 3), mode="kernel", bandwidth=0.2)
        np.testing.assert_array_equal(s.values, np.zeros((4, 3)))
