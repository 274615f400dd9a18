import math

import numpy as np
import pytest

from fmpp.core import AuxMark, Window
from fmpp.errors import ValidationError
from fmpp.geometry import coverage_fraction, expected_coverage, section
from fmpp.marks import Deterministic, GrowthInteraction, attach_marks, gi_integrate, make_configuration

W = Window((0, 0), (1, 1))
GRID = np.linspace(0, 1, 11)


def disk_config(centers, radius, births=None):
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    auxs = [AuxMark(discrete=1)] * len(centers)
    if births is None:
        paths = attach_marks(W, centers, auxs, Deterministic(("constant", radius)),
                             GRID, 0)
        return make_configuration(W, centers, auxs, paths)
    wt = Window((0, 0), (1, 1), t_star=1.0)
    pts = (centers, np.asarray(births), np.full(len(centers), 10.0))
    paths = gi_integrate(pts, GrowthInteraction(("linear", 2.0, radius)),
                         0.01, 0, 1.0)
    locs = np.hstack([centers, np.asarray(births)[:, None]])
    return make_configuration(wt, locs, auxs, paths)


class TestSection:
    def test_before_births_empty(self):
        c = disk_config([[0.5, 0.5]], 0.3, births=[0.5])
        assert len(section(c, 0.2)) == 0

    def test_single_disk(self):
        c = disk_config([[0.5, 0.5]], 0.3)
        s = section(c, 0.5)
        assert len(s) == 1
        assert s.radii[0] == pytest.approx(0.3)

    def test_nonpositive_radius_no_disk(self):
        c = disk_config([[0.5, 0.5]], 0.0)
        assert len(section(c, 0.5)) == 0

    def test_stochastic_support_respected(self):
        # zero-valued mark inside its support contributes nothing
        c = disk_config([[0.5, 0.5]], 0.3, births=[0.0])
        # growth starts at m0=0: exactly at birth the radius is 0
        assert len(section(c, 0.0)) == 0

    def test_non_planar_rejected(self):
        w1 = Window((0,), (1,))
        from fmpp.core import CadlagPath, Configuration
        c = Configuration(w1, [[0.5]], [AuxMark(discrete=1)],
                          [CadlagPath([0.0], [1.0], (0, np.inf), "step", 1.0)])
        with pytest.raises(ValidationError):
            section(c, 0.5)


class TestCoverageFraction:
    def test_empty_section_zero(self):
        c = disk_config([[0.5, 0.5]], 0.0)
        assert coverage_fraction(section(c, 0.5), W, 64) == 0.0

    def test_single_disk_area(self):
        r = 0.25
        c = disk_config([[0.5, 0.5]], r)
        res = 256
        frac = coverage_fraction(section(c, 0.5), W, res)
        assert abs(frac - math.pi * r * r) < 2.0 / res

    def test_two_disjoint_disks_additive(self):
        r = 0.12
        c = disk_config([[0.25, 0.25], [0.75, 0.75]], r)
        res = 256
        frac = coverage_fraction(section(c, 0.5), W, res)
        assert abs(frac - 2 * math.pi * r * r) < 4.0 / res

    def test_monotone_in_radii(self):
        small = disk_config([[0.3, 0.4], [0.6, 0.7]], 0.1)
        large = disk_config([[0.3, 0.4], [0.6, 0.7]], 0.15)
        f_small = coverage_fraction(section(small, 0.5), W, 128)
        f_large = coverage_fraction(section(large, 0.5), W, 128)
        assert f_large >= f_small

    def test_torus_wrapping(self):
        wt = Window((0, 0), (1, 1), torus=True)
        c = disk_config([[0.0, 0.5]], 0.2)
        s = section(c, 0.5)
        frac = coverage_fraction(s, wt, 256)
        assert abs(frac - math.pi * 0.04) < 2.0 / 256

    def test_resolution_floor(self):
        c = disk_config([[0.5, 0.5]], 0.1)
        with pytest.raises(ValidationError):
            coverage_fraction(section(c, 0.5), W, 16)

    def test_growth_coverage_nondecreasing_between_births(self):
        c = disk_config([[0.3, 0.3], [0.7, 0.7]], 0.2, births=[0.0, 0.0])
        times = np.linspace(0.05, 0.95, 8)
        fracs = [coverage_fraction(section(c, t), c.window, 128) for t in times]
        assert all(b >= a - 1e-12 for a, b in zip(fracs, fracs[1:]))


class TestExpectedCoverage:
    def test_single_deterministic_disk(self):
        val = expected_coverage(("pmf", [0.0, 1.0]), 0.3 ** 2, W)
        assert val == pytest.approx(math.pi * 0.09)

    def test_poisson_wald_identity(self):
        nu, m2 = 2.0, 0.04
        val = expected_coverage(("poisson", nu, 60), m2, W)
        # brute-force check of the double sum
        brute = sum(math.exp(-nu) * nu ** n / math.factorial(n) * n * m2 * math.pi
                    for n in range(61))
        assert val == pytest.approx(brute, rel=1e-12)
        assert val == pytest.approx(math.pi * nu * m2, rel=1e-9)

    def test_heavy_tail_rejected(self):
        with pytest.raises(ValidationError):
            expected_coverage(("poisson", 50.0, 10), 0.01, W)

    @pytest.mark.parametrize("dist", [("poisson", -2.0, 10), ("poisson", math.nan, 10),
                                      ("poisson", math.inf, 10),
                                      ("pmf", [0.5, math.nan]), ("pmf", [0.5, math.inf]),
                                      ("pmf", [1.5, -0.5])])
    def test_bad_count_distribution_rejected(self, dist):
        # a negative mean read as nu = 0 and gave 0.0; a NaN entry gave nan
        with pytest.raises(ValidationError, match="finite and nonnegative"):
            expected_coverage(dist, 0.01, W)

    def test_zero_mean_is_empty(self):
        assert expected_coverage(("poisson", 0.0, 10), 0.01, W) == 0.0

    def test_per_index_moments(self):
        # P(N=2)=1 with distinct second moments
        val = expected_coverage(("pmf", [0.0, 0.0, 1.0]), [0.01, 0.04], W)
        assert val == pytest.approx(math.pi * 0.05)
