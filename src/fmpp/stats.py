"""Empirical summary statistics and Monte Carlo identity checks.

Ground intensity (box counts or kernel), pair correlation of the ground
pattern and its mark-sampled variants, the trace-variogram of located
curves with parametric fitting, ordinary kriging of curves, and the two
moment identities (Campbell, conditional-intensity residual) used to
validate simulators against analytic expectations.

The population quantities come with no canonical estimators; the kernel
and translation-correction choices here are standard plumbing (Epanechnikov
kernel, default bandwidth 0.15/sqrt(intensity), 15 equal variogram bins
up to the largest pair distance), all overridable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _kernels
from ._optim import nelder_mead
from .core import (CadlagPath, Configuration, MarkTable, SampleSchedule, Window,
                   _is_count, _shaped, midpoint_rule)
from .errors import NumericalError, ValidationError

__all__ = [
    "PcfEstimate",
    "VariogramEstimate",
    "VariogramModel",
    "IntensitySurface",
    "CheckReport",
    "intensity_estimate",
    "pcf_ground",
    "pcf_mark_sampled",
    "trace_variogram",
    "fit_variogram",
    "kriging_weights",
    "kriging_predict",
    "campbell_check",
    "gnz_check",
]


# ---------------------------------------------------------------------------
# intensity
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class IntensitySurface:
    """Piecewise-constant intensity estimate on a regular grid of cells."""

    edges: tuple          # cell edges per ground axis
    values: np.ndarray    # shape = cells per axis
    mode: str

    @property
    def cell_volume(self) -> float:
        out = 1.0
        for e in self.edges:
            out *= e[1] - e[0]
        return out

    def integral(self) -> float:
        return float(np.sum(self.values) * self.cell_volume)


def intensity_estimate(c: Configuration, cells=8, mode: str = "box",
                       bandwidth: float | None = None) -> IntensitySurface:
    """Ground intensity on a regular grid.

    Box mode counts points per cell and divides by the cell volume, so the
    estimate integrates exactly to the point count.  Kernel mode smooths
    with a product Epanechnikov kernel (no edge correction, mass is not
    conserved near the boundary).
    """
    bounds = c.window.ground_bounds
    ndim = len(bounds)
    if np.ndim(cells) == 0:
        cells = (cells,) * ndim
    if len(cells) != ndim:
        raise ValidationError("cells must match the ground dimension")
    if not all(_is_count(k) and k >= 1 for k in cells):
        raise ValidationError("cells must be integer cell counts of at least 1, "
                              f"not {cells!r}")
    edges = [np.linspace(lo, hi, k + 1) for (lo, hi), k in zip(bounds, cells)]
    locs = c.locations()
    if mode == "box":
        if len(locs):
            values, _ = np.histogramdd(locs, bins=edges)
        else:
            values = np.zeros(cells)
        cellvol = np.prod([e[1] - e[0] for e in edges])
        return IntensitySurface(tuple(e for e in edges), values / cellvol, "box")
    if mode != "kernel":
        raise ValidationError("mode must be 'box' or 'kernel'")
    if bandwidth is None or not 0.0 < bandwidth < math.inf:
        raise ValidationError("kernel mode needs a positive, finite bandwidth")
    # the product kernel factorises over the axes: per block of points, the
    # (cells_a, block) factors of every axis but the last are multiplied
    # out over their cells and contracted with the last axis's factors
    centres = [0.5 * (e[:-1] + e[1:]) for e in edges]
    values = np.zeros((int(np.prod(cells[:-1])), cells[-1]))
    step = max(1, _kernels._BLOCK_ENTRIES // values.shape[0])
    for i0 in range(0, len(locs), step):
        x = locs[i0:i0 + step]
        u = [(mid[:, None] - x[:, a]) / bandwidth for a, mid in enumerate(centres)]
        f = [np.where(np.abs(v) < 1, 0.75 * (1 - v * v) / bandwidth, 0.0) for v in u]
        head = np.ones((1, len(x)))
        for fa in f[:-1]:
            head = (head[:, None, :] * fa).reshape(-1, len(x))
        values += head @ f[-1].T
    return IntensitySurface(tuple(edges), values.reshape(cells), "kernel")


# ---------------------------------------------------------------------------
# pair correlation
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class PcfEstimate:
    lags: np.ndarray
    values: np.ndarray
    bandwidth: float
    edge_correction: str

    def __post_init__(self):
        if np.any(np.diff(self.lags) <= 0):
            raise ValidationError("lags must be increasing")
        if np.any(self.values < 0):
            raise ValidationError("pair correlation values must be nonnegative")


def _pcf_from_weights(c: Configuration, w, v, pair_norm, lags, bandwidth):
    window = c.window
    pts = c.spatial_locations()
    lags = np.asarray(lags, dtype=float)
    if lags.ndim != 1 or lags.size == 0 or not np.all(np.isfinite(lags)):
        raise ValidationError("lags must be a non-empty 1-d array of finite "
                              f"numbers, not {lags.tolist()!r}")
    if np.any(lags >= 0.5 * np.min(window.sides)):
        raise ValidationError("lags must stay below half the window side")
    if np.any(lags <= 0):
        raise ValidationError("lags must be positive")
    if not 0.0 < bandwidth < math.inf:
        raise ValidationError("pcf bandwidth must be positive and finite, "
                              f"not {bandwidth}")
    # the kernel already divides each pair by the surface measure at its
    # own distance, so only the intensity normalizer remains
    num = _kernels.pair_stats(pts, w, v, lags, float(bandwidth),
                              window.sides.astype(float), window.torus)
    denom = pair_norm / window.volume ** 2
    vals = num / denom if denom > 0 else np.zeros_like(num)
    tag = "torus" if window.torus else "translation"
    return PcfEstimate(lags, np.maximum(vals, 0.0), float(bandwidth), tag)


def pcf_ground(c: Configuration, lags, bandwidth: float | None = None) -> PcfEstimate:
    """Kernel pair-correlation estimate of the spatial ground pattern.

    Translation edge correction on a box, minimal-image distances on a
    torus; the intensity normalizer is n(n-1)/|W|^2.  Assumes stationarity.
    """
    if c.window.is_temporal:
        raise ValidationError("ground pcf is implemented for spatial windows")
    n = len(c)
    if n < 2:
        raise ValidationError("need at least two points")
    if bandwidth is None:
        bandwidth = 0.15 / math.sqrt(n / c.window.volume)
    w = np.ones(n)
    return _pcf_from_weights(c, w, w, float(n * (n - 1)), lags, bandwidth)


def pcf_mark_sampled(c: Configuration, schedule: SampleSchedule, lags,
                     bandwidth: float | None = None,
                     test: Callable | None = None,
                     classes: Callable | None = None) -> dict:
    """Second-order statistics with points weighted or classified by their
    sampled mark vector (M(s_1), ..., M(s_k)).

    ``test`` maps the (n, k) sampled vectors to (n,) nonnegative weights
    (default 1); ``classes`` maps the configuration to (n,) labels, in which
    case one estimate per label pair is returned.  Weight normalizers use
    the empirical weighted intensities, so under random labelling (weights
    independent of locations) the estimates agree with the ground pcf in
    expectation, and constant weights reproduce it exactly.
    """
    if c.window.is_temporal:
        raise ValidationError("mark-sampled pcf is implemented for spatial windows")
    n = len(c)
    if n < 2:
        raise ValidationError("need at least two points")
    horizon = c.marks.ambient_end
    if schedule.times[-1] > horizon:
        raise ValidationError("sample time outside the mark horizon")
    if bandwidth is None:
        bandwidth = 0.15 / math.sqrt(n / c.window.volume)
    times = np.asarray(schedule.times)
    samples = c.marks.at(times)
    if classes is not None:
        labels = _shaped(classes(c), (n,), "classes", dtype=None)
        uniq = np.unique(labels).tolist()
        out = {}
        for a_i, la in enumerate(uniq):
            w = (labels == la).astype(float)
            for lb in uniq[a_i:]:
                v = (labels == lb).astype(float)
                n_a, n_b = w.sum(), v.sum()
                # the kernel scores each cross pair once and each same-class
                # pair in both orders
                norm = n_a * (n_a - 1) if la == lb else n_a * n_b
                if norm <= 0:
                    continue
                out[(la, lb)] = _pcf_from_weights(c, w, v, float(norm), lags,
                                                  bandwidth)
        return out
    w = _shaped(test(samples), (n,), "test") if test is not None else np.ones(n)
    if np.any(w < 0):
        raise ValidationError("mark test weights must be nonnegative")
    if np.all(w == 0):
        raise ValidationError("mark test weights are degenerate")
    # the estimator is scale-invariant in the weights; normalizing makes
    # constant weights reduce to the ground estimate bit for bit
    w = w / (np.sum(w) / n)
    norm = float(np.sum(w) ** 2 - np.sum(w * w))
    if norm <= 0:
        raise ValidationError("mark test weights are degenerate")
    return {"weighted": _pcf_from_weights(c, w, w, norm, lags, bandwidth)}


# ---------------------------------------------------------------------------
# trace-variogram and kriging
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class VariogramEstimate:
    bin_edges: np.ndarray
    values: np.ndarray       # mean half integrated squared difference per bin
    counts: np.ndarray       # pairs per bin (0 flags an empty bin)

    @property
    def bin_centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])


@dataclass(frozen=True)
class VariogramModel:
    """Parametric variogram: 'exponential' or 'spherical', zero nugget allowed."""

    family: str
    nugget: float
    sill: float
    range_: float

    def __call__(self, h):
        h = np.asarray(h, dtype=float)
        if self.family == "exponential":
            base = 1.0 - np.exp(-h / self.range_)
        elif self.family == "spherical":
            x = np.clip(h / self.range_, 0.0, 1.0)
            base = 1.5 * x - 0.5 * x ** 3
        else:
            raise ValidationError(f"unknown variogram family {self.family!r}")
        out = self.nugget + self.sill * base
        return np.where(h <= 0, 0.0, out)


def _equal_bin_index(edges, h):
    """``np.searchsorted(edges, h, side="right") - 1`` for equal-width
    ``edges`` and edges[0] <= h <= edges[-1], by arithmetic.

    The step must be finite and normal.  The quotient (h - edges[0]) / step
    then differs from the bin index by less than one unless the bin count
    nears 2**40, so one step down or up against the actual edges makes it
    exact.
    """
    nbins = len(edges) - 1
    step = (edges[-1] - edges[0]) / nbins
    idx = np.clip(np.floor((h - edges[0]) / step), 0, nbins).astype(np.intp)
    idx -= edges[idx] > h
    idx += (idx < nbins) & (edges[np.minimum(idx + 1, nbins)] <= h)
    return idx


def _mark_locations(locations, marks: MarkTable) -> np.ndarray:
    """``locations`` as a float (n, d) array, one row per row of ``marks``."""
    locs = np.asarray(locations, dtype=float)
    if locs.ndim != 2 or locs.shape[0] != len(marks):
        raise ValidationError("locations must form an (n, d) array with one "
                              "row per mark")
    if not np.all(np.isfinite(locs)):
        raise ValidationError("locations must be finite")
    return locs


def _largest_distance(locs) -> float:
    """The largest pair distance of the (n, d) ``locs``, the root of the
    largest squared distance of the dense matrix to the bit.

    A pair at distance D has r_i + r_j >= D, r the distance to the
    centroid.  The farthest point from the centroid and its farthest
    partner set a lower bound L on the largest distance, so only the points
    with r_i >= L - max r, less a rounding margin, can join a pair that
    reaches it, and only the pairs among those are compared."""
    r = np.sqrt(_kernels._squared_distances(locs, locs.mean(axis=0)))
    far = int(np.argmax(r))
    lower = np.sqrt(np.max(_kernels._squared_distances(locs, locs[far])))
    # a NaN bound, from an overflow, keeps every point
    keep = locs[~(r < lower - r[far] - 1e-9 * (lower + r[far]))]
    m = len(keep)
    rows = max(1, _kernels._BLOCK_ENTRIES // m)
    return math.sqrt(max(np.max(_kernels._squared_distances(
        keep[i0:i0 + rows, None], keep[None, i0:])) for i0 in range(0, m, rows)))


def trace_variogram(locations, marks: MarkTable, bins=None) -> VariogramEstimate:
    """Empirical trace-variogram of the marks at the (n, d) spatial
    ``locations``: one ``MarkTable`` row per location, as a configuration's
    ``spatial_locations()`` and ``marks``.

    Bin average of half the integrated squared curve difference (trapezoid
    rule on the table's grid) over pairs at spatial distance in each bin.
    ``bins`` is an edge array or a bin count; the default is 15 equal bins
    up to the largest pair distance.
    """
    locs = _mark_locations(locations, marks)
    if len(marks) < 2:
        raise ValidationError("need at least two curves")
    grid, V = marks.grid, marks.values
    # trapezoid weights on the shared grid
    wts = 0.5 * (np.diff(grid, prepend=grid[0]) + np.diff(grid, append=grid[-1]))
    n = len(marks)
    rows = max(1, _kernels._BLOCK_ENTRIES // n)
    blocks = [(i0, min(i0 + rows, n)) for i0 in range(0, n, rows)]
    bins = 15 if bins is None else bins
    if np.isscalar(bins):
        if not _is_count(bins):
            raise ValidationError("bins must be an integer bin count or an "
                                  f"edge array, not {bins!r}")
        if bins < 1:
            raise ValidationError(f"variogram bin count {bins} is below 1")
        edges = np.linspace(0.0, _largest_distance(locs) * (1 + 1e-12),
                            bins + 1)
    else:
        edges = np.asarray(bins, dtype=float)
        if edges.ndim != 1 or edges.size < 2 or not np.all(np.diff(edges) > 0):
            raise ValidationError("variogram bin edges must be two or more "
                                  "strictly increasing numbers")
    nbins = len(edges) - 1
    # the default edges run from 0 past the largest pair distance, so every
    # pair lies within them; coincident locations, or a distance that
    # overflows, leave no step the arithmetic binning can use
    equal_width = (np.isscalar(bins) and nbins > 0 and np.isfinite(edges[-1])
                   and edges[-1] >= np.finfo(float).tiny * nbins)
    counts, sums = np.zeros(nbins, dtype=np.intp), np.zeros(nbins)
    VW = V * wts
    diag = np.empty(n)
    # last block first, so diag[j] of every later curve j is already known
    for i0, i1 in reversed(blocks):
        S = VW[i0:i1] @ V[i0:].T        # S[k, l]: curves i0 + k and i0 + l
        diag[i0:i1] = np.diagonal(S)
        upper = np.arange(n - i0) > np.arange(i1 - i0)[:, None]      # pairs i < j
        h = np.sqrt(_kernels._squared_distances(locs[i0:i1, None],
                                                locs[None, i0:])[upper])
        d = 0.5 * (diag[i0:i1, None] + diag[None, i0:] - 2.0 * S)[upper]
        if equal_width:
            idx = _equal_bin_index(edges, h)
        else:
            keep = (h >= edges[0]) & (h <= edges[-1])
            h, d = h[keep], d[keep]
            idx = np.searchsorted(edges, h, side="right") - 1
        idx = np.clip(idx, 0, nbins - 1)
        counts += np.bincount(idx, minlength=nbins)
        sums += np.bincount(idx, weights=d, minlength=nbins)
    values = np.divide(sums, counts, out=np.zeros(nbins), where=counts > 0)
    return VariogramEstimate(edges, values, counts)


def fit_variogram(est: VariogramEstimate, family: str = "exponential") -> VariogramModel:
    """Weighted least squares on the binned estimate (weights = pair counts)."""
    mask = est.counts > 0
    if not np.any(mask):
        raise ValidationError("variogram estimate has no occupied bins")
    h = est.bin_centers[mask]
    g = est.values[mask]
    wts = est.counts[mask].astype(float)
    sill0 = max(float(np.max(g)), 1e-12)
    range0 = max(float(np.max(h)) / 3.0, 1e-6)

    def objective(theta):
        model = VariogramModel(family, theta[0], theta[1], theta[2])
        return float(np.sum(wts * (model(h) - g) ** 2))

    theta, _, _, _ = nelder_mead(
        objective, np.asarray([0.0, sill0, range0]),
        bounds=[(0.0, sill0 * 10), (1e-12, sill0 * 10),
                (1e-6, float(np.max(h)) * 10)],
        budget=800)
    return VariogramModel(family, float(theta[0]), float(theta[1]), float(theta[2]))


def kriging_weights(locations, x0, model: VariogramModel) -> np.ndarray:
    """Ordinary-kriging weights for predicting at x0 (they sum to one)."""
    locs = np.atleast_2d(np.asarray(locations, dtype=float))
    x0 = np.asarray(x0, dtype=float)
    n = locs.shape[0]
    if n == 0:
        raise ValidationError("kriging needs at least one curve")
    if n == 1:
        return np.asarray([1.0])
    G = model(np.sqrt(_kernels._squared_distances(locs[:, None], locs[None])))
    g0 = model(np.sqrt(_kernels._squared_distances(locs, x0)))
    A = np.zeros((n + 1, n + 1))
    A[:n, :n] = G
    A[n, :n] = 1.0
    A[:n, n] = 1.0
    b = np.concatenate([g0, [1.0]])
    try:
        sol = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("singular kriging system") from exc
    if not np.all(np.isfinite(sol)):
        raise NumericalError("singular kriging system")
    return sol[:n]


def kriging_predict(locations, marks: MarkTable, x0,
                    model: VariogramModel) -> CadlagPath:
    """Predict the curve at x0 as a weighted sum of the marks observed at
    the (n, d) ``locations``, one ``MarkTable`` row per location.

    Weights are time-constant ordinary-kriging weights from the fitted
    trace-variogram; prediction at an observed location returns that curve
    (kriging exactness).
    """
    locs = _mark_locations(locations, marks)
    x0 = np.asarray(x0, dtype=float)
    dist0 = np.sqrt(_kernels._squared_distances(locs, x0))
    hit = np.where(dist0 < 1e-12)[0]
    if hit.size:
        return marks[int(hit[0])]
    wts = kriging_weights(locs, x0, model)
    vals = wts @ marks.values
    support = (float(np.min(marks.starts)), float(np.max(marks.ends)))
    return CadlagPath(marks.grid, vals, support, marks.mode, marks.t_star)


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CheckReport:
    lhs: float            # replicate means of the two sides of an identity
    rhs: float
    se: float             # standard error of the mean of lhs - rhs
    replicates: int

    def passed(self, n_se: float = 3.0) -> bool:
        return abs(self.lhs - self.rhs) <= n_se * max(self.se, 1e-300)


def _replicate_check(simulate: Callable, sides: Callable, replicates: int,
                     seed: int) -> CheckReport:
    """Both sides ``sides(c)`` of an identity on each draw c =
    ``simulate(seed + r)``, r < ``replicates``, as a ``CheckReport``."""
    if replicates < 2:
        raise ValidationError(f"a check needs two or more replicates, not {replicates}")
    lhs, rhs = np.array([sides(simulate(seed + r)) for r in range(replicates)]).T
    # a side equal on every draw is its own mean, which np.mean may round
    mean = lambda x: float(x[0] if np.all(x == x[0]) else np.mean(x))
    se = float(np.std(lhs - rhs, ddof=1) / math.sqrt(replicates))
    return CheckReport(mean(lhs), mean(rhs), se, replicates)


def campbell_check(simulate: Callable, h: Callable, rhs_integrand: Callable,
                   w: Window, replicates: int = 200, seed: int = 0,
                   quad_res: int = 64) -> CheckReport:
    """First-moment identity: E[sum over points of h] vs its intensity integral.

    ``simulate(seed)`` yields a configuration c and ``h(c)`` its (n,) scores;
    ``rhs_integrand(g)`` must give the (m,) mark-averaged h times the ground
    intensity at (m, D) ground nodes (analytic or quadrature-derived by the
    caller); the right side is integrated once by midpoint quadrature.
    """
    nodes, cellvol = midpoint_rule(w.ground_bounds, quad_res)
    rhs = float(np.sum(_shaped(rhs_integrand(nodes), (len(nodes),),
                               "rhs_integrand")) * cellvol)
    return _replicate_check(
        simulate, lambda c: (np.sum(_shaped(h(c), (len(c),), "h")), rhs),
        replicates, seed)


def gnz_check(simulate: Callable, papangelou: Callable, h: Callable,
              w: Window, replicates: int = 200, seed: int = 0,
              quad_res: int = 32) -> CheckReport:
    """Conditional-intensity residual E[sum_y h(y, c-y)] - E[int h(u,c) lam(u;c) du].

    ``papangelou(u, pts, own)`` and ``h(u, pts, own)`` map (m, D) queries, the
    pattern's (n, D) ground array and (m,) rows own to (m,) values; query j
    sees the pattern without row own[j] (all of it where own[j] is -1).  The
    inner integral uses midpoint quadrature over the ground space.  The
    residual is zero in expectation under the true model.
    """
    nodes, cellvol = midpoint_rule(w.ground_bounds, quad_res)
    m, free = len(nodes), np.full(len(nodes), -1)

    def sides(c):
        pts = c.locations()
        lhs = np.sum(_shaped(h(pts, pts, np.arange(len(pts))), (len(pts),), "h"))
        lam = _shaped(papangelou(nodes, pts, free), (m,), "papangelou")
        return lhs, np.sum(_shaped(h(nodes, pts, free), (m,), "h") * lam) * cellvol

    return _replicate_check(simulate, sides, replicates, seed)
