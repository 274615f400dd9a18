"""Ground-process simulators: Poisson, log-Gaussian Cox, immigration-death,
pairwise-interaction Gibbs, and point-level thinning.

Every simulator is a pure function of (model, window, seed): identical seeds
give identical outputs, and replicates with distinct seeds may run
concurrently.  Locations are returned as arrays with the event time in the
last column when the window is temporal.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _kernels
from .core import (
    Configuration,
    SampleSchedule,
    Window,
    _cell_centres,
    _shaped,
    midpoint_rule,
)
from .errors import NumericalError, ValidationError

__all__ = [
    "HomogeneousPoisson",
    "InhomogeneousPoisson",
    "LogGaussianCox",
    "ImmigrationDeath",
    "PairwiseGibbs",
    "GridField",
    "simulate_poisson",
    "simulate_lgcp",
    "simulate_immigration_death",
    "simulate_gibbs",
    "thin",
    "observable_retention",
]


# ---------------------------------------------------------------------------
# model descriptors
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class HomogeneousPoisson:
    rate: float

    def __post_init__(self):
        if not 0 <= self.rate < math.inf:
            raise ValidationError("rate must be nonnegative and finite")


@dataclass(frozen=True)
class InhomogeneousPoisson:
    """Intensity of (m, D) ground locations -> (m,), with a rejection bound."""

    intensity: Callable
    max_rate: float

    def __post_init__(self):
        if not 0 < self.max_rate < math.inf:
            raise ValidationError("max_rate must be positive and finite")


@dataclass(frozen=True)
class LogGaussianCox:
    """log-intensity = mean + stationary Gaussian field on a regular grid.

    ``mean`` is a number or maps the (m, D) cell centres to (m,) means.
    ``kernel`` is ("exponential"|"gaussian", variance, spatial range[, temporal
    range]); ``grid_shape`` gives cells per axis (time last when temporal).
    """

    mean: float | Callable
    kernel: tuple
    grid_shape: tuple

    def __post_init__(self):
        _check_kernel(self.kernel)
        if not (callable(self.mean) or math.isfinite(self.mean)):
            raise ValidationError("field mean must be finite")
        object.__setattr__(self, "kernel", tuple(self.kernel))
        object.__setattr__(self, "grid_shape", tuple(int(g) for g in self.grid_shape))
        if not all(g >= 1 for g in self.grid_shape):
            raise ValidationError("field grid needs at least one cell per axis")


@dataclass(frozen=True)
class ImmigrationDeath:
    arrival_rate: float
    death_rate: float

    def __post_init__(self):
        if not (0 < self.arrival_rate < math.inf and 0 < self.death_rate < math.inf):
            raise ValidationError("arrival and death rates must be positive and finite")


@dataclass(frozen=True)
class PairwiseGibbs:
    """Pairwise-interaction density beta^n gamma^(neighbour pairs).

    Neighbours are points within spatial range ``range_`` and, when
    ``temporal_range`` is set, within that time lag (a space-time cylinder).
    gamma must lie in (0, 1] so the density is hereditary; gamma=0 is the
    hard core.
    """

    beta: float
    gamma: float
    range_: float
    temporal_range: float | None = None

    def __post_init__(self):
        # written so that NaN fails every check
        if not 0.0 < self.beta < math.inf:
            raise ValidationError("beta must be positive and finite")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValidationError("gamma must lie in [0, 1] (inhibition only)")
        if self.range_ is None or not self.range_ > 0:
            raise ValidationError("interaction range must be positive")
        if self.temporal_range is not None and not self.temporal_range >= 0:
            raise ValidationError("temporal range must be nonnegative")


def _kernel_time_range(temporal_range: float | None, w: Window) -> float:
    """``temporal_range`` for the neighbour kernels, None as -1.0 (no time
    condition), which a temporal window forbids."""
    if temporal_range is None and w.is_temporal:
        raise ValidationError("temporal window requires a temporal_range")
    return -1.0 if temporal_range is None else float(temporal_range)


# ---------------------------------------------------------------------------
# Poisson
# ---------------------------------------------------------------------------
def _uniform_ground(n: int, w: Window, rng) -> np.ndarray:
    lo = np.asarray(w.lo)
    hi = np.asarray(w.hi)
    x = lo + rng.random((n, w.dim)) * (hi - lo)
    if w.is_temporal:
        t = rng.random((n, 1)) * w.t_star
        x = np.hstack([x, t])
    return x


def simulate_poisson(model, w: Window, seed: int) -> np.ndarray:
    """Simulate a Poisson ground process; inhomogeneous via rejection."""
    rng = np.random.default_rng(seed)
    vol = w.ground_volume
    if isinstance(model, HomogeneousPoisson):
        n = rng.poisson(model.rate * vol)
        return _uniform_ground(n, w, rng)
    if isinstance(model, InhomogeneousPoisson):
        n = rng.poisson(model.max_rate * vol)
        cand = _uniform_ground(n, w, rng)
        u = rng.random(n)
        lam = _shaped(model.intensity(cand), (n,), "intensity")
        if np.any(lam > model.max_rate * (1 + 1e-12)):
            raise NumericalError(f"intensity {np.max(lam)} exceeds the "
                                 f"rejection bound {model.max_rate}")
        return cand[u * model.max_rate < lam]
    raise ValidationError("simulate_poisson expects a Poisson model")


# ---------------------------------------------------------------------------
# log-Gaussian Cox
# ---------------------------------------------------------------------------
class GridField:
    """Piecewise-constant random field on a regular grid over the ground space.

    ``axes`` holds the cell-center coordinates per axis (time last when the
    window is temporal); ``values`` has shape ``grid_shape``.  The cells
    partition the window's ground box: ``widths`` holds each axis's cell
    width, the whole side when an axis has one cell.
    """

    __slots__ = ("axes", "values", "window", "widths")

    def __init__(self, axes, values, window):
        self.axes = [np.asarray(a, dtype=float) for a in axes]
        self.values = np.asarray(values, dtype=float)
        self.window = window
        self.widths = np.asarray([ax[1] - ax[0] if ax.size > 1 else hi - lo for ax, (lo, hi)
                                  in zip(self.axes, window.ground_bounds)], dtype=float)

    def cell_index(self, g) -> tuple:
        """Index of the cell holding a location: a tuple of ints for one
        location (D,), or of (m,) int arrays for an (m, D) array.

        Each axis takes its nearest cell centre, and the lower of two
        equally near ones at a cell edge.  A location more than half a cell
        from every centre of an axis raises ValidationError.
        """
        g = np.asarray(g, dtype=float)
        single = g.ndim < 2
        pts = g.reshape(1, -1) if single else g
        if pts.shape[1] != len(self.axes):
            raise ValidationError("location outside the field grid dimension")
        idx = []
        for coord, ax, step in zip(pts.T, self.axes, self.widths):
            # the last centre at or below coord and the next one: the
            # differences to the centres are monotone, so one of the two is
            # the nearest
            lo = np.maximum(np.searchsorted(ax, coord, side="right") - 1, 0)
            hi = np.minimum(lo + 1, ax.size - 1)
            j = np.where(np.abs(ax[hi] - coord) < np.abs(ax[lo] - coord), hi, lo)
            if not np.all(np.abs(ax[j] - coord) <= 0.5 * step * (1 + 1e-9)):
                raise ValidationError("location outside the field grid")
            idx.append(j)
        return tuple(int(j[0]) for j in idx) if single else tuple(idx)

    def __call__(self, g):
        """The field at one location (D,), or its (m,) values at an (m, D)
        array of locations."""
        value = self.values[self.cell_index(g)]
        return float(value) if np.ndim(value) == 0 else value

    @property
    def cell_volume(self) -> float:
        return float(math.prod(self.widths))


def _check_kernel(kernel) -> None:
    """Check a covariance kernel (family, variance, spatial range[,
    temporal range]): a known family, a finite nonnegative variance and
    positive finite ranges."""
    if kernel[0] not in ("exponential", "gaussian"):
        raise ValidationError(f"unknown covariance family {kernel[0]!r}")
    if len(kernel) not in (3, 4):
        raise ValidationError("kernel needs a variance and one or two ranges")
    if not 0 <= kernel[1] < math.inf:
        raise ValidationError("field variance must be nonnegative and finite")
    if not all(0 < r < math.inf for r in kernel[2:]):
        raise ValidationError("kernel ranges must be positive and finite")


def _correlation(family: str, h):
    """Correlation of the exponential or gaussian family at scaled lags h."""
    return np.exp(-h) if family == "exponential" else np.exp(-h * h)


def _cholesky(cov: np.ndarray, scale: float) -> np.ndarray:
    """Lower Cholesky factor of ``cov`` + j * I for the first jitter j of
    1e-10, 1e-8 and 1e-6 times ``scale`` that factorises."""
    # scale is the variance (1 for a correlation); a jitter above 1e-6 * scale
    # would no longer be rounding repair: it would swap the field's structure for noise
    jitter = 1e-10 * scale
    for _ in range(3):
        try:
            return np.linalg.cholesky(cov + jitter * np.eye(len(cov)))
        except np.linalg.LinAlgError:
            jitter *= 100.0
    raise NumericalError("covariance matrix is not positive semi-definite "
                         "(Cholesky failed with jitter up to 1e-6 * variance)")


def _covariance(model: LogGaussianCox, centers: np.ndarray, d_spatial: int):
    fam, var = model.kernel[0], model.kernel[1]
    rho_s = model.kernel[2]
    rho_t = model.kernel[3] if len(model.kernel) > 3 else rho_s
    ds = centers[:, None, :d_spatial] - centers[None, :, :d_spatial]
    h = np.sqrt(np.sum(ds * ds, axis=-1)) / rho_s
    if centers.shape[1] > d_spatial:
        ht = np.abs(centers[:, None, -1] - centers[None, :, -1]) / rho_t
        h = np.sqrt(h * h + ht * ht)
    return var * _correlation(fam, h)


def simulate_lgcp(model: LogGaussianCox, w: Window, seed: int):
    """Sample the log-Gaussian intensity field, then Poisson points given it.

    Returns (GridField of the intensity, ground locations).  The field is
    returned so intensity-dependent marking can reuse the same draw.
    """
    rng = np.random.default_rng(seed)
    bounds, shape = w.ground_bounds, model.grid_shape
    centers, _ = midpoint_rule(bounds, shape)
    mean = (_shaped(model.mean(centers), (len(centers),), "mean")
            if callable(model.mean) else np.full(len(centers), float(model.mean)))
    var = model.kernel[1]
    if var == 0.0:
        log_field = mean
    else:
        chol = _cholesky(_covariance(model, centers, w.dim), var)
        log_field = mean + chol @ rng.standard_normal(len(centers))
    field = GridField([_cell_centres(lo, hi, k) for (lo, hi), k in zip(bounds, shape)],
                      np.exp(log_field).reshape(shape), w)
    # given the field, a Poisson count per cell with piecewise-constant rate,
    # and each cell's points uniform on the cell
    counts = rng.poisson(field.values * field.cell_volume)
    locs = np.repeat(centers, counts.ravel(), axis=0)
    return field, locs + (rng.random(locs.shape) - 0.5) * field.widths


# ---------------------------------------------------------------------------
# immigration-death
# ---------------------------------------------------------------------------
def simulate_immigration_death(model: ImmigrationDeath, w: Window, seed: int):
    """Poisson arrivals on [0, t_star], uniform locations, Exp lifetimes.

    Returns (locations (n,d), birth times (n,), lifetimes (n,)); the death
    time is min(birth + lifetime, t_star).
    """
    if not w.is_temporal:
        raise ValidationError("immigration-death needs a temporal window")
    rng = np.random.default_rng(seed)
    n = rng.poisson(model.arrival_rate * w.t_star)
    births = np.sort(rng.random(n) * w.t_star)
    lo = np.asarray(w.lo)
    hi = np.asarray(w.hi)
    xs = lo + rng.random((n, w.dim)) * (hi - lo)
    lifetimes = rng.exponential(1.0 / model.death_rate, size=n)
    return xs, births, lifetimes


# ---------------------------------------------------------------------------
# Gibbs via birth-death Metropolis-Hastings
# ---------------------------------------------------------------------------
def simulate_gibbs(model: PairwiseGibbs, w: Window, steps: int, seed: int,
                   init: np.ndarray | None = None) -> np.ndarray:
    """Birth-death MH chain targeting beta^n gamma^(pairs) wrt unit Poisson.

    Burn-in is the caller's responsibility via ``steps``; the final state
    after ``steps`` proposals is returned.
    """
    if steps < 1:
        raise ValidationError("steps must be >= 1")
    rng = np.random.default_rng(seed)
    lo, hi = np.asarray(w.ground_bounds, dtype=float).T
    D = lo.size
    x0 = np.empty((0, D)) if init is None else np.asarray(init, dtype=float)
    trad = _kernel_time_range(model.temporal_range, w)
    return _kernels.gibbs_chain(
        x0, lo, hi, w.torus, float(model.beta), float(model.gamma),
        rng.random(steps), rng.random((steps, D)), rng.random(steps),
        rng.random(steps), float(model.range_), trad, w.dim,
    )


# ---------------------------------------------------------------------------
# thinning and the observable process
# ---------------------------------------------------------------------------
def thin(c: Configuration, retention: Callable, seed: int) -> Configuration:
    """Keep each point i independently with probability retention(c)[i]."""
    rng = np.random.default_rng(seed)
    probs = _shaped(retention(c), (len(c),), "retention")
    if not np.all((probs >= 0.0) & (probs <= 1.0)):
        raise ValidationError("retention probability outside [0, 1]")
    kept = np.flatnonzero(rng.random(len(probs)) < probs)
    return Configuration(c.window, c.ground[kept], c.auxs.take(kept),
                         c.marks.take(kept), c.reference)


def observable_retention(schedule: SampleSchedule) -> Callable:
    """Retention indicator of the observable process at the sample times.

    A point survives iff its mark support [a, b) contains at least one
    sample time (left endpoint closed).
    """
    times = np.asarray(schedule.times)

    def retention(c: Configuration) -> np.ndarray:
        hit = (c.marks.starts[:, None] <= times) & (times < c.marks.ends[:, None])
        return np.any(hit, axis=1).astype(float)

    return retention
