"""Union-of-disks representation of planar configurations over time.

A configuration with nonnegative functional marks is viewed, at each time t,
as a union of disks centred at the points with radii given by the mark
values; points whose mark vanishes at t contribute nothing (disks of
nonpositive radius are empty by convention).  Coverage fractions are
estimated by pixel counting; the expected coverage of a sparse model comes
from the count distribution and the second moment of the radius.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core import Configuration, Window
from .errors import ValidationError

__all__ = ["BooleanSection", "section", "coverage_fraction", "expected_coverage"]


@dataclass(frozen=True)
class BooleanSection:
    """Time slice of the occupied set: disk centers and positive radii."""

    t: float
    centers: np.ndarray
    radii: np.ndarray

    def __len__(self):
        return len(self.radii)


def section(c: Configuration, t: float) -> BooleanSection:
    """Disks at time t: one per point whose mark is positive there.

    Uses the realized (stochastic) support: a mark that happens to be zero
    at t yields no disk even inside its support interval.
    """
    if c.window.dim != 2:
        raise ValidationError("sections are defined for planar windows only")
    if c.window.is_temporal and not 0.0 <= t <= c.window.t_star:
        raise ValidationError("section time outside the window")
    radii = c.marks.at(t)[:, 0]
    disk = radii > 0.0
    return BooleanSection(float(t), c.spatial_locations()[disk], radii[disk])


def coverage_fraction(s: BooleanSection, w: Window, resolution: int = 128) -> float:
    """Pixel-counting estimate of the covered fraction of the window.

    Pixels are counted by their centers; disks wrap around when the window
    is a torus.  The absolute error is of order (perimeter * pixel size).
    """
    if resolution < 32:
        raise ValidationError("resolution must be at least 32")
    if len(s) == 0:
        return 0.0
    covered = _kernels.coverage_count(
        np.ascontiguousarray(s.centers), np.ascontiguousarray(s.radii),
        np.asarray(w.lo, dtype=float), np.asarray(w.hi, dtype=float),
        int(resolution), w.torus)
    return float(covered) / float(resolution * resolution)


def expected_coverage(count_dist, second_moment, w: Window,
                      tail_tol: float = 1e-8) -> float:
    """Expected covered fraction pi/area * sum_n P(N=n) sum_{i<=n} E[M_i(t)^2].

    Valid in the sparse regime where disks do not overlap.  ``count_dist``
    is ("poisson", nu, n_max) or ("pmf", probabilities over n=0..n_max);
    ``second_moment`` is E[M(t)^2], a scalar for exchangeable radii or a
    sequence indexed by i.  The truncated tail of sum_n n P(N=n) must carry
    less mass than ``tail_tol``.
    """
    if w.dim != 2:
        raise ValidationError("expected coverage is defined for planar windows")
    kind = count_dist[0]
    if kind == "poisson":
        nu, n_max = float(count_dist[1]), int(count_dist[2])
        if not (math.isfinite(nu) and nu >= 0.0):
            raise ValidationError("Poisson count mean must be finite and nonnegative")
        probs = np.array([math.exp(-nu + n * math.log(nu) - math.lgamma(n + 1))
                          if nu > 0 else (1.0 if n == 0 else 0.0)
                          for n in range(n_max + 1)])
        tail = nu - float(np.sum(np.arange(n_max + 1) * probs))
    elif kind == "pmf":
        probs = np.asarray(count_dist[1], dtype=float)
        if not np.all(np.isfinite(probs) & (probs >= 0.0)):
            raise ValidationError("count probabilities must be finite and nonnegative")
        tail = 1.0 - float(np.sum(probs))
    else:
        raise ValidationError(f"unknown count distribution {kind!r}")
    if tail > tail_tol:
        raise ValidationError(
            f"count distribution truncation tail {tail:.2e} exceeds {tail_tol:.0e}")
    m2 = np.asarray(second_moment, dtype=float)
    total = 0.0
    for n, p_n in enumerate(probs):
        if p_n == 0.0 or n == 0:
            continue
        inner = float(n * m2) if m2.ndim == 0 else float(np.sum(m2[:n]))
        total += p_n * inner
    return math.pi * total / w.volume
