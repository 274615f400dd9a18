"""Core state spaces and geometric primitives.

Houses the observation window with its ground box and midpoint rule,
grid-sampled cadlag paths, marked points, finite configurations and their
reference-measure descriptors, together with the path metrics (time-warp
metric and uniform metric), cylinder neighbourhoods, ground/temporal
projections, torus shifts, JSON/CSV serialization and the binary cache
between CLI stages.

A configuration is stored as columns: an (n, D) ground array (event time
last on a temporal window), one ``AuxTable`` of aux marks, an (n,) type
column and an (n, c) NaN-padded value matrix, and one ``MarkTable`` of
cadlag marks: a (k,) grid, an (n, k) value matrix, (n,) support starts and
ends, one mode and one t_star.  The tables' ``AuxMark`` and ``CadlagPath``
rows, and ``MarkedPoint`` views for callers outside fmpp, are built on
demand, and ``at`` evaluates every mark with one ``searchsorted``.
``CadlagPath.rows`` validates a table as one value matrix.  Paths on
several grids become one table on the merged grid: a step path keeps its
values, a linear path is interpolated at the new times, entries outside a
support are 0, and a linear path those rules would change raises.  The JSON
and CSV writers format each float once for both files, a column of a
block of rows at a time, and ``configuration_from_json`` is the one JSON
reader.  ``write_configuration_files`` also writes a flat binary ``.cols``
cache of the columns beside the JSON, bound to the JSON bytes by their
SHA-256, and ``read_configuration_files`` builds from the cache while it
matches the JSON and reads the JSON otherwise.

All types are immutable after construction and every operation is a pure
function, so values can be shared freely across threads.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from numbers import Integral
from operator import add

import numpy as np

from . import _kernels
from .errors import ValidationError

__all__ = [
    "Window",
    "ground_array",
    "midpoint_rule",
    "AuxMark",
    "AuxTable",
    "CadlagPath",
    "MarkTable",
    "MarkedPoint",
    "Configuration",
    "ReferenceSpec",
    "AuxMeasure",
    "SampleSchedule",
    "skorohod_distance",
    "uniform_distance",
    "cylinder_contains",
    "ground_projection",
    "temporal_projection",
    "shift",
    "configuration_to_json",
    "configuration_from_json",
    "configuration_to_csv_rows",
    "write_configuration_csv",
    "write_configuration_files",
    "read_configuration_files",
]


# ---------------------------------------------------------------------------
# Window
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Window:
    """Axis-aligned spatial box, optionally with a time interval [0, t_star].

    ``torus`` identifies opposite sides of the spatial box.  ``time_scale``
    is the factor applied to time differences when space and time enter a
    common ground metric (default 1, i.e. both measured on their own scale).
    """

    lo: tuple
    hi: tuple
    t_star: float | None = None
    torus: bool = False
    time_scale: float = 1.0

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lo)
        hi = tuple(float(v) for v in self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if len(lo) != len(hi):
            raise ValidationError("window lo/hi dimension mismatch")
        if not 1 <= len(lo) <= 3:
            raise ValidationError("spatial dimension must be 1, 2 or 3")
        if not all(h > l for l, h in zip(lo, hi)):
            raise ValidationError("spatial box must have positive volume")
        if not all(math.isfinite(v) for v in lo + hi):
            raise ValidationError("window lo and hi must be finite")
        if self.t_star is not None and not 0 < self.t_star < math.inf:
            raise ValidationError("t_star must be positive and finite when present")
        if not 0 < self.time_scale < math.inf:
            raise ValidationError("time_scale must be positive and finite")
        if isinstance(self.torus, np.bool_):
            object.__setattr__(self, "torus", bool(self.torus))
        if not isinstance(self.torus, bool):
            raise ValidationError(f"window torus must be true or false, not "
                                  f"{self.torus!r}")

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def sides(self) -> np.ndarray:
        return np.asarray(self.hi) - np.asarray(self.lo)

    @property
    def volume(self) -> float:
        return float(np.prod(self.sides))

    @property
    def ground_volume(self) -> float:
        """Volume of the ground space: spatial, times t_star if temporal."""
        v = self.volume
        return v * self.t_star if self.t_star is not None else v

    @property
    def is_temporal(self) -> bool:
        return self.t_star is not None

    @property
    def ground_bounds(self) -> list:
        """(lo, hi) per ground axis: the spatial sides, then (0, t_star)
        when temporal."""
        bounds = list(zip(self.lo, self.hi))
        if self.is_temporal:
            bounds.append((0.0, self.t_star))
        return bounds

    def wrap(self, x: np.ndarray) -> np.ndarray:
        """Wrap spatial coordinates onto the torus (requires torus flag)."""
        lo = np.asarray(self.lo)
        return lo + np.mod(np.asarray(x, dtype=float) - lo, self.sides)

    def spatial_distance(self, a, b) -> float:
        """Euclidean distance, with minimal-image convention on the torus."""
        d = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))
        if self.torus:
            d = np.minimum(d, self.sides - d)
        return float(np.sqrt(np.sum(d * d)))

    def ground_distance(self, g1, g2) -> float:
        """Supremum ground metric max(spatial, time_scale * |dt|)."""
        (x1, t1), (x2, t2) = g1, g2
        ds = self.spatial_distance(x1, x2)
        if t1 is None or t2 is None:
            return ds
        return max(ds, self.time_scale * abs(t1 - t2))


def ground_array(window: Window, ground) -> np.ndarray:
    """``ground`` as a new float (n, D) array: the spatial coordinates, then
    the event time when the window is temporal."""
    g = np.array(ground, dtype=float)
    D = len(window.ground_bounds)
    if g.size == 0:
        return g.reshape(0, D)
    if g.ndim != 2 or g.shape[1] != D:
        raise ValidationError(
            f"ground locations must form an (n, {D}) array"
            + (" with the event time last" if window.is_temporal else ""))
    return g


def _shaped(values, shape: tuple, what: str, dtype=float) -> np.ndarray:
    """The result of the user callable ``what`` as an array of ``shape``."""
    values = np.asarray(values, dtype=dtype)
    if values.shape != shape:
        raise ValidationError(f"{what} must return shape {shape}, not {values.shape}")
    return values


def _cell_centres(lo: float, hi: float, cells: int) -> np.ndarray:
    """Midpoints of ``cells`` equal cells partitioning [lo, hi]."""
    edges = np.linspace(lo, hi, cells + 1)
    return 0.5 * (edges[:-1] + edges[1:])


def _is_count(value) -> bool:
    """Whether ``value`` is an integer, a NumPy one too, and not a bool."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def midpoint_rule(bounds, cells):
    """Nodes (prod(cells), k) of the midpoint rule on the k axes ``bounds``
    = [(lo, hi), ...], in C order, and the cell volume.  ``cells`` is one
    integer count for every axis or one per axis."""
    counts = [cells] * len(bounds) if np.ndim(cells) == 0 else list(cells)
    if len(counts) != len(bounds):
        raise ValidationError("grid cell counts do not match the ground dimension")
    if not all(_is_count(k) and k >= 1 for k in counts):
        raise ValidationError("cells must be integer cell counts of at least 1, "
                              f"not {cells!r}")
    mesh = np.meshgrid(*[_cell_centres(lo, hi, k)
                         for (lo, hi), k in zip(bounds, counts)], indexing="ij")
    nodes = np.stack([m.ravel() for m in mesh], axis=-1)
    cell = float(np.prod([(hi - lo) / k for (lo, hi), k in zip(bounds, counts)]))
    return nodes, cell


# ---------------------------------------------------------------------------
# Marks
# ---------------------------------------------------------------------------
def _aux_parts(discrete, continuous) -> tuple:
    """An aux mark's discrete type as an int (0 for none) and its
    continuous values as a tuple of floats (empty for none)."""
    cont = () if continuous is None else tuple(map(float, continuous))
    if discrete is None and not cont:
        raise ValidationError("auxiliary mark needs a discrete or continuous part")
    if discrete is not None and (not _is_count(discrete) or discrete < 1):
        raise ValidationError("discrete auxiliary mark must be an integer >= 1")
    if not all(map(math.isfinite, cont)):
        raise ValidationError("continuous auxiliary mark must be finite")
    return int(discrete or 0), cont


@dataclass(frozen=True)
class AuxMark:
    """Auxiliary mark: a discrete type in {1..k} and/or a continuous vector."""

    discrete: int | None = None
    continuous: tuple | None = None

    def __post_init__(self):
        discrete, cont = _aux_parts(self.discrete, self.continuous)
        object.__setattr__(self, "discrete", discrete or None)
        object.__setattr__(self, "continuous", cont or None)


def _check_rows(grid, values, supports, mode, t_star):
    """Validate the paths on one grid: the (k,) ``grid``, the (n, k)
    ``values`` and the n (start, end) ``supports`` (None: each from grid[0]
    on).  Returns the (n,) starts and ends, the mode and t_star."""
    if grid.size == 0:
        raise ValidationError("path grid must be non-empty")
    if not np.all(np.diff(grid) > 0):
        raise ValidationError("path grid must be strictly increasing")
    if not np.all(np.isfinite(values)):
        raise ValidationError("path values must be finite")
    n = values.shape[0]
    if supports is None:
        a, b = np.full(n, grid[0]), np.full(n, np.inf)
    else:
        supports = np.array(supports, dtype=float)
        if supports.shape != (n, 2):
            raise ValidationError("supports must be one (start, end) pair per path")
        a, b = supports[:, 0], supports[:, 1]
    if not np.all(b >= a):
        raise ValidationError("support end must be >= support start")
    if t_star is not None:
        t_star = float(t_star)
        if grid[-1] > t_star + 1e-12:
            raise ValidationError("path grid exceeds the ambient interval")
    mode = str(mode)
    if mode not in ("step", "linear"):
        raise ValidationError("mode must be 'step' or 'linear'")
    outside = (grid < a[:, None]) | (grid >= b[:, None])
    if np.any(outside & (values != 0.0)):
        raise ValidationError("path must be zero at grid times outside its support")
    return a, b, mode, t_star


def _evaluate(grid, values, starts, ends, mode, t, left=False):
    """The (n, m) values at the m times ``t`` of the n paths whose rows of
    ``values`` lie on ``grid``, zero before grid[0] and outside [starts,
    ends) (each an (n, 1) column or a scalar).

    One ``searchsorted`` locates every time; ``linear`` mode then takes
    the slope formula of ``np.interp`` with its rounding, and holds the
    last value after the grid.  With ``left`` the values are the left
    limits lim_{s -> t-}: a step path holds the value before t, the linear
    interpolant is continuous, and both are zero up to grid[0] and outside
    (starts, ends]."""
    t = np.asarray(t, dtype=float)
    side = "left" if left and mode == "step" else "right"
    j = np.searchsorted(grid, t, side=side) - 1
    out = values[:, np.maximum(j, 0)]
    k = grid.size
    if mode == "linear" and k > 1:
        lo = np.clip(j, 0, k - 2)
        # off the grid's inner steps the times collapse onto a node, so the
        # ramp below never meets an infinite time
        between = (j >= 0) & (j < k - 1) & (t != grid[lo])
        x0 = grid[lo]
        y0 = values[:, lo]
        slope = (values[:, lo + 1] - y0) / (grid[lo + 1] - x0)
        ramp = slope * (np.where(between, t, x0) - x0) + y0
        out = np.where(between, ramp, out)
    if left:
        return np.where((t > grid[0]) & (t > starts) & (t <= ends), out, 0.0)
    return np.where((j >= 0) & (t >= starts) & (t < ends), out, 0.0)


class CadlagPath:
    """Right-continuous path sampled on a finite grid.

    The value at ``grid[j]`` holds on ``[grid[j], grid[j+1])`` in ``step``
    mode; ``linear`` mode interpolates between grid points.  Outside the
    half-open support interval ``[support[0], support[1])`` the path is
    identically zero; the degenerate support ``[a, a)`` is the zero path.
    ``CadlagPath.rows`` builds the ``MarkTable`` of a whole value matrix on
    one shared grid, whose rows are paths too.  A path holds read-only
    copies of its grid and values.
    """

    __slots__ = ("grid", "values", "support", "mode", "t_star")

    def __init__(self, grid, values, support=None, mode="step", t_star=None):
        grid = np.atleast_1d(np.array(grid, dtype=float))
        values = np.atleast_1d(np.array(values, dtype=float))
        if grid.ndim != 1 or grid.shape != values.shape:
            raise ValidationError("grid and values must be 1-d arrays of equal length")
        if support is not None:
            support = [(float(support[0]), float(support[1]))]
        (a,), (b,), mode, t_star = _check_rows(grid, values[None, :], support,
                                               mode, t_star)
        grid.flags.writeable = values.flags.writeable = False
        self.grid = grid
        self.values = values
        self.support = (float(a), float(b))
        self.mode = mode
        self.t_star = t_star

    @classmethod
    def rows(cls, grid, values, supports=None, mode="step", t_star=None):
        """The ``MarkTable`` of the (n, k) ``values`` matrix on the shared
        grid of k times, one path per row, validated as a whole by the
        rules of ``__init__``; the table holds its own copies.

        ``supports`` holds n (start, end) pairs; None gives every path the
        support [grid[0], inf).
        """
        grid = np.array(grid, dtype=float)
        values = np.array(values, dtype=float)
        if grid.ndim != 1 or values.ndim != 2 or values.shape[1] != grid.size:
            raise ValidationError("values must form an (n, k) matrix over a "
                                  "1-d grid of k times")
        return MarkTable(grid, values, *_check_rows(grid, values, supports,
                                                    mode, t_star))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        a, b = self.support
        out = _evaluate(self.grid, self.values[None, :], a, b, self.mode,
                        np.atleast_1d(t))[0]
        return float(out[0]) if t.ndim == 0 else out

    @property
    def ambient_end(self) -> float:
        if self.t_star is not None:
            return self.t_star
        a, b = self.support
        return max(float(self.grid[-1]), b if np.isfinite(b) else float(self.grid[-1]))

    def __eq__(self, other):
        if not isinstance(other, CadlagPath):
            return NotImplemented
        return (
            np.array_equal(self.grid, other.grid)
            and np.array_equal(self.values, other.values)
            and self.support == other.support
            and self.mode == other.mode
            and self.t_star == other.t_star
        )

    def __repr__(self):
        return (
            f"CadlagPath(n={self.grid.size}, support={self.support!r}, "
            f"mode={self.mode!r})"
        )


class MarkTable(Sequence):
    """The cadlag marks of n points on one grid: the (k,) ``grid``, the
    (n, k) ``values``, the (n,) support ``starts`` and ``ends``, one
    ``mode`` and one ``t_star``.

    Indexing and iteration give each row as a ``CadlagPath`` view that
    shares the grid and holds its row of ``values``; ``at`` evaluates every
    row at once.  ``CadlagPath.rows`` validates a table, and
    ``Configuration`` builds one from any other sequence of paths.  The
    table's arrays are made read-only.
    """

    __slots__ = ("grid", "values", "starts", "ends", "mode", "t_star")

    def __init__(self, grid, values, starts, ends, mode, t_star):
        for a in (grid, values, starts, ends):
            a.flags.writeable = False
        self.grid = grid
        self.values = values
        self.starts = starts
        self.ends = ends
        self.mode = mode
        self.t_star = t_star

    def __len__(self):
        return self.values.shape[0]

    def _row(self, values, a, b) -> CadlagPath:
        path = object.__new__(CadlagPath)
        path.grid = self.grid
        path.values = values
        path.support = (a, b)
        path.mode = self.mode
        path.t_star = self.t_star
        return path

    def __getitem__(self, i):
        return self._row(self.values[i], float(self.starts[i]),
                         float(self.ends[i]))

    def __iter__(self):
        return map(self._row, self.values, self.starts.tolist(),
                   self.ends.tolist())

    def take(self, rows) -> MarkTable:
        """The table of the given rows, on the same grid."""
        return MarkTable(self.grid, self.values[rows], self.starts[rows],
                         self.ends[rows], self.mode, self.t_star)

    def at(self, times) -> np.ndarray:
        """The (n, m) values of every path at the m ``times``."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        if len(self) == 0:
            return np.zeros((0, times.size))
        return _evaluate(self.grid, self.values, self.starts[:, None],
                         self.ends[:, None], self.mode, times)

    @property
    def ambient_end(self) -> float:
        """The latest ``ambient_end`` of the paths (t_star when set)."""
        if self.t_star is not None:
            return self.t_star
        ends = self.ends[np.isfinite(self.ends)]
        return float(np.max(ends, initial=self.grid[-1]))

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)

    __hash__ = None

    def __repr__(self):
        return (f"MarkTable(n={len(self)}, k={self.grid.size}, "
                f"mode={self.mode!r})")


class AuxTable(Sequence):
    """The aux marks of n points as two columns: ``discrete``, an (n,)
    int64 array of types (0 where a mark has no discrete part), and
    ``continuous``, an (n, c) float64 matrix of each mark's values from the
    left, NaN after its last value (a whole NaN row where it has none), c
    the longest mark's value count.  Indexing and iteration give each row
    as an ``AuxMark`` view of Python ``int``/``float`` values.  The table
    holds read-only copies of its columns.
    """

    __slots__ = ("discrete", "continuous")

    def __init__(self, discrete, continuous):
        discrete = np.asarray(discrete)
        continuous = np.asarray(continuous, dtype=float)
        if continuous.ndim != 2 or continuous.shape[:1] != discrete.shape:
            raise ValidationError("aux marks need an (n,) discrete column and "
                                  "an (n, c) continuous column")
        if (discrete.size and discrete.dtype.kind not in "iu") or np.any(discrete < 0):
            raise ValidationError("discrete auxiliary mark must be an integer >= 1")
        missing = np.isnan(continuous)
        # a value after a NaN is not padding
        if np.any(np.isinf(continuous)) or np.any(missing[:, 1:] < missing[:, :-1]):
            raise ValidationError("continuous auxiliary mark must be finite")
        lengths = (~missing).sum(axis=1)
        if np.any((discrete == 0) & (lengths == 0)):
            raise ValidationError("auxiliary mark needs a discrete or continuous part")
        self.discrete = np.array(discrete, dtype=np.int64)
        self.continuous = continuous[:, :lengths.max(initial=0)].copy()
        self.discrete.flags.writeable = self.continuous.flags.writeable = False

    def __len__(self):
        return self.discrete.shape[0]

    @staticmethod
    def _row(discrete, values) -> AuxMark:
        return AuxMark(discrete or None,
                       tuple(v for v in values if not math.isnan(v)) or None)

    def __getitem__(self, i):
        return self._row(int(self.discrete[i]), self.continuous[i].tolist())

    def __iter__(self):
        return map(self._row, self.discrete.tolist(), self.continuous.tolist())

    def take(self, rows) -> AuxTable:
        """The table of the given rows."""
        return AuxTable(self.discrete[rows], self.continuous[rows])

    __eq__ = MarkTable.__eq__
    __hash__ = None

    def __repr__(self):
        return f"AuxTable(n={len(self)}, c={self.continuous.shape[1]})"


def _aux_table(auxs) -> AuxTable:
    """``auxs`` as an ``AuxTable``: a table as it is, any other sequence of
    ``AuxMark`` as the table of their parts."""
    if isinstance(auxs, AuxTable):
        return auxs
    auxs = tuple(auxs)
    if not all(isinstance(a, AuxMark) for a in auxs):
        raise ValidationError("aux marks must be AuxMark values or an AuxTable")
    return _pad_aux([a.discrete or 0 for a in auxs],
                    [a.continuous or () for a in auxs])


def _pad_aux(discrete, conts) -> AuxTable:
    """The table of n discrete types (0 for none) and n tuples of
    continuous values, each padded with NaN to the longest."""
    c = max(map(len, conts), default=0)
    rows = [v + (np.nan,) * (c - len(v)) for v in conts]
    return AuxTable(np.array(discrete, dtype=np.int64),
                    np.array(rows, dtype=float).reshape(len(conts), c))


def _merged_table(paths) -> MarkTable:
    """The table of a sequence of paths, each row embedded on the merged
    grid of every distinct grid.

    A step row keeps its values there.  A linear row is its interpolant at
    the new grid times, exact at its own; entries outside its support are
    0, so a row whose support ends or starts inside one of
    its grid steps, next to a new grid time, would change its values and
    raises, as does one whose support starts before its first grid time
    when a new grid time lies before that.
    """
    paths = tuple(paths)
    if not paths:
        return MarkTable(np.zeros(0), np.zeros((0, 0)), np.zeros(0),
                         np.zeros(0), "step", None)
    modes = {p.mode for p in paths}
    if len(modes) > 1:
        raise ValidationError("the marks of a configuration must share one mode")
    t_stars = {p.t_star for p in paths}
    if len(t_stars) > 1:
        raise ValidationError("the marks of a configuration must share one t_star")
    (mode,), (t_star,) = modes, t_stars
    starts, ends = np.array([p.support for p in paths]).T
    groups = {}
    for i, p in enumerate(paths):
        groups.setdefault(id(p.grid), (p.grid, []))[1].append(i)
    grids = [g for g, _ in groups.values()]
    if all(np.array_equal(g, grids[0]) for g in grids[1:]):
        return MarkTable(grids[0], np.stack([p.values for p in paths]),
                         starts, ends, mode, t_star)
    merged = np.unique(np.concatenate(grids))
    values = np.empty((len(paths), merged.size))
    for grid, rows in groups.values():
        own = np.stack([paths[i].values for i in rows])
        a, b = starts[rows, None], ends[rows, None]
        values[rows] = _evaluate(grid, own, a, b, mode, merged)
        if mode == "linear":
            _check_linear_embedding(grid, own, a, b, merged)
    return MarkTable(merged, values, starts, ends, mode, t_star)


def _check_linear_embedding(grid, values, a, b, merged):
    """Raise when linear rows on ``grid`` with supports [a, b) ((r, 1)
    columns) would change their values on the ``merged`` grid."""
    first = grid[0]
    if merged[0] < first and np.any((a < first) & (values[:, :1] != 0.0)):
        raise ValidationError(
            "a linear path whose support starts before its first grid time "
            "would ramp instead of jump on the merged grid of ragged marks")
    # the merged grid zeroes the times outside a support; that loses the
    # interpolant where it is non-zero next to the support
    free = _evaluate(grid, values, -np.inf, np.inf, "linear", merged)
    after = np.append(merged[1:], np.inf)
    before = np.insert(merged[:-1], 0, -np.inf)
    lost = (free != 0.0) & (((merged < a) & (after > a))
                            | ((merged >= b) & (before < b)))
    if np.any(lost):
        raise ValidationError(
            "a linear path whose support cuts one of its grid steps would "
            "change on the merged grid of ragged marks")


@dataclass(frozen=True)
class MarkedPoint:
    """One point: spatial location, optional event time, aux and functional mark."""

    x: tuple
    t: float | None
    aux: AuxMark
    mark: CadlagPath

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        if self.t is not None:
            object.__setattr__(self, "t", float(self.t))


# ---------------------------------------------------------------------------
# Reference measures
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class AuxMeasure:
    """Reference measure on the auxiliary-mark space.

    kind 'counting': counting measure on {1..k} (params = (k,));
    kind 'lebesgue': Lebesgue on an interval (params = (lo, hi), hi may be inf);
    kind 'expon': unit-rate exponential probability measure on [0, inf)
    (params = (rate,)); kind 'product': counting x continuous.
    """

    kind: str
    params: tuple = ()

    def __post_init__(self):
        if self.kind not in ("counting", "lebesgue", "expon", "product"):
            raise ValidationError(f"unknown aux measure kind {self.kind!r}")
        object.__setattr__(self, "params", tuple(self.params))

    @property
    def mass(self) -> float:
        if self.kind == "counting":
            return float(self.params[0])
        if self.kind == "lebesgue":
            lo, hi = self.params
            return float(hi - lo)
        if self.kind == "expon":
            return 1.0
        k = float(self.params[0])
        return k * AuxMeasure(self.params[1], tuple(self.params[2:])).mass

    @property
    def finite(self) -> bool:
        return np.isfinite(self.mass)


@dataclass(frozen=True)
class ReferenceSpec:
    """Reference measure split: aux measure and functional-mark reference law."""

    aux: AuxMeasure = field(default_factory=lambda: AuxMeasure("counting", (1,)))
    mark_reference: tuple = ("wiener", 1.0)

    def __post_init__(self):
        kind = self.mark_reference[0]
        if kind not in ("wiener", "point_mass", "custom"):
            raise ValidationError(f"unknown mark reference {kind!r}")
        object.__setattr__(self, "mark_reference", tuple(self.mark_reference))


@dataclass(frozen=True)
class SampleSchedule:
    """The discrete mark-sampling times s_1 < ... < s_k."""

    times: tuple

    def __post_init__(self):
        times = tuple(float(s) for s in self.times)
        if len(times) == 0:
            raise ValidationError("sample schedule must be non-empty")
        if not all(math.isfinite(s) for s in times):
            raise ValidationError("sample times must be finite")
        if any(s < 0 for s in times):
            raise ValidationError("sample times must be nonnegative")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValidationError("sample times must be strictly increasing")
        object.__setattr__(self, "times", times)

    def __len__(self):
        return len(self.times)

    def validate_within(self, t_star: float):
        if self.times[-1] > t_star:
            raise ValidationError("sample times must lie within [0, t_star]")


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------
class Configuration:
    """A finite realization: marked points in a window plus reference spec.

    Stored as columns: ``ground`` is a read-only (n, D) array of ground
    locations (the event time last on a temporal window), ``auxs`` the
    ``AuxTable`` of the n aux marks and ``marks`` the ``MarkTable`` of the
    n cadlag marks.  The ground locations must lie in the window and be
    pairwise distinct (simplicity of the ground measure), and on a temporal
    window every mark support starts at a nonnegative time and the marks'
    t_star is the window's; construction fails otherwise.  Aux marks given
    as any other sequence of ``AuxMark`` become one table, and marks given
    as any other sequence of paths one table on the merged grid of theirs.
    """

    __slots__ = ("window", "ground", "auxs", "marks", "reference")

    def __init__(self, window: Window, ground, auxs: Iterable[AuxMark],
                 marks: Iterable[CadlagPath],
                 reference: ReferenceSpec | None = None):
        ground = ground_array(window, ground)
        auxs = _aux_table(auxs)
        if not isinstance(marks, MarkTable):
            marks = _merged_table(marks)
        n = ground.shape[0]
        if len(auxs) != n or len(marks) != n:
            raise ValidationError("configuration needs one aux mark and one "
                                  "mark per ground location")
        lo, hi = np.asarray(window.ground_bounds, dtype=float).T
        outside = ~np.all((ground >= lo) & (ground <= hi), axis=1)
        if np.any(outside):
            key = tuple(ground[np.argmax(outside)].tolist())
            raise ValidationError(f"point {key} lies outside the window")
        rows = ground[np.lexsort(ground.T[::-1])]
        same = np.all(rows[1:] == rows[:-1], axis=1)
        if np.any(same):
            key = tuple(rows[np.argmax(same)].tolist())
            raise ValidationError(f"duplicate ground location {key}")
        if window.is_temporal and n:
            if np.any(marks.starts < -1e-12):
                raise ValidationError("mark support must start at a nonnegative time")
            if marks.t_star != window.t_star:
                raise ValidationError(
                    f"mark t_star {marks.t_star} differs from the window's "
                    f"t_star {window.t_star}")
        ground.flags.writeable = False
        self.window = window
        self.ground = ground
        self.auxs = auxs
        self.marks = marks
        self.reference = reference if reference is not None else ReferenceSpec()

    def __len__(self):
        return self.ground.shape[0]

    def __iter__(self):
        return iter(self.points)

    @property
    def points(self) -> tuple:
        """The points as ``MarkedPoint`` views, built on each access."""
        d, temporal = self.window.dim, self.window.is_temporal
        return tuple(MarkedPoint(g[:d], g[d] if temporal else None, a, m)
                     for g, a, m in zip(self.ground.tolist(), self.auxs,
                                        self.marks))

    def locations(self) -> np.ndarray:
        """The ``ground`` column: an (n, d) or (n, d+1) array (time last)."""
        return self.ground

    def spatial_locations(self) -> np.ndarray:
        return self.ground[:, : self.window.dim]


def ground_projection(c: Configuration) -> list:
    """Drop all marks: the ground locations, order preserved."""
    d = c.window.dim
    if c.window.is_temporal:
        return [(tuple(g[:d]), g[d]) for g in c.ground.tolist()]
    return [tuple(g) for g in c.ground.tolist()]


def temporal_projection(c: Configuration) -> list:
    """Event times of a temporally grounded configuration, order preserved."""
    if not c.window.is_temporal:
        raise ValidationError("configuration has no temporal component")
    return c.ground[:, -1].tolist()


def shift(c: Configuration, z) -> Configuration:
    """Translate all ground locations by z, keeping marks unchanged.

    On a torus the spatial part wraps; otherwise every shifted point must
    stay inside the window.  For temporal windows z may carry a trailing
    time component, which never wraps.
    """
    z = np.asarray(z, dtype=float)
    d = c.window.dim
    if z.shape == (d,):
        zt = 0.0
    elif c.window.is_temporal and z.shape == (d + 1,):
        z, zt = z[:d], float(z[d])
    else:
        raise ValidationError("shift vector has the wrong dimension")
    x = c.ground[:, :d] + z
    if c.window.torus:
        x = c.window.wrap(x)
    ground = np.hstack([x, c.ground[:, d:] + zt])
    return Configuration(c.window, ground, c.auxs, c.marks, c.reference)


def cylinder_contains(center, u: float, v: float, query, window: Window | None = None) -> bool:
    """Closed space-time cylinder membership test, the neighbourhood that the
    Gibbs chain and the pseudo-likelihood use (``_kernels._in_range``).

    True iff the squared spatial distance between center and query is <= u^2
    and the absolute time difference is <= v.  Uses the torus metric when the
    given window has the torus flag.  Points are (x, t) pairs; if both times
    are None only the spatial condition applies.
    """
    if not (u >= 0 and v >= 0):
        raise ValidationError("cylinder radii must be nonnegative")
    timed = center[1] is not None
    if timed != (query[1] is not None):
        raise ValidationError("cannot mix timed and untimed points")
    a, b = (np.append(np.asarray(x, dtype=float), [t] if timed else [])
            for x, t in (center, query))
    torus = window is not None and window.torus
    return bool(_kernels._in_range(a, b, window.sides if torus else None, torus,
                                   float(u), float(v), a.size - timed))


# ---------------------------------------------------------------------------
# Path metrics
# ---------------------------------------------------------------------------
def _common_ambient(f: CadlagPath, g: CadlagPath) -> float:
    if f.t_star is not None and g.t_star is not None and f.t_star != g.t_star:
        raise ValidationError("paths live on different ambient intervals")
    return max(f.ambient_end, g.ambient_end)


def uniform_distance(f: CadlagPath, g: CadlagPath) -> float:
    """Supremum distance over the merged grid of two paths."""
    from ._skorohod import _points

    t_star = _common_ambient(f, g)
    pts = _points((f.grid, g.grid, f.support, g.support, (0.0, t_star)), t_star)
    # midpoints catch the open step intervals, the points themselves the jumps
    mids = 0.5 * (pts[:-1] + pts[1:])
    sample = np.concatenate([pts, mids])
    return float(np.max(np.abs(f(sample) - g(sample))))


def skorohod_distance(f: CadlagPath, g: CadlagPath, warp_grid_resolution: int = 32) -> float:
    """Time-warp distance between two grid paths.

    Minimizes max(gamma(w), int e^{-u} sup_t min(|f(t^u) - g(w(t)^u)|, 1) du)
    over a finite family of piecewise-linear monotone surjective warps w built
    by dynamic programming on the warp lattice (plus the identity), where
    gamma(w) is the largest |log slope| over warp segments and ^ denotes
    truncation min(.,u).  The result upper-bounds the true infimum and is
    symmetric in (f, g).
    """
    from ._skorohod import skorohod_distance_impl

    if warp_grid_resolution < 2:
        raise ValidationError("warp_grid_resolution must be >= 2")
    t_star = _common_ambient(f, g)
    if t_star <= 0:
        raise ValidationError("degenerate ambient interval")
    return skorohod_distance_impl(f, g, t_star, int(warp_grid_resolution))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------
# json.dumps spells the floats whose repr is nan, inf or -inf this way
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# and the export writes an unbounded support end as null
_JSON_END = {**_JSON_NONFINITE, "inf": "null", "-inf": "null"}


def _json_float(text: str) -> str:
    """A float's JSON text, as json.dumps writes it, from its repr."""
    return _JSON_NONFINITE.get(text, text)


# Row blocks of at most this many mark values are formatted at once, so the
# value texts of one block, not of the whole table, are held at a time
_TEXT_BLOCK_VALUES = 1 << 14


def _reprs(a: np.ndarray) -> list:
    """The repr of every float of the 1-d array ``a``."""
    return list(map(repr, a.tolist()))


def _json_reprs(a: np.ndarray, texts: list, spelling=_JSON_NONFINITE) -> list:
    """The ``_reprs`` texts of ``a``, the non-finite ones as ``spelling``
    has them, by default as json.dumps spells them."""
    return (texts if np.all(np.isfinite(a))
            else [spelling.get(t, t) for t in texts])


def _aux_texts(discrete: np.ndarray, continuous: np.ndarray) -> tuple:
    """Per aux row, its type text ("" for none) and its list of continuous
    value texts without the NaN padding."""
    kinds = [str(k) if k else "" for k in discrete.tolist()]
    present = ~np.isnan(continuous)
    flat = _reprs(continuous[present])
    ends = np.cumsum(present.sum(axis=1)).tolist()
    conts = [flat[a:b] for a, b in zip([0, *ends], ends)]
    return kinds, conts


def _point_texts(c: Configuration, want_json=True, want_csv=True):
    """Per block of rows, the list of the points' JSON object texts and an
    iterator over their marks-CSV blocks, each None when not wanted.

    Every float is formatted once with ``repr``, a column of a block at a
    time, and both texts are assembled from those strings: a mark's values
    as the repr of their list, which is the JSON array itself and splits
    into the CSV value column, and the table's one grid once for every
    point.
    """
    d, temporal = c.window.dim, c.window.is_temporal
    table, n = c.marks, len(c)
    times = _reprs(table.grid)
    grid_js = "[" + ", ".join(map(_json_float, times)) + "]"
    grid_csv = [s + "," for s in times]
    tail_js = (', "mode": ' + json.dumps(table.mode) + ', "t_star": '
               + ("null" if table.t_star is None
                  else _json_float(repr(table.t_star))) + "}}")
    rows = max(1, _TEXT_BLOCK_VALUES // max(1, table.grid.size))
    for r0 in range(0, n, rows):
        r1 = min(r0 + rows, n)
        ground, starts, ends = (c.ground[r0:r1], table.starts[r0:r1],
                                table.ends[r0:r1])
        coords = [_reprs(col) for col in ground.T]
        ts = coords[d] if temporal else [""] * (r1 - r0)
        start_texts, end_texts = _reprs(starts), _reprs(ends)
        kinds, conts = _aux_texts(c.auxs.discrete[r0:r1],
                                  c.auxs.continuous[r0:r1])
        values = list(map(repr, table.values[r0:r1].tolist()))
        js = blocks = None
        if want_json:
            xs = list(map(", ".join, zip(*map(_json_reprs, ground.T[:d],
                                              coords[:d]))))
            ts_js = _json_reprs(ground[:, d], ts) if temporal else ts
            js = ["".join([
                '{"x": [', x, "]", ', "t": ' + t if temporal else "",
                ', "aux": {',
                '"discrete": ' + kind if kind else "",
                ", " if kind and cont else "",
                '"continuous": [' + ", ".join(cont) + "]" if cont else "",
                '}, "mark": {"grid": ', grid_js, ', "values": ', v,
                ', "support": [', a, ", ", b, "]", tail_js])
                for x, t, kind, cont, v, a, b in zip(
                    xs, ts_js, kinds, conts, values,
                    _json_reprs(starts, start_texts),
                    _json_reprs(ends, end_texts, _JSON_END))]
        if want_csv:
            # each prefix ends in a comma, the field after aux_continuous
            prefixes = list(map(",".join, zip(
                map(str, range(r0, r1)), *coords[:d], ts, kinds,
                map(";".join, conts), [""] * (r1 - r0))))
            # built one at a time as the caller writes them
            blocks = (
                prefix + (suffix + prefix).join(
                    map(add, grid_csv, v[1:-1].split(", "))) + suffix
                for prefix, suffix, v in zip(
                    prefixes, map(",{},{}\n".format, start_texts, end_texts),
                    values))
        yield js, blocks


def _head(c: Configuration) -> dict:
    """The window and reference fields of both file formats."""
    return {
        "window": {
            "lo": list(c.window.lo),
            "hi": list(c.window.hi),
            "t_star": c.window.t_star,
            "torus": c.window.torus,
            "time_scale": c.window.time_scale,
        },
        "reference": {
            "aux": {"kind": c.reference.aux.kind, "params": list(c.reference.aux.params)},
            "mark_reference": list(c.reference.mark_reference),
        },
    }


def _json_document(c: Configuration, points) -> str:
    """The configuration's JSON text around the given point object texts."""
    head = json.dumps(_head(c))
    return head[:-1] + ', "points": [' + ", ".join(points) + "]}"


def configuration_to_json(c: Configuration) -> str:
    """Serialize a configuration; floats round-trip at full precision."""
    return _json_document(c, (js for block, _ in _point_texts(c, want_csv=False)
                              for js in block))


def _field(obj, key, where: str):
    """``obj[key]``, or a ValidationError naming ``where`` and the key."""
    if not isinstance(obj, dict) or key not in obj:
        raise ValidationError(f"{where}: missing field {key!r}")
    return obj[key]


def _mark_fields(i: int, mark) -> tuple:
    """A point's mark object as ((grid list, mode, t_star), values,
    (start, end))."""
    where = f"point {i}: mark"
    grid, values = _field(mark, "grid", where), _field(mark, "values", where)
    support = _field(mark, "support", where)
    try:
        a, b = support
        support = float(a), np.inf if b is None else float(b)
    except (TypeError, ValueError):
        raise ValidationError(f"{where} field 'support' must be a "
                              "[start, end] pair of numbers") from None
    try:
        equal = len(values) == len(grid)
    except TypeError:
        equal = False
    if not equal:
        raise ValidationError(f"{where} grid and values must be 1-d arrays "
                              "of equal length")
    return (grid, mark.get("mode", "step"), mark.get("t_star")), values, support


def _value_matrix(rows: list, points: list) -> np.ndarray:
    """The float matrix of the value lists ``rows`` of the given points, or
    a ValidationError naming the first point whose values are not numbers."""
    try:
        return np.array(rows, dtype=float)
    except (TypeError, ValueError):
        pass
    for i, row in zip(points, rows):
        try:
            np.array(row, dtype=float)
        except (TypeError, ValueError):
            break
    raise ValidationError(f"point {i}: mark field 'values' must hold numbers")


def _window_and_reference(obj: dict) -> tuple:
    """The window and reference spec of ``_head``'s fields."""
    w = _field(obj, "window", "configuration")
    window = Window(tuple(_field(w, "lo", "window")),
                    tuple(_field(w, "hi", "window")), w.get("t_star"),
                    w.get("torus", False), w.get("time_scale", 1.0))
    r = obj.get("reference", {})
    aux_obj = r.get("aux", {"kind": "counting", "params": [1]})
    reference = ReferenceSpec(
        AuxMeasure(aux_obj["kind"], tuple(aux_obj["params"])),
        tuple(r.get("mark_reference", ("wiener", 1.0))),
    )
    return window, reference


def configuration_from_json(text: str) -> Configuration:
    """Read ``configuration_to_json`` text.  The marks of each distinct grid
    list, mode and t_star are validated as one value matrix, and marks on
    several grids become one table on their merged grid.  A missing or
    malformed field raises a ValidationError naming it and its point."""
    obj = json.loads(text)
    window, reference = _window_and_reference(obj)
    d, temporal = window.dim, window.is_temporal
    ground, discrete, conts, rows, supports, groups = [], [], [], [], [], {}
    last = None
    for i, po in enumerate(_field(obj, "points", "configuration")):
        where = f"point {i}"
        x, t = _field(po, "x", where), po.get("t")
        if not isinstance(x, list) or len(x) != d:
            raise ValidationError(f"location must have dimension {d}")
        if temporal and t is None:
            raise ValidationError("temporal window requires event times")
        if not temporal and t is not None:
            raise ValidationError("spatial window takes no event times")
        ground.append(x + [t] if temporal else x)
        aux = _field(po, "aux", where)
        try:
            kind, cont = _aux_parts(aux.get("discrete"), aux.get("continuous"))
        except (AttributeError, TypeError, ValueError) as exc:
            raise ValidationError(f"{where}: field 'aux': {exc}") from None
        discrete.append(kind)
        conts.append(cont)
        spec, values, support = _mark_fields(i, _field(po, "mark", where))
        # a file's marks usually share one grid list: compare it with the
        # previous mark's before hashing every grid time
        if spec != last:
            last = spec
            try:
                group = groups.setdefault((tuple(spec[0]), *spec[1:]), [])
            except TypeError:
                raise ValidationError(
                    f"{where}: mark fields 'grid', 'mode' and 't_star' must "
                    "hold numbers and names") from None
        group.append(i)
        rows.append(values)
        supports.append(support)
    tables = []
    for (grid, mode, t_star), idx in groups.items():
        try:
            grid = np.array(grid, dtype=float)
        except (TypeError, ValueError):
            raise ValidationError(f"point {idx[0]}: mark field 'grid' must "
                                  "hold numbers") from None
        values = _value_matrix([rows[i] for i in idx], idx)
        tables.append((idx, CadlagPath.rows(
            grid, values, [supports[i] for i in idx], mode, t_star)))
    if len(tables) == 1:
        marks = tables[0][1]
    else:
        marks = [None] * len(rows)
        for idx, table in tables:
            for i, path in zip(idx, table):
                marks[i] = path
    return Configuration(window, ground, _pad_aux(discrete, conts), marks,
                         reference)


def _csv_header(c: Configuration) -> str:
    return ",".join(["point", *(f"x{i+1}" for i in range(c.window.dim)), "t",
                     "aux_discrete", "aux_continuous", "grid_time", "value",
                     "support_start", "support_end"]) + "\n"


def _csv_blocks(c: Configuration):
    """Marks CSV text: the header line, then one block per point holding a
    line per (grid time, value) pair."""
    yield _csv_header(c)
    for _, blocks in _point_texts(c, want_json=False):
        yield from blocks


def configuration_to_csv_rows(c: Configuration) -> list:
    """Flat export: a header row, then one row per (point, grid-time) pair."""
    return [line.split(",") for block in _csv_blocks(c)
            for line in block.splitlines()]


def _write_csv_head(fh, c: Configuration, metadata: dict | None):
    for k, v in (metadata or {}).items():
        fh.write(f"# {k}={v}\n")
    fh.write(_csv_header(c))


def write_configuration_csv(c: Configuration, path, metadata: dict | None = None):
    """Write the flat export, each metadata item as a ``# key=value`` line
    above the header."""
    with open(path, "w", encoding="utf-8") as fh:
        _write_csv_head(fh, c, metadata)
        for _, blocks in _point_texts(c, want_json=False):
            fh.writelines(blocks)


def write_configuration_files(c: Configuration, json_path, csv_path,
                              metadata: dict | None = None):
    """Write ``configuration_to_json(c)`` to ``json_path`` and
    ``write_configuration_csv(c, csv_path, metadata)``'s file, the same
    bytes as those two, formatting every value once for both, and the
    binary column cache that ``read_configuration_files`` reads in place of
    these JSON bytes to ``json_path`` with the suffix ``.cols``."""
    points = []
    with open(csv_path, "w", encoding="utf-8") as fh:
        _write_csv_head(fh, c, metadata)
        for js, blocks in _point_texts(c):
            points += js
            fh.writelines(blocks)
    data = _json_document(c, points).encode("utf-8")
    with open(json_path, "wb") as fh:
        fh.write(data)
    _write_cache(c, _cache_path(json_path), hashlib.sha256(data).hexdigest())


# The column cache beside a JSON file is one flat file:
#   bytes 0-7   _CACHE_MAGIC, whose last byte is the format version;
#   bytes 8-15  the length h of the header, little-endian;
#   h bytes     the JSON header: _head's fields, the marks' mode and t_star,
#               the SHA-256 of the JSON file written with it and, under
#               "columns", each column's dtype string, shape and byte offset
#               from the end of the header padded to 8 bytes;
#   then each column of _CACHE_COLUMNS in turn, its raw C-order bytes padded
#   to 8 bytes.
# Its bytes depend on the columns alone, so a rerun writes the same file.
_CACHE_MAGIC = b"FMPPCOL\x01"
# each column's dtype and dimension count
_CACHE_COLUMNS = {"ground": ("<f8", 2), "grid": ("<f8", 1),
                  "values": ("<f8", 2), "starts": ("<f8", 1),
                  "ends": ("<f8", 1), "discrete": ("<i8", 1),
                  "continuous": ("<f8", 2)}


def _cache_path(json_path) -> str:
    """The column cache beside a JSON file: its path with the suffix
    ``.cols``."""
    return os.path.splitext(json_path)[0] + ".cols"


def _padding(size: int) -> bytes:
    """The zero bytes that pad ``size`` bytes to a multiple of 8."""
    return bytes(-size % 8)


def _write_cache(c: Configuration, path, json_sha256: str):
    """Write the column cache of ``c``, bound to the JSON bytes of SHA-256
    ``json_sha256``, to ``path``."""
    table, auxs = c.marks, c.auxs
    arrays = {"ground": c.ground, "grid": table.grid, "values": table.values,
              "starts": table.starts, "ends": table.ends,
              "discrete": auxs.discrete, "continuous": auxs.continuous}
    columns, body, offset = {}, [], 0
    for name, (dtype, _) in _CACHE_COLUMNS.items():
        a = np.ascontiguousarray(arrays[name], dtype=dtype)
        columns[name] = [dtype, list(a.shape), offset]
        body += [a, _padding(a.nbytes)]
        offset += a.nbytes + len(body[-1])
    header = json.dumps({**_head(c), "mode": table.mode,
                         "t_star": table.t_star, "json_sha256": json_sha256,
                         "columns": columns}).encode("utf-8")
    with open(path, "wb") as fh:
        fh.writelines([_CACHE_MAGIC, len(header).to_bytes(8, "little"), header,
                       _padding(len(header)), *body])


def _cache_column(data: bytes, start: int, spec, dtype: str, ndim: int):
    """The read-only view of ``data`` that the header entry ``spec``
    describes, its offset counted from ``start``; ValueError when the entry
    is not an aligned ``dtype`` array of ``ndim`` dimensions, or, from
    ``np.frombuffer``, when it runs past the end of ``data``."""
    kind, shape, offset = spec
    if (kind != dtype or len(shape) != ndim or offset < 0 or offset % 8
            or any(k < 0 for k in shape)):
        raise ValueError("not a cache column")
    return np.frombuffer(data, dtype, math.prod(shape),
                         start + offset).reshape(shape)


def _read_cache(path, json_sha256: str):
    """The header and named columns of the column cache at ``path``, or
    None when there is no readable cache there or it was written with other
    JSON bytes than those of SHA-256 ``json_sha256``.  The columns are
    aligned read-only views of the file's bytes, read with one ``read``."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        if data[:8] != _CACHE_MAGIC:
            return None
        size = int.from_bytes(data[8:16], "little")
        header = json.loads(data[16:16 + size])
        if header["json_sha256"] != json_sha256:
            return None
        start = 16 + size + -size % 8
        return header, {name: _cache_column(data, start,
                                            header["columns"][name], *spec)
                        for name, spec in _CACHE_COLUMNS.items()}
    except (OSError, ValueError, KeyError, TypeError):
        return None


def read_configuration_files(json_path) -> Configuration:
    """The configuration of the JSON file ``json_path``.

    When the ``.cols`` file beside it holds the cache that
    ``write_configuration_files`` wrote with these JSON bytes (their
    SHA-256 matches), the configuration is built from its arrays, through
    the checks of ``CadlagPath.rows``, ``AuxTable`` and ``Configuration``
    that the JSON reader uses; otherwise, the cache missing, stale or
    unreadable, ``configuration_from_json`` reads the JSON.  Either way it
    equals the JSON's configuration.
    """
    with open(json_path, "rb") as fh:
        data = fh.read()
    cached = _read_cache(_cache_path(json_path),
                         hashlib.sha256(data).hexdigest())
    if cached is None:
        return configuration_from_json(data.decode("utf-8"))
    header, cols = cached
    window, reference = _window_and_reference(header)
    # the JSON reader gives an empty pattern the empty table
    marks = ()
    if len(cols["ground"]):
        marks = CadlagPath.rows(
            cols["grid"], cols["values"],
            np.column_stack([cols["starts"], cols["ends"]]),
            header["mode"], header["t_star"])
    return Configuration(window, cols["ground"],
                         AuxTable(cols["discrete"], cols["continuous"]), marks,
                         reference)
