import hashlib
import json
import math
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmpp.core import (
    AuxMark,
    AuxMeasure,
    AuxTable,
    CadlagPath,
    Configuration,
    MarkedPoint,
    ReferenceSpec,
    SampleSchedule,
    Window,
    configuration_from_json,
    configuration_to_json,
    configuration_to_csv_rows,
    cylinder_contains,
    read_configuration_files,
    ground_projection,
    midpoint_rule,
    shift,
    skorohod_distance,
    temporal_projection,
    uniform_distance,
    write_configuration_csv,
    write_configuration_files,
)
from fmpp import _skorohod
from fmpp import core
from fmpp.errors import ValidationError
from fmpp.ground import thin
from fmpp.marks import GrowthInteraction, gi_integrate


def const_path(value, t_star=1.0):
    return CadlagPath([0.0], [value], (0.0, np.inf), "step", t_star)


def make_point(x, t=None, value=1.0, t_star=1.0):
    return MarkedPoint(x, t, AuxMark(discrete=1), const_path(value, t_star))


def from_points(window, pts, reference=None):
    """The configuration whose columns hold the given points."""
    ground = [list(p.x) + ([] if p.t is None else [p.t]) for p in pts]
    return Configuration(window, ground, [p.aux for p in pts],
                         [p.mark for p in pts], reference)


# ---------------------------------------------------------------------------
# windows, paths, configurations
# ---------------------------------------------------------------------------
class TestWindow:
    def test_volume_and_dim(self):
        w = Window((0, 0), (2, 3))
        assert w.volume == 6.0
        assert w.dim == 2

    def test_rejects_empty_box(self):
        with pytest.raises(ValidationError):
            Window((0, 0), (0, 1))

    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(ValidationError):
            Window((0,), (1,), t_star=0.0)

    @pytest.mark.parametrize("kw", [dict(hi=(1.0, math.inf)), dict(lo=(-math.inf, 0.0)),
                                    dict(t_star=math.inf), dict(time_scale=math.inf)])
    def test_rejects_infinities(self, kw):
        with pytest.raises(ValidationError, match="finite"):
            Window(**{"lo": (0.0, 0.0), "hi": (1.0, 1.0), **kw})

    def test_torus_must_be_a_bool(self):
        # a JSON string such as "no" is truthy and used to make a torus
        assert Window((0, 0), (1, 1), torus=np.True_).torus is True
        for bad in ("no", 1, None):
            with pytest.raises(ValidationError, match="torus"):
                Window((0, 0), (1, 1), torus=bad)
        with pytest.raises(ValidationError, match="torus"):
            configuration_from_json(json.dumps(
                {"window": {"lo": [0, 0], "hi": [1, 1], "torus": "no"},
                 "points": []}))

    def test_torus_distance(self):
        w = Window((0, 0), (1, 1), torus=True)
        assert w.spatial_distance((0.05, 0.5), (0.95, 0.5)) == pytest.approx(0.1)

    def test_time_scale_in_ground_metric(self):
        w = Window((0, 0), (1, 1), t_star=10.0, time_scale=0.1)
        g1 = ((0.0, 0.0), 0.0)
        g2 = ((0.3, 0.0), 8.0)
        # time lag 8 counts as 0.8 under the scaling: max(0.3, 0.8)
        assert w.ground_distance(g1, g2) == pytest.approx(0.8)
        w1 = Window((0, 0), (1, 1), t_star=10.0)
        assert w1.ground_distance(g1, g2) == pytest.approx(8.0)


class TestMidpointRule:
    @pytest.mark.parametrize("cells", [0, -2, (3, 0)])
    def test_cell_count_below_one_rejected(self, cells):
        with pytest.raises(ValidationError, match="cell counts"):
            midpoint_rule([(0.0, 1.0), (0.0, 1.0)], cells)


class TestCadlagPath:
    def test_step_evaluation_right_continuous(self):
        p = CadlagPath([0.0, 0.5], [1.0, 2.0], (0.0, np.inf), "step", 1.0)
        assert p(0.49) == 1.0
        assert p(0.5) == 2.0
        assert p(0.9) == 2.0

    def test_support_masks_to_zero(self):
        p = CadlagPath([0.0, 0.5], [0.0, 2.0], (0.5, 0.8), "step", 1.0)
        assert p(0.4) == 0.0
        assert p(0.5) == 2.0
        assert p(0.79) == 2.0
        assert p(0.8) == 0.0

    def test_degenerate_support_is_zero_path(self):
        p = CadlagPath([0.0], [0.0], (0.3, 0.3), "step", 1.0)
        assert p(0.3) == 0.0

    def test_rejects_nonzero_outside_support(self):
        with pytest.raises(ValidationError):
            CadlagPath([0.0, 0.5], [1.0, 2.0], (0.5, 1.0), "step", 1.0)

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValidationError):
            CadlagPath([0.5, 0.1], [1.0, 2.0])

    def test_linear_mode_interpolates(self):
        p = CadlagPath([0.0, 1.0], [0.0, 2.0], (0.0, np.inf), "linear", 1.0)
        assert p(0.25) == pytest.approx(0.5)


class TestConfiguration:
    def test_simplicity_rejected(self):
        w = Window((0, 0), (1, 1))
        pts = [make_point((0.5, 0.5)), make_point((0.5, 0.5))]
        with pytest.raises(ValidationError):
            from_points(w, pts)

    def test_point_outside_window_rejected(self):
        w = Window((0, 0), (1, 1))
        with pytest.raises(ValidationError):
            from_points(w, [make_point((1.5, 0.5))])

    def test_ground_projection_order_preserved(self):
        w = Window((0, 0), (1, 1))
        c = from_points(w, [make_point((0.1, 0.2)), make_point((0.7, 0.3))])
        assert ground_projection(c) == [(0.1, 0.2), (0.7, 0.3)]

    def test_empty_projection(self):
        c = from_points(Window((0, 0), (1, 1)), [])
        assert ground_projection(c) == []

    def test_temporal_projection(self):
        w = Window((0, 0), (1, 1), t_star=2.0)
        c = from_points(w, [make_point((0.1, 0.2), 0.5, t_star=2.0),
                            make_point((0.7, 0.3), 1.5, t_star=2.0)])
        assert temporal_projection(c) == [0.5, 1.5]
        with pytest.raises(ValidationError):
            temporal_projection(from_points(Window((0,), (1,)), []))


    def test_columns_and_point_views(self):
        w = Window((0, 0), (1, 1), t_star=2.0)
        path = const_path(1.0, t_star=2.0)
        c = Configuration(w, [[0.1, 0.2, 0.5], [0.7, 0.3, 1.5]],
                          [AuxMark(discrete=1), AuxMark(discrete=2)],
                          [path, path])
        assert c.ground.shape == (2, 3) and not c.ground.flags.writeable
        assert c.locations() is c.ground
        np.testing.assert_array_equal(c.spatial_locations(),
                                      [[0.1, 0.2], [0.7, 0.3]])
        assert c.points == (MarkedPoint((0.1, 0.2), 0.5, AuxMark(discrete=1), path),
                            MarkedPoint((0.7, 0.3), 1.5, AuxMark(discrete=2), path))
        assert list(c) == list(c.points)
        with pytest.raises(ValidationError):
            Configuration(w, [[0.1, 0.2, 0.5]], [], [path])

    def test_event_times_rejected_on_spatial_window(self):
        # an (n, 3) ground on a planar window would carry event times that a
        # spatial configuration cannot have: two points at one location with
        # different times would pass as distinct
        path = const_path(1.0)
        with pytest.raises(ValidationError):
            Configuration(Window((0, 0), (1, 1)), [[0.5, 0.5, 0.1], [0.5, 0.5, 0.2]],
                          [AuxMark(discrete=1)] * 2, [path, path])
        point = {"x": [0.5, 0.5], "aux": {"discrete": 1},
                 "mark": {"grid": [0.0], "values": [1.0], "support": [0.0, None]}}
        spatial = {"lo": [0, 0], "hi": [1, 1]}
        with pytest.raises(ValidationError):
            configuration_from_json(json.dumps(
                {"window": spatial,
                 "points": [dict(point, t=0.1), dict(point, t=0.2)]}))
        with pytest.raises(ValidationError):
            configuration_from_json(json.dumps(
                {"window": dict(spatial, t_star=1.0), "points": [point]}))


class TestShift:
    def test_zero_shift_identity(self):
        w = Window((0, 0), (1, 1))
        c = from_points(w, [make_point((0.3, 0.3))])
        c2 = shift(c, (0.0, 0.0))
        assert c2.points[0].x == (0.3, 0.3)

    def test_torus_group_action(self):
        w = Window((0, 0), (1, 1), torus=True)
        c = from_points(w, [make_point((0.3, 0.4))])
        z = np.array([0.5, 0.5])
        back = shift(shift(c, z), -z)
        np.testing.assert_allclose(back.points[0].x, (0.3, 0.4), atol=1e-12)

    def test_double_half_side_returns(self):
        w = Window((0, 0), (1, 1), torus=True)
        c = from_points(w, [make_point((0.3, 0.4))])
        c2 = shift(shift(c, (0.5, 0.5)), (0.5, 0.5))
        np.testing.assert_allclose(c2.points[0].x, (0.3, 0.4), atol=1e-12)

    def test_off_window_errors(self):
        w = Window((0, 0), (1, 1))
        c = from_points(w, [make_point((0.9, 0.9))])
        with pytest.raises(ValidationError):
            shift(c, (0.5, 0.0))

    def test_marks_unchanged(self):
        w = Window((0, 0), (1, 1), torus=True)
        c = from_points(w, [make_point((0.3, 0.4), value=7.0)])
        assert shift(c, (0.2, 0.1)).points[0].mark(0.5) == 7.0


class TestCylinder:
    def test_center_in_cylinder(self):
        assert cylinder_contains(((0.5, 0.5), 1.0), 0.1, 0.1, ((0.5, 0.5), 1.0))

    def test_boundary_closed(self):
        center = ((0.0, 0.0), 0.0)
        assert cylinder_contains(center, 0.2, 0.3, ((0.2, 0.0), 0.3))

    def test_outside_spatial(self):
        center = ((0.0, 0.0), 0.0)
        assert not cylinder_contains(center, 0.2, 0.3, ((0.2 + 1e-9, 0.0), 0.0))

    def test_negative_radius_rejected(self):
        with pytest.raises(ValidationError):
            cylinder_contains(((0.0,), 0.0), -0.1, 0.1, ((0.0,), 0.0))

    def test_torus_metric(self):
        w = Window((0, 0), (1, 1), torus=True)
        assert cylinder_contains(((0.02, 0.5), None), 0.05, 0.0,
                                 ((0.99, 0.5), None), w)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------
class TestSerialization:
    def _config(self):
        w = Window((0, 0), (1, 1), t_star=2.0, torus=True)
        pts = []
        rng = np.random.default_rng(0)
        for i in range(3):
            grid = np.sort(rng.random(5)) * 2.0
            grid[0] = 0.0
            vals = rng.standard_normal(5)
            path = CadlagPath(grid, vals, (0.0, np.inf), "step", 2.0)
            pts.append(MarkedPoint((rng.random(), rng.random()),
                                   rng.random() * 2.0,
                                   AuxMark(discrete=i + 1,
                                           continuous=(rng.random(),)),
                                   path))
        return from_points(w, pts, ReferenceSpec())

    def test_json_round_trip_full_precision(self):
        c = self._config()
        c2 = configuration_from_json(configuration_to_json(c))
        assert len(c2) == len(c)
        for p, q in zip(c.points, c2.points):
            assert p.x == q.x and p.t == q.t
            assert p.aux == q.aux
            assert np.array_equal(p.mark.grid, q.mark.grid)
            assert np.array_equal(p.mark.values, q.mark.values)
            assert p.mark.support == q.mark.support

    def test_json_is_valid(self):
        obj = json.loads(configuration_to_json(self._config()))
        assert {"window", "points", "reference"} <= set(obj)

    def test_csv_rows_one_per_grid_time(self):
        c = self._config()
        rows = configuration_to_csv_rows(c)
        assert len(rows) == 1 + sum(p.mark.grid.size for p in c.points)


def reference_csv_rows(c):
    """The marks CSV as the per-row builder made it: one list of strings per
    (point, grid-time) pair, every field formatted on every row."""
    header = ["point", *(f"x{i+1}" for i in range(c.window.dim)), "t",
              "aux_discrete", "aux_continuous", "grid_time", "value",
              "support_start", "support_end"]
    rows = [header]
    for i, p in enumerate(c.points):
        cont = "" if p.aux.continuous is None else ";".join(repr(v) for v in p.aux.continuous)
        disc = "" if p.aux.discrete is None else str(p.aux.discrete)
        tval = "" if p.t is None else repr(p.t)
        for tj, vj in zip(p.mark.grid, p.mark.values):
            rows.append([
                str(i), *(repr(v) for v in p.x), tval, disc, cont,
                repr(float(tj)), repr(float(vj)),
                repr(p.mark.support[0]), repr(p.mark.support[1]),
            ])
    return rows


def reference_csv_bytes(c, metadata):
    lines = [f"# {k}={v}\n" for k, v in metadata.items()]
    lines += [",".join(row) + "\n" for row in reference_csv_rows(c)]
    return "".join(lines).encode("utf-8")


class TestMarksCsvOracle:
    """write_configuration_csv and configuration_to_csv_rows against the
    per-row reference builder, byte for byte."""

    META = {"seed": 11, "replicate": 0}

    def check(self, c, tmp_path):
        path = tmp_path / "marks.csv"
        write_configuration_csv(c, path, self.META)
        assert path.read_bytes() == reference_csv_bytes(c, self.META)
        assert configuration_to_csv_rows(c) == reference_csv_rows(c)

    def test_temporal_discrete_and_continuous_aux_finite_support(self, tmp_path):
        w = Window((0, 0), (1, 1), t_star=2.0)
        rng = np.random.default_rng(1)
        grid = np.concatenate([[0.0], np.sort(rng.random(30)) * 2.0])
        pts = []
        for i in range(4):
            a, b = sorted(rng.choice(grid, 2, replace=False))
            vals = np.where((grid >= a) & (grid < b),
                            rng.standard_normal(grid.size) * 10.0 ** (3 * i - 6),
                            -0.0 if i % 2 else 0.0)
            pts.append(MarkedPoint(
                (rng.random(), 1.0 / 3.0), rng.random() * 2.0,
                AuxMark(discrete=i + 1, continuous=(rng.random(), -1e-300)),
                CadlagPath(grid, vals, (a, b), "step", 2.0)))
        self.check(from_points(w, pts, ReferenceSpec()), tmp_path)

    def test_spatial_window_infinite_support(self, tmp_path):
        w = Window((0, 0, 0), (1, 2, 3))
        rng = np.random.default_rng(2)
        grid = np.linspace(0, 1, 11)
        pts = [MarkedPoint(tuple(rng.random(3) * [1, 2, 3]), None,
                           AuxMark(discrete=2) if i % 2 else
                           AuxMark(continuous=(rng.random(),)),
                           CadlagPath(grid, np.cumsum(rng.standard_normal(11)),
                                      (0.0, np.inf), "linear", 1.0))
               for i in range(5)]
        self.check(from_points(w, pts, ReferenceSpec()), tmp_path)

    def test_two_grids_in_one_configuration(self, tmp_path):
        # points 0, 2 and 4 share one grid array, point 3 has an equal copy
        # of it and point 1 a different grid of the same size
        w = Window((0,), (1,))
        shared = np.linspace(0, 1, 7)
        other = shared ** 2
        grids = [shared, other, shared, shared.copy(), shared]
        rng = np.random.default_rng(3)
        pts = [MarkedPoint((rng.random(),), None, AuxMark(discrete=1),
                           CadlagPath(g, rng.standard_normal(g.size),
                                      (0.0, np.inf), "step", 1.0))
               for g in grids]
        c = from_points(w, pts, ReferenceSpec())
        assert c.points[0].mark.grid is c.points[2].mark.grid
        self.check(c, tmp_path)

    def test_empty_configuration_header_only(self, tmp_path):
        c = from_points(Window((0, 0), (1, 1), t_star=1.0), [], ReferenceSpec())
        self.check(c, tmp_path)
        assert len(configuration_to_csv_rows(c)) == 1


def reference_json_text(c):
    """The configuration JSON as one dict of plain lists passed to
    json.dumps, every float formatted by it."""
    sup = lambda s: [s[0], None if np.isinf(s[1]) else s[1]]
    aux = lambda a: {**({} if a.discrete is None else {"discrete": int(a.discrete)}),
                     **({} if a.continuous is None
                        else {"continuous": list(a.continuous)})}
    d, temporal = c.window.dim, c.window.is_temporal
    obj = {
        "window": {
            "lo": list(c.window.lo),
            "hi": list(c.window.hi),
            "t_star": c.window.t_star,
            "torus": c.window.torus,
            "time_scale": c.window.time_scale,
        },
        "reference": {
            "aux": {"kind": c.reference.aux.kind,
                    "params": list(c.reference.aux.params)},
            "mark_reference": list(c.reference.mark_reference),
        },
        "points": [
            {
                "x": g[:d],
                **({"t": g[d]} if temporal else {}),
                "aux": aux(a),
                "mark": {
                    "grid": m.grid.tolist(),
                    "values": m.values.tolist(),
                    "support": sup(m.support),
                    "mode": m.mode,
                    "t_star": m.t_star,
                },
            }
            for g, a, m in zip(c.ground.tolist(), c.auxs, c.marks)
        ],
    }
    return json.dumps(obj)


def configuration_bits(c) -> tuple:
    """Every field of a configuration, its arrays (the aux columns too) as
    dtype, shape and bytes and its aux row views with their types, so that
    -0.0 differs from 0.0."""
    def array(a):
        return a.dtype.str, a.shape, a.tobytes()

    m = c.marks
    return (c.window, c.reference,
            [(type(a.discrete), a.discrete, None if a.continuous is None
              else [(type(v), v.hex()) for v in a.continuous]) for a in c.auxs],
            array(c.auxs.discrete), array(c.auxs.continuous),
            array(c.ground), array(m.grid), array(m.values), array(m.starts),
            array(m.ends), m.mode, m.t_star)


def read_from_cache(json_path):
    """``read_configuration_files``, failing if it reads the JSON."""
    with mock.patch.object(core, "configuration_from_json",
                           side_effect=AssertionError("read the JSON")):
        return read_configuration_files(json_path)


class TestJsonOracle:
    """configuration_to_json against one json.dumps of the whole document,
    write_configuration_files against the two single writers, byte for
    byte, and its .npz cache against the JSON reader, bit for bit."""

    META = {"seed": 11, "replicate": 0}

    def check(self, c, tmp_path):
        text = configuration_to_json(c)
        assert text == reference_json_text(c)
        write_configuration_files(c, tmp_path / "c.json", tmp_path / "m.csv",
                                  self.META)
        assert (tmp_path / "c.json").read_bytes() == text.encode("utf-8")
        assert (tmp_path / "m.csv").read_bytes() == reference_csv_bytes(c, self.META)
        from_json = configuration_from_json(text)
        assert configuration_to_json(from_json) == text
        cached = read_from_cache(tmp_path / "c.json")
        assert configuration_bits(cached) == configuration_bits(from_json)

    def test_temporal_continuous_aux_finite_supports(self, tmp_path):
        w = Window((0, 0), (1, 1), t_star=2.0, time_scale=0.5)
        rng = np.random.default_rng(4)
        grid = np.concatenate([[0.0], np.sort(rng.random(20)) * 2.0])
        pts = []
        for i in range(5):
            a, b = sorted(rng.choice(grid, 2, replace=False))
            vals = np.where((grid >= a) & (grid < b),
                            rng.standard_normal(grid.size) * 10.0 ** (4 * i - 8),
                            -0.0 if i % 2 else 0.0)
            pts.append(MarkedPoint(
                (rng.random(), 1.0 / 3.0), rng.random() * 2.0,
                AuxMark(discrete=i + 1, continuous=(rng.random(), -1e-300))
                if i % 2 else AuxMark(continuous=(1e22,)),
                CadlagPath(grid, vals, (a, b), "step", 2.0)))
        ref = ReferenceSpec(AuxMeasure("product", (5, "expon", 1.0)))
        self.check(from_points(w, pts, ref), tmp_path)

    def test_spatial_discrete_aux(self, tmp_path):
        w = Window((-1.0, 0.0, 2.0), (0.0, 3.0, 2.5), torus=True)
        rng = np.random.default_rng(5)
        lo, sides = np.asarray(w.lo), w.sides
        paths = CadlagPath.rows(np.linspace(0.0, 1.0, 11),
                                np.cumsum(rng.standard_normal((4, 11)), axis=1),
                                None, "step", 1.0)
        pts = [MarkedPoint(tuple(lo + rng.random(3) * sides), None,
                           AuxMark(discrete=i + 1), p)
               for i, p in enumerate(paths)]
        self.check(from_points(w, pts, ReferenceSpec()), tmp_path)

    def test_ragged_grids(self, tmp_path):
        w = Window((0,), (1,))
        rng = np.random.default_rng(6)
        grids = [np.linspace(0, 1, 7), np.linspace(0, 1, 3) ** 2,
                 np.array([0.25])]
        pts = [MarkedPoint((rng.random(),), None, AuxMark(discrete=1),
                           CadlagPath(g, rng.standard_normal(g.size),
                                      (0.0, np.inf), "step", 1.0))
               for g in grids]
        self.check(from_points(w, pts, ReferenceSpec()), tmp_path)

    def test_linear_mode_no_horizon_and_unbounded_supports(self, tmp_path):
        # json.dumps spells a -inf support start as -Infinity
        w = Window((0, 0), (1, 1))
        rng = np.random.default_rng(7)
        grid = np.linspace(0.5, 3.0, 6)
        pts = [MarkedPoint(tuple(rng.random(2)), None, AuxMark(discrete=2),
                           CadlagPath(grid, np.where(grid < b, rng.standard_normal(6)
                                                     * 1e17, 0.0),
                                      (a, b), "linear", None))
               for a, b in ((0.5, 10.0), (-np.inf, np.inf), (-np.inf, 2.0))]
        self.check(from_points(w, pts, ReferenceSpec()), tmp_path)

    def test_empty_configuration(self, tmp_path):
        self.check(from_points(Window((0, 0), (1, 1), t_star=1.0), [],
                               ReferenceSpec()), tmp_path)


class TestNpzCache:
    """The .npz cache is read only while it matches the JSON bytes."""

    def files(self, tmp_path, c=None):
        if c is None:
            w = Window((0, 0), (1, 1), t_star=1.0)
            rng = np.random.default_rng(12)
            grid = np.linspace(0.0, 1.0, 6)
            c = Configuration(
                w, np.column_stack([rng.random((4, 2)), [0.1, 0.2, 0.3, 0.4]]),
                [AuxMark(discrete=2, continuous=(0.5,)), AuxMark(discrete=1),
                 AuxMark(continuous=(1.0, -0.0)), AuxMark(discrete=1)],
                CadlagPath.rows(grid, rng.standard_normal((4, 6)), None,
                                "linear", 1.0))
        write_configuration_files(c, tmp_path / "c.json", tmp_path / "m.csv")
        return tmp_path / "c.json", tmp_path / "c.npz"

    def test_edited_json_is_read_instead(self, tmp_path):
        json_path, npz_path = self.files(tmp_path)
        doc = json.loads(json_path.read_text())
        doc["points"][0]["x"][0] = 0.5
        doc["points"][1]["mark"]["values"][2] = 7.0
        json_path.write_text(json.dumps(doc))
        c = read_configuration_files(json_path)
        assert configuration_bits(c) == configuration_bits(
            configuration_from_json(json_path.read_text()))
        assert c.ground[0, 0] == 0.5 and c.marks.values[1, 2] == 7.0

    @pytest.mark.parametrize("cache", ["missing", "not a zip", "no header"])
    def test_missing_or_unreadable_cache_reads_the_json(self, tmp_path, cache):
        json_path, npz_path = self.files(tmp_path)
        want = configuration_bits(configuration_from_json(json_path.read_text()))
        if cache == "missing":
            npz_path.unlink()
        elif cache == "not a zip":
            npz_path.write_bytes(b"PK\x03\x04 truncated")
        else:
            np.savez(npz_path, floats=np.zeros(3))
        assert configuration_bits(
            read_configuration_files(json_path)) == want

    def test_rerun_writes_the_same_bytes(self, tmp_path, monkeypatch):
        first, second = tmp_path / "a", tmp_path / "b"
        first.mkdir()
        second.mkdir()
        _, npz_a = self.files(first)
        # a day later
        later = time.time() + 86400.0
        monkeypatch.setattr(time, "time", lambda: later)
        _, npz_b = self.files(second)
        assert npz_a.read_bytes() == npz_b.read_bytes()

    def test_cache_checks_its_arrays(self, tmp_path):
        # a cache whose hash matches but whose values break a mark rule
        # fails as the JSON would
        c = from_points(Window((0,), (1,)), [make_point((0.5,))])
        json_path, npz_path = self.files(tmp_path, c)
        sha = hashlib.sha256(json_path.read_bytes()).hexdigest()
        header, cols = core._read_npz(npz_path, sha)
        cols["values"] = np.array([[np.nan]])
        with mock.patch.object(core, "_read_npz", return_value=(header, cols)):
            with pytest.raises(ValidationError, match="finite"):
                read_configuration_files(json_path)

    def test_cache_of_the_packed_layout_reads_the_json(self, tmp_path):
        # the layout written before the aux columns were stored as they are:
        # "floats" and "ints" packed end to end, with a "continuous_len"
        # count per point, under a header that matches the JSON bytes
        json_path, npz_path = self.files(tmp_path)
        c = configuration_from_json(json_path.read_text())
        auxs = list(c.auxs)
        discrete = [a.discrete or 0 for a in auxs]
        counts = [-1 if a.continuous is None else len(a.continuous) for a in auxs]
        cont = [v for a in auxs for v in a.continuous or ()]

        def pack(columns):
            return ([[name, list(a.shape)] for name, a in columns],
                    np.concatenate([a.ravel() for _, a in columns]))

        floats, flat = pack([("ground", c.ground), ("grid", c.marks.grid),
                             ("values", c.marks.values),
                             ("starts", c.marks.starts), ("ends", c.marks.ends),
                             ("continuous", np.array(cont))])
        ints, flat_ints = pack([("discrete", np.array(discrete)),
                                ("continuous_len", np.array(counts))])
        header = {**core._head(c), "mode": c.marks.mode,
                  "t_star": c.marks.t_star, "floats": floats, "ints": ints,
                  "json_sha256": hashlib.sha256(json_path.read_bytes()).hexdigest()}
        with open(npz_path, "wb") as fh:
            np.savez(fh, header=np.frombuffer(json.dumps(header).encode(),
                                              dtype=np.uint8),
                     floats=flat, ints=flat_ints)
        with mock.patch.object(core, "configuration_from_json",
                               wraps=core.configuration_from_json) as reader:
            got = read_configuration_files(json_path)
        assert reader.call_count == 1
        assert configuration_bits(got) == configuration_bits(c)


def test_tiny_wiener_simulate_is_pinned(tmp_path):
    # SHA-256 of both simulate outputs, recorded when each writer still
    # formatted every value on its own
    from fmpp.cli import run_simulate

    cfg = {"window": {"lo": [0, 0], "hi": [1, 1]}, "seed": 2014,
           "replicates": 1,
           "model": {"ground": {"family": "poisson", "rate": 30.0},
                     "aux": {"kind": "types", "probs": [0.5, 0.5]},
                     "marks": {"model": "wiener", "scale": 1.0},
                     "mark_grid": {"dt": 0.1}}}
    run_simulate(cfg, tmp_path, 2014, 1)
    digest = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
              for f in ("configuration_r000.json", "marks_r000.csv")}
    assert digest == {
        "configuration_r000.json":
            "a5b5a4e1aa9dfa6b13bc2abb336893e8446dd713dea2d4cb78f22aa8e9b8ecbd",
        "marks_r000.csv":
            "f01e3d07b74ee756e9431c3438caa0cedf402d7060e8acd04456ca13ad11e6de",
    }


TINY_GROWTH = {
    "window": {"lo": [0, 0], "hi": [1, 1], "t_star": 1.0}, "seed": 2014,
    "replicates": 1,
    "model": {"ground": {"family": "immigration-death", "arrival_rate": 8.0,
                         "death_rate": 1.0},
              "aux": {"kind": "lifetime", "rate": 2.0},
              "marks": {"model": "growth-interaction",
                        "growth": ["linear", 2.0, 0.08],
                        "interaction": ["gauss", 1.0, 0.1], "m0": 0.0,
                        "dt": 0.1},
              "mark_grid": {"dt": 0.1}}}
TINY_GEOSTAT = {
    "window": {"lo": [0, 0], "hi": [1, 1]}, "seed": 2014, "replicates": 1,
    "model": {"ground": {"family": "poisson", "rate": 12.0},
              "marks": {"model": "geostatistical",
                        "kernel": ["exponential", 1.0, 0.3, 0.3]},
              "mark_grid": {"dt": 0.125}}}


@pytest.mark.parametrize("cfg, want", [
    (TINY_GROWTH, ("d4401210c0177362c0a5a4e1292fd55f27ae0feeac79faddbceb8c3167197b95",
                   "bbbcc8671f52f463489f87de6e052312ac3964c52f27a1efcc64e1502762352d")),
    (TINY_GEOSTAT, ("e566ce0cd7246a5f5aab84551fda97a1de161eb52b7c30cd603a5c09bf2c192b",
                    "f9a7ca7c2b6e5f3d6770ec085620fe51bd1ab05db83e6c8ac3381ceaa31dedb2")),
], ids=["growth-finite-supports", "geostatistical"])
def test_tiny_simulate_is_pinned(tmp_path, cfg, want):
    # SHA-256 of both simulate outputs, recorded when a configuration still
    # held one CadlagPath object per point
    from fmpp.cli import run_simulate

    run_simulate(cfg, tmp_path, cfg["seed"], 1)
    assert tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                 for f in ("configuration_r000.json", "marks_r000.csv")) == want


class TestSharedGridReader:
    """A file whose marks share one grid is read as one value matrix; it
    must fail with the same message as the point-by-point reader, which
    reads files with ragged grids."""

    GRID = [0.0, 0.25, 0.5, 0.75]

    def document(self, grids, values, supports):
        return json.dumps({
            "window": {"lo": [0, 0], "hi": [1, 1], "t_star": 1.0},
            "points": [{"x": [0.1 * (i + 1), 0.5], "t": 0.1, "aux": {"discrete": 1},
                        "mark": {"grid": g, "values": v, "support": s,
                                 "mode": "step", "t_star": 1.0}}
                       for i, (g, v, s) in enumerate(zip(grids, values, supports))]})

    def message(self, text):
        with pytest.raises(ValidationError) as info:
            configuration_from_json(text)
        return str(info.value)

    def test_valid_file_shares_one_grid(self):
        c = configuration_from_json(self.document(
            [self.GRID] * 3, [[0.0, 1.0, 2.0, 3.0]] * 3, [[0.0, None]] * 3))
        assert c.marks[0].grid is c.marks[1].grid is c.marks[2].grid
        ragged = configuration_from_json(self.document(
            [self.GRID, self.GRID[:3], self.GRID],
            [[0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0], [0.0, 1.0, 2.0, 3.0]],
            [[0.0, None]] * 3))
        # the ragged marks become one table on the merged grid, the 3-time
        # step path holding its last value at the new time 0.75
        assert ragged.marks[0].grid is ragged.marks[1].grid is ragged.marks[2].grid
        assert ragged.marks.grid.tolist() == self.GRID
        assert ragged.marks[1].values.tolist() == [0.0, 1.0, 2.0, 2.0]

    @pytest.mark.parametrize("defect", ["decreasing grid", "nan value",
                                        "nonzero outside support"])
    def test_same_messages_as_point_by_point(self, defect):
        values = [[0.0, 1.0, 2.0, 3.0]] * 3
        supports = [[0.0, None]] * 3
        grid = self.GRID
        if defect == "decreasing grid":
            grid = [0.0, 0.5, 0.25, 0.75]
        elif defect == "nan value":
            values = [values[0], [0.0, float("nan"), 2.0, 3.0], values[2]]
        else:
            supports = [supports[0], [0.5, None], supports[2]]
        shared = self.message(self.document([grid] * 3, values, supports))
        # a different (valid) grid on the last point sends the file through
        # the point-by-point reader
        ragged = self.message(self.document(
            [grid, grid, [0.0, 0.2, 0.4]], values[:2] + [[0.0, 1.0, 2.0]],
            supports))
        assert shared == ragged
        with pytest.raises(ValidationError, match=shared):
            CadlagPath(grid, values[1], (supports[1][0], np.inf))


# ---------------------------------------------------------------------------
# the aux table
# ---------------------------------------------------------------------------
class TestAuxTable:
    def test_columns_and_row_views(self):
        t = AuxTable(np.array([2, 0, 1, 3]),
                     [[0.5, np.nan], [1.0, -0.0], [np.nan, np.nan], [-1e-300, 7.0]])
        assert t.discrete.dtype == np.int64 and t.continuous.dtype == np.float64
        views = list(t)
        assert views == [AuxMark(2, (0.5,)), AuxMark(continuous=(1.0, -0.0)),
                         AuxMark(1), AuxMark(3, (-1e-300, 7.0))]
        assert [t[i] for i in range(len(t))] == views and t[-1] == views[-1]
        assert type(views[0].discrete) is int
        assert all(type(v) is float for v in views[1].continuous)
        assert math.copysign(1.0, views[1].continuous[1]) == -1.0
        assert views[2].continuous is None and views[1].discrete is None

    def test_width_is_the_longest_mark(self):
        t = AuxTable([1, 2], [[0.5, np.nan, np.nan], [np.nan] * 3])
        assert t.continuous.shape == (2, 1)
        assert t.take([1]).continuous.shape == (1, 0)
        assert t.take([1, 0]) == [AuxMark(2), AuxMark(1, (0.5,))]

    def test_configuration_converts_aux_marks_once(self):
        auxs = [AuxMark(1), AuxMark(continuous=(0.5, 2.0)), AuxMark(3, (-0.0,))]
        c = Configuration(Window((0,), (1,)), [[0.1], [0.2], [0.3]], auxs,
                          [const_path(1.0)] * 3)
        assert isinstance(c.auxs, AuxTable) and c.auxs == auxs
        np.testing.assert_array_equal(c.auxs.discrete, [1, 0, 3])
        np.testing.assert_array_equal(
            c.auxs.continuous, [[np.nan, np.nan], [0.5, 2.0], [-0.0, np.nan]])
        assert Configuration(c.window, c.ground, c.auxs, c.marks).auxs is c.auxs
        with pytest.raises(ValidationError):
            Configuration(c.window, c.ground, [AuxMark(1), None, AuxMark(2)],
                          c.marks)

    @pytest.mark.parametrize("discrete, continuous", [
        ([1.5], [[]]), ([2.0], [[]]), ([True], [[]]), ([-1], [[]]),
        ([0], [[]]), ([0], [[np.nan]]), ([1], [[np.nan, 1.0]]),
        ([1], [[np.inf]]), ([1, 2], [[1.0]]), ([[1]], [[1.0]]), ([1], [1.0]),
    ])
    def test_invalid_columns_rejected(self, discrete, continuous):
        with pytest.raises(ValidationError):
            AuxTable(np.array(discrete), continuous)


class TestTablesAreReadOnly:
    def test_writes_raise_and_views_still_work(self):
        w = Window((0, 0), (1, 1), t_star=1.0)
        grid, values = np.linspace(0.0, 1.0, 5), np.ones((3, 5))
        discrete, continuous = np.array([1, 2, 0]), np.array([[np.nan], [np.nan], [0.5]])
        marks = CadlagPath.rows(grid, values, None, "step", 1.0)
        auxs = AuxTable(discrete, continuous)
        c = Configuration(w, [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6], [0.7, 0.8, 0.9]],
                          auxs, marks)
        # the tables copied the caller's arrays, which stay writeable
        grid[0] = values[0, 0] = continuous[0, 0] = 9.0
        discrete[0] = -5
        assert c.marks.values[0, 0] == 1.0 and c.marks.grid[0] == 0.0
        assert c.auxs.discrete[0] == 1 and np.isnan(c.auxs.continuous[0, 0])
        table = c.marks.take([2, 0])
        for arr in (c.marks.grid, c.marks.values, c.marks.starts, c.marks.ends,
                    c.auxs.discrete, c.auxs.continuous, c.marks[1].values,
                    c.marks[1].grid, table.values, c.auxs.take([1]).continuous):
            with pytest.raises(ValueError):
                arr[0] = np.nan if arr.dtype.kind == "f" else -5
        assert table == [c.marks[2], c.marks[0]] and c.marks[1](0.5) == 1.0
        assert c.auxs.take([2, 0]) == [AuxMark(continuous=(0.5,)), AuxMark(1)]
        path = CadlagPath(np.linspace(0.0, 1.0, 5), np.ones(5))
        with pytest.raises(ValueError):
            path.values[1] = 2.0


class TestDiscreteAuxMustBeAnInteger:
    """A discrete aux mark that is not an integer >= 1, or is a bool, is
    rejected: the JSON writes int(discrete) and the CSV str(discrete), so
    1.5 or True would make the two files disagree."""

    @pytest.mark.parametrize("discrete", [1.5, 2.0, True, np.True_, 0, -3, "2"])
    def test_aux_mark_rejects(self, discrete):
        with pytest.raises(ValidationError, match="integer >= 1"):
            AuxMark(discrete=discrete)

    def test_numpy_integer_becomes_int(self):
        aux = AuxMark(discrete=np.int64(3), continuous=np.array([0.5]))
        assert type(aux.discrete) is int and aux == AuxMark(3, (0.5,))

    def test_empty_continuous_is_no_part(self):
        assert AuxMark(2, ()).continuous is None
        with pytest.raises(ValidationError, match="discrete or continuous"):
            AuxMark(continuous=())

    @pytest.mark.parametrize("aux, message", [
        ({"discrete": 2.7}, "integer >= 1"),
        ({"discrete": True}, "integer >= 1"),
        ({"discrete": 0, "continuous": [0.5]}, "integer >= 1"),
        ({"continuous": [float("nan")]}, "finite"),
        ({"continuous": ["a"]}, "could not convert"),
        ({"continuous": []}, "discrete or continuous"),
        ([1], "'list' object"),
    ])
    def test_json_reader_names_the_point(self, aux, message):
        point = {"x": [0.5], "mark": {"grid": [0.0], "values": [1.0],
                                      "support": [0.0, None]}}
        text = json.dumps({"window": {"lo": [0], "hi": [1]},
                           "points": [dict(point, aux={"discrete": 1}),
                                      dict(point, x=[0.25], aux=aux)]})
        with pytest.raises(ValidationError,
                           match=f"point 1: field 'aux': .*{message}"):
            configuration_from_json(text)

    def test_json_and_cache_agree(self, tmp_path):
        # a file the reader accepts gives the same table from the JSON and
        # from the cache, down to the types of the discrete column
        c = configuration_from_json(json.dumps(
            {"window": {"lo": [0], "hi": [1]},
             "points": [{"x": [0.5], "aux": {"discrete": 2},
                         "mark": {"grid": [0.0], "values": [1.0],
                                  "support": [0.0, None]}}]}))
        write_configuration_files(c, tmp_path / "c.json", tmp_path / "m.csv")
        cached = read_from_cache(tmp_path / "c.json")
        assert configuration_bits(cached) == configuration_bits(c)
        assert '"discrete": 2' in (tmp_path / "c.json").read_text()
        assert (tmp_path / "m.csv").read_text().splitlines()[1].split(",")[3] == "2"


def aux_tagged(window, n, seed):
    """n points whose aux marks name their ground rows: the type of row i
    is i + 1 on odd rows (none on even ones), and its values the row's
    spatial coordinates, with i appended on every third row."""
    rng = np.random.default_rng(seed)
    ground = np.asarray(window.lo) + rng.random((n, window.dim)) * window.sides
    auxs = [AuxMark(i + 1 if i % 2 else None,
                    tuple(g) + ((float(i),) if i % 3 == 0 else ()))
            for i, g in enumerate(ground.tolist())]
    marks = CadlagPath.rows([0.0, 0.5], rng.random((n, 2)), None, "step", 1.0)
    return Configuration(window, ground, auxs, marks)


class TestAuxRowsFollowGround:
    def test_thin(self):
        c = aux_tagged(Window((0, 0), (1, 1)), 40, 1)
        kept = thin(c, lambda c: np.where(c.ground[:, 0] < 0.6, 0.7, 0.0), 2)
        assert 0 < len(kept) < len(c)
        rows = [int(np.flatnonzero((c.ground == g).all(axis=1))[0])
                for g in kept.ground]
        np.testing.assert_array_equal(kept.auxs.discrete, c.auxs.discrete[rows])
        width = kept.auxs.continuous.shape[1]
        np.testing.assert_array_equal(kept.auxs.continuous,
                                      c.auxs.continuous[rows, :width])
        assert list(kept.auxs) == [c.auxs[i] for i in rows]
        np.testing.assert_array_equal(kept.auxs.continuous[:, :2],
                                      kept.ground)
        np.testing.assert_array_equal(kept.marks.values, c.marks.values[rows])

    def test_shift(self):
        w = Window((0, 0), (1, 1), torus=True)
        c = aux_tagged(w, 25, 3)
        z = np.array([0.45, 0.8])
        moved = shift(c, z)
        assert moved.auxs == c.auxs
        np.testing.assert_array_equal(moved.auxs.discrete, c.auxs.discrete)
        np.testing.assert_allclose(w.wrap(moved.auxs.continuous[:, :2] + z),
                                   moved.ground, rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# the mark table
# ---------------------------------------------------------------------------
def interp_call(path, t):
    """A path's values at the times t, read with np.interp in linear mode:
    the evaluation the table's one evaluator must reproduce bit for bit."""
    tt = np.atleast_1d(np.asarray(t, dtype=float))
    if path.mode == "step":
        idx = np.searchsorted(path.grid, tt, side="right") - 1
        out = np.where(idx >= 0, path.values[np.clip(idx, 0, None)], 0.0)
    else:
        out = np.interp(tt, path.grid, path.values)
        out = np.where(tt < path.grid[0], 0.0, out)
    a, b = path.support
    return np.where((tt >= a) & (tt < b), out, 0.0)


def random_rows(rng, n, k, mode):
    """n random paths on one random grid of k times, with supports from
    grid times and from times between them, and -0.0 outside supports."""
    grid = np.sort(rng.choice(np.arange(1, 200), k, replace=False)) / 50.0
    edges = np.concatenate([grid, grid[:-1] + 0.37 * np.diff(grid)])
    supports = np.sort(rng.choice(edges, (n, 2)), axis=1)
    supports[0] = (-np.inf, np.inf)
    supports[1] = (grid[0] - 1.0, grid[-1] + 1.0)
    values = rng.standard_normal((n, k)) * 10.0 ** rng.integers(-8, 8, (n, 1))
    values[:, rng.integers(k)] = 0.0
    outside = (grid < supports[:, :1]) | (grid >= supports[:, 1:])
    values[outside] = -0.0
    return CadlagPath.rows(grid, values, supports, mode, None)


def probe_times(table, rng):
    grid = table.grid
    ends = np.concatenate([table.starts, table.ends])
    return np.concatenate([
        grid, np.nextafter(grid, -np.inf), np.nextafter(grid, np.inf),
        ends[np.isfinite(ends)], grid[0] - rng.random(5),
        grid[-1] + rng.random(5),
        rng.uniform(grid[0] - 1.0, grid[-1] + 1.0, 200),
        [-np.inf, np.inf, np.nan]])


class TestMarkTable:
    @pytest.mark.parametrize("mode", ["step", "linear"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_at_and_call_match_interp_bit_for_bit(self, mode, seed):
        rng = np.random.default_rng(seed)
        for k in (1, 2, 9):
            table = random_rows(rng, 12, k, mode)
            t = probe_times(table, rng)
            want = np.stack([interp_call(p, t) for p in table])
            assert table.at(t).tobytes() == want.tobytes()
            assert np.stack([p(t) for p in table]).tobytes() == want.tobytes()
            for p, row in zip(table, want):
                # a scalar time gives a float
                assert [p(s) for s in t[:20]] == row[:20].tolist()

    def test_sequence_of_row_views(self):
        table = random_rows(np.random.default_rng(3), 6, 5, "step")
        assert len(table) == 6 and len(list(table)) == 6
        for i, p in enumerate(table):
            assert p.grid is table.grid
            assert np.shares_memory(p.values, table.values)
            assert p.support == (float(table.starts[i]), float(table.ends[i]))
            assert p == table[i] == table[i - 6]
        assert table.take([4, 0]) == [table[4], table[0]]
        with pytest.raises(IndexError):
            table[6]

    def test_configuration_holds_the_table(self):
        w = Window((0, 0), (1, 1), t_star=1.0)
        grid = np.linspace(0.0, 1.0, 5)
        table = CadlagPath.rows(grid, np.ones((2, 5)), None, "step", 1.0)
        c = Configuration(w, [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]],
                          [AuxMark(discrete=1)] * 2, table)
        assert c.marks is table
        assert c.points[1].mark == table[1]
        assert shift(c, (0.1, 0.1)).marks is table
        # paths on one grid become a table on it, the grid not copied
        again = Configuration(w, c.ground, c.auxs, list(c.marks))
        assert again.marks.grid is table.grid and again.marks == table

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_ragged_step_embedding_keeps_values(self, seed):
        rng = np.random.default_rng(seed)
        paths = [p for k in (1, 4, 7) for p in random_rows(rng, 4, k, "step")]
        table = from_points(Window((0,), (1,)), [
            MarkedPoint((i / len(paths),), None, AuxMark(discrete=1), p)
            for i, p in enumerate(paths)]).marks
        assert table.grid.tolist() == sorted(set().union(
            *(p.grid.tolist() for p in paths)))
        t = np.concatenate([probe_times(table, rng),
                            np.linspace(-1.0, 5.0, 2001)])
        for p, view, row in zip(paths, table, table.at(t)):
            # equal values; a -0.0 held into the support may turn into 0.0
            np.testing.assert_array_equal(row, p(t))
            assert row.tobytes() == view(t).tobytes()

    def test_ragged_linear_embedding_keeps_values(self):
        rng = np.random.default_rng(4)
        paths = []
        for k in (2, 5, 8):
            grid = np.sort(rng.random(k)) + 0.2
            for support in ((grid[0], np.inf), (grid[0], grid[-1]),
                            (0.0, grid[-1])):
                values = rng.standard_normal(k)
                values[0] = 0.0 if support[0] < grid[0] else values[0]
                values[grid >= support[1]] = 0.0
                paths.append(CadlagPath(grid, values, support, "linear"))
        table = from_points(Window((0,), (1,)), [
            MarkedPoint((i / len(paths),), None, AuxMark(discrete=1), p)
            for i, p in enumerate(paths)]).marks
        t = np.linspace(-0.5, 2.0, 5001)
        for p, view in zip(paths, table):
            np.testing.assert_allclose(view(t), p(t), rtol=1e-12, atol=1e-12)
            # exact at the path's own grid times
            assert view(p.grid).tobytes() == p(p.grid).tobytes()

    def marks_rejected(self, paths, window=Window((0,), (1,))):
        pts = [MarkedPoint((i / len(paths),) + (0.1,) * window.is_temporal,
                           None, AuxMark(discrete=1), p)
               for i, p in enumerate(paths)]
        ground = [list(p.x) for p in pts]
        with pytest.raises(ValidationError) as info:
            Configuration(window, ground, [p.aux for p in pts],
                          [p.mark for p in pts])
        return str(info.value)

    def test_linear_ramp_rejected(self):
        # support from 0, first value 1 at 0.5: a merged time 0.25 would
        # ramp the path up from 0 instead of jumping at 0.5
        ramp = CadlagPath([0.5, 1.0], [1.0, 2.0], (0.0, np.inf), "linear")
        other = CadlagPath([0.25, 1.0], [1.0, 2.0], (0.25, np.inf), "linear")
        assert "ramp" in self.marks_rejected([ramp, other])
        # with a zero first value there is nothing to ramp
        flat = CadlagPath([0.5, 1.0], [0.0, 2.0], (0.0, np.inf), "linear")
        from_points(Window((0,), (1,)), [
            MarkedPoint((0.1,), None, AuxMark(discrete=1), flat),
            MarkedPoint((0.2,), None, AuxMark(discrete=1), other)])

    def test_linear_support_cut_rejected(self):
        # the support ends at 0.75, inside the step [0.5, 1.0); a merged time
        # 0.8 would pull the interpolant towards 0 before 0.75
        cut = CadlagPath([0.5, 1.0], [2.0, 0.0], (0.5, 0.75), "linear")
        other = CadlagPath([0.5, 0.8], [1.0, 2.0], (0.5, np.inf), "linear")
        assert "cuts" in self.marks_rejected([cut, other])

    def test_mixed_modes_rejected(self):
        step = CadlagPath([0.0, 0.5], [1.0, 2.0], None, "step")
        linear = CadlagPath([0.0, 0.5], [1.0, 2.0], None, "linear")
        assert "mode" in self.marks_rejected([step, linear])

    def test_mixed_t_star_rejected(self):
        assert "t_star" in self.marks_rejected([const_path(1.0, 1.0),
                                                const_path(1.0, 2.0)])

    def test_t_star_other_than_the_window_rejected(self):
        w = Window((0,), (1,), t_star=2.0)
        with pytest.raises(ValidationError, match="t_star"):
            Configuration(w, [[0.5, 0.1]], [AuxMark(discrete=1)],
                          [const_path(1.0, 1.0)])


# ---------------------------------------------------------------------------
# uniform metric
# ---------------------------------------------------------------------------
class TestUniformDistance:
    def test_identical(self):
        f = const_path(3.0)
        assert uniform_distance(f, f) == 0.0

    def test_constants(self):
        assert uniform_distance(const_path(0.0), const_path(0.1)) == pytest.approx(0.1)

    def test_piecewise_merged_grid(self):
        f = CadlagPath([0.0, 0.4], [1.0, 3.0], (0.0, np.inf), "step", 1.0)
        g = CadlagPath([0.0, 0.6], [0.5, 5.0], (0.0, np.inf), "step", 1.0)
        # exhaustive scan over a fine grid as oracle
        tt = np.linspace(0, 1, 2001)
        oracle = np.max(np.abs(f(tt) - g(tt)))
        assert uniform_distance(f, g) == pytest.approx(oracle, abs=1e-12)

    def test_mismatched_interval_errors(self):
        f = const_path(0.0, t_star=1.0)
        g = const_path(0.0, t_star=2.0)
        with pytest.raises(ValidationError):
            uniform_distance(f, g)


# ---------------------------------------------------------------------------
# time-warp metric
# ---------------------------------------------------------------------------
def _enumerate_paths(m):
    """All strictly monotone lattice paths (0,0) -> (m,m)."""
    out = []

    def rec(r, s, acc):
        if r == m and s == m:
            out.append(acc)
            return
        for nr in range(r + 1, m + 1):
            for ns in range(s + 1, m + 1):
                if (nr == m) != (ns == m):
                    continue
                rec(nr, ns, acc + [(nr, ns)])

    rec(0, 0, [(0, 0)])
    return out


def oracle_skorohod(f, g, t_star, n_fill):
    """Independent brute force: enumerate warps, dense numeric functional."""
    nodes = np.unique(np.concatenate([
        np.linspace(0.0, t_star, n_fill + 1), f.grid, g.grid]))
    m = len(nodes) - 1
    tdense = np.unique(np.concatenate([
        nodes, 0.5 * (nodes[:-1] + nodes[1:]), np.linspace(0, t_star, 241)]))
    ucells = np.unique(np.concatenate([nodes, np.linspace(0, t_star, 401)]))
    umids = 0.5 * (ucells[:-1] + ucells[1:])
    uw = np.exp(-ucells[:-1]) - np.exp(-ucells[1:])
    best = np.inf
    for path in _enumerate_paths(m):
        kt = nodes[[p[0] for p in path]]
        ks = nodes[[p[1] for p in path]]
        gamma = np.max(np.abs(np.log(np.diff(ks) / np.diff(kt))))
        lam = np.interp(tdense, kt, ks)
        fv = f(np.minimum(tdense[:, None], umids[None, :]).ravel()).reshape(
            len(tdense), len(umids))
        gv = g(np.minimum(lam[:, None], umids[None, :]).ravel()).reshape(
            len(tdense), len(umids))
        phi = np.max(np.minimum(np.abs(fv - gv), 1.0), axis=0)
        cost = max(gamma, float(np.sum(uw * phi)))
        best = min(best, cost)
    return best


class TestSkorohodDistance:
    def test_identity_exact_zero(self):
        f = CadlagPath([0.0, 0.3, 0.7], [1.0, -2.0, 0.5], (0.0, np.inf),
                       "step", 1.0)
        assert skorohod_distance(f, f, 8) == 0.0

    def test_constants_analytic(self):
        t_star = 1.0
        d = skorohod_distance(const_path(0.0), const_path(0.1), 8)
        assert d == pytest.approx(0.1 * (1 - math.exp(-t_star)), abs=1e-9)

    def test_constants_analytic_long_horizon(self):
        f = CadlagPath([0.0], [0.0], (0.0, np.inf), "step", 3.0)
        g = CadlagPath([0.0], [0.1], (0.0, np.inf), "step", 3.0)
        assert skorohod_distance(f, g, 8) == pytest.approx(
            0.1 * (1 - math.exp(-3.0)), abs=1e-9)

    def test_step_shift_beats_identity_and_matches_oracle(self):
        eps = 0.01
        f = CadlagPath([0.0, 0.5], [0.0, 1.0], (0.0, np.inf), "step", 1.0)
        g = CadlagPath([0.0, 0.5 + eps], [0.0, 1.0], (0.0, np.inf), "step", 1.0)
        d = skorohod_distance(f, g, 16)
        identity_cost = math.exp(-0.5) - math.exp(-1.0)
        assert d <= identity_cost + 1e-12
        assert d <= abs(math.log((0.5 - eps) / 0.5)) + 1e-6
        oracle = oracle_skorohod(f, g, 1.0, 4)
        assert d == pytest.approx(oracle, rel=0.10)

    def test_symmetric_exactly(self):
        rng = np.random.default_rng(3)
        grid = np.sort(np.concatenate([[0.0], rng.random(4)]))
        f = CadlagPath(grid, rng.standard_normal(5), (0.0, np.inf), "step", 1.0)
        g = CadlagPath(grid, rng.standard_normal(5), (0.0, np.inf), "step", 1.0)
        assert skorohod_distance(f, g, 8) == skorohod_distance(g, f, 8)

    def test_bounded_by_identity_warp_functional(self):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            f = CadlagPath([0.0, rng.random()], rng.standard_normal(2),
                           (0.0, np.inf), "step", 1.0)
            g = CadlagPath([0.0, rng.random()], rng.standard_normal(2),
                           (0.0, np.inf), "step", 1.0)
            # identity-warp value of the integral functional on a fine grid;
            # phi is the running sup, non-decreasing, so the right-endpoint
            # staircase upper-bounds the exact cell suprema
            tt = np.unique(np.concatenate([np.linspace(0, 1, 2001),
                                           f.grid, g.grid]))
            diff = np.minimum(np.abs(f(tt) - g(tt)), 1.0)
            run_sup = np.maximum.accumulate(diff)
            bound = float(np.sum((np.exp(-tt[:-1]) - np.exp(-tt[1:]))
                                 * run_sup[1:]))
            assert skorohod_distance(f, g, 16) <= bound + 1e-9

    def test_refinement_monotone_linear_paths(self):
        f, g = sin_pair()
        vals = [skorohod_distance(f, g, r) for r in (4, 8, 16, 32)]
        assert all(b <= a + 1e-14 for a, b in zip(vals, vals[1:]))
        assert vals == [0.16781295866596618, 0.16781295866596618,
                        0.16553250904393227, 0.16548565506738305]

    def test_resolution_too_small_errors(self):
        f = const_path(0.0)
        with pytest.raises(ValidationError):
            skorohod_distance(f, f, 1)

    def test_mismatched_interval_errors(self):
        with pytest.raises(ValidationError):
            skorohod_distance(const_path(0.0, 1.0), const_path(0.0, 2.0), 8)


@st.composite
def step_paths(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    times = draw(st.lists(st.floats(0.01, 0.99), min_size=n, max_size=n,
                          unique=True))
    grid = np.concatenate([[0.0], np.sort(times)])
    vals = draw(st.lists(st.floats(-2, 2), min_size=n + 1, max_size=n + 1))
    return CadlagPath(grid, vals, (0.0, np.inf), "step", 1.0)


class TestSkorohodProperties:
    @given(step_paths(), step_paths())
    @settings(max_examples=15, deadline=None)
    def test_symmetry(self, f, g):
        assert skorohod_distance(f, g, 6) == skorohod_distance(g, f, 6)

    @given(step_paths())
    @settings(max_examples=10, deadline=None)
    def test_self_distance_zero(self, f):
        assert skorohod_distance(f, f, 6) == 0.0

    @given(step_paths(), step_paths())
    @settings(max_examples=15, deadline=None)
    def test_nonnegative_and_bounded(self, f, g):
        d = skorohod_distance(f, g, 6)
        assert 0.0 <= d <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# time-warp internals: scalar loop definitions of the per-warp cost and
# the lattice DP, the oracles for the array code in fmpp._skorohod
# ---------------------------------------------------------------------------
def ref_arrays(path, t_star):
    a, b = path.support
    if not np.isfinite(b):
        b = t_star + 1.0
    return (path.grid, path.values, float(a), float(b),
            0 if path.mode == "step" else 1)


def ref_path_eval(grid, vals, a, b, mode, t):
    if t < a or t >= b:
        return 0.0
    if mode == 0:
        idx = np.searchsorted(grid, t, side="right") - 1
        return 0.0 if idx < 0 else vals[idx]
    if t < grid[0]:
        return 0.0
    if t >= grid[-1]:
        return vals[-1]
    j = np.searchsorted(grid, t, side="right") - 1
    w = (t - grid[j]) / (grid[j + 1] - grid[j])
    return vals[j] * (1.0 - w) + vals[j + 1] * w


def ref_path_left(grid, vals, a, b, mode, t):
    """Left limit at t: the value just before t."""
    if t <= a or t > b:
        return 0.0
    if mode == 0:
        idx = np.searchsorted(grid, t, side="left") - 1
        return 0.0 if idx < 0 else vals[idx]
    if t <= grid[0]:
        return 0.0
    return ref_path_eval(grid, vals, -np.inf, np.inf, 1, t)


def ref_warp_eval(kt, ks, t):
    if t <= kt[0]:
        return ks[0]
    if t >= kt[-1]:
        return ks[-1]
    j = np.searchsorted(kt, t, side="right") - 1
    w = (t - kt[j]) / (kt[j + 1] - kt[j])
    return ks[j] * (1.0 - w) + ks[j + 1] * w


def ref_phi_at(u, fdat, gdat, kt, ks, tcand):
    linear = fdat[4] == 1 or gdat[4] == 1
    best = 0.0
    for t in [*tcand, u, ref_warp_eval(ks, kt, u)]:
        wt = ref_warp_eval(kt, ks, t)
        fval = ref_path_eval(*fdat, min(t, u))
        gval = ref_path_eval(*gdat, min(wt, u))
        best = max(best, min(abs(fval - gval), 1.0))
        if linear:
            # left limits in t of f(t^u) and g(w(t)^u)
            fval = ref_path_left(*fdat, t) if t <= u else ref_path_eval(*fdat, u)
            gval = ref_path_left(*gdat, wt) if wt <= u else ref_path_eval(*gdat, u)
            best = max(best, min(abs(fval - gval), 1.0))
    return best


def ref_warp_cost(f, g, kt, ks, t_star):
    """Per-warp functional: f read at t, g at w(t), cells split at ubreaks."""
    fdat, gdat = ref_arrays(f, t_star), ref_arrays(g, t_star)
    fg, _, fa, fb, fm = fdat
    gg, _, ga, gb, gm = gdat
    g_side = np.concatenate([gg, [ga, gb]])
    inv = np.interp(g_side, ks, kt)
    fwd = np.interp(np.concatenate([fg, [fa, fb]]), kt, ks)
    t_raw = np.concatenate([fg, [fa, fb, 0.0, t_star], kt, inv])
    tcand = np.unique(np.clip(t_raw[np.isfinite(t_raw)], 0.0, t_star))
    u_raw = np.concatenate([t_raw, g_side, fwd, ks])
    ubreaks = np.unique(np.clip(u_raw[np.isfinite(u_raw)], 0.0, t_star))
    gamma = 0.0
    for j in range(kt.shape[0] - 1):
        gamma = max(gamma, abs(math.log((ks[j + 1] - ks[j]) / (kt[j + 1] - kt[j]))))
    integral = 0.0
    for ua, ub in zip(ubreaks[:-1], ubreaks[1:]):
        probes = [ua, 0.5 * (ua + ub)] + ([ub] if fm == 1 or gm == 1 else [])
        sup = max(ref_phi_at(u, fdat, gdat, kt, ks, tcand) for u in probes)
        integral += (math.exp(-ua) - math.exp(-ub)) * sup
    return max(gamma, integral)


def ref_segment_cost(nodes, diag_mis, d_exp, mis, tail, p, q, r, s):
    m = nodes.shape[0] - 1
    dx = nodes[r] - nodes[p]
    dy = nodes[s] - nodes[q]
    w = 1e-9 * abs(math.log(dy / dx))
    for k in range(p, r):
        midk = 0.5 * (nodes[k] + nodes[k + 1])
        lam = nodes[q] + (midk - nodes[p]) * dy / dx
        kk = min(max(np.searchsorted(nodes, lam, side="right") - 1, 0), m - 1)
        a = mis[k, kk]
        w += d_exp[k] * max(a, diag_mis[k]) + a * tail[k]
    return w


def ref_tail(nodes):
    return np.array([math.exp(-x) - math.exp(-nodes[-1]) for x in nodes[1:]])


def ref_surrogate_dp(nodes, diag_mis, d_exp, mis, log_cap):
    """Min-cost monotone lattice path under one slope cap; knot indices."""
    m = nodes.shape[0] - 1
    tail = ref_tail(nodes)
    best = np.full((m + 1, m + 1), np.inf)
    par = {}
    best[0, 0] = 0.0
    for r in range(1, m + 1):
        for s in range(1, m + 1):
            for p in range(r):
                for q in range(s):
                    dx = nodes[r] - nodes[p]
                    dy = nodes[s] - nodes[q]
                    if best[p, q] == np.inf or abs(math.log(dy / dx)) > log_cap:
                        continue
                    tot = best[p, q] + ref_segment_cost(
                        nodes, diag_mis, d_exp, mis, tail, p, q, r, s)
                    if tot < best[r, s]:
                        best[r, s] = tot
                        par[r, s] = (p, q)
    knots = [(m, m)]
    while knots[-1] != (0, 0):
        knots.append(par[knots[-1]])
    return knots[::-1]


def surrogate_cost(nodes, diag_mis, d_exp, mis, knots):
    tail = ref_tail(nodes)
    return sum(ref_segment_cost(nodes, diag_mis, d_exp, mis, tail, p, q, r, s)
               for (p, q), (r, s) in zip(knots, knots[1:]))


def loop_surrogate_dp(nodes, diag_mis, d_exp, mis, log_caps):
    """The lattice DP as one step per state (r, s) over (p, k, q) arrays of
    all its predecessors (p, q) and source cells k, the form
    ``_skorohod._surrogate_dp`` had before it went row by row over the
    segments some cap allows; its knots are the ones to keep, bit for bit."""
    m = nodes.size - 1
    caps = np.asarray(log_caps, dtype=float)[:, None, None]
    exp_end = math.exp(-nodes[m])
    tail = np.array([math.exp(-x) - exp_end for x in nodes[1:].tolist()])
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    best = np.full((caps.shape[0], m + 1, m + 1), np.inf)
    best[:, 0, 0] = 0.0
    par = np.zeros((caps.shape[0], m + 1, m + 1), dtype=np.int64)
    for r in range(1, m + 1):
        k = np.arange(r)
        dx = (nodes[r] - nodes[:r])[:, None, None]
        offset = (mids[:r] - nodes[:r, None])[:, :, None]
        live = (k[None, :] >= k[:, None])[:, :, None]
        for s in range(1, m + 1):
            dy = nodes[s] - nodes[:s]
            lg = np.abs(np.log(dy / dx[:, :, 0]))
            lam = nodes[:s] + offset * dy / dx
            kk = np.clip(np.searchsorted(nodes, lam, side="right") - 1, 0, m - 1)
            a = mis[k[:, None], kk]
            c = np.maximum(a, diag_mis[:r, None])
            terms = np.where(live, d_exp[:r, None] * c + a * tail[:r, None], 0.0)
            seg = np.add.accumulate(
                np.concatenate([1e-9 * lg[:, None, :], terms], axis=1), axis=1)[:, -1]
            tot = np.where(lg > caps, np.inf, best[:, :r, :s] + seg).reshape(caps.shape[0], -1)
            best[:, r, s] = tot.min(axis=1)
            par[:, r, s] = tot.argmin(axis=1)
    paths = []
    for parents in par:
        r = s = m
        knots = [(m, m)]
        while r or s:
            r, s = divmod(int(parents[r, s]), s)
            knots.append((r, s))
        paths.append(tuple(knots[::-1]))
    return paths


def recorded_dp_inputs(f, g, resolution):
    """The lattice DP inputs of ``skorohod_distance(f, g, resolution)``: both
    orientations, each down its whole resolution ladder."""
    calls = []
    dp = _skorohod._surrogate_dp

    def record(*args):
        calls.append(args)
        return dp(*args)

    with mock.patch.object(_skorohod, "_surrogate_dp", record):
        skorohod_distance(f, g, resolution)
    return calls


def sin_pair():
    grid = np.linspace(0, 1, 21)
    f = CadlagPath(grid, np.sin(3 * grid), (0.0, np.inf), "linear", 1.0)
    g = CadlagPath(grid, 0.8 * np.sin(3 * grid + 0.3), (0.0, np.inf),
                   "linear", 1.0)
    return f, g


@pytest.fixture(scope="module")
def sin_pair_lattices():
    # resolution 32 runs the lattices of 32, 16, 8 and 4; m is 48 at 32
    return recorded_dp_inputs(*sin_pair(), 32)


def dyadic_knots(rng, n):
    """n + 1 knots on [0, 1] whose gaps are powers of two over 64."""
    parts = [64]
    while len(parts) < n:
        i = int(rng.choice([j for j, v in enumerate(parts) if v > 1]))
        parts[i:i + 1] = [parts[i] // 2, parts[i] // 2]
    rng.shuffle(parts)
    return np.concatenate([[0.0], np.cumsum(parts) / 64.0])


def sixtyfourths_path(rng, mode):
    n = int(rng.integers(1, 6))
    grid = np.concatenate([[0.0], np.sort(rng.choice(np.arange(1, 64), n - 1,
                                                     replace=False)) / 64.0])
    vals = rng.integers(-96, 97, size=n) / 64.0
    if rng.random() < 0.5:
        b = int(rng.integers(16, 64)) / 64.0
        vals[grid >= b] = 0.0
        return CadlagPath(grid, vals, (0.0, b), mode, 1.0)
    return CadlagPath(grid, vals, (0.0, np.inf), mode, 1.0)


def left_before_shared_evaluator(path, t):
    """The time-warp metric's own left-limit rules before it read them from
    ``core._evaluate``, kept as the oracle of that evaluator."""
    if path.mode == "step":
        idx = np.searchsorted(path.grid, t, side="left") - 1
        out = np.where(idx >= 0, path.values[np.clip(idx, 0, None)], 0.0)
    else:
        out = np.where(t <= path.grid[0], 0.0,
                       np.interp(t, path.grid, path.values))
    a, b = path.support
    return np.where((t > a) & (t <= b), out, 0.0)


class TestTimeWarpInternals:
    @pytest.mark.parametrize("mode", ["step", "linear"])
    def test_left_limits_match_former_rules(self, mode):
        # random rows read at their grid times, the neighbouring floats of
        # those, the support edges and times off the grid, bit for bit
        rng = np.random.default_rng(17)
        for _ in range(200):
            k = int(rng.integers(1, 9))
            grid = np.sort(rng.choice(np.arange(1, 200), k, replace=False)
                           ) / 200.0 * 1.5
            if rng.random() < 0.3:
                grid = np.sort(rng.random(k)) * 1.5
            a = float(rng.choice([0.0, grid[0], rng.random() * grid[-1]]))
            b = float(rng.choice([np.inf, grid[-1], 1.5,
                                  a + rng.random() * (1.5 - a)]))
            vals = rng.normal(size=k)
            vals[(grid < a) | (grid >= b)] = 0.0
            path = CadlagPath(grid, vals, (a, b), mode, 1.5)
            edges = np.array([a, b, 0.0, 1.5, -1.0, 2.0])
            base = np.concatenate([grid, edges[np.isfinite(edges)]])
            t = np.concatenate([base, np.nextafter(base, -np.inf),
                                np.nextafter(base, np.inf),
                                rng.random(20) * 1.6 - 0.05])
            want = left_before_shared_evaluator(path, t)
            got = _skorohod._left(path, t)
            assert got.tobytes() == want.tobytes()
            # the metric reads (probes x candidates) blocks
            got2 = _skorohod._left(path, t[:24].reshape(4, 6))
            assert got2.tobytes() == want[:24].reshape(4, 6).tobytes()

    def test_warp_cost_reads_g_after_its_jump(self):
        # g's breakpoint 0.2666... maps back through the warp; the scalar
        # round trip w(w^-1(x)) lands one ulp below x and misses g's value
        # after the jump, under-reporting the cost (0.56709)
        at_t = CadlagPath(
            [0.0, 0.1890580125090324, 0.4833482451651233, 0.8897444664151973,
             0.9621986291995624],
            [1.3308713975209234, 0.6093958627560845, -1.0057692945310195,
             1.7371441530314486, -0.24120220013787463], (0.0, np.inf), "step", 1.0)
        at_w = CadlagPath(
            [0.0, 0.02185938735874884, 0.2666267355368585],
            [1.8426595437210866, 0.41547863096301096, 0.060641467610568434],
            (0.0, np.inf), "step", 1.0)
        kt = np.array([0.0, 1.0 / 3.0, 0.4833482451651233, 1.0])
        ks = np.array([0.0, 0.1890580125090324, 1.0 / 3.0, 1.0])
        # a dense lower estimate of this warp's functional is 0.590965
        assert _skorohod._warp_cost(at_t, at_w, kt, ks, 1.0) >= 0.59096

    def test_warp_cost_matches_scalar_loop(self):
        # on multiples of 1/64 with power-of-two warp gaps every warp
        # evaluation and its inverse are exact, so the loop's round trip
        # through w^-1 cannot miss a jump
        rng = np.random.default_rng(64)
        for trial in range(60):
            modes = [("step", "step"), ("linear", "linear"),
                     ("step", "linear"), ("linear", "step")][trial % 4]
            f = sixtyfourths_path(rng, modes[0])
            g = sixtyfourths_path(rng, modes[1])
            n = int(rng.integers(1, 6))
            kt, ks = dyadic_knots(rng, n), dyadic_knots(rng, n)
            got = _skorohod._warp_cost(f, g, kt, ks, 1.0)
            assert got == pytest.approx(ref_warp_cost(f, g, kt, ks, 1.0),
                                        rel=0, abs=1e-12)

    def test_warp_cost_reads_left_limits_of_linear_paths(self):
        # f jumps to -0.5 at 0.5 and g(t) = -0.8 t: just before 0.5 the two
        # differ by 0.4, a left limit that no breakpoint value shows
        f = CadlagPath([0.0, 0.5], [0.0, -0.5], None, "step", 1.0)
        g = CadlagPath([0.0, 1.0], [0.0, -0.8], None, "linear", 1.0)
        # identity warp: phi(u) = 0.8 u below 0.5 and 0.4 above
        integral = (0.8 * (1 - 1.5 * math.exp(-0.5))
                    + 0.4 * (math.exp(-0.5) - math.exp(-1)))
        for knots in ([0.0, 1.0], [0.0, 0.25, 0.5, 1.0]):
            kt = np.asarray(knots)
            assert _skorohod._warp_cost(f, g, kt, kt, 1.0) >= integral
        # any warp w has phi(u) = 0.8 u below 0.5 and, with c = w(0.5) <= 0.5,
        # phi >= 0.8 c above it at a slope cost >= log(1 / 2c); the smaller
        # of the two bounds is >= 0.1535 for every c (0.15029 before the fix)
        d = skorohod_distance(f, g, 8)
        assert d == skorohod_distance(g, f, 8)
        assert d >= 0.1535

    def test_warp_cost_bounds_the_dense_integral(self):
        # each u-cell is charged its sup, so a warp's cost is at least the
        # integral of e^{-u} phi(u); estimate it by a left-end Riemann sum
        # with phi read on a dense t grid, which can only under-read the sup
        rng = np.random.default_rng(3)
        u = np.arange(256) / 256.0
        e = np.exp(-np.arange(257) / 256.0)
        for trial in range(60):
            modes = [("step", "linear"), ("linear", "step"),
                     ("linear", "linear")][trial % 3]
            f = sixtyfourths_path(rng, modes[0])
            g = sixtyfourths_path(rng, modes[1])
            n = int(rng.integers(1, 6))
            kt, ks = dyadic_knots(rng, n), dyadic_knots(rng, n)
            t = np.linspace(0.0, 1.0, 513)
            t = np.unique(np.concatenate([t, t - 1e-9, f.grid - 1e-9,
                                          np.interp(g.grid, ks, kt) - 1e-9]))
            t = t[(t >= 0.0) & (t <= 1.0)]
            w = np.interp(t, kt, ks)
            phi = np.minimum(np.abs(f(np.minimum(t, u[:, None]))
                                    - g(np.minimum(w, u[:, None]))), 1.0).max(axis=1)
            dense = float(np.sum((e[:-1] - e[1:]) * phi))
            assert _skorohod._warp_cost(f, g, kt, ks, 1.0) >= dense - 1e-12

    def test_dp_matches_scalar_loop_for_every_cap(self):
        rng = np.random.default_rng(7)
        for trial in range(12):
            m = int(rng.integers(2, 7))
            nodes = np.concatenate([[0.0], np.sort(rng.random(m - 1)), [1.0]])
            # coarse mismatch levels make tied paths common
            mis = rng.integers(0, 4, size=(m, m)) / 4.0
            diag = np.diag(mis).copy()
            d_exp = np.exp(-nodes[:-1]) - np.exp(-nodes[1:])
            caps = [rng.uniform(0.05, 2.0) * 0.5 ** j for j in range(9)]
            paths = _skorohod._surrogate_dp(nodes, diag, d_exp, mis, caps)
            assert len(paths) == len(caps)
            for knots, cap in zip(paths, caps):
                assert knots[0] == (0, 0) and knots[-1] == (m, m)
                steps = np.diff(np.asarray(knots), axis=0)
                assert np.all(steps > 0)
                for (p, q), (r, s) in zip(knots, knots[1:]):
                    assert abs(math.log((nodes[s] - nodes[q])
                                        / (nodes[r] - nodes[p]))) <= cap
                want = surrogate_cost(nodes, diag, d_exp, mis,
                                      ref_surrogate_dp(nodes, diag, d_exp, mis, cap))
                assert surrogate_cost(nodes, diag, d_exp, mis, knots) == \
                    pytest.approx(want, rel=1e-12)

    def test_dp_matches_loop_on_tie_rich_lattices(self):
        # coarse mismatch levels, and dyadic nodes whose equal gaps give
        # equal slopes, make tied paths common.  The caps run from one above
        # every segment's |log slope| to ones below every nonzero one; a
        # second ladder tops out at the steepest segment of the path under
        # the cap above all, so that segment sits on the top cap exactly
        rng = np.random.default_rng(23)
        for trial in range(40):
            m = int(rng.integers(1, 17))
            if trial % 2:
                nodes = np.concatenate([[0.0], np.sort(rng.random(m - 1)), [1.0]])
            else:
                nodes = dyadic_knots(rng, m)
            mis = rng.integers(0, 4, size=(m, m)) / 4.0
            diag = np.diag(mis).copy()
            d_exp = np.exp(-nodes[:-1]) - np.exp(-nodes[1:])
            rises = np.subtract.outer(nodes, nodes)[np.tril_indices(m + 1, -1)]
            slopes = np.abs(np.log(rises[:, None] / rises[None, :]))
            caps = [2.0 * slopes.max() + 0.1, 0.0]
            caps += [rng.uniform(0.05, 2.0) * 0.5 ** j for j in range(9)]
            if slopes.max() > 0.0:
                caps.append(0.5 * slopes[slopes > 0.0].min())
            want = loop_surrogate_dp(nodes, diag, d_exp, mis, caps)
            assert _skorohod._surrogate_dp(nodes, diag, d_exp, mis, caps) == want
            knots = np.asarray(want[0])
            steep = np.abs(np.log(np.diff(nodes[knots[:, 1]])
                                  / np.diff(nodes[knots[:, 0]]))).max()
            caps = [steep * 0.5 ** j for j in range(9)]
            assert _skorohod._surrogate_dp(nodes, diag, d_exp, mis, caps) == \
                loop_surrogate_dp(nodes, diag, d_exp, mis, caps)

    def test_dp_matches_loop_on_refinement_lattices(self, sin_pair_lattices):
        assert len(sin_pair_lattices) == 8
        assert max(args[0].size for args in sin_pair_lattices) == 49
        for args in sin_pair_lattices:
            assert _skorohod._surrogate_dp(*args) == loop_surrogate_dp(*args)

    def test_dp_matches_loop_on_growth_marks(self):
        # growth-interaction marks as the growth-ls benchmark builds them
        rng = np.random.default_rng(3)
        n = 30
        xs, births = rng.random((n, 2)), np.sort(rng.random(n))
        lifetimes = rng.exponential(2.0, n)
        gi = GrowthInteraction(("linear", 2.0, 0.08), ("gauss", 1.0, 0.1))
        marks = gi_integrate((xs, births, lifetimes), gi, 0.05, 0, 1.0)
        for i, j in ((0, 1), (2, 3)):
            calls = recorded_dp_inputs(marks[i], marks[j], 4)
            assert len(calls) == 2
            for args in calls:
                assert _skorohod._surrogate_dp(*args) == loop_surrogate_dp(*args)

    def test_dp_memory_at_resolution_32(self, sin_pair_lattices):
        # one pass on the m = 48 lattice: the segments it keeps are costed
        # in blocks, never as one table over all segments
        args = max(sin_pair_lattices, key=lambda a: a[0].size)
        tracemalloc.start()
        try:
            _skorohod._surrogate_dp(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


class TestSampleSchedule:
    def test_sorted_required(self):
        with pytest.raises(ValidationError):
            SampleSchedule((0.5, 0.2))

    def test_nonempty(self):
        with pytest.raises(ValidationError):
            SampleSchedule(())

    def test_within(self):
        s = SampleSchedule((0.2, 0.8))
        s.validate_within(1.0)
        with pytest.raises(ValidationError):
            s.validate_within(0.5)
