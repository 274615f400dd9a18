"""Each kernel must agree with its brute-force loop variant kept here.

The loops are the plain per-pair / per-pixel definitions of each kernel;
they are slow and serve only as oracles on small inputs.
"""
import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.spatial import cKDTree

from fmpp import _kernels as K


@pytest.fixture
def rng():
    return np.random.default_rng(42)


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------
def pair_stats_loop(pts, w, v, lags, bw, sides, torus):
    n, d = pts.shape
    num = np.zeros(lags.shape[0])
    vol = float(np.prod(sides))
    for i in range(n):
        for j in range(i + 1, n):
            dist2 = 0.0
            trans = 1.0
            for a in range(d):
                h = abs(pts[i, a] - pts[j, a])
                if torus:
                    if sides[a] - h < h:
                        h = sides[a] - h
                else:
                    trans *= sides[a] - h
                dist2 += h * h
            dist = np.sqrt(dist2)
            if torus:
                trans = vol
            if dist <= 0.0:
                continue
            ww = w[i] * v[j] + w[j] * v[i]
            surf = (2.0, 2.0 * np.pi * dist, 4.0 * np.pi * dist * dist)[d - 1]
            for k in range(lags.shape[0]):
                u = (lags[k] - dist) / bw
                if -1.0 < u < 1.0:
                    num[k] += ww * 0.75 * (1.0 - u * u) / bw / trans / surf
    return num


def pair_stats_dense(pts, w, v, lags, bw, sides, torus):
    """The kernel over every candidate pair at once: one dense (lags, pairs)
    Epanechnikov matrix times the pair weights."""
    d = pts.shape[1]
    if torus:
        pts = np.mod(pts, sides)
        pts = np.where(pts >= sides, 0.0, pts)
        tree = cKDTree(pts, boxsize=sides)
    else:
        tree = cKDTree(pts)
    pairs = tree.query_pairs(float(np.max(lags)) + bw, output_type="ndarray")
    i, j = pairs[:, 0], pairs[:, 1]
    diff = np.abs(pts[i] - pts[j])
    if torus:
        diff = np.minimum(diff, sides - diff)
        trans = np.prod(sides)
    else:
        trans = np.prod(sides - diff, axis=1)
    dist = np.sqrt(np.sum(diff * diff, axis=1))
    ww = w[i] * v[j] + w[j] * v[i]
    surf = (np.full_like(dist, 2.0), 2.0 * np.pi * dist,
            4.0 * np.pi * dist * dist)[d - 1]
    ok = dist > 0.0
    u = (lags[:, None] - dist[None, :]) / bw
    kern = np.where(np.abs(u) < 1.0, 0.75 * (1.0 - u * u) / bw, 0.0)
    return kern @ np.where(ok, ww / trans / np.where(ok, surf, 1.0), 0.0)


def gibbs_chain_loop(x0, lo, hi, torus, beta, gamma, rng_move, rng_loc,
                     rng_idx, rng_acc, rad, trad, d_spatial):
    D = lo.shape[0]
    buf = [np.array(x, dtype=float) for x in x0]
    vol = float(np.prod(hi - lo))

    def count(x, others):
        cnt = 0
        for y in others:
            dist2 = 0.0
            for a in range(d_spatial):
                h = abs(x[a] - y[a])
                if torus and (hi[a] - lo[a]) - h < h:
                    h = (hi[a] - lo[a]) - h
                dist2 += h * h
            ok = dist2 <= rad * rad
            if ok and trad >= 0.0 and D > d_spatial:
                ok = abs(x[D - 1] - y[D - 1]) <= trad
            cnt += ok
        return cnt

    for s in range(rng_move.shape[0]):
        n = len(buf)
        if rng_move[s] < 0.5:
            cand = lo + rng_loc[s] * (hi - lo)
            papan = beta * gamma ** count(cand, buf)
            if rng_acc[s] * (n + 1) < papan * vol:
                buf.append(cand)
        elif n > 0:
            idx = min(int(rng_idx[s] * n), n - 1)
            papan = beta * gamma ** count(buf[idx], buf[:idx] + buf[idx + 1:])
            if papan * vol * rng_acc[s] < n:
                buf[idx] = buf[n - 1]
                buf.pop()
    return np.array(buf).reshape(len(buf), D)


def gi_drift_loop(m, alive, xs, growth_code, gp, inter_code, ip, cutoff):
    n = m.shape[0]
    out = np.zeros(n)
    m, alive, xs = m.tolist(), alive.tolist(), xs.tolist()
    gp, ip = gp.tolist(), ip.tolist()
    for i in range(n):
        if not alive[i]:
            continue
        if growth_code == 0:
            drift = gp[0] * (gp[1] - m[i])
        else:
            drift = gp[0] * m[i] * (1.0 - m[i] / gp[1])
        if inter_code != 0:
            for j in range(n):
                if j == i or not alive[j]:
                    continue
                dist2 = sum((a - b) ** 2 for a, b in zip(xs[i], xs[j]))
                if cutoff >= 0.0 and dist2 > cutoff * cutoff:
                    continue
                if inter_code == 1:
                    drift -= ip[0] * m[i] * m[j] * math.exp(-dist2 / (ip[1] * ip[1]))
                else:
                    ov = m[i] + m[j] - math.sqrt(dist2)
                    if ov > 0.0:
                        drift -= ip[0] * ov
        out[i] = drift
    return out


def gi_integrate_loop(xs, births, deaths, m0, dt, nsteps, growth_code, gp,
                      inter_code, ip, sigma_code, sp, normals, clamp_code,
                      cutoff):
    n = xs.shape[0]
    deaths = deaths.copy()
    vals = np.zeros((nsteps + 1, n))
    m = np.zeros(n)
    alive = np.zeros(n, dtype=bool)
    negative = False

    def drift(mv):
        return gi_drift_loop(mv, alive, xs, growth_code, gp, inter_code, ip,
                             cutoff)

    for step in range(nsteps + 1):
        t = step * dt
        for i in range(n):
            was = alive[i]
            alive[i] = births[i] <= t < deaths[i]
            if alive[i] and not was:
                m[i] = m0
            if not alive[i]:
                m[i] = 0.0
        vals[step] = np.where(alive, m, 0.0)
        if step == nsteps:
            break
        if sigma_code == 0:
            k1 = drift(m)
            k2 = drift(m + 0.5 * dt * k1)
            k3 = drift(m + 0.5 * dt * k2)
            k4 = drift(m + dt * k3)
            for i in range(n):
                if alive[i]:
                    m[i] += dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i])
        else:
            k1 = drift(m)
            for i in range(n):
                if alive[i]:
                    sig = sp[0] if sigma_code == 1 else sp[0] * m[i]
                    m[i] += dt * k1[i] + sig * np.sqrt(dt) * normals[step, i]
        for i in range(n):
            if alive[i] and m[i] < 0.0:
                negative = True
                if clamp_code in (0, 1):
                    m[i] = 0.0
                if clamp_code == 1:
                    deaths[i] = min(deaths[i], (step + 1) * dt)
                    alive[i] = False
    return vals, negative, deaths


def coverage_count_loop(centers, radii, lo, hi, res, torus):
    covered = 0
    side = hi - lo
    sx, sy = side / res
    for ix in range(res):
        px = lo[0] + (ix + 0.5) * sx
        for iy in range(res):
            py = lo[1] + (iy + 0.5) * sy
            for k in range(centers.shape[0]):
                dx = abs(px - centers[k, 0])
                dy = abs(py - centers[k, 1])
                if torus:
                    dx = min(dx, side[0] - dx)
                    dy = min(dy, side[1] - dy)
                if dx * dx + dy * dy <= radii[k] * radii[k]:
                    covered += 1
                    break
    return covered


def neighbour_counts_loop(queries, pts, sides, torus, rad, trad, d_spatial):
    out = np.zeros(queries.shape[0], dtype=np.int64)
    for q in range(queries.shape[0]):
        for j in range(pts.shape[0]):
            dist2 = 0.0
            for a in range(d_spatial):
                h = abs(queries[q, a] - pts[j, a])
                if torus and sides[a] - h < h:
                    h = sides[a] - h
                dist2 += h * h
            ok = dist2 <= rad * rad
            if ok and trad >= 0.0 and queries.shape[1] > d_spatial:
                ok = abs(queries[q, -1] - pts[j, -1]) <= trad
            out[q] += ok
    return out


# ---------------------------------------------------------------------------
# pair statistics
# ---------------------------------------------------------------------------
def test_pair_stats_variants_agree(rng):
    # box and torus in d = 1, 2, 3, on a window away from the origin with
    # unequal sides
    lags = np.linspace(0.03, 0.35, 7)
    for d in (1, 2, 3):
        lo = np.array([-0.3, 2.0, 0.5])[:d]
        sides = np.array([1.0, 1.5, 0.8])[:d]
        n = 40 if d == 1 else 80
        pts = lo + rng.random((n, d)) * sides
        w, v = rng.random(n), rng.random(n)
        for torus in (False, True):
            want = pair_stats_loop(pts, w, v, lags, 0.05, sides, torus)
            assert np.all(want > 0)
            np.testing.assert_allclose(
                K.pair_stats(pts, w, v, lags, 0.05, sides, torus), want,
                rtol=1e-12, atol=0)


@pytest.mark.parametrize("torus", [False, True])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_pair_stats_matches_dense_kernel_matrix(rng, d, torus):
    # overlapping lag windows, a bandwidth wider than the smallest lag, a
    # coincident pair and a pair near lag + bw, where the kernel vanishes
    lo = np.array([-0.3, 2.0, 0.5])[:d]
    sides = np.array([1.0, 1.5, 0.8])[:d]
    n = 150 if d == 1 else 400
    pts = lo + rng.random((n, d)) * sides
    pts[1] = pts[0]
    pts[2] = pts[0] + np.eye(d)[0] * 0.125
    w, v = rng.random(n), rng.random(n)
    for lags, bw in ((np.linspace(0.02, 0.3, 15), 0.05),
                     (np.array([0.1, 0.15, 0.3]), 0.025)):
        want = pair_stats_dense(pts, w, v, lags, bw, sides, torus)
        assert np.all(want > 0)
        np.testing.assert_allclose(K.pair_stats(pts, w, v, lags, bw, sides, torus),
                                   want, rtol=1e-12, atol=0)


def test_pair_stats_memory_is_per_lag_slice():
    # the wiener-2k size: 2043 points on the unit square, 7 lags, about
    # 222k candidate pairs; the dense (lags, pairs) form peaked at 49.9 MB.
    # At 4n the pairs grow 16-fold, and holding them all at once peaked at
    # 231 MB against 14.5 MB at n; a block of pairs does not grow
    lags = np.array([0.025, 0.05, 0.075, 0.1, 0.125, 0.15, 0.2])
    sides = np.ones(2)
    peaks = []
    for n in (2043, 4 * 2043):
        rng = np.random.default_rng(5)
        pts, w = rng.random((n, 2)), np.ones(n)
        bw = 0.15 / math.sqrt(n)
        tracemalloc.start()
        try:
            got = K.pair_stats(pts, w, w, lags, bw, sides, False)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        if n == 2043:
            np.testing.assert_allclose(
                got, pair_stats_dense(pts, w, w, lags, bw, sides, False),
                rtol=1e-12, atol=0)
    assert peaks[0] < 25e6
    assert peaks[1] < 2 * peaks[0], peaks


def test_pair_stats_torus_points_on_the_boundary(rng):
    # a point exactly on hi and one just below lo are valid torus points,
    # but a periodic tree rejects coordinates outside [0, side)
    sides = np.array([1.0, 1.0])
    pts = np.vstack([rng.random((30, 2)),
                     [[1.0, 0.4], [-1e-18, 0.7], [0.3, 1.0], [0.6, -1e-18]]])
    with pytest.raises(ValueError):
        cKDTree(np.mod(pts, sides), boxsize=sides)
    w = np.ones(len(pts))
    lags = np.linspace(0.05, 0.3, 6)
    np.testing.assert_allclose(
        K.pair_stats(pts, w, w, lags, 0.05, sides, True),
        pair_stats_loop(pts, w, w, lags, 0.05, sides, True),
        rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# the remaining kernels
# ---------------------------------------------------------------------------
def lattice(lo, hi, step):
    """Every point of the lattice step * Z^d inside [lo, hi)."""
    axes = [np.arange(np.ceil(a / step), np.ceil(b / step)) * step
            for a, b in zip(lo, hi)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, len(lo))


def test_gibbs_chain_variants_agree(rng):
    steps = 400
    unit2, unit3 = ([0.0, 0.0], [1.0, 1.0]), ([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    offset = ([-0.3, 2.0], [0.7, 2.5])
    # (lo, hi), torus, beta, gamma, rad, trad, d_spatial, x0 lattice step
    cases = [
        (unit2, False, 40.0, 0.6, 0.07, -1.0, 2, None),
        (unit2, True, 40.0, 0.6, 0.07, -1.0, 2, None),
        (([0.0, 0.0, 0.0], [1.0, 1.0, 2.0]), True, 40.0, 0.6, 0.07, 0.3, 2,
         None),
        # lattice starts at multiples of rad / 2: pairs at exactly rad, some
        # across cell boundaries, on an offset window with unequal sides
        (offset, False, 100.0, 0.5, 0.125, -1.0, 2, 0.0625),
        (offset, True, 100.0, 0.5, 0.125, -1.0, 2, 0.0625),
        (unit2, False, 150.0, 0.3, 0.25, -1.0, 2, 0.125),
        (offset, False, 60.0, 0.4, 0.07, -1.0, 2, None),
        (offset, True, 60.0, 0.4, 0.07, -1.0, 2, None),
        # rad >= side / 3 and rad >= side on a torus: the wrapped neighbour
        # cells coincide, and each point still counts once
        (unit2, True, 60.0, 0.8, 0.4, -1.0, 2, 0.25),
        (offset, True, 100.0, 0.8, 0.4, -1.0, 2, None),
        (offset, True, 100.0, 0.9, 1.5, -1.0, 2, 0.25),
        # three cells per axis on a box; with four, cells would be narrower
        # than the range and the 3 x 3 block would miss neighbours
        (unit2, False, 60.0, 0.8, 0.3, -1.0, 2, None),
        # hard core and no interaction
        (unit2, False, 80.0, 0.0, 0.1, -1.0, 2, None),
        (unit2, True, 80.0, 0.0, 0.1, -1.0, 2, 0.125),
        (offset, False, 40.0, 1.0, 0.1, -1.0, 2, 0.125),
        # 1-D and 3-D spatial windows
        (([-1.0], [2.0]), False, 30.0, 0.5, 0.125, -1.0, 1, 0.0625),
        (([-1.0], [2.0]), True, 30.0, 0.5, 0.125, -1.0, 1, None),
        (unit3, False, 80.0, 0.5, 0.25, -1.0, 3, 0.125),
        (([-0.3, 2.0, 0.5], [0.7, 2.5, 1.3]), True, 80.0, 0.5, 0.2, -1.0, 3,
         None),
        # space-time cylinders on a 1-D and a 2-D window
        (([0.0, 0.0], [1.0, 2.0]), False, 40.0, 0.3, 0.125, 0.25, 1, 0.125),
        (([-0.3, 2.0, 0.0], [0.7, 2.5, 1.0]), True, 60.0, 0.0, 0.125, 0.25,
         2, None),
    ]
    for (lo, hi), torus, beta, gamma, rad, trad, d, step in cases:
        lo, hi = np.array(lo), np.array(hi)
        D = lo.size
        args = (rng.random(steps), rng.random((steps, D)), rng.random(steps),
                rng.random(steps))
        x0 = np.empty((0, D)) if step is None else lattice(lo, hi, step)
        got = K.gibbs_chain(x0, lo, hi, torus, beta, gamma, *args, rad, trad, d)
        want = gibbs_chain_loop(x0, lo, hi, torus, beta, gamma, *args, rad,
                                trad, d)
        assert got.shape[0] > 5
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("torus", [False, True])
def test_gibbs_chain_variants_agree_across_chunks(rng, torus):
    # the chain searches its neighbours once per chunk of max(_CHUNK, n)
    # steps: runs over several chunk boundaries, from an empty state, from a
    # start state of more rows than a chunk has steps, and in space-time
    chunk = K._CHUNK
    unit2 = (np.zeros(2), np.ones(2))
    offset = (np.array([-0.3, 2.0]), np.array([0.7, 2.5]))
    big = lattice(*offset, 0.025)
    assert big.shape[0] > chunk
    # (lo, hi), x0, steps, beta, gamma, rad, trad, d_spatial
    cases = [
        (unit2, np.empty((0, 2)), 3 * chunk + 7, 100.0, 0.5, 0.07, -1.0, 2),
        (offset, big, 2 * big.shape[0] + 7, 100.0, 0.5, 0.05, -1.0, 2),
        ((np.zeros(3), np.ones(3)), np.empty((0, 3)), 3 * chunk + 7, 100.0,
         0.3, 0.1, 0.2, 2),
    ]
    for (lo, hi), x0, steps, beta, gamma, rad, trad, d in cases:
        D = lo.size
        args = (rng.random(steps), rng.random((steps, D)), rng.random(steps),
                rng.random(steps))
        got = K.gibbs_chain(x0, lo, hi, torus, beta, gamma, *args, rad, trad, d)
        want = gibbs_chain_loop(x0, lo, hi, torus, beta, gamma, *args, rad,
                                trad, d)
        assert got.shape[0] > 5
        np.testing.assert_array_equal(got, want)


def gibbs_pl_chain(steps=20000, seed=2014):
    """The chain of the gibbs-pl benchmark's ground: beta 200, gamma 0.3,
    range 0.05 on the unit square, with its draws in simulate_gibbs' order."""
    rng = np.random.default_rng(seed)
    return (np.empty((0, 2)), np.zeros(2), np.ones(2), False, 200.0, 0.3,
            rng.random(steps), rng.random((steps, 2)), rng.random(steps),
            rng.random(steps), 0.05, -1.0, 2)


def test_gibbs_chain_pinned():
    # the state recorded with a brute-force count over all points: every
    # proposal must decide as it did there
    out = K.gibbs_chain(*gibbs_pl_chain())
    assert out.shape == (122, 2)
    assert out[:2].tolist() == [[0.32913853417009, 0.34674218439454385],
                                [0.8220797402697679, 0.5087421972249944]]
    assert out[-1].tolist() == [0.8227921730407771, 0.9837765742585266]
    digest = hashlib.sha256(np.ascontiguousarray(out, "<f8").tobytes())
    assert digest.hexdigest() == (
        "b8fb0fd04ec5caf0f8e66da65d8ce5149908c38608a163ebf643a694bdeb2b1a")


def torus_chain(steps=20000, seed=2015):
    """The gibbs-pl chain on the unit torus, whose neighbour cells wrap."""
    rng = np.random.default_rng(seed)
    return (np.empty((0, 2)), np.zeros(2), np.ones(2), True, 200.0, 0.3,
            rng.random(steps), rng.random((steps, 2)), rng.random(steps),
            rng.random(steps), 0.05, -1.0, 2)


def cylinder_chain(steps=20000, seed=2016):
    """A space-time chain on [0, 1]^2 x [0, 2] with spatial range 0.08 and
    temporal range 0.1."""
    rng = np.random.default_rng(seed)
    lo, hi = np.zeros(3), np.array([1.0, 1.0, 2.0])
    return (np.empty((0, 3)), lo, hi, False, 100.0, 0.4,
            rng.random(steps), rng.random((steps, 3)), rng.random(steps),
            rng.random(steps), 0.08, 0.1, 2)


@pytest.mark.parametrize("chain, shape, digest", [
    (torus_chain, (104, 2),
     "c4489f16a614a3a87386a5b63d2969f4ad2161b009cffb76c2f2c0f597ee1b02"),
    (cylinder_chain, (182, 3),
     "3cee733051572d07122ccd97817923a90496559247f9b87313c88e655bd64214"),
])
def test_gibbs_chain_pinned_wrapped_and_cylinder(chain, shape, digest):
    # the states recorded with the search that listed every candidate in
    # both orders, where they also matched gibbs_chain_loop
    out = K.gibbs_chain(*chain())
    assert out.shape == shape
    got = hashlib.sha256(np.ascontiguousarray(out, "<f8").tobytes())
    assert got.hexdigest() == digest


def test_gibbs_chain_memory_is_small():
    # draws are read a chunk at a time and a chunk holds only its own rows
    # and close pairs; converting all 20 000 draws at once would take
    # several MB
    args = gibbs_pl_chain()
    tracemalloc.start()
    try:
        out = K.gibbs_chain(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape[0] > 100
    assert peak < 1_000_000


def test_gibbs_chain_memory_is_linear():
    # a chunk holds its universe's rows and close pairs: from a start state
    # four times as large the peak grows about four times, not sixteen
    rng = np.random.default_rng(5)
    lo, hi = np.zeros(2), np.ones(2)
    steps = 1000
    draws = (rng.random(steps), rng.random((steps, 2)), rng.random(steps),
             rng.random(steps))
    peaks = []
    for n in (1000, 4000):
        args = (rng.random((n, 2)), lo, hi, False, float(n), 0.5, *draws,
                0.01, -1.0, 2)
        K.gibbs_chain(*args)
        tracemalloc.start()
        try:
            K.gibbs_chain(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 8 * peaks[0]


def clustered_points(rng, n_clusters, per_cluster, spread):
    centres = 0.2 + 0.6 * rng.random((n_clusters, 2))
    return np.repeat(centres, per_cluster, axis=0) + spread * rng.standard_normal(
        (n_clusters * per_cluster, 2))


def check_gi_against_loop(args):
    a, na, da = K.gi_integrate_values(*args)
    b, nb, db = gi_integrate_loop(*args)
    np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-14)
    assert na == nb
    np.testing.assert_array_equal(da, db)
    return b, nb


def test_gi_integrate_variants_agree(rng):
    n = 6
    xs = rng.random((n, 2))
    births = rng.random(n) * 0.3
    deaths = births + 0.5 + rng.random(n)
    normals = rng.standard_normal((100, n))
    gp = np.array([1.0, 1.0])
    ip = np.array([0.5, 0.3])
    negatives = 0
    for gcode, icode, cutoff in ((0, 1, -1.0), (0, 2, 0.3), (1, 1, 0.3)):
        # noise code, noise scale, negative policy (0 clamp, 1 absorb, 2 error)
        for scode, sp, clamp in ((0, 0.0, 0), (1, 0.2, 0), (2, 0.8, 0),
                                 (1, 0.6, 1), (1, 0.6, 2)):
            args = (xs, births, deaths.copy(), 0.1, 0.01, 100, gcode, gp,
                    icode, ip, scode, np.array([sp]), normals, clamp, cutoff)
            negatives += check_gi_against_loop(args)[1]
    assert negatives > 0

    # clusters whose within-cluster pairs sit inside the cutoff and inside
    # 2 max m while the pairs across clusters do not
    xs = clustered_points(rng, 4, 10, 0.04)
    n, nsteps, cutoff = xs.shape[0], 40, 0.15
    births = rng.random(n) * 0.3
    deaths = births + 0.5 + rng.random(n)
    normals = rng.standard_normal((nsteps, n))
    dist = np.sqrt(np.sum((xs[:, None] - xs[None]) ** 2, axis=-1))[
        np.triu_indices(n, 1)]
    assert np.any(dist <= cutoff) and np.any(dist > cutoff)
    negatives = 0
    for gcode in (0, 1):
        for icode in (1, 2):
            for cut in (-1.0, cutoff):
                # noise code, noise scale, negative policy
                # (0 clamp, 1 absorb, 2 error)
                for scode, sp, clamp in ((0, 0.0, 0), (1, 0.2, 0), (2, 0.8, 0),
                                         (1, 0.6, 1), (1, 0.6, 2), (2, 1.5, 1)):
                    args = (xs, births, deaths.copy(), 0.05, 1.0 / nsteps,
                            nsteps, gcode, gp, icode, ip, scode, np.array([sp]),
                            normals, clamp, cut)
                    b, nb = check_gi_against_loop(args)
                    negatives += nb
                    if icode == 2 and scode == 0:
                        # the overlap cut at 2 max m splits the pair list
                        assert dist.min() < 2.0 * b.max() < dist.max()
    assert negatives > 0


def test_gi_integrate_memory_holds_one_operator():
    # the gauss operator is built once; drift calls add no n x n arrays
    n = 1000
    xs = np.random.default_rng(3).random((n, 2))
    args = (xs, np.zeros(n), np.full(n, np.inf), 0.05, 0.1, 5, 0,
            np.array([1.0, 1.0]), 1, np.array([0.5, 0.02]), 0, np.zeros(1),
            np.zeros((1, n)), 0, -1.0)
    tracemalloc.start()
    try:
        vals, _, _ = K.gi_integrate_values(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(vals[-1] > 0.05)
    assert peak < 3 * n * n * 8


def test_growth_plan_reuse_matches_fresh_integrations(rng):
    # one plan integrated under several growth laws, noises and negative
    # policies gives what a fresh gi_integrate_values call gives each time:
    # absorption changes the alive matrix of its own integration only
    xs = clustered_points(rng, 3, 8, 0.05)
    n, nsteps = xs.shape[0], 40
    dt = 1.0 / nsteps
    births = rng.random(n) * 0.6
    deaths = births + 0.2 + rng.random(n)
    kept = deaths.copy()
    normals = rng.standard_normal((nsteps, n))
    gp = np.array([1.0, 1.0])
    for icode, ip, cutoff in ((1, np.array([0.5, 0.3]), -1.0),
                              (2, np.array([0.5, 0.0]), 0.15)):
        plan = K.GrowthPlan(xs, births, deaths, dt, nsteps, icode, ip, cutoff)
        absorbed = 0
        # growth code, noise code, noise scale, negative policy
        for gcode, scode, sp, clamp in ((0, 0, 0.0, 0), (1, 2, 0.8, 0),
                                        (0, 1, 0.6, 1), (1, 1, 0.6, 2),
                                        (0, 0, 0.0, 0)):
            run = (0.05, gcode, gp, scode, np.array([sp]), normals, clamp)
            got = plan.integrate(*run)
            want = K.gi_integrate_values(xs, births, deaths, 0.05, dt, nsteps,
                                         gcode, gp, icode, ip, scode,
                                         np.array([sp]), normals, clamp,
                                         cutoff)
            np.testing.assert_array_equal(got[0], want[0])
            assert got[1] == want[1]
            np.testing.assert_array_equal(got[2], want[2])
            absorbed += int(np.sum(got[2] < deaths))
        assert absorbed > 0
    np.testing.assert_array_equal(deaths, kept)


def test_growth_plan_memory_holds_one_operator():
    # births spread over [0, 0.9] change the alive set at most steps; each
    # change step gathers its gauss block per integration, after releasing
    # the last one, so the plan holds only the one n x n operator
    n, nsteps = 1000, 20
    r = np.random.default_rng(5)
    xs, births = r.random((n, 2)), r.random(n) * 0.9
    alive = births <= np.arange(nsteps + 1)[:, None] * (1.0 / nsteps)
    assert np.count_nonzero(np.any(alive[1:] != alive[:-1], axis=1)) >= 15
    tracemalloc.start()
    try:
        plan = K.GrowthPlan(xs, births, np.full(n, np.inf), 1.0 / nsteps,
                            nsteps, 1, np.array([0.5, 0.02]), -1.0)
        vals, _, _ = plan.integrate(0.05, 0, np.array([1.0, 1.0]), 0,
                                    np.zeros(1), np.zeros((1, n)), 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(vals[-1] > 0.05)
    assert peak < 3 * n * n * 8


def test_coverage_count_variants_agree(rng):
    centers = rng.random((5, 2))
    radii = 0.05 + 0.1 * rng.random(5)
    lo = np.array([0.0, 0.0])
    hi = np.array([1.0, 1.0])
    for torus in (False, True):
        assert (K.coverage_count(centers, radii, lo, hi, 64, torus)
                == coverage_count_loop(centers, radii, lo, hi, 64, torus))
    # an offset window with unequal sides: disks that wrap a corner on the
    # torus and one taller than the window
    lo = np.array([-0.5, 2.0])
    hi = np.array([0.7, 2.8])
    side = hi - lo
    centers = lo + side * np.array([[0.01, 0.02], [0.99, 0.97], [0.03, 0.98],
                                    [0.5, 0.5], [0.25, 0.75], [0.6, 0.1]])
    radii = np.array([0.1, 0.05, 0.2, 0.5, 0.08, 0.02])
    for torus in (False, True):
        got = K.coverage_count(centers, radii, lo, hi, 48, torus)
        assert got == coverage_count_loop(centers, radii, lo, hi, 48, torus)
        assert 0 < got < 48 * 48
    assert (K.coverage_count(centers[:3], radii[:3], lo, hi, 48, True)
            > K.coverage_count(centers[:3], radii[:3], lo, hi, 48, False))
    # centres on pixel centres and whole-pixel radii: the outermost pixels
    # of each disk lie exactly on its circle, one of them across a corner
    centers = np.array([[10.5, 20.5], [0.5, 31.5], [31.5, 0.5]]) / 32
    radii = np.array([3.0, 2.0, 1.0]) / 32
    lo, hi = np.zeros(2), np.ones(2)
    for torus in (False, True):
        assert (K.coverage_count(centers, radii, lo, hi, 32, torus)
                == coverage_count_loop(centers, radii, lo, hi, 32, torus))


def test_neighbour_counts_variants_agree(rng, monkeypatch):
    queries = rng.random((30, 3))
    pts = rng.random((50, 3))
    sides = np.array([1.0, 1.0, 1.0])
    # one block of queries, then blocks of a few candidate pairs
    for block in (K._BLOCK_ENTRIES, 50, 350):
        monkeypatch.setattr(K, "_BLOCK_ENTRIES", block)
        for torus in (False, True):
            for trad in (-1.0, 0.2):
                np.testing.assert_array_equal(
                    K.neighbour_counts(queries, pts, sides, torus, 0.2, trad,
                                       2),
                    neighbour_counts_loop(queries, pts, sides, torus, 0.2,
                                          trad, 2))


def test_neighbour_counts_leave_own_row_out(rng):
    queries = rng.random((40, 3))
    pts = rng.random((25, 3))
    # half the queries sit on a pattern row, some of them their own
    queries[::2] = pts[rng.integers(0, 25, 20)]
    own = rng.integers(-1, 25, 40)
    sides = np.ones(3)
    for torus in (False, True):
        for rad, trad in ((0.2, -1.0), (0.2, 0.3), (0.0, 0.0)):
            got = K.neighbour_counts(queries, pts, sides, torus, rad, trad, 2,
                                     own)
            want = [neighbour_counts_loop(queries[j:j + 1],
                                          np.delete(pts, own[j], axis=0)
                                          if own[j] >= 0 else pts,
                                          sides, torus, rad, trad, 2)[0]
                    for j in range(40)]
            np.testing.assert_array_equal(got, want)


def test_neighbour_counts_memory_is_blocked(rng):
    # the pseudo-likelihood's 48 x 48 quadrature against 10 000 points: an
    # (m, n, d) temporary alone would take m * n * 16 bytes
    m, n = 2304, 10_000
    queries, pts = rng.random((m, 2)), rng.random((n, 2))
    tracemalloc.start()
    try:
        got = K.neighbour_counts(queries, pts, np.ones(2), True, 0.02, -1.0, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # under one byte per query-point pair
    assert peak < m * n
    some = rng.choice(m, 5, replace=False)
    np.testing.assert_array_equal(
        got[some],
        neighbour_counts_loop(queries[some], pts, np.ones(2), True, 0.02,
                              -1.0, 2))
    assert got.sum() > m


def grid_pattern(rng, lo, sides):
    """A pattern that probes the cell grid: uniform points, a lattice 0.125
    apart along axis 0 (exact in binary, from -0.25), the corners at lo and
    at the float just below hi and a mixed one, and coincident copies; a
    time column in [0, 1] with ties."""
    d = lo.size
    hi_in = np.nextafter(lo + sides, -np.inf)
    lattice = np.tile(lo + 0.5 * sides, (8, 1))
    lattice[:, 0] = -0.25 + 0.125 * np.arange(8)
    mixed = hi_in.copy()
    mixed[0] = lo[0]
    x = np.vstack([lo + rng.random((20, d)) * sides, lattice, lo, hi_in, mixed])
    x = np.vstack([x, x[[0, 3, 20, 28, 29]]])
    t = rng.random(x.shape[0])
    t[-5:] = t[[0, 3, 20, 28, 29]]
    return np.column_stack([x, t])


@pytest.mark.parametrize("torus", [False, True])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_neighbour_counts_match_the_loop_on_the_grid(rng, d, torus):
    # a box away from the origin with unequal sides, and its torus: reach 0
    # (coincident points), 0.125 (the lattice spacing), 0.45 and 0.7 (one,
    # two or three cells per axis) and 2 (wider than the window)
    lo = np.array([-0.3, 2.0, 0.5])[:d]
    sides = np.array([1.0, 1.5, 0.8])[:d]
    pts = grid_pattern(rng, lo, sides)
    n = pts.shape[0]
    rows = rng.choice(n, 12, replace=False)
    queries = np.vstack([np.column_stack([lo + rng.random((12, d)) * sides,
                                          rng.random(12)]),
                         pts[rows], pts[28:31]])
    own = np.concatenate([np.full(12, -1), rows, [28, -1, 30]])
    for rad in (0.0, 0.07, 0.125, 0.45, 0.7, 2.0):
        for trad in (-1.0, 0.2):
            want = neighbour_counts_loop(queries, pts, sides, torus, rad, trad,
                                         d)
            got = K.neighbour_counts(queries, pts, sides, torus, rad, trad, d)
            np.testing.assert_array_equal(got, want)
            want = [neighbour_counts_loop(queries[j:j + 1],
                                          np.delete(pts, own[j], axis=0)
                                          if own[j] >= 0 else pts,
                                          sides, torus, rad, trad, d)[0]
                    for j in range(queries.shape[0])]
            got = K.neighbour_counts(queries, pts, sides, torus, rad, trad, d,
                                     own)
            np.testing.assert_array_equal(got, want)
    # the lattice is exactly 0.125 apart, on the torus across the seam too
    lat = pts[20:28]
    counts = K.neighbour_counts(lat, lat, sides, torus, 0.125, -1.0, d)
    assert counts[0] == (3 if torus else 2)


def test_neighbour_counts_keep_a_pair_a_reach_apart_across_a_cell():
    # at a reach a hair over 1/8 of the unit side, cells exactly a reach wide
    # would be 1/8 wide and put the last two points, within reach, two cells
    # apart; the grid's margin makes its cells wider than the reach
    rad = 1.0 / (8.0 - 1e-7)
    x1 = 0.125 - 1e-9
    pts = np.array([[0.0], [x1], [x1 + rad * (1.0 - 1e-9)]])
    for torus in (False, True):
        got = K.neighbour_counts(pts, pts, np.ones(1), torus, rad, -1.0, 1)
        np.testing.assert_array_equal(
            got, neighbour_counts_loop(pts, pts, np.ones(1), torus, rad, -1.0, 1))
        assert got[2] == 2


def test_neighbour_counts_leave_non_finite_rows_out(rng):
    # a row with a NaN or infinite coordinate is in range of nothing; the
    # grid gives it no cell instead of casting it to one
    pts = rng.random((20, 2))
    pts[3], pts[7] = [np.nan, 0.5], [np.inf, 0.2]
    queries = np.vstack([rng.random((10, 2)), [[0.5, np.nan], [-np.inf, 0.1]]])
    for torus in (False, True):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = K.neighbour_counts(queries, pts, np.ones(2), torus, 0.3,
                                     -1.0, 2)
        np.testing.assert_array_equal(
            got, neighbour_counts_loop(queries, pts, np.ones(2), torus, 0.3,
                                       -1.0, 2))
        assert got[-2:].tolist() == [0, 0] and got.sum() > 0


def test_neighbour_counts_test_only_near_pairs(rng, monkeypatch):
    # the pseudo-likelihood's 48 x 48 nodes against 20 000 points at R = 0.01:
    # the grid hands _in_range a small share of the m n pairs
    m, n = 2304, 20_000
    queries, pts = rng.random((m, 2)), rng.random((n, 2))
    inner = K._in_range
    tested = []

    def counting(a, b, *args):
        tested.append(np.broadcast(a[..., 0], b[..., 0]).size)
        return inner(a, b, *args)

    monkeypatch.setattr(K, "_in_range", counting)
    some = rng.choice(m, 5, replace=False)
    for torus in (False, True):
        tested.clear()
        got = K.neighbour_counts(queries, pts, np.ones(2), torus, 0.01, -1.0, 2)
        assert sum(tested) < 0.05 * m * n
        np.testing.assert_array_equal(
            got[some], neighbour_counts_loop(queries[some], pts, np.ones(2),
                                             torus, 0.01, -1.0, 2))
        assert got.sum() > m


def close_pairs_full(a, b, reach, sides, torus):
    """Every candidate of the (m, d) rows ``a`` against the (n, d) rows
    ``b``, in one block: the full 3^d stencil of cells at most 256 an axis,
    with the rows of each neighbour key found by two ``searchsorted`` on the
    sorted keys of b, so a self search lists each pair in both orders."""
    ia = np.flatnonzero(np.isfinite(a).all(axis=1))
    ib = np.flatnonzero(np.isfinite(b).all(axis=1))
    a, b = a[ia], b[ib]
    if a.shape[0] == 0 or b.shape[0] == 0:
        return np.empty(0, np.intp), np.empty(0, np.intp)
    lo = np.minimum(a.min(axis=0), b.min(axis=0))
    if torus:
        spans = sides[:a.shape[1]]
    else:
        spans = np.maximum(a.max(axis=0), b.max(axis=0)) - lo
        spans = np.where(spans > 0.0, spans, 1.0)
    cell = abs(reach) * (1.0 + 1e-6)
    axes, stride = [], 1
    for la, span in zip(lo.tolist(), spans.tolist()):
        q = span / cell if cell > 0.0 else math.inf
        m = max(1, int(q)) if q < 256 else 256
        c = np.arange(m)
        near = np.stack([c - 1, c, c + 1], axis=1)
        if torus:
            near %= m
            if m < 3:
                near[:, 0] = -1
            if m < 2:
                near[:, 2] = -1
        else:
            near[(near < 0) | (near >= m)] = -1
        axes.append((la, span / m, m, stride, near))
        stride *= m

    def cells(x):
        out = []
        for col, (la, wa, m, _, _) in zip(x.T, axes):
            c = np.floor((col - la) / wa).astype(np.intp)
            out.append(c % m if torus else np.clip(c, 0, m - 1))
        return out

    pkey = sum(c * ax[3] for c, ax in zip(cells(b), axes))
    order = np.argsort(pkey, kind="stable")
    pkey = pkey[order]
    ncells = axes[-1][2] * axes[-1][3]
    keys = np.zeros((a.shape[0], 1), dtype=np.intp)
    for c, (_, _, _, stride, near) in zip(cells(a), axes):
        nb = np.where(near[c] >= 0, near[c] * stride, ncells)
        keys = (keys[:, :, None] + nb[:, None, :]).reshape(c.size, -1)
    first = np.searchsorted(pkey, keys, side="left")
    cnt = np.searchsorted(pkey, keys, side="right") - first
    c = cnt.ravel()
    pos = np.repeat(first.ravel() - (np.cumsum(c) - c), c) + np.arange(c.sum())
    i = np.repeat(np.arange(a.shape[0]), cnt.sum(axis=1))
    return ia[i], ib[order[pos]]


def within(x, y, i, j, reach, sides, torus):
    """The pairs (i, j) of rows of x and y within ``reach``, as a sorted list."""
    ok = K._in_range(x[i], y[j], sides, torus, reach, -1.0, x.shape[1])
    return sorted(zip(i[ok].tolist(), j[ok].tolist()))


@pytest.mark.parametrize("torus", [False, True])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_close_pairs_self_form_lists_each_pair_once(rng, monkeypatch, d,
                                                    torus):
    # the grid pattern (uniform points, a lattice exactly 0.125 apart,
    # corners, coincident copies) with non-finite rows; on the torus of
    # sides (1, 1.5, 0.8) the reaches give axes of many, 4, 3, 2 and 1 cells
    lo = np.array([-0.3, 2.0, 0.5])[:d]
    sides = np.array([1.0, 1.5, 0.8])[:d]
    x = grid_pattern(rng, lo, sides)[:, :d]
    x = np.vstack([x[:20], np.full((1, d), np.nan), x[20:],
                   np.full((1, d), np.inf)])
    n = x.shape[0]
    queries = np.vstack([lo + rng.random((15, d)) * sides, x[::4]])
    for block in (K._BLOCK_ENTRIES, 60, 350):
        monkeypatch.setattr(K, "_BLOCK_ENTRIES", block)
        size = max(1, block // (2 * d + 2))
        for reach in (0.0, 0.07, 0.125, 0.3, 0.45, 0.7, 2.0):
            assert K._cell_grid(lo.tolist(), sides.tolist(), reach,
                                torus)[1] <= block
            blocks = list(K.close_pairs(x, None, reach, sides, torus))
            for i, _ in blocks:
                # a block keeps to its budget unless one query alone has more
                assert i.size <= size or np.unique(i).size == 1
            i = np.concatenate([np.empty(0, np.intp)] + [b[0] for b in blocks])
            j = np.concatenate([np.empty(0, np.intp)] + [b[1] for b in blocks])
            assert i.dtype == j.dtype == np.intp and np.all(i != j)
            key = np.minimum(i, j) * n + np.maximum(i, j)
            assert np.unique(key).size == key.size
            fi, fj = close_pairs_full(x, x, reach, sides, torus)
            keep = fi < fj
            want = within(x, x, fi[keep], fj[keep], reach, sides, torus)
            got = within(x, x, np.minimum(i, j), np.maximum(i, j), reach,
                         sides, torus)
            assert got == want
            if reach == 0.125:
                # lattice rows exactly a reach apart, on the torus across
                # the seam too
                assert (21, 22) in got and ((21, 28) in got) == torus
            # the cross form, whose rows come from the same cell table
            i, j = (np.concatenate(p) for p in zip(
                *K.close_pairs(queries, x, reach, sides, torus)))
            fi, fj = close_pairs_full(queries, x, reach, sides, torus)
            assert (within(queries, x, i, j, reach, sides, torus)
                    == within(queries, x, fi, fj, reach, sides, torus))


@pytest.mark.parametrize("torus", [False, True])
def test_close_pairs_grid_is_capped_at_a_block(rng, torus):
    # at reach 1e-4 in the unit cube, 256 cells an axis would need a cell
    # table of 256^3 entries, 134 MB; the grid keeps to _BLOCK_ENTRIES cells
    axes, ncells = K._cell_grid([0.0] * 3, [1.0] * 3, 1e-4, torus)
    assert [ax[2] for ax in axes] == [64] * 3
    assert ncells == K._BLOCK_ENTRIES
    x = rng.random((2000, 3))
    x[1] = x[0]
    tracemalloc.start()
    try:
        pairs = [(i, j) for i, j in K.close_pairs(x, None, 1e-4, np.ones(3),
                                                    torus)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * K._BLOCK_ENTRIES
    i, j = (np.concatenate(p) for p in zip(*pairs))
    assert within(x, x, i, j, 1e-4, np.ones(3), torus) in ([(0, 1)], [(1, 0)])


def gi_pairs_triu(xs, cutoff):
    """Every pair i < j in triu order, cut at ``cutoff`` >= 0 and stably
    sorted by squared distance."""
    i, j = np.triu_indices(xs.shape[0], 1)
    diff = xs[i] - xs[j]
    d2 = np.sum(diff * diff, axis=1)
    if cutoff >= 0.0:
        keep = d2 <= cutoff * cutoff
        i, j, d2 = i[keep], j[keep], d2[keep]
    order = np.argsort(d2, kind="stable")
    return i[order], j[order], d2[order]


def test_gi_pairs_match_the_triu_order(rng, monkeypatch):
    # uniform points in d = 1, 2, 3 with coincident copies, and a lattice
    # 0.125 apart whose distances tie; blocks of a few candidates too
    lattice = np.stack(np.meshgrid(*[0.125 * np.arange(6)] * 2), -1).reshape(-1, 2)
    cases = [rng.random((50, d)) for d in (1, 2, 3)] + [lattice, lattice[:1],
                                                         lattice[:0]]
    cases[1] = np.vstack([cases[1], cases[1][:4]])
    for block in (K._BLOCK_ENTRIES, 60):
        monkeypatch.setattr(K, "_BLOCK_ENTRIES", block)
        for xs in cases:
            for cutoff in (-1.0, 0.0, 0.125, 0.3):
                got = K._gi_pairs(xs, cutoff)
                want = gi_pairs_triu(xs, cutoff)
                for g, w in zip(got, want):
                    assert g.dtype == w.dtype
                    np.testing.assert_array_equal(g, w)
    assert np.sum(K._gi_pairs(lattice, 0.125)[2] == 0.125 ** 2) == 60


def test_growth_plan_overlap_memory_is_subquadratic():
    # overlap pairs within a fixed cutoff: the candidates come a block at a
    # time, so the peak grows less than the n^2 of all pairs
    peaks = []
    for n in (750, 3000):
        r = np.random.default_rng(5)
        xs, births = r.random((n, 2)), r.random(n) * 0.9
        tracemalloc.start()
        try:
            plan = K.GrowthPlan(xs, births, np.full(n, np.inf), 0.05, 20, 2,
                                np.array([0.5, 0.0]), 0.05)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert np.all(plan.pairs[2] <= 0.05) and plan.pairs[2].size > n
    assert peaks[1] < 8 * peaks[0]


# ---------------------------------------------------------------------------
# the pair geometry: _gap and _squared_distances against the formulas they
# replaced, to the bit
# ---------------------------------------------------------------------------
def squared_distances_reduced(a, b, sides):
    """The reduced form: a (..., d) array of gaps, minimal images on a
    torus, squared and summed along the last axis."""
    diff = np.abs(a - b)
    if sides is not None:
        diff = np.minimum(diff, sides - diff)
    return np.sum(diff * diff, axis=-1)


def squared_distances_outer(x, y):
    """The dense box form: per coordinate outer differences, squared
    without their sign and added in coordinate order."""
    first, *rest = x.T
    out = np.subtract.outer(first, y[:, 0])
    out *= out
    for k, col in enumerate(rest, start=1):
        diff = np.subtract.outer(col, y[:, k])
        diff *= diff
        out += diff
    return out


def seam_points(rng, lo, sides):
    """Uniform points, then points on lo, on hi, at half a side, a rounding
    step inside hi and a tiny offset below lo on each axis."""
    d = lo.size
    x = lo + rng.random((40, d)) * sides
    hi = lo + sides
    for v in (lo, hi, lo + 0.5 * sides, np.nextafter(hi, lo), lo - 1e-17):
        rows = x[:3].copy()
        rows[np.arange(3), np.arange(3) % d] = v[np.arange(3) % d]
        x = np.vstack([x, rows, v[None]])
    return x


def same_bits(got, want):
    return np.shape(got) == np.shape(want) and (
        np.asarray(got).tobytes() == np.asarray(want).tobytes())


@pytest.mark.parametrize("torus", [False, True])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_squared_distances_match_the_formulas_they_replaced(rng, d, torus):
    lo = np.array([-0.35, 2.0, 0.0])[:d]
    sides = np.array([0.7, 3.0, 1.0])[:d]
    x = seam_points(rng, lo, sides)
    y = x[::-1][:31]
    s = sides if torus else None
    # dense, gathered pairs and one pair (the 0-d array of two 1-d rows)
    dense = K._squared_distances(x[:, None], y[None], s)
    assert same_bits(dense, squared_distances_reduced(x[:, None], y[None], s))
    if not torus:
        assert same_bits(dense, squared_distances_outer(x, y))
    i = rng.integers(0, x.shape[0], 200)
    j = rng.integers(0, y.shape[0], 200)
    pairs = K._squared_distances(x[i], y[j], s)
    assert same_bits(pairs, squared_distances_reduced(x[i], y[j], s))
    for a, b in zip(x[i[:20]], y[j[:20]]):
        assert same_bits(K._squared_distances(a, b, s),
                         np.asarray(squared_distances_reduced(a, b, s)))
    # each axis's gap is the pair_stats and coverage_count formula
    for k in range(d):
        h = np.abs(x[i, k] - y[j, k])
        if torus:
            h = np.minimum(h, sides[k] - h)
        assert same_bits(K._gap(x[i, k], y[j, k], s[k] if torus else None), h)
    # on the torus the corner hi is the corner lo
    if torus:
        assert K._squared_distances(lo, lo + sides, sides) == 0.0
    # rows of different dimensions do not broadcast to a distance
    with pytest.raises(ValueError, match="dimensions"):
        K._squared_distances(x, np.append(y[0], 0.5))


def test_squared_distances_hold_two_result_arrays(rng):
    # squared in place: the dense box matrix costs two n x n arrays at most
    n = 1000
    x = rng.random((n, 3))
    tracemalloc.start()
    try:
        d2 = K._squared_distances(x[:, None], x[None])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d2.shape == (n, n)
    assert peak < 2.5 * n * n * 8
