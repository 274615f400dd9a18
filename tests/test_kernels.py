"""Each kernel must agree with its brute-force loop variant kept here.

The loops are the plain per-pair / per-pixel definitions of each kernel;
they are slow and serve only as oracles on small inputs.
"""
import hashlib
import math
import tracemalloc

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
                    deaths[i] = t + dt
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
    # 222k candidate pairs; the dense (lags, pairs) form peaked at 49.9 MB
    rng = np.random.default_rng(5)
    n = 2043
    pts, w = rng.random((n, 2)), np.ones(n)
    lags = np.array([0.025, 0.05, 0.075, 0.1, 0.125, 0.15, 0.2])
    bw, sides = 0.15 / math.sqrt(n), np.ones(2)
    K.pair_stats(pts[:10], w[:10], w[:10], lags, bw, sides, False)  # lazy import
    tracemalloc.start()
    try:
        got = K.pair_stats(pts, w, w, lags, bw, sides, False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 25e6
    np.testing.assert_allclose(
        got, pair_stats_dense(pts, w, w, lags, bw, sides, False),
        rtol=1e-12, atol=0)


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


def test_gibbs_chain_memory_is_small():
    # draws are read a chunk at a time and the index holds occupied cells
    # only; converting all 20 000 draws at once would take several MB
    args = gibbs_pl_chain()
    tracemalloc.start()
    try:
        out = K.gibbs_chain(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape[0] > 100
    assert peak < 1_000_000


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
    # absorption re-cuts the alive runs of its own integration only
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
    # run takes its gauss block per integration, so the plan holds only the
    # one n x n operator
    n, nsteps = 1000, 20
    r = np.random.default_rng(5)
    xs, births = r.random((n, 2)), r.random(n) * 0.9
    tracemalloc.start()
    try:
        plan = K.GrowthPlan(xs, births, np.full(n, np.inf), 1.0 / nsteps,
                            nsteps, 1, np.array([0.5, 0.02]), -1.0)
        vals, _, _ = plan.integrate(0.05, 0, np.array([1.0, 1.0]), 0,
                                    np.zeros(1), np.zeros((1, n)), 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(plan.runs) >= 15
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
    # one block of queries, then blocks of 1 and 7 rows
    for block in (K._COUNT_BLOCK_PAIRS, 50, 350):
        monkeypatch.setattr(K, "_COUNT_BLOCK_PAIRS", block)
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
