"""Hot numeric kernels, one NumPy/SciPy implementation each.

``pair_stats`` collects candidate pairs from a ``scipy.spatial.cKDTree``,
so its memory grows with the pairs within the largest lag, not with n^2;
scipy is imported on the first call, which keeps ``import fmpp.cli`` free
of it.  ``gibbs_chain`` is a scalar loop over a uniform cell index, since
each of its proposals touches only the few points near one location.  The
other kernels are vectorized NumPy, and no kernel but ``pair_stats``
imports scipy.  Each kernel's arguments are positional and plain arrays or
scalars.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = [
    "pair_stats",
    "gibbs_chain",
    "gi_integrate_values",
    "coverage_count",
    "neighbour_counts",
]


# ---------------------------------------------------------------------------
# pair statistics for the pair correlation estimators
# ---------------------------------------------------------------------------
def pair_stats(pts, w, v, lags, bw, sides, torus):
    """Ordered-pair kernel sums, each pair weighted by the inverse surface
    measure at its own distance: sum w_i v_j k_bw(lag - d) / (trans s_d(d)).

    ``trans`` is the translation correction prod(sides - |dx|) on a box and
    the window volume on a torus, where distances are minimal-image ones.
    Only pairs closer than max(lags) + bw reach the Epanechnikov kernel, and
    each lag evaluates it only on the pairs near it: the pairs are sorted
    by distance once, and a lag's slice runs from lag - 2 bw to lag + 2 bw.
    Rounding is monotone, so every pair the |u| < 1 test accepts lies in
    that slice, and the sums take the same pairs as a dense (lags, pairs)
    kernel matrix would.
    """
    dist, weight = _pair_weights(pts, w, v, float(np.max(lags)) + bw, sides,
                                 torus)
    order = np.argsort(dist)
    dist, weight = dist[order], weight[order]
    starts = np.searchsorted(dist, lags - 2.0 * bw, side="left")
    ends = np.searchsorted(dist, lags + 2.0 * bw, side="right")
    out = np.zeros(len(lags))
    for k, (lag, a, b) in enumerate(zip(lags.tolist(), starts, ends)):
        u = (lag - dist[a:b]) / bw
        kern = np.where(np.abs(u) < 1.0, 0.75 * (1.0 - u * u) / bw, 0.0)
        out[k] = kern @ weight[a:b]
    return out


def _pair_weights(pts, w, v, reach, sides, torus):
    """Distance and weight (w_i v_j + w_j v_i) / (trans s_d(d)) of each
    unordered pair closer than ``reach``; coincident pairs weigh zero."""
    from scipy.spatial import cKDTree

    d = pts.shape[1]
    if torus:
        # np.mod can round a tiny negative coordinate up to the side itself,
        # which cKDTree(boxsize=sides) rejects; that point sits at 0
        pts = np.mod(pts, sides)
        pts = np.where(pts >= sides, 0.0, pts)
        tree = cKDTree(pts, boxsize=sides)
    else:
        tree = cKDTree(pts)
    pairs = tree.query_pairs(reach, output_type="ndarray")
    i, j = pairs[:, 0], pairs[:, 1]
    diff = np.abs(pts[i] - pts[j])
    if torus:
        diff = np.minimum(diff, sides - diff)
        trans = np.prod(sides)
    else:
        trans = np.prod(sides - diff, axis=1)
    dist = np.sqrt(np.sum(diff * diff, axis=1))
    ww = w[i] * v[j] + w[j] * v[i]
    if d == 1:
        surf = np.full_like(dist, 2.0)
    elif d == 2:
        surf = 2.0 * np.pi * dist
    else:
        surf = 4.0 * np.pi * dist * dist
    ok = dist > 0.0
    return dist, np.where(ok, ww / trans / np.where(ok, surf, 1.0), 0.0)


# ---------------------------------------------------------------------------
# pairwise-interaction birth-death chain
# ---------------------------------------------------------------------------
_MAX_CELLS = 256       # cells per axis, which bounds the per-axis tables;
                       # a tiny range gets cells wider than itself
_CHUNK = 1024          # steps whose draws are converted to floats at a time


def gibbs_chain(x0, lo, hi, torus, beta, gamma, rng_move, rng_loc,
                rng_idx, rng_acc, rad, trad, d_spatial):
    """Birth-death Metropolis-Hastings chain of beta^n gamma^(neighbour
    pairs) on the box [lo, hi] (Geyer and Moller 1994); one proposal per
    draw, and the state after the last one is returned.

    The points stay in proposal order and a death moves the last point into
    the freed row.  A uniform index over the ``d_spatial`` spatial axes,
    with cells wider than ``rad``, narrows each neighbour count to the 3^d
    cells around the proposal, wrapped and deduplicated on a torus.  Each
    candidate gets the brute-force test: |dx| per axis (min(dx, side - dx)
    on a torus), their squares summed in axis order against rad^2, and
    |dt| <= trad when ``trad`` >= 0 and the points carry a time column.
    The index keeps a member list per occupied cell and each point's slot
    in it, so memory is O(n + occupied cells) and a removal is O(1).
    """
    D = lo.shape[0]
    d = d_spatial
    lo_l = lo.tolist()
    span = (hi - lo).tolist()
    vol = float(np.prod(hi - lo))
    rad2 = rad * rad
    timed = trad >= 0.0 and D > d
    # the relative margin keeps every pair that the rounded test accepts in
    # adjacent cells
    cell = abs(rad) * (1.0 + 1e-6)
    axes = []
    stride = 1
    for a in range(d):
        q = span[a] / cell if cell > 0.0 else math.inf
        m = max(1, int(q)) if q < _MAX_CELLS else _MAX_CELLS
        if torus:
            near = [{(c - 1) % m, c, (c + 1) % m} for c in range(m)]
        else:
            near = [range(max(c - 1, 0), min(c + 2, m)) for c in range(m)]
        axes.append((a, lo_l[a], span[a] / m, m, stride,
                     [[k * stride for k in ks] for ks in near]))
        stride *= m
    sides = span[:d]
    pts = x0.tolist()
    members = {}
    key_of, slot_of = [], []

    def locate(x):
        """Key of the cell of x and the keys of its neighbour cells."""
        key = 0
        keys = None
        for a, la, wa, m, st, near in axes:
            c = math.floor((x[a] - la) / wa)
            if torus:
                c %= m
            elif c < 0:
                c = 0
            elif c >= m:
                c = m - 1
            key += c * st
            keys = near[c] if keys is None else [k + o for k in keys
                                                 for o in near[c]]
        return key, keys

    def count(x, keys, skip):
        """Points of the cells ``keys``, other than row ``skip``, that are
        within range of x."""
        cnt = 0
        for k in keys:
            for j in members.get(k, ()):
                if j == skip:
                    continue
                y = pts[j]
                s = 0.0
                for ya, xa, side in zip(y, x, sides):
                    h = abs(ya - xa)
                    if torus and side - h < h:
                        h = side - h
                    s += h * h
                if s <= rad2 and (not timed or abs(y[-1] - x[-1]) <= trad):
                    cnt += 1
        return cnt

    def insert(i, key):
        lst = members.setdefault(key, [])
        key_of.append(key)
        slot_of.append(len(lst))
        lst.append(i)

    for i, x in enumerate(pts):
        insert(i, locate(x)[0])
    n = len(pts)
    for start in range(0, rng_move.shape[0], _CHUNK):
        part = slice(start, start + _CHUNK)
        for move, u, ui, ua in zip(rng_move[part].tolist(),
                                   rng_loc[part].tolist(),
                                   rng_idx[part].tolist(),
                                   rng_acc[part].tolist()):
            if move < 0.5:
                x = [la + v * sa for la, v, sa in zip(lo_l, u, span)]
                key, keys = locate(x)
                cnt = count(x, keys, -1)
                papan = beta * gamma ** cnt if cnt else beta
                if ua * (n + 1) < papan * vol:
                    insert(n, key)
                    pts.append(x)
                    n += 1
            elif n > 0:
                idx = min(int(ui * n), n - 1)
                key, keys = locate(pts[idx])
                cnt = count(pts[idx], keys, idx)
                papan = beta * gamma ** cnt if cnt else beta
                if papan * vol * ua < n:
                    lst, s = members[key], slot_of[idx]
                    j = lst.pop()
                    if j != idx:
                        lst[s] = j
                        slot_of[j] = s
                    elif not lst:
                        del members[key]
                    n -= 1
                    if idx != n:
                        pts[idx] = pts[n]
                        key_of[idx], slot_of[idx] = key_of[n], slot_of[n]
                        members[key_of[n]][slot_of[n]] = idx
                    pts.pop()
                    key_of.pop()
                    slot_of.pop()
    return np.array(pts, dtype=float).reshape(n, D)


# ---------------------------------------------------------------------------
# growth-interaction integration
# ---------------------------------------------------------------------------
def _gi_pairs(xs, cutoff):
    """Pairs i < j with their squared distances, by increasing distance;
    with ``cutoff`` >= 0 only the pairs with d^2 <= cutoff^2."""
    i, j = np.triu_indices(xs.shape[0], 1)
    diff = xs[i] - xs[j]
    d2 = np.sum(diff * diff, axis=1)
    if cutoff >= 0.0:
        keep = d2 <= cutoff * cutoff
        i, j, d2 = i[keep], j[keep], d2[keep]
    order = np.argsort(d2, kind="stable")
    return i[order], j[order], d2[order]


def _gauss_operator(xs, a, s, cutoff):
    """Dense K_ij = a exp(-d_ij^2 / s^2), zero on the diagonal and, with
    ``cutoff`` >= 0, wherever d_ij^2 > cutoff^2.  Built in place, one
    coordinate at a time, so at most two n x n float arrays are alive."""
    n = xs.shape[0]
    kmat = np.zeros((n, n))
    diff = np.empty((n, n))
    for col in xs.T:
        np.subtract.outer(col, col, out=diff)
        diff *= diff
        kmat += diff
    if cutoff >= 0.0:
        kmat[kmat > cutoff * cutoff] = np.inf
    np.negative(kmat, out=kmat)
    kmat /= s ** 2
    np.exp(kmat, out=kmat)
    kmat *= a
    np.fill_diagonal(kmat, 0.0)
    return kmat


def gi_integrate_values(xs, births, deaths, m0, dt, nsteps, growth_code, gp,
                        inter_code, ip, sigma_code, sp, normals, clamp_code,
                        cutoff):
    """Integrate the coupled growth system on the grid 0, dt, .., nsteps*dt.

    The interaction operator is built once per call: the gauss kernel
    matrix, or for overlap the pair list sorted by distance, of which each
    drift call reads only the pairs closer than twice the largest alive mark
    (farther pairs cannot overlap).  A drift call therefore costs
    O(n + pairs) and allocates no n x n array.
    """
    n = xs.shape[0]
    deaths = deaths.copy()
    vals = np.zeros((nsteps + 1, n))
    m = np.zeros(n)
    alive = np.zeros(n, dtype=bool)
    if inter_code == 1:
        kmat = _gauss_operator(xs, ip[0], ip[1], cutoff)
    elif inter_code == 2:
        pi, pj, d2 = _gi_pairs(xs, cutoff)
        pdist = np.sqrt(d2)

    def drift(mv, al):
        if growth_code == 0:
            out = gp[0] * (gp[1] - mv)
        else:
            out = gp[0] * mv * (1.0 - mv / gp[1])
        if inter_code == 1:
            out = out - mv * (kmat @ np.where(al, mv, 0.0))
        elif inter_code == 2 and np.any(al):
            # m_i + m_j <= 2 max m, so pairs at d >= 2 max m add nothing
            c = np.searchsorted(pdist, 2.0 * np.max(mv[al]), side="left")
            i, j = pi[:c], pj[:c]
            ov = np.where(al[i] & al[j],
                          np.maximum(mv[i] + mv[j] - pdist[:c], 0.0), 0.0)
            out = out - ip[0] * np.bincount(np.concatenate([i, j]),
                                            np.concatenate([ov, ov]),
                                            minlength=n)
        return np.where(al, out, 0.0)

    negative = False
    for step in range(nsteps + 1):
        t = step * dt
        now = (births <= t) & (t < deaths)
        m[now & ~alive] = m0
        m[~now] = 0.0
        alive = now
        vals[step] = np.where(alive, m, 0.0)
        if step == nsteps:
            break
        if sigma_code == 0:
            k1 = drift(m, alive)
            k2 = drift(m + 0.5 * dt * k1, alive)
            k3 = drift(m + 0.5 * dt * k2, alive)
            k4 = drift(m + dt * k3, alive)
            m = np.where(alive, m + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4), m)
        else:
            sig = sp[0] if sigma_code == 1 else sp[0] * m
            m = np.where(alive, m + dt * drift(m, alive)
                         + sig * np.sqrt(dt) * normals[step], m)
        neg = alive & (m < 0.0)
        if np.any(neg):
            negative = True
            if clamp_code == 0:
                m[neg] = 0.0
            elif clamp_code == 1:
                m[neg] = 0.0
                deaths[neg] = t + dt
                alive[neg] = False
    return vals, negative, deaths


# ---------------------------------------------------------------------------
# pixel coverage of a union of disks
# ---------------------------------------------------------------------------
def coverage_count(centers, radii, lo, hi, res, torus):
    """Pixels of a res x res grid whose centre lies in some disk.

    Each disk is tested only on its own pixel bounding box, one pixel wider
    on each side than its extent so rounding cannot drop a pixel; on a
    torus the box's indices wrap modulo res.
    """
    side = hi[:2] - lo[:2]
    step = side / res
    pix = [lo[a] + (np.arange(res) + 0.5) * step[a] for a in range(2)]
    cov = np.zeros((res, res), dtype=bool)
    for k in range(centers.shape[0]):
        r = radii[k]
        box = []
        for a in range(2):
            first = int(np.floor((centers[k, a] - r - lo[a]) / step[a] - 0.5)) - 1
            last = int(np.ceil((centers[k, a] + r - lo[a]) / step[a] - 0.5)) + 1
            if torus:
                idx = (np.arange(res) if last - first + 1 >= res
                       else np.arange(first, last + 1) % res)
            else:
                idx = np.arange(max(first, 0), min(last, res - 1) + 1)
            dist = np.abs(pix[a][idx] - centers[k, a])
            if torus:
                dist = np.minimum(dist, side[a] - dist)
            box.append((idx, dist))
        (ix, dx), (iy, dy) = box
        cov[np.ix_(ix, iy)] |= (dx * dx)[:, None] + (dy * dy)[None, :] <= r ** 2
    return int(np.sum(cov))


# ---------------------------------------------------------------------------
# neighbour counts of query locations among configuration points
# ---------------------------------------------------------------------------
# query-point pairs per block of neighbour_counts: its temporaries are
# (block rows, n, d), so its memory grows linearly in m and in n
_COUNT_BLOCK_PAIRS = 1 << 18


def neighbour_counts(queries, pts, sides, torus, rad, trad, d_spatial):
    """(m,) number of the (n, D) points within range of each (m, D) query:
    spatial distance <= rad (minimal image on a torus) and, when ``trad`` >=
    0 and the rows carry a time column, time lag <= trad.  The queries go in
    blocks of rows, so no temporary is (m, n, d)."""
    m, n = queries.shape[0], pts.shape[0]
    out = np.zeros(m, dtype=np.int64)
    if n == 0:
        return out
    rows = max(1, _COUNT_BLOCK_PAIRS // n)
    for i0 in range(0, m, rows):
        q = queries[i0:i0 + rows]
        diff = np.abs(q[:, None, :d_spatial] - pts[None, :, :d_spatial])
        if torus:
            diff = np.minimum(diff, sides[None, None, :d_spatial] - diff)
        ok = np.sum(diff * diff, axis=-1) <= rad * rad
        if trad >= 0.0 and queries.shape[1] > d_spatial:
            ok &= np.abs(q[:, None, -1] - pts[None, :, -1]) <= trad
        out[i0:i0 + rows] = np.sum(ok, axis=1)
    return out
