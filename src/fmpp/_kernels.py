"""Hot numeric kernels, one NumPy/SciPy implementation each.

``pair_stats`` collects candidate pairs from a ``scipy.spatial.cKDTree``,
so its memory grows with the pairs within the largest lag, not with n^2;
scipy is imported on the first call, which keeps ``import fmpp.cli`` free
of it.  ``gibbs_chain`` is a scalar loop over a uniform cell index, since
each of its proposals touches only the few points near one location.  The
other kernels are vectorized NumPy, and no kernel but ``pair_stats``
imports scipy.  Each kernel's arguments are positional and plain arrays or
scalars.  ``gi_integrate_values`` builds a ``GrowthPlan`` and integrates it
once; a fit that integrates the same points many times keeps the plan.
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


def _alive_runs(births, deaths, dt, first, nsteps, alive):
    """Steps first..nsteps cut into runs over which the alive set,
    births <= step * dt < deaths, does not change.  Each run is (start,
    stop, rows, enter): its steps start..stop - 1, its alive rows in
    increasing order, and the mask of those rows that were not alive at the
    step before (``alive`` is the set at step first - 1)."""
    t = np.arange(first, nsteps + 1) * dt
    now = (births <= t[:, None]) & (t[:, None] < deaths)
    cuts = [0, *(np.flatnonzero(np.any(now[1:] != now[:-1], axis=1)) + 1).tolist(),
            len(t)]
    runs = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        rows = np.flatnonzero(now[a])
        runs.append((first + a, first + b, rows, ~alive[rows]))
        alive = now[a]
    return runs


class GrowthPlan:
    """The part of a growth integration that the growth law, the noise and
    the negative policy leave unchanged, built once and integrated per
    parameter vector.

    It holds the alive set of every step, cut into runs of steps over which
    that set does not change, and one interaction operator: the dense gauss
    kernel matrix, or for overlap the pair list sorted by distance.  Within
    a run the marks are integrated on the alive rows only; the gauss block
    of a run is gathered per integration, so the plan keeps no n x n array
    beside the operator itself.
    """

    def __init__(self, xs, births, deaths, dt, nsteps, inter_code, ip, cutoff):
        self.n = xs.shape[0]
        self.births, self.deaths = births, deaths
        self.dt, self.nsteps = dt, nsteps
        self.inter_code, self.ip = inter_code, ip
        self.runs = _alive_runs(births, deaths, dt, 0, nsteps,
                              np.zeros(self.n, dtype=bool))
        if inter_code == 1:
            self.kmat = _gauss_operator(xs, ip[0], ip[1], cutoff)
        elif inter_code == 2:
            pi, pj, d2 = _gi_pairs(xs, cutoff)
            self.pairs = pi, pj, np.sqrt(d2)

    def _interaction(self, rows):
        """The operator restricted to ``rows``: the gauss block, or the
        overlap pairs among them in local indices, in distance order."""
        if self.inter_code == 1:
            if rows.size == self.n:
                return self.kmat
            return self.kmat[rows[:, None], rows]
        if self.inter_code == 2:
            pi, pj, pdist = self.pairs
            local = np.full(self.n, -1)
            local[rows] = np.arange(rows.size)
            li, lj = local[pi], local[pj]
            keep = (li >= 0) & (lj >= 0)
            return li[keep], lj[keep], pdist[keep]
        return None

    def integrate(self, m0, growth_code, gp, sigma_code, sp, normals,
                  clamp_code):
        """Marks on the grid 0, dt, .., nsteps * dt: the (nsteps + 1, n)
        values, whether any mark went negative, and the death times after
        absorption.

        A mark starts at m0 at its first alive step and is 0 where it is
        not alive.  The deterministic system (``sigma_code`` 0) takes RK4
        steps, otherwise Euler-Maruyama steps with the (nsteps, n)
        ``normals``.  A negative mark is clamped to 0 (``clamp_code`` 0),
        absorbed (1: clamped, and its death moves to the next step) or left
        (2).
        """
        n, dt, nsteps = self.n, self.dt, self.nsteps
        g0, g1 = gp[0], gp[1]
        ic = self.inter_code
        c = self.ip[0]
        deaths = self.deaths.copy()
        vals = np.zeros((nsteps + 1, n))
        m = np.zeros(n)
        negative = False

        def drift(mv):
            if growth_code == 0:
                out = g0 * (g1 - mv)
            else:
                out = g0 * mv * (1.0 - mv / g1)
            if ic == 1:
                out = out - mv * (op @ mv)
            elif ic == 2:
                pi, pj, pd = op
                # m_i + m_j <= 2 max m, so pairs at d >= 2 max m add nothing
                k = np.searchsorted(pd, 2.0 * np.max(mv), side="left")
                i, j = pi[:k], pj[:k]
                ov = np.maximum(mv[i] + mv[j] - pd[:k], 0.0)
                out = out - c * np.bincount(np.concatenate([i, j]),
                                            np.concatenate([ov, ov]),
                                            minlength=mv.size)
            return out

        runs = self.runs
        r = 0
        while r < len(runs):
            start, stop, rows, enter = runs[r]
            r += 1
            if rows.size == 0:
                continue
            op = self._interaction(rows)
            mv = m[rows]
            mv[enter] = m0
            for step in range(start, stop):
                vals[step, rows] = mv
                if step == nsteps:
                    break
                if sigma_code == 0:
                    k1 = drift(mv)
                    k2 = drift(mv + 0.5 * dt * k1)
                    k3 = drift(mv + 0.5 * dt * k2)
                    k4 = drift(mv + dt * k3)
                    mv = mv + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
                else:
                    sig = sp[0] if sigma_code == 1 else sp[0] * mv
                    mv = (mv + dt * drift(mv)
                          + sig * np.sqrt(dt) * normals[step, rows])
                neg = mv < 0.0
                if neg.any():
                    negative = True
                    if clamp_code != 2:
                        mv[neg] = 0.0
                    if clamp_code == 1:
                        # the absorbed rows die at the next step, which
                        # re-cuts the runs from there on
                        deaths[rows[neg]] = step * dt + dt
                        alive = np.zeros(n, dtype=bool)
                        alive[rows[~neg]] = True
                        runs = _alive_runs(self.births, deaths, dt, step + 1,
                                         nsteps, alive)
                        r = 0
                        break
            m[rows] = mv
            # free this run's block before the next run gathers its own
            del op
        return vals, negative, deaths


def gi_integrate_values(xs, births, deaths, m0, dt, nsteps, growth_code, gp,
                        inter_code, ip, sigma_code, sp, normals, clamp_code,
                        cutoff):
    """Integrate the coupled growth system on the grid 0, dt, .., nsteps*dt:
    one ``GrowthPlan`` integrated once (see ``GrowthPlan.integrate``).

    The interaction operator is built once per plan: the gauss kernel
    matrix, or for overlap the pair list sorted by distance, of which each
    drift call reads only the pairs closer than twice the largest alive mark
    (farther pairs cannot overlap).  A drift call therefore costs
    O(alive rows + pairs) and allocates no n x n array.
    """
    plan = GrowthPlan(xs, births, deaths, dt, nsteps, inter_code, ip, cutoff)
    return plan.integrate(m0, growth_code, gp, sigma_code, sp, normals,
                          clamp_code)


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
        ok = _in_range(queries[i0:i0 + rows, None], pts[None], sides, torus,
                       rad, trad, d_spatial)
        out[i0:i0 + rows] = np.sum(ok, axis=1)
    return out


def other_neighbour_counts(queries, pts, own, sides, torus, rad, trad, d_spatial):
    """``neighbour_counts`` of each query j among the points other than row
    own[j] of ``pts`` (all of them where own[j] is -1)."""
    out = neighbour_counts(queries, pts, sides, torus, rad, trad, d_spatial)
    has = own >= 0
    out[has] -= _in_range(queries[has], pts[own[has]], sides, torus, rad, trad,
                          d_spatial)
    return out


def _in_range(a, b, sides, torus, rad, trad, d_spatial):
    """Whether the ground rows of ``a`` and ``b``, arrays that broadcast
    together, are in range by the rule of ``neighbour_counts``."""
    diff = np.abs(a[..., :d_spatial] - b[..., :d_spatial])
    if torus:
        diff = np.minimum(diff, sides[:d_spatial] - diff)
    ok = np.sum(diff * diff, axis=-1) <= rad * rad
    if trad >= 0.0 and a.shape[-1] > d_spatial:
        ok &= np.abs(a[..., -1] - b[..., -1]) <= trad
    return ok
