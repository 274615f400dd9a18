"""Hot numeric kernels, one NumPy/SciPy implementation each.

``pair_stats`` collects candidate pairs from a ``scipy.spatial.cKDTree``,
so its memory grows with the pairs within the largest lag, not with n^2;
scipy is imported on the first call, which keeps ``import fmpp.cli`` free
of it.  The other kernels are vectorized NumPy.  Each kernel's arguments
are positional and plain arrays or scalars.
"""
from __future__ import annotations

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
    Only pairs closer than max(lags) + bw reach the Epanechnikov kernel.
    """
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
    if d == 1:
        surf = np.full_like(dist, 2.0)
    elif d == 2:
        surf = 2.0 * np.pi * dist
    else:
        surf = 4.0 * np.pi * dist * dist
    ok = dist > 0.0
    u = (lags[:, None] - dist[None, :]) / bw
    kern = np.where(np.abs(u) < 1.0, 0.75 * (1.0 - u * u) / bw, 0.0)
    return kern @ np.where(ok, ww / trans / np.where(ok, surf, 1.0), 0.0)


# ---------------------------------------------------------------------------
# pairwise-interaction birth-death chain
# ---------------------------------------------------------------------------
def _gibbs_neighbours(x, pts, lo, hi, torus, rad, trad, d_spatial):
    if pts.shape[0] == 0:
        return 0
    diff = np.abs(pts[:, :d_spatial] - x[:d_spatial])
    if torus:
        sides = (hi - lo)[:d_spatial]
        diff = np.minimum(diff, sides - diff)
    ok = np.sum(diff * diff, axis=1) <= rad * rad
    if trad >= 0.0 and pts.shape[1] > d_spatial:
        ok &= np.abs(pts[:, -1] - x[-1]) <= trad
    return int(np.sum(ok))


def gibbs_chain(x0, lo, hi, torus, beta, gamma, rng_move, rng_loc,
                rng_idx, rng_acc, rad, trad, d_spatial):
    pts = x0.copy()
    vol = float(np.prod(hi - lo))
    for s in range(rng_move.shape[0]):
        n = pts.shape[0]
        if rng_move[s] < 0.5:
            x = lo + rng_loc[s] * (hi - lo)
            cnt = _gibbs_neighbours(x, pts, lo, hi, torus, rad, trad, d_spatial)
            papan = beta * gamma ** cnt if cnt else beta
            if rng_acc[s] * (n + 1) < papan * vol:
                pts = np.vstack([pts, x[None, :]])
        elif n > 0:
            idx = min(int(rng_idx[s] * n), n - 1)
            others = np.delete(pts, idx, axis=0)
            cnt = _gibbs_neighbours(pts[idx], others, lo, hi, torus, rad,
                                    trad, d_spatial)
            papan = beta * gamma ** cnt if cnt else beta
            if papan * vol * rng_acc[s] < n:
                pts[idx] = pts[n - 1]
                pts = pts[: n - 1]
    return pts.copy()


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
def neighbour_counts(queries, pts, sides, torus, rad, trad, d_spatial):
    if pts.shape[0] == 0:
        return np.zeros(queries.shape[0], dtype=np.int64)
    diff = np.abs(queries[:, None, :d_spatial] - pts[None, :, :d_spatial])
    if torus:
        diff = np.minimum(diff, sides[None, None, :d_spatial] - diff)
    ok = np.sum(diff * diff, axis=-1) <= rad * rad
    if trad >= 0.0 and queries.shape[1] > d_spatial:
        ok &= np.abs(queries[:, None, -1] - pts[None, :, -1]) <= trad
    return np.sum(ok, axis=1).astype(np.int64)
