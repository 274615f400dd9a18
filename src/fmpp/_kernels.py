"""Hot numeric kernels, one NumPy implementation each.

Neighbours are found on one uniform cell grid, ``_cell_grid``: cells at
least the reach wide, neighbour cells clipped on a box and wrapped on a
torus, and at most ``_BLOCK_ENTRIES`` cells in all.  ``close_pairs`` sorts
the points by cell, reads each neighbour cell's rows from one table of cell
starts and hands out the candidate pairs in blocks.  Its cross form pairs
queries with points, for ``neighbour_counts``; its self form lists each
unordered pair of distinct points once, from the half stencil of the
neighbour cells of larger key and the later rows of a point's own cell, for
``gibbs_chain``, ``pair_stats`` and the growth overlap pairs.  The counts
and the chain test the candidates with ``_in_range``, the one pairwise
neighbour rule, which ``core.cylinder_contains`` calls too; ``pair_stats``
and the overlap pairs keep those within their reach; so each grows with the
close pairs rather than with m n or n^2.  The chain searches once per chunk
of draws, over the chunk's start state and birth locations, so its scalar
loop over the proposals only reads and updates neighbour counts.  The gauss
operator of a ``GrowthPlan`` stays a dense matrix, whose product beat a
pair-list drift at the few dozen points a growth fit integrates many times.
Each kernel's arguments are positional and plain arrays or scalars.
``gi_integrate_values`` builds a ``GrowthPlan`` and integrates it once; a
fit that integrates the same points many times keeps the plan.
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
    Only pairs closer than reach = max(lags) + bw reach the Epanechnikov
    kernel.  ``close_pairs`` hands out each unordered pair once, a block at
    a time; a block keeps 0 < d^2 <= reach^2 (coincident pairs weigh zero),
    sorts them by distance and evaluates a lag's kernel only on the slice
    from lag - 2 bw to lag + 2 bw.  Rounding is monotone, so every pair the
    |u| < 1 test accepts lies in that slice, as in a dense (lags, pairs)
    kernel matrix.
    """
    reach = float(np.max(lags)) + bw
    out = np.zeros(len(lags))
    for i, j in close_pairs(pts, None, reach, sides, torus):
        # column by column: reducing a (pairs, d) array measured slower
        d2, trans = 0.0, 1.0
        for col, side in zip(pts.T, sides.tolist()):
            h = np.abs(col[i] - col[j])
            h = np.minimum(h, side - h) if torus else h
            trans = trans * (side - h)
            d2 = d2 + h * h
        keep = (d2 <= reach * reach) & (d2 > 0.0)
        i, j, dist = i[keep], j[keep], np.sqrt(d2[keep])
        trans = np.prod(sides) if torus else trans[keep]
        surf = (2.0, 2.0 * np.pi * dist, 4.0 * np.pi * dist * dist)[pts.shape[1] - 1]
        weight = (w[i] * v[j] + w[j] * v[i]) / trans / surf
        order = np.argsort(dist)
        dist, weight = dist[order], weight[order]
        ends = np.searchsorted(dist, [lags - 2.0 * bw, lags + 2.0 * bw])
        for k, (lag, a, b) in enumerate(zip(lags.tolist(), *ends)):
            u = (lag - dist[a:b]) / bw
            kern = np.where(np.abs(u) < 1.0, 0.75 * (1.0 - u * u) / bw, 0.0)
            out[k] += kern @ weight[a:b]
    return out


# ---------------------------------------------------------------------------
# the neighbour cell grid and its close-pair search
# ---------------------------------------------------------------------------
_MAX_CELLS = 256       # cells per axis, which bounds the per-axis tables;
                       # a tiny reach gets cells wider than itself
# entries per block of every blocked loop: close_pairs' candidates (2 (d + 1)
# entries a pair) and cells, trace_variogram's pairs, the kernel intensity's
# cell-by-point products, the time-warp probes and the time-warp lattice
# DP's slope tests and (segment, source cell) terms; each reads it at call
# time
_BLOCK_ENTRIES = 1 << 18


def _cell_grid(lo, spans, reach, torus):
    """The uniform cell grid of the box lo + [0, spans] for neighbours within
    ``reach``: one (origin, width, cells, stride, near) per axis, and the
    number of cells in all.

    Cells are at least reach (1 + 1e-6) wide, a margin that keeps every pair
    the rounded neighbour test accepts in adjacent cells.  An axis has at
    most ``_MAX_CELLS`` of them and the grid at most ``_BLOCK_ENTRIES``
    (64 an axis in 3-D), so a table with an entry per cell is no larger than
    a block.  A point's cell on an axis is floor((x - origin) / width),
    clipped to the grid on a box and taken modulo the cell count on a torus;
    its key is the sum of cell * stride.  ``near`` is the (cells, 3) table
    of the key terms cell * stride of the cells next to each cell on the
    axis, its own in the middle column: clipped at the ends of a box,
    wrapped on a torus, and on a torus of one or two cells each listed once,
    so no pair is found twice.  Where there is no neighbour the term is the
    number of cells, so a key with such a term is at least that number.
    """
    cap = max(1, min(_MAX_CELLS, round(_BLOCK_ENTRIES ** (1.0 / len(lo)))))
    while cap > 1 and cap ** len(lo) > _BLOCK_ENTRIES:
        cap -= 1
    cell = abs(reach) * (1.0 + 1e-6)
    counts = []
    for span in spans:
        q = span / cell if cell > 0.0 else math.inf
        counts.append(max(1, int(q)) if q < cap else cap)
    ncells = math.prod(counts)
    axes, stride = [], 1
    for la, span, m in zip(lo, spans, counts):
        near = np.arange(m)[:, None] + np.arange(-1, 2)
        if torus:
            near %= m
            # with fewer than three cells c - 1 is c + 1, and with one it is c
            if m < 3:
                near[:, 0] = -1
            if m < 2:
                near[:, 2] = -1
        else:
            near[0, 0] = near[-1, 2] = -1
        near = np.where(near >= 0, near * stride, ncells)
        axes.append((la, span / m, m, stride, near))
        stride *= m
    return axes, ncells


def _cells(x, axes, torus):
    """Per axis of ``_cell_grid``'s ``axes``, the cell of each row of x."""
    out = []
    for col, (la, wa, m, _, _) in zip(x.T, axes):
        c = np.floor((col - la) / wa).astype(np.intp)
        out.append(c % m if torus else np.clip(c, 0, m - 1))
    return out


def _near_keys(cells, axes, ncells):
    """(rows, 3^d) keys of the cells next to each row's cells, from
    ``_cell_grid``'s ``near`` tables: the row's own cell in the middle
    column, and ncells where a neighbour is missing."""
    keys = None
    for c, ax in zip(cells, axes):
        nb = ax[4][c]
        keys = nb if keys is None else (
            keys[:, :, None] + nb[:, None, :]).reshape(c.size, -1)
    return np.minimum(keys, ncells, out=keys)


def close_pairs(a, b, reach, sides, torus):
    """Candidate neighbour pairs of the (m, d) rows ``a`` and the (n, d) rows
    ``b``, or with ``b`` None of the rows of ``a`` among themselves: yields
    blocks (i, j) of the pairs whose cells on one ``_cell_grid`` are
    neighbours, so each pair within ``reach`` (minimal image on a torus of
    ``sides``) comes once, and without b each unordered pair of distinct
    rows comes once, in one orientation; the caller applies its own exact
    test.

    The grid starts at the smallest coordinate and spans the torus sides,
    or on a box the extent of the rows.  The rows of b (of a, without b)
    are sorted by cell key, and a table of each cell's first sorted row,
    with an entry past the last cell for the key of a missing neighbour,
    gives the rows of each query's 3^d neighbour keys.  Without b the
    queries are the sorted rows and read the half stencil: the neighbour
    cells of larger key and the rows after the query in its own cell.  The
    ranges are expanded a block of queries at a time.  A block lists its
    pairs query by query and holds at most ``_BLOCK_ENTRIES`` entries,
    unless one query alone has more: 2 (d + 1) a pair, for its two rows and
    the d coordinates of each that the consumers gather.
    """
    if a.shape[0] == 0 or (b is not None and b.shape[0] == 0):
        return
    rows = a if b is None else np.concatenate([a, b])
    if not np.isfinite(rows).all():
        # a row with a non-finite coordinate is in range of nothing
        ia = np.flatnonzero(np.isfinite(a).all(axis=1))
        ib = ia if b is None else np.flatnonzero(np.isfinite(b).all(axis=1))
        for i, j in close_pairs(a[ia], None if b is None else b[ib], reach,
                                sides, torus):
            yield ia[i], ib[j]
        return
    lo = rows.min(axis=0)
    if torus:
        spans = sides[:a.shape[1]]
    else:
        spans = rows.max(axis=0) - lo
        # every row lies at the origin of a flat axis, so any width serves
        spans = np.where(spans > 0.0, spans, 1.0)
    axes, ncells = _cell_grid(lo.tolist(), spans.tolist(), reach, torus)
    mid = 3 ** a.shape[1] // 2
    if b is None:
        keys = _near_keys(_cells(a, axes, torus), axes, ncells)
        order = np.argsort(keys[:, mid], kind="stable")
        keys = keys[order]
        pkey = keys[:, mid]
    else:
        pkey = sum(c * ax[3] for c, ax in zip(_cells(b, axes, torus), axes))
        order = np.argsort(pkey, kind="stable")
        pkey = pkey[order]
        keys = _near_keys(_cells(a, axes, torus), axes, ncells)
    # rows start[k]:start[k + 1] of the sorted rows lie in cell k; the key
    # ncells, past the last cell, has none
    start = np.zeros(ncells + 2, dtype=np.intp)
    np.cumsum(np.bincount(pkey, minlength=ncells + 1), out=start[1:])
    if b is None:
        # the half stencil: the cells of larger key, and in the query's own
        # cell the rows after it
        keys = np.where(keys > pkey[:, None], keys, ncells)
    first = start[keys]
    cnt = start[keys + 1] - first
    if b is None:
        first[:, mid] = np.arange(1, a.shape[0] + 1)
        cnt[:, mid] = start[pkey + 1] - first[:, mid]
    per = cnt.sum(axis=1)
    total = np.cumsum(per)
    size = max(1, _BLOCK_ENTRIES // (2 * a.shape[1] + 2))
    q0 = 0
    while q0 < a.shape[0]:
        base = int(total[q0 - 1]) if q0 else 0
        q1 = max(q0 + 1, int(np.searchsorted(total, base + size,
                                             side="right")))
        c = cnt[q0:q1].ravel()
        pos = np.repeat(first[q0:q1].ravel() - (np.cumsum(c) - c), c)
        pos += np.arange(pos.size)
        i = np.repeat(np.arange(q0, q1), per[q0:q1])
        yield (order[i] if b is None else i), order[pos]
        q0 = q1


# ---------------------------------------------------------------------------
# pairwise-interaction birth-death chain
# ---------------------------------------------------------------------------
_CHUNK = 512           # least steps per chunk of draws, which share one
                       # neighbour search


def gibbs_chain(x0, lo, hi, torus, beta, gamma, rng_move, rng_loc,
                rng_idx, rng_acc, rad, trad, d_spatial):
    """Birth-death Metropolis-Hastings chain of beta^n gamma^(neighbour
    pairs) on the box [lo, hi] (Geyer and Moller 1994); one proposal per
    draw, and the state after the last one is returned.

    The points stay in proposal order and a death moves the last point into
    the freed row.  The draws go a chunk of max(_CHUNK, n) steps at a time,
    n the points at the chunk's start.  The chunk's universe is those points
    and the chunk's birth locations, and its neighbour lists are the
    ``close_pairs`` candidates of the universe that ``_in_range`` accepts,
    each unordered pair tested once and listed at both its rows.  The
    scalar loop keeps each universe row's number of alive neighbours: a
    proposal reads its count, and an accepted birth or death adds or takes
    one at its neighbours, in any order, since the updates commute.  A
    chunk's work and memory grow with its universe and close pairs, and
    since it covers at least n steps its universe holds O(1) rows per step.
    """
    d = d_spatial
    span = hi - lo
    vol = float(np.prod(span))
    x = np.array(x0, dtype=float)
    s0 = 0
    while s0 < rng_move.shape[0]:
        n = x.shape[0]
        part = slice(s0, s0 + max(_CHUNK, n))
        birth = rng_move[part] < 0.5
        uni = np.concatenate([x, lo + rng_loc[part][birth] * span])
        ii, jj = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
        for i, j in close_pairs(uni[:, :d], None, rad, span, torus):
            ok = _in_range(uni[i], uni[j], span, torus, rad, trad, d)
            ii.append(i[ok])
            jj.append(j[ok])
        # each neighbour pair came once: both its orientations, stably sorted
        # by row, so row u's neighbours are nbr[first[u]:first[u + 1]]
        i, j = np.concatenate(ii + jj), np.concatenate(jj + ii)
        by_row = np.argsort(i, kind="stable")
        i, j = i[by_row], j[by_row]
        first = np.searchsorted(i, np.arange(uni.shape[0] + 1)).tolist()
        nbr = j.tolist()
        cnt = np.bincount(i[j < n], minlength=uni.shape[0]).tolist()
        rows, new = list(range(n)), n
        for b, ui, ua in zip(birth.tolist(), rng_idx[part].tolist(),
                             rng_acc[part].tolist()):
            if b:
                u, new = new, new + 1
                if ua * (n + 1) < beta * gamma ** cnt[u] * vol:
                    rows.append(u)
                    n += 1
                    for v in nbr[first[u]:first[u + 1]]:
                        cnt[v] += 1
            elif n > 0:
                idx = min(int(ui * n), n - 1)
                u = rows[idx]
                if beta * gamma ** cnt[u] * vol * ua < n:
                    rows[idx] = rows[-1]
                    rows.pop()
                    n -= 1
                    for v in nbr[first[u]:first[u + 1]]:
                        cnt[v] -= 1
        x = uni[rows]
        s0 = part.stop
    return x


# ---------------------------------------------------------------------------
# growth-interaction integration
# ---------------------------------------------------------------------------
def _gi_pairs(xs, cutoff):
    """Pairs i < j with their squared distances, by increasing distance and
    then by (i, j); with ``cutoff`` >= 0 only the pairs with d^2 <=
    cutoff^2, taken from the ``close_pairs`` candidates."""
    reach = cutoff if cutoff >= 0.0 else math.inf
    parts = [(np.empty(0, dtype=np.intp),) * 2 + (np.empty(0),)]
    for i, j in close_pairs(xs, None, reach, None, False):
        i, j = np.minimum(i, j), np.maximum(i, j)
        diff = xs[i] - xs[j]
        d2 = np.sum(diff * diff, axis=1)
        if cutoff >= 0.0:
            keep = d2 <= cutoff * cutoff
            i, j, d2 = i[keep], j[keep], d2[keep]
        parts.append((i, j, d2))
    i, j, d2 = (np.concatenate(p) for p in zip(*parts))
    order = np.lexsort((j, i, d2))
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


def _alive_rows(alive, step):
    """The rows alive at ``step``, in increasing order, and the mask of
    those that were not alive at the step before."""
    rows = np.flatnonzero(alive[step])
    return rows, (~alive[step - 1, rows] if step else np.ones(rows.size, bool))


class GrowthPlan:
    """The part of a growth integration that the growth law, the noise and
    the negative policy leave unchanged, built once and integrated per
    parameter vector.

    It holds the read-only (nsteps + 1, n) alive matrix, births <= step *
    dt < deaths, the steps at which the alive set changes with the rows
    alive and entering there, and one interaction operator: the dense gauss
    kernel matrix, or for overlap the pair list sorted by distance.  An
    integration walks the grid once on the alive rows only; at each change
    step it gathers the operator of the new rows from the plan's, so the
    plan keeps no n x n array beside the operator itself.  Absorption
    changes a copy of the alive matrix, never the plan.
    """

    def __init__(self, xs, births, deaths, dt, nsteps, inter_code, ip, cutoff):
        self.n = xs.shape[0]
        self.deaths = deaths
        self.dt, self.nsteps = dt, nsteps
        self.inter_code, self.ip = inter_code, ip
        t = np.arange(nsteps + 1) * dt
        self.alive = (births <= t[:, None]) & (t[:, None] < deaths)
        self.alive.flags.writeable = False
        steps = np.flatnonzero(np.any(self.alive[1:] != self.alive[:-1], axis=1))
        self.changes = {s: _alive_rows(self.alive, s)
                        for s in [0, *(steps + 1).tolist()]}
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
        absorbed (1: clamped, and it dies at the next grid time or at its
        own death, whichever is earlier) or left (2).
        """
        n, dt, nsteps = self.n, self.dt, self.nsteps
        g0, g1 = gp[0], gp[1]
        ic = self.inter_code
        alive, changes = self.alive, self.changes
        deaths = self.deaths.copy()
        vals = np.zeros((nsteps + 1, n))
        m = np.zeros(n)
        rows = np.empty(0, dtype=np.intp)
        mv = m[rows]
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
                out = out - self.ip[0] * np.bincount(
                    np.concatenate([i, j]), np.concatenate([ov, ov]),
                    minlength=mv.size)
            return out

        for step in range(nsteps + 1):
            if step in changes:
                # keep the marks of the rows that stay, start the entering
                # ones at m0, and gather the operator of the new rows (the
                # old block is released first)
                m[rows] = mv
                rows, enter = (self.changes[step] if alive is self.alive
                               else _alive_rows(alive, step))
                mv = m[rows]
                mv[enter] = m0
                op = None
                op = self._interaction(rows)
            if rows.size == 0:
                continue
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
                    # the absorbed rows die at the next grid time, or at
                    # their own death if it falls earlier in this step
                    dead = rows[neg]
                    deaths[dead] = np.minimum(deaths[dead], (step + 1) * dt)
                    if alive is self.alive:
                        alive, changes = alive.copy(), set(changes)
                    alive[step + 1:, dead] = False
                    changes.add(step + 1)
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
def neighbour_counts(queries, pts, sides, torus, rad, trad, d_spatial, own=None):
    """(m,) number of the (n, D) points within range of each (m, D) query,
    by the rule of ``_in_range``; with ``own``, query j leaves out row
    own[j] of ``pts`` (none where own[j] is -1).  Only the spatial
    ``close_pairs`` candidates are tested, a block at a time, so work and
    memory grow with the candidates, not with m n."""
    m = queries.shape[0]
    out = np.zeros(m, dtype=np.int64)
    for i, j in close_pairs(queries[:, :d_spatial], pts[:, :d_spatial], rad,
                            sides, torus):
        ok = _in_range(queries[i], pts[j], sides, torus, rad, trad, d_spatial)
        out += np.bincount(i[ok], minlength=m)
    if own is not None:
        has = own >= 0
        out[has] -= _in_range(queries[has], pts[own[has]], sides, torus, rad,
                              trad, d_spatial)
    return out


def _in_range(a, b, sides, torus, rad, trad, d_spatial):
    """Whether the ground rows of ``a`` and ``b``, arrays that broadcast
    together, are neighbours: squared spatial distance <= rad^2 (minimal
    image on a torus) and, when ``trad`` >= 0 and the rows carry a time
    column, |dt| <= trad."""
    diff = np.abs(a[..., :d_spatial] - b[..., :d_spatial])
    if torus:
        diff = np.minimum(diff, sides[:d_spatial] - diff)
    ok = np.sum(diff * diff, axis=-1) <= rad * rad
    if trad >= 0.0 and a.shape[-1] > d_spatial:
        ok &= np.abs(a[..., -1] - b[..., -1]) <= trad
    return ok
