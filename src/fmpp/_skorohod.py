"""Time-warp (Skorohod-type) distance between grid paths.

The distance minimizes

    max( gamma(w),  int_0^{T*} e^{-u} sup_t min(|f(t^u) - g(w(t)^u)|, 1) du )

over piecewise-linear, strictly increasing, surjective warps w of [0, T*],
where gamma(w) is the largest |log slope| over warp segments and ^u denotes
truncation min(., u).  The infimum over all warps is not computable; we
minimize over a finite family of monotone lattice paths on a warp grid
(uniform fill of the requested resolution, merged with both paths' own grid
and support points) found by dynamic programming, always including the
identity warp.  The value is therefore an upper bound of the true infimum,
is exactly zero for equal paths, and is symmetric (both orientations are
searched and the functional itself is transpose-invariant).

Candidate warps from coarser lattices in the internal resolution ladder are
kept, so doubling the resolution never increases the result: the evaluated
family only grows.  Each warp's cost charges every u-cell (cells split at
all breakpoints of the integrand) its sup.  For step paths the integrand is
constant on a cell, so the cost is the integral and does not depend on the
warp's knots; when a path is linearly interpolated it is an upper bound of
the integral that extra knots on a straight warp piece can lower.

Paths and their left limits are read through the one path evaluator,
``core._evaluate``, and warps through ``np.interp``, on whole arrays of
times at once.
"""
from __future__ import annotations

import math

import numpy as np

from . import _kernels
from .core import _evaluate


def _points(parts, t_star):
    """Sorted distinct finite values of ``parts``, clipped to [0, t_star]."""
    raw = np.concatenate([np.asarray(p, dtype=float).ravel() for p in parts])
    return np.unique(np.clip(raw[np.isfinite(raw)], 0.0, t_star))


def _left(path, t):
    """Left limits lim_{s -> t-} path(s) at an array of times."""
    a, b = path.support
    return _evaluate(path.grid, path.values[None, :], a, b, path.mode, t,
                     left=True)[0]


def _phi(f, g, kt, ks, t_cand, w_cand, u, left):
    """sup over t of min(|f(t^u) - g(w(t)^u)|, 1) for each probe in ``u``.

    ``(t_cand, w_cand)`` are the probe-independent candidate pairs (t, w(t));
    each probe adds (u, w(u)) and (w^{-1}(u), u).  With ``left`` the
    difference is also read at each candidate's left limit in t, where
    t -> f(t^u) is f's left limit for t <= u and f(u) beyond it (likewise
    for g at w(t)).
    """
    uc = u[:, None]
    shape = (u.size, t_cand.size)
    tt = np.hstack([np.broadcast_to(t_cand, shape), uc, np.interp(uc, ks, kt)])
    ww = np.hstack([np.broadcast_to(w_cand, shape), np.interp(uc, kt, ks), uc])
    ft, gw = np.minimum(tt, uc), np.minimum(ww, uc)
    diff = np.abs(f(ft) - g(gw))
    if left:
        diff = np.maximum(diff, np.abs(np.where(tt <= uc, _left(f, ft), f(uc))
                                       - np.where(ww <= uc, _left(g, gw), g(uc))))
    return np.minimum(diff, 1.0).max(axis=1)


def _warp_cost(f, g, kt, ks, t_star):
    """Exact lattice-functional value max(gamma, integral) for one warp.

    ``f`` is read at t and ``g`` at w(t), w the piecewise-linear warp through
    the knots (kt[i], ks[i]).  The sup over t is a max over every
    discontinuity of the integrand in t: f's breakpoints, the warp knots,
    and the preimages w^{-1}(x) of g's breakpoints x.  A preimage is paired
    with x itself, never with w(w^{-1}(x)), which can round below x and miss
    g's value after its jump.  When either path is linearly interpolated the
    integrand is affine between those times, so its sup over a piece may be
    the left limit at the piece's end, and both paths are read there too.
    The integrand u -> phi(u) is right-continuous with breakpoints among all
    of those times and their images; on each u-cell its sup is the cell
    value (step paths) or is attained at the cell ends (piecewise-affine
    pieces when either path is linear, in which case the right endpoint is
    probed too).
    """
    gamma = max(abs(math.log(s)) for s in (np.diff(ks) / np.diff(kt)).tolist())
    t_f = _points([f.grid, f.support, (0.0, t_star), kt], t_star)
    x_g = _points([g.grid, g.support], t_star)
    t_cand = np.concatenate([t_f, np.interp(x_g, ks, kt)])
    w_cand = np.concatenate([np.interp(t_f, kt, ks), x_g])
    ubreaks = _points([t_cand, w_cand], t_star)
    starts, ends = ubreaks[:-1], ubreaks[1:]
    probes = [starts, 0.5 * (starts + ends)]
    linear = f.mode == "linear" or g.mode == "linear"
    if linear:
        probes.append(ends)
    u = np.concatenate(probes)
    block = max(1, _kernels._BLOCK_ENTRIES // (t_cand.size + 2))
    phi = np.concatenate([_phi(f, g, kt, ks, t_cand, w_cand, u[i:i + block],
                               linear)
                          for i in range(0, u.size, block)])
    sup = phi.reshape(len(probes), starts.size).max(axis=0)
    e = np.array([math.exp(-x) for x in ubreaks.tolist()])
    integral = np.add.accumulate((e[:-1] - e[1:]) * sup)[-1]
    return float(max(gamma, integral))


def _surrogate_dp(nodes, diag_mis, d_exp, mis, log_caps):
    """Min-cost monotone lattice paths, one per slope threshold.

    State (r, s) means the warp maps nodes[r] -> nodes[s].  Segment cost is
    the e^{-u}-weighted sum over its u-cells of max(diagonal frozen mismatch,
    local aligned mismatch); because an aligned mismatch persists in the sup
    for every later u, the segment's worst aligned mismatch is also charged
    over the remaining tail of the e^{-u} weight.  A small multiple of
    |log slope| resolves ties toward gentle warps.

    Segment costs do not depend on the threshold, only whether a segment
    (|log slope| <= cap) is allowed does, so one pass over the lattice fills
    a table per cap.  A segment steeper than every cap is never built.  The
    pass takes whole rows of states, a few at a time: it finds the rows'
    segments (p, q) -> (r, s) that some cap allows, costs them in blocks of
    at most ``_kernels._BLOCK_ENTRIES`` (segment, source cell) entries, and
    then, row by row, since a row's states read only rows below it, gives
    every state of the row the minimum over its segments, ties going to the
    first (p, q) in p-major order.  Returns one path per cap, as a tuple of
    (r, s) knot index pairs from (0, 0) to (m, m); the diagonal is always
    allowed.
    """
    m = nodes.size - 1
    side = m + 1
    caps = np.asarray(log_caps, dtype=float)[:, None]
    exp_end = math.exp(-nodes[m])
    tail = np.array([math.exp(-x) - exp_end for x in nodes[1:].tolist()])
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    # every pair of nodes, later over earlier, in (later, earlier) order: a
    # segment (p, q) -> (r, s) runs over pair (r, p) and rises over (s, q)
    later, earlier = np.nonzero(np.tri(side, m, -1, dtype=bool))
    span = nodes[later] - nodes[earlier]
    best = np.full((caps.size, side, side), np.inf)
    best[:, 0, 0] = 0.0
    par = np.zeros((caps.size, side, side), dtype=np.int64)

    def costs(r, p, q, s, lg):
        # column 0 holds 1e-9 |log slope|, column k + 1 the term of source
        # cell k, zero unless p <= k < r; the cost adds them in that order
        width = int(r.max())
        k = np.arange(width)
        # lam = nodes[q] + (mids[k] - nodes[p]) * rise / run, in that order
        lam = mids[:width] - nodes[p][:, None]
        lam *= (nodes[s] - nodes[q])[:, None]
        lam /= (nodes[r] - nodes[p])[:, None]
        lam += nodes[q][:, None]
        # the cell of lam, clipped to [0, m - 1]
        a = mis[k, np.searchsorted(nodes[1:m], lam, side="right")]
        del lam
        cols = np.empty((lg.size, width + 1))
        cols[:, 0] = 1e-9 * lg
        terms = np.maximum(a, diag_mis[:width], out=cols[:, 1:])
        terms *= d_exp[:width]
        terms += a * tail[:width]
        del a
        np.copyto(terms, 0.0, where=(k < p[:, None]) | (k >= r[:, None]))
        return np.add.accumulate(cols, axis=1)[:, -1]

    rows = max(1, _kernels._BLOCK_ENTRIES // (m * span.size))
    for r0 in range(1, side, rows):
        r1 = min(r0 + rows, side)
        x0, x1 = np.searchsorted(later, (r0, r1)).tolist()
        slope = np.abs(np.log(span / span[x0:x1, None]))     # (run, rise)
        x, y = np.nonzero(slope <= caps.max())
        lg = slope[x, y]
        del slope
        # to (r, s) order, keeping the p-major (p, q) order within a state
        order = np.argsort(later[x0 + x] * side + later[y], kind="stable")
        x, y, lg = x0 + x[order], y[order], lg[order]
        r, p, s, q = later[x], earlier[x], later[y], earlier[y]
        seg = np.empty(lg.size)
        block = max(1, _kernels._BLOCK_ENTRIES // (r1 - 1))
        for i in range(0, lg.size, block):
            j = slice(i, i + block)
            seg[j] = costs(r[j], p[j], q[j], s[j], lg[j])
        seg = np.where(lg > caps, np.inf, seg)
        code = p * s + q
        # the segments into a state are contiguous, in p-major (p, q) order:
        # count[h] of them from entry head[h] on
        head = np.flatnonzero(np.diff(r * side + s, prepend=-1))
        count = np.diff(head, append=lg.size)
        at = np.searchsorted(r, np.arange(r0, r1 + 1)).tolist()
        at_head = np.searchsorted(r[head], np.arange(r0, r1 + 1)).tolist()
        for row, i0, i1, h0, h1 in zip(range(r0, r1), at, at[1:], at_head,
                                       at_head[1:]):
            starts, targets = head[h0:h1] - i0, s[head[h0:h1]]
            tot = best[:, p[i0:i1], q[i0:i1]] + seg[:, i0:i1]
            low = np.minimum.reduceat(tot, starts, axis=1)
            best[:, row, targets] = low
            # the first (p, q) of a tie has the smallest code p * s + q
            tie = np.where(tot == np.repeat(low, count[h0:h1], axis=1),
                           code[i0:i1], side * side)
            par[:, row, targets] = np.minimum.reduceat(tie, starts, axis=1)
    paths = []
    for parents in par:
        r = s = m
        knots = [(m, m)]
        while r or s:
            r, s = divmod(int(parents[r, s]), s)
            knots.append((r, s))
        paths.append(tuple(knots[::-1]))
    return paths


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------
def _node_set(f, g, t_star, resolution):
    """Warp lattice nodes: uniform fill merged with both paths' breakpoints.

    Very fine path grids are thinned to the largest value jumps so the DP
    lattice stays near the requested resolution.
    """
    def relevant(path):
        grid = path.grid
        if grid.size <= resolution:
            return [path.support, grid]
        jumps = np.abs(np.diff(path.values))
        top = np.sort(np.argsort(jumps)[::-1][: resolution // 2])
        return [path.support, grid[top], grid[top + 1]]

    nodes = _points([np.linspace(0.0, t_star, resolution + 1),
                     *relevant(f), *relevant(g)], t_star)
    # drop near-duplicate nodes (degenerate DP segments)
    keep = np.concatenate([[True], np.diff(nodes) > 1e-12 * max(t_star, 1.0)])
    return nodes[keep]


def _search_direction(f, g, t_star, resolution, thresholds):
    """DP candidates for one orientation; returns exact costs."""
    costs = []
    res = resolution
    while True:
        nodes = _node_set(f, g, t_star, res)
        if nodes.size >= 2:
            mids = 0.5 * (nodes[:-1] + nodes[1:])
            f_mid, g_mid = f(mids), g(mids)
            diag = np.minimum(np.abs(f_mid - g_mid), 1.0)
            d_exp = np.exp(-nodes[:-1]) - np.exp(-nodes[1:])
            mis = np.minimum(np.abs(f_mid[:, None] - g_mid[None, :]), 1.0)
            for knots in set(_surrogate_dp(nodes, diag, d_exp, mis, thresholds)):
                kt, ks = nodes[np.asarray(knots).T]
                costs.append(_warp_cost(f, g, kt, ks, t_star))
        if res <= 4:
            break
        res //= 2
    return costs


def skorohod_distance_impl(f, g, t_star, resolution):
    ident = np.asarray([0.0, t_star])
    cost_id = _warp_cost(f, g, ident, ident, t_star)
    if cost_id == 0.0:
        return 0.0
    # log-slope caps: geometric ladder below the identity cost (a candidate
    # with gamma above the identity cost can never improve on it)
    thresholds = [cost_id * 0.5 ** j for j in range(9)]
    return min([cost_id,
                *_search_direction(f, g, t_star, resolution, thresholds),
                *_search_direction(g, f, t_star, resolution, thresholds)])
