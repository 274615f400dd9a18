"""Local minimizers shared by the fitting routines.

``nelder_mead`` is a derivative-free projected simplex for black-box
objectives (``infer.optimize``, variogram fits).  ``gauss_newton`` is a
projected Levenberg-Marquardt method for least squares, which sees the
residual vector instead of its squared sum and takes its Jacobian by
forward differences.  ``poisson_newton`` is a projected Newton method for
the convex Poisson-GLM objective sum_k w_k exp(z_k . phi) - s . phi that
every likelihood fit minimizes in its canonical parameters, with the exact
gradient and Hessian.  All three clip every trial point into the bound
box, never return a point worse than the start, count every evaluation
against one budget and are deterministic given the start point and budget.
"""
from __future__ import annotations

import numpy as np

from .errors import ValidationError

_REL_TOL = 1e-8
# forward-difference step relative to max(1, |theta_i|): sqrt(eps) of a double
_FD_STEP = 2.0 ** -26
# Marquardt damping: start, factor per failed or accepted step, and floor
_DAMP_START, _DAMP_FACTOR, _DAMP_MIN = 1e-3, 10.0, 1e-12
# Newton: gradient tolerance relative to 1 + max |s|, and the Armijo slope
_GRAD_TOL, _ARMIJO = 1e-9, 1e-4


def _box(theta0, bounds):
    """The start point clipped into ``bounds``, the clip itself, and the
    (lo, hi) arrays (infinite without bounds)."""
    theta0 = np.atleast_1d(np.asarray(theta0, dtype=float))
    ndim = theta0.size
    if bounds is None:
        lo, hi = np.full(ndim, -np.inf), np.full(ndim, np.inf)
    else:
        lo = np.asarray([b[0] for b in bounds], dtype=float)
        hi = np.asarray([b[1] for b in bounds], dtype=float)
        if lo.size != ndim or np.any(lo > hi):
            raise ValidationError("invalid bounds")
    project = lambda x: np.clip(x, lo, hi)
    return project(theta0), project, lo, hi


def _small_step(step, x):
    """True when ``step`` is at most 1e-8 of the scale 1 + max |x|."""
    return float(np.max(np.abs(step))) <= _REL_TOL * (
        1.0 + float(np.max(np.abs(x))))


def _settled(f_old, f_new, step, x, f_floor):
    """The shared relative convergence rule: the objective changed by at
    most 1e-8 of its scale plus ``f_floor``, and the step is small."""
    return (abs(f_old - f_new) <= _REL_TOL * (abs(f_old) + abs(f_new)) + f_floor
            and _small_step(step, x))


def nelder_mead(objective, theta0, bounds=None, budget: int = 500):
    """Minimize ``objective`` from ``theta0``.

    Returns (theta_best, f_best, evaluations, converged).  Convergence means
    the simplex's relative objective spread fell below 1e-8 within the
    evaluation budget; the best point found so far is returned either way.
    The budget must cover the ndim + 1 vertices of the start simplex.
    """
    theta0, project, _, _ = _box(theta0, bounds)
    ndim = theta0.size
    if budget < ndim + 1:
        raise ValidationError(f"budget {budget} is below the {ndim + 1} "
                              "evaluations of the start simplex")

    evals = 0

    def f(x):
        nonlocal evals
        evals += 1
        return float(objective(x))

    f0 = f(theta0)
    if not np.isfinite(f0):
        raise ValidationError("objective must be finite at the start point")

    # initial simplex: perturb each coordinate by 5% (or 0.05 when zero)
    verts = [theta0]
    for i in range(ndim):
        step = 0.05 * theta0[i] if theta0[i] != 0.0 else 0.05
        v = theta0.copy()
        v[i] += step
        verts.append(project(v))
    fvals = [f0] + [f(v) for v in verts[1:]]
    verts = np.asarray(verts)
    fvals = np.asarray(fvals)

    converged = False
    # absolute floor keeps the relative rule attainable when the minimum is
    # exactly zero (e.g. noiseless least squares)
    f_floor = _REL_TOL ** 2 * (1.0 + abs(f0))
    while evals < budget:
        order = np.argsort(fvals, kind="stable")
        verts = verts[order]
        fvals = fvals[order]
        if _settled(fvals[0], fvals[-1], verts - verts[0], verts[0], f_floor):
            converged = True
            break
        centroid = np.mean(verts[:-1], axis=0)
        refl = project(centroid + (centroid - verts[-1]))
        fr = f(refl)
        if fr < fvals[0]:
            exp = project(centroid + 2.0 * (centroid - verts[-1]))
            fe = f(exp)
            if fe < fr:
                verts[-1], fvals[-1] = exp, fe
            else:
                verts[-1], fvals[-1] = refl, fr
        elif fr < fvals[-2]:
            verts[-1], fvals[-1] = refl, fr
        else:
            contr = project(centroid + 0.5 * (verts[-1] - centroid))
            fc = f(contr)
            if fc < fvals[-1]:
                verts[-1], fvals[-1] = contr, fc
            else:
                for i in range(1, len(verts)):
                    verts[i] = project(verts[0] + 0.5 * (verts[i] - verts[0]))
                    fvals[i] = f(verts[i])
                    if evals >= budget:
                        break

    best = int(np.argmin(fvals))
    if fvals[best] <= f0:
        return verts[best].copy(), float(fvals[best]), evals, converged
    return theta0.copy(), f0, evals, converged


def gauss_newton(residuals, theta0, bounds=None, budget: int = 500):
    """Minimize the squared sum of the vector ``residuals(theta)`` from
    ``theta0`` (Levenberg-Marquardt, projected onto the bound box).

    Each iteration takes a forward-difference Jacobian J at the current
    point (step sqrt(eps) * max(1, |theta_i|), backward at an upper bound)
    and solves (A + lam diag A) s = -g with A = J'J and g = J'r on the
    coordinates not held by an active bound (a bound that the gradient
    pushes against).  A trial that lowers the objective is taken and lam
    falls; otherwise lam grows and the step shrinks.

    Returns (theta_best, f_best, evaluations, converged) as ``nelder_mead``
    does, with every residual evaluation counted, the Jacobian's included;
    the budget must allow the one at the start point.
    Convergence means an accepted step changed the objective and theta by
    at most 1e-8 of their scale, or no descent step is left: the projected
    gradient vanishes, or a failed trial step is already within the theta
    tolerance.
    """
    theta0, project, lo, hi = _box(theta0, bounds)
    ndim = theta0.size
    if budget < 1:
        raise ValidationError(f"budget {budget} leaves no evaluation")

    evals = 0

    def r(x):
        nonlocal evals
        evals += 1
        return np.asarray(residuals(x), dtype=float).ravel()

    x, rx = theta0, r(theta0)
    fx = float(rx @ rx)
    if not np.isfinite(fx):
        raise ValidationError("residuals must be finite at the start point")
    f_floor = _REL_TOL ** 2 * (1.0 + abs(fx))
    lam = _DAMP_START
    converged = False
    # a Jacobian and at least one trial must fit in the budget
    while evals + ndim < budget:
        jac = np.zeros((rx.size, ndim))
        for i in range(ndim):
            h = _FD_STEP * max(1.0, abs(x[i]))
            xi = x.copy()
            xi[i] = x[i] + h if x[i] + h <= hi[i] else x[i] - h
            xi = project(xi)
            if xi[i] != x[i]:
                jac[:, i] = (r(xi) - rx) / (xi[i] - x[i])
        if not np.all(np.isfinite(jac)):
            break
        g = jac.T @ rx
        free = ~(((x <= lo) & (g > 0.0)) | ((x >= hi) & (g < 0.0)))
        if not np.any(g[free] != 0.0):
            converged = True
            break
        a = (jac.T @ jac)[np.ix_(free, free)]
        diag = np.diag(a)
        diag = np.maximum(diag, _REL_TOL ** 2 * float(np.max(diag)))
        while evals < budget:
            step = np.zeros(ndim)
            step[free] = np.linalg.solve(a + lam * np.diag(diag), -g[free])
            trial = project(x + step)
            moved = trial - x
            if not np.any(moved):
                converged = True
                break
            rt = r(trial)
            ft = float(rt @ rt)
            if ft < fx:
                converged = _settled(fx, ft, moved, trial, f_floor)
                x, rx, fx = trial, rt, ft
                lam = max(lam / _DAMP_FACTOR, _DAMP_MIN)
                break
            if _small_step(moved, x):
                converged = True
                break
            lam *= _DAMP_FACTOR
        if converged or evals >= budget:
            break
    return x, fx, evals, converged


def _newton_step(hess, g, free, x, lo, hi):
    """The Newton step -H^-1 g on the ``free`` coordinates, solved again
    without each coordinate on a bound of [lo, hi] that it would leave the
    box through; None when the reduced Hessian is singular."""
    free = free.copy()
    while True:
        step = np.zeros_like(x)
        try:
            step[free] = np.linalg.solve(hess[np.ix_(free, free)], -g[free])
        except np.linalg.LinAlgError:
            return None
        out = ((x <= lo) & (step < 0.0)) | ((x >= hi) & (step > 0.0))
        if not np.any(out):
            return step
        free &= ~out


def poisson_newton(stat, weights, rows, phi0, bounds=None, budget: int = 500):
    """Minimize f(phi) = sum_k weights_k exp(rows_k . phi) - stat . phi from
    ``phi0`` within ``bounds``, which may be infinite (projected Newton).

    f is convex; its gradient Z'e - s and Hessian Z' diag(e) Z, e_k =
    weights_k exp(rows_k . phi), come from the one exponential of an
    evaluation.  Each iteration solves the Newton system (its diagonal
    raised by 1e-16 of its largest entry) on the coordinates not held by an
    active bound: one the gradient pushes against, or one the Newton step
    would leave the box through.  The step is halved until the decrease
    f(trial) - f(phi) = e . expm1(Z d) - s . d, d = trial - phi, which
    never cancels against f's own size, reaches 1e-4 of the gradient's
    prediction g . d < 0 (Armijo), so no step rises.

    Two kinds of coordinate are settled first: one that f does not depend
    on stays at its start, and one with a lower bound of -inf along which
    f falls for ever (s_j <= 0, no row entry below 0 and some above) is
    returned at -inf, where the node terms that it weighs vanish.

    Returns (phi_best, evaluations, converged), every evaluation (the start
    point's and each trial point's) counted against the budget, which must
    allow the start point.  Convergence means every free gradient component
    is at most 1e-9 (1 + max_j |s_j|); a singular reduced Hessian or a step
    that no halving makes acceptable ends the fit unconverged.
    """
    phi, _, lo, hi = _box(phi0, bounds)
    if budget < 1:
        raise ValidationError(f"budget {budget} leaves no evaluation")
    stat, weights, rows = (np.asarray(a, dtype=float) for a in (stat, weights, rows))
    with np.errstate(over="ignore", invalid="ignore"):
        # a zero row entry leaves out a coordinate that starts at -inf
        e = weights * np.exp(np.sum(np.where(rows != 0.0, rows * phi, 0.0), axis=1))
    if not (np.all(np.isfinite(e)) and np.all(np.isfinite(phi[stat != 0.0]))):
        raise ValidationError("objective must be finite at the start point")
    flat = (stat == 0.0) & np.all(rows == 0.0, axis=0)
    sink = (lo == -np.inf) & (stat <= 0.0) & np.all(rows >= 0.0, axis=0) & ~flat
    phi[sink] = -np.inf
    live, keep = ~np.any(rows[:, sink] > 0.0, axis=1), ~(flat | sink)
    w, z = weights[live], rows[np.ix_(live, keep)]
    s, lo, hi = stat[keep], lo[keep], hi[keep]
    tol = _GRAD_TOL * (1.0 + float(np.max(np.abs(stat), initial=0.0)))
    evals = 0

    def at(v):
        nonlocal evals
        evals += 1
        e = w * np.exp(z @ v)
        return e, z.T @ e - s

    x, converged = phi[keep], False
    with np.errstate(over="ignore", invalid="ignore"):
        e, g = at(x)
        while True:
            free = ~(((x <= lo) & (g > 0.0)) | ((x >= hi) & (g < 0.0)))
            if not np.any(np.abs(g[free]) > tol):
                converged = True
                break
            hess = (z.T * e) @ z
            ridge = _REL_TOL ** 2 * float(np.max(np.diag(hess))) + np.finfo(float).tiny
            step = _newton_step(hess + ridge * np.eye(x.size), g, free, x, lo, hi)
            alpha, accepted = 1.0, False
            while step is not None and evals < budget:
                trial = np.clip(x + alpha * step, lo, hi)
                moved = trial - x
                if not np.any(moved):
                    break
                # a clipped step may not descend; a shorter one clips less
                slope = g @ moved
                if slope < 0.0:
                    e_t, g_t = at(trial)
                    if e @ np.expm1(z @ moved) - s @ moved <= _ARMIJO * slope:
                        x, e, g, accepted = trial, e_t, g_t, True
                        break
                alpha *= 0.5
            if not accepted:
                break
    phi[keep] = x
    return phi, evals, converged
