"""Local minimizers shared by the fitting routines.

``nelder_mead`` is a derivative-free projected simplex for black-box
objectives (likelihoods, Janossy densities, variogram fits).
``gauss_newton`` is a projected Levenberg-Marquardt method for least
squares, which sees the residual vector instead of its squared sum and
takes its Jacobian by forward differences.  Both clip every trial point
into the bound box, never return a point worse than the start, count
every evaluation against one budget and are deterministic given the start
point and budget.
"""
from __future__ import annotations

import numpy as np

from .errors import ValidationError

_REL_TOL = 1e-8
# forward-difference step relative to max(1, |theta_i|): sqrt(eps) of a double
_FD_STEP = 2.0 ** -26
# Marquardt damping: start, factor per failed or accepted step, and floor
_DAMP_START, _DAMP_FACTOR, _DAMP_MIN = 1e-3, 10.0, 1e-12


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
