"""Model-level densities and the estimation schemes.

Intensity functionals and conditional intensities for parametric ground
models with sampled-mark and auxiliary factors, Janossy densities and
densities with respect to a reference Poisson process, Papangelou
conditional intensities, and four fitting routes: temporal maximum
likelihood, finite-sample (Janossy) likelihood, maximum pseudo-likelihood,
and least squares on sampled mark trajectories.  Each takes its points as
columns (a ``Configuration``, a list of ``Observation`` or an (n, D) ground
array).  Every ground family's Papangelou intensity is log-linear (Berman
and Turner's form), log lambda = log s + X phi in the canonical parameters
phi of ``_CANONICAL``: ``_design`` builds the theta-free s and X once (for
'gibbs' the neighbour counts without each query's own row) and
``_intensity`` evaluates them, for ``ground_intensity``, ``papangelou``,
the compensator, the likelihoods, the pairwise Janossy density and the
CLI's log-linear simulator.  The likelihoods are one builder, sum log
lambda - integral of lambda with one midpoint compensator, concave in phi,
which the likelihood fits maximize by projected Newton; least squares
minimizes its residual vector by projected Levenberg-Marquardt.

Ground families are deliberately closed: homogeneous rates, a log-linear
temporal rate exp(a + b t) (self-exciting families are out of scope), and
the inhibitory pairwise-interaction model.  The spatial density of a
temporally grounded model is uniform by default, with a normalized
log-linear-in-x alternative.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import _kernels
from ._optim import gauss_newton, nelder_mead, poisson_newton
from .core import (AuxMark, Configuration, SampleSchedule, Window, _aux_table,
                   _evaluate, ground_array, midpoint_rule)
from .errors import NumericalError, ValidationError
from .ground import PairwiseGibbs, _kernel_time_range
from .marks import (
    AuxDensitySpec,
    FidiDensitySpec,
    GrowthInteraction,
    _aux_log_density,
    _check_negative,
    _exp_sum,
    _fidi_row_logs,
    _gi_plan_args,
    _gi_run_args,
    gi_integrate,  # noqa: F401  (a lookup site perfbench's tracer wraps)
)

__all__ = [
    "ParametricModel",
    "Observation",
    "FitResult",
    "JanossyValue",
    "intensity_functional",
    "conditional_intensity",
    "loglik_temporal",
    "janossy_density",
    "janossy_total_mass",
    "density_wrt_poisson",
    "papangelou",
    "pseudolikelihood",
    "least_squares_marks",
    "optimize",
    "fit_loglik_temporal",
    "fit_janossy",
    "fit_pseudolikelihood",
]

# the ground families and, per family, whether each canonical parameter phi_j
# is log theta_j (else theta_j)
_CANONICAL = {"poisson": (True,), "poisson-t": (True,),
              "loglinear-t": (False, False), "gibbs": (True, True)}


@dataclass(frozen=True)
class ParametricModel:
    """Parametric ground model plus marking, with free parameters theta.

    ground families:
      'poisson'      homogeneous rate theta[0] per unit ground volume;
      'poisson-t'    temporally grounded, constant temporal rate theta[0];
      'loglinear-t'  temporal rate exp(theta[0] + theta[1] t);
      'gibbs'        pairwise interaction, theta = (beta, gamma), fixed
                     ranges ``interaction_range``/``temporal_range``.

    The rates, beta and gamma, the parameters that ``_CANONICAL`` logs,
    must be finite and nonnegative.  ``spatial`` is the spatial density
    family of temporally grounded models: ('uniform',) or ('loglinear-x',
    c1, ..., cd), normalized on the window; the other families take only
    ('uniform',).  ``aux``/``fidi`` supply the auxiliary and sampled-mark density
    factors; either may be None (factor treated as absent).
    """

    ground: str
    theta: tuple
    window: Window
    bounds: tuple = ()
    aux: AuxDensitySpec | None = None
    fidi: FidiDensitySpec | None = None
    spatial: tuple = ("uniform",)
    interaction_range: float | None = None
    temporal_range: float | None = None

    def __post_init__(self):
        if self.ground not in _CANONICAL:
            raise ValidationError(f"unknown ground family {self.ground!r}")
        theta = tuple(float(v) for v in self.theta)
        object.__setattr__(self, "theta", theta)
        if len(theta) != len(_CANONICAL[self.ground]):
            raise ValidationError(f"ground family {self.ground!r} takes "
                                  f"{len(_CANONICAL[self.ground])} parameters, "
                                  f"not {len(theta)}")
        # a rate, beta or gamma; the Newton fits reach the bound 0
        if any(log and not 0.0 <= v < math.inf
               for v, log in zip(theta, _CANONICAL[self.ground])):
            raise ValidationError(f"the parameters of ground family "
                                  f"{self.ground!r} must be finite and "
                                  "nonnegative")
        bounds = tuple((float(a), float(b)) for a, b in self.bounds)
        object.__setattr__(self, "bounds", bounds)
        if bounds:
            if len(bounds) != len(theta):
                raise ValidationError("bounds must match the parameter vector")
            if any(not (np.isfinite(a) and np.isfinite(b)) for a, b in bounds):
                raise ValidationError("bounds must be finite")
            if any(not a <= t <= b for t, (a, b) in zip(theta, bounds)):
                raise ValidationError("theta outside its bounds")
        if self.ground in ("poisson-t", "loglinear-t") and not self.window.is_temporal:
            raise ValidationError("temporal ground family needs a temporal window")
        if self.ground == "gibbs":
            PairwiseGibbs(theta[0], theta[1], self.interaction_range,
                          self.temporal_range)
            _kernel_time_range(self.temporal_range, self.window)
        if (self.ground not in ("poisson-t", "loglinear-t")
                and tuple(self.spatial) != ("uniform",)):
            raise ValidationError(f"ground family {self.ground!r} takes no "
                                  "spatial density but ('uniform',)")
        if self.spatial[0] not in ("uniform", "loglinear-x"):
            raise ValidationError(f"unknown spatial density family {self.spatial[0]!r}")
        if self.spatial[0] == "loglinear-x" and not (
                len(self.spatial) == 1 + self.window.dim
                and np.all(np.isfinite(np.asarray(self.spatial[1:], dtype=float)))):
            raise ValidationError(f"'loglinear-x' needs {self.window.dim} finite "
                                  "coefficients, one per spatial axis")

    def with_theta(self, theta) -> "ParametricModel":
        return replace(self, theta=tuple(float(v) for v in theta))


@dataclass(frozen=True)
class Observation:
    """One data point: location, optional time, aux mark, sampled mark vector."""

    x: tuple
    t: float | None = None
    aux: AuxMark | None = None
    u: tuple | None = None


@dataclass(frozen=True)
class FitResult:
    theta: tuple
    objective: float
    iterations: int
    converged: bool
    scheme: str

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "theta_hat": list(self.theta),
            "objective": self.objective,
            "iterations": self.iterations,
            "converged": self.converged,
        }


@dataclass(frozen=True)
class JanossyValue:
    """A Janossy density and its logarithm.

    ``value`` over- or underflows once n reaches a few hundred points;
    ``log_value`` stays finite and is what likelihood fits should use.
    """

    value: float
    normalized: bool
    log_value: float


# ---------------------------------------------------------------------------
# ground building blocks: (m, D) ground locations, (m, d) spatial locations
# or (m,) times in, (m,) values out
# ---------------------------------------------------------------------------
def _spatial_density(model: ParametricModel, x) -> np.ndarray:
    """Normalized spatial density at (m, d) locations; returns (m,)."""
    x = np.asarray(x, dtype=float)
    w = model.window
    if model.spatial[0] == "uniform":
        return np.full(x.shape[0], 1.0 / w.volume)
    coeffs = np.asarray(model.spatial[1:], dtype=float)
    z = 1.0
    for c_a, lo, hi in zip(coeffs, w.lo, w.hi):
        if c_a == 0.0:
            z *= hi - lo
        else:
            z *= (math.exp(c_a * hi) - math.exp(c_a * lo)) / c_a
    return np.exp(x @ coeffs) / z


def _design(model: ParametricModel, queries, pts, own) -> tuple:
    """The theta-free design of the ground Papangelou intensity at the (m, D)
    queries, query j given the (n, D) pattern ``pts`` without row own[j]
    (own may be None; only 'gibbs' reads the pattern): the scale s (m,) and
    rows X (m, p) with log lambda = log s + X phi, phi the ``_CANONICAL``
    map of theta.  s is the spatial density for the temporal families and 1
    otherwise; X is 1 for 'poisson' and 'poisson-t', (1, t) for
    'loglinear-t' and (1, neighbour count) for 'gibbs'."""
    w, m = model.window, len(queries)
    x = np.ones((m, len(_CANONICAL[model.ground])))
    if model.ground == "loglinear-t":
        x[:, 1] = queries[:, -1]
    elif model.ground == "gibbs":
        x[:, 1] = _kernels.neighbour_counts(
            queries, pts, w.sides.astype(float), w.torus,
            float(model.interaction_range),
            _kernel_time_range(model.temporal_range, w), w.dim, own)
    if model.ground in ("poisson-t", "loglinear-t"):
        return _spatial_density(model, queries[:, : w.dim]), x
    return np.ones(m), x


def _intensity(m: ParametricModel, design: tuple) -> np.ndarray:
    """(m,) ground Papangelou intensity at ``m.theta`` of a ``_design``
    (s, X): s times theta_j^X_j over the log-canonical j times exp(sum of
    theta_j X_j) over the others, exp(log s + X phi) without the rounding
    of exp(log theta)."""
    lam, lin = design[0], None
    for theta_j, log_j, x_j in zip(m.theta, _CANONICAL[m.ground], design[1].T):
        if log_j:
            lam = lam * np.power(theta_j, x_j)
        else:
            lin = theta_j * x_j if lin is None else lin + theta_j * x_j
    return lam if lin is None else lam * np.exp(lin)


def ground_intensity(model: ParametricModel, g) -> np.ndarray:
    """First-order ground intensity at (m, D) ground locations, each row x
    or (x, t); returns (m,)."""
    if model.ground == "gibbs":
        raise ValidationError("ground intensity has no closed form for this family")
    return _intensity(model, _design(model, np.asarray(g, dtype=float), None, None))


def ground_intensity_mass(model: ParametricModel, quad_res: int = 64) -> float:
    """Integral of the ground intensity over the window: the likelihoods'
    ``_compensator`` (midpoint rule with ``quad_res`` nodes per axis)."""
    if model.ground == "gibbs":
        raise ValidationError("intensity mass undefined for this family")
    return _integral(model, _compensator(model, None, quad_res))


def _events(w: Window, data, schedule: SampleSchedule | None) -> tuple:
    """The data, a ``Configuration``, a sequence of ``Observation`` or a
    bare (n, D) ground array, as columns on window ``w``: the (n, D) ground
    array (time last), the ``AuxTable`` of the aux marks (None if a point
    has no aux mark) and the (n, k) marks u at the schedule times (None
    without schedule or sampled values).  Every ground coordinate must be
    finite."""
    D, k = w.dim + (1 if w.is_temporal else 0), 0 if schedule is None else len(schedule)
    if isinstance(data, np.ndarray):
        g, aux, u, shape_ok = ground_array(w, data), None, None, True
    elif isinstance(data, Configuration):
        g, aux, shape_ok = data.ground, data.auxs, data.ground.shape[1] == D
        u = None if schedule is None else data.marks.at(schedule.times)
    else:
        g = [tuple(obs.x) + ((obs.t,) if obs.t is not None else ()) for obs in data]
        auxs, u = [obs.aux for obs in data], [obs.u for obs in data]
        aux = None if any(a is None for a in auxs) else _aux_table(auxs)
        shape_ok = all(len(o.x) == w.dim and (o.t is None) != w.is_temporal for o in data)
        if schedule is None or any(v is None for v in u):
            u = None
        elif any(len(v) != k for v in u):
            raise ValidationError("value matrix has wrong number of sample columns")
    if not shape_ok:
        raise ValidationError(
            f"observations need {w.dim} coordinates"
            + (" and an event time" if w.is_temporal else " and no time"))
    g = np.asarray(g, dtype=float).reshape(-1, D)
    if not np.all(np.isfinite(g)):
        raise ValidationError("ground coordinates must be finite")
    return g, aux, None if u is None else np.asarray(u, dtype=float).reshape(-1, k)


def _event_log_factors(model: ParametricModel, events: tuple,
                       schedule: SampleSchedule | None) -> np.ndarray:
    """(n,) log sampled-mark and aux factors of the ``_events`` columns, each
    spec called on whole columns; an absent factor, or that of a degenerate
    (point-mass) law, is log 1 = 0 and a vanishing one -inf."""
    g, aux, u = events
    log_fac = np.zeros(g.shape[0])
    if model.fidi is not None:
        if u is None:
            raise ValidationError("mark factor needs a schedule and sampled values")
        if not model.fidi.degenerate:
            log_fac += _fidi_row_logs(model.fidi, schedule.times, u)
    if model.aux is not None:
        if aux is None:
            raise ValidationError("aux factor needs aux marks in the data")
        log_fac += _aux_log_density(model.aux, g, aux.discrete, aux.continuous)
    return log_fac


def _with_factors(model: ParametricModel, events: tuple,
                  schedule: SampleSchedule | None, lam: np.ndarray) -> np.ndarray:
    """(n,) ``lam`` times the mark and aux factors of the ``_events`` columns."""
    with np.errstate(over="ignore"):
        return lam * np.exp(_event_log_factors(model, events, schedule))


# ---------------------------------------------------------------------------
# intensities
# ---------------------------------------------------------------------------
def intensity_functional(model: ParametricModel, data,
                         schedule: SampleSchedule | None = None) -> np.ndarray:
    """Sampled-mark intensity functional fidi(u) * aux(l) * ground intensity
    at each of the n points of ``data`` (any ``_events`` form); returns (n,)."""
    ev = _events(model.window, data, schedule)
    return _with_factors(model, ev, schedule, ground_intensity(model, ev[0]))


def conditional_intensity(model: ParametricModel, history, data,
                          schedule: SampleSchedule | None = None) -> np.ndarray:
    """Predictable conditional intensity of a temporally grounded model at
    the n points of ``data``; returns (n,).  ``history``, the sorted event
    times before every query time, does not feed back on the supported rate
    families, but it is validated so the predictability contract is explicit."""
    if model.ground not in ("poisson-t", "loglinear-t"):
        raise ValidationError("model has no temporal ground rate")
    ev = _events(model.window, data, schedule)
    hist = np.asarray(history, dtype=float)
    if np.any(np.diff(hist) < 0):
        raise ValidationError("history must be time-sorted")
    if hist.size and np.any(ev[0][:, -1] <= hist[-1]):
        raise ValidationError("history must precede the evaluation times")
    return _with_factors(model, ev, schedule, ground_intensity(model, ev[0]))


# ---------------------------------------------------------------------------
# likelihoods
# ---------------------------------------------------------------------------
def _compensator(model: ParametricModel, pts, quad_res: int) -> tuple:
    """The midpoint rule for the window integral of the ground Papangelou
    intensity given the (n, D) pattern ``pts``: the ``_design`` of its nodes,
    their cell and the spatial mass each node carries, the integral being
    the sum of the nodes' intensities times the cell times that mass.
    'poisson' has one node, the whole window; 'gibbs' ``quad_res`` nodes per
    ground axis, of mass 1; the temporal families ``quad_res`` times, each
    carrying the midpoint mass of the spatial density (``quad_res`` nodes
    per axis) with scale 1."""
    w = model.window
    if model.ground == "poisson":
        return _design(model, np.zeros((1, 0)), None, None), w.ground_volume, 1.0
    if model.ground == "gibbs":
        nodes, cell = midpoint_rule(w.ground_bounds, quad_res)
        return _design(model, nodes, pts, None), cell, 1.0
    x_nodes, x_cell = midpoint_rule(list(zip(w.lo, w.hi)), quad_res)
    spatial_mass = float(np.sum(_spatial_density(model, x_nodes)) * x_cell)
    t_nodes, dt = midpoint_rule([(0.0, w.t_star)], quad_res)
    # the rows read the time alone; each node's spatial mass replaces its scale
    rows = _design(model, np.column_stack([np.zeros((quad_res, w.dim)), t_nodes]),
                   None, None)[1]
    return (np.ones(quad_res), rows), dt, spatial_mass


def _integral(m: ParametricModel, compensator: tuple) -> float:
    """The ``_compensator`` integral at ``m.theta``."""
    design, cell, mass = compensator
    return float(np.sum(_intensity(m, design)) * cell * mass)


def _loglik_terms(model: ParametricModel, data: Sequence,
                  schedule: SampleSchedule | None, quad_res: int) -> tuple:
    """Build the theta-invariant terms of the Poisson log-likelihood and the
    log pseudo-likelihood once; returns ``evaluate(m)``, sum log lambda(x_i)
    + the log mark and aux factors - the ``_compensator`` integral, at
    ``m.theta`` for a model of the same family, window, spatial density and
    ranges as ``model``; and the design (stat, weights, rows) with which
    that value is const + stat . phi - sum_k weights_k exp(rows_k . phi) in
    the canonical parameters phi: stat sums the ``_design`` rows of the
    data, and weights and rows are those of the ``_compensator`` nodes.
    lambda is the ground Papangelou intensity of each data point given the
    others (a Poisson family's intensity).  A vanishing or non-finite mark
    or aux factor, which no theta changes, raises NumericalError here, and
    a vanishing or non-finite lambda raises it in ``evaluate``."""
    ev = _events(model.window, data, schedule)
    pts = ev[0]
    with np.errstate(divide="ignore"):
        log_fac = float(np.sum(_event_log_factors(model, ev, schedule)))
    if not math.isfinite(log_fac):
        raise NumericalError("data point with a vanishing or non-finite "
                             "mark or aux factor")
    at_data = _design(model, pts, pts, np.arange(len(pts)))
    comp = _compensator(model, pts, quad_res)
    (scale, rows), cell, mass = comp
    design = at_data[1].sum(axis=0), scale * (cell * mass), rows

    def evaluate(m: ParametricModel) -> float:
        lam = _intensity(m, at_data)
        if not np.all(np.isfinite(lam) & (lam > 0.0)):
            raise NumericalError("data point with vanishing intensity")
        return float(np.sum(np.log(lam))) + log_fac - _integral(m, comp)

    return evaluate, design


def _temporal(model: ParametricModel) -> ParametricModel:
    if model.ground not in ("poisson-t", "loglinear-t"):
        raise ValidationError("temporal likelihood needs a temporally grounded model")
    return model


def loglik_temporal(model: ParametricModel, data: Sequence,
                    schedule: SampleSchedule | None = None,
                    quad_res: int = 64) -> float:
    """Temporal log-likelihood sum log(rate) - compensator integral.

    The mark and aux densities enter the event sum only.  The compensator
    is the midpoint sum of the temporal rate over ``quad_res`` times, times
    the midpoint mass of the spatial density (``quad_res`` nodes per axis),
    so the value equals the log Janossy density and log pseudo-likelihood.
    """
    return _loglik_terms(_temporal(model), data, schedule, quad_res)[0](model)


def janossy_density(model: ParametricModel, data: Sequence,
                    schedule: SampleSchedule | None = None,
                    quad_res: int = 64) -> JanossyValue:
    """Sampled Janossy density fidi * aux * ground Janossy, in log space.

    Poisson families give the log-likelihood (``_loglik_terms``), or value
    0 and log_value -inf where an intensity or factor at a data point
    vanishes or is not finite; the pairwise model returns the unnormalized
    beta^n gamma^(pairs) times the factors with ``normalized=False``.
    """
    if model.ground != "gibbs":
        try:
            log_val = _loglik_terms(model, data, schedule, quad_res)[0](model)
        except NumericalError:
            log_val = -math.inf
        return JanossyValue(_exp_sum(log_val), True, log_val)
    ev = _events(model.window, data, schedule)
    g = ev[0]
    # each pair is a neighbour of both its points
    pairs = int(np.sum(_design(model, g, g, np.arange(len(g)))[1][:, 1])) // 2
    with np.errstate(divide="ignore"):
        log_val = (float(np.sum(_event_log_factors(model, ev, schedule)))
                   + len(g) * math.log(model.theta[0]))
        if pairs:
            log_val += pairs * float(np.log(model.theta[1]))
    return JanossyValue(_exp_sum(log_val), False, log_val)


def janossy_total_mass(model: ParametricModel, n_max: int = 30,
                       quad_res: int = 64,
                       mark_grid: np.ndarray | None = None,
                       schedule: SampleSchedule | None = None) -> float:
    """Truncated normalization sum over n of J_n(Y^n) / n!.

    Every factor is computed numerically: the ground mass by quadrature and
    the mark/aux masses by quadrature over their spaces (both equal one for
    normalized densities), so the series checks the whole density stack.
    Location-dependent type probabilities are integrated against the ground
    intensity on the midpoint nodes that then give the ground mass too.
    """
    if model.ground == "gibbs":
        raise ValidationError("gibbs Janossy densities are unnormalized")
    if n_max < 0:
        raise ValidationError(f"n_max must be nonnegative, not {n_max}")
    mass = ground_intensity_mass(model, quad_res)
    mark_mass = 1.0
    if model.fidi is not None and not model.fidi.degenerate:
        if mark_grid is None or schedule is None or len(schedule) != 1:
            raise ValidationError(
                "mark mass quadrature needs a value grid and a k=1 schedule")
        u = np.asarray(mark_grid, dtype=float)
        # the sum below takes the first gap as every step: each value must
        # lie within 1e-9 max(span, 1) of u[0] + k (u[1] - u[0])
        if not (u.ndim == 1 and u.size >= 2 and np.all(np.isfinite(u))
                and u[1] > u[0]
                and np.all(np.abs(u - u[0] - (u[1] - u[0]) * np.arange(u.size))
                           <= 1e-9 * max(u[-1] - u[0], 1.0))):
            raise ValidationError("mark_grid must hold at least two increasing, "
                                  "evenly spaced values")
        mark_mass = float(np.sum(np.exp(_fidi_row_logs(
            model.fidi, schedule.times, u[:, None]))) * (u[1] - u[0]))
    probs = None if model.aux is None else model.aux.discrete_probs
    if callable(probs):
        nodes, cell = midpoint_rule(model.window.ground_bounds, quad_res)
        lam = ground_intensity(model, nodes)
        mass = float(np.sum(lam) * cell)
        lam_total = mark_mass * float(np.sum(lam * np.sum(probs(nodes), axis=1)) * cell)
    else:
        lam_total = mass * mark_mass * (1.0 if probs is None else float(np.sum(probs)))
    return float(sum(math.exp(-mass + n * math.log(lam_total) - math.lgamma(n + 1))
                     if lam_total > 0 else (math.exp(-mass) if n == 0 else 0.0)
                     for n in range(n_max + 1)))


def density_wrt_poisson(model: ParametricModel, data: Sequence,
                        reference: ParametricModel,
                        schedule: SampleSchedule | None = None,
                        quad_res: int = 64) -> float:
    """Likelihood ratio of a finite model against a reference Poisson process.

    The model Janossy density over the reference's, exp(-reference mass)
    times its intensity functionals at the points, formed in log space;
    identically one when model and reference coincide, and with unit mean
    under the reference law.  Needs a finite auxiliary reference measure.
    """
    if reference.ground not in ("poisson", "poisson-t", "loglinear-t"):
        raise ValidationError("reference must be a Poisson family")
    for m in (model, reference):
        if m.aux is not None and not m.aux.measure.finite:
            raise ValidationError("auxiliary reference measure must be finite")
    if model.ground == "gibbs":
        raise ValidationError("model Janossy density is unnormalized")
    log_jan = janossy_density(model, data, schedule, quad_res).log_value
    log_ref = janossy_density(reference, data, schedule, quad_res).log_value
    if not math.isfinite(log_ref):
        raise NumericalError("reference intensity vanishes at a data point")
    return _exp_sum(log_jan - log_ref)


# ---------------------------------------------------------------------------
# Papangelou and pseudo-likelihood
# ---------------------------------------------------------------------------
def papangelou(model: ParametricModel, queries, pattern, own=None,
               schedule: SampleSchedule | None = None) -> np.ndarray:
    """Papangelou conditional intensity lambda(u_j; x minus row own[j]) at
    the m ``queries`` (any ``_events`` form) given the ground array of the
    ``pattern`` x; returns (m,).  own[j] = -1, or own None, leaves no row
    out.  The value is zero where a query coincides with another pattern
    row.  ``functools.partial(papangelou, model)`` is a ``gnz_check`` lambda.
    """
    w = model.window
    ev = _events(w, queries, schedule)
    q, pts = ev[0], _events(w, pattern, None)[0]
    m, n = q.shape[0], pts.shape[0]
    own = np.full(m, -1) if own is None else np.asarray(own)
    if (own.shape != (m,) or own.dtype.kind not in "iu"
            or np.any((own < -1) | (own >= n))):
        raise ValidationError(f"own must be {m} integers in [-1, {n})")
    lam = _intensity(model, _design(model, q, pts, own))
    return np.where(_coincident(w, q, pts, own), 0.0,
                    _with_factors(model, ev, schedule, lam))


def _coincident(w: Window, queries, pts, own) -> np.ndarray:
    """(m,) whether query j is, by ``Window._row_codes``, the ground point
    of a row of the (n, D) ``pts`` other than row own[j]."""
    code = w._row_codes(np.concatenate([pts, queries]))
    cp, cq = code[:len(pts)], code[len(pts):]
    same = np.bincount(cp, minlength=len(code))[cq]
    same[own >= 0] -= cp[own[own >= 0]] == cq[own >= 0]
    return same > 0


def pseudolikelihood(model: ParametricModel, data: Sequence,
                     schedule: SampleSchedule | None = None,
                     quad_res: int = 64) -> float:
    """Log pseudo-likelihood sum log lambda(x_i; data minus x_i) - integral.

    The event sum adds the sampled-mark and aux log densities; the integral
    term is mark-integrated (the fidi density integrates to one), leaving
    the ground Papangelou intensity integrated by the ``_compensator``
    rule (``quad_res`` midpoint nodes per ground axis for 'gibbs'); for a
    Poisson family it is the log-likelihood.
    """
    return _loglik_terms(model, data, schedule, quad_res)[0](model)


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------
def optimize(objective: Callable, theta0, bounds=None, budget: int = 500,
             scheme: str = "custom") -> FitResult:
    """Minimize a black-box objective; the result is never worse than theta0."""
    theta, fval, evals, converged = nelder_mead(objective, theta0, bounds, budget)
    return FitResult(tuple(float(v) for v in theta), float(fval), evals,
                     converged, scheme)


def _fit_newton(model: ParametricModel, terms: tuple, theta0, budget: int,
                scheme: str) -> FitResult:
    """Maximize the likelihood whose ``_loglik_terms`` are ``terms`` by
    ``poisson_newton`` in the canonical parameters phi, from theta0
    (``model.theta`` if None) clipped into the box: the model's bounds
    within the family's domain (rates >= 0, beta at least the smallest
    normal double, gamma at most 1), mapped to phi.  A parameter that did
    not move is returned as its start and one on a bound as that bound;
    ``objective`` is ``evaluate`` at theta-hat and ``iterations`` counts
    the Newton evaluations."""
    evaluate, (stat, weights, rows) = terms
    log = np.array(_CANONICAL[model.ground])
    lo, hi = np.array(model.bounds or [(-np.inf, np.inf)] * log.size, dtype=float).T
    lo = np.where(log, np.maximum(lo, 0.0), lo)
    if model.ground == "gibbs":
        lo[0] = max(lo[0], np.finfo(float).tiny)
        hi[1] = min(hi[1], 1.0)
    start = np.atleast_1d(np.asarray(model.theta if theta0 is None else theta0,
                                     dtype=float))
    if start.shape != log.shape:
        raise ValidationError(f"theta0 must hold {log.size} parameters")
    start = np.clip(start, lo, hi)
    phi_lo, phi_hi, phi0 = lo.copy(), hi.copy(), start.copy()
    with np.errstate(divide="ignore"):
        for v in (phi_lo, phi_hi, phi0):
            v[log] = np.log(v[log])
    phi, evals, converged = poisson_newton(stat, weights, rows, phi0,
                                           list(zip(phi_lo, phi_hi)), budget)
    theta = np.clip(np.where(log, np.exp(phi), phi), lo, hi)
    theta = np.where(phi == phi0, start, theta)
    theta = np.where(phi <= phi_lo, lo, np.where(phi >= phi_hi, hi, theta))
    theta = tuple(float(v) for v in theta)
    return FitResult(theta, evaluate(model.with_theta(theta)), evals, converged,
                     scheme)


def fit_loglik_temporal(model: ParametricModel, data: Sequence,
                        schedule: SampleSchedule | None = None,
                        theta0=None, budget: int = 500,
                        quad_res: int = 64) -> FitResult:
    """Maximum likelihood for temporally grounded models (``_fit_newton``);
    ``objective`` is the maximized log-likelihood."""
    return _fit_newton(model, _loglik_terms(_temporal(model), data, schedule, quad_res),
                       theta0, budget, "mle-temporal")


def fit_janossy(model: ParametricModel, data: Sequence, budget: int = 500) -> FitResult:
    """Maximum Janossy likelihood from ``model.theta`` (``_fit_newton``, as
    the other likelihood fits); ``objective`` is the maximized log J.  A
    mark or aux factor that vanishes at a data point raises NumericalError,
    and a rate of 0 is reached only as a bound.  A 'gibbs' model is a
    ValidationError: its Janossy density is unnormalised."""
    if model.ground == "gibbs":
        raise ValidationError("the Janossy likelihood of the 'gibbs' model is "
                              "unnormalised; fit it by pseudo-likelihood")
    return _fit_newton(model, _loglik_terms(model, data, None, 64), None, budget,
                       "mle-janossy")


def fit_pseudolikelihood(model: ParametricModel, data: Sequence,
                         schedule: SampleSchedule | None = None,
                         theta0=None, budget: int = 500,
                         quad_res: int = 64) -> FitResult:
    """Maximum pseudo-likelihood (the only normalization-free Gibbs fit, by
    ``_fit_newton``); ``objective`` is the maximized log pseudo-likelihood."""
    return _fit_newton(model, _loglik_terms(model, data, schedule, quad_res),
                       theta0, budget, "pseudo")


def least_squares_marks(family: Callable, points, observed, schedule:
                        SampleSchedule, theta0, bounds=None, dt: float = 0.01,
                        t_star: float | None = None, budget: int = 400,
                        torus_simulator: Callable | None = None,
                        seed: int = 0) -> FitResult:
    """Least squares on sampled growth trajectories.

    ``family(theta)`` builds the growth model; ``points`` is (locations,
    births, lifetimes) and ``observed`` the (n, k) matrix of mark values at
    the schedule times.  Fitted trajectories are integrated noise-free
    (the noise term has zero mean) and scored by the summed squared error
    over points and sample times.  The n * k residuals ``observed -
    prediction`` (a prediction is zero where its point is not alive) are
    minimized by projected Levenberg-Marquardt, and ``iterations`` counts
    their evaluations, the finite-difference Jacobian's included.

    A ``torus_simulator`` asks for an edge correction: the fitted model is
    re-simulated on an enlarged torus via ``torus_simulator(theta, seed + 1)``,
    which must return extra (locations, births, lifetimes) outside the
    observation window; those points are imputed as missing neighbours and
    the objective re-minimized once from the first fit; ``iterations`` then
    counts the evaluations of both fits.
    """
    xs, births, lifetimes = points
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    observed = np.atleast_2d(np.asarray(observed, dtype=float))
    if t_star is None:
        t_star = float(schedule.times[-1])
    schedule.validate_within(t_star)
    n = xs.shape[0]
    if observed.shape != (n, len(schedule)):
        raise ValidationError("observed matrix must be n points by k times")
    births = np.asarray(births, dtype=float)
    times = np.asarray(schedule.times, dtype=float)

    def make_residuals(extra):
        if extra is None:
            all_xs, all_b, all_l = xs, births, lifetimes
        else:
            ex, eb, el = extra
            all_xs = np.vstack([xs, np.atleast_2d(ex)])
            all_b = np.concatenate([births, eb])
            all_l = np.concatenate([lifetimes, el])
        # the plan (alive matrix and interaction operator) depends on theta
        # only through the interaction, so it is rebuilt only when that moves
        built = {}

        def residuals(theta):
            model = family(theta)
            if not isinstance(model, GrowthInteraction):
                raise ValidationError("family must build a growth model")
            model = replace(model, noise=("zero",))
            key = (model.interaction, model.interaction_cutoff)
            if built.get("key") != key:
                grid, args = _gi_plan_args((all_xs, all_b, all_l), model, dt, t_star)
                built.update(key=key, grid=grid, plan=_kernels.GrowthPlan(*args))
            plan = built["plan"]
            vals, negative, d = plan.integrate(
                *_gi_run_args(model, plan.n, plan.nsteps, seed))
            _check_negative(model, negative)
            if not np.all(np.isfinite(vals)):
                raise ValidationError("path values must be finite")
            # fitted step paths read like the observed marks (MarkTable.at)
            pred = _evaluate(built["grid"], vals[:, :n].T, births[:, None],
                             d[:n, None], "step", times)
            return (observed - pred).ravel()

        return residuals

    def fit(residuals, start):
        theta, fval, evals, converged = gauss_newton(residuals, start, bounds,
                                                     budget)
        return FitResult(tuple(float(v) for v in theta), float(fval), evals,
                         converged, "least-squares")

    res = fit(make_residuals(None), theta0)
    if torus_simulator is None:
        return res
    extra = torus_simulator(np.asarray(res.theta), seed + 1)
    refit = fit(make_residuals(extra), res.theta)
    return replace(refit, iterations=res.iterations + refit.iterations)

