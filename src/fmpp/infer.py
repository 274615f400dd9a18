"""Model-level densities and the estimation schemes.

Intensity functionals and conditional intensities for parametric ground
models with sampled-mark and auxiliary factors, Janossy densities and
densities with respect to a reference Poisson process, Papangelou
conditional intensities, and four fitting routes: temporal maximum
likelihood, finite-sample (Janossy) likelihood, maximum pseudo-likelihood,
and least squares on sampled mark trajectories.  Each takes its points as
columns (a ``Configuration``, a list of ``Observation`` or an (n, D) ground
array).  The ground Papangelou intensity is one theta-invariant build, the
neighbour counts without each query's own row, and one evaluation, shared
by ``papangelou``, the likelihoods and the pairwise Janossy density;
``ground.PairwiseGibbs`` checks the pairwise model's parameters and
``_kernels._in_range`` is its neighbourhood.  The likelihoods are one
builder, sum log lambda - integral of lambda with one compensator rule.
The likelihood fits share one derivative-free simplex optimizer; least
squares minimizes its residual vector by projected Levenberg-Marquardt.

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
from ._optim import gauss_newton, nelder_mead
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

GROUND_FAMILIES = ("poisson", "poisson-t", "loglinear-t", "gibbs")


@dataclass(frozen=True)
class ParametricModel:
    """Parametric ground model plus marking, with free parameters theta.

    ground families:
      'poisson'      homogeneous rate theta[0] per unit ground volume;
      'poisson-t'    temporally grounded, constant temporal rate theta[0];
      'loglinear-t'  temporal rate exp(theta[0] + theta[1] t);
      'gibbs'        pairwise interaction, theta = (beta, gamma), fixed
                     ranges ``interaction_range``/``temporal_range``.

    ``spatial`` is the spatial density family of temporally grounded
    models: ('uniform',) or ('loglinear-x', c1, ..., cd), normalized on the
    window.  ``aux``/``fidi`` supply the auxiliary and sampled-mark density
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
        if self.ground not in GROUND_FAMILIES:
            raise ValidationError(f"unknown ground family {self.ground!r}")
        theta = tuple(float(v) for v in self.theta)
        object.__setattr__(self, "theta", theta)
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
        if self.spatial[0] not in ("uniform", "loglinear-x"):
            raise ValidationError(f"unknown spatial density family {self.spatial[0]!r}")

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


def temporal_rate(model: ParametricModel, t) -> np.ndarray:
    """Temporal ground conditional intensity of the supported families at
    (m,) times; returns (m,)."""
    t = np.asarray(t, dtype=float)
    if model.ground == "poisson-t":
        return np.full(t.shape, float(model.theta[0]))
    if model.ground == "loglinear-t":
        a, b = model.theta[0], model.theta[1]
        return np.exp(a + b * t)
    raise ValidationError("model has no temporal ground rate")


def ground_intensity(model: ParametricModel, g) -> np.ndarray:
    """First-order ground intensity at (m, D) ground locations, each row x
    or (x, t); returns (m,)."""
    g = np.asarray(g, dtype=float)
    if model.ground == "poisson":
        return np.full(g.shape[0], float(model.theta[0]))
    if model.ground in ("poisson-t", "loglinear-t"):
        return (temporal_rate(model, g[:, -1])
                * _spatial_density(model, g[:, : model.window.dim]))
    raise ValidationError("ground intensity has no closed form for this family")


def ground_intensity_mass(model: ParametricModel, quad_res: int = 64) -> float:
    """Integral of the ground intensity over the window: the likelihoods'
    ``_compensator`` (midpoint rule with ``quad_res`` nodes per axis)."""
    if model.ground == "gibbs":
        raise ValidationError("intensity mass undefined for this family")
    return _compensator(model, None, quad_res)(model)


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
def _compensator(model: ParametricModel, pts, quad_res: int) -> Callable:
    """Build the window integral of the ground Papangelou intensity once;
    returns ``integral(m)`` at ``m.theta`` for a model like ``model``:
    theta |W| for 'poisson', the midpoint sum over ``quad_res`` times of
    the temporal rate times the midpoint mass of the spatial density for
    the temporal families, and for 'gibbs' the midpoint sum (``quad_res``
    nodes per ground axis) given the (n, D) pattern ``pts``."""
    w = model.window
    if model.ground == "poisson":
        return lambda m: float(m.theta[0]) * w.ground_volume
    if model.ground == "gibbs":
        nodes, cell = midpoint_rule(w.ground_bounds, quad_res)
        at_nodes = _papangelou_terms(model, nodes, pts, None)
        return lambda m: float(np.sum(_ground_papangelou(m, at_nodes)) * cell)
    x_nodes, x_cell = midpoint_rule(list(zip(w.lo, w.hi)), quad_res)
    spatial_mass = float(np.sum(_spatial_density(model, x_nodes)) * x_cell)
    t_nodes, dt = midpoint_rule([(0.0, w.t_star)], quad_res)
    t_nodes = t_nodes[:, 0]
    return lambda m: float(np.sum(temporal_rate(m, t_nodes)) * dt * spatial_mass)


def _loglik_terms(model: ParametricModel, data: Sequence,
                  schedule: SampleSchedule | None, quad_res: int) -> Callable:
    """Build the theta-invariant terms of the Poisson log-likelihood and the
    log pseudo-likelihood once; returns ``evaluate(m)``, sum log lambda(x_i)
    + the log mark and aux factors - the ``_compensator`` integral, at
    ``m.theta`` for a model of the same family, window, spatial density and
    ranges as ``model``.  lambda is the ground Papangelou intensity of each
    data point given the others (a Poisson family's intensity); a vanishing
    or non-finite lambda or factor raises NumericalError."""
    ev = _events(model.window, data, schedule)
    pts = ev[0]
    with np.errstate(divide="ignore"):
        log_fac = float(np.sum(_event_log_factors(model, ev, schedule)))
    at_data = _papangelou_terms(model, pts, pts, np.arange(len(pts)))
    integral = _compensator(model, pts, quad_res)

    def evaluate(m: ParametricModel) -> float:
        lam = _ground_papangelou(m, at_data)
        if not (math.isfinite(log_fac) and np.all(np.isfinite(lam) & (lam > 0.0))):
            raise NumericalError("data point with vanishing intensity")
        return float(np.sum(np.log(lam))) + log_fac - integral(m)

    return evaluate


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
    return _loglik_terms(_temporal(model), data, schedule, quad_res)(model)


def _janossy_terms(model: ParametricModel, data: Sequence,
                   schedule: SampleSchedule | None, quad_res: int) -> Callable:
    """Build the theta-invariant terms of ``janossy_density`` once; returns
    ``evaluate(m)``, the log density at ``m.theta`` for a model like
    ``model``: the ``_loglik_terms`` of a Poisson family, and log beta^n
    gamma^pairs plus the log factors for the pairwise model."""
    if model.ground != "gibbs":
        return _loglik_terms(model, data, schedule, quad_res)
    ev = _events(model.window, data, schedule)
    g = ev[0]
    with np.errstate(divide="ignore"):
        log_fac = float(np.sum(_event_log_factors(model, ev, schedule)))
    # each pair is a neighbour of both its points
    pairs = int(np.sum(_papangelou_terms(model, g, g, np.arange(len(g))))) // 2

    def evaluate(m: ParametricModel) -> float:
        with np.errstate(divide="ignore"):
            log_val = log_fac + g.shape[0] * math.log(m.theta[0])
            return log_val + pairs * float(np.log(m.theta[1])) if pairs else log_val

    return evaluate


def janossy_density(model: ParametricModel, data: Sequence,
                    schedule: SampleSchedule | None = None,
                    quad_res: int = 64) -> JanossyValue:
    """Sampled Janossy density fidi * aux * ground Janossy, in log space.

    Poisson families give the log-likelihood (``_loglik_terms``), or value
    0 and log_value -inf where an intensity or factor at a data point
    vanishes or is not finite; the pairwise model returns the unnormalized
    beta^n gamma^(pairs) times the factors with ``normalized=False``.
    """
    evaluate = _janossy_terms(model, data, schedule, quad_res)
    try:
        log_val = evaluate(model)
    except NumericalError:
        log_val = -math.inf
    return JanossyValue(_exp_sum(log_val), model.ground != "gibbs", log_val)


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
    mass = ground_intensity_mass(model, quad_res)
    mark_mass = 1.0
    if model.fidi is not None and not model.fidi.degenerate:
        if mark_grid is None or schedule is None or len(schedule) != 1:
            raise ValidationError(
                "mark mass quadrature needs a value grid and a k=1 schedule")
        u = np.asarray(mark_grid, dtype=float)
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
def _papangelou_terms(model: ParametricModel, queries, pts, own) -> np.ndarray:
    """The theta-invariant ground Papangelou terms of the (m, D) queries,
    query j given the (n, D) pattern without row own[j] (own may be None):
    the (m,) neighbour counts of the pairwise model, the (m, 2) times and
    spatial densities of a temporal family, else the queries."""
    w = model.window
    if model.ground in ("poisson-t", "loglinear-t"):
        return np.column_stack([queries[:, -1],
                                _spatial_density(model, queries[:, : w.dim])])
    if model.ground != "gibbs":
        return queries
    return _kernels.neighbour_counts(
        queries, pts, w.sides.astype(float), w.torus,
        float(model.interaction_range),
        _kernel_time_range(model.temporal_range, w), w.dim, own)


def _ground_papangelou(m: ParametricModel, terms: np.ndarray) -> np.ndarray:
    """(m,) ground Papangelou intensity at ``m.theta`` of ``_papangelou_terms``."""
    if m.ground == "gibbs":
        return m.theta[0] * np.power(m.theta[1], terms)
    if m.ground == "poisson":
        return ground_intensity(m, terms)
    return temporal_rate(m, terms[:, 0]) * terms[:, 1]


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
    lam = _ground_papangelou(model, _papangelou_terms(model, q, pts, own))
    same = _kernels.neighbour_counts(q, pts, w.sides.astype(float), w.torus,
                                     0.0, 0.0, w.dim, own)
    return np.where(same > 0, 0.0, _with_factors(model, ev, schedule, lam))


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
    return _loglik_terms(model, data, schedule, quad_res)(model)


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------
def optimize(objective: Callable, theta0, bounds=None, budget: int = 500,
             scheme: str = "custom") -> FitResult:
    """Minimize a black-box objective; the result is never worse than theta0."""
    theta, fval, evals, converged = nelder_mead(objective, theta0, bounds, budget)
    return FitResult(tuple(float(v) for v in theta), float(fval), evals,
                     converged, scheme)


def _maximize(model: ParametricModel, evaluate: Callable, theta0, budget: int,
              scheme: str) -> FitResult:
    """Maximize ``evaluate(model.with_theta(theta))`` within the model's
    bounds; a NumericalError scores the 1e12 penalty, and ``objective`` is
    the maximized value."""
    theta0 = model.theta if theta0 is None else theta0

    def objective(theta):
        try:
            return -evaluate(model.with_theta(theta))
        except NumericalError:
            return 1e12

    res = optimize(objective, theta0, model.bounds or None, budget, scheme)
    return replace(res, objective=-res.objective)


def fit_loglik_temporal(model: ParametricModel, data: Sequence,
                        schedule: SampleSchedule | None = None,
                        theta0=None, budget: int = 500,
                        quad_res: int = 64) -> FitResult:
    """Maximum likelihood for temporally grounded models; ``objective`` is
    the maximized log-likelihood."""
    return _maximize(model, _loglik_terms(_temporal(model), data, schedule, quad_res),
                     theta0, budget, "mle-temporal")


def fit_janossy(model: ParametricModel, data: Sequence, budget: int = 500) -> FitResult:
    """Maximum Janossy likelihood from ``model.theta``; ``objective`` is the
    maximized log J, and a vanishing intensity at a data point scores the
    1e12 penalty, as in the other likelihood fits."""
    return _maximize(model, _janossy_terms(model, data, None, 64), None, budget,
                     "mle-janossy")


def fit_pseudolikelihood(model: ParametricModel, data: Sequence,
                         schedule: SampleSchedule | None = None,
                         theta0=None, budget: int = 500,
                         quad_res: int = 64) -> FitResult:
    """Maximum pseudo-likelihood (the only normalization-free Gibbs fit);
    ``objective`` is the maximized log pseudo-likelihood."""
    return _maximize(model, _loglik_terms(model, data, schedule, quad_res),
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

