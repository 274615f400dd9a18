"""Functional-mark models and marking strategies.

Covers deterministic marks, Brownian/diffusion reference marks (random
labelling), the coupled growth-interaction system (deterministic RK4 or
Euler-Maruyama with noise), geostatistical marking from a space-time
Gaussian field, intensity-dependent marks read off a Cox driving field,
and the finite-dimensional (fidi) and auxiliary-mark densities that feed
the likelihoods.

Marks attach to a configuration's columns: ``attach_marks(window,
locations, auxs, model, grid, seed)`` takes the (n, D) ground array and the
``AuxTable`` of the n aux marks and returns their cadlag ``MarkTable``, which
``make_configuration`` (the ``Configuration`` constructor) joins to them.
Every model builds its marks as one (n, k) value matrix on the shared grid
and validates it once through ``CadlagPath.rows``; the table holds that
matrix, and its rows are the per-point paths.

Growth, interaction and noise functions are chosen from a named registry
with numeric parameter vectors (arbitrary code injection is out of scope
for config files; library callers may also pass callables where noted).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import _kernels
from .core import (
    AuxMeasure,
    AuxTable,
    CadlagPath,
    Configuration,
    MarkTable,
    ReferenceSpec,
    SampleSchedule,
    Window,
    _aux_table,
    _shaped,
    ground_array,
)
from .errors import NumericalError, ValidationError
from .ground import GridField, _check_kernel, _cholesky, _correlation

__all__ = [
    "Deterministic",
    "Wiener",
    "Diffusion",
    "GrowthInteraction",
    "Geostatistical",
    "IntensityDependent",
    "FidiDensitySpec",
    "AuxDensitySpec",
    "DEGENERATE_DENSITY",
    "GROWTH_REGISTRY",
    "INTERACTION_REGISTRY",
    "NOISE_REGISTRY",
    "DETERMINISTIC_REGISTRY",
    "attach_marks",
    "gi_integrate",
    "geostat_marking",
    "intensity_dependent_marking",
    "fidi_density_eval",
    "aux_density_eval",
    "brownian_fidi",
    "deterministic_fidi",
    "make_configuration",
]


# ---------------------------------------------------------------------------
# registries (names resolvable from config files)
# ---------------------------------------------------------------------------
# growth g(m; a, b)
GROWTH_REGISTRY = {"linear": 0, "logistic": 1}
# interaction h(point_i, point_j, m_i, m_j; c, r): symmetric distance decay
INTERACTION_REGISTRY = {"none": 0, "gauss": 1, "overlap": 2}
# noise sigma(m; s0)
NOISE_REGISTRY = {"zero": 0, "const": 1, "prop": 2}
# parameter count of each growth, interaction and noise function, by code
_PARAM_COUNTS = {"growth": (2, 2), "interaction": (0, 2, 1), "noise": (0, 1, 1)}
# deterministic mark families f*(ground (n, D), auxs, grid (k,); params) -> (n, k)
DETERMINISTIC_REGISTRY = {
    "constant": lambda g, auxs, t, p: np.full((len(g), t.size), p[0], dtype=float),
    "linear": lambda g, auxs, t, p: np.tile(p[0] + p[1] * t, (len(g), 1)),
}


def _registry_entry(registry, spec, what):
    name = spec[0]
    if name not in registry:
        raise ValidationError(f"unknown {what} function {name!r}")
    return registry[name], np.asarray(spec[1:], dtype=float)


# ---------------------------------------------------------------------------
# mark model descriptors
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Deterministic:
    """M_i(t) = f*(g_i, l_i, t): registry name with params, or a callable of
    the (n, D) ground, the ``AuxTable`` of the n aux marks and the (k,) grid
    returning (n, k)."""

    fn: object = ("constant", 1.0)


@dataclass(frozen=True)
class Wiener:
    """Independent scaled Brownian marks from 0 (random labelling)."""

    scale: float = 1.0

    def __post_init__(self):
        if not 0 <= self.scale < math.inf:
            raise ValidationError("Wiener scale must be nonnegative and finite")


@dataclass(frozen=True)
class Diffusion:
    """dM = a(M, t) dt + b(M, t) dW from m0, Euler-Maruyama on the grid;
    ``drift`` and ``diffusion`` map the (n,) column of marks and t to (n,)."""

    drift: Callable
    diffusion: Callable
    m0: float = 0.0


@dataclass(frozen=True)
class GrowthInteraction:
    """Coupled growth system dM_i = g(M_i) - sum_j h(i, j) (+ noise).

    growth: ("linear", a, b) for a(b - m) or ("logistic", a, b);
    interaction: ("none",), ("gauss", c, r) for c m_i m_j exp(-(d/r)^2), or
    ("overlap", c) for c max(0, m_i + m_j - d); noise: ("zero",),
    ("const", s0) or ("prop", s0).  Marks vanish outside [birth, death).
    ``negative_policy`` says what to do when noise drives a mark negative:
    clamp at zero (default), absorb (kill the point) or error.  The
    interaction sum runs over all alive neighbours; ``interaction_cutoff``
    truncates the kernel, so pairs farther apart than it do not interact.
    For overlap it also bounds memory: the pair list holds only the pairs
    within the cutoff, found on a cell grid.  The gauss operator stays a
    dense n x n matrix, O(n^2) with or without the cutoff.
    """

    growth: tuple = ("linear", 1.0, 1.0)
    interaction: tuple = ("none",)
    noise: tuple = ("zero",)
    m0: float = 0.0
    negative_policy: str = "clamp"
    interaction_cutoff: float | None = None

    def __post_init__(self):
        if not 0 <= self.m0 < math.inf:
            raise ValidationError("initial mark value must be nonnegative and finite")
        if self.negative_policy not in ("clamp", "absorb", "error"):
            raise ValidationError("negative_policy must be clamp|absorb|error")
        for registry, spec, what in (
            (GROWTH_REGISTRY, self.growth, "growth"),
            (INTERACTION_REGISTRY, self.interaction, "interaction"),
            (NOISE_REGISTRY, self.noise, "noise"),
        ):
            code, params = _registry_entry(registry, spec, what)
            if params.size != _PARAM_COUNTS[what][code]:
                raise ValidationError(f"{what} function {spec[0]!r} takes "
                                      f"{_PARAM_COUNTS[what][code]} parameters")
            if what != "noise" and not all(map(math.isfinite, params)):
                raise ValidationError(f"{what} parameters must be finite")
        if self.noise[0] != "zero" and not 0 <= self.noise[1] < math.inf:
            raise ValidationError("noise scale must be nonnegative and finite")
        # the gauss kernel exp(-(d/r)^2) needs r > 0
        if self.interaction[0] == "gauss" and not self.interaction[2] > 0:
            raise ValidationError("gauss interaction range must be positive")
        if self.interaction_cutoff is not None and not self.interaction_cutoff > 0:
            raise ValidationError("interaction_cutoff must be positive")


@dataclass(frozen=True)
class Geostatistical:
    """Marks sampled from one space-time Gaussian field at the point locations.

    kernel = (family, variance, spatial range, temporal range) with family
    'exponential' or 'gaussian'; separable in space and time.  When
    ``per_class`` is true, each discrete aux class gets its own independent
    field copy.  A callable ``mean`` maps (n, d) locations and the grid to (n, k).
    """

    mean: object = 0.0
    kernel: tuple = ("exponential", 1.0, 0.3, 0.3)
    per_class: bool = False

    def __post_init__(self):
        _check_kernel(self.kernel)


@dataclass(frozen=True)
class IntensityDependent:
    """M_i(t) = driving-intensity field at (X_i, t); needs a Cox field."""

    field: GridField | None = None


# ---------------------------------------------------------------------------
# mark attachment
# ---------------------------------------------------------------------------
def attach_marks(window: Window, locations, auxs: Sequence, model, grid,
                 seed) -> MarkTable:
    """Generate one cadlag mark per ground point, as one ``MarkTable``.

    ``locations`` is the (n, D) ground array of a configuration on
    ``window`` (event time last when temporal) and ``auxs`` its n aux
    marks (an ``AuxTable`` or ``AuxMark`` sequence).  ``seed`` is anything
    ``np.random.default_rng`` accepts (int or ``SeedSequence``).  The marks
    live on [0, t_star], with t_star the window's horizon, or ``grid[-1]``
    on a spatial window; the grid must lie within it.  Independent-marking models draw each mark
    independently; growth-interaction marks are coupled, need birth times
    and lifetime aux marks, and are integrated on the uniform grid 0, dt,
    .., t_star, which ``grid`` must be.
    """
    locations = ground_array(window, locations)
    auxs = _aux_table(auxs)
    if len(auxs) != len(locations):
        raise ValidationError("attach_marks needs one aux mark per location")
    grid = np.asarray(grid, dtype=float)
    rng = np.random.default_rng(seed)
    d, temporal = window.dim, window.is_temporal
    t_star = window.t_star if temporal else float(grid[-1])
    xs = locations[:, :d]

    if isinstance(model, Deterministic):
        if callable(model.fn):
            values = model.fn(locations, auxs, grid)
        else:
            family, params = _registry_entry(DETERMINISTIC_REGISTRY, model.fn, "mark")
            values = family(locations, auxs, grid, params)
        return CadlagPath.rows(grid, _shaped(values, (len(auxs), grid.size), "fn"),
                               None, "step", t_star)
    if isinstance(model, Wiener):
        steps = np.sqrt(np.diff(grid)) * rng.standard_normal((len(auxs),
                                                              len(grid) - 1))
        values = np.zeros((len(auxs), len(grid)))
        np.cumsum(steps, axis=1, out=values[:, 1:])
        return CadlagPath.rows(grid, model.scale * values, None, "step", t_star)
    if isinstance(model, Diffusion):
        # one draw for every row: the same numbers as a draw per point
        noise = rng.standard_normal((len(auxs), len(grid) - 1))
        values = np.empty((len(auxs), len(grid)))
        values[:, 0] = model.m0
        for j in range(len(grid) - 1):
            dt, m = grid[j + 1] - grid[j], values[:, j]
            values[:, j + 1] = (m + model.drift(m, grid[j]) * dt
                                + model.diffusion(m, grid[j]) * math.sqrt(dt)
                                * noise[:, j])
        return CadlagPath.rows(grid, values, None, "step", t_star)
    if isinstance(model, GrowthInteraction):
        if not temporal:
            raise ValidationError("growth-interaction marks need birth times")
        lifetimes = _lifetimes(auxs)
        if lifetimes is None:
            raise ValidationError("growth-interaction marks need lifetime aux marks")
        if grid.size < 2 or not np.allclose(grid, np.linspace(0.0, t_star, grid.size),
                                            rtol=0.0, atol=1e-9 * max(t_star, 1.0)):
            raise ValidationError(
                "growth-interaction marks need a grid 0, dt, .., t_star")
        return gi_integrate((xs, locations[:, d], lifetimes), model,
                            float(grid[1] - grid[0]), seed, t_star)
    if isinstance(model, Geostatistical):
        classes = None
        if model.per_class:
            classes = auxs.discrete
            if np.any(classes == 0):
                raise ValidationError("per-class marking needs discrete aux marks")
        return geostat_marking(xs, model, grid, seed, t_star, classes)
    if isinstance(model, IntensityDependent):
        if model.field is None:
            raise ValidationError("intensity-dependent marking needs the Cox field")
        return intensity_dependent_marking(model.field, xs, grid)
    raise ValidationError(f"unknown mark model {type(model).__name__}")


def _lifetimes(auxs: AuxTable):
    """The (n,) first continuous values of the aux marks, the lifetimes,
    or None when a mark has none."""
    first = auxs.continuous[:, :1].ravel()
    return None if first.size != len(auxs) or np.any(np.isnan(first)) else first


def gi_integrate(points, model: GrowthInteraction, step: float, seed,
                 t_star: float) -> MarkTable:
    """Integrate the coupled growth system on the global grid 0..t_star.

    ``points`` is (locations (n,d), births (n,), lifetimes (n,)).  The
    deterministic system (zero noise) uses classical RK4 and is bitwise
    reproducible; with noise an Euler-Maruyama step of exactly the grid
    step is used.  The interaction sum runs over alive neighbours only.
    Marks start at m0 at the first grid time after birth and vanish
    outside [birth, death), death = min(birth + lifetime, t_star).
    """
    grid, vals, births, deaths = _gi_values(points, model, step, seed, t_star)
    # absorption moves the death time forward; supports follow it
    return CadlagPath.rows(grid, vals.T, np.column_stack([births, deaths]),
                           "step", t_star)


def _gi_values(points, model: GrowthInteraction, step: float, seed,
               t_star: float):
    """``gi_integrate`` as arrays: the grid, the (nsteps+1, n) value matrix,
    the births and the death times after absorption."""
    grid, plan = _gi_plan_args(points, model, step, t_star)
    xs, births, deaths, dt, nsteps, icode, ip, cutoff = plan
    m0, gcode, gp, scode, sp, normals, clamp_code = _gi_run_args(
        model, xs.shape[0], nsteps, seed)
    if xs.shape[0] == 0:
        return grid, np.zeros((nsteps + 1, 0)), births, deaths
    vals, negative, deaths_out = _kernels.gi_integrate_values(
        xs, births, deaths, m0, dt, nsteps, gcode, gp, icode, ip, scode, sp,
        normals, clamp_code, cutoff)
    _check_negative(model, negative)
    return grid, vals, births, deaths_out


def _gi_plan_args(points, model: GrowthInteraction, step: float,
                  t_star: float):
    """The grid and the ``_kernels.GrowthPlan`` arguments of a growth
    integration: locations, births, deaths before absorption (birth +
    lifetime, at most t_star), step, step count and the interaction."""
    xs, births, lifetimes = points
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    births = np.asarray(births, dtype=float)
    lifetimes = np.asarray(lifetimes, dtype=float)
    nsteps = int(round(t_star / step)) if step > 0 else 0
    if abs(nsteps * step - t_star) > 1e-9 * max(t_star, 1.0) or nsteps < 1:
        raise ValidationError("step must divide the mark horizon t_star")
    grid = np.arange(nsteps + 1) * step
    deaths = np.minimum(births + lifetimes, t_star)
    icode, ip = _registry_entry(INTERACTION_REGISTRY, model.interaction, "interaction")
    cutoff = -1.0 if model.interaction_cutoff is None else float(model.interaction_cutoff)
    return grid, (xs, births, deaths, float(step), nsteps, icode, ip, cutoff)


def _gi_run_args(model: GrowthInteraction, n: int, nsteps: int, seed):
    """The ``GrowthPlan.integrate`` arguments of the model: m0, growth,
    noise with its (nsteps, n) normals drawn from ``seed`` (None without
    noise), and the negative policy."""
    gcode, gp = _registry_entry(GROWTH_REGISTRY, model.growth, "growth")
    scode, sp = _registry_entry(NOISE_REGISTRY, model.noise, "noise")
    normals = (None if scode == 0 else
               np.random.default_rng(seed).standard_normal((nsteps, n)))
    clamp_code = {"clamp": 0, "absorb": 1, "error": 2}[model.negative_policy]
    return float(model.m0), gcode, gp, scode, sp, normals, clamp_code


def _check_negative(model: GrowthInteraction, negative: bool) -> None:
    if negative and model.negative_policy == "error":
        raise NumericalError("a mark went negative (negative_policy error)")


def geostat_marking(locations, model: Geostatistical, grid, seed,
                    t_star: float | None = None, classes=None) -> MarkTable:
    """One joint Gaussian draw of the field at all (location, grid time) pairs.

    Uses the separable Kronecker structure cov = C_space x C_time, so a draw
    is L_s Z L_t' with Cholesky factors of the two marginals.  With
    ``classes`` the draw is repeated independently per discrete class.
    """
    locations = np.atleast_2d(np.asarray(locations, dtype=float))
    grid = np.asarray(grid, dtype=float)
    if t_star is None:
        t_star = float(grid[-1])
    n, k = locations.shape[0], grid.size
    if n == 0:
        return CadlagPath.rows(grid, np.empty((0, k)), None, "step", t_star)
    fam, var = model.kernel[0], model.kernel[1]
    rho_s = model.kernel[2]
    rho_t = model.kernel[3] if len(model.kernel) > 3 else rho_s
    rng = np.random.default_rng(seed)
    mean = (_shaped(model.mean(locations, grid), (n, k), "mean")
            if callable(model.mean) else np.full((n, k), float(model.mean)))
    if var == 0.0:
        draws = mean
    else:
        # both factors are unit-diagonal correlations
        dx = locations[:, None, :] - locations[None, :, :]
        hs = np.sqrt(np.sum(dx * dx, axis=-1)) / rho_s
        ht = np.abs(grid[:, None] - grid[None, :]) / rho_t
        Ls = _cholesky(_correlation(fam, hs), 1.0)
        Lt = _cholesky(_correlation(fam, ht), 1.0)
        labels = np.zeros(n) if classes is None else np.asarray(classes)
        draws = mean.copy()
        for cls in np.unique(labels):
            z = math.sqrt(var) * (Ls @ rng.standard_normal((n, k)) @ Lt.T)
            draws[labels == cls] += z[labels == cls]
    return CadlagPath.rows(grid, draws, None, "step", t_star)


def intensity_dependent_marking(field: GridField, locations, grid) -> MarkTable:
    """Marks M_i(t) = field(X_i, t), read off the nearest field cell, on
    [0, t_star] with t_star the field window's horizon (``grid[-1]`` on a
    spatial window)."""
    locations = np.atleast_2d(np.asarray(locations, dtype=float))
    grid = np.asarray(grid, dtype=float)
    w = field.window
    xs = locations[:, : w.dim]
    n, k = xs.shape[0], grid.size
    if w.is_temporal:
        # every (point, grid time) pair in one lookup
        at = np.column_stack([np.repeat(xs, k, axis=0), np.tile(grid, n)])
        values = field(at).reshape(n, k)
    else:
        values = np.repeat(field(xs)[:, None], k, axis=1)
    return CadlagPath.rows(grid, values, None, "step",
                           w.t_star if w.is_temporal else float(grid[-1]))


# ---------------------------------------------------------------------------
# fidi and auxiliary densities
# ---------------------------------------------------------------------------
class _Degenerate:
    """Sentinel for point-mass mark laws, which have no density w.r.t. a
    diffuse reference; downstream likelihoods drop the mark factor."""

    def __repr__(self):
        return "DEGENERATE_DENSITY"


DEGENERATE_DENSITY = _Degenerate()


@dataclass(frozen=True)
class FidiDensitySpec:
    """Markov fidi law: initial density at s_1 plus transition densities.

    ``initial(s1, u)`` and ``transition(t, s, u_t, u_s)`` take (n,) columns
    of per-point values and return the (n,) log densities, one per point;
    ``degenerate`` marks point-mass laws (deterministic marks).
    """

    initial: Callable | None = None
    transition: Callable | None = None
    degenerate: bool = False
    label: str = ""

    def __post_init__(self):
        if not self.degenerate and (self.initial is None or self.transition is None):
            raise ValidationError("non-degenerate fidi spec needs both densities")


def _gauss_logpdf(u, mean, var):
    return -0.5 * np.log(2.0 * np.pi * var) - 0.5 * (u - mean) ** 2 / var


def brownian_fidi(scale: float = 1.0, start: float = 0.0) -> FidiDensitySpec:
    """Fidi densities of independent scaled Brownian marks started at
    ``start`` at time zero."""
    if scale <= 0:
        raise ValidationError("Brownian scale must be positive")
    var0 = scale * scale

    def initial(s1, u):
        if s1 <= 0:
            raise ValidationError("Brownian fidi undefined at s1 = 0")
        return _gauss_logpdf(np.asarray(u, dtype=float), start, var0 * s1)

    def transition(t, s, u_t, u_s):
        if t <= s:
            raise ValidationError("transition needs t > s")
        return _gauss_logpdf(np.asarray(u_t, dtype=float),
                             np.asarray(u_s, dtype=float), var0 * (t - s))

    return FidiDensitySpec(initial, transition, label=f"brownian(scale={scale})")


def deterministic_fidi() -> FidiDensitySpec:
    return FidiDensitySpec(degenerate=True, label="deterministic")


def _exp_sum(logs) -> float:
    """exp of the sum of log densities, inf where it overflows."""
    with np.errstate(over="ignore"):
        return float(np.exp(np.sum(logs)))


def _fidi_row_logs(spec: FidiDensitySpec, times, u) -> np.ndarray:
    """(n,) log joint fidi density of each row of the (n, k) value matrix
    ``u`` sampled at the k ``times``: one ``initial`` and k - 1
    ``transition`` calls on whole columns, summed in log space."""
    u = np.atleast_2d(np.asarray(u, dtype=float))
    if u.shape[1] != len(times):
        raise ValidationError("value matrix has wrong number of sample columns")
    logs = np.zeros(u.shape[0])
    logs += spec.initial(times[0], u[:, 0])
    for j in range(1, len(times)):
        logs += spec.transition(times[j], times[j - 1], u[:, j], u[:, j - 1])
    return logs


def fidi_density_eval(spec: FidiDensitySpec, schedule: SampleSchedule, u):
    """Joint fidi density f^{s_1}(u_1) prod p_{s_j, s_{j-1}}(u_j; u_{j-1}).

    ``u`` is the (n, k) matrix of sampled values (n points, k times); the
    rows multiply in log space.  Point-mass laws give DEGENERATE_DENSITY.
    """
    if spec.degenerate:
        return DEGENERATE_DENSITY
    return _exp_sum(_fidi_row_logs(spec, schedule.times, u))


@dataclass(frozen=True)
class AuxDensitySpec:
    """Density of the auxiliary marks w.r.t. the declared measure; the
    points' aux marks are independent given their ground locations.

    ``discrete_probs``: probabilities over {1..k}, a constant (k,) vector or
    a callable taking the (n, D) ground array and returning (n, k).
    ``continuous_density``: a callable (ground (n, D), values (n, c)) -> (n,)
    densities w.r.t. the continuous part of ``measure``.
    """

    discrete_probs: object = None
    continuous_density: Callable | None = None
    measure: AuxMeasure = field(default_factory=lambda: AuxMeasure("counting", (1,)))


def _aux_log_density(spec: AuxDensitySpec, ground, discrete, continuous) -> np.ndarray:
    """(n,) log aux density of an ``AuxTable``'s columns at the (n, D)
    ground locations: one call per callable, whatever n is."""
    logs, probs = np.zeros(ground.shape[0]), spec.discrete_probs
    with np.errstate(divide="ignore"):
        if probs is not None:
            probs = np.asarray(probs(ground) if callable(probs) else probs, dtype=float)
            if np.any((discrete < 1) | (discrete > probs.shape[-1])):
                raise ValidationError("discrete aux value outside its range")
            logs += np.log(probs[discrete - 1] if probs.ndim == 1
                           else probs[np.arange(len(logs)), discrete - 1])
        if spec.continuous_density is not None:
            if np.any(np.isnan(continuous).all(axis=1)):
                raise ValidationError("continuous aux value missing")
            logs += np.log(spec.continuous_density(ground, continuous))
    return logs


def aux_density_eval(spec: AuxDensitySpec, locations, values) -> float:
    """The joint aux density of the n aux marks ``values`` at the (n, D)
    ground ``locations``: the product of the per-point densities."""
    values = _aux_table(values)
    return _exp_sum(_aux_log_density(spec, np.asarray(locations, dtype=float),
                                     values.discrete, values.continuous))


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------
def make_configuration(window: Window, locations, auxs, paths,
                       reference: ReferenceSpec | None = None) -> Configuration:
    """Assemble a configuration from its columns: the (n, D) ground
    locations, the aux marks and the cadlag marks."""
    return Configuration(window, locations, auxs, paths, reference)
