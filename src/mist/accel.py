"""Squared-extrapolation acceleration (SQUAREM) of MM fixed-point maps.

The step rule is the one published by Varadhan & Roland (2008, *Scand. J.
Stat.* 35) and implemented in the SQUAREM package (Du & Varadhan 2020, *J.
Stat. Softw.* 92(7)).  Each step applies the map twice, extrapolates with the
steplength alpha = ||r|| / ||v|| clamped to [1, step_max], applies the map
once more at the extrapolated point (the stabilizing map) and keeps that map
output when its objective does not increase.  Otherwise it keeps the plain
double map step, so every step descends, and every point a step returns is
its start or a map output.  The bound step_max starts at 1 for each fit,
grows x4 whenever alpha reaches it and shrinks /4 when an extrapolation at
the bound is rejected.  ``_squarem`` makes this step a step of the one loop
of every fit: ``accelerated_fit`` hands it to ``solver._drive``, and
``solver.mm_outer`` runs it on each weighted-lasso surrogate.

``fit_path`` runs ``accelerated_fit`` along a warm-started lambda path, each
lambda on the columns that the sequential strong rule keeps (Tibshirani et
al. 2012, *JRSS-B* 74), and certifies every result by a KKT check over all
columns.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import fidelity as fid
from .exceptions import ConvergenceError, ValidationError
from .fidelity import CoefficientVector, FidelityModel
from .penalties import PenaltySpec
from .solver import (
    FitResult, Problem, SolverConfig, Step, _descends, _drive, _Objective, _start_theta, fit, mm_map,
)

#: one extrapolated candidate per step: a step that falls back to the double
#: map step has made 2 + MAX_BACKTRACKS + 1 map evaluations (the probe counts)
MAX_BACKTRACKS = 1
#: residual norm below which a point is treated as a fixed point of the map
FIXED_POINT_TOL = 1e-14
#: factor by which the steplength bound grows when reached and shrinks on a
#: rejection at the bound (the package's ``mstep``)
STEP_FACTOR = 4.0


@dataclass
class AccelState:
    theta: np.ndarray
    r: np.ndarray
    v: np.ndarray
    #: -alpha, the steplength of the returned point (-1 for the double map step)
    gamma: float
    map_evals: int
    backtracks: int
    #: the objective at ``theta``
    objective: float
    #: the steplength bound for the next step
    step_max: float = 1.0


def squarem_step(
    map_fn: Callable[[np.ndarray], np.ndarray],
    objective: Callable[[np.ndarray], float],
    theta: np.ndarray,
    obj0: Optional[float] = None,
    step_max: float = 1.0,
) -> AccelState:
    """One SQUAREM step from theta (Varadhan & Roland 2008).

    With m1 = M(theta), m2 = M(m1), r = m1 - theta and v = m2 - 2 m1 + theta,
    the steplength is alpha = ||r|| / ||v|| clamped to [1, step_max].  When
    alpha > 1 the step maps the extrapolated point theta + 2 alpha r +
    alpha^2 v once more and keeps that map output if its objective is finite
    and at most ``solver.DESCENT_SLACK`` above the objective at theta
    (``solver._descends``); an ``OverflowError`` rejects it.  A rejected
    candidate, or alpha = 1, gives the double map step m2.  A fixed point (||r|| <= ``FIXED_POINT_TOL``)
    returns theta, and v = 0 returns m2.

    ``obj0`` is the objective at theta when the caller already has it.  The
    objective at the returned point comes back in ``AccelState.objective``,
    and the bound for the next step in ``AccelState.step_max``: x4 when alpha
    reached ``step_max``, /4 (not below 1) when a candidate at the bound was
    rejected.
    """
    theta = np.asarray(theta, dtype=float)
    m1 = map_fn(theta)
    m2 = map_fn(m1)
    evals = 2
    r = m1 - theta
    v = m2 - 2.0 * m1 + theta

    def state(point, alpha, backtracks, obj):
        return AccelState(point, r, v, -alpha, evals, backtracks, obj, step_max)

    norm_r = math.sqrt(float(r.dot(r)))
    norm_v = math.sqrt(float(v.dot(v)))
    if norm_r <= FIXED_POINT_TOL:
        return state(theta.copy(), 1.0, 0, objective(theta) if obj0 is None else obj0)
    if norm_v == 0.0:
        # degenerate curvature: the plain double step is all we can do
        return state(m2, 1.0, 0, objective(m2))

    alpha = min(max(norm_r / norm_v, 1.0), step_max)
    backtracks = 0
    if alpha > 1.0:
        if obj0 is None:
            obj0 = objective(theta)
        evals += 1
        try:
            point = map_fn(theta + 2.0 * alpha * r + alpha * alpha * v)
            obj = objective(point)
        except OverflowError:
            obj = math.inf  # the candidate left the region where the fidelity is finite
        at_bound = alpha == step_max
        if _descends(obj, obj0):
            if at_bound:
                step_max *= STEP_FACTOR
            return state(point, alpha, 0, obj)
        evals += 1  # the rejected objective probe, counted as acceleration work
        backtracks = 1
        if at_bound:
            step_max = max(1.0, step_max / STEP_FACTOR)
    # the double map step (alpha = 1), which MM descent never lets increase the objective
    if step_max == 1.0:  # alpha = 1 reached the bound
        step_max = STEP_FACTOR
    return state(m2, 1.0, backtracks, objective(m2))


def accelerated_fit(
    problem: Problem,
    config: SolverConfig,
    start: CoefficientVector,
    mode: str = "squarem",
) -> FitResult:
    """Fit with the single-map MM update, optionally accelerated.

    mode 'plain' delegates to the base fit; 'squarem' runs ``squarem_step``
    (Varadhan & Roland 2008) over ``mm_map``'s map as the step of the shared
    outer loop (``_squarem``).
    """
    if mode == "plain":
        return fit(problem, config, start)
    if mode != "squarem":
        raise ValidationError(f"unknown acceleration mode {mode!r}")

    m = mm_map(problem)
    return _drive(problem, config, start, m, _squarem(m))


def _squarem(m: _Objective) -> Step:
    """``squarem_step`` over the map object ``m`` as one step of the solver's
    loop: the step of ``accelerated_fit`` and of ``solver.mm_outer``'s
    surrogate fit.

    Its step norm is the map residual ||r||, and it carries the steplength
    bound ``step_max`` from each step to the next, starting at 1.  A step
    whose map overflows, or that falls back to the double map step and finds
    its objective not finite, raises ``ConvergenceError`` carrying the
    iterate it started from, as a plain step that cannot descend does.
    """
    step_max = 1.0

    def step(theta, obj):
        nonlocal step_max
        try:
            state = squarem_step(m, m.objective, theta, obj, step_max)
        except OverflowError as err:
            raise ConvergenceError(f"squarem: {err}", last_iterate=theta) from err
        if not math.isfinite(state.objective):
            raise ConvergenceError(
                "squarem: the fallback double map step has a non-finite objective",
                last_iterate=theta,
                residual=state.objective,
            )
        step_max = state.step_max
        r = state.r
        return state.theta, state.objective, math.sqrt(float(r.dot(r))), state.map_evals, state.backtracks

    return step


def fit_path(
    model: FidelityModel,
    spec: PenaltySpec,
    lams: Sequence[float],
    config: SolverConfig,
    start: CoefficientVector,
    mode: str = "squarem",
) -> list[Union[FitResult, Exception]]:
    """A warm-started path over ``lams``, in the given order, each lambda
    fitted on a screened working set and certified over all p columns.

    ``spec`` gives every penalty setting but lambda; ``start`` starts the
    first lambda, and each later one starts from the result before it.  At
    lambda_k, with g the log-likelihood gradient at the warm start and
    tau_j(lam) = p'_j(0; lam) each column's threshold (lam, lam w_j for the
    adaptive families, lam delta for Geman and log):

    * the working set holds the warm start's nonzero slopes and every column
      with |g_j| >= 2 tau_j(lam_k) - tau_j(lam_{k-1}), the sequential strong
      rule of Tibshirani et al. (2012), with lam_{k-1} = lam_k at the first
      lambda.  A pinned column (tau_j = inf) never enters.  When no column
      qualifies, the one with the largest |g_j| / tau_j is kept;
    * ``accelerated_fit`` (with ``mode``) fits the problem restricted to the
      working set (``FidelityModel.restrict``), whose curvature bound, and so
      its step, is that of the kept columns only;
    * one gradient over all p columns at the embedded result finds every
      column outside the set with |g_j| > tau_j(lam_k).  Those columns join
      the set and the fit restarts from the current point, until none is
      left.

    Each entry of the returned list is the lambda's ``FitResult`` over all p
    columns (zeros outside the working set, the last refit's objective, which
    is the full objective there, the KKT residual of the last gradient, the
    concatenated traces and the summed counts of the refits, the last refit's
    termination, and the final ``working_set``), or the exception its fit
    raised; the sweep goes on from the last result.
    """
    if mode not in ("plain", "squarem"):
        raise ValidationError(f"unknown acceleration mode {mode!r}")
    # the weight length and the start, checked and pinned once for the whole path
    theta = _start_theta(Problem(model, spec), start)
    has_int = model.has_intercept
    off = 1 if has_int else 0
    zeros = np.zeros(model.n_coef)
    xt_t, lik = model._xt.T, fid.kernels(model)

    def full_grad(eta):
        """The log-likelihood gradient over all p columns at eta."""
        return xt_t.dot(lik.residual(eta, lik.parts(eta)))

    grad = full_grad(model._xt.dot(theta))
    tau_warm = None  # the thresholds at the lambda theta was fitted at
    out = []
    for lam in lams:
        try:
            problem = Problem(model, replace(spec, lam=lam))
            full = _Objective(problem)  # the thresholds and the KKT over all p columns
            tau = full.tau(zeros)[off:]
            ref = tau if tau_warm is None else tau_warm
            with np.errstate(invalid="ignore"):  # inf - inf on pinned columns
                keep = (theta[off:] != 0.0) | (np.abs(grad[off:]) >= 2.0 * tau - ref)
            keep &= np.isfinite(tau)
            if not np.any(keep):
                keep[np.argmax(np.abs(grad[off:]) / tau)] = True
            fits = []
            current = theta
            while True:
                cols = np.flatnonzero(keep)
                idx = np.concatenate([[0], cols + 1]) if has_int else cols
                sub_model = model.restrict(cols)
                weights = None if spec.weights is None else spec.weights[cols]
                sub = Problem(sub_model, replace(problem.penalty, weights=weights))
                res = accelerated_fit(
                    sub, config, CoefficientVector.from_augmented(current[idx], has_int), mode
                )
                fits.append(res)
                sub_theta = res.coef.augmented()
                current = np.zeros_like(theta)
                current[idx] = sub_theta
                g_full = full_grad(sub_model._xt.dot(sub_theta))
                violators = ~keep & (np.abs(g_full[off:]) > tau)
                if not np.any(violators):
                    break
                keep |= violators
            coef = CoefficientVector.from_augmented(current, has_int)
            out.append(FitResult(
                coef=coef,
                objective=res.objective,
                trace=np.concatenate([f.trace for f in fits]),
                outer_iters=sum(f.outer_iters for f in fits),
                map_evals=sum(f.map_evals for f in fits),
                kkt_residual=full.kkt(current, g_full),
                termination=fits[-1].termination,
                descent_backtracks=sum(f.descent_backtracks for f in fits),
                working_set=cols,
            ))
            theta, grad, tau_warm = current, g_full, tau
        except Exception as err:  # noqa: BLE001 - recorded; the sweep goes on
            out.append(err)
    return out
