"""Squared-extrapolation acceleration of MM fixed-point maps.

Each accelerated step probes the map twice, extrapolates with the steplength
gamma = -||r|| / ||v|| (clamped at -1), and falls back toward the plain double
map application whenever the extrapolated point would increase the objective
or overflows it.
The fallback makes every accepted step nonincreasing regardless of how wild
the extrapolation is.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .exceptions import ValidationError
from .fidelity import CoefficientVector
from .solver import (
    FitResult,
    Problem,
    SolverConfig,
    Termination,
    kkt_residual,
    mm_map,
    total_objective,
)

#: backtracking attempts before falling back to the plain double step
MAX_BACKTRACKS = 5
#: residual norm below which a point is treated as a fixed point of the map
FIXED_POINT_TOL = 1e-14
#: tolerated objective increase when accepting an extrapolated candidate
ACCEPT_SLACK = 1e-12


@dataclass
class AccelState:
    theta: np.ndarray
    r: np.ndarray
    v: np.ndarray
    gamma: float
    map_evals: int
    backtracks: int


def squarem_step(
    map_fn: Callable[[np.ndarray], np.ndarray],
    objective: Callable[[np.ndarray], float],
    theta: np.ndarray,
) -> AccelState:
    """One safeguarded accelerated step from theta."""
    theta = np.asarray(theta, dtype=float)
    m1 = map_fn(theta)
    m2 = map_fn(m1)
    evals = 2
    r = m1 - theta
    v = m2 - 2.0 * m1 + theta

    norm_r = float(np.linalg.norm(r))
    norm_v = float(np.linalg.norm(v))
    if norm_r <= FIXED_POINT_TOL:
        return AccelState(theta=theta.copy(), r=r, v=v, gamma=-1.0, map_evals=evals, backtracks=0)
    if norm_v == 0.0:
        # degenerate curvature: the plain double step is all we can do
        return AccelState(theta=m2, r=r, v=v, gamma=-1.0, map_evals=evals, backtracks=0)

    gamma = min(-norm_r / norm_v, -1.0)
    obj0 = objective(theta)
    backtracks = 0
    accepted = None
    for attempt in range(MAX_BACKTRACKS + 1):
        cand = theta - 2.0 * gamma * r + gamma * gamma * v
        try:
            accept = objective(cand) <= obj0 + ACCEPT_SLACK
        except OverflowError:
            accept = False  # the candidate left the region where the fidelity is finite
        if accept:
            accepted = cand
            break
        evals += 1  # extra objective probe, counted as acceleration work
        if attempt < MAX_BACKTRACKS:
            backtracks += 1
            gamma = (gamma - 1.0) / 2.0
    if accepted is None:
        # MM descent guarantees the double step never increases the objective
        accepted = m2
        gamma = -1.0
    return AccelState(
        theta=accepted, r=r, v=v, gamma=gamma, map_evals=evals, backtracks=backtracks
    )


def accelerated_fit(
    problem: Problem,
    config: SolverConfig,
    start: CoefficientVector,
    mode: str = "squarem",
) -> FitResult:
    """Fit with the single-map MM update, optionally accelerated.

    mode 'plain' delegates to the base fit; 'squarem' iterates accelerated
    steps under the same stopping criteria.
    """
    from . import solver

    if mode == "plain":
        return solver.fit(problem, config, start)
    if mode != "squarem":
        raise ValidationError(f"unknown acceleration mode {mode!r}")

    model = problem.model
    map_fn = mm_map(problem, config)

    def objective(theta):
        return total_objective(
            problem, CoefficientVector.from_augmented(theta, model.has_intercept)
        )

    theta = start.augmented().astype(float)
    obj = objective(theta)
    trace = [obj]
    map_evals = 0
    backtracks = 0
    termination = Termination.MAX_ITER
    outer = 0
    for outer in range(1, config.max_outer + 1):
        state = squarem_step(map_fn, objective, theta)
        map_evals += state.map_evals
        backtracks += state.backtracks
        obj_new = objective(state.theta)
        # the map residual is the analog of the plain per-iteration step norm
        coef_delta = float(np.linalg.norm(state.r))
        obj_delta = abs(obj_new - obj)
        theta, obj = state.theta, obj_new
        trace.append(obj)
        if coef_delta < config.coef_tol:
            termination = Termination.COEF_TOL
            break
        if obj_delta < config.obj_tol:
            termination = Termination.OBJ_TOL
            break

    coef = CoefficientVector.from_augmented(theta, model.has_intercept)
    return FitResult(
        coef=coef,
        objective=obj,
        trace=np.array(trace),
        outer_iters=outer,
        map_evals=map_evals,
        kkt_residual=kkt_residual(problem, coef),
        termination=termination,
        descent_backtracks=backtracks,
    )
