"""Squared-extrapolation acceleration of MM fixed-point maps.

Each accelerated step probes the map twice, extrapolates with the steplength
gamma = -||r|| / ||v|| (clamped at -1), and falls back toward the plain double
map application whenever the extrapolated point would increase the objective
or overflows it.  The fallback makes every accepted step nonincreasing
regardless of how wild the extrapolation is.  ``accelerated_fit`` hands this
step to ``solver._drive``, the one outer loop of every fit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .exceptions import ConvergenceError, ValidationError
from .fidelity import CoefficientVector
from .solver import FitResult, Problem, SolverConfig, _drive, fit, mm_map

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
    #: the objective at ``theta``
    objective: float


def squarem_step(
    map_fn: Callable[[np.ndarray], np.ndarray],
    objective: Callable[[np.ndarray], float],
    theta: np.ndarray,
    obj0: Optional[float] = None,
) -> AccelState:
    """One safeguarded accelerated step from theta.

    ``obj0`` is the objective at theta when the caller already has it.  The
    objective at the returned point comes back in ``AccelState.objective``:
    for an accepted candidate it is the value its acceptance test computed.
    """
    theta = np.asarray(theta, dtype=float)
    m1 = map_fn(theta)
    m2 = map_fn(m1)
    evals = 2
    r = m1 - theta
    v = m2 - 2.0 * m1 + theta

    def state(point, gamma, backtracks, obj):
        return AccelState(point, r, v, gamma, evals, backtracks, obj)

    norm_r = float(np.linalg.norm(r))
    norm_v = float(np.linalg.norm(v))
    if norm_r <= FIXED_POINT_TOL:
        return state(theta.copy(), -1.0, 0, objective(theta) if obj0 is None else obj0)
    if norm_v == 0.0:
        # degenerate curvature: the plain double step is all we can do
        return state(m2, -1.0, 0, objective(m2))

    gamma = min(-norm_r / norm_v, -1.0)
    if obj0 is None:
        obj0 = objective(theta)
    backtracks = 0
    for attempt in range(MAX_BACKTRACKS + 1):
        cand = theta - 2.0 * gamma * r + gamma * gamma * v
        try:
            obj = objective(cand)
        except OverflowError:
            obj = math.inf  # the candidate left the region where the fidelity is finite
        if obj <= obj0 + ACCEPT_SLACK:
            return state(cand, gamma, backtracks, obj)
        evals += 1  # extra objective probe, counted as acceleration work
        if attempt < MAX_BACKTRACKS:
            backtracks += 1
            gamma = (gamma - 1.0) / 2.0
    # MM descent guarantees the double step never increases the objective
    return state(m2, -1.0, backtracks, objective(m2))


def accelerated_fit(
    problem: Problem,
    config: SolverConfig,
    start: CoefficientVector,
    mode: str = "squarem",
) -> FitResult:
    """Fit with the single-map MM update, optionally accelerated.

    mode 'plain' delegates to the base fit; 'squarem' runs ``squarem_step``
    as the step of the shared outer loop, with the map residual ||r|| as its
    step norm.  A squarem step that falls back to the double map step and
    finds its objective not finite raises ``ConvergenceError`` carrying the
    last iterate.
    """
    if mode == "plain":
        return fit(problem, config, start)
    if mode != "squarem":
        raise ValidationError(f"unknown acceleration mode {mode!r}")

    map_fn = mm_map(problem, config)
    objective = map_fn.objective

    def step(theta, obj):
        state = squarem_step(map_fn, objective, theta, obj)
        if not math.isfinite(state.objective):
            raise ConvergenceError(
                "squarem: the fallback double map step has a non-finite objective",
                last_iterate=theta,
                residual=state.objective,
            )
        norm_r = float(np.linalg.norm(state.r))
        return state.theta, state.objective, norm_r, state.map_evals, state.backtracks

    return _drive(problem, config, start, objective, step)
