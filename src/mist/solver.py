"""MM engine: iterated soft-thresholding, single-map GLM updates, diagnostics.

Three fitting paths share one outer driver, ``_drive``:

* ``mm_outer``      -- generic loop; each outer step fully minimizes the
                       surrogate with the inner iterated-soft-thresholding
                       solver.
* ``glm_mm_fit``    -- gaussian / logistic / cox; the quadratic surrogate has
                       a closed-form minimizer, so each outer step is a single
                       soft-threshold map.
* ``poisson_mm_fit``-- separable majorizer; each outer step minimizes one
                       strictly convex scalar function per coordinate, all of
                       them at once by a batched safeguarded Newton iteration,
                       with the per-column setup built once per fit.

The loops work on plain augmented arrays (intercept first).  A fit checks its
start vector once, on entry (``_start_theta``), and then runs on the
unchecked kernels ``fidelity.nll_eta``/``grad_eta`` and
``penalties.value_kernel``/``derivative_kernel``; the public
``total_objective``, ``kkt_residual`` and ``soft_threshold_vec`` check their
arguments and call the same kernels.  Each fit builds one map object
(``_GlmMap`` or ``_PoissonMap``, also returned by ``mm_map`` for squarem)
whose ``objective`` remembers eta = X theta, so the map applied next at the
same point does not multiply by X again.

All paths enforce monotone descent of the penalized objective, reject a step
whose objective is not finite, and report a KKT residual at the returned
iterate.
"""
from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from . import fidelity as fid
from . import penalties as pen
from .exceptions import ConvergenceError, NotGloballyLipschitz, ValidationError
from .fidelity import CoefficientVector, FidelityModel, ResponseFamily
from .penalties import PenaltySpec

#: tolerated objective increase before the descent safeguard kicks in
DESCENT_SLACK = 1e-12
#: safety margin keeping the step strictly inside (0, 2 / curvature)
STEP_SAFETY = 0.95
#: cap on the batched Newton iterations of one poisson map
POISSON_NEWTON_MAX = 200
EPS = float(np.finfo(float).eps)


class Termination(str, enum.Enum):
    COEF_TOL = "coef_tol"
    OBJ_TOL = "obj_tol"
    MAX_ITER = "max_iter"


@dataclass
class SolverConfig:
    """Step, relaxation, and stopping controls.

    ``step_omega=None`` resolves to ``0.95 * 2 / curvature_bound``.
    ``relaxation`` is either a constant in (0, 1] or a callable of the inner
    iteration index.
    """

    step_omega: Optional[float] = None
    relaxation: Union[float, Callable[[int], float]] = 1.0
    coef_tol: float = 1e-6
    obj_tol: float = 1e-6
    max_outer: int = 1_000_000
    inner_tol: float = 1e-8
    inner_max: int = 100_000
    descent_check: bool = True

    def __post_init__(self):
        for name in ("coef_tol", "obj_tol", "inner_tol"):
            if not getattr(self, name) > 0:
                raise ValidationError(f"{name} must be > 0")
        if self.step_omega is not None and not self.step_omega > 0:
            raise ValidationError("step_omega must be > 0 or None (auto)")
        if self.max_outer < 1 or self.inner_max < 1:
            raise ValidationError("iteration caps must be >= 1")

    @classmethod
    def from_dict(cls, d: dict) -> "SolverConfig":
        d = dict(d)
        if d.get("step_omega") == "auto":
            d["step_omega"] = None
        return cls(**d)

    @classmethod
    def from_json(cls, s: str) -> "SolverConfig":
        return cls.from_dict(json.loads(s))


@dataclass(frozen=True)
class Problem:
    model: FidelityModel
    penalty: PenaltySpec

    def __post_init__(self):
        p = self.model.design.n_cols
        w = self.penalty.weights
        if w is not None and w.shape[0] != p:
            raise ValidationError(
                f"penalty weight length {w.shape[0]} does not match p={p}"
            )


@dataclass
class FitResult:
    coef: CoefficientVector
    objective: float
    trace: np.ndarray
    outer_iters: int
    map_evals: int
    kkt_residual: float
    termination: Termination
    descent_backtracks: int = 0

    def to_dict(self, include_trace: bool = False) -> dict:
        out = {
            "coef": [float(b) for b in self.coef.beta],
            "objective": float(self.objective),
            "iters": int(self.outer_iters),
            "map_evals": int(self.map_evals),
            "kkt": float(self.kkt_residual),
            "termination": self.termination.value,
            "descent_backtracks": int(self.descent_backtracks),
        }
        if self.coef.intercept is not None:
            out["intercept"] = float(self.coef.intercept)
        if include_trace:
            out["trace"] = [float(v) for v in self.trace]
        return out

    def to_json(self, include_trace: bool = False) -> str:
        return json.dumps(self.to_dict(include_trace))

    @classmethod
    def from_dict(cls, d: dict) -> "FitResult":
        return cls(
            coef=CoefficientVector(beta=np.array(d["coef"], dtype=float), intercept=d.get("intercept")),
            objective=float(d["objective"]),
            trace=np.array(d.get("trace", []), dtype=float),
            outer_iters=int(d["iters"]),
            map_evals=int(d["map_evals"]),
            kkt_residual=float(d["kkt"]),
            termination=Termination(d["termination"]),
            descent_backtracks=int(d.get("descent_backtracks", 0)),
        )


# -- elementary operations ------------------------------------------------


def soft_threshold(u: float, v: float) -> float:
    """sign(u) * (|u| - v)_+ with s(u, +inf) = 0 exactly."""
    if v < 0:
        raise ValidationError(f"threshold must be >= 0, got {v}")
    return math.copysign(1.0, u) * max(abs(u) - v, 0.0) if abs(u) > v else 0.0


def soft_threshold_vec(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValidationError(f"shape mismatch {u.shape} vs {v.shape}")
    if np.any(v < 0):
        raise ValidationError("thresholds must be >= 0")
    return _soft_threshold(u, v)


def _soft_threshold(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``soft_threshold_vec`` without its checks."""
    with np.errstate(invalid="ignore"):
        shrunk = np.abs(u) - v
    return np.sign(u) * np.maximum(shrunk, 0.0)


def total_objective(problem: Problem, coef: CoefficientVector) -> float:
    """Fidelity plus penalty plus ridge; intercept is never penalized."""
    return _objective_at(problem, coef.beta, problem.model.linear_predictor(coef))


def _objective_at(problem: Problem, beta: np.ndarray, eta: np.ndarray) -> float:
    """``total_objective`` from the slopes and eta = X theta, unchecked."""
    spec = problem.penalty
    value = fid.nll_eta(problem.model, eta)
    value += float(np.sum(pen.value_kernel(spec, np.abs(beta))))
    value += spec.lam * spec.epsilon * float(beta @ beta)
    return value


def kkt_residual(problem: Problem, coef: CoefficientVector) -> float:
    """Largest violation of the nonsmooth first-order stationarity conditions.

    A nonzero coefficient on a pinned coordinate (infinite derivative) gives
    +inf; a pinned coordinate held at zero gives 0; an exact zero is checked
    against the subgradient interval [-p'(0), p'(0)].
    """
    spec = problem.penalty
    grad_ll = fid.gradient(problem.model, coef)
    has_int = problem.model.has_intercept
    g = -grad_ll[1:] if has_int else -grad_ll  # gradient of the fidelity term
    beta = coef.beta
    s = g + 2.0 * spec.lam * spec.epsilon * beta
    d = pen.penalty_derivative_vec(spec, np.abs(beta))
    nonzero = beta != 0.0
    pinned = np.isinf(d)
    if np.any(nonzero & pinned):
        return math.inf
    with np.errstate(invalid="ignore"):  # inf * 0 and inf - inf on pinned zeros
        r = np.where(
            nonzero,
            np.abs(s + d * np.sign(beta)),
            np.where(pinned, 0.0, np.maximum(np.abs(s) - d, 0.0)),
        )
    return float(np.max(r, initial=abs(grad_ll[0]) if has_int else 0.0))


# -- inner solver ---------------------------------------------------------


def ist_minimize(
    grad_m: Callable[[np.ndarray], np.ndarray],
    tau: np.ndarray,
    omega: float,
    b0: np.ndarray,
    relaxation: Union[float, Callable[[int], float]] = 1.0,
    inner_tol: float = 1e-8,
    inner_max: int = 100_000,
) -> np.ndarray:
    """Iterated soft-thresholding for min m(b) + sum_j tau_j |b_j|.

    ``omega`` must lie in (0, 2L) where 1/L bounds the Lipschitz constant of
    ``grad_m``; convergence is then a contraction argument.  The relaxed
    update blends each thresholded step with the previous iterate.
    """
    tau = np.asarray(tau, dtype=float)
    b = np.asarray(b0, dtype=float).copy()
    if tau.shape != b.shape:
        raise ValidationError("threshold vector and start must have equal length")
    thresh = omega * tau
    if np.any(thresh < 0):
        raise ValidationError("thresholds must be >= 0")
    for n in range(1, inner_max + 1):
        delta = relaxation(n) if callable(relaxation) else relaxation
        d = b - omega * grad_m(b)
        s = _soft_threshold(d, thresh)
        b_new = b + delta * (s - b)
        resid = float(np.linalg.norm(b_new - b))
        b = b_new
        if resid <= inner_tol:
            return b
    raise ConvergenceError(
        f"inner soft-thresholding did not converge in {inner_max} iterations",
        last_iterate=b,
        residual=resid,
    )


# -- step resolution ------------------------------------------------------


def resolve_step(problem: Problem, config: SolverConfig) -> float:
    """The MM step constant; auto mode backs off from 2 / curvature_bound."""
    if config.step_omega is not None:
        return config.step_omega
    lam_star = fid.curvature_bound(problem.model)
    if lam_star <= 0:
        return 1.0
    return STEP_SAFETY * 2.0 / lam_star


def _penalized_tau(problem: Problem, theta: np.ndarray) -> np.ndarray:
    """Thresholds over the augmented vector (zero for the intercept slot)."""
    has_int = problem.model.has_intercept
    beta = theta[1:] if has_int else theta
    tau = pen.derivative_kernel(problem.penalty, np.abs(beta))
    if has_int:
        tau = np.concatenate([[0.0], tau])
    return tau


def _pinned_mask(problem: Problem) -> Optional[np.ndarray]:
    w = problem.penalty.weights
    if w is None or not np.any(np.isinf(w)):
        return None
    mask = np.isinf(w)
    if problem.model.has_intercept:
        mask = np.concatenate([[False], mask])
    return mask


def _ridge_grad(problem: Problem, theta: np.ndarray) -> np.ndarray:
    """Gradient of lam * eps * ||beta||^2 over the augmented vector."""
    spec = problem.penalty
    if spec.epsilon == 0.0:
        return np.zeros_like(theta)
    g = 2.0 * spec.lam * spec.epsilon * theta
    if problem.model.has_intercept:
        g[0] = 0.0
    return g


def _start_theta(problem: Problem, start: CoefficientVector) -> np.ndarray:
    """The start as a fresh augmented array: the one check of a whole fit."""
    theta = problem.model._check(start).astype(float)
    if not np.all(np.isfinite(theta)):
        raise ValidationError("start coefficients must be finite")
    return theta


class _Objective:
    """The penalized objective over augmented arrays, remembering its last eta.

    ``objective(theta)`` stores (theta, eta = X theta); ``eta(theta)`` hands
    that eta back when it is asked about the same array object (the fits never
    change an iterate in place), so a map applied to the point whose
    objective was just evaluated does not multiply by X again.
    """

    def __init__(self, problem: Problem):
        self.problem = problem
        self.xt = problem.model._xt
        self.has_int = problem.model.has_intercept
        self._theta = None
        self._eta = None

    def objective(self, theta: np.ndarray) -> float:
        eta = self.xt @ theta
        self._theta, self._eta = theta, eta
        return _objective_at(self.problem, theta[1:] if self.has_int else theta, eta)

    def eta(self, theta: np.ndarray) -> np.ndarray:
        return self._eta if theta is self._theta else self.xt @ theta


# -- GLM single-map update ------------------------------------------------


def glm_map(
    problem: Problem, theta: np.ndarray, omega: float, eta: Optional[np.ndarray] = None
) -> np.ndarray:
    """One closed-form surrogate minimization for bounded-hessian families.

    ``eta`` is X theta when the caller already has it.  Nothing is checked:
    theta is the augmented coefficient array of a problem's model.
    """
    model = problem.model
    spec = problem.penalty
    theta = np.asarray(theta, dtype=float)
    if eta is None:
        eta = model._xt @ theta
    grad_ll = fid.grad_eta(model, eta)
    half = 0.5 * omega
    arg = theta + half * grad_ll
    shrink = 1.0 / (1.0 + omega * spec.lam * spec.epsilon)
    if model.has_intercept:
        tau = pen.derivative_kernel(spec, np.abs(theta[1:]))
        out = np.empty_like(theta)
        out[0] = theta[0] + half * grad_ll[0]
        out[1:] = shrink * _soft_threshold(arg[1:], half * tau)
        return out
    tau = pen.derivative_kernel(spec, np.abs(theta))
    return shrink * _soft_threshold(arg, half * tau)


class _GlmMap(_Objective):
    """The single soft-threshold MM map of one gaussian, logistic or cox problem.

    Built once per fit.  Calling it applies ``glm_map`` at the fit's step
    omega, or at a halved step passed as the second argument, with the eta of
    the last objective evaluation when it is at the same point.  A plain
    iteration then multiplies by X twice (X^T r in the map, eta in the
    objective), and a squarem step four times plus once per backtrack.
    """

    def __init__(self, problem: Problem, omega: float):
        super().__init__(problem)
        self.omega = omega

    def __call__(self, theta: np.ndarray, omega: Optional[float] = None) -> np.ndarray:
        w = self.omega if omega is None else omega
        return glm_map(self.problem, theta, w, eta=self.eta(theta))


def glm_surrogate_value(
    problem: Problem, omega: float, alpha: CoefficientVector, beta: CoefficientVector
) -> float:
    """The quadratic-plus-linearized-penalty surrogate at beta, anchored at alpha."""
    model = problem.model
    spec = problem.penalty
    ta, tb = alpha.augmented(), beta.augmented()
    diff = tb - ta
    value = (
        fid.neg_loglik(model, alpha)
        - float(fid.gradient(model, alpha) @ diff)
        + float(diff @ diff) / omega
    )
    for j in range(alpha.beta.shape[0]):
        aj, bj = abs(alpha.beta[j]), abs(beta.beta[j])
        tau_j = pen.penalty_derivative(spec, j, aj)
        if math.isinf(tau_j):
            if bj != 0.0:
                return math.inf
            # pinned coordinate held at zero contributes nothing
        else:
            gamma_j = pen.penalty_value(spec, j, aj) - tau_j * aj
            value += tau_j * bj + gamma_j
        value += spec.lam * spec.epsilon * beta.beta[j] ** 2
    return value


# -- outer drivers --------------------------------------------------------


def _drive(
    problem: Problem,
    config: SolverConfig,
    start: CoefficientVector,
    step_fn: Callable[[np.ndarray, float], np.ndarray],
    omega: float,
    objective: Callable[[np.ndarray], float],
) -> FitResult:
    """Shared outer loop: descent safeguard, stopping control, accounting.

    A step whose objective is not finite is always rejected and halved, with
    or without the descent check.
    """
    theta = _start_theta(problem, start)
    pinned = _pinned_mask(problem)
    if pinned is not None:
        theta[pinned] = 0.0

    obj = objective(theta)
    trace = [obj]
    map_evals = 0
    backtracks = 0
    termination = Termination.MAX_ITER
    outer = 0

    for outer in range(1, config.max_outer + 1):
        step = omega
        for attempt in range(31):
            theta_new = step_fn(theta, step)
            map_evals += 1
            obj_new = objective(theta_new)
            if math.isfinite(obj_new) and (
                not config.descent_check or obj_new <= obj + DESCENT_SLACK
            ):
                break
            if attempt == 30:
                raise ConvergenceError(
                    "objective increased or was not finite despite 30 step halvings",
                    last_iterate=theta_new,
                    residual=obj_new - obj,
                )
            step *= 0.5
            backtracks += 1

        coef_delta = float(np.linalg.norm(theta_new - theta))
        obj_delta = abs(obj_new - obj)
        theta, obj = theta_new, obj_new
        trace.append(obj)
        if coef_delta < config.coef_tol:
            termination = Termination.COEF_TOL
            break
        if obj_delta < config.obj_tol:
            termination = Termination.OBJ_TOL
            break

    coef = CoefficientVector.from_augmented(theta, problem.model.has_intercept)
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


def glm_mm_fit(problem: Problem, config: SolverConfig, start: CoefficientVector) -> FitResult:
    """Single-soft-threshold-per-iteration MM fit (gaussian/logistic/cox)."""
    if problem.model.family is ResponseFamily.POISSON:
        raise NotGloballyLipschitz("use poisson_mm_fit for the poisson family")
    omega = resolve_step(problem, config)
    gmap = _GlmMap(problem, omega)
    return _drive(problem, config, start, gmap, omega, gmap.objective)


def _inner_step(lip: float) -> float:
    return STEP_SAFETY * 2.0 / lip if lip > 0 else 1.0


def _fidelity_grad_m(problem: Problem) -> Callable[[np.ndarray], np.ndarray]:
    """Gradient of the exact fidelity plus ridge, the inner IST's smooth part."""
    model = problem.model
    xt = model._xt

    def grad_m(b):
        return -fid.grad_eta(model, xt @ b) + _ridge_grad(problem, b)

    return grad_m


def mm_outer(problem: Problem, config: SolverConfig, start: CoefficientVector) -> FitResult:
    """Generic MM loop with a full inner soft-thresholding solve per step.

    SCAD/MCP use the strictly majorizing quadratic surrogate; penalties with a
    strictly positive derivative use the plain linearized-penalty surrogate
    with the fidelity kept exact.
    """
    model = problem.model
    spec = problem.penalty
    if model.family is ResponseFamily.POISSON:
        raise NotGloballyLipschitz("use poisson_mm_fit for the poisson family")
    omega = resolve_step(problem, config)
    lam_star = fid.curvature_bound(model)
    ridge_lip = 2.0 * spec.lam * spec.epsilon
    quadratic_path = spec.family in pen.FLAT_TAIL_FAMILIES
    obj = _Objective(problem)
    exact_grad_m = _fidelity_grad_m(problem)

    def step_fn(theta, w):
        tau = _penalized_tau(problem, theta)
        if quadratic_path:
            grad_anchor = fid.grad_eta(model, obj.eta(theta))

            def grad_m(b):
                return -grad_anchor + (2.0 / w) * (b - theta) + _ridge_grad(problem, b)

            lip = 2.0 / w + ridge_lip
        else:
            grad_m = exact_grad_m
            lip = lam_star + ridge_lip
        return ist_minimize(
            grad_m,
            tau,
            _inner_step(lip),
            theta,
            relaxation=config.relaxation,
            inner_tol=config.inner_tol,
            inner_max=config.inner_max,
        )

    return _drive(problem, config, start, step_fn, omega, obj.objective)


# -- Poisson componentwise path -------------------------------------------


class _PoissonMap(_Objective):
    """The separable-majorizer MM map of one poisson problem.

    The majorizer splits into one strictly convex scalar problem per
    coordinate, all anchored at the same eta = X theta.  What does not depend
    on theta (the weights w, the ratios x_ij / w_ij and the curvature factors
    x_ij^2 / w_ij, both zero where x_ij = 0, and the empty-column mask) is
    built once per fit here.  Each call takes eta from the last objective
    evaluation or computes it once, and solves every scalar problem together
    in ``_poisson_scalar_min``.
    """

    def __init__(self, problem: Problem):
        super().__init__(problem)
        model = problem.model
        spec = problem.penalty
        xt = self.xt
        self.nz = xt != 0.0
        self.ratio = np.divide(
            xt, fid.poisson_weights(model.design), out=np.zeros_like(xt), where=self.nz
        )
        self.curv = xt * self.ratio
        self.absx = np.abs(xt)
        self.empty = ~np.any(self.nz, axis=0)
        self.d = model.response.offsets
        self.y = model.response.y
        self.ridge = np.full(xt.shape[1], spec.lam * spec.epsilon)
        if model.has_intercept:
            self.ridge[0] = 0.0
        self.pinned = _pinned_mask(problem)

    def __call__(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if self.pinned is not None:
            theta = np.where(self.pinned, 0.0, theta)
        eta = self.eta(theta)
        # u_ij = base_ij + ratio_ij * b; entries with x_ij = 0 stay at u = 0
        base = np.where(self.nz, eta[:, None] - self.ratio * theta, 0.0)
        return _poisson_scalar_min(self, base, _penalized_tau(self.problem, theta), theta)


def _next_probe(c, newton, lo, hi, max_step, double):
    """The Newton point from c if it is safe, else a bisection or doubling.

    The Newton point is safe when it lies in (lo, hi) and, on a closed
    bracket, moves at most ``max_step``; on a bracket still open above, when it
    lies no farther out than max(2 lo, 1) and ``double`` is false.  Otherwise
    a closed bracket is bisected and an open one is probed at max(2 lo, 1).
    """
    outer = np.maximum(2.0 * lo, 1.0)
    is_open = np.isinf(hi)
    ok = (newton > lo) & (newton < hi)
    ok &= np.where(is_open, (newton <= outer) & ~double, np.abs(newton - c) <= max_step)
    return np.where(ok, newton, np.where(is_open, outer, 0.5 * (lo + hi)))


def _poisson_scalar_min(
    pm: _PoissonMap, base: np.ndarray, tau: np.ndarray, theta: np.ndarray
) -> np.ndarray:
    """Minimize k_j(b) + ridge_j * b^2 + tau_j * |b| for every coordinate j.

    ``k_j(b) = sum_i w_ij (d_i e^{u_ij} - y_i u_ij)`` with
    ``u_ij = base_ij + ratio_ij * b`` is the j-th majorizer component.  Its
    minimizer is 0 when |k_j'(0)| <= tau_j (always when tau_j is infinite);
    otherwise it has the sign of -k_j'(0).  Flipping the columns of the
    negative coordinates turns every search into one over c > 0 that starts
    with the bracket [0, inf) and phi'(0+) < 0, and a batched Newton iteration
    solves them together, starting from theta_j where theta_j lies in the
    bracket, with one exponential over the active columns per iteration.
    Each probe narrows its coordinate's bracket; ``_next_probe`` replaces an
    unsafe Newton point by bisection or, while the bracket is open, by
    doubling.  A coordinate stops when |phi'| is at the rounding level of its
    own sum, or when its Newton step or bracket is at most 1e-15 (1 + |c|).
    An all-zero column maps to 0: the fidelity does not depend on its
    coordinate and the penalty is nondecreasing in |b|, so 0 minimizes it.
    """
    y = pm.y[:, None]
    eu0 = pm.d[:, None] * fid._guard_exp(base, "poisson coordinate update")
    g0 = np.einsum("ij,ij->j", pm.xt, eu0 - y)
    out = np.zeros_like(theta)
    act = np.flatnonzero(~pm.empty & (np.abs(g0) > tau))
    if act.size == 0:
        return out

    sgn = np.where(g0[act] > tau[act], -1.0, 1.0)
    tau_a, ridge_a = tau[act], pm.ridge[act]
    x_a, r_a = pm.xt[:, act] * sgn, pm.ratio[:, act] * sgn
    curv_a, absx_a, base_a = pm.curv[:, act], pm.absx[:, act], base[:, act]
    lo = np.zeros(act.size)
    hi = np.full(act.size, np.inf)
    step = step_old = hi
    # the first probe is theta_j where it lies in the bracket, else a step
    # from c = 0, where the slope and the curvature are already known
    c = sgn * theta[act]
    from_theta = c > 0.0
    dphi = sgn * g0[act] + tau_a
    d2phi = np.einsum("ij,ij->j", curv_a, eu0[:, act]) + 2.0 * ridge_a
    with np.errstate(divide="ignore", invalid="ignore"):
        newton = -dphi / d2phi
    c = np.where(from_theta, c, _next_probe(0.0, newton, lo, hi, np.inf, np.zeros(act.size, bool)))
    dphi_prev = np.where(from_theta, np.inf, dphi)
    for _ in range(POISSON_NEWTON_MAX):
        eu = pm.d[:, None] * fid._guard_exp(base_a + r_a * c, "poisson coordinate update")
        dphi = np.einsum("ij,ij->j", x_a, eu - y) + 2.0 * ridge_a * c + tau_a
        d2phi = np.einsum("ij,ij->j", curv_a, eu) + 2.0 * ridge_a
        scale = np.einsum("ij,ij->j", absx_a, eu + y) + np.abs(2.0 * ridge_a * c) + tau_a
        # while the bracket is open, a slope that fell by less than 10x since
        # the last probe means slow progress (phi' concave, or a minimizer
        # only where e^u underflows): double instead
        double = np.isinf(hi) & (dphi < 0.0) & (np.abs(dphi) > 0.1 * np.abs(dphi_prev))
        lo = np.where(dphi < 0.0, c, lo)
        hi = np.where(dphi > 0.0, c, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = c - dphi / d2phi
        # on a closed bracket, a Newton step longer than half the one before
        # the last bisects instead
        nxt = _next_probe(c, newton, lo, hi, 0.5 * np.abs(step_old), double)
        tol = 1e-15 * (1.0 + c)
        done = (np.abs(dphi) <= 8.0 * EPS * scale) | (np.abs(newton - c) <= tol) | (hi - lo <= tol)
        step_old, step, dphi_prev = step, nxt - c, dphi
        if np.any(done):
            out[act[done]] = sgn[done] * c[done]
            keep = ~done
            if not np.any(keep):
                return out
            act, sgn, tau_a, ridge_a = act[keep], sgn[keep], tau_a[keep], ridge_a[keep]
            x_a, r_a, curv_a = x_a[:, keep], r_a[:, keep], curv_a[:, keep]
            absx_a, base_a = absx_a[:, keep], base_a[:, keep]
            lo, hi, nxt = lo[keep], hi[keep], nxt[keep]
            step, step_old, dphi_prev = step[keep], step_old[keep], dphi_prev[keep]
        c = nxt
    raise ConvergenceError(
        f"poisson coordinates {act.tolist()} did not converge in "
        f"{POISSON_NEWTON_MAX} Newton steps",
        last_iterate=theta,
    )


def poisson_mm_fit(problem: Problem, config: SolverConfig, start: CoefficientVector) -> FitResult:
    """MM fit for the poisson family through the separable majorizer.

    Each outer step is one application of the batched-Newton map
    ``_PoissonMap``, built once for the fit.
    """
    if problem.model.family is not ResponseFamily.POISSON:
        raise ValidationError("poisson_mm_fit requires a poisson model")
    pmap = _PoissonMap(problem)
    return _drive(problem, config, start, lambda theta, _omega: pmap(theta), 1.0, pmap.objective)


# -- one-step estimator and dispatch --------------------------------------


def fit(problem: Problem, config: SolverConfig, start: CoefficientVector) -> FitResult:
    """Family dispatch to the appropriate single-map MM fit."""
    if problem.model.family is ResponseFamily.POISSON:
        return poisson_mm_fit(problem, config, start)
    return glm_mm_fit(problem, config, start)


def mm_map(problem: Problem, config: SolverConfig) -> Union[_GlmMap, _PoissonMap]:
    """The per-iteration MM update as a map over augmented vectors.

    The map object also carries the problem's ``objective`` over augmented
    vectors; the map applied to the array last passed to ``objective`` reuses
    its eta = X theta.
    """
    if problem.model.family is ResponseFamily.POISSON:
        return _PoissonMap(problem)
    return _GlmMap(problem, resolve_step(problem, config))


def one_step_fit(problem: Problem, config: SolverConfig) -> FitResult:
    """Exactly one full surrogate minimization started at the unpenalized MLE."""
    model = problem.model
    spec = problem.penalty
    mle = fid.fit_mle(model)
    theta0 = mle.augmented()
    obj0 = total_objective(problem, mle)

    if model.family is ResponseFamily.POISSON:
        # one application of the separable-majorizer map plays the role of the
        # single surrogate minimization
        theta1 = _PoissonMap(problem)(theta0)
    else:
        lip = fid.curvature_bound(model) + 2.0 * spec.lam * spec.epsilon
        theta1 = ist_minimize(
            _fidelity_grad_m(problem),
            _penalized_tau(problem, theta0),
            _inner_step(lip),
            theta0,
            relaxation=config.relaxation,
            inner_tol=config.inner_tol,
            inner_max=config.inner_max,
        )

    coef = CoefficientVector.from_augmented(theta1, model.has_intercept)
    obj1 = total_objective(problem, coef)
    return FitResult(
        coef=coef,
        objective=obj1,
        trace=np.array([obj0, obj1]),
        outer_iters=1,
        map_evals=1,
        kkt_residual=kkt_residual(problem, coef),
        termination=Termination.COEF_TOL,
    )


# -- starting-value presets -----------------------------------------------


def starting_point(problem: Problem, config: SolverConfig, preset: str) -> CoefficientVector:
    """Named starts: 'zero', 'mle', or 'one_step'."""
    model = problem.model
    if preset == "zero":
        return CoefficientVector.zeros(model.design.n_cols, model.has_intercept)
    if preset == "mle":
        return fid.fit_mle(model)
    if preset == "one_step":
        return one_step_fit(problem, config).coef
    raise ValidationError(f"unknown start preset {preset!r}")
