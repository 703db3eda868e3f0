"""MM engine: iterated soft-thresholding, single-map GLM updates, diagnostics.

Every fit runs the one outer loop ``_drive``: it checks the start and zeroes
the coordinates pinned by an infinite adaptive weight (``_start_theta``),
applies the two stopping rules, counts maps and backtracks, and builds the
``FitResult`` with its KKT residual.  The fits differ only in the step they
pass in, and every step is ``_halving``'s or squarem's:

* ``fit``           -- one map per step (``mm_map``): the closed-form
                       soft-threshold map (``_GlmMap``) for gaussian, logistic
                       and cox (``glm_mm_fit``), or for poisson the separable
                       majorizer, one strictly convex scalar problem per
                       coordinate, all solved at once by a batched safeguarded
                       Newton iteration (``_PoissonMap``).
* ``mm_outer``      -- one full surrogate minimization per step, for every
                       penalty: the exact-fidelity surrogate
                       (``_SurrogateSolve``), or for poisson the separable
                       majorizer's (``_PoissonMap``), so that it is ``fit``.
* ``one_step_fit``  -- ``mm_outer``'s first iteration from the MLE.
* ``accel.accelerated_fit`` -- one safeguarded squarem step over ``mm_map``.

Every choice of code path is made by the problem, its family and its
weights; no option selects one.

``fit`` runs ``mm_map``'s map through ``_halving(map)``, which turns a map
into a step.  A map with a step omega (``_GlmMap``) is applied at omega,
halved until the objective is finite and does not rise; the log-likelihood
gradient at theta comes once per step from the cached eta and serves every
attempt.  A map with no step (``omega`` None: the surrogate solve, the
Poisson map) gets a single attempt.

The step constant omega comes from ``fidelity.curvature_bound``: 0.95 * 2 /
bound, a true upper bound on the curvature.  For gaussian fits the bound is
exact and for logistic fits it is the usual 1/4 of it.  For Cox the bound
n_events * max ||x_i||^2 is several times the largest Hessian eigenvalue,
so a Cox fit backtracks on the curvature instead (Beck & Teboulle 2009).
Its first step tries ``BACKTRACK_START`` (64) times the certified step and
halves until the quadratic surrogate majorizes the fidelity at the
candidate, checked exactly:

    nll(theta+) <= nll(theta) - grad l(theta) . d + ||d||^2 / omega.

The accepted step carries to the next one and never grows; at the certified
step the test is skipped, since the bound guarantees it.  Squarem, which
needs a fixed map, applies the Cox map at the certified step; the Poisson
map has no step.

Every surrogate solve (``mm_outer``'s step, and so the one-step estimator)
runs ``ist_minimize``: FISTA (Beck & Teboulle 2009) with gradient-based
adaptive restart (O'Donoghue & Candes 2015), at half the certified step,
since FISTA needs a step of at most 1 / curvature.  A Cox solve backtracks
that step by the same rule as the outer step, tested at the extrapolated
point, down to the half step.

The loops work on plain augmented arrays (intercept first) and run on
unchecked kernels; ``_drive`` checks the start once, and nothing inside a fit
calls a checked function.  The public ``total_objective``, ``kkt_residual``
and ``soft_threshold_vec`` check their arguments and compute the same values.
A map object (``_Objective``) is the single source of a fit's numbers.  Its
``objective`` at theta keeps, with that array, eta = X theta, the parts the
likelihood shares with the score (the gaussian residual r = y - eta, or the
Cox risk-set sums) and |beta|, so the map applied next at the same point
neither multiplies by X for eta, forms r, sums the risk sets nor takes
|beta| again.  A plain step then multiplies by X twice, X^T r at theta and
X theta+ in the objective of its candidate, plus once per halving; a fit
reports the KKT residual from the gradient at the eta cached at its last
iterate, one product with X.

What does not change within a fit is built once, when its map object is
built: the likelihood kernels of the model (``fidelity.kernels``, one family
switch for the shared parts, the likelihood and the score residual), the
penalty's value and derivative (``penalties.kernels``, one family switch for
both), and the step.  The map object's ``kkt`` reads the same derivative
kernel, so the KKT check of a fit or of a path's lambda builds nothing.
The map object holds one augmented threshold array, with 0 in the intercept
slot, and its ``tau(theta)`` is the only place thresholds are made.  The linear
families (lasso, adaptive lasso and the elastic nets), whose thresholds
lam w_j do not depend on theta, write the array once, when the map is built;
the other families rewrite it at each map from the |beta| cached at theta.
A GLM map keeps -omega/2 and omega/2 times it, and rebuilds them when the
family is not linear or when the step changed, on a halving.  A GLM map is
then one soft-threshold over the whole augmented vector,
u - min(max(u, -t), t) (a zero threshold returns the intercept exactly),
and, only when eps > 0, one shrink of the slopes; with
eps = 0 the objective, the map and the inner solve form no ridge term.  A
pinned coordinate is held at 0 with an infinite threshold and a finite
argument, which the soft-threshold maps to u - u = 0 without forming
inf - inf.  Every step norm is sqrt(d . d), which is what ``np.linalg.norm``
computes for a real vector.  The loops take every product, X theta and
X^T r as well as d . d and the other dot products of two vectors, with
``ndarray.dot``: the same BLAS call as ``@`` with less dispatch.  The model
keeps its design contiguous (``FidelityModel``), so no product copies it.
"""
from __future__ import annotations

import enum
import json
import math
import numbers
from dataclasses import dataclass, fields, replace
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
#: a backtracked Cox step starts each fit at this multiple of the certified step
BACKTRACK_START = 64.0
#: relative rounding slack of the majorization test of a backtracked step
MAJORIZE_SLACK = 1e-12
EPS = float(np.finfo(float).eps)


class Termination(str, enum.Enum):
    COEF_TOL = "coef_tol"
    OBJ_TOL = "obj_tol"
    MAX_ITER = "max_iter"


@dataclass
class SolverConfig:
    """Stopping controls.

    ``coef_tol``, ``obj_tol`` and ``max_outer`` stop the outer loop;
    ``inner_tol`` and ``inner_max`` stop the inner soft-thresholding of a
    surrogate solve.  Every step comes from the problem's curvature bound
    (``resolve_step``), so no field sets one.

    The fields are checked when the config is built.  The tolerances must be
    real numbers > 0, and the caps integers >= 1; an integral float such as
    JSON's ``1e6`` is taken as that integer, and a bool is neither.
    """

    coef_tol: float = 1e-6
    obj_tol: float = 1e-6
    max_outer: int = 1_000_000
    inner_tol: float = 1e-8
    inner_max: int = 100_000

    def __post_init__(self):
        for name in ("coef_tol", "obj_tol", "inner_tol"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or not value > 0:
                raise ValidationError(f"{name} must be a real number > 0, got {value!r}")
        for name in ("max_outer", "inner_max"):
            value = getattr(self, name)
            if isinstance(value, float) and value.is_integer():
                value = int(value)
                setattr(self, name, value)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
                raise ValidationError(f"{name} must be an integer >= 1, got {value!r}")

    @classmethod
    def from_json(cls, s: str) -> "SolverConfig":
        """The config of a JSON object; an unknown key is named in the error."""
        values = json.loads(s)
        if not isinstance(values, dict):
            raise ValidationError(f"solver config JSON must be an object, got {values!r}")
        unknown = sorted(set(values) - {f.name for f in fields(cls)})
        if unknown:
            raise ValidationError(f"unknown solver config key(s): {', '.join(unknown)}")
        return cls(**values)


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
    #: the slope columns a screened fit (``accel.fit_path``) optimized over;
    #: None for a fit over every column
    working_set: Optional[np.ndarray] = None

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
    """sign(u) * (|u| - v)_+ of one coordinate, through ``soft_threshold_vec``;
    s(u, +inf) = 0 exactly for a finite u."""
    return float(soft_threshold_vec(np.array([u]), np.array([v]))[0])


def soft_threshold_vec(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValidationError(f"shape mismatch {u.shape} vs {v.shape}")
    if np.any(v < 0):
        raise ValidationError("thresholds must be >= 0")
    with np.errstate(invalid="ignore"):  # inf - inf: an infinite u at a pinned coordinate
        return _soft_threshold(u, -v, v)


def _soft_threshold(u: np.ndarray, neg_v: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``soft_threshold_vec`` without its checks or its error state, given
    the thresholds v and their negation.

    u - min(max(u, -v), v) is sign(u) (|u| - v)_+ bit for bit, up to the sign
    of a zero: u - v or u + v outside [-v, v], and u - u = 0 inside it.  With
    v = 0 it returns u exactly, so a single call covers an augmented vector
    whose intercept slot has threshold 0, and with v = inf and u finite it
    returns 0 without forming inf - inf.
    """
    return u - np.minimum(np.maximum(u, neg_v), v)


def total_objective(problem: Problem, coef: CoefficientVector) -> float:
    """Fidelity plus penalty plus ridge; intercept is never penalized."""
    return _Objective(problem).objective(problem.model._check(coef))


def kkt_residual(problem: Problem, coef: CoefficientVector) -> float:
    """Largest violation of the nonsmooth first-order stationarity conditions.

    A nonzero coefficient on a pinned coordinate (infinite derivative) gives
    +inf; a pinned coordinate held at zero gives 0; an exact zero is checked
    against the subgradient interval [-p'(0), p'(0)].
    """
    grad = fid.gradient(problem.model, coef)  # checks coef
    return _Objective(problem).kkt(coef.augmented(), grad)


# -- inner solver ---------------------------------------------------------


def ist_minimize(
    grad_m: Callable[[np.ndarray], np.ndarray],
    tau: np.ndarray,
    omega: float,
    b0: np.ndarray,
    inner_tol: float = 1e-8,
    inner_max: int = 100_000,
    m: Optional[Callable[[np.ndarray], float]] = None,
) -> np.ndarray:
    """Restarted FISTA for min m(b) + sum_j tau_j |b_j|.

    ``omega`` must lie in (0, 2 / Lip], Lip the Lipschitz constant of
    ``grad_m``.  Each iteration soft-thresholds from an extrapolated point z
    (Beck & Teboulle 2009) at the step w = omega / 2, at most 1 / Lip as
    FISTA needs: s = S(z - w grad_m(z), w tau).  With t' = (1 + sqrt(1 +
    4 t^2)) / 2 and b the previous s, the next z is s + ((t - 1) / t')(s - b),
    which is s itself while t = 1.  When (z - s) . (s - b) > 0 the momentum
    points uphill, so the iteration restarts (O'Donoghue & Candes 2015): t
    goes back to 1 and z to s.  It stops at the first s with ||s - z|| <=
    ``inner_tol`` and returns it.  The start ``b0`` is used as it is, not
    copied: no iteration writes into it.

    Given ``m``, the smooth part itself, the step is backtracked as in Beck &
    Teboulle (2009): it starts at ``BACKTRACK_START * omega``, and the
    candidate s from z at a step w above omega / 2 is kept only when
    m(s) <= m(z) + grad_m(z) . (s - z) + ||s - z||^2 / (2 w), up to a rounding
    slack; otherwise w halves.  ``omega / 2`` is the floor, taken without the
    test.  The kept w is the next iteration's first try, so it never grows.
    m is evaluated once per point, and before ``grad_m`` there: the kept m(s)
    serves as m(z) whenever z is s.
    """
    tau = np.asarray(tau, dtype=float)
    b = np.asarray(b0, dtype=float)
    if tau.shape != b.shape:
        raise ValidationError("threshold vector and start must have equal length")
    floor = 0.5 * omega
    w = floor if m is None else BACKTRACK_START * omega
    thresh = w * tau
    if np.any(thresh < 0):
        raise ValidationError("thresholds must be >= 0")
    neg = -thresh
    z, t, mz = b, 1.0, None
    with np.errstate(invalid="ignore"):  # inf - inf in the threshold at a pinned coordinate
        for _ in range(inner_max):
            if w > floor and mz is None:
                mz = m(z)
            g = grad_m(z)
            s = _soft_threshold(z - w * g, neg, thresh)
            while w > floor and not _majorizes(ms := m(s), mz, -g, s - z, 2.0 * w):
                w *= 0.5
                thresh, neg = w * tau, -w * tau
                s = _soft_threshold(z - w * g, neg, thresh)
            d = s - z
            resid = math.sqrt(float(d.dot(d)))
            if resid <= inner_tol:
                return s
            # above the floor the test accepted s, so m(s) is known
            ms = ms if w > floor else None
            e = s - b
            if float(d.dot(e)) < 0.0:
                # (z - s) . (s - b) > 0: the momentum points uphill, restart
                t, z, mz = 1.0, s, ms
            else:
                t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
                z, mz = (s, ms) if t == 1.0 else (s + ((t - 1.0) / t_next) * e, None)
                t = t_next
            b = s
    raise ConvergenceError(
        f"inner soft-thresholding did not converge in {inner_max} iterations",
        last_iterate=b,
        residual=resid,
    )


# -- step resolution ------------------------------------------------------


def _safe_step(lip: float) -> float:
    """STEP_SAFETY * 2 / lip, or 1.0 when the curvature bound is not positive."""
    return STEP_SAFETY * 2.0 / lip if lip > 0 else 1.0


def resolve_step(problem: Problem, config: Optional[SolverConfig] = None) -> float:
    """The MM step constant, ``STEP_SAFETY * 2 / curvature_bound``.

    ``config`` is not read.  The parameter stays so that callers written as
    ``resolve_step(problem, config)``, such as the acceptance tests'
    strict-majorization check, keep working.
    """
    return _safe_step(fid.curvature_bound(problem.model))


def _pinned_mask(problem: Problem) -> Optional[np.ndarray]:
    w = problem.penalty.weights
    if w is None or not np.any(np.isinf(w)):
        return None
    mask = np.isinf(w)
    if problem.model.has_intercept:
        mask = np.concatenate([[False], mask])
    return mask


def _ridge(problem: Problem) -> np.ndarray:
    """The ridge weight lam * eps of each augmented coordinate, 0 on the intercept."""
    spec = problem.penalty
    ridge = np.full(problem.model.n_coef, spec.lam * spec.epsilon)
    if problem.model.has_intercept:
        ridge[0] = 0.0
    return ridge


def _start_theta(problem: Problem, start: CoefficientVector) -> np.ndarray:
    """The start as a fresh augmented array, pinned coordinates set to 0:
    the one check of a whole fit or path."""
    theta = problem.model._check(start).astype(float)
    if not np.all(np.isfinite(theta)):
        raise ValidationError("start coefficients must be finite")
    pinned = _pinned_mask(problem)
    if pinned is not None:
        theta[pinned] = 0.0
    return theta


class _Objective:
    """The penalized objective over augmented arrays, remembering its last point.

    Built once per fit, it picks its likelihood kernels (``fidelity.kernels``)
    and its penalty kernels at construction, so no call tests the family.
    ``fidelity(theta)`` stores (theta, eta = X theta), the fidelity ``nll`` at
    theta and the parts the likelihood shares with the score there: the
    gaussian residual r = y - eta, of which nll = r . r / 2 and the gradient
    is X^T r, the Poisson mean, or the Cox risk-set sums
    ``fidelity._cox_parts``.  ``objective(theta)`` stores |beta| at theta as
    well.  ``objective``, ``eta``, ``grad`` and ``tau`` reuse them when asked
    about the same array object (the fits never change an iterate in place),
    so a map applied to the point whose objective was just evaluated neither
    multiplies by X, forms the residual, sums the risk sets nor takes |beta|
    again.

    The penalty reaches it only through the spec's kernel pair
    (``penalties.kernels``): the value p(|beta_j|), summed in the objective
    (a pinned coordinate held at 0 has value 0), and the threshold
    p'(|beta_j|).  It holds one augmented threshold array, 0 in the intercept
    slot, and ``tau(theta)`` is the only place thresholds are made: for the
    linear families (lasso, adaptive lasso and the elastic nets), whose
    thresholds lam w_j do not depend on theta, the array is written once, when
    the map is built; for the others ``tau`` rewrites its slopes at the |beta|
    cached at theta.  The ridge term is added only when eps > 0.  ``kkt``
    reads the same derivative kernel and the cached |beta|.
    """

    #: the map's step; None for a map with no step, which ``_halving`` tries once
    omega: Optional[float] = None
    #: whether ``_halving`` backtracks the step on the curvature
    backtrack = False

    def __init__(self, problem: Problem):
        model, spec = problem.model, problem.penalty
        self.problem = problem
        self.model = model
        self.xt = model._xt
        self._xt_t = self.xt.T
        #: where the slopes start in an augmented array
        self.off = 1 if model.has_intercept else 0
        self.cox = model.family is ResponseFamily.COX
        self.pinned = _pinned_mask(problem)
        lik = fid.kernels(model)
        self._parts_of, self._nll, self._residual = lik.parts, lik.nll, lik.residual
        self._ridge_lam = spec.lam * spec.epsilon
        self._penalty, self._derivative = pen.kernels(spec)
        #: whether the thresholds are constant over the fit
        self.linear = spec.family in pen.LINEAR_FAMILIES
        #: the augmented thresholds, 0 in the intercept slot
        self._tau = np.zeros(model.n_coef)
        if self.linear:
            self._tau[self.off:] = self._derivative(np.zeros(model.design.n_cols))
        self._theta = self._eta = self._parts = None
        self.nll = math.nan
        self._abs_at = self._abs = None

    def fidelity(self, theta: np.ndarray) -> float:
        """The fidelity at theta, remembered with theta, eta and the shared parts."""
        eta = self.xt.dot(theta)
        parts = self._parts_of(eta)
        self.nll = self._nll(eta, parts)
        self._theta, self._eta, self._parts = theta, eta, parts
        return self.nll

    def objective(self, theta: np.ndarray) -> float:
        nll = self.nll if theta is self._theta else self.fidelity(theta)
        beta = theta[self.off:]
        self._abs_at, self._abs = theta, np.abs(beta)
        value = nll + float(np.add.reduce(self._penalty(self._abs)))
        if self._ridge_lam:
            value += self._ridge_lam * float(beta.dot(beta))
        return value

    def eta(self, theta: np.ndarray) -> np.ndarray:
        return self._eta if theta is self._theta else self.xt.dot(theta)

    def grad(self, theta: np.ndarray) -> np.ndarray:
        """The log-likelihood gradient at theta."""
        if theta is self._theta:
            return self._xt_t.dot(self._residual(self._eta, self._parts))
        eta = self.xt.dot(theta)
        return self._xt_t.dot(self._residual(eta, self._parts_of(eta)))

    def abs_beta(self, theta: np.ndarray) -> np.ndarray:
        """|beta| at theta, as the last objective stored it when it was at theta."""
        return self._abs if theta is self._abs_at else np.abs(theta[self.off:])

    def tau(self, theta: np.ndarray) -> np.ndarray:
        """The augmented thresholds p'(|beta_j|) at theta, 0 in the intercept slot.

        The array is the map's own; when the family is not linear, the next
        call rewrites it.
        """
        if not self.linear:
            self._tau[self.off:] = self._derivative(self.abs_beta(theta))
        return self._tau

    def kkt(self, theta: np.ndarray, grad: np.ndarray) -> float:
        """``kkt_residual`` at theta, given the log-likelihood gradient there."""
        beta = theta[self.off:]
        s = 2.0 * self._ridge_lam * beta - grad[self.off:]  # the smooth part's gradient
        d = self._derivative(self.abs_beta(theta))
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
        return float(np.max(r, initial=abs(grad[0]) if self.off else 0.0))


# -- GLM single-map update ------------------------------------------------


def glm_map(
    problem: Problem,
    theta: np.ndarray,
    omega: float,
    grad: Optional[np.ndarray] = None,
    bounds: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> np.ndarray:
    """One closed-form surrogate minimization for bounded-hessian families.

    The update soft-thresholds theta + omega/2 grad l(theta) over the whole
    augmented array at omega/2 tau, with tau = p'(|theta_j|) and 0 in the
    intercept slot, and shrinks the slopes by 1 / (1 + omega lam eps) when
    eps > 0.  ``grad`` (the log-likelihood gradient at theta) and ``bounds``
    (the thresholds -omega/2 tau and omega/2 tau) are passed together by a
    fit's map (``_GlmMap``); without ``bounds`` both come from a map object of
    the problem built here.  Nothing is checked: theta is the augmented
    coefficient array of a problem's model.
    """
    half = 0.5 * omega
    if bounds is None:
        m = _Objective(problem)
        theta = np.asarray(theta, dtype=float)
        if grad is None:
            grad = m.grad(theta)
        tau = m.tau(theta)
        with np.errstate(invalid="ignore"):  # inf - inf: an infinite argument at a pinned coordinate
            out = _soft_threshold(theta + half * grad, -half * tau, half * tau)
    else:
        out = _soft_threshold(theta + half * grad, *bounds)
    spec = problem.penalty
    if spec.epsilon:
        out[1 if problem.model.has_intercept else 0:] *= 1.0 / (1.0 + omega * spec.lam * spec.epsilon)
    return out


class _GlmMap(_Objective):
    """The single soft-threshold MM map of one gaussian, logistic or cox problem.

    Built once per fit.  Its step ``omega`` is ``resolve_step``'s, and it
    backtracks that step exactly when the family is Cox, whose curvature
    bound is loose.  Calling it applies ``glm_map`` at omega, or at a halved
    step passed as the second argument, with the log-likelihood gradient at
    theta passed as the third, or else taken from the eta and the shared
    parts (the gaussian residual, the Cox risk-set sums) of the last
    objective evaluation when it is at the same point.  A plain step with h
    halvings then multiplies by X 2 + h times (X^T r once at theta, whose eta
    and r the objective there cached, and X theta+ in every objective), and a
    squarem step four times plus once per backtrack.

    The thresholds -omega/2 tau and omega/2 tau, with tau from ``tau``, are
    kept between maps and rebuilt when the family is not linear, at every map
    from the |beta| that the objective at theta cached, or when the step
    changed, that is on a halving and on the full step after it.
    """

    def __init__(self, problem: Problem):
        super().__init__(problem)
        self.omega = resolve_step(problem)
        self.backtrack = self.cox
        self._w = None

    def __call__(
        self, theta: np.ndarray, omega: Optional[float] = None, grad: Optional[np.ndarray] = None
    ) -> np.ndarray:
        w = self.omega if omega is None else omega
        if grad is None:
            grad = self.grad(theta)
        if not self.linear or w != self._w:
            half, tau = 0.5 * w, self.tau(theta)
            self._w, self._lo, self._hi = w, -half * tau, half * tau
        return glm_map(self.problem, theta, w, grad, (self._lo, self._hi))

    def anchor(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        """The fidelity and the log-likelihood gradient at theta."""
        if theta is not self._theta:
            self.fidelity(theta)
        return self.nll, self.grad(theta)


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
    a, b = np.abs(alpha.beta), np.abs(beta.beta)
    tau = pen.penalty_derivative_vec(spec, a)
    free = ~np.isinf(tau)
    if np.any(~free & (b != 0.0)):
        return math.inf
    # a pinned coordinate held at zero contributes nothing
    gamma = pen.penalty_value_vec(spec, a)[free] - tau[free] * a[free]
    value += float(np.sum(tau[free] * b[free] + gamma))
    return value + spec.lam * spec.epsilon * float(beta.beta @ beta.beta)


# -- outer drivers --------------------------------------------------------


#: one outer step, (theta, objective at theta) -> (next theta, its objective,
#: step norm, map evaluations, descent backtracks)
Step = Callable[[np.ndarray, float], tuple[np.ndarray, float, float, int, int]]

#: rejected candidates at or below the given step (30 halvings) before a
#: step gives up
FLOOR_ATTEMPTS = 31


def _drive(
    problem: Problem,
    config: SolverConfig,
    start: CoefficientVector,
    m: _Objective,
    step: Step,
) -> FitResult:
    """The outer loop of every fit: start, stopping rules, accounting, result.

    A fit stops when a step's norm is below ``coef_tol`` or its objective
    change below ``obj_tol``, and otherwise after ``max_outer`` steps.  The
    map object ``m`` gives the objective at the start and the log-likelihood
    gradient at the last iterate, from the eta its last objective cached
    there, for the result's KKT residual.
    """
    theta = _start_theta(problem, start)
    map_evals = 0
    backtracks = 0
    termination = Termination.MAX_ITER
    outer = 0
    coef_tol, obj_tol = config.coef_tol, config.obj_tol

    obj = m.objective(theta)
    trace = [obj]
    for outer in range(1, config.max_outer + 1):
        theta_new, obj_new, coef_delta, evals, halvings = step(theta, obj)
        map_evals += evals
        backtracks += halvings
        obj_delta = abs(obj_new - obj)
        theta, obj = theta_new, obj_new
        trace.append(obj)
        if coef_delta < coef_tol:
            termination = Termination.COEF_TOL
            break
        if obj_delta < obj_tol:
            termination = Termination.OBJ_TOL
            break

    return FitResult(
        coef=CoefficientVector.from_augmented(theta, problem.model.has_intercept),
        objective=obj,
        trace=np.array(trace),
        outer_iters=outer,
        map_evals=map_evals,
        kkt_residual=m.kkt(theta, m.grad(theta)),
        termination=termination,
        descent_backtracks=backtracks,
    )


def _halving(m: _Objective) -> Step:
    """The plain MM step of map ``m``: the map at its step, halved until it descends.

    A candidate is accepted when its objective is finite and at most
    DESCENT_SLACK above the current one; an ``OverflowError`` from the map or
    the objective rejects the candidate like a non-finite objective.  After
    ``FLOOR_ATTEMPTS`` rejected candidates at or below ``m.omega`` the step
    raises ``ConvergenceError`` carrying the current iterate.  A map with no
    step (``m.omega`` None) is called on theta alone and gets one attempt,
    since a retry would recompute the rejected point.  A map with a step gets
    nll(theta) and grad l(theta) once per step from the cached eta
    (``m.anchor``), and every attempt reuses that gradient.

    A map with ``m.backtrack`` backtracks on the curvature as in Beck &
    Teboulle (2009); ``m.omega`` is then the step certified by the global
    curvature bound.  The fit's first step starts at ``BACKTRACK_START *
    omega``.  A candidate theta+ at a step w above omega must also satisfy,
    with d = theta+ - theta,

        nll(theta+) <= nll(theta) - grad l(theta) . d + ||d||^2 / w

    up to ``MAJORIZE_SLACK * (1 + |nll(theta)|)``: the surrogate majorizes
    the fidelity at theta+.  At or below omega the global bound certifies it.
    The accepted w, or omega if that is larger, is the next step's first try,
    so the step never grows within a fit.
    """
    omega = m.omega
    first = BACKTRACK_START * omega if m.backtrack else omega
    attempts = 1 if omega is None else FLOOR_ATTEMPTS

    def step(theta, obj):
        nonlocal first
        if omega is not None:
            nll0, grad0 = m.anchor(theta)
        w = first
        evals = floor_rejects = 0
        while True:
            evals += 1
            at_floor = w is None or w <= omega
            try:
                theta_new = m(theta) if w is None else m(theta, w, grad0)
                obj_new = m.objective(theta_new)
            except OverflowError:
                obj_new = math.inf
            if _descends(obj_new, obj):
                d = theta_new - theta
                if at_floor or _majorizes(m.nll, nll0, grad0, d, w):
                    if m.backtrack:
                        first = max(w, omega)
                    return theta_new, obj_new, math.sqrt(float(d.dot(d))), evals, evals - 1
            if at_floor:
                floor_rejects += 1
                if floor_rejects == attempts:
                    raise ConvergenceError(
                        "objective increased, was not finite or overflowed in "
                        f"{evals} attempt(s) ({evals - 1} step halvings)",
                        last_iterate=theta,
                        residual=obj_new - obj,
                    )
            w *= 0.5

    return step


def _descends(obj_new: float, obj: float) -> bool:
    """Whether a candidate's objective is finite and at most ``DESCENT_SLACK``
    above the objective obj it would replace: the descent test of every step."""
    return math.isfinite(obj_new) and obj_new <= obj + DESCENT_SLACK


def _majorizes(nll_new: float, nll0: float, grad0: np.ndarray, d: np.ndarray, w: float) -> bool:
    """Whether the surrogate of step w at theta majorizes the fidelity at theta + d.

    nll0 and grad0 are the fidelity and the log-likelihood gradient at theta,
    nll_new the fidelity at theta + d.
    """
    bound = nll0 - float(grad0.dot(d)) + float(d.dot(d)) / w
    return nll_new <= bound + MAJORIZE_SLACK * (1.0 + abs(nll0))


def glm_mm_fit(problem: Problem, config: SolverConfig, start: CoefficientVector) -> FitResult:
    """Single-soft-threshold-per-iteration MM fit (gaussian/logistic/cox).

    It is ``fit`` on those families.  A Cox fit backtracks its step on the
    curvature (``_GlmMap``); gaussian and logistic fits map at the fixed
    step.
    """
    if problem.model.family is ResponseFamily.POISSON:
        raise NotGloballyLipschitz("use fit for the poisson family")
    return fit(problem, config, start)


class _SurrogateSolve(_Objective):
    """One full minimization of the exact-fidelity surrogate: a map with no step.

    The surrogate at theta keeps the fidelity and the ridge exact and
    linearizes the penalty, l(b) + lam eps ||b||^2 + sum_j p'(|theta_j|) |b_j|;
    ``ist_minimize`` solves it from theta by restarted FISTA at half the
    step that ``curvature_bound`` certifies (``inner_omega``, computed once
    per fit), with ``inner_tol`` and ``inner_max`` from the config.  The Cox
    bound is loose, so Cox solves backtrack the inner step from 64 times
    ``inner_omega`` down to that half step (``ist_minimize`` given ``m``),
    testing majorization at each extrapolated point.  ``m`` remembers eta
    and the Cox risk-set sums at its point, and ``ist_minimize`` evaluates
    it before ``grad_m`` there, so the gradient reuses them.  The solve
    starts at the iterate itself, not a copy, so its first ``m`` and
    ``grad_m`` reuse what the objective there cached.  It serves
    every penalty: for SCAD and MCP, as for the convex ones, the linearized
    penalty majorizes the penalty, so every solve descends.
    """

    def __init__(self, problem: Problem, config: SolverConfig):
        super().__init__(problem)
        spec = problem.penalty
        self.config = config
        self.ridge = _ridge(problem)
        self.inner_omega = _safe_step(fid.curvature_bound(problem.model) + 2.0 * spec.lam * spec.epsilon)

    def grad_m(self, b: np.ndarray) -> np.ndarray:
        """Gradient of the fidelity plus the ridge, the smooth part."""
        if self._ridge_lam:
            return 2.0 * self.ridge * b - self.grad(b)
        return -self.grad(b)

    def m(self, b: np.ndarray) -> float:
        """The fidelity plus the ridge itself.

        It remembers eta and the Cox risk-set sums at b (``fidelity``), so
        ``grad_m`` at the same array reuses them; at the array it remembers,
        such as the iterate a solve starts from, it reuses the fidelity.
        """
        nll = self.nll if b is self._theta else self.fidelity(b)
        return nll + float(self.ridge.dot(b * b)) if self._ridge_lam else nll

    def __call__(self, theta: np.ndarray) -> np.ndarray:
        cfg = self.config
        return ist_minimize(
            self.grad_m,
            self.tau(theta),
            self.inner_omega,
            theta,
            inner_tol=cfg.inner_tol,
            inner_max=cfg.inner_max,
            m=self.m if self.cox else None,
        )


def mm_outer(problem: Problem, config: SolverConfig, start: CoefficientVector) -> FitResult:
    """Generic MM loop with one full surrogate minimization per step.

    The solve is ``_SurrogateSolve``, or ``_PoissonMap`` for Poisson, where
    this is ``fit``.  Neither has an outer step, so each gets one attempt.
    """
    if problem.model.family is ResponseFamily.POISSON:
        solve = _PoissonMap(problem)
    else:
        solve = _SurrogateSolve(problem, config)
    return _drive(problem, config, start, solve, _halving(solve))


# -- Poisson componentwise path -------------------------------------------


class _PoissonMap(_Objective):
    """The separable-majorizer MM map of one poisson problem, which is also
    its ``mm_outer`` surrogate solve: it minimizes the majorized fidelity plus
    the penalty linearized at theta exactly.

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
        xt = self.xt
        self.nz = xt != 0.0
        self.ratio = np.divide(xt, fid._row_weights(xt), out=np.zeros_like(xt), where=self.nz)
        self.curv = xt * self.ratio
        self.absx = np.abs(xt)
        self.empty = ~np.any(self.nz, axis=0)
        self.d = model.response.offsets
        self.y = model.response.y
        self.ridge = _ridge(problem)

    def __call__(self, theta: np.ndarray) -> np.ndarray:
        """The map at theta; the majorizer has no step."""
        theta = np.asarray(theta, dtype=float)
        # a fit's iterates are pinned already and keep their cached eta
        if self.pinned is not None and np.any(theta[self.pinned]):
            theta = np.where(self.pinned, 0.0, theta)
        eta = self.eta(theta)
        # u_ij = base_ij + ratio_ij * b; entries with x_ij = 0 stay at u = 0
        base = np.where(self.nz, eta[:, None] - self.ratio * theta, 0.0)
        return _poisson_scalar_min(self, base, self.tau(theta), theta)


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


# -- one-step estimator and dispatch --------------------------------------


def fit(problem: Problem, config: SolverConfig, start: CoefficientVector) -> FitResult:
    """The plain single-map MM fit: ``mm_map``'s map as a ``_halving`` step of ``_drive``."""
    m = mm_map(problem)
    return _drive(problem, config, start, m, _halving(m))


def mm_map(problem: Problem) -> Union[_GlmMap, _PoissonMap]:
    """The per-iteration MM update as a map over augmented vectors.

    The map object also carries the problem's ``objective`` over augmented
    vectors; the map applied to the array last passed to ``objective`` reuses
    its eta = X theta.
    """
    if problem.model.family is ResponseFamily.POISSON:
        return _PoissonMap(problem)
    return _GlmMap(problem)


def one_step_fit(problem: Problem, config: SolverConfig) -> FitResult:
    """The one-step estimator (Zou & Li 2008): ``mm_outer``'s first iteration
    from the unpenalized MLE.

    The MLE is ``fidelity.fit_mle``'s, which the model keeps, so a lambda
    sweep on one model fits it once.  The fit reports ``max_iter`` unless
    that step already met ``coef_tol`` or ``obj_tol``.  A step that
    overflows, whose objective is not finite, or that rises by more than
    ``DESCENT_SLACK`` raises ``ConvergenceError`` with the MLE as
    ``last_iterate``.
    """
    return mm_outer(problem, replace(config, max_outer=1), fid.fit_mle(problem.model))


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
