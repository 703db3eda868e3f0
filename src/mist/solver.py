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
                       coordinate, each taking one damped Newton step, all
                       at once (``_PoissonMap``).
* ``mm_outer``      -- one full surrogate minimization per step, for every
                       family and penalty: a squarem fit over ``mm_map`` of
                       the weighted lasso that linearizes the penalty
                       (``_SurrogateFit``).
* ``one_step_fit``  -- ``mm_outer``'s first iteration from the MLE.
* ``accel.accelerated_fit`` -- one safeguarded squarem step over ``mm_map``.

Every choice of code path is made by the problem, its family and its
weights; no option selects one.

``fit`` runs ``mm_map``'s map through ``_halving(map)``, which turns a map
into a step.  A map with a step omega (``_GlmMap``) is applied at w omega
for a scalar multiplier w, backtracked on the curvature and halved until the
objective is finite and does not rise; the fidelity and the log-likelihood
gradient at theta come once per step from what the objective there cached
and serve every attempt.  A map with no step (``omega`` None: the surrogate
fit, the Poisson map) gets a single attempt; a candidate of such a map that
rises by rounding alone (``_rounding``) is a stall, which keeps theta.

The Poisson map (``_PoissonMap``) takes one damped Newton step on each
scalar problem whose minimizer is not 0: MM needs each map only to decrease
the majorizer, and one Newton step on the surrogate keeps MM's local rate
(Lange 1995).  With delta = phi' / phi'' and x = R_j |delta|, the step is
delta ln(1 + x) / x, clamped at half the way to 0.  Since |phi'''| <= R_j
phi'', with R_j = s_j max_i sum_k |x_ik| / s_k over the rows column j
touches (s the column norms), built once per fit, that step decreases
phi by at least phi'' delta^2 ((1 + x) ln(1 + x) - x) / x^2 (Sun &
Tran-Dinh 2019), so no certificate and no search is needed, and it moves
every u_ij by at most ln(1 + x).  The map builds once per fit the ratio x /
w and a stack of two n x k slabs, x and x^2 / w, with the column sums of
x y.  One exponential at b = 0, over every column, decides each
coordinate's side, and its sums against the slabs give the slope and
curvature of a coordinate that starts at 0.  A coordinate that starts at
theta_j reads them from the Poisson mean at theta against the slabs (the
objective's cached mean, or the mean of the eta the map forms), since u =
eta there.  So a map takes that one two-dimensional exponential and no
other.  It steps every coordinate with the same few numpy calls over all k
of them and masks the result, so it gathers and scatters no indices: a
coordinate that maps to 0 gets delta = 0, and its masked value is an exact 0.

Every GLM step, of the gaussian, logistic and Cox maps and so of every
surrogate fit, comes from one rule (``glm_step``): omega = 0.95 * 2 / D,
with D the curvature bound of ``fidelity.diagonal_bound``; the ridge is
never part of it, since every update applies it exactly, as the shrink 1 /
(1 + omega lam eps) of the slopes.  For gaussian and logistic D is one
number per coordinate, D_j = L_s ||x_j||^2 over the augmented design
(intercept included, and ||x_j|| taken as 1 for an all-zero column), with
L_s the largest eigenvalue of S^-1 X^T X S^-1 for S = diag ||x_j||, and 1/4
of that for logistic.  X^T X <= L_s S^2, so the surrogate with the quadratic
term sum_j d_j^2 / omega_j majorizes the fidelity, and the map stays one
componentwise soft-threshold; a column's step follows its own scale, not
that of the largest column.  For Cox D is one number, the bound n_events *
max ||x_i||^2 of ``fidelity.curvature_bound``, so the Cox step is
``resolve_step``'s.

Each of these bounds holds everywhere, but MM only needs the surrogate to
majorize at the point it accepts, and the bounds are loose there: the Cox
bound is several times the largest Hessian eigenvalue, the logistic 1/4 is
the curvature at eta = 0 only, and a diagonal bound exceeds the Hessian of
a correlated design in most directions.  So every plain fit backtracks on the
curvature (Beck & Teboulle 2009).  Its first step tries ``BACKTRACK_START``
(64) times the certified step and halves until the candidate descends and
the quadratic surrogate majorizes the fidelity there, checked exactly by
the one test of every backtracked step (``_majorizes``):

    nll(theta+) <= nll(theta) - grad l(theta) . d + sum_j d_j^2 / (w omega_j).

A gaussian fidelity is quadratic, so its test reads ||X d||^2 / 2 on the
left, exactly, with the first two terms on the right moved over.  The
accepted step carries to the next one and never grows; at or below the
certified step the test is skipped, since the bound guarantees it.
Squarem, which needs a fixed map, applies each map at its certified step;
the Poisson map has no step.

Every surrogate minimization (``mm_outer``'s step, and so the one-step
estimator) is a fit of its own (``_SurrogateFit``), for every family.  At
theta the surrogate keeps the fidelity and the ridge and linearizes the
penalty (Zou & Li 2008): it is the adaptive lasso, or the adaptive elastic
net when eps > 0, with the weights p'(|theta_j|) / lam.  So the step builds
that problem's map (``mm_map``) and runs squarem over it from theta, the
step of ``accel.accelerated_fit``, in the loop of every fit (``_iterate``),
which checks and builds nothing.  The fit stops when squarem's step norm
||r|| falls below ``INNER_TOL``, in coefficient units, or below
``INNER_TOL`` / ``BACKTRACK_START`` on a map with no step per coordinate:
Cox, whose certified step is several times shorter than the curvature
allows, and Poisson.

The loops work on plain augmented arrays (intercept first) and run on
unchecked kernels; ``_drive`` checks the start once, and nothing inside a fit
calls a checked function.  The public ``total_objective``, ``kkt_residual``
and ``soft_threshold_vec`` check their arguments and compute the same values;
the public ``glm_map`` builds a fit's map (``_GlmMap``) at the step it is
given and applies it once, so it runs the fits' one update.
A map object (``_Objective``) is the single source of a fit's numbers.  Its
``objective`` at theta keeps, with that array, eta = X theta, the parts the
likelihood shares with the score (the gaussian residual r = y - eta, or the
Cox risk-set sums) and |beta|, so the map applied next at the same point
neither multiplies by X for eta, forms r, sums the risk sets nor takes
|beta| again.

One plain iteration of a gaussian or logistic fit is then:

1. the log-likelihood gradient at theta, X^T r from the cached eta and
   parts (``_halving``, through ``_Objective.grad``);
2. the map (``_GlmMap``, through ``glm_map``): u = theta + omega/2 grad,
   formed once, and the soft-threshold u - min(max(u, -t), t) at the kept
   thresholds t = omega/2 tau, written inline, and a shrink of the slopes
   only when eps > 0;
3. the objective at the candidate (``_Objective.objective``): eta = X
   theta+, its parts and the likelihood, inline, and the penalty as one call
   of the spec's ``total`` kernel on |beta|, a dot product for the linear
   families;
4. the descent test, inline, and the step norm sqrt(d . d).

That is seven Python frames on a gaussian lasso fit: the step, the gradient
and its residual kernel, the map and ``glm_map``, the objective and its
likelihood kernel.  A plain step multiplies by X twice, X^T r at theta and
X theta+ in the objective of its candidate, plus once per halving; a fit
reports the KKT residual from the gradient at the eta cached at its last
iterate, one product with X.  The majorization test of a step above the
certified one (``_majorizes``) is one frame more; it reads nll(theta),
which the objective at theta cached.

What does not change within a fit is built once, when its map object is
built: the likelihood kernels of the model (``fidelity.kernels``, one family
switch for the shared parts, the likelihood and the score residual), the
penalty's value, derivative and summed value (``penalties.kernels``, one
family switch for all three), and the step.  The map object's ``kkt`` reads
the same derivative kernel, so the KKT check of a fit or of a path's lambda
builds nothing.  The map object holds one augmented threshold array, with 0
in the intercept slot, and its ``tau(theta)`` is the only place thresholds
are made.  The linear families (lasso, adaptive lasso and the elastic nets),
whose thresholds lam w_j do not depend on theta, write the array once, when
the map is built; the other families rewrite it at each map from the |beta|
cached at theta.  A zero threshold returns the intercept exactly; with
eps = 0 the objective and the map form no ridge term.  A
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
from .exceptions import ConvergenceError, NotGloballyLipschitz, ValidationError, json_object
from .fidelity import CoefficientVector, FidelityModel, ResponseFamily
from .penalties import PenaltySpec

#: tolerated objective increase before the descent safeguard kicks in
DESCENT_SLACK = 1e-12
#: safety margin keeping the step strictly inside (0, 2 / curvature)
STEP_SAFETY = 0.95
#: a backtracked GLM step starts each fit at this multiple of the certified step
BACKTRACK_START = 64.0
#: relative rounding slack of the majorization test of a backtracked step
MAJORIZE_SLACK = 1e-12
#: cap on the squarem steps of one surrogate fit
INNER_MAX = 100_000
#: the step norm below which a surrogate fit stops (``_SurrogateFit``)
INNER_TOL = 1e-8
EPS = float(np.finfo(float).eps)


class Termination(str, enum.Enum):
    COEF_TOL = "coef_tol"
    OBJ_TOL = "obj_tol"
    MAX_ITER = "max_iter"


@dataclass
class SolverConfig:
    """Stopping controls.

    ``coef_tol``, ``obj_tol`` and ``max_outer`` stop the outer loop.  The
    inner squarem fit of a surrogate (``mm_outer``'s step) stops on its step
    norm at the constant ``INNER_TOL``, and the constant ``INNER_MAX`` caps
    its steps.
    Every step of a map comes from the problem's curvature bound by one rule
    (``glm_step``), one per coordinate for gaussian and logistic and one for
    every coordinate for Cox, so no field sets one.

    The fields are checked when the config is built.  The tolerances must be
    real numbers > 0, and ``max_outer`` an integer >= 1; an integral float
    such as JSON's ``1e6`` is taken as that integer, and a bool is neither.
    """

    coef_tol: float = 1e-6
    obj_tol: float = 1e-6
    max_outer: int = 1_000_000

    def __post_init__(self):
        for name in ("coef_tol", "obj_tol"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or not value > 0:
                raise ValidationError(f"{name} must be a real number > 0, got {value!r}")
        value = self.max_outer
        if isinstance(value, float) and value.is_integer():
            value = self.max_outer = int(value)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
            raise ValidationError(f"max_outer must be an integer >= 1, got {value!r}")

    @classmethod
    def from_json(cls, s: str) -> "SolverConfig":
        """The config of a JSON object; an unknown key is named in the error."""
        return cls(**json_object(json.loads(s), "solver config", [f.name for f in fields(cls)]))


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
    """sign(u) (|u| - v)_+ componentwise, for thresholds v >= 0 of u's shape.

    It forms u - min(max(u, -v), v), the form every map writes inline
    (``glm_map``): that is sign(u) (|u| - v)_+ bit for bit, up to the sign
    of a zero, u - v or u + v outside [-v, v] and u - u = 0 inside it.  With
    v = 0 it returns u exactly, so a single call covers an augmented vector
    whose intercept slot has threshold 0, and with v = inf and u finite it
    returns 0 without forming inf - inf.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValidationError(f"shape mismatch {u.shape} vs {v.shape}")
    if not np.all(v >= 0.0):
        raise ValidationError("thresholds must be >= 0, not negative or NaN")
    with np.errstate(invalid="ignore"):  # inf - inf: an infinite u at a pinned coordinate
        return u - np.minimum(np.maximum(u, -v), v)


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


# -- step resolution ------------------------------------------------------


def resolve_step(problem: Problem, config: Optional[SolverConfig] = None) -> float:
    """The scalar MM step constant, ``STEP_SAFETY * 2 / curvature_bound``.

    On a Cox problem it is the step that ``glm_step`` gives, since the Cox
    curvature bound is one number.  The gaussian and logistic maps step
    each coordinate by its own bound instead (``glm_step``); ``glm_map`` at
    this scalar step is still an MM map, since the scalar surrogate
    majorizes as well.  ``config`` is accepted and not read.
    """
    lip = fid.curvature_bound(problem.model)
    return STEP_SAFETY * 2.0 / lip if lip > 0 else 1.0


def glm_step(model: FidelityModel) -> Union[float, np.ndarray]:
    """The one step rule of every GLM map:
    ``STEP_SAFETY * 2 / D`` with D = ``fidelity.diagonal_bound``.

    D, and so the step, is one per augmented coordinate for gaussian and
    logistic models and one number for Cox.  The ridge adds no curvature to
    it: every update applies the ridge exactly, as the shrink 1 / (1 + omega
    lam eps) of the slopes (``_GlmMap``).  A bound that is not positive (an
    all-zero design) gives the step 1.
    """
    bound = np.asarray(fid.diagonal_bound(model))
    step = np.divide(STEP_SAFETY * 2.0, bound, out=np.ones_like(bound), where=bound > 0.0)
    return step if step.ndim else float(step)


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
    the one check of a whole fit or path.  A response that leaves the
    intercept no finite minimizer raises ``ConvergenceError`` here, before
    any map (``fidelity.require_finite_intercept``)."""
    theta = problem.model._check(start).astype(float)
    if not np.all(np.isfinite(theta)):
        raise ValidationError("start coefficients must be finite")
    fid.require_finite_intercept(problem.model, theta, "minimizer")
    pinned = _pinned_mask(problem)
    if pinned is not None:
        theta[pinned] = 0.0
    return theta


class _Objective:
    """The penalized objective over augmented arrays, remembering its last point.

    Built once per fit, it picks its likelihood kernels (``fidelity.kernels``)
    and its penalty kernels at construction, so no call tests the family.
    ``objective(theta)``, which runs once per map, stores (theta, eta = X
    theta), the fidelity ``nll`` at theta, the parts the likelihood shares
    with the score there (the gaussian residual r = y - eta, of which
    nll = r . r / 2 and the gradient is X^T r, the Poisson mean, or the Cox
    risk-set sums ``fidelity._cox_parts``) and |beta| at theta.  ``objective``,
    ``eta``, ``grad`` and ``tau`` reuse them when asked about the same array
    object (the fits never change an iterate in place), so a map applied to
    the point whose objective was just evaluated neither multiplies by X,
    forms the residual, sums the risk sets nor takes |beta| again.

    The penalty reaches it only through the spec's kernels
    (``penalties.kernels``): the summed value sum_j p(|beta_j|) in one call,
    in the objective (a pinned coordinate held at 0 adds 0), and the
    threshold p'(|beta_j|).  It holds one augmented threshold array, 0 in the
    intercept slot, and ``tau(theta)`` is the only place thresholds are made:
    for the linear families (lasso, adaptive lasso and the elastic nets),
    whose thresholds lam w_j do not depend on theta, the array is written
    once, when the map is built; for the others ``tau`` rewrites its slopes
    at the |beta| cached at theta.  The ridge term is added only when eps > 0.
    ``kkt`` reads the same derivative kernel.
    """

    #: the map's step, one number or one per coordinate (``glm_step``), which
    #: ``_halving`` backtracks; None for a map with no step, which it tries once
    omega: Union[None, float, np.ndarray] = None

    def __init__(self, problem: Problem):
        model, spec = problem.model, problem.penalty
        self.problem = problem
        self.model = model
        self.xt = model._xt
        self._xt_t = self.xt.T
        #: where the slopes start in an augmented array
        self.off = 1 if model.has_intercept else 0
        #: whether the fidelity is quadratic, which ``_majorizes`` tests exactly
        self.quadratic = model.family is ResponseFamily.GAUSSIAN
        self.pinned = _pinned_mask(problem)
        lik = fid.kernels(model)
        self._parts_of, self._nll, self._residual = lik.parts, lik.nll, lik.residual
        self._ridge_lam = spec.lam * spec.epsilon
        penalty = pen.kernels(spec, model.design.n_cols)
        self._total, self._derivative = penalty.total, penalty.derivative
        #: whether the thresholds are constant over the fit
        self.linear = spec.family in pen.LINEAR_FAMILIES
        #: the augmented thresholds, 0 in the intercept slot
        self._tau = np.zeros(model.n_coef)
        if self.linear:
            self._tau[self.off:] = self._derivative(np.zeros(model.design.n_cols))
        self._theta = self._eta = self._parts = None
        self.nll = math.nan
        self._abs_at = self._abs = None

    def objective(self, theta: np.ndarray) -> float:
        if theta is not self._theta:
            eta = self.xt.dot(theta)
            parts = self._parts_of(eta)
            self.nll = self._nll(eta, parts)
            self._theta, self._eta, self._parts = theta, eta, parts
        beta = theta[self.off:]
        r = np.abs(beta)
        self._abs_at, self._abs = theta, r
        value = self.nll + float(self._total(r))
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

    def tau(self, theta: np.ndarray) -> np.ndarray:
        """The augmented thresholds p'(|beta_j|) at theta, 0 in the intercept slot,
        from the |beta| the last objective stored when it was at theta.

        The array is the map's own; when the family is not linear, the next
        call rewrites it.
        """
        if not self.linear:
            r = self._abs if theta is self._abs_at else np.abs(theta[self.off:])
            self._tau[self.off:] = self._derivative(r)
        return self._tau

    def kkt(self, theta: np.ndarray, grad: np.ndarray) -> float:
        """``kkt_residual`` at theta, given the log-likelihood gradient there."""
        beta = theta[self.off:]
        s = 2.0 * self._ridge_lam * beta - grad[self.off:]  # the smooth part's gradient
        d = self._derivative(np.abs(beta))
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
    omega: Union[float, np.ndarray],
    grad: Optional[np.ndarray] = None,
    terms: Optional[tuple] = None,
) -> np.ndarray:
    """One closed-form surrogate minimization for bounded-hessian families.

    The step omega is one number or one per augmented coordinate.  The update
    forms u = theta + omega/2 grad l(theta) once, soft-thresholds it at t =
    omega/2 tau, with tau = p'(|theta_j|) and 0 in the intercept slot, as u -
    min(max(u, -t), t), and shrinks each slope by 1 / (1 + omega_j lam eps)
    when eps > 0.  A fit's map (``_GlmMap``) calls this once per map with the
    gradient at theta and its ``terms`` (omega/2, -t, t and the shrink, None
    when eps = 0), so omega is not read.  Without ``terms`` the call builds
    that map at the step omega and applies it once, with the gradient at
    theta when ``grad`` is None.  Nothing is checked: theta is the augmented
    coefficient array of a problem's model.
    """
    if terms is None:
        return _GlmMap(problem, omega)(np.asarray(theta, dtype=float), 1.0, grad)
    half, lo, hi, shrink = terms
    u = theta + half * grad
    out = u - np.minimum(np.maximum(u, lo), hi)
    if shrink is not None:
        out[1 if problem.model.has_intercept else 0:] *= shrink
    return out


class _GlmMap(_Objective):
    """The single soft-threshold MM map of one gaussian, logistic or cox problem.

    Built once per fit.  Its step ``omega`` is ``glm_step``'s: one per
    augmented coordinate on gaussian and logistic problems, so a column's
    step follows its own scale (the surrogate with sum_j d_j^2 / omega_j
    still majorizes, since H <= diag(D)), and one number, ``resolve_step``'s,
    on Cox problems.  A plain fit backtracks it in both cases (``_halving``).
    A step passed to the constructor replaces ``glm_step``'s, and no
    curvature bound is computed: ``glm_map`` builds the map so at the step it
    is given.

    Calling it applies ``glm_map`` at w omega for a scalar multiplier w, 1
    unless ``_halving`` passes another one as the second argument, with the
    log-likelihood gradient at theta passed as the third, or else taken from
    the eta and the shared parts (the gaussian residual, the Cox risk-set
    sums) of the last objective evaluation when it is at the same point.  A
    plain step with h halvings then multiplies by X 2 + h times (X^T r once
    at theta, whose eta and r the objective there cached, and X theta+ in
    every objective), and a squarem step four times plus once per backtrack.

    The map's ``terms`` (the half step w omega / 2, the thresholds -w
    omega/2 tau and w omega/2 tau, the slopes' ridge shrink 1 / (1 + w
    omega_j lam eps), None when eps = 0) are kept between maps and rebuilt
    when w changed, on a halving and on the step after one below 1, which
    tries 1 again.  When the family is not linear the thresholds are rebuilt
    at every map as well, from the |beta| that the objective at theta
    cached; a linear family's map at an unchanged w hands the kept tuple on
    as it is.  So a map at a vector step makes the array operations of a map
    at a scalar one.
    """

    def __init__(self, problem: Problem, omega: Union[None, float, np.ndarray] = None):
        super().__init__(problem)
        self.omega = glm_step(self.model) if omega is None else omega
        self._w = self._terms = None

    def __call__(self, theta: np.ndarray, w: float = 1.0, grad: Optional[np.ndarray] = None) -> np.ndarray:
        if grad is None:
            grad = self.grad(theta)
        if w != self._w:
            step = w * self.omega
            half = 0.5 * step
            hi = half * self.tau(theta)
            spec, shrink = self.problem.penalty, None
            if spec.epsilon:
                slopes = step[self.off:] if np.ndim(step) else step
                shrink = 1.0 / (1.0 + slopes * spec.lam * spec.epsilon)
            self._w, self._terms = w, (half, -hi, hi, shrink)
        elif not self.linear:  # the kept half step and shrink, the thresholds at theta
            half, _, _, shrink = self._terms
            hi = half * self.tau(theta)
            self._terms = (half, -hi, hi, shrink)
        return glm_map(self.problem, theta, None, grad, self._terms)


def glm_surrogate_value(
    problem: Problem,
    omega: Union[float, np.ndarray],
    alpha: CoefficientVector,
    beta: CoefficientVector,
) -> float:
    """The quadratic-plus-linearized-penalty surrogate at beta, anchored at alpha.

    Its quadratic term is sum_j d_j^2 / omega_j over the augmented difference
    d = beta - alpha, for a step omega that is one number or one per
    coordinate; ``glm_map`` at omega minimizes it.
    """
    model = problem.model
    spec = problem.penalty
    ta, tb = alpha.augmented(), beta.augmented()
    diff = tb - ta
    value = (
        fid.neg_loglik(model, alpha)
        - float(fid.gradient(model, alpha) @ diff)
        + float((diff / omega) @ diff)
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

    It checks the start once (``_start_theta``) and runs ``_iterate`` from
    it under the config's rules.  The map object ``m`` gives the
    log-likelihood gradient at the last iterate, from the eta its last
    objective cached there, for the result's KKT residual.
    """
    theta, trace, outer, map_evals, backtracks, termination, _ = _iterate(
        m, step, _start_theta(problem, start), config.coef_tol, config.obj_tol, config.max_outer
    )
    return FitResult(
        coef=CoefficientVector.from_augmented(theta, problem.model.has_intercept),
        objective=trace[-1],
        trace=np.array(trace),
        outer_iters=outer,
        map_evals=map_evals,
        kkt_residual=m.kkt(theta, m.grad(theta)),
        termination=termination,
        descent_backtracks=backtracks,
    )


def _iterate(m: _Objective, step: Step, theta: np.ndarray, coef_tol: float, obj_tol: float, max_iter: int):
    """The loop of ``_drive`` from the checked augmented start theta, which
    ``mm_outer``'s surrogate fit runs as well, with nothing checked or built.

    It stops when a step's norm is below ``coef_tol`` or its objective change
    below ``obj_tol``, and otherwise after ``max_iter`` steps.  ``m`` gives
    the objective at the start.  It returns the last iterate, the objective
    trace (a list), the steps, map evaluations and descent backtracks taken,
    the termination and the last step's norm.
    """
    map_evals = 0
    backtracks = 0
    termination = Termination.MAX_ITER
    outer = 0
    coef_delta = math.inf

    obj = m.objective(theta)
    trace = [obj]
    for outer in range(1, max_iter + 1):
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
    return theta, trace, outer, map_evals, backtracks, termination, coef_delta


def _halving(m: _Objective) -> Step:
    """The plain MM step of map ``m``: the map at its step, backtracked on
    the curvature (Beck & Teboulle 2009) and halved until it descends.

    The step is ``m.omega``, one number or one per coordinate, times a scalar
    multiplier w that the map is called with (``_GlmMap``), so halving w
    halves every coordinate's step.  A fit's first step tries w =
    ``BACKTRACK_START``; the accepted w, or 1 if that is larger, is the next
    step's first try, so the step never grows within a fit.  A candidate is
    accepted when its objective is finite and at most DESCENT_SLACK above the
    current one, the difference taken as the trace check takes it
    (``_descends``, written inline, as it runs once per map), and, at w
    above 1, when the surrogate of step w omega majorizes the fidelity at
    theta+ (``_majorizes``); at or below 1 the curvature bound certifies it.
    nll(theta), grad l(theta) and eta come once per step from what the
    objective at theta cached (``m.grad``), and every attempt reuses them.
    An ``OverflowError`` from the map or the objective rejects the candidate
    like a non-finite objective.  After ``FLOOR_ATTEMPTS`` rejected
    candidates at w <= 1, the last at w = 2^-30, the step raises
    ``ConvergenceError`` carrying the current iterate.

    A map with no step (``m.omega`` None: the surrogate fit, the Poisson
    map) is called on theta alone and gets one attempt, since a retry would
    recompute the rejected point.  Such a map descends in exact arithmetic,
    so a finite candidate that rises by no more than the rounding of the
    objective's own sums (``_rounding``) is a stall: the step keeps theta
    and reports the objective unchanged, with the rejected move's norm as
    its step norm, so the fit ends on ``obj_tol`` (or on ``coef_tol`` when
    that move is below it), as a fit whose objective stops changing in
    floating point does.  Any other rejected candidate raises.
    """
    omega = m.omega
    first = 1.0 if omega is None else BACKTRACK_START
    # the last multiplier tried before a step gives up
    last = 1.0 if omega is None else 0.5 ** (FLOOR_ATTEMPTS - 1)

    def step(theta, obj):
        nonlocal first
        if omega is not None:
            if theta is not m._theta:
                m.objective(theta)
            nll0, grad0, eta0 = m.nll, m.grad(theta), m._eta
        w, evals = first, 0
        while True:
            evals += 1
            try:
                theta_new = m(theta) if omega is None else m(theta, w, grad0)
                obj_new = m.objective(theta_new)
            except OverflowError:
                obj_new = math.inf
            if obj_new - obj <= DESCENT_SLACK and math.isfinite(obj_new):  # ``_descends``, inline
                d = theta_new - theta
                dd = d.dot(d)
                # at or below w = 1 the curvature bound certifies the majorization
                if w <= 1.0 or _majorizes(m, nll0, grad0, eta0, d, dd, w * omega):
                    first = max(w, 1.0)
                    return theta_new, obj_new, math.sqrt(dd), evals, evals - 1
            elif omega is None and math.isfinite(obj_new) and obj_new - obj <= _rounding(m, obj_new):
                # a map with no step that rises by rounding alone: a stall at theta
                d = theta_new - theta
                return theta, obj, math.sqrt(d.dot(d)), evals, 0
            if w <= last:
                raise ConvergenceError(
                    "objective increased, was not finite or overflowed in "
                    f"{evals} attempt(s) ({evals - 1} step halvings)",
                    last_iterate=theta,
                    residual=obj_new - obj,
                )
            w *= 0.5

    return step


def _rounding(m: _Objective, obj: float) -> float:
    """The rounding bound of the objective obj that ``m`` evaluated last: n
    EPS (|nll| + penalty + ridge), with n the rows that the likelihood sums
    over, the bound on the rounding of a sum of n terms whose magnitudes add
    up to that.  Read only when a step is rejected."""
    return m.model.design.n_rows * EPS * (abs(m.nll) + abs(obj - m.nll))


def _descends(obj_new: float, obj: float) -> bool:
    """Whether a candidate's objective is finite and at most ``DESCENT_SLACK``
    above the objective obj it would replace: the descent test of every step.
    It takes the difference obj_new - obj, as a check of a trace's steps
    does, so an accepted step never rises by more than the slack there."""
    return math.isfinite(obj_new) and obj_new - obj <= DESCENT_SLACK


def _majorizes(m: _Objective, nll0: float, grad0: np.ndarray, eta0: np.ndarray,
               d: np.ndarray, dd: float, step: Union[float, np.ndarray]) -> bool:
    """The one majorization test of every backtracked step (Beck & Teboulle 2009):

        nll(theta + d) <= nll(theta) - grad l(theta) . d + sum_j d_j^2 / step_j

    up to ``MAJORIZE_SLACK * (1 + |nll(theta)|)``, from nll0, grad0 and eta0
    at theta, dd = d . d, and the fidelity and eta at theta + d that ``m``
    evaluated last.  A gaussian fidelity is quadratic, so there the test reads
    ||X d||^2 / 2 <= sum_j d_j^2 / step_j exactly, with no slack: near the
    optimum the difference of two likelihood sums is rounding alone, under
    which a step long enough to make the iterates oscillate would pass.
    """
    quad = d.dot(d / step) if isinstance(step, np.ndarray) else dd / step
    if m.quadratic:
        de = m._eta - eta0
        return 0.5 * de.dot(de) <= quad
    bound = nll0 - float(grad0.dot(d)) + float(quad)
    return m.nll <= bound + MAJORIZE_SLACK * (1.0 + abs(nll0))


def glm_mm_fit(problem: Problem, config: SolverConfig, start: CoefficientVector) -> FitResult:
    """Single-soft-threshold-per-iteration MM fit (gaussian/logistic/cox).

    It is ``fit`` on those families: each fit backtracks its step on the
    curvature from ``BACKTRACK_START`` times the certified step and never
    lets it grow (``_halving``).
    """
    if problem.model.family is ResponseFamily.POISSON:
        raise NotGloballyLipschitz("use fit for the poisson family")
    return fit(problem, config, start)


class _SurrogateFit(_Objective):
    """``mm_outer``'s step on a problem of any family: a map with no outer
    step (``omega`` None), which ``_halving`` calls once.

    A call minimizes the surrogate at theta, l(b) + lam eps ||b||^2 + sum_j
    p'(|theta_j|) |b_j|: the adaptive lasso with the weights ``tau(theta)`` /
    lam, 0 and +inf included, and the spec's eps, which carries the ridge, so
    an adaptive elastic net when eps > 0.  It runs squarem
    (``accel._squarem``) over that problem's map (``mm_map``: ``_GlmMap``,
    or ``_PoissonMap`` for Poisson) from theta in ``_iterate``,
    until the step norm ||r|| is below ``INNER_TOL``, or ``INNER_TOL`` /
    ``BACKTRACK_START`` on a map with no step per coordinate (Cox's one step,
    the Poisson map's none), or the objective is exactly unchanged.  After
    ``INNER_MAX`` steps, or on a squarem step that fails, it raises
    ``ConvergenceError`` carrying theta.  The linearized penalty majorizes the
    penalty, so every fit descends.
    """

    def __init__(self, problem: Problem):
        super().__init__(problem)
        from .accel import _squarem  # accel builds on this module

        self._squarem = _squarem

    def __call__(self, theta: np.ndarray) -> np.ndarray:
        spec = self.problem.penalty
        weighted = replace(
            spec, family=pen.Family.ADAPTIVE_LASSO, weights=self.tau(theta)[self.off:] / spec.lam
        )
        inner = mm_map(Problem(self.model, weighted))
        tol = INNER_TOL if np.ndim(inner.omega) else INNER_TOL / BACKTRACK_START
        try:
            out, *_, termination, resid = _iterate(
                inner, self._squarem(inner), theta, tol, math.ulp(0.0), INNER_MAX
            )
        except ConvergenceError as err:  # a squarem step whose map overflowed
            raise ConvergenceError(f"the inner squarem fit: {err}", last_iterate=theta,
                                   residual=err.residual) from err
        if termination is Termination.MAX_ITER:
            raise ConvergenceError(
                f"the inner squarem fit did not converge in {INNER_MAX} iterations",
                last_iterate=theta,
                residual=resid,
            )
        return out


def mm_outer(problem: Problem, config: SolverConfig, start: CoefficientVector) -> FitResult:
    """Generic MM loop with one full surrogate minimization per step.

    The minimization is ``_SurrogateFit``'s squarem fit of the weighted
    lasso, for every family.  It has no outer step, so each step gets one
    attempt.
    """
    solve = _SurrogateFit(problem)
    return _drive(problem, config, start, solve, _halving(solve))


# -- Poisson componentwise path -------------------------------------------


class _PoissonMap(_Objective):
    """The separable-majorizer MM map of one poisson problem: one damped
    Newton step on each coordinate's component of the majorized fidelity
    plus the penalty linearized at theta.  A surrogate fit (``_SurrogateFit``)
    runs squarem over it on the weighted lasso of its outer iterate.

    The majorizer splits into one strictly convex scalar problem per
    coordinate, all anchored at the same eta = X theta.  What does not depend
    on theta is built once per fit here: the weights w, the ratio x_ij /
    w_ij (zero where x_ij = 0), one stack of two n x k slabs, x_ij and
    x_ij^2 / w_ij, whose sums against d_i e^u_ij give every coordinate's
    slope and curvature in one reduction, the column sums sum_i x_ij y_i,
    and 1 / R_j for R_j = max_i |x_ij / w_ij| = s_j max_i sum_k |x_ik| / s_k
    over the rows column j touches (s the column norms of
    ``fidelity.poisson_weights``), which damps the step; an all-zero column
    gets the finite placeholder 1.  Each call takes eta from the last
    objective evaluation or computes it once, and steps every scalar
    problem together in ``_poisson_scalar_min``.  ``mean`` is the
    Poisson mean at theta: the objective's when it was just evaluated there,
    else the mean of the eta the call holds, so a map at an uncached point
    multiplies by X once.
    """

    def __init__(self, problem: Problem):
        super().__init__(problem)
        model = problem.model
        xt = self.xt
        #: x / w, the change of u_ij per unit of b_j; 0 where x_ij = 0
        self.ratio = np.divide(xt, fid._row_weights(xt), out=np.zeros_like(xt), where=xt != 0.0)
        #: x and x^2 / w, one n x k slab each
        self.stack = np.stack([xt, xt * self.ratio])
        reach = np.abs(self.ratio).max(axis=0, initial=0.0)
        #: 1 / R_j of each column, R_j = max_i |x_ij / w_ij|; 1 for an
        #: all-zero column, whose step, taken with delta = 0, is then 0
        self.inv_reach = 1.0 / np.where(reach > 0.0, reach, 1.0)
        self.d = model.response.offsets[:, None]
        self.xy = model.response.y.dot(xt)
        self.ridge = _ridge(problem)
        #: eta at the theta the map is applied to
        self._map_eta = None

    def mean(self, theta: np.ndarray) -> np.ndarray:
        """The Poisson mean d e^eta at the theta the map is applied to: the
        objective's, when it was last at theta, else from the eta the map holds."""
        return self._parts if theta is self._theta else self._parts_of(self._map_eta)

    def __call__(self, theta: np.ndarray) -> np.ndarray:
        """The map at theta; the majorizer has no step."""
        theta = np.asarray(theta, dtype=float)
        # a fit's iterates are pinned already and keep their cached eta
        if self.pinned is not None and np.any(theta[self.pinned]):
            theta = np.where(self.pinned, 0.0, theta)
        eta = self._map_eta = self.eta(theta)
        # u_ij = base_ij + ratio_ij * b
        base = eta[:, None] - self.ratio * theta
        return _poisson_scalar_min(self, base, self.tau(theta), theta)


def _poisson_scalar_min(
    pm: _PoissonMap, base: np.ndarray, tau: np.ndarray, theta: np.ndarray
) -> np.ndarray:
    """One damped Newton step on k_j(b) + ridge_j * b^2 + tau_j * |b| for
    every coordinate j.

    ``k_j(b) = sum_i w_ij (d_i e^{u_ij} - y_i u_ij)`` with
    ``u_ij = base_ij + ratio_ij * b`` is the j-th majorizer component.  Its
    minimizer is 0 when |k_j'(0)| <= tau_j (always when tau_j is infinite),
    and the map returns an exact 0 there; otherwise the minimizer has the
    sign sigma_j of -k_j'(0), and the coordinate steps in the frame c =
    sigma_j b, where the problem is phi(c) = k_j(sigma_j c) + ridge_j c^2 +
    tau_j c over c >= 0.  One exponential at b = 0, over every column,
    decides these signs.  An entry x_ij = 0 adds an exact 0 to both sums,
    so an all-zero column has the slope 0 there, which no threshold
    exceeds, and maps to 0: the fidelity does not depend on its coordinate
    and the penalty is nondecreasing in |b|, so 0 minimizes it.

    The map raises ``OverflowError`` only where the Poisson mean at theta,
    and so the objective, overflows (``pm.mean``).  Where it does not, an
    entry of the exponential at b = 0 passes ``fidelity._EXP_GUARD`` only
    through its coordinate's own term -(x_ij / w_ij) theta_j > 0, so every
    such row has sign(x_ij) = -sign(theta_j): k_j'(0) is infinite with the
    sign that puts the minimizer on theta_j's side, and that coordinate
    steps from c = |theta_j| on the finite sums at theta.

    The step starts at c = max(sigma_j theta_j, 0).  With delta = phi' / phi''
    there and x = R_j |delta|, R_j = 1 / ``pm.inv_reach``, it goes to

        c+ = max(c - delta ln(1 + x) / x, c / 2),

    with the factor ln(1 + x) / x read as 1 at x = 0.  Each term of phi''' is
    its term of phi'' times x_ij / w_ij, so |phi'''| <= R_j phi'' (the ridge
    adds to phi'' only), and so phi(c + s) <= phi(c) + phi' s + phi'' (e^(R
    |s|) - 1 - R |s|) / R^2 (Sun & Tran-Dinh 2019).  The damped step
    minimizes that bound, which gives

        phi(c+) - phi(c) <= phi'' delta^2 (x - (1 + x) ln(1 + x)) / x^2 < 0

    for delta != 0; the c / 2 clamp keeps c+ on the searched side, and
    convexity keeps its decrease.  The start descends too: 0 lies between a
    theta_j on the other side and the minimizer.  So every map decreases
    the majorizer, a fixed point of the map (delta = 0 at every coordinate
    it steps) is a KKT point, and a map moves each u_ij by at most
    ln(1 + x).  Scaling column j scales b_j and delta by the inverse factor
    and leaves x unchanged, so the map commutes with column scaling.  No
    certificate is needed and none is taken: MM asks each map only to
    decrease the majorizer, and one Newton step keeps MM's local rate
    (Lange 1995).

    The step takes no exponential over the slabs beyond the one at b = 0.
    A coordinate that starts at c = 0 reads its slope and curvature from
    that exponential's sums.  One that starts at theta_j, where u_ij = eta_i,
    reads them from the Poisson mean at theta (``pm.mean``, the objective's
    when it was at theta) against the slabs: phi' = sigma_j (sum_i x_ij d_i
    e^u_ij - sum_i x_ij y_i) + tau_j and phi'' = sum_i (x_ij^2 / w_ij) d_i
    e^u_ij, plus 2 ridge_j c and 2 ridge_j when eps > 0.

    The step runs over all k coordinates at once and a mask picks the ones
    it steps, so no index is gathered or scattered: delta is 0 where the
    minimizer is 0, the placeholder 1 / R_j of an all-zero column keeps its
    unused step at 0, and the result there is an exact 0.  A stepped
    coordinate runs the same arithmetic as it would alone.
    """
    try:
        eu0 = fid._guard_exp(base, "poisson coordinate update")
    except OverflowError:
        pm.mean(theta)  # raises where the mean at theta overflows
        with np.errstate(over="ignore"):
            eu0 = np.exp(base)
    eu0 *= pm.d
    g, h = np.einsum("tij,ij->tj", pm.stack, eu0)
    g -= pm.xy
    act = np.abs(g) > tau
    if not np.logical_or.reduce(act):
        return np.zeros_like(theta)
    sgn = np.where(g > tau, -1.0, 1.0)
    c = np.maximum(sgn * theta, 0.0)
    from_theta = act & (c > 0.0)
    if np.logical_or.reduce(from_theta):
        g_theta, h_theta = pm.mean(theta) @ pm.stack
        np.copyto(g, g_theta - pm.xy, where=from_theta)
        np.copyto(h, h_theta, where=from_theta)
    dphi, d2phi = sgn * g + tau, h
    if pm._ridge_lam:
        dphi, d2phi = dphi + 2.0 * pm.ridge * c, d2phi + 2.0 * pm.ridge
    delta = np.divide(dphi, d2phi, out=np.zeros(theta.shape), where=act)
    # delta ln(1 + x) / x = sign(delta) ln(1 + x) / R: 0 at x = 0, and no inf / inf
    step = np.copysign(np.log1p(np.abs(delta) / pm.inv_reach) * pm.inv_reach, delta)
    return np.where(act, sgn * np.maximum(c - step, 0.5 * c), 0.0)


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

    For every family that step is a squarem fit, from the MLE, of the adaptive
    lasso (the adaptive elastic net when eps > 0) with the weights p'(|mle_j|)
    / lam (``_SurrogateFit``).  The MLE is ``fidelity.fit_mle``'s, which the
    model keeps, so a lambda sweep on one model fits it once.  The fit reports
    ``max_iter`` unless that step already met ``coef_tol`` or ``obj_tol``.  A
    step that overflows, whose objective is not finite, that rises by more
    than ``DESCENT_SLACK`` and more than the objective's rounding
    (``_rounding``; a smaller rise keeps the MLE), or whose inner fit runs
    out of its ``INNER_MAX`` steps raises ``ConvergenceError`` with the MLE
    as ``last_iterate``.
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
