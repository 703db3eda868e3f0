"""Data-fidelity terms: likelihoods, gradients, curvature bounds.

All four families expose the negative log-likelihood (up to additive
constants), the gradient of the LOG-likelihood, the Hessian of the negative
log-likelihood, and finite curvature bounds where they exist: one shared by
every coordinate (``curvature_bound``) and the one every step is made from
(``diagonal_bound``), per coordinate for gaussian and logistic and the shared
one for Cox.  Each family's likelihood is written once, in
``kernels``: functions of the linear predictor eta = X theta that share the
parts computed at eta, which every public function here and every fit
reads.  The Poisson family has no global
curvature bound; it gets the separable majorizer machinery at the bottom of
this module instead.  Every gradient is one product X^T r, with r the
residual y - mu, or for Cox the martingale residual delta - w a
(``Kernels.residual``).  A Cox model sorts its subjects by time once, and
the martingale residual sums over the blocks of events that share a risk
set, not over every subject (``_cox_risk_mass``).

Sign convention: ``gradient`` returns the gradient of the log-likelihood, so
fitting code ascends it (the MM updates add a multiple of it), and the
gradient of the fidelity term g = -l is its negation.
"""
from __future__ import annotations

import copy
import enum
import math
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .exceptions import ConvergenceError, NotGloballyLipschitz, ValidationError

# exponents above this would overflow a double
_EXP_GUARD = 700.0
#: gradient sup-norm at which the Newton MLE stops, and its iteration cap
MLE_TOL = 1e-10
MLE_MAX_ITER = 200


class ResponseFamily(str, enum.Enum):
    GAUSSIAN = "gaussian"
    LOGISTIC = "logistic"
    POISSON = "poisson"
    COX = "cox"


@dataclass(frozen=True)
class DesignMatrix:
    """Dense N x p predictor matrix, optionally augmented with a 1s column."""

    values: np.ndarray
    has_intercept: bool = True

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise ValidationError("design matrix must be 2-dimensional")
        if v.shape[0] < 1 or v.shape[1] < 1:
            raise ValidationError("design matrix must have at least one row and column")
        if not np.all(np.isfinite(v)):
            raise ValidationError("design matrix entries must be finite")
        object.__setattr__(self, "values", v)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    def augmented(self) -> np.ndarray:
        """The matrix actually multiplied against coefficients."""
        if self.has_intercept:
            return np.hstack([np.ones((self.n_rows, 1)), self.values])
        return self.values


@dataclass(frozen=True)
class Response:
    family: ResponseFamily
    y: np.ndarray
    offsets: Optional[np.ndarray] = None  # poisson rate multipliers d_i
    time: Optional[np.ndarray] = None  # cox event/censoring times
    status: Optional[np.ndarray] = None  # cox event indicators

    def __post_init__(self):
        object.__setattr__(self, "family", ResponseFamily(self.family))
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "y", y)
        fam = self.family
        if fam is ResponseFamily.GAUSSIAN:
            if not np.all(np.isfinite(y)):
                raise ValidationError("gaussian response must be finite")
        elif fam is ResponseFamily.LOGISTIC:
            if not np.all(np.isin(y, (0.0, 1.0))):
                raise ValidationError("logistic response must be in {0, 1}")
        elif fam is ResponseFamily.POISSON:
            if not np.all(np.isfinite(y)) or np.any(y < 0) or np.any(y != np.round(y)):
                raise ValidationError("poisson response must be finite nonnegative integers")
            if self.offsets is None:
                object.__setattr__(self, "offsets", np.ones_like(y))
            else:
                d = np.asarray(self.offsets, dtype=float)
                if not np.all(np.isfinite(d) & (d > 0)):
                    raise ValidationError("poisson offsets must be finite and positive")
                object.__setattr__(self, "offsets", d)
        elif fam is ResponseFamily.COX:
            if self.time is None or self.status is None:
                raise ValidationError("cox response requires time and status vectors")
            t = np.asarray(self.time, dtype=float)
            s = np.asarray(self.status, dtype=float)
            if not np.all(np.isfinite(t) & (t > 0)):
                raise ValidationError("cox times must be finite and positive")
            if not np.all(np.isin(s, (0.0, 1.0))):
                raise ValidationError("cox status flags must be in {0, 1}")
            if not np.any(s == 1.0):
                raise ValidationError("cox data must contain at least one event")
            object.__setattr__(self, "time", t)
            object.__setattr__(self, "status", s)

    @property
    def n(self) -> int:
        if self.family is ResponseFamily.COX:
            return self.time.shape[0]
        return self.y.shape[0]


@dataclass(frozen=True)
class CoefficientVector:
    """Intercept (when the design carries one) plus slope coefficients."""

    beta: np.ndarray
    intercept: Optional[float] = None

    def __post_init__(self):
        b = np.asarray(self.beta, dtype=float)
        if not np.all(np.isfinite(b)):
            raise ValidationError("coefficients must be finite")
        if self.intercept is not None and not math.isfinite(self.intercept):
            raise ValidationError("intercept must be finite")
        object.__setattr__(self, "beta", b)

    def augmented(self) -> np.ndarray:
        if self.intercept is None:
            return self.beta.copy()
        return np.concatenate([[self.intercept], self.beta])

    @staticmethod
    def from_augmented(theta: np.ndarray, has_intercept: bool) -> "CoefficientVector":
        theta = np.asarray(theta, dtype=float)
        if has_intercept:
            return CoefficientVector(beta=theta[1:], intercept=float(theta[0]))
        return CoefficientVector(beta=theta)

    @staticmethod
    def zeros(p: int, has_intercept: bool) -> "CoefficientVector":
        return CoefficientVector(beta=np.zeros(p), intercept=0.0 if has_intercept else None)


class FidelityModel:
    """A design matrix paired with a response; precomputes Cox risk sets.

    For Cox, subjects are sorted by descending time once (``_cox_order``),
    so each risk set is a prefix of that order; ``_cox_event_last`` holds the
    last sorted index of each event's risk set.  The events that share one
    risk set form a block: ``_cox_starts`` is where each of the m blocks
    starts among the events, and ``_cox_pos`` gives each row, in row order,
    the first block whose risk set holds it, or m for a row in no event's
    risk set.  ``_cox_risk_mass`` sums over these blocks.
    """

    def __init__(self, design: DesignMatrix, response: Response):
        if design.n_rows != response.n:
            raise ValidationError(
                f"design has {design.n_rows} rows but response has {response.n}"
            )
        if response.family is ResponseFamily.COX and design.has_intercept:
            raise ValidationError(
                "cox models take no intercept; the partial likelihood is invariant to one"
            )
        self.design = design
        self.response = response
        self.family = response.family
        xt = design.augmented()
        # a design contiguous in neither order (columns taken with a step) is
        # copied once, so that no product with it copies it again or runs
        # outside BLAS; a C- or F-ordered one is kept as it is
        self._xt = xt if xt.flags.c_contiguous or xt.flags.f_contiguous else np.ascontiguousarray(xt)
        self._diagonal_bound: Union[None, float, np.ndarray] = None  # set by diagonal_bound
        self._mle: Optional[np.ndarray] = None  # the augmented MLE, set by fit_mle
        if self.family is ResponseFamily.COX:
            # descending time order: risk set of subject k (in sorted order)
            # is the prefix [0..j] with the same or later time
            order = np.argsort(-response.time, kind="stable")
            t = response.time[order]
            # subjects tied on time share a risk set: the last index of each tie block
            ends = np.append(np.flatnonzero(t[1:] != t[:-1]), t.shape[0] - 1)
            last = np.repeat(ends, np.diff(ends, prepend=-1))
            self._cox_order = order
            self._cox_event = response.status[order] == 1.0
            self._cox_event_last = last[self._cox_event]
            # the events' risk-set blocks and each row's first block (class docstring)
            self._cox_starts = np.flatnonzero(np.diff(self._cox_event_last, prepend=-1))
            pos = np.empty(t.shape[0], dtype=np.intp)
            pos[order] = np.searchsorted(self._cox_event_last[self._cox_starts], np.arange(t.shape[0]))
            self._cox_pos = pos

    def restrict(self, cols: np.ndarray) -> "FidelityModel":
        """The model on the slope columns ``cols`` only, intercept kept.

        The augmented design is gathered once, and the restricted design's
        values are a view of it; the response and the Cox risk-set arrays are
        shared, not validated or sorted again.  The diagonal curvature bound
        and the MLE are not: the column subset has its own.
        """
        cols = np.asarray(cols, dtype=np.intp)
        idx = np.concatenate([[0], cols + 1]) if self.has_intercept else cols
        sub = copy.copy(self)
        sub._xt = self._xt[:, idx]
        sub._diagonal_bound = sub._mle = None
        values = sub._xt[:, 1:] if self.has_intercept else sub._xt
        sub.design = DesignMatrix(values, has_intercept=self.has_intercept)
        return sub

    @property
    def n_coef(self) -> int:
        """Length of the augmented coefficient vector."""
        return self._xt.shape[1]

    @property
    def has_intercept(self) -> bool:
        return self.design.has_intercept

    def linear_predictor(self, coef: CoefficientVector) -> np.ndarray:
        return self._xt @ self._check(coef)

    def _check(self, coef: CoefficientVector) -> np.ndarray:
        # the intercept first: a missing one would read as a length mismatch
        if self.has_intercept and coef.intercept is None:
            raise ValidationError("model has an intercept but the coefficient vector does not")
        if not self.has_intercept and coef.intercept is not None:
            raise ValidationError("model has no intercept but the coefficient vector does")
        theta = coef.augmented()
        if theta.shape[0] != self.n_coef:
            raise ValidationError(
                f"coefficient length {theta.shape[0]} does not match design ({self.n_coef})"
            )
        return theta


def _guard_exp(eta: np.ndarray, context: str) -> np.ndarray:
    """e^eta, or ``OverflowError`` when its largest entry exceeds
    ``_EXP_GUARD``.  An array holding a NaN, whose largest entry is NaN,
    passes through."""
    if eta.size and np.maximum.reduce(eta, axis=None) > _EXP_GUARD:
        raise OverflowError(
            f"{context}: linear predictor too large (max {np.max(eta):.3g}); iterate diverged"
        )
    return np.exp(eta)


class Kernels(NamedTuple):
    """The likelihood of one model as functions of eta = X theta (``kernels``).

    ``parts(eta)`` is what the other functions share at eta, and each of them
    takes it: ``nll(eta, parts)``, ``residual(eta, parts)``, the score
    residual r with gradient X^T r, and ``hessian(eta, parts)``, the Hessian
    of the negative log-likelihood.  ``bound()`` is the family's curvature
    bound (``curvature_bound``) and ``diagonal()`` its bound per coordinate
    (``diagonal_bound``), which for Cox is ``bound()`` itself.
    """

    parts: Callable[[np.ndarray], object]
    nll: Callable[[np.ndarray, object], float]
    residual: Callable[[np.ndarray, object], np.ndarray]
    hessian: Callable[[np.ndarray, object], np.ndarray]
    bound: Callable[[], float]
    diagonal: Callable[[], Union[float, np.ndarray]]


def kernels(model: FidelityModel) -> Kernels:
    """The likelihood kernels of one model, unchecked: eta is a float array.

    The family is chosen here, once, so a fit that holds the kernels runs no
    family test per call.  The parts are the gaussian residual y - eta, the
    Poisson mean d e^eta, the Cox risk-set sums ``_cox_parts``, and nothing
    (None) for logistic; a caller that keeps them with eta forms each once
    per point.
    """
    y, xt = model.response.y, model._xt
    fam = model.family

    if fam is ResponseFamily.GAUSSIAN:
        return Kernels(
            partial(np.subtract, y),
            # r . r is the same double for r = y - eta as for eta - y
            lambda eta, r: 0.5 * float(r.dot(r)),
            lambda eta, r: r,
            lambda eta, r: xt.T @ xt,
            lambda: _top_gram_eigenvalue(xt),
            lambda: _scaled_gram_bound(xt),
        )
    if fam is ResponseFamily.LOGISTIC:
        # the mean is (1 + tanh(eta / 2)) / 2, the stable form of the sigmoid,
        # so the score residual y - mean is (y - 1/2) - tanh(eta / 2) / 2
        centred, ones = y - 0.5, np.ones(y.shape[0])

        def hessian(eta, parts):
            mu = 0.5 * (1.0 + np.tanh(0.5 * eta))
            return xt.T @ ((mu * (1.0 - mu))[:, None] * xt)

        return Kernels(
            # None for every eta, as a builtin: a deque of length 0 keeps
            # nothing of what it is given, and its append enters no Python
            # frame, which a lambda would at every objective
            deque(maxlen=0).append,
            # summed per element: log(1 + e^eta) and y eta are each near |eta|
            # where |eta| is large, so the split form sum log(1 + e^eta) - y . eta
            # cancels, and its rounding reaches the descent slack of a fit
            lambda eta, parts: float(ones.dot(np.logaddexp(0.0, eta) - y * eta)),
            lambda eta, parts: centred - 0.5 * np.tanh(0.5 * eta),
            hessian,
            lambda: 0.25 * _top_gram_eigenvalue(xt),
            lambda: 0.25 * _scaled_gram_bound(xt),
        )
    if fam is ResponseFamily.POISSON:
        d, ones = model.response.offsets, np.ones(y.shape[0])

        def no_bound():
            raise NotGloballyLipschitz(
                "the poisson log-likelihood has no global curvature bound; "
                "fit uses the separable majorizer"
            )

        return Kernels(
            lambda eta: d * _guard_exp(eta, "poisson mean"),
            # summed per element, as the logistic likelihood is
            lambda eta, mu: float(ones.dot(mu - y * eta)),
            lambda eta, mu: y - mu,
            lambda eta, mu: xt.T @ (mu[:, None] * xt),
            no_bound,
            no_bound,
        )
    if fam is ResponseFamily.COX:
        event, status = model._cox_event, model.response.status

        def nll(eta, parts):
            e, log_d = parts
            return float(-np.add.reduce(e[event] - log_d))

        def bound():
            # the event count times the largest squared row norm
            return float(np.sum(status == 1.0) * np.max(np.sum(xt**2, axis=1)))

        return Kernels(
            lambda eta: _cox_parts(model, eta),
            nll,
            lambda eta, parts: status - _cox_risk_mass(model, eta, parts),
            lambda eta, parts: _cox_neg_hessian(model, eta, parts),
            bound,
            bound,
        )
    raise ValidationError(f"unknown family {fam}")


def neg_loglik(model: FidelityModel, coef: CoefficientVector) -> float:
    """Negative log-likelihood, up to family-specific additive constants."""
    lik, eta = kernels(model), model.linear_predictor(coef)
    return lik.nll(eta, lik.parts(eta))


def gradient(model: FidelityModel, coef: CoefficientVector) -> np.ndarray:
    """Gradient of the log-likelihood over the augmented coefficients."""
    lik, eta = kernels(model), model.linear_predictor(coef)
    return model._xt.T @ lik.residual(eta, lik.parts(eta))


def hessian(model: FidelityModel, coef: CoefficientVector) -> np.ndarray:
    """Hessian of the NEGATIVE log-likelihood, X^T diag(v) X for the GLM
    families."""
    lik, eta = kernels(model), model.linear_predictor(coef)
    return lik.hessian(eta, lik.parts(eta))


# -- Cox partial likelihood (Breslow ties) --------------------------------


def _cox_parts(model: FidelityModel, eta: np.ndarray):
    """eta in descending time order and each event's log D_i, D_i the sum of
    e^eta over its risk set.  Summed in the log domain, so that no D_i
    underflows however widely eta spreads."""
    e = eta[model._cox_order]
    # each risk set is a prefix of the order, so D_i is a cumulative sum
    return e, np.logaddexp.accumulate(e)[model._cox_event_last]


def _cox_risk_mass(model: FidelityModel, eta: np.ndarray, parts) -> np.ndarray:
    """w_k a_k in row order, w_k = e^eta_k and a_k the sum of 1/D_i over the
    events whose risk set holds subject k.  Summed in the log domain;
    w_k <= D_i bounds each term by the event count.

    a_k changes only where a risk set ends, so it is summed over the events'
    blocks (``_cox_starts``, the events tied on one risk set): one log-sum
    per block, a reverse cumulative log-sum over the m blocks, and a gather
    in row order (``_cox_pos``) from a buffer whose slot m is -inf, the a of
    a row in no event's risk set.  These are the same bits as folding
    1/D_i into a slot per sorted row and summing all n slots: logaddexp(-inf,
    v) = v and logaddexp(v, -inf) = v exactly, and each block folds its ties
    in event order."""
    log_c = np.logaddexp.reduceat(-parts[1], model._cox_starts)
    m = log_c.shape[0]
    log_a = np.empty(m + 1)
    log_a[m] = -np.inf
    # each risk set is a prefix of the order, so a is a reverse cumulative sum
    np.logaddexp.accumulate(log_c[::-1], out=log_a[m - 1::-1])
    return np.exp(eta + log_a[model._cox_pos])


def _cox_neg_hessian(model: FidelityModel, eta: np.ndarray, parts) -> np.ndarray:
    """X^T diag(w a) X - xbar^T xbar, xbar holding each event's risk-set mean."""
    e, log_d = parts
    shift = e.max()
    xt = model._xt
    wx = np.exp(e - shift)[:, None] * xt[model._cox_order]
    xbar = np.cumsum(wx, axis=0)[model._cox_event_last] / np.exp(log_d - shift)[:, None]
    return xt.T @ (_cox_risk_mass(model, eta, parts)[:, None] * xt) - xbar.T @ xbar


# -- curvature ------------------------------------------------------------


def spectral_norm(design: DesignMatrix) -> float:
    """Largest eigenvalue of the augmented Gram matrix, exactly.

    ``np.linalg.eigvalsh`` of the smaller of X^T X and X X^T (they share their
    nonzero eigenvalues), so the cost is O(k^3) with k = min(N, columns of the
    augmented design) on top of forming the k x k Gram matrix.  Unlike power
    iteration it cannot miss the top eigenvector, e.g. on a design whose
    columns sum to zero.
    """
    return _top_gram_eigenvalue(design.augmented())


def _top_gram_eigenvalue(xt: np.ndarray) -> float:
    """The largest eigenvalue of xt^T xt, from the smaller Gram matrix."""
    gram = xt.T @ xt if xt.shape[1] <= xt.shape[0] else xt @ xt.T
    return float(np.linalg.eigvalsh(gram)[-1])


def _column_sq_norms(xt: np.ndarray) -> np.ndarray:
    """||x_j||^2 for every column j of xt, and 1 for an all-zero one."""
    s2 = np.einsum("ij,ij->j", xt, xt)
    return np.where(s2 == 0.0, 1.0, s2)


def _scaled_gram_bound(xt: np.ndarray) -> np.ndarray:
    """L_s s_j^2 for every column j of xt, with s_j = ||x_j|| (1 for an
    all-zero column) and L_s the largest eigenvalue of S^-1 xt^T xt S^-1, so
    that xt^T xt <= L_s S^2.  L_s lies in [1, columns], whatever the columns'
    scales."""
    s2 = _column_sq_norms(xt)
    return _top_gram_eigenvalue(xt / np.sqrt(s2)) * s2


def curvature_bound(model: FidelityModel) -> float:
    """Finite upper bound on the largest hessian eigenvalue of the fidelity.

    No fit reads it: every step is made from ``diagonal_bound``, and only
    ``solver.resolve_step`` takes this one, so it is computed at each call
    and not kept on the model.  The gaussian and logistic bounds take the
    Gram matrix of the model's own augmented design, so no copy of it is made.
    """
    return kernels(model).bound()


def diagonal_bound(model: FidelityModel) -> Union[float, np.ndarray]:
    """The curvature bound that every GLM step is made from: D with H <=
    diag(D) for the Hessian H of the fidelity at every point.

    For gaussian fits D_j = L_s ||x_j||^2 (``_scaled_gram_bound``), one per
    augmented coordinate, and 1/4 of it for logistic fits, so a column's
    bound follows its own scale and not the largest column's.  For Cox it is
    the scalar ``curvature_bound``, n_events * max ||x_i||^2, shared by every
    coordinate.  The solver's one step rule turns D into the step of every
    map and surrogate solve.  Computed the first time a model is asked and
    kept on it, so every fit on the model shares one bound; an array is the
    model's own.
    """
    if model._diagonal_bound is None:
        model._diagonal_bound = kernels(model).diagonal()
    return model._diagonal_bound


# -- Poisson separable majorizer ------------------------------------------


def poisson_weights(design: DesignMatrix) -> np.ndarray:
    """The separable majorizer's weights over the augmented design,
    w_ij = (|x_ij| / s_j) / sum_k |x_ik| / s_k with s_j = ||x_j|| (1 for an
    all-zero column), the column scale of ``diagonal_bound``.

    Any weights positive where x_ij != 0 and summing to one over each row
    majorize: eta_i(b) = eta_i(a) + sum_j w_ij (x_ij / w_ij)(b_j - a_j) is a
    convex combination, and the row's likelihood term is convex in eta_i (De
    Pierro 1995; Lange, Hunter & Yang 2000).  Measured against its own
    column's scale, a large column inflates no other coordinate's curvature,
    and scaling a column scales its coordinate's map alike.
    """
    return _row_weights(design.augmented())


def _row_weights(xt: np.ndarray) -> np.ndarray:
    """``poisson_weights`` of the augmented design xt; a zero row gets zero weights."""
    absx = np.abs(xt) / np.sqrt(_column_sq_norms(xt))
    row_sums = absx.sum(axis=1, keepdims=True)
    return np.divide(absx, row_sums, out=np.zeros_like(absx), where=row_sums > 0)


def poisson_majorizer_component(
    model: FidelityModel,
    alpha: CoefficientVector,
    j: int,
    beta_j: float,
    theta: Optional[np.ndarray] = None,
) -> tuple[float, float]:
    """Value and derivative of the j-th separable majorizer component.

    ``j`` indexes the augmented coefficient vector (0 is the intercept when
    the design carries one).  ``theta`` may be passed to reuse precomputed
    weights across calls.
    """
    if model.family is not ResponseFamily.POISSON:
        raise ValidationError("the separable majorizer is a poisson construction")
    if theta is None:
        theta = _row_weights(model._xt)
    xt = model._xt
    eta = model.linear_predictor(alpha)
    alpha_j = float(alpha.augmented()[j])
    mask = xt[:, j] != 0.0
    if not np.any(mask):
        return 0.0, 0.0
    th = theta[mask, j]
    xj = xt[mask, j]
    u = (xj / th) * (beta_j - alpha_j) + eta[mask]
    eu = _guard_exp(u, "poisson majorizer")
    d = model.response.offsets[mask]
    y = model.response.y[mask]
    value = float(np.sum(th * (d * eu - y * u)))
    deriv = float(np.sum(xj * (d * eu - y)))
    return value, deriv


# -- unpenalized maximum likelihood ---------------------------------------


def require_finite_intercept(model: FidelityModel, theta: np.ndarray, what: str) -> None:
    """Raise ``ConvergenceError`` when the response leaves the intercept no
    finite minimizer: a Poisson model with no nonzero count, or a logistic
    model whose responses are all 0 or all 1.

    The likelihood then rises towards its supremum as the intercept goes to
    -inf (+inf for logistic responses all 1), whatever the slopes, and no
    penalty reaches the intercept, so neither the MLE nor a penalized fit has
    a finite solution.  ``what`` names the solution in the message, and
    ``theta`` is the error's ``last_iterate``.
    """
    y, fam = model.response.y, model.family
    if model.has_intercept and fam is ResponseFamily.POISSON and not np.any(y):
        cause = "every count is 0"
    elif model.has_intercept and fam is ResponseFamily.LOGISTIC and np.all(y == y[0]):
        cause = f"every response is {y[0]:g}"
    else:
        return
    raise ConvergenceError(f"{cause}, so the intercept has no finite {what}", last_iterate=theta)


def fit_mle(model: FidelityModel) -> CoefficientVector:
    """Unpenalized MLE: least squares for gaussian, damped Newton otherwise.

    Requires more observations than coefficients; raises on singular designs,
    and ``ConvergenceError`` when the Hessian at an iterate is not finite, as
    when the Cox risk sets underflow on a separable design, or when a model
    with an intercept has a response that leaves the intercept no finite MLE:
    a Poisson model with no nonzero count, or a logistic model whose
    responses are all 0 or all 1.  A logistic Newton fit that stops at a
    point classifying every row strictly raises ``ConvergenceError`` too: the
    design is separable, and the nll falls along that point's ray.
    Fitted the first time a model is asked and kept on it, as the curvature
    bound is; every call returns a fresh copy.
    """
    if model._mle is None:
        model._mle = _fit_mle(model)
    return CoefficientVector.from_augmented(model._mle.copy(), model.has_intercept)


def _fit_mle(model: FidelityModel) -> np.ndarray:
    """``fit_mle``'s least-squares or Newton fit, as an augmented array."""
    xt = model._xt
    n, k = xt.shape
    if n <= k:
        raise ValidationError(f"MLE requires N > p (+ intercept); got N={n}, coefficients={k}")
    if model.family is ResponseFamily.GAUSSIAN:
        theta, _, rank, _ = np.linalg.lstsq(xt, model.response.y, rcond=None)
        if rank < k:
            raise ValidationError("design matrix is rank deficient; MLE is not unique")
        return theta
    # the Newton score would fall below its stop at a far intercept
    require_finite_intercept(model, np.zeros(k), "MLE")

    # Newton on the augmented array: one eta per iterate, and its parts (the
    # Poisson mean, the Cox risk-set sums), feed the likelihood, the score and
    # the Hessian
    lik, xt_t = kernels(model), xt.T
    theta = np.zeros(k)
    eta = xt @ theta
    parts = lik.parts(eta)
    obj = lik.nll(eta, parts)
    # each iterate is a function of the one before: once one repeats (at the
    # score's rounding floor), the rest of the loop is periodic, so jump to the
    # iterate it would end on
    history, seen = [theta], {theta.tobytes(): 0}
    for _ in range(MLE_MAX_ITER):
        g = xt_t @ lik.residual(eta, parts)
        if np.max(np.abs(g)) <= MLE_TOL:
            break
        # a Cox risk set whose sum underflows (eta spread over more than about
        # 745) leaves 0 / 0 in the Hessian
        with np.errstate(divide="ignore", invalid="ignore"):
            hess = lik.hessian(eta, parts)
        if not np.all(np.isfinite(hess)):
            cause = "the risk sets underflowed" if model.family is ResponseFamily.COX else "it overflowed"
            raise ConvergenceError(
                f"Newton MLE: the Hessian is not finite ({cause}); "
                "the design looks separable, so the MLE may not exist",
                last_iterate=theta,
                residual=float(np.max(np.abs(g))),
            )
        try:
            step = np.linalg.solve(hess, g)
        except np.linalg.LinAlgError as err:
            raise ValidationError("singular hessian; MLE does not exist or is not unique") from err
        scale = 1.0
        for _ in range(60):
            cand = theta + scale * step
            if not np.all(np.isfinite(cand)):
                raise ValidationError("coefficients must be finite")
            cand_eta = xt @ cand
            try:
                cand_parts = lik.parts(cand_eta)
                cand_obj = lik.nll(cand_eta, cand_parts)
            except OverflowError:
                scale *= 0.5
                continue
            # relative slack: a rounding-level rise of a large objective is no rise
            if cand_obj <= obj + 1e-12 * (1.0 + abs(obj)):
                theta, eta, parts, obj = cand, cand_eta, cand_parts, cand_obj
                break
            scale *= 0.5
        else:
            raise ConvergenceError("Newton line search failed", last_iterate=theta, residual=g)
        first = seen.setdefault(theta.tobytes(), len(history))
        if first < len(history):
            theta = history[first + (MLE_MAX_ITER - first) % (len(history) - first)]
            eta = xt @ theta
            parts = lik.parts(eta)
            break
        history.append(theta)
    g = xt_t @ lik.residual(eta, parts)
    # a logistic point that puts every row strictly on its own side is no
    # finite MLE: scaling it up lowers the nll, so the stop met a far point
    separable = model.family is ResponseFamily.LOGISTIC and np.all((2.0 * model.response.y - 1.0) * eta > 0.0)
    if np.max(np.abs(g)) <= 1e-6 and not separable:
        return theta
    raise ConvergenceError(
        "Newton MLE: every row is classified strictly; the design is separable, so the MLE does not exist"
        if separable else f"Newton MLE did not converge in {MLE_MAX_ITER} iterations",
        last_iterate=theta,
        residual=float(np.max(np.abs(g))),
    )
