"""Data-fidelity terms: likelihoods, gradients, curvature bounds.

All four families expose the negative log-likelihood (up to additive
constants), the gradient of the LOG-likelihood, and a finite curvature bound
where one exists.  The Poisson family has no global curvature bound; it gets
the separable majorizer machinery at the bottom of this module instead.
Every gradient is one product X^T r, with r the residual y - mu, or for Cox
the martingale residual delta - w a (``residual_kernel``).

Sign convention: ``gradient`` returns the gradient of the log-likelihood, so
fitting code ascends it (the MM updates add a multiple of it), and the
gradient of the fidelity term g = -l is its negation.
"""
from __future__ import annotations

import copy
import enum
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

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
            if np.any(y < 0) or np.any(y != np.round(y)):
                raise ValidationError("poisson response must be nonnegative integers")
            if self.offsets is None:
                object.__setattr__(self, "offsets", np.ones_like(y))
            else:
                d = np.asarray(self.offsets, dtype=float)
                if np.any(d <= 0):
                    raise ValidationError("poisson offsets must be positive")
                object.__setattr__(self, "offsets", d)
        elif fam is ResponseFamily.COX:
            if self.time is None or self.status is None:
                raise ValidationError("cox response requires time and status vectors")
            t = np.asarray(self.time, dtype=float)
            s = np.asarray(self.status, dtype=float)
            if np.any(t <= 0):
                raise ValidationError("cox times must be positive")
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
    """A design matrix paired with a response; precomputes Cox risk sets."""

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
        self._xt = design.augmented()
        self._curvature_bound: Optional[float] = None  # set by curvature_bound
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

    def restrict(self, cols: np.ndarray) -> "FidelityModel":
        """The model on the slope columns ``cols`` only, intercept kept.

        The augmented design is gathered once, and the restricted design's
        values are a view of it; the response and the Cox risk-set arrays are
        shared, not validated or sorted again.  The curvature bound and the
        MLE are not: the column subset has its own.
        """
        cols = np.asarray(cols, dtype=np.intp)
        idx = np.concatenate([[0], cols + 1]) if self.has_intercept else cols
        sub = copy.copy(self)
        sub._xt = self._xt[:, idx]
        sub._curvature_bound = sub._mle = None
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
        theta = coef.augmented()
        if theta.shape[0] != self.n_coef:
            raise ValidationError(
                f"coefficient length {theta.shape[0]} does not match design ({self.n_coef})"
            )
        if self.has_intercept and coef.intercept is None:
            raise ValidationError("model has an intercept but the coefficient vector does not")
        if not self.has_intercept and coef.intercept is not None:
            raise ValidationError("model has no intercept but the coefficient vector does")
        return theta


def _guard_exp(eta: np.ndarray, context: str) -> np.ndarray:
    if np.any(eta > _EXP_GUARD):
        raise OverflowError(
            f"{context}: linear predictor too large (max {np.max(eta):.3g}); iterate diverged"
        )
    return np.exp(eta)


def neg_loglik(model: FidelityModel, coef: CoefficientVector) -> float:
    """Negative log-likelihood, up to family-specific additive constants."""
    return nll_kernel(model)(model.linear_predictor(coef))


def gradient(model: FidelityModel, coef: CoefficientVector) -> np.ndarray:
    """Gradient of the log-likelihood over the augmented coefficients."""
    return model._xt.T @ residual_kernel(model)(model.linear_predictor(coef))


def parts_kernel(model: FidelityModel) -> Optional[Callable[[np.ndarray], object]]:
    """What the likelihood and the score of one model share at eta, as a
    function of eta: the gaussian residual y - eta, or the Cox risk-set sums
    ``_cox_parts``; None for the families that share nothing.

    ``nll_kernel`` and ``residual_kernel`` take these ``parts``, so a caller
    that keeps them with eta forms each once per point.
    """
    fam = model.family
    if fam is ResponseFamily.GAUSSIAN:
        return partial(np.subtract, model.response.y)
    if fam is ResponseFamily.COX:
        return lambda eta: _cox_parts(model, eta)
    return None


def nll_kernel(model: FidelityModel) -> Callable[..., float]:
    """``neg_loglik`` of one model as a function of (eta, parts=None), unchecked.

    eta is the linear predictor X theta, and ``parts`` are the
    ``parts_kernel`` value at eta when the caller has it.  The family is
    chosen here, once, so a fit that holds the kernel runs no family test
    per call.
    """
    y = model.response.y
    fam = model.family
    if fam is ResponseFamily.GAUSSIAN:
        def nll(eta, parts=None):
            # r . r is the same double for r = y - eta as for eta - y
            r = y - eta if parts is None else parts
            return 0.5 * float(r.dot(r))
    elif fam is ResponseFamily.LOGISTIC:
        def nll(eta, parts=None):
            return float(np.add.reduce(np.logaddexp(0.0, eta) - y * eta))
    elif fam is ResponseFamily.POISSON:
        d = model.response.offsets

        def nll(eta, parts=None):
            return float(np.add.reduce(d * _guard_exp(eta, "poisson neg_loglik") - y * eta))
    elif fam is ResponseFamily.COX:
        event = model._cox_event

        def nll(eta, parts=None):
            e, log_d = _cox_parts(model, eta) if parts is None else parts
            return float(-np.add.reduce(e[event] - log_d))
    else:
        raise ValidationError(f"unknown family {fam}")
    return nll


def residual_kernel(model: FidelityModel) -> Callable[..., np.ndarray]:
    """The score residual of one model as a function of (eta, parts=None):
    y - mu, or the Cox martingale residual delta - w a, so that the gradient
    at eta is X^T r; ``parts`` as in ``nll_kernel``.  The family is chosen
    here, once."""
    y = model.response.y
    fam = model.family
    if fam is ResponseFamily.GAUSSIAN:
        def residual(eta, parts=None):
            return y - eta if parts is None else parts
    elif fam is ResponseFamily.LOGISTIC:
        def residual(eta, parts=None):
            # sigmoid via stable tanh form
            return y - 0.5 * (1.0 + np.tanh(0.5 * eta))
    elif fam is ResponseFamily.POISSON:
        d = model.response.offsets

        def residual(eta, parts=None):
            return y - d * _guard_exp(eta, "poisson gradient")
    elif fam is ResponseFamily.COX:
        status = model.response.status

        def residual(eta, parts=None):
            return status - _cox_risk_mass(model, _cox_parts(model, eta) if parts is None else parts)
    else:
        raise ValidationError(f"unknown family {fam}")
    return residual


def hessian(model: FidelityModel, coef: CoefficientVector) -> np.ndarray:
    """Hessian of the NEGATIVE log-likelihood, X^T diag(v) X for the GLM
    families."""
    return _neg_hessian(model, model.linear_predictor(coef))


def _neg_hessian(model: FidelityModel, eta: np.ndarray, parts=None) -> np.ndarray:
    """``hessian`` at the linear predictor eta = X theta, unchecked (the
    Newton MLE's); ``parts`` are the Cox ``_cox_parts`` at eta when the
    caller has them."""
    xt = model._xt
    fam = model.family
    if fam is ResponseFamily.GAUSSIAN:
        return xt.T @ xt
    if fam is ResponseFamily.COX:
        return _cox_neg_hessian(model, eta, parts)
    if fam is ResponseFamily.LOGISTIC:
        mu = 0.5 * (1.0 + np.tanh(0.5 * eta))
        v = mu * (1.0 - mu)
    else:
        v = model.response.offsets * _guard_exp(eta, "poisson hessian")
    return xt.T @ (v[:, None] * xt)


# -- Cox partial likelihood (Breslow ties) --------------------------------


def _cox_parts(model: FidelityModel, eta: np.ndarray):
    """eta in descending time order and each event's log D_i, D_i the sum of
    e^eta over its risk set.  Summed in the log domain, so that no D_i
    underflows however widely eta spreads."""
    e = eta[model._cox_order]
    # each risk set is a prefix of the order, so D_i is a cumulative sum
    return e, np.logaddexp.accumulate(e)[model._cox_event_last]


def _cox_risk_mass(model: FidelityModel, parts) -> np.ndarray:
    """w_k a_k in row order, w_k = e^eta_k and a_k the sum of 1/D_i over the
    events whose risk set holds subject k.  Summed in the log domain;
    w_k <= D_i bounds each term by the event count."""
    e, log_d = parts
    log_c = np.full(e.shape[0], -np.inf)
    np.logaddexp.at(log_c, model._cox_event_last, -log_d)
    # each risk set is a prefix of the order, so a is a reverse cumulative sum
    wa = np.empty_like(e)
    wa[model._cox_order] = np.exp(e + np.logaddexp.accumulate(log_c[::-1])[::-1])
    return wa


def _cox_neg_hessian(model: FidelityModel, eta: np.ndarray, parts=None) -> np.ndarray:
    """X^T diag(w a) X - xbar^T xbar, xbar holding each event's risk-set mean."""
    parts = _cox_parts(model, eta) if parts is None else parts
    e, log_d = parts
    shift = e.max()
    xt = model._xt
    wx = np.exp(e - shift)[:, None] * xt[model._cox_order]
    xbar = np.cumsum(wx, axis=0)[model._cox_event_last] / np.exp(log_d - shift)[:, None]
    return xt.T @ (_cox_risk_mass(model, parts)[:, None] * xt) - xbar.T @ xbar


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


def curvature_bound(model: FidelityModel) -> float:
    """Finite upper bound on the largest hessian eigenvalue of the fidelity.

    Computed the first time a model is asked and kept on it, so every fit on
    the model shares one bound.  The gaussian and logistic bounds take the
    Gram matrix of the model's own augmented design, so no copy of it is made.
    """
    if model._curvature_bound is None:
        model._curvature_bound = _curvature_bound(model)
    return model._curvature_bound


def _curvature_bound(model: FidelityModel) -> float:
    fam = model.family
    if fam is ResponseFamily.GAUSSIAN:
        return _top_gram_eigenvalue(model._xt)
    if fam is ResponseFamily.LOGISTIC:
        return 0.25 * _top_gram_eigenvalue(model._xt)
    if fam is ResponseFamily.COX:
        n_events = int(np.sum(model.response.status == 1.0))
        row_norms = np.sum(model._xt**2, axis=1)
        return float(n_events * np.max(row_norms))
    if fam is ResponseFamily.POISSON:
        raise NotGloballyLipschitz(
            "the poisson log-likelihood has no global curvature bound; "
            "use the separable majorizer or supply a region-restricted bound"
        )
    raise ValidationError(f"unknown family {fam}")


# -- Poisson separable majorizer ------------------------------------------


def poisson_weights(design: DesignMatrix) -> np.ndarray:
    """Row-normalized magnitude weights over the augmented design.

    Each row sums to one across its nonzero entries and is strictly positive
    wherever the entry is nonzero, which is what the separable majorizer
    needs.
    """
    return _row_weights(design.augmented())


def _row_weights(xt: np.ndarray) -> np.ndarray:
    """``poisson_weights`` of the augmented design xt."""
    absx = np.abs(xt)
    row_sums = absx.sum(axis=1)
    theta = np.zeros_like(absx)
    nz_rows = row_sums > 0
    theta[nz_rows] = absx[nz_rows] / row_sums[nz_rows, None]
    return theta


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


def fit_mle(model: FidelityModel) -> CoefficientVector:
    """Unpenalized MLE: least squares for gaussian, damped Newton otherwise.

    Requires more observations than coefficients; raises on singular designs.
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

    # Newton on the augmented array: one eta per iterate, and for Cox one
    # sum of its risk sets, feeds the likelihood, the score and the Hessian
    nll, residual, xt_t = nll_kernel(model), residual_kernel(model), xt.T
    cox = model.family is ResponseFamily.COX
    theta = np.zeros(k)
    eta = xt @ theta
    parts = _cox_parts(model, eta) if cox else None
    obj = nll(eta, parts)
    for _ in range(MLE_MAX_ITER):
        g = xt_t @ residual(eta, parts)
        if np.max(np.abs(g)) <= MLE_TOL:
            return theta
        try:
            step = np.linalg.solve(_neg_hessian(model, eta, parts), g)
        except np.linalg.LinAlgError as err:
            raise ValidationError("singular hessian; MLE does not exist or is not unique") from err
        scale = 1.0
        for _ in range(60):
            cand = theta + scale * step
            if not np.all(np.isfinite(cand)):
                raise ValidationError("coefficients must be finite")
            cand_eta = xt @ cand
            cand_parts = _cox_parts(model, cand_eta) if cox else None
            try:
                cand_obj = nll(cand_eta, cand_parts)
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
    g = xt_t @ residual(eta, parts)
    if np.max(np.abs(g)) <= 1e-6:
        return theta
    raise ConvergenceError(
        f"Newton MLE did not converge in {MLE_MAX_ITER} iterations",
        last_iterate=theta,
        residual=float(np.max(np.abs(g))),
    )
