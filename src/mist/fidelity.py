"""Data-fidelity terms: likelihoods, gradients, curvature bounds.

All four families expose the negative log-likelihood (up to additive
constants), the gradient of the LOG-likelihood, and a finite curvature bound
where one exists.  The Poisson family has no global curvature bound; it gets
the separable majorizer machinery at the bottom of this module instead.

Sign convention: ``gradient`` returns the gradient of the log-likelihood, so
fitting code ascends it (the MM updates add a multiple of it), and the
gradient of the fidelity term g = -l is its negation.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import ConvergenceError, NotGloballyLipschitz, ValidationError

# exponents above this would overflow a double
_EXP_GUARD = 700.0


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
        if self.family is ResponseFamily.COX:
            # descending time order: risk set of subject k (in sorted order)
            # is the prefix [0..j] with the same or later time
            order = np.argsort(-response.time, kind="stable")
            t = response.time[order]
            # subjects tied on time share a risk set: the last index of each tie block
            ends = np.append(np.flatnonzero(t[1:] != t[:-1]), t.shape[0] - 1)
            self._cox_order = order
            self._cox_last = np.repeat(ends, np.diff(ends, prepend=-1))
            # the design and the event flags in that order, gathered once
            self._cox_x = self._xt[order]
            self._cox_event = response.status[order] == 1.0
            self._cox_event_last = self._cox_last[self._cox_event]
        else:
            self._cox_order = None
            self._cox_last = None

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
    return nll_eta(model, model.linear_predictor(coef))


def gradient(model: FidelityModel, coef: CoefficientVector) -> np.ndarray:
    """Gradient of the log-likelihood over the augmented coefficients."""
    return grad_eta(model, model.linear_predictor(coef))


def nll_eta(model: FidelityModel, eta: np.ndarray) -> float:
    """``neg_loglik`` at the linear predictor eta = X theta, unchecked."""
    y = model.response.y
    fam = model.family
    if fam is ResponseFamily.GAUSSIAN:
        r = eta - y
        return 0.5 * float(r @ r)
    if fam is ResponseFamily.LOGISTIC:
        return float(np.sum(np.logaddexp(0.0, eta) - y * eta))
    if fam is ResponseFamily.POISSON:
        d = model.response.offsets
        return float(np.sum(d * _guard_exp(eta, "poisson neg_loglik") - y * eta))
    if fam is ResponseFamily.COX:
        return _cox_neg_loglik(model, eta)
    raise ValidationError(f"unknown family {fam}")


def grad_eta(model: FidelityModel, eta: np.ndarray) -> np.ndarray:
    """``gradient`` at the linear predictor eta = X theta, unchecked."""
    y = model.response.y
    fam = model.family
    xt = model._xt
    if fam is ResponseFamily.GAUSSIAN:
        return xt.T @ (y - eta)
    if fam is ResponseFamily.LOGISTIC:
        # sigmoid via stable tanh form
        mu = 0.5 * (1.0 + np.tanh(0.5 * eta))
        return xt.T @ (y - mu)
    if fam is ResponseFamily.POISSON:
        d = model.response.offsets
        mu = d * _guard_exp(eta, "poisson gradient")
        return xt.T @ (y - mu)
    if fam is ResponseFamily.COX:
        return _cox_score(model, eta)
    raise ValidationError(f"unknown family {fam}")


def hessian(model: FidelityModel, coef: CoefficientVector) -> np.ndarray:
    """Hessian of the NEGATIVE log-likelihood (used by the Newton MLE)."""
    eta = model.linear_predictor(coef)
    xt = model._xt
    fam = model.family
    if fam is ResponseFamily.GAUSSIAN:
        return xt.T @ xt
    if fam is ResponseFamily.LOGISTIC:
        mu = 0.5 * (1.0 + np.tanh(0.5 * eta))
        w = mu * (1.0 - mu)
        return xt.T @ (w[:, None] * xt)
    if fam is ResponseFamily.POISSON:
        d = model.response.offsets
        w = d * _guard_exp(eta, "poisson hessian")
        return xt.T @ (w[:, None] * xt)
    if fam is ResponseFamily.COX:
        return _cox_neg_hessian(model, eta)
    raise ValidationError(f"unknown family {fam}")


# -- Cox partial likelihood (Breslow ties) --------------------------------


def _cox_parts(model: FidelityModel, eta: np.ndarray):
    """eta in descending time order, the risk weights and their running sums."""
    e = eta[model._cox_order]
    x = model._cox_x
    # stabilize: shift exponents by the running max
    shift = np.max(e)
    w = np.exp(e - shift)
    cum_w = np.cumsum(w)
    cum_wx = np.cumsum(w[:, None] * x, axis=0)
    return e, w, cum_w, cum_wx, shift


def _cox_neg_loglik(model: FidelityModel, eta: np.ndarray) -> float:
    e, _, cum_w, _, shift = _cox_parts(model, eta)
    denom = cum_w[model._cox_event_last]
    return float(-np.sum(e[model._cox_event] - (np.log(denom) + shift)))


def _cox_score(model: FidelityModel, eta: np.ndarray) -> np.ndarray:
    _, _, cum_w, cum_wx, _ = _cox_parts(model, eta)
    last = model._cox_event_last
    denom = cum_w[last]
    xbar = cum_wx[last] / denom[:, None]
    return np.sum(model._cox_x[model._cox_event] - xbar, axis=0)


def _cox_neg_hessian(model: FidelityModel, eta: np.ndarray) -> np.ndarray:
    _, w, cum_w, cum_wx, _ = _cox_parts(model, eta)
    x, last = model._cox_x, model._cox_last
    p = x.shape[1]
    h = np.zeros((p, p))
    cum_wxx = np.cumsum(w[:, None, None] * (x[:, :, None] * x[:, None, :]), axis=0)
    for i in np.flatnonzero(model._cox_event):
        j = last[i]
        d = cum_w[j]
        xbar = cum_wx[j] / d
        h += cum_wxx[j] / d - np.outer(xbar, xbar)
    return h


# -- curvature ------------------------------------------------------------


def spectral_norm(design: DesignMatrix, tol: float = 1e-10, max_iter: int = 10_000) -> float:
    """Largest eigenvalue of the augmented Gram matrix, by power iteration.

    Operates on the N x p factor directly (no Gram matrix is formed) and is
    deterministic: the start vector is the normalized all-ones vector.
    """
    if not tol > 0:
        raise ValidationError("tol must be > 0")
    xt = design.augmented()
    p = xt.shape[1]
    v = np.ones(p) / math.sqrt(p)
    lam = 0.0
    for _ in range(max_iter):
        w = xt.T @ (xt @ v)
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            return 0.0
        v_new = w / norm_w
        lam_new = float(v_new @ (xt.T @ (xt @ v_new)))
        if abs(lam_new - lam) <= tol * max(1.0, abs(lam_new)):
            return lam_new
        lam, v = lam_new, v_new
    raise ConvergenceError(
        f"power iteration did not converge in {max_iter} iterations",
        last_iterate=v,
        residual=lam,
    )


def curvature_bound(model: FidelityModel) -> float:
    """Finite upper bound on the largest hessian eigenvalue of the fidelity."""
    fam = model.family
    if fam is ResponseFamily.GAUSSIAN:
        return spectral_norm(model.design)
    if fam is ResponseFamily.LOGISTIC:
        return 0.25 * spectral_norm(model.design)
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
    xt = design.augmented()
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
        theta = poisson_weights(model.design)
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


def fit_mle(model: FidelityModel, tol: float = 1e-10, max_iter: int = 200) -> CoefficientVector:
    """Unpenalized MLE: least squares for gaussian, damped Newton otherwise.

    Requires more observations than coefficients; raises on singular designs.
    """
    xt = model._xt
    n, k = xt.shape
    if n <= k:
        raise ValidationError(f"MLE requires N > p (+ intercept); got N={n}, coefficients={k}")
    if model.family is ResponseFamily.GAUSSIAN:
        theta, _, rank, _ = np.linalg.lstsq(xt, model.response.y, rcond=None)
        if rank < k:
            raise ValidationError("design matrix is rank deficient; MLE is not unique")
        return CoefficientVector.from_augmented(theta, model.has_intercept)

    coef = CoefficientVector.zeros(model.design.n_cols, model.has_intercept)
    obj = neg_loglik(model, coef)
    for _ in range(max_iter):
        g = gradient(model, coef)
        if np.max(np.abs(g)) <= tol:
            return coef
        h = hessian(model, coef)
        try:
            step = np.linalg.solve(h, g)
        except np.linalg.LinAlgError as err:
            raise ValidationError("singular hessian; MLE does not exist or is not unique") from err
        theta = coef.augmented()
        scale = 1.0
        for _ in range(60):
            cand = CoefficientVector.from_augmented(theta + scale * step, model.has_intercept)
            try:
                cand_obj = neg_loglik(model, cand)
            except OverflowError:
                scale *= 0.5
                continue
            if cand_obj <= obj + 1e-12:
                coef, obj = cand, cand_obj
                break
            scale *= 0.5
        else:
            raise ConvergenceError("Newton line search failed", last_iterate=theta, residual=g)
    g = gradient(model, coef)
    if np.max(np.abs(g)) <= 1e-6:
        return coef
    raise ConvergenceError(
        f"Newton MLE did not converge in {max_iter} iterations",
        last_iterate=coef.augmented(),
        residual=float(np.max(np.abs(g))),
    )
