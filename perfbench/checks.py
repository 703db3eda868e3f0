"""Independent checks for the benchmark: likelihoods, KKT and reference optima.

Nothing here imports ``mist``.  The four negative log-likelihoods, their
gradients, the penalties and the KKT residual are written again in plain
numpy, in a different arrangement from the library's (the Cox risk sets are
built from an ascending sort with ``searchsorted``, not from a descending
sort and a tie-block loop), so a fault in the library does not cancel against
the same fault here.  Reference optima of convex problems come from
``scipy.optimize.minimize(method="L-BFGS-B")`` on the split form
beta = beta_plus - beta_minus, beta_plus, beta_minus >= 0, which is smooth.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

#: KKT target of a plain fit, as a share of the problem's gradient scale
#: (``gradient_scale``); README "Accuracy targets" says why it is relative
KKT_REL_TARGET = 1e-6


@dataclass(frozen=True)
class Data:
    """One problem's data: the design as multiplied, and the response."""

    family: str  # gaussian | logistic | poisson | cox
    xt: np.ndarray  # n x k design, intercept column (if any) first
    has_intercept: bool
    y: Optional[np.ndarray] = None
    offsets: Optional[np.ndarray] = None
    time: Optional[np.ndarray] = None
    status: Optional[np.ndarray] = None

    @staticmethod
    def from_arrays(family, x, has_intercept, **response) -> "Data":
        x = np.asarray(x, dtype=float)
        xt = np.hstack([np.ones((x.shape[0], 1)), x]) if has_intercept else x
        return Data(family, xt, has_intercept, **response)


@dataclass(frozen=True)
class Penalty:
    """Penalty family, level, ridge share, adaptive weights and SCAD/MCP shape."""

    family: str  # lasso | adaptive_lasso | elastic_net | scad | mcp
    lam: float
    epsilon: float = 0.0
    weights: Optional[np.ndarray] = None
    a: float = 3.7

    @property
    def convex(self) -> bool:
        return self.family in ("lasso", "adaptive_lasso", "elastic_net")


# -- likelihoods -------------------------------------------------------------


def _cox_risk(data: Data, eta: np.ndarray):
    """Breslow risk-set sums over subjects sorted by ascending time."""
    order = np.argsort(data.time, kind="stable")
    ts = data.time[order]
    e = eta[order]
    x = data.xt[order]
    ev = data.status[order] == 1.0
    shift = float(np.max(e))
    w = np.exp(e - shift)
    # subjects tied on time share one risk set: everyone from the first of the tie on
    first = np.searchsorted(ts, ts, side="left")
    s0 = np.cumsum(w[::-1])[::-1]
    s1 = np.cumsum((w[:, None] * x)[::-1], axis=0)[::-1]
    return e, x, ev, shift, s0[first], s1[first]


def nll(data: Data, theta: np.ndarray) -> float:
    """Negative log-likelihood at the augmented coefficients (library constants)."""
    eta = data.xt @ theta
    fam = data.family
    if fam == "gaussian":
        r = eta - data.y
        return 0.5 * float(r @ r)
    if fam == "logistic":
        return float(np.sum(np.logaddexp(0.0, eta) - data.y * eta))
    if fam == "poisson":
        return float(np.sum(data.offsets * np.exp(eta) - data.y * eta))
    if fam == "cox":
        e, _, ev, shift, s0, _ = _cox_risk(data, eta)
        return float(np.sum(np.log(s0[ev]) + shift - e[ev]))
    raise ValueError(f"unknown family {fam}")


def nll_grad(data: Data, theta: np.ndarray) -> np.ndarray:
    """Gradient of the negative log-likelihood over the augmented coefficients."""
    eta = data.xt @ theta
    fam = data.family
    if fam == "gaussian":
        return data.xt.T @ (eta - data.y)
    if fam == "logistic":
        mu = 1.0 / (1.0 + np.exp(-eta))
        return data.xt.T @ (mu - data.y)
    if fam == "poisson":
        return data.xt.T @ (data.offsets * np.exp(eta) - data.y)
    if fam == "cox":
        _, x, ev, _, s0, s1 = _cox_risk(data, eta)
        return np.sum(s1[ev] / s0[ev, None] - x[ev], axis=0)
    raise ValueError(f"unknown family {fam}")


# -- penalties ---------------------------------------------------------------


def _weights(pen: Penalty, p: int) -> np.ndarray:
    return np.ones(p) if pen.weights is None else np.asarray(pen.weights, dtype=float)


def penalty_value(pen: Penalty, beta: np.ndarray) -> float:
    r = np.abs(beta)
    lam, a = pen.lam, pen.a
    if pen.convex:
        w = _weights(pen, r.shape[0])
        active = r != 0.0  # a pinned (infinite-weight) zero costs nothing
        return float(np.sum(lam * w[active] * r[active])) + lam * pen.epsilon * float(beta @ beta)
    if pen.family == "scad":
        vals = np.where(
            r <= lam,
            lam * r,
            np.where(r <= a * lam, (2 * a * lam * r - r * r - lam * lam) / (2 * (a - 1)),
                     lam * lam * (a + 1) / 2),
        )
    elif pen.family == "mcp":
        vals = np.where(r <= a * lam, lam * r - r * r / (2 * a), a * lam * lam / 2)
    else:
        raise ValueError(f"unknown penalty {pen.family}")
    return float(np.sum(vals)) + lam * pen.epsilon * float(beta @ beta)


def _penalty_slope(pen: Penalty, r: np.ndarray) -> np.ndarray:
    """Right-derivative of the scalar penalty at r >= 0."""
    lam, a = pen.lam, pen.a
    if pen.convex:
        return lam * _weights(pen, r.shape[0])
    if pen.family == "scad":
        return np.where(r <= lam, lam, np.maximum(a * lam - r, 0.0) / (a - 1))
    if pen.family == "mcp":
        return np.maximum(lam - r / a, 0.0)
    raise ValueError(f"unknown penalty {pen.family}")


def objective(data: Data, pen: Penalty, theta: np.ndarray) -> float:
    beta = theta[1:] if data.has_intercept else theta
    return nll(data, theta) + penalty_value(pen, beta)


def kkt(data: Data, pen: Penalty, theta: np.ndarray) -> float:
    """Largest violation of stationarity; an exact zero takes the subgradient branch."""
    g = nll_grad(data, theta)
    worst = abs(float(g[0])) if data.has_intercept else 0.0
    gb = g[1:] if data.has_intercept else g
    beta = theta[1:] if data.has_intercept else theta
    s = gb + 2.0 * pen.lam * pen.epsilon * beta
    slope = _penalty_slope(pen, np.abs(beta))
    zero = beta == 0.0
    with np.errstate(invalid="ignore"):
        viol = np.where(
            zero,
            np.where(np.isinf(slope), 0.0, np.maximum(np.abs(s) - slope, 0.0)),
            np.abs(s + slope * np.sign(beta)),
        )
    if viol.size:
        worst = max(worst, float(np.max(viol)))
    return worst


def gradient_scale(data: Data) -> float:
    """max |d g / d beta_j| at zero coefficients, floored at 1: the scale of a KKT residual."""
    g = nll_grad(data, np.zeros(data.xt.shape[1]))
    return max(1.0, float(np.max(np.abs(g[1:] if data.has_intercept else g))))


# -- reference optima --------------------------------------------------------


def reference_optimum(data: Data, pen: Penalty) -> tuple[np.ndarray, float]:
    """The convex problem's minimizer and minimum, by L-BFGS-B on the split form."""
    from scipy.optimize import minimize

    if not pen.convex:
        raise ValueError("reference optima exist only for convex penalties")
    k = data.xt.shape[1]
    i0 = 1 if data.has_intercept else 0
    p = k - i0
    w = _weights(pen, p)
    pinned = np.isinf(w)
    cost = pen.lam * np.where(pinned, 0.0, w)
    ridge = pen.lam * pen.epsilon

    def unpack(z):
        beta = z[i0 : i0 + p] - z[i0 + p :]
        return np.concatenate([z[:i0], beta]), beta

    def fun(z):
        theta, beta = unpack(z)
        g = nll_grad(data, theta)
        gb = g[i0:] + 2.0 * ridge * beta
        value = nll(data, theta) + float(cost @ (z[i0 : i0 + p] + z[i0 + p :])) + ridge * float(beta @ beta)
        return value, np.concatenate([g[:i0], gb + cost, -gb + cost])

    bounds = [(None, None)] * i0 + [(0.0, 0.0) if pin else (0.0, None) for pin in np.tile(pinned, 2)]
    res = minimize(
        fun,
        np.zeros(i0 + 2 * p),
        jac=True,
        method="L-BFGS-B",
        bounds=bounds,
        options={"maxiter": 100_000, "maxfun": 200_000, "maxcor": 30, "ftol": 1e-16, "gtol": 1e-11},
    )
    theta, _ = unpack(res.x)
    return theta, objective(data, pen, theta)
