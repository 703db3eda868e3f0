"""Shared builders for random small problem instances."""
import numpy as np
import pytest

from mist.fidelity import (
    CoefficientVector,
    DesignMatrix,
    FidelityModel,
    Response,
    ResponseFamily,
    kernels,
)


def make_model(family, n, p, seed, intercept=None, beta_scale=0.5):
    """A random well-conditioned instance of the given response family."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    beta = beta_scale * rng.standard_normal(p)
    fam = ResponseFamily(family)
    if intercept is None:
        intercept = fam is not ResponseFamily.COX

    if fam is ResponseFamily.GAUSSIAN:
        y = X @ beta + 0.3 * rng.standard_normal(n)
        resp = Response(family=fam, y=y)
    elif fam is ResponseFamily.LOGISTIC:
        prob = 1.0 / (1.0 + np.exp(-(X @ beta)))
        resp = Response(family=fam, y=(rng.random(n) < prob).astype(float))
    elif fam is ResponseFamily.POISSON:
        mu = np.exp(np.clip(X @ beta, -5.0, 3.0))
        resp = Response(family=fam, y=rng.poisson(mu).astype(float))
    elif fam is ResponseFamily.COX:
        t = rng.exponential(1.0 / np.exp(np.clip(X @ beta, -5.0, 5.0)))
        c = rng.exponential(np.median(t) * 2.0, n)
        status = (t <= c).astype(float)
        if not np.any(status == 1.0):
            status[np.argmin(t)] = 1.0
        resp = Response(family=fam, y=status, time=np.minimum(t, c), status=status)
        intercept = False
    else:
        raise ValueError(family)
    return FidelityModel(DesignMatrix(X, has_intercept=intercept), resp)


def kernel_nll(model, eta):
    """The negative log-likelihood at eta, from the model's kernels and their parts."""
    lik = kernels(model)
    return lik.nll(eta, lik.parts(eta))


def kernel_score(model, eta):
    """The log-likelihood gradient X^T r at eta, from the model's kernels and their parts."""
    lik = kernels(model)
    return model._xt.T @ lik.residual(eta, lik.parts(eta))


def random_coef(model, seed, scale=0.3):
    rng = np.random.default_rng(seed)
    p = model.design.n_cols
    icpt = float(rng.standard_normal() * scale) if model.has_intercept else None
    return CoefficientVector(beta=scale * rng.standard_normal(p), intercept=icpt)


def fd_gradient(f, theta, h=1e-5):
    """Central finite differences of a scalar function of a vector."""
    theta = np.asarray(theta, dtype=float)
    g = np.empty_like(theta)
    for i in range(theta.shape[0]):
        e = np.zeros_like(theta)
        e[i] = h
        g[i] = (f(theta + e) - f(theta - e)) / (2.0 * h)
    return g


@pytest.fixture
def rng():
    return np.random.default_rng(20260824)


#: one verdict line per acceptance criterion, echoed after the test summary
#: so they survive output capture
acceptance_lines = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)
