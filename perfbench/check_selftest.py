"""Tests of the benchmark's own checker (``checks.py``); they do not import mist.

Run with ``python3 -m pytest perfbench/check_selftest.py``.  The file name
keeps it out of the repository's default test collection: it tests the
benchmark, not the library.
"""
import numpy as np
import pytest

import checks


def _data(family, n=40, p=4, seed=5):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    beta = 0.4 * rng.standard_normal(p)
    if family == "gaussian":
        return checks.Data.from_arrays(family, x, True, y=x @ beta + rng.standard_normal(n))
    if family == "logistic":
        return checks.Data.from_arrays(family, x, True, y=(rng.random(n) < 1 / (1 + np.exp(-x @ beta))).astype(float))
    if family == "poisson":
        d = np.exp(rng.uniform(-0.5, 0.5, n))
        return checks.Data.from_arrays(family, x, True, y=rng.poisson(d * np.exp(x @ beta)).astype(float), offsets=d)
    # cox with heavy ties: 40 subjects on 8 distinct times
    time = rng.integers(1, 9, n).astype(float)
    status = (rng.random(n) < 0.7).astype(float)
    status[0] = 1.0
    return checks.Data.from_arrays(family, x, False, time=time, status=status)


def _fd_grad(f, theta, h=1e-6):
    g = np.empty_like(theta)
    for i in range(theta.shape[0]):
        e = np.zeros_like(theta)
        e[i] = h
        g[i] = (f(theta + e) - f(theta - e)) / (2 * h)
    return g


@pytest.mark.parametrize("family", ["gaussian", "logistic", "poisson", "cox"])
def test_gradient_matches_central_differences(family):
    data = _data(family)
    theta = 0.3 * np.random.default_rng(1).standard_normal(data.xt.shape[1])
    fd = _fd_grad(lambda t: checks.nll(data, t), theta)
    assert np.allclose(checks.nll_grad(data, theta), fd, rtol=1e-6, atol=1e-6)


def test_cox_breslow_ties_match_the_textbook_sum():
    data = _data("cox")
    theta = np.random.default_rng(2).standard_normal(data.xt.shape[1])
    eta = data.xt @ theta
    # Breslow: every event at time t shares the risk set {j : t_j >= t}
    expected = sum(
        np.log(np.sum(np.exp(eta[data.time >= data.time[i]]))) - eta[i]
        for i in range(eta.shape[0]) if data.status[i] == 1.0
    )
    assert checks.nll(data, theta) == pytest.approx(expected, rel=1e-12)


def _lasso_case():
    data = _data("gaussian", n=60, p=8, seed=11)
    return data, checks.Penalty("lasso", 0.3 * checks.gradient_scale(data))


def test_reference_optimum_satisfies_the_checkers_kkt():
    data, pen = _lasso_case()
    theta, f = checks.reference_optimum(data, pen)
    assert checks.kkt(data, pen, theta) <= checks.KKT_REL_TARGET * checks.gradient_scale(data)
    assert f == pytest.approx(checks.objective(data, pen, theta))


def test_kkt_flags_a_zero_coordinate_moved_by_1e_6():
    data, pen = _lasso_case()
    theta, _ = checks.reference_optimum(data, pen)
    zeros = np.flatnonzero(theta[1:] == 0.0) + 1
    assert zeros.size > 0, "the case must have an exact zero to perturb"
    target = checks.KKT_REL_TARGET * checks.gradient_scale(data)
    for j in zeros:
        moved = theta.copy()
        moved[j] = 1e-6
        assert checks.kkt(data, pen, moved) > 100 * target
