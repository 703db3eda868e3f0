"""The screened lambda path (``accel.fit_path``) against per-lambda full fits."""
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_model
from mist import accel
from mist.accel import accelerated_fit, fit_path
from mist.exceptions import ConvergenceError, ValidationError
from mist.fidelity import CoefficientVector, DesignMatrix, FidelityModel, Response, gradient
from mist.penalties import Family, PenaltySpec
from mist.solver import FitResult, Problem, SolverConfig, kkt_residual, total_objective

TIGHT = SolverConfig(coef_tol=1e-10, obj_tol=1e-300, max_outer=200_000)
#: shares of the largest slope gradient at the zero start, descending
SHARES = (0.9, 0.6, 0.4)
N, P = 30, 60


def wide_model(family, seed):
    """A p > n instance; the Cox one has every event time shared by three subjects."""
    model = make_model(family, n=N, p=P, seed=seed, beta_scale=0.15)
    if family != "cox":
        return model
    rank = np.argsort(np.argsort(model.response.time, kind="stable"), kind="stable")
    status = model.response.status
    tied = Response(family="cox", y=status, time=np.floor(rank / 3) + 1.0, status=status)
    return FidelityModel(model.design, tied)


def penalty(name, model):
    if name == "lasso":
        return PenaltySpec(family=Family.LASSO, lam=1.0)
    if name == "elastic_net":
        return PenaltySpec(family=Family.ELASTIC_NET, lam=1.0, epsilon=0.2)
    weights = np.random.default_rng(7).uniform(0.5, 2.0, model.design.n_cols)
    weights[3] = np.inf
    return PenaltySpec(family=Family.ADAPTIVE_LASSO, lam=1.0, weights=weights)


def grid(model):
    zero = CoefficientVector.zeros(model.design.n_cols, model.has_intercept)
    g = gradient(model, zero)[1 if model.has_intercept else 0:]
    return [share * float(np.max(np.abs(g))) for share in SHARES]


def unscreened(model, spec, lams, config, start, mode):
    """The path as per-lambda fits on the full problem, each warm-started."""
    out = []
    for lam in lams:
        res = accelerated_fit(Problem(model, replace(spec, lam=lam)), config, start, mode)
        out.append(res)
        start = res.coef
    return out


@pytest.mark.parametrize("mode", ["plain", "squarem"])
@pytest.mark.parametrize("pen_name", ["lasso", "elastic_net", "adaptive_lasso"])
@pytest.mark.parametrize("family", ["gaussian", "logistic", "poisson", "cox"])
def test_screened_path_matches_the_unscreened_path(family, pen_name, mode):
    model = wide_model(family, seed=11)
    spec = penalty(pen_name, model)
    lams = grid(model)
    start = CoefficientVector.zeros(P, model.has_intercept)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no NaN warning from the pinned column
        screened = fit_path(model, spec, lams, TIGHT, start, mode)
    full = unscreened(model, spec, lams, TIGHT, start, mode)
    for lam, res, ref in zip(lams, screened, full):
        assert isinstance(res, FitResult), res
        problem = Problem(model, replace(spec, lam=lam))
        assert abs(res.objective - ref.objective) <= 1e-8 * (1.0 + abs(ref.objective))
        assert res.objective == pytest.approx(total_objective(problem, res.coef), rel=1e-12)
        # a plain Poisson fit stops on an exactly unchanged objective with a
        # KKT residual up to a few 1e-6, screened or not (ROADMAP item 2)
        assert res.kkt_residual <= max(1e-6, ref.kkt_residual)
        assert res.kkt_residual == pytest.approx(kkt_residual(problem, res.coef), rel=1e-9, abs=1e-12)
        # the certificate: every column outside the working set is at zero and
        # inside its subgradient interval
        outside = np.setdiff1d(np.arange(P), res.working_set)
        assert np.all(res.coef.beta[outside] == 0.0)
        g = gradient(model, res.coef)[1 if model.has_intercept else 0:]
        tau = problem.penalty.lam * (np.ones(P) if spec.weights is None else spec.weights)
        assert np.all(np.abs(g[outside]) <= tau[outside])
        assert res.working_set.size < P
        if pen_name == "adaptive_lasso":
            assert 3 not in res.working_set and res.coef.beta[3] == 0.0
        assert res.map_evals > 0 and res.outer_iters > 0
        assert len(res.trace) >= res.outer_iters + 1


def counting_fits(monkeypatch):
    """Count the restricted fits that ``fit_path`` runs."""
    calls = []
    original = accel.accelerated_fit

    def counted(problem, config, start, mode="squarem"):
        calls.append(problem.model.design.n_cols)
        return original(problem, config, start, mode)

    monkeypatch.setattr(accel, "accelerated_fit", counted)
    return calls


def test_a_column_the_strong_rule_misses_is_added_and_refitted(monkeypatch):
    # x2 is orthogonal to y, so at the zero start |g_2| = 0 < lambda and the
    # strong rule leaves it out; on {x1} alone the residual has x2^T r = -0.75
    x = np.array([[1.0, 0.0], [1.0, 1.0]])
    model = FidelityModel(DesignMatrix(x, has_intercept=False), Response(family="gaussian", y=[2.0, 0.0]))
    spec = PenaltySpec(family=Family.LASSO, lam=0.5)
    calls = counting_fits(monkeypatch)
    [res] = fit_path(model, spec, [0.5], TIGHT, CoefficientVector.zeros(2, False), "plain")
    assert calls == [1, 2]  # the screened fit, then the refit with the violator
    assert res.working_set.tolist() == [0, 1]
    assert res.coef.beta[1] != 0.0
    assert res.kkt_residual <= 1e-6
    [ref] = unscreened(model, spec, [0.5], TIGHT, CoefficientVector.zeros(2, False), "plain")
    assert abs(res.objective - ref.objective) <= 1e-12
    # the trace runs through both fits and never rises
    assert len(res.trace) == res.outer_iters + 2
    assert np.all(np.diff(res.trace) <= 1e-12)


@pytest.mark.parametrize("family", ["gaussian", "cox"])
def test_an_empty_strong_set_keeps_the_column_of_largest_ratio(family, monkeypatch):
    # gaussian carries an intercept, cox has none
    model = make_model(family, n=20, p=5, seed=12)
    spec = PenaltySpec(family=Family.LASSO, lam=1e4)
    start = CoefficientVector.zeros(5, model.has_intercept)
    g = np.abs(gradient(model, start))[1 if model.has_intercept else 0:]
    calls = counting_fits(monkeypatch)
    [res] = fit_path(model, spec, [1e4], TIGHT, start, "squarem")
    assert calls == [1]
    assert res.working_set.tolist() == [int(np.argmax(g))]
    assert np.all(res.coef.beta == 0.0)
    assert res.kkt_residual <= 1e-8


def test_a_failed_lambda_is_returned_and_the_sweep_goes_on(monkeypatch):
    model = make_model("gaussian", n=30, p=8, seed=13)
    spec = PenaltySpec(family=Family.LASSO, lam=1.0)
    lams = grid(model)
    original = accel.accelerated_fit

    def failing(problem, config, start, mode="squarem"):
        if problem.penalty.lam == lams[1]:
            raise ConvergenceError("injected")
        return original(problem, config, start, mode)

    monkeypatch.setattr(accel, "accelerated_fit", failing)
    first, failed, last = fit_path(model, spec, lams, TIGHT, CoefficientVector.zeros(8, True), "plain")
    assert isinstance(failed, ConvergenceError)
    monkeypatch.setattr(accel, "accelerated_fit", original)
    # the last lambda goes on from the first one's result, as if the failed one were not there
    ref = fit_path(model, spec, [lams[0], lams[2]], TIGHT, CoefficientVector.zeros(8, True), "plain")
    assert np.array_equal(last.coef.beta, ref[1].coef.beta)
    assert last.kkt_residual <= 1e-6


def test_fit_path_rejects_a_non_finite_start():
    model = make_model("gaussian", n=30, p=8, seed=13)
    spec = PenaltySpec(family=Family.LASSO, lam=1.0)
    start = CoefficientVector.zeros(8, True)
    start.beta[2] = np.nan  # the caller's array, changed after its check
    with pytest.raises(ValidationError, match="finite"):
        fit_path(model, spec, grid(model), TIGHT, start)
