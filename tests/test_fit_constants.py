"""What a fit builds once, and the fused soft-threshold map that uses it.

A fit's map object chooses its likelihood and penalty kernels at
construction, builds the linear families' thresholds once, and maps the
whole augmented vector with one soft-threshold.  These tests pin that the
results stay those of the two-branch formula it replaced, bit for bit, and
that the per-fit work is not done per map.
"""
import collections
import sys
import warnings

import numpy as np
import pytest

from conftest import kernel_score, make_model, random_coef
from mist import fidelity as fid
from mist import penalties as pen
from mist import solver
from mist.accel import accelerated_fit, fit_path
from mist.fidelity import CoefficientVector
from mist.penalties import Family, PenaltySpec
from mist.solver import Problem, SolverConfig, mm_outer, one_step_fit


def two_branch_map(problem, theta, omega, grad):
    """The map as it was computed before the fused form, kept as its reference:
    the intercept updated alone, then the slopes soft-thresholded and shrunk,
    at a step omega that is one number or one per coordinate."""
    spec = problem.penalty
    omega = np.broadcast_to(omega, theta.shape)
    half = 0.5 * omega
    arg = theta + half * grad
    shrink = 1.0 / (1.0 + omega * spec.lam * spec.epsilon)

    def soft(u, v):
        with np.errstate(invalid="ignore"):
            shrunk = np.abs(u) - v
        return np.sign(u) * np.maximum(shrunk, 0.0)

    derivative = pen.kernels(spec, problem.model.design.n_cols).derivative
    if problem.model.has_intercept:
        tau = derivative(np.abs(theta[1:]))
        out = np.empty_like(theta)
        out[0] = theta[0] + half[0] * grad[0]
        out[1:] = shrink[1:] * soft(arg[1:], half[1:] * tau)
        return out
    tau = derivative(np.abs(theta))
    return shrink * soft(arg, half * tau)


P = 6


def penalty(family, epsilon):
    weights = None
    if family in pen.ADAPTIVE_FAMILIES:
        weights = np.array([1.0, np.inf, 0.5, 2.0, 0.0, 3.0])  # one pinned, one free
    return PenaltySpec(family=family, lam=0.4, epsilon=epsilon, weights=weights, a=3.7, delta=1.5)


MODELS = [("gaussian", True), ("gaussian", False), ("logistic", True), ("logistic", False), ("cox", False)]
#: every family with and without the ridge, but the elastic nets, which need it
PENALTIES = [
    (family, epsilon)
    for family in Family
    for epsilon in (0.0, 0.3)
    if epsilon > 0.0 or family not in (Family.ELASTIC_NET, Family.ADAPTIVE_ELASTIC_NET)
]


@pytest.mark.parametrize("family,epsilon", PENALTIES)
@pytest.mark.parametrize("response,intercept", MODELS)
def test_fused_map_is_bit_identical_to_the_two_branch_map(response, intercept, family, epsilon):
    model = make_model(response, n=50, p=P, seed=80, intercept=intercept)
    prob = Problem(model, penalty(family, epsilon))
    rng = np.random.default_rng(81)
    gmap = solver._GlmMap(prob)
    omega = gmap.omega
    for trial in range(4):
        theta = random_coef(model, seed=82 + trial, scale=1.5).augmented()
        theta[model.has_intercept + 4] = 0.0  # an exact zero
        theta[model.has_intercept + 5] *= 5.0  # in the SCAD/MCP tail
        if prob.penalty.weights is not None:
            theta[model.has_intercept + 1] = 0.0  # the pinned coordinate, as a fit holds it
        score = kernel_score(model, model._xt @ theta)
        grad = score + rng.standard_normal(theta.shape[0])
        # the full step, a step halved twice, then the full step again: the
        # map rebuilds its thresholds when the step's multiplier changes; the
        # public glm_map at that step runs the same update
        for w in (1.0, 0.25, 1.0):
            want = two_branch_map(prob, theta, w * omega, grad)
            assert np.array_equal(gmap(theta, w, grad), want)
            assert np.array_equal(solver.glm_map(prob, theta, w * omega, grad), want)
        assert np.array_equal(gmap(theta, grad=grad), two_branch_map(prob, theta, omega, grad))


def test_a_lasso_fit_builds_its_thresholds_once(monkeypatch):
    model = make_model("gaussian", n=40, p=20, seed=83)
    calls = [0]
    original = pen.kernels

    def counted_kernels(spec, p):
        kernels = original(spec, p)

        def counted(r):
            calls[0] += 1
            return kernels.derivative(r)

        return kernels._replace(derivative=counted)

    monkeypatch.setattr(pen, "kernels", counted_kernels)
    cfg = SolverConfig(coef_tol=1e-12, obj_tol=1e-300)
    start = CoefficientVector.zeros(20, True)
    lasso = accelerated_fit(Problem(model, PenaltySpec(family=Family.LASSO, lam=0.5)), cfg, start, mode="plain")
    assert lasso.outer_iters > 100
    # once when the map is built, once in the KKT check at the end
    assert calls[0] == 2
    # the counter sees a per-map computation: SCAD's thresholds depend on theta
    calls[0] = 0
    scad = accelerated_fit(Problem(model, PenaltySpec(family=Family.SCAD, lam=0.5)), cfg, start, mode="plain")
    assert calls[0] >= scad.map_evals > 100


@pytest.mark.parametrize("response", ["gaussian", "logistic", "cox"])
def test_a_fit_with_a_pinned_weight_raises_no_runtime_warning(response):
    model = make_model(response, n=50, p=P, seed=84)
    weights = np.array([1.0, np.inf, 0.5, 2.0, np.inf, 3.0])
    cfg = SolverConfig(coef_tol=1e-10, obj_tol=1e-300)
    start = CoefficientVector(beta=np.full(P, 0.5), intercept=0.0 if model.has_intercept else None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for family in (Family.ADAPTIVE_LASSO, Family.ADAPTIVE_ELASTIC_NET):
            prob = Problem(model, PenaltySpec(family=family, lam=0.5, epsilon=0.2, weights=weights))
            fits = [accelerated_fit(prob, cfg, start, mode=m) for m in ("plain", "squarem")]
            fits += [mm_outer(prob, cfg, start), one_step_fit(prob, cfg)]
            for res in fits:
                assert np.all(res.coef.beta[np.isinf(weights)] == 0.0)
                assert res.kkt_residual < 1e-3


#: the checked public functions, and the checked constructor, that no fit
#: should run past its start: (owner, attribute)
CHECKED = [
    (fid.FidelityModel, "_check"),
    (fid.FidelityModel, "linear_predictor"),
    (fid, "neg_loglik"),
    (fid, "gradient"),
    (fid, "hessian"),
    (solver, "kkt_residual"),
    (solver, "total_objective"),
    (pen, "penalty_value_vec"),
    (pen, "penalty_derivative_vec"),
    (pen, "threshold_vector"),
    (solver, "soft_threshold_vec"),
    (CoefficientVector, "__post_init__"),
]


def count_checked_calls(monkeypatch):
    """Count every call of a ``CHECKED`` name, through whichever binding it comes."""
    counts = collections.Counter()
    modules = [m for n, m in sys.modules.items() if n == "mist" or n.startswith("mist.")]
    for owner, name in CHECKED:
        original = getattr(owner, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        if isinstance(owner, type):
            monkeypatch.setattr(owner, name, counted)
            continue
        for module in modules:
            for binding, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, binding, counted)
    return counts


@pytest.mark.parametrize("pen_family", [Family.LASSO, Family.SCAD])
@pytest.mark.parametrize("response", ["gaussian", "logistic", "poisson", "cox"])
def test_fits_check_their_start_once(response, pen_family, monkeypatch):
    model = make_model(response, n=60, p=5, seed=85)
    start = CoefficientVector.zeros(5, model.has_intercept)
    lam_max = float(np.max(np.abs(fid.gradient(model, start)[model.has_intercept:])))
    spec = PenaltySpec(family=pen_family, lam=0.3 * lam_max)
    prob = Problem(model, spec)
    counts = count_checked_calls(monkeypatch)
    # a capped fit and a long one run the same checks: none grows with outer_iters
    for cfg in (SolverConfig(max_outer=2), SolverConfig(coef_tol=1e-9, obj_tol=1e-14)):
        fits = [
            lambda: accelerated_fit(prob, cfg, start, mode="plain"),
            lambda: accelerated_fit(prob, cfg, start, mode="squarem"),
            lambda: mm_outer(prob, cfg, start),
        ]
        for run in fits:
            counts.clear()
            res = run()
            # the start checked once, one result built
            assert counts == {"_check": 1, "__post_init__": 1}, res
        counts.clear()
        one_step_fit(prob, cfg)
        # the MLE's coefficients, then those of the one step
        assert counts == {"_check": 1, "__post_init__": 2}
        counts.clear()
        path = fit_path(model, spec, [0.5 * lam_max, 0.3 * lam_max], cfg, start)
        # each refit checks its start and builds its start and its result;
        # each lambda builds its full-p result
        refits = sum(len(res.trace) - res.outer_iters for res in path)
        assert counts == {"_check": 1 + refits, "__post_init__": 2 * refits + len(path)}
