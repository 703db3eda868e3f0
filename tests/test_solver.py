"""MM engine: thresholding, inner solver, fit paths, one-step, diagnostics."""
import dataclasses
import json
import math
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from conftest import make_model, random_coef
from mist.exceptions import ConvergenceError, NotGloballyLipschitz, ValidationError
from mist.fidelity import (
    CoefficientVector,
    DesignMatrix,
    FidelityModel,
    Response,
    ResponseFamily,
    curvature_bound,
    fit_mle,
    gradient,
    neg_loglik,
    poisson_majorizer_component,
    poisson_weights,
)
from mist import fidelity as fid
from mist import simlab, solver
from mist.accel import accelerated_fit, fit_path, squarem_step
from mist.penalties import Family, PenaltySpec, kernels, penalty_derivative_vec, threshold_vector
from mist.solver import (
    FitResult,
    Problem,
    SolverConfig,
    Termination,
    fit,
    glm_map,
    glm_mm_fit,
    glm_surrogate_value,
    kkt_residual,
    mm_map,
    mm_outer,
    one_step_fit,
    resolve_step,
    soft_threshold,
    soft_threshold_vec,
    starting_point,
    total_objective,
)

TIGHT = SolverConfig(coef_tol=1e-10, obj_tol=1e-15)


def gaussian_problem(X, y, spec, intercept=False):
    m = FidelityModel(
        DesignMatrix(np.asarray(X, float), has_intercept=intercept),
        Response(family=ResponseFamily.GAUSSIAN, y=np.asarray(y, float)),
    )
    return Problem(m, spec)


# -- soft thresholding -----------------------------------------------------


def test_soft_threshold_examples():
    assert soft_threshold(3.0, 1.0) == 2.0
    assert soft_threshold(-0.5, 1.0) == 0.0
    assert soft_threshold(-7.25, 0.0) == -7.25
    assert soft_threshold(5.0, math.inf) == 0.0
    assert soft_threshold(0.0, 0.0) == 0.0


def test_soft_threshold_rejects_negative():
    with pytest.raises(ValidationError):
        soft_threshold(1.0, -0.1)


def test_soft_threshold_vec_examples():
    assert np.array_equal(
        soft_threshold_vec(np.array([3.0, -3.0]), np.array([1.0, 1.0])), [2.0, -2.0]
    )
    assert np.array_equal(
        soft_threshold_vec(np.array([0.2, 5.0]), np.array([1.0, 0.0])), [0.0, 5.0]
    )
    assert soft_threshold_vec(np.array([]), np.array([])).shape == (0,)
    out = soft_threshold_vec(np.array([2.0, -4.0]), np.array([math.inf, 1.0]))
    assert np.array_equal(out, [0.0, -3.0])
    assert not np.any(np.isnan(out))


def test_soft_threshold_vec_rejects_a_nan_threshold():
    with pytest.raises(ValidationError, match="thresholds must be >= 0"):
        soft_threshold_vec(np.array([1.0, 2.0]), np.array([math.nan, 1.0]))


def test_soft_threshold_vec_shape_mismatch():
    with pytest.raises(ValidationError):
        soft_threshold_vec(np.zeros(2), np.zeros(3))


def test_clamp_soft_threshold_is_the_sign_form_bit_for_bit():
    # u - min(max(u, -t), t) against sign(u) (|u| - t)_+, after mapping -0.0 to +0.0
    rng = np.random.default_rng(24)
    scale = 10.0 ** rng.uniform(-300, 300, 4000)
    u = rng.standard_normal(4000) * scale
    t = np.abs(rng.standard_normal(4000)) * scale[rng.permutation(4000)]
    t[:500] = np.abs(u[:500])  # |u| = t
    u[500:600] = 0.0
    u[600:700] = -0.0
    t[700:900] = 0.0  # the intercept slot
    t[900:1100] = math.inf  # a pinned coordinate
    t[1100:1200] = 5e-324  # a subnormal threshold
    with np.errstate(over="ignore"):
        got = soft_threshold_vec(u, t) + 0.0
        want = np.sign(u) * np.maximum(np.abs(u) - t, 0.0) + 0.0
    assert got.tobytes() == want.tobytes()
    assert np.all(got[700:900] == u[700:900]) and np.all(got[900:1100] == 0.0)


# -- total objective -------------------------------------------------------


def test_total_objective_hand_values():
    spec = PenaltySpec(family=Family.LASSO, lam=1.0)
    prob = gaussian_problem([[1.0]], [0.0], spec)
    c = CoefficientVector(beta=np.array([1.0]))
    assert total_objective(prob, c) == pytest.approx(1.5, abs=1e-14)
    spec2 = PenaltySpec(family=Family.LASSO, lam=1.0, epsilon=1.0)
    prob2 = gaussian_problem([[1.0]], [0.0], spec2)
    assert total_objective(prob2, c) == pytest.approx(2.5, abs=1e-14)


def test_total_objective_zero_coef_is_fidelity_only():
    spec = PenaltySpec(family=Family.SCAD, lam=2.0)
    model = make_model("gaussian", n=10, p=3, seed=0)
    prob = Problem(model, spec)
    z = CoefficientVector.zeros(3, True)
    from mist.fidelity import neg_loglik

    assert total_objective(prob, z) == pytest.approx(neg_loglik(model, z), abs=1e-14)


# -- the surrogate fit ------------------------------------------------------


def surrogate_fit(prob, theta, inner_tol):
    """``mm_outer``'s surrogate fit of ``prob`` from the augmented ``theta``,
    stopped at the step norm ``inner_tol``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "INNER_TOL", inner_tol)
        return solver._SurrogateFit(prob)(np.asarray(theta, dtype=float))


def quadratic_problem(H, c, tau):
    """A gaussian problem with fidelity b . H b / 2 - c . b + const and thresholds
    tau: X^T X = H and X^T y = c, with tau as adaptive-lasso weights at lam = 1."""
    x = np.linalg.cholesky(H).T
    y = np.linalg.solve(x.T, c)
    return gaussian_problem(x, y, PenaltySpec(family=Family.ADAPTIVE_LASSO, lam=1.0, weights=np.asarray(tau, float)))


def test_ist_scalar_lasso():
    # l(b) = 0.5 (b - 3)^2, tau = 1 -> soft(3, 1) = 2
    prob = gaussian_problem([[1.0]], [3.0], PenaltySpec(family=Family.LASSO, lam=1.0))
    b = surrogate_fit(prob, [0.0], inner_tol=1e-12)
    assert b[0] == pytest.approx(2.0, abs=1e-10)


def test_ist_zero_threshold_matches_linear_solve():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((8, 4))
    H = A.T @ A + 0.5 * np.eye(4)
    c = rng.standard_normal(4)
    b = surrogate_fit(quadratic_problem(H, c, np.zeros(4)), np.zeros(4), inner_tol=1e-13)
    assert np.allclose(b, np.linalg.solve(H, c), atol=1e-9)


def test_ist_fixed_point_start():
    prob = gaussian_problem([[1.0]], [3.0], PenaltySpec(family=Family.LASSO, lam=1.0))
    b = surrogate_fit(prob, [2.0], inner_tol=1e-12)
    assert b[0] == pytest.approx(2.0, abs=1e-12)


def test_ist_contraction_on_quadratic():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((10, 5))
    H = A.T @ A + 0.1 * np.eye(5)
    c = rng.standard_normal(5)
    omega = 0.95 * 2.0 / np.linalg.eigvalsh(H).max()
    tau = np.full(5, 0.3)
    b = rng.standard_normal(5)
    prev_step = None
    for _ in range(60):
        d = b - omega * (H @ b - c)
        b_new = soft_threshold_vec(d, omega * tau)
        step = float(np.linalg.norm(b_new - b))
        if prev_step is not None:
            assert step <= prev_step + 1e-12
        prev_step = step
        b = b_new


def ill_conditioned_quadratic():
    """An 8-coordinate quadratic problem, kappa = 1e3, whose thresholds are active."""
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    H = q @ np.diag(np.geomspace(1.0, 1e3, 8)) @ q.T
    return quadratic_problem(H, 30.0 * rng.standard_normal(8), np.full(8, 10.0))


def test_ist_iteration_cap_raises_with_diagnostics(monkeypatch):
    monkeypatch.setattr(solver, "INNER_MAX", 3)
    start = np.zeros(8)
    with pytest.raises(ConvergenceError, match="in 3 iterations") as exc:
        surrogate_fit(ill_conditioned_quadratic(), start, inner_tol=1e-14)
    assert np.array_equal(exc.value.last_iterate, start)
    assert exc.value.residual is not None


def test_ist_with_a_step_per_coordinate_reaches_the_minimizer_across_scales():
    # l(b) = sum_j h_j (b_j - a_j)^2 / 2 with curvatures from 1e-8 to 1e8, each
    # minimizer of its own coordinate's scale: X = diag(sqrt h), so the map's
    # step is 0.95 * 2 / h_j in each coordinate
    rng = np.random.default_rng(8)
    h = np.geomspace(1e-8, 1e8, 9)
    a = rng.standard_normal(9) / np.sqrt(h)
    tau = 0.5 * np.sqrt(h)
    want = soft_threshold_vec(h * a, tau) / h
    assert 0 < np.count_nonzero(want) < 9  # the threshold is active
    prob = gaussian_problem(np.diag(np.sqrt(h)), np.sqrt(h) * a,
                            PenaltySpec(family=Family.ADAPTIVE_LASSO, lam=0.5, weights=np.sqrt(h)))
    b = surrogate_fit(prob, np.zeros(9), inner_tol=1e-9)
    assert np.all(np.abs(b - want) <= 1e-12 * np.abs(want))


@pytest.mark.parametrize("epsilon", [0.0, 0.5])
def test_surrogate_fit_lands_on_the_adaptive_elastic_net_optimum(epsilon):
    # from the MLE the fit minimizes l(b) + lam eps ||b||^2 + sum_j p'(|mle_j|)
    # |b_j|, the adaptive lasso (elastic net when eps > 0) with weights
    # p'(|mle_j|) / lam, with the ridge applied exactly by the map's shrink.
    # It is stationary there, and a tight squarem fit of that problem lands
    # on it: a plain Cox fit stops on an unchanged objective short of 1e-7
    family = Family.ADAPTIVE_ELASTIC_NET if epsilon else Family.ADAPTIVE_LASSO
    for response in ("gaussian", "logistic", "cox"):
        model = make_model(response, n=60, p=5, seed=37)
        scad = PenaltySpec(family=Family.SCAD, lam=4.0, epsilon=epsilon)
        mle = fit_mle(model)
        solved = surrogate_fit(Problem(model, scad), mle.augmented(), inner_tol=1e-12)
        weights = kernels(scad, 5).derivative(np.abs(mle.beta)) / scad.lam
        enet = Problem(model, PenaltySpec(family=family, lam=4.0, epsilon=epsilon, weights=weights))
        assert kkt_residual(enet, CoefficientVector.from_augmented(solved, model.has_intercept)) <= 1e-7
        ref = accelerated_fit(enet, SolverConfig(coef_tol=1e-13, obj_tol=1e-300), mle, mode="squarem")
        assert ref.termination is not Termination.MAX_ITER and ref.kkt_residual <= 1e-7
        assert np.count_nonzero(solved[model.has_intercept:]) < 5  # a threshold is active
        assert np.max(np.abs(solved - ref.coef.augmented())) <= 1e-8, response


# -- single-map GLM update -------------------------------------------------


def test_glm_map_scalar_exact_lasso():
    # X=[1], y=3, lasso lam=1, omega=2: one map from 0 gives S(3, 1) = 2
    spec = PenaltySpec(family=Family.LASSO, lam=1.0)
    prob = gaussian_problem([[1.0]], [3.0], spec)
    out = glm_map(prob, np.array([0.0]), omega=2.0)
    assert out[0] == pytest.approx(2.0, abs=1e-14)
    # 2 is the exact solution: a second application is a fixed point
    out2 = glm_map(prob, out, omega=2.0)
    assert out2[0] == pytest.approx(2.0, abs=1e-14)


def test_glm_map_scad_tail_is_gradient_step():
    # all |beta| > a*lam: tau = 0, update is beta + (omega/2) grad_l
    spec = PenaltySpec(family=Family.SCAD, lam=0.1, a=3.7)
    rng = np.random.default_rng(6)
    X = rng.standard_normal((10, 2))
    y = rng.standard_normal(10)
    prob = gaussian_problem(X, y, spec)
    theta = np.array([5.0, -4.0])
    from mist.fidelity import gradient

    g = gradient(prob.model, CoefficientVector(beta=theta))
    out = glm_map(prob, theta, omega=0.01)
    assert np.allclose(out, theta + 0.005 * g, atol=1e-14)


def test_glm_map_ridge_contraction_at_stationarity():
    # gradient zero, tau = 0 -> update contracts beta by 1/(1 + omega*lam*eps)
    spec = PenaltySpec(family=Family.SCAD, lam=1.0, a=3.7, epsilon=0.5)
    # y = X beta* exactly, beta* beyond the SCAD flat tail
    X = np.array([[1.0], [2.0]])
    beta_star = 5.0
    prob = gaussian_problem(X, X[:, 0] * beta_star, spec)
    out = glm_map(prob, np.array([beta_star]), omega=0.1)
    assert out[0] == pytest.approx(beta_star / (1.0 + 0.1 * 0.5), abs=1e-12)


def test_glm_mm_fit_orthogonal_design_closed_form():
    rng = np.random.default_rng(8)
    Q, _ = np.linalg.qr(rng.standard_normal((30, 5)))
    y = rng.standard_normal(30)
    lam = 0.3
    spec = PenaltySpec(family=Family.LASSO, lam=lam)
    prob = gaussian_problem(Q, y, spec)
    res = glm_mm_fit(prob, TIGHT, CoefficientVector(beta=np.zeros(5)))
    closed = soft_threshold_vec(Q.T @ y, np.full(5, lam))
    assert np.linalg.norm(res.coef.beta - closed) <= 1e-8
    assert res.termination in (Termination.COEF_TOL, Termination.OBJ_TOL)


def test_glm_mm_fit_large_lambda_gives_zero():
    model = make_model("gaussian", n=20, p=4, seed=10, intercept=False)
    from mist.fidelity import gradient

    score = gradient(model, CoefficientVector(beta=np.zeros(4)))
    lam = float(np.abs(score).max()) * 2.0
    prob = Problem(model, PenaltySpec(family=Family.LASSO, lam=lam))
    res = glm_mm_fit(prob, TIGHT, CoefficientVector(beta=np.zeros(4)))
    assert np.array_equal(res.coef.beta, np.zeros(4))
    assert res.kkt_residual <= 1e-10


def test_glm_mm_fit_rejects_poisson():
    model = make_model("poisson", n=10, p=2, seed=1)
    prob = Problem(model, PenaltySpec(family=Family.LASSO, lam=1.0))
    with pytest.raises(NotGloballyLipschitz):
        glm_mm_fit(prob, TIGHT, CoefficientVector.zeros(2, True))


def test_glm_mm_fit_trace_monotone_and_consistent():
    model = make_model("logistic", n=40, p=5, seed=12)
    prob = Problem(model, PenaltySpec(family=Family.MCP, lam=0.5))
    res = glm_mm_fit(prob, TIGHT, CoefficientVector.zeros(5, True))
    assert np.all(np.diff(res.trace) <= 1e-12)
    assert res.objective == res.trace[-1]
    assert res.map_evals >= res.outer_iters


def test_pinned_coordinates_stay_zero():
    model = make_model("gaussian", n=30, p=3, seed=14, intercept=False)
    spec = PenaltySpec(
        family=Family.ADAPTIVE_LASSO, lam=0.5, weights=np.array([1.0, math.inf, 1.0])
    )
    prob = Problem(model, spec)
    start = CoefficientVector(beta=np.array([0.0, 5.0, 0.0]))  # pinned coord nonzero
    res = glm_mm_fit(prob, TIGHT, start)
    assert res.coef.beta[1] == 0.0
    assert np.isfinite(res.objective)
    assert res.kkt_residual <= 1e-6


# -- generic outer loop ----------------------------------------------------


def test_mm_outer_matches_single_map_fit_lasso():
    model = make_model("gaussian", n=25, p=4, seed=15)
    prob = Problem(model, PenaltySpec(family=Family.LASSO, lam=0.4))
    a = mm_outer(prob, TIGHT, CoefficientVector.zeros(4, True))
    b = glm_mm_fit(prob, TIGHT, CoefficientVector.zeros(4, True))
    assert abs(a.objective - b.objective) <= 1e-8
    assert np.linalg.norm(a.coef.beta - b.coef.beta) <= 1e-6


def test_mm_outer_scad_quadratic_path_stationary():
    model = make_model("gaussian", n=30, p=5, seed=16)
    prob = Problem(model, PenaltySpec(family=Family.SCAD, lam=0.6))
    res = mm_outer(prob, TIGHT, CoefficientVector.zeros(5, True))
    assert res.kkt_residual <= 1e-6
    assert np.all(np.diff(res.trace) <= 1e-12)


def test_mm_outer_fixed_point_returns_quickly():
    model = make_model("gaussian", n=25, p=4, seed=17)
    prob = Problem(model, PenaltySpec(family=Family.LASSO, lam=0.4))
    first = mm_outer(prob, TIGHT, CoefficientVector.zeros(4, True))
    again = mm_outer(prob, TIGHT, first.coef)
    assert again.outer_iters == 1
    assert np.linalg.norm(again.coef.augmented() - first.coef.augmented()) <= 1e-8


def assert_same_fit(a, b):
    """Every ``FitResult`` field of a equals b's, bit for bit."""
    for field in dataclasses.fields(FitResult):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, CoefficientVector):
            x, y = x.augmented(), y.augmented()
        assert np.array_equal(x, y), field.name


@pytest.mark.parametrize("penalty", [Family.SCAD, Family.MCP])
@pytest.mark.parametrize("family", ["gaussian", "logistic", "poisson", "cox"])
def test_mm_outer_on_a_flat_tail_penalty_is_glm_mm_fit(family, penalty):
    # the linearized flat-tail penalty majorizes it, so the surrogate solve
    # descends and meets the single-map fit (``glm_mm_fit`` on a GLM, the
    # separable-majorizer fit on Poisson) at the same stationary point
    model = make_model(family, n=40, p=4, seed=19)
    prob = Problem(model, PenaltySpec(family=penalty, lam=0.5))
    start = CoefficientVector.zeros(4, model.has_intercept)
    a, b = mm_outer(prob, TIGHT, start), fit(prob, TIGHT, start)
    assert np.all(np.diff(a.trace) <= 1e-12)
    assert a.kkt_residual <= 1e-6
    assert np.max(np.abs(a.coef.augmented() - b.coef.augmented())) <= 1e-6


def test_rejected_mm_outer_step_solves_once(monkeypatch):
    model = make_model("gaussian", n=25, p=4, seed=15)
    prob = Problem(model, PenaltySpec(family=Family.LASSO, lam=0.4))
    calls = []
    real = solver._SurrogateFit.__call__

    def uphill(self, theta):
        calls.append(1)
        return real(self, theta) + 100.0  # far above the surrogate minimizer

    monkeypatch.setattr(solver._SurrogateFit, "__call__", uphill)
    with pytest.raises(ConvergenceError, match=r"in 1 attempt\(s\)"):
        mm_outer(prob, TIGHT, CoefficientVector.zeros(4, True))
    assert len(calls) == 1


@pytest.mark.parametrize("family", ["gaussian", "cox"])
def test_mm_outer_computes_the_curvature_bound_once(family, monkeypatch):
    import mist.fidelity as fid

    model = make_model(family, n=25, p=4, seed=17)
    prob = Problem(model, PenaltySpec(family=Family.LASSO, lam=0.4, epsilon=0.5))
    start = CoefficientVector.zeros(4, model.has_intercept)
    computed, steps = [], []
    real, glm_map_class = fid.diagonal_bound, solver._GlmMap

    class Recorded(glm_map_class):
        def __init__(self, problem):
            super().__init__(problem)
            steps.append(self.omega)

    # each surrogate fit builds its map, which reads the bound the model keeps
    monkeypatch.setattr(fid, "diagonal_bound", lambda m: computed.append(m._diagonal_bound is None) or real(m))
    monkeypatch.setattr(solver, "_GlmMap", Recorded)
    res = mm_outer(prob, TIGHT, start)
    assert computed.count(True) == 1 and len(computed) == res.outer_iters
    # every surrogate fit maps at the step STEP_SAFETY * 2 / D exactly: one per
    # coordinate for gaussian, one number for cox; the ridge adds no
    # curvature, since the map's shrink applies it exactly
    bound = real(model)
    assert len(steps) == res.outer_iters > 0
    for inner in steps:
        assert np.ndim(inner) == (family == "gaussian")
        assert np.array_equal(inner, 0.95 * 2.0 / bound)


@pytest.mark.parametrize("family", ["gaussian", "logistic"])
def test_curvature_bound_is_computed_once_per_model(family, monkeypatch):
    import mist.fidelity as fid

    shapes = []
    real = fid._top_gram_eigenvalue
    monkeypatch.setattr(fid, "_top_gram_eigenvalue", lambda xt: shapes.append(xt.shape) or real(xt))
    model = make_model(family, n=30, p=5, seed=23)
    lasso = Problem(model, PenaltySpec(family=Family.LASSO, lam=0.3))
    start = CoefficientVector.zeros(5, True)
    # one bound per coordinate serves the maps of both fits
    fit(lasso, TIGHT, start)
    accelerated_fit(lasso, TIGHT, start, mode="squarem")
    assert shapes == [(30, 6)]
    # and the surrogate solves of both one-step fits: one eigenvalue per model
    scad = Problem(model, PenaltySpec(family=Family.SCAD, lam=0.3))
    one_step_fit(scad, TIGHT)
    one_step_fit(scad, TIGHT)
    fit(scad, TIGHT, start)
    assert shapes == [(30, 6)]
    # a column subset gets its own bound, and the full model keeps its own
    sub = model.restrict(np.array([0, 3]))
    fit(Problem(sub, lasso.penalty), TIGHT, CoefficientVector.zeros(2, True))
    assert shapes == [(30, 6), (30, 3)]
    scale = 1.0 if family == "gaussian" else 0.25
    for m in (sub, model):
        s2 = np.einsum("ij,ij->j", m._xt, m._xt)
        assert np.array_equal(fid.diagonal_bound(m), scale * real(m._xt / np.sqrt(s2)) * s2)
    assert fid.curvature_bound(model) == scale * real(model._xt)


def test_max_outer_reports_max_iter_termination():
    model = make_model("gaussian", n=25, p=4, seed=18)
    prob = Problem(model, PenaltySpec(family=Family.LASSO, lam=0.1))
    cfg = SolverConfig(coef_tol=1e-14, obj_tol=1e-16, max_outer=2)
    res = glm_mm_fit(prob, cfg, CoefficientVector.zeros(4, True))
    assert res.termination is Termination.MAX_ITER
    assert res.outer_iters == 2


# -- step resolution -------------------------------------------------------


def test_resolve_step_auto_uses_safety_margin():
    model = make_model("gaussian", n=20, p=3, seed=19)
    prob = Problem(model, PenaltySpec(family=Family.LASSO, lam=1.0))
    from mist.fidelity import curvature_bound

    assert resolve_step(prob, SolverConfig()) == pytest.approx(
        0.95 * 2.0 / curvature_bound(model)
    )
    assert resolve_step(prob) == resolve_step(prob, SolverConfig(coef_tol=1e-3))


@pytest.mark.parametrize(
    "removed",
    [{"relaxation": 0.5}, {"step_omega": 1.0}, {"step_omega": "auto"},
     {"inner_max": False}, {"inner_max": math.inf}, {"inner_max": -3.0}, {"inner_max": 20.0},
     {"inner_tol": 1e-8}],
    ids=["relaxation", "step_omega", "step_omega_auto",
         "{'inner_max': False}", "{'inner_max': inf}", "{'inner_max': -3.0}", "inner_max", "inner_tol"],
)
def test_solver_config_has_no_relaxation(removed):
    # removed fields: the step comes from the problem alone
    with pytest.raises(TypeError):
        SolverConfig(**removed)
    with pytest.raises(ValidationError, match=f"unknown solver config key\\(s\\): {next(iter(removed))}"):
        SolverConfig.from_json(json.dumps(removed))


@pytest.mark.parametrize(
    "fields",
    [
        {"max_outer": True}, {"max_outer": 2.5}, {"max_outer": 0}, {"max_outer": "10"},
        {"coef_tol": "1e-8"}, {"obj_tol": True}, {"coef_tol": math.nan}, {"obj_tol": -1e-6},
    ],
    ids=repr,
)
def test_solver_config_rejects_a_bad_field(fields):
    name = next(iter(fields))
    with pytest.raises(ValidationError, match=name):
        SolverConfig(**fields)
    with pytest.raises(ValidationError, match=name):
        SolverConfig.from_json(json.dumps(fields))


def test_solver_config_takes_an_integral_float_as_an_integer():
    cfg = SolverConfig.from_json('{"max_outer": 1e6}')
    assert type(cfg.max_outer) is int and cfg.max_outer == 1_000_000
    model = make_model("gaussian", n=25, p=4, seed=18)
    prob = Problem(model, PenaltySpec(family=Family.SCAD, lam=0.1))
    assert one_step_fit(prob, SolverConfig(max_outer=2.0)).outer_iters == 1
    res = glm_mm_fit(prob, SolverConfig(coef_tol=1e-14, obj_tol=1e-16, max_outer=3.0),
                     CoefficientVector.zeros(4, True))
    assert res.outer_iters == 3 and res.termination is Termination.MAX_ITER


def test_solver_config_json_must_be_an_object_of_known_keys():
    with pytest.raises(ValidationError, match="must be an object"):
        SolverConfig.from_json("[1e-6]")
    with pytest.raises(ValidationError, match="unknown solver config key\\(s\\): maxouter, tol$"):
        SolverConfig.from_json('{"tol": 1e-6, "coef_tol": 1e-6, "maxouter": 5}')


# -- surrogate geometry ----------------------------------------------------


def test_surrogate_touches_objective_at_anchor():
    model = make_model("logistic", n=20, p=3, seed=20)
    prob = Problem(model, PenaltySpec(family=Family.SCAD, lam=0.7))
    omega = resolve_step(prob, SolverConfig())
    for seed in range(10):
        alpha = random_coef(model, seed)
        sur = glm_surrogate_value(prob, omega, alpha, alpha)
        assert sur == pytest.approx(total_objective(prob, alpha), abs=1e-10)


def test_surrogate_majorizes_objective():
    model = make_model("gaussian", n=20, p=3, seed=21)
    prob = Problem(model, PenaltySpec(family=Family.MCP, lam=0.7))
    omega = resolve_step(prob, SolverConfig())
    for seed in range(15):
        alpha = random_coef(model, seed)
        beta = random_coef(model, seed + 300)
        assert glm_surrogate_value(prob, omega, alpha, beta) >= (
            total_objective(prob, beta) - 1e-9
        )


def test_strict_majorization_gap_at_minimizer():
    # sur(b* + kappa) - sur(b*) >= ||kappa||^2 / omega
    model = make_model("logistic", n=25, p=4, seed=22)
    prob = Problem(model, PenaltySpec(family=Family.LASSO, lam=0.4))
    omega = resolve_step(prob, SolverConfig())
    rng = np.random.default_rng(23)
    alpha = random_coef(model, 24)
    theta_star = glm_map(prob, alpha.augmented(), omega)
    star = CoefficientVector.from_augmented(theta_star, model.has_intercept)
    for _ in range(20):
        kappa = rng.standard_normal(theta_star.shape[0])
        kappa /= max(1.0, np.linalg.norm(kappa))
        pert = CoefficientVector.from_augmented(theta_star + kappa, model.has_intercept)
        gap = glm_surrogate_value(prob, omega, alpha, pert) - glm_surrogate_value(
            prob, omega, alpha, star
        )
        assert gap >= float(kappa @ kappa) / omega - 1e-10


# -- KKT residual ----------------------------------------------------------


def test_kkt_zero_at_orthogonal_lasso_solution():
    rng = np.random.default_rng(25)
    Q, _ = np.linalg.qr(rng.standard_normal((20, 4)))
    y = rng.standard_normal(20)
    lam = 0.2
    prob = gaussian_problem(Q, y, PenaltySpec(family=Family.LASSO, lam=lam))
    closed = soft_threshold_vec(Q.T @ y, np.full(4, lam))
    assert kkt_residual(prob, CoefficientVector(beta=closed)) <= 1e-10


def test_kkt_dead_zone_and_excess():
    # single column, score at 0 is x'y; lasso dead zone then excess 0.5
    X = np.array([[1.0], [1.0]])
    y = np.array([1.0, 0.5])  # score = 1.5
    prob = gaussian_problem(X, y, PenaltySpec(family=Family.LASSO, lam=2.0))
    assert kkt_residual(prob, CoefficientVector(beta=np.array([0.0]))) == 0.0
    prob2 = gaussian_problem(X, y, PenaltySpec(family=Family.LASSO, lam=1.0))
    assert kkt_residual(prob2, CoefficientVector(beta=np.array([0.0]))) == pytest.approx(0.5)


def test_kkt_infinite_for_nonzero_pinned_coordinate():
    model = make_model("gaussian", n=10, p=2, seed=26, intercept=False)
    spec = PenaltySpec(family=Family.ADAPTIVE_LASSO, lam=1.0, weights=np.array([math.inf, 1.0]))
    prob = Problem(model, spec)
    assert kkt_residual(prob, CoefficientVector(beta=np.array([1.0, 0.0]))) == math.inf


def _kkt_loop(problem, coef):
    """The scalar loop that ``kkt_residual`` replaced, kept as its reference."""
    spec = problem.penalty
    grad_ll = gradient(problem.model, coef)
    has_int = problem.model.has_intercept
    g = -grad_ll[1:] if has_int else -grad_ll
    beta = coef.beta
    s = g + 2.0 * spec.lam * spec.epsilon * beta
    worst = abs(grad_ll[0]) if has_int else 0.0
    d = penalty_derivative_vec(spec, np.abs(beta))
    for j in range(beta.shape[0]):
        dj = float(d[j])
        if beta[j] != 0.0:
            if math.isinf(dj):
                return math.inf
            r = abs(s[j] + dj * math.copysign(1.0, beta[j]))
        else:
            r = 0.0 if math.isinf(dj) else max(abs(s[j]) - dj, 0.0)
        worst = max(worst, r)
    return worst


@pytest.mark.parametrize(
    "family", [Family.ADAPTIVE_LASSO, Family.ADAPTIVE_ELASTIC_NET, Family.SCAD, Family.MCP]
)
def test_kkt_residual_matches_scalar_loop(family):
    for seed in range(40):
        rng = np.random.default_rng([seed, 77])
        model = make_model(("gaussian", "logistic")[seed % 2], n=30, p=6, seed=seed,
                           intercept=seed % 3 != 0)
        weights = None
        if family in (Family.ADAPTIVE_LASSO, Family.ADAPTIVE_ELASTIC_NET):
            weights = rng.uniform(0.2, 3.0, 6)
            weights[rng.random(6) < 0.3] = math.inf
        epsilon = 0.4 if family is Family.ADAPTIVE_ELASTIC_NET else 0.0
        spec = PenaltySpec(family=family, lam=rng.uniform(0.05, 2.0), epsilon=epsilon, weights=weights)
        beta = rng.standard_normal(6) * rng.uniform(0.1, 5.0)
        beta[rng.random(6) < 0.4] = 0.0
        if weights is not None and seed % 4 != 0:
            beta[np.isinf(weights)] = 0.0  # pinned coordinates held at zero
        icpt = float(rng.standard_normal()) if model.has_intercept else None
        coef = CoefficientVector(beta=beta, intercept=icpt)
        prob = Problem(model, spec)
        assert kkt_residual(prob, coef) == _kkt_loop(prob, coef)


# -- Poisson path ----------------------------------------------------------


def test_poisson_unpenalized_single_obs():
    # x=1, d=1, y=1: minimizer of e^b - b is b = 0... with y=1 it's b=0
    m = FidelityModel(
        DesignMatrix(np.array([[1.0]]), has_intercept=False),
        Response(family=ResponseFamily.POISSON, y=np.array([1.0])),
    )
    prob = Problem(m, PenaltySpec(family=Family.SCAD, lam=1e-8))
    res = fit(prob, TIGHT, CoefficientVector(beta=np.array([0.5])))
    assert abs(res.coef.beta[0]) <= 1e-6


def test_poisson_all_zero_counts_large_lasso_shrinks_to_zero():
    rng = np.random.default_rng(27)
    X = rng.standard_normal((12, 3))
    m = FidelityModel(
        DesignMatrix(X, has_intercept=False),
        Response(family=ResponseFamily.POISSON, y=np.zeros(12)),
    )
    prob = Problem(m, PenaltySpec(family=Family.LASSO, lam=50.0))
    res = fit(prob, TIGHT, CoefficientVector(beta=np.array([0.3, -0.2, 0.1])))
    assert np.allclose(res.coef.beta, 0.0, atol=1e-8)


@pytest.mark.parametrize("counts", ["none", "some"])
@pytest.mark.parametrize("scale", [1.0, 30.0])
def test_a_poisson_map_moves_each_u_by_at_most_its_damped_bound(counts, scale):
    # the damped step moves coordinate j by at most ln(1 + x_j) / R_j, so it
    # moves each u_ij = eta_i + (x_ij / w_ij)(b_j - theta_j) by at most
    # ln(1 + x_j), with x_j = R_j |delta_j|; with no counts the intercept's
    # Newton step is as long as the slope of e^eta is steep, and a column
    # scaled by 30 has a large R_j
    rng = np.random.default_rng(42)
    x = rng.standard_normal((12, 2))
    x[:, 1] *= scale
    y = np.zeros(12) if counts == "none" else rng.poisson(3.0, 12).astype(float)
    model = FidelityModel(DesignMatrix(x), Response(family=ResponseFamily.POISSON, y=y))
    prob = Problem(model, PenaltySpec(family=Family.LASSO, lam=1.0))
    pm = mm_map(prob)
    theta = np.zeros(3)
    for _ in range(5):
        new = pm(theta)
        start, delta, reach = _poisson_newton_steps(prob, theta)
        moved = np.abs(pm.ratio * (new - start)).max(axis=0)
        bound = np.log1p(reach * np.abs(delta))
        assert np.all(np.isfinite(new))
        assert np.all(moved <= bound * (1.0 + 1e-12) + 1e-300)
        theta = new
    if counts == "none":
        assert theta[0] < -1.0  # the intercept heads down, ln(1 + x) at a time


def test_poisson_fit_whose_map_overflows_is_a_rejected_step():
    # rate multipliers of 1e-305 put the minimizing linear predictor past the
    # exponent guard: each map's damped steps move each u_ij by up to
    # ln(1 + x), about 700, and the maps climb towards it.  A map raises only
    # where the Poisson mean at theta overflows, and the first candidate whose
    # mean overflows rejects the fit's step, not a bare OverflowError
    rng = np.random.default_rng(42)
    m = FidelityModel(
        DesignMatrix(rng.standard_normal((12, 2)), has_intercept=True),
        Response(family=ResponseFamily.POISSON, y=np.ones(12), offsets=np.full(12, 1e-305)),
    )
    prob = Problem(m, PenaltySpec(family=Family.LASSO, lam=1.0))
    pm = mm_map(prob)
    chain = [np.zeros(3)]
    while np.max(m._xt @ chain[-1]) <= fid._EXP_GUARD:
        assert len(chain) <= 20
        chain.append(pm(chain[-1]))
        assert np.all(np.isfinite(chain[-1]))
    with pytest.raises(OverflowError, match="poisson mean"):
        pm(chain[-1])
    with pytest.raises(ConvergenceError, match="1 attempt") as err:
        fit(prob, SolverConfig(), CoefficientVector.zeros(2, True))
    assert np.array_equal(err.value.last_iterate, chain[-2])


@pytest.fixture(scope="module")
def wide_poisson_problem():
    """A p >> n Poisson lasso: simlab's linear_ex1 design (n = 100, p = 2 000,
    rho = 0.5) with an intercept, counts (seed 0) of mean e^(0.5 + x beta) for
    beta_j = 0.3 on the first ten columns, and lambda half the largest
    |x_j^T (y - ybar)|."""
    x = simlab.gen_dataset(simlab.SimScenario(family="linear_ex1", p=2000, n=100, rho=0.5,
                                              seed=20260824)).design.values
    beta = np.zeros(2000)
    beta[:10] = 0.3
    y = np.random.default_rng(0).poisson(np.exp(0.5 + x @ beta)).astype(float)
    lam = 0.5 * float(np.max(np.abs(x.T @ (y - y.mean()))))
    model = FidelityModel(DesignMatrix(x, has_intercept=True), Response(family=ResponseFamily.POISSON, y=y))
    return Problem(model, PenaltySpec(family=Family.LASSO, lam=lam))


def test_a_wide_poisson_map_is_finite_where_its_b0_exponent_passes_the_guard(wide_poisson_problem):
    # the squarem iterate after 53 steps (177 maps) of a map that raised
    # wherever u_ij at b = 0 passed the exponent guard: 15 slopes, max |beta|
    # 0.417 and max eta 3.02, a point whose mean is finite.  R_j = max_i
    # |x_ij / w_ij| reaches 2 095 on this design, so -(x_ij / w_ij) theta_j
    # puts u_ij past the guard at b = 0; those terms only say which side
    # theta_j is on, and the map reads the finite sums at theta
    prob = wide_poisson_problem
    theta = np.zeros(2001)
    theta[0] = 0.7491149906378092
    theta[1 + np.array([0, 1, 4, 5, 6, 7, 9, 10, 116, 230, 800, 1037, 1180, 1318, 1474])] = [
        0.03141745662949014, 0.057608936728749775, 0.4170738220027491, 0.15645309443806676,
        0.20392551917608556, 0.2241829648832388, 0.057853847167598525, 0.0629022690395411,
        -0.02568173865768463, 0.007328482218071241, -0.027485346980505282, -0.012600574770548757,
        0.001950061363680741, -0.007678645401591786, -0.016641159939719017,
    ]
    pm = mm_map(prob)
    eta = prob.model._xt @ theta
    assert np.max(eta) < 3.1 < fid._EXP_GUARD < np.max(eta[:, None] - pm.ratio * theta)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        first = pm(theta)
        second = pm(first)
    assert np.all(np.isfinite(first)) and np.all(np.isfinite(second))
    assert pm.objective(second) <= pm.objective(first) <= pm.objective(theta)


def test_a_wide_poisson_squarem_fit_stops_on_coef_tol(wide_poisson_problem):
    # the same design from zero: most of its maps meet an exponential at b = 0
    # past the guard, and the fit runs through them to coef_tol
    res = accelerated_fit(wide_poisson_problem, SolverConfig(coef_tol=1e-10, obj_tol=1e-300),
                          CoefficientVector.zeros(2000, True), mode="squarem")
    assert res.termination is Termination.COEF_TOL
    assert res.kkt_residual <= 1e-5 and math.isfinite(res.objective)


@pytest.mark.parametrize("case", ["adaptive weight 0", "scad past the flat tail"])
def test_a_poisson_map_keeps_an_all_zero_column_at_zero_under_a_zero_threshold(case):
    # tau_j = 0 on an all-zero column: its slope at b = 0 is an exact 0, so
    # |g| > tau leaves it out, and the map returns an exact 0 there
    rng = np.random.default_rng(7)
    x = np.column_stack([rng.standard_normal(30), np.zeros(30), rng.random(30) < 0.5])
    y = rng.poisson(np.exp(0.2 + 0.4 * x[:, 0])).astype(float)
    model = FidelityModel(DesignMatrix(x, has_intercept=True), Response(family=ResponseFamily.POISSON, y=y))
    theta = np.array([0.1, 0.3, 10.0, -0.2])
    if case == "adaptive weight 0":
        spec = PenaltySpec(family=Family.ADAPTIVE_LASSO, lam=1.0, weights=np.array([1.0, 0.0, 1.0]))
    else:
        spec = PenaltySpec(family=Family.SCAD, lam=1.0)  # p'(10) = 0 for a lambda = 3.7 < 10
    pm = mm_map(Problem(model, spec))
    assert pm.tau(theta)[2] == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = pm(theta)
    assert out[2] == 0.0 and np.all(np.isfinite(out))


@pytest.mark.parametrize("count", [1e6, 1e7, 1e8])
def test_a_poisson_map_probes_an_open_bracket_within_the_exponent_guard(count):
    # a row of l1 norm 1000 beside 200 rows whose counts pull the coefficient
    # up: a step of c = 1 would put u = 1000 past the exponent guard.  From
    # b = 0 the Newton step is delta = phi'(0) / phi''(0), about -2 count /
    # 1e6, and the damped step ln(1 + R |delta|) / R, with R = 1000, moves u
    # by ln(1 + R |delta|) only.  With one column the separable majorizer is
    # the fidelity itself, and that one step lands within 2e-11 of the lasso
    # minimizer, where sum_i x_i (e^(x_i b) - y_i) + lam = 0
    x = np.concatenate([[1000.0], np.full(200, 0.01)])
    y = np.concatenate([[0.0], np.full(200, count)])
    model = FidelityModel(DesignMatrix(x[:, None], has_intercept=False), Response(family=ResponseFamily.POISSON, y=y))
    prob = Problem(model, PenaltySpec(family=Family.LASSO, lam=1.0))
    got = mm_map(prob)(np.zeros(1))[0]
    delta = (x.dot(1.0 - y) + 1.0) / x.dot(x)
    damped = math.log1p(1000.0 * abs(delta)) / 1000.0
    want = brentq(lambda b: x.dot(np.exp(x * b) - y) + 1.0, 0.0, 0.02, xtol=1e-15)
    assert math.isfinite(got) and abs(got - damped) <= 1e-14
    assert abs(got - want) <= 1e-10


@pytest.mark.parametrize("count", [1e6, 1e7, 1e8])
def test_a_poisson_fit_of_a_rounding_level_rise_stops(count):
    # the data above fitted from zero: at y = 1e7 a late candidate's
    # objective rose over -1.7787e5 by 2.9e-11, about 10 ulps, which a
    # map with no step could not halve, so the fit raised; a rise within the
    # rounding of the objective's own sums is now a stall at theta
    x = np.concatenate([[1000.0], np.full(200, 0.01)])
    y = np.concatenate([[0.0], np.full(200, count)])
    model = FidelityModel(DesignMatrix(x[:, None], has_intercept=False), Response(family=ResponseFamily.POISSON, y=y))
    prob = Problem(model, PenaltySpec(family=Family.LASSO, lam=1.0))
    res = fit(prob, SolverConfig(coef_tol=1e-10, obj_tol=1e-300), CoefficientVector.zeros(1, False))
    assert res.termination is not Termination.MAX_ITER
    assert np.all(np.diff(res.trace) <= solver.DESCENT_SLACK)
    assert res.kkt_residual <= 1e-6 * 200 * 0.01 * count


@pytest.mark.parametrize("seed", range(20))
def test_a_large_poisson_objective_stalls_instead_of_raising(seed):
    # lasso on 400 x 4 designs with an intercept and counts of mean
    # e^(8 + 0.1 sum x): the objective is about -8.7e6, so a candidate near
    # the optimum can rise by an ulp, and the Poisson map has no step to halve
    # (seeds 0, 1, 8 and 12 raised ConvergenceError); the stall keeps the
    # iterate and ends the fit on obj_tol with a monotone trace
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((400, 4))
    y = rng.poisson(np.exp(8.0 + 0.1 * x.sum(axis=1))).astype(float)
    model = FidelityModel(DesignMatrix(x, has_intercept=True), Response(family=ResponseFamily.POISSON, y=y))
    prob = Problem(model, PenaltySpec(family=Family.LASSO, lam=5.0))
    res = fit(prob, SolverConfig(coef_tol=1e-10, obj_tol=1e-300), CoefficientVector.zeros(4, True))
    assert res.termination is not Termination.MAX_ITER
    assert np.all(np.diff(res.trace) <= solver.DESCENT_SLACK)
    assert res.kkt_residual <= 1e-6 * float(np.sum(y))


def test_poisson_step_makes_one_attempt(monkeypatch):
    # the poisson map ignores omega, so a halving would recompute the same point
    import mist.solver as solver_mod

    calls = []

    def no_descent(pm, base, tau, theta):
        calls.append(1)
        return np.full_like(theta, np.nan)

    monkeypatch.setattr(solver_mod, "_poisson_scalar_min", no_descent)
    model = make_model("poisson", n=30, p=3, seed=67)
    prob = Problem(model, PenaltySpec(family=Family.LASSO, lam=1.0))
    with np.errstate(all="ignore"), pytest.raises(ConvergenceError):
        fit(prob, SolverConfig(), CoefficientVector.zeros(3, model.has_intercept))
    assert len(calls) == 1


def test_a_pinned_poisson_map_keeps_the_cached_eta(monkeypatch):
    # an iterate whose pinned coordinate is already 0 is not re-pinned into a
    # new array, so the map takes eta from the objective just evaluated
    model = make_model("poisson", n=60, p=4, seed=34)
    weights = np.array([1.0, math.inf, 0.5, 2.0])
    prob = Problem(model, PenaltySpec(family=Family.ADAPTIVE_LASSO, lam=2.0, weights=weights))
    start = CoefficientVector.zeros(4, True)
    cached = {True: 0, False: 0}
    original = solver._Objective.eta

    def counted(self, theta):
        cached[theta is self._theta] += 1
        return original(self, theta)

    monkeypatch.setattr(solver._Objective, "eta", counted)
    res = fit(prob, SolverConfig(), start)
    assert cached == {True: res.map_evals, False: 0} and res.map_evals > 100
    assert res.coef.beta[1] == 0.0
    # the same fit with eta recomputed at every map
    monkeypatch.setattr(solver._Objective, "eta", lambda self, theta: self.xt @ theta)
    ref = fit(prob, SolverConfig(), start)
    assert np.array_equal(res.coef.augmented(), ref.coef.augmented())
    assert res.objective == ref.objective and np.array_equal(res.trace, ref.trace)
    assert (res.outer_iters, res.map_evals, res.kkt_residual) == (ref.outer_iters, ref.map_evals, ref.kkt_residual)


def test_poisson_mle_with_zero_threshold_is_fixed_point():
    model = make_model("poisson", n=60, p=3, seed=28)
    mle = fit_mle(model)
    # SCAD far tail at the MLE scale: thresholds vanish
    prob = Problem(model, PenaltySpec(family=Family.SCAD, lam=1e-6))
    cfg = SolverConfig(coef_tol=1e-7, obj_tol=1e-14)
    res = fit(prob, cfg, mle)
    assert np.linalg.norm(res.coef.augmented() - mle.augmented()) <= 1e-4


def test_poisson_fit_monotone_and_stationary():
    model = make_model("poisson", n=50, p=4, seed=29)
    prob = Problem(model, PenaltySpec(family=Family.LASSO, lam=2.0))
    res = fit(prob, SolverConfig(coef_tol=1e-9, obj_tol=1e-15), CoefficientVector.zeros(4, True))
    assert np.all(np.diff(res.trace) <= 1e-12)
    assert res.kkt_residual <= 1e-5


def _poisson_map_oracle(prob, theta):
    """The separable-majorizer map's minimizer one coordinate at a time, by
    brentq on the derivative of each component plus ridge and the
    threshold's subgradient."""
    model, spec = prob.model, prob.penalty
    has_int = model.has_intercept
    anchor = _poisson_anchor(prob, theta)  # the map holds pinned coordinates at zero
    alpha = CoefficientVector.from_augmented(anchor, has_int)
    tau = threshold_vector(spec, alpha.beta)
    weights = poisson_weights(model.design)
    out = np.zeros_like(theta)
    for j in range(theta.shape[0]):
        if not np.any(model._xt[:, j]):
            continue  # an empty column maps to zero, a minimizer of its penalty
        is_int = has_int and j == 0
        tau_j = 0.0 if is_int else tau[j - has_int]
        ridge = 0.0 if is_int else spec.lam * spec.epsilon
        g0 = poisson_majorizer_component(model, alpha, j, 0.0, weights)[1]
        if abs(g0) <= tau_j:
            continue
        side = -1.0 if g0 > tau_j else 1.0

        def dphi(b, _j=j, _r=ridge, _s=side * tau_j):
            return poisson_majorizer_component(model, alpha, _j, b, weights)[1] + 2.0 * _r * b + _s

        far = side
        for _ in range(64):
            if np.sign(dphi(far)) == side:
                break
            far *= 2.0
        out[j] = brentq(dphi, min(0.0, far), max(0.0, far), xtol=1e-15, rtol=1e-15, maxiter=500)
    return out


def _poisson_anchor(prob, theta):
    """theta with the pinned coordinates at zero, where the map anchors."""
    spec, has_int = prob.penalty, prob.model.has_intercept
    pinned = np.isinf(spec.weights) if spec.weights is not None else np.zeros(prob.model.design.n_cols, bool)
    if has_int:
        pinned = np.concatenate([[False], pinned])
    return np.where(pinned, 0.0, theta)


def _poisson_terms(prob, theta):
    """Per augmented coordinate of the map at theta: its thresholds and ridge,
    the weights' ratios x_ij / w_ij and the component of each coordinate,
    k_j(b) + ridge_j b^2 + tau_j |b| with k_j anchored at the anchor."""
    model, spec = prob.model, prob.penalty
    has_int = model.has_intercept
    anchor = _poisson_anchor(prob, theta)
    alpha = CoefficientVector.from_augmented(anchor, has_int)
    tau = np.concatenate([[0.0] * has_int, threshold_vector(spec, alpha.beta)])
    ridge = np.full(theta.shape[0], spec.lam * spec.epsilon)
    ridge[:has_int] = 0.0
    weights = poisson_weights(model.design)
    xt = model._xt
    ratio = np.divide(xt, weights, out=np.zeros_like(xt), where=xt != 0.0)

    def component(j, b):
        k = poisson_majorizer_component(model, alpha, j, b, weights)[0]
        return k + ridge[j] * b * b + (tau[j] * abs(b) if b else 0.0)

    return anchor, tau, ridge, ratio, component


def _poisson_newton_steps(prob, theta):
    """Each coordinate's start b0 (theta_j on the minimizer's side, else 0),
    its Newton step delta = phi'(b0) / phi''(b0) in coefficient units and R_j =
    max_i |x_ij / w_ij|, from the model's arrays; b0 = delta = 0 where the
    minimizer is 0."""
    model = prob.model
    anchor, tau, ridge, ratio, _ = _poisson_terms(prob, theta)
    xt, y, d = model._xt, model.response.y, model.response.offsets
    eta = xt @ anchor
    nz = xt != 0.0
    u0 = np.where(nz, eta[:, None] - ratio * anchor, 0.0)
    g0 = np.sum(xt * (d[:, None] * np.exp(u0) - y[:, None]), axis=0)
    active = np.any(nz, axis=0) & (np.abs(g0) > tau)
    side = np.where(g0 > tau, -1.0, 1.0)
    start = np.where(active & (side * anchor > 0.0), anchor, 0.0)
    mu = d[:, None] * np.exp(np.where(nz, u0 + ratio * start, 0.0))
    dphi = np.sum(xt * (mu - y[:, None]), axis=0) + 2.0 * ridge * start + side * tau
    d2phi = np.sum(xt * ratio * mu, axis=0) + 2.0 * ridge
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = np.where(active, dphi / d2phi, 0.0)
    return start, delta, np.abs(ratio).max(axis=0)


def _assert_poisson_map_contract(prob, theta, got):
    """The map's output at theta against the oracle: the same exact zeros and
    signs, every coordinate's component at or below its value at the start,
    and within 1e-12 of the oracle where the Newton step is below 1e-8 and
    not clamped."""
    want = _poisson_map_oracle(prob, theta)
    assert np.array_equal(got == 0.0, want == 0.0)
    assert np.array_equal(np.sign(got), np.sign(want))
    anchor, *_, component = _poisson_terms(prob, theta)
    for j in range(theta.shape[0]):
        before = component(j, float(anchor[j]))
        assert component(j, float(got[j])) <= before + 1e-12 * (1.0 + abs(before))
    start, delta, _ = _poisson_newton_steps(prob, theta)
    # a Newton point past half the way to 0 is clamped at start / 2
    newton = start - delta
    free = (start == 0.0) | ((np.sign(newton) == np.sign(start)) & (np.abs(newton) >= 0.6 * np.abs(start)))
    near = free & (np.abs(delta) < 1e-8)
    assert np.all(np.abs(got - want)[near] <= 1e-12)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(4, 30),
    p=st.integers(1, 12),
    intercept=st.booleans(),
    zero_col=st.booleans(),
    indicator=st.booleans(),
    scaled=st.booleans(),
    offsets=st.booleans(),
    pinned=st.booleans(),
    ridge=st.booleans(),
    lam=st.floats(0.01, 5.0),
)
def test_poisson_map_matches_per_coordinate_oracle(
    seed, n, p, intercept, zero_col, indicator, scaled, offsets, pinned, ridge, lam
):
    # up to 12 columns, one scaled by 30 and one a 0/1 indicator: rows with
    # large l1 norms, the R_j that damps the map's Newton step
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    if indicator:
        X[:, -1] = rng.random(n) < 0.4
    if scaled:
        X[:, p // 2] *= 30.0
    if zero_col:
        X[:, 0] = 0.0
    d = np.exp(rng.uniform(-1.0, 1.0, n)) if offsets else None
    mu = (d if offsets else 1.0) * np.exp(np.clip(0.3 + 0.4 * X @ rng.standard_normal(p), -5.0, 3.0))
    y = rng.poisson(mu).astype(float)
    # with no counts the intercept's component has no finite minimizer
    assume(not intercept or np.any(y > 0))
    model = FidelityModel(
        DesignMatrix(X, has_intercept=intercept),
        Response(family=ResponseFamily.POISSON, y=y, offsets=d),
    )
    weights = None
    if pinned:
        weights = rng.uniform(0.5, 2.0, p)
        weights[-1] = math.inf
    family = {
        (False, False): Family.LASSO,
        (False, True): Family.ELASTIC_NET,
        (True, False): Family.ADAPTIVE_LASSO,
        (True, True): Family.ADAPTIVE_ELASTIC_NET,
    }[(pinned, ridge)]
    spec = PenaltySpec(family=family, lam=lam, epsilon=0.5 if ridge else 0.0, weights=weights)
    prob = Problem(model, spec)
    theta = 0.5 * rng.standard_normal(model.n_coef)
    got = mm_map(prob)(theta)
    _assert_poisson_map_contract(prob, theta, got)
    if pinned:
        assert got[-1] == 0.0


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(4, 30),
    p=st.integers(1, 5),
    intercept=st.booleans(),
    offsets=st.booleans(),
    ridge=st.booleans(),
    cached=st.booleans(),
    lam=st.floats(0.01, 5.0),
)
def test_a_second_poisson_map_matches_the_oracle(seed, n, p, intercept, offsets, ridge, cached, lam):
    # the second map starts most coordinates at theta_j, where the step's
    # slope and curvature come from the Poisson mean at theta: the
    # objective's when it was evaluated there (cached), else computed by the map
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    d = np.exp(rng.uniform(-1.0, 1.0, n)) if offsets else None
    mu = (d if offsets else 1.0) * np.exp(np.clip(0.3 + 0.4 * X @ rng.standard_normal(p), -5.0, 3.0))
    y = rng.poisson(mu).astype(float)
    assume(not intercept or np.any(y > 0))
    model = FidelityModel(
        DesignMatrix(X, has_intercept=intercept),
        Response(family=ResponseFamily.POISSON, y=y, offsets=d),
    )
    family = Family.ELASTIC_NET if ridge else Family.LASSO
    prob = Problem(model, PenaltySpec(family=family, lam=lam, epsilon=0.5 if ridge else 0.0))
    m = mm_map(prob)
    first = m(0.5 * rng.standard_normal(model.n_coef))
    if cached:
        m.objective(first)
    got = m(first)
    _assert_poisson_map_contract(prob, first, got)
    # at a fit's end the coordinates' Newton steps are below 1e-8, where the
    # map lands within 1e-12 of the minimizer
    res = fit(prob, SolverConfig(coef_tol=1e-12, obj_tol=1e-300), CoefficientVector.from_augmented(got, intercept))
    last = res.coef.augmented()
    _assert_poisson_map_contract(prob, last, m(last))


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 20),
    ratio=st.floats(1e-2, 1e3),
    log_min=st.floats(-12.0, 0.0),
    ridge=st.booleans(),
    log_gap=st.floats(-17.0, 2.0),
    below=st.booleans(),
)
def test_a_damped_newton_step_descends_and_moves_at_most_its_bound(
    seed, n, ratio, log_min, ridge, log_gap, below
):
    # one scalar problem of the Poisson map in its searched frame c > 0, a
    # one-column model whose majorizer is its fidelity: phi(c) = sum_i d_i
    # e^(x_i c) - c x . y + tau c + rho c^2, its ratios x_i up to ``ratio`` in
    # size, and the counts, the rate multipliers d and tau chosen so that
    # phi'(c*) = 0 at c* = 10^log_min (at most 2 / ratio).  The map starts a
    # relative 10^log_gap from the root (at 0 when that is below 0), and its
    # damped step, with x = R |delta| for R = max |x_i| and delta = phi' /
    # phi'', moves c by at most ln(1 + x) / R and lowers phi by at least
    # phi'' delta^2 ((1 + x) ln(1 + x) - x) / x^2, up to rounding, or, where
    # it is clamped at c / 2, stays at or below phi(c)
    rng = np.random.default_rng(seed)
    x = ratio * rng.uniform(-1.0, 1.0, n)
    x[0] = ratio * rng.choice([-1.0, 1.0])
    y = rng.integers(1, 6, n).astype(float)
    share = rng.uniform(0.1, 0.9, n)
    target = min(10.0**log_min, 2.0 / ratio)
    d = y * (1.0 - np.sign(x) * share) * np.exp(-x * target)
    epsilon = 0.5 if ridge else 0.0
    tau = float(np.sum(np.abs(x) * y * share)) / (1.0 + 2.0 * epsilon * target)
    rho = tau * epsilon

    def slope(c):
        return math.fsum(np.concatenate([x * d * np.exp(x * c), -x * y, [tau + 2.0 * rho * c]]))

    def terms(c):
        return np.concatenate([d * np.exp(x * c), [-c * float(x.dot(y)), tau * c, rho * c * c]])

    root = brentq(slope, 0.0, 2.0 * target, xtol=1e-300, rtol=4.0 * solver.EPS, maxiter=500)
    c = max(root * (1.0 - 10.0**log_gap if below else 1.0 + 10.0**log_gap), 0.0)
    model = FidelityModel(
        DesignMatrix(x[:, None], has_intercept=False),
        Response(family=ResponseFamily.POISSON, y=y, offsets=d),
    )
    family = Family.ELASTIC_NET if ridge else Family.LASSO
    new = float(mm_map(Problem(model, PenaltySpec(family=family, lam=tau, epsilon=epsilon)))(np.array([c]))[0])
    eu = d * np.exp(x * c)
    dphi = slope(c)
    d2phi = math.fsum((x * x) * eu) + 2.0 * rho
    scale = float(np.abs(x).dot(eu + y)) + tau + 2.0 * rho * c
    delta = dphi / d2phi
    reach = float(np.max(np.abs(x)))
    r = reach * abs(delta)
    # the rounding of phi' moves delta by up to 8 EPS scale / phi''
    assert new >= 0.5 * c
    assert abs(new - c) <= math.log1p(r) / reach * (1.0 + 1e-12) + 8.0 * solver.EPS * scale / d2phi
    before, after = terms(c), terms(new)
    rounding = 8.0 * solver.EPS * float(np.abs(before).sum() + np.abs(after).sum())
    change = math.fsum(after) - math.fsum(before)
    if new > 0.5 * c:
        # (x - (1 + x) ln(1 + x)) / x^2, by its series where x is small
        gain = (r - (1.0 + r) * math.log1p(r)) / r**2 if r > 1e-4 else r / 6.0 - 0.5
        assert change <= d2phi * delta * delta * gain + rounding
    assert change <= rounding


def test_a_poisson_fit_takes_its_first_probes_from_the_cached_mean(monkeypatch):
    # each map's step from theta reads the mean the objective there cached,
    # so it takes no exponential, and every map takes one damped Newton
    # step, so its one two-dimensional _guard_exp call is the exponential at
    # b = 0 that decides the signs: as many as the fit's maps; the
    # one-dimensional calls are the objectives' alone
    model = make_model("poisson", n=50, p=4, seed=29)
    prob = Problem(model, PenaltySpec(family=Family.LASSO, lam=2.0))
    calls = {1: 0, 2: 0}
    original = fid._guard_exp

    def counted(eta, context):
        calls[eta.ndim] += 1
        return original(eta, context)

    monkeypatch.setattr(fid, "_guard_exp", counted)
    res = fit(prob, SolverConfig(), CoefficientVector.zeros(4, True))
    assert res.map_evals == 67 and res.termination is Termination.OBJ_TOL
    assert calls[1] == res.map_evals + 1
    assert calls[2] == res.map_evals


def test_poisson_empty_column_moves_to_zero():
    # the fidelity does not depend on an all-zero column's coefficient, so the
    # lasso is minimized at 0 there, wherever the fit starts
    rng = np.random.default_rng(5)
    x = np.column_stack([0.5 * rng.standard_normal(20), np.zeros(20)])
    y = rng.poisson(np.exp(0.3 + 0.5 * x[:, 0])).astype(float)
    model = FidelityModel(DesignMatrix(x, has_intercept=True), Response(family="poisson", y=y))
    prob = Problem(model, PenaltySpec(family=Family.LASSO, lam=1.0))
    start = CoefficientVector(beta=np.array([0.0, 0.5]), intercept=0.0)
    assert mm_map(prob)(start.augmented())[2] == 0.0
    res = fit(prob, SolverConfig(coef_tol=1e-10, obj_tol=1e-15), start)
    assert res.coef.beta[1] == 0.0
    assert res.kkt_residual <= 1e-6


def test_the_poisson_map_reads_the_weights_that_acceptance_10_checks():
    # the map's ratio is x / w for w = poisson_weights, the weights whose
    # majorizer acceptance 10 checks, zero where x is; on columns of unequal
    # scale, with zeros in a 0/1 column, so that each column's norm counts
    rng = np.random.default_rng(41)
    x = rng.standard_normal((30, 3)) * np.array([1e-3, 1.0, 1e3])
    x[:, 1] = rng.random(30) < 0.5
    y = rng.poisson(np.exp(0.2 + 0.3 * x[:, 1])).astype(float)
    model = FidelityModel(DesignMatrix(x), Response(family="poisson", y=y))
    xt = model.design.augmented()
    want = np.divide(xt, poisson_weights(model.design), out=np.zeros_like(xt), where=xt != 0.0)
    ratio = solver._PoissonMap(Problem(model, PenaltySpec(family=Family.LASSO, lam=1.0))).ratio
    assert np.any(xt == 0.0) and np.array_equal(ratio, want)


def test_poisson_mm_map_matches_one_plain_iteration():
    model = make_model("poisson", n=30, p=4, seed=39)
    prob = Problem(model, PenaltySpec(family=Family.LASSO, lam=0.5))
    cfg = SolverConfig()
    theta = random_coef(model, seed=40).augmented()
    one = fit(
        prob,
        replace(cfg, max_outer=1),
        CoefficientVector.from_augmented(theta, True),
    )
    assert np.array_equal(mm_map(prob)(theta), one.coef.augmented())


# -- the backtracked cox step -----------------------------------------------


@st.composite
def tied_cox_problems(draw):
    """Cox designs with tied times (Breslow), a few penalty levels and families."""
    n = draw(st.integers(8, 40))
    p = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((n, p)) * draw(st.sampled_from([0.3, 1.0, 3.0]))
    time = rng.integers(1, draw(st.integers(1, max(1, n // 3))) + 1, n).astype(float)
    status = (rng.random(n) < 0.7).astype(float)
    status[0] = 1.0
    model = FidelityModel(
        DesignMatrix(x, has_intercept=False),
        Response(family=ResponseFamily.COX, y=status, time=time, status=status),
    )
    lam_max = float(np.max(np.abs(gradient(model, CoefficientVector.zeros(p, False)))))
    share = draw(st.sampled_from([0.1, 0.3, 0.7]))
    family = draw(st.sampled_from([Family.LASSO, Family.ELASTIC_NET, Family.MCP]))
    epsilon = 0.5 if family is Family.ELASTIC_NET else 0.0
    return Problem(model, PenaltySpec(family=family, lam=max(share * lam_max, 1e-3), epsilon=epsilon))


class RecordingMap(solver._GlmMap):
    """A ``_GlmMap`` that records the multiplier of its step at every map it
    applies."""

    def __init__(self, problem):
        super().__init__(problem)
        self.steps = []

    def __call__(self, theta, w=1.0, grad=None):
        self.steps.append(w)
        return super().__call__(theta, w, grad)


def backtracked_fit(prob, cfg, start):
    """``_drive`` over ``_halving`` of a ``RecordingMap``, checking every step:
    the first try of the fit is ``BACKTRACK_START``, a step's first try is the
    last step's accepted multiplier or 1, so it never grows, every accepted
    candidate descends, and one at a multiplier above 1 majorizes, tested
    here against the public likelihood and gradient."""
    model = prob.model
    gmap = RecordingMap(prob)
    omega = gmap.omega
    halving = solver._halving(gmap)
    tried = [solver.BACKTRACK_START]

    def step(theta, obj):
        gmap.steps.clear()
        theta_new, obj_new, delta, evals, rejected = halving(theta, obj)
        steps, w = gmap.steps, gmap.steps[-1]
        assert len(steps) == evals == rejected + 1
        assert steps[0] == tried[-1]  # the step never grows
        assert obj_new - obj <= solver.DESCENT_SLACK
        if w > 1.0:
            coef = CoefficientVector.from_augmented(theta, model.has_intercept)
            d = theta_new - theta
            nll = neg_loglik(model, coef)
            bound = nll - float(gradient(model, coef) @ d) + float(d @ (d / (w * omega)))
            new = neg_loglik(model, CoefficientVector.from_augmented(theta_new, model.has_intercept))
            assert new <= bound + solver.MAJORIZE_SLACK * (1.0 + abs(nll))
        elif w < 1.0:
            assert 1.0 in steps  # the certified step itself was rejected
        tried.append(max(w, 1.0))
        return theta_new, obj_new, delta, evals, rejected

    res = solver._drive(prob, cfg, start, gmap, step)
    assert np.all(np.diff(res.trace) <= solver.DESCENT_SLACK)
    # glm_mm_fit takes exactly these steps
    same = glm_mm_fit(prob, cfg, start)
    assert np.array_equal(same.coef.augmented(), res.coef.augmented())
    assert np.array_equal(same.trace, res.trace) and same.map_evals == res.map_evals
    return res


@settings(max_examples=40, deadline=None)
@given(tied_cox_problems())
def test_backtracked_cox_step_majorizes_and_never_grows(prob):
    assert solver._GlmMap(prob).omega == resolve_step(prob)
    cfg = SolverConfig(coef_tol=1e-10, obj_tol=1e-300, max_outer=20_000)
    res = backtracked_fit(prob, cfg, CoefficientVector.zeros(prob.model.design.n_cols, False))
    # under MCP, a design whose events are separated may have no minimizer:
    # those fits run to the cap and do not claim convergence
    assert res.termination is Termination.MAX_ITER or res.kkt_residual <= 1e-5


def test_cox_fit_with_an_explicit_step_is_the_fixed_step_loop(monkeypatch):
    model = make_model("cox", n=50, p=4, seed=70)
    prob = Problem(model, PenaltySpec(family=Family.LASSO, lam=1.0))
    omega = resolve_step(prob)
    cfg = SolverConfig(coef_tol=1e-9, obj_tol=1e-14)
    start = CoefficientVector.zeros(4, False)
    auto = glm_mm_fit(prob, cfg, start)
    # backtracking from the certified step itself: every map at w <= 1
    monkeypatch.setattr(solver, "BACKTRACK_START", 1.0)
    res = glm_mm_fit(prob, cfg, start)
    # the reference: every step tries omega first and halves it only on a rise
    theta, trace, maps = start.augmented(), [total_objective(prob, start)], 0
    while True:
        w = omega
        while True:
            new = glm_map(prob, theta, w)
            maps += 1
            obj = total_objective(prob, CoefficientVector(beta=new))
            if obj - trace[-1] <= solver.DESCENT_SLACK:
                break
            w *= 0.5
        delta, obj_delta = float(np.linalg.norm(new - theta)), abs(obj - trace[-1])
        theta = new
        trace.append(obj)
        if delta < cfg.coef_tol or obj_delta < cfg.obj_tol:
            break
    assert np.array_equal(res.coef.beta, theta)
    assert np.array_equal(res.trace, trace) and res.map_evals == maps
    # the backtracked cox fit needs under a quarter of the fixed-step maps
    assert auto.map_evals * 4 < res.map_evals
    assert abs(auto.objective - res.objective) <= 1e-8 * abs(res.objective)


@pytest.mark.parametrize("start", ["zero", "one_step"])
@pytest.mark.parametrize("family", ["gaussian", "logistic"])
def test_every_glm_map_backtracks_from_the_start_multiple_and_never_grows(family, start):
    model = make_model(family, n=40, p=4, seed=71)
    prob = Problem(model, PenaltySpec(family=Family.MCP, lam=0.5))
    # the certified step is one per coordinate
    assert np.array_equal(solver._GlmMap(prob).omega, solver.STEP_SAFETY * 2.0 / fid.diagonal_bound(model))
    begin = one_step_fit(prob, TIGHT).coef if start == "one_step" else CoefficientVector.zeros(4, True)
    res = backtracked_fit(prob, TIGHT, begin)
    assert res.descent_backtracks > 0 and res.kkt_residual <= 1e-6


def test_the_descent_test_takes_the_difference_the_trace_check_takes():
    # obj + DESCENT_SLACK rounds up to 48.24874279105831 here, so the sum
    # form accepts a rise of 1.0019e-12, which a check of np.diff(trace)
    # <= DESCENT_SLACK rejects; the difference form rejects it too
    obj, obj_new = 48.24874279105731, 48.24874279105831
    assert obj_new <= obj + solver.DESCENT_SLACK and obj_new - obj > solver.DESCENT_SLACK
    assert not solver._descends(obj_new, obj)
    assert solver._descends(obj + 0.5 * solver.DESCENT_SLACK, obj) and solver._descends(obj, obj)
    assert not solver._descends(math.inf, obj) and not solver._descends(math.nan, obj)


@pytest.mark.parametrize(
    "scenario,share,family,start",
    [
        # the simulation study's seed (the CLI's default).  From zero, where the
        # logistic curvature is largest, the first step often falls back to the
        # certified one, and since the step never grows the fit is then the
        # fixed-step fit; on this design it settles at twice the certified step
        (simlab.SimScenario(family="logistic_ex2", p=10, n=200, rho=0.5, seed=20260824), 0.1, Family.LASSO, "zero"),
        (simlab.SimScenario(family="linear_ex1", p=35, n=100, rho=0.75, seed=20260824), 0.05, Family.MCP, "one_step"),
    ],
    ids=["logistic-lasso-zero", "gaussian-mcp-one-step"],
)
def test_a_backtracked_fit_takes_fewer_maps_than_the_fixed_step_fit(scenario, share, family, start, monkeypatch):
    ds = simlab.gen_dataset(scenario)
    model = FidelityModel(ds.design, ds.response)
    zero = CoefficientVector.zeros(scenario.p, True)
    lam = share * float(np.max(np.abs(gradient(model, zero)[1:])))
    prob = Problem(model, PenaltySpec(family=family, lam=lam))
    cfg = SolverConfig(coef_tol=1e-10, obj_tol=1e-300)
    begin = one_step_fit(prob, cfg).coef if start == "one_step" else zero
    auto = fit(prob, cfg, begin)
    monkeypatch.setattr(solver, "BACKTRACK_START", 1.0)
    fixed = fit(prob, cfg, begin)
    assert abs(auto.objective - fixed.objective) <= 1e-9 * abs(fixed.objective)
    for res in (auto, fixed):
        assert res.termination is not Termination.MAX_ITER
        assert np.all(np.diff(res.trace) <= solver.DESCENT_SLACK)
    assert auto.map_evals <= 0.75 * fixed.map_evals, (auto.map_evals, fixed.map_evals)


# -- one-step estimator ----------------------------------------------------


@pytest.mark.parametrize("family", ["gaussian", "logistic", "poisson", "cox"])
def test_one_step_lasso_equals_weighted_surrogate_solution(family, monkeypatch):
    model = make_model(family, n=50, p=4, seed=31)
    prob = Problem(model, PenaltySpec(family=Family.LASSO, lam=0.8))
    monkeypatch.setattr(solver, "INNER_TOL", 1e-12)
    res = one_step_fit(prob, SolverConfig())
    # lasso is convex: the single full surrogate solve is the exact solution
    full = fit(prob, TIGHT, CoefficientVector.zeros(4, model.has_intercept))
    assert abs(res.objective - full.objective) <= 1e-8
    assert res.outer_iters == 1 and res.map_evals == 1
    assert len(res.trace) == 2 and res.trace[1] <= res.trace[0] + 1e-12


def test_one_step_scad_far_tail_returns_mle(monkeypatch):
    model = make_model("gaussian", n=40, p=3, seed=32, beta_scale=3.0)
    mle = fit_mle(model)
    lam = 1e-4  # every |mle_j| is far beyond a*lam -> tau = 0
    prob = Problem(model, PenaltySpec(family=Family.SCAD, lam=lam))
    monkeypatch.setattr(solver, "INNER_TOL", 1e-12)
    res = one_step_fit(prob, SolverConfig())
    assert np.linalg.norm(res.coef.augmented() - mle.augmented()) <= 1e-6
    # a step that meets a tolerance reports it
    assert res.termination in (Termination.COEF_TOL, Termination.OBJ_TOL)


def test_one_step_inner_gradient_count_on_the_simulation_design(monkeypatch):
    # simlab linear_ex1 at p = 35, n = 100, rho = 0.75: the surrogate's
    # squarem fit at the per-coordinate step takes 77 maps (``glm_map``),
    # where restarted FISTA took 119 inner updates
    ds = simlab.gen_dataset(simlab.SimScenario(family="linear_ex1", p=35, n=100, rho=0.75, seed=7))
    model = FidelityModel(ds.design, ds.response)
    x, y = ds.design.values, ds.response.y
    lam = 0.05 * float(np.max(np.abs(x.T @ (y - y.mean()))))
    calls = [0]
    real = solver.glm_map

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(solver, "glm_map", counted)
    res = one_step_fit(Problem(model, PenaltySpec(family=Family.SCAD, lam=lam)), SolverConfig())
    assert res.outer_iters == 1 and res.map_evals == 1
    assert calls[0] == 77


def test_one_step_requires_overdetermined_design():
    model = make_model("gaussian", n=4, p=6, seed=33)
    prob = Problem(model, PenaltySpec(family=Family.LASSO, lam=1.0))
    with pytest.raises(ValidationError):
        one_step_fit(prob, SolverConfig())


def test_cox_one_step_lies_at_the_global_step_minimizer(monkeypatch):
    model = make_model("cox", n=60, p=5, seed=72)
    prob = Problem(model, PenaltySpec(family=Family.SCAD, lam=2.0))
    monkeypatch.setattr(solver, "INNER_TOL", 1e-13)
    local = one_step_fit(prob, SolverConfig())
    # the same surrogate is the adaptive lasso with weights p'(|mle_j|) / lam:
    # the one-step estimate is stationary there, and a fit of it started at
    # the MLE lands on it.  The reference is squarem's: a plain Cox fit stops
    # on an unchanged objective with a KKT residual near 3e-7
    mle = fit_mle(model)
    weights = kernels(prob.penalty, 5).derivative(np.abs(mle.beta)) / 2.0
    alasso = Problem(model, PenaltySpec(family=Family.ADAPTIVE_LASSO, lam=2.0, weights=weights))
    assert kkt_residual(alasso, local.coef) <= 1e-10
    ref = accelerated_fit(alasso, SolverConfig(coef_tol=1e-13, obj_tol=1e-300), mle, mode="squarem")
    assert ref.termination is Termination.COEF_TOL
    assert np.max(np.abs(local.coef.beta - ref.coef.beta)) <= 1e-8
    assert np.count_nonzero(local.coef.beta) < 5


@pytest.mark.parametrize("family", ["gaussian", "logistic", "poisson", "cox"])
def test_one_step_far_from_stationary_reports_max_iter(family):
    model = make_model(family, n=50, p=4, seed=0)
    prob = Problem(model, PenaltySpec(family=Family.MCP, lam=1.0))
    res = one_step_fit(prob, SolverConfig())
    assert res.kkt_residual > 1e-3
    assert res.termination is Termination.MAX_ITER
    assert res.outer_iters == 1 and res.map_evals == 1


def test_one_step_with_an_infinite_weight_starts_from_a_finite_objective():
    model = make_model("gaussian", n=50, p=4, seed=31)
    weights = np.array([1.0, math.inf, 1.0, 1.0])
    prob = Problem(model, PenaltySpec(family=Family.ADAPTIVE_LASSO, lam=0.5, weights=weights))
    res = one_step_fit(prob, SolverConfig())
    assert fit_mle(model).beta[1] != 0.0
    assert np.all(np.isfinite(res.trace)) and res.coef.beta[1] == 0.0


@pytest.mark.parametrize("penalty", [Family.LASSO, Family.SCAD, Family.MCP])
@pytest.mark.parametrize("family", ["gaussian", "logistic", "poisson", "cox"])
def test_one_step_is_the_first_mm_outer_iteration(family, penalty):
    model = make_model(family, n=50, p=4, seed=35)
    prob = Problem(model, PenaltySpec(family=penalty, lam=1.0))
    cfg = SolverConfig()
    first = mm_outer(prob, replace(cfg, max_outer=1), fit_mle(model))
    assert_same_fit(one_step_fit(prob, cfg), first)


@pytest.mark.parametrize("family", ["gaussian", "poisson", "cox"])
def test_one_step_that_overflows_is_a_convergence_error(family, monkeypatch):
    def overflow(self, theta):
        raise OverflowError("injected")

    monkeypatch.setattr(solver._SurrogateFit, "__call__", overflow)
    model = make_model(family, n=50, p=4, seed=36)
    prob = Problem(model, PenaltySpec(family=Family.SCAD, lam=1.0))
    with pytest.raises(ConvergenceError, match=r"in 1 attempt\(s\)") as info:
        one_step_fit(prob, SolverConfig())
    assert np.array_equal(info.value.last_iterate, fit_mle(model).augmented())


@pytest.mark.parametrize("family", ["gaussian", "cox"])
def test_one_step_whose_inner_map_overflows_is_a_convergence_error_at_the_mle(family, monkeypatch):
    # the maps of the surrogate's squarem fit overflow once its first step
    # has moved from the MLE: the error still carries the MLE, the outer iterate
    calls = []
    real = solver._GlmMap.__call__

    def overflow_later(self, theta, *args):
        calls.append(1)
        if len(calls) > 2:
            raise OverflowError("injected")
        return real(self, theta, *args)

    monkeypatch.setattr(solver._GlmMap, "__call__", overflow_later)
    model = make_model(family, n=50, p=4, seed=36)
    prob = Problem(model, PenaltySpec(family=Family.SCAD, lam=1.0))
    with pytest.raises(ConvergenceError, match="inner squarem fit: squarem: injected") as info:
        one_step_fit(prob, SolverConfig())
    assert np.array_equal(info.value.last_iterate, fit_mle(model).augmented())


def test_one_step_poisson_descends_from_mle():
    model = make_model("poisson", n=60, p=3, seed=34)
    prob = Problem(model, PenaltySpec(family=Family.LASSO, lam=3.0))
    res = one_step_fit(prob, SolverConfig())
    assert res.trace[1] <= res.trace[0] + 1e-10


# -- dispatch, starts, serialization ---------------------------------------


def test_fit_dispatches_by_family():
    mg = make_model("gaussian", n=20, p=3, seed=35)
    mp = make_model("poisson", n=20, p=3, seed=35)
    rg = fit(Problem(mg, PenaltySpec(family=Family.LASSO, lam=1.0)), TIGHT,
             CoefficientVector.zeros(3, True))
    rp = fit(Problem(mp, PenaltySpec(family=Family.LASSO, lam=1.0)),
             SolverConfig(coef_tol=1e-8, obj_tol=1e-14), CoefficientVector.zeros(3, True))
    assert rg.kkt_residual <= 1e-6
    assert rp.kkt_residual <= 1e-5


def test_starting_point_presets():
    model = make_model("gaussian", n=30, p=3, seed=36)
    prob = Problem(model, PenaltySpec(family=Family.LASSO, lam=0.5))
    cfg = SolverConfig()
    z = starting_point(prob, cfg, "zero")
    assert np.array_equal(z.beta, np.zeros(3)) and z.intercept == 0.0
    m = starting_point(prob, cfg, "mle")
    assert np.allclose(m.augmented(), fit_mle(model).augmented())
    o = starting_point(prob, cfg, "one_step")
    assert o.beta.shape == (3,)
    with pytest.raises(ValidationError):
        starting_point(prob, cfg, "nope")


def test_fit_result_json_round_trip():
    model = make_model("gaussian", n=20, p=3, seed=37)
    prob = Problem(model, PenaltySpec(family=Family.LASSO, lam=0.5))
    res = glm_mm_fit(prob, TIGHT, CoefficientVector.zeros(3, True))
    back = FitResult.from_dict(__import__("json").loads(res.to_json(include_trace=True)))
    assert np.array_equal(back.coef.beta, res.coef.beta)
    assert back.coef.intercept == res.coef.intercept
    assert back.objective == res.objective
    assert back.termination == res.termination
    assert np.array_equal(back.trace, res.trace)
    res.descent_backtracks = 4  # a value other than the default
    back = FitResult.from_dict(__import__("json").loads(res.to_json()))
    assert back.descent_backtracks == 4


def test_mm_map_matches_one_plain_iteration():
    model = make_model("logistic", n=25, p=3, seed=38)
    prob = Problem(model, PenaltySpec(family=Family.LASSO, lam=0.3))
    mp = mm_map(prob)
    theta = CoefficientVector.zeros(3, True).augmented()
    one = glm_map(prob, theta, solver.STEP_SAFETY * 2.0 / fid.diagonal_bound(model))
    assert np.array_equal(mp(theta), one)


# -- the array-native hot path ---------------------------------------------


class CountingDesign(np.ndarray):
    """A design matrix that counts its products with vectors (X theta, X^T r),
    taken through ``ndarray.dot`` or ``@``."""

    def __array_finalize__(self, obj):
        self.counter = getattr(obj, "counter", None)

    def dot(self, other):
        self.counter[0] += 1
        return np.asarray(self).dot(other)

    def __matmul__(self, other):
        self.counter[0] += 1
        return np.asarray(self) @ other

    def __rmatmul__(self, other):
        self.counter[0] += 1
        return other @ np.asarray(self)


def count_products(model):
    """Route every product with ``model._xt`` through a counter; returns it."""
    xt = model._xt.view(CountingDesign)
    xt.counter = [0]
    model._xt = xt
    return xt.counter


HOT_FAMILIES = ["gaussian", "logistic", "cox"]


@pytest.mark.parametrize("family", HOT_FAMILIES)
def test_a_strided_design_fits_as_its_contiguous_copy(family):
    # every other column of a wider matrix, with no intercept: the model keeps
    # one contiguous copy, so each product is the same BLAS call on the same
    # layout as for the copy
    base = make_model(family, n=60, p=10, seed=67)
    wide = base._xt[:, 1:] if base.has_intercept else base._xt
    strided = wide[:, ::2]
    assert not (strided.flags.c_contiguous or strided.flags.f_contiguous)
    fits = []
    for x in (strided, np.ascontiguousarray(strided)):
        model = FidelityModel(DesignMatrix(x, has_intercept=False), base.response)
        prob = Problem(model, PenaltySpec(family=Family.SCAD, lam=0.5))
        start = CoefficientVector.zeros(5, False)
        fits.append([accelerated_fit(prob, TIGHT, start, mode=m) for m in ("plain", "squarem")]
                    + [one_step_fit(prob, SolverConfig())])
    for strided_fit, copy_fit in zip(*fits):
        assert_same_fit(strided_fit, copy_fit)


@pytest.mark.parametrize("family", HOT_FAMILIES)
def test_plain_iteration_multiplies_by_x_at_most_twice(family):
    model = make_model(family, n=40, p=5, seed=60)
    prob = Problem(model, PenaltySpec(family=Family.LASSO, lam=0.3))
    cfg = SolverConfig(coef_tol=1e-9, obj_tol=1e-14)
    counter = count_products(model)
    gmap = mm_map(prob)
    theta = random_coef(model, seed=61).augmented()
    gmap.objective(theta)
    counter[0] = 0
    new = gmap(theta)  # eta at theta comes from the objective just evaluated
    gmap.objective(new)
    assert counter[0] == 2  # X^T r at theta, X theta at the new point
    counter[0] = 0
    # mm_map has bounded the model already (``glm_step``): no product
    fid.diagonal_bound(model)
    bound_products = counter[0]
    counter[0] = 0
    res = glm_mm_fit(prob, cfg, CoefficientVector.zeros(5, model.has_intercept))
    # the backtracked step rejects a few attempts; each costs a map
    assert res.descent_backtracks > 0 and res.map_evals > 10
    # the curvature bound, the objective at the start, 2 + h per step with h
    # halvings, then the KKT's gradient at the eta cached at the last iterate
    assert counter[0] == bound_products + 1 + 2 * res.map_evals - res.descent_backtracks + 1


@pytest.mark.parametrize("pinned", [False, True])
def test_a_poisson_map_multiplies_by_x_once_where_the_objective_was_not(pinned):
    # at a point the objective did not cache (squarem's second and
    # extrapolated maps, or a pinned coordinate re-pinned into a new array)
    # the map forms eta = X theta once, and its steps from theta take the
    # Poisson mean from that eta; at a point the objective cached, it forms none
    model = make_model("poisson", n=40, p=5, seed=60)
    weights = np.array([1.0, math.inf, 0.5, 2.0, 1.0]) if pinned else None
    family = Family.ADAPTIVE_LASSO if pinned else Family.LASSO
    prob = Problem(model, PenaltySpec(family=family, lam=0.3, weights=weights))
    counter = count_products(model)
    pmap = mm_map(prob)
    theta = random_coef(model, seed=61).augmented()
    assert theta[2] != 0.0
    counter[0] = 0
    new = pmap(theta)
    assert counter[0] == 1
    _assert_poisson_map_contract(prob, theta, new)
    pmap.objective(new)
    counter[0] = 0
    pmap(new)
    assert counter[0] == 0


@pytest.mark.parametrize("pen_family", [Family.LASSO, Family.SCAD])
@pytest.mark.parametrize("family", HOT_FAMILIES)
def test_a_plain_step_multiplies_by_x_twice(family, pen_family):
    # X^T r at theta, from the eta (and the gaussian residual or the Cox
    # risk-set sums) that the objective there cached, and X theta+ in the
    # objective of each attempt
    model = make_model(family, n=40, p=5, seed=64)
    prob = Problem(model, PenaltySpec(family=pen_family, lam=0.3))
    gmap = mm_map(prob)
    gmap.xt = model._xt.view(CountingDesign)
    gmap.xt.counter = counter = [0]
    gmap._xt_t = gmap.xt.T
    step = solver._halving(gmap)
    theta = random_coef(model, seed=65).augmented()
    obj = gmap.objective(theta)
    plain = 0
    for _ in range(30):
        counter[0] = 0
        theta, obj, _, evals, halvings = step(theta, obj)
        assert counter[0] == 2 + halvings
        plain += halvings == 0
    # the backtracked step halves its first steps
    assert plain >= 20


def test_halved_step_multiplies_by_x_once_per_attempt_plus_one_gradient(monkeypatch):
    model = make_model("gaussian", n=40, p=5, seed=60)
    prob = Problem(model, PenaltySpec(family=Family.LASSO, lam=0.3))
    # four times the certified step of every coordinate, where a gaussian map
    # can rise: most steps halve
    real = fid.diagonal_bound
    monkeypatch.setattr(fid, "diagonal_bound", lambda m: real(m) / 4.0)
    cfg = SolverConfig(coef_tol=1e-12, obj_tol=1e-300, max_outer=50)
    counter = count_products(model)
    gmap = mm_map(prob)
    halving = solver._halving(gmap)
    theta = random_coef(model, seed=61).augmented()
    obj = gmap.objective(theta)
    counter[0] = 0
    _, _, _, evals, halvings = halving(theta, obj)
    # X^T r once at theta (eta is cached), then eta in the objective of each attempt
    assert halvings >= 1 and evals == halvings + 1
    assert counter[0] == 2 + halvings
    counter[0] = 0
    res = glm_mm_fit(prob, cfg, CoefficientVector.zeros(5, True))
    assert res.outer_iters == 50 and res.descent_backtracks >= 50
    # the objective at the start, 2 + h per step, then the KKT's gradient at
    # the eta cached at the last iterate
    assert counter[0] == 1 + 2 * res.outer_iters + res.descent_backtracks + 1


def test_plain_cox_step_sums_the_risk_sets_once_per_point(monkeypatch):
    # the score at theta reuses the risk-set sums of the objective just evaluated there
    from mist import fidelity

    model = make_model("cox", n=60, p=5, seed=72)
    prob = Problem(model, PenaltySpec(family=Family.LASSO, lam=2.0))
    calls = [0]
    original = fidelity._cox_parts

    def counted(model, eta):
        calls[0] += 1
        return original(model, eta)

    monkeypatch.setattr(fidelity, "_cox_parts", counted)
    gmap = mm_map(prob)
    step = solver._halving(gmap)
    theta = CoefficientVector.zeros(5, False).augmented()
    obj = gmap.objective(theta)
    accepted_plain = 0
    for _ in range(20):
        calls[0] = 0
        theta, obj, _, evals, halvings = step(theta, obj)
        assert calls[0] == evals  # one objective per attempt, none for the score
        accepted_plain += halvings == 0
    assert accepted_plain > 0
    calls[0] = 0
    res = glm_mm_fit(prob, SolverConfig(), CoefficientVector.zeros(5, False))
    # the objective at the start, one per attempt; the KKT's score reuses
    # the sums of the last objective
    assert calls[0] == 1 + res.map_evals


@pytest.mark.parametrize("family", HOT_FAMILIES)
def test_squarem_step_multiplies_by_x_at_most_four_times_plus_backtracks(family):
    # at the default steplength bound of 1 a step is the double map step
    model = make_model(family, n=40, p=5, seed=62)
    prob = Problem(model, PenaltySpec(family=Family.SCAD, lam=0.3))
    cfg = SolverConfig(coef_tol=1e-9, obj_tol=1e-14)
    counter = count_products(model)
    gmap = mm_map(prob)
    theta = random_coef(model, seed=63).augmented()
    obj = gmap.objective(theta)
    for _ in range(5):
        counter[0] = 0
        state = squarem_step(gmap, gmap.objective, theta, obj)
        assert state.gamma == -1.0
        # the map from theta reuses its eta; the map from m1 and the
        # objective at m2 multiply
        assert counter[0] <= 4 + state.backtracks
        theta, obj = state.theta, state.objective
        assert obj == gmap.objective(theta)


@pytest.mark.parametrize("family", HOT_FAMILIES)
def test_squarem_step_multiplies_by_x_at_most_three_plus_three_gradients_plus_rejections(family):
    model = make_model(family, n=40, p=5, seed=62)
    prob = Problem(model, PenaltySpec(family=Family.SCAD, lam=0.3))
    cfg = SolverConfig(coef_tol=1e-9, obj_tol=1e-14)
    counter = count_products(model)
    gmap = mm_map(prob)
    theta = random_coef(model, seed=63).augmented()
    obj = gmap.objective(theta)
    step_max, extrapolated = 1.0, 0
    for _ in range(8):
        counter[0] = 0
        state = squarem_step(gmap, gmap.objective, theta, obj, step_max)
        # the map from theta reuses its eta; the maps from m1 and from the
        # extrapolated point, and the objective at that map output, multiply;
        # a rejected candidate adds the objective at m2
        assert counter[0] <= 6 + state.backtracks
        extrapolated += state.gamma < -1.0
        theta, obj, step_max = state.theta, state.objective, state.step_max
        assert obj == gmap.objective(theta)
    assert extrapolated > 0
    counter[0] = 0
    res = accelerated_fit(prob, cfg, CoefficientVector.zeros(5, model.has_intercept))
    assert counter[0] <= 1 + 6 * res.outer_iters + res.descent_backtracks + 1


@pytest.mark.parametrize("mode", ["plain", "squarem"])
@pytest.mark.parametrize("family", HOT_FAMILIES + ["poisson"])
def test_reported_objective_is_the_objective_at_the_coefficients(family, mode):
    model = make_model(family, n=40, p=5, seed=64)
    prob = Problem(model, PenaltySpec(family=Family.MCP, lam=2.0))
    res = accelerated_fit(prob, SolverConfig(), CoefficientVector.zeros(5, model.has_intercept), mode=mode)
    assert res.objective == total_objective(prob, res.coef)
    assert res.trace[-1] == res.objective


def test_nonfinite_objective_is_a_rejected_step(monkeypatch):
    model = make_model("gaussian", n=30, p=4, seed=65)
    prob = Problem(model, PenaltySpec(family=Family.LASSO, lam=0.5))
    monkeypatch.setattr(fid, "diagonal_bound", lambda m: np.full(m.n_coef, 1e-300))
    # the tries above the floor, BACKTRACK_START down to 2, then FLOOR_ATTEMPTS
    # rejections at or below it
    above = int(math.log2(solver.BACKTRACK_START))
    attempts = above + solver.FLOOR_ATTEMPTS
    with np.errstate(all="ignore"), pytest.raises(
        ConvergenceError, match=rf"in {attempts} attempt\(s\) \({attempts - 1} step halvings\)"
    ) as err:
        glm_mm_fit(prob, SolverConfig(), CoefficientVector.zeros(4, True))
    assert not math.isfinite(err.value.residual)


def test_squarem_nonfinite_fallback_raises_with_last_iterate(monkeypatch):
    model = make_model("gaussian", n=30, p=4, seed=65)
    prob = Problem(model, PenaltySpec(family=Family.LASSO, lam=0.5))
    start = CoefficientVector.zeros(4, True)
    monkeypatch.setattr(fid, "diagonal_bound", lambda m: np.full(m.n_coef, 1e-300))
    with np.errstate(all="ignore"), pytest.raises(ConvergenceError, match="non-finite") as err:
        accelerated_fit(prob, SolverConfig(), start, mode="squarem")
    assert np.array_equal(err.value.last_iterate, start.augmented())
    assert not math.isfinite(err.value.residual)


def test_start_is_checked_on_entry():
    model = make_model("gaussian", n=20, p=3, seed=66)
    prob = Problem(model, PenaltySpec(family=Family.LASSO, lam=0.5))
    for bad in (CoefficientVector.zeros(2, True), CoefficientVector.zeros(3, False)):
        for mode in ("plain", "squarem"):
            with pytest.raises(ValidationError):
                accelerated_fit(prob, TIGHT, bad, mode=mode)


@pytest.mark.parametrize(
    "family,y,cause",
    [("poisson", 0.0, "every count is 0"), ("logistic", 0.0, "every response is 0"),
     ("logistic", 1.0, "every response is 1")],
)
@pytest.mark.parametrize("entry", ["plain", "squarem", "mm_outer", "fit_path"])
def test_a_response_with_no_finite_intercept_is_named_before_any_map(family, y, cause, entry, monkeypatch):
    # the likelihood rises towards its supremum as the intercept runs off to
    # -inf (+inf for logistic responses all 1), whatever the slopes, and no
    # penalty reaches the intercept: no fit has a finite minimizer
    def no_map(self, theta, *args):
        raise AssertionError("a map was applied")

    for cls in (solver._GlmMap, solver._PoissonMap, solver._SurrogateFit):
        monkeypatch.setattr(cls, "__call__", no_map)
    x = np.random.default_rng(0).standard_normal((12, 2))
    model = FidelityModel(DesignMatrix(x), Response(family=family, y=np.full(12, y)))
    spec = PenaltySpec(family=Family.LASSO, lam=1.0)
    prob = Problem(model, spec)
    start = CoefficientVector(beta=np.array([0.5, -0.5]), intercept=0.25)
    run = {
        "plain": lambda: fit(prob, SolverConfig(), start),
        "squarem": lambda: accelerated_fit(prob, SolverConfig(), start, mode="squarem"),
        "mm_outer": lambda: mm_outer(prob, SolverConfig(), start),
        "fit_path": lambda: fit_path(model, spec, [1.0, 0.5], SolverConfig(), start),
    }[entry]
    with pytest.raises(ConvergenceError, match=f"{cause}, so the intercept has no finite minimizer") as err:
        run()
    assert np.array_equal(err.value.last_iterate, start.augmented())
    # without an intercept the slopes' penalty keeps the minimizer finite
    free = FidelityModel(DesignMatrix(x, has_intercept=False), Response(family=family, y=np.full(12, y)))
    monkeypatch.undo()
    res = fit(Problem(free, spec), TIGHT, CoefficientVector.zeros(2, False))
    assert res.termination is not Termination.MAX_ITER and np.all(np.isfinite(res.coef.beta))


# -- independence from earlier fits and the cost of an iteration ----------


@pytest.mark.parametrize("response", ["gaussian", "logistic", "poisson", "cox"])
def test_a_fit_does_not_depend_on_the_fits_before_it_on_the_same_model(response):
    # a model keeps its curvature bounds and its MLE between fits; replaying
    # the same fits after others on the model must give the same bits
    model = make_model(response, n=60, p=5, seed=87)
    start = CoefficientVector.zeros(5, model.has_intercept)
    lam = 0.2 * float(np.max(np.abs(gradient(model, start)[model.has_intercept:])))
    cfg = SolverConfig(coef_tol=1e-10, obj_tol=1e-300)

    def replayed():
        out = []
        for family in (Family.LASSO, Family.SCAD):
            prob = Problem(model, PenaltySpec(family=family, lam=lam))
            out += [
                accelerated_fit(prob, cfg, start, mode="plain"),
                accelerated_fit(prob, cfg, start, mode="squarem"),
                one_step_fit(prob, cfg),
            ]
        return out

    first = replayed()
    accelerated_fit(Problem(model, PenaltySpec(family=Family.MCP, lam=lam)), cfg, start, mode="squarem")
    fit_path(model, PenaltySpec(family=Family.LASSO, lam=lam), [2.0 * lam, lam], cfg, start)
    for before, after in zip(first, replayed()):
        assert np.array_equal(before.coef.augmented(), after.coef.augmented())
        assert before.objective == after.objective
        assert before.outer_iters == after.outer_iters


def python_calls_per_iteration(run):
    """Python frames entered while ``run()`` fits, per outer iteration."""
    calls = [0]

    def count(frame, event, arg):
        if event == "call":
            calls[0] += 1

    sys.setprofile(count)
    try:
        res = run()
    finally:
        sys.setprofile(None)
    return calls[0] / res.outer_iters, res


@pytest.mark.parametrize(
    "scenario,share,family,start,ceiling",
    [
        # the step, the gradient and its residual, the map and glm_map, the
        # objective and the likelihood; the lasso sum is a bound dot product
        (simlab.SimScenario(family="linear_ex1", p=35, n=100, rho=0.75, seed=88), 0.05, Family.LASSO, "zero", 7.2),
        # and the logistic parts, the thresholds at theta (tau, |beta| and
        # the derivative) and the SCAD sum
        (simlab.SimScenario(family="logistic_ex2", p=10, n=200, rho=0.5, seed=88), 0.1, Family.SCAD, "one_step", 12.2),
    ],
    ids=["gaussian-lasso", "logistic-scad-one-step"],
)
def test_a_plain_iteration_enters_a_bounded_number_of_python_frames(scenario, share, family, start, ceiling):
    ds = simlab.gen_dataset(scenario)
    model = FidelityModel(ds.design, ds.response)
    zero = CoefficientVector.zeros(scenario.p, True)
    lam = share * float(np.max(np.abs(gradient(model, zero)[1:])))
    prob = Problem(model, PenaltySpec(family=family, lam=lam))
    cfg = SolverConfig(coef_tol=1e-10, obj_tol=1e-300)
    begin = one_step_fit(prob, cfg).coef if start == "one_step" else zero
    accelerated_fit(prob, cfg, begin, mode="plain")  # the model's bound, computed once
    per_iteration, res = python_calls_per_iteration(lambda: accelerated_fit(prob, cfg, begin, mode="plain"))
    assert res.outer_iters > 100
    assert per_iteration <= ceiling, per_iteration
