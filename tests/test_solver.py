"""MM engine: thresholding, inner solver, fit paths, one-step, diagnostics."""
import math
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
    fit_mle,
    gradient,
    poisson_majorizer_component,
    poisson_weights,
)
from mist.accel import accelerated_fit, squarem_step
from mist.penalties import Family, PenaltySpec, penalty_derivative, threshold_vector
from mist.solver import (
    FitResult,
    Problem,
    SolverConfig,
    Termination,
    fit,
    glm_map,
    glm_mm_fit,
    glm_surrogate_value,
    ist_minimize,
    kkt_residual,
    mm_map,
    mm_outer,
    one_step_fit,
    poisson_mm_fit,
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


def test_soft_threshold_vec_shape_mismatch():
    with pytest.raises(ValidationError):
        soft_threshold_vec(np.zeros(2), np.zeros(3))


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


# -- inner iterated soft-thresholding --------------------------------------


def test_ist_scalar_lasso():
    # m(b) = 0.5 (b - 3)^2, tau = 1, omega = 1 -> soft(3, 1) = 2
    b = ist_minimize(lambda b: b - 3.0, np.array([1.0]), 1.0, np.array([0.0]), inner_tol=1e-12)
    assert b[0] == pytest.approx(2.0, abs=1e-10)


def test_ist_zero_threshold_matches_linear_solve():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((8, 4))
    H = A.T @ A + 0.5 * np.eye(4)
    c = rng.standard_normal(4)
    omega = 0.95 * 2.0 / np.linalg.eigvalsh(H).max()
    b = ist_minimize(lambda b: H @ b - c, np.zeros(4), omega, np.zeros(4), inner_tol=1e-13)
    assert np.allclose(b, np.linalg.solve(H, c), atol=1e-9)


def test_ist_fixed_point_start():
    b = ist_minimize(lambda b: b - 3.0, np.array([1.0]), 1.0, np.array([2.0]), inner_tol=1e-12)
    assert b[0] == pytest.approx(2.0, abs=1e-12)


def test_ist_relaxation_schedule_converges():
    b = ist_minimize(
        lambda b: b - 3.0,
        np.array([1.0]),
        1.0,
        np.array([0.0]),
        relaxation=lambda n: 0.5 + 0.5 / n,
        inner_tol=1e-12,
    )
    assert b[0] == pytest.approx(2.0, abs=1e-9)


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


def test_ist_iteration_cap_raises_with_diagnostics():
    with pytest.raises(ConvergenceError) as exc:
        ist_minimize(lambda b: 0.5 * (b - 3.0), np.array([1.0]), 0.1, np.array([0.0]),
                     inner_tol=1e-14, inner_max=3)
    assert exc.value.last_iterate is not None
    assert exc.value.residual is not None


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
    assert resolve_step(prob, SolverConfig(step_omega=0.123)) == 0.123


def test_solver_config_from_json_auto():
    cfg = SolverConfig.from_json('{"step_omega": "auto", "coef_tol": 1e-9}')
    assert cfg.step_omega is None
    assert cfg.coef_tol == 1e-9


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
    for j in range(beta.shape[0]):
        dj = penalty_derivative(spec, j, abs(beta[j]))
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
    res = poisson_mm_fit(prob, TIGHT, CoefficientVector(beta=np.array([0.5])))
    assert abs(res.coef.beta[0]) <= 1e-6


def test_poisson_all_zero_counts_large_lasso_shrinks_to_zero():
    rng = np.random.default_rng(27)
    X = rng.standard_normal((12, 3))
    m = FidelityModel(
        DesignMatrix(X, has_intercept=False),
        Response(family=ResponseFamily.POISSON, y=np.zeros(12)),
    )
    prob = Problem(m, PenaltySpec(family=Family.LASSO, lam=50.0))
    res = poisson_mm_fit(prob, TIGHT, CoefficientVector(beta=np.array([0.3, -0.2, 0.1])))
    assert np.allclose(res.coef.beta, 0.0, atol=1e-8)


def test_poisson_map_with_no_counts_moves_the_intercept_far_down():
    # the intercept's component decreases forever: the map stops where the
    # fitted means underflow, after doubling its way out
    rng = np.random.default_rng(42)
    m = FidelityModel(
        DesignMatrix(rng.standard_normal((12, 2))),
        Response(family=ResponseFamily.POISSON, y=np.zeros(12)),
    )
    prob = Problem(m, PenaltySpec(family=Family.LASSO, lam=1.0))
    theta = mm_map(prob, SolverConfig())(np.zeros(3))
    assert np.all(np.isfinite(theta)) and theta[0] < -30.0


def test_poisson_mle_with_zero_threshold_is_fixed_point():
    model = make_model("poisson", n=60, p=3, seed=28)
    mle = fit_mle(model)
    # SCAD far tail at the MLE scale: thresholds vanish
    prob = Problem(model, PenaltySpec(family=Family.SCAD, lam=1e-6))
    cfg = SolverConfig(coef_tol=1e-7, obj_tol=1e-14)
    res = poisson_mm_fit(prob, cfg, mle)
    assert np.linalg.norm(res.coef.augmented() - mle.augmented()) <= 1e-4


def test_poisson_fit_monotone_and_stationary():
    model = make_model("poisson", n=50, p=4, seed=29)
    prob = Problem(model, PenaltySpec(family=Family.LASSO, lam=2.0))
    res = poisson_mm_fit(prob, SolverConfig(coef_tol=1e-9, obj_tol=1e-15), CoefficientVector.zeros(4, True))
    assert np.all(np.diff(res.trace) <= 1e-12)
    assert res.kkt_residual <= 1e-5


def _poisson_map_oracle(prob, theta):
    """The separable-majorizer map one coordinate at a time, by brentq on the
    derivative of each component plus ridge and the threshold's subgradient."""
    model, spec = prob.model, prob.penalty
    has_int = model.has_intercept
    pinned = np.isinf(spec.weights) if spec.weights is not None else np.zeros(model.design.n_cols, bool)
    if has_int:
        pinned = np.concatenate([[False], pinned])
    anchor = np.where(pinned, 0.0, theta)  # the map holds pinned coordinates at zero
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


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(4, 30),
    p=st.integers(1, 5),
    intercept=st.booleans(),
    zero_col=st.booleans(),
    indicator=st.booleans(),
    offsets=st.booleans(),
    pinned=st.booleans(),
    ridge=st.booleans(),
    lam=st.floats(0.01, 5.0),
)
def test_poisson_map_matches_per_coordinate_oracle(
    seed, n, p, intercept, zero_col, indicator, offsets, pinned, ridge, lam
):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    if indicator:
        X[:, -1] = rng.random(n) < 0.4
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
    got = mm_map(prob, SolverConfig())(theta)
    want = _poisson_map_oracle(prob, theta)
    assert np.allclose(got, want, rtol=1e-9, atol=1e-9)
    if pinned:
        assert got[-1] == 0.0


def test_poisson_empty_column_moves_to_zero():
    # the fidelity does not depend on an all-zero column's coefficient, so the
    # lasso is minimized at 0 there, wherever the fit starts
    rng = np.random.default_rng(5)
    x = np.column_stack([0.5 * rng.standard_normal(20), np.zeros(20)])
    y = rng.poisson(np.exp(0.3 + 0.5 * x[:, 0])).astype(float)
    model = FidelityModel(DesignMatrix(x, has_intercept=True), Response(family="poisson", y=y))
    prob = Problem(model, PenaltySpec(family=Family.LASSO, lam=1.0))
    start = CoefficientVector(beta=np.array([0.0, 0.5]), intercept=0.0)
    assert mm_map(prob, SolverConfig())(start.augmented())[2] == 0.0
    res = poisson_mm_fit(prob, SolverConfig(coef_tol=1e-10, obj_tol=1e-15), start)
    assert res.coef.beta[1] == 0.0
    assert res.kkt_residual <= 1e-6


def test_poisson_mm_map_matches_one_plain_iteration():
    model = make_model("poisson", n=30, p=4, seed=39)
    prob = Problem(model, PenaltySpec(family=Family.LASSO, lam=0.5))
    cfg = SolverConfig()
    theta = random_coef(model, seed=40).augmented()
    one = poisson_mm_fit(
        prob,
        replace(cfg, max_outer=1, descent_check=False),
        CoefficientVector.from_augmented(theta, True),
    )
    assert np.array_equal(mm_map(prob, cfg)(theta), one.coef.augmented())


def test_poisson_mm_fit_rejects_other_families():
    model = make_model("gaussian", n=10, p=2, seed=30)
    prob = Problem(model, PenaltySpec(family=Family.LASSO, lam=1.0))
    with pytest.raises(ValidationError):
        poisson_mm_fit(prob, TIGHT, CoefficientVector.zeros(2, True))


# -- one-step estimator ----------------------------------------------------


def test_one_step_lasso_equals_weighted_surrogate_solution():
    model = make_model("gaussian", n=50, p=4, seed=31)
    prob = Problem(model, PenaltySpec(family=Family.LASSO, lam=0.8))
    cfg = SolverConfig(inner_tol=1e-12)
    res = one_step_fit(prob, cfg)
    # lasso is convex: the single full surrogate solve is the exact solution
    full = glm_mm_fit(prob, TIGHT, CoefficientVector.zeros(4, True))
    assert abs(res.objective - full.objective) <= 1e-8
    assert res.outer_iters == 1 and res.map_evals == 1
    assert len(res.trace) == 2 and res.trace[1] <= res.trace[0] + 1e-12


def test_one_step_scad_far_tail_returns_mle():
    model = make_model("gaussian", n=40, p=3, seed=32, beta_scale=3.0)
    mle = fit_mle(model)
    lam = 1e-4  # every |mle_j| is far beyond a*lam -> tau = 0
    prob = Problem(model, PenaltySpec(family=Family.SCAD, lam=lam))
    res = one_step_fit(prob, SolverConfig(inner_tol=1e-12))
    assert np.linalg.norm(res.coef.augmented() - mle.augmented()) <= 1e-6


def test_one_step_requires_overdetermined_design():
    model = make_model("gaussian", n=4, p=6, seed=33)
    prob = Problem(model, PenaltySpec(family=Family.LASSO, lam=1.0))
    with pytest.raises(ValidationError):
        one_step_fit(prob, SolverConfig())


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
    cfg = SolverConfig()
    mp = mm_map(prob, cfg)
    theta = CoefficientVector.zeros(3, True).augmented()
    one = glm_map(prob, theta, resolve_step(prob, cfg))
    assert np.array_equal(mp(theta), one)


# -- the array-native hot path ---------------------------------------------


class CountingDesign(np.ndarray):
    """A design matrix that counts its products with vectors (X theta, X^T r)."""

    def __array_finalize__(self, obj):
        self.counter = getattr(obj, "counter", None)

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
#: products with X in one gradient: X^T r, except for cox, whose score is
#: built from running sums over the design sorted once by time
GRADIENT_PRODUCTS = {"gaussian": 1, "logistic": 1, "cox": 0}


@pytest.mark.parametrize("family", HOT_FAMILIES)
def test_plain_iteration_multiplies_by_x_at_most_twice(family):
    model = make_model(family, n=40, p=5, seed=60)
    prob = Problem(model, PenaltySpec(family=Family.LASSO, lam=0.3))
    cfg = SolverConfig(coef_tol=1e-9, obj_tol=1e-14)
    counter = count_products(model)
    gmap = mm_map(prob, cfg)
    theta = random_coef(model, seed=61).augmented()
    gmap.objective(theta)
    counter[0] = 0
    new = gmap(theta)  # eta at theta comes from the objective just evaluated
    gmap.objective(new)
    per_map = 1 + GRADIENT_PRODUCTS[family]  # at most 2
    assert counter[0] == per_map
    counter[0] = 0
    res = glm_mm_fit(prob, cfg, CoefficientVector.zeros(5, model.has_intercept))
    assert res.descent_backtracks == 0 and res.map_evals > 10
    # the objective at the start, then each map, then the KKT's eta and gradient
    assert counter[0] == 1 + per_map * res.map_evals + per_map


@pytest.mark.parametrize("family", HOT_FAMILIES)
def test_squarem_step_multiplies_by_x_at_most_four_times_plus_backtracks(family):
    model = make_model(family, n=40, p=5, seed=62)
    prob = Problem(model, PenaltySpec(family=Family.SCAD, lam=0.3))
    cfg = SolverConfig(coef_tol=1e-9, obj_tol=1e-14)
    counter = count_products(model)
    gmap = mm_map(prob, cfg)
    theta = random_coef(model, seed=63).augmented()
    obj = gmap.objective(theta)
    for _ in range(5):
        counter[0] = 0
        state = squarem_step(gmap, gmap.objective, theta, obj)
        # the map from theta reuses its eta; the map from m1 and each objective
        # probe of a candidate multiply
        per_step = 2 + 2 * GRADIENT_PRODUCTS[family]  # at most 4
        assert counter[0] <= per_step + state.backtracks
        theta, obj = state.theta, state.objective
        assert obj == gmap.objective(theta)
    counter[0] = 0
    res = accelerated_fit(prob, cfg, CoefficientVector.zeros(5, model.has_intercept))
    kkt = 1 + GRADIENT_PRODUCTS[family]
    assert counter[0] <= 1 + per_step * res.outer_iters + res.descent_backtracks + kkt


@pytest.mark.parametrize("mode", ["plain", "squarem"])
@pytest.mark.parametrize("family", HOT_FAMILIES + ["poisson"])
def test_reported_objective_is_the_objective_at_the_coefficients(family, mode):
    model = make_model(family, n=40, p=5, seed=64)
    prob = Problem(model, PenaltySpec(family=Family.MCP, lam=2.0))
    res = accelerated_fit(prob, SolverConfig(), CoefficientVector.zeros(5, model.has_intercept), mode=mode)
    assert res.objective == total_objective(prob, res.coef)
    assert res.trace[-1] == res.objective


@pytest.mark.parametrize("descent_check", [True, False])
def test_nonfinite_objective_is_a_rejected_step(descent_check):
    model = make_model("gaussian", n=30, p=4, seed=65)
    prob = Problem(model, PenaltySpec(family=Family.LASSO, lam=0.5))
    cfg = SolverConfig(step_omega=1e300, descent_check=descent_check)
    with np.errstate(all="ignore"), pytest.raises(ConvergenceError, match="30 step halvings") as err:
        glm_mm_fit(prob, cfg, CoefficientVector.zeros(4, True))
    assert not math.isfinite(err.value.residual)


def test_squarem_nonfinite_fallback_raises_with_last_iterate():
    model = make_model("gaussian", n=30, p=4, seed=65)
    prob = Problem(model, PenaltySpec(family=Family.LASSO, lam=0.5))
    start = CoefficientVector.zeros(4, True)
    with np.errstate(all="ignore"), pytest.raises(ConvergenceError, match="non-finite") as err:
        accelerated_fit(prob, SolverConfig(step_omega=1e300), start, mode="squarem")
    assert np.array_equal(err.value.last_iterate, start.augmented())
    assert not math.isfinite(err.value.residual)


def test_start_is_checked_on_entry():
    model = make_model("gaussian", n=20, p=3, seed=66)
    prob = Problem(model, PenaltySpec(family=Family.LASSO, lam=0.5))
    for bad in (CoefficientVector.zeros(2, True), CoefficientVector.zeros(3, False)):
        for mode in ("plain", "squarem"):
            with pytest.raises(ValidationError):
                accelerated_fit(prob, TIGHT, bad, mode=mode)
