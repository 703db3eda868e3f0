"""Squared-extrapolation acceleration: steplength, safeguards, accounting."""
import numpy as np
import pytest

from conftest import make_model
from mist.accel import accelerated_fit, squarem_step
from mist.exceptions import ValidationError
from mist.fidelity import CoefficientVector
from mist.penalties import Family, PenaltySpec
from mist.solver import Problem, SolverConfig, Termination, fit


def test_linear_contraction_one_shot():
    # M(theta) = 0.5 theta from theta=1: gamma=-2, extrapolation lands on 0
    state = squarem_step(lambda t: 0.5 * t, lambda t: float(t @ t), np.array([1.0]))
    assert state.gamma == pytest.approx(-2.0)
    assert state.theta[0] == pytest.approx(0.0, abs=1e-14)
    assert state.map_evals == 2
    assert state.backtracks == 0


def test_gamma_formula():
    # r=(1,0), v=(0.5,0) -> gamma = -2; pick a map realizing those differences
    theta = np.array([0.0, 0.0])

    def map_fn(t):
        if np.allclose(t, theta):
            return np.array([1.0, 0.0])
        return np.array([2.5, 0.0])  # m2 = m1 + 1.5 -> v = 0.5

    state = squarem_step(map_fn, lambda t: -float(t[0]), theta)
    assert np.allclose(state.r, [1.0, 0.0])
    assert np.allclose(state.v, [0.5, 0.0])
    assert state.gamma == pytest.approx(-2.0)


def test_gamma_clamped_to_minus_one():
    # ||r|| < ||v|| would give gamma > -1; the clamp forces gamma <= -1
    theta = np.array([0.0])

    def map_fn(t):
        if np.allclose(t, theta):
            return np.array([0.1])
        return np.array([1.0])  # v = 0.8 > r = 0.1

    state = squarem_step(map_fn, lambda t: 0.0, theta)
    assert state.gamma <= -1.0


def test_fixed_point_returns_theta():
    theta = np.array([1.0, -2.0])
    state = squarem_step(lambda t: t.copy(), lambda t: 0.0, theta)
    assert np.array_equal(state.theta, theta)
    assert state.map_evals == 2


def test_objective_overflow_rejects_candidate():
    # r=1, v=0.5 from theta=0: the first candidates land at 6, 4.125 and 3.28
    theta = np.array([0.0])

    def map_fn(t):
        return np.array([1.0]) if t[0] == 0.0 else np.array([2.5])

    def objective(limit):
        def f(t):
            if t[0] > limit:
                raise OverflowError("linear predictor too large")
            return -float(t[0])

        return f

    state = squarem_step(map_fn, objective(3.0), theta)
    assert state.backtracks == 3 and state.gamma == pytest.approx(-1.125)
    assert state.theta[0] == pytest.approx(2.0 * 1.125 + 1.125**2 * 0.5)
    # every candidate overflows: the plain double step is kept
    state = squarem_step(map_fn, objective(2.55), theta)
    assert state.theta[0] == 2.5 and state.gamma == -1.0


def test_degenerate_curvature_falls_back_to_double_step():
    # M adds a constant: v = 0 with r != 0
    state = squarem_step(lambda t: t + 1.0, lambda t: -float(t[0]), np.array([0.0]))
    assert state.theta[0] == pytest.approx(2.0)
    assert state.gamma == -1.0


def test_backtracking_exhaustion_falls_back_to_m2():
    # objective rejects every extrapolation except the two plain map points
    theta = np.array([4.0])
    m1, m2 = 2.0, 1.0

    def map_fn(t):
        return np.array([m1]) if np.allclose(t, theta) else np.array([m2])

    def objective(t):
        x = float(t[0])
        if abs(x - 4.0) < 1e-12 or abs(x - m2) < 1e-12:
            return x
        return 1e9  # every extrapolated candidate is rejected

    state = squarem_step(map_fn, objective, theta)
    assert state.theta[0] == pytest.approx(m2)
    assert state.gamma == -1.0
    assert state.backtracks == 5
    # accounting: 2 map evals plus one probe per failed candidate (6 attempts)
    assert state.map_evals == 2 + 6


def test_accepted_step_never_increases_objective():
    model = make_model("logistic", n=40, p=5, seed=50)
    prob = Problem(model, PenaltySpec(family=Family.SCAD, lam=0.5))
    cfg = SolverConfig(coef_tol=1e-9, obj_tol=1e-14)
    res = accelerated_fit(prob, cfg, CoefficientVector.zeros(5, True), mode="squarem")
    assert np.all(np.diff(res.trace) <= 1e-12)


def test_plain_mode_delegates_to_base_fit():
    model = make_model("gaussian", n=30, p=4, seed=51)
    prob = Problem(model, PenaltySpec(family=Family.LASSO, lam=0.5))
    cfg = SolverConfig(coef_tol=1e-9, obj_tol=1e-14)
    a = accelerated_fit(prob, cfg, CoefficientVector.zeros(4, True), mode="plain")
    b = fit(prob, cfg, CoefficientVector.zeros(4, True))
    assert a.objective == b.objective
    assert np.array_equal(a.coef.beta, b.coef.beta)


def test_unknown_mode_rejected():
    model = make_model("gaussian", n=10, p=2, seed=52)
    prob = Problem(model, PenaltySpec(family=Family.LASSO, lam=0.5))
    with pytest.raises(ValidationError):
        accelerated_fit(prob, SolverConfig(), CoefficientVector.zeros(2, True), mode="nesterov")


def test_plain_and_squarem_agree_on_convex_problem():
    model = make_model("gaussian", n=50, p=6, seed=53)
    prob = Problem(model, PenaltySpec(family=Family.LASSO, lam=0.3))
    cfg = SolverConfig(coef_tol=1e-10, obj_tol=1e-15)
    a = accelerated_fit(prob, cfg, CoefficientVector.zeros(6, True), mode="plain")
    b = accelerated_fit(prob, cfg, CoefficientVector.zeros(6, True), mode="squarem")
    assert abs(a.objective - b.objective) <= 1e-8
    assert np.linalg.norm(a.coef.beta - b.coef.beta) <= 1e-5


def test_squarem_from_converged_start_terminates_immediately():
    model = make_model("gaussian", n=30, p=4, seed=54)
    prob = Problem(model, PenaltySpec(family=Family.LASSO, lam=0.5))
    cfg = SolverConfig(coef_tol=1e-9, obj_tol=1e-14)
    first = accelerated_fit(prob, cfg, CoefficientVector.zeros(4, True), mode="squarem")
    again = accelerated_fit(prob, cfg, first.coef, mode="squarem")
    assert again.outer_iters == 1
    assert again.map_evals == 2


def test_squarem_accelerates_poisson_path():
    model = make_model("poisson", n=40, p=4, seed=55)
    prob = Problem(model, PenaltySpec(family=Family.LASSO, lam=1.0))
    cfg = SolverConfig(coef_tol=1e-8, obj_tol=1e-14)
    a = accelerated_fit(prob, cfg, CoefficientVector.zeros(4, True), mode="plain")
    b = accelerated_fit(prob, cfg, CoefficientVector.zeros(4, True), mode="squarem")
    assert abs(a.objective - b.objective) <= 1e-6


def test_given_objective_is_reused_and_the_accepted_one_returned():
    calls = []

    def objective(t):
        calls.append(float(t[0]))
        return float(t @ t)

    # M(theta) = 0.5 theta from 1: the first candidate lands on 0 and is accepted
    state = squarem_step(lambda t: 0.5 * t, objective, np.array([1.0]), obj0=1.0)
    assert calls == [0.0]  # the candidate only; theta's objective was given
    assert state.objective == 0.0
    # without obj0 the step evaluates it itself, after the two maps
    calls.clear()
    state = squarem_step(lambda t: 0.5 * t, objective, np.array([1.0]))
    assert calls == [1.0, 0.0] and state.objective == 0.0


def test_fallback_objective_is_the_double_step_objective():
    theta = np.array([4.0])

    def map_fn(t):
        return np.array([2.0]) if t[0] == 4.0 else np.array([1.0])

    def objective(t):
        return float(t[0]) if t[0] in (4.0, 1.0) else 1e9  # rejects every candidate

    state = squarem_step(map_fn, objective, theta, obj0=4.0)
    assert state.theta[0] == 1.0 and state.objective == 1.0
    # degenerate curvature (v = 0) and a fixed point carry their objectives too
    state = squarem_step(lambda t: t + 1.0, lambda t: -float(t[0]), np.array([0.0]))
    assert state.objective == -2.0
    state = squarem_step(lambda t: t.copy(), lambda t: 7.0, np.array([3.0]), obj0=5.0)
    assert state.objective == 5.0
