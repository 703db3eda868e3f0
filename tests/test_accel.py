"""Squared-extrapolation acceleration: steplength, safeguards, accounting."""
import math

import numpy as np
import pytest

from conftest import make_model
from mist import accel, simlab
from mist.accel import MAX_BACKTRACKS, accelerated_fit, squarem_step
from mist.exceptions import ConvergenceError, ValidationError
from mist.fidelity import CoefficientVector, DesignMatrix, FidelityModel, Response, ResponseFamily
from mist.penalties import Family, PenaltySpec
from mist.solver import Problem, SolverConfig, Termination, fit, mm_map


def test_linear_contraction_one_shot():
    # M(theta) = 0.5 theta from theta=1: alpha=2, extrapolation lands on 0 and
    # the stabilizing map keeps it there
    state = squarem_step(lambda t: 0.5 * t, lambda t: float(t @ t), np.array([1.0]), step_max=4.0)
    assert state.gamma == pytest.approx(-2.0)
    assert state.theta[0] == pytest.approx(0.0, abs=1e-14)
    assert state.map_evals == 3  # m1, m2 and the map at the extrapolated point
    assert state.backtracks == 0


def test_gamma_formula():
    # r=(1,0), v=(0.5,0) -> gamma = -2; pick a map realizing those differences
    theta = np.array([0.0, 0.0])

    def map_fn(t):
        if np.allclose(t, theta):
            return np.array([1.0, 0.0])
        return np.array([2.5, 0.0])  # m2 = m1 + 1.5 -> v = 0.5

    # inside the bounds [1, step_max] the steplength is ||r|| / ||v||
    for step_max in (2.5, 16.0):
        state = squarem_step(map_fn, lambda t: -float(t[0]), theta, step_max=step_max)
        assert np.allclose(state.r, [1.0, 0.0])
        assert np.allclose(state.v, [0.5, 0.0])
        assert state.gamma == pytest.approx(-2.0)
        assert state.theta[0] == 2.5  # the map at theta + 4 r + 4 v = 6


def test_gamma_clamped_to_minus_one():
    # ||r|| < ||v|| would give gamma > -1; the clamp forces gamma = -1, the
    # double map step, with no extrapolated candidate
    theta = np.array([0.0])

    def map_fn(t):
        if np.allclose(t, theta):
            return np.array([0.1])
        return np.array([1.0])  # v = 0.8 > r = 0.1

    state = squarem_step(map_fn, lambda t: 0.0, theta, step_max=16.0)
    assert state.gamma == -1.0
    assert state.theta[0] == 1.0 and state.map_evals == 2


def test_fixed_point_returns_theta():
    theta = np.array([1.0, -2.0])
    state = squarem_step(lambda t: t.copy(), lambda t: 0.0, theta)
    assert np.array_equal(state.theta, theta)
    assert state.map_evals == 2


def test_objective_overflow_rejects_candidate():
    # r=1, v=0.5 from theta=0: alpha=2 extrapolates to 6, which maps to 6.1
    theta = np.array([0.0])

    def map_fn(limit=math.inf):
        def f(t):
            if t[0] > limit:
                raise OverflowError("poisson coordinate update: linear predictor too large")
            return {0.0: np.array([1.0]), 1.0: np.array([2.5])}.get(t[0], t + 0.1)

        return f

    def objective(limit):
        def f(t):
            if t[0] > limit:
                raise OverflowError("linear predictor too large")
            return -float(t[0])

        return f

    state = squarem_step(map_fn(), objective(10.0), theta, step_max=4.0)
    assert state.backtracks == 0 and state.gamma == pytest.approx(-2.0)
    assert state.theta[0] == pytest.approx(6.1)
    # an overflow in the objective or in the map itself rejects the candidate:
    # the plain double step is kept
    for fn, obj in ((map_fn(), objective(3.0)), (map_fn(5.0), objective(10.0))):
        state = squarem_step(fn, obj, theta, step_max=4.0)
        assert state.theta[0] == 2.5 and state.gamma == -1.0
        assert state.backtracks == 1 and state.map_evals == 4


def test_degenerate_curvature_falls_back_to_double_step():
    # M adds a constant: v = 0 with r != 0
    state = squarem_step(lambda t: t + 1.0, lambda t: -float(t[0]), np.array([0.0]))
    assert state.theta[0] == pytest.approx(2.0)
    assert state.gamma == -1.0


def test_backtracking_exhaustion_falls_back_to_m2():
    # the one extrapolated candidate of a step (MAX_BACKTRACKS = 1) is rejected;
    # the objective accepts only theta and the double map step
    theta = np.array([4.0])
    m1, m2 = 2.0, 1.0

    def map_fn(t):
        # the extrapolated point theta + 4 r + 4 v = 0 maps to 3
        return np.array([{4.0: m1, m1: m2}.get(float(t[0]), 3.0)])

    def objective(t):
        x = float(t[0])
        if abs(x - 4.0) < 1e-12 or abs(x - m2) < 1e-12:
            return x
        return 1e9  # every extrapolated candidate is rejected

    state = squarem_step(map_fn, objective, theta, step_max=4.0)
    assert state.theta[0] == pytest.approx(m2)
    assert state.gamma == -1.0
    assert state.backtracks == MAX_BACKTRACKS == 1
    # accounting: 2 map evals, the map at the candidate and its rejected probe
    assert state.map_evals == 2 + MAX_BACKTRACKS + 1
    # alpha = 2 was below the bound, which therefore stays
    assert state.step_max == 4.0


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

    # M(theta) = 0.5 theta from 1: the candidate lands on 0 and is accepted
    state = squarem_step(lambda t: 0.5 * t, objective, np.array([1.0]), obj0=1.0, step_max=4.0)
    assert calls == [0.0]  # the candidate only; theta's objective was given
    assert state.objective == 0.0
    # without obj0 the step evaluates it itself, after the two maps
    calls.clear()
    state = squarem_step(lambda t: 0.5 * t, objective, np.array([1.0]), step_max=4.0)
    assert calls == [1.0, 0.0] and state.objective == 0.0


def test_fallback_objective_is_the_double_step_objective():
    theta = np.array([4.0])

    def map_fn(t):
        return np.array([2.0]) if t[0] == 4.0 else np.array([1.0])

    def objective(t):
        return float(t[0]) if t[0] in (4.0, 1.0) else 1e9  # rejects every candidate

    state = squarem_step(map_fn, objective, theta, obj0=4.0, step_max=4.0)
    assert state.theta[0] == 1.0 and state.objective == 1.0
    # degenerate curvature (v = 0) and a fixed point carry their objectives too
    state = squarem_step(lambda t: t + 1.0, lambda t: -float(t[0]), np.array([0.0]))
    assert state.objective == -2.0
    state = squarem_step(lambda t: t.copy(), lambda t: 7.0, np.array([3.0]), obj0=5.0)
    assert state.objective == 5.0


def test_squarem_zeroes_pinned_coordinates_at_the_start():
    # a start that is nonzero on a coordinate with adaptive weight inf has
    # objective inf; both fits start from it with that coordinate at 0
    rng = np.random.default_rng(0)
    X = rng.standard_normal((30, 3))
    y = X @ np.array([1.0, 0.0, -1.0]) + 0.1 * rng.standard_normal(30)
    model = FidelityModel(DesignMatrix(X, has_intercept=True), Response(family="gaussian", y=y))
    spec = PenaltySpec(family=Family.ADAPTIVE_LASSO, lam=0.5, weights=np.array([1.0, math.inf, 1.0]))
    prob = Problem(model, spec)
    cfg = SolverConfig(coef_tol=1e-10, obj_tol=1e-14)
    start = CoefficientVector(beta=np.full(3, 0.5), intercept=0.0)
    plain = accelerated_fit(prob, cfg, start, mode="plain")
    sq = accelerated_fit(prob, cfg, start, mode="squarem")
    assert plain.coef.beta[1] == 0.0
    assert sq.coef.beta[1] == 0.0
    assert math.isfinite(sq.trace[0])
    assert np.max(np.abs(sq.coef.augmented() - plain.coef.augmented())) <= 1e-6


def test_step_max_grows_when_reached():
    # M(theta) = 0.5 theta from 1: ||r|| / ||v|| = 2
    half = lambda t: 0.5 * t  # noqa: E731
    square = lambda t: float(t @ t)  # noqa: E731
    # at the first bound alpha = 1 is the double map step, and the bound grows
    state = squarem_step(half, square, np.array([1.0]), step_max=1.0)
    assert state.gamma == -1.0 and state.theta[0] == 0.25 and state.step_max == 4.0
    # alpha clamped at the bound and accepted: the bound grows x4
    state = squarem_step(half, square, np.array([1.0]), step_max=1.5)
    assert state.gamma == -1.5 and state.backtracks == 0 and state.step_max == 6.0
    # alpha below the bound leaves it
    state = squarem_step(half, square, np.array([1.0]), step_max=4.0)
    assert state.gamma == -2.0 and state.step_max == 4.0


def test_step_max_shrinks_on_a_rejection_at_the_bound():
    # r = 1, v = 0.05 from theta = 0: ||r|| / ||v|| = 20; every candidate is rejected
    theta = np.array([0.0])

    def map_fn(t):
        return {0.0: np.array([1.0]), 1.0: np.array([2.05])}.get(t[0], np.array([100.0]))

    objective = lambda t: float(t[0]) ** 2  # noqa: E731
    state = squarem_step(map_fn, objective, theta, step_max=16.0)
    assert state.theta[0] == 2.05 and state.backtracks == 1
    assert state.step_max == 4.0
    # below the bound a rejection leaves it
    state = squarem_step(map_fn, objective, theta, step_max=64.0)
    assert state.backtracks == 1 and state.step_max == 64.0


def test_accelerated_fit_carries_step_max_from_step_to_step(monkeypatch):
    calls = []

    def recording_step(map_fn, objective, theta, obj0=None, step_max=1.0):
        state = squarem_step(map_fn, objective, theta, obj0, step_max)
        calls.append((step_max, state.step_max))
        return state

    monkeypatch.setattr(accel, "squarem_step", recording_step)
    model = make_model("logistic", n=60, p=8, seed=56)
    prob = Problem(model, PenaltySpec(family=Family.LASSO, lam=0.5))
    cfg = SolverConfig(coef_tol=1e-10, obj_tol=1e-300)
    res = accelerated_fit(prob, cfg, CoefficientVector.zeros(8, True), mode="squarem")
    assert len(calls) == res.outer_iters > 3
    assert calls[0][0] == 1.0
    assert all(given == previous for (given, _), (_, previous) in zip(calls[1:], calls))
    assert max(bound for bound, _ in calls) > 4.0  # the bound grew over several steps


def test_squarem_step_returns_theta_or_a_map_output():
    model = make_model("logistic", n=40, p=6, seed=57)
    prob = Problem(model, PenaltySpec(family=Family.MCP, lam=0.4))
    gmap = mm_map(prob)
    outputs = []

    def recording_map(t):
        out = gmap(t)
        outputs.append(out)
        return out

    theta = CoefficientVector.zeros(6, True).augmented()
    obj, step_max, kinds = gmap.objective(theta), 1.0, set()
    for _ in range(60):
        outputs.clear()
        state = squarem_step(recording_map, gmap.objective, theta, obj, step_max)
        if any(state.theta is out for out in outputs):
            kinds.add(state.gamma < -1.0)
        else:
            assert np.array_equal(state.theta, theta)
        theta, obj, step_max = state.theta, state.objective, state.step_max
    assert kinds == {True, False}  # both extrapolated and double map steps were seen


def test_squarem_keeps_exact_zeros_and_meets_the_kkt_target():
    # with extrapolated points returned, the zeros came back as about 1e-12 and
    # the KKT residual read 0.95 under a coef_tol stop
    ds = simlab.gen_dataset(simlab.SimScenario(family="linear_ex1", p=35, n=100, rho=0.5, seed=7))
    prob = Problem(simlab.model_from_dataset(ds), PenaltySpec(family=Family.LASSO, lam=0.5))
    cfg = SolverConfig(coef_tol=1e-10, obj_tol=1e-300, max_outer=500000)
    start = CoefficientVector.zeros(35, True)
    plain = accelerated_fit(prob, cfg, start, mode="plain")
    sq = accelerated_fit(prob, cfg, start, mode="squarem")
    zeros = np.flatnonzero(plain.coef.beta == 0.0)
    assert len(zeros) == 3
    assert np.array_equal(np.flatnonzero(sq.coef.beta == 0.0), zeros)
    assert sq.kkt_residual <= 1e-5
    assert sq.map_evals < plain.map_evals


def test_squarem_map_overflow_is_a_convergence_error():
    # rate multipliers of 1e-305 put the minimizing linear predictor past the
    # exponent guard, so the first map overflows; the squarem fit ends as the
    # plain fit does, in a ConvergenceError carrying the last iterate
    rng = np.random.default_rng(0)
    model = FidelityModel(
        DesignMatrix(rng.standard_normal((12, 2)), has_intercept=True),
        Response(family=ResponseFamily.POISSON, y=np.ones(12), offsets=np.full(12, 1e-305)),
    )
    prob = Problem(model, PenaltySpec(family=Family.LASSO, lam=1.0))
    start = CoefficientVector.zeros(2, True)
    with pytest.raises(ConvergenceError):
        accelerated_fit(prob, SolverConfig(), start, mode="plain")
    with pytest.raises(ConvergenceError, match="squarem") as err:
        accelerated_fit(prob, SolverConfig(), start, mode="squarem")
    assert np.array_equal(err.value.last_iterate, np.zeros(3))
