"""Steps that follow each column's scale.

The gaussian and logistic maps, and the surrogate solves of ``mm_outer`` and
the one-step estimator, step coordinate j by omega_j = 0.95 * 2 / D_j, with
D = ``fidelity.diagonal_bound``, so that a column of scale 1e-4 beside one of
scale 1e4 takes a step of its own size.  A step shared by every coordinate is
set by the largest column, and on the designs here it leaves the plain fit
and ``mm_outer`` at ``max_iter`` far from the optimum, and the one-step
estimator near its start.

The Poisson map has no step: it minimizes the separable majorizer, whose
weights ``fidelity.poisson_weights`` measure each entry against its own
column's norm, so that map follows each column's scale as well.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_model
from mist import fidelity as fid
from mist import solver
from mist.accel import accelerated_fit
from mist.exceptions import ConvergenceError
from mist.fidelity import CoefficientVector, DesignMatrix, FidelityModel, Response
from mist.penalties import Family, PenaltySpec
from mist.solver import (
    Problem,
    SolverConfig,
    Termination,
    glm_map,
    glm_surrogate_value,
    mm_map,
    mm_outer,
    one_step_fit,
    total_objective,
)

#: stop on a step below 1e-10 or an exactly unchanged objective, else at 1 000 steps
CONFIG = SolverConfig(coef_tol=1e-10, obj_tol=1e-300, max_outer=1000)
SCALES = np.array([1e-4, 1.0, 1e4, 1.0])


def scaled_model(family, scales=SCALES, seed=0, coef=None):
    """A 60-row standard normal design with the given column scales and an
    intercept; by default each column's coefficient undoes its scale."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((60, len(scales))) * scales
    if coef is None:
        coef = np.where(np.arange(len(scales)) < 3, 1.0, 0.0) / scales
    eta = x @ coef
    if family == "gaussian":
        y = eta + rng.standard_normal(60)
    elif family == "poisson":
        y = rng.poisson(np.exp(eta)).astype(float)
    else:
        y = (rng.random(60) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    return FidelityModel(DesignMatrix(x), Response(family, y))


def fit_all(prob):
    """Plain, squarem and ``mm_outer`` from zero, each stopped on a step below
    1e-10 or within 1 000 steps."""
    start = CoefficientVector.zeros(prob.model.design.n_cols, True)
    fits = [accelerated_fit(prob, CONFIG, start, mode=mode) for mode in ("plain", "squarem")]
    return fits + [mm_outer(prob, CONFIG, start)]


def close(a, b, rel):
    return abs(a.objective - b.objective) <= rel * abs(b.objective)


@pytest.mark.parametrize(
    "family,coef",
    [("gaussian", np.array([1e3, 1.0, 1e-3, 0.0])), ("logistic", np.array([1e3, 1.0, 1e-4, 0.0]))],
)
def test_a_badly_scaled_design_fits_every_solve_to_one_optimum(family, coef):
    model = scaled_model(family, coef=coef)
    prob = Problem(model, PenaltySpec(family=Family.LASSO, lam=1.0))
    plain, squarem, outer = fit_all(prob)
    for res in (plain, squarem, outer):
        assert res.termination is not Termination.MAX_ITER
    assert np.all(np.diff(plain.trace) <= solver.DESCENT_SLACK)
    assert close(plain, squarem, 1e-10)
    # the lasso surrogate is the lasso itself, so one solve from the MLE is
    # the optimum as well
    for res in (outer, one_step_fit(prob, CONFIG)):
        assert close(res, plain, 1e-9)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=4),
    st.integers(0, 2**16),
    st.sampled_from(["gaussian", "logistic"]),
    st.sampled_from([Family.LASSO, Family.MCP]),
)
def test_every_solve_agrees_whatever_the_column_scales(log_scales, seed, family, penalty):
    model = scaled_model(family, 10.0 ** np.array(log_scales), seed)
    lam = 2.0 if family == "gaussian" else 0.5
    prob = Problem(model, PenaltySpec(family=penalty, lam=lam, a=3.0))
    plain, squarem, outer = fit_all(prob)
    assert np.all(np.diff(plain.trace) <= solver.DESCENT_SLACK)
    for res in (plain, squarem, outer):
        assert res.termination is not Termination.MAX_ITER
    assert close(plain, squarem, 1e-9)
    if penalty is Family.MCP:
        # MCP is not convex, so mm_outer may stop at another stationary point
        start = CoefficientVector.zeros(model.design.n_cols, True)
        assert outer.kkt_residual <= 1e-6 * max(1.0, np.max(np.abs(fid.gradient(model, start))))
        return
    assert close(outer, plain, 1e-9)
    try:
        fid.fit_mle(model)
    except ConvergenceError:
        return  # a separable logistic design has no MLE to take one step from
    assert close(one_step_fit(prob, CONFIG), plain, 1e-9)


@pytest.mark.parametrize("penalty", [Family.LASSO, Family.MCP])
@pytest.mark.parametrize("big", [1e2, 1e4])
def test_a_poisson_fit_follows_each_column_scale(big, penalty):
    # weights that ignore the columns' scales, |x_ij| / ||x_i||_1, let the
    # large column set every coordinate's curvature: on these designs the
    # plain fits then run to max_iter at scale 1e2, 1e-7 from squarem's
    # objective, and at 1e4 every fit overflows into ConvergenceError
    scales = np.array([1.0 / big, 1.0, big, 1.0])
    model = scaled_model("poisson", scales, coef=np.where(np.arange(4) < 3, 0.4, 0.0) / scales)
    prob = Problem(model, PenaltySpec(family=penalty, lam=2.0, a=3.0))
    plain, squarem, outer = fit_all(prob)
    for res in (plain, squarem, outer):
        assert res.termination is not Termination.MAX_ITER
    assert np.all(np.diff(plain.trace) <= solver.DESCENT_SLACK)
    assert close(plain, squarem, 1e-9)
    if penalty is Family.LASSO:
        assert close(outer, plain, 1e-9)
    else:
        start = CoefficientVector.zeros(4, True)
        assert outer.kkt_residual <= 1e-6 * np.max(np.abs(fid.gradient(model, start)))


def test_the_poisson_map_commutes_with_column_scaling():
    # scaling column j by c_j, and its adaptive-lasso weight alike, leaves the
    # majorizer's weights as they are, so the map at theta / c is the map at
    # theta divided by c; with weights |x_ij| / ||x_i||_1 a probe overflows here
    rng = np.random.default_rng(3)
    x = rng.standard_normal((40, 3))
    y = rng.poisson(np.exp(0.2 + x @ np.array([0.5, -0.3, 0.0]))).astype(float)
    c = np.array([1e-3, 1.0, 1e3])
    weights = np.array([0.5, 1.0, 2.0])

    def poisson_map(scale):
        model = FidelityModel(DesignMatrix(x * scale), Response("poisson", y))
        return mm_map(Problem(model, PenaltySpec(family=Family.ADAPTIVE_LASSO, lam=2.0, weights=weights * scale)))

    plain, scaled = poisson_map(np.ones(3)), poisson_map(c)
    c = np.concatenate([[1.0], c])
    for theta in 0.3 * rng.standard_normal((5, 4)):
        assert np.allclose(scaled(theta / c) * c, plain(theta), rtol=1e-12, atol=1e-15)


def designs():
    yield make_model("gaussian", n=40, p=5, seed=90)
    yield make_model("logistic", n=40, p=5, seed=91)
    yield scaled_model("gaussian")
    yield scaled_model("logistic")


@pytest.mark.parametrize("penalty", [Family.LASSO, Family.MCP])
@pytest.mark.parametrize("model", list(designs()), ids=["gaussian", "logistic", "scaled-gaussian", "scaled-logistic"])
def test_the_surrogate_at_the_per_coordinate_step_majorizes_and_touches(model, penalty):
    prob = Problem(model, PenaltySpec(family=penalty, lam=0.7))
    omega = mm_map(prob).omega
    assert omega.shape == (model.n_coef,)
    assert np.array_equal(omega, solver.STEP_SAFETY * 2.0 / fid.diagonal_bound(model))
    # coefficients of each column's own size, so that every column moves the fit
    size = np.sqrt(fid.diagonal_bound(model))
    rng = np.random.default_rng(92)

    def point():
        return CoefficientVector.from_augmented(3.0 * rng.standard_normal(model.n_coef) / size, True)

    for _ in range(20):
        alpha, beta = point(), point()
        at_alpha = total_objective(prob, alpha)
        assert glm_surrogate_value(prob, omega, alpha, alpha) == pytest.approx(at_alpha, rel=1e-12)
        assert glm_surrogate_value(prob, omega, alpha, beta) >= total_objective(prob, beta) - 1e-10 * abs(at_alpha)
        # the map minimizes the surrogate, with the gap sum_j kappa_j^2 / omega_j
        star = glm_map(prob, alpha.augmented(), omega)
        kappa = rng.standard_normal(model.n_coef) / size
        moved = CoefficientVector.from_augmented(star + kappa, True)
        gap = glm_surrogate_value(prob, omega, alpha, moved) - glm_surrogate_value(
            prob, omega, alpha, CoefficientVector.from_augmented(star, True)
        )
        assert gap >= float((kappa / omega) @ kappa) - 1e-10 * abs(at_alpha)


@pytest.mark.parametrize("seed", range(4))
def test_a_gaussian_fit_from_the_optimum_does_not_wander(seed):
    # the one-step start of the lasso lands within rounding of the optimum,
    # where the difference of two likelihood sums is rounding alone; the
    # gaussian majorization test is ||X d||^2 / 2 against the quadratic term,
    # exactly, so a step long enough to make the iterates oscillate fails it
    # and the fit stops in a few steps, after at most log2(BACKTRACK_START)
    # halvings of its first
    model = scaled_model("gaussian", coef=np.array([1e3, 1.0, 1e-3, 0.0]), seed=seed)
    prob = Problem(model, PenaltySpec(family=Family.LASSO, lam=1.0))
    res = solver.fit(prob, CONFIG, one_step_fit(prob, CONFIG).coef)
    zero = solver.fit(prob, CONFIG, CoefficientVector.zeros(4, True))
    assert res.outer_iters <= 5 and res.map_evals <= res.outer_iters + np.log2(solver.BACKTRACK_START)
    assert np.all(np.diff(res.trace) <= solver.DESCENT_SLACK)
    assert close(res, zero, 1e-12)
