"""Penalty values, derivatives, thresholds, admissibility, adaptive weights.

Derived reference values were frozen from independent oracles: numeric
quadrature of the published derivative formulas (scipy.integrate.quad) and
central finite differences of the closed-form values.  The quadrature
cross-checks run live in this file as well.  Values and derivatives are taken
from ``penalty_value_vec``/``penalty_derivative_vec``, the forms the fits
evaluate, at every coordinate of a spec.
"""
import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from mist.exceptions import ValidationError
from mist.penalties import (
    ADAPTIVE_FAMILIES,
    FLAT_TAIL_FAMILIES,
    LINEAR_FAMILIES,
    Family,
    PenaltySpec,
    compute_adaptive_weights,
    coordinate_penalty,
    kernels,
    penalty_derivative_vec,
    penalty_value_vec,
    threshold_vector,
    verify_p1,
    verify_p1_functions,
)

ALL_SPECS = [
    PenaltySpec(family=Family.LASSO, lam=1.5),
    PenaltySpec(family=Family.ADAPTIVE_LASSO, lam=1.5, weights=np.array([0.5, 2.0, 1.0])),
    PenaltySpec(family=Family.ELASTIC_NET, lam=1.5, epsilon=0.3),
    PenaltySpec(
        family=Family.ADAPTIVE_ELASTIC_NET, lam=1.5, epsilon=0.3, weights=np.array([1.0, 3.0, 0.2])
    ),
    PenaltySpec(family=Family.SCAD, lam=1.0, a=3.7),
    PenaltySpec(family=Family.MCP, lam=1.0, a=3.7),
    PenaltySpec(family=Family.GEMAN, lam=2.0, delta=1.0),
    PenaltySpec(family=Family.LOG, lam=1.0, delta=2.0),
]


def at(spec, r):
    """r at every coordinate of spec (three coordinates when it has no weights)."""
    n = 3 if spec.weights is None else spec.weights.shape[0]
    return np.full(n, float(r))


def value(spec, r):
    return penalty_value_vec(spec, at(spec, r))


def derivative(spec, r):
    return penalty_derivative_vec(spec, at(spec, r))


# -- spec validation -------------------------------------------------------


def test_lambda_must_be_positive():
    with pytest.raises(ValidationError):
        PenaltySpec(family=Family.LASSO, lam=0.0)
    with pytest.raises(ValidationError):
        PenaltySpec(family=Family.LASSO, lam=-1.0)


def test_scad_mcp_require_a_above_two():
    with pytest.raises(ValidationError):
        PenaltySpec(family=Family.SCAD, lam=1.0, a=2.0)
    with pytest.raises(ValidationError):
        PenaltySpec(family=Family.MCP, lam=1.0, a=1.5)


@pytest.mark.parametrize(
    "family, shape",
    [(Family.SCAD, "a"), (Family.MCP, "a"), (Family.GEMAN, "delta"), (Family.LOG, "delta")],
)
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_shape_constants_must_be_finite(family, shape, value):
    # an infinite a once made MCP the lasso and SCAD's value NaN; an infinite
    # delta made the Geman and log thresholds NaN
    with pytest.raises(ValidationError, match=f"{shape} must be finite"):
        PenaltySpec(family=family, lam=1.0, **{shape: value})
    with pytest.raises(ValidationError, match=f"{shape} must be finite"):
        PenaltySpec.from_json(json.dumps({"family": family.value, "lambda": 1.0, shape: value}))


def test_elastic_net_requires_positive_epsilon():
    with pytest.raises(ValidationError):
        PenaltySpec(family=Family.ELASTIC_NET, lam=1.0, epsilon=0.0)


def test_weights_only_for_adaptive_families():
    with pytest.raises(ValidationError):
        PenaltySpec(family=Family.LASSO, lam=1.0, weights=np.array([1.0]))
    with pytest.raises(ValidationError):
        PenaltySpec(family=Family.ADAPTIVE_LASSO, lam=1.0)  # missing weights


def test_infinite_weights_accepted():
    spec = PenaltySpec(family=Family.ADAPTIVE_LASSO, lam=1.0, weights=np.array([math.inf, 1.0]))
    assert value(spec, 0.0)[0] == 0.0
    assert value(spec, 0.5)[0] == math.inf
    assert derivative(spec, 0.0)[0] == math.inf


def test_json_round_trip_with_inf_weights():
    spec = PenaltySpec(
        family=Family.ADAPTIVE_ELASTIC_NET,
        lam=2.5,
        epsilon=0.1,
        weights=np.array([0.25, math.inf, 4.0]),
    )
    d = json.loads(spec.to_json())
    assert d["weights"][1] == "inf"
    back = PenaltySpec.from_json(spec.to_json())
    assert back.family == spec.family
    assert back.lam == spec.lam
    assert back.epsilon == spec.epsilon
    assert np.array_equal(back.weights, spec.weights)


# -- values and derivatives ------------------------------------------------


def test_value_at_zero_is_zero():
    for spec in ALL_SPECS:
        assert np.all(value(spec, 0.0) == 0.0)


def test_negative_r_rejected():
    with pytest.raises(ValidationError):
        value(ALL_SPECS[0], -0.1)
    with pytest.raises(ValidationError):
        derivative(ALL_SPECS[0], -0.1)


def test_scad_frozen_values():
    spec = PenaltySpec(family=Family.SCAD, lam=1.0, a=3.7)
    assert value(spec, 0.0)[0] == 0.0
    assert value(spec, 0.5)[0] == pytest.approx(0.5, abs=1e-12)
    assert value(spec, 10.0)[0] == pytest.approx(2.35, abs=1e-12)
    assert derivative(spec, 0.5)[0] == 1.0
    # (a*lam - r) / (a - 1) at r = 2: 1.7 / 2.7
    assert derivative(spec, 2.0)[0] == pytest.approx(1.7 / 2.7, abs=1e-12)


def test_mcp_frozen_values():
    spec = PenaltySpec(family=Family.MCP, lam=1.0, a=3.7)
    assert derivative(spec, 3.7)[0] == 0.0
    assert derivative(spec, 5.0)[0] == 0.0
    assert value(spec, 5.0)[0] == pytest.approx(3.7 / 2, abs=1e-12)
    assert value(spec, 1.0)[0] == pytest.approx(1.0 - 1.0 / 7.4, abs=1e-12)


def test_geman_log_frozen_values():
    geman = PenaltySpec(family=Family.GEMAN, lam=2.0, delta=1.0)
    assert value(geman, 1.0)[0] == pytest.approx(1.0, abs=1e-12)
    assert derivative(geman, 1.0)[0] == pytest.approx(0.5, abs=1e-12)
    logp = PenaltySpec(family=Family.LOG, lam=1.0, delta=2.0)
    assert value(logp, 1.0)[0] == pytest.approx(math.log(3.0), abs=1e-12)
    assert derivative(logp, 1.0)[0] == pytest.approx(2.0 / 3.0, abs=1e-12)


@pytest.mark.parametrize("r", [0.25, 0.5, 1.5, 2.0, 3.0, 5.0, 10.0])
@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family.value)
def test_value_is_quadrature_of_derivative(spec, r):
    # the value must integrate the derivative from 0 (independent oracle)
    for j, v in enumerate(value(spec, r)):
        val, err = quad(lambda u: derivative(spec, u)[j], 0.0, r, limit=200)
        assert err < 1e-7
        assert v == pytest.approx(val, abs=1e-7)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family.value)
def test_derivative_matches_finite_differences(spec):
    # away from the SCAD/MCP kinks at r in {lam, a*lam}
    kinks = {spec.lam, spec.a * spec.lam}
    h = 1e-6
    for r in np.geomspace(0.05, 8.0, 40):
        if any(abs(r - k) < 0.01 for k in kinks):
            continue
        fd = (value(spec, r + h) - value(spec, r - h)) / (2 * h)
        d = derivative(spec, r)
        assert np.all(np.abs(d - fd) <= 1e-6 * (1.0 + np.abs(d)))


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family.value)
def test_concave_linear_majorization(spec):
    # p(s) + p'(s)(r - s) >= p(r); equality for the linear families
    rng = np.random.default_rng(5)
    for _ in range(200):
        r, s = rng.uniform(0, 8, size=2)
        gap = value(spec, s) + derivative(spec, s) * (r - s) - value(spec, r)
        assert np.all(gap >= -1e-10)
        if spec.family in LINEAR_FAMILIES:
            assert np.all(np.abs(gap) <= 1e-10)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family.value)
def test_coordinate_penalty_is_the_vector_form(spec):
    # verify_p1 and the CLI grid must describe the function the fits minimize
    rng = np.random.default_rng(6)
    for r in np.concatenate([[0.0], rng.uniform(0, 8, size=50)]):
        v, d = value(spec, r), derivative(spec, r)
        for j in range(v.shape[0]):
            value_j, derivative_j = coordinate_penalty(spec, j)
            assert value_j(r) == v[j]
            assert derivative_j(r) == d[j]


def test_coordinate_penalty_of_a_pinned_coordinate():
    spec = PenaltySpec(family=Family.ADAPTIVE_LASSO, lam=1.0, weights=np.array([2.0, math.inf]))
    value_1, derivative_1 = coordinate_penalty(spec, 1)
    assert value_1(0.0) == 0.0
    assert value_1(0.5) == math.inf
    assert derivative_1(0.5) == math.inf
    assert coordinate_penalty(spec, 0)[0](0.5) == 1.0


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family.value)
def test_kernel_total_is_the_sum_of_the_values(spec):
    p = 3
    r = np.array([0.0, 0.7, 9.0])
    value, _, total = kernels(spec, p)
    want = math.fsum(value(r))
    assert abs(total(r) - want) <= 1e-15 * p * want


def test_kernel_total_of_a_pinned_weight():
    spec = PenaltySpec(family=Family.ADAPTIVE_LASSO, lam=1.0, weights=np.array([2.0, math.inf, 0.5]))
    total = kernels(spec, 3).total
    # a pinned coordinate adds 0 at the origin and +inf anywhere else
    assert total(np.array([0.5, 0.0, 2.0])) == 2.0
    assert total(np.array([0.5, 1e-300, 2.0])) == math.inf


@pytest.mark.parametrize("j", [-1, 2])
def test_coordinate_penalty_outside_the_weights_is_rejected(j):
    spec = PenaltySpec(family=Family.ADAPTIVE_LASSO, lam=1.0, weights=np.array([2.0, 1.0]))
    with pytest.raises(ValidationError, match="outside the weight vector"):
        coordinate_penalty(spec, j)


def piecewise(family, lam, a, r):
    """The SCAD or MCP value and derivative as published, one piece at a time."""
    with np.errstate(invalid="ignore"):  # the unused middle piece at r = inf
        if family is Family.SCAD:
            mid = (2 * a * lam * r - r * r - lam * lam) / (2 * (a - 1))
            value = np.where(r <= lam, lam * r, np.where(r <= a * lam, mid, lam * lam * (a + 1) / 2))
            derivative = np.where(r <= lam, lam, np.where(r <= a * lam, (a * lam - r) / (a - 1), 0.0))
        else:
            value = np.where(r <= a * lam, lam * r - r * r / (2 * a), a * lam * lam / 2)
            derivative = np.where(r <= a * lam, lam - r / a, 0.0)
    return value, derivative


@pytest.mark.parametrize("family", [Family.SCAD, Family.MCP])
@pytest.mark.parametrize("lam,a", [(0.05, 2.01), (0.3, 3.7), (1.0, 3.0), (1.7, 12.5), (40.0, 3.7)])
def test_flat_tail_kernels_are_the_piecewise_definitions(family, lam, a):
    spec = PenaltySpec(family=family, lam=lam, a=a)
    al = a * lam
    r = np.concatenate([
        [0.0, lam, al, 10.0 * al, math.inf],
        np.nextafter(lam, [0.0, math.inf]),
        np.nextafter(al, [0.0, math.inf]),
        np.linspace(0.0, 2.0 * al, 2001),
    ])
    value, derivative, total = kernels(spec, r.size)
    got_v, got_d = value(r), derivative(r)
    want_v, want_d = piecewise(family, lam, a, r)
    # within 8 units in the last place of the published form, which rounds
    # several times itself; exact where it is 0
    for got, want in ((got_v, want_v), (got_d, want_d)):
        assert np.all(np.abs(got - want) <= 8.0 * np.spacing(np.abs(want)))
    # the objective's sum, taken in one call, is the sum of the values
    assert abs(total(r) - math.fsum(want_v)) <= 1e-14 * math.fsum(want_v)
    assert derivative(np.array([0.0]))[0] == lam
    assert np.all(derivative(r[r >= al]) == 0.0)
    assert np.all(value(r[r >= al]) == value(np.array([al]))[0])
    grid = np.unique(np.concatenate([GRID, [lam, al, 2.0 * al]]))
    assert verify_p1(spec, grid).all_pass


# -- threshold vectors -----------------------------------------------------


def test_threshold_vector_lasso_constant():
    spec = PenaltySpec(family=Family.LASSO, lam=2.0)
    tau = threshold_vector(spec, np.array([5.0, -5.0, 0.0]))
    assert np.array_equal(tau, np.array([2.0, 2.0, 2.0]))


def test_threshold_vector_scad():
    spec = PenaltySpec(family=Family.SCAD, lam=1.0, a=3.7)
    tau = threshold_vector(spec, np.array([0.5, 2.0, 10.0]))
    assert tau[0] == 1.0
    assert tau[1] == pytest.approx(1.7 / 2.7, abs=1e-5)
    assert tau[2] == 0.0


def test_threshold_vector_empty():
    spec = PenaltySpec(family=Family.LASSO, lam=1.0)
    assert threshold_vector(spec, np.array([])).shape == (0,)


def test_threshold_vector_weight_length_mismatch():
    spec = PenaltySpec(family=Family.ADAPTIVE_LASSO, lam=1.0, weights=np.array([1.0, 2.0]))
    with pytest.raises(ValidationError):
        threshold_vector(spec, np.array([1.0, 2.0, 3.0]))


# -- admissibility checks --------------------------------------------------


GRID = np.geomspace(1e-4, 10.0, 1000)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family.value)
def test_all_families_pass_p1(spec):
    j = 0
    report = verify_p1(spec, GRID, j=j)
    assert report.all_pass, report


def test_convex_penalty_fails_monotone_derivative_clause():
    report = verify_p1_functions(lambda r: r * r, lambda r: 2.0 * r, GRID)
    assert not report.nonincreasing_derivative.passed
    assert report.positive_value.passed
    # a derivative vanishing at 0 also fails the positive-slope clause
    assert not report.finite_positive_slope_at_zero.passed
    assert not report.all_pass


def test_p1_rejects_bad_grid():
    spec = ALL_SPECS[0]
    with pytest.raises(ValidationError):
        verify_p1(spec, [])
    with pytest.raises(ValidationError):
        verify_p1(spec, [1.0, 0.5])
    with pytest.raises(ValidationError):
        verify_p1(spec, [-1.0, 1.0])


# -- adaptive weights ------------------------------------------------------


def test_adaptive_weights_examples():
    assert compute_adaptive_weights(np.array([2.0]), 1.0) == pytest.approx([0.5])
    w = compute_adaptive_weights(np.array([0.0, 1.0]), 3.0)
    assert math.isinf(w[0]) and w[1] == 1.0
    assert compute_adaptive_weights(np.array([-4.0]), 0.5) == pytest.approx([0.5])


def test_adaptive_weights_require_positive_gamma():
    with pytest.raises(ValidationError):
        compute_adaptive_weights(np.array([1.0]), 0.0)
