"""Scenario generators: covariances, true coefficients, determinism."""
import hashlib
import math

import numpy as np
import pytest
from scipy.special import ndtri

from mist.exceptions import ValidationError
from mist.fidelity import ResponseFamily
from mist.penalties import Family, PenaltySpec
from mist.simlab import (
    ScenarioFamily,
    _ndtri,
    SimScenario,
    compare_solutions,
    covariance_ar1,
    covariance_equicorr,
    gen_dataset,
    model_from_dataset,
    true_coefficients,
)
from mist.solver import FitResult, Problem, SolverConfig, Termination, fit
from mist.fidelity import CoefficientVector


def test_covariance_ar1_examples():
    assert np.array_equal(covariance_ar1(3, 0.0), np.eye(3))
    assert np.allclose(covariance_ar1(2, 0.5), [[1.0, 0.5], [0.5, 1.0]])
    assert covariance_ar1(3, 0.5)[0, 2] == pytest.approx(0.25)


def test_covariance_equicorr_examples():
    assert np.allclose(covariance_equicorr(3, 0.0), np.eye(3) / 9.0)
    c = covariance_equicorr(2, 0.75)
    assert c[0, 0] == pytest.approx(1.0 / 9.0)
    assert c[0, 1] == pytest.approx(0.75 / 9.0)
    c1 = covariance_equicorr(3, 0.5, scale=1.0)
    assert c1[0, 1] == 0.5 and c1[2, 2] == 1.0


def test_covariance_validation():
    with pytest.raises(ValidationError):
        covariance_ar1(3, 1.0)
    with pytest.raises(ValidationError):
        covariance_equicorr(3, -0.1)


def test_linear_ex1_q_rule():
    s35 = SimScenario(family=ScenarioFamily.LINEAR_EX1, p=35, n=50, seed=1)
    assert s35.q == 9
    s81 = SimScenario(family=ScenarioFamily.LINEAR_EX1, p=81, n=50, seed=1)
    assert s81.q == 27
    beta = true_coefficients(s35)
    assert np.count_nonzero(beta) == 9
    assert np.all(beta[:9] == 3.0)


def test_logistic_ex2_coefficients():
    s = SimScenario(family=ScenarioFamily.LOGISTIC_EX2, p=100, q=25, n=50, seed=1)
    beta = true_coefficients(s)
    assert beta[0] == pytest.approx(-3.0)  # j = 1
    assert beta[1] == pytest.approx(3.0 * np.exp(-0.01), abs=1e-5)  # ~2.98504
    assert np.count_nonzero(beta) == 25


def test_replicate_seed_derivation():
    s = SimScenario(family=ScenarioFamily.LINEAR_EX1, p=9, n=20, seed=100)
    assert s.replicate(0).seed == 100
    assert s.replicate(3).seed == 100 ^ 3


def test_generation_is_deterministic():
    s = SimScenario(family=ScenarioFamily.LINEAR_EX1, p=18, n=40, seed=77, rho=0.5)
    a = gen_dataset(s)
    b = gen_dataset(s)
    assert np.array_equal(a.design.values, b.design.values)
    assert np.array_equal(a.response.y, b.response.y)
    c = gen_dataset(s.replicate(1))
    assert not np.array_equal(a.design.values, c.design.values)


def _same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


def test_ndtri_port_is_scipy_ndtri_bit_for_bit():
    u = np.random.Generator(np.random.Philox(2024)).random(1_000_000)
    u = np.clip(u, 1e-16, 1.0 - 1e-16)  # as _standard_normal clips them
    assert _same_bits(_ndtri(u), ndtri(u))
    tails = np.geomspace(1e-16, 0.2, 20_001)
    assert _same_bits(_ndtri(tails), ndtri(tails))
    assert _same_bits(_ndtri(1.0 - tails), ndtri(1.0 - tails))
    # the centre/tail edges and the P1/P2 edge x = sqrt(-2 log y) = 8
    edges = np.array([math.exp(-2.0), 1.0 - math.exp(-2.0), math.exp(-32.0)])
    edges = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
    assert _same_bits(_ndtri(edges), ndtri(edges))


# SHA-256 of the design and of the response arrays (y, then Cox time and
# status) at the CLI defaults p = 35, n = 100, seed 20260824, recorded while
# the draws came from scipy.special.ndtri
GOLDEN_DIGESTS = {
    "linear_ex1": (
        "1e94d2b6a9dbb3c7a677cbf8fc815d5b2ca9f6ae27ef764176929a8b399bbf8b",
        "e254b2c4ea257129610fdc310331dcb7a9805f57b74b7737bc3182fbd8b5f990",
    ),
    "logistic_ex2": (
        "6c08484d931e3561414d36dd444541fdcbdbbdbf30f7cb5916da29ce611269ee",
        "9555f36cdfd4a7cca13d21aad523b82d50aae933e2d3bcd4d99b47815671e5df",
    ),
    "cox_synthetic": (
        "1e94d2b6a9dbb3c7a677cbf8fc815d5b2ca9f6ae27ef764176929a8b399bbf8b",
        "2369a406cd4620f1549e8fa22359886b81555eceadd55c8b41c70a23b4cc08c6",
    ),
}


@pytest.mark.parametrize("family", sorted(GOLDEN_DIGESTS))
def test_gen_dataset_reproduces_the_golden_bytes(family):
    ds = gen_dataset(SimScenario(family=family, p=35, n=100, seed=20260824))
    r = ds.response
    response = [a for a in (r.y, r.time, r.status) if a is not None]
    digests = tuple(
        hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)).hexdigest()
        for arrays in ([ds.design.values], response)
    )
    assert digests == GOLDEN_DIGESTS[family]


def test_linear_ex1_noise_variance():
    # beta* = 0 configuration: response variance equals sigma^2
    s = SimScenario(family=ScenarioFamily.LINEAR_EX1, p=8, q=0, n=50_000, seed=5, sigma=1.5)
    ds = gen_dataset(s)
    assert np.var(ds.response.y) == pytest.approx(2.25, rel=0.05)


def test_ar1_empirical_covariance():
    s = SimScenario(family=ScenarioFamily.LINEAR_EX1, p=5, n=100_000, seed=9, rho=0.5)
    ds = gen_dataset(s)
    emp = np.cov(ds.design.values, rowvar=False)
    assert np.max(np.abs(emp - covariance_ar1(5, 0.5))) <= 0.02


def test_equicorr_empirical_covariance():
    s = SimScenario(family=ScenarioFamily.LOGISTIC_EX2, p=5, q=5, n=100_000, seed=10, rho=0.5)
    ds = gen_dataset(s)
    emp = np.cov(ds.design.values, rowvar=False)
    assert np.max(np.abs(emp - covariance_equicorr(5, 0.5))) <= 0.02


def test_cox_scenario_properties():
    s = SimScenario(family=ScenarioFamily.COX_SYNTHETIC, p=10, q=4, n=400, seed=12, rho=0.3)
    ds = gen_dataset(s)
    assert ds.response.family is ResponseFamily.COX
    assert not ds.design.has_intercept
    cens_rate = 1.0 - float(np.mean(ds.response.status))
    assert 0.25 <= cens_rate <= 0.55  # tuned toward 40%
    assert np.all(ds.response.time > 0)
    model = model_from_dataset(ds)  # constructible without error
    assert model.family is ResponseFamily.COX


def test_scenario_validation():
    with pytest.raises(ValidationError):
        SimScenario(family=ScenarioFamily.LINEAR_EX1, p=5, n=10, seed=1, rho=1.0)
    with pytest.raises(ValidationError):
        SimScenario(family=ScenarioFamily.LINEAR_EX1, p=5, q=9, n=10, seed=1)


def test_compare_solutions_examples():
    s = SimScenario(family=ScenarioFamily.LINEAR_EX1, p=9, n=60, seed=14)
    ds = gen_dataset(s)
    prob = Problem(model_from_dataset(ds), PenaltySpec(family=Family.LASSO, lam=1.0))
    cfg = SolverConfig(coef_tol=1e-9, obj_tol=1e-14)
    res = fit(prob, cfg, CoefficientVector.zeros(9, True))
    same = compare_solutions(res, res, prob)
    assert same.norm_diff == 0.0 and same.a_leq_b

    a = FitResult(
        coef=CoefficientVector(beta=np.zeros(9), intercept=0.0),
        objective=0.0, trace=np.array([0.0]), outer_iters=1, map_evals=1,
        kkt_residual=0.0, termination=Termination.COEF_TOL,
    )
    bvec = np.zeros(9)
    bvec[0], bvec[1] = 3.0, 4.0
    b = FitResult(
        coef=CoefficientVector(beta=bvec, intercept=0.0),
        objective=0.0, trace=np.array([0.0]), outer_iters=1, map_evals=1,
        kkt_residual=0.0, termination=Termination.COEF_TOL,
    )
    rec = compare_solutions(a, b, prob)
    assert rec.norm_diff == pytest.approx(5.0)
