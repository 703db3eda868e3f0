"""Likelihoods, gradients, curvature bounds, Poisson majorizer, MLE."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fd_gradient, kernel_nll, kernel_score, make_model, random_coef
from mist.exceptions import ConvergenceError, NotGloballyLipschitz, ValidationError
from mist import fidelity as fid
from mist.fidelity import (
    CoefficientVector,
    DesignMatrix,
    FidelityModel,
    Response,
    ResponseFamily,
    curvature_bound,
    fit_mle,
    gradient,
    hessian,
    neg_loglik,
    poisson_majorizer_component,
    poisson_weights,
    spectral_norm,
)

FAMILIES = ["gaussian", "logistic", "poisson", "cox"]


# -- construction / validation ---------------------------------------------


def test_design_rejects_nonfinite():
    with pytest.raises(ValidationError):
        DesignMatrix(np.array([[1.0, np.nan]]))


def test_logistic_response_range_checked():
    with pytest.raises(ValidationError):
        Response(family=ResponseFamily.LOGISTIC, y=np.array([0.0, 2.0]))


def test_poisson_response_must_be_counts():
    with pytest.raises(ValidationError):
        Response(family=ResponseFamily.POISSON, y=np.array([1.5]))
    with pytest.raises(ValidationError):
        Response(family=ResponseFamily.POISSON, y=np.array([-1.0]))


@pytest.mark.parametrize(
    "family, arrays, field",
    [
        ("poisson", {"y": [1.0, math.inf, 0.0]}, "poisson response"),
        ("poisson", {"y": [1.0, 2.0, 0.0], "offsets": [1.0, math.nan, 1.0]}, "poisson offsets"),
        ("poisson", {"y": [1.0, 2.0, 0.0], "offsets": [1.0, math.inf, 1.0]}, "poisson offsets"),
        ("cox", {"y": [1.0, 0.0, 1.0], "time": [1.0, math.nan, 3.0], "status": [1.0, 0.0, 1.0]}, "cox times"),
        ("cox", {"y": [1.0, 0.0, 1.0], "time": [1.0, math.inf, 3.0], "status": [1.0, 0.0, 1.0]}, "cox times"),
    ],
    ids=["poisson-inf-count", "poisson-nan-offset", "poisson-inf-offset", "cox-nan-time", "cox-inf-time"],
)
def test_a_non_finite_response_input_is_rejected_by_name(family, arrays, field):
    # a NaN sorts nowhere in a Cox risk-set order, and an infinite count or
    # offset makes the Poisson likelihood infinite: the response refuses them
    with pytest.raises(ValidationError, match=f"^{field} must be finite"):
        Response(family=family, **{k: np.array(v) for k, v in arrays.items()})


def test_poisson_default_offsets_are_ones():
    r = Response(family=ResponseFamily.POISSON, y=np.array([0.0, 3.0]))
    assert np.array_equal(r.offsets, np.ones(2))


def test_cox_requires_event():
    with pytest.raises(ValidationError):
        Response(
            family=ResponseFamily.COX,
            y=np.zeros(2),
            time=np.array([1.0, 2.0]),
            status=np.zeros(2),
        )


def test_cox_forbids_intercept():
    resp = Response(
        family=ResponseFamily.COX,
        y=np.array([1.0, 0.0]),
        time=np.array([1.0, 2.0]),
        status=np.array([1.0, 0.0]),
    )
    with pytest.raises(ValidationError):
        FidelityModel(DesignMatrix(np.ones((2, 1)), has_intercept=True), resp)


def test_dimension_mismatch_rejected():
    resp = Response(family=ResponseFamily.GAUSSIAN, y=np.zeros(3))
    with pytest.raises(ValidationError):
        FidelityModel(DesignMatrix(np.ones((2, 1))), resp)


# -- likelihood hand examples ----------------------------------------------


def test_gaussian_exact_fit_is_zero():
    m = FidelityModel(
        DesignMatrix(np.array([[1.0], [0.0]]), has_intercept=False),
        Response(family=ResponseFamily.GAUSSIAN, y=np.array([1.0, 0.0])),
    )
    assert neg_loglik(m, CoefficientVector(beta=np.array([1.0]))) == 0.0


def test_logistic_single_row_log2():
    m = FidelityModel(
        DesignMatrix(np.zeros((1, 1)), has_intercept=True),
        Response(family=ResponseFamily.LOGISTIC, y=np.array([1.0])),
    )
    v = neg_loglik(m, CoefficientVector(beta=np.array([0.0]), intercept=0.0))
    assert v == pytest.approx(math.log(2.0), abs=1e-14)


def test_logistic_nll_is_summed_per_element_at_a_large_linear_predictor():
    # every row is classified with a margin of 30 to 40, so each term
    # log(1 + e^eta) - y eta is at most e^-30 while log(1 + e^eta) and y eta
    # are each near 35 where y = 1
    rng = np.random.default_rng(90)
    n = 200
    x = rng.uniform(30.0, 40.0, n) * rng.choice([-1.0, 1.0], n)
    y = (x > 0.0).astype(float)
    model = FidelityModel(DesignMatrix(x[:, None], has_intercept=False), Response(family=ResponseFamily.LOGISTIC, y=y))
    terms = np.logaddexp(0.0, x) - y * x  # eta = x at beta = 1
    exact = math.fsum(terms)
    # the rounding bound of any order of summing n terms of one sign
    tol = n * np.finfo(float).eps * exact
    assert abs(neg_loglik(model, CoefficientVector(beta=np.array([1.0]))) - exact) <= tol
    # the split form sums two totals near 3500 and cancels them
    split = float(np.add.reduce(np.logaddexp(0.0, x))) - float(y.dot(x))
    assert abs(split - exact) > 100.0 * tol


def test_cox_two_subject_log2():
    # two events at distinct times, beta = 0: -[(0 - log 2) + (0 - log 1)]
    m = FidelityModel(
        DesignMatrix(np.array([[1.0], [0.0]]), has_intercept=False),
        Response(
            family=ResponseFamily.COX,
            y=np.array([1.0, 1.0]),
            time=np.array([1.0, 2.0]),
            status=np.array([1.0, 1.0]),
        ),
    )
    v = neg_loglik(m, CoefficientVector(beta=np.array([0.0])))
    assert v == pytest.approx(math.log(2.0), abs=1e-12)


def test_cox_breslow_ties_share_denominator():
    # three subjects, two tied events at t=1: both events see the full risk set
    m = FidelityModel(
        DesignMatrix(np.zeros((3, 1)), has_intercept=False),
        Response(
            family=ResponseFamily.COX,
            y=np.array([1.0, 1.0, 0.0]),
            time=np.array([1.0, 1.0, 2.0]),
            status=np.array([1.0, 1.0, 0.0]),
        ),
    )
    v = neg_loglik(m, CoefficientVector(beta=np.array([0.0])))
    assert v == pytest.approx(2.0 * math.log(3.0), abs=1e-12)


def test_cox_tie_blocks_match_loop_reference():
    rng = np.random.default_rng(41)
    for ties in (1, 2, 3, 7):
        n = 20
        time = np.floor(rng.permutation(n) / ties) + 1.0
        status = (rng.random(n) < 0.7).astype(float)
        status[0] = 1.0
        m = FidelityModel(
            DesignMatrix(rng.standard_normal((n, 2)), has_intercept=False),
            Response(family=ResponseFamily.COX, y=status, time=time, status=status),
        )
        t = m.response.time[m._cox_order]
        want = np.empty(n, dtype=int)
        i = 0
        while i < n:
            j = i
            while j + 1 < n and t[j + 1] == t[i]:
                j += 1
            want[i : j + 1] = j
            i = j + 1
        assert np.array_equal(m._cox_event_last, want[m.response.status[m._cox_order] == 1.0])


def test_poisson_gradient_hand_example():
    m = FidelityModel(
        DesignMatrix(np.array([[1.0]]), has_intercept=False),
        Response(family=ResponseFamily.POISSON, y=np.array([3.0])),
    )
    g = gradient(m, CoefficientVector(beta=np.array([0.0])))
    assert g == pytest.approx([2.0], abs=1e-14)


def test_gaussian_gradient_hand_example():
    m = FidelityModel(
        DesignMatrix(np.eye(2), has_intercept=False),
        Response(family=ResponseFamily.GAUSSIAN, y=np.array([1.0, 2.0])),
    )
    g = gradient(m, CoefficientVector(beta=np.zeros(2)))
    assert np.allclose(g, [1.0, 2.0], atol=1e-14)


def test_poisson_overflow_raises():
    m = FidelityModel(
        DesignMatrix(np.array([[1.0]]), has_intercept=False),
        Response(family=ResponseFamily.POISSON, y=np.array([1.0])),
    )
    with pytest.raises(OverflowError):
        neg_loglik(m, CoefficientVector(beta=np.array([800.0])))


def test_guard_exp_passes_empty_and_nan_and_names_an_overflow():
    assert fid._guard_exp(np.array([]), "ctx").shape == (0,)
    assert fid._guard_exp(np.zeros((3, 0)), "ctx").shape == (3, 0)
    got = fid._guard_exp(np.array([np.nan, 0.0]), "ctx")
    assert math.isnan(got[0]) and got[1] == 1.0
    assert fid._guard_exp(np.array([700.0]), "ctx")[0] == math.exp(700.0)
    msg = "ctx: linear predictor too large (max 701); iterate diverged"
    with pytest.raises(OverflowError) as err:
        fid._guard_exp(np.array([[1.0, 701.0], [0.0, -5.0]]), "ctx")
    assert str(err.value) == msg


# -- gradient and hessian against finite differences -----------------------


@pytest.mark.parametrize("family", FAMILIES)
def test_gradient_matches_finite_differences(family):
    for seed in range(50):
        model = make_model(family, n=12 + seed % 8, p=2 + seed % 4, seed=seed)
        coef = random_coef(model, seed + 1000)

        def f(theta):
            return neg_loglik(
                model, CoefficientVector.from_augmented(theta, model.has_intercept)
            )

        theta = coef.augmented()
        fd = fd_gradient(f, theta)
        g = -gradient(model, coef)  # fidelity gradient is minus the score
        denom = max(1.0, float(np.linalg.norm(g)))
        assert np.linalg.norm(fd - g) / denom <= 1e-6


@pytest.mark.parametrize("family", FAMILIES)
def test_hessian_matches_gradient_differences(family):
    model = make_model(family, n=15, p=3, seed=42)
    coef = random_coef(model, 43)
    theta = coef.augmented()
    h = 1e-5
    H = hessian(model, coef)
    for i in range(theta.shape[0]):
        e = np.zeros_like(theta)
        e[i] = h
        gp = -gradient(model, CoefficientVector.from_augmented(theta + e, model.has_intercept))
        gm = -gradient(model, CoefficientVector.from_augmented(theta - e, model.has_intercept))
        col = (gp - gm) / (2 * h)
        assert np.allclose(col, H[:, i], atol=1e-5 * (1 + np.abs(H[:, i]).max()))


@pytest.mark.parametrize("family", ["gaussian", "logistic", "cox"])
def test_neg_loglik_midpoint_convex(family):
    rng = np.random.default_rng(7)
    model = make_model(family, n=20, p=3, seed=9)
    for _ in range(20):
        a = random_coef(model, int(rng.integers(1 << 30)))
        b = random_coef(model, int(rng.integers(1 << 30)))
        mid = CoefficientVector.from_augmented(
            0.5 * (a.augmented() + b.augmented()), model.has_intercept
        )
        lhs = neg_loglik(model, mid)
        rhs = 0.5 * (neg_loglik(model, a) + neg_loglik(model, b))
        assert lhs <= rhs + 1e-10


def _tied(model, tie):
    """The cox model with its times coarsened into blocks of ``tie`` subjects."""
    r = model.response
    time = np.floor(np.argsort(np.argsort(r.time)) / tie) + 1.0
    return FidelityModel(model.design, Response(family="cox", y=r.y, time=time, status=r.status))


def _cox_neg_hessian_loop(model, eta):
    """The Breslow information matrix by a loop over the events, each risk
    set taken by time."""
    t, x = model.response.time, model._xt
    w = np.exp(eta - np.max(eta))
    h = np.zeros((x.shape[1], x.shape[1]))
    for i in np.flatnonzero(model.response.status == 1.0):
        risk = t >= t[i]
        wr, xr = w[risk], x[risk]
        d = np.sum(wr)
        xbar = wr @ xr / d
        h += (wr[:, None] * xr).T @ xr / d - np.outer(xbar, xbar)
    return h


@pytest.mark.parametrize("tie", [1, 3])
def test_cox_neg_hessian_matches_the_event_loop(tie):
    for seed in range(5):
        model = _tied(make_model("cox", n=40, p=4, seed=300 + seed), tie)
        eta = model._xt @ random_coef(model, seed).augmented()
        want = _cox_neg_hessian_loop(model, eta)
        lik = fid.kernels(model)
        got = lik.hessian(eta, lik.parts(eta))
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_cox_score_is_event_sum_identity():
    # the score is the sum over events of (x_i - risk-set mean), ties and all
    for tie, scale in ((1, 0.0), (1, 0.5), (3, 0.0), (3, 0.5)):
        model = _tied(make_model("cox", n=25, p=3, seed=3), tie)
        coef = random_coef(model, seed=4, scale=scale)
        g = gradient(model, coef)
        t, s, X = model.response.time, model.response.status, model.design.values
        w = np.exp(X @ coef.beta)
        expected = np.zeros(3)
        for i in np.nonzero(s == 1.0)[0]:
            risk = t >= t[i]
            expected += X[i] - w[risk] @ X[risk] / np.sum(w[risk])
        assert np.allclose(g, expected, atol=1e-10)


def _running_sum_score(model, eta):
    """The cox score from running sums of w x over the design sorted by time."""
    order = np.argsort(-model.response.time, kind="stable")
    t = model.response.time[order]
    ends = np.append(np.flatnonzero(t[1:] != t[:-1]), t.shape[0] - 1)
    last = np.repeat(ends, np.diff(ends, prepend=-1))
    x, event = model._xt[order], model.response.status[order] == 1.0
    e = eta[order]
    w = np.exp(e - np.max(e))
    cum_w, cum_wx = np.cumsum(w), np.cumsum(w[:, None] * x, axis=0)
    xbar = cum_wx[last[event]] / cum_w[last[event], None]
    return np.sum(x[event] - xbar, axis=0)


def _tied_cox_designs(count, span):
    """30 x 3 cox designs on 15 tied times; eta spans ``span`` when given."""
    rng = np.random.default_rng(97)
    for _ in range(count):
        x = rng.standard_normal((30, 3))
        time = np.floor(rng.permutation(30) / 2.0) + 1.0
        status = (rng.random(30) < 0.7).astype(float)
        status[0] = 1.0
        model = FidelityModel(
            DesignMatrix(x, has_intercept=False),
            Response(family="cox", y=status, time=time, status=status),
        )
        eta = x @ rng.standard_normal(3)
        if span is not None:
            eta *= span / np.ptp(eta)
        yield model, eta


def test_cox_score_matches_the_running_sum_score():
    for model, eta in _tied_cox_designs(200, None):
        want = _running_sum_score(model, eta)
        got = kernel_score(model, eta)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_cox_score_is_finite_wherever_the_running_sum_score_is():
    # late risk sets hold only weights e^(eta - max eta) near e^-1000, so their
    # sums D_i are subnormal or zero, and 1/D_i would overflow
    finite = 0
    for model, eta in _tied_cox_designs(300, 1000.0):
        with np.errstate(all="ignore"):
            want = _running_sum_score(model, eta)
            got = kernel_score(model, eta)
        if np.all(np.isfinite(want)):
            finite += 1
            assert np.all(np.isfinite(got))
    assert 0 < finite < 300


def test_cox_likelihood_and_score_match_per_event_references_on_a_wide_eta_span():
    # each event's risk set taken by time and normalized by its own max eta,
    # so no weight underflows where the event's own terms live
    for model, eta in _tied_cox_designs(300, 1000.0):
        t, x = model.response.time, model._xt
        nll, score = 0.0, np.zeros(x.shape[1])
        for i in np.flatnonzero(model.response.status == 1.0):
            risk = t >= t[i]
            nll += np.logaddexp.reduce(eta[risk]) - eta[i]
            w = np.exp(eta[risk] - np.max(eta[risk]))
            score += x[i] - w @ x[risk] / np.sum(w)
        got_nll, got_score = kernel_nll(model, eta), kernel_score(model, eta)
        assert math.isfinite(got_nll) and np.all(np.isfinite(got_score))
        assert abs(got_nll - nll) <= 1e-13 * abs(nll)
        assert np.linalg.norm(got_score - score) <= 1e-10 * (1.0 + np.linalg.norm(score))


def _slotwise_cox_risk_mass(model, parts):
    """w a in row order with one log-domain slot per sorted row: each event's
    -log D_i folded into the slot where its risk set ends, a reverse
    cumulative log-sum over all n slots, and a scatter back to row order."""
    e, log_d = parts
    log_c = np.full(e.shape[0], -np.inf)
    np.logaddexp.at(log_c, model._cox_event_last, -log_d)
    wa = np.empty_like(e)
    wa[model._cox_order] = np.exp(e + np.logaddexp.accumulate(log_c[::-1])[::-1])
    return wa


def _cox_model(x, time, status):
    return FidelityModel(
        DesignMatrix(x, has_intercept=False),
        Response(family="cox", y=status, time=time, status=status),
    )


def _cox_bit_designs():
    """Cox designs and linear predictors on which the block score must match
    the slot-per-row score bit for bit."""
    yield from _tied_cox_designs(200, None)
    yield from _tied_cox_designs(300, 1000.0)
    rng = np.random.default_rng(98)
    for n in (1, 2, 17, 40):
        x = rng.standard_normal((n, 3))
        status = (rng.random(n) < 0.6).astype(float)
        status[-1] = 1.0
        designs = [
            rng.random(n) + 0.5,  # untied
            np.full(n, 2.0),  # one time shared by every subject
        ]
        for time in designs:
            for scale in (0.1, 1.0, 30.0):
                yield _cox_model(x, time, status), x @ rng.standard_normal(3) * scale
        # a single event
        single = np.zeros(n)
        single[rng.integers(n)] = 1.0
        yield _cox_model(x, rng.random(n) + 0.5, single), x @ rng.standard_normal(3)
    # the earliest times all censored: the last sorted rows lie in no risk
    # set and read the -inf slot
    x = rng.standard_normal((30, 3))
    time = np.floor(rng.permutation(30) / 3.0) + 1.0
    status = np.where(time <= 3.0, 0.0, 1.0)
    model = _cox_model(x, time, status)
    assert np.any(model._cox_pos == model._cox_starts.shape[0])
    yield model, x @ rng.standard_normal(3)
    # a restricted model shares the full model's risk-set blocks
    x = rng.standard_normal((30, 5))
    status = (rng.random(30) < 0.7).astype(float)
    status[0] = 1.0
    sub = _cox_model(x, np.floor(rng.permutation(30) / 2.0) + 1.0, status).restrict(np.array([0, 2, 4]))
    yield sub, sub._xt @ rng.standard_normal(3)


def test_the_cox_block_score_and_hessian_are_the_slot_per_row_bits():
    for model, eta in _cox_bit_designs():
        lik = fid.kernels(model)
        with np.errstate(all="ignore"):
            parts = lik.parts(eta)
            wa = _slotwise_cox_risk_mass(model, parts)
            e, log_d = parts
            shift = e.max()
            wx = np.exp(e - shift)[:, None] * model._xt[model._cox_order]
            xbar = np.cumsum(wx, axis=0)[model._cox_event_last] / np.exp(log_d - shift)[:, None]
            want_hessian = model._xt.T @ (wa[:, None] * model._xt) - xbar.T @ xbar
            got_hessian = lik.hessian(eta, parts)
        assert lik.residual(eta, parts).tobytes() == (model.response.status - wa).tobytes()
        assert got_hessian.tobytes() == want_hessian.tobytes()


@pytest.mark.parametrize("family", FAMILIES)
def test_the_public_likelihood_functions_are_the_kernels_bit_for_bit(family):
    # one set of parts at eta serves the likelihood, the score and the Hessian
    model = make_model(family, n=40, p=4, seed=95)
    lik = fid.kernels(model)
    for seed in range(3):
        coef = random_coef(model, seed=96 + seed, scale=0.8)
        eta = model._xt @ coef.augmented()
        parts = lik.parts(eta)
        assert neg_loglik(model, coef) == lik.nll(eta, parts)
        assert np.array_equal(gradient(model, coef), model._xt.T @ lik.residual(eta, parts))
        assert np.array_equal(hessian(model, coef), lik.hessian(eta, parts))
    if family == "poisson":
        with pytest.raises(NotGloballyLipschitz):
            lik.bound()
    else:
        assert curvature_bound(model) == lik.bound()


# -- restricted models -----------------------------------------------------


@pytest.mark.parametrize("family", ["gaussian", "cox"])
def test_restrict_shares_the_response_and_matches_a_fresh_restricted_model(family):
    model = make_model(family, n=40, p=7, seed=90)
    if family == "cox":
        model = _tied(model, 3)
    cols = np.array([1, 3, 4, 6])
    sub = model.restrict(cols)
    fresh = FidelityModel(DesignMatrix(model.design.values[:, cols], model.has_intercept), model.response)
    assert sub.response is model.response
    assert sub.design.n_cols == 4 and sub.n_coef == fresh.n_coef
    assert np.array_equal(sub._xt, fresh._xt)
    if family == "cox":
        for name in ("_cox_order", "_cox_event", "_cox_event_last", "_cox_starts", "_cox_pos"):
            assert getattr(sub, name) is getattr(model, name)
    coef = random_coef(fresh, seed=91)
    assert neg_loglik(sub, coef) == neg_loglik(fresh, coef)
    assert np.array_equal(gradient(sub, coef), gradient(fresh, coef))
    # zeros outside the columns: the full model's likelihood at the embedded point
    beta = np.zeros(7)
    beta[cols] = coef.beta
    full = CoefficientVector(beta=beta, intercept=coef.intercept)
    assert neg_loglik(sub, coef) == pytest.approx(neg_loglik(model, full), rel=1e-14)


# -- gradients on adversarial designs --------------------------------------


def _adversarial_model(family, seed):
    """±1 columns, 0/1 indicators and an all-zero column; tied cox times."""
    rng = np.random.default_rng(seed)
    n = 24
    x = np.column_stack([
        rng.choice([-1.0, 1.0], n),
        rng.choice([-1.0, 1.0], n),
        (rng.random(n) < 0.3).astype(float),
        (rng.random(n) < 0.7).astype(float),
        np.zeros(n),
    ])
    intercept = family != "cox"
    if family == "gaussian":
        resp = Response(family=family, y=rng.standard_normal(n))
    elif family == "logistic":
        resp = Response(family=family, y=(rng.random(n) < 0.5).astype(float))
    elif family == "poisson":
        resp = Response(family=family, y=rng.poisson(2.0, n).astype(float))
    else:
        status = (rng.random(n) < 0.7).astype(float)
        status[0] = 1.0
        time = rng.integers(1, 6, n).astype(float)
        resp = Response(family=family, y=status, time=time, status=status)
    return FidelityModel(DesignMatrix(x, has_intercept=intercept), resp)


@pytest.mark.parametrize("family", FAMILIES)
def test_gradient_matches_central_differences_on_adversarial_designs(family):
    for seed in range(20):
        model = _adversarial_model(family, seed)
        theta = random_coef(model, seed + 500, scale=0.8).augmented()

        def f(th):
            return kernel_nll(model, model._xt @ th)

        g = -kernel_score(model, model._xt @ theta)
        fd = fd_gradient(f, theta)
        assert np.linalg.norm(fd - g) <= 1e-6 * max(1.0, float(np.linalg.norm(g)))
        assert g[-1] == 0.0  # the all-zero column has a zero score


# -- spectral norm and curvature -------------------------------------------


def test_spectral_norm_diagonal():
    d = DesignMatrix(np.diag([3.0, 1.0]), has_intercept=False)
    assert spectral_norm(d) == pytest.approx(9.0, rel=1e-8)


def test_spectral_norm_rank_one():
    d = DesignMatrix(np.ones((2, 2)), has_intercept=False)
    assert spectral_norm(d) == pytest.approx(4.0, rel=1e-8)


def test_spectral_norm_scalar():
    d = DesignMatrix(np.array([[2.0]]), has_intercept=False)
    assert spectral_norm(d) == pytest.approx(4.0, rel=1e-10)


def test_spectral_norm_matches_eigendecomposition():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((30, 6))
    d = DesignMatrix(X, has_intercept=True)
    dense = np.linalg.eigvalsh(d.augmented().T @ d.augmented()).max()
    assert spectral_norm(d) == pytest.approx(dense, rel=1e-7)


def test_spectral_norm_of_a_collinear_design_whose_columns_sum_to_zero():
    # X 1 = 0: power iteration from the all-ones vector read 0.0 here
    d = DesignMatrix(np.tile([1.0, -1.0], (30, 1)), has_intercept=False)
    assert spectral_norm(d) == pytest.approx(60.0, rel=1e-12)
    model = FidelityModel(d, Response(family="gaussian", y=np.linspace(-1.0, 1.0, 30)))
    assert curvature_bound(model) == pytest.approx(60.0, rel=1e-12)


@st.composite
def structured_designs(draw):
    """Designs of +-1 columns, 0/1 indicators or Gaussian entries, p > n included."""
    n = draw(st.integers(1, 12))
    p = draw(st.integers(1, 16))
    kind = draw(st.sampled_from(["signs", "indicators", "gaussian"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "signs":
        x = rng.choice([-1.0, 1.0], size=(n, p))
    elif kind == "indicators":
        x = (rng.random((n, p)) < 0.5).astype(float)
    else:
        x = rng.standard_normal((n, p))
    return DesignMatrix(x, has_intercept=draw(st.booleans()))


@settings(max_examples=80, deadline=None)
@given(structured_designs())
def test_spectral_norm_is_the_top_gram_eigenvalue(design):
    xt = design.augmented()
    want = np.linalg.eigvalsh(xt.T @ xt)[-1]
    assert spectral_norm(design) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_curvature_bound_gaussian_identity():
    m = FidelityModel(
        DesignMatrix(np.eye(3), has_intercept=False),
        Response(family=ResponseFamily.GAUSSIAN, y=np.zeros(3)),
    )
    assert curvature_bound(m) == pytest.approx(1.0, rel=1e-8)


def test_curvature_bound_logistic_quarter():
    m = FidelityModel(
        DesignMatrix(np.eye(3), has_intercept=False),
        Response(family=ResponseFamily.LOGISTIC, y=np.array([0.0, 1.0, 0.0])),
    )
    assert curvature_bound(m) == pytest.approx(0.25, rel=1e-8)


def test_curvature_bound_cox_events_times_rownorm():
    m = FidelityModel(
        DesignMatrix(np.array([[1.0], [0.0]]), has_intercept=False),
        Response(
            family=ResponseFamily.COX,
            y=np.array([1.0, 1.0]),
            time=np.array([1.0, 2.0]),
            status=np.array([1.0, 1.0]),
        ),
    )
    assert curvature_bound(m) == pytest.approx(2.0)


def test_curvature_bound_poisson_raises():
    m = make_model("poisson", n=10, p=2, seed=0)
    with pytest.raises(NotGloballyLipschitz):
        curvature_bound(m)


def test_curvature_dominates_hessian_at_random_points():
    for family in ("gaussian", "logistic", "cox"):
        model = make_model(family, n=20, p=3, seed=17)
        bound = curvature_bound(model)
        for seed in range(5):
            coef = random_coef(model, seed)
            lam_max = np.linalg.eigvalsh(hessian(model, coef)).max()
            assert lam_max <= bound * (1 + 1e-9)


def test_majorization_inequality_quadratic_bound():
    # -l(b) <= -l(a) - grad_l(a)'(b - a) + ||b - a||^2 / omega, omega = 1.9/L
    for family in ("gaussian", "logistic"):
        model = make_model(family, n=20, p=4, seed=23)
        omega = 1.9 / curvature_bound(model)
        for seed in range(20):
            a = random_coef(model, seed)
            b = random_coef(model, seed + 500)
            diff = b.augmented() - a.augmented()
            lhs = neg_loglik(model, b)
            rhs = (
                neg_loglik(model, a)
                - float(gradient(model, a) @ diff)
                + float(diff @ diff) / omega
            )
            assert lhs <= rhs + 1e-9


# -- Poisson separable majorizer -------------------------------------------


def test_poisson_weights_rows_sum_to_one():
    model = make_model("poisson", n=15, p=4, seed=2)
    th = poisson_weights(model.design)
    assert np.allclose(th.sum(axis=1), 1.0, atol=1e-12)
    xt = model._xt
    assert np.all(th[xt != 0.0] > 0)
    assert np.all(th[xt == 0.0] == 0)


def test_poisson_majorizer_touches_at_anchor():
    model = make_model("poisson", n=12, p=3, seed=5)
    alpha = random_coef(model, 6)
    th = poisson_weights(model.design)
    total = sum(
        poisson_majorizer_component(model, alpha, j, float(alpha.augmented()[j]), th)[0]
        for j in range(model.n_coef)
    )
    assert total == pytest.approx(neg_loglik(model, alpha), abs=1e-10)


def test_poisson_majorizer_dominates():
    model = make_model("poisson", n=12, p=3, seed=8)
    th = poisson_weights(model.design)
    rng = np.random.default_rng(9)
    for _ in range(25):
        alpha = random_coef(model, int(rng.integers(1 << 30)))
        beta = random_coef(model, int(rng.integers(1 << 30)))
        tb = beta.augmented()
        total = sum(
            poisson_majorizer_component(model, alpha, j, float(tb[j]), th)[0]
            for j in range(model.n_coef)
        )
        assert total >= neg_loglik(model, beta) - 1e-10


def test_poisson_majorizer_single_row_example():
    # one row x=(1), d=1, y=0, alpha=0: k(b) = e^b, derivative e^b
    m = FidelityModel(
        DesignMatrix(np.array([[1.0]]), has_intercept=False),
        Response(family=ResponseFamily.POISSON, y=np.array([0.0])),
    )
    v, d = poisson_majorizer_component(m, CoefficientVector(beta=np.array([0.0])), 0, 1.0)
    assert v == pytest.approx(math.e, abs=1e-12)
    assert d == pytest.approx(math.e, abs=1e-12)


def test_poisson_majorizer_derivative_matches_fd():
    model = make_model("poisson", n=10, p=3, seed=12)
    alpha = random_coef(model, 13)
    th = poisson_weights(model.design)
    for j in range(model.n_coef):
        b = 0.3
        h = 1e-6
        vp = poisson_majorizer_component(model, alpha, j, b + h, th)[0]
        vm = poisson_majorizer_component(model, alpha, j, b - h, th)[0]
        d = poisson_majorizer_component(model, alpha, j, b, th)[1]
        assert d == pytest.approx((vp - vm) / (2 * h), abs=1e-4 * (1 + abs(d)))


# -- unpenalized MLE -------------------------------------------------------


@pytest.mark.parametrize("family", FAMILIES)
def test_mle_zeroes_the_score(family):
    model = make_model(family, n=60, p=3, seed=21)
    coef = fit_mle(model)
    assert np.max(np.abs(gradient(model, coef))) <= 1e-6


@pytest.mark.parametrize("seed", [4, 89, 96, 98, 132, 177, 191])
def test_poisson_mle_converges_at_large_counts(seed):
    # the objective is about 1e7, so a rounding-level Newton step near the
    # optimum can raise it by more than an absolute 1e-12
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((400, 4))
    y = rng.poisson(np.exp(8.0 + 0.1 * x.sum(axis=1))).astype(float)
    model = FidelityModel(DesignMatrix(x, has_intercept=True), Response(family=ResponseFamily.POISSON, y=y))
    coef = fit_mle(model)
    assert np.max(np.abs(gradient(model, coef))) <= 1e-6


@pytest.mark.parametrize("seed", [21, 24])
def test_poisson_newton_mle_exponentiates_each_probed_eta_once(seed, monkeypatch):
    # the mean d e^eta is the parts of the Poisson kernels, which the
    # likelihood, the score and the Hessian at one eta share
    model = make_model("poisson", n=200, p=4, seed=seed, beta_scale=1.0)
    probed = []
    original = fid._guard_exp

    def recorded(eta, context):
        probed.append(eta.tobytes())
        return original(eta, context)

    monkeypatch.setattr(fid, "_guard_exp", recorded)
    coef = fit_mle(model)
    assert len(probed) > 5 and len(set(probed)) == len(probed)
    assert np.max(np.abs(gradient(model, coef))) <= 1e-6


@pytest.mark.parametrize("seed", [0, 1])
def test_poisson_newton_mle_stops_once_an_iterate_repeats(seed, monkeypatch):
    # objective about 1e7: the score's rounding floor lies above MLE_TOL, and
    # Newton's accepted steps sit on a fixed point (seed 0) or cycle (seed 1)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((400, 4))
    y = rng.poisson(np.exp(8.0 + 0.1 * x.sum(axis=1))).astype(float)
    model = FidelityModel(DesignMatrix(x, has_intercept=True), Response(family=ResponseFamily.POISSON, y=y))
    calls = [0]
    original = fid._guard_exp

    def counted(eta, context):
        calls[0] += 1
        return original(eta, context)

    monkeypatch.setattr(fid, "_guard_exp", counted)
    coef = fit_mle(model)
    assert calls[0] <= 45
    assert np.max(np.abs(gradient(model, coef))) <= 1e-6


def test_cox_mle_of_a_separable_design_is_a_convergence_error():
    # the Newton iterates spread eta over more than about 745, so the early
    # risk sets underflow in the Hessian: the MLE does not exist, and the
    # error says so instead of taking a NaN step
    model = make_model("cox", n=30, p=4, seed=44, beta_scale=2.0)
    with pytest.raises(ConvergenceError, match="risk sets underflowed.*separable") as err:
        fit_mle(model)
    theta = err.value.last_iterate
    assert theta.shape == (4,) and np.all(np.isfinite(theta))
    assert np.ptp(model._xt @ theta) > 700.0


def test_poisson_mle_with_no_counts_is_a_convergence_error():
    # with every count 0 the likelihood rises towards its supremum as the
    # intercept goes to -inf, and the Newton score there falls below its stop
    from mist.penalties import Family, PenaltySpec
    from mist.solver import Problem, SolverConfig, one_step_fit

    x = np.random.default_rng(45).standard_normal((12, 2))
    model = FidelityModel(DesignMatrix(x), Response(family=ResponseFamily.POISSON, y=np.zeros(12)))
    with pytest.raises(ConvergenceError, match="every count is 0, so the intercept has no finite MLE"):
        fit_mle(model)
    prob = Problem(model, PenaltySpec(family=Family.LASSO, lam=1.0))
    with pytest.raises(ConvergenceError, match="every count is 0"):
        one_step_fit(prob, SolverConfig())
    # one count is enough for a finite MLE
    y = np.zeros(12)
    y[3] = 1.0
    one = FidelityModel(DesignMatrix(x), Response(family=ResponseFamily.POISSON, y=y))
    assert np.all(np.isfinite(fit_mle(one).augmented()))


@pytest.mark.parametrize("response", [0.0, 1.0])
def test_logistic_mle_with_a_constant_response_is_a_convergence_error(response):
    # with every response 0 (or 1) the likelihood rises towards its supremum
    # as the intercept goes to -inf (or +inf); the Newton score on the way
    # falls below its stop, at an intercept of about -26.2 (or +26.2)
    from mist.penalties import Family, PenaltySpec
    from mist.solver import Problem, SolverConfig, one_step_fit

    x = np.random.default_rng(45).standard_normal((12, 2))
    model = FidelityModel(DesignMatrix(x), Response(family=ResponseFamily.LOGISTIC, y=np.full(12, response)))
    with pytest.raises(ConvergenceError, match=f"every response is {response:g}, so the intercept has no finite MLE"):
        fit_mle(model)
    prob = Problem(model, PenaltySpec(family=Family.SCAD, lam=0.5))
    with pytest.raises(ConvergenceError, match="no finite MLE"):
        one_step_fit(prob, SolverConfig())
    # one response of the other kind, on a row that no line separates from
    # the rest, leaves a finite MLE
    y = np.full(12, response)
    y[0] = 1.0 - response
    one = FidelityModel(DesignMatrix(x), Response(family=ResponseFamily.LOGISTIC, y=y))
    assert np.max(np.abs(fit_mle(one).augmented())) < 3.0


@pytest.mark.parametrize("row", range(12))
def test_a_separable_logistic_design_has_no_mle(row):
    # one y = 1 among twelve: where a line puts that row strictly apart from
    # the rest, every scaled-up separating point lowers the nll, and the
    # Newton stop is met at a far point that classifies every row strictly
    from mist.penalties import Family, PenaltySpec
    from mist.solver import Problem, SolverConfig, one_step_fit

    x = np.random.default_rng(45).standard_normal((12, 2))
    y = np.zeros(12)
    y[row] = 1.0
    model = FidelityModel(DesignMatrix(x), Response(family=ResponseFamily.LOGISTIC, y=y))
    if row in (0, 2, 6, 8):
        theta = fit_mle(model).augmented()
        margins = (2.0 * y - 1.0) * (model._xt @ theta)
        assert np.any(margins <= 0.0) and np.max(np.abs(theta)) < 10.0
        return
    with pytest.raises(ConvergenceError, match="separable, so the MLE does not exist") as err:
        fit_mle(model)
    assert np.all((2.0 * y - 1.0) * (model._xt @ err.value.last_iterate) > 0.0)
    with pytest.raises(ConvergenceError, match="separable"):
        one_step_fit(Problem(model, PenaltySpec(family=Family.SCAD, lam=0.5)), SolverConfig())


@pytest.mark.parametrize("family", ["gaussian", "logistic"])
def test_a_model_keeps_its_mle_and_hands_back_copies(family, monkeypatch):
    model = make_model(family, n=60, p=4, seed=22)
    calls = [0]
    original = fid._fit_mle

    def counted(m):
        calls[0] += 1
        return original(m)

    monkeypatch.setattr(fid, "_fit_mle", counted)
    first = fit_mle(model)
    want = first.augmented()
    first.beta[:] = 99.0  # a caller's copy: the model's MLE does not change
    second = fit_mle(model)
    assert calls[0] == 1
    assert np.array_equal(second.augmented(), want)
    assert second.beta is not fit_mle(model).beta
    # a restricted model fits its own MLE, over its own columns
    sub = model.restrict(np.array([0, 2]))
    assert np.max(np.abs(gradient(sub, fit_mle(sub)))) <= 1e-6
    assert calls[0] == 2 and fit_mle(sub).beta.shape == (2,)


def test_mle_gaussian_matches_lstsq():
    model = make_model("gaussian", n=40, p=4, seed=30)
    coef = fit_mle(model)
    theta, *_ = np.linalg.lstsq(model._xt, model.response.y, rcond=None)
    assert np.allclose(coef.augmented(), theta, atol=1e-10)


def test_mle_requires_more_rows_than_coefficients():
    model = make_model("gaussian", n=4, p=5, seed=1)
    with pytest.raises(ValidationError):
        fit_mle(model)


def test_mle_rejects_rank_deficient_design():
    X = np.ones((10, 2))  # duplicated column
    m = FidelityModel(
        DesignMatrix(X, has_intercept=False),
        Response(family=ResponseFamily.GAUSSIAN, y=np.arange(10.0)),
    )
    with pytest.raises(ValidationError):
        fit_mle(m)
