"""Deterministic synthetic-data generators and solution comparison metrics.

All randomness flows through a counter-based Philox generator seeded
explicitly, with normal variates produced by the inverse-CDF transform
(``_ndtri``, a numpy port of the Cephes inverse normal CDF), so a scenario
regenerates byte-identically wherever the C library's ``log`` gives the same
bits; the draws are then also bit-identical to ``scipy.special.ndtri``'s.
Replicates derive their seeds as ``seed XOR replicate_index``.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .exceptions import ValidationError
from .fidelity import CoefficientVector, DesignMatrix, FidelityModel, Response, ResponseFamily
from .solver import FitResult, Problem, total_objective


class ScenarioFamily(str, enum.Enum):
    LINEAR_EX1 = "linear_ex1"
    LOGISTIC_EX2 = "logistic_ex2"
    COX_SYNTHETIC = "cox_synthetic"


@dataclass(frozen=True)
class SimScenario:
    family: ScenarioFamily
    p: int
    n: int
    seed: int
    q: Optional[int] = None
    rho: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "family", ScenarioFamily(self.family))
        if self.p < 1 or self.n < 1:
            raise ValidationError("p and n must be >= 1")
        if not 0.0 <= self.rho < 1.0:
            raise ValidationError(f"rho must lie in [0, 1), got {self.rho}")
        if self.sigma <= 0:
            raise ValidationError("sigma must be positive")
        q = self.q
        if q is None:
            if self.family is ScenarioFamily.LINEAR_EX1:
                q = 3 * (self.p // 9)
            else:
                q = self.p
            object.__setattr__(self, "q", q)
        if not 0 <= self.q <= self.p:
            raise ValidationError(f"q must lie in [0, p], got {self.q}")

    def replicate(self, index: int) -> "SimScenario":
        return replace(self, seed=self.seed ^ index)


@dataclass(frozen=True)
class SimDataset:
    design: DesignMatrix
    response: Response
    beta_true: np.ndarray
    scenario: SimScenario


def covariance_ar1(p: int, rho: float) -> np.ndarray:
    """Sigma_{jk} = rho^|j-k|."""
    if not abs(rho) < 1:
        raise ValidationError("AR(1) correlation must satisfy |rho| < 1")
    idx = np.arange(p)
    return rho ** np.abs(idx[:, None] - idx[None, :])


def covariance_equicorr(p: int, rho: float, scale: float = 1.0 / 9.0) -> np.ndarray:
    """scale * P with unit diagonal and constant off-diagonal correlation."""
    if not 0.0 <= rho < 1.0:
        raise ValidationError("equicorrelation must lie in [0, 1)")
    if not scale > 0:
        raise ValidationError("scale must be positive")
    P = np.full((p, p), rho)
    np.fill_diagonal(P, 1.0)
    return scale * P


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.uint64(seed)))


# Cephes ndtri.c (Moshier 1989): x/sqrt(2 pi) = y + y^3 P0(y^2)/Q0(y^2) on the
# centre exp(-2) < y < 1 - exp(-2), x = x0 - z P(z)/Q(z) with z = 1/sqrt(-2 log y)
# on the tails, P1/Q1 while sqrt(-2 log y) < 8 and P2/Q2 beyond.  Q's leading
# coefficient 1 is implicit (p1evl).
_S2PI = 2.50662827463100050242e0
_EXP_M2 = 0.13533528323661269189
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x: np.ndarray, coef) -> np.ndarray:
    """coef[0] x^N + ... + coef[N], Horner's rule in Cephes' order."""
    ans = coef[0] * x
    ans += coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x: np.ndarray, coef) -> np.ndarray:
    """x^N + coef[0] x^(N-1) + ... + coef[N-1]: ``_polevl`` with a leading 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _libm_log(x: np.ndarray) -> np.ndarray:
    # math.log is the C library's log; np.log runs its own SIMD kernel, whose
    # last bit differs from libm's on some inputs
    return np.fromiter(map(math.log, x.tolist()), dtype=float, count=x.size)


def _ndtri(y0: np.ndarray) -> np.ndarray:
    """The standard normal quantile of each y0 in (0, 1), as Cephes computes it.

    Every operation is the one ``ndtri.c`` performs, in its order, and each
    log is libm's, so the result is bit-identical to ``scipy.special.ndtri``
    wherever both run on the same C library.
    """
    # the upper tail folds to 1 - y0; a tail result is negated unless folded
    upper = y0 > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - y0, y0)
    out = np.empty_like(y)
    centre = y > _EXP_M2
    yc = y[centre] - 0.5
    y2 = yc * yc
    out[centre] = (yc + yc * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))) * _S2PI
    tail = ~centre
    x = np.sqrt(-2.0 * _libm_log(y[tail]))
    z = 1.0 / x
    x1 = z * _polevl(z, _P1) / _p1evl(z, _Q1)
    far = x >= 8.0
    if far.any():
        zf = z[far]
        x1[far] = zf * _polevl(zf, _P2) / _p1evl(zf, _Q2)
    xt = (x - _libm_log(x) / x) - x1
    out[tail] = np.where(upper[tail], xt, -xt)
    return out


def _standard_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Inverse-CDF normals from uniforms clipped to [1e-16, 1 - 1e-16].

    Reproducible bit for bit wherever libm's ``log`` agrees, and equal to
    ``scipy.special.ndtri`` of the same uniforms there.
    """
    u = rng.random(shape)
    return _ndtri(np.clip(u, 1e-16, 1.0 - 1e-16))


def _ar1_draw(rng, n, p, rho):
    z = _standard_normal(rng, (n, p))
    if rho == 0.0:
        return z
    chol = np.linalg.cholesky(covariance_ar1(p, rho))
    return z @ chol.T


def _equicorr_draw(rng, n, p, rho, scale):
    # rank-1 decomposition: x = sqrt(rho) z0 1 + sqrt(1 - rho) z, then scaled
    z0 = _standard_normal(rng, (n, 1))
    z = _standard_normal(rng, (n, p))
    x = math.sqrt(rho) * z0 + math.sqrt(1.0 - rho) * z
    return math.sqrt(scale) * x


def true_coefficients(scenario: SimScenario) -> np.ndarray:
    fam, p, q = scenario.family, scenario.p, scenario.q
    beta = np.zeros(p)
    if fam is ScenarioFamily.LINEAR_EX1:
        beta[:q] = 3.0
    elif fam is ScenarioFamily.LOGISTIC_EX2:
        j = np.arange(1, q + 1)
        beta[:q] = 3.0 * (-1.0) ** j * np.exp(-2.0 * (j - 1) / 200.0)
    elif fam is ScenarioFamily.COX_SYNTHETIC:
        beta[:q] = 0.5
    return beta


def gen_dataset(scenario: SimScenario) -> SimDataset:
    """Draw one replicate of the scenario; byte-identical per (scenario, seed)."""
    rng = _rng(scenario.seed)
    n, p, rho = scenario.n, scenario.p, scenario.rho
    beta = true_coefficients(scenario)
    fam = scenario.family

    if fam is ScenarioFamily.LINEAR_EX1:
        x = _ar1_draw(rng, n, p, rho)
        noise = _standard_normal(rng, n)
        y = x @ beta + scenario.sigma * noise
        design = DesignMatrix(x, has_intercept=True)
        response = Response(family=ResponseFamily.GAUSSIAN, y=y)
    elif fam is ScenarioFamily.LOGISTIC_EX2:
        x = _equicorr_draw(rng, n, p, rho, scale=1.0 / 9.0)
        prob = 1.0 / (1.0 + np.exp(-(x @ beta)))
        y = (rng.random(n) < prob).astype(float)
        design = DesignMatrix(x, has_intercept=True)
        response = Response(family=ResponseFamily.LOGISTIC, y=y)
    elif fam is ScenarioFamily.COX_SYNTHETIC:
        x = _ar1_draw(rng, n, p, rho)
        rate = np.exp(np.clip(x @ beta, -30.0, 30.0))
        u_event = rng.random(n)
        latent = -np.log(np.clip(1.0 - u_event, 1e-300, 1.0)) / rate
        u_cens = rng.random(n)
        c_scale = _censoring_scale(latent, u_cens, target=0.4)
        cens = c_scale * u_cens
        time = np.minimum(latent, cens)
        status = (latent <= cens).astype(float)
        if not np.any(status == 1.0):
            status[np.argmin(latent)] = 1.0
        design = DesignMatrix(x, has_intercept=False)
        response = Response(family=ResponseFamily.COX, y=status, time=time, status=status)
    else:
        raise ValidationError(f"unknown scenario family {fam}")

    return SimDataset(design=design, response=response, beta_true=beta, scenario=scenario)


def _censoring_scale(latent: np.ndarray, u_cens: np.ndarray, target: float) -> float:
    """Deterministic bisection for the censoring scale hitting the target rate."""
    lo, hi = 1e-6, float(np.max(latent) / max(np.min(u_cens), 1e-12)) + 1.0

    def censored_frac(c):
        return float(np.mean(c * u_cens < latent))

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if censored_frac(mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class ComparisonRecord:
    norm_diff: float
    obj_a: float
    obj_b: float
    a_leq_b: bool


def compare_solutions(a: FitResult, b: FitResult, problem: Problem) -> ComparisonRecord:
    """Normed coefficient distance and objective ordering of two fits."""
    if a.coef.beta.shape != b.coef.beta.shape:
        raise ValidationError("fits have different coefficient lengths")
    obj_a = total_objective(problem, a.coef)
    obj_b = total_objective(problem, b.coef)
    return ComparisonRecord(
        norm_diff=float(np.linalg.norm(a.coef.beta - b.coef.beta)),
        obj_a=obj_a,
        obj_b=obj_b,
        a_leq_b=obj_a <= obj_b + 1e-10,
    )


def model_from_dataset(dataset: SimDataset) -> FidelityModel:
    return FidelityModel(dataset.design, dataset.response)
