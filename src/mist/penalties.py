"""Penalty families singular at the origin, their derivatives and thresholds.

Every family here is concave and nondecreasing on [0, inf) with a finite,
strictly positive right-derivative at zero (the linear families trivially so),
which is exactly what the soft-thresholding solvers require.  Coordinates with
an infinite adaptive weight are treated as pinned to zero: the penalty value is
+inf away from zero and the induced threshold is +inf, which the thresholding
operator maps to an exact zero without producing NaNs.
"""
from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .exceptions import ValidationError, _is_real, _real, json_object


class Family(str, enum.Enum):
    LASSO = "lasso"
    ADAPTIVE_LASSO = "adaptive_lasso"
    ELASTIC_NET = "elastic_net"
    ADAPTIVE_ELASTIC_NET = "adaptive_elastic_net"
    SCAD = "scad"
    MCP = "mcp"
    GEMAN = "geman"
    LOG = "log"


#: families whose scalar penalty is linear in r (weighted L1)
LINEAR_FAMILIES = frozenset(
    {Family.LASSO, Family.ADAPTIVE_LASSO, Family.ELASTIC_NET, Family.ADAPTIVE_ELASTIC_NET}
)
#: families carrying a per-coordinate weight vector
ADAPTIVE_FAMILIES = frozenset({Family.ADAPTIVE_LASSO, Family.ADAPTIVE_ELASTIC_NET})
#: families whose derivative hits exactly zero at finite r
FLAT_TAIL_FAMILIES = frozenset({Family.SCAD, Family.MCP})


@dataclass(frozen=True)
class PenaltySpec:
    """Parameters of one penalty: family tag, level and shape constants.

    ``lam`` is the global penalty level; ``epsilon`` scales the additional
    ridge term ``lam * epsilon * ||beta||^2`` of the overall objective.
    ``weights`` are the per-coordinate adaptive weights (may contain +inf,
    pinning a coordinate at zero); ``a`` shapes SCAD/MCP, ``delta`` shapes
    the Geman and log penalties.
    """

    family: Family
    lam: float
    epsilon: float = 0.0
    weights: Optional[np.ndarray] = None
    a: float = 3.7
    delta: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "family", Family(self.family))
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
            object.__setattr__(self, "weights", w)
        self.validate()

    def validate(self):
        if not (self.lam > 0 and math.isfinite(self.lam)):
            raise ValidationError(f"lambda must be finite and > 0, got {self.lam}")
        if not (self.epsilon >= 0 and math.isfinite(self.epsilon)):
            raise ValidationError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if self.family in FLAT_TAIL_FAMILIES and not (self.a > 2 and math.isfinite(self.a)):
            raise ValidationError(f"a must be finite and > 2 for {self.family.value}, got {self.a}")
        if self.family in (Family.GEMAN, Family.LOG) and not (self.delta > 0 and math.isfinite(self.delta)):
            raise ValidationError(f"delta must be finite and > 0 for {self.family.value}, got {self.delta}")
        if self.family in (Family.ELASTIC_NET, Family.ADAPTIVE_ELASTIC_NET) and not self.epsilon > 0:
            raise ValidationError(f"{self.family.value} requires epsilon > 0")
        if self.family in ADAPTIVE_FAMILIES:
            if self.weights is None:
                raise ValidationError(f"{self.family.value} requires a weight vector")
            finite = self.weights[np.isfinite(self.weights)]
            if np.any(finite < 0) or np.any(np.isnan(self.weights)):
                raise ValidationError("adaptive weights must be >= 0 (or +inf)")
        elif self.weights is not None:
            raise ValidationError(f"weights are only valid for adaptive families, not {self.family.value}")

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        out = {"family": self.family.value, "lambda": self.lam, "epsilon": self.epsilon}
        if self.family in FLAT_TAIL_FAMILIES:
            out["a"] = self.a
        if self.family in (Family.GEMAN, Family.LOG):
            out["delta"] = self.delta
        if self.weights is not None:
            out["weights"] = [("inf" if math.isinf(w) else w) for w in self.weights]
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, d: dict) -> "PenaltySpec":
        """The spec of an object with the keys of ``to_dict``: "family" and
        "lambda", and any of "epsilon", "weights", "a" and "delta".  Any other
        key, or a missing "family" or "lambda", is named in the error, and so
        is a value of the wrong type: "lambda", "epsilon", "a" and "delta"
        take a real number that is not a bool, and "weights" a list of real
        numbers and "inf"."""
        d = json_object(d, "penalty", ("family", "lambda", "epsilon", "weights", "a", "delta"),
                        required=("family", "lambda"))
        weights = d.get("weights")
        if weights is not None:
            if not (isinstance(weights, list) and all(w == "inf" or _is_real(w) for w in weights)):
                raise ValidationError(f'weights must be a list of real numbers and "inf", got {weights!r}')
            weights = np.array([math.inf if w == "inf" else float(w) for w in weights])
        return cls(
            family=Family(d["family"]),
            lam=_real("lambda", d["lambda"]),
            epsilon=_real("epsilon", d.get("epsilon", 0.0)),
            weights=weights,
            a=_real("a", d.get("a", 3.7)),
            delta=_real("delta", d.get("delta", 1.0)),
        )

    @classmethod
    def from_json(cls, s: str) -> "PenaltySpec":
        return cls.from_dict(json.loads(s))


def _check_r_vec(r: np.ndarray) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    if np.any(r < 0) or np.any(np.isnan(r)):
        raise ValidationError("penalty arguments must be >= 0")
    return r


def penalty_value_vec(spec: PenaltySpec, r: np.ndarray) -> np.ndarray:
    """Vectorized penalty values over |coefficients| r (one entry per coordinate)."""
    r = _check_r_vec(r)
    return kernels(spec, r.size).value(r)


def penalty_derivative_vec(spec: PenaltySpec, r: np.ndarray) -> np.ndarray:
    """Vectorized right-derivatives over |coefficients| r."""
    r = _check_r_vec(r)
    return kernels(spec, r.size).derivative(r)


Kernel = Callable[[np.ndarray], np.ndarray]


class Kernels(NamedTuple):
    """The penalty of one spec over p coordinates as functions of r = |beta|
    (``kernels``).

    ``value(r)`` and ``derivative(r)`` are p(r_j) and p'(r_j) at every
    coordinate, the unchecked ``penalty_value_vec`` and
    ``penalty_derivative_vec``; ``total(r)`` is sum_j p(r_j), the penalty
    term of the objective, in one call.
    """

    value: Kernel
    derivative: Kernel
    total: Callable[[np.ndarray], float]


def kernels(spec: PenaltySpec, p: int) -> Kernels:
    """The penalty kernels of one spec over p coordinates, without checks:
    r is a float array of length p, all >= 0.

    The family is chosen here, once, and an adaptive family's lam * w and its
    pinned mask are computed here, so a fit that holds the kernels runs no
    family test per call.  SCAD and MCP are written through s = min(r, a lam)
    and t = (s - lam)_+, which cover their pieces without a per-coordinate
    choice.  Each total is a dot product over the p coordinates, cheaper
    than a ufunc reduction on short vectors, and the common ones do not form
    the values they sum: a linear family's total is (lam w) . r, unless a
    weight is infinite, SCAD's lam sum_j s_j - t . t / (2 (a - 1)) and MCP's
    s . (lam - s / (2 a)).
    """
    lam, a, d = spec.lam, spec.a, spec.delta
    fam = spec.family
    ones = np.ones(p)
    if fam in LINEAR_FAMILIES:
        lw = lam if spec.weights is None else lam * spec.weights
        pinned = spec.weights is not None and np.isinf(spec.weights)

        def derivative(r):
            return np.full(r.shape, lw)

        if not np.any(pinned):
            return Kernels(lambda r: lw * r, derivative, np.full(p, lw).dot)

        def pinned_linear(r):
            with np.errstate(invalid="ignore"):
                out = lw * r
            # pinned coordinates: 0 at the origin, +inf elsewhere
            out[pinned & (r == 0.0)] = 0.0
            return out

        return Kernels(pinned_linear, derivative, lambda r: ones.dot(pinned_linear(r)))
    if fam is Family.SCAD:
        al, am1 = a * lam, a - 1.0

        def scad(r):
            s = np.minimum(r, al)
            t = np.maximum(s - lam, 0.0)
            return lam * s - t * t / (2.0 * am1)

        def scad_total(r):
            s = np.minimum(r, al)
            t = np.maximum(s - lam, 0.0)
            return lam * ones.dot(s) - t.dot(t) / (2.0 * am1)

        return Kernels(scad, lambda r: np.minimum(lam, np.maximum(al - r, 0.0) / am1), scad_total)
    if fam is Family.MCP:
        al = a * lam

        def mcp(r):
            s = np.minimum(r, al)
            return s * (lam - s / (2.0 * a))

        def mcp_total(r):
            s = np.minimum(r, al)
            return s.dot(lam - s / (2.0 * a))

        return Kernels(mcp, lambda r: np.maximum(lam - r / a, 0.0), mcp_total)
    if fam is Family.GEMAN:
        value, derivative = (lambda r: lam * d * r / (1 + d * r)), (lambda r: lam * d / (1 + d * r) ** 2)
    elif fam is Family.LOG:
        value, derivative = (lambda r: lam * np.log1p(d * r)), (lambda r: lam * d / (d * r + 1))
    else:
        raise ValidationError(f"unknown family {fam}")
    return Kernels(value, derivative, lambda r: ones.dot(value(r)))


def threshold_vector(spec: PenaltySpec, alpha: np.ndarray) -> np.ndarray:
    """Per-coordinate soft-thresholding levels evaluated at the iterate alpha."""
    alpha = np.asarray(alpha, dtype=float)
    if spec.family in ADAPTIVE_FAMILIES and alpha.shape[0] != spec.weights.shape[0]:
        raise ValidationError(
            f"coefficient length {alpha.shape[0]} does not match weight length {spec.weights.shape[0]}"
        )
    return penalty_derivative_vec(spec, np.abs(alpha))


def compute_adaptive_weights(pilot: np.ndarray, gamma: float) -> np.ndarray:
    """Weights |pilot_j|^{-gamma}; an exactly-zero pilot pins the coordinate."""
    if not gamma > 0:
        raise ValidationError(f"gamma must be > 0, got {gamma}")
    pilot = np.asarray(pilot, dtype=float)
    out = np.empty_like(pilot)
    nz = pilot != 0
    out[nz] = np.abs(pilot[nz]) ** (-gamma)
    out[~nz] = np.inf
    return out


@dataclass
class ClauseReport:
    passed: bool
    first_violation: Optional[float] = None


@dataclass
class P1Report:
    """Numeric check of the admissibility conditions over a grid.

    Clauses: (a) value positive away from zero, (b) derivative nonnegative,
    (c) derivative nonincreasing, (d) right-derivative at the origin finite
    and positive.
    """

    positive_value: ClauseReport
    nonnegative_derivative: ClauseReport
    nonincreasing_derivative: ClauseReport
    finite_positive_slope_at_zero: ClauseReport

    @property
    def all_pass(self) -> bool:
        return (
            self.positive_value.passed
            and self.nonnegative_derivative.passed
            and self.nonincreasing_derivative.passed
            and self.finite_positive_slope_at_zero.passed
        )


def verify_p1_functions(
    value: Callable[[float], float],
    derivative: Callable[[float], float],
    grid: Sequence[float],
) -> P1Report:
    """Grid-based admissibility check for an arbitrary scalar penalty."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValidationError("grid must be nonempty")
    if np.any(grid <= 0) or np.any(np.diff(grid) <= 0):
        raise ValidationError("grid must be strictly increasing and positive")

    vals = np.array([value(r) for r in grid])
    ders = np.array([derivative(r) for r in grid])

    def first_fail(mask):
        idx = np.nonzero(mask)[0]
        return None if idx.size == 0 else float(grid[idx[0]])

    pos = first_fail(~(vals > 0))
    nonneg = first_fail(~(ders >= 0))
    # concavity surrogate: derivative must not increase along the grid
    incr = np.diff(ders) > 1e-12 * (1 + np.abs(ders[:-1]))
    nonincr = None
    if np.any(incr):
        nonincr = float(grid[1:][incr][0])
    d0 = derivative(0.0)
    slope_ok = math.isfinite(d0) and d0 > 0

    return P1Report(
        positive_value=ClauseReport(pos is None, pos),
        nonnegative_derivative=ClauseReport(nonneg is None, nonneg),
        nonincreasing_derivative=ClauseReport(nonincr is None, nonincr),
        finite_positive_slope_at_zero=ClauseReport(slope_ok, None if slope_ok else 0.0),
    )


def coordinate_penalty(
    spec: PenaltySpec, j: int = 0
) -> tuple[Callable[[float], float], Callable[[float], float]]:
    """The scalar value and derivative of coordinate j, through the vector forms."""
    if spec.weights is not None and not 0 <= j < spec.weights.shape[0]:
        raise ValidationError(
            f"coordinate {j} is outside the weight vector of length {spec.weights.shape[0]}"
        )
    one = spec if spec.weights is None else replace(spec, weights=spec.weights[j : j + 1])
    return (
        lambda r: float(penalty_value_vec(one, np.array([r]))[0]),
        lambda r: float(penalty_derivative_vec(one, np.array([r]))[0]),
    )


def verify_p1(spec: PenaltySpec, grid: Sequence[float], j: int = 0) -> P1Report:
    """Check the admissibility conditions for coordinate j of a spec."""
    return verify_p1_functions(*coordinate_penalty(spec, j), grid)
