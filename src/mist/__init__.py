"""Penalized regression by iterated soft-thresholding.

Minimizes g(beta) + sum_j p(|beta_j|; lambda) + lambda * epsilon * ||beta||^2
for Gaussian, logistic, Poisson, and Cox fidelities under a family of folded
concave and convex penalties, using monotone MM iterations built from a
single soft-thresholding map, with optional squared-extrapolation
acceleration.
"""
from .exceptions import ConvergenceError, NotGloballyLipschitz, ValidationError
from .fidelity import (
    CoefficientVector,
    DesignMatrix,
    FidelityModel,
    Response,
    ResponseFamily,
    curvature_bound,
    fit_mle,
    gradient,
    neg_loglik,
    spectral_norm,
)
from .penalties import (
    Family,
    P1Report,
    PenaltySpec,
    compute_adaptive_weights,
    penalty_derivative_vec,
    penalty_value_vec,
    threshold_vector,
    verify_p1,
)
from .solver import (
    FitResult,
    Problem,
    SolverConfig,
    Termination,
    fit,
    glm_mm_fit,
    ist_minimize,
    kkt_residual,
    mm_outer,
    one_step_fit,
    soft_threshold,
    total_objective,
)
from .accel import accelerated_fit, fit_path, squarem_step
from . import simlab

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "NotGloballyLipschitz",
    "ValidationError",
    "CoefficientVector",
    "DesignMatrix",
    "FidelityModel",
    "Response",
    "ResponseFamily",
    "curvature_bound",
    "fit_mle",
    "gradient",
    "neg_loglik",
    "spectral_norm",
    "Family",
    "P1Report",
    "PenaltySpec",
    "compute_adaptive_weights",
    "penalty_derivative_vec",
    "penalty_value_vec",
    "threshold_vector",
    "verify_p1",
    "FitResult",
    "Problem",
    "SolverConfig",
    "Termination",
    "fit",
    "glm_mm_fit",
    "ist_minimize",
    "kkt_residual",
    "mm_outer",
    "one_step_fit",
    "soft_threshold",
    "total_objective",
    "accelerated_fit",
    "fit_path",
    "squarem_step",
    "simlab",
]
