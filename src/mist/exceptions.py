"""Exception types shared across the package, and the boundary checks of a
JSON object and of its real-number values that raise one of them."""
import numbers
from typing import Iterable


class ValidationError(ValueError):
    """A spec, dataset, or configuration failed its invariant checks."""


class NotGloballyLipschitz(RuntimeError):
    """Raised when a global curvature bound does not exist (Poisson fidelity).

    Poisson problems are fitted by the separable majorizer (``solver.fit``).
    """


class ConvergenceError(RuntimeError):
    """An iterative routine exhausted its iteration budget.

    Carries the last iterate and residual so callers can diagnose or restart.
    """

    def __init__(self, message, last_iterate=None, residual=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual


def json_object(values, what: str, keys: Iterable[str], required: Iterable[str] = ()) -> dict:
    """``values``, a decoded JSON value, when it is an object whose keys are
    among ``keys`` and include every key of ``required``.

    Otherwise it raises ``ValidationError``, naming every unknown key and
    every missing one; ``what`` names the object in the message.
    """
    if not isinstance(values, dict):
        raise ValidationError(f"{what} JSON must be an object, got {values!r}")
    unknown = sorted(str(k) for k in set(values) - set(keys))
    missing = [k for k in required if k not in values]
    problems = [f"unknown {what} key(s): {', '.join(unknown)}"] if unknown else []
    if missing:
        problems.append(f"missing {what} key(s): {', '.join(missing)}")
    if problems:
        raise ValidationError("; ".join(problems))
    return values


def _is_real(value) -> bool:
    """Whether ``value``, a decoded JSON value, is a real number and not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _real(key: str, value) -> float:
    """``value`` as a float, or ``ValidationError`` naming ``key`` when it is
    not a real number or is a bool."""
    if not _is_real(value):
        raise ValidationError(f"{key} must be a real number, got {value!r}")
    return float(value)
