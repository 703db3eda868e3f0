"""Exception types shared across the package, and the boundary check of a
JSON object that raises one of them."""
from typing import Iterable


class ValidationError(ValueError):
    """A spec, dataset, or configuration failed its invariant checks."""


class NotGloballyLipschitz(RuntimeError):
    """Raised when a global curvature bound does not exist (Poisson fidelity).

    Callers should either use the separable majorizer path or supply a
    region-restricted bound themselves.
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
