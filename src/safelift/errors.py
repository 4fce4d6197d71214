"""Exception types shared across the package, and the positivity rule."""

import math
from dataclasses import fields


class SafeliftError(Exception):
    """Base class for all package errors."""


class DomainViolation(SafeliftError):
    """A state sits at or beyond the constraint boundary guard band.

    Raised instead of silently producing infinite lifted coordinates, so a
    caller (or the simulator) can diagnose exactly where the guard failed.
    """


class NonFiniteInput(SafeliftError):
    """An input contains NaN or infinity."""


class SingularityDetected(SafeliftError):
    """A lifted gain evaluated to zero or non-finite.

    This means the plant nonsingularity assumptions failed at runtime; the
    value is never clamped or patched over.
    """


class ConfigError(SafeliftError, ValueError):
    """An input was refused: an experiment file or a constructor argument."""


def require_positive(params, what: str = "") -> None:
    """Refuse a dataclass unless every field is finite and positive."""
    for f in fields(params):
        v = getattr(params, f.name)
        if not (math.isfinite(v) and v > 0.0):
            raise ConfigError(f"{what}{f.name} must be positive and finite, got {v}")


class StepRejected(SafeliftError):
    """An integration step aborted: the time of the step and the cause.

    An aborted run keeps this record as Trajectory.failure. Its str() is
    the failure text of cert.txt, "<kind> at t=<time>: <cause>", with kind
    the cause's class name.
    """

    def __init__(self, time: float, cause: Exception):
        self.time = time
        self.cause = cause
        self.kind = type(cause).__name__
        super().__init__(f"{self.kind} at t={time:.6g}: {cause}")
