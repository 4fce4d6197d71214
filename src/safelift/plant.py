"""Strict-feedback plant descriptors and concrete example plants.

The plant class handled here is

    x1' = g1(x1) * x2
    x2' = f2(x1, x2) * theta1 + g2(x1, x2) * u * theta2

with scalar states, known shape functions g1, f2, g2, and unknown true
parameters theta1, theta2. The controller is only ever given the shape
functions plus sign(theta2); the parameter values stay behind the
simulation-only interface.

Structural assumptions, checkable by grid sampling:
  1. f2(x1, x2) = 0 exactly when x2 = 0 (keeps the drift uncertainty
     excited whenever the state moves);
  2. g1 and g2 are nonzero on the safe set (well-posedness of the design).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Callable, Sequence

from .errors import InvalidParams, NonFiniteInput
from .lifting import SafeSet

ScalarFn = Callable[[float], float]
StateFn = Callable[[float, float], float]


@dataclass(frozen=True)
class PlantShape:
    """The controller-facing view of a plant: shapes and the input-gain sign.

    Deliberately carries no theta1/theta2 fields; handing this object to the
    controller is what enforces the unknown-parameter firewall. It is also
    the only place the controller reads sign(theta2) from.
    """

    g1: ScalarFn
    f2: StateFn
    g2: StateFn
    theta2_sign: float

    def __post_init__(self):
        if self.theta2_sign not in (1.0, -1.0):
            raise InvalidParams(f"theta2_sign must be +1 or -1, got {self.theta2_sign}")

    def control_view(self) -> "PlantShape":
        """Already the controller-facing view."""
        return self


@dataclass(frozen=True)
class PlantDef:
    """Full plant truth: shape functions plus hidden true parameters.

    The callables must be pure functions of their arguments. theta2 must be
    nonzero, otherwise the input channel is dead.
    """

    g1: ScalarFn
    f2: StateFn
    g2: StateFn
    theta1: float
    theta2: float
    name: str = "custom"

    def __post_init__(self):
        if not (math.isfinite(self.theta1) and math.isfinite(self.theta2)):
            raise InvalidParams("plant parameters must be finite")
        if self.theta2 == 0.0:
            raise InvalidParams("theta2 must be nonzero")

    @property
    def theta2_sign(self) -> float:
        return 1.0 if self.theta2 > 0.0 else -1.0

    def control_view(self) -> PlantShape:
        """Everything the controller is allowed to know (one view per plant)."""
        return self._view

    @cached_property
    def _view(self) -> PlantShape:
        return PlantShape(g1=self.g1, f2=self.f2, g2=self.g2,
                          theta2_sign=self.theta2_sign)


@dataclass(frozen=True)
class DcMotorParams:
    """Physical constants of a voltage-driven DC motor with inertial load.

    J rotor inertia, b viscous damping, R armature resistance, Kt torque
    constant, Kb back-EMF constant; all strictly positive.
    """

    J: float = 0.01
    b: float = 0.1
    R: float = 1.0
    Kt: float = 0.01
    Kb: float = 0.01

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not (math.isfinite(v) and v > 0.0):
                raise InvalidParams(f"DC motor parameter {f.name} must be positive, got {v}")

    @property
    def theta1(self) -> float:
        return -(self.b * self.R - self.Kb * self.Kt) / (self.J * self.R)

    @property
    def theta2(self) -> float:
        return self.Kt / (self.J * self.R)


def _one_of_one(x1: float) -> float:
    return 1.0


def _one_of_two(x1: float, x2: float) -> float:
    return 1.0


def _second_state(x1: float, x2: float) -> float:
    return x2


def dc_motor(params: DcMotorParams = DcMotorParams()) -> PlantDef:
    """DC motor as a strict-feedback plant.

    States are shaft angle and angular velocity, the input is armature
    voltage: g1 = 1, f2(x1, x2) = x2, g2 = 1, with theta1 the damping-rate
    coefficient and theta2 = Kt / (J R) > 0 the input gain.
    """
    return PlantDef(g1=_one_of_one, f2=_second_state, g2=_one_of_two,
                    theta1=params.theta1, theta2=params.theta2,
                    name="dc_motor")


def double_integrator(theta: float) -> PlantDef:
    """Double integrator with unknown input gain.

    g1 = 1, f2(x1, x2) = x2 with theta1 = 0 (so the zero-at-x2=0 structure
    holds trivially), g2 = 1, theta2 = theta.
    """
    if not math.isfinite(theta) or theta == 0.0:
        raise InvalidParams(f"double integrator input gain must be finite and nonzero, got {theta}")
    return PlantDef(g1=_one_of_one, f2=_second_state, g2=_one_of_two,
                    theta1=0.0, theta2=float(theta), name="double_integrator")


def plant_rhs(plant: PlantDef, x: Sequence[float], u: float) -> tuple[float, float]:
    """State derivative of the true plant (simulation oracle only)."""
    x1, x2 = float(x[0]), float(x[1])
    u = float(u)
    if not (math.isfinite(x1) and math.isfinite(x2) and math.isfinite(u)):
        raise NonFiniteInput(f"plant_rhs given non-finite input ({x1}, {x2}, u={u})")
    return (plant.g1(x1) * x2,
            plant.f2(x1, x2) * plant.theta1 + plant.g2(x1, x2) * u * plant.theta2)


@dataclass(frozen=True)
class AssumptionViolation:
    check: str
    point: tuple[float, float]
    value: float


@dataclass
class AssumptionReport:
    grid_n: int
    violations: list[AssumptionViolation] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        lines = [f"assumption check on a {self.grid_n} x {self.grid_n} interior grid: "
                 f"{'pass' if self.passed else 'FAIL'}"]
        for v in self.violations:
            lines.append(f"  violation: {v.check} at {v.point}, value {v.value!r}")
        for n in self.notes:
            lines.append(f"  note: {n}")
        return "\n".join(lines)


def check_assumptions(plant, safe_set: SafeSet, grid_n: int = 21) -> AssumptionReport:
    """Sample the structural assumptions on an interior grid of the safe set.

    Checks f2(x1, 0) = 0, f2(x1, x2) != 0 off the x2 = 0 line, and
    g1 != 0, g2 != 0 at every sample. Accepts a PlantDef or a PlantShape
    (the check uses no parameter values). Violations are reported with the
    offending sample point; a sign-definite f2 off the axis is flagged as an
    informational note since it cannot push x2 both ways.
    """
    if grid_n < 2:
        raise InvalidParams(f"grid_n must be at least 2, got {grid_n}")
    xb1, xb2 = safe_set.bounds
    xs1 = [-xb1 + 2.0 * xb1 * (j + 1) / (grid_n + 1) for j in range(grid_n)]
    xs2 = [-xb2 + 2.0 * xb2 * (j + 1) / (grid_n + 1) for j in range(grid_n)]
    report = AssumptionReport(grid_n=grid_n)

    f2_min, f2_max = math.inf, -math.inf
    for x1 in xs1:
        v = plant.f2(x1, 0.0)
        if v != 0.0:
            report.violations.append(AssumptionViolation("f2_zero_at_x2_zero", (x1, 0.0), v))
        if plant.g1(x1) == 0.0:
            report.violations.append(AssumptionViolation("g1_nonzero", (x1, 0.0), 0.0))
        for x2 in xs2:
            if x2 != 0.0:
                v = plant.f2(x1, x2)
                if v == 0.0:
                    report.violations.append(
                        AssumptionViolation("f2_nonzero_off_axis", (x1, x2), 0.0))
                f2_min, f2_max = min(f2_min, v), max(f2_max, v)
            if plant.g2(x1, x2) == 0.0:
                report.violations.append(AssumptionViolation("g2_nonzero", (x1, x2), 0.0))

    if f2_min >= 0.0 or f2_max <= 0.0:
        report.notes.append(
            "f2 is sign-definite on the sampled grid (never changes sign off "
            "the x2 = 0 line); the drift can only push x2 one way")
    return report
