"""Adaptive backstepping controller in lifted coordinates: the one law.

Design summary, for a state x with normalized state xn and lifted state z:

    e1 = z1 - z1_ref                         first-stage tracking error
    e2 = virtual_gain * xn2 + k1 * e1        second-stage error, with xn2
                                             playing the role of the
                                             virtual control

Driving e2 to zero makes the z1 rate approach -k1 e1. The control input
and the two parameter-estimate updates are

    inner = regressor * theta1_hat + virtual_gain * k2 * e2
    u     = -x2_max * p2_hat * inner / input_gain
    p2_hat'     = p2_law_sign * gamma * sign(theta2) * xn2 * inner
    theta1_hat' = alpha * xn2 * regressor

with k2 fixed at 1 / k1 (there is deliberately no independent k2 anywhere;
that coupling is what collapses the Lyapunov derivative to a perfect
square). p2_hat estimates the reciprocal of the input gain parameter, and
theta1_hat tracks the drift parameter scaled by 1 / x2_max.

p2_law_sign selects the sign of the p2_hat update. +1 (the default) is the
choice under which the monitored Lyapunov function is provably
non-increasing; -1 is an alternate sign that tracks more aggressively on
some scenarios but voids the monotonicity certificate. See the monitor module's
sign adjudication helper.

compile_law writes this law once, as the closed-loop rates in regressor
form. The unknown parameters enter the plant linearly, x2' = theta1 phi +
theta2 psi, so the law returns phi and psi and leaves the sum to the
integrator. It takes a PlantShape (the shape functions g1, f2, g2 and
sign(theta2)) and refuses anything else, so the controller cannot read the
true parameter values: the firewall is the argument type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import (DomainViolation, InvalidParams, NonFiniteInput,
                     SingularityDetected)
from .lifted_dynamics import LiftedDynamics
from .lifting import (EPS_DOMAIN, CoordinateFrame, SafeSet, FamilySpec,
                      family_pair)
from .plant import PlantShape


@dataclass(frozen=True)
class ControllerGains:
    """Backstepping gain k1 and the adaptation gains gamma and alpha.

    k2 is not a field: it is always 1 / k1. Nor is sign(theta2): the law
    reads it from the PlantShape it is compiled from.
    """

    k1: float
    gamma: float
    alpha: float

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not (math.isfinite(v) and v > 0.0):
                raise InvalidParams(f"{f.name} must be positive, got {v}")

    @property
    def k2(self) -> float:
        return 1.0 / self.k1


@dataclass(frozen=True)
class EstimatorState:
    """Current parameter estimates (reciprocal input gain, scaled drift)."""

    p2_hat: float
    theta1_hat: float


@dataclass(frozen=True)
class Reference:
    """A constant position target and its lifted image."""

    x1d: float
    z1d: float

    @classmethod
    def for_target(cls, x1d: float, safe_set: SafeSet, family: FamilySpec) -> "Reference":
        x1d = float(x1d)
        if not math.isfinite(x1d):
            raise InvalidParams(f"reference must be finite, got {x1d}")
        if not abs(x1d) < safe_set.x1_max:
            raise InvalidParams(
                f"reference x1d={x1d} must lie strictly inside (-{safe_set.x1_max}, "
                f"{safe_set.x1_max})")
        fam1, _ = family_pair(family)
        return cls(x1d=x1d, z1d=safe_set.x1_max * fam1.unsquash(x1d / safe_set.x1_max))


@dataclass(frozen=True)
class ControllerSignals:
    """Everything the control law produces at one state."""

    e1: float
    e2: float
    u: float
    dp2_hat: float
    dtheta1_hat: float


def compile_law(shape: PlantShape, safe_set: SafeSet, family: FamilySpec,
                gains: ControllerGains, ref: Reference, p2_law_sign: float = 1.0):
    """Compile the control and adaptation law into one flat closure.

    Returns law(x1, x2, p2_hat, theta1_hat) ->
    (x1', phi, psi, p2_hat', theta1_hat', e1, e2, u), where the plant's
    second rate is x2' = theta1 * phi + theta2 * psi with phi = f2(x1, x2)
    and psi = g2(x1, x2) * u. The closure is the RK4 stage of the
    simulator's hot path, so it builds no frame objects.

    A non-finite stage state or an overflowed u raises NonFiniteInput, a
    state inside the guard band raises DomainViolation, and a zero or
    non-finite lifted gain raises SingularityDetected.
    """
    if not isinstance(shape, PlantShape):
        raise InvalidParams(
            "the control law takes the controller-facing PlantShape "
            f"(plant.control_view()), got {type(shape).__name__}")
    g1, f2, g2 = shape.g1, shape.f2, shape.g2
    fam1, fam2 = family_pair(family)
    un1 = fam1.unsquash
    dun1, dun2 = fam1.unsquash_deriv, fam2.unsquash_deriv
    xb1, xb2 = safe_set.bounds
    lim1 = xb1 * (1.0 - EPS_DOMAIN)
    lim2 = xb2 * (1.0 - EPS_DOMAIN)
    k1 = gains.k1
    k2 = gains.k2
    gam, alp = gains.gamma, gains.alpha
    sgn = shape.theta2_sign
    z1d = ref.z1d
    isfinite = math.isfinite

    def law(x1, x2, p2h, th1h):
        if not (isfinite(x1) and isfinite(x2) and isfinite(p2h) and isfinite(th1h)):
            raise NonFiniteInput(
                f"non-finite stage state ({x1}, {x2}, p2_hat={p2h}, theta1_hat={th1h})")
        if not (-lim1 < x1 < lim1 and -lim2 < x2 < lim2):
            raise DomainViolation(
                f"stage state ({x1}, {x2}) at or beyond the constraint guard band")
        c1 = x1 / xb1
        c2 = x2 / xb2
        e1 = xb1 * un1(c1) - z1d
        g1v = g1(x1)
        vgain = dun1(c1) * g1v * xb2
        if vgain == 0.0 or not isfinite(vgain):
            raise SingularityDetected(f"virtual gain {vgain!r} at x1={x1}")
        e2 = vgain * c2 + k1 * e1
        d2 = dun2(c2)
        f2v = f2(x1, x2)
        g2v = g2(x1, x2)
        igain = d2 * g2v
        if igain == 0.0 or not isfinite(igain):
            raise SingularityDetected(f"lifted input gain {igain!r} at ({x1}, {x2})")
        inner = (d2 * f2v) * th1h + vgain * k2 * e2
        u = -xb2 * p2h * inner / igain
        if not isfinite(u):
            raise NonFiniteInput(f"control input overflowed to {u!r}")
        return (g1v * x2, f2v, g2v * u,
                p2_law_sign * gam * sgn * c2 * inner,
                alp * c2 * (d2 * f2v),
                e1, e2, u)

    return law


def evaluate(dyn: LiftedDynamics, frame: CoordinateFrame, ref: Reference,
             gains: ControllerGains, est: EstimatorState,
             p2_law_sign: float = 1.0) -> ControllerSignals:
    """Errors, control input, and adaptation rates at one frame.

    Only the control view of dyn's plant reaches the law, compiled anew on
    every call; the simulator and the monitor use the config's compiled law.
    """
    law = compile_law(dyn.plant.control_view(), dyn.safe_set, dyn.family,
                      gains, ref, p2_law_sign)
    _, _, _, dp2, dth1, e1, e2, u = law(frame.x[0], frame.x[1], est.p2_hat,
                                        est.theta1_hat)
    return ControllerSignals(e1=e1, e2=e2, u=u, dp2_hat=dp2, dtheta1_hat=dth1)
