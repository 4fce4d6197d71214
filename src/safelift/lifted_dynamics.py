"""The plant dynamics rewritten in lifted coordinates.

With frames built by the lifting module, the plant

    x1' = g1(x1) x2
    x2' = f2(x1, x2) theta1 + g2(x1, x2) u theta2

becomes, in the lifted state z,

    z1' = virtual_gain(zn1) * squash(zn2)
    z2' = drift_regressor(z) * theta1 + input_gain(z) * u * theta2

where

    virtual_gain(zn1)   = unsquash_deriv(squash(zn1)) * g1(x1) * x2_max
    drift_regressor(z)  = unsquash_deriv(squash(zn2)) * f2(x1, x2)
    input_gain(z)       = unsquash_deriv(squash(zn2)) * g2(x1, x2)

Structural facts used by the controller design and verified in the tests:
both z-rates vanish at z2 = 0, and virtual_gain and input_gain are nonzero
wherever the plant assumptions hold, so (z1_ref, 0, u=0) is an equilibrium.

``lifted_stage`` is the closed loop in z: the controller's compiled law
carried over by the chain rule, which ``simulator.run_lifted`` integrates
and the monitor's equilibrium residual evaluates. ``fields`` and ``rhs``
build the same field from the plant's shape functions: the independent
oracle (as ``plant.plant_rhs`` is for x) that the tests compare with a
finite-difference pushforward and with the monitor's residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import ConfigError, SingularityDetected
from .lifting import CoordinateFrame, SafeSet, FamilySpec, family_pair, unlift


def lifted_stage(law, safe_set: SafeSet, family: FamilySpec):
    """The RK4 stage of the closed loop with (z1, z2, p2_hat, theta1_hat) as state.

    law is a compiled control law (controller.compile_law). The stage
    unlifts z, evaluates the law at that x, and applies the chain rule
    z_i' = unsquash_deriv(xn_i) * x_i' to its rates, keeping the regressor
    form: (z1', phi, psi) with z2' = theta1 * phi + theta2 * psi, then the
    rest of the law's tuple, (p2_hat', theta1_hat', e1, e2, u, x1, x2).
    """
    fam1, fam2 = family_pair(family)
    dun1, dun2 = fam1.unsquash_deriv, fam2.unsquash_deriv

    def stage(z1, z2, p2h, th1h):
        frame = unlift((z1, z2), safe_set, family)
        out = law(frame.x[0], frame.x[1], p2h, th1h)
        d1, d2 = dun1(frame.xn[0]), dun2(frame.xn[1])
        return (d1 * out[0], d2 * out[1], d2 * out[2], *out[3:])

    return stage


@dataclass(frozen=True)
class LiftedDynamics:
    """Plant + safe set + lifting family, viewed in z coordinates.

    ``fields`` and ``rhs`` are the independent oracle for ``lifted_stage``;
    no production path calls them. ``plant`` may be a full PlantDef or a
    controller-facing PlantShape; only ``rhs`` requires the true parameters.
    """

    plant: object
    safe_set: SafeSet
    family: FamilySpec

    def fields(self, z: Sequence[float]) -> tuple[float, float, float]:
        """(virtual_gain, drift_regressor, input_gain) at the lifted state z.

        Raises SingularityDetected where either gain is zero or non-finite,
        or the regressor is non-finite.
        """
        return self._fields_at(unlift(z, self.safe_set, self.family))

    def _fields_at(self, frame: CoordinateFrame) -> tuple[float, float, float]:
        fam1, fam2 = family_pair(self.family)
        x1, x2 = frame.x
        c1, c2 = frame.xn
        vgain = fam1.unsquash_deriv(c1) * self.plant.g1(x1) * self.safe_set.x2_max
        if vgain == 0.0 or not math.isfinite(vgain):
            raise SingularityDetected(f"virtual gain {vgain!r} at x1={x1}")
        d2 = fam2.unsquash_deriv(c2)
        regressor = d2 * self.plant.f2(x1, x2)
        igain = d2 * self.plant.g2(x1, x2)
        if igain == 0.0 or not math.isfinite(igain):
            raise SingularityDetected(f"lifted input gain {igain!r} at ({x1}, {x2})")
        if not math.isfinite(regressor):
            raise SingularityDetected(f"lifted drift regressor {regressor!r} at ({x1}, {x2})")
        return vgain, regressor, igain

    def rhs(self, z: Sequence[float], u: float) -> tuple[float, float]:
        """z-coordinate state derivative using the hidden true parameters.

        Only valid over a truth-backed plant; the controller-facing view
        deliberately cannot drive this.
        """
        try:
            th1, th2 = self.plant.theta1, self.plant.theta2
        except AttributeError:
            raise ConfigError(
                "rhs needs a truth-backed plant with theta1/theta2; got the "
                "controller-facing view") from None
        frame = unlift(z, self.safe_set, self.family)
        vgain, regressor, igain = self._fields_at(frame)
        return (vgain * frame.xn[1],
                regressor * th1 + igain * u * th2)
