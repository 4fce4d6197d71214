"""Numerical stability and safety certification of completed runs.

The monitor evaluates the composite Lyapunov function

    V = e1^2 / 2 + squash_integral(zn2)
        + |theta2| (p2_hat - p2)^2 / (2 gamma)
        + (theta1_target - theta1_hat)^2 / (2 alpha)

with p2 = 1 / theta2, theta1_target = theta1 / x2_max and zn2 =
unsquash(x2 / x2_max), lyapunov_fn's first column. It checks what the
design promises: the state never leaves the safe box, logged V never
increases beyond integrator noise, the numeric rate of V matches
-(sqrt(k1) e1 - sqrt(k2) e2)^2, the estimates stay in a ball fixed by a
finite V(0), and the run ends near the equilibrium (z1_ref, 0) with u near
0. These are finite-horizon numerical certificates over a sampled
trajectory, not proofs; thresholds are explicit and configurable.

Because V needs the true parameters, the monitor is a diagnostic layer on
top of a simulation; nothing here flows back into the control law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from .controller import EstimatorState, Reference, ControllerGains, lifted_stage
from .lifting import CoordinateFrame, family_pair
from .errors import require_positive
from .plant import require_truth


def estimate_targets(plant, safe_set) -> tuple[float, float]:
    """(theta1 / x2_max, 1 / theta2), what theta1_hat and p2_hat estimate.

    theta1_hat estimates the drift of x2 / x2_max, hence theta1 / x2_max.
    """
    return plant.theta1 / safe_set.x2_max, 1.0 / plant.theta2


def lyapunov_fn(plant, safe_set, family, gains: ControllerGains):
    """Compile V into v(zn2, p2_hat, theta1_hat, e1) over float64 columns.

    lyapunov and the simulator's V column evaluate this one V. zn2 is
    unsquash(x2 / x2_max), which the simulator also scales into z2; the
    barrier maps it through the family's scalar squash_integral, not a NumPy
    ufunc, so no bit differs from the scalar formula. plant must be a
    PlantDef (plant.require_truth). The estimate terms are centred on
    estimate_targets, so the analytic decrease law holds for any box size.
    """
    th1e, p2 = estimate_targets(require_truth(plant, "lyapunov"), safe_set)
    vcal2 = family_pair(family)[1].squash_integral
    ath2 = abs(plant.theta2)
    gam, alp = gains.gamma, gains.alpha

    def v(zn2, p2h, th1h, e1):
        dp = p2h - p2
        dth = th1e - th1h
        barrier = np.fromiter(map(vcal2, zn2), float, len(zn2))
        return (0.5 * e1 * e1 + barrier
                + 0.5 / gam * ath2 * dp * dp + 0.5 / alp * dth * dth)

    return v


def lyapunov(dyn, frame: CoordinateFrame, ref: Reference,
             gains: ControllerGains, est: EstimatorState) -> float:
    """Composite Lyapunov value at one state.

    dyn is a plant.LiftedDynamics whose plant is truth-backed (carries
    theta1/theta2), frame a lift with dyn's box and family; nonnegative,
    and zero exactly at the equilibrium with exact estimates.
    """
    return float(lyapunov_fn(dyn.plant, dyn.safe_set, dyn.family, gains)(
        np.array([frame.zn[1]]), est.p2_hat, est.theta1_hat, frame.z[0] - ref.z1d)[0])


def vdot_analytic(e1: float, e2: float, gains: ControllerGains) -> float:
    """Closed-form Lyapunov rate under the design coupling k2 = 1/k1.

    Equals -(sqrt(k1) e1 - sqrt(k2) e2)^2, hence never positive, and zero
    exactly on the k1 e1 = e2 locus. e1 and e2 may be scalars or arrays.
    """
    r = math.sqrt(gains.k1) * e1 - math.sqrt(gains.k2) * e2
    return -r * r


@dataclass(frozen=True)
class CertThresholds:
    """Thresholds applied when certifying a trajectory.

    lyap_increment_rel scales with max(1, V(0)); estimate_bound_factor
    scales with 1 + V(0). vdot_tol covers the finite-difference error of
    the numeric V rate, so it depends on the log spacing used. Every
    threshold must be finite and positive.
    """

    lyap_increment_rel: float = 1e-6
    vdot_tol: float = 1e-3
    estimate_bound_factor: float = 10.0
    tracking_tol: float = 0.02
    final_residual_tol: float = 1e-2

    def __post_init__(self):
        require_positive(self)


def _text(value, spec: str = ".15g") -> str:
    """The one rule that writes a certificate value: pass/FAIL for a check,
    none for no value, the failure text itself, spec for a number."""
    if isinstance(value, bool):
        return "pass" if value else "FAIL"
    if value is None:
        return "none"
    return value if isinstance(value, str) else format(value, spec)


@dataclass
class Certificate:
    """Checked facts about one trajectory, with the evidence attached.

    Pass/fail applies to safety, Lyapunov monotonicity, and estimate
    boundedness (plus run completion); the remaining entries are measured
    values recorded for inspection against the thresholds, each echoed
    tolerance right after the values it bounds. certify fills each field
    once; a value the run did not get to measure keeps its default: nan, a
    failed check, or no violation time. The fields, in order, are the
    cert.txt keys between completed and all_pass.
    lyapunov_monotone uses lyap_increment_rel * max(1, V0), so it cannot
    resolve a term whose change is below the ulp of V (the certified config
    at gamma = 1e-306, p2_hat = 2: V0 = 5e305, every increment 0, a pass 1.54
    from the target); ROADMAP item 2's per-sample identity check would.
    """

    failure: Optional[str]
    v0: float = math.nan
    safe_invariance: bool = False
    first_violation_time: Optional[float] = None
    lyapunov_monotone: bool = False
    worst_v_increment: float = math.nan
    lyap_increment_allowance: float = math.nan
    vdot_identity_error: float = math.nan
    vdot_tol: float = math.nan
    estimates_bounded: bool = False
    sup_p2_hat: float = math.nan
    sup_theta1_hat: float = math.nan
    estimate_allowance: float = math.nan
    tracking_error_final: float = math.nan
    tracking_tol: float = math.nan
    final_e1: float = math.nan
    final_e2: float = math.nan
    final_u: float = math.nan
    final_z2: float = math.nan
    final_residual_tol: float = math.nan
    equilibrium_residual: float = math.nan

    @property
    def completed(self) -> bool:
        return self.failure is None

    @property
    def all_pass(self) -> bool:
        return (self.completed and self.safe_invariance
                and self.lyapunov_monotone and self.estimates_bounded)

    def to_report(self) -> str:
        lines = [f"completed = {self.completed}"]
        lines += [f"{f.name} = {_text(getattr(self, f.name))}" for f in fields(self)]
        lines.append(f"all_pass = {_text(self.all_pass)}")
        return "\n".join(lines) + "\n"


def certify(traj, cfg, thresholds: Optional[CertThresholds] = None) -> Certificate:
    """Evaluate every certificate check on a (possibly partial) trajectory."""
    th = thresholds or CertThresholds()
    fail = traj.failure
    cert = Certificate(failure=None if fail is None else str(fail), vdot_tol=th.vdot_tol,
                       tracking_tol=th.tracking_tol, final_residual_tol=th.final_residual_tol)
    if fail is not None:
        cert.first_violation_time = fail.time
    if len(traj) == 0:
        # The first law call failed, so nothing was logged and V(0) is
        # unknown: the increment allowance falls back to its floor.
        cert.lyap_increment_allowance = th.lyap_increment_rel
        return cert
    cert.v0 = float(traj.v[0])
    if fail is None:
        cert.safe_invariance = bool(np.all(traj.in_safe_set))
        if not cert.safe_invariance:
            cert.first_violation_time = float(traj.t[int(np.argmin(traj.in_safe_set))])

    cert.lyap_increment_allowance = th.lyap_increment_rel * max(1.0, cert.v0)
    if len(traj) >= 2:
        # One sample has no increment of V and no numeric rate to compare.
        with np.errstate(invalid="ignore"):  # inf - inf of an overflowed V reads nan
            cert.worst_v_increment = float(np.diff(traj.v).max())
        cert.lyapunov_monotone = (cert.worst_v_increment
                                  < cert.lyap_increment_allowance < math.inf)
        vdot_error = np.abs(traj.vdot_numeric - traj.vdot_analytic)
        cert.vdot_identity_error = float(vdot_error.max())

    cert.sup_p2_hat = float(np.max(np.abs(traj.p2_hat)))
    cert.sup_theta1_hat = float(np.max(np.abs(traj.theta1_hat)))
    cert.estimate_allowance = th.estimate_bound_factor * (1.0 + cert.v0)
    # Two comparisons, not max(...) < allowance: a NaN must fail the check.
    # An allowance of inf (V(0) overflowed) bounds nothing, here or above.
    cert.estimates_bounded = (cert.sup_p2_hat < cert.estimate_allowance < math.inf
                              and cert.sup_theta1_hat < cert.estimate_allowance)

    cert.tracking_error_final = float(abs(traj.x1[-1] - cfg.x1d))
    cert.final_e1 = float(traj.e1[-1])
    cert.final_e2 = float(traj.e2[-1])
    cert.final_u = float(traj.u[-1])
    cert.final_z2 = float(traj.z2[-1])

    dz1, phi, psi, dp2, dth1, *_ = lifted_stage(cfg._law, cfg.safe_set, cfg.family)(
        traj.z1[-1], traj.z2[-1], float(traj.p2_hat[-1]), float(traj.theta1_hat[-1]))
    dz2 = cfg.plant.theta1 * phi + cfg.plant.theta2 * psi
    cert.equilibrium_residual = max(abs(dz1), abs(dz2), abs(dp2), abs(dth1))
    return cert


@dataclass
class SignAdjudication:
    """Side-by-side certification of the two p2_hat update signs."""

    plus: Certificate
    minus: Certificate
    recommended_sign: float

    # The certificate fields compared side by side, in report order.
    ROWS = ("lyapunov_monotone", "worst_v_increment", "vdot_identity_error",
            "tracking_error_final", "safe_invariance", "estimates_bounded",
            "sup_p2_hat")

    def to_report(self) -> str:
        rows = [("", "p2_law_sign=+1", "p2_law_sign=-1")]
        rows += [(name, _text(getattr(self.plus, name), ".3e"),
                  _text(getattr(self.minus, name), ".3e")) for name in self.ROWS]
        width = max(len(r[0]) for r in rows) + 2
        out = ["p2_hat update-sign adjudication (same scenario, both laws):"]
        for name, a, b in rows:
            out.append(f"  {name:<{width}} {a:>18} {b:>18}")
        out.append(f"  recommended default sign: {self.recommended_sign:+.0f} "
                   "(the law whose monitored V is non-increasing)")
        return "\n".join(out) + "\n"


def adjudicate_p2_sign(cfg, thresholds: Optional[CertThresholds] = None) -> SignAdjudication:
    """Run both p2_hat update signs on one scenario and certify each.

    The recommended sign is the one whose Lyapunov trace is monotone
    (+1 wins ties). The certified law and the better-tracking law need not
    coincide; the report keeps both outcomes visible.
    """
    from .simulator import run

    plus_cfg, minus_cfg = replace(cfg, p2_law_sign=1.0), replace(cfg, p2_law_sign=-1.0)
    plus = certify(run(plus_cfg), plus_cfg, thresholds)
    minus = certify(run(minus_cfg), minus_cfg, thresholds)
    if plus.lyapunov_monotone or not minus.lyapunov_monotone:
        rec = 1.0
    else:
        rec = -1.0
    return SignAdjudication(plus=plus, minus=minus, recommended_sign=rec)
