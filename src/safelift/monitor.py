"""Numerical stability and safety certification of completed runs.

The monitor evaluates the composite Lyapunov function

    V = e1^2 / 2 + squash_integral(zn2)
        + |theta2| (p2_hat - p2)^2 / (2 gamma)
        + (theta1_target - theta1_hat)^2 / (2 alpha)

with p2 = 1 / theta2 and theta1_target = theta1 / x2_max, and checks the
trajectory-level facts the design promises: the state never leaves the
safe box, logged V never increases beyond integrator noise, the numeric
derivative of V matches -(sqrt(k1) e1 - sqrt(k2) e2)^2, the estimates stay
inside a ball fixed by V(0), and the run ends near the closed-loop
equilibrium (z1_ref, 0) with u near 0. These are finite-horizon numerical
certificates over a sampled trajectory, not proofs; thresholds are
explicit and configurable.

Because V needs the true parameters, the monitor is a diagnostic layer on
top of a simulation; nothing here flows back into the control law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields as dc_fields
from typing import Optional

import numpy as np

from .controller import EstimatorState, Reference, ControllerGains
from .lifted_dynamics import LiftedDynamics, lifted_stage
from .lifting import CoordinateFrame, family_pair, lift
from .errors import InvalidParams


def estimate_targets(plant, safe_set) -> tuple[float, float]:
    """(theta1 / x2_max, 1 / theta2), what theta1_hat and p2_hat estimate.

    theta1_hat estimates the drift of x2 / x2_max, hence theta1 / x2_max.
    """
    return plant.theta1 / safe_set.x2_max, 1.0 / plant.theta2


def lyapunov_fn(dyn: LiftedDynamics, gains: ControllerGains):
    """Compile V into v(x2, p2_hat, theta1_hat, e1).

    Both lyapunov and the simulator's logged V column evaluate this one
    function. dyn must be truth-backed (its plant carries theta1/theta2).
    The estimate terms are centred on estimate_targets; with that centring
    the analytic decrease law holds for any box size.
    """
    try:
        th1e, p2 = estimate_targets(dyn.plant, dyn.safe_set)
    except AttributeError:
        raise InvalidParams(
            "lyapunov needs truth-backed dynamics (a plant with theta1/theta2); "
            "got the controller-facing view") from None
    xb2 = dyn.safe_set.x2_max
    _, fam2 = family_pair(dyn.family)
    un2, vcal2 = fam2.unsquash, fam2.squash_integral
    ath2 = abs(dyn.plant.theta2)
    gam, alp = gains.gamma, gains.alpha

    def v(x2, p2h, th1h, e1):
        dp = p2h - p2
        dth = th1e - th1h
        return (0.5 * e1 * e1 + vcal2(un2(x2 / xb2))
                + 0.5 / gam * ath2 * dp * dp + 0.5 / alp * dth * dth)

    return v


def lyapunov(dyn: LiftedDynamics, frame: CoordinateFrame, ref: Reference,
             gains: ControllerGains, est: EstimatorState) -> float:
    """Composite Lyapunov value at one state.

    dyn must be truth-backed (its plant carries theta1/theta2);
    nonnegative, and zero exactly at the equilibrium with exact estimates.
    """
    return lyapunov_fn(dyn, gains)(frame.x[1], est.p2_hat, est.theta1_hat,
                                   frame.z[0] - ref.z1d)


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
        for f in dc_fields(self):
            v = getattr(self, f.name)
            if not (math.isfinite(v) and v > 0.0):
                raise InvalidParams(f"{f.name} must be finite and positive, got {v}")


def _pass_fail(ok: bool) -> str:
    return "pass" if ok else "FAIL"


@dataclass
class Certificate:
    """Checked facts about one trajectory, with the evidence attached.

    Pass/fail applies to safety, Lyapunov monotonicity, and estimate
    boundedness (plus run completion); the remaining entries are measured
    values recorded for inspection against the thresholds. certify fills
    each field once; a value the run did not get to measure keeps its
    default: nan, a failed check, or no violation time.
    """

    failure: Optional[str]
    thresholds: CertThresholds
    v0: float = math.nan
    safe_invariance: bool = False
    first_violation_time: Optional[float] = None
    lyapunov_monotone: bool = False
    worst_v_increment: float = math.nan
    lyap_increment_allowance: float = math.nan
    vdot_identity_error: float = math.nan
    estimates_bounded: bool = False
    sup_p2_hat: float = math.nan
    sup_theta1_hat: float = math.nan
    estimate_allowance: float = math.nan
    tracking_error_final: float = math.nan
    final_e1: float = math.nan
    final_e2: float = math.nan
    final_u: float = math.nan
    final_z2: float = math.nan
    equilibrium_residual: float = math.nan

    @property
    def completed(self) -> bool:
        return self.failure is None

    @property
    def all_pass(self) -> bool:
        return (self.completed and self.safe_invariance
                and self.lyapunov_monotone and self.estimates_bounded)

    def to_report(self) -> str:
        th = self.thresholds
        opt = lambda v: "none" if v is None else f"{v:.15g}"
        lines = [
            f"completed = {self.completed}",
            f"failure = {self.failure or 'none'}",
            f"v0 = {self.v0:.15g}",
            f"safe_invariance = {_pass_fail(self.safe_invariance)}",
            f"first_violation_time = {opt(self.first_violation_time)}",
            f"lyapunov_monotone = {_pass_fail(self.lyapunov_monotone)}",
            f"worst_v_increment = {self.worst_v_increment:.15g}",
            f"lyap_increment_allowance = {self.lyap_increment_allowance:.15g}",
            f"vdot_identity_error = {self.vdot_identity_error:.15g}",
            f"vdot_tol = {th.vdot_tol:.15g}",
            f"estimates_bounded = {_pass_fail(self.estimates_bounded)}",
            f"sup_p2_hat = {self.sup_p2_hat:.15g}",
            f"sup_theta1_hat = {self.sup_theta1_hat:.15g}",
            f"estimate_allowance = {self.estimate_allowance:.15g}",
            f"tracking_error_final = {self.tracking_error_final:.15g}",
            f"tracking_tol = {th.tracking_tol:.15g}",
            f"final_e1 = {self.final_e1:.15g}",
            f"final_e2 = {self.final_e2:.15g}",
            f"final_u = {self.final_u:.15g}",
            f"final_z2 = {self.final_z2:.15g}",
            f"final_residual_tol = {th.final_residual_tol:.15g}",
            f"equilibrium_residual = {self.equilibrium_residual:.15g}",
            f"all_pass = {_pass_fail(self.all_pass)}",
        ]
        return "\n".join(lines) + "\n"

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_report())


def certify(traj, cfg, thresholds: Optional[CertThresholds] = None) -> Certificate:
    """Evaluate every certificate check on a (possibly partial) trajectory."""
    th = thresholds or CertThresholds()
    fail = traj.failure
    cert = Certificate(failure=None if fail is None else
                       f"{fail.kind} at t={fail.time:.6g}: {fail.message}", thresholds=th)
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

    increments = np.diff(traj.v)
    cert.worst_v_increment = float(increments.max()) if len(increments) else 0.0
    cert.lyap_increment_allowance = th.lyap_increment_rel * max(1.0, cert.v0)
    cert.lyapunov_monotone = cert.worst_v_increment < cert.lyap_increment_allowance
    cert.vdot_identity_error = float(np.max(np.abs(traj.vdot_numeric - traj.vdot_analytic)))

    cert.sup_p2_hat = float(np.max(np.abs(traj.p2_hat)))
    cert.sup_theta1_hat = float(np.max(np.abs(traj.theta1_hat)))
    cert.estimate_allowance = th.estimate_bound_factor * (1.0 + cert.v0)
    # Two comparisons, not max(...) < allowance: a NaN must fail the check.
    cert.estimates_bounded = (cert.sup_p2_hat < cert.estimate_allowance
                              and cert.sup_theta1_hat < cert.estimate_allowance)

    cert.tracking_error_final = float(abs(traj.x1[-1] - cfg.x1d))
    cert.final_e1 = float(traj.e1[-1])
    cert.final_e2 = float(traj.e2[-1])
    cert.final_u = float(traj.u[-1])
    cert.final_z2 = float(traj.z2[-1])

    law, (th1, th2) = cfg._law
    z1, z2 = lift((traj.x1[-1], traj.x2[-1]), cfg.safe_set, cfg.family).z
    dz1, phi, psi, dp2, dth1 = lifted_stage(law, cfg.safe_set, cfg.family)(
        z1, z2, float(traj.p2_hat[-1]), float(traj.theta1_hat[-1]))
    cert.equilibrium_residual = max(abs(dz1), abs(th1 * phi + th2 * psi), abs(dp2), abs(dth1))
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
        def cell(cert, name):
            v = getattr(cert, name)
            return _pass_fail(v) if isinstance(v, bool) else f"{v:.3e}"

        rows = [("", "p2_law_sign=+1", "p2_law_sign=-1")]
        rows += [(name, cell(self.plus, name), cell(self.minus, name))
                 for name in self.ROWS]
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

    plus_cfg, minus_cfg = cfg.with_sign(+1.0), cfg.with_sign(-1.0)
    plus = certify(run(plus_cfg), plus_cfg, thresholds)
    minus = certify(run(minus_cfg), minus_cfg, thresholds)
    if plus.lyapunov_monotone or not minus.lyapunov_monotone:
        rec = 1.0
    else:
        rec = -1.0
    return SignAdjudication(plus=plus, minus=minus, recommended_sign=rec)
