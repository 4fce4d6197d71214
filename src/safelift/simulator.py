"""Fixed-step RK4 integration of the augmented closed loop.

The integrated state is (x1, x2, p2_hat, theta1_hat): the plant in its
original coordinates plus the two parameter estimates, advanced together
as one ODE. Controller and estimator rates are re-evaluated at every RK4
stage from that stage's state.

Every stage state must stay strictly inside the safe-set guard band; a
stage that leaves it aborts the step (the state is never clamped, since a
clamped trajectory would fake the safety property the run is supposed to
demonstrate). Aborted runs keep the partial trajectory and record when and
why they stopped.

The logged Lyapunov value uses the true plant parameters. It is a
diagnostic for the monitor only and is never fed back to the controller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .controller import ControllerGains, EstimatorState, Reference
from .errors import (ConfigError, DomainViolation, NonFiniteInput,
                     SingularityDetected, StepRejected)
from .lifted_dynamics import LiftedDynamics
from .lifting import EPS_DOMAIN, SafeSet, FamilySpec, family_pair, tanh_family
from .plant import PlantDef

_STAGE_ERRORS = (DomainViolation, SingularityDetected, NonFiniteInput)


@dataclass(frozen=True)
class SimConfig:
    """A fully specified closed-loop experiment.

    t_final is rounded to a whole number of dt steps. log_stride thins the
    trajectory record (every Nth step plus the final state). p2_law_sign
    selects the p2_hat update sign, +1 by default (see the controller
    module).
    """

    plant: PlantDef
    safe_set: SafeSet
    gains: ControllerGains
    reference: Reference
    x0: tuple[float, float]
    est0: EstimatorState
    family: FamilySpec = field(default_factory=tanh_family)
    dt: float = 1e-3
    t_final: float = 30.0
    log_stride: int = 1
    p2_law_sign: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if not (math.isfinite(self.t_final) and self.t_final >= self.dt):
            raise ConfigError(f"t_final must be at least dt, got {self.t_final}")
        if not (isinstance(self.log_stride, int) and self.log_stride >= 1):
            raise ConfigError(f"log_stride must be a positive integer, got {self.log_stride}")
        if self.p2_law_sign not in (1.0, -1.0, 1, -1):
            raise ConfigError(f"p2_law_sign must be +1 or -1, got {self.p2_law_sign}")
        x1, x2 = self.x0
        if not (math.isfinite(x1) and math.isfinite(x2)):
            raise ConfigError(f"initial state must be finite, got {self.x0}")
        xb1, xb2 = self.safe_set.bounds
        if not (abs(x1) < xb1 * (1.0 - EPS_DOMAIN) and abs(x2) < xb2 * (1.0 - EPS_DOMAIN)):
            raise ConfigError(
                f"initial state {self.x0} must lie strictly inside the safe set "
                f"(-{xb1}, {xb1}) x (-{xb2}, {xb2})")
        if not (math.isfinite(self.est0.p2_hat) and math.isfinite(self.est0.theta1_hat)):
            raise ConfigError(f"initial estimates must be finite, got {self.est0}")
        if self.est0.p2_hat == 0.0:
            raise ConfigError(
                "initial p2_hat must be nonzero: a zero reciprocal-gain estimate "
                "makes the control input identically zero for all time")
        if self.gains.theta2_sign != self.plant.theta2_sign:
            raise ConfigError(
                f"gains.theta2_sign={self.gains.theta2_sign} disagrees with the "
                f"plant input-gain sign {self.plant.theta2_sign}")
        family_pair(self.family)

    @property
    def n_steps(self) -> int:
        return max(1, round(self.t_final / self.dt))

    def dynamics(self) -> LiftedDynamics:
        """Truth-backed lifted dynamics (for simulation and monitoring)."""
        return LiftedDynamics(plant=self.plant, safe_set=self.safe_set,
                              family=self.family)

    def control_dynamics(self) -> LiftedDynamics:
        """Lifted dynamics over the controller-facing plant view only."""
        return LiftedDynamics(plant=self.plant.control_view(),
                              safe_set=self.safe_set, family=self.family)

    def with_sign(self, p2_law_sign: float) -> "SimConfig":
        return replace(self, p2_law_sign=float(p2_law_sign))


@dataclass(frozen=True)
class RunFailure:
    time: float
    kind: str
    message: str


@dataclass
class Trajectory:
    """Time-indexed record of a run (possibly truncated by a failure)."""

    t: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    xn1: np.ndarray
    xn2: np.ndarray
    z1: np.ndarray
    z2: np.ndarray
    zn1: np.ndarray
    zn2: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    u: np.ndarray
    p2_hat: np.ndarray
    theta1_hat: np.ndarray
    v: np.ndarray
    vdot_analytic: np.ndarray
    vdot_numeric: np.ndarray
    in_safe_set: np.ndarray
    completed: bool
    failure: Optional[RunFailure]

    CSV_HEADER = ("t,x1,x2,z1,z2,e1,e2,u,p2_hat,theta1_hat,"
                  "V,Vdot_num,Vdot_analytic")

    def __len__(self) -> int:
        return len(self.t)

    def to_csv(self, path) -> None:
        """Write the pinned trace schema with 15 significant digits."""
        write_csv(path, self.CSV_HEADER,
                  (self.t, self.x1, self.x2, self.z1, self.z2, self.e1, self.e2,
                   self.u, self.p2_hat, self.theta1_hat, self.v,
                   self.vdot_numeric, self.vdot_analytic))


CSV_CHUNK_ROWS = 2048


def write_csv(path, header: str, cols) -> None:
    """Write equal-length numeric columns as CSV, 15 significant digits.

    Rows are formatted CSV_CHUNK_ROWS at a time with one %-format call per
    chunk; "%.15g" gives the same text as f"{v:.15g}", so the output is
    byte-identical to per-cell formatting while memory stays bounded by one
    chunk rather than the whole table.
    """
    row_fmt = ",".join(["%.15g"] * len(cols)) + "\n"
    n = len(cols[0])
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for lo in range(0, n, CSV_CHUNK_ROWS):
            block = np.column_stack([c[lo:lo + CSV_CHUNK_ROWS] for c in cols])
            fh.write((row_fmt * len(block)) % tuple(block.ravel().tolist()))


def _make_stage_fn(cfg: SimConfig):
    """Compile the augmented right-hand side into one flat closure.

    Returns stage(x1, x2, p2h, th1h) -> (dx1, dx2, dp2h, dth1h, e1, e2, u).
    This is the hot path; it mirrors controller.evaluate plus the plant
    derivative exactly (asserted against them in the test suite) while
    avoiding per-stage frame objects.
    """
    plant = cfg.plant
    g1, f2, g2 = plant.g1, plant.f2, plant.g2
    th1, th2 = plant.theta1, plant.theta2
    fam1, fam2 = family_pair(cfg.family)
    un1 = fam1.unsquash
    dun1, dun2 = fam1.unsquash_deriv, fam2.unsquash_deriv
    xb1, xb2 = cfg.safe_set.bounds
    lim1 = xb1 * (1.0 - EPS_DOMAIN)
    lim2 = xb2 * (1.0 - EPS_DOMAIN)
    k1 = cfg.gains.k1
    k2 = cfg.gains.k2
    gam, alp = cfg.gains.gamma, cfg.gains.alpha
    sgn = cfg.gains.theta2_sign
    z1d = cfg.reference.z1d
    psign = cfg.p2_law_sign
    isfinite = math.isfinite

    def stage(x1, x2, p2h, th1h):
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
        return (g1v * x2,
                f2v * th1 + g2v * u * th2,
                psign * gam * sgn * c2 * inner,
                alp * c2 * (d2 * f2v),
                e1, e2, u)

    return stage


def _make_v_fn(cfg: SimConfig):
    """Lyapunov value at a state, using the hidden true parameters.

    V = e1^2 / 2 + squash_integral(zn2)
        + |theta2| (p2_hat - 1/theta2)^2 / (2 gamma)
        + (theta1 / x2_max - theta1_hat)^2 / (2 alpha)

    The drift-estimate term is centred on theta1 / x2_max, the target the
    adaptation law actually converges around; with that centring the
    analytic decrease law holds for any box size.
    """
    xb2 = cfg.safe_set.x2_max
    _, fam2 = family_pair(cfg.family)
    un2, vcal2 = fam2.unsquash, fam2.squash_integral
    th2 = cfg.plant.theta2
    p2 = 1.0 / th2
    ath2 = abs(th2)
    th1e = cfg.plant.theta1 / xb2
    gam, alp = cfg.gains.gamma, cfg.gains.alpha

    def v(x2, p2h, th1h, e1):
        dp = p2h - p2
        dth = th1e - th1h
        return (0.5 * e1 * e1 + vcal2(un2(x2 / xb2))
                + 0.5 / gam * ath2 * dp * dp + 0.5 / alp * dth * dth)

    return v


def _rk4(stage, state, dt, a=None):
    """One classical RK4 step; a, if given, is stage(*state) already computed."""
    x1, x2, p2h, th1h = state
    if a is None:
        a = stage(x1, x2, p2h, th1h)
    h = 0.5 * dt
    b = stage(x1 + h * a[0], x2 + h * a[1], p2h + h * a[2], th1h + h * a[3])
    c = stage(x1 + h * b[0], x2 + h * b[1], p2h + h * b[2], th1h + h * b[3])
    d = stage(x1 + dt * c[0], x2 + dt * c[1], p2h + dt * c[2], th1h + dt * c[3])
    w = dt / 6.0
    return (x1 + w * (a[0] + 2.0 * (b[0] + c[0]) + d[0]),
            x2 + w * (a[1] + 2.0 * (b[1] + c[1]) + d[1]),
            p2h + w * (a[2] + 2.0 * (b[2] + c[2]) + d[2]),
            th1h + w * (a[3] + 2.0 * (b[3] + c[3]) + d[3]))


def step(cfg: SimConfig, state: tuple[float, float], est: EstimatorState,
         t: float = 0.0) -> tuple[tuple[float, float], EstimatorState]:
    """Advance one RK4 step from an arbitrary state.

    Raises StepRejected (wrapping the underlying cause and the offending
    time) if any stage leaves the guard band, hits a singular gain, or sees
    a non-finite value.
    """
    stage = _make_stage_fn(cfg)
    try:
        x1, x2, p2h, th1h = _rk4(stage, (state[0], state[1], est.p2_hat,
                                         est.theta1_hat), cfg.dt)
    except _STAGE_ERRORS as exc:
        raise StepRejected(t, exc) from exc
    return (x1, x2), EstimatorState(p2_hat=p2h, theta1_hat=th1h)


def run(cfg: SimConfig) -> Trajectory:
    """Integrate the closed loop to t_final (or to the first failure).

    The trajectory includes the analytic Lyapunov rate
    -(sqrt(k1) e1 - sqrt(k2) e2)^2 and a numeric rate obtained by
    differentiating the logged V, so the monitor can compare them.
    """
    stage = _make_stage_fn(cfg)
    vfun = _make_v_fn(cfg)
    n = cfg.n_steps
    dt = cfg.dt
    stride = cfg.log_stride
    sqrt_k1 = math.sqrt(cfg.gains.k1)
    sqrt_k2 = math.sqrt(cfg.gains.k2)

    n_log = n // stride + 1 + (1 if n % stride else 0)
    cols = np.empty((10, n_log))
    state = (cfg.x0[0], cfg.x0[1], cfg.est0.p2_hat, cfg.est0.theta1_hat)
    failure = None
    j = 0
    for i in range(n + 1):
        out = None  # a logged step's stage evaluation doubles as RK4's first stage
        if i % stride == 0 or i == n:
            x1, x2, p2h, th1h = state
            try:
                out = stage(x1, x2, p2h, th1h)
            except _STAGE_ERRORS as exc:
                failure = RunFailure(time=i * dt, kind=type(exc).__name__,
                                     message=str(exc))
                break
            e1, e2, u = out[4], out[5], out[6]
            r = sqrt_k1 * e1 - sqrt_k2 * e2
            cols[0][j] = i * dt
            cols[1][j] = x1
            cols[2][j] = x2
            cols[3][j] = p2h
            cols[4][j] = th1h
            cols[5][j] = e1
            cols[6][j] = e2
            cols[7][j] = u
            cols[8][j] = vfun(x2, p2h, th1h, e1)
            cols[9][j] = -r * r
            j += 1
        if i == n:
            break
        try:
            state = _rk4(stage, state, dt, a=out)
        except _STAGE_ERRORS as exc:
            failure = RunFailure(time=i * dt, kind=type(exc).__name__,
                                 message=str(exc))
            break

    cols = cols[:, :j]
    t = cols[0]
    xb1, xb2 = cfg.safe_set.bounds
    fam1, fam2 = family_pair(cfg.family)
    xn1 = cols[1] / xb1
    xn2 = cols[2] / xb2
    zn1 = np.array([fam1.unsquash(v) for v in xn1])
    zn2 = np.array([fam2.unsquash(v) for v in xn2])
    if len(t) >= 3:
        vdot_num = np.gradient(cols[8], t, edge_order=2)
    elif len(t) == 2:
        vdot_num = np.gradient(cols[8], t)
    else:
        vdot_num = np.zeros_like(cols[8])
    return Trajectory(
        t=t, x1=cols[1], x2=cols[2], xn1=xn1, xn2=xn2,
        z1=xb1 * zn1, z2=xb2 * zn2, zn1=zn1, zn2=zn2,
        e1=cols[5], e2=cols[6], u=cols[7],
        p2_hat=cols[3], theta1_hat=cols[4],
        v=cols[8], vdot_analytic=cols[9], vdot_numeric=vdot_num,
        in_safe_set=(np.abs(cols[1]) < xb1) & (np.abs(cols[2]) < xb2),
        completed=failure is None, failure=failure)
