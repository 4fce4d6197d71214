"""Fixed-step RK4 integration of the augmented closed loop.

The integrated state is (x1, x2, p2_hat, theta1_hat): the plant in its
original coordinates plus the two parameter estimates, advanced together
as one ODE. Every RK4 stage evaluates the controller's compiled law, which
is built from the plant's control view and returns the rates in regressor
form; _rk4 alone combines them with the true parameters,
x2' = theta1 * phi + theta2 * psi.

run_lifted integrates the same closed loop with the lifted (z1, z2) as the
state, through the same law carried into z by lifted_dynamics.lifted_stage
and the same _rk4, and recovers x by unlifting. Agreement of the two
routes checks the coordinate-change algebra.

Every stage state must stay strictly inside the safe-set guard band; a
stage that leaves it aborts the step (the state is never clamped, since a
clamped trajectory would fake the safety property the run is supposed to
demonstrate). Aborted runs keep the partial trajectory and record when and
why they stopped.

The logged Lyapunov value uses the true plant parameters. It is a
diagnostic for the monitor only and is never fed back to the controller.

write_csvs writes several CSV tables in one chunked pass and formats a
column array that several tables share once; write_csv and
Trajectory.to_csv are its one-table case.
"""

from __future__ import annotations

import math
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .controller import ControllerGains, EstimatorState, Reference, compile_law
from .errors import (ConfigError, DomainViolation, InvalidParams, NonFiniteInput,
                     SingularityDetected, StepRejected)
from .lifted_dynamics import LiftedDynamics, lifted_stage
from .lifting import SafeSet, FamilySpec, family_pair, lift, tanh_family, unlift
from .monitor import lyapunov_fn, vdot_analytic
from .plant import PlantDef

_STAGE_ERRORS = (DomainViolation, SingularityDetected, NonFiniteInput)


@dataclass(frozen=True)
class SimConfig:
    """A fully specified closed-loop experiment.

    sign(theta2) is stored only in the plant and the target only as x1d;
    reference derives from x1d and is checked when the config is built.
    t_final is rounded to a whole number of dt steps. log_stride thins the
    trajectory record (every Nth step plus the final state). p2_law_sign
    selects the p2_hat update sign, +1 by default (see the controller
    module).
    """

    plant: PlantDef
    safe_set: SafeSet
    gains: ControllerGains
    x1d: float
    x0: tuple[float, float]
    est0: EstimatorState
    family: FamilySpec = field(default_factory=tanh_family)
    dt: float = 1e-3
    t_final: float = 30.0
    log_stride: int = 1
    p2_law_sign: float = 1.0

    def __post_init__(self):
        try:
            self.reference
        except InvalidParams as exc:
            raise ConfigError(str(exc)) from None
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if not (math.isfinite(self.t_final) and self.t_final >= self.dt):
            raise ConfigError(f"t_final must be at least dt, got {self.t_final}")
        if not (isinstance(self.log_stride, int) and self.log_stride >= 1):
            raise ConfigError(f"log_stride must be a positive integer, got {self.log_stride}")
        if self.p2_law_sign not in (1.0, -1.0, 1, -1):
            raise ConfigError(f"p2_law_sign must be +1 or -1, got {self.p2_law_sign}")
        try:
            lift(self.x0, self.safe_set, self.family)
        except (NonFiniteInput, DomainViolation) as exc:
            raise ConfigError(f"initial state {self.x0} must be finite and strictly "
                              f"inside the safe set: {exc}") from None
        if not (math.isfinite(self.est0.p2_hat) and math.isfinite(self.est0.theta1_hat)):
            raise ConfigError(f"initial estimates must be finite, got {self.est0}")
        if self.est0.p2_hat == 0.0:
            raise ConfigError(
                "initial p2_hat must be nonzero: a zero reciprocal-gain estimate "
                "makes the control input identically zero for all time")

    @cached_property
    def reference(self) -> Reference:
        return Reference.for_target(self.x1d, self.safe_set, self.family)

    @property
    def n_steps(self) -> int:
        return max(1, round(self.t_final / self.dt))

    def dynamics(self) -> LiftedDynamics:
        """Truth-backed lifted dynamics (for simulation and monitoring)."""
        return LiftedDynamics(plant=self.plant, safe_set=self.safe_set,
                              family=self.family)

    def with_sign(self, p2_law_sign: float) -> "SimConfig":
        return replace(self, p2_law_sign=float(p2_law_sign))

    # (law, theta): the law over the plant's control view, and the true
    # parameters only _rk4 sees. Compiled once per config; replace() builds
    # a new config, so a changed field never meets a stale closure.
    @cached_property
    def _law(self):
        return (compile_law(self.plant.control_view(), self.safe_set, self.family,
                            self.gains, self.reference, self.p2_law_sign),
                (self.plant.theta1, self.plant.theta2))

    @cached_property
    def _lyapunov(self):
        return lyapunov_fn(self.dynamics(), self.gains)


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
    z1: np.ndarray
    z2: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    u: np.ndarray
    p2_hat: np.ndarray
    theta1_hat: np.ndarray
    v: np.ndarray
    vdot_analytic: np.ndarray
    vdot_numeric: np.ndarray
    in_safe_set: np.ndarray
    failure: Optional[RunFailure]

    CSV_HEADER = ("t,x1,x2,z1,z2,e1,e2,u,p2_hat,theta1_hat,"
                  "V,Vdot_num,Vdot_analytic")

    @property
    def completed(self) -> bool:
        return self.failure is None

    def __len__(self) -> int:
        return len(self.t)

    def csv_table(self, path):
        """(path, header, columns) of the pinned trace schema, for write_csvs."""
        return (path, self.CSV_HEADER,
                (self.t, self.x1, self.x2, self.z1, self.z2, self.e1, self.e2,
                 self.u, self.p2_hat, self.theta1_hat, self.v,
                 self.vdot_numeric, self.vdot_analytic))

    def to_csv(self, path) -> None:
        """Write the pinned trace schema with 15 significant digits."""
        write_csv(*self.csv_table(path))


# write_csvs keeps one chunk of every table's text alive at once. On
# `safelift run` (fig2 and certified configs), 2048 rows raised the peak
# memory by about 1.9 MB over writing the files one by one, 1024 rows by
# about 0.6 MB at the same speed; 256 rows saved 0.3 MB more but wrote slower.
CSV_CHUNK_ROWS = 1024


def write_csv(path, header: str, cols) -> None:
    """Write equal-length numeric columns as CSV, 15 significant digits."""
    write_csvs([(path, header, cols)])


def write_csvs(tables) -> None:
    """Write CSV tables of numeric columns in one chunked pass.

    tables holds (path, header, cols) entries, every column as long as the
    first. "%.15g" gives the text of f"{v:.15g}", so each file is
    byte-identical to per-cell formatting. A column array that several
    tables share is formatted once per chunk: tables are cut into runs of
    columns (_column_runs), each distinct run is formatted in one call, and
    a table of several runs joins their lines row by row.
    """
    runs = _column_runs(tables)
    n = len(tables[0][2][0])
    with ExitStack() as stack:
        files = [stack.enter_context(open(path, "w", newline=""))
                 for path, _, _ in tables]
        for fh, (_, header, _) in zip(files, tables):
            fh.write(header + "\n")
        for lo in range(0, n, CSV_CHUNK_ROWS):
            text, lines = {}, {}  # run key -> this chunk's rows: one string, a list
            for fh, table_runs in zip(files, runs):
                for key, run in table_runs:
                    if key not in text:
                        text[key] = _format_rows(run, lo, lo + CSV_CHUNK_ROWS)
                if len(table_runs) == 1:
                    fh.write(text[table_runs[0][0]])
                    continue
                for key, _ in table_runs:
                    if key not in lines:
                        lines[key] = text[key].splitlines()
                rows = zip(*(lines[key] for key, _ in table_runs))
                fh.write("\n".join(map(",".join, rows)))
                fh.write("\n")


def _format_rows(cols, lo, hi):
    """Rows lo:hi of equal-length columns as CSV text, in one %-format call."""
    block = np.column_stack([c[lo:hi] for c in cols])
    row_fmt = ",".join(["%.15g"] * len(cols)) + "\n"
    return (row_fmt * len(block)) % tuple(block.ravel().tolist())


def _column_runs(tables):
    """Per table, its columns cut into (key, run) pairs.

    A run is a maximal stretch of adjacent columns that every table holding
    one of them holds in the same order, adjacent; so a run's text is the
    same in every table that uses it. key is the tuple of the run's column
    ids, under which its formatted text is shared.
    """
    where = {}
    for ti, (_, _, cols) in enumerate(tables):
        for ci, col in enumerate(cols):
            where.setdefault(id(col), []).append((ti, ci))
    out = []
    for _, _, cols in tables:
        runs = [[cols[0]]]
        for a, b in zip(cols, cols[1:]):
            if [(ti, ci + 1) for ti, ci in where[id(a)]] == where[id(b)]:
                runs[-1].append(b)
            else:
                runs.append([b])
        out.append([(tuple(map(id, run)), run) for run in runs])
    return out


def _rk4(stage, theta, state, dt, a=None):
    """One classical RK4 step of a stage in regressor form.

    stage(s1, s2, p2h, th1h) returns (s1', phi, psi, p2h', th1h', ...), and
    s2' = theta1 * phi + theta2 * psi is formed here. a, if given, is
    stage(*state) already computed.
    """
    th1, th2 = theta
    s1, s2, p2h, th1h = state
    if a is None:
        a = stage(s1, s2, p2h, th1h)
    h = 0.5 * dt
    a2 = th1 * a[1] + th2 * a[2]
    b = stage(s1 + h * a[0], s2 + h * a2, p2h + h * a[3], th1h + h * a[4])
    b2 = th1 * b[1] + th2 * b[2]
    c = stage(s1 + h * b[0], s2 + h * b2, p2h + h * b[3], th1h + h * b[4])
    c2 = th1 * c[1] + th2 * c[2]
    d = stage(s1 + dt * c[0], s2 + dt * c2, p2h + dt * c[3], th1h + dt * c[4])
    d2 = th1 * d[1] + th2 * d[2]
    w = dt / 6.0
    return (s1 + w * (a[0] + 2.0 * (b[0] + c[0]) + d[0]),
            s2 + w * (a2 + 2.0 * (b2 + c2) + d2),
            p2h + w * (a[3] + 2.0 * (b[3] + c[3]) + d[3]),
            th1h + w * (a[4] + 2.0 * (b[4] + c[4]) + d[4]))


def step(cfg: SimConfig, state: tuple[float, float], est: EstimatorState,
         t: float = 0.0) -> tuple[tuple[float, float], EstimatorState]:
    """Advance one RK4 step from an arbitrary state.

    Raises StepRejected (wrapping the underlying cause and the offending
    time) if any stage leaves the guard band, hits a singular gain, or sees
    a non-finite value.
    """
    law, theta = cfg._law
    try:
        x1, x2, p2h, th1h = _rk4(law, theta, (state[0], state[1], est.p2_hat,
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
    law, theta = cfg._law
    vfun = cfg._lyapunov
    n = cfg.n_steps
    dt = cfg.dt
    stride = cfg.log_stride

    n_log = n // stride + 1 + (1 if n % stride else 0)
    cols = np.empty((9, n_log))
    ct, cx1, cx2, cp2h, cth1h, ce1, ce2, cu, cv = cols
    state = (cfg.x0[0], cfg.x0[1], cfg.est0.p2_hat, cfg.est0.theta1_hat)
    failure = None
    j = 0
    for i in range(n + 1):
        out = None  # a logged step's stage evaluation doubles as RK4's first stage
        try:
            if i % stride == 0 or i == n:
                x1, x2, p2h, th1h = state
                out = law(x1, x2, p2h, th1h)
                e1 = out[5]
                ct[j] = i * dt
                cx1[j] = x1
                cx2[j] = x2
                cp2h[j] = p2h
                cth1h[j] = th1h
                ce1[j] = e1
                ce2[j] = out[6]
                cu[j] = out[7]
                cv[j] = vfun(x2, p2h, th1h, e1)
                j += 1
            if i == n:
                break
            state = _rk4(law, theta, state, dt, a=out)
        except _STAGE_ERRORS as exc:
            failure = RunFailure(time=i * dt, kind=type(exc).__name__,
                                 message=str(exc))
            break

    cols = cols[:, :j]
    t = cols[0]
    xb1, xb2 = cfg.safe_set.bounds
    fam1, fam2 = family_pair(cfg.family)
    z1 = xb1 * np.array([fam1.unsquash(v) for v in cols[1] / xb1])
    z2 = xb2 * np.array([fam2.unsquash(v) for v in cols[2] / xb2])
    if len(t) >= 3:
        vdot_num = np.gradient(cols[8], t, edge_order=2)
    elif len(t) == 2:
        vdot_num = np.gradient(cols[8], t)
    else:
        vdot_num = np.zeros_like(cols[8])
    return Trajectory(
        t=t, x1=cols[1], x2=cols[2], z1=z1, z2=z2,
        e1=cols[5], e2=cols[6], u=cols[7],
        p2_hat=cols[3], theta1_hat=cols[4],
        v=cols[8], vdot_analytic=vdot_analytic(cols[5], cols[6], cfg.gains),
        vdot_numeric=vdot_num,
        in_safe_set=(np.abs(cols[1]) < xb1) & (np.abs(cols[2]) < xb2),
        failure=failure)


@dataclass
class LiftedRun:
    """Closed-loop trajectory integrated in z coordinates."""

    t: np.ndarray
    z1: np.ndarray
    z2: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    p2_hat: np.ndarray
    theta1_hat: np.ndarray


def run_lifted(cfg: SimConfig) -> LiftedRun:
    """Integrate the closed loop with (z1, z2, p2_hat, theta1_hat) as the state.

    Each stage is lifted_dynamics.lifted_stage over the config's compiled
    law, in the regressor form _rk4 takes. The logged x comes from unlift. A
    stage inside the guard band or with a non-finite value raises
    StepRejected with the time of the step, as step does: a z that only maps
    into the box because the squash rounds to the boundary is a divergence,
    not a safe state.
    """
    law, theta = cfg._law
    ss, fam = cfg.safe_set, cfg.family
    stage = lifted_stage(law, ss, fam)
    n, dt = cfg.n_steps, cfg.dt
    state = (*lift(cfg.x0, ss, fam).z, cfg.est0.p2_hat, cfg.est0.theta1_hat)
    cols = np.empty((4, n + 1))
    cols[:, 0] = state
    for i in range(n):
        try:
            state = _rk4(stage, theta, state, dt)
        except _STAGE_ERRORS as exc:
            raise StepRejected(i * dt, exc) from exc
        cols[:, i + 1] = state
    x = np.array([unlift(z, ss, fam).x for z in zip(cols[0], cols[1])])
    return LiftedRun(t=np.arange(n + 1) * dt, z1=cols[0], z2=cols[1],
                     x1=x[:, 0], x2=x[:, 1], p2_hat=cols[2], theta1_hat=cols[3])
