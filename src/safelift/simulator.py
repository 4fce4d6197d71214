"""Fixed-step RK4 integration of the augmented closed loop.

The integrated state is the plant state plus the two parameter estimates
(p2_hat, theta1_hat), advanced together as one ODE. Every RK4 stage
evaluates the controller's compiled law (built from the plant's control
view; rates in regressor form), and only the step closure of _rk4, made
once per run, combines them with theta: x2' = theta1 * phi + theta2 * psi.

_integrate is the one closed-loop integrator. run passes it the compiled
law and x0; run_lifted passes the same law carried into z by
controller.lifted_stage and the lifted x0. Every stage ends its output
with the plant state x it evaluated, so both routes log the same columns
from it, and agreement of the two routes checks the coordinate-change
algebra.

Every stage state must stay strictly inside the safe-set guard band; a
stage that leaves it aborts the step (the state is never clamped, since a
clamped trajectory would fake the safety property the run is supposed to
demonstrate). An aborted run keeps the partial trajectory, and its failure
is the StepRejected that step raises.

The loop only steps and logs; z, V (monitor.lyapunov_fn, from the true
parameters, never fed back) and V's two rates come from the log after it,
with unsquash(x2 / x2_max) formed once per sample for z2 and for V.

write_csvs writes several CSV tables in one chunked pass: per chunk, one
vectorised "%.15g" call (_g15) formats each distinct column array once,
every table gathers its cells from that block, and Trajectory.to_csv is the
one-table case.
"""

from __future__ import annotations

import math
import operator
import struct
from contextlib import ExitStack
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Optional

import numpy as np

from ._g15 import CELL, format_g15
from .controller import (ControllerGains, EstimatorState, Reference, compile_law,
                         lifted_stage)
from .errors import (ConfigError, DomainViolation, NonFiniteInput,
                     SingularityDetected, StepRejected)
from .lifting import SafeSet, FamilySpec, family_pair, lift, tanh_family
from .monitor import lyapunov_fn, vdot_analytic
from .plant import LiftedDynamics, PlantDef, require_truth

_STAGE_ERRORS = (DomainViolation, SingularityDetected, NonFiniteInput)
# Stage tuples _integrate holds (0.4 kB each) before one struct.pack logs them:
# 0.27-0.28 µs a row, against 0.42 µs for np.fromiter and 1.4-1.7 µs for a
# column store (256 fig2 law tuples, 2-CPU shared host).
LOG_FLUSH_ROWS = 256


@dataclass(frozen=True)
class SimConfig:
    """A fully specified closed-loop experiment.

    plant is the full PlantDef, since the integrator needs the true
    parameters. sign(theta2) is stored only in the plant and the target only
    as x1d; reference derives from x1d and is checked when the config is
    built.
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
        require_truth(self.plant, "a simulation")
        self.reference  # refuses a target outside the box
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if not (math.isfinite(self.t_final) and self.t_final >= self.dt):
            raise ConfigError(f"t_final must be at least dt, got {self.t_final}")
        try:  # any integer type, kept as an int; not a bool, as True would run as 1
            stride = -1 if isinstance(self.log_stride, bool) else operator.index(self.log_stride)
        except TypeError:
            stride = -1
        if stride < 1:
            raise ConfigError(f"log_stride must be a positive integer, got {self.log_stride}")
        object.__setattr__(self, "log_stride", stride)
        if self.p2_law_sign not in (1.0, -1.0):
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
        return round(self.t_final / self.dt)

    def dynamics(self) -> LiftedDynamics:
        """The truth-backed z-oracle, for tests and benchmarks; no run builds it."""
        return LiftedDynamics(plant=self.plant, safe_set=self.safe_set,
                              family=self.family)

    # (law, theta): the law over the plant's control view, and the true
    # parameters only _rk4 sees. Compiled once per config; replace() builds
    # a new config, so a changed field never meets a stale closure.
    @cached_property
    def _law(self):
        return (compile_law(self.plant.control_view(), self.safe_set, self.family,
                            self.gains, self.reference, self.p2_law_sign),
                (self.plant.theta1, self.plant.theta2))


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
    failure: Optional[StepRejected]

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
        write_csvs([self.csv_table(path)])


# write_csvs keeps one chunk of every table's cells alive at once. In
# `safelift run` on the fig2 and certified configs, 256 rows peaked at
# 41.5 MB, as the replaced %-format writer did; 512 rows took 42.8 MB and
# 1024 rows 44.8 MB for up to 5% less time, 128 rows 41.0 MB but 7% more.
CSV_CHUNK_ROWS = 256


def write_csvs(tables) -> None:
    """Write CSV tables of numeric columns in one chunked pass.

    tables holds (path, header, cols) entries, every column as long as the
    first; each column is cast to float64. Each file is byte-identical to
    per-cell f"{v:.15g}" formatting. Per chunk, the distinct column arrays
    (by id) are formatted in one format_g15 call, each table gathers its
    cells from that block, and one translate drops the cells' NUL padding.
    """
    distinct = {}  # id(column) -> (its place in each chunk's block, column)
    layout = [[distinct.setdefault(id(col), (len(distinct), col))[0] for col in cols]
              for _, _, cols in tables]
    cols = [np.asarray(col, dtype=np.float64) for _, col in distinct.values()]
    with ExitStack() as stack:
        files = [stack.enter_context(open(path, "wb")) for path, _, _ in tables]
        for fh, (_, header, _) in zip(files, tables):
            fh.write(header.encode() + b"\n")
        for lo in range(0, len(cols[0]), CSV_CHUNK_ROWS):
            block = np.column_stack([c[lo:lo + CSV_CHUNK_ROWS] for c in cols])
            cells = format_g15(block.ravel()).reshape(*block.shape, CELL)
            for fh, idx in zip(files, layout):
                rows = cells[:, idx]
                rows[:, :, -1] = ord(",")
                rows[:, -1, -1] = ord("\n")
                fh.write(rows.tobytes().translate(None, b"\0"))


def _rk4(stage, theta, dt):
    """The classical RK4 step of a stage in regressor form, as a closure.

    stage(s1, s2, p2h, th1h) returns (s1', phi, psi, p2h', th1h', ...), and
    s2' = theta1 * phi + theta2 * psi is formed here. theta, h and dt / 6 are
    bound once; rk4(s1, s2, p2h, th1h, a) takes the first stage, a = stage(s1,
    s2, p2h, th1h), which the caller has evaluated, and returns the next state.
    """
    th1, th2 = theta
    h = 0.5 * dt
    w = dt / 6.0

    def rk4(s1, s2, p2h, th1h, a):
        a2 = th1 * a[1] + th2 * a[2]
        b = stage(s1 + h * a[0], s2 + h * a2, p2h + h * a[3], th1h + h * a[4])
        b2 = th1 * b[1] + th2 * b[2]
        c = stage(s1 + h * b[0], s2 + h * b2, p2h + h * b[3], th1h + h * b[4])
        c2 = th1 * c[1] + th2 * c[2]
        d = stage(s1 + dt * c[0], s2 + dt * c2, p2h + dt * c[3], th1h + dt * c[4])
        d2 = th1 * d[1] + th2 * d[2]
        return (s1 + w * (a[0] + 2.0 * (b[0] + c[0]) + d[0]),
                s2 + w * (a2 + 2.0 * (b2 + c2) + d2),
                p2h + w * (a[3] + 2.0 * (b[3] + c[3]) + d[3]),
                th1h + w * (a[4] + 2.0 * (b[4] + c[4]) + d[4]))

    return rk4


def step(cfg: SimConfig, state: tuple[float, float], est: EstimatorState,
         t: float = 0.0) -> tuple[tuple[float, float], EstimatorState]:
    """Advance one RK4 step from an arbitrary state.

    Raises StepRejected (wrapping the underlying cause and the offending
    time) if any stage leaves the guard band, hits a singular gain, or sees
    a non-finite value.
    """
    law, theta = cfg._law
    s = (state[0], state[1], est.p2_hat, est.theta1_hat)
    try:
        x1, x2, p2h, th1h = _rk4(law, theta, cfg.dt)(*s, law(*s))
    except _STAGE_ERRORS as exc:
        raise StepRejected(t, exc) from exc
    return (x1, x2), EstimatorState(p2_hat=p2h, theta1_hat=th1h)


def _integrate(cfg: SimConfig, stage, s0) -> Trajectory:
    """The closed loop from (s0, est0) to t_final, or to the first failure.

    stage is an RK4 stage in regressor form whose output ends with the
    signals and the state it evaluated, (..., e1, e2, u, x1, x2, p2_hat,
    theta1_hat); s0 is the initial point in the stage's own coordinates. A
    step's one stage call is _rk4's first stage; a logged step keeps its
    tuple, whose last seven entries go to the log LOG_FLUSH_ROWS at a time.
    V's analytic rate -(sqrt(k1) e1 - sqrt(k2) e2)^2 and numeric rate are
    formed from the log with z and V, so the monitor can compare them.
    """
    _, theta = cfg._law
    n = cfg.n_steps
    dt = cfg.dt
    stride = cfg.log_stride

    n_log = n // stride + 1 + (1 if n % stride else 0)
    try:
        log = np.empty((8, n_log))
    except (MemoryError, ValueError):
        raise ConfigError(
            f"a log of {n_log:.6g} samples (t_final={cfg.t_final}, dt={dt}, "
            f"log_stride={stride}) cannot be allocated") from None
    rk4 = _rk4(stage, theta, dt)
    rows, j = [], 0  # the logged stage tuples not yet flushed; the log rows filled

    def flush():
        k = len(rows)
        block = np.frombuffer(struct.pack(f"{12 * k}d", *chain.from_iterable(rows))
                              ).reshape(k, 12)
        log[1:, j:j + k] = block[:, 5:].T
        rows.clear()
        return j + k

    (s1, s2), p2h, th1h = s0, cfg.est0.p2_hat, cfg.est0.theta1_hat
    failure = None
    for i in range(n + 1):
        try:
            out = stage(s1, s2, p2h, th1h)
            if i % stride == 0 or i == n:
                rows.append(out)
                if len(rows) == LOG_FLUSH_ROWS:
                    j = flush()
            if i < n:
                s1, s2, p2h, th1h = rk4(s1, s2, p2h, th1h, out)
        except _STAGE_ERRORS as exc:
            failure = StepRejected(i * dt, exc)
            break
    j = flush()
    # t is each logged step index i (the last one n) times dt, as i * dt.
    np.multiply(np.minimum(np.arange(0, j * stride, stride), n), dt, out=log[0, :j])
    t, e1, e2, u, x1, x2, p2h, th1h = log[:, :j]
    xb1, xb2 = cfg.safe_set.bounds
    fam1, fam2 = family_pair(cfg.family)
    zn2 = np.fromiter(map(fam2.unsquash, x2 / xb2), float, len(x2))  # z2 and V's barrier
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads inf or nan
        v = lyapunov_fn(cfg.plant, cfg.safe_set, cfg.family, cfg.gains)(zn2, p2h, th1h, e1)
        if len(t) >= 2:
            vdot_num = np.gradient(v, t, edge_order=min(2, len(t) - 1))
        else:  # one sample has no rate
            vdot_num = np.full_like(v, np.nan)
    return Trajectory(
        t=t, x1=x1, x2=x2,
        z1=xb1 * np.fromiter(map(fam1.unsquash, x1 / xb1), float, len(x1)),
        z2=xb2 * zn2,
        e1=e1, e2=e2, u=u, p2_hat=p2h, theta1_hat=th1h,
        v=v, vdot_analytic=vdot_analytic(e1, e2, cfg.gains), vdot_numeric=vdot_num,
        in_safe_set=cfg.safe_set.contains(x1, x2),
        failure=failure)


def run(cfg: SimConfig) -> Trajectory:
    """Integrate the closed loop in x to t_final (or to the first failure)."""
    return _integrate(cfg, cfg._law[0], cfg.x0)


def run_lifted(cfg: SimConfig) -> Trajectory:
    """Integrate the same closed loop with the lifted (z1, z2) as the state.

    The stage is controller.lifted_stage over the config's compiled law. A
    z that only maps into the box because the squash rounds to the boundary
    is a divergence, not a safe state: its stage sits in the guard band,
    and the run records the abort as run does.
    """
    ss, fam = cfg.safe_set, cfg.family
    return _integrate(cfg, lifted_stage(cfg._law[0], ss, fam), lift(cfg.x0, ss, fam).z)
