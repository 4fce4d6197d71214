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
with unsquash(x2 / x2_max) formed once per sample for z2 and for V. One
function, _derive, stores them in the log's last rows for any block of
rows: each column is a row's own arithmetic except V's numeric rate,
np.gradient's explicit three-point formulas over the row and its
neighbours (_rate). A run's Trajectory is views on its log (_trajectory).

write_csvs writes several CSV tables in one chunked pass: per chunk, one
vectorised "%.15g" call (_g15) formats each distinct column array once,
every table gathers its cells from that block, and Trajectory.to_csv is the
one-table case. One function, _serve, derives a run's rows as their
columns become final and, given run(cfg, tables)'s tables, writes them to
those files in the same blocks. With tables and more than one usable CPU
it runs in a writer forked over the log, which is shared memory, and hears
the rows filled after each flush; otherwise, or if that writer could not
start or failed, it runs in this process once the loop is done.
"""

from __future__ import annotations

import math
import mmap
import operator
import os
import struct
from contextlib import ExitStack, suppress
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Optional

import numpy as np

from ._g15 import CELL, format_g15, tables as g15_tables
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
# column store (256 fig2 law tuples, 2-CPU shared host). A forked writer
# hears of new rows only at a flush, so it runs up to this many rows (plus
# the one whose rate waits for its successor) behind the loop.
LOG_FLUSH_ROWS = 256
# The Trajectory columns of the log's rows: the seven the loop fills, then
# the five that _derive forms.
_RAW = ("e1", "e2", "u", "x1", "x2", "p2_hat", "theta1_hat")
_DERIVED = ("z1", "z2", "v", "vdot_analytic", "vdot_numeric")


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

    # The law over the plant's control view; the true parameters stay in the
    # plant, their one home, for _rk4. Compiled once per config; replace() builds
    # a new config, so a changed field never meets a stale closure.
    @cached_property
    def _law(self):
        return compile_law(self.plant.control_view(), self.safe_set, self.family,
                           self.gains, self.reference, self.p2_law_sign)


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
# _serve derives and writes the rows that are ready at most this many at a
# time, so it also bounds its own blocks. With no files to write it derives
# them in one block: each block costs about 35 µs of fixed NumPy work, 4-5 ms
# over a 30 001-row log.
CSV_CHUNK_ROWS = 256


def _open_csvs(stack, tables):
    """The file of each (path, header, cols) table, opened in stack, its
    header written."""
    files = [stack.enter_context(open(path, "wb")) for path, _, _ in tables]
    for fh, (_, header, _) in zip(files, tables):
        fh.write(header.encode() + b"\n")
    return files


def _write_rows(files, tables, lo=0, hi=None):
    """Append rows lo:hi of each table's columns to its file.

    Each column is cast to float64. The distinct column arrays (by id) are
    formatted in one format_g15 call, each table gathers its cells from that
    block, and one translate drops the cells' NUL padding.
    """
    distinct = {}  # id(column) -> (its place in the block, column)
    layout = [[distinct.setdefault(id(col), (len(distinct), col))[0] for col in cols]
              for _, _, cols in tables]
    block = np.column_stack([np.asarray(col[lo:hi], dtype=np.float64)
                             for _, col in distinct.values()])
    cells = format_g15(block.ravel()).reshape(*block.shape, CELL)
    for fh, idx in zip(files, layout):
        rows = cells[:, idx]
        rows[:, :, -1] = ord(",")
        rows[:, -1, -1] = ord("\n")
        fh.write(rows.tobytes().translate(None, b"\0"))


def write_csvs(tables) -> None:
    """Write CSV tables of numeric columns in one chunked pass.

    tables holds (path, header, cols) entries, every column as long as the
    first; each column is cast to float64. Each file is byte-identical to
    per-cell f"{v:.15g}" formatting. Per chunk of CSV_CHUNK_ROWS rows, each
    distinct column is formatted once (_write_rows).
    """
    with ExitStack() as stack:
        files = _open_csvs(stack, tables)
        for lo in range(0, len(tables[0][2][0]), CSV_CHUNK_ROWS):
            _write_rows(files, tables, lo, lo + CSV_CHUNK_ROWS)


def usable_cpus() -> int:
    """The CPUs this process may run on: above one, run forks its CSV writer
    and sweep its children. One where there is no CPU mask to read (macOS,
    Windows), which also keeps platforms without fork on the one-process path."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def fork_child(work, to_child: bool) -> tuple[Optional[int], int]:
    """Run work(fd) in a forked child, fd its end of a new pipe that runs to
    the child if to_child, else from it: (its pid, or None if os.fork failed;
    this process's end).

    Each process closes the other's end, so the pipe ends for the child once
    this process closes its end or dies, and for this process once the child
    exits; a child that could not be forked is one that is gone already. The
    child exits by os._exit, status 0 if work() returned and 1 if it raised:
    it never returns into the caller, flushes the stdio buffers it inherited
    or prints a traceback.
    """
    rfd, wfd = os.pipe()
    mine, theirs = (wfd, rfd) if to_child else (rfd, wfd)
    try:
        pid = os.fork()
    except OSError:
        pid = None
    if pid == 0:
        status = 1
        try:
            os.close(mine)
            work(theirs)
            status = 0
        finally:
            os._exit(status)
    os.close(theirs)
    return pid, mine


def _counts(fd):
    """The latest row count the loop has sent over fd, once per read, until
    the pipe ends: each count is one 8-byte write, so a read holds whole ones."""
    while data := os.read(fd, 4096):
        yield struct.unpack(f"{len(data) // 8}q", data)[-1]


def _serve(cfg, log, tables, counts) -> None:
    """Derive the log's rows as their columns become final and, with tables,
    write them to its files: the filled rows of each count, the final one
    as ~n, a forked writer's from its pipe (_counts) and this process's
    [~n] once the loop is done.

    A row's numeric V rate reads the next row, and its formula depends on
    whether every spacing of t in the whole log is equal (np.gradient's
    uniform branch). So before the final count, only the rows before the
    last filled one are derived, and only once two spacings differ.
    """
    with ExitStack() as stack:
        files = tables and _open_csvs(stack, tables(_trajectory(cfg, log, 0, 0)))
        h = _times(cfg, 0, 2)[-1]  # the first spacing (t starts at 0)
        done = n = 0
        mixed = False
        for count in counts:
            final = count < 0
            filled = ~count if final else count
            if not mixed and filled > 2:
                mixed = bool((np.diff(_times(cfg, max(n - 1, 0), filled)) != h).any())
            n = filled
            ready = n if final else n - 1 if mixed else 0
            while done < ready:
                hi = min(done + CSV_CHUNK_ROWS, ready) if tables else ready
                _derive(cfg, log, done, hi, n, not mixed)
                if tables:
                    _write_rows(files, tables(_trajectory(cfg, log, done, hi)))
                done = hi
            if final:
                return
        raise EOFError("the run ended without a final count")


def _rk4(stage, plant, dt):
    """The classical RK4 step of a stage in regressor form, as a closure.

    stage(s1, s2, p2h, th1h) returns (s1', phi, psi, p2h', th1h', ...), and
    s2' = theta1 * phi + theta2 * psi is formed here with the plant's theta1,
    theta2, bound once with h and dt / 6; rk4(s1, s2, p2h, th1h, a) takes the
    caller's first stage a = stage(s1, s2, p2h, th1h) and returns the next state.
    """
    th1, th2 = plant.theta1, plant.theta2
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
    s = (state[0], state[1], est.p2_hat, est.theta1_hat)
    try:
        x1, x2, p2h, th1h = _rk4(cfg._law, cfg.plant, cfg.dt)(*s, cfg._law(*s))
    except _STAGE_ERRORS as exc:
        raise StepRejected(t, exc) from exc
    return (x1, x2), EstimatorState(p2_hat=p2h, theta1_hat=th1h)


def _times(cfg: SimConfig, lo: int, hi: int) -> np.ndarray:
    """t of log rows lo:hi: each logged step index i (the last one n) times dt."""
    stride = cfg.log_stride
    return np.minimum(np.arange(lo * stride, hi * stride, stride), cfg.n_steps) * cfg.dt


def _rate(v, t, uniform):
    """np.gradient(v, t, edge_order=min(2, len(t) - 1)), bit for bit, from its
    explicit three-point formulas; nan for one sample.

    uniform picks the formulas for equal spacings, which np.gradient takes
    when every spacing of t equals the first. v and t may be a window of a
    longer log: uniform is then the whole log's choice, and the caller reads
    an end formula's row only where the window ends the log.
    """
    out = np.full_like(v, np.nan)
    if len(v) < 2:
        return out
    dx = np.diff(t)
    if len(v) == 2:  # edge_order 1: one spacing serves both ends
        out[:] = (v[1] - v[0]) / dx[0]
        return out
    if uniform:
        h = dx[0]
        out[1:-1] = (v[2:] - v[:-2]) / (2. * h)
        a0, b0, c0 = -1.5 / h, 2. / h, -0.5 / h
        a1, b1, c1 = 0.5 / h, -2. / h, 1.5 / h
    else:
        d1, d2 = dx[:-1], dx[1:]
        out[1:-1] = (-d2 / (d1 * (d1 + d2)) * v[:-2] + (d2 - d1) / (d1 * d2) * v[1:-1]
                     + d1 / (d2 * (d1 + d2)) * v[2:])
        d1, d2 = dx[0], dx[1]
        a0 = -(2. * d1 + d2) / (d1 * (d1 + d2))
        b0 = (d1 + d2) / (d1 * d2)
        c0 = -d1 / (d2 * (d1 + d2))
        d1, d2 = dx[-2], dx[-1]
        a1 = d2 / (d1 * (d1 + d2))
        b1 = -(d2 + d1) / (d1 * d2)
        c1 = (2. * d2 + d1) / (d2 * (d1 + d2))
    out[0] = a0 * v[0] + b0 * v[1] + c0 * v[2]
    out[-1] = a1 * v[-3] + b1 * v[-2] + c1 * v[-1]
    return out


def _derive(cfg: SimConfig, log, lo: int, hi: int, n: int, uniform: bool) -> None:
    """Store the derived columns (_DERIVED) of rows lo:hi of a log whose rows
    0:n are filled in its last rows.

    log holds (e1, e2, u, x1, x2, p2_hat, theta1_hat) in its first rows
    (_RAW), one column per sample. z comes from unsquash, V from
    monitor.lyapunov_fn and its analytic rate from monitor.vdot_analytic,
    row by row. The numeric rate (_rate) reads a window of up to two rows
    either side; uniform is as for _rate. Unless n is the whole log, hi < n
    and n >= 3, so no row in lo:hi takes an end formula.
    """
    a, b = max(0, min(lo - 1, n - 3)), min(n, max(hi + 1, 3))
    e1, e2, _, x1, x2, p2h, th1h = log[:len(_RAW), a:b]
    xb1, xb2 = cfg.safe_set.bounds
    fam1, fam2 = family_pair(cfg.family)
    zn2 = np.fromiter(map(fam2.unsquash, x2 / xb2), float, len(x2))  # z2 and V's barrier
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads inf or nan
        v = lyapunov_fn(cfg.plant, cfg.safe_set, cfg.family, cfg.gains)(zn2, p2h, th1h, e1)
        vdot_num = _rate(v, _times(cfg, a, b), uniform)
    k = slice(lo - a, hi - a)
    z1 = xb1 * np.fromiter(map(fam1.unsquash, x1[k] / xb1), float, hi - lo)
    log[len(_RAW):, lo:hi] = (z1, xb2 * zn2[k], v[k], vdot_analytic(e1[k], e2[k], cfg.gains),
                              vdot_num[k])


def _trajectory(cfg: SimConfig, log, lo: int, hi: int, failure=None) -> Trajectory:
    """Rows lo:hi of a log's Trajectory, as views on the log, with t from
    _times and in_safe_set from the box."""
    cols = dict(zip(_RAW + _DERIVED, log[:, lo:hi]))
    return Trajectory(t=_times(cfg, lo, hi), **cols, failure=failure,
                      in_safe_set=cfg.safe_set.contains(cols["x1"], cols["x2"]))


def _integrate(cfg: SimConfig, stage, s0, tables=None) -> Trajectory:
    """The closed loop from (s0, est0) to t_final, or to the first failure.

    stage is an RK4 stage in regressor form whose output ends with the
    signals and the state it evaluated, (..., e1, e2, u, x1, x2, p2_hat,
    theta1_hat); s0 is the initial point in the stage's own coordinates. A
    step's one stage call is _rk4's first stage; a logged step keeps its
    tuple, whose last seven entries go to the log LOG_FLUSH_ROWS at a time.
    The log is an anonymous shared mmap with five more rows, where _serve
    stores the derived columns (so the monitor can compare V's analytic and
    numeric rates); the Trajectory is views on it (_trajectory).

    With tables and more than one usable CPU, _serve runs in a forked
    writer: every flush sends it the rows filled, and a broken pipe means it
    is gone. On every way out the pipe is closed and the writer reaped, so
    one whose log never ended (an error or an interrupt here) exits without
    finishing its files. Unless the writer wrote every file, _serve runs
    here after the loop, over the whole log.
    """
    n = cfg.n_steps
    dt = cfg.dt
    stride = cfg.log_stride

    n_log = n // stride + 1 + (1 if n % stride else 0)
    try:
        log = np.frombuffer(mmap.mmap(-1, 8 * len(_RAW + _DERIVED) * n_log)).reshape(-1, n_log)
    except (MemoryError, ValueError, OverflowError, OSError):
        raise ConfigError(
            f"a log of {n_log:.6g} samples (t_final={cfg.t_final}, dt={dt}, "
            f"log_stride={stride}) cannot be allocated") from None
    pid = fd = None  # the writer's, and this end of its pipe
    if tables is not None and usable_cpus() > 1:
        g15_tables()  # built once per process, not again in every writer
        pid, fd = fork_child(lambda rfd: _serve(cfg, log, tables, _counts(rfd)), to_child=True)
    rk4 = _rk4(stage, cfg.plant, dt)
    raw = log[:len(_RAW)]
    rows, j = [], 0  # the logged stage tuples not yet flushed; the log rows filled

    def flush(final=False):
        k = len(rows)
        block = np.frombuffer(struct.pack(f"{12 * k}d", *chain.from_iterable(rows))
                              ).reshape(k, 12)
        raw[:, j:j + k] = block[:, 5:].T
        rows.clear()
        if fd is not None:
            with suppress(BrokenPipeError):  # a writer that is gone hears nothing
                os.write(fd, struct.pack("q", ~(j + k) if final else j + k))
        return j + k

    (s1, s2), p2h, th1h = s0, cfg.est0.p2_hat, cfg.est0.theta1_hat
    failure = None
    try:
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
        j = flush(final=True)
    finally:
        if fd is not None:
            os.close(fd)
        written = pid is not None and os.waitpid(pid, 0)[1] == 0
    if not written:
        _serve(cfg, log, tables, [~j])
    return _trajectory(cfg, log, 0, j, failure)


def run(cfg: SimConfig, tables=None) -> Trajectory:
    """Integrate the closed loop in x to t_final (or to the first failure).

    With tables, a function that gives write_csvs' (path, header, cols)
    tables of a Trajectory's block of rows, run also writes those files, a
    block at a time as _serve derives the rows: in a forked writer while it
    integrates, at more than one usable CPU, else in this process after the
    loop. The files are byte-identical either way.
    """
    return _integrate(cfg, cfg._law, cfg.x0, tables)


def run_lifted(cfg: SimConfig) -> Trajectory:
    """Integrate the same closed loop with the lifted (z1, z2) as the state.

    The stage is controller.lifted_stage over the config's compiled law. A
    z that only maps into the box because the squash rounds to the boundary
    is a divergence, not a safe state: its stage sits in the guard band,
    and the run records the abort as run does.
    """
    ss, fam = cfg.safe_set, cfg.family
    return _integrate(cfg, lifted_stage(cfg._law, ss, fam), lift(cfg.x0, ss, fam).z)
