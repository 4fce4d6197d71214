"""The buffered log of _integrate against a straight reference loop.

A logged step keeps its stage tuple, and the log is filled BLOCK_ROWS
rows at a time, once more after the loop (also after a failure), its first
row t written at each flush from the logged step indices. The reference loop
stores each logged row as it comes, (i * dt, e1, e2, u, x1, x2, p2_hat,
theta1_hat), from test_law_reference's reference law and RK4 step. run and
run_lifted must equal it by float.hex in every logged column: at log
lengths on either side of a flush, with and without a final sample off the
stride, and at aborts before, on and between logged steps.
"""

import dataclasses
import itertools

import pytest

import safelift as sl
from safelift import simulator
from safelift.controller import lifted_stage
from safelift.errors import DomainViolation

from test_law_reference import hexes, reference_law, reference_rk4

ROWS = simulator.BLOCK_ROWS
COLUMNS = ("t", "e1", "e2", "u", "x1", "x2", "p2_hat", "theta1_hat")


def _cfg(n, stride):
    base = sl.load_config("configs/dc_motor_fig2.cfg").sim
    cfg = dataclasses.replace(base, t_final=n * base.dt, log_stride=stride)
    assert cfg.n_steps == n
    return cfg


def _stages(cfg, route):
    """(the stage _integrate runs, the reference stage, s0) of one route."""
    ref_law = reference_law(cfg.plant.control_view(), cfg.safe_set, cfg.family,
                            cfg.gains, cfg.reference, cfg.p2_law_sign)
    if route == "x":
        return cfg._law, ref_law, cfg.x0
    ss, fam = cfg.safe_set, cfg.family
    return (lifted_stage(cfg._law, ss, fam), lifted_stage(ref_law, ss, fam),
            sl.lift(cfg.x0, ss, fam).z)


def failing(stage, call):
    """stage, raising DomainViolation on its call number `call` (from 0).

    A step makes four stage calls, the first one being the stage that is
    logged, so call 4 * i fails step i before it is logged and call
    4 * i + 2 fails it after.
    """
    count = itertools.count()

    def wrapped(*s):
        if next(count) == call:
            raise DomainViolation(f"stage call {call}")
        return stage(*s)

    return wrapped


def reference_log(cfg, stage, s0):
    """(rows, failure time or None) of the loop that stores every row at once."""
    n, dt, stride = cfg.n_steps, cfg.dt, cfg.log_stride
    theta = (cfg.plant.theta1, cfg.plant.theta2)
    state = (*s0, cfg.est0.p2_hat, cfg.est0.theta1_hat)
    rows = []
    for i in range(n + 1):
        try:
            out = stage(*state)
            if i % stride == 0 or i == n:
                rows.append((i * dt, *out[5:10], *state[2:]))
            if i < n:
                state = reference_rk4(stage, theta, state, dt, out)
        except DomainViolation:
            return rows, i * dt
    return rows, None


@pytest.fixture
def flushes(monkeypatch):
    """The number of rows in each flush of the log, in order."""
    sizes = []

    class Chain:
        @staticmethod
        def from_iterable(rows):
            sizes.append(len(rows))
            return itertools.chain.from_iterable(rows)

    monkeypatch.setattr(simulator, "chain", Chain)
    return sizes


def check(traj, rows, fail_t, flushes):
    assert len(traj) == len(rows)
    for k, name in enumerate(COLUMNS):
        assert hexes(getattr(traj, name)) == hexes(r[k] for r in rows), name
    if fail_t is None:
        assert traj.completed
    else:
        assert traj.failure.kind == "DomainViolation"
        assert traj.failure.time.hex() == fail_t.hex()
    # Full buffers of ROWS rows, then the rest once after the loop.
    assert flushes == [ROWS] * (len(rows) // ROWS) + [len(rows) % ROWS]


# (stride, n_log, whether the final sample is off the stride)
LENGTHS = [(1, ROWS - 1, False), (1, ROWS, False), (1, ROWS + 1, False),
           (1, 2 * ROWS + 1, False),
           (7, ROWS - 1, True), (7, ROWS, True), (7, ROWS + 1, True),
           (7, 2 * ROWS + 1, True),
           (10, ROWS - 1, False), (10, ROWS, True), (10, ROWS + 1, False),
           (10, 2 * ROWS + 1, True)]


@pytest.mark.parametrize("route", ["x", "z"])
@pytest.mark.parametrize("stride, n_log, off", LENGTHS,
                         ids=[f"stride{s}-{k}{'-off' if o else ''}" for s, k, o in LENGTHS])
def test_whole_runs_equal_the_reference_log(route, stride, n_log, off, flushes):
    # The last logged step is n, on the stride or 3 steps past it.
    n = (n_log - 2) * stride + 3 if off else (n_log - 1) * stride
    cfg = _cfg(n, stride)
    _, ref_stage, s0 = _stages(cfg, route)
    rows, fail_t = reference_log(cfg, ref_stage, s0)
    assert len(rows) == n_log and fail_t is None
    traj = (sl.run if route == "x" else sl.run_lifted)(cfg)
    check(traj, rows, fail_t, flushes)


# (name, stride, the stage call that fails, the rows logged before it)
ABORTS = [("first-stage", 1, 0, 0),
          ("first-logged-step-after-a-flush", 7, 4 * 7 * ROWS, ROWS),
          ("inside-that-step", 7, 4 * 7 * ROWS + 2, ROWS + 1),
          ("between-logged-steps", 7, 4 * (7 * ROWS + 3), ROWS + 1)]


@pytest.mark.parametrize("route", ["x", "z"])
@pytest.mark.parametrize("stride, call, n_rows", [a[1:] for a in ABORTS],
                         ids=[a[0] for a in ABORTS])
def test_aborted_runs_equal_the_reference_log(route, stride, call, n_rows, flushes):
    cfg = _cfg(7 * ROWS + 10, stride)
    stage, ref_stage, s0 = _stages(cfg, route)
    rows, fail_t = reference_log(cfg, failing(ref_stage, call), s0)
    assert len(rows) == n_rows and fail_t == (call // 4) * cfg.dt
    traj = simulator._integrate(cfg, failing(stage, call), s0)
    check(traj, rows, fail_t, flushes)
