"""`simulator._serve`, the one function that derives a run's rows and
writes its CSVs, in a forked writer and in this process.

With more than one usable CPU, `simulator.run(cfg, tables)` runs `_serve`
in a writer it forks, which derives the rows and writes the three CSVs
from the shared log while the loop runs; with one CPU, or when that writer
fails or cannot be forked, `_serve` runs once in this process after the
loop. Every file, the exit code, stderr and the run's Trajectory must be
the same either way, bit for bit, whatever the log's length, stride,
spacing or abort; an error or an interrupt leaves no child and no open
descriptor behind. V's numeric rate, formed by explicit formulas a block
of rows at a time, must equal np.gradient of the whole log bit for bit.
"""

import contextlib
import dataclasses
import itertools
import os
import signal
import struct
import time

import numpy as np
import pytest

import safelift as sl
from safelift import _g15, cli, simulator
from safelift.cli import main
from safelift.errors import DomainViolation

from test_cli import (BASE, CERTIFIED, FIG2, REPO, assert_no_child_left, no_fork, open_fds,
                      use_cpus, write_cfg)
from test_law_reference import hexes
from test_log_buffer import _stages, failing


def run_at(tmp_path, capsys, monkeypatch, cfg, cpus, flags=()):
    """(exit code, stderr, {name: bytes}) of `safelift run` at `cpus` CPUs."""
    use_cpus(monkeypatch, cpus)
    out = tmp_path / f"cpus{cpus}"
    code = main(["run", cfg, "--out", str(out), *flags])
    err = capsys.readouterr().err.replace(str(out), "OUT")
    return code, err, {f.name: f.read_bytes() if f.is_file() else "dir"
                       for f in sorted(out.iterdir())}


def count_calls(monkeypatch, name, calls, counts=lambda *args: True):
    """calls, gaining an entry at every call of simulator.<name> made by
    this process, not by a writer, whose arguments pass counts."""
    parent, real = os.getpid(), getattr(simulator, name)

    def counted(*args):
        if os.getpid() == parent and counts(*args):
            calls.append(1)
        return real(*args)

    monkeypatch.setattr(simulator, name, counted)
    return calls


@pytest.fixture
def parent_writes(monkeypatch):
    """How many times this process wrote the CSVs itself: by write_csvs, or
    by _serve given tables."""
    calls = count_calls(monkeypatch, "write_csvs", [])
    return count_calls(monkeypatch, "_serve", calls,
                       lambda cfg, log, tables, counts: tables is not None)


def before_stage_call(monkeypatch, call, action):
    """Make `run` call action() before its stage call number `call` (from
    0); a step makes four stage calls, and a logged step logs its first."""
    def run_sim(sim, tables=None):
        law, count = sim._law, itertools.count()

        def stage(*s):
            if next(count) == call:
                action()
            return law(*s)

        return simulator._integrate(sim, stage, sim.x0, tables)

    monkeypatch.setattr(cli, "run_sim", run_sim)


def abort():
    raise DomainViolation("a stage in the guard band")


def edited(path, **edits):
    """The text of a bundled config with `key = value` lines replaced."""
    body = (REPO / path).read_text()
    for old, new in edits.items():
        assert f"\n{old} = " in body
        body = "\n".join(f"{old} = {new}" if line.startswith(f"{old} = ") else line
                         for line in body.split("\n"))
    return body


ROWS = simulator.BLOCK_ROWS
FLAT = BASE.replace("t_final = 2.0", "t_final = {t}")


def uniform_but_the_last(rows):
    """fig2 at dt = 3/1024 and stride 7, its log planned at `rows` rows: every
    spacing of t equal but the last, off the stride."""
    return edited(FIG2, dt=0.0029296875, log_stride=7,
                  t_final=(7 * (rows - 2) + 3) * 0.0029296875)


# (id, config text, the stage call that fails or None, flags)
MATRIX = [
    ("fig2", edited(FIG2), None, []),
    ("fig2-svg", edited(FIG2), None, ["--svg"]),
    ("certified", edited(CERTIFIED), None, []),
    ("certified-svg", edited(CERTIFIED), None, ["--svg"]),
    ("stride7-off-stride-final", FLAT.format(t="1.803\nlog_stride = 7"), None, []),
    ("rows0", BASE, 0, []),
    ("rows1", BASE, 1, []),
    *[(f"rows{r}", FLAT.format(t=f"{(r - 1) / 1000}"), None, [])
      for r in (2, 3, ROWS - 1, ROWS, ROWS + 1, 2 * ROWS + 1)],
    ("abort-before-the-first-flush", BASE, 4 * 100, []),
    ("abort-on-a-flush-boundary", BASE, 4 * ROWS, []),
    ("abort-mid-chunk", BASE, 4 * (ROWS + 44) + 2, ["--svg"]),
    ("x2max2-logit-tanh", BASE.replace("x2_max = 1.0", "x2_max = 2.0")
     + "\n[lifting]\nfamily = logit\nfamily2 = tanh\n", None, []),
    # Every spacing equal, not a power of two: np.gradient's uniform branch.
    ("certified-dt0.09375", edited(CERTIFIED, dt=0.09375), None, []),
    ("fig2-dt0.0029296875", edited(FIG2, dt=0.0029296875), None, []),
    # A log planned with an off-stride final sample: uniform until its last
    # spacing, or, cut short by an abort, uniform throughout.
    ("fig2-dt0.0029296875-stride7", edited(FIG2, dt=0.0029296875, log_stride=7), None, []),
    ("fig2-dt0.09375-stride7-abort", edited(FIG2, dt=0.09375, log_stride=7), None, []),
    ("fig2-dt0.0029296875-stride7-abort", edited(FIG2, dt=0.0029296875, log_stride=7),
     4 * 7 * 300 + 1, []),
    # The off-stride final spacing, the only unequal one, in the writer's
    # first count (ROWS rows), just after it, or a row after that.
    *[(f"fig2-dt0.0029296875-stride7-rows{r}", uniform_but_the_last(r), None, [])
      for r in (ROWS, ROWS + 1, ROWS + 2)],
]


@pytest.mark.parametrize("body, call, flags", [m[1:] for m in MATRIX],
                         ids=[m[0] for m in MATRIX])
def test_forked_writer_equals_one_process(tmp_path, capsys, monkeypatch, parent_writes,
                                          body, call, flags):
    cfg = write_cfg(tmp_path, body)
    if call is not None:
        before_stage_call(monkeypatch, call, abort)
    one = run_at(tmp_path, capsys, monkeypatch, cfg, 1, flags)
    two = run_at(tmp_path, capsys, monkeypatch, cfg, 2, flags)
    assert parent_writes == [1]  # at 2 CPUs the writer wrote every CSV
    assert two == one
    assert set(one[2]) >= {"trace.csv", "states_input.csv", "estimation_errors.csv",
                           "cert.txt"}
    assert_no_child_left()


@pytest.mark.parametrize("artifact", ["trace.csv", "estimation_errors.csv", "cert.txt"])
def test_unwritable_artifact_reads_the_same_at_either_cpu_count(
        tmp_path, capsys, monkeypatch, artifact):
    # The writer dies opening a directory; this process writes the files
    # itself, so the error, and the files written before it, are the
    # one-process run's.
    cfg = write_cfg(tmp_path, BASE)
    for cpus in (1, 2):
        (tmp_path / f"cpus{cpus}" / artifact).mkdir(parents=True)
    one = run_at(tmp_path, capsys, monkeypatch, cfg, 1)
    two = run_at(tmp_path, capsys, monkeypatch, cfg, 2)
    assert one[0] == 2 and one[1].startswith(f"configuration error: cannot write OUT/{artifact}")
    assert two == one
    assert_no_child_left()


@pytest.mark.parametrize("when", ["at-start", "mid-run"])
def test_dead_writer_leaves_the_files_to_this_process(
        tmp_path, capsys, monkeypatch, parent_writes, when):
    # The writer exits with status 5 before its first file is open, or after
    # its first block of rows. This process sleeps before its first flush, so
    # at start its every count meets a closed pipe; it writes the files itself.
    cfg = write_cfg(tmp_path, BASE)
    one = run_at(tmp_path, capsys, monkeypatch, cfg, 1)
    parent = os.getpid()
    name = "_open_csvs" if when == "at-start" else "_write_rows"
    real = getattr(simulator, name)
    calls = []

    def dying(*args):
        if os.getpid() != parent and (when == "at-start" or calls):
            os._exit(5)
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(simulator, name, dying)
    before_stage_call(monkeypatch, 4 * (ROWS - 1), lambda: time.sleep(0.5))
    fds = open_fds()
    two = run_at(tmp_path, capsys, monkeypatch, cfg, 2)
    assert parent_writes == [1, 1]
    assert two == one and one[0] == 0
    assert_no_child_left()
    assert open_fds() == fds


def test_writer_that_cannot_fork_leaves_the_files_to_this_process(
        tmp_path, capsys, monkeypatch, parent_writes):
    cfg = write_cfg(tmp_path, BASE)
    one = run_at(tmp_path, capsys, monkeypatch, cfg, 1)
    monkeypatch.setattr(os, "fork", no_fork)
    fds = open_fds()
    assert run_at(tmp_path, capsys, monkeypatch, cfg, 2) == one
    assert parent_writes == [1, 1]
    assert open_fds() == fds


@pytest.fixture
def forks(monkeypatch):
    """The os.fork calls made."""
    calls = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: calls.append(1) or fork())
    return calls


@pytest.mark.parametrize("t_final", ["1e12", "1e300"])
def test_unloggable_horizon_is_refused_before_any_fork(tmp_path, capsys, monkeypatch,
                                                      forks, t_final):
    cfg = write_cfg(tmp_path, BASE.replace("t_final = 2.0", f"t_final = {t_final}"))
    code, err, files = run_at(tmp_path, capsys, monkeypatch, cfg, 2)
    assert code == 2 and files == {} and forks == []
    assert err.startswith("configuration error: a log of ") and "cannot be allocated" in err


@contextlib.contextmanager
def alarm_after(seconds):
    """Fail the test if the block runs longer than `seconds`, so a run that
    waits for a writer that never hears its pipe end fails, not hangs."""
    def expired(signum, frame):
        pytest.fail(f"still running after {seconds} s")

    handler = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)


@pytest.mark.parametrize("error", [ZeroDivisionError("a defect"), KeyboardInterrupt()],
                         ids=["defect", "interrupt"])
@pytest.mark.parametrize("where", ["stage", "certify"])
def test_error_after_the_fork_leaves_no_child(tmp_path, monkeypatch, forks, error, where):
    # Raised from an RK4 stage after two flushes, or from certify once the
    # writer has the final count; the writer is reaped either way.
    cfg = write_cfg(tmp_path, BASE)
    use_cpus(monkeypatch, 2)

    def fail(*args):
        raise error

    if where == "stage":
        before_stage_call(monkeypatch, 4 * 2 * ROWS + 2, fail)
    else:
        monkeypatch.setattr(cli, "certify", fail)
    fds = open_fds()
    with pytest.raises(type(error)), alarm_after(5):
        main(["run", cfg, "--out", str(tmp_path / "o")])
    assert forks == [1]
    assert_no_child_left()
    assert open_fds() == fds


def trajectory_bits(traj):
    """Every column of traj by float.hex, its safe-set flags and its failure."""
    floats = {f.name: hexes(getattr(traj, f.name)) for f in dataclasses.fields(traj)
              if f.name not in ("in_safe_set", "failure")}
    return floats, traj.in_safe_set.tolist(), repr(traj.failure), str(traj.failure)


def column_calls(monkeypatch):
    """The simulator._serve calls made by this process, not by a writer;
    each derives the columns of the whole log."""
    return count_calls(monkeypatch, "_serve", [])


def trace_tables(path):
    return lambda traj: [traj.csv_table(path)]


def sim_of(tmp_path, body):
    return sl.load_config(write_cfg(tmp_path, body)).sim


def integrate(sim, call, tables=None):
    """run(sim, tables), its stage failing on call number `call` unless None."""
    stage = sim._law if call is None else failing(sim._law, call)
    return simulator._integrate(sim, stage, sim.x0, tables)


@pytest.mark.parametrize("body, call", [m[1:3] for m in MATRIX if not m[0].endswith("-svg")],
                         ids=[m[0] for m in MATRIX if not m[0].endswith("-svg")])
def test_shared_trajectory_equals_one_process(tmp_path, monkeypatch, parent_writes, body,
                                              call):
    # The writer forms the derived columns; this process forms none of them.
    sim = sim_of(tmp_path, body)
    one = integrate(sim, call)
    one.to_csv(tmp_path / "one.csv")
    calls = column_calls(monkeypatch)
    use_cpus(monkeypatch, 2)
    shared = integrate(sim, call, trace_tables(tmp_path / "trace.csv"))
    assert parent_writes == [1]  # one.csv only: the writer wrote trace.csv
    assert calls == []
    assert trajectory_bits(shared) == trajectory_bits(one)
    assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()
    assert_no_child_left()


def every_count(fd):
    """Every count the loop sent over fd, in order, once the pipe ends."""
    data = b""
    while chunk := os.read(fd, 4096):
        data += chunk
    yield from struct.unpack(f"{len(data) // 8}q", data)


@pytest.mark.parametrize("rows", [ROWS, ROWS + 1, ROWS + 2])
def test_writer_hearing_every_count_equals_one_process(tmp_path, monkeypatch, parent_writes,
                                                       rows):
    # The writer's _serve meets each flush's count, however far it lags, so
    # the count at the only unequal spacing of t is met in every run.
    sim = sim_of(tmp_path, uniform_but_the_last(rows))
    one = integrate(sim, None)
    one.to_csv(tmp_path / "one.csv")
    monkeypatch.setattr(simulator, "_counts", every_count)
    use_cpus(monkeypatch, 2)
    shared = integrate(sim, None, trace_tables(tmp_path / "trace.csv"))
    assert parent_writes == [1]  # one.csv only: the writer wrote trace.csv
    assert trajectory_bits(shared) == trajectory_bits(one)
    assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()
    assert_no_child_left()


def test_dead_writer_leaves_the_columns_to_this_process(tmp_path, monkeypatch, parent_writes):
    # The writer exits with status 5 before its second block of rows; the
    # derived rows it left behind are not read.
    sim = sim_of(tmp_path, BASE)
    one = integrate(sim, None)
    parent, real, blocks = os.getpid(), simulator._write_rows, []

    def dying(*args):
        if os.getpid() != parent and blocks:
            os._exit(5)
        blocks.append(1)
        return real(*args)

    monkeypatch.setattr(simulator, "_write_rows", dying)
    calls = column_calls(monkeypatch)
    use_cpus(monkeypatch, 2)
    fds = open_fds()
    shared = integrate(sim, None, trace_tables(tmp_path / "trace.csv"))
    assert parent_writes == [1]  # this process wrote the file
    assert calls == [1]  # the whole log, once
    assert trajectory_bits(shared) == trajectory_bits(one)
    assert_no_child_left()
    assert open_fds() == fds


def test_format_tables_are_built_before_the_fork(tmp_path, monkeypatch, forks):
    use_cpus(monkeypatch, 2)
    _g15.tables.cache_clear()
    integrate(sim_of(tmp_path, BASE), None, trace_tables(tmp_path / "trace.csv"))
    assert forks == [1]
    assert _g15.tables.cache_info().currsize == 1


@pytest.mark.parametrize("writer, writes", [("good", 0), ("exits", 1), ("no-fork", 1),
                                            ("one-cpu", 1)],
                         ids=["good", "exits", "no-fork", "one-cpu"])
def test_run_writes_the_files_once_whatever_the_writer_does(tmp_path, monkeypatch,
                                                            parent_writes, writer, writes):
    # A library call: run reaps its writer and writes what it did not.
    sim = sim_of(tmp_path, BASE)
    sl.run(sim).to_csv(tmp_path / "one.csv")
    parent_writes.clear()
    use_cpus(monkeypatch, 1 if writer == "one-cpu" else 2)
    if writer == "exits":
        monkeypatch.setattr(simulator, "_counts", lambda fd: os._exit(5))
    elif writer == "no-fork":
        monkeypatch.setattr(os, "fork", no_fork)
    fds = open_fds()
    sl.run(sim, trace_tables(tmp_path / "trace.csv"))
    assert len(parent_writes) == writes
    assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()
    assert_no_child_left()
    assert open_fds() == fds


# (id, route, dt, stride, steps, the stage call that fails or None, whether
# every spacing of t is equal, which makes np.gradient take its uniform branch)
RATES = [
    ("one-sample", "x", 1e-3, 1, 5, 1, None),
    ("two-samples", "x", 1e-3, 1, 1, None, True),
    ("three-samples", "x", 1e-3, 1, 2, None, True),
    ("stride1", "x", 1e-3, 1, 600, None, False),
    ("stride7-off", "x", 1e-3, 7, 7 * 80 + 3, None, False),
    ("stride10", "x", 1e-3, 10, 10 * 80, None, False),
    ("dt0.09375", "x", 0.09375, 1, 40, None, True),
    ("dt0.09375-three-samples", "x", 0.09375, 1, 2, None, True),
    ("dt0.0029296875", "x", 0.0029296875, 1, 700, None, True),
    ("dt0.0029296875-stride7", "x", 0.0029296875, 7, 7 * 80, None, True),
    ("dt0.0029296875-stride7-off", "x", 0.0029296875, 7, 7 * 80 + 3, None, False),
    ("dt0.0029296875-stride10", "x", 0.0029296875, 10, 10 * 80, None, True),
    # Planned with an off-stride final sample, but aborted after logged row
    # 600, so every spacing of its three blocks is equal.
    ("dt0.0029296875-stride7-off-abort", "x", 0.0029296875, 7, 7 * 700 + 3,
     4 * 7 * 600 + 2, True),
]
RATES += [(f"lifted-{r[0]}", "z", *r[2:]) for r in RATES]


@pytest.mark.parametrize("route, dt, stride, steps, call, uniform", [r[1:] for r in RATES],
                         ids=[r[0] for r in RATES])
def test_numeric_rate_is_np_gradient(route, dt, stride, steps, call, uniform):
    # The certified scenario from x2(0) = 0.5: at dt = 0.09375 the lifted
    # route from 0.9 leaves the guard band in its first step.
    cfg = dataclasses.replace(sl.load_config(CERTIFIED).sim, dt=dt, t_final=steps * dt,
                              log_stride=stride, x0=(0.0, 0.5))
    assert cfg.n_steps == steps
    stage, _, s0 = _stages(cfg, route)
    if call is not None:
        stage = failing(stage, call)
    traj = simulator._integrate(cfg, stage, s0)
    assert traj.completed == (call is None)
    if uniform is None:  # one sample has no rate
        assert len(traj) == 1 and np.isnan(traj.vdot_numeric).all()
        return
    spacings = np.diff(traj.t)
    assert (spacings == spacings[0]).all() == uniform
    want = np.gradient(traj.v, traj.t, edge_order=min(2, len(traj) - 1))
    assert hexes(traj.vdot_numeric) == hexes(want)
