"""Experiment driver.

Subcommands:

    safelift run <config> [--out DIR] [--svg]
    safelift sweep <config> [--out DIR]
    safelift check-assumptions <config> [--grid N]
    safelift version

Exit codes: 0 success, 2 configuration error (an output that cannot be
written too), 3 runtime violation (an aborted simulation, or
assumption-check violations).

`run` writes trace.csv (the full trajectory), cert.txt (the certificate),
states_input.csv (t, x1, x2, u) and estimation_errors.csv (parameter
estimation errors against theta1/x2_max and 1/theta2, plain and log10)
into the output directory, every CSV with 15 significant digits and the
three written in one chunked pass that formats each distinct column once
per chunk, in one vectorised call; --svg adds simple vector plots of both.
The three CSVs are written by the simulation, simulator.run(cfg, tables),
as one function forms the derived columns of each block of rows into the
run's log: in a writer forked while this process integrates, with more
than one usable CPU, else in this process after the loop, so the files,
exit code and stderr are the same either way. This process then certifies
the trajectory and writes cert.txt and the SVGs.
`sweep` writes one sweep.csv row per parameter combination and keeps going
past per-row failures. Its rows are cut into consecutive shares over
min(rows, usable CPUs) processes, this one first, then children forked as
run's writer is (simulator.fork_child), each pickling its row texts to a
pipe; sweep.csv is byte-identical to a one-process sweep. This process runs
its own share, then each child's undelivered rows, in row order, so errors,
exit codes and stderr are the one-process sweep's, and a failing sweep
stops at its first failing row without waiting for the children. A child
that dies or cannot be forked leaves its rows to this process.
"""

from __future__ import annotations

import argparse
import os
import pickle
import signal
import sys
from contextlib import contextmanager, suppress
from pathlib import Path

import numpy as np

from . import __version__
from .config import apply_overrides, load_config, sweep_rows
from .errors import ConfigError, SafeliftError
from .monitor import certify, estimate_targets
from .plant import check_assumptions
from .simulator import fork_child, run as run_sim, usable_cpus

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_RUNTIME = 3


def _estimation_errors(traj, plant, safe_set):
    """|theta1_hat - theta1/x2_max| and |p2_hat - 1/theta2|, plain and log10.

    The targets are monitor.estimate_targets, the centring of V.
    """
    th1_target, p2_target = estimate_targets(plant, safe_set)
    th1_err = np.abs(traj.theta1_hat - th1_target)
    p2_err = np.abs(traj.p2_hat - p2_target)
    floor = 1e-300
    return (th1_err, p2_err,
            np.log10(np.maximum(th1_err, floor)), np.log10(np.maximum(p2_err, floor)))


_ERRORS_HEADER = "t,theta1_err,p2_err,log10_theta1_err,log10_p2_err"

_SVG_WIDTH, _SVG_HEIGHT = 900, 360


def _render_svg(path, title, t, series) -> None:
    """Minimal polyline plot, one panel, shared time axis."""
    width, height = _SVG_WIDTH, _SVG_HEIGHT
    pad = 50
    t0, t1 = float(t[0]), float(t[-1]) if len(t) > 1 else float(t[0]) + 1.0
    lo = min(float(np.min(y)) for _, y in series)
    hi = max(float(np.max(y)) for _, y in series)
    if hi - lo < 1e-12:
        hi, lo = hi + 1.0, lo - 1.0
    sx = (width - 2 * pad) / (t1 - t0)
    sy = (height - 2 * pad) / (hi - lo)
    colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<text x="{width / 2}" y="20" text-anchor="middle" '
             f'font-family="sans-serif" font-size="14">{title}</text>',
             f'<rect x="{pad}" y="{pad}" width="{width - 2 * pad}" '
             f'height="{height - 2 * pad}" fill="none" stroke="#444"/>']
    for k, (label, y) in enumerate(series):
        pts = " ".join(
            f"{pad + (float(t[i]) - t0) * sx:.2f},"
            f"{height - pad - (float(y[i]) - lo) * sy:.2f}"
            for i in range(0, len(t), max(1, len(t) // 2000)))
        color = colors[k % len(colors)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.2"/>')
        parts.append(f'<text x="{pad + 8}" y="{pad + 16 + 16 * k}" fill="{color}" '
                     f'font-family="sans-serif" font-size="12">{label}</text>')
    for val, anchor_y in ((hi, pad + 4), (lo, height - pad)):
        parts.append(f'<text x="{pad - 6}" y="{anchor_y}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{val:.3g}</text>')
    parts.append(f'<text x="{width - pad}" y="{height - pad + 16}" text-anchor="end" '
                 f'font-family="sans-serif" font-size="11">t = {t1:.3g} s</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts))


@contextmanager
def _writing(out_dir):
    """Turn an output that cannot be written (a directory in its place, no
    permission, a full disk) into a ConfigError naming it."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {exc.filename or out_dir}: "
                          f"{exc.strerror or exc}") from None


def _out_dir(args, ec) -> Path:
    """--out, else the config's directory, made if missing."""
    out_dir = Path(args.out or ec.out_dir)
    with _writing(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _cmd_run(args) -> int:
    ec = load_config(args.config)
    out_dir = _out_dir(args, ec)
    sim = ec.sim

    def tables(traj):
        """The three CSV tables of traj, or of a block of its rows."""
        return [traj.csv_table(out_dir / "trace.csv"),
                (out_dir / "states_input.csv", "t,x1,x2,u",
                 (traj.t, traj.x1, traj.x2, traj.u)),
                (out_dir / "estimation_errors.csv", _ERRORS_HEADER,
                 (traj.t, *_estimation_errors(traj, sim.plant, sim.safe_set)))]

    with _writing(out_dir):  # run_sim writes the three CSVs
        traj = run_sim(sim, tables)
        cert = certify(traj, sim, ec.thresholds)
        (out_dir / "cert.txt").write_text(cert.to_report())
        if args.svg and len(traj):
            _render_svg(out_dir / "states_input.svg", "states and control input",
                        traj.t, [("x1", traj.x1), ("x2", traj.x2), ("u", traj.u)])
            _, _, th1_log, p2_log = _estimation_errors(traj, sim.plant, sim.safe_set)
            _render_svg(out_dir / "estimation_errors.svg",
                        "log10 parameter estimation errors",
                        traj.t, [("log10|theta1 err|", th1_log),
                                 ("log10|p2 err|", p2_log)])

    fail = traj.failure
    if fail is not None:
        print(f"simulation aborted at t={fail.time:.6g}: {fail.kind}: {fail.cause}",
              file=sys.stderr)
        print(f"partial artifacts written to {out_dir}", file=sys.stderr)
        return _EXIT_RUNTIME
    print(f"run complete: {len(traj.t)} samples over {traj.t[-1]:.6g} s, "
          f"certificate {'all-pass' if cert.all_pass else 'HAS FAILURES'}; "
          f"artifacts in {out_dir}")
    return _EXIT_OK


_SWEEP_HEADER = ("index,overrides,status,tracking_error_final,worst_v_increment,"
                 "safe,sup_p2_hat,sup_theta1_hat,detail")


def _sweep_row(ec, i, label, sim) -> str:
    """One valid sweep row: the run, its certificate, the row text."""
    traj = run_sim(sim)
    cert = certify(traj, sim, ec.thresholds)
    status = "ok" if traj.completed else "runtime-violation"
    fail = traj.failure
    detail = "" if fail is None else f"{fail.kind} at t={fail.time:.6g}".replace(",", ";")
    return (f"{i},{label},{status},{cert.tracking_error_final:.15g},"
            f"{cert.worst_v_increment:.15g},"
            f"{'yes' if cert.safe_invariance else 'no'},"
            f"{cert.sup_p2_hat:.15g},{cert.sup_theta1_hat:.15g},{detail}")


def _send_share(ec, share, fd) -> None:
    """A forked child's work: write to fd, pickled, {index: row text} of
    its share, a list of (index, label, sim), run in order up to its first
    row that raises."""
    rows = {}
    for i, label, sim in share:
        try:
            rows[i] = _sweep_row(ec, i, label, sim)
        except Exception:  # the parent runs this row again and raises
            break
    with open(fd, "wb") as fh:
        pickle.dump(rows, fh)


def _run_rows(ec, jobs) -> dict:
    """{index: row text} of jobs, a list of (index, label, sim) in row order,
    or the first row error in row order.

    The jobs are cut into consecutive shares, one per process, the first
    and longest the parent's. Each child, forked as run's CSV writer is
    (simulator.fork_child), inherits the configs (which hold closures, so
    they cannot be pickled) and pickles the row texts of its share up to
    its first error to a pipe, which the parent reads to its end. The
    parent runs one loop in row order: its own share, then each child's
    undelivered rows, all of them for a child that died or could not be
    forked (an empty or cut-short read). So the first row that raises is
    the sweep's first error, raised from its only run here, and an error
    or interrupt stops the children at once (SIGTERM); every child is
    reaped either way.
    """
    n = max(1, min(len(jobs), usable_cpus()))  # at most one process per row
    cuts = [-(-w * len(jobs) // n) for w in range(n + 1)]
    shares = [jobs[a:b] for a, b in zip(cuts, cuts[1:])]
    children, rows = [], {}  # children: (pid or None, the read end)
    try:
        for share in shares[1:]:
            pid, rfd = fork_child(lambda fd: _send_share(ec, share, fd), to_child=False)
            children.append((pid, open(rfd, "rb")))
        for w, share in enumerate(shares):
            if w:  # child w's share: take what it sent, none if it died
                with suppress(EOFError, pickle.UnpicklingError):
                    rows.update(pickle.loads(children[w - 1][1].read()))
            for i, label, sim in share:
                if i not in rows:
                    rows[i] = _sweep_row(ec, i, label, sim)
    finally:
        for pid, recv in children:
            recv.close()
            if pid is not None:
                if len(rows) < len(jobs):  # an error or an interrupt: stop them
                    os.kill(pid, signal.SIGTERM)
                os.waitpid(pid, 0)
    return rows


def _cmd_sweep(args) -> int:
    ec = load_config(args.config)
    out_dir = _out_dir(args, ec)
    rows, jobs = {}, []
    for i, overrides in sweep_rows(ec):
        label = " ".join(f"{k}={v:.15g}" for k, v in overrides.items())
        try:
            jobs.append((i, label, apply_overrides(ec.sim, overrides)))
        except SafeliftError as exc:
            rows[i] = f"{i},{label},invalid-config,,,,,,{str(exc).replace(',', ';')}"
    rows.update(_run_rows(ec, jobs))
    with _writing(out_dir), open(out_dir / "sweep.csv", "w", newline="") as fh:
        fh.write(_SWEEP_HEADER + "\n")
        for i in sorted(rows):
            fh.write(rows[i] + "\n")
    print(f"sweep complete: {len(rows)} rows in {out_dir / 'sweep.csv'}")
    return _EXIT_OK


def _cmd_check_assumptions(args) -> int:
    ec = load_config(args.config)
    report = check_assumptions(ec.sim.plant, ec.sim.safe_set, grid_n=args.grid)
    print(report.summary())
    return _EXIT_OK if report.passed else _EXIT_RUNTIME


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="safelift",
        description="Safe adaptive tracking experiments for box-constrained "
                    "strict-feedback plants")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one closed-loop experiment")
    p_run.add_argument("config")
    p_run.add_argument("--out", help="output directory (overrides the config)")
    p_run.add_argument("--svg", action="store_true", help="also render SVG plots")
    p_run.set_defaults(fn=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run the configured parameter sweep")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--out", help="output directory (overrides the config)")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_chk = sub.add_parser("check-assumptions",
                           help="grid-check the plant structural assumptions")
    p_chk.add_argument("config")
    p_chk.add_argument("--grid", type=int, default=21,
                       help="samples per axis (default 21)")
    p_chk.set_defaults(fn=_cmd_check_assumptions)

    p_ver = sub.add_parser("version", help="print the package version")
    p_ver.set_defaults(fn=lambda args: (print(f"safelift {__version__}"),
                                        _EXIT_OK)[1])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except SafeliftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
