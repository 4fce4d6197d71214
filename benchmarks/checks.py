"""Output checks: each returns a list of problems, empty when all hold.

Artifacts are checked against the independent reference (reference.py),
against numpy recomputations of the logged columns from the formulas in
the simulator and monitor docstrings, and against properties the method
promises (the state never leaves the box; V never rises under the +1 law).
"""

from __future__ import annotations

import csv
import itertools
import math
import random
from pathlib import Path

import numpy as np

import reference

TRACE_HEADER = "t,x1,x2,z1,z2,e1,e2,u,p2_hat,theta1_hat,V,Vdot_num,Vdot_analytic"
STATES_HEADER = "t,x1,x2,u"
ERRORS_HEADER = "t,theta1_err,p2_err,log10_theta1_err,log10_p2_err"
SWEEP_HEADER = ("index,overrides,status,tracking_error_final,worst_v_increment,"
                "safe,sup_p2_hat,sup_theta1_hat,detail")

# Tolerances, relative to max(1, |value|). Recomputed columns agree to ~1e-13.
# Along the logged trajectory the x-route agrees with the reference to ~1e-8
# and run_lifted's z-route to ~2e-8; an RK4 with wrong stage weights is off
# by ~1e-6.
RECOMPUTE_TOL = 1e-9
REFERENCE_TOL = 1e-7
V_INCREMENT_REL = 1e-6
SWEEP_SAMPLE_ROWS = 3


def _close(name, got, want, tol, problems):
    got, want = np.asarray(got, float), np.asarray(want, float)
    err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
    worst = float(np.max(err)) if err.size else 0.0
    if not worst <= tol:
        problems.append(f"{name}: off by {worst:.3e} (relative), tolerance {tol:g}")


def _table(path, header, problems):
    path = Path(path)
    if not path.is_file():
        problems.append(f"{path.name} missing")
        return None
    with open(path) as fh:
        first = fh.readline().rstrip("\n")
    if first != header:
        problems.append(f"{path.name}: header {first!r}, expected {header!r}")
        return None
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def check_run(config, out_dir):
    """Check the four artifacts of one `safelift run`."""
    problems = []
    sc = reference.read_scenario(config)
    out_dir = Path(out_dir)
    trace = _table(out_dir / "trace.csv", TRACE_HEADER, problems)
    states = _table(out_dir / "states_input.csv", STATES_HEADER, problems)
    errors = _table(out_dir / "estimation_errors.csv", ERRORS_HEADER, problems)
    cert = (out_dir / "cert.txt").read_text() if (out_dir / "cert.txt").is_file() else ""
    if "completed = True" not in cert:
        problems.append("cert.txt does not record a completed run")
    if trace is None:
        return problems
    t, x1, x2, z1, z2, e1, e2, u, p2, th1, v, _, vdot = trace.T
    X1, X2 = sc.x1_max, sc.x2_max

    idx = sc.log_indices()
    if len(t) != len(idx):
        problems.append(f"trace.csv has {len(t)} rows, expected {len(idx)}")
        return problems
    _close("trace t", t, idx * sc.dt, RECOMPUTE_TOL, problems)
    if not (np.all(np.abs(x1) < X1) and np.all(np.abs(x2) < X2)):
        problems.append("trace.csv has a row outside the box")

    z1r = X1 * np.arctanh(x1 / X1)
    z2r = X2 * np.arctanh(x2 / X2)
    e1r = z1r - sc.z1d
    zn2 = z2r / X2
    log_cosh = np.logaddexp(zn2, -zn2) - math.log(2.0)
    vr = (0.5 * e1r ** 2 + log_cosh
          + abs(sc.theta2) * (p2 - 1.0 / sc.theta2) ** 2 / (2.0 * sc.gamma)
          + (sc.theta1 / X2 - th1) ** 2 / (2.0 * sc.alpha))
    vdotr = -(math.sqrt(sc.k1) * e1 - math.sqrt(1.0 / sc.k1) * e2) ** 2
    for name, got, want in (("z1", z1, z1r), ("z2", z2, z2r), ("e1", e1, e1r),
                            ("V", v, vr), ("Vdot_analytic", vdot, vdotr)):
        _close(f"trace {name} vs recomputation", got, want, RECOMPUTE_TOL, problems)

    if states is not None and not np.array_equal(states, trace[:, [0, 1, 2, 7]]):
        problems.append("states_input.csv disagrees with trace.csv")

    if errors is not None:
        # The drift estimate targets theta1 / x2_max (monitor docstring).
        th1_err = np.abs(th1 - sc.theta1 / X2)
        p2_err = np.abs(p2 - 1.0 / sc.theta2)
        if not np.array_equal(errors[:, 0], t):
            problems.append("estimation_errors.csv times disagree with trace.csv")
        _close("theta1_err", errors[:, 1], th1_err, RECOMPUTE_TOL, problems)
        _close("p2_err", errors[:, 2], p2_err, RECOMPUTE_TOL, problems)
        for col, err in ((3, th1_err), (4, p2_err)):
            # Below 1e-3 the 15-digit rounding of the logged estimate moves
            # the logarithm by more than the tolerance.
            resolved = err > 1e-3
            _close(f"estimation_errors column {col}", errors[resolved, col],
                   np.log10(err[resolved]), RECOMPUTE_TOL, problems)

    if sc.p2_law_sign > 0:
        # The +1 law's decrease certificate: V never rises.
        worst = float(np.max(np.diff(v))) if len(v) > 1 else 0.0
        if worst > V_INCREMENT_REL * max(1.0, v[0]):
            problems.append(f"V rose by {worst:.3e}")

    # Every logged row, the final state included, against the dense solution.
    _close("(x1, x2, p2_hat, theta1_hat) vs reference", trace[:, [1, 2, 8, 9]].T,
           reference.integrate(sc).sol(idx * sc.dt), REFERENCE_TOL, problems)
    return problems


def check_sweep(config, out_dir, seed):
    """Check sweep.csv: every grid row in order, ok and safe, and a seeded
    sample of rows against the reference."""
    problems = []
    sc = reference.read_scenario(config)
    path = Path(out_dir) / "sweep.csv"
    if not path.is_file():
        return ["sweep.csv missing"]
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if ",".join(rows[0]) != SWEEP_HEADER:
        problems.append(f"sweep.csv header {rows[0]}")
    rows = rows[1:]
    keys = list(sc.sweep)
    grid = [dict(zip(keys, combo))
            for combo in itertools.product(*(sc.sweep[k] for k in keys))]
    if len(rows) != len(grid):
        return problems + [f"sweep.csv has {len(rows)} rows, grid has {len(grid)}"]
    for i, (row, point) in enumerate(zip(rows, grid)):
        label = " ".join(f"{k}={v:g}" for k, v in point.items())
        if row[0] != str(i) or row[1] != label:
            problems.append(f"sweep.csv row {i} is {row[:2]}, expected {[str(i), label]}")
        if row[2] != "ok" or row[5] != "yes":
            problems.append(f"sweep.csv row {i}: status {row[2]}, safe {row[5]}")
    for i in sorted(random.Random(seed).sample(range(len(grid)), SWEEP_SAMPLE_ROWS)):
        track, sup_p2 = reference.sweep_row_figures(sc.with_overrides(grid[i]))
        _close(f"sweep row {i} tracking_error_final", float(rows[i][3]), track,
               REFERENCE_TOL, problems)
        _close(f"sweep row {i} sup_p2_hat", float(rows[i][6]), sup_p2,
               REFERENCE_TOL, problems)
    return problems
