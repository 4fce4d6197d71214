"""Acceptance suite: the package-level guarantees, one test per criterion.

Each criterion prints a single PASS/FAIL line with its measured numbers
(run pytest with -s to see them all). The benchmark scenario is the
DC motor on the box (-2, 2) x (-1, 1), target -1.9, start (0, 0.9),
unit gains, estimates started at (1, 0).

Criterion 3 exercises the bundled dc_motor_fig2.cfg, which pins the
p2_hat update sign to the -1 variant under which this scenario actually
reaches its target. Criterion 4 certifies the shipped default (+1) law on
the same scenario. No single sign passes both: the two laws genuinely
trade tight tracking against Lyapunov monotonicity on this scenario, and
criterion 8 records that trade instead of hiding it.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

import safelift as sl

REPO = Path(__file__).resolve().parent.parent
FIG2_CFG = REPO / "configs" / "dc_motor_fig2.cfg"


def _criterion(number, description, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {status}: {description} ({detail})", flush=True)
    assert ok, f"criterion {number} failed: {description} ({detail})"


class TestAcceptance:
    def test_criterion_1_round_trip(self, box, tanh_fam):
        rng = np.random.default_rng(101)
        n = 10_000
        xs1 = box.x1_max * rng.uniform(-1.0, 1.0, n) * (1.0 - 1e-8)
        xs2 = box.x2_max * rng.uniform(-1.0, 1.0, n) * (1.0 - 1e-8)
        start = time.perf_counter()
        worst = 0.0
        for i in range(n):
            x = (xs1[i], xs2[i])
            back = sl.unlift(sl.lift(x, box, tanh_fam).z, box, tanh_fam).x
            worst = max(worst, abs(back[0] - x[0]), abs(back[1] - x[1]))
        elapsed = time.perf_counter() - start
        _criterion(1, "lift/unlift round-trip on 10^4 interior states",
                   worst < 1e-10 and elapsed < 1.0,
                   f"sup error {worst:.3e} < 1e-10, runtime {elapsed:.2f}s < 1s")

    def test_criterion_2_coordinate_equivalence(self, bench_cfg):
        cfg = bench_cfg(t_final=10.0)
        start = time.perf_counter()
        xrun = sl.run(cfg)
        zrun = sl.run_lifted(cfg)
        elapsed = time.perf_counter() - start
        assert xrun.completed
        dev = max(float(np.max(np.abs(xrun.x1 - zrun.x1))),
                  float(np.max(np.abs(xrun.x2 - zrun.x2))))
        _criterion(2, "x-route vs z-route closed-loop agreement over 10 s",
                   dev < 1e-5 and elapsed < 10.0,
                   f"sup deviation {dev:.3e} < 1e-5, runtime {elapsed:.2f}s < 10s")

    def test_criterion_3_bundled_scenario_reproduction(self):
        ec = sl.load_config(FIG2_CFG)
        start = time.perf_counter()
        traj = sl.run(ec.sim)
        elapsed = time.perf_counter() - start
        cert = sl.certify(traj, ec.sim, ec.thresholds)
        track_err = abs(traj.x1[-1] - ec.sim.reference.x1d)
        bound = 10.0 * (1.0 + traj.v[0])
        ok = (traj.completed
              and bool(np.all(traj.in_safe_set))
              and bool(np.all(np.abs(traj.x1) < ec.sim.safe_set.x1_max))
              and bool(np.all(np.abs(traj.x2) < ec.sim.safe_set.x2_max))
              and track_err < 0.02
              and abs(traj.u[-1]) < 1e-2
              and cert.sup_p2_hat < bound and cert.sup_theta1_hat < bound
              and elapsed < 5.0)
        _criterion(3, "bundled near-boundary motor scenario: tracking, safety, "
                      "input decay, bounded estimates",
                   ok,
                   f"|x1(T)-target| {track_err:.2e} < 0.02, "
                   f"|u(T)| {abs(traj.u[-1]):.2e} < 1e-2, "
                   f"sup estimates ({cert.sup_p2_hat:.2f}, "
                   f"{cert.sup_theta1_hat:.2f}) < {bound:.0f}, "
                   f"runtime {elapsed:.2f}s < 5s")

    def test_criterion_4_lyapunov_certificate(self, bench_cfg):
        cfg = bench_cfg(dt=1e-4)
        traj = sl.run(cfg)
        assert traj.completed
        v0 = traj.v[0]
        worst_inc = float(np.max(np.diff(traj.v)))
        vdot_err = float(np.max(np.abs(traj.vdot_numeric - traj.vdot_analytic)))
        ok = worst_inc < 1e-6 * v0 and vdot_err < 1e-3
        _criterion(4, "Lyapunov certificate for the default update law at dt=1e-4",
                   ok,
                   f"worst V increment {worst_inc:.3e} < {1e-6 * v0:.3e}, "
                   f"sup Vdot mismatch {vdot_err:.3e} < 1e-3")

    def test_criterion_5_structural_properties(self, bench_dyn, ref):
        rng = np.random.default_rng(105)
        n = 10_000
        z1s = rng.uniform(-8.0, 8.0, n)
        z2s = rng.uniform(-8.0, 8.0, n)
        start = time.perf_counter()
        ok = True
        for i in range(n):
            if bench_dyn.rhs((z1s[i], 0.0), 0.0)[0] != 0.0:
                ok = False
                break
            if bench_dyn.fields((z1s[i], 0.0))[1] != 0.0:
                ok = False
                break
            vgain, _, igain = bench_dyn.fields((z1s[i], z2s[i]))
            if igain == 0.0 or vgain == 0.0:
                ok = False
                break
        dz1, dz2 = bench_dyn.rhs((ref.z1d, 0.0), 0.0)
        resid = max(abs(dz1), abs(dz2))
        elapsed = time.perf_counter() - start
        _criterion(5, "structural zeros/nonsingularity on 10^4 samples and "
                      "equilibrium residual",
                   ok and resid <= 1e-14 and elapsed < 2.0,
                   f"fields ok={ok}, equilibrium residual {resid:.2e} <= 1e-14, "
                   f"runtime {elapsed:.2f}s < 2s")

    def test_criterion_6_randomized_safety_stress(self, motor, box, tanh_fam):
        rng = np.random.default_rng(106)
        start = time.perf_counter()
        failures = []
        for trial in range(100):
            x0 = (float(0.95 * box.x1_max * rng.uniform(-1, 1)),
                  float(0.95 * box.x2_max * rng.uniform(-1, 1)))
            x1d = float(0.95 * box.x1_max * rng.uniform(-1, 1))
            k1, gamma, alpha = rng.uniform(0.5, 2.0, 3)
            cfg = sl.SimConfig(
                plant=motor, safe_set=box,
                gains=sl.ControllerGains(k1=float(k1), gamma=float(gamma),
                                         alpha=float(alpha),
                                         theta2_sign=motor.theta2_sign),
                reference=sl.Reference.for_target(x1d, box, tanh_fam),
                x0=x0, est0=sl.EstimatorState(1.0, 0.0),
                family=tanh_fam, dt=1e-3, t_final=30.0)
            traj = sl.run(cfg)
            bound = 10.0 * (1.0 + traj.v[0]) if len(traj) else 0.0
            ok = (traj.completed and bool(np.all(traj.in_safe_set))
                  and float(np.max(np.abs(traj.p2_hat))) < bound
                  and float(np.max(np.abs(traj.theta1_hat))) < bound)
            if not ok:
                failures.append((trial, traj.failure))
        elapsed = time.perf_counter() - start
        _criterion(6, "100 randomized 30 s runs: no safe-set violation, no "
                      "abort, estimates bounded",
                   not failures and elapsed < 120.0,
                   f"failures={failures if failures else 'none'}, "
                   f"runtime {elapsed:.1f}s < 120s")

    def test_criterion_7_integrator_order(self, bench_cfg):
        finals = {}
        for dt in (2e-3, 1e-3, 5e-4):
            traj = sl.run(bench_cfg(dt=dt, t_final=10.0, log_stride=1000))
            finals[dt] = float(traj.x1[-1])
        d1 = abs(finals[2e-3] - finals[1e-3])
        d2 = abs(finals[1e-3] - finals[5e-4])
        order = math.log2(d1 / d2) if d2 > 0 else float("inf")
        _criterion(7, "observed convergence order of the integrator on x1(10 s)",
                   order >= 3.5,
                   f"|x(2h)-x(h)|={d1:.3e}, |x(h)-x(h/2)|={d2:.3e}, "
                   f"order {order:.2f} >= 3.5")

    def test_criterion_8_update_sign_adjudication(self, bench_cfg, tmp_path):
        adj = sl.adjudicate_p2_sign(bench_cfg())
        report = adj.to_report()
        (tmp_path / "sign_adjudication.txt").write_text(report)
        print("\n" + report, flush=True)
        default_sign = sl.SimConfig.__dataclass_fields__["p2_law_sign"].default
        # The shipped default must be the law that satisfies criterion 4's
        # monotonicity; both outcomes stay on record.
        ok = (adj.plus.lyapunov_monotone
              and not adj.minus.lyapunov_monotone
              and adj.recommended_sign == 1.0
              and default_sign == 1.0
              and adj.minus.tracking_error_final < 0.02
              and adj.plus.safe_invariance and adj.minus.safe_invariance)
        _criterion(8, "p2_hat update-sign adjudication recorded; default is "
                      "the certified law",
                   ok,
                   f"+1 monotone={adj.plus.lyapunov_monotone}, "
                   f"-1 monotone={adj.minus.lyapunov_monotone}, "
                   f"-1 tracking {adj.minus.tracking_error_final:.2e}, "
                   f"default={default_sign:+.0f}")
