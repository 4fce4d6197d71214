"""Simulator: config validation, stepping, guards, logging, determinism."""

import dataclasses
import math

import numpy as np
import pytest

import safelift as sl
from safelift.errors import ConfigError, StepRejected
from safelift import simulator
from safelift.simulator import CSV_CHUNK_ROWS, write_csv, write_csvs

V0_BENCH = 57.441257570906908


class TestSimConfigValidation:
    def test_accepts_benchmark(self, bench_cfg):
        assert bench_cfg().n_steps == 30000

    @pytest.mark.parametrize("overrides, fragment", [
        (dict(dt=0.0), "dt"),
        (dict(dt=-1e-3), "dt"),
        (dict(t_final=1e-4), "t_final"),
        (dict(log_stride=0), "log_stride"),
        (dict(p2_law_sign=0.5), "p2_law_sign"),
        (dict(x0=(0.0, 1.0)), "safe set"),
        (dict(x0=(2.5, 0.0)), "safe set"),
        (dict(x0=(0.0, math.nan)), "finite"),
        (dict(est0=sl.EstimatorState(0.0, 0.0)), "nonzero"),
        (dict(est0=sl.EstimatorState(math.inf, 0.0)), "finite"),
        (dict(x1d=-2.5), "strictly inside"),
        (dict(x1d=2.0), "strictly inside"),
        # The target is checked against the config's own box, also when only
        # the box changed.
        (dict(safe_set=sl.SafeSet(1.5, 1.0)), "strictly inside"),
    ])
    def test_rejections(self, bench_cfg, overrides, fragment):
        with pytest.raises(ConfigError, match=fragment):
            bench_cfg(**overrides)

    def test_reference_follows_box_and_family(self, bench_cfg):
        cfg = bench_cfg()
        box, fam = sl.SafeSet(3.0, 1.0), sl.logit_family()
        moved = dataclasses.replace(cfg, safe_set=box, family=fam)
        assert moved.reference == sl.Reference.for_target(cfg.x1d, box, fam)
        assert moved.reference.z1d != cfg.reference.z1d

    def test_boundary_start_rejected(self, bench_cfg):
        with pytest.raises(ConfigError):
            bench_cfg(x0=(0.0, 1.0))


class TestStep:
    def test_equilibrium_is_fixed_point(self, bench_cfg):
        cfg = bench_cfg()
        state = (cfg.reference.x1d, 0.0)
        est = sl.EstimatorState(0.37, -4.2)
        new_state, new_est = sl.step(cfg, state, est)
        assert abs(new_state[0] - state[0]) < 1e-14
        assert abs(new_state[1]) < 1e-14
        assert new_est == est

    def test_nan_estimate_rejected_with_time(self, bench_cfg):
        cfg = bench_cfg()
        with pytest.raises(StepRejected) as err:
            sl.step(cfg, (0.0, 0.5), sl.EstimatorState(math.nan, 0.0), t=1.25)
        assert err.value.time == 1.25

    def test_single_step_matches_run(self, bench_cfg):
        cfg = bench_cfg()
        state, est = sl.step(cfg, cfg.x0, cfg.est0)
        traj = sl.run(cfg)
        assert state[0] == traj.x1[1]
        assert state[1] == traj.x2[1]
        assert est.p2_hat == traj.p2_hat[1]

    def test_law_compiled_once_per_config(self, bench_cfg, monkeypatch):
        calls = []

        def counting_compile_law(*args):
            calls.append(args)
            return sl.compile_law(*args)

        monkeypatch.setattr(simulator, "compile_law", counting_compile_law)
        cfg = bench_cfg(t_final=0.01)
        state, est = cfg.x0, cfg.est0
        for _ in range(5):
            state, est = sl.step(cfg, state, est)
        sl.run(cfg)
        assert len(calls) == 1
        # replace() gives a new config, and the new config its own law.
        sl.step(cfg.with_sign(-1.0), cfg.x0, cfg.est0)
        assert len(calls) == 2 and calls[1][-1] == -1.0


class TestStageFnMirrorsPublicApi:
    def test_stage_rates_match_composition(self, bench_cfg):
        # The hot path's law, with theta combined as _rk4 combines it, must
        # agree with the true plant (plant_rhs) driven by lift + evaluate.
        cfg = bench_cfg()
        law, (th1, th2) = cfg._law
        dyn = cfg.dynamics()
        rng = np.random.default_rng(31)
        for _ in range(300):
            x = (rng.uniform(-1.9, 1.9), rng.uniform(-0.95, 0.95))
            est = sl.EstimatorState(rng.uniform(-3, 3) or 1.0, rng.uniform(-12, 12))
            out = law(x[0], x[1], est.p2_hat, est.theta1_hat)
            frame = sl.lift(x, cfg.safe_set, cfg.family)
            sig = sl.evaluate(dyn, frame, cfg.reference, cfg.gains, est,
                              cfg.p2_law_sign)
            dx = sl.plant_rhs(cfg.plant, x, sig.u)
            assert out[0] == pytest.approx(dx[0], rel=1e-14, abs=1e-300)
            assert th1 * out[1] + th2 * out[2] == pytest.approx(
                dx[1], rel=1e-14, abs=1e-300)
            assert out[3] == pytest.approx(sig.dp2_hat, rel=1e-14, abs=1e-300)
            assert out[4] == pytest.approx(sig.dtheta1_hat, rel=1e-14, abs=1e-300)
            assert out[5] == pytest.approx(sig.e1, rel=1e-14)
            assert out[6] == pytest.approx(sig.e2, rel=1e-14)
            assert out[7] == pytest.approx(sig.u, rel=1e-14, abs=1e-300)


class TestRun:
    def test_benchmark_run_completes_inside_box(self, run_plus, bench_cfg):
        cfg = bench_cfg()
        assert run_plus.completed
        assert run_plus.failure is None
        assert bool(np.all(run_plus.in_safe_set))
        assert len(run_plus) == cfg.n_steps + 1
        assert run_plus.v[0] == pytest.approx(V0_BENCH, rel=1e-12)

    def test_timestamps_strictly_increasing(self, run_plus):
        assert np.all(np.diff(run_plus.t) > 0)
        assert run_plus.t[1] - run_plus.t[0] == pytest.approx(1e-3, rel=1e-12)

    def test_zero_reference_zero_start_stays_at_rest(self, bench_cfg):
        cfg = bench_cfg(x1d=0.0, x0=(0.0, 0.0), t_final=1.0)
        traj = sl.run(cfg)
        assert np.all(traj.u == 0.0)
        assert np.all(traj.x1 == 0.0)
        assert np.all(traj.x2 == 0.0)

    def test_log_stride_and_final_sample(self, bench_cfg):
        cfg = bench_cfg(t_final=0.01, log_stride=3)
        traj = sl.run(cfg)
        # Steps 0..10 logged at 0, 3, 6, 9 plus the forced final step 10.
        assert list(np.round(traj.t / cfg.dt).astype(int)) == [0, 3, 6, 9, 10]

    def test_determinism(self, bench_cfg):
        cfg = bench_cfg(t_final=2.0)
        a = sl.run(cfg)
        b = sl.run(cfg)
        for name in ("t", "x1", "x2", "u", "v", "p2_hat", "theta1_hat"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_overflow_at_first_evaluation_yields_empty_trajectory(self, bench_cfg):
        cfg = bench_cfg(est0=sl.EstimatorState(1e308, 0.0), t_final=1.0)
        traj = sl.run(cfg)
        assert not traj.completed
        assert traj.failure is not None
        assert traj.failure.kind == "NonFiniteInput"
        assert traj.failure.time == 0.0
        assert len(traj) == 0

    def test_blowup_mid_step_keeps_partial_trajectory(self, bench_cfg):
        # Large but representable estimate: the first evaluation succeeds,
        # the resulting control slews the state outside the guard band
        # within the first RK4 step.
        cfg = bench_cfg(est0=sl.EstimatorState(1e150, 0.0), t_final=1.0)
        traj = sl.run(cfg)
        assert not traj.completed
        assert traj.failure.kind == "DomainViolation"
        assert len(traj) == 1
        assert traj.t[0] == 0.0

    def test_vdot_analytic_column_definition(self, run_plus, gains):
        expected = -(np.sqrt(gains.k1) * run_plus.e1
                     - np.sqrt(gains.k2) * run_plus.e2) ** 2
        assert np.allclose(run_plus.vdot_analytic, expected, rtol=1e-12, atol=0)

    def test_vdot_numeric_tracks_analytic_on_certified_run(self, run_plus):
        err = np.max(np.abs(run_plus.vdot_numeric - run_plus.vdot_analytic))
        assert err < 1e-3

    @pytest.mark.parametrize("stride", [1, 7])
    def test_logging_costs_no_stage_evaluations(self, bench_cfg, motor, stride):
        # A logged step's stage evaluation is reused as RK4's first stage, so
        # n steps take 4n stages plus the final logged row, at any stride.
        calls = 0

        def counted_g1(x1):
            nonlocal calls
            calls += 1
            return motor.g1(x1)

        cfg = bench_cfg(plant=dataclasses.replace(motor, g1=counted_g1),
                        t_final=0.05, log_stride=stride)
        assert sl.run(cfg).completed
        assert calls == 4 * cfg.n_steps + 1

    def test_log_stride_does_not_change_arithmetic(self, bench_cfg):
        dense = sl.run(bench_cfg(t_final=1.0))
        thin = sl.run(bench_cfg(t_final=1.0, log_stride=7))
        idx = np.round(thin.t / 1e-3).astype(int)
        assert idx[-1] == len(dense) - 1
        for name in ("t", "x1", "x2", "p2_hat", "theta1_hat", "e1", "e2",
                     "u", "v", "vdot_analytic"):
            assert np.array_equal(getattr(thin, name), getattr(dense, name)[idx]), name

    def test_estimator_states_integrated_inside_rk4(self, bench_cfg):
        # Halving dt changes the estimates at fixed time at fourth order;
        # a side-channel Euler update would only manage first order.
        c1 = bench_cfg(dt=2e-3, t_final=1.0)
        c2 = bench_cfg(dt=1e-3, t_final=1.0)
        c3 = bench_cfg(dt=5e-4, t_final=1.0)
        p1 = sl.run(c1).p2_hat[-1]
        p2 = sl.run(c2).p2_hat[-1]
        p3 = sl.run(c3).p2_hat[-1]
        order = math.log2(abs(p1 - p2) / abs(p2 - p3))
        assert order > 3.0


class TestTrajectoryCsv:
    def test_schema_and_round_trip(self, bench_cfg, tmp_path):
        cfg = bench_cfg(t_final=0.5, log_stride=10)
        traj = sl.run(cfg)
        path = tmp_path / "trace.csv"
        traj.to_csv(path)
        text = path.read_text().splitlines()
        assert text[0] == ("t,x1,x2,z1,z2,e1,e2,u,p2_hat,theta1_hat,"
                           "V,Vdot_num,Vdot_analytic")
        data = np.genfromtxt(path, delimiter=",", names=True)
        assert len(data) == len(traj)
        assert data["x1"][-1] == pytest.approx(traj.x1[-1], rel=1e-14)
        assert data["V"][0] == pytest.approx(traj.v[0], rel=1e-14)
        # 15 significant digits in every numeric field.
        sample = text[1].split(",")[10]
        mantissa = sample.lstrip("-").replace(".", "").split("e")[0].lstrip("0")
        assert len(mantissa) >= 12


def per_cell_csv(path, header, cols):
    """Reference writer: one f-string per cell, the format write_csv matches."""
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for i in range(len(cols[0])):
            fh.write(",".join(f"{c[i]:.15g}" for c in cols) + "\n")


EDGE_VALUES = [0.0, -0.0, 5e-324, 1e-300, 0.1, 1e15, 1e16, 123456789012345.6,
               1.0 / 3.0, 2.0 ** 0.5, 1e-5, 1.7976931348623157e308,
               math.inf, math.nan]


class TestWriteCsv:
    @pytest.mark.parametrize("rows", [0, 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1])
    def test_bytes_match_per_cell_formatting(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        edge = np.array(EDGE_VALUES + [-v for v in EDGE_VALUES])
        cols = (np.resize(edge, rows),
                rng.permutation(np.resize(edge, rows)),
                rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows),
                rng.uniform(-1.0, 1.0, rows))
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_csv(got, "a,b,c,d", cols)
        per_cell_csv(want, "a,b,c,d", cols)
        assert got.read_bytes() == want.read_bytes()
        assert len(got.read_text().splitlines()) == rows + 1

    @pytest.mark.parametrize("rows", [0, 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1])
    def test_shared_columns_write_as_if_alone(self, tmp_path, rows):
        # Columns passed to several tables, in other orders and positions
        # and twice within one table, are formatted once per chunk; every
        # file must still equal the table written on its own.
        rng = np.random.default_rng(rows)
        edge = np.resize(np.array(EDGE_VALUES + [-v for v in EDGE_VALUES]), rows)
        a, b, c, d = (edge, rng.standard_normal(rows) * 1e10,
                      rng.permutation(edge), rng.uniform(-1.0, 1.0, rows))
        tables = [(tmp_path / "t0.csv", "a,b,c", (a, b, c)),
                  (tmp_path / "t1.csv", "b,c,d,a", (b, c, d, a)),
                  (tmp_path / "t2.csv", "a,a,d", (a, a, d)),
                  (tmp_path / "t3.csv", "d", (d,))]
        write_csvs(tables)
        for path, header, cols in tables:
            alone = tmp_path / "alone.csv"
            write_csv(alone, header, cols)
            per_cell_csv(tmp_path / "want.csv", header, cols)
            assert path.read_bytes() == alone.read_bytes()
            assert path.read_bytes() == (tmp_path / "want.csv").read_bytes()
