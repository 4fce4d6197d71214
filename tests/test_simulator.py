"""Simulator: config validation, stepping, guards, logging, determinism."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

import safelift as sl
from safelift.errors import ConfigError, StepRejected
from safelift import simulator
from safelift.simulator import BLOCK_ROWS, write_csvs

from test_cli import use_cpus
from test_law_reference import hexes
from test_log_buffer import failing

REPO = Path(__file__).resolve().parent.parent
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
        # A bool is an int to isinstance, and True would run as stride 1.
        (dict(log_stride=True), "log_stride must be a positive integer, got True"),
        (dict(log_stride=2.0), "log_stride must be a positive integer, got 2.0"),
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

    def test_numpy_integer_log_stride_is_accepted_as_int(self, bench_cfg):
        cfg = bench_cfg(t_final=0.01, log_stride=np.int64(5))
        assert cfg.log_stride == 5 and type(cfg.log_stride) is int
        assert np.array_equal(sl.run(cfg).t, sl.run(bench_cfg(t_final=0.01,
                                                               log_stride=5)).t)

    def test_controller_view_refused(self, bench_cfg, motor):
        # The simulator needs theta1/theta2, which the control view hides.
        with pytest.raises(ConfigError, match="PlantDef"):
            bench_cfg(plant=motor.control_view())


# The DC-motor benchmark, and the certified scenario on a box twice as
# tall with a logit first and a tanh second lifting.
SCENARIOS = {"dc-motor": {},
             "logit-tanh-x2max-2": dict(safe_set=sl.SafeSet(2.0, 2.0), x0=(0.0, 1.7),
                                         family=(sl.logit_family(), sl.tanh_family()))}


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
        # step and run's loop hand _rk4 its first stage each; the results
        # agree bit for bit.
        for scenario in SCENARIOS.values():
            cfg = bench_cfg(t_final=0.01, **scenario)
            (x1, x2), est = sl.step(cfg, cfg.x0, cfg.est0)
            traj = sl.run(cfg)
            assert [v.hex() for v in (x1, x2, est.p2_hat, est.theta1_hat)] == [
                float(c[1]).hex() for c in (traj.x1, traj.x2, traj.p2_hat,
                                            traj.theta1_hat)]

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
        sl.step(dataclasses.replace(cfg, p2_law_sign=-1.0), cfg.x0, cfg.est0)
        assert len(calls) == 2 and calls[1][-1] == -1.0


class TestLoggedColumns:
    """Columns formed from the log after the loop, bit for bit."""

    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("route", [sl.run, sl.run_lifted], ids=["x", "z"])
    @pytest.mark.parametrize("stride", [1, 7, 100])
    def test_v_column_is_the_per_sample_formula(self, bench_cfg, scenario, route,
                                                stride):
        # V written out once more, one sample at a time in Python floats
        # through the family's scalar maps: the column must match each
        # value bit for bit, not merely to rounding.
        cfg = bench_cfg(t_final=1.0, log_stride=stride, **SCENARIOS[scenario])
        traj = route(cfg)
        assert traj.completed
        xb2 = cfg.safe_set.x2_max
        fam2 = sl.family_pair(cfg.family)[1]
        th1e, p2 = cfg.plant.theta1 / xb2, 1.0 / cfg.plant.theta2
        ath2, gam, alp = abs(cfg.plant.theta2), cfg.gains.gamma, cfg.gains.alpha
        want = []
        for x2, p2h, th1h, e1 in zip(traj.x2.tolist(), traj.p2_hat.tolist(),
                                     traj.theta1_hat.tolist(), traj.e1.tolist()):
            want.append(0.5 * e1 * e1 + fam2.squash_integral(fam2.unsquash(x2 / xb2))
                        + 0.5 / gam * ath2 * (p2h - p2) * (p2h - p2)
                        + 0.5 / alp * (th1e - th1h) * (th1e - th1h))
        assert [v.hex() for v in traj.v.tolist()] == [v.hex() for v in want]


class TestStageFnMirrorsPublicApi:
    def test_stage_rates_match_composition(self, bench_cfg):
        # The hot path's law, with theta combined as _rk4 combines it, must
        # agree with the true plant (plant_rhs) driven by lift + evaluate.
        cfg = bench_cfg()
        law, th1, th2 = cfg._law, cfg.plant.theta1, cfg.plant.theta2
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

    def test_log_stride_and_final_sample(self, bench_cfg, tmp_path, monkeypatch):
        cfg = bench_cfg(t_final=0.01, log_stride=3)
        traj = sl.run(cfg)
        # Steps 0..10 logged at 0, 3, 6, 9 plus the forced final step 10.
        assert list(np.round(traj.t / cfg.dt).astype(int)) == [0, 3, 6, 9, 10]
        # t bit for bit: logged row k is step min(k * stride, n), times dt,
        # over several flushes of the log.
        stride1 = bench_cfg(t_final=0.6)
        off = bench_cfg(t_final=0.901, log_stride=3)  # 901 steps: the last is off the stride
        assert (stride1.n_steps, off.n_steps % 3) == (600, 1)
        use_cpus(monkeypatch, 2)
        runs = [
            (stride1, sl.run(stride1), 601),
            (off, sl.run(off), 302),
            # Aborted after logging step 840, its row 280.
            (off, simulator._integrate(off, failing(off._law, 4 * 840 + 2), off.x0), 281),
            (off, sl.run_lifted(off), 302),
            # A forked writer forms the columns of the Trajectory run returns.
            (off, sl.run(off, lambda traj: [traj.csv_table(tmp_path / "trace.csv")]), 302),
        ]
        for cfg, traj, rows in runs:
            n, stride = cfg.n_steps, cfg.log_stride
            assert hexes(traj.t) == hexes(float(min(k * stride, n)) * cfg.dt
                                          for k in range(rows))

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

    def test_abort_is_recorded_as_the_step_rejected_that_step_raises(self, bench_cfg):
        # run keeps the record that step raises on the same first step, and
        # its text is the certificate's failure line.
        cfg = bench_cfg(est0=sl.EstimatorState(1e150, 0.0), t_final=1.0)
        traj = sl.run(cfg)
        with pytest.raises(StepRejected) as err:
            sl.step(cfg, cfg.x0, cfg.est0)
        fail = traj.failure
        assert isinstance(fail, StepRejected)
        assert (fail.time, fail.kind) == (err.value.time, err.value.kind)
        assert fail.kind == "DomainViolation"
        assert str(fail) == str(err.value) == f"DomainViolation at t=0: {fail.cause}"
        assert str(fail) == sl.certify(traj, cfg).failure

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


# A plant whose virtual gain or lifted input gain is identically zero: the
# law's first evaluation must abort the run, not divide by zero.
SINGULAR = [
    (sl.PlantDef(g1=lambda x1: 0.0, f2=lambda x1, x2: x2, g2=lambda x1, x2: 1.0,
                 theta1=1.0, theta2=1.0), "virtual gain 0.0 at x1="),
    (sl.PlantDef(g1=lambda x1: 1.0, f2=lambda x1, x2: x2, g2=lambda x1, x2: 0.0,
                 theta1=1.0, theta2=1.0), "lifted input gain 0.0 at ("),
]


class TestRoutes:
    """run and run_lifted: one integrator, one record, two coordinate systems."""

    @pytest.mark.parametrize("route", [sl.run, sl.run_lifted], ids=["x", "z"])
    @pytest.mark.parametrize("plant, text", SINGULAR, ids=["g1-zero", "g2-zero"])
    def test_singular_gain_aborts_at_start(self, bench_cfg, route, plant, text):
        traj = route(bench_cfg(plant=plant, t_final=1.0))
        assert len(traj) == 0
        assert traj.failure.kind == "SingularityDetected"
        assert traj.failure.time == 0.0
        assert str(traj.failure.cause).startswith(text)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_z_route_columns_match_x_route(self, bench_cfg, sign):
        # Criterion 2's tolerance over its 10 s horizon, on every state column.
        cfg = bench_cfg(t_final=10.0, p2_law_sign=sign)
        xrun, zrun = sl.run(cfg), sl.run_lifted(cfg)
        assert xrun.completed and zrun.completed
        assert np.array_equal(zrun.t, xrun.t)
        for name in ("x1", "x2", "p2_hat", "theta1_hat"):
            assert np.max(np.abs(getattr(zrun, name) - getattr(xrun, name))) < 1e-5, name

    def test_both_routes_certify_on_the_certified_config(self):
        ec = sl.load_config(REPO / "configs" / "dc_motor_certified.cfg")
        cfg = dataclasses.replace(ec.sim, t_final=10.0)
        xrun, zrun = sl.run(cfg), sl.run_lifted(cfg)
        assert sl.certify(xrun, cfg, ec.thresholds).all_pass
        assert sl.certify(zrun, cfg, ec.thresholds).all_pass
        assert np.max(np.abs(zrun.v - xrun.v)) < 1e-6
        assert np.max(np.abs(zrun.u - xrun.u)) < 1e-6

    def test_z_route_log_stride_does_not_change_arithmetic(self, bench_cfg):
        dense = sl.run_lifted(bench_cfg(t_final=1.0))
        thin = sl.run_lifted(bench_cfg(t_final=1.0, log_stride=7))
        idx = np.round(thin.t / 1e-3).astype(int)
        assert idx[-1] == len(dense) - 1
        for name in ("t", "x1", "x2", "z1", "z2", "p2_hat", "theta1_hat", "u", "v"):
            assert np.array_equal(getattr(thin, name), getattr(dense, name)[idx]), name


class TestNonlinearPlant:
    """Both laws on conftest's nonlinear plant, target -1.5, over 10 s.

    The +1 run parks short of the target, so tracking is not asserted; the
    V rate identity and monotone V are what see a dropped shape factor.
    """

    @pytest.fixture(scope="class", params=[
        (sl.tanh_family(), 1.0),
        ((sl.tanh_family(), sl.logit_family()), 2.0),
    ], ids=["tanh-x2max-1", "tanh-logit-x2max-2"])
    def scenario(self, request, nonlinear_plant, gains):
        family, x2_max = request.param
        cfg = sl.SimConfig(plant=nonlinear_plant, safe_set=sl.SafeSet(2.0, x2_max),
                           gains=gains, x1d=-1.5, x0=(0.0, 0.5 * x2_max),
                           est0=sl.EstimatorState(1.0, 0.0), family=family,
                           t_final=10.0)
        return cfg, sl.run(cfg)

    def test_assumptions_hold(self, scenario):
        cfg, _ = scenario
        assert sl.check_assumptions(cfg.plant, cfg.safe_set).passed

    def test_run_completes_with_certified_v(self, scenario):
        cfg, traj = scenario
        assert traj.completed
        cert = sl.certify(traj, cfg)
        assert cert.vdot_identity_error <= cert.vdot_tol
        assert cert.lyapunov_monotone

    def test_x_and_z_routes_agree(self, scenario):
        cfg, traj = scenario
        zrun = sl.run_lifted(cfg)
        assert np.max(np.abs(traj.x1 - zrun.x1)) < 1e-5
        assert np.max(np.abs(traj.x2 - zrun.x2)) < 1e-5

    def test_minus_law_stays_safe_on_both_routes(self, scenario):
        # Under -1 neither monotone V nor the V rate identity holds (the
        # identity is off by order one), so only safety and the agreement
        # of the x-route and the z-route are asserted.
        cfg = dataclasses.replace(scenario[0], p2_law_sign=-1.0)
        traj, zrun = sl.run(cfg), sl.run_lifted(cfg)
        assert traj.completed
        assert np.all(traj.in_safe_set)
        assert np.max(np.abs(traj.x1 - zrun.x1)) < 1e-5
        assert np.max(np.abs(traj.x2 - zrun.x2)) < 1e-5


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
    """Reference writer: one f-string per cell, the format write_csvs matches."""
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for i in range(len(cols[0])):
            fh.write(",".join(f"{c[i]:.15g}" for c in cols) + "\n")


EDGE_VALUES = [0.0, -0.0, 5e-324, 1e-300, 0.1, 1e15, 1e16, 123456789012345.6,
               1.0 / 3.0, 2.0 ** 0.5, 1e-5, 1.7976931348623157e308,
               math.inf, math.nan]


class TestWriteCsv:
    @pytest.mark.parametrize("rows", [0, 1, BLOCK_ROWS, BLOCK_ROWS + 1])
    def test_bytes_match_per_cell_formatting(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        edge = np.array(EDGE_VALUES + [-v for v in EDGE_VALUES])
        cols = (np.resize(edge, rows),
                rng.permutation(np.resize(edge, rows)),
                rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows),
                rng.uniform(-1.0, 1.0, rows))
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_csvs([(got, "a,b,c,d", cols)])
        per_cell_csv(want, "a,b,c,d", cols)
        assert got.read_bytes() == want.read_bytes()
        assert len(got.read_text().splitlines()) == rows + 1

    @pytest.mark.parametrize("rows", [0, 1, BLOCK_ROWS, BLOCK_ROWS + 1])
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
            write_csvs([(alone, header, cols)])
            per_cell_csv(tmp_path / "want.csv", header, cols)
            assert path.read_bytes() == alone.read_bytes()
            assert path.read_bytes() == (tmp_path / "want.csv").read_bytes()


class TestWriteCsvColumnTypes:
    def test_non_float_columns_match_per_cell_formatting(self, tmp_path):
        # write_csvs reads every column as float64; ints (odd ones past
        # 2**53 too), bools and Python lists must still print as each
        # cell's own f"{v:.15g}".
        rows = BLOCK_ROWS + 3
        rng = np.random.default_rng(14)
        ints = rng.integers(-2 ** 62, 2 ** 62, rows)
        ints[:4] = (0, -7, 10 ** 15, 2 ** 53 + 1)
        cols = (ints, rng.random(rows) < 0.5, rng.standard_normal(rows).tolist(),
                list(range(rows)))
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_csvs([(got, "i,b,f,n", cols)])
        per_cell_csv(want, "i,b,f,n", cols)
        assert got.read_bytes() == want.read_bytes()

    def test_empty_and_one_sample_tables(self, tmp_path, bench_cfg):
        empty = (np.array([]), np.array([], dtype=np.int64))
        write_csvs([(tmp_path / "empty.csv", "a,b", empty)])
        assert (tmp_path / "empty.csv").read_bytes() == b"a,b\n"
        # Aborted at t = 0: one logged sample, and no Vdot_num to measure.
        traj = sl.run(bench_cfg(est0=sl.EstimatorState(1e150, 0.0), t_final=1.0))
        assert len(traj) == 1 and math.isnan(traj.vdot_numeric[0])
        table = traj.csv_table(tmp_path / "trace.csv")
        write_csvs([table])
        per_cell_csv(tmp_path / "want.csv", *table[1:])
        assert table[0].read_bytes() == (tmp_path / "want.csv").read_bytes()


class TestOverflowedV:
    """A V too large for a double reads inf or nan in the trace and in the
    certificate, and raises no NumPy warning (the suite runs with -W error)."""

    @staticmethod
    def scenario(name, **overrides):
        return dataclasses.replace(sl.load_config(REPO / "configs" / name).sim, **overrides)

    def test_huge_p2_hat_reads_inf(self):
        # 0.5 |theta2| (p2_hat - p2)^2 / gamma overflows above about 1e154.
        cfg = self.scenario("dc_motor_fig2.cfg", est0=sl.EstimatorState(1e200, 0.0))
        traj = sl.run(cfg)
        assert len(traj) == 1 and traj.failure is not None
        assert math.isinf(traj.v[0]) and math.isnan(traj.vdot_numeric[0])
        assert "\nv0 = inf\n" in sl.certify(traj, cfg).to_report()

    def test_tiny_gamma_numeric_rate_reads_nan(self):
        # V is finite, near 5e305, but np.gradient's weighted sum overflows.
        cfg = self.scenario("dc_motor_certified.cfg", t_final=1.0,
                            gains=sl.ControllerGains(1.0, 1e-306, 1.0),
                            est0=sl.EstimatorState(2.0, 0.0))
        traj = sl.run(cfg)
        assert traj.completed and np.all(np.isfinite(traj.v))
        assert np.isnan(traj.vdot_numeric).any()
        report = sl.certify(traj, cfg).to_report()
        assert "\nvdot_identity_error = nan\n" in report

    def test_infinite_v_increment_reads_nan(self):
        # 0.5 / gamma is inf, so every V is inf and each increment inf - inf.
        cfg = self.scenario("dc_motor_certified.cfg", t_final=0.01,
                            gains=sl.ControllerGains(1.0, 1e-310, 1.0),
                            est0=sl.EstimatorState(2.0, 0.0))
        traj = sl.run(cfg)
        assert traj.completed and np.all(np.isinf(traj.v))
        cert = sl.certify(traj, cfg)
        assert math.isnan(cert.worst_v_increment) and not cert.lyapunov_monotone
