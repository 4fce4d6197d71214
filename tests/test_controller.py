"""Control law and adaptation laws: frozen values, structure, firewalls."""

import dataclasses
import inspect
import io
import math
import tokenize

import numpy as np
import pytest

import safelift as sl
from safelift import controller as controller_module
from safelift.errors import ConfigError, NonFiniteInput
from safelift.simulator import _rk4

# Frozen reference values for the benchmark scenario at t = 0
# (x = (0, 0.9), target -1.9, box (2, 1), unit gains, estimates (1, 0)),
# computed with a 30-digit arbitrary-precision oracle:
#   e1 = -2 atanh(-0.95) = ln 39
#   e2 = 0.9 + e1
#   u  = -0.19 e2
#   p2_hat rate = +0.9 e2, theta1_hat rate = 0.81 / 0.19
E1_T0 = 3.663561646129646427
E2_T0 = 4.563561646129646427
U_T0 = -0.867076712764632821
DP2_T0 = 4.107205481516681785
DTH1_T0 = 4.263157894736842105


@pytest.fixture(scope="module")
def cdyn(motor, box, tanh_fam):
    """Controller-side dynamics: plant shape only, no true parameters."""
    return sl.LiftedDynamics(plant=motor.control_view(), safe_set=box,
                             family=tanh_fam)


@pytest.fixture(scope="module")
def t0_frame(box, tanh_fam):
    return sl.lift((0.0, 0.9), box, tanh_fam)


# The errors do not depend on the estimates; any finite pair will do.
ANY_EST = sl.EstimatorState(1.0, 0.0)


class TestControllerGains:
    @pytest.mark.parametrize("bad", [dict(k1=0.0), dict(k1=-1.0),
                                     dict(gamma=0.0), dict(alpha=-2.0)])
    def test_validation(self, bad):
        kw = dict(k1=1.0, gamma=1.0, alpha=1.0)
        kw.update(bad)
        with pytest.raises(ConfigError):
            sl.ControllerGains(**kw)

    def test_k2_is_derived_not_stored(self):
        # There must be no independent second gain anywhere in the API.
        names = {f.name for f in dataclasses.fields(sl.ControllerGains)}
        assert "k2" not in names
        for k1 in (0.25, 1.0, 3.7):
            g = sl.ControllerGains(k1=k1, gamma=1.0, alpha=1.0)
            assert g.k2 == 1.0 / k1


class TestReference:
    def test_lifted_target(self, box, tanh_fam):
        ref = sl.Reference.for_target(-1.9, box, tanh_fam)
        assert ref.x1d == -1.9
        assert ref.z1d == pytest.approx(-E1_T0, rel=1e-14)

    @pytest.mark.parametrize("bad", [2.0, -2.0, 2.5, math.nan])
    def test_must_be_interior(self, box, tanh_fam, bad):
        with pytest.raises(ConfigError):
            sl.Reference.for_target(bad, box, tanh_fam)


class TestTrackingErrors:
    def test_equilibrium(self, cdyn, box, tanh_fam, gains):
        ref = sl.Reference.for_target(-1.9, box, tanh_fam)
        frame = sl.lift((-1.9, 0.0), box, tanh_fam)
        sig = sl.evaluate(cdyn, frame, ref, gains, ANY_EST)
        assert abs(sig.e1) < 1e-12
        assert abs(sig.e2) < 1e-12

    def test_benchmark_start(self, cdyn, t0_frame, ref, gains):
        sig = sl.evaluate(cdyn, t0_frame, ref, gains, ANY_EST)
        assert sig.e1 == pytest.approx(E1_T0, rel=1e-14)
        assert sig.e2 == pytest.approx(E2_T0, rel=1e-14)

    def test_second_error_zeroed_by_matching_speed(self, cdyn, box, tanh_fam, gains, ref):
        # Pick x2 so the virtual-control term cancels k1 e1 exactly.
        frame0 = sl.lift((-1.7, 0.0), box, tanh_fam)
        e1 = sl.evaluate(cdyn, frame0, ref, gains, ANY_EST).e1
        vgain = cdyn.fields(frame0.z)[0]
        x2 = box.x2_max * (-gains.k1 * e1 / vgain)
        assert abs(x2) < box.x2_max
        frame = sl.lift((-1.7, x2), box, tanh_fam)
        assert abs(sl.evaluate(cdyn, frame, ref, gains, ANY_EST).e2) < 1e-12


class TestControlInput:
    def test_benchmark_start(self, cdyn, t0_frame, ref, gains):
        u = sl.evaluate(cdyn, t0_frame, ref, gains, sl.EstimatorState(1.0, 0.0)).u
        assert u == pytest.approx(U_T0, rel=1e-14)

    def test_zero_estimate_kills_input(self, cdyn, box, tanh_fam, ref, gains):
        rng = np.random.default_rng(21)
        for _ in range(50):
            frame = sl.lift((rng.uniform(-1.9, 1.9), rng.uniform(-0.95, 0.95)),
                            box, tanh_fam)
            est = sl.EstimatorState(0.0, rng.uniform(-5, 5))
            assert sl.evaluate(cdyn, frame, ref, gains, est).u == 0.0

    def test_zero_at_equilibrium(self, cdyn, box, tanh_fam, ref, gains):
        frame = sl.lift((-1.9, 0.0), box, tanh_fam)
        est = sl.EstimatorState(3.7, -12.0)
        assert abs(sl.evaluate(cdyn, frame, ref, gains, est).u) < 1e-12

    def test_matches_hyperbolic_closed_form(self, cdyn, box, tanh_fam, ref, gains):
        # For the motor (g1 = g2 = 1, f2 = x2) with the tanh family and
        # x2_max = 1 the control law reduces to an explicit expression in
        # cosh/tanh of the scaled lifted state; evaluate that form through
        # an independent code path and compare.
        rng = np.random.default_rng(22)
        xb1, xb2 = box.bounds
        assert xb2 == 1.0
        for _ in range(200):
            x = (rng.uniform(-1.9, 1.9), rng.uniform(-0.95, 0.95))
            est = sl.EstimatorState(rng.uniform(-2, 2), rng.uniform(-10, 10))
            frame = sl.lift(x, box, tanh_fam)
            zn1, zn2 = frame.zn
            e1 = frame.z[0] - ref.z1d
            e2 = xb2 * math.cosh(zn1) ** 2 * math.tanh(zn2) + gains.k1 * e1
            closed = (-xb2 / math.cosh(zn2) ** 2 * est.p2_hat
                      * (math.cosh(zn2) ** 2 * math.tanh(zn2) * est.theta1_hat
                         + xb2 * math.cosh(zn1) ** 2 / gains.k1 * e2))
            u = sl.evaluate(cdyn, frame, ref, gains, est).u
            assert u == pytest.approx(closed, abs=1e-10 * max(1.0, abs(closed)))

    def test_non_finite_estimates_rejected(self, cdyn, t0_frame, ref, gains):
        with pytest.raises(NonFiniteInput):
            sl.evaluate(cdyn, t0_frame, ref, gains, sl.EstimatorState(math.nan, 0.0))


class TestAdaptationRates:
    def test_zero_speed_freezes_both(self, cdyn, box, tanh_fam, ref, gains):
        frame = sl.lift((0.7, 0.0), box, tanh_fam)
        est = sl.EstimatorState(2.0, -3.0)
        sig = sl.evaluate(cdyn, frame, ref, gains, est)
        assert (sig.dp2_hat, sig.dtheta1_hat) == (0.0, 0.0)

    def test_benchmark_start(self, cdyn, t0_frame, ref, gains):
        est = sl.EstimatorState(1.0, 0.0)
        sig = sl.evaluate(cdyn, t0_frame, ref, gains, est)
        assert sig.dp2_hat == pytest.approx(DP2_T0, rel=1e-14)
        assert sig.dtheta1_hat == pytest.approx(DTH1_T0, rel=1e-14)

    def test_sign_switch_flips_p2_rate_only(self, cdyn, t0_frame, ref, gains):
        est = sl.EstimatorState(1.0, 0.0)
        sig = sl.evaluate(cdyn, t0_frame, ref, gains, est, p2_law_sign=-1.0)
        assert sig.dp2_hat == pytest.approx(-DP2_T0, rel=1e-14)
        assert sig.dtheta1_hat == pytest.approx(DTH1_T0, rel=1e-14)

    def test_theta1_rate_matches_hyperbolic_form(self, cdyn, box, tanh_fam, ref, gains):
        # alpha tanh^2(zn2) cosh^2(zn2) for the motor with x2_max = 1.
        rng = np.random.default_rng(23)
        for _ in range(100):
            frame = sl.lift((rng.uniform(-1.9, 1.9), rng.uniform(-0.95, 0.95)),
                            box, tanh_fam)
            est = sl.EstimatorState(1.0, 0.0)
            dth1 = sl.evaluate(cdyn, frame, ref, gains, est).dtheta1_hat
            zn2 = frame.zn[1]
            closed = gains.alpha * math.tanh(zn2) ** 2 * math.cosh(zn2) ** 2
            assert dth1 == pytest.approx(closed, abs=1e-10 * max(1.0, abs(closed)))


class TestEvaluate:
    def test_bundles_all_signals(self, cdyn, t0_frame, ref, gains):
        sig = sl.evaluate(cdyn, t0_frame, ref, gains, sl.EstimatorState(1.0, 0.0))
        assert sig.e1 == pytest.approx(E1_T0, rel=1e-14)
        assert sig.e2 == pytest.approx(E2_T0, rel=1e-14)
        assert sig.u == pytest.approx(U_T0, rel=1e-14)
        assert sig.dp2_hat == pytest.approx(DP2_T0, rel=1e-14)
        assert sig.dtheta1_hat == pytest.approx(DTH1_T0, rel=1e-14)


class TestParameterFirewall:
    def test_runs_on_shape_only_dynamics(self, cdyn, t0_frame, ref, gains):
        # cdyn was built from the control view; if any law touched the true
        # parameters this evaluation would blow up on a missing attribute.
        assert not hasattr(cdyn.plant, "theta1")
        sig = sl.evaluate(cdyn, t0_frame, ref, gains, sl.EstimatorState(1.0, 0.0))
        assert math.isfinite(sig.u)

    def test_law_compiles_from_bare_shape_and_matches_run(self, bench_cfg, motor):
        # A PlantShape built by hand has nothing to leak: the law compiled
        # from it gives the same finite rates as run's hot path, and one
        # RK4 step with it reproduces run's first logged step.
        cfg = bench_cfg()
        shape = sl.PlantShape(g1=motor.g1, f2=motor.f2, g2=motor.g2,
                              theta2_sign=motor.theta2_sign)
        assert not hasattr(shape, "theta1") and not hasattr(shape, "theta2")
        law = sl.compile_law(shape, cfg.safe_set, cfg.family, cfg.gains,
                             cfg.reference, cfg.p2_law_sign)
        hot = cfg._law
        rng = np.random.default_rng(25)
        for _ in range(50):
            s = (rng.uniform(-1.9, 1.9), rng.uniform(-0.95, 0.95),
                 rng.uniform(-3, 3), rng.uniform(-12, 12))
            out = law(*s)
            assert all(math.isfinite(v) for v in out)
            assert out == hot(*s)
        s0 = (*cfg.x0, cfg.est0.p2_hat, cfg.est0.theta1_hat)
        traj = sl.run(bench_cfg(t_final=0.01))
        assert _rk4(law, cfg.plant, cfg.dt)(*s0, law(*s0)) == (
            traj.x1[1], traj.x2[1], traj.p2_hat[1], traj.theta1_hat[1])

    def test_law_reads_sign_from_shape(self, motor, box, tanh_fam, ref, gains):
        # sign(theta2) reaches the law only through the PlantShape: flipping
        # it flips the p2_hat rate and nothing else.
        plus = sl.compile_law(motor.control_view(), box, tanh_fam, gains, ref)
        minus = sl.compile_law(dataclasses.replace(motor.control_view(),
                                                   theta2_sign=-1.0),
                               box, tanh_fam, gains, ref)
        s = (0.0, 0.9, 1.0, 0.0)
        assert plus(*s)[3] == pytest.approx(DP2_T0, rel=1e-14)
        assert minus(*s)[3] == -plus(*s)[3]
        assert minus(*s)[:3] + minus(*s)[4:] == plus(*s)[:3] + plus(*s)[4:]

    def test_law_refuses_truth_backed_plant(self, motor, box, tanh_fam, ref, gains):
        with pytest.raises(ConfigError, match="PlantShape"):
            sl.compile_law(motor, box, tanh_fam, gains, ref)

    def test_source_never_names_true_parameters(self):
        # Token-level audit of the executable source (docstrings and
        # comments excluded): the control laws must never name the true
        # parameters, only the estimates and the exported sign.
        src = inspect.getsource(controller_module)
        names = {tok.string for tok in tokenize.generate_tokens(
            io.StringIO(src).readline) if tok.type == tokenize.NAME}
        assert "theta1" not in names
        assert "theta2" not in names
        assert "theta1_hat" in names
        assert "theta2_sign" in names


class TestCertaintyEquivalence:
    def test_lyapunov_rate_collapses_with_exact_estimates(
            self, motor, box, tanh_fam, ref, gains):
        # With estimates frozen at the truth the analytic rate identity
        # holds pointwise: e1 z1' + squash(zn2) z2' / x2_max equals
        # -(sqrt(k1) e1 - sqrt(k2) e2)^2.
        dyn = sl.LiftedDynamics(plant=motor, safe_set=box, family=tanh_fam)
        exact = sl.EstimatorState(p2_hat=1.0 / motor.theta2,
                                  theta1_hat=motor.theta1 / box.x2_max)
        rng = np.random.default_rng(24)
        for _ in range(200):
            frame = sl.lift((rng.uniform(-1.9, 1.9), rng.uniform(-0.95, 0.95)),
                            box, tanh_fam)
            sig = sl.evaluate(dyn, frame, ref, gains, exact)
            dz1, dz2 = dyn.rhs(frame.z, sig.u)
            vdot = sig.e1 * dz1 + frame.xn[1] * dz2 / box.x2_max
            assert vdot == pytest.approx(
                sl.vdot_analytic(sig.e1, sig.e2, gains),
                abs=1e-6 * max(1.0, abs(vdot)))

    def test_identity_holds_along_frozen_estimate_trajectory(
            self, motor, box, tanh_fam, ref, gains):
        # Integrate only the plant (estimates pinned at the truth) and check
        # the same identity at every step.
        dyn = sl.LiftedDynamics(plant=motor, safe_set=box, family=tanh_fam)
        exact = sl.EstimatorState(p2_hat=1.0 / motor.theta2,
                                  theta1_hat=motor.theta1 / box.x2_max)
        dt = 1e-3
        x = (0.0, 0.9)

        def xdot(xs):
            frame = sl.lift(xs, box, tanh_fam)
            u = sl.evaluate(dyn, frame, ref, gains, exact).u
            return sl.plant_rhs(motor, xs, u)

        for _ in range(500):
            frame = sl.lift(x, box, tanh_fam)
            sig = sl.evaluate(dyn, frame, ref, gains, exact)
            dz1, dz2 = dyn.rhs(frame.z, sig.u)
            vdot = sig.e1 * dz1 + frame.xn[1] * dz2 / box.x2_max
            assert abs(vdot - sl.vdot_analytic(sig.e1, sig.e2, gains)) < 1e-6
            k1 = xdot(x)
            k2 = xdot((x[0] + 0.5 * dt * k1[0], x[1] + 0.5 * dt * k1[1]))
            k3 = xdot((x[0] + 0.5 * dt * k2[0], x[1] + 0.5 * dt * k2[1]))
            k4 = xdot((x[0] + dt * k3[0], x[1] + dt * k3[1]))
            x = (x[0] + dt / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]),
                 x[1] + dt / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]))
