"""Lyapunov evaluation and trajectory certification."""

import dataclasses
import math

import numpy as np
import pytest

import safelift as sl
from safelift import controller, monitor, simulator
from safelift.errors import ConfigError

from conftest import NONLINEAR_PLANT

# Frozen benchmark values (30-digit oracle): V at t = 0 decomposes into
# e1^2/2 = 6.710841967496082, log cosh(atanh 0.9) = 0.830365603410825,
# and the drift-estimate penalty 9.99^2/2 = 49.90005.
V0_BENCH = 57.441257570906908
E1_T0 = 3.663561646129646427

# The pinned cert.txt keys, in order; every run reports all of them.
CERT_KEYS = [
    "completed", "failure", "v0", "safe_invariance", "first_violation_time",
    "lyapunov_monotone", "worst_v_increment", "lyap_increment_allowance",
    "vdot_identity_error", "vdot_tol", "estimates_bounded", "sup_p2_hat",
    "sup_theta1_hat", "estimate_allowance", "tracking_error_final",
    "tracking_tol", "final_e1", "final_e2", "final_u", "final_z2",
    "final_residual_tol", "equilibrium_residual", "all_pass",
]


def _report_items(cert):
    return [tuple(line.split(" = ", 1)) for line in cert.to_report().splitlines()]


@pytest.fixture(scope="module")
def tdyn(motor, box, tanh_fam):
    return sl.LiftedDynamics(plant=motor, safe_set=box, family=tanh_fam)


class TestLyapunov:
    def test_zero_at_equilibrium_with_exact_estimates(self, tdyn, motor, box,
                                                      tanh_fam, gains, ref):
        frame = sl.lift((-1.9, 0.0), box, tanh_fam)
        exact = sl.EstimatorState(p2_hat=1.0 / motor.theta2,
                                  theta1_hat=motor.theta1 / box.x2_max)
        assert sl.lyapunov(tdyn, frame, ref, gains, exact) < 1e-24

    def test_benchmark_start_value(self, tdyn, box, tanh_fam, gains, ref):
        frame = sl.lift((0.0, 0.9), box, tanh_fam)
        est = sl.EstimatorState(1.0, 0.0)
        v = sl.lyapunov(tdyn, frame, ref, gains, est)
        assert v == pytest.approx(V0_BENCH, rel=1e-14)

    def test_positive_off_equilibrium(self, tdyn, motor, box, tanh_fam, gains, ref):
        exact = sl.EstimatorState(1.0 / motor.theta2, motor.theta1 / box.x2_max)
        cases = [
            ((-1.5, 0.0), exact),                          # e1 != 0
            ((-1.9, 0.4), exact),                          # zn2 != 0
            ((-1.9, 0.0), sl.EstimatorState(1.5, exact.theta1_hat)),
            ((-1.9, 0.0), sl.EstimatorState(exact.p2_hat, 0.0)),
        ]
        for x, est in cases:
            frame = sl.lift(x, box, tanh_fam)
            assert sl.lyapunov(tdyn, frame, ref, gains, est) > 1e-8

    def test_gamma_rescales_only_gain_penalty(self, tdyn, motor, box, tanh_fam, ref):
        frame = sl.lift((-1.9, 0.0), box, tanh_fam)
        est = sl.EstimatorState(1.0 / motor.theta2 + 0.3,
                                motor.theta1 / box.x2_max)
        g1 = sl.ControllerGains(1.0, 1.0, 1.0)
        g2 = sl.ControllerGains(1.0, 2.0, 1.0)
        v1 = sl.lyapunov(tdyn, frame, ref, g1, est)
        v2 = sl.lyapunov(tdyn, frame, ref, g2, est)
        assert v2 == pytest.approx(v1 / 2.0, rel=1e-12)

    def test_rejects_shape_only_dynamics(self, motor, box, tanh_fam, gains, ref):
        shape_dyn = sl.LiftedDynamics(plant=motor.control_view(),
                                      safe_set=box, family=tanh_fam)
        frame = sl.lift((0.0, 0.0), box, tanh_fam)
        with pytest.raises(ConfigError, match="truth-backed"):
            sl.lyapunov(shape_dyn, frame, ref, gains, sl.EstimatorState(1.0, 0.0))


class TestVdotAnalytic:
    def test_zero_on_matched_errors(self, gains):
        for e1 in (-2.0, 0.0, 3.5):
            assert sl.vdot_analytic(e1, gains.k1 * e1, gains) == 0.0

    def test_unit_case(self, gains):
        assert sl.vdot_analytic(1.0, 0.0, gains) == -1.0

    def test_scaled_case(self):
        g = sl.ControllerGains(k1=4.0, gamma=1.0, alpha=1.0)
        assert sl.vdot_analytic(0.0, 2.0, g) == pytest.approx(-1.0, rel=1e-15)

    def test_never_positive(self):
        rng = np.random.default_rng(41)
        for _ in range(100_000):
            k1 = rng.uniform(1e-3, 1e3)
            g = sl.ControllerGains(k1=k1, gamma=1.0, alpha=1.0)
            assert sl.vdot_analytic(rng.normal(0, 10), rng.normal(0, 10), g) <= 0.0


class TestCertThresholds:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1e-6])
    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(sl.CertThresholds)])
    def test_refuses_nonfinite_or_nonpositive(self, name, bad):
        with pytest.raises(ConfigError, match=f"{name} must be positive and finite"):
            sl.CertThresholds(**{name: bad})


class TestCertify:
    def test_certified_run_passes_everything(self, run_plus, bench_cfg):
        cert = sl.certify(run_plus, bench_cfg())
        assert cert.completed
        assert cert.safe_invariance
        assert cert.first_violation_time is None
        assert cert.lyapunov_monotone
        assert cert.worst_v_increment < 1e-6 * cert.v0
        assert cert.estimates_bounded
        assert cert.vdot_identity_error < 1e-3
        assert cert.all_pass

    def test_tracking_variant_fails_monotonicity_but_tracks(self, run_minus,
                                                             bench_cfg):
        cert = sl.certify(run_minus, bench_cfg(p2_law_sign=-1.0))
        assert cert.completed
        assert cert.safe_invariance
        assert cert.estimates_bounded
        assert not cert.lyapunov_monotone
        assert cert.worst_v_increment > 1e-4
        assert cert.tracking_error_final < 1e-6
        assert cert.final_e1 == pytest.approx(0.0, abs=1e-8)
        assert cert.final_e2 == pytest.approx(0.0, abs=1e-8)
        assert abs(cert.final_u) < 1e-8
        assert cert.equilibrium_residual < 1e-8
        assert not cert.all_pass

    def test_truncated_run_fails_safety_with_timestamp(self, bench_cfg):
        cfg = bench_cfg(est0=sl.EstimatorState(1e150, 0.0), t_final=1.0)
        traj = sl.run(cfg)
        cert = sl.certify(traj, cfg)
        assert not cert.completed
        assert not cert.safe_invariance
        assert cert.first_violation_time == 0.0
        assert "DomainViolation" in cert.failure
        assert not cert.all_pass
        # One logged sample: no increment of V and no rate to measure.
        assert len(traj) == 1
        assert not cert.lyapunov_monotone
        assert math.isnan(cert.worst_v_increment)
        assert math.isnan(cert.vdot_identity_error)

    def test_infinite_estimate_allowance_bounds_nothing(self):
        # p2_hat = 1e200 overflows V(0), and with it the allowance.
        cfg = dataclasses.replace(sl.load_config("configs/dc_motor_fig2.cfg").sim,
                                  est0=sl.EstimatorState(1e200, 0.0))
        cert = sl.certify(sl.run(cfg), cfg)
        assert math.isinf(cert.v0) and math.isinf(cert.estimate_allowance)
        assert cert.sup_p2_hat == 1e200
        assert not cert.estimates_bounded
        assert "\nestimates_bounded = FAIL\n" in cert.to_report()

    def test_infinite_increment_allowance_bounds_nothing(self, run_plus, bench_cfg):
        # An infinite V(0) followed by finite values: every increment is
        # finite or -inf, yet the allowance they are held to is inf.
        v = run_plus.v.copy()
        v[0] = math.inf
        cert = sl.certify(dataclasses.replace(run_plus, v=v), bench_cfg())
        assert math.isinf(cert.lyap_increment_allowance)
        assert cert.worst_v_increment < 1e-6
        assert not cert.lyapunov_monotone and not cert.all_pass

    def test_first_sample_outside_the_box_is_timestamped(self, run_plus, bench_cfg):
        mask = np.ones(len(run_plus), dtype=bool)
        mask[1234] = False
        cert = sl.certify(dataclasses.replace(run_plus, in_safe_set=mask), bench_cfg())
        assert not cert.safe_invariance
        assert cert.first_violation_time == run_plus.t[1234]

    def test_empty_trajectory_certificate(self, bench_cfg):
        cfg = bench_cfg(est0=sl.EstimatorState(1e308, 0.0), t_final=1.0)
        cert = sl.certify(sl.run(cfg), cfg)
        assert not cert.all_pass
        assert math.isnan(cert.v0)

    @pytest.mark.parametrize("p2_hat0", [1.0, 1e150, 1e308],
                             ids=["completed", "aborted", "empty"])
    def test_report_keys_are_pinned(self, bench_cfg, p2_hat0):
        cfg = bench_cfg(est0=sl.EstimatorState(p2_hat0, 0.0), t_final=1.0)
        items = _report_items(sl.certify(sl.run(cfg), cfg))
        assert [key for key, _ in items] == CERT_KEYS

    def test_report_keys_are_the_certificate_fields(self):
        # to_report names no key of its own between completed and all_pass.
        keys = [key for key, _ in _report_items(sl.Certificate(failure=None))]
        assert keys == ["completed", *(f.name for f in dataclasses.fields(sl.Certificate)),
                        "all_pass"]

    def test_empty_run_reports_unmeasured_values(self, bench_cfg):
        # Nothing was logged: every measured value reads nan or FAIL; the
        # thresholds, and the allowance floor rel * 1, are still stated.
        cfg = bench_cfg(est0=sl.EstimatorState(1e308, 0.0), t_final=1.0)
        report = dict(_report_items(sl.certify(sl.run(cfg), cfg)))
        assert report.pop("failure").startswith("NonFiniteInput at t=0: ")
        assert report == {
            "completed": "False", "v0": "nan", "safe_invariance": "FAIL",
            "first_violation_time": "0", "lyapunov_monotone": "FAIL",
            "worst_v_increment": "nan", "lyap_increment_allowance": "1e-06",
            "vdot_identity_error": "nan", "vdot_tol": "0.001",
            "estimates_bounded": "FAIL", "sup_p2_hat": "nan",
            "sup_theta1_hat": "nan", "estimate_allowance": "nan",
            "tracking_error_final": "nan", "tracking_tol": "0.02",
            "final_e1": "nan", "final_e2": "nan", "final_u": "nan",
            "final_z2": "nan", "final_residual_tol": "0.01",
            "equilibrium_residual": "nan", "all_pass": "FAIL",
        }

    def test_unmeasured_defaults_read_nan_none_or_fail(self):
        cert = sl.Certificate(failure="stopped")
        measured = [(key, value) for key, value in _report_items(cert)
                    if key not in ("completed", "failure") and not key.endswith("_tol")]
        assert {value for _, value in measured} == {"nan", "none", "FAIL"}
        assert dict(measured)["first_violation_time"] == "none"

    def test_report_is_flat_key_value_text(self, run_plus, bench_cfg, tmp_path):
        cert = sl.certify(run_plus, bench_cfg())
        text = cert.to_report()
        for key in ("safe_invariance", "lyapunov_monotone", "worst_v_increment",
                    "vdot_identity_error", "estimates_bounded",
                    "tracking_error_final", "equilibrium_residual", "all_pass"):
            assert any(line.startswith(key + " = ") for line in text.splitlines())
        path = tmp_path / "cert.txt"
        path.write_text(cert.to_report())
        assert path.read_text() == text

    def test_custom_thresholds_respected(self, run_plus, bench_cfg):
        tight = sl.CertThresholds(lyap_increment_rel=1e-20)
        cert = sl.certify(run_plus, bench_cfg(), tight)
        assert not cert.lyapunov_monotone

    def test_certify_reuses_the_config_law(self, bench_cfg, monkeypatch):
        # run compiles the config's law once; certify's equilibrium
        # residual evaluates that same law rather than compiling another.
        calls = []
        original = sl.compile_law

        def counting_compile_law(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(simulator, "compile_law", counting_compile_law)
        monkeypatch.setattr(controller, "compile_law", counting_compile_law)
        cfg = bench_cfg(t_final=0.05)
        sl.certify(sl.run(cfg), cfg)
        assert len(calls) == 1

    def test_adjudication_compiles_each_signed_law_once(self, bench_cfg, monkeypatch):
        # Each sign's config is built once, so run and certify share its law.
        calls = []
        original = sl.compile_law

        def counting_compile_law(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(simulator, "compile_law", counting_compile_law)
        monkeypatch.setattr(controller, "compile_law", counting_compile_law)
        sl.adjudicate_p2_sign(bench_cfg(t_final=0.05))
        assert [args[-1] for args in calls] == [1.0, -1.0]


def _oracle_residual(traj, cfg):
    """The equilibrium residual composed from the public oracle API:
    evaluate for the law's signals, LiftedDynamics.rhs for the z rates."""
    dyn = cfg.dynamics()
    frame = sl.lift((traj.x1[-1], traj.x2[-1]), cfg.safe_set, cfg.family)
    est = sl.EstimatorState(float(traj.p2_hat[-1]), float(traj.theta1_hat[-1]))
    sig = sl.evaluate(dyn, frame, cfg.reference, cfg.gains, est, cfg.p2_law_sign)
    dz1, dz2 = dyn.rhs(frame.z, sig.u)
    return max(abs(dz1), abs(dz2), abs(sig.dp2_hat), abs(sig.dtheta1_hat))


def _wide_pair_cfg():
    # Speed box 2 and a (tanh, logit) family pair, stopped mid-transient
    # under the -1 law so the residual is far from zero.
    motor = sl.dc_motor()
    box = sl.SafeSet(2.0, 2.0)
    fam = (sl.tanh_family(), sl.logit_family())
    return sl.SimConfig(plant=motor, safe_set=box,
                        gains=sl.ControllerGains(1.0, 1.0, 1.0),
                        x1d=-1.9,
                        x0=(0.0, 0.9), est0=sl.EstimatorState(1.0, 0.0),
                        family=fam, dt=1e-3, t_final=5.0, p2_law_sign=-1.0)


def _nonlinear_cfg(p2_law_sign):
    # The paper-class plant with no unit shape, mid-transient after 5 s.
    return sl.SimConfig(plant=NONLINEAR_PLANT, safe_set=sl.SafeSet(2.0, 1.0),
                        gains=sl.ControllerGains(1.0, 1.0, 1.0), x1d=-1.5,
                        x0=(0.0, 0.5), est0=sl.EstimatorState(1.0, 0.0),
                        family=sl.tanh_family(), t_final=5.0, p2_law_sign=p2_law_sign)


@pytest.mark.parametrize("make_cfg", [
    lambda: sl.load_config("configs/dc_motor_fig2.cfg").sim,
    lambda: sl.load_config("configs/dc_motor_certified.cfg").sim,
    _wide_pair_cfg,
    lambda: _nonlinear_cfg(1.0),
    lambda: _nonlinear_cfg(-1.0),
], ids=["fig2", "certified", "x2max2_tanh_logit", "nonlinear_plus", "nonlinear_minus"])
def test_equilibrium_residual_matches_oracle_composition(make_cfg):
    # certify carries the config's compiled law into z (lifted_stage); the
    # oracle builds the same rates from the plant's shape functions. Both
    # bundled configs agree exactly; the family-pair config to 7e-16
    # relative (measured), so 1e-12 leaves room for libm differences.
    cfg = make_cfg()
    traj = sl.run(cfg)
    got = sl.certify(traj, cfg).equilibrium_residual
    assert got > 0.0
    assert got == pytest.approx(_oracle_residual(traj, cfg), rel=1e-12, abs=0)


class TestGeneralBoxAndFamily:
    def test_identity_holds_for_non_unit_speed_bound(self, motor):
        # Wider speed box exercises the scaling of the drift-estimate target.
        box = sl.SafeSet(2.0, 2.5)
        fam = sl.tanh_family()
        gains = sl.ControllerGains(1.0, 1.0, 1.0)
        cfg = sl.SimConfig(plant=motor, safe_set=box, gains=gains,
                           x1d=-1.5,
                           x0=(0.0, 0.9), est0=sl.EstimatorState(1.0, 0.0),
                           family=fam, dt=1e-4, t_final=5.0)
        traj = sl.run(cfg)
        cert = sl.certify(traj, cfg)
        assert cert.completed and cert.safe_invariance
        assert cert.lyapunov_monotone
        assert cert.vdot_identity_error < 1e-3

    def test_logit_family_run_is_certified(self, motor):
        box = sl.SafeSet(2.0, 1.0)
        fam = sl.logit_family()
        gains = sl.ControllerGains(1.0, 1.0, 1.0)
        cfg = sl.SimConfig(plant=motor, safe_set=box, gains=gains,
                           x1d=-1.9,
                           x0=(0.0, 0.9), est0=sl.EstimatorState(1.0, 0.0),
                           family=fam, dt=1e-3, t_final=5.0)
        cert = sl.certify(sl.run(cfg), cfg)
        assert cert.all_pass

    def test_double_integrator_run_is_certified(self):
        plant = sl.double_integrator(-2.0)
        box = sl.SafeSet(1.5, 2.5)
        fam = sl.tanh_family()
        gains = sl.ControllerGains(1.0, 1.0, 1.0)
        cfg = sl.SimConfig(plant=plant, safe_set=box, gains=gains,
                           x1d=1.0,
                           x0=(-0.5, 0.3), est0=sl.EstimatorState(0.5, 0.0),
                           family=fam, dt=1e-3, t_final=10.0)
        cert = sl.certify(sl.run(cfg), cfg)
        assert cert.completed and cert.safe_invariance
        assert cert.lyapunov_monotone


class TestSignAdjudication:
    def test_certified_law_wins_on_benchmark(self, bench_cfg):
        adj = sl.adjudicate_p2_sign(bench_cfg(t_final=10.0))
        assert adj.plus.lyapunov_monotone
        assert not adj.minus.lyapunov_monotone
        assert adj.recommended_sign == 1.0
        report = adj.to_report()
        assert "p2_law_sign=+1" in report and "p2_law_sign=-1" in report
        assert "tracking_error_final" in report

    def test_minus_law_wins_when_only_it_is_monotone(self, bench_cfg, monkeypatch):
        def certify_minus_monotone(traj, cfg, thresholds=None):
            return sl.Certificate(failure=None, lyapunov_monotone=cfg.p2_law_sign < 0)

        monkeypatch.setattr(monitor, "certify", certify_minus_monotone)
        assert sl.adjudicate_p2_sign(bench_cfg(t_final=0.05)).recommended_sign == -1.0

    def test_default_sign_matches_recommendation(self, bench_cfg):
        assert bench_cfg().p2_law_sign == 1.0
