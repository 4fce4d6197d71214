"""Lifted vector fields: values, structural zeros, and the pushforward oracle."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

import safelift as sl
from safelift.errors import ConfigError, SingularityDetected, StepRejected

REPO = Path(__file__).resolve().parent.parent

ATANH_HALF = 0.549306144334054846
ATANH_09 = 1.472219489583220230
# Values of the lifted fields for the benchmark motor at speed 0.9:
# drift regressor 0.9 / 0.19, input gain 1 / 0.19.
REGRESSOR_09 = 4.736842105263158
IGAIN_09 = 5.263157894736842


@pytest.fixture(scope="module")
def dyn(motor, box, tanh_fam):
    return sl.LiftedDynamics(plant=motor, safe_set=box, family=tanh_fam)


def virtual_gain(dyn, zn1):
    """The virtual gain depends on zn1 alone; read it off fields at z2 = 0."""
    return dyn.fields((dyn.safe_set.x1_max * zn1, 0.0))[0]


class TestVirtualGain:
    def test_center_value(self, dyn):
        assert virtual_gain(dyn, 0.0) == 1.0

    def test_reference_value(self, dyn):
        assert virtual_gain(dyn, ATANH_HALF) == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_positive_for_positive_g1(self, dyn):
        rng = np.random.default_rng(11)
        for zn1 in rng.uniform(-6.0, 6.0, size=300):
            assert virtual_gain(dyn, zn1) > 0.0

    def test_singularity_raised(self, box, tanh_fam):
        plant = sl.PlantDef(g1=lambda x1: x1, f2=lambda x1, x2: x2,
                            g2=lambda x1, x2: 1.0, theta1=1.0, theta2=1.0)
        bad = sl.LiftedDynamics(plant=plant, safe_set=box, family=tanh_fam)
        with pytest.raises(SingularityDetected):
            virtual_gain(bad, 0.0)


class TestStructuralZeros:
    def test_z1_rate_vanishes_at_zero_z2(self, dyn):
        rng = np.random.default_rng(12)
        for z1 in rng.uniform(-8.0, 8.0, size=500):
            assert dyn.rhs((z1, 0.0), 0.0)[0] == 0.0

    def test_drift_regressor_vanishes_at_zero_z2(self, dyn):
        rng = np.random.default_rng(13)
        for z1 in rng.uniform(-8.0, 8.0, size=500):
            assert dyn.fields((z1, 0.0))[1] == 0.0

    def test_gains_nonzero_on_interior(self, dyn):
        rng = np.random.default_rng(14)
        for _ in range(500):
            z1, z2 = rng.uniform(-8.0, 8.0, size=2)
            vgain, _, igain = dyn.fields((z1, z2))
            assert igain != 0.0
            assert vgain != 0.0


class TestFieldValues:
    def test_z1_rate_at_benchmark_speed(self, dyn):
        assert dyn.rhs((0.0, ATANH_09), 0.0)[0] == pytest.approx(0.9, rel=1e-13)

    def test_z1_rate_sign_tracks_z2(self, dyn):
        assert dyn.rhs((0.3, -1.0), 0.0)[0] < 0.0
        assert dyn.rhs((0.3, 1.0), 0.0)[0] > 0.0

    def test_drift_regressor_values(self, dyn):
        assert dyn.fields((0.0, ATANH_09))[1] == pytest.approx(
            REGRESSOR_09, rel=1e-12)
        assert math.copysign(1.0, dyn.fields((0.5, -2.0))[1]) == -1.0

    def test_input_gain_values(self, dyn):
        assert dyn.fields((1.7, 0.0))[2] == 1.0
        assert dyn.fields((0.0, ATANH_09))[2] == pytest.approx(IGAIN_09, rel=1e-12)

    def test_unsquash_deriv_after_squash_is_cosh_squared(self, tanh_fam):
        # The tanh-family chain rule factor in the lifted fields equals
        # cosh^2 of the lifted coordinate; both forms must agree.
        for zn in np.linspace(-5.0, 5.0, 41):
            chained = tanh_fam.unsquash_deriv(tanh_fam.squash(zn))
            assert chained == pytest.approx(math.cosh(zn) ** 2, rel=1e-12)


class TestLiftedRhs:
    def test_equilibrium(self, dyn, box, tanh_fam):
        ref = sl.Reference.for_target(-1.9, box, tanh_fam)
        dz1, dz2 = dyn.rhs((ref.z1d, 0.0), 0.0)
        assert dz1 == 0.0
        assert abs(dz2) <= 1e-14

    def test_composed_value(self, dyn):
        dz1, dz2 = dyn.rhs((0.0, ATANH_09), 0.0)
        assert dz1 == pytest.approx(0.9, rel=1e-13)
        assert dz2 == pytest.approx(REGRESSOR_09 * -9.99, rel=1e-12)

    def test_needs_truth_backed_plant(self, motor, box, tanh_fam):
        shape_dyn = sl.LiftedDynamics(plant=motor.control_view(),
                                      safe_set=box, family=tanh_fam)
        with pytest.raises(ConfigError):
            shape_dyn.rhs((0.0, 0.0), 0.0)

    def test_singular_input_gain_detected(self, box, tanh_fam):
        plant = sl.PlantDef(g1=lambda x1: 1.0, f2=lambda x1, x2: x2,
                            g2=lambda x1, x2: x1, theta1=1.0, theta2=1.0)
        bad = sl.LiftedDynamics(plant=plant, safe_set=box, family=tanh_fam)
        with pytest.raises(SingularityDetected):
            bad.rhs((0.0, 0.5), 0.0)

    def test_non_finite_drift_regressor_detected(self, box, tanh_fam):
        plant = sl.PlantDef(g1=lambda x1: 1.0, f2=lambda x1, x2: math.inf,
                            g2=lambda x1, x2: 1.0, theta1=1.0, theta2=1.0)
        bad = sl.LiftedDynamics(plant=plant, safe_set=box, family=tanh_fam)
        with pytest.raises(SingularityDetected, match="lifted drift regressor inf"):
            bad.rhs((0.0, 0.5), 0.0)


class TestPushforwardOracle:
    def test_lifted_rhs_matches_finite_difference_pushforward(
            self, dyn, motor, box, tanh_fam):
        # Independent oracle: move the raw state along the plant flow for an
        # instant and difference the lifted image.
        rng = np.random.default_rng(15)
        h = 1e-6
        for _ in range(100):
            x = (rng.uniform(-1.8, 1.8), rng.uniform(-0.9, 0.9))
            u = rng.uniform(-3.0, 3.0)
            xdot = sl.plant_rhs(motor, x, u)
            fwd = sl.lift((x[0] + h * xdot[0], x[1] + h * xdot[1]),
                          box, tanh_fam).z
            bwd = sl.lift((x[0] - h * xdot[0], x[1] - h * xdot[1]),
                          box, tanh_fam).z
            fd = ((fwd[0] - bwd[0]) / (2.0 * h), (fwd[1] - bwd[1]) / (2.0 * h))
            z = sl.lift(x, box, tanh_fam).z
            dz = dyn.rhs(z, u)
            assert dz[0] == pytest.approx(fd[0], abs=1e-6 * max(1.0, abs(dz[0])))
            assert dz[1] == pytest.approx(fd[1], abs=1e-6 * max(1.0, abs(dz[1])))


class TestRunLifted:
    def test_short_closed_loop_matches_x_route(self, bench_cfg):
        cfg = bench_cfg(t_final=2.0)
        zrun = sl.run_lifted(cfg)
        xrun = sl.run(cfg)
        assert len(zrun.t) == len(xrun.t)
        dev = max(float(np.max(np.abs(zrun.x1 - xrun.x1))),
                  float(np.max(np.abs(zrun.x2 - xrun.x2))))
        assert dev < 1e-6
        # Estimates follow the same adaptation in either coordinate route.
        assert zrun.p2_hat[-1] == pytest.approx(xrun.p2_hat[-1], abs=1e-8)
        assert zrun.theta1_hat[-1] == pytest.approx(xrun.theta1_hat[-1], abs=1e-8)

    def test_divergence_past_the_squash_is_rejected(self):
        # From x2(0) = 0.999999 under the -1 law, z2 runs off to ~1e66 while
        # tanh rounds it back onto the box edge. A stage that unlifts onto the
        # edge sits inside the guard band, so the run must stop, not log
        # x2 = x2_max.
        ec = sl.load_config(REPO / "configs" / "dc_motor_fig2.cfg")
        cfg = dataclasses.replace(ec.sim, x0=(0.0, 0.999999), p2_law_sign=-1.0,
                                  t_final=10.0)
        failure = sl.run_lifted(cfg).failure
        assert isinstance(failure, StepRejected)
        assert failure.time == 0.0
        assert isinstance(failure.cause, sl.DomainViolation)
