"""Plant descriptors, example plants, and the assumption checker."""

import dataclasses
import math

import pytest

import safelift as sl
from safelift.errors import InvalidParams, NonFiniteInput


class TestDcMotor:
    def test_default_parameters(self, motor):
        # theta1 = -(b R - Kb Kt) / (J R), theta2 = Kt / (J R)
        assert motor.theta1 == pytest.approx(-9.99, rel=1e-14)
        assert motor.theta2 == pytest.approx(1.0, rel=1e-14)
        assert motor.theta2_sign == 1.0

    def test_parameters_match_closed_form(self):
        p = sl.DcMotorParams(J=0.002, b=0.35, R=2.4, Kt=0.05, Kb=0.03)
        th1 = -(p.b * p.R - p.Kb * p.Kt) / (p.J * p.R)
        th2 = p.Kt / (p.J * p.R)
        plant = sl.dc_motor(p)
        assert plant.theta1 == pytest.approx(th1, rel=1e-14)
        assert plant.theta2 == pytest.approx(th2, rel=1e-14)
        assert plant.theta2_sign == 1.0

    def test_shape_functions(self, motor):
        assert motor.g1(0.37) == 1.0
        assert motor.g2(0.1, -0.5) == 1.0
        for x1 in (-1.0, 0.0, 2.0):
            assert motor.f2(x1, 0.0) == 0.0
        assert motor.f2(0.0, 0.25) == 0.25

    @pytest.mark.parametrize("bad", [dict(J=0.0), dict(b=-0.1), dict(R=math.nan),
                                     dict(Kt=-1.0), dict(Kb=0.0)])
    def test_rejects_nonpositive_constants(self, bad):
        with pytest.raises(InvalidParams):
            sl.DcMotorParams(**bad)


class TestDoubleIntegrator:
    def test_pure_kinematics(self):
        plant = sl.double_integrator(1.0)
        assert sl.plant_rhs(plant, (0.0, 0.5), 0.0) == (0.5, 0.0)

    def test_input_gain(self):
        plant = sl.double_integrator(-2.0)
        dx1, dx2 = sl.plant_rhs(plant, (0.0, 0.0), 1.0)
        assert dx2 == -2.0
        assert plant.theta2_sign == -1.0

    def test_zero_gain_rejected(self):
        with pytest.raises(InvalidParams):
            sl.double_integrator(0.0)


class TestPlantRhs:
    def test_drift_vanishes_at_zero_speed(self, motor):
        assert sl.plant_rhs(motor, (1.234, 0.0), 0.0) == (0.0, 0.0)

    def test_motor_drift_value(self, motor):
        dx1, dx2 = sl.plant_rhs(motor, (0.0, 1.0), 0.0)
        assert dx1 == 1.0
        assert dx2 == pytest.approx(-9.99, rel=1e-14)

    def test_input_only_channel(self):
        plant = sl.PlantDef(g1=lambda x1: 2.0, f2=lambda x1, x2: x2,
                            g2=lambda x1, x2: 1.0 + x1 * x1,
                            theta1=3.0, theta2=-0.5)
        u0 = 0.7
        dx1, dx2 = sl.plant_rhs(plant, (2.0, 0.0), u0)
        assert dx2 == pytest.approx((1.0 + 4.0) * u0 * -0.5, rel=1e-15)

    def test_non_finite_inputs(self, motor):
        with pytest.raises(NonFiniteInput):
            sl.plant_rhs(motor, (math.nan, 0.0), 0.0)
        with pytest.raises(NonFiniteInput):
            sl.plant_rhs(motor, (0.0, 0.0), math.inf)


class TestPlantDef:
    def test_theta2_nonzero_enforced(self):
        with pytest.raises(InvalidParams):
            sl.PlantDef(g1=lambda x: 1.0, f2=lambda a, b: b,
                        g2=lambda a, b: 1.0, theta1=0.0, theta2=0.0)

    def test_control_view_hides_parameters(self, motor):
        view = motor.control_view()
        assert not hasattr(view, "theta1")
        assert not hasattr(view, "theta2")
        assert view.theta2_sign == motor.theta2_sign
        assert view.g1 is motor.g1
        assert view.f2 is motor.f2
        assert view.g2 is motor.g2

    def test_control_view_built_once_per_plant(self, motor):
        assert motor.control_view() is motor.control_view()
        g1 = lambda x: 2.0  # noqa: E731
        other = dataclasses.replace(motor, g1=g1)
        assert other.control_view().g1 is g1
        assert motor.control_view().g1 is motor.g1


class TestPlantShape:
    @pytest.mark.parametrize("sign", [0.5, 0.0, math.nan])
    def test_sign_must_be_unit(self, motor, sign):
        with pytest.raises(InvalidParams, match="theta2_sign"):
            sl.PlantShape(g1=motor.g1, f2=motor.f2, g2=motor.g2, theta2_sign=sign)


class TestCheckAssumptions:
    def test_motor_passes(self, motor, box):
        report = sl.check_assumptions(motor, box, grid_n=21)
        assert report.passed
        assert report.violations == []
        # f2 = x2 takes both signs, no note expected.
        assert report.notes == []

    def test_vanishing_input_gain_caught(self, box):
        plant = sl.PlantDef(g1=lambda x1: 1.0, f2=lambda x1, x2: x2,
                            g2=lambda x1, x2: x1, theta1=1.0, theta2=1.0)
        report = sl.check_assumptions(plant, box, grid_n=21)
        assert not report.passed
        points = [v.point for v in report.violations if v.check == "g2_nonzero"]
        assert any(p[0] == 0.0 for p in points)

    def test_vanishing_g1_caught(self, box):
        plant = sl.PlantDef(g1=lambda x1: x1, f2=lambda x1, x2: x2,
                            g2=lambda x1, x2: 1.0, theta1=1.0, theta2=1.0)
        report = sl.check_assumptions(plant, box, grid_n=21)
        assert any(v.check == "g1_nonzero" for v in report.violations)

    def test_drift_not_vanishing_at_axis_caught(self, box):
        plant = sl.PlantDef(g1=lambda x1: 1.0, f2=lambda x1, x2: x2 + 0.1,
                            g2=lambda x1, x2: 1.0, theta1=1.0, theta2=1.0)
        report = sl.check_assumptions(plant, box, grid_n=5)
        assert any(v.check == "f2_zero_at_x2_zero" for v in report.violations)

    def test_sign_definite_drift_noted(self, box):
        plant = sl.PlantDef(g1=lambda x1: 1.0, f2=lambda x1, x2: x2 * x2,
                            g2=lambda x1, x2: 1.0, theta1=1.0, theta2=1.0)
        report = sl.check_assumptions(plant, box, grid_n=11)
        # The zero-at-axis structure holds, but the grid flags f2 >= 0.
        assert not any(v.check == "f2_zero_at_x2_zero" for v in report.violations)
        assert any("sign-definite" in note for note in report.notes)

    def test_grid_size_validated(self, motor, box):
        with pytest.raises(InvalidParams):
            sl.check_assumptions(motor, box, grid_n=1)

    def test_works_on_control_view(self, motor, box):
        report = sl.check_assumptions(motor.control_view(), box, grid_n=7)
        assert report.passed

    def test_summary_text(self, motor, box):
        text = sl.check_assumptions(motor, box, grid_n=5).summary()
        assert "pass" in text
