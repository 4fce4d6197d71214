"""Config-file parsing and validation."""

import textwrap

import pytest

import safelift as sl
from safelift.config import apply_overrides, sweep_rows
from safelift.errors import ConfigError, InvalidParams

MINIMAL = """
[safe_set]
x1_max = 2.0
x2_max = 1.0

[reference]
x1d = -1.9

[initial]
x1 = 0.0
x2 = 0.9
"""


def write_cfg(tmp_path, body, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body))
    return path


class TestLoadConfig:
    def test_minimal_defaults(self, tmp_path):
        ec = sl.load_config(write_cfg(tmp_path, MINIMAL))
        sim = ec.sim
        assert sim.plant.name == "dc_motor"
        assert sim.plant.theta1 == pytest.approx(-9.99)
        assert sim.safe_set.bounds == (2.0, 1.0)
        assert sim.gains.k1 == 1.0
        assert sim.reference.x1d == -1.9
        assert sim.est0 == sl.EstimatorState(1.0, 0.0)
        assert sim.dt == 1e-3
        assert sim.t_final == 30.0
        assert sim.p2_law_sign == 1.0
        assert ec.sweep == {}

    def test_full_file(self, tmp_path):
        body = MINIMAL + textwrap.dedent("""
        [plant]
        type = double_integrator
        theta = -2.0

        [lifting]
        family = logit

        [controller]
        k1 = 0.5
        gamma = 1.5
        alpha = 2.0
        p2_law_sign = -1

        [simulation]
        dt = 0.0005
        t_final = 10
        log_stride = 5

        [output]
        directory = results/run1

        [certificate]
        tracking_tol = 0.05
        """)
        ec = sl.load_config(write_cfg(tmp_path, body))
        assert ec.sim.plant.name == "double_integrator"
        assert ec.sim.plant.theta2 == -2.0
        assert ec.sim.plant.control_view().theta2_sign == -1.0
        assert sl.family_pair(ec.sim.family)[0].name == "logit"
        assert ec.sim.gains.k1 == 0.5
        assert ec.sim.p2_law_sign == -1.0
        assert ec.sim.log_stride == 5
        assert str(ec.out_dir) == "results/run1"
        assert ec.thresholds.tracking_tol == 0.05
        # Untouched thresholds keep their defaults.
        assert ec.thresholds.vdot_tol == 1e-3

    def test_per_state_families(self, tmp_path):
        body = MINIMAL + textwrap.dedent("""
        [lifting]
        family = tanh
        family2 = logit
        """)
        ec = sl.load_config(write_cfg(tmp_path, body))
        fams = sl.family_pair(ec.sim.family)
        assert (fams[0].name, fams[1].name) == ("tanh", "logit")

    def test_inline_comments_allowed(self, tmp_path):
        body = MINIMAL.replace("x1d = -1.9", "x1d = -1.9  ; near the boundary")
        ec = sl.load_config(write_cfg(tmp_path, body))
        assert ec.sim.reference.x1d == -1.9

    def test_bundled_configs_parse(self):
        fig2 = sl.load_config("configs/dc_motor_fig2.cfg")
        assert fig2.sim.p2_law_sign == -1.0
        assert fig2.sim.reference.x1d == -1.9
        cert = sl.load_config("configs/dc_motor_certified.cfg")
        assert cert.sim.p2_law_sign == 1.0
        sweep = sl.load_config("configs/sweep_k1.cfg")
        assert sweep.sweep == {"k1": [0.5, 1.0, 2.0]}


class TestLoadConfigErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            sl.load_config(tmp_path / "nope.cfg")

    def test_missing_required_key(self, tmp_path):
        with pytest.raises(ConfigError, match="x1_max"):
            sl.load_config(write_cfg(tmp_path, "[safe_set]\nx2_max = 1.0\n"))

    def test_bad_number(self, tmp_path):
        body = MINIMAL.replace("x1d = -1.9", "x1d = fast")
        with pytest.raises(ConfigError, match="not a number"):
            sl.load_config(write_cfg(tmp_path, body))

    def test_unknown_plant(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown plant type"):
            sl.load_config(write_cfg(tmp_path, MINIMAL + "[plant]\ntype = cart\n"))

    def test_unknown_family(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown lifting family"):
            sl.load_config(write_cfg(tmp_path, MINIMAL + "[lifting]\nfamily = erf\n"))

    def test_start_outside_safe_set(self, tmp_path):
        body = MINIMAL.replace("x2 = 0.9", "x2 = 1.5")
        with pytest.raises(ConfigError, match="safe set"):
            sl.load_config(write_cfg(tmp_path, body))

    def test_start_on_boundary(self, tmp_path):
        body = MINIMAL.replace("x2 = 0.9", "x2 = 1.0")
        with pytest.raises(ConfigError, match="safe set"):
            sl.load_config(write_cfg(tmp_path, body))

    def test_zero_initial_gain_estimate(self, tmp_path):
        body = MINIMAL + "\n[initial]\np2_hat = 0.0\n"
        # configparser keeps the last assignment; restate the section whole.
        body = MINIMAL.replace("x2 = 0.9", "x2 = 0.9\np2_hat = 0.0")
        with pytest.raises(ConfigError, match="nonzero"):
            sl.load_config(write_cfg(tmp_path, body))

    def test_reference_outside_box(self, tmp_path):
        body = MINIMAL.replace("x1d = -1.9", "x1d = -2.0")
        with pytest.raises(ConfigError, match="strictly inside"):
            sl.load_config(write_cfg(tmp_path, body))

    def test_bad_sweep_key(self, tmp_path):
        with pytest.raises(ConfigError, match="not sweepable"):
            sl.load_config(write_cfg(tmp_path, MINIMAL + "[sweep]\ndt = 1, 2\n"))

    def test_bad_sweep_values(self, tmp_path):
        with pytest.raises(ConfigError, match="comma list"):
            sl.load_config(write_cfg(tmp_path, MINIMAL + "[sweep]\nk1 = a, b\n"))

    def test_unknown_threshold(self, tmp_path):
        with pytest.raises(ConfigError, match="certificate"):
            sl.load_config(write_cfg(tmp_path,
                                     MINIMAL + "[certificate]\nwibble = 1\n"))

    def test_bad_p2_law_sign(self, tmp_path):
        body = MINIMAL + "[controller]\np2_law_sign = 0.5\n"
        with pytest.raises(ConfigError, match="p2_law_sign"):
            sl.load_config(write_cfg(tmp_path, body))

    @pytest.mark.parametrize("plant, match", [
        ("type = dc_motor\nJ = -0.01", "J must be positive"),
        ("type = double_integrator\ntheta = 0", "finite and nonzero"),
    ])
    def test_invalid_plant_parameters(self, tmp_path, plant, match):
        # The plant constructors raise InvalidParams; load_config must turn
        # it into a ConfigError (exit code 2), not let it escape.
        body = MINIMAL + f"[plant]\n{plant}\n"
        with pytest.raises(ConfigError, match=match):
            sl.load_config(write_cfg(tmp_path, body))


class TestSweep:
    def test_cartesian_order_is_deterministic(self, tmp_path):
        body = MINIMAL + textwrap.dedent("""
        [sweep]
        k1 = 0.5, 1.0
        x1d = -1.0, 1.0
        """)
        ec = sl.load_config(write_cfg(tmp_path, body))
        rows = list(sweep_rows(ec))
        assert [r[0] for r in rows] == [0, 1, 2, 3]
        assert rows[0][1] == {"k1": 0.5, "x1d": -1.0}
        assert rows[1][1] == {"k1": 0.5, "x1d": 1.0}
        assert rows[3][1] == {"k1": 1.0, "x1d": 1.0}

    def test_empty_sweep_yields_nothing(self, tmp_path):
        ec = sl.load_config(write_cfg(tmp_path, MINIMAL))
        assert list(sweep_rows(ec)) == []

    def test_apply_overrides_rebuilds_and_revalidates(self, tmp_path):
        ec = sl.load_config(write_cfg(tmp_path, MINIMAL))
        sim = apply_overrides(ec.sim, {"k1": 2.0, "x1d": 1.0, "x2": -0.5})
        assert sim.gains.k1 == 2.0
        assert sim.reference.x1d == 1.0
        assert sim.x0 == (0.0, -0.5)
        # The original is untouched.
        assert ec.sim.gains.k1 == 1.0
        with pytest.raises((ConfigError, InvalidParams)):
            apply_overrides(ec.sim, {"x1d": 5.0})
        with pytest.raises(ConfigError):
            apply_overrides(ec.sim, {"x2": 1.0})
