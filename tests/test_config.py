"""Config-file parsing and validation."""

import configparser
import re
import textwrap
from pathlib import Path

import pytest

import safelift as sl
from safelift import config as sl_config
from safelift.config import apply_overrides, sweep_rows
from safelift.errors import ConfigError

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

REQUIRED_ONLY = """
[safe_set]
x1_max = 2.0
x2_max = 1.0

[reference]
x1d = -1.9
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
        # Only the three required keys: every other value is the default the
        # module docstring shows.
        ec = sl.load_config(write_cfg(tmp_path, REQUIRED_ONLY))
        sim = ec.sim
        assert sim.plant == sl.dc_motor(sl.DcMotorParams(J=0.01, b=0.1, R=1.0,
                                                         Kt=0.01, Kb=0.01))
        assert sim.safe_set == sl.SafeSet(2.0, 1.0)
        assert sim.family == sl.tanh_family()
        assert sim.gains == sl.ControllerGains(k1=1.0, gamma=1.0, alpha=1.0)
        assert sim.p2_law_sign == 1.0
        assert sim.x1d == -1.9
        assert sim.x0 == (0.0, 0.0)
        assert sim.est0 == sl.EstimatorState(p2_hat=1.0, theta1_hat=0.0)
        assert (sim.dt, sim.t_final, sim.log_stride) == (0.001, 30.0, 1)
        assert ec.out_dir == Path("out")
        assert ec.thresholds == sl.CertThresholds(
            lyap_increment_rel=1e-6, vdot_tol=0.001, estimate_bound_factor=10.0,
            tracking_tol=0.02, final_residual_tol=0.01)
        assert ec.sweep == {}

    @pytest.mark.parametrize("path", ["configs/dc_motor_fig2.cfg",
                                      "configs/dc_motor_certified.cfg"])
    def test_equal_files_give_equal_configs(self, path):
        assert sl.load_config(path) == sl.load_config(path)
        assert sl.load_config(path).sim == sl.load_config(path).sim

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

    @pytest.mark.parametrize("key, value", [
        ("k1", 0.5), ("gamma", 1.5), ("alpha", 2.0), ("x1d", 1.0),
        ("x1", -0.5), ("x2", 0.5), ("p2_hat", 2.0), ("theta1_hat", -3.0)])
    def test_file_value_equals_its_override(self, tmp_path, key, value):
        # Each sweepable key read from a file lands where a sweep row's
        # override of the same key lands, and nowhere else.
        base = sl.load_config(write_cfg(tmp_path, REQUIRED_ONLY, "base.cfg")).sim
        section = "controller" if key in sl_config._KEYS["controller"] else "initial"
        body = (REQUIRED_ONLY.replace("x1d = -1.9", f"x1d = {value}") if key == "x1d"
                else REQUIRED_ONLY + f"[{section}]\n{key} = {value}\n")
        sim = sl.load_config(write_cfg(tmp_path, body)).sim
        assert sim == apply_overrides(base, {key: value})
        assert sim != base

    def test_per_state_families(self, tmp_path):
        body = MINIMAL + textwrap.dedent("""
        [lifting]
        family = tanh
        family2 = logit
        """)
        ec = sl.load_config(write_cfg(tmp_path, body))
        fams = sl.family_pair(ec.sim.family)
        assert (fams[0].name, fams[1].name) == ("tanh", "logit")

    @pytest.mark.parametrize("name", ["tanh", "logit"])
    def test_family2_equal_to_family_is_one_family(self, tmp_path, name):
        # Runs are bit-identical with or without the repeat, so the configs
        # compare equal too.
        alone = MINIMAL + f"[lifting]\nfamily = {name}\n"
        repeated = alone + f"family2 = {name}\n"
        sim = sl.load_config(write_cfg(tmp_path, alone, "alone.cfg")).sim
        assert sl.load_config(write_cfg(tmp_path, repeated, "repeated.cfg")).sim == sim
        assert sim.family == sl.get_family(name)

    def test_inline_comments_allowed(self, tmp_path):
        body = MINIMAL.replace("x1d = -1.9", "x1d = -1.9  ; near the boundary")
        ec = sl.load_config(write_cfg(tmp_path, body))
        assert ec.sim.reference.x1d == -1.9

    def test_utf8_comment_loads(self, tmp_path):
        # The file is read as UTF-8 whatever the locale's encoding.
        path = tmp_path / "utf8.cfg"
        path.write_bytes(("; réglage ✓\n" + MINIMAL).encode("utf-8"))
        assert sl.load_config(path).sim.x1d == -1.9

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

    @pytest.mark.parametrize("ptype, key, value", [
        ("double_integrator", "J", "5"),
        ("double_integrator", "Kt", "7"),
        ("dc_motor", "theta", "2"),
    ])
    def test_constant_of_other_plant_type(self, tmp_path, ptype, key, value):
        body = MINIMAL + f"[plant]\ntype = {ptype}\n{key} = {value}\n"
        with pytest.raises(ConfigError, match=f"'{key}' does not apply to type {ptype}"):
            sl.load_config(write_cfg(tmp_path, body))

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
        # An empty list would make an empty sweep that writes no rows, and
        # an empty item a shorter sweep than the file lists.
        for values in ("a, b", ",", "", "1.0, , 2.0", "1.0, 2.0,"):
            with pytest.raises(ConfigError, match="comma list"):
                sl.load_config(write_cfg(tmp_path, MINIMAL + f"[sweep]\nk1 = {values}\n"))

    def test_unknown_threshold(self, tmp_path):
        with pytest.raises(ConfigError, match="certificate"):
            sl.load_config(write_cfg(tmp_path,
                                     MINIMAL + "[certificate]\nwibble = 1\n"))

    @pytest.mark.parametrize("extra, match", [
        ("[controler]\nk1 = 2.0\n", r"unknown section \[controler\]"),
        ("[controller]\ngama = 2.0\n", r"\[controller\] key 'gama' unknown"),
        ("[controller]\ndt = 0.002\n", r"\[controller\] key 'dt' unknown"),
        ("[DEFAULT]\ndt = 0.002\n", r"\[DEFAULT\]"),
        ("[initial]\np2_hat = 0.0\n", "cannot parse"),
    ], ids=["misspelt-section", "misspelt-key", "key-in-wrong-section",
            "default-section", "duplicate-section"])
    def test_unknown_or_repeated_section_or_key(self, tmp_path, extra, match):
        with pytest.raises(ConfigError, match=match):
            sl.load_config(write_cfg(tmp_path, MINIMAL + extra))

    @pytest.mark.parametrize("threshold", [
        "lyap_increment_rel = inf", "vdot_tol = nan", "tracking_tol = -1",
        "final_residual_tol = 0",
    ])
    def test_threshold_must_be_finite_and_positive(self, tmp_path, threshold):
        body = MINIMAL + f"[certificate]\n{threshold}\n"
        with pytest.raises(ConfigError, match=r"bad \[certificate\] section"):
            sl.load_config(write_cfg(tmp_path, body))

    def test_bad_p2_law_sign(self, tmp_path):
        body = MINIMAL + "[controller]\np2_law_sign = 0.5\n"
        with pytest.raises(ConfigError, match="p2_law_sign"):
            sl.load_config(write_cfg(tmp_path, body))

    @pytest.mark.parametrize("plant, match", [
        ("type = dc_motor\nJ = -0.01", "J must be positive"),
        ("type = double_integrator\ntheta = 0", "finite and nonzero"),
    ])
    def test_invalid_plant_parameters(self, tmp_path, plant, match):
        # The plant constructors raise ConfigError, so a
        # bad constant in the file is refused with exit code 2.
        body = MINIMAL + f"[plant]\n{plant}\n"
        with pytest.raises(ConfigError, match=match):
            sl.load_config(write_cfg(tmp_path, body))


def test_docstring_schema_loads_and_matches_keys(tmp_path):
    # The module docstring is the schema's documentation: the dc_motor block
    # and its double_integrator variant must each load, and together name
    # every key the file may hold (sweep keys aside), and no other.
    doc = sl_config.__doc__
    start, variant = doc.index("    [plant]"), doc.rindex("    [plant]")
    # The main block ends at the first unindented line (the variant's prose).
    block = textwrap.dedent(re.split(r"\n(?=\S)", doc[start:variant])[0])
    di_block = textwrap.dedent(doc[variant:]) + block[block.index("[safe_set]"):]
    documented, plants = set(), []
    for text in (block, di_block):
        plants.append(sl.load_config(write_cfg(tmp_path, text)).sim.plant.name)
        parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        parser.read_string(text)
        documented |= {(name, key) for name in parser.sections() for key in parser[name]}
    assert plants == ["dc_motor", "double_integrator"]
    allowed = {(name, parser.optionxform(key))
               for name, keys in sl_config._KEYS.items() for key in keys}
    assert documented <= allowed
    assert {(name, key) for name, key in allowed if name != "sweep"} <= documented


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
        with pytest.raises(ConfigError):
            apply_overrides(ec.sim, {"x1d": 5.0})
        with pytest.raises(ConfigError):
            apply_overrides(ec.sim, {"x2": 1.0})

    @pytest.mark.parametrize("overrides", [{"gama": 5.0, "dt": 0.5}, {"dt": 0.5}])
    def test_apply_overrides_refuses_unsweepable_keys(self, overrides):
        # The same refusal load_config makes for a [sweep] key; before, the
        # key was dropped and the config came back unchanged.
        sim = sl.load_config("configs/dc_motor_certified.cfg").sim
        with pytest.raises(ConfigError, match="not sweepable"):
            apply_overrides(sim, overrides)
