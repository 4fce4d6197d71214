"""Command-line driver: artifacts, exit codes, determinism."""

import csv
import importlib
import os
import re
import subprocess
import sys
import textwrap
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import safelift as sl
from safelift import cli
from safelift.cli import _ERRORS_HEADER, _estimation_errors, main
from safelift.errors import SingularityDetected
from safelift.simulator import CSV_CHUNK_ROWS, write_csvs

REPO = Path(__file__).resolve().parent.parent

FIG2 = "configs/dc_motor_fig2.cfg"
CERTIFIED = "configs/dc_motor_certified.cfg"
SWEEP = "configs/sweep_k1.cfg"


def write_cfg(tmp_path, body, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body))
    return str(path)


BASE = """
[safe_set]
x1_max = 2.0
x2_max = 1.0

[reference]
x1d = -1.9

[initial]
x1 = 0.0
x2 = 0.9

[simulation]
dt = 0.001
t_final = 2.0
"""


@pytest.mark.parametrize("command, out", [
    (["run", FIG2], "taken"),
    (["sweep", SWEEP], "taken/sub"),
], ids=["run-out-is-a-file", "sweep-out-under-a-file"])
def test_unusable_out_dir_is_config_error(tmp_path, capsys, command, out):
    (tmp_path / "taken").write_text("")
    out = tmp_path / out
    assert main([*command, "--out", str(out)]) == 2
    # One line naming the directory, not a traceback.
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("configuration error: ") and str(out) in err[0]


@pytest.mark.parametrize("out", ["taken", "taken/sub"], ids=["a-file", "under-a-file"])
def test_unusable_out_dir_reads_cannot_write(tmp_path, capsys, out):
    # The same one line as an artifact that cannot be written.
    (tmp_path / "taken").write_text("")
    out = tmp_path / out
    assert main(["run", FIG2, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"configuration error: cannot write {out}: ")


@pytest.mark.parametrize("command, artifact", [("run", "trace.csv"), ("sweep", "sweep.csv")])
def test_unwritable_artifact_is_config_error(tmp_path, capsys, command, artifact):
    body = BASE + ("\n[sweep]\nk1 = 1.0\n" if command == "sweep" else "")
    out = tmp_path / "o"
    (out / artifact).mkdir(parents=True)  # a directory where the file goes
    assert main([command, write_cfg(tmp_path, body), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"configuration error: cannot write {out / artifact}: ")


def test_overflowed_v_prints_only_the_abort_lines(tmp_path):
    # V overflows at p2_hat = 1e200; no NumPy warning may reach stderr.
    text = (REPO / FIG2).read_text()
    assert "\np2_hat = 1.0\n" in text
    cfg = write_cfg(tmp_path, text.replace("\np2_hat = 1.0\n", "\np2_hat = 1e200\n"))
    out = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    env.pop("PYTHONWARNINGS", None)
    done = subprocess.run([sys.executable, "-m", "safelift.cli", "run", cfg, "--out", str(out)],
                          env=env, capture_output=True, text=True, check=False)
    assert done.returncode == 3
    err = done.stderr.splitlines()
    assert len(err) == 2
    assert err[0].startswith("simulation aborted at t=0: DomainViolation: ")
    assert err[1] == f"partial artifacts written to {out}"


def test_runtime_error_exits_3(tmp_path, capsys, monkeypatch):
    def singular(sim, tables=None):
        raise SingularityDetected("virtual gain 0.0 at x1=0.0")

    monkeypatch.setattr(cli, "run_sim", singular)
    assert main(["run", write_cfg(tmp_path, BASE), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == "error: virtual gain 0.0 at x1=0.0\n"


# Horizons whose log cannot be allocated: 1e12 s is a 63.9 PiB log, and 1e300 s
# exceeds NumPy's largest dimension. Both fail at once, allocating nothing.
@pytest.mark.parametrize("t_final", ["1e12", "1e300"])
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_unloggable_horizon_is_config_error(tmp_path, capsys, command, t_final):
    body = BASE.replace("t_final = 2.0", f"t_final = {t_final}")
    if command == "sweep":
        body += "\n[sweep]\nk1 = 1.0\n"
    cfg = write_cfg(tmp_path, body)
    assert main([command, cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("configuration error: ")
    for fragment in (f"t_final={float(t_final)}", "dt=0.001", "log_stride=1", "samples"):
        assert fragment in err[0]


def use_cpus(monkeypatch, n):
    """Make the sweep see n usable CPUs, so it runs min(n, rows) processes."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):  # none to reap, alive or dead
        os.waitpid(-1, os.WNOHANG)


def no_fork():
    raise BlockingIOError(11, "Resource temporarily unavailable")


def open_fds():
    """This process's open file descriptors (Linux)."""
    return set(os.listdir("/proc/self/fd"))


@pytest.mark.parametrize("t_final", ["1e12", "1e300"])
def test_unloggable_horizon_in_every_share_is_one_config_error(
        tmp_path, capsys, monkeypatch, t_final):
    # Every row fails: rows 0 and 1 are this process's share, row 2 the
    # forked one's, and row 0's error ends the sweep.
    use_cpus(monkeypatch, 2)
    body = BASE.replace("t_final = 2.0", f"t_final = {t_final}")
    cfg = write_cfg(tmp_path, body + "\n[sweep]\nk1 = 1.0, 2.0, 3.0\n")
    assert main(["sweep", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("configuration error: ")
    for fragment in (f"t_final={float(t_final)}", "dt=0.001", "log_stride=1", "samples"):
        assert fragment in err[0]
    assert not (tmp_path / "o" / "sweep.csv").exists()
    assert_no_child_left()


class TestRunCommand:
    def test_near_boundary_scenario_artifacts(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", FIG2, "--out", str(out)]) == 0
        for name in ("trace.csv", "cert.txt", "states_input.csv",
                     "estimation_errors.csv"):
            assert (out / name).is_file()
        header = (out / "trace.csv").read_text().splitlines()[0]
        assert header == ("t,x1,x2,z1,z2,e1,e2,u,p2_hat,theta1_hat,"
                          "V,Vdot_num,Vdot_analytic")
        cert = (out / "cert.txt").read_text()
        assert "safe_invariance = pass" in cert
        assert "estimates_bounded = pass" in cert
        # The -1 update-sign variant tracks but gives up Lyapunov
        # monotonicity; the certificate says so instead of hiding it.
        assert "lyapunov_monotone = FAIL" in cert
        tracking = [ln for ln in cert.splitlines()
                    if ln.startswith("tracking_error_final")][0]
        assert float(tracking.split("=")[1]) < 0.02

    def test_certified_scenario_all_pass(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", CERTIFIED, "--out", str(out)]) == 0
        cert = (out / "cert.txt").read_text()
        assert "lyapunov_monotone = pass" in cert
        assert "all_pass = pass" in cert

    def test_trace_is_byte_deterministic(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", cfg, "--out", str(out1)]) == 0
        assert main(["run", cfg, "--out", str(out2)]) == 0
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()

    def test_estimation_errors_schema(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE)
        out = tmp_path / "out"
        main(["run", cfg, "--out", str(out)])
        lines = (out / "estimation_errors.csv").read_text().splitlines()
        assert lines[0] == "t,theta1_err,p2_err,log10_theta1_err,log10_p2_err"
        data = np.genfromtxt(out / "estimation_errors.csv", delimiter=",",
                             names=True)
        assert np.all(data["theta1_err"] >= 0)

    def test_theta1_error_centred_on_scaled_target(self, tmp_path):
        # The estimator converges to theta1 / x2_max; with x2_max = 2 that
        # differs from theta1, so a theta1-centred column would be off.
        cfg = write_cfg(tmp_path, BASE.replace("x2_max = 1.0", "x2_max = 2.0"))
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 0
        sim = sl.load_config(cfg).sim
        traj = sl.run(sim)
        data = np.genfromtxt(out / "estimation_errors.csv", delimiter=",",
                             names=True)
        expected = np.abs(traj.theta1_hat - sim.plant.theta1 / 2.0)
        assert np.allclose(data["theta1_err"], expected, rtol=1e-14, atol=0)
        assert not np.allclose(data["theta1_err"],
                               np.abs(traj.theta1_hat - sim.plant.theta1))
        assert np.allclose(data["log10_theta1_err"], np.log10(expected),
                           rtol=1e-14, atol=0)

    @pytest.mark.parametrize("rows", [0, 1, CSV_CHUNK_ROWS + 1])
    def test_estimation_errors_match_per_row_formatting(self, tmp_path, rows):
        # Whole-array log10 must give the same bytes as the scalar log10 of
        # a per-row writer, including errors that hit the 1e-300 floor.
        rng = np.random.default_rng(7)
        plant = SimpleNamespace(theta1=-3.7, theta2=0.8)
        box = SimpleNamespace(x2_max=2.0)
        th1_target, p2_target = plant.theta1 / box.x2_max, 1.0 / plant.theta2
        scale = 10.0 ** rng.integers(-320, 3, rows)
        th1_hat = th1_target + rng.standard_normal(rows) * scale
        p2_hat = p2_target + rng.standard_normal(rows) * scale[::-1]
        th1_hat[::5] = th1_target
        p2_hat[::3] = p2_target
        traj = SimpleNamespace(t=np.arange(rows) * 1e-3, theta1_hat=th1_hat,
                               p2_hat=p2_hat)
        got = tmp_path / "got.csv"
        write_csvs([(got, _ERRORS_HEADER,
                     (traj.t, *_estimation_errors(traj, plant, box)))])

        lines = ["t,theta1_err,p2_err,log10_theta1_err,log10_p2_err"]
        for i in range(rows):
            e1 = abs(th1_hat[i] - th1_target)
            e2 = abs(p2_hat[i] - p2_target)
            lines.append(f"{traj.t[i]:.15g},{e1:.15g},{e2:.15g},"
                         f"{np.log10(max(e1, 1e-300)):.15g},"
                         f"{np.log10(max(e2, 1e-300)):.15g}")
        assert got.read_text() == "\n".join(lines) + "\n"

    def test_svg_rendering(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE)
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out), "--svg"]) == 0
        for name in ("states_input.svg", "estimation_errors.svg"):
            text = (out / name).read_text()
            assert text.startswith("<svg")
            assert "polyline" in text

    def test_svg_of_a_run_at_rest(self, tmp_path):
        # Every plotted series is flat, so each panel pads its value range.
        body = BASE.replace("x1d = -1.9", "x1d = 0.0").replace("x2 = 0.9", "x2 = 0.0")
        out = tmp_path / "out"
        assert main(["run", write_cfg(tmp_path, body), "--out", str(out), "--svg"]) == 0
        for name in ("states_input.svg", "estimation_errors.svg"):
            text = (out / name).read_text()
            assert "polyline" in text
            assert "nan" not in text and "inf" not in text

    def test_zero_initial_estimate_is_config_error(self, tmp_path, capsys):
        body = BASE.replace("x2 = 0.9", "x2 = 0.9\np2_hat = 0.0")
        cfg = write_cfg(tmp_path, body)
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert "nonzero" in err

    def test_start_outside_box_is_config_error(self, tmp_path, capsys):
        body = BASE.replace("x2 = 0.9", "x2 = 1.5")
        cfg = write_cfg(tmp_path, body)
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "safe set" in capsys.readouterr().err

    def test_missing_file_is_config_error(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.cfg")]) == 2

    @pytest.mark.parametrize("old, new", [
        ("[controller]", "[controler]"),
        ("[output]", "[certificate]\nlyap_increment_rel = inf\n\n[output]"),
        ("x1_max = 2.0", "x1_max = inf"),
        ("type = dc_motor", "type = double_integrator"),
    ], ids=["misspelt-section", "infinite-threshold", "infinite-bound",
            "dc-motor-constants-on-double-integrator"])
    def test_bad_fig2_edit_is_config_error(self, tmp_path, capsys, old, new):
        # Each edit is refused when the file loads, before anything is written.
        with open(FIG2) as fh:
            text = fh.read()
        assert old in text
        cfg = tmp_path / "fig2.cfg"
        cfg.write_text(text.replace(old, new))
        out = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (out / "cert.txt").exists()

    def test_aborted_run_exits_3_with_timestamp(self, tmp_path, capsys):
        body = BASE.replace("x2 = 0.9", "x2 = 0.9\np2_hat = 1e150")
        cfg = write_cfg(tmp_path, body)
        out = tmp_path / "o"
        assert main(["run", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "aborted at t=" in err
        # Partial artifacts still written for post-mortem.
        assert (out / "cert.txt").is_file()

    def test_one_sample_trace_has_no_numeric_rate(self, tmp_path, capsys):
        # Aborted at t = 0 after one logged sample: Vdot_num reads nan, not 0.
        cfg = tmp_path / "fig2.cfg"
        cfg.write_text(Path(FIG2).read_text().replace("p2_hat = 1.0", "p2_hat = 1e150"))
        out = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out)]) == 3
        with open(out / "trace.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["Vdot_num"] == "nan"
        assert rows[0]["Vdot_analytic"] != "nan"

    def test_non_utf8_config_is_config_error(self, tmp_path, capsys):
        # A Latin-1 byte in a comment: refused whatever the locale says.
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes("# réglage\n".encode("latin-1") + Path(FIG2).read_bytes())
        out = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        assert "cannot parse" in capsys.readouterr().err
        assert not out.exists()

    def test_byte_order_mark_is_allowed(self, tmp_path):
        cfg = tmp_path / "bom.cfg"
        cfg.write_bytes(b"\xef\xbb\xbf" + Path(FIG2).read_bytes())
        assert main(["run", str(cfg), "--out", str(tmp_path / "bom")]) == 0
        assert main(["run", FIG2, "--out", str(tmp_path / "plain")]) == 0
        assert ((tmp_path / "bom" / "trace.csv").read_bytes()
                == (tmp_path / "plain" / "trace.csv").read_bytes())

    # With --svg there is no sample to plot, so no SVG is written.
    @pytest.mark.parametrize("flags", [[], ["--svg"]], ids=["plain", "svg"])
    def test_abort_at_start_writes_header_only_csvs(self, tmp_path, capsys, flags):
        body = BASE.replace("x2 = 0.9", "x2 = 0.9\np2_hat = 1e308")
        cfg = write_cfg(tmp_path, body)
        out = tmp_path / "o"
        assert main(["run", cfg, "--out", str(out), *flags]) == 3
        err = capsys.readouterr().err
        assert "aborted at t=0" in err
        assert f"partial artifacts written to {out}" in err
        assert not list(out.glob("*.svg"))
        assert (out / "trace.csv").read_text() == sl.Trajectory.CSV_HEADER + "\n"
        for name in ("states_input.csv", "estimation_errors.csv"):
            assert len((out / name).read_text().splitlines()) == 1


def per_cell_lines(header, cols):
    """Reference CSV text: one f"{v:.15g}" per cell."""
    lines = [header]
    for i in range(len(cols[0])):
        lines.append(",".join(f"{c[i]:.15g}" for c in cols))
    return "\n".join(lines) + "\n"


class TestRunCsvs:
    # The three CSVs of `run` come out of one pass that formats each shared
    # column once; each must still equal its own per-cell reference, built
    # here from sim.run alone. Rows: an abort before the first log (0), an
    # abort in the first step (1), one chunk, and one chunk plus a row.
    @pytest.mark.parametrize("rows, old, new", [
        (0, "x2 = 0.9", "x2 = 0.9\np2_hat = 1e308"),
        (1, "x2 = 0.9", "x2 = 0.9\np2_hat = 1e100"),
        (CSV_CHUNK_ROWS, "t_final = 2.0", f"t_final = {(CSV_CHUNK_ROWS - 1) / 1000}"),
        (CSV_CHUNK_ROWS + 1, "t_final = 2.0", f"t_final = {CSV_CHUNK_ROWS / 1000}"),
    ])
    def test_each_file_matches_per_cell_reference(self, tmp_path, rows, old, new):
        cfg = write_cfg(tmp_path, BASE.replace(old, new))
        out = tmp_path / "out"
        main(["run", cfg, "--out", str(out)])
        sim = sl.load_config(cfg).sim
        traj = sl.run(sim)
        assert len(traj) == rows
        th1_err = [abs(v - sim.plant.theta1 / sim.safe_set.x2_max)
                   for v in traj.theta1_hat]
        p2_err = [abs(v - 1.0 / sim.plant.theta2) for v in traj.p2_hat]
        want = {
            "trace.csv": per_cell_lines(sl.Trajectory.CSV_HEADER, (
                traj.t, traj.x1, traj.x2, traj.z1, traj.z2, traj.e1, traj.e2,
                traj.u, traj.p2_hat, traj.theta1_hat, traj.v,
                traj.vdot_numeric, traj.vdot_analytic)),
            "states_input.csv": per_cell_lines(
                "t,x1,x2,u", (traj.t, traj.x1, traj.x2, traj.u)),
            "estimation_errors.csv": per_cell_lines(
                "t,theta1_err,p2_err,log10_theta1_err,log10_p2_err",
                (traj.t, th1_err, p2_err,
                 [np.log10(max(e, 1e-300)) for e in th1_err],
                 [np.log10(max(e, 1e-300)) for e in p2_err])),
        }
        for name, text in want.items():
            assert (out / name).read_text() == text, name

    def test_trajectory_to_csv_equals_run_trace(self, tmp_path):
        # Trajectory.to_csv is the one-table form of the writer `run` uses.
        cfg = write_cfg(tmp_path, BASE)
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 0
        path = tmp_path / "alone.csv"
        sl.run(sl.load_config(cfg).sim).to_csv(path)
        assert path.read_bytes() == (out / "trace.csv").read_bytes()


class TestSweepCommand:
    def test_three_gain_rows(self, tmp_path):
        out = tmp_path / "out"
        assert main(["sweep", SWEEP, "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("index,overrides,status")
        rows = lines[1:]
        assert len(rows) == 3
        assert all(",ok," in r for r in rows)
        assert all(",yes," in r for r in rows)  # all safe

    def test_bad_row_is_isolated(self, tmp_path):
        body = BASE + textwrap.dedent("""
        [sweep]
        x2 = 0.5, 1.5, -0.5
        """)
        cfg = write_cfg(tmp_path, body)
        out = tmp_path / "out"
        assert main(["sweep", cfg, "--out", str(out)]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert len(rows) == 3
        assert ",ok," in rows[0]
        assert "invalid-config" in rows[1]
        assert ",ok," in rows[2]

    def test_empty_sweep_gives_header_only(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE)
        out = tmp_path / "out"
        assert main(["sweep", cfg, "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 1

    def test_deterministic_ordering(self, tmp_path):
        body = BASE + textwrap.dedent("""
        [sweep]
        k1 = 2.0, 0.5
        gamma = 1.0, 1.5
        """)
        cfg = write_cfg(tmp_path, body)
        out = tmp_path / "out"
        main(["sweep", cfg, "--out", str(out)])
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        labels = [r.split(",")[1] for r in rows]
        assert labels == ["k1=2 gamma=1", "k1=2 gamma=1.5",
                          "k1=0.5 gamma=1", "k1=0.5 gamma=1.5"]

    def test_close_values_keep_distinct_labels(self, tmp_path):
        body = BASE + textwrap.dedent("""
        [sweep]
        k1 = 1.0000001, 1.0000002
        """)
        out = tmp_path / "out"
        assert main(["sweep", write_cfg(tmp_path, body), "--out", str(out)]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert [r.split(",")[1] for r in rows] == ["k1=1.0000001", "k1=1.0000002"]


    # Eight rows: five valid in the box, three that abort at t = 0 (V
    # overflows from p2_hat = 1e200), and x2 = 1.5 refused in both blocks.
    MIXED = BASE.replace("t_final = 2.0", "t_final = 0.5") + textwrap.dedent("""
    [sweep]
    p2_hat = 1.0, 1e200
    x2 = 0.5, 1.5, -0.5, 0.9
    """)
    MIXED_STATUS = ["ok", "invalid-config", "ok", "ok", "runtime-violation",
                    "invalid-config", "runtime-violation", "runtime-violation"]

    @pytest.mark.parametrize("cpus", [2, 3, 8])
    def test_forked_rows_equal_serial_rows(self, tmp_path, monkeypatch, cpus):
        cfg = write_cfg(tmp_path, self.MIXED)
        run_here = []
        row = cli._sweep_row
        monkeypatch.setattr(cli, "_sweep_row",
                            lambda ec, i, *rest: run_here.append(i) or row(ec, i, *rest))
        csv_bytes, fds = {}, open_fds()
        for n in (1, cpus):
            use_cpus(monkeypatch, n)
            run_here.clear()
            assert main(["sweep", cfg, "--out", str(tmp_path / str(n))]) == 0
            csv_bytes[n] = (tmp_path / str(n) / "sweep.csv").read_bytes()
            # This process runs share 0, the first ceil(6 / n) valid rows;
            # children the rest.
            assert run_here == [0, 2, 3, 4, 6, 7][:-(-6 // min(n, 6))]
        assert csv_bytes[cpus] == csv_bytes[1]
        rows = [r.split(",") for r in csv_bytes[1].decode().splitlines()[1:]]
        assert [r[0] for r in rows] == [str(i) for i in range(8)]
        assert [r[2] for r in rows] == self.MIXED_STATUS
        assert_no_child_left()
        assert open_fds() == fds

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_first_error_in_row_order_wins(self, tmp_path, capsys, monkeypatch, cpus):
        # Rows 1 and 2 both fail; the sweep reports row 1's error, as the
        # serial sweep does. At 2 CPUs row 1 is this process's and row 2 a
        # child's; at 3 CPUs they fail in two different children.
        def failing(sim):
            if sim.gains.k1 == 2.0:
                raise sl.ConfigError("row 1 refused")
            raise SingularityDetected("row 2 singular")

        real = cli.run_sim
        monkeypatch.setattr(cli, "run_sim",
                            lambda sim: real(sim) if sim.gains.k1 == 1.0 else failing(sim))
        use_cpus(monkeypatch, cpus)
        cfg = write_cfg(tmp_path, BASE + "\n[sweep]\nk1 = 1.0, 2.0, 3.0\n")
        assert main(["sweep", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "configuration error: row 1 refused\n"
        assert_no_child_left()

    def test_runtime_error_in_a_child_exits_3(self, tmp_path, capsys, monkeypatch):
        real = cli.run_sim

        def singular(sim):
            if sim.gains.k1 == 2.0:
                raise SingularityDetected("virtual gain 0.0 at x1=0.0")
            return real(sim)

        monkeypatch.setattr(cli, "run_sim", singular)
        use_cpus(monkeypatch, 2)
        cfg = write_cfg(tmp_path, BASE + "\n[sweep]\nk1 = 1.0, 2.0\n")
        fds = open_fds()
        assert main(["sweep", cfg, "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == "error: virtual gain 0.0 at x1=0.0\n"
        assert_no_child_left()
        assert open_fds() == fds

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_other_error_in_a_child_is_raised_as_is(self, tmp_path, monkeypatch, cpus):
        real = cli.run_sim

        def broken(sim):
            if sim.gains.k1 == 2.0:
                raise ZeroDivisionError("a defect")
            return real(sim)

        monkeypatch.setattr(cli, "run_sim", broken)
        use_cpus(monkeypatch, cpus)
        cfg = write_cfg(tmp_path, BASE + "\n[sweep]\nk1 = 1.0, 2.0\n")
        with pytest.raises(ZeroDivisionError, match=r"^a defect$"):
            main(["sweep", cfg, "--out", str(tmp_path / "o")])
        assert_no_child_left()

    def test_child_that_dies_costs_time_not_the_sweep(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, BASE + "\n[sweep]\nk1 = 1.0, 2.0, 3.0\n")
        use_cpus(monkeypatch, 1)
        assert main(["sweep", cfg, "--out", str(tmp_path / "1")]) == 0
        run_here = []
        row = cli._sweep_row
        monkeypatch.setattr(cli, "_sweep_row",
                            lambda ec, i, *rest: run_here.append(i) or row(ec, i, *rest))
        monkeypatch.setattr(cli, "_send_share", lambda ec, share, fd: os._exit(5))
        use_cpus(monkeypatch, 2)
        fds = open_fds()
        assert main(["sweep", cfg, "--out", str(tmp_path / "2")]) == 0
        # Share 0, then the dead child's row 2, here.
        assert run_here == [0, 1, 2]
        assert ((tmp_path / "2" / "sweep.csv").read_bytes()
                == (tmp_path / "1" / "sweep.csv").read_bytes())
        assert_no_child_left()
        assert open_fds() == fds

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_only_the_first_failing_row_runs_again(self, tmp_path, capsys, monkeypatch, cpus):
        # The rows of test_first_error_in_row_order_wins. At 1 CPU row 1 runs
        # once and raises, and row 2 never runs. At 3 CPUs rows 1 and 2 fail
        # in two children: this process runs row 1 again, which raises, and
        # not row 2.
        calls = []
        real = cli.run_sim

        def failing(sim):
            calls.append(sim.gains.k1)
            if sim.gains.k1 == 1.0:
                return real(sim)
            if sim.gains.k1 == 2.0:
                raise sl.ConfigError("row 1 refused")
            raise SingularityDetected("row 2 singular")

        monkeypatch.setattr(cli, "run_sim", failing)
        use_cpus(monkeypatch, cpus)
        cfg = write_cfg(tmp_path, BASE + "\n[sweep]\nk1 = 1.0, 2.0, 3.0\n")
        assert main(["sweep", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "configuration error: row 1 refused\n"
        assert calls == [1.0, 2.0]
        assert_no_child_left()

    @pytest.mark.parametrize("error", [sl.ConfigError("row 1 refused"), KeyboardInterrupt()],
                             ids=["config-error", "interrupt"])
    def test_error_here_stops_the_children_at_once(self, tmp_path, monkeypatch, error):
        # At 2 CPUs rows 0 and 1 are this process's share and row 2 the
        # child's. Row 1 raises here while row 2 sleeps in the child: the
        # sweep ends at once, with the child stopped and joined.
        real = cli.run_sim

        def failing(sim):
            if sim.gains.k1 == 2.0:
                raise error
            if sim.gains.k1 == 3.0:
                time.sleep(60)
            return real(sim)

        monkeypatch.setattr(cli, "run_sim", failing)
        use_cpus(monkeypatch, 2)
        cfg = write_cfg(tmp_path, BASE + "\n[sweep]\nk1 = 1.0, 2.0, 3.0\n")
        fds = open_fds()
        start = time.monotonic()
        if isinstance(error, KeyboardInterrupt):
            with pytest.raises(KeyboardInterrupt):
                main(["sweep", cfg, "--out", str(tmp_path / "o")])
        else:
            assert main(["sweep", cfg, "--out", str(tmp_path / "o")]) == 2
        assert time.monotonic() - start < 20
        assert_no_child_left()
        assert open_fds() == fds

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_sweep_that_cannot_fork_runs_every_row_here(self, tmp_path, monkeypatch, cpus):
        # Each failed fork leaves its share to this process, as a dead
        # child's would.
        cfg = write_cfg(tmp_path, self.MIXED)
        use_cpus(monkeypatch, 1)
        assert main(["sweep", cfg, "--out", str(tmp_path / "1")]) == 0
        run_here = []
        row = cli._sweep_row
        monkeypatch.setattr(cli, "_sweep_row",
                            lambda ec, i, *rest: run_here.append(i) or row(ec, i, *rest))
        monkeypatch.setattr(os, "fork", no_fork)
        use_cpus(monkeypatch, cpus)
        fds = open_fds()
        assert main(["sweep", cfg, "--out", str(tmp_path / "n")]) == 0
        assert run_here == [0, 2, 3, 4, 6, 7]
        assert ((tmp_path / "n" / "sweep.csv").read_bytes()
                == (tmp_path / "1" / "sweep.csv").read_bytes())
        assert_no_child_left()
        assert open_fds() == fds

    def test_forked_sweep_loads_no_multiprocessing(self, tmp_path):
        # In a fresh interpreter, so that no other test's import counts.
        script = textwrap.dedent(f"""
            import os, sys
            os.sched_getaffinity = lambda pid: set(range(2))
            fork, forks = os.fork, []
            os.fork = lambda: forks.append(1) or fork()
            from safelift.cli import main
            code = main(["sweep", {SWEEP!r}, "--out", {str(tmp_path)!r}])
            print(code, len(forks), "multiprocessing" in sys.modules)
        """)
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        done = subprocess.run([sys.executable, "-c", script], cwd=REPO, env=env,
                              capture_output=True, text=True, check=False)
        assert (done.returncode, done.stdout.splitlines()[-1]) == (0, "0 1 False")

    def test_no_cpu_mask_runs_one_process(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, BASE + "\n[sweep]\nk1 = 1.0, 2.0, 3.0\n")
        use_cpus(monkeypatch, 2)
        assert main(["sweep", cfg, "--out", str(tmp_path / "2")]) == 0
        run_here = []
        row = cli._sweep_row
        monkeypatch.setattr(cli, "_sweep_row",
                            lambda ec, i, *rest: run_here.append(i) or row(ec, i, *rest))
        monkeypatch.delattr(os, "sched_getaffinity")
        assert main(["sweep", cfg, "--out", str(tmp_path / "1")]) == 0
        assert run_here == [0, 1, 2]
        assert ((tmp_path / "1" / "sweep.csv").read_bytes()
                == (tmp_path / "2" / "sweep.csv").read_bytes())


class TestCheckAssumptionsCommand:
    def test_motor_passes(self, capsys):
        assert main(["check-assumptions", FIG2]) == 0
        assert "pass" in capsys.readouterr().out

    def test_grid_flag(self, capsys):
        assert main(["check-assumptions", FIG2, "--grid", "5"]) == 0
        assert "5 x 5" in capsys.readouterr().out

    def test_grid_below_two_is_config_error(self, capsys):
        assert main(["check-assumptions", FIG2, "--grid", "1"]) == 2
        assert "grid_n must be at least 2" in capsys.readouterr().err


class TestVersionCommand:
    def test_prints_version(self, capsys):
        assert main(["version"]) == 0
        assert capsys.readouterr().out == f"safelift {sl.__version__}\n"
        # pyproject.toml states the same version (read by regex: Python 3.10
        # has no tomllib).
        text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
        assert re.search(r'^version = "(.*)"$', text, re.M).group(1) == sl.__version__

    def test_console_script_is_main(self):
        text = (REPO / "pyproject.toml").read_text()
        scripts = re.search(r"^\[project\.scripts\]$(.*?)(?=^\[|\Z)", text, re.M | re.S)
        target = re.search(r'^safelift = "(.*)"$', scripts.group(1), re.M).group(1)
        assert target == "safelift.cli:main"
        module, name = target.split(":")
        assert getattr(importlib.import_module(module), name) is main

    def test_module_runs_as_a_script(self):
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        done = subprocess.run([sys.executable, "-m", "safelift.cli", "version"],
                              env=env, capture_output=True, text=True, check=False)
        assert (done.returncode, done.stdout) == (0, f"safelift {sl.__version__}\n")
