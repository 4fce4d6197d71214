"""The names the benchmark harness reaches into safelift by still work.

benchmarks/microbench.py calls public functions and methods by name, and
benchmarks/workload.py patches attributes of safelift.cli. These tests run
the first and check the second, so that a rename in src fails here rather
than in the next benchmark run.
"""

import dataclasses
import importlib.util
import math
import sys
from pathlib import Path

import pytest

import safelift as sl
from safelift import cli

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
FIG2 = "configs/dc_motor_fig2.cfg"


@pytest.fixture(scope="module")
def microbench():
    # microbench imports its sibling module tracing by plain name.
    sys.path.insert(0, str(BENCHMARKS))
    try:
        spec = importlib.util.spec_from_file_location("microbench",
                                                      BENCHMARKS / "microbench.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCHMARKS))
    return module


def _finite_positive(value):
    return math.isfinite(value) and value > 0


def test_microbenchmarks_give_a_time_per_call(microbench):
    figures = microbench.microbenchmarks(sl.load_config(FIG2).sim)
    assert len(figures) == 7
    for name, (value, unit) in figures.items():
        assert unit == "us" and _finite_positive(value), name


def test_shape_calls_are_counted(microbench, tmp_path):
    short = tmp_path / "short.cfg"
    short.write_text(Path(FIG2).read_text().replace("t_final = 30.0", "t_final = 0.1"))
    calls, codes = microbench.count_shape_calls(
        lambda: [cli.main(["run", str(short), "--out", str(tmp_path / "out")])])
    assert codes == [0]
    assert calls > 0


def test_uncalled_layers_are_probed(microbench, tmp_path):
    ec = sl.load_config(FIG2)
    ec = dataclasses.replace(ec, sim=dataclasses.replace(ec.sim, t_final=0.1))
    acc = {"config.apply_overrides": [], "simulator.to_csv": []}
    assert microbench.probe_uncalled(ec, acc, tmp_path) == list(acc)
    for name, times in acc.items():
        assert times and all(_finite_positive(t) for t in times), name


def test_cli_keeps_the_names_the_workload_patches():
    for name in ("load_config", "apply_overrides", "run_sim", "certify", "main"):
        assert callable(getattr(cli, name)), name
