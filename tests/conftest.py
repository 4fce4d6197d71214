"""Shared fixtures: the DC-motor benchmark scenario and its variants."""

import dataclasses

import pytest

import safelift as sl

# The benchmark scenario used throughout the suite: DC motor with the
# default constants, box (-2, 2) x (-1, 1), target -1.9 close to the
# boundary, start at (0, 0.9), unit gains, estimates (1, 0).
BENCH = dict(x1_max=2.0, x2_max=1.0, x1d=-1.9, x0=(0.0, 0.9),
             k1=1.0, gamma=1.0, alpha=1.0, p2_hat0=1.0, theta1_hat0=0.0)


@pytest.fixture(scope="session")
def motor():
    return sl.dc_motor()


@pytest.fixture(scope="session")
def box():
    return sl.SafeSet(BENCH["x1_max"], BENCH["x2_max"])


@pytest.fixture(scope="session")
def tanh_fam():
    return sl.tanh_family()


@pytest.fixture(scope="session")
def logit_fam():
    return sl.logit_family()


@pytest.fixture(scope="session")
def gains():
    return sl.ControllerGains(k1=BENCH["k1"], gamma=BENCH["gamma"],
                              alpha=BENCH["alpha"])


@pytest.fixture(scope="session")
def ref(box, tanh_fam):
    return sl.Reference.for_target(BENCH["x1d"], box, tanh_fam)


@pytest.fixture(scope="session")
def bench_cfg(motor, box, gains, tanh_fam):
    """Factory for the benchmark SimConfig with selected overrides."""

    base = sl.SimConfig(plant=motor, safe_set=box, gains=gains, x1d=BENCH["x1d"],
                        x0=BENCH["x0"],
                        est0=sl.EstimatorState(BENCH["p2_hat0"],
                                               BENCH["theta1_hat0"]),
                        family=tanh_fam, dt=1e-3, t_final=30.0)

    def make(**overrides):
        return dataclasses.replace(base, **overrides) if overrides else base

    return make


@pytest.fixture(scope="session")
def bench_dyn(bench_cfg):
    return bench_cfg().dynamics()


@pytest.fixture(scope="session")
def run_plus(bench_cfg):
    """Benchmark run under the default (+1, certified) update sign."""
    return sl.run(bench_cfg())


@pytest.fixture(scope="session")
def run_minus(bench_cfg):
    """Benchmark run under the alternate (-1) update-sign variant."""
    return sl.run(bench_cfg(p2_law_sign=-1.0))
