"""Per-layer figures that the CLI spans cannot give.

- count_shape_calls: how often the plant's shape callables g1, f2, g2 run in
  one round. They are wrapped in counters, not timers: one call costs tens
  of nanoseconds, less than a clock read.
- probe_uncalled: a direct timing, on the workload's own first input, of a
  spanned function the workload's commands never call, so that every layer
  figure exists on every workload.
- microbenchmarks: median time per call at a fixed interior state.
"""

from __future__ import annotations

import statistics
import timeit
from dataclasses import replace
from time import perf_counter

import safelift as sl
from safelift import config as sl_config
from tracing import patched

PROBE_CALLS = 9
BATCHES = 7
BATCH_SECONDS = 0.02


def count_shape_calls(one_round):
    """(shape calls in one round, its exit codes); the round runs with every
    DC-motor plant built by load_config carrying counted shape callables."""
    calls = [0]

    def counted(fn):
        def shape(*args):
            calls[0] += 1
            return fn(*args)
        return shape

    real = sl_config.dc_motor

    def counting_dc_motor(*args, **kwargs):
        p = real(*args, **kwargs)
        return replace(p, g1=counted(p.g1), f2=counted(p.f2), g2=counted(p.g2))

    with patched([(sl_config, "dc_motor", counting_dc_motor)]):
        codes = one_round()
    return calls[0], codes


def _time_calls(fn, n=PROBE_CALLS):
    times = []
    for _ in range(n):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return times


def probe_uncalled(ec, acc, scratch):
    """Fill acc for apply_overrides and to_csv when no command called them."""
    probed = []
    sim = ec.sim
    if not acc["config.apply_overrides"]:
        # The same keys sweep_grid overrides, at the config's own values.
        same = {"k1": sim.gains.k1, "x1d": sim.reference.x1d, "x2": sim.x0[1]}
        acc["config.apply_overrides"] = _time_calls(
            lambda: sl.apply_overrides(sim, same))
        probed.append("config.apply_overrides")
    if not acc["simulator.to_csv"]:
        first_row = next(sl.sweep_rows(ec), (0, {}))[1]
        traj = sl.run(sl.apply_overrides(sim, first_row))
        path = scratch / "probe_trace.csv"
        acc["simulator.to_csv"] = _time_calls(lambda: traj.to_csv(path))
        path.unlink()
        probed.append("simulator.to_csv")
    return probed


def _per_call_us(stmt, names):
    timer = timeit.Timer(stmt, globals=names)
    once = timer.timeit(100) / 100
    number = max(100, int(BATCH_SECONDS / max(once, 1e-9)))
    return 1e6 * statistics.median(t / number for t in timer.repeat(BATCHES, number))


def microbenchmarks(sim):
    """Median µs per call of the public per-state functions."""
    ss, fam = sim.safe_set, sim.family
    x = (0.3 * ss.x1_max, 0.4 * ss.x2_max)
    est = sl.EstimatorState(p2_hat=0.8, theta1_hat=-3.0)
    dyn = sim.dynamics()
    frame = sl.lift(x, ss, fam)
    names = dict(sl=sl, sim=sim, ss=ss, fam=fam, x=x, est=est, dyn=dyn,
                 frame=frame, z=frame.z, ref=sim.reference, gains=sim.gains,
                 psign=sim.p2_law_sign, x1=x[0], x2=x[1], g1=sim.plant.g1,
                 f2=sim.plant.f2, g2=sim.plant.g2)
    names["u"] = sl.evaluate(dyn, frame, sim.reference, sim.gains, est,
                             sim.p2_law_sign).u
    cases = {
        "lifting.lift_us": "sl.lift(x, ss, fam)",
        "lifting.unlift_us": "sl.unlift(z, ss, fam)",
        "controller.evaluate_us": "sl.evaluate(dyn, frame, ref, gains, est, psign)",
        "lifted_dynamics.rhs_us": "dyn.rhs(z, u)",
        "monitor.lyapunov_us": "sl.lyapunov(dyn, frame, ref, gains, est)",
        "simulator.step_us": "sl.step(sim, x, est)",
        "plant.shape_us": "g1(x1); f2(x1, x2); g2(x1, x2)",
    }
    return {name: (_per_call_us(stmt, names), "us") for name, stmt in cases.items()}
