"""Host-speed probe: a fixed pure-Python job that uses no safelift code.

The shared host this benchmark was built on changes its CPU speed by up to
1.8x, switching within seconds and in phases that last minutes. A round of
the workload slows with it, so raw round times measure the host as much as
the program. The probe runs between the workload's commands; dividing the
commands' time by the probe's time taken around them cancels the host's
speed. REFERENCE_S is the probe's time on a fast phase of that host, so
that normalised figures read as seconds at that speed.
"""

from __future__ import annotations

import math
import time

REFERENCE_S = 0.025
REPS = 6            # jobs in one probe: one job sees a single moment of the
                    # host, six average over about 0.2 s of it
_N = 10000


def _job():
    # The interpreter work the CLI does: float arithmetic, f-string
    # formatting, list building and joining.
    rows = []
    acc = 0.0
    for i in range(_N):
        x = 0.001 * i
        y = math.tanh(x) * 1.5 - x * x / (1.0 + x)
        acc += y
        rows.append(f"{x:.17g},{y:.17g},{acc:.17g}")
    return len(",".join(rows))


def probe():
    """Mean seconds one run of the fixed job takes, over REPS runs."""
    t0 = time.perf_counter()
    for _ in range(REPS):
        _job()
    return (time.perf_counter() - t0) / REPS
