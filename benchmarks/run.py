"""safelift benchmark: one command, one workload per call.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; nothing needs installing, because
the workload process puts src/ on its own import path. Inputs are made from
the seed, outputs go to benchmarks/out/NAME/ (ignored by git). The workload
runs in its own single-threaded process; set-up time is measured on separate
fresh processes. The end-to-end times are normalised to a reference host
speed by a fixed pure-Python probe (hostspeed.py); the raw times are printed
on the summary line. With --trace 0 the last line of output is a JSON
object with the end-to-end metrics, with --trace 1 with the per-layer
metrics. The exit code is 0 only when every output check passes.

Workloads (see README.md):
    run_artifacts  `safelift run` on both bundled configs: CSV writing
    sweep_grid     `safelift sweep` on a seeded k1 x x1d x x2(0) grid
    long_horizon   `safelift run` of 300 000 steps with a thinned log
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One thread per process; set before numpy loads here or in a child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import checks  # noqa: E402
import hostspeed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("run_artifacts", "sweep_grid", "long_horizon")
SETUP_RUNS = 24         # measured set-up processes, half before and half
                        # after the workload process, after one warm-up
CHILD_GRACE_S = 90      # beyond --seconds, before a workload process is killed

SWEEP_CONFIG = """\
# Generated by benchmarks/run.py from seed {seed}: the near-boundary DC-motor
# scenario of configs/sweep_k1.cfg over a k1 x x1d x x2(0) grid.

[plant]
type = dc_motor

[safe_set]
x1_max = 2.0
x2_max = 1.0

[lifting]
family = tanh

[controller]
k1 = 1.0
gamma = 1.0
alpha = 1.0
p2_law_sign = -1

[reference]
x1d = -1.9

[initial]
x1 = 0.0
x2 = 0.9
p2_hat = 1.0
theta1_hat = 0.0

[simulation]
dt = 0.001
t_final = 10.0
log_stride = 10

[sweep]
k1 = {k1}
x1d = {x1d}
x2 = {x2}
"""


def _draw(rng, lo, hi, n):
    """n distinct values, 3 decimals (so sweep labels print them exactly)."""
    vals = set()
    while len(vals) < n:
        vals.add(round(rng.uniform(lo, hi), 3))
    return sorted(vals)


def make_inputs(workload, seed, out):
    """(configs, commands, checks) for one workload; generated files go to out.

    Each check is (kind, config, output directory).
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "run_artifacts":
        configs = ["configs/dc_motor_fig2.cfg", "configs/dc_motor_certified.cfg"]
        dirs = [out / "fig2", out / "certified"]
        commands = [["run", c, "--out", str(d)] for c, d in zip(configs, dirs)]
        return configs, commands, [("run", c, d) for c, d in zip(configs, dirs)]
    if workload == "sweep_grid":
        cfg = out / "sweep_grid.cfg"
        cfg.write_text(SWEEP_CONFIG.format(
            seed=seed,
            k1=", ".join(f"{v:g}" for v in _draw(rng, 0.5, 2.0, 3)),
            x1d=", ".join(f"{v:g}" for v in _draw(rng, -1.9, 1.9, 3)),
            x2=", ".join(f"{v:g}" for v in _draw(rng, -0.9, 0.9, 3))))
        return ([str(cfg)], [["sweep", str(cfg), "--out", str(out / "sweep")]],
                [("sweep", str(cfg), out / "sweep")])
    if workload == "long_horizon":
        # The certified (+1 law) scenario at dt = 1e-4 with a log every 100
        # steps; the seed moves the start velocity and the target.
        parser = configparser.ConfigParser()
        parser.read(ROOT / "configs" / "dc_motor_certified.cfg")
        parser["simulation"]["dt"] = "0.0001"
        parser["simulation"]["log_stride"] = "100"
        parser["initial"]["x2"] = f"{round(rng.uniform(0.5, 0.95), 3):g}"
        parser["reference"]["x1d"] = f"{round(rng.uniform(-1.9, -1.0), 3):g}"
        cfg = out / "long_horizon.cfg"
        with open(cfg, "w") as fh:
            parser.write(fh)
        return ([str(cfg)], [["run", str(cfg), "--out", str(out / "long")]],
                [("run", str(cfg), out / "long")])
    raise ValueError(workload)


def child(spec, out, timeout):
    """Run workload.py on spec; returns (its last stdout line as JSON,
    monotonic time just before it started)."""
    path = out / f"spec_{spec['mode']}.json"
    path.write_text(json.dumps(spec))
    started = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "workload.py"), str(path)],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), started


def setup_times(spec, out, n):
    """(raw, normalised) seconds from start to ready of n fresh set-up
    processes; each is normalised by the probe its process runs once ready."""
    raw, normalised = [], []
    for _ in range(n):
        ready, started = child(dict(spec, mode="setup"), out, CHILD_GRACE_S)
        raw.append(ready["ready"] - started)
        normalised.append(raw[-1] * hostspeed.REFERENCE_S / ready["probe_s"])
    return raw, normalised


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "safelift" / "__init__.py").is_file():
        print(f"no safelift sources under {ROOT / 'src'}; run from a source "
              f"checkout", file=sys.stderr)
        return 2

    out = HERE / "out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    configs, commands, to_check = make_inputs(args.workload, args.seed, out)
    spec = {"mode": "measure", "trace": args.trace, "seconds": args.seconds,
            "configs": configs, "commands": commands, "scratch": str(out)}

    # Set-up is sampled on both sides of the workload run, so that its median
    # spans the run's time instead of one moment of the host.
    metrics = {}
    if not args.trace:
        setup_times(spec, out, 1)    # warm-up: writes the bytecode cache
        raw, setup = setup_times(spec, out, SETUP_RUNS // 2)
    result, _ = child(spec, out, args.seconds + CHILD_GRACE_S)
    if not args.trace:
        more_raw, more = setup_times(spec, out, SETUP_RUNS - SETUP_RUNS // 2)
        raw += more_raw
        setup += more
        metrics["setup_s"] = (statistics.median(setup), "s")
    metrics.update(result["metrics"])

    problems = [] if result["identical_rounds"] else \
        ["artifacts differ between rounds of the same inputs"]
    for kind, cfg, out_dir in to_check:
        if kind == "run":
            problems += checks.check_run(cfg, out_dir)
        else:
            problems += checks.check_sweep(cfg, out_dir, args.seed)
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)

    codes = result["codes"]
    print(f"{args.workload}: {len(codes)} commands; raw round walls (s): "
          + " ".join(f"{w:.3f}" for w in result["walls"])
          + (f"; raw medians: wall {statistics.median(result['walls']):.4f} s,"
             f" set-up {statistics.median(raw):.4f} s, host-speed probe "
             f"{result['probe_s']:.4f} s (reference {hostspeed.REFERENCE_S} s)"
             if not args.trace else "")
          + (f"; probed directly: {', '.join(result['probed'])}"
             if result.get("probed") else ""))
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(codes),
        "failed": sum(1 for c in codes if c != 0),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
