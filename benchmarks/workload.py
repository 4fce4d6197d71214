"""One workload process: set up, then drive `safelift` CLI commands in rounds.

Run by run.py as `python3 benchmarks/workload.py SPEC.json`; prints one JSON
object as its last line. SPEC holds the mode ("setup" or "measure"), the
trace flag, the run length, the experiment files to parse, the CLI
argument lists of one round and a scratch directory for direct timings.

A round runs every command once, in order, each starting after the previous
one returns (a closed loop with one caller). Rounds repeat until the run
length is used up, so every run attempts whole rounds. Untraced rounds run
the host-speed probe before every command and once after the last.
"""

from __future__ import annotations

import hashlib
import io
import json
import statistics
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import safelift  # noqa: E402
from safelift import cli  # noqa: E402


def setup(spec):
    """The set-up the workload needs before its first command."""
    return [safelift.load_config(p) for p in spec["configs"]]


def steps_per_round(spec, ecs):
    """RK4 steps one round integrates: n_steps per run, per sweep row."""
    total = 0
    for argv, ec in zip(spec["commands"], ecs):
        rows = len(list(safelift.sweep_rows(ec))) if argv[0] == "sweep" else 1
        total += rows * ec.sim.n_steps
    return total


def peak_rss_mb():
    """Peak resident memory of this process image, from VmHWM.

    Not ru_maxrss: Linux carries that across exec from the parent's memory,
    so a child of a large parent would report the parent's peak.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def artifact_stats(out_dirs):
    """(total bytes, sha256 over every artifact) of the command outputs.

    Files are hashed in fixed-size chunks, so that no read here outweighs the
    program's own allocations in peak_rss_mb.
    """
    digest = hashlib.sha256()
    total = 0
    for d in out_dirs:
        for f in sorted(Path(d).iterdir()):
            total += f.stat().st_size
            with open(f, "rb") as fh:
                file_digest = hashlib.file_digest(fh, "sha256").digest()
            digest.update(f.name.encode())
            digest.update(file_digest)
    return total, digest.hexdigest()


def run_round(commands, probes=None):
    """Run every command once; returns (seconds of each command, exit codes).

    Given a list, probes gets one host-speed probe before every command.
    """
    sink = io.StringIO()
    times, codes = [], []
    with redirect_stdout(sink):
        for argv in commands:
            if probes is not None:
                probes.append(hostspeed.probe())
            t0 = time.perf_counter()
            codes.append(cli.main(argv))
            times.append(time.perf_counter() - t0)
    return times, codes


def out_dirs(commands):
    return [argv[argv.index("--out") + 1] for argv in commands]


def normalised_rounds(rounds, probes):
    """Each round's time at the reference host speed.

    Every command's time is divided by the mean of the probes just before
    and just after it, so that the host's speed at that moment cancels.
    """
    ratios = [t / (0.5 * (probes[i] + probes[i + 1]))
              for i, t in enumerate(t for r in rounds for t in r)]
    k = len(rounds[0])
    return [hostspeed.REFERENCE_S * sum(ratios[i:i + k])
            for i in range(0, len(ratios), k)]


def measure(spec, ecs):
    """Untraced rounds, probed between commands: the end-to-end figures."""
    commands = spec["commands"]
    steps = steps_per_round(spec, ecs)
    rounds, probes, codes = [], [], []
    start = time.perf_counter()
    first = None
    while not rounds or time.perf_counter() - start < spec["seconds"]:
        t, c = run_round(commands, probes)
        rounds.append(t)
        codes += c
        if first is None:
            first = artifact_stats(out_dirs(commands))
    probes.append(hostspeed.probe())
    peak = peak_rss_mb()
    last = artifact_stats(out_dirs(commands))
    wall = statistics.median(normalised_rounds(rounds, probes))
    return {
        "codes": codes,
        "identical_rounds": first[1] == last[1],
        "walls": [sum(t) for t in rounds],
        "probe_s": statistics.median(probes),
        "metrics": {
            "wall_s": (wall, "s"),
            "sim_steps_per_s": (steps / wall, "steps/s"),
            "peak_rss_mb": (peak, "MB"),
        },
    }


def traced(spec, ecs):
    """Alternate untraced and traced rounds, then probes and microbenchmarks."""
    from tracing import Tracer, patched
    import microbench

    commands = spec["commands"]
    tracer = Tracer()

    def count_steps(args, traj):
        cfg = args[0]
        n = cfg.n_steps if traj.failure is None else round(traj.failure.time / cfg.dt)
        tracer.count("simulator.steps", n)

    w = tracer.wrap
    spans = [
        (cli, "load_config", w("config.load_config", cli.load_config)),
        (cli, "apply_overrides", w("config.apply_overrides", cli.apply_overrides)),
        (cli, "run_sim", w("simulator.run", cli.run_sim, count_steps)),
        (cli, "certify", w("monitor.certify", cli.certify)),
        (safelift.Trajectory, "to_csv",
         w("simulator.to_csv", safelift.Trajectory.to_csv)),
    ]
    main = w("cli.main", cli.main)

    acc = {name: [] for name in ("config.load_config", "config.apply_overrides",
                                 "simulator.run", "simulator.to_csv",
                                 "monitor.certify", "cli.write")}
    plain_walls, traced_walls, steps, nbytes, codes = [], [], [], [], []
    first = None
    start = time.perf_counter()
    k = 0
    while len(traced_walls) < 2 or time.perf_counter() - start < spec["seconds"]:
        if k % 2 == 0:
            t, c = run_round(commands)
            plain_walls.append(sum(t))
        else:
            tracer.reset()
            with patched(spans + [(cli, "main", main)]):
                t, c = run_round(commands)
            traced_walls.append(sum(t))
            for name in acc:
                if name != "cli.write":
                    acc[name] += tracer.durations(name)
            acc["cli.write"] += tracer.self_times(
                "cli.main", {"config.load_config", "config.apply_overrides",
                             "simulator.run", "monitor.certify"})
            steps.append(tracer.counts.get("simulator.steps", 0))
            nbytes.append(artifact_stats(out_dirs(commands))[0])
        codes += c
        k += 1
        if first is None:
            first = artifact_stats(out_dirs(commands))[1]

    shape_calls, c = microbench.count_shape_calls(lambda: run_round(commands)[1])
    codes += c
    identical = first == artifact_stats(out_dirs(commands))[1]
    probed = microbench.probe_uncalled(ecs[0], acc, Path(spec["scratch"]))
    micro = microbench.microbenchmarks(ecs[0].sim)

    run_total = sum(acc["simulator.run"])
    write_total = sum(acc["cli.write"])
    metrics = {
        "config.load_config_s": (statistics.median(acc["config.load_config"]), "s"),
        "config.apply_overrides_s": (statistics.median(acc["config.apply_overrides"]), "s"),
        "simulator.run_s": (statistics.median(acc["simulator.run"]), "s"),
        "simulator.steps": (statistics.median_low(steps), "count"),
        "simulator.run_step_us": (1e6 * run_total / sum(steps), "us"),
        "simulator.to_csv_s": (statistics.median(acc["simulator.to_csv"]), "s"),
        "cli.write_s": (statistics.median(acc["cli.write"]), "s"),
        "cli.bytes_written": (statistics.median_low(nbytes), "count"),
        "cli.write_mb_per_s": (sum(nbytes) / write_total / 1e6, "MB/s"),
        "monitor.certify_s": (statistics.median(acc["monitor.certify"]), "s"),
        "plant.shape_calls": (shape_calls, "count"),
        "trace.wall_s": (statistics.median(traced_walls), "s"),
        "trace.overhead_s": (statistics.median(traced_walls)
                             - statistics.median(plain_walls), "s"),
    }
    metrics.update(micro)
    return {"codes": codes, "identical_rounds": identical, "probed": probed,
            "walls": plain_walls + traced_walls, "metrics": metrics}


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    ecs = setup(spec)
    if spec["mode"] == "setup":
        ready = time.monotonic()
        print(json.dumps({"ready": ready, "probe_s": hostspeed.probe()}))
        return 0
    result = (traced if spec["trace"] else measure)(spec, ecs)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
