"""The repo benchmark: one workload, measured end to end from fresh interpreters.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload trace-sweep --seed 2011 \
        --seconds 34 --trace 0

Each pass is a fresh ``python3 perfbench/worker.py`` process pinned to
one BLAS/OpenMP thread, running the workload's grid for the workload
seed on the serial executor into an empty on-disk store and re-answering
it from the store. Untraced runs repeat a cycle (host-speed probe,
set-up-only interpreter, full pass) until ``--seconds`` is used up, at
least ``MIN_PASSES`` times, and report medians over the passes.
``--trace 1`` runs one untraced cycle and then one traced pass for the
per-layer numbers.

Every pass is checked: per-cell digests against the pinned digests of
the default and held-out seeds, the re-answered digests against the
simulated ones on every seed, collisions <= failures <= attempts for
every replication, and simulated counts equal across the passes of the
run. The last stdout line is the JSON result; the exit code is 1 when a
check fails or the pinned digests are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import grids  # noqa: E402

WORKER = Path(__file__).resolve().parent / "worker.py"
MIN_PASSES = 3
#: Every child must finish inside this many seconds from the start.
TIME_LIMIT_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "reps_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "import.repro_s": "s",
    "scenario.load_s": "s",
    "scenario.topology_s": "s",
    "runner.cold_s": "s",
    "runner.answer_s": "s",
    "analysis.digest_s": "s",
    "trace.profile_s": "s",
    "other_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "store.put_s": "s",
    "store.get_s": "s",
    "store.hit_frac": "ratio",
    "runner.tasks": "count",
    "runner.stacked_cells": "count",
    "runner.batch_coverage": "ratio",
    "runner.task_wall_max_s": "s",
    "batch.inject_s": "s",
    "batch.propose_s": "s",
    "batch.validate_s": "s",
    "batch.resolve_s": "s",
    "batch.mac_s": "s",
    "batch.apply_s": "s",
    "batch.observe_s": "s",
    "batch.fastforward_s": "s",
    "batch.rep_slots": "count",
    "batch.rep_slots_per_s": "1/s",
    "batch.arena_grows": "count",
    "engine.cell_s.opt": "s",
    "engine.cell_s.dbao": "s",
    "engine.cell_s.of": "s",
    "engine.probe_s": "s",
    "engine.rep_slots_per_s": "1/s",
    "radio.attempts": "count",
    "radio.delivery_frac": "ratio",
    "radio.collision_frac": "ratio",
    "radio.dup_frac": "ratio",
    "flood.stalled_reps": "count",
    "flood.wasted_slots": "count",
    # Also printed next to the end-to-end metrics and carried in the
    # result's attempted/failed: it is 0 on most workloads, so it cannot
    # be an end-to-end metric.
    "failed_frac": "ratio",
    "host.probe_s": "s",
}


class PassError(RuntimeError):
    """A worker process failed or timed out."""


def host_probe() -> float:
    """Seconds for a fixed amount of interpreter work: a host-speed gauge."""
    start = time.perf_counter()
    x = 0
    for i in range(1_000_000):
        x = (x * 31 + i) % 1_000_003
    return time.perf_counter() - start


def host_stamp() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cores": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "loadavg": [round(x, 2) for x in os.getloadavg()]}


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    """Spawns worker passes inside a private work dir."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.root = root
        self.work = work
        self.env = child_env(root)
        self.deadline = deadline
        self.stores = 0

    def spawn(self, grid_paths, *extra: str) -> dict:
        self.stores += 1
        store = self.work / f"store{self.stores}"
        t0 = time.monotonic()
        cmd = [sys.executable, str(WORKER),
               *[a for p in grid_paths for a in ("--grid", str(p))],
               "--store", str(store), "--src", str(self.root / "src"),
               "--t0", repr(t0), *extra]
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env,
                                  capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline - t0))
        except subprocess.TimeoutExpired:
            raise PassError("worker pass ran past the time limit") from None
        finally:
            shutil.rmtree(store, ignore_errors=True)
        if proc.returncode != 0:
            raise PassError(f"worker pass exited {proc.returncode}:\n"
                            f"{proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def layer_metrics(record: dict, verdict: dict) -> dict:
    """Per-layer metrics of a traced pass, counts included."""
    reps = [rep for cell in record["cells"] for rep in cell["reps"]]
    attempts = sum(r["attempts"] for r in reps)
    failures = sum(r["failures"] for r in reps)
    deliveries = attempts - failures
    stalled = [r for r in reps if not r["completed"]]
    out = dict(record["layers"])
    out.update({
        "radio.attempts": attempts,
        "radio.delivery_frac": deliveries / attempts if attempts else 0.0,
        "radio.collision_frac":
            sum(r["collisions"] for r in reps) / attempts if attempts else 0.0,
        "radio.dup_frac":
            sum(r["duplicates"] for r in reps) / deliveries
            if deliveries else 0.0,
        "flood.stalled_reps": len(stalled),
        "flood.wasted_slots":
            sum(r["elapsed"] - 1 - r["last_arrival"] for r in stalled),
        "failed_frac": verdict["failed"] / verdict["attempted"],
    })
    return out


def measure(args, root: Path, work: Path) -> int:
    start = time.monotonic()
    runner = Runner(root, work, start + TIME_LIMIT_S)
    pinned = grids.pinned_hashes(grids.load_pins(), args.scale,
                                 args.workload, args.seed)
    paths = grids.write_grids(
        grids.workload_grids(args.workload, args.seed, args.scale), work)
    host = host_stamp()
    # Build step: byte-compile the sources so no pass pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    str(root / "src")], cwd=root, check=True,
                   stdout=subprocess.DEVNULL, timeout=120)

    # Untraced cycles: host probe, set-up-only interpreter (one more
    # setup_s sample), full pass. A traced run makes one untraced cycle
    # and then the traced pass.
    probes, setups, passes = [], [], []
    while True:
        began = time.monotonic()
        probes.append(host_probe())
        setups.append(runner.spawn(paths, "--setup-only")["setup_s"])
        passes.append(runner.spawn(paths))
        setups.append(passes[-1]["setup_s"])
        now = time.monotonic()
        if args.trace or (len(passes) >= MIN_PASSES and
                          now - start + (now - began) > args.seconds):
            break
    records = passes + ([runner.spawn(paths, "--trace")]
                        if args.trace else [])

    verdicts = []
    errors = []
    for i, record in enumerate(records):
        verdict = grids.assess(record, pinned)
        verdicts.append(verdict)
        errors += [f"pass {i}: {e}" for e in verdict["errors"]]
        errors += [f"pass {i}: {e}" for e in record["errors"]]
        if grids.simulated_counts(record) != \
                grids.simulated_counts(records[0]):
            errors.append(f"pass {i}: simulated counts differ from pass 0")
    attempted = sum(v["attempted"] for v in verdicts)
    failed = sum(v["failed"] for v in verdicts)
    reps = verdicts[0]["attempted"]

    print(f"host: {host['cores']} cores, {host['cpu']}, python "
          f"{host['python']}, numpy {passes[0]['numpy']}, loadavg "
          f"{'/'.join(map(str, host['loadavg']))}")
    print(f"workload {args.workload} ({args.scale} scale, seed {args.seed}, "
          f"{reps} replications per pass, pinned digests: "
          f"{'checked' if pinned is not None else 'none for this seed'})")
    for i, record in enumerate(passes):
        print(f"  pass {i}: wall {record['wall_s']:.3f} s, setup "
              f"{record['setup_s']:.3f} s, cold run {record['cold_s']:.3f} "
              f"s, host probe {probes[i]:.4f} s")
    if args.trace:
        metrics = layer_metrics(records[-1], verdicts[-1])
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - \
            statistics.median(r["wall_s"] for r in passes)
        metrics["host.probe_s"] = statistics.median(probes)
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in passes),
            "setup_s": statistics.median(setups),
            "reps_per_s": statistics.median(reps / r["cold_s"] for r in passes),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
        }
        units = END_TO_END
    for name, unit in units.items():
        print(f"  {name:<24} {metrics[name]:>14.6g} {unit}")
    print(f"  {'failed_frac':<24} {failed / attempted:>14.6g} "
          f"{PER_LAYER['failed_frac']} ({failed}/{attempted} replications: "
          f"{sum(v['incomplete'] for v in verdicts)} incomplete at the "
          f"horizon, {sum(v['mismatched'] for v in verdicts)} failing a "
          f"digest or invariant check)")
    for error in errors:
        print(f"CHECK FAILED: {error}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if not errors else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload (see perfbench/README.md).")
    parser.add_argument("--workload", required=True, choices=grids.WORKLOADS)
    parser.add_argument("--seed", type=int, default=grids.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=grids.SCALES, default="bench",
                        help="smoke: tiny grids for the benchmark's tests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"{root} holds no src/repro: run from the root of a checkout",
              file=sys.stderr)
        return 2
    work = root / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return measure(args, root, work)
    except (PassError, grids.PinError) as exc:
        print(exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
