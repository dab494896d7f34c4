"""Run-to-run spread of the benchmark: interleaved runs over many seeds.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --seeds 1-10 --out spread.json

Runs ``run.py`` once per (seed, workload), echoing its report, and
rotates the workload order from seed to seed so that host drift spreads
over every workload instead of landing on one. ``--seeds 2011`` is the
one command that runs every workload once and checks the pinned
digests. For each workload and metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the
spread ``(q3 - q1) / median`` next to a third of the metric's bound in
``BENCHMARK.json``. ``--out`` writes every run, the host stamps and the
summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import grids  # noqa: E402

RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(grids.WORKLOADS))
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write runs and summary as JSON")
    args = parser.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads.split(",")
    runs = []
    for k, seed in enumerate(parse_seeds(args.seeds)):
        for j in range(len(workloads)):
            workload = workloads[(j + k) % len(workloads)]
            began = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=240)
            took = time.monotonic() - began
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else None
            host = next((line for line in lines if line.startswith("host:")),
                        "")
            runs.append({"workload": workload, "seed": seed,
                         "exit": proc.returncode, "seconds": took,
                         "host": host, "report": lines[:-1],
                         "result": result})
            status = "ok" if proc.returncode == 0 else \
                f"EXIT {proc.returncode}: {proc.stderr.strip()[-300:]}"
            print(f"seed {seed:>5} {workload:<13} {took:6.1f} s  {status}")
            for line in lines[:-1]:
                print(f"    {line}")
            sys.stdout.flush()

    summary = {}
    print(f"\n{'workload':<13} {'metric':<24} {'median':>11} {'q1':>11} "
          f"{'q3':>11} {'spread':>7} {'bound/3':>7}")
    for workload in workloads:
        results = [r["result"] for r in runs
                   if r["workload"] == workload and r["result"]]
        if len(results) < 2:
            continue
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            s = summarize(values)
            summary.setdefault(workload, {})[name] = dict(
                s, unit=results[0]["metrics"][name]["unit"], n=len(values))
            third = bounds.get(name, float("nan")) / 3
            flag = "" if not s["spread"] > third else "  > bound/3"
            print(f"{workload:<13} {name:<24} {s['median']:>11.5g} "
                  f"{s['q1']:>11.5g} {s['q3']:>11.5g} {s['spread']:>7.3f} "
                  f"{third:>7.3f}{flag}")
    if args.out:
        Path(args.out).write_text(
            json.dumps({"runs": runs, "summary": summary}, indent=1) + "\n",
            encoding="utf-8")
    return 0 if all(r["exit"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
