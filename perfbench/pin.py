"""Record the pinned per-cell digests the benchmark checks runs against.

Usage, from the root of a checkout::

    python3 perfbench/pin.py                  # default + held-out seed
    python3 perfbench/pin.py --scale smoke --seeds 2011

Runs one untraced pass per workload for each given seed and writes the
per-cell digest hashes into ``pins.json``.
Re-pin only when a change is meant to alter simulated results (an
``ENGINE_VERSION`` bump), and say so.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import grids  # noqa: E402
from run import Runner  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=grids.SCALES, default="bench")
    parser.add_argument("--seeds", default=f"{grids.DEFAULT_SEED},"
                                            f"{grids.HELD_OUT_SEED}")
    parser.add_argument("--workloads", default=",".join(grids.WORKLOADS))
    args = parser.parse_args(argv)

    root = Path.cwd()
    pins = grids.load_pins() if grids.PINS_PATH.is_file() else {}
    work = root / ".perfbench-work" / "pin"
    for workload in args.workloads.split(","):
        for seed in map(int, args.seeds.split(",")):
            work.mkdir(parents=True)
            try:
                paths = grids.write_grids(
                    grids.workload_grids(workload, seed, args.scale), work)
                record = Runner(root, work, time.monotonic() + 600).spawn(
                    paths)
            finally:
                shutil.rmtree(work)
            verdict = grids.assess(record, None)
            if verdict["errors"] or record["errors"]:
                print(f"{workload} seed {seed}: not pinned, checks failed: "
                      f"{verdict['errors'] + record['errors']}")
                return 1
            pins.setdefault(args.scale, {}).setdefault(workload, {})[
                str(seed)] = [cell["hash"] for cell in record["cells"]]
            print(f"{workload} seed {seed}: {len(record['cells'])} cells, "
                  f"{verdict['incomplete']}/{verdict['attempted']} "
                  f"replications incomplete")
    grids.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True)
                               + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
