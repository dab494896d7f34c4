"""Workload definitions and the correctness gate of the repo benchmark.

A workload is a list of scenario-file dicts (the format
``repro run-scenario`` reads) generated from the workload seed. The
program under test only ever sees these files. The seed draws the wake
schedules, channel losses and MAC backoffs (``Scenario.seed``); the
substrates stay fixed, because the paper's grids all run on one 298-node
GreenOrbs trace and some synthetic-trace seeds cannot be built at all.

This module is stdlib-only: the orchestrator (``run.py``) imports it
without importing the program.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional

WORKLOADS = ("trace-sweep", "mac-csma", "probe-serial")
DEFAULT_SEED = 2011
#: Pinned besides the default seed; never used while tuning the benchmark.
HELD_OUT_SEED = 4242
SCALES = ("bench", "smoke")

PINS_PATH = Path(__file__).resolve().parent / "pins.json"

#: GreenOrbs synthetic trace: 298 nodes at bench scale, 120 at smoke.
_TRACE = {
    "bench": {"kind": "greenorbs", "seed": DEFAULT_SEED},
    "smoke": {"kind": "greenorbs", "seed": DEFAULT_SEED,
              "params": {"n_sensors": 120}},
}
#: The mac-duty geometric deployment (density-matched across scales).
_DEPLOYMENT = {
    "bench": {"kind": "geometric", "seed": DEFAULT_SEED,
              "params": {"n_nodes": 60, "area_m": 254.6,
                         "placement": "uniform"}},
    "smoke": {"kind": "geometric", "seed": DEFAULT_SEED,
              "params": {"n_nodes": 30, "area_m": 180.0,
                         "placement": "uniform"}},
}
_SIZES = {
    # packets, duty ratios, replications per trace-sweep cell,
    # replications per mac-csma cell, replications per probe-serial
    # protocol (OF costs ~7x OPT per replication, so it gets fewest).
    # Sized so that three passes of each workload fit in a run.
    "bench": dict(packets=20, duties=[0.02, 0.05, 0.1, 0.2], sweep_reps=2,
                  mac_reps=12, probe_reps={"opt": 2, "dbao": 1, "of": 1}),
    "smoke": dict(packets=4, duties=[0.05, 0.2], sweep_reps=2,
                  mac_reps=2, probe_reps={"opt": 1, "dbao": 1, "of": 1}),
}


def _grid(name: str, scenario: dict, axes: Optional[dict] = None) -> dict:
    data = {"schema": 1, "name": name, "scenario": scenario}
    if axes:
        data["axes"] = axes
    return data


def workload_grids(workload: str, seed: int, scale: str = "bench",
                   sim: Optional[dict] = None) -> List[dict]:
    """The scenario files of ``workload`` for ``seed``, in run order.

    ``sim`` adds a per-scenario engine override to every cell (the tests
    use it to censor replications with ``max_slots``).
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    size = _SIZES[scale]
    base = {"n_packets": size["packets"], "seed": int(seed)}
    if sim:
        base["sim"] = dict(sim)
    if workload == "trace-sweep":
        return [_grid(
            "trace-sweep",
            dict(base, protocol="opt", duty_ratio=size["duties"][0],
                 n_replications=size["sweep_reps"], topology=_TRACE[scale]),
            {"protocol": ["opt", "dbao", "of"],
             "duty_ratio": size["duties"]},
        )]
    if workload == "mac-csma":
        return [_grid(
            "mac-csma",
            dict(base, protocol="dbao", duty_ratio=size["duties"][0],
                 n_replications=size["mac_reps"],
                 topology=_DEPLOYMENT[scale]),
            {"duty_ratio": size["duties"], "mac": ["ideal", "csma_802154"]},
        )]
    return [
        _grid(f"probe-serial-{protocol}",
              dict(base, protocol=protocol, duty_ratio=0.05,
                   n_replications=reps, measure_transmission_delay=True,
                   topology=_TRACE[scale]))
        for protocol, reps in size["probe_reps"].items()
    ]


def write_grids(grids: List[dict], directory: Path) -> List[Path]:
    """Write each grid as a scenario file; returns the paths in order."""
    paths = []
    for i, grid in enumerate(grids):
        path = directory / f"grid{i}-{grid['name']}.json"
        path.write_text(json.dumps(grid, indent=1) + "\n", encoding="utf-8")
        paths.append(path)
    return paths


class PinError(RuntimeError):
    """The pinned digests the correctness gate needs are missing."""


def load_pins() -> Dict:
    """``{scale: {workload: {seed: [cell hash, ...]}}}`` from ``PINS_PATH``."""
    if not PINS_PATH.is_file():
        raise PinError(f"{PINS_PATH} is missing: the correctness gate has "
                       f"no pinned digests (python3 perfbench/pin.py)")
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


def pinned_hashes(pins: Dict, scale: str, workload: str,
                  seed: int) -> Optional[List[str]]:
    """The pinned cell hashes of ``seed``; None for an unpinned seed.

    Raises ``PinError`` when the default or the held-out seed of the
    workload is not pinned, so a damaged pins file cannot switch the
    gate off.
    """
    table = pins.get(scale, {}).get(workload, {})
    missing = [s for s in (DEFAULT_SEED, HELD_OUT_SEED) if str(s) not in table]
    if missing:
        raise PinError(f"{PINS_PATH.name} pins no {scale} {workload} digests "
                       f"for seed(s) {', '.join(map(str, missing))}")
    return table.get(str(seed))


def assess(record: dict, pinned: Optional[List[str]]) -> dict:
    """Apply the correctness gate to one worker pass record.

    A replication fails when it is incomplete at the horizon, when its
    cell's digest differs from the pinned digest or from the re-answered
    digest, or when it breaks collisions <= failures <= attempts. Only
    the incomplete replications are expected: every other reason makes
    the pass incorrect.
    """
    cells = record["cells"]
    errors = []
    if pinned is not None and len(pinned) != len(cells):
        errors.append(f"pinned digest has {len(pinned)} cells, "
                      f"the run has {len(cells)}")
        pinned = None
    failed = incomplete = mismatched = 0
    for i, cell in enumerate(cells):
        bad_cell = cell["hash"] != cell["answer_hash"]
        if bad_cell:
            errors.append(f"cell {i} ({cell['label']}): re-answered digest "
                          f"differs from the simulated one")
        if pinned is not None and cell["hash"] != pinned[i]:
            bad_cell = True
            errors.append(f"cell {i} ({cell['label']}): digest "
                          f"{cell['hash']} != pinned {pinned[i]}")
        for rep in cell["reps"]:
            broken = not (0 <= rep["collisions"] <= rep["failures"]
                          <= rep["attempts"])
            if broken:
                errors.append(f"cell {i} ({cell['label']}): collisions <= "
                              f"failures <= attempts violated")
            incomplete += not rep["completed"]
            mismatched += bad_cell or broken
            failed += bad_cell or broken or not rep["completed"]
    if record["answer_hits"] != len(cells) or record["answer_misses"]:
        errors.append(f"re-answer pass: {record['answer_hits']} hit(s), "
                      f"{record['answer_misses']} miss(es) for "
                      f"{len(cells)} cell(s)")
    if record["answer_tasks"]:
        errors.append(f"re-answer pass simulated {record['answer_tasks']} "
                      f"task(s)")
    attempted = sum(len(cell["reps"]) for cell in cells)
    return {"attempted": attempted, "failed": failed,
            "incomplete": incomplete, "mismatched": mismatched,
            "errors": errors}


def simulated_counts(record: dict) -> List:
    """Everything in a pass record that the simulation determines."""
    return [(cell["hash"], cell["reps"]) for cell in record["cells"]]
