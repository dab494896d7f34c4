"""One benchmark pass in a fresh interpreter, through the public API only.

The pass does what ``repro run-scenario`` does, timed from interpreter
start: import the CLI, load and validate the scenario files, build the
topologies, simulate the grid into an empty on-disk result store
(``put_many``), answer the whole grid again from a fresh store on the
same directory (``get_many``) and digest both answers with
``grid_digest``. ``--setup-only`` stops before the first runner call.

A wrapper times the store's ``get_many``/``put_many``. With ``--trace``
the pass also reports each layer, timed from outside: each batchable
cell runs again, per cell and unstacked, through
``run_replication_chunk`` with a ``PhaseProfiler``; each serial-engine
replication runs again through ``run_replication`` with and without its
probe floods.

The last stdout line is one JSON record for ``run.py``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

clock = time.monotonic  # CLOCK_MONOTONIC: comparable with run.py's clock

PHASES = ("inject", "propose", "validate", "resolve", "mac", "apply",
          "observe", "fastforward")
SERIAL_PROTOCOLS = ("opt", "dbao", "of")


class TimedStore:
    """A ``ResultStore`` whose batched lookups and writes are timed."""

    def __init__(self, store):
        self.store = store
        self.get_s = 0.0
        self.put_s = 0.0

    def key_for(self, topo, spec):
        return self.store.key_for(topo, spec)

    def get_many(self, keys):
        start = time.perf_counter()
        try:
            return self.store.get_many(keys)
        finally:
            self.get_s += time.perf_counter() - start

    def put_many(self, entries):
        start = time.perf_counter()
        try:
            return self.store.put_many(entries)
        finally:
            self.put_s += time.perf_counter() - start


def _hash(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _rep_facts(result) -> dict:
    m = result.metrics
    return {
        "completed": bool(result.completed),
        "attempts": int(m.tx_attempts),
        "failures": int(m.tx_failures),
        "collisions": int(m.collisions),
        "duplicates": int(m.duplicates),
        "elapsed": int(m.elapsed_slots),
        "last_arrival": int(result.arrival.max()),
    }


def _digest_cells(grids, summaries, grid_digest):
    """Per-cell digest dicts of every grid, in run order."""
    cells, pos = [], 0
    for grid in grids:
        n = len(grid)
        cells.extend(grid_digest(grid, summaries[pos:pos + n])["cells"])
        pos += n
    return cells


def _same_run(a, b) -> bool:
    return (a.metrics.elapsed_slots, a.metrics.tx_attempts, a.completed) == \
        (b.metrics.elapsed_slots, b.metrics.tx_attempts, b.completed)


def profile_layers(scenarios, summaries, errors) -> dict:
    """Re-run every cell outside the runner to time the engine layers.

    Batchable cells run per cell and unstacked through
    ``run_replication_chunk(profiler=)``; serial-engine replications run
    through ``run_replication`` with probes on, then off. Each re-run
    must reproduce the grid run's replication.
    """
    from repro.scenario import build_topology
    from repro.sim.observers import PhaseProfiler
    from repro.sim.runner import (run_replication, run_replication_chunk,
                                  scenario_rep_batchable)

    phase_s = dict.fromkeys(PHASES, 0.0)
    rep_slots = 0
    batch_wall = 0.0
    cell_s = {p: [] for p in SERIAL_PROTOCOLS}
    probe_on = probe_off = 0.0
    serial_slots = 0
    for scenario, summary in zip(scenarios, summaries):
        topo = build_topology(scenario.topology)
        n = scenario.n_replications
        if scenario_rep_batchable(scenario) and n > 1:
            profiler = PhaseProfiler(sample_allocs=False)
            start = clock()
            results = run_replication_chunk(topo, scenario, 0, n,
                                            profiler=profiler)
            batch_wall += clock() - start
            for phase, secs in profiler.phase_seconds.items():
                phase_s[phase] = phase_s.get(phase, 0.0) + secs
            rep_slots += profiler.slots
        else:
            no_probe = dataclasses.replace(scenario,
                                           measure_transmission_delay=False)
            results = []
            for rep in range(n):
                start = clock()
                results.append(run_replication(topo, scenario, rep))
                mid = clock()
                run_replication(topo, no_probe, rep)
                end = clock()
                probe_on += mid - start
                probe_off += end - mid
                cell_s[scenario.protocol].append(mid - start)
                serial_slots += results[-1].metrics.elapsed_slots
        if not all(map(_same_run, results, summary.results)):
            errors.append(f"profiled re-run of {scenario.protocol} "
                          f"duty={scenario.duty_ratio} diverged from the "
                          f"grid run")
    layers = {f"batch.{p}_s": phase_s.get(p, 0.0) for p in PHASES}
    layers["batch.rep_slots"] = rep_slots
    layers["batch.rep_slots_per_s"] = rep_slots / batch_wall \
        if batch_wall else 0.0
    for protocol in SERIAL_PROTOCOLS:
        times = cell_s[protocol]
        layers[f"engine.cell_s.{protocol}"] = \
            sum(times) / len(times) if times else 0.0
    layers["engine.probe_s"] = probe_on - probe_off
    layers["engine.rep_slots_per_s"] = serial_slots / probe_on \
        if probe_on else 0.0
    return layers


def run_pass(args) -> dict:
    t0 = args.t0
    marks = {"start": clock()}
    import repro.cli  # noqa: F401  (what every CLI invocation imports)
    from repro.analysis.report import grid_digest
    from repro.exec import ResultStore, SerialExecutor
    from repro.scenario import build_topology, load_scenario_file
    from repro.sim.runner import run_scenarios

    marks["import"] = clock()
    src = Path(args.src).resolve()
    if src not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"repro was imported from {repro.__file__}, "
                         f"not from {src}")
    grids = [load_scenario_file(path) for path in args.grid]
    scenarios = [s for grid in grids for s in grid.scenarios()]
    marks["load"] = clock()
    for scenario in scenarios:  # the runner reuses these from the cache
        build_topology(scenario.topology)
    marks["topology"] = clock()
    record = {"setup_s": marks["topology"] - t0}
    if args.setup_only:
        return record

    cold_store = TimedStore(ResultStore(args.store))
    executor = SerialExecutor()
    cold = run_scenarios(scenarios, executor=executor, store=cold_store)
    marks["cold"] = clock()
    answer_store = TimedStore(ResultStore(args.store))
    answer_executor = SerialExecutor()
    answered = run_scenarios(scenarios, executor=answer_executor,
                             store=answer_store)
    marks["answer"] = clock()
    cold_cells = _digest_cells(grids, cold, grid_digest)
    answer_cells = _digest_cells(grids, answered, grid_digest)
    marks["digest"] = clock()

    record.update(
        wall_s=marks["digest"] - t0,
        cold_s=marks["cold"] - marks["topology"],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        numpy=sys.modules["numpy"].__version__,
        answer_hits=answer_store.store.hits,
        answer_misses=answer_store.store.misses,
        answer_tasks=answer_executor.stats.tasks,
        errors=[],
        cells=[
            {"label": ", ".join(f"{k}={v}" for k, v in c["axes"].items())
             or s.protocol,
             "hash": _hash(c), "answer_hash": _hash(a),
             "reps": [_rep_facts(r) for r in summary.results]}
            for c, a, s, summary in zip(cold_cells, answer_cells, scenarios,
                                        cold)
        ],
    )
    if not args.trace:
        return record

    layers = profile_layers(scenarios, cold, record["errors"])
    marks["profile"] = clock()
    stats = executor.stats
    reps = stats.batched_reps + stats.serial_reps
    spans = {
        "import.repro_s": marks["import"] - marks["start"],
        "scenario.load_s": marks["load"] - marks["import"],
        "scenario.topology_s": marks["topology"] - marks["load"],
        "runner.cold_s": marks["cold"] - marks["topology"],
        "runner.answer_s": marks["answer"] - marks["cold"],
        "analysis.digest_s": marks["digest"] - marks["answer"],
        "trace.profile_s": marks["profile"] - marks["digest"],
    }
    layers.update(spans)
    layers.update({
        "trace.wall_s": marks["profile"] - t0,
        # The spans above are contiguous, so the only traced time they
        # leave out is interpreter start-up before the first mark.
        "other_s": marks["start"] - t0,
        "store.put_s": cold_store.put_s,
        "store.get_s": cold_store.get_s + answer_store.get_s,
        "store.hit_frac": answer_store.store.hits / len(scenarios),
        "runner.tasks": stats.tasks,
        "runner.stacked_cells": stats.stacked_cells,
        "runner.batch_coverage": stats.batched_reps / reps if reps else 0.0,
        "runner.task_wall_max_s": stats.task_s_max,
        "batch.arena_grows": stats.arena_grows,
    })
    record["layers"] = layers
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grid", action="append", required=True,
                        help="scenario file (repeatable, run in order)")
    parser.add_argument("--store", required=True,
                        help="empty result-store directory")
    parser.add_argument("--src", required=True,
                        help="source root repro must be imported from")
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() just before this process "
                             "was spawned")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    print(json.dumps(run_pass(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
