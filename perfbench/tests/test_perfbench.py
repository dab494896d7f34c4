"""Smoke-size tests of the benchmark itself.

Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))

import grids  # noqa: E402
import run  # noqa: E402
from run import END_TO_END, PER_LAYER, Runner  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SIMULATED = ("radio.attempts", "radio.delivery_frac", "radio.collision_frac",
             "radio.dup_frac", "batch.rep_slots", "flood.stalled_reps",
             "flood.wasted_slots", "failed_frac", "runner.tasks",
             "runner.stacked_cells", "runner.batch_coverage")


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path("perfbench") / "run.py"), "--scale",
         "smoke", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def result_of(lines):
    return json.loads(lines[-1])


@pytest.fixture(scope="module")
def runs():
    """One smoke run per (workload, trace), shared by the tests below."""
    out = {}
    for workload in grids.WORKLOADS:
        for trace in (0, 1):
            out[workload, trace] = bench("--workload", workload,
                                         "--trace", str(trace))
    return out


def test_spec_matches_the_metrics_run_py_reports():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(grids.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", grids.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(runs, workload, trace):
    proc, lines = runs[workload, trace]
    assert proc.returncode == 0, proc.stderr
    result = result_of(lines)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    table = "\n".join(lines[:-1])
    for name, unit in expected.items():
        assert any(line.split()[:1] == [name] and line.endswith(unit)
                   for line in lines[:-1]), name
    assert "failed_frac" in table and "host:" in table


@pytest.mark.parametrize("workload", grids.WORKLOADS)
def test_traced_spans_add_up_to_the_traced_wall(runs, workload):
    metrics = {k: v["value"]
               for k, v in result_of(runs[workload, 1][1])["metrics"].items()}
    spans = ("import.repro_s", "scenario.load_s", "scenario.topology_s",
             "runner.cold_s", "runner.answer_s", "analysis.digest_s",
             "trace.profile_s", "other_s")
    assert sum(metrics[s] for s in spans) == pytest.approx(
        metrics["trace.wall_s"], rel=1e-9)
    assert metrics["other_s"] > 0
    assert metrics["store.hit_frac"] == 1.0


def test_simulated_counts_repeat_exactly(runs):
    again = result_of(bench("--workload", "trace-sweep", "--trace", "1")[1])
    first = result_of(runs["trace-sweep", 1][1])
    for name in SIMULATED:
        assert again["metrics"][name] == first["metrics"][name], name
    assert (again["attempted"], again["failed"]) == \
        (first["attempted"], first["failed"])


def test_coverage_separates_batched_and_serial_workloads(runs):
    def metric(workload, name):
        return result_of(runs[workload, 1][1])["metrics"][name]["value"]

    assert metric("trace-sweep", "runner.batch_coverage") == 1.0
    assert metric("mac-csma", "runner.batch_coverage") == 1.0
    assert metric("probe-serial", "runner.batch_coverage") == 0.0
    assert metric("probe-serial", "batch.rep_slots") == 0
    assert metric("mac-csma", "batch.mac_s") > 0
    assert metric("probe-serial", "engine.probe_s") > 0


def run_in_process(monkeypatch, capsys, pins, *args):
    """``run.main`` at smoke size with ``grids.PINS_PATH`` set to ``pins``."""
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(grids, "PINS_PATH", pins)
    code = run.main(["--scale", "smoke", "--seconds", "1", *args])
    out, err = capsys.readouterr()
    return code, out.strip().splitlines(), err


def test_a_tampered_pinned_digest_fails_the_run(tmp_path, monkeypatch,
                                                capsys):
    pins = grids.load_pins()
    hashes = pins["smoke"]["trace-sweep"][str(grids.DEFAULT_SEED)]
    hashes[0] = "0" * 16
    tampered = tmp_path / "pins.json"
    tampered.write_text(json.dumps(pins), encoding="utf-8")
    code, lines, _ = run_in_process(monkeypatch, capsys, tampered,
                                    "--workload", "trace-sweep")
    assert code == 1
    result = result_of(lines)
    assert result["correct"] is False
    cell_reps = grids.workload_grids("trace-sweep", grids.DEFAULT_SEED,
                                     "smoke")[0]["scenario"]["n_replications"]
    passes = result["attempted"] // 12  # 12 replications per smoke pass
    assert passes >= 3
    assert result["failed"] == cell_reps * passes
    assert any("pinned" in line for line in lines if "CHECK FAILED" in line)


def test_missing_pins_are_an_error(tmp_path, monkeypatch, capsys):
    code, lines, err = run_in_process(monkeypatch, capsys,
                                      tmp_path / "pins.json",
                                      "--workload", "mac-csma")
    assert code == 1
    assert "missing" in err
    assert not any(line.startswith("{") for line in lines)


def test_an_unpinned_held_out_seed_is_an_error(tmp_path, monkeypatch,
                                               capsys):
    pins = grids.load_pins()
    del pins["smoke"]["mac-csma"][str(grids.HELD_OUT_SEED)]
    damaged = tmp_path / "pins.json"
    damaged.write_text(json.dumps(pins), encoding="utf-8")
    code, lines, err = run_in_process(monkeypatch, capsys, damaged,
                                      "--workload", "mac-csma", "--seed", "7")
    assert code == 1
    assert str(grids.HELD_OUT_SEED) in err
    assert not any(line.startswith("{") for line in lines)


def test_a_censored_replication_counts_as_failed(tmp_path):
    gridlist = grids.workload_grids("trace-sweep", grids.DEFAULT_SEED,
                                    "smoke", sim={"max_slots": 20})
    runner = Runner(ROOT, tmp_path, time.monotonic() + 120)
    record = runner.spawn(grids.write_grids(gridlist, tmp_path))
    verdict = grids.assess(record, None)
    assert verdict["errors"] == []
    assert verdict["attempted"] == 12
    assert verdict["failed"] == verdict["incomplete"] == 12


def test_an_invariant_violation_fails_the_replication():
    rep = {"completed": True, "attempts": 5, "failures": 2, "collisions": 3,
           "duplicates": 0, "elapsed": 9, "last_arrival": 8}
    record = {"cells": [{"label": "x", "hash": "a", "answer_hash": "a",
                         "reps": [rep, dict(rep, collisions=1)]}],
              "answer_hits": 1, "answer_misses": 0, "answer_tasks": 0}
    verdict = grids.assess(record, ["a"])
    assert verdict["failed"] == verdict["mismatched"] == 1
    assert any("collisions" in e for e in verdict["errors"])


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = bench("--workload", "trace-sweep", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)


def test_default_seed_cells_are_the_registry_grids():
    from repro.experiments.registry import scenario_grid
    from repro.scenario import ScenarioGrid

    def cells(grid, **override):
        return [dataclasses.replace(s, **override).fingerprint()
                for s in grid.scenarios()]

    ours = {w: [ScenarioGrid.from_dict(g)
                for g in grids.workload_grids(w, grids.DEFAULT_SEED)]
            for w in grids.WORKLOADS}
    assert cells(ours["trace-sweep"][0], n_replications=1) == \
        cells(scenario_grid("fig10", scale="bench"), n_replications=1)
    assert cells(ours["mac-csma"][0], n_replications=1) == \
        cells(scenario_grid("mac-duty", scale="bench"), n_replications=1)
    assert [c for g in ours["probe-serial"]
            for c in cells(g, n_replications=1)] == \
        cells(scenario_grid("fig9", scale="bench"), n_replications=1)
