"""Self-test of the benchmark's layer attribution and checks.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import functools
import importlib
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parents[1]
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import cell  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402


def _small_cases():
    from repro.scenarios.driver import ScenarioCase
    from repro.scenarios.library import SCENARIOS

    spec = SCENARIOS["coldstart-wave"].quick()
    return [ScenarioCase(spec, "FlexPipe", 3), ScenarioCase(spec, "Tetris", 3)]


def _snapshot():
    """Every attribute the tracer replaces, as it is now."""
    out = {}
    for module_name, cls_name, names, _ in layers.SITES:
        module = importlib.import_module(module_name)
        owner = module if cls_name is None else getattr(module, cls_name)
        if names == layers.PUBLIC:
            names = layers._public_methods(owner)
        for name in names:
            out[(module_name, cls_name, name)] = vars(owner)[name]
    from repro.pipeline.batching import DynamicBatcher
    from repro.scaling.coordinator import ScalingCoordinator
    from repro.simulation.engine import Simulator
    from repro.workloads import azure2019

    for owner, name in ((Simulator, "schedule_at"), (DynamicBatcher, "__init__"),
                        (ScalingCoordinator, "scorer"),
                        (azure2019, "iter_minted_stamps")):
        out[(owner.__name__, None, name)] = vars(owner)[name]
    return out


@pytest.fixture(scope="module")
def traced_run():
    """Run two small cells untraced, then traced; keep what the checks need."""
    from repro.scenarios.driver import run_scenario_case

    cases = _small_cases()
    plain = [cell.digest(run_scenario_case(c)) for c in cases]
    before = _snapshot()
    tracer = layers.LayerTracer().install()
    tracer.calibrate()
    probe = cell.CellProbe().install()
    try:
        result = cell._run_cells(cases, probe, tracer)
        spans = tracer.log.self_times()
    finally:
        probe.restore()
        tracer.restore()
    return {
        "plain": plain, "result": result, "tracer": tracer, "probe": probe,
        "before": before, "after": _snapshot(), "spans": spans,
    }


def test_layer_times_tile_the_traced_wall_time(traced_run):
    tiling = traced_run["result"]["tiling"]
    total = tiling["self_s"] + tiling["wrapper_s"] + tiling["residual_s"]
    assert total == pytest.approx(tiling["wall_s"], rel=1e-9, abs=1e-12)
    assert tiling["nest_error_s"] == 0.0
    # What no span covers is run_scenario_case's own glue: a small share.
    assert 0.0 <= tiling["residual_s"] < 0.05 * tiling["wall_s"]
    metrics = traced_run["result"]["layers"]
    named = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert named == pytest.approx(tiling["self_s"], rel=1e-9)


def test_every_span_nests_inside_its_parent(traced_run):
    log = traced_run["tracer"].log
    start = np.frombuffer(log.start, dtype=np.float64)
    end = np.frombuffer(log.end, dtype=np.float64)
    parent = np.frombuffer(log.parent, dtype=np.int32)
    assert len(log) > 1000 and log.depth == 0
    assert (end >= start).all()
    child = parent >= 0
    assert (start[child] >= start[parent[child]]).all()
    assert (end[child] <= end[parent[child]]).all()
    _, _, _, own = traced_run["spans"]
    assert own.min() >= 0.0


def test_wrappers_are_restored_after_the_traced_run(traced_run):
    assert traced_run["tracer"].leftovers() == []
    assert traced_run["probe"].leftovers() == []
    before, after = traced_run["before"], traced_run["after"]
    assert before.keys() == after.keys()
    changed = [key for key in before if before[key] is not after[key]]
    assert changed == []
    assert not any(hasattr(fn, "__wrapped__") for fn in after.values())


def test_tracing_does_not_perturb_the_simulation(traced_run):
    result = traced_run["result"]
    assert result["failures"] == []
    import hashlib

    plain = hashlib.sha256("".join(traced_run["plain"]).encode()).hexdigest()
    assert result["digest"] == plain


def test_traced_run_reports_every_per_layer_metric(traced_run):
    import json

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    added_by_run = ("trace.overhead",) + run.UNGATED
    metrics = dict(traced_run["result"]["layers"], **dict.fromkeys(added_by_run, 1.0))
    wanted = {spec["name"] for spec in bench["per_layer"]}
    assert wanted <= metrics.keys()
    assert metrics["simulation.events"] > 0
    assert metrics["core.admission.submitted"] == traced_run["result"]["offered"]
    assert metrics["baselines.self_s"] > 0  # the Tetris cell


def test_self_time_arithmetic_on_a_fake_clock(monkeypatch):
    ticks = iter(range(1000))
    monkeypatch.setattr(layers, "CLOCK", lambda: float(next(ticks)))
    log = layers.SpanLog()
    root_sid, leaf_sid = log.site_id("root", "a"), log.site_id("leaf", "b")
    leaf = log.spanned(leaf_sid, lambda: None)

    def body():
        leaf()
        leaf()

    log.spanned(root_sid, body)()
    site, parent, dur, own = log.self_times()
    # root [0, 5]; leaves [1, 2] and [3, 4].
    assert list(site) == [0, 1, 1]
    assert list(parent) == [-1, 0, 0]
    assert list(dur) == [5.0, 1.0, 1.0]
    assert list(own) == [3.0, 1.0, 1.0]


def test_dispatched_callbacks_are_charged_to_their_module():
    from repro.models.costs import floor_pow2
    from repro.simulation.engine import Simulator
    from repro.simulation.processes import PeriodicProcess

    assert layers.layer_of_module("repro.qos.admission") == "core.admission"
    assert layers.layer_of_module("repro.workloads.azure2019") == "workloads"
    assert layers.layer_of_module("repro.core.serving") == "other"
    tracer = layers.LayerTracer().install()
    try:
        sim = Simulator()
        sim.schedule(1.0, functools.partial(floor_pow2, 5.0))
        process = PeriodicProcess(sim, 1.0, functools.partial(floor_pow2, 3.0))
        sim.run(until=3.5)
        process.stop()
    finally:
        tracer.restore()
    names = {tracer.log.sites[s][0] for s in np.frombuffer(tracer.log.site, dtype=np.int32)}
    assert "dispatch:models.costs" in names
    assert "dispatch:simulation" not in names  # the tick is charged to its callback


def test_checks_fail_on_digest_mismatch_and_broken_tiling():
    rep = {"cells": 1, "failed_cells": 0, "failures": [], "digest": "a" * 64,
           "stranded": 0, "traced": False, "seed": 1000}
    traced = dict(rep, traced=True, leftovers=[], tiling={
        "wall_s": 2.0, "self_s": 1.5, "wrapper_s": 0.25, "residual_s": 0.25,
        "nest_error_s": 0.0})
    assert run.problems([rep, traced]) == []
    assert run.problems([rep, dict(traced, digest="b" * 64)])
    assert run.problems([rep, dict(rep, seed=1001, digest="b" * 64)]) == []
    assert run.problems([rep, dict(traced, tiling=dict(traced["tiling"], self_s=1.0))])
    assert run.problems([rep, dict(traced, leftovers=["Simulator.schedule_at"])])
    assert run.problems([dict(rep, failures=["x/y: harness-crash: boom"])])
    assert run.problems([rep, dict(traced, stranded=3)])
    assert run.problems([rep, dict(rep, seed=1001, stranded=3)]) == []


def test_stranded_requests_over_the_ceiling_fail_the_run():
    assert cell.check_stranded("fleet-azure", 0, 2698) == []
    assert cell.check_stranded("fleet-azure", 1, 2698)
    assert cell.check_stranded("catalog-scripted", 4000, 45000) == []
    assert cell.check_stranded("catalog-scripted", 9000, 45000)


def test_cell_counts_conservation_breaks_through_the_auditor():
    from repro.scenarios.driver import ScenarioReport
    from repro.validation.auditor import Violation

    report = ScenarioReport(scenario="s", system="FlexPipe", seed=1, violations=[
        Violation("request-conservation", "admitted 5 != completed 3 + resident 1")])
    assert cell.check(report) == [
        "s/FlexPipe: request-conservation: admitted 5 != completed 3 + resident 1"]


def test_command_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet-azure",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
