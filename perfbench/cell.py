"""One repetition of a benchmark workload, in a fresh process.

Usage (``run.py`` starts it; it is also handy on its own)::

    python3 perfbench/cell.py --workload fleet-azure --seed 3 [--traced | --setup-only]

Runs every cell of the workload through ``run_scenario_case``, checks
each report and prints one JSON object on its last stdout line: host
times, simulated metrics, failures, a sha256 digest of the canonical
JSON of the reports and, with ``--traced``, the per-layer metrics; a
traced repetition also writes its spans to ``.perfbench/spans-<workload>.npz``.
``--setup-only`` imports the catalog and starts each cell's driver, and
reports only the set-up time.

Host times are this process's CPU time (``time.process_time``: user +
system), which on this single-threaded process equals its wall time on
an idle machine and leaves out the time a shared machine lends to other
work.  Set-up is importing the scenario catalog (which loads the Azure
window) plus the time in ``ScenarioDriver.start``; a fresh process per
repetition is what makes it include the profile and ladder caches a
``repro scenario run`` user fills.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import pathlib
import resource
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
SPAN_DIR = ROOT / ".perfbench"  # a traced run writes its spans here
sys.path.insert(0, str(ROOT / "src"))

from layers import CLOCK, LayerTracer, Patcher, layer_report, site_inclusive  # noqa: E402
from workloads import STRANDED_CEILING, WORKLOADS, cases  # noqa: E402

HOST_CLOCK = time.process_time

# Where the program's merged sharded report loses its TTFT tail.
P99_DEFECT = (
    "the merged sharded report reads p99_ttft 0.0 because "
    "scenarios/sharding.py::_merge_aggregate never sets it; the value "
    "shown is the same percentile taken by the benchmark over the "
    "concatenated shard prefill latencies"
)


class CellProbe(Patcher):
    """The few hooks every run needs, traced or not.

    Times ``ScenarioDriver.start`` (part of the set-up), counts requests
    still resident when each driver quiesces, and keeps the shard
    prefill latencies a sharded merge receives.
    """

    def __init__(self):
        super().__init__()
        self.start_s = 0.0  # CPU seconds
        self.resident = 0
        self.merged_prefill: list[float] | None = None

    def install(self) -> "CellProbe":
        import repro.scenarios.sharding as sharding
        from repro.scenarios.driver import ScenarioDriver

        start = ScenarioDriver.__dict__["start"]
        finish = ScenarioDriver.__dict__["finish"]
        merge = sharding.merge_shard_reports

        def timed_start(driver):
            t0 = HOST_CLOCK()
            try:
                return start(driver)
            finally:
                self.start_s += HOST_CLOCK() - t0

        def counted_finish(driver):
            report = finish(driver)
            self.resident += _resident(driver)
            return report

        def kept_merge(case, plan, slices):
            self.merged_prefill = [v for s in slices for v in s.prefill_latencies]
            return merge(case, plan, slices)

        self.method(ScenarioDriver, "start", timed_start)
        self.method(ScenarioDriver, "finish", counted_finish)
        self.function(sharding, "merge_shard_reports", kept_merge)
        return self


def _resident(driver) -> int:
    """Requests still queued or in flight at quiesce (auditor's count)."""
    auditor = driver.auditor
    return sum(len(r.pending) for r in auditor.routers().values()) + sum(
        len(replica.batcher) + replica.inflight_requests
        for replica in auditor.replicas()
    )


def digest(report) -> str:
    blob = json.dumps(dataclasses.asdict(report), sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def check(report) -> list[str]:
    """Why a cell failed; empty when it passed.

    Request conservation is the auditor's ``request-conservation``
    invariant, so a break arrives here as a violation.
    """
    cell = f"{report.scenario}/{report.system}"
    out = [f"{cell}: {v.invariant}: {v.detail}" for v in report.violations]
    if report.aggregate is None and not out:
        out.append(f"{cell}: no aggregate summary")
    return out


def check_stranded(workload: str, stranded: int, offered: int) -> list[str]:
    """Fails a repetition that leaves more requests resident at quiesce
    than the workload's ceiling (``workloads.STRANDED_CEILING``)."""
    ceiling = STRANDED_CEILING[workload]
    if stranded > ceiling * offered:
        return [
            f"{workload}: stranded: {stranded} of {offered} requests resident "
            f"at quiesce, over the ceiling of {ceiling:.0%}"
        ]
    return []


def run(workload: str, seed: int, traced: bool) -> dict:
    tracer = None
    if traced:
        tracer = LayerTracer().install()
        tracer.calibrate()
    probe = CellProbe().install()
    try:
        t0 = HOST_CLOCK()
        cell_cases = cases(workload, seed)  # imports the catalog
        catalog_s = HOST_CLOCK() - t0
        result = _run_cells(cell_cases, probe, tracer)
    finally:
        probe.restore()
        if tracer is not None:
            tracer.restore()
    result["setup_s"] += catalog_s
    result["failures"].extend(
        check_stranded(workload, result["stranded"], result["offered"])
    )
    if tracer is not None:
        result["leftovers"] = tracer.leftovers() + probe.leftovers()
        SPAN_DIR.mkdir(exist_ok=True)
        tracer.log.save(SPAN_DIR / f"spans-{workload}.npz")
    return result


def setup_only(workload: str, seed: int) -> dict:
    """Set-up of one repetition without the rest: import the catalog and
    start each cell's driver (monolithic workloads only)."""
    import repro.scenarios.sharding  # noqa: F401 - imported before timing, as in run()
    from repro.scenarios.driver import ScenarioDriver

    t0 = HOST_CLOCK()
    cell_cases = cases(workload, seed)
    if any(case.shards for case in cell_cases):
        raise SystemExit(f"--setup-only runs monolithic workloads, not {workload}")
    for case in cell_cases:
        ScenarioDriver(case).start()
    return {"setup_s": HOST_CLOCK() - t0}


def _run_cells(cell_cases, probe: CellProbe, tracer) -> dict:
    from repro.scenarios.driver import run_scenario_case

    failures: list[str] = []
    unavailable: dict[str, str] = {}
    digests, walls, cpus, traced_cells = [], [], [], []
    offered = stranded = 0
    sim = {"p99_ttft_s": [], "p99_latency_s": [], "goodput_ratio": [],
           "gpus_held": [], "warm_start_ratio": []}
    for case in cell_cases:
        probe.resident = 0
        probe.merged_prefill = None
        lo = len(tracer.log) if tracer is not None else 0
        c0, t0 = HOST_CLOCK(), CLOCK()
        report = run_scenario_case(case)
        wall, cpu = CLOCK() - t0, HOST_CLOCK() - c0
        if tracer is not None:
            traced_cells.append((lo, len(tracer.log), wall))
        walls.append(wall)
        cpus.append(cpu)
        digests.append(digest(report))
        failures.extend(check(report))
        offered += report.offered
        stranded += probe.resident
        agg = report.aggregate
        if agg is None:
            continue
        p99 = agg.p99_ttft
        if probe.merged_prefill and p99 == 0.0:
            import numpy as np

            p99 = float(np.percentile(probe.merged_prefill, 99))
            unavailable["p99_ttft_s"] = P99_DEFECT
        sim["p99_ttft_s"].append(p99)
        sim["p99_latency_s"].append(agg.latency_percentiles[99])
        sim["goodput_ratio"].append(agg.goodput / report.offered if report.offered else 0.0)
        sim["gpus_held"].append(float(agg.gpus_used))
        sim["warm_start_ratio"].append(agg.warm_start_rate)
    result = {
        "cells": len(cell_cases),
        "failed_cells": len({f.split(":", 1)[0] for f in failures}),
        "failures": failures[:20],
        "unavailable": unavailable,
        "wall_s": sum(walls),
        "cpu_s": sum(cpus),
        "setup_s": probe.start_s,
        "offered": offered,
        "stranded": stranded,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digest": hashlib.sha256("".join(digests).encode()).hexdigest(),
        "sim": {k: statistics.fmean(v) if v else 0.0 for k, v in sim.items()},
    }
    if tracer is not None:
        metrics, tiling = layer_report(tracer, traced_cells)
        metrics["workloads.window_load_s"] = site_inclusive(
            tracer, ".load_window_cached"
        )
        metrics["scaling.warm_cache.warm_start_ratio"] = result["sim"]["warm_start_ratio"]
        metrics["scenarios.driver.stranded"] = float(stranded)
        result["layers"] = metrics
        result["tiling"] = tiling
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--traced", action="store_true")
    mode.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.setup_only:
        result = setup_only(args.workload, args.seed)
    else:
        result = run(args.workload, args.seed, args.traced)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
