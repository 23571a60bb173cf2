"""Events/sec benchmark for sharded scenario execution.

Runs one multi-model fleet scenario (four tenants on the paper cluster)
through the shard partitioner at ``--shards 1/2/4``, asserts the three
reports are byte-identical (the shard-count-invariance contract), and
records events/sec per worker count in ``BENCH_perf.json``.  A second,
untimed leg reruns the fleet traced at ``--shards 1/2/4`` and asserts
the traced reports (span trees, flight-recorder events, replica names)
are byte-identical too.

Usage::

    python benchmarks/bench_shards.py            # measure + record
    python benchmarks/bench_shards.py --check    # CI: determinism + speedup gate

``--check`` always gates determinism; the parallel-speedup floor
(>= 3x events/sec at 4 workers vs 1) applies only on hardware with at
least 4 cores — on a core-starved runner extra worker processes cannot
speed anything up, so only the determinism half of the contract is
testable there.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
PERF_FILE = REPO_ROOT / "BENCH_perf.json"

sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.scenarios.driver import ScenarioCase, run_scenario_case  # noqa: E402
from repro.scenarios.sharding import partition_scenario  # noqa: E402
from repro.scenarios.spec import (  # noqa: E402
    ArrivalSegment,
    ModelScript,
    ScenarioSpec,
)

WORKER_COUNTS = (1, 2, 4)
# Acceptance floor for the parallel leg: >= 3x events/sec at 4 workers,
# gated only on hardware that can actually host 4 busy processes.
SPEEDUP_FLOOR = 3.0
MIN_CORES_FOR_GATE = 4


def fleet_spec(duration: float) -> ScenarioSpec:
    """Four tenants with comparable event volume (balanced shards).

    Rates are tuned so each tenant group processes a similar number of
    simulator events: the heavier models produce more events per request
    (more stages, longer occupancy), so they offer fewer requests.
    """

    def tenant(model: str, qps: float) -> ModelScript:
        return ModelScript(
            model=model,
            segments=(
                ArrivalSegment(
                    kind="steady", start=0.0, duration=duration, qps=qps
                ),
            ),
        )

    return ScenarioSpec(
        name="bench-shard-fleet",
        models=(
            tenant("LLAMA2-7B", 14.0),
            tenant("WHISPER-9B", 12.0),
            tenant("BERT-21B", 10.0),
            tenant("OPT-66B", 6.0),
        ),
        cluster="paper",
        settle=90.0,
        drain=20.0,
        description="shard-bench fleet: four balanced tenants",
    )


def canonical(report) -> str:
    return json.dumps(
        dataclasses.asdict(report), sort_keys=True, default=repr
    )


def measure(duration: float, repeats: int) -> tuple[dict, bool]:
    """Best-of-N events/sec per worker count; returns (record, identical)."""
    spec = fleet_spec(duration)
    plan = partition_scenario(spec, seed=0)
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        cores = os.cpu_count() or 1

    # Warm the process (imports, numpy init, profile caches) so the first
    # timed leg is not charged the interpreter's cold start.
    run_scenario_case(ScenarioCase(fleet_spec(20.0), "FlexPipe", 0, 1))

    blobs: dict[int, str] = {}
    eps: dict[str, float] = {}
    events = 0
    for workers in WORKER_COUNTS:
        best = 0.0
        for _ in range(repeats):
            start = time.perf_counter()
            report = run_scenario_case(
                ScenarioCase(spec, "FlexPipe", 0, workers)
            )
            elapsed = time.perf_counter() - start
            events = report.engine_events
            best = max(best, events / elapsed)
        blobs[workers] = canonical(report)
        eps[str(workers)] = round(best)
        print(
            f"--shards {workers}: {eps[str(workers)]:>10,.0f} events/s "
            f"({events:,} events, {len(plan.groups)} shard groups)"
        )

    identical = len(set(blobs.values())) == 1
    traced = {
        canonical(
            run_scenario_case(
                ScenarioCase(spec, "FlexPipe", 0, workers, trace=True)
            )
        )
        for workers in WORKER_COUNTS
    }
    print(f"traced --shards 1/2/4: {len(traced)} distinct report(s)")
    identical = identical and len(traced) == 1
    record = {
        "groups": len(plan.groups),
        "events": events,
        "events_per_sec": eps,
        "speedup_4": round(eps["4"] / eps["1"], 2) if eps["1"] else 0.0,
        "cores": cores,
        "core_starved": cores < MIN_CORES_FOR_GATE,
    }
    return record, identical


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--duration", type=float, default=120.0,
        help="traffic window in simulated seconds (default 120)",
    )
    parser.add_argument(
        "--repeats", type=int, default=1,
        help="take the best of N runs per worker count (default 1)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="gate determinism (always) and the 4-worker speedup floor "
        "(on >= 4-core hardware) instead of recording",
    )
    args = parser.parse_args(argv)

    record, identical = measure(args.duration, args.repeats)
    print(
        f"speedup at 4 workers: {record['speedup_4']:.2f}x "
        f"({record['cores']} core(s) available)"
    )

    if not identical:
        print(
            "FAIL: reports (untraced or traced) differ across worker "
            "counts (shard-count invariance broken!)"
        )
        return 1
    print("determinism: reports byte-identical at --shards 1/2/4, traced too")

    if args.check:
        if record["core_starved"]:
            print(
                f"note: only {record['cores']} core(s) — the "
                f">= {SPEEDUP_FLOOR:.0f}x parallel floor needs "
                f"{MIN_CORES_FOR_GATE}+ cores, skipping that half of the gate"
            )
            return 0
        if record["speedup_4"] < SPEEDUP_FLOOR:
            print(
                f"FAIL: {record['speedup_4']:.2f}x at 4 workers is below "
                f"the {SPEEDUP_FLOOR:.1f}x floor"
            )
            return 1
        print(f"OK: parallel speedup above the {SPEEDUP_FLOOR:.1f}x floor")
        return 0

    perf = json.loads(PERF_FILE.read_text()) if PERF_FILE.exists() else {}
    perf["shards"] = record
    PERF_FILE.write_text(json.dumps(perf, indent=2, sort_keys=True) + "\n")
    print(f"recorded in {PERF_FILE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
