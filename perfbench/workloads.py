"""The benchmark's workloads: which catalog cells one repetition runs.

Every cell is a ``ScenarioCase`` from the shipped catalog, run through
``run_scenario_case`` so the ``.runcache`` result cache is never read.
A run at ``--seed s`` runs repetitions at the cell seeds
``cell_seed(s, i)``; the first ``SEEDS_PER_RUN`` distinct ones carry the
simulated metrics.  One seed's simulated tail moves by 10-50% between
seeds on the fleet workloads (chaotic scale-to-zero dynamics), so a run
averages several.
"""

from __future__ import annotations

AZURE = "azure-replay-2019"
COLDSTART = "coldstart-economy"
FLEET_SCENARIOS = (AZURE, COLDSTART)

# Distinct cell seeds per run: enough to hold the simulated metrics
# inside their bounds, few enough that every run of the benchmark still
# fits its time budget when the shared host runs at 2.5x its quiet-host
# time (a run is 16-25 s on a quiet 2-core x86 container; one fleet-azure
# repetition is ~10 s).  Extra repetitions cycle through these seeds.
# One catalog-scripted seed is 66 cell seeds (see ``cases``).
SEEDS_PER_RUN = {
    "fleet-azure": 1,
    "fleet-coldstart": 2,
    "catalog-scripted": 1,
    "fleet-azure-sharded": 3,
}
WORKLOADS = tuple(SEEDS_PER_RUN)
# Workloads whose cells each run one ``ScenarioDriver`` in this process,
# so that a set-up-only repetition can start them without running them.
MONOLITHIC = ("fleet-azure", "fleet-coldstart", "catalog-scripted")

# Most requests a repetition may leave resident (queued or in flight) at
# quiesce, as a share of those offered; more fails the run.  The
# monolithic fleets leave none, so ``offered == completed + shed`` holds
# there exactly.  The other two strand requests in every seed: the
# scripted scenarios 6.9-8.3% (20 repetition seeds) and the sharded
# fleet 0.8-10.5% (40 seeds); their ceilings sit at about 1.5x the
# highest share seen.
STRANDED_CEILING = {
    "fleet-azure": 0.0,
    "fleet-coldstart": 0.0,
    "catalog-scripted": 0.12,
    "fleet-azure-sharded": 0.16,
}


def cell_seed(seed: int, index: int) -> int:
    """Seed ``index`` derived from ``seed``: the case seed of repetition
    ``index`` of a run, or of cell ``index`` of a catalog-scripted
    repetition."""
    return seed * 1000 + index


def cases(workload: str, seed: int) -> list:
    """The cells of one repetition of ``workload``, in run order."""
    from repro.scenarios.driver import ScenarioCase
    from repro.scenarios.library import SCENARIOS
    from repro.validation.chaos import CHAOS_SYSTEMS

    if workload == "fleet-azure":
        return [ScenarioCase(SCENARIOS[AZURE], "FlexPipe", seed)]
    if workload == "fleet-coldstart":
        return [ScenarioCase(SCENARIOS[COLDSTART], "FlexPipe", seed)]
    if workload == "fleet-azure-sharded":
        # shards=1: every shard group steps in this process, no pool.
        return [ScenarioCase(SCENARIOS[AZURE], "FlexPipe", seed, shards=1)]
    if workload == "catalog-scripted":
        # Each cell its own seed.  With one seed for all 66 cells, their
        # offered requests ranged 41,826-56,628 over 20 seeds, and the
        # CPU time with them; 66 draws per repetition average that out.
        scripted = [
            (spec, system)
            for name, spec in SCENARIOS.items()
            if name not in FLEET_SCENARIOS
            for system in CHAOS_SYSTEMS
        ]
        return [
            ScenarioCase(spec, system, cell_seed(seed, j))
            for j, (spec, system) in enumerate(scripted)
        ]
    raise KeyError(f"unknown workload {workload!r}; available: {list(WORKLOADS)}")
