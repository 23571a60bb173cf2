"""Architecture-keyed model artifacts: graphs, profiles and Eq. 2 ladders.

Tenants whose specs differ only in their name ("twins") share one graph,
one set of profile memos and one ladder DP (``repro.core.context``).
These tests hold the memoized partitioner to an un-memoized oracle, the
shared ladders to freshly built ones, and fleet start-up to exact build
counts.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import replace

import pytest

import repro.core.context as context
from repro.core.context import get_graph, get_ladder, get_profile
from repro.models.costs import CostModel
from repro.models.profiler import ModelProfile
from repro.models.transformer import build_transformer
from repro.models.zoo import LLAMA2_7B, MODEL_ZOO, OPT_66B, get_model
from repro.partitioning.ladder import GranularityLadder
from repro.partitioning.partitioner import (
    InfeasiblePartition,
    Partitioner,
    PartitionerConfig,
)
from repro.scenarios.driver import ScenarioCase, ScenarioDriver
from repro.scenarios.library import SCENARIOS
from repro.transfer.links import GB

FLEET_SIZES = (4, 5, 6, 7, 9, 10, 12)  # GB; the azure fleet's size tiers
MODELS = tuple(MODEL_ZOO) + tuple(f"FLEET-0-{size}g" for size in FLEET_SIZES)
STAGE_COUNTS = GranularityLadder.DEFAULT_STAGE_COUNTS


@pytest.fixture
def fresh_caches(monkeypatch):
    """Empty artifact caches for one test; the shared ones come back after."""
    for name, value in vars(context).items():
        if name.endswith("_CACHE") and isinstance(value, dict):
            monkeypatch.setattr(context, name, {})


@pytest.fixture(scope="module")
def cost_model() -> CostModel:
    return CostModel()


def fresh_profile(spec, cost_model) -> ModelProfile:
    return ModelProfile(
        spec=spec, graph=build_transformer(spec), cost_model=cost_model
    )


def counting(counts: Counter, key: str, fn):
    def counted(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    return counted


# ----------------------------------------------------------------------
# (a) The memoized Eq. 2 DP against an un-memoized oracle
# ----------------------------------------------------------------------
def oracle_plan(partitioner: Partitioner, n_stages: int):
    """Eq. 2 min-max DP re-evaluating every stage cost for every k.

    Returns (stage end boundaries, objective) or raises
    :class:`InfeasiblePartition`.
    """
    cost = partitioner._stage_cost
    n_ops = len(partitioner.graph)
    if n_stages == 1:
        single = cost(0, n_ops)
        if single is None:
            raise InfeasiblePartition("single stage over the memory cap")
        return [n_ops], single
    ends = [i + 1 for i in partitioner._cuts] + [n_ops]
    n_pos = len(ends)
    if n_stages > n_pos:
        raise InfeasiblePartition("more stages than legal boundaries")
    unreachable = (math.inf, math.inf)
    prev = []
    for end in ends:
        first = cost(0, end)
        prev.append(unreachable if first is None else (first, first))
    choice = []
    for k in range(1, n_stages):
        cur = [unreachable] * n_pos
        arg = [-1] * n_pos
        for j in range(k, n_pos):
            for i in range(k - 1, j):
                if math.isinf(prev[i][0]):
                    continue
                stage = cost(ends[i], ends[j])
                if stage is None:
                    continue
                cand = (max(prev[i][0], stage), prev[i][1] + stage)
                if cand < cur[j]:
                    cur[j] = cand
                    arg[j] = i
        prev = cur
        choice.append(arg)
    if math.isinf(prev[-1][0]):
        raise InfeasiblePartition("no plan under the memory cap")
    boundaries = [ends[-1]]
    j = n_pos - 1
    for k in range(n_stages - 1, 0, -1):
        j = choice[k - 1][j]
        boundaries.append(ends[j])
    return boundaries[::-1], prev[-1][1]


@pytest.mark.parametrize("name", MODELS)
def test_memoized_dp_matches_the_unmemoized_oracle(name, cost_model):
    partitioner = Partitioner(fresh_profile(get_model(name), cost_model))
    feasible = 0
    for n_stages in STAGE_COUNTS:
        try:
            expected = oracle_plan(partitioner, n_stages)
        except InfeasiblePartition:
            with pytest.raises(InfeasiblePartition):
                partitioner.plan(n_stages)
            continue
        plan = partitioner.plan(n_stages)
        assert ([s.end for s in plan.stages], plan.objective) == expected
        feasible += 1
    assert feasible >= 2


# ----------------------------------------------------------------------
# (b) A twin's shared ladder against a freshly built one
# ----------------------------------------------------------------------
def rung_rows(ladder: GranularityLadder):
    return [
        (
            count,
            ladder.rung(count).groups,
            [(s.start, s.end, s.max_batch) for s in ladder.plan(count).stages],
            ladder.plan(count).objective,
            ladder.plan(count).model_name,
        )
        for count in ladder.stage_counts
    ]


@pytest.mark.parametrize(
    "first,twin",
    [
        (f"FLEET-1-{size}g", f"FLEET-2-{size}g") for size in FLEET_SIZES
    ]
    + [("LLAMA2-7B", "LLAMA2-7B-twin"), ("OPT-66B", "OPT-66B-twin")],
)
def test_shared_ladder_matches_a_fresh_build(
    first, twin, cost_model, fresh_caches, monkeypatch
):
    first_spec = get_model(first)
    twin_spec = (
        get_model(twin) if twin.startswith("FLEET") else replace(first_spec, name=twin)
    )
    assert context.architecture(first_spec) == context.architecture(twin_spec)
    counts = Counter()
    monkeypatch.setattr(
        Partitioner, "plan", counting(counts, "plans", Partitioner.plan)
    )
    first_ladder = get_ladder(first_spec, cost_model, STAGE_COUNTS)
    shared = get_ladder(twin_spec, cost_model, STAGE_COUNTS)
    assert counts["plans"] == 1
    fresh = GranularityLadder(
        fresh_profile(twin_spec, cost_model), stage_counts=STAGE_COUNTS
    )
    assert rung_rows(shared) == rung_rows(fresh)
    assert shared.profile.spec is twin_spec
    assert shared.profile.graph is first_ladder.profile.graph
    assert shared.rung(shared.finest).plan is shared.fine_plan
    assert {first_ladder.plan(c).model_name for c in first_ladder.stage_counts} == {
        first
    }
    assert get_ladder(twin_spec, cost_model, STAGE_COUNTS) is shared


# ----------------------------------------------------------------------
# (c) Architecture fields key their own graphs; names do not
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "field,value",
    [
        ("checkpoint_bytes", 2 * LLAMA2_7B.checkpoint_bytes),
        ("avg_context_tokens", 2 * LLAMA2_7B.avg_context_tokens),
        ("encoder_layers", 4),
    ],
)
def test_each_architecture_field_keys_its_own_graph(
    field, value, cost_model, fresh_caches
):
    variant = replace(LLAMA2_7B, **{field: value})  # same name
    base_graph = get_graph(LLAMA2_7B)
    graph = get_graph(variant)
    assert graph is not base_graph
    assert graph is get_graph(replace(variant, name="variant-twin"))
    profile = get_profile(variant, cost_model)
    assert profile.graph is graph
    assert profile.spec is variant
    assert profile._stage_cache is not get_profile(LLAMA2_7B, cost_model)._stage_cache
    fresh = fresh_profile(variant, cost_model)
    assert len(graph) == len(fresh.graph)
    assert graph.total_param_bytes == fresh.graph.total_param_bytes
    whole = profile.stage(0, len(graph))
    assert profile.stage_max_batch(whole) == fresh.stage_max_batch(
        fresh.stage(0, len(graph))
    )


def test_twins_share_graph_and_memos_but_keep_their_names(cost_model, fresh_caches):
    twin = replace(LLAMA2_7B, name="LLAMA2-7B-twin")
    base = get_profile(LLAMA2_7B, cost_model)
    other = get_profile(twin, cost_model)
    assert other is not base
    assert other.spec.name == "LLAMA2-7B-twin"
    assert other.graph is base.graph
    assert other._stage_cache is base._stage_cache
    assert other._max_batch_cache is base._max_batch_cache
    assert get_profile(twin, cost_model) is other


def test_partitioner_errors_name_the_requesting_twin(cost_model, fresh_caches):
    get_profile(OPT_66B, cost_model)  # the shared graph is built for OPT-66B
    twin = get_profile(replace(OPT_66B, name="OPT-66B-twin"), cost_model)
    assert twin.graph.model_name == "OPT-66B"
    with pytest.raises(InfeasiblePartition, match="^OPT-66B-twin does not fit"):
        Partitioner(twin).plan(1)
    with pytest.raises(InfeasiblePartition, match="^OPT-66B-twin: cannot make"):
        Partitioner(twin).plan(10_000)
    tiny = Partitioner(twin, PartitionerConfig(gpu_memory=1 * GB))
    with pytest.raises(InfeasiblePartition, match="^OPT-66B-twin: no feasible"):
        tiny.plan(2)


# ----------------------------------------------------------------------
# (d) Exact build counts when a fleet starts
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "name,max_plans,max_graphs",
    [("azure-replay-2019", 7, 6), ("coldstart-economy", 3, 2)],
)
def test_fleet_start_builds_each_architecture_once(
    name, max_plans, max_graphs, fresh_caches, monkeypatch
):
    counts = Counter()
    monkeypatch.setattr(
        Partitioner, "plan", counting(counts, "plans", Partitioner.plan)
    )
    monkeypatch.setattr(
        context,
        "build_transformer",
        counting(counts, "graphs", context.build_transformer),
    )
    spec = SCENARIOS[name]
    ScenarioDriver(ScenarioCase(spec, "FlexPipe", 0)).start()
    assert len(spec.models) > 100
    assert 1 <= counts["graphs"] <= max_graphs
    assert 1 <= counts["plans"] <= max_plans
