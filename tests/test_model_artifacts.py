"""Architecture-keyed model artifacts: graphs, profiles and Eq. 2 ladders.

Tenants whose specs differ only in their name ("twins") share one graph,
one set of profile memos and one ladder DP (``repro.core.context``).
These tests hold the matrix-form partitioner and ladder DPs to scalar
oracles, the shared ladders to freshly built ones, fleet start-up to
exact build counts, and the DPs' stage memos to the plans they return.
"""

from __future__ import annotations

import functools
import math
import random
from collections import Counter
from dataclasses import replace

import pytest

import repro.core.context as context
from repro.core.context import get_graph, get_ladder, get_profile
from repro.models.costs import CostModel, CostModelConfig
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
# (a) The matrix-form Eq. 2 DP against the scalar oracle
# ----------------------------------------------------------------------
def scalar_stage_cost(partitioner: Partitioner, start: int, end: int):
    """Eq. 2 cost of the stage [start, end), or None over the memory cap."""
    cfg = partitioner.config
    profile = partitioner.profile
    stage = profile.stage(start, end)
    gpu_memory = (
        cfg.gpu_memory
        if cfg.gpu_memory is not None
        else profile.cost_model.config.gpu_memory
    )
    if stage.param_bytes > gpu_memory:
        return None
    t_c = profile.stage_compute_time(stage, cfg.reference_batch)
    reload_penalty = max(stage.param_bytes / cfg.bandwidth - cfg.overlap_budget, 0.0)
    boundary_penalty = cfg.boundary_weight * (1.0 - stage.boundary_quality)
    return t_c + reload_penalty + boundary_penalty


def oracle_plan(partitioner: Partitioner, n_stages: int, stats: Counter | None = None):
    """Eq. 2 min-max DP as scalar loops over (bottleneck, total) tuples,
    re-evaluating every stage cost for every k.

    Returns (stage end boundaries, objective) or raises
    :class:`InfeasiblePartition`.  ``stats["ties"]`` counts candidates
    equal to the best one found before them (the first one wins).
    """
    cost = functools.partial(scalar_stage_cost, partitioner)
    stats = Counter() if stats is None else stats
    ends = partitioner._ends
    n_ops = len(partitioner.graph)
    if n_stages == 1:
        single = cost(0, n_ops)
        if single is None:
            raise InfeasiblePartition("single stage over the memory cap")
        return [n_ops], single
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
                elif cand == cur[j]:
                    stats["ties"] += 1
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


def compare_with_oracle(partitioner: Partitioner, counts, stats: Counter) -> None:
    """Each count's plan equals the oracle's exactly, or both raise."""
    for n_stages in counts:
        try:
            expected = oracle_plan(partitioner, n_stages, stats)
        except InfeasiblePartition:
            with pytest.raises(InfeasiblePartition):
                partitioner.plan(n_stages)
            stats["infeasible"] += 1
            continue
        plan = partitioner.plan(n_stages)
        assert ([s.end for s in plan.stages], plan.objective) == expected
        stats["feasible"] += 1


@pytest.mark.parametrize("name", MODELS)
def test_memoized_dp_matches_the_unmemoized_oracle(name, cost_model):
    stats = Counter()
    partitioner = Partitioner(fresh_profile(get_model(name), cost_model))
    compare_with_oracle(partitioner, STAGE_COUNTS, stats)
    assert stats["feasible"] >= 2


SEEDED_MODELS = ("LLAMA2-7B",) + tuple(f"FLEET-0-{size}g" for size in FLEET_SIZES)


@pytest.mark.parametrize("boundary_weight", [0.0, 5e-3])
@pytest.mark.parametrize("min_boundary_quality", [0.0, 0.5])
def test_matrix_dp_matches_the_oracle_on_stressed_configs(
    boundary_weight, min_boundary_quality, cost_model
):
    """Tight memory makes some stages (and some whole plans) infeasible;
    a zero boundary weight and mid-block cuts make exact ties."""
    rng = random.Random(f"{boundary_weight}-{min_boundary_quality}")
    stats = Counter()
    for _ in range(4):
        spec = get_model(rng.choice(SEEDED_MODELS))
        profile = fresh_profile(spec, cost_model)
        total = profile.graph.total_param_bytes
        config = PartitionerConfig(
            gpu_memory=total * rng.uniform(0.08, 0.4),
            boundary_weight=boundary_weight,
            min_boundary_quality=min_boundary_quality,
        )
        partitioner = Partitioner(profile, config)
        counts = sorted(rng.sample(range(1, min(partitioner.n_positions, 24) + 1), 6))
        compare_with_oracle(partitioner, counts + [2, 4, 8], stats)
    assert stats["infeasible"] >= 1 and stats["feasible"] >= 4
    if boundary_weight == 0.0:
        assert stats["ties"] > 0


# ----------------------------------------------------------------------
# (a2) The matrix-form ladder grouping against the scalar oracle
# ----------------------------------------------------------------------
def oracle_grouping(ladder: GranularityLadder, n_stages: int):
    """Min-max grouping of the fine stages as scalar loops.

    Returns (groups, objective) or raises ``ValueError``.
    """
    fine = ladder.fine_plan.stages
    n_fine = len(fine)
    if n_stages == n_fine:
        return tuple((i, i + 1) for i in range(n_fine)), ladder.fine_plan.objective
    profile = ladder.profile
    prefix = [0.0]
    bytes_prefix = [0.0]
    for s in fine:
        prefix.append(prefix[-1] + profile.stage_compute_time(s.profile, 1))
        bytes_prefix.append(bytes_prefix[-1] + s.param_bytes)
    gpu_memory = profile.cost_model.config.gpu_memory

    def group_cost(i: int, j: int) -> float:
        if bytes_prefix[j] - bytes_prefix[i] > gpu_memory:
            return math.inf
        return prefix[j] - prefix[i]

    dp = [[math.inf] * (n_fine + 1) for _ in range(n_stages + 1)]
    arg = [[-1] * (n_fine + 1) for _ in range(n_stages + 1)]
    dp[0][0] = 0.0
    for k in range(1, n_stages + 1):
        for j in range(k, n_fine + 1):
            for i in range(k - 1, j):
                if math.isinf(dp[k - 1][i]):
                    continue
                cand = max(dp[k - 1][i], group_cost(i, j))
                if cand < dp[k][j]:
                    dp[k][j] = cand
                    arg[k][j] = i
    if math.isinf(dp[n_stages][n_fine]):
        raise ValueError("no feasible grouping")
    bounds = [n_fine]
    j = n_fine
    for k in range(n_stages, 0, -1):
        j = arg[k][j]
        bounds.append(j)
    bounds.reverse()
    groups = tuple(zip(bounds[:-1], bounds[1:]))
    return groups, dp[n_stages][n_fine]


def compare_groupings(ladder: GranularityLadder, counts) -> Counter:
    stats = Counter()
    for count in counts:
        try:
            expected = oracle_grouping(ladder, count)
        except ValueError:
            with pytest.raises(ValueError):
                ladder._group_rung(count)
            stats["infeasible"] += 1
            continue
        rung = ladder._group_rung(count)
        assert (rung.groups, rung.plan.objective) == expected
        fine = ladder.fine_plan.stages
        assert rung.plan.cuts == tuple(fine[hi - 1].end for _, hi in rung.groups[:-1])
        stats["feasible"] += 1
    return stats


@pytest.mark.parametrize("name", MODELS)
def test_ladder_rungs_match_the_grouping_oracle(name, cost_model):
    ladder = GranularityLadder(fresh_profile(get_model(name), cost_model))
    stats = compare_groupings(ladder, ladder.stage_counts)
    assert stats["feasible"] == len(ladder.stage_counts) >= 2


@pytest.mark.parametrize("seed", range(4))
def test_ladder_grouping_matches_the_oracle_under_tight_memory(seed):
    """Coarse groups over a small GPU cross the memory cap."""
    rng = random.Random(seed)
    spec = get_model(rng.choice(MODELS))
    total = get_graph(spec).total_param_bytes
    tight = CostModel(CostModelConfig(gpu_memory=total * rng.uniform(0.1, 0.4)))
    ladder = GranularityLadder(fresh_profile(spec, tight), stage_counts=(16,))
    stats = compare_groupings(ladder, range(1, 17))
    assert stats["infeasible"] >= 1 and stats["feasible"] >= 2


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


# ----------------------------------------------------------------------
# (e) The DPs profile only the stages of the plans they return
# ----------------------------------------------------------------------
RUNG_COUNTS = (2, 4, 8, 16, 32)


@pytest.mark.parametrize("name", tuple(MODEL_ZOO))
def test_ladder_profiles_only_the_stages_its_rungs_hold(name, cost_model, fresh_caches):
    ladder = get_ladder(get_model(name), cost_model, RUNG_COUNTS)
    assert tuple(ladder.stage_counts) == RUNG_COUNTS
    held = {
        (s.start, s.end) for count in RUNG_COUNTS for s in ladder.plan(count).stages
    }
    assert set(ladder.profile._stage_cache) == held
    assert len(ladder.profile._stage_cache) <= sum(RUNG_COUNTS) == 62


@pytest.mark.parametrize("name", MODELS)
def test_plan_profiles_only_its_own_stages(name, cost_model):
    graph = get_graph(get_model(name))
    for n_stages in STAGE_COUNTS + (10_000,):
        profile = ModelProfile(spec=get_model(name), graph=graph, cost_model=cost_model)
        try:
            plan = Partitioner(profile).plan(n_stages)
        except InfeasiblePartition:
            assert profile._stage_cache == {}
            continue
        assert set(profile._stage_cache) == {(s.start, s.end) for s in plan.stages}
