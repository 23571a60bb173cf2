"""Shared per-run context: simulator, cluster, profiles, caches.

Model graphs, profiles and granularity ladders are immutable and costly to
build (the Eq. 2 DP over ~450 operators), so they are cached at module
level and shared across runs.  The caches are keyed by *architecture*:
every :class:`ModelSpec` field but ``name``.  A fleet runs hundreds of
tenants on a handful of architectures, and tenants with equal
architectures ("twins") share one graph, one set of profile memos and one
ladder DP.  Each tenant still gets its own :class:`ModelProfile` and its
own ladder, whose plans carry its name.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from repro.cluster.allocator import GPUAllocator
from repro.cluster.cluster import Cluster
from repro.cluster.hrg import HierarchicalResourceGraph
from repro.models.costs import CostModel, CostModelConfig
from repro.models.graph import ComputationGraph
from repro.models.profiler import ModelProfile
from repro.models.transformer import build_transformer
from repro.models.zoo import ModelSpec
from repro.partitioning.ladder import GranularityLadder
from repro.simulation.engine import Simulator
from repro.simulation.randomness import RandomStreams
from repro.transfer.datamover import DataMover

# Architecture-keyed: what twins share.
_GRAPH_CACHE: dict[tuple, ComputationGraph] = {}
_SHARED_PROFILE_CACHE: dict[tuple, ModelProfile] = {}
_SHARED_LADDER_CACHE: dict[tuple, GranularityLadder] = {}
# Spec-keyed: one profile and one ladder per tenant.
_PROFILE_CACHE: dict[tuple, ModelProfile] = {}
_LADDER_CACHE: dict[tuple, GranularityLadder] = {}


def architecture(spec: ModelSpec) -> tuple:
    """Every field of ``spec`` but its name."""
    return tuple(
        getattr(spec, f.name) for f in fields(spec) if f.name != "name"
    )


def get_graph(spec: ModelSpec) -> ComputationGraph:
    """The operator graph of ``spec``'s architecture (built once; it
    carries the name of the tenant that built it)."""
    key = architecture(spec)
    graph = _GRAPH_CACHE.get(key)
    if graph is None:
        graph = build_transformer(spec)
        _GRAPH_CACHE[key] = graph
    return graph


def get_profile(spec: ModelSpec, cost_model: CostModel) -> ModelProfile:
    """``spec``'s own profile.  Twins share the graph and the stage and
    max-batch memos, which depend only on the graph, the cost config and
    ``kv_bytes_per_request``."""
    key = (spec, cost_model.config)
    profile = _PROFILE_CACHE.get(key)
    if profile is None:
        shared_key = (architecture(spec), cost_model.config)
        shared = _SHARED_PROFILE_CACHE.get(shared_key)
        if shared is None:
            profile = ModelProfile(
                spec=spec, graph=get_graph(spec), cost_model=cost_model
            )
            _SHARED_PROFILE_CACHE[shared_key] = profile
        else:
            profile = replace(shared, spec=spec)
        _PROFILE_CACHE[key] = profile
    return profile


def get_ladder(
    spec: ModelSpec, cost_model: CostModel, stage_counts: tuple[int, ...]
) -> GranularityLadder:
    """``spec``'s ladder.  The DP runs once per (architecture, cost
    config, stage counts); each twin gets it rebound to its own name."""
    stage_counts = tuple(stage_counts)
    key = (spec, cost_model.config, stage_counts)
    ladder = _LADDER_CACHE.get(key)
    if ladder is None:
        profile = get_profile(spec, cost_model)
        shared_key = (architecture(spec), cost_model.config, stage_counts)
        shared = _SHARED_LADDER_CACHE.get(shared_key)
        if shared is None:
            ladder = GranularityLadder(profile, stage_counts=stage_counts)
            _SHARED_LADDER_CACHE[shared_key] = ladder
        else:
            ladder = shared.rebind(profile)
        _LADDER_CACHE[key] = ladder
    return ladder


@dataclass
class ServingContext:
    """Everything a serving system needs from its environment."""

    sim: Simulator
    cluster: Cluster
    streams: RandomStreams
    cost_model: CostModel
    allocator: GPUAllocator
    hrg: HierarchicalResourceGraph
    data_mover: DataMover

    @classmethod
    def create(
        cls,
        sim: Simulator,
        cluster: Cluster,
        streams: RandomStreams,
        *,
        cost_config: CostModelConfig | None = None,
    ) -> "ServingContext":
        cost_model = CostModel(cost_config)
        return cls(
            sim=sim,
            cluster=cluster,
            streams=streams,
            cost_model=cost_model,
            allocator=GPUAllocator(cluster),
            hrg=HierarchicalResourceGraph(cluster),
            data_mover=DataMover(),
        )

    # ------------------------------------------------------------------
    def profile(self, spec: ModelSpec) -> ModelProfile:
        return get_profile(spec, self.cost_model)

    def ladder(
        self, spec: ModelSpec, stage_counts: tuple[int, ...] = (2, 4, 8, 16, 32)
    ) -> GranularityLadder:
        return get_ladder(spec, self.cost_model, stage_counts)
