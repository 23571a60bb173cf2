"""Operator-level profiling (the Profiling module of Fig. 5).

On the real system this measures each operator on hardware; here it
evaluates the calibrated cost model over the computation graph, producing
per-operator ``(t_c, s_p, s_a)`` and the stage-level aggregates the
partitioner (Eq. 2) and granularity policy (Eq. 4) consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.models.costs import CostModel
from repro.models.graph import ComputationGraph
from repro.models.zoo import ModelSpec


@dataclass(frozen=True)
class StageProfile:
    """Aggregated profile of a contiguous operator range [start, end)."""

    start: int
    end: int
    param_bytes: float
    flops_per_token: float
    kv_bytes_per_token: float
    n_ops: int
    boundary_act_bytes_per_token: float
    boundary_quality: float

    @property
    def kv_fraction_of(self) -> float:
        """Placeholder for clarity; use ModelProfile.kv_fraction(stage)."""
        return self.kv_bytes_per_token


@dataclass
class ModelProfile:
    """Profile of a full model against one cost model.

    ``stage()`` and the per-stage capacity queries are memoized: the
    partitioner's Eq. 2 DP probes the same operator ranges repeatedly, and
    batch formation re-reads the same stage aggregates on every batch.
    Profiles are immutable once built (graph and cost model never change),
    so the caches are never invalidated.  Both memos depend only on the
    graph, the cost config and ``spec.kv_bytes_per_request``, so tenants
    of one architecture share them (see ``repro.core.context``).
    """

    spec: ModelSpec
    graph: ComputationGraph
    cost_model: CostModel
    _stage_cache: dict = field(
        default_factory=dict, repr=False, compare=False
    )
    _max_batch_cache: dict = field(
        default_factory=dict, repr=False, compare=False
    )

    def stage(self, start: int, end: int) -> StageProfile:
        """Profile the operator range [start, end).  Memoized."""
        cached = self._stage_cache.get((start, end))
        if cached is not None:
            return cached
        if not (0 <= start < end <= len(self.graph)):
            raise ValueError(f"invalid stage range [{start}, {end})")
        last_op = self.graph.operators[end - 1]
        profile = StageProfile(
            start=start,
            end=end,
            param_bytes=self.graph.param_bytes(start, end),
            flops_per_token=self.graph.flops_per_token(start, end),
            kv_bytes_per_token=self.graph.kv_bytes_per_token(start, end),
            n_ops=end - start,
            boundary_act_bytes_per_token=last_op.activation_bytes_per_token,
            boundary_quality=(
                self.graph.boundary_quality(end - 1) if end < len(self.graph) else 1.0
            ),
        )
        self._stage_cache[(start, end)] = profile
        return profile

    def kv_fraction(self, stage: StageProfile) -> float:
        """Share of the model's KV cache resident in this stage."""
        total = self.graph.kv_bytes_per_token()
        if total <= 0:
            return 0.0
        return stage.kv_bytes_per_token / total

    def stage_compute_time(self, stage: StageProfile, batch: int) -> float:
        return self.cost_model.decode_iter_time(stage.param_bytes, batch)

    def stage_prefill_time(self, stage: StageProfile, batch: int, prompt: int) -> float:
        return self.cost_model.prefill_time(stage.flops_per_token, batch * prompt)

    def stage_max_batch(self, stage: StageProfile) -> int:
        key = (stage.start, stage.end)
        cached = self._max_batch_cache.get(key)
        if cached is None:
            kv_per_request = self.spec.kv_bytes_per_request * self.kv_fraction(stage)
            cached = self.cost_model.max_batch(stage.param_bytes, kv_per_request)
            self._max_batch_cache[key] = cached
        return cached
