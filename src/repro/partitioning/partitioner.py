"""Eq. 2 constrained partitioning as a min-max dynamic program.

The objective per stage is::

    cost(S_k) = t_c(S_k) + max(s_p(S_k)/B - C, 0) + lambda * (1 - R(S_k))

where ``t_c`` is the calibrated stage compute time, ``s_p/B`` the parameter
(re)load time against inter-stage bandwidth ``B``, ``C`` the target
computation-communication overlap budget, and ``R`` the refactoring
potential of the stage's trailing boundary (1.0 at layer boundaries).  The
DP minimises the *bottleneck* stage cost (pipeline throughput is set by the
slowest stage) with total cost as tie-breaker, subject to the hard memory
constraint ``s_p(S_k) <= M_GPU``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.models.profiler import ModelProfile
from repro.partitioning.plan import PartitionPlan, build_plan


@dataclass(frozen=True)
class PartitionerConfig:
    """Eq. 2 hyper-parameters."""

    bandwidth: float = 12.5 * 1024**3  # B: inter-stage bandwidth (bytes/s)
    overlap_budget: float = 2.0  # C: tolerated reload seconds per stage
    boundary_weight: float = 5e-3  # lambda: refactorability regulariser
    reference_batch: int = 1  # batch at which t_c is evaluated
    gpu_memory: float | None = None  # defaults to cost-model GPU memory
    # Only consider cuts at boundaries of at least this quality (0.5 = block
    # boundaries).  Lower values enlarge the DP search space with awkward
    # mid-block cuts the Eq. 2 regulariser would reject anyway.
    min_boundary_quality: float = 0.5


_UNSET = object()  # a stage cost not yet evaluated (None means infeasible)


class InfeasiblePartition(ValueError):
    """No K-stage partition satisfies the constraints."""


class Partitioner:
    """Computes optimal K-stage plans over a model profile."""

    def __init__(self, profile: ModelProfile, config: PartitionerConfig | None = None):
        self.profile = profile
        self.config = config or PartitionerConfig()
        self.graph = profile.graph
        # Legal stage boundaries: operator index i means "cut after op i".
        self._cuts = [
            i
            for i in self.graph.cut_points()
            if self.graph.boundary_quality(i) >= self.config.min_boundary_quality
        ]

    @property
    def n_positions(self) -> int:
        """Candidate stage-end positions under the boundary-quality filter
        (the maximum stage count any plan of this profile can have)."""
        return len(self._cuts) + 1

    # ------------------------------------------------------------------
    def plan(self, n_stages: int) -> PartitionPlan:
        """Optimal ``n_stages``-stage plan (Eq. 2)."""
        if n_stages < 1:
            raise ValueError(f"n_stages must be >= 1, got {n_stages}")
        n_ops = len(self.graph)
        if n_stages == 1:
            cost = self._stage_cost(0, n_ops)
            if cost is None:
                raise InfeasiblePartition(
                    f"{self.profile.spec.name} does not fit on a single GPU"
                )
            return build_plan(self.profile, [n_ops], cost)

        # Candidate stage end positions (exclusive): cut "after op i" => end i+1.
        ends = [i + 1 for i in self._cuts] + [n_ops]
        n_pos = len(ends)
        if n_stages > n_pos:
            raise InfeasiblePartition(
                f"{self.profile.spec.name}: cannot make {n_stages} stages from "
                f"{n_pos} legal boundaries"
            )

        infinity = math.inf
        # dp[k][j]: (bottleneck, total) for first k stages ending at ends[j].
        prev = [self._pair(self._stage_cost(0, ends[j])) for j in range(n_pos)]
        # costs[j][i]: cost of the stage [ends[i], ends[j]).  Every k
        # revisits the same (i, j) pairs, so each is evaluated once.
        costs: list[dict[int, float | None]] = [{} for _ in range(n_pos)]
        choice: list[list[int]] = []
        for k in range(1, n_stages):
            cur = [(infinity, infinity)] * n_pos
            arg = [-1] * n_pos
            for j in range(k, n_pos):
                end = ends[j]
                column = costs[j]
                best = (infinity, infinity)
                best_i = -1
                for i in range(k - 1, j):
                    base = prev[i]
                    if math.isinf(base[0]):
                        continue
                    cost = column.get(i, _UNSET)
                    if cost is _UNSET:
                        cost = column[i] = self._stage_cost(ends[i], end)
                    if cost is None:
                        continue
                    cand = (max(base[0], cost), base[1] + cost)
                    if cand < best:
                        best = cand
                        best_i = i
                cur[j] = best
                arg[j] = best_i
            prev = cur
            choice.append(arg)

        final = prev[n_pos - 1]
        if math.isinf(final[0]):
            raise InfeasiblePartition(
                f"{self.profile.spec.name}: no feasible {n_stages}-stage plan "
                f"under the memory constraint"
            )
        # Back-track boundaries.
        boundaries = [ends[n_pos - 1]]
        j = n_pos - 1
        for k in range(n_stages - 1, 0, -1):
            j = choice[k - 1][j]
            boundaries.append(ends[j])
        boundaries.reverse()
        return build_plan(self.profile, boundaries, final[1])

    # ------------------------------------------------------------------
    def _pair(self, cost: float | None) -> tuple[float, float]:
        if cost is None:
            return (math.inf, math.inf)
        return (cost, cost)

    def _stage_cost(self, start: int, end: int) -> float | None:
        """Eq. 2 stage cost, or None if the stage violates the memory cap."""
        cfg = self.config
        stage = self.profile.stage(start, end)
        gpu_memory = (
            cfg.gpu_memory
            if cfg.gpu_memory is not None
            else self.profile.cost_model.config.gpu_memory
        )
        if stage.param_bytes > gpu_memory:
            return None
        t_c = self.profile.stage_compute_time(stage, cfg.reference_batch)
        reload_penalty = max(stage.param_bytes / cfg.bandwidth - cfg.overlap_budget, 0.0)
        boundary_penalty = cfg.boundary_weight * (1.0 - stage.boundary_quality)
        return t_c + reload_penalty + boundary_penalty
