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

The DP runs in matrix form.  One stage-cost matrix ``C[i, j]`` holds the
cost of every candidate stage, from the graph's parameter prefix sums:
row 0 starts at operator 0, row ``i + 1`` at the ``i``-th candidate end,
and column ``j`` ends at the ``j``-th.  Stages over the memory cap, and
empty or reversed ones, cost ``inf``.  Each extra stage is then one numpy
min-max step over all (previous end, new end) pairs at once: the
candidates are ``(max(bottleneck_i, C[i, j]), total_i + C[i, j])``, the
lexicographic minimum per column wins, and among equal candidates the
first row does.  No :class:`StageProfile` is built until the chosen plan
is.  The scalar per-stage cost and the triple-loop DP it replaces live on
as oracles in ``tests/test_model_artifacts.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

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


class InfeasiblePartition(ValueError):
    """No K-stage partition satisfies the constraints."""


class Partitioner:
    """Computes optimal K-stage plans over a model profile."""

    def __init__(self, profile: ModelProfile, config: PartitionerConfig | None = None):
        self.profile = profile
        self.config = config or PartitionerConfig()
        self.graph = profile.graph
        # Candidate stage ends (exclusive): a legal cut "after op i" ends a
        # stage at i + 1; the last stage always ends at the last operator.
        self._ends = [
            i + 1
            for i in self.graph.cut_points()
            if self.graph.boundary_quality(i) >= self.config.min_boundary_quality
        ] + [len(self.graph)]

    @property
    def n_positions(self) -> int:
        """Candidate stage-end positions under the boundary-quality filter
        (the maximum stage count any plan of this profile can have)."""
        return len(self._ends)

    # ------------------------------------------------------------------
    def plan(self, n_stages: int) -> PartitionPlan:
        """Optimal ``n_stages``-stage plan (Eq. 2)."""
        if n_stages < 1:
            raise ValueError(f"n_stages must be >= 1, got {n_stages}")
        name = self.profile.spec.name
        costs = self._stage_costs
        if n_stages == 1:
            cost = costs[0, -1]
            if np.isinf(cost):
                raise InfeasiblePartition(f"{name} does not fit on a single GPU")
            return build_plan(self.profile, self._ends[-1:], float(cost))

        n_pos = len(self._ends)
        if n_stages > n_pos:
            raise InfeasiblePartition(
                f"{name}: cannot make {n_stages} stages from {n_pos} legal boundaries"
            )
        columns = np.arange(n_pos)
        # (bottleneck[j], total[j]): the best plan so far ending at ends[j].
        bottleneck = total = costs[0]
        following = costs[1:]  # following[i, j]: the stage [ends[i], ends[j])
        choice = []
        for _ in range(1, n_stages):
            cand_bottleneck = np.maximum(bottleneck[:, None], following)
            cand_total = total[:, None] + following
            bottleneck = cand_bottleneck.min(axis=0)
            # Least total among the least bottlenecks; argmin keeps the
            # first row on exact ties.
            arg = np.where(
                cand_bottleneck == bottleneck, cand_total, np.inf
            ).argmin(axis=0)
            total = cand_total[arg, columns]
            unreachable = np.isinf(bottleneck)
            total[unreachable] = np.inf
            arg[unreachable] = -1
            choice.append(arg)

        if np.isinf(bottleneck[-1]):
            raise InfeasiblePartition(
                f"{name}: no feasible {n_stages}-stage plan under the memory constraint"
            )
        # Back-track boundaries.
        j = n_pos - 1
        boundaries = [self._ends[j]]
        for arg in reversed(choice):
            j = arg[j]
            boundaries.append(self._ends[j])
        boundaries.reverse()
        return build_plan(self.profile, boundaries, float(total[-1]))

    # ------------------------------------------------------------------
    @cached_property
    def _stage_costs(self) -> np.ndarray:
        """Eq. 2 cost of every candidate stage, ``inf`` where infeasible.

        Row 0 starts at operator 0 and row ``i + 1`` at ``ends[i]``;
        column ``j`` ends at ``ends[j]``.
        """
        cfg = self.config
        cost_model = self.profile.cost_model
        n_ops = len(self.graph)
        ends = np.array(self._ends)
        starts = np.concatenate(([0], ends))
        prefix = np.array(self.graph._param_prefix)
        param_bytes = prefix[ends][None, :] - prefix[starts][:, None]
        quality = np.array([
            self.graph.boundary_quality(end - 1) if end < n_ops else 1.0
            for end in self._ends
        ])
        t_c = cost_model.decode_iter_time(param_bytes, cfg.reference_batch)
        reload_penalty = np.maximum(
            param_bytes / cfg.bandwidth - cfg.overlap_budget, 0.0
        )
        boundary_penalty = cfg.boundary_weight * (1.0 - quality)
        costs = t_c + reload_penalty + boundary_penalty
        gpu_memory = (
            cfg.gpu_memory
            if cfg.gpu_memory is not None
            else cost_model.config.gpu_memory
        )
        costs[(param_bytes > gpu_memory) | (starts[:, None] >= ends[None, :])] = np.inf
        return costs
