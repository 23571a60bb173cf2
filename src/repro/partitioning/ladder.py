"""Nested granularity ladder: the candidate set G of Eq. 4.

The ladder first computes the *finest* feasible plan, then derives every
coarser plan by optimally grouping contiguous fine stages (min-max DP over
fine-stage compute).  Because coarse stages are exact unions of fine
stages, runtime transitions between any two rungs only move whole fine
stages — merged stages "reuse existing memory layouts" exactly as §5
requires, and split stages load only the complement.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np

from repro.models.profiler import ModelProfile
from repro.partitioning.partitioner import Partitioner, PartitionerConfig
from repro.partitioning.plan import PartitionPlan, build_plan


@dataclass(frozen=True)
class LadderRung:
    """One granularity: a plan plus its mapping onto the finest rung."""

    n_stages: int
    plan: PartitionPlan
    # groups[k] = (first_fine_stage, last_fine_stage_exclusive) merged into
    # coarse stage k of this rung.
    groups: tuple[tuple[int, int], ...]


class GranularityLadder:
    """Builds and indexes the nested plans for one model."""

    DEFAULT_STAGE_COUNTS = (1, 2, 4, 8, 16, 32)

    def __init__(
        self,
        profile: ModelProfile,
        *,
        stage_counts: tuple[int, ...] | None = None,
        partitioner_config: PartitionerConfig | None = None,
    ):
        self.profile = profile
        counts = tuple(sorted(set(stage_counts or self.DEFAULT_STAGE_COUNTS)))
        partitioner = Partitioner(profile, partitioner_config)
        feasible = self._feasible_counts(counts, partitioner)
        if not feasible:
            raise ValueError(
                f"{profile.spec.name}: no feasible granularity among {counts}"
            )
        finest = feasible[-1]
        self.fine_plan = partitioner.plan(finest)
        self._rungs: dict[int, LadderRung] = {}
        for count in feasible:
            self._rungs[count] = self._group_rung(count)

    # ------------------------------------------------------------------
    @property
    def stage_counts(self) -> list[int]:
        return sorted(self._rungs)

    @property
    def finest(self) -> int:
        return max(self._rungs)

    @property
    def coarsest(self) -> int:
        return min(self._rungs)

    def rung(self, n_stages: int) -> LadderRung:
        try:
            return self._rungs[n_stages]
        except KeyError:
            raise KeyError(
                f"no {n_stages}-stage rung; available: {self.stage_counts}"
            ) from None

    def plan(self, n_stages: int) -> PartitionPlan:
        return self.rung(n_stages).plan

    def rebind(self, profile: ModelProfile) -> "GranularityLadder":
        """This ladder for another tenant of the same architecture.

        The rungs depend only on the architecture and the cost model, so
        the copy keeps them and renames every plan to
        ``profile.spec.name``.
        """
        name = profile.spec.name
        ladder = copy.copy(self)
        ladder.profile = profile
        ladder._rungs = {
            count: replace(rung, plan=replace(rung.plan, model_name=name))
            for count, rung in self._rungs.items()
        }
        ladder.fine_plan = ladder._rungs[ladder.finest].plan
        return ladder

    # ------------------------------------------------------------------
    def _feasible_counts(self, counts, partitioner) -> list[int]:
        """Counts whose plans satisfy memory + boundary-availability limits."""
        out = []
        # Count only the boundaries the partitioner will actually cut at
        # (its quality filter drops mid-block cuts): shallow models can
        # have fewer legal positions than raw graph cut points.
        n_boundaries = partitioner.n_positions
        gpu_memory = self.profile.cost_model.config.gpu_memory
        total = self.profile.graph.total_param_bytes
        for count in counts:
            if count > n_boundaries:
                continue
            # A K-stage plan needs every stage under the memory cap; a
            # necessary condition is total/K <= cap (balanced), a sufficient
            # check is done by the DP itself — use the cheap necessary test
            # plus a guard for the single-stage case.
            if total / count > gpu_memory and count > 1:
                continue
            if count == 1 and total > gpu_memory:
                continue
            out.append(count)
        return out

    def _group_rung(self, n_stages: int) -> LadderRung:
        """Min-max grouping of fine stages into ``n_stages`` coarse stages."""
        fine = self.fine_plan.stages
        n_fine = len(fine)
        if n_stages > n_fine:
            raise ValueError(f"cannot split {n_fine} fine stages into {n_stages}")
        if n_stages == n_fine:
            groups = tuple((i, i + 1) for i in range(n_fine))
            return LadderRung(n_stages, self.fine_plan, groups)

        prefix = np.array(list(accumulate(
            (self.profile.stage_compute_time(s.profile, 1) for s in fine),
            initial=0.0,
        )))
        bytes_prefix = np.array(list(accumulate(
            (s.param_bytes for s in fine), initial=0.0
        )))
        gpu_memory = self.profile.cost_model.config.gpu_memory
        # costs[i, j]: merging fine stages [i, j) into one coarse stage.
        index = np.arange(n_fine + 1)
        costs = prefix[None, :] - prefix[:, None]
        costs[
            (bytes_prefix[None, :] - bytes_prefix[:, None] > gpu_memory)
            | (index[:, None] >= index[None, :])
        ] = np.inf

        # best[j]: min bottleneck of k groups covering fine[0:j], one
        # min-max step per group (argmin keeps the first row on ties).
        best = np.full(n_fine + 1, np.inf)
        best[0] = 0.0
        choice = []
        for _ in range(n_stages):
            cand = np.maximum(best[:, None], costs)
            arg = cand.argmin(axis=0)
            best = cand[arg, index]
            arg[np.isinf(best)] = -1
            choice.append(arg)
        if np.isinf(best[n_fine]):
            raise ValueError(
                f"{self.profile.spec.name}: no feasible {n_stages}-stage grouping"
            )
        # Back-track group boundaries in fine-stage space.
        bounds = [n_fine]
        j = n_fine
        for arg in reversed(choice):
            j = int(arg[j])
            bounds.append(j)
        bounds.reverse()  # [0, ..., n_fine]
        groups = tuple((bounds[i], bounds[i + 1]) for i in range(n_stages))
        # Convert fine-stage groups to operator boundaries for the plan.
        op_boundaries = [fine[hi - 1].end for (_, hi) in groups]
        plan = build_plan(self.profile, op_boundaries, float(best[n_fine]))
        return LadderRung(n_stages, plan, groups)
