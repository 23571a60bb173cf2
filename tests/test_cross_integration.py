"""Cross-module integration: new subsystems driving the live serving stack.

Each test wires several of the later-added components (trace replay,
admission control, plan serialization/diffing, paged KV, calibration)
through the same public API an application would use, catching interface
drift that unit tests cannot.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.cluster import make_small_cluster
from repro.core.admission import AdmissionGate, SLOFeasiblePolicy
from repro.core.context import ServingContext
from repro.core.flexpipe import FlexPipeSystem
from repro.models.calibration import TABLE2_ROWS, fit_cost_model
from repro.models.costs import CostModel
from repro.models.profiler import ModelProfile
from repro.models.transformer import build_transformer
from repro.models.zoo import LLAMA2_7B, OPT_66B
from repro.partitioning.ladder import GranularityLadder
from repro.partitioning.serialize import diff_plans, plan_from_json, plan_to_json
from repro.pipeline.paged_kv import PagedKVCache, PagedKVConfig
from repro.simulation.engine import Simulator
from repro.simulation.randomness import RandomStreams
from repro.workloads.azure import FunctionTrace, TraceReplayArrivals
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.requests import RequestSampler


@pytest.fixture
def serving():
    sim = Simulator()
    streams = RandomStreams(seed=21)
    cluster = make_small_cluster(sim, n_servers=8, gpus_per_server=2)
    ctx = ServingContext.create(sim, cluster, streams)
    system = FlexPipeSystem(ctx, [LLAMA2_7B], initial_replicas=2)
    system.start()
    sim.run(until=150.0)
    return sim, streams, system


class TestTraceReplayThroughSystem:
    def test_replayed_trace_is_fully_served(self, serving):
        sim, streams, system = serving
        counts = np.full(4, 30, dtype=np.int64)  # 2 req/s over 2 minutes
        trace = FunctionTrace("o", "app", "fn", "http", counts, 60.0)
        arrivals = TraceReplayArrivals(trace, streams.stream("replay"))
        generator = WorkloadGenerator(
            sim,
            arrivals,
            RequestSampler(LLAMA2_7B.name, streams.stream("req")),
            system.submit,
            duration=240.0,
        )
        sim.run(until=sim.now + 400.0)
        system.shutdown()
        assert generator.offered == trace.total_invocations
        assert all(r.completed for r in generator.requests)


class TestAdmissionInFrontOfSystem:
    def test_gate_composes_with_submit(self, serving):
        sim, streams, system = serving
        router = system.routers[LLAMA2_7B.name]
        policy = SLOFeasiblePolicy(
            lambda: router.waiting_count,
            lambda: 20.0,
            lambda r: 0.5,
        )
        gate = AdmissionGate(system.submit, policy)
        generator = WorkloadGenerator(
            sim,
            TraceReplayArrivals(
                FunctionTrace("o", "a", "f", "http", np.array([120]), 60.0),
                streams.stream("replay"),
            ),
            RequestSampler(LLAMA2_7B.name, streams.stream("req")),
            gate.submit,
            duration=60.0,
        )
        sim.run(until=sim.now + 200.0)
        system.shutdown()
        assert gate.stats.offered == 120
        assert gate.stats.admitted == system.metrics.offered
        admitted = [r for r in generator.requests if not r.rejected]
        assert all(r.completed for r in admitted)


class TestPlanRoundTripDrivesDiff:
    def test_serialized_plans_diff_like_originals(self, llama_profile):
        ladder = GranularityLadder(llama_profile, stage_counts=(2, 4, 8))
        coarse, fine = ladder.plan(2), ladder.plan(8)
        coarse2 = plan_from_json(plan_to_json(coarse), llama_profile)
        fine2 = plan_from_json(plan_to_json(fine), llama_profile)
        original = diff_plans(coarse, fine)
        roundtrip = diff_plans(coarse2, fine2)
        assert roundtrip.kind == original.kind == "split"
        assert roundtrip.reused_gpus == original.reused_gpus
        assert roundtrip.total_load_bytes == pytest.approx(
            original.total_load_bytes
        )


class TestPagedKVSizedFromProfile:
    def test_stage_kv_pool_from_model_profile(self, opt_profile):
        """Size a paged pool exactly like a stage reservation would."""
        ladder = GranularityLadder(opt_profile, stage_counts=(4,))
        stage = ladder.plan(4).stages[0]
        per_token = stage.profile.kv_bytes_per_token
        assert per_token > 0
        pool_bytes = 8 * 2**30  # an 8 GiB KV slice of the stage reservation
        config = PagedKVConfig(
            n_blocks=int(pool_bytes / (16 * per_token)),
            block_tokens=16,
            bytes_per_token=per_token,
        )
        cache = PagedKVCache(config)
        cache.register(1, prompt_tokens=4096)
        assert cache.resident_bytes >= 4096 * per_token
        # One max-length context costs ~2.3 GiB of stage KV (576 KiB/token
        # on a 4-stage OPT-66B shard): the 8 GiB slice holds ~3 of them —
        # the same physics that caps Table 2's max batch.
        assert 0.1 < cache.utilization < 0.5
        assert cache.can_admit(4096) and cache.can_admit(2 * 4096)
        assert not cache.can_admit(3 * 4096)
        cache.check_invariants()


class TestCalibrationDrivesCostModel:
    def test_fitted_model_reproduces_table2_load_curve(self):
        report = fit_cost_model(list(TABLE2_ROWS))
        fitted = CostModel(report.config)
        for row in TABLE2_ROWS:
            assert fitted.cold_load_time(row.param_bytes) == pytest.approx(
                row.load_time, rel=0.01
            )

    def test_fitted_model_profiles_a_real_graph(self):
        report = fit_cost_model(list(TABLE2_ROWS))
        profile = ModelProfile(
            spec=OPT_66B,
            graph=build_transformer(OPT_66B),
            cost_model=CostModel(report.config),
        )
        ladder = GranularityLadder(profile, stage_counts=(4, 8))
        assert ladder.plan(8).n_stages == 8
        assert ladder.plan(4).max_batch >= ladder.plan(8).max_batch / 4
