#!/usr/bin/env python
"""Replay an Azure-Functions-style trace through FlexPipe (Fig. 1 workload).

The paper drives its evaluation with Azure Functions traces whose CV
changes 7x with the measurement window.  This example synthesises a
trace bundle with that structure, verifies the multi-window CV mismatch,
then replays the busiest app's traffic through FlexPipe and reports how
many inflight refactors the shifting burstiness triggered.

Run:  python examples/trace_replay.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    FlexPipeSystem,
    LLAMA2_7B,
    RandomStreams,
    ServingContext,
    Simulator,
    make_paper_cluster,
)
from repro.cluster.fragmentation import FragmentationModel
from repro.metrics.ascii_plot import sparkline
from repro.workloads.arrivals import ReplayArrivals
from repro.workloads.azure import (
    AzureSynthConfig,
    counts_to_timestamps,
    multi_window_cv,
    synthesize_azure_like,
)
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.splitwise import MixedCorpusSampler

REPLAY_SECONDS = 240.0


def main() -> None:
    rng = np.random.default_rng(11)

    # 1. Synthesise a trace bundle with the Azure dataset's structure.
    bundle = synthesize_azure_like(
        rng,
        AzureSynthConfig(
            n_apps=30,
            days=2.0,
            mean_total_rate=25.0,
            burst_probability=0.01,
            burst_scale=40.0,
        ),
    )
    top1 = bundle.top_apps(1)[0]
    print(f"bundle: {len(bundle)} functions, {bundle.duration / 3600:.0f} h")
    print(f"top app {top1.app}: {top1.total_invocations} invocations")

    # 2. The Fig. 1 phenomenon: CV depends strongly on the window.
    cvs = multi_window_cv(bundle.total_trace())
    print("\nFig. 1 check - CV of the total trace by window:")
    for window, cv in cvs.items():
        label = f"{window / 3600:.1f}h" if window >= 3600 else f"{window:.0f}s"
        print(f"  {label:>6}: CV = {cv:.2f}")
    spread = max(cvs.values()) / max(min(cvs.values()), 1e-9)
    print(f"  spread: {spread:.1f}x across windows")
    print("  rate  : " + sparkline(top1.rate_series().tolist(), width=72))

    # 3. Replay the top app's first minutes through FlexPipe at 6 req/s.
    sim = Simulator()
    streams = RandomStreams(seed=11)
    cluster = make_paper_cluster(sim)
    FragmentationModel(sim, cluster, streams).warm_up()
    ctx = ServingContext.create(sim, cluster, streams)
    # The controller's capacity model must know the corpus shape: a mixed
    # coding/conversation stream averages ~1800 prompt / ~60 output tokens.
    system = FlexPipeSystem(
        ctx,
        [LLAMA2_7B],
        initial_replicas=2,
        prompt_tokens=1800,
        output_tokens=60,
        slo_deadline=15.0,
    )
    system.start()
    sim.run(until=120.0)  # initial loads

    arrivals = ReplayArrivals(
        counts_to_timestamps(top1.rescaled(6.0), streams.stream("replay"))
    )
    sampler = MixedCorpusSampler(
        LLAMA2_7B.name,
        streams.stream("requests"),
        weights={"coding": 0.8, "conversation": 0.2},
        slo_latency=15.0,
    )
    WorkloadGenerator(sim, arrivals, sampler, system.submit, duration=REPLAY_SECONDS)
    sim.run(until=120.0 + REPLAY_SECONDS + 60.0)
    system.shutdown()

    # 4. Report.
    summary = system.summarize(REPLAY_SECONDS + 60.0)
    print(f"\n--- replayed {summary.offered} requests from {top1.app} ---")
    print(f"inter-arrival CV of replayed stream: {arrivals.cv:.2f}")
    print(f"completed    : {summary.completed}/{summary.offered}")
    print(f"goodput      : {summary.goodput_rate:.1%} within 15s SLO")
    print(f"mean latency : {summary.mean_latency:.2f}s")
    print(f"adaptation   : {summary.refactor_count} inflight refactors, "
          f"{summary.scale_out_count} scale-outs")


if __name__ == "__main__":
    main()
