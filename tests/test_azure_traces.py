"""Tests for the Azure-Functions-style trace substrate (Fig. 1 workload)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.arrivals import ReplayArrivals
from repro.workloads.azure import (
    AzureSynthConfig,
    FunctionTrace,
    TraceBundle,
    binned_count_cv,
    counts_to_timestamps,
    fig1_report,
    multi_window_cv,
    synthesize_azure_like,
)


def make_trace(counts, bin_seconds=60.0, app="app000", function="fn0"):
    return FunctionTrace("owner", app, function, "http", np.array(counts), bin_seconds)


class TestFunctionTrace:
    def test_basic_stats(self):
        t = make_trace([10, 20, 30])
        assert t.n_bins == 3
        assert t.duration == 180.0
        assert t.total_invocations == 60
        assert t.mean_rate == pytest.approx(60 / 180.0)

    def test_rate_series(self):
        t = make_trace([60, 120])
        assert t.rate_series().tolist() == [1.0, 2.0]

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            make_trace([1, -2, 3])

    def test_two_dimensional_counts_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            FunctionTrace("o", "a", "f", "http", np.ones((2, 2)))

    def test_nonpositive_bin_rejected(self):
        with pytest.raises(ValueError, match="bin_seconds"):
            make_trace([1], bin_seconds=0.0)

    def test_rescale_hits_target_rate(self):
        t = make_trace([5, 10, 15, 20])
        scaled = t.rescaled(target_mean_rate=2.0)
        assert scaled.mean_rate == pytest.approx(2.0, rel=0.02)

    def test_rescale_preserves_shape(self):
        t = make_trace([100, 200, 400, 100])
        scaled = t.rescaled(target_mean_rate=t.mean_rate * 3)
        ratio = scaled.counts / t.counts
        assert np.allclose(ratio, 3.0, rtol=0.05)

    def test_rescale_empty_trace_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            make_trace([0, 0]).rescaled(1.0)

    def test_rescale_bad_target_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            make_trace([1, 2]).rescaled(0.0)


class TestBinnedCountCV:
    def test_constant_counts_have_zero_cv(self):
        assert binned_count_cv(np.full(100, 7), 60.0, 120.0) == 0.0

    def test_bursty_counts_have_high_cv(self):
        counts = np.zeros(100)
        counts[::10] = 100
        cv = binned_count_cv(counts, 60.0, 60.0)
        assert cv > 2.0

    def test_aggregation_smooths_alternation(self):
        # Alternating 0/20 is maximally bursty at 1-bin windows but exactly
        # flat at 2-bin windows.
        counts = np.tile([0, 20], 50)
        assert binned_count_cv(counts, 60.0, 60.0) == pytest.approx(1.0)
        assert binned_count_cv(counts, 60.0, 120.0) == pytest.approx(0.0)

    def test_window_below_bin_rejected(self):
        with pytest.raises(ValueError, match="bin width"):
            binned_count_cv(np.ones(10), 60.0, 30.0)

    def test_too_few_windows_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            binned_count_cv(np.ones(3), 60.0, 180.0)

    def test_all_zero_counts(self):
        assert binned_count_cv(np.zeros(10), 60.0, 60.0) == 0.0

    @given(
        counts=st.lists(st.integers(min_value=0, max_value=50), min_size=8, max_size=64),
        group=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=50, deadline=None)
    def test_cv_is_scale_invariant(self, counts, group):
        """Multiplying every count by a constant leaves the CV unchanged."""
        counts = np.array(counts, dtype=np.int64)
        if counts.shape[0] // group < 2 or counts.sum() == 0:
            return
        base = binned_count_cv(counts, 60.0, 60.0 * group)
        scaled = binned_count_cv(counts * 7, 60.0, 60.0 * group)
        assert scaled == pytest.approx(base, abs=1e-9)


class TestTraceBundle:
    def make_bundle(self):
        return TraceBundle(
            [
                make_trace([1, 2, 3, 4], app="appA", function="f1"),
                make_trace([4, 3, 2, 1], app="appA", function="f2"),
                make_trace([10, 10, 10, 10], app="appB", function="f1"),
            ]
        )

    def test_app_trace_sums_functions(self):
        bundle = self.make_bundle()
        merged = bundle.app_trace("appA")
        assert merged.counts.tolist() == [5, 5, 5, 5]

    def test_total_trace_sums_everything(self):
        assert self.make_bundle().total_trace().counts.tolist() == [15, 15, 15, 15]

    def test_top_apps_ranked_by_volume(self):
        top = self.make_bundle().top_apps(2)
        assert [t.app for t in top] == ["appB", "appA"]

    def test_unknown_app_raises(self):
        with pytest.raises(KeyError):
            self.make_bundle().app_trace("nope")

    def test_mismatched_bins_rejected(self):
        with pytest.raises(ValueError, match="share bin width"):
            TraceBundle([make_trace([1, 2]), make_trace([1, 2, 3])])

    def test_empty_bundle_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            TraceBundle([])

    def test_csv_roundtrip(self, tmp_path):
        bundle = self.make_bundle()
        path = tmp_path / "trace.csv"
        bundle.write_csv(path)
        loaded = TraceBundle.read_csv(path)
        assert len(loaded) == len(bundle)
        for orig, back in zip(bundle.functions, loaded.functions):
            assert back.owner == orig.owner
            assert back.app == orig.app
            assert back.function == orig.function
            assert back.trigger == orig.trigger
            assert back.counts.tolist() == orig.counts.tolist()

    def test_read_rejects_foreign_csv(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="Azure Functions"):
            TraceBundle.read_csv(path)


class TestSynthesis:
    def test_deterministic_given_seed(self):
        cfg = AzureSynthConfig(n_apps=5, days=0.25)
        b1 = synthesize_azure_like(np.random.default_rng(7), cfg)
        b2 = synthesize_azure_like(np.random.default_rng(7), cfg)
        assert b1.total_trace().counts.tolist() == b2.total_trace().counts.tolist()

    def test_mean_rate_near_target(self):
        cfg = AzureSynthConfig(n_apps=10, days=1.0, mean_total_rate=20.0)
        bundle = synthesize_azure_like(np.random.default_rng(0), cfg)
        assert bundle.total_trace().mean_rate == pytest.approx(20.0, rel=0.25)

    def test_popularity_is_skewed(self):
        cfg = AzureSynthConfig(n_apps=20, days=0.5)
        bundle = synthesize_azure_like(np.random.default_rng(1), cfg)
        top1, top2 = bundle.top_apps(2)
        median_volume = np.median(
            [bundle.app_trace(a).total_invocations for a in bundle.app_ids()]
        )
        assert top1.total_invocations > 3 * median_volume

    def test_fig1_multi_window_cv_mismatch(self):
        """The headline Fig. 1 claim: short-window CV >> long-window CV."""
        cfg = AzureSynthConfig(n_apps=20, days=2.0)
        bundle = synthesize_azure_like(np.random.default_rng(42), cfg)
        cvs = multi_window_cv(bundle.total_trace())
        short, mid, long_ = cvs[180.0], cvs[3 * 3600.0], cvs[12 * 3600.0]
        assert short > 2 * long_  # burst minutes inflate short windows
        assert short > mid

    def test_fig1_report_covers_total_and_top_apps(self):
        cfg = AzureSynthConfig(n_apps=6, days=2.0)
        bundle = synthesize_azure_like(np.random.default_rng(3), cfg)
        report = fig1_report(bundle)
        assert set(report) == {"total", "top1", "top2"}
        for cvs in report.values():
            assert set(cvs) == {180.0, 3 * 3600.0, 12 * 3600.0}


class TestReplay:
    def test_counts_to_timestamps_counts_match(self):
        t = make_trace([3, 0, 5])
        stamps = counts_to_timestamps(t, np.random.default_rng(0))
        assert stamps.shape[0] == 8
        assert (stamps[:3] < 60.0).all()
        assert (stamps[3:] >= 120.0).all()

    def test_timestamps_sorted(self):
        t = make_trace([10, 10, 10])
        stamps = counts_to_timestamps(t, np.random.default_rng(0))
        assert (np.diff(stamps) >= 0).all()

    def test_start_placement_stacks_at_bin_start(self):
        t = make_trace([4])
        stamps = counts_to_timestamps(t, np.random.default_rng(0), placement="start")
        assert stamps.tolist() == [0.0] * 4

    def test_bad_placement_rejected(self):
        with pytest.raises(ValueError, match="placement"):
            counts_to_timestamps(make_trace([1]), np.random.default_rng(0), placement="mid")

    def test_empty_trace_yields_no_stamps(self):
        stamps = counts_to_timestamps(make_trace([0, 0]), np.random.default_rng(0))
        assert stamps.shape == (0,)

    def test_replay_arrivals_reproduce_timestamps(self):
        t = make_trace([2, 2])
        expected = counts_to_timestamps(t, np.random.default_rng(5))
        proc = ReplayArrivals(counts_to_timestamps(t, np.random.default_rng(5)))
        stamps = []
        now = 0.0
        for _ in range(4):
            gap = proc.next_interarrival()
            now += gap
            stamps.append(now)
        assert proc.next_interarrival() == math.inf
        assert stamps == pytest.approx(expected.tolist())
        assert all(s <= 120.0 for s in stamps)

    def test_replay_rescales_on_request(self):
        t = make_trace([10, 10, 10, 10])
        proc = ReplayArrivals(
            counts_to_timestamps(t.rescaled(2 * t.mean_rate), np.random.default_rng(0))
        )
        assert len(proc.timestamps) == pytest.approx(80, abs=2)

    def test_replay_cv_positive_for_bursty_trace(self):
        counts = np.zeros(30, dtype=np.int64)
        counts[::10] = 50
        proc = ReplayArrivals(
            counts_to_timestamps(make_trace(counts.tolist()), np.random.default_rng(0))
        )
        assert proc.cv > 1.0

    @given(st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_replay_emits_exactly_total_invocations(self, counts):
        t = make_trace(counts)
        proc = ReplayArrivals(counts_to_timestamps(t, np.random.default_rng(1)))
        n = 0
        while proc.next_interarrival() != math.inf:
            n += 1
        assert n == t.total_invocations
