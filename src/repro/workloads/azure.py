"""Azure-Functions-style invocation traces (the paper's workload source).

The paper drives its evaluation with Microsoft Azure Functions traces [57]
(per-minute invocation counts per function, keyed by hashed owner/app ids)
and reports the Fig. 1 phenomenon on the "Top-1" and "Top-2" apps: the CV
of the request distribution differs by up to 7x depending on the window it
is measured over.  The real dataset is proprietary-scale but its *schema*
is public, so this module provides:

* :class:`FunctionTrace` / :class:`TraceBundle` — in-memory representation
  of per-minute invocation-count traces, one row per function;
* CSV read/write in the Azure Functions dataset layout
  (``HashOwner,HashApp,HashFunction,Trigger,1,2,...,N``);
* :func:`synthesize_azure_like` — a generator that reproduces the dataset's
  published structure (Zipf app popularity, diurnal + weekly envelopes,
  bursty minutes) so every experiment has a drop-in substitute;
* :func:`counts_to_timestamps` — thinning binned counts into request
  timestamps, which :class:`~repro.workloads.arrivals.ReplayArrivals`
  replays through the simulator.
"""

from __future__ import annotations

import csv
import pathlib
from dataclasses import dataclass

import numpy as np

#: Bin width of the real Azure Functions dataset.
AZURE_BIN_SECONDS = 60.0

#: The Fig. 1 measurement windows (seconds).
FIG1_WINDOWS = (180.0, 3 * 3600.0, 12 * 3600.0)


@dataclass(frozen=True)
class FunctionTrace:
    """Per-minute invocation counts for one serverless function.

    ``counts[i]`` is the number of invocations in bin ``i``; bins are
    ``bin_seconds`` wide and start at t=0.
    """

    owner: str
    app: str
    function: str
    trigger: str
    counts: np.ndarray
    bin_seconds: float = AZURE_BIN_SECONDS

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.ndim != 1:
            raise ValueError(f"counts must be 1-D, got shape {counts.shape}")
        if (counts < 0).any():
            raise ValueError("invocation counts cannot be negative")
        if self.bin_seconds <= 0:
            raise ValueError(f"bin_seconds must be positive, got {self.bin_seconds}")
        object.__setattr__(self, "counts", counts)

    @property
    def n_bins(self) -> int:
        return int(self.counts.shape[0])

    @property
    def duration(self) -> float:
        """Trace length in seconds."""
        return self.n_bins * self.bin_seconds

    @property
    def total_invocations(self) -> int:
        return int(self.counts.sum())

    @property
    def mean_rate(self) -> float:
        """Average request rate in req/s over the whole trace."""
        if self.n_bins == 0:
            return 0.0
        return self.total_invocations / self.duration

    def rate_series(self) -> np.ndarray:
        """Per-bin request rate in req/s."""
        return self.counts / self.bin_seconds

    def rescaled(self, target_mean_rate: float) -> "FunctionTrace":
        """Scale counts so the mean rate becomes ``target_mean_rate`` req/s.

        Scaling preserves the *shape* (and therefore every windowed CV) while
        letting experiments replay a trace against a differently sized
        deployment.  Counts are rounded stochastically-free (largest
        remainder) so the total matches the target as closely as integer
        counts allow.
        """
        if target_mean_rate <= 0:
            raise ValueError("target_mean_rate must be positive")
        if self.total_invocations == 0:
            raise ValueError("cannot rescale an empty trace")
        factor = target_mean_rate * self.duration / self.total_invocations
        scaled = self.counts * factor
        floors = np.floor(scaled).astype(np.int64)
        deficit = int(round(scaled.sum())) - int(floors.sum())
        if deficit > 0:
            # Give the remaining invocations to the bins with the largest
            # fractional remainders, keeping the temporal shape intact.
            remainders = scaled - floors
            top = np.argsort(remainders)[::-1][:deficit]
            floors[top] += 1
        return FunctionTrace(
            self.owner, self.app, self.function, self.trigger, floors, self.bin_seconds
        )

    def window_cv(self, window: float) -> float:
        """CV of invocation counts aggregated into ``window``-second bins."""
        return binned_count_cv(self.counts, self.bin_seconds, window)


def binned_count_cv(counts: np.ndarray, bin_seconds: float, window: float) -> float:
    """CV of counts re-aggregated from ``bin_seconds`` bins into ``window`` bins.

    Fig. 1 measures the CV of the request distribution at several window
    sizes; for a binned trace that is the std/mean of window-aggregated
    counts.  ``window`` is rounded to a whole number of source bins (and
    must be at least one bin).
    """
    counts = np.asarray(counts, dtype=np.float64)
    if window < bin_seconds:
        raise ValueError(
            f"window ({window}s) must be >= the trace bin width ({bin_seconds}s)"
        )
    group = max(int(round(window / bin_seconds)), 1)
    n_groups = counts.shape[0] // group
    if n_groups < 2:
        raise ValueError(
            f"trace too short: {counts.shape[0]} bins give {n_groups} windows of "
            f"{group} bins; need >= 2"
        )
    grouped = counts[: n_groups * group].reshape(n_groups, group).sum(axis=1)
    mean = grouped.mean()
    if mean == 0:
        return 0.0
    return float(grouped.std() / mean)


def multi_window_cv(
    trace: FunctionTrace, windows: tuple[float, ...] = FIG1_WINDOWS
) -> dict[float, float]:
    """The Fig. 1 measurement: CV of one trace at several window sizes."""
    return {w: trace.window_cv(w) for w in windows}


class TraceBundle:
    """A collection of function traces sharing a common bin grid.

    Mirrors one day-file of the Azure Functions dataset: many functions,
    grouped into apps, grouped into owners.
    """

    def __init__(self, functions: list[FunctionTrace]):
        if not functions:
            raise ValueError("a TraceBundle needs at least one function trace")
        n_bins = functions[0].n_bins
        bin_seconds = functions[0].bin_seconds
        for f in functions:
            if f.n_bins != n_bins or f.bin_seconds != bin_seconds:
                raise ValueError(
                    "all traces in a bundle must share bin width and length"
                )
        self.functions = list(functions)
        self.bin_seconds = bin_seconds
        self.n_bins = n_bins

    def __len__(self) -> int:
        return len(self.functions)

    @property
    def duration(self) -> float:
        return self.n_bins * self.bin_seconds

    def app_ids(self) -> list[str]:
        seen: dict[str, None] = {}
        for f in self.functions:
            seen.setdefault(f.app, None)
        return list(seen)

    def app_trace(self, app: str) -> FunctionTrace:
        """Sum all functions of ``app`` into one per-app trace."""
        rows = [f for f in self.functions if f.app == app]
        if not rows:
            raise KeyError(f"unknown app {app!r}")
        counts = np.sum([f.counts for f in rows], axis=0)
        return FunctionTrace(
            rows[0].owner, app, f"{app}-all", "aggregate", counts, self.bin_seconds
        )

    def total_trace(self) -> FunctionTrace:
        """Sum every function into one cluster-wide trace (Fig. 1a)."""
        counts = np.sum([f.counts for f in self.functions], axis=0)
        return FunctionTrace("all", "all", "all", "aggregate", counts, self.bin_seconds)

    def top_apps(self, k: int = 2) -> list[FunctionTrace]:
        """Apps ranked by total invocations — the paper's Top-1/Top-2 apps."""
        if k < 1:
            raise ValueError("k must be >= 1")
        per_app = [(self.app_trace(a)) for a in self.app_ids()]
        per_app.sort(key=lambda t: t.total_invocations, reverse=True)
        return per_app[:k]

    # ------------------------------------------------------------------
    # CSV IO (Azure Functions dataset layout)
    # ------------------------------------------------------------------
    HEADER_PREFIX = ["HashOwner", "HashApp", "HashFunction", "Trigger"]

    def write_csv(self, path: str | pathlib.Path) -> None:
        """Write the bundle in the Azure dataset layout (one row/function)."""
        path = pathlib.Path(path)
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                self.HEADER_PREFIX + [str(i + 1) for i in range(self.n_bins)]
            )
            for f in self.functions:
                writer.writerow(
                    [f.owner, f.app, f.function, f.trigger] + f.counts.tolist()
                )

    @classmethod
    def read_csv(
        cls, path: str | pathlib.Path, bin_seconds: float = AZURE_BIN_SECONDS
    ) -> "TraceBundle":
        """Read a bundle written by :meth:`write_csv` (or the real dataset)."""
        path = pathlib.Path(path)
        functions = []
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if header[: len(cls.HEADER_PREFIX)] != cls.HEADER_PREFIX:
                raise ValueError(
                    f"{path} does not look like an Azure Functions trace "
                    f"(header starts {header[:4]!r})"
                )
            for row in reader:
                if not row:
                    continue
                owner, app, function, trigger = row[:4]
                counts = np.array([int(x) for x in row[4:]], dtype=np.int64)
                functions.append(
                    FunctionTrace(owner, app, function, trigger, counts, bin_seconds)
                )
        return cls(functions)


# ----------------------------------------------------------------------
# Synthetic Azure-like generation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AzureSynthConfig:
    """Knobs for :func:`synthesize_azure_like`.

    Defaults are chosen so the synthetic bundle reproduces the published
    structure of the dataset: a Zipf-like popularity skew (a handful of
    apps dominate), diurnal rate envelopes with per-app phase offsets, and
    rare large burst minutes that give short-window CV its 7x excess over
    long-window CV.
    """

    n_apps: int = 40
    functions_per_app: int = 3
    days: float = 2.0
    bin_seconds: float = AZURE_BIN_SECONDS
    mean_total_rate: float = 20.0  # req/s across the whole bundle
    zipf_exponent: float = 1.2
    diurnal_amplitude: float = 0.55
    weekly_amplitude: float = 0.15
    burst_probability: float = 0.004  # per app-bin
    burst_scale: float = 25.0  # burst minutes multiply the base rate
    dispersion: float = 1.6  # negative-binomial overdispersion of bin counts


def _negative_binomial_counts(
    rng: np.random.Generator, mean: np.ndarray, dispersion: float
) -> np.ndarray:
    """Overdispersed per-bin counts with the given per-bin means.

    ``dispersion`` > 1 yields variance = dispersion * mean (Poisson when 1),
    matching the bursty minute-level counts seen in production FaaS traces.
    """
    mean = np.clip(mean, 0.0, None)
    if dispersion <= 1.0 + 1e-9:
        return rng.poisson(mean).astype(np.int64)
    # Gamma-Poisson mixture: shape r, success p with var = m * dispersion.
    r = mean / (dispersion - 1.0)
    lam = rng.gamma(np.clip(r, 1e-9, None), dispersion - 1.0)
    lam[mean == 0] = 0.0
    return rng.poisson(lam).astype(np.int64)


def synthesize_azure_like(
    rng: np.random.Generator, config: AzureSynthConfig | None = None
) -> TraceBundle:
    """Generate a bundle with the Azure dataset's published structure.

    The output is deterministic given ``rng`` state, writes/reads losslessly
    through the CSV layer, and exhibits the Fig. 1 multi-window CV mismatch
    (short windows see burst minutes, long windows see diurnal swings).
    """
    cfg = config or AzureSynthConfig()
    n_bins = int(round(cfg.days * 86_400.0 / cfg.bin_seconds))
    if n_bins < 2:
        raise ValueError("trace must span at least two bins")
    t = (np.arange(n_bins) + 0.5) * cfg.bin_seconds

    # Zipf-like popularity: app i gets weight 1/(i+1)^s.
    weights = 1.0 / np.arange(1, cfg.n_apps + 1) ** cfg.zipf_exponent
    weights /= weights.sum()

    functions: list[FunctionTrace] = []
    triggers = ["http", "queue", "timer", "event"]
    for a, app_weight in enumerate(weights):
        app_rate = cfg.mean_total_rate * app_weight  # req/s for the app
        phase = rng.uniform(0.0, 86_400.0)
        diurnal = 1.0 + cfg.diurnal_amplitude * np.sin(
            2 * np.pi * (t + phase) / 86_400.0
        )
        weekly = 1.0 + cfg.weekly_amplitude * np.sin(
            2 * np.pi * (t + phase) / (7 * 86_400.0)
        )
        envelope = np.clip(diurnal * weekly, 0.05, None)
        # Rare burst minutes: multiply selected bins by burst_scale.
        bursts = rng.random(n_bins) < cfg.burst_probability
        envelope = envelope * np.where(bursts, cfg.burst_scale, 1.0)
        # Split the app's rate across its functions (uneven, Dirichlet).
        shares = rng.dirichlet(np.ones(cfg.functions_per_app) * 2.0)
        for fi, share in enumerate(shares):
            mean_per_bin = app_rate * share * cfg.bin_seconds * envelope
            counts = _negative_binomial_counts(rng, mean_per_bin, cfg.dispersion)
            functions.append(
                FunctionTrace(
                    owner=f"owner{a:03d}",
                    app=f"app{a:03d}",
                    function=f"app{a:03d}-fn{fi}",
                    trigger=triggers[fi % len(triggers)],
                    counts=counts,
                    bin_seconds=cfg.bin_seconds,
                )
            )
    return TraceBundle(functions)


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
def counts_to_timestamps(
    trace: FunctionTrace,
    rng: np.random.Generator,
    *,
    placement: str = "uniform",
) -> np.ndarray:
    """Thin a binned trace into sorted request timestamps.

    ``placement`` controls where invocations land inside their bin:

    * ``"uniform"`` — i.i.d. uniform within the bin (the standard way to
      replay minute-binned FaaS traces);
    * ``"start"`` — all at the bin start (worst-case burst alignment, used
      to stress admission and scaling logic).
    """
    if placement not in ("uniform", "start"):
        raise ValueError(f"unknown placement {placement!r}")
    spans = []
    for i, c in enumerate(trace.counts):
        c = int(c)
        if c == 0:
            continue
        start = i * trace.bin_seconds
        if placement == "uniform":
            spans.append(start + rng.uniform(0.0, trace.bin_seconds, size=c))
        else:
            spans.append(np.full(c, start))
    if not spans:
        return np.empty(0, dtype=np.float64)
    stamps = np.concatenate(spans)
    stamps.sort()
    return stamps


def fig1_report(
    bundle: TraceBundle, windows: tuple[float, ...] = FIG1_WINDOWS
) -> dict[str, dict[float, float]]:
    """Fig. 1 in one call: multi-window CV for the total and top-2 apps."""
    out = {"total": multi_window_cv(bundle.total_trace(), windows)}
    for rank, app in enumerate(bundle.top_apps(2), start=1):
        out[f"top{rank}"] = multi_window_cv(app, windows)
    return out
