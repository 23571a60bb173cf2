"""Fair-share (processor-sharing) link model with per-stream rate caps.

A :class:`FairShareLink` divides its aggregate bandwidth among in-flight
transfers, but any transfer may additionally be capped at a per-stream rate
(e.g. checkpoint loads are bottlenecked by the loader's ingest path long
before the storage backend saturates).  Allocation is two-pass waterfilling:
capped streams take min(cap, equal share) and the leftover is redistributed
to uncapped streams.  Completion times rescale whenever a transfer starts
or finishes — the standard fluid model of TCP/RDMA sharing, which makes
parallel scale-ups genuinely contend (the effect the HRG coordinates).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.simulation.engine import Event, Simulator

GB = 1024**3
MB = 1024**2


@dataclass(frozen=True)
class LinkSpec:
    """Static link parameters.

    ``bandwidth`` is the aggregate bytes/second; ``latency`` is the one-way
    protocol latency applied once per transfer.
    """

    name: str
    bandwidth: float
    latency: float = 0.0

    def serial_time(self, nbytes: float) -> float:
        """Uncontended transfer time for ``nbytes`` (no per-stream cap)."""
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        return self.latency + nbytes / self.bandwidth


class TransferHandle:
    """An in-flight transfer on a :class:`FairShareLink`."""

    __slots__ = (
        "nbytes",
        "remaining",
        "callback",
        "max_rate",
        "rate",
        "done",
        "started_at",
        "finished_at",
    )

    def __init__(
        self,
        nbytes: float,
        callback: Callable[[], None] | None,
        max_rate: float | None,
    ):
        self.nbytes = float(nbytes)
        self.remaining = float(nbytes)
        self.callback = callback
        self.max_rate = max_rate
        self.rate = 0.0
        self.done = False
        self.started_at: float | None = None
        self.finished_at: float | None = None

    @property
    def duration(self) -> float | None:
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at


class FairShareLink:
    """A shared link with waterfilled bandwidth allocation."""

    def __init__(self, sim: Simulator, spec: LinkSpec):
        if spec.bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {spec.bandwidth}")
        self.sim = sim
        self.spec = spec
        self._active: list[TransferHandle] = []
        self._last_update = sim.now
        self._next_completion: Event | None = None
        self.bytes_moved = 0.0
        self.transfers_completed = 0

    @property
    def active_count(self) -> int:
        return len(self._active)

    # ------------------------------------------------------------------
    def transfer(
        self,
        nbytes: float,
        callback: Callable[[], None] | None = None,
        *,
        max_rate: float | None = None,
    ) -> TransferHandle:
        """Start a transfer; ``callback`` fires when it completes.

        ``max_rate`` caps this stream's share (bytes/s).  Zero-byte
        transfers still pay the link latency (metadata exchange).
        """
        if max_rate is not None and max_rate <= 0:
            raise ValueError(f"max_rate must be positive, got {max_rate}")
        handle = TransferHandle(nbytes, callback, max_rate)
        handle.started_at = self.sim.now
        if nbytes <= 0:
            self.sim.schedule(self.spec.latency, self._finish_instant, handle)
            return handle
        self._drain_progress()
        # Account the protocol latency by front-loading equivalent bytes at
        # this stream's own maximum rate (monotone under contention).
        lat_rate = min(max_rate or self.spec.bandwidth, self.spec.bandwidth)
        handle.remaining = nbytes + self.spec.latency * lat_rate
        self._active.append(handle)
        self._reallocate_and_schedule()
        return handle

    def estimate_time(self, nbytes: float, max_rate: float | None = None) -> float:
        """Expected time for a new transfer given current contention."""
        share = self.spec.bandwidth / (len(self._active) + 1)
        rate = min(max_rate or self.spec.bandwidth, max(share, 1e-9))
        return self.spec.latency + nbytes / rate

    # ------------------------------------------------------------------
    def _finish_instant(self, handle: TransferHandle) -> None:
        handle.done = True
        handle.finished_at = self.sim.now
        self.transfers_completed += 1
        if handle.callback is not None:
            handle.callback()

    def _waterfill(self) -> None:
        """Assign each active handle its rate (two-pass waterfilling)."""
        n = len(self._active)
        if n == 0:
            return
        bandwidth = self.spec.bandwidth
        share = bandwidth / n
        capped, uncapped = [], []
        for h in self._active:
            if h.max_rate is not None and h.max_rate < share:
                capped.append(h)
            else:
                uncapped.append(h)
        used = 0.0
        for handle in capped:
            handle.rate = handle.max_rate
            used += handle.rate
        if uncapped:
            fair = max(bandwidth - used, 0.0) / len(uncapped)
            for handle in uncapped:
                handle.rate = (
                    min(handle.max_rate, fair) if handle.max_rate is not None else fair
                )
        # Guard: rates must stay positive for completion math.
        for handle in self._active:
            handle.rate = max(handle.rate, 1e-9)

    def _drain_progress(self) -> None:
        """Account bytes moved since the last state change."""
        now = self.sim.now
        elapsed = now - self._last_update
        if elapsed > 0:
            for handle in self._active:
                moved = handle.rate * elapsed
                handle.remaining = max(handle.remaining - moved, 0.0)
                self.bytes_moved += moved
        self._last_update = now

    def _reallocate_and_schedule(self) -> None:
        if self._next_completion is not None:
            self._next_completion.cancel()
            self._next_completion = None
        if not self._active:
            return
        self._waterfill()
        soonest = min(self._active, key=lambda h: h.remaining / h.rate)
        delay = soonest.remaining / soonest.rate
        if math.isnan(delay) or math.isinf(delay):
            raise RuntimeError(f"invalid completion delay on {self.spec.name}")
        self._next_completion = self.sim.schedule(delay, self._complete, soonest)

    def _complete(self, handle: TransferHandle) -> None:
        self._drain_progress()
        if handle in self._active:
            self._active.remove(handle)
        handle.remaining = 0.0
        handle.done = True
        handle.finished_at = self.sim.now
        self.transfers_completed += 1
        self._reallocate_and_schedule()
        if handle.callback is not None:
            handle.callback()
