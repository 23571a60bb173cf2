"""Per-layer self time of a catalog cell, measured from outside the program.

The benchmark never edits ``src/``.  It replaces public functions of each
layer with thin wrappers for the length of one traced run and puts every
original back afterwards.  Two wrapping points are used:

* class- or module-level wrappers on the public functions in ``SITES``;
* a wrapper on ``Simulator.schedule_at`` (``Simulator.schedule`` calls
  it) that times each dispatched callback and charges it to the module
  that defines the callback.  Links, the autoscaler and the FlexPipe
  control tick receive their work this way.  A ``PeriodicProcess`` tick
  is charged to the callback it drives, and the ``dispatch`` callable a
  replica hands to its batcher is charged to the replica.

Each call records one span (site, parent span, start, end) in flat
arrays that stay in memory until the run ends.  A span's self time is
its duration minus the time its direct child spans cover; a layer's self
time is the sum over its spans.  Time inside a cell that no span covers
is the residual, so ``sum(self times) + residual == cell wall`` holds by
construction whenever spans nest, which the self-test checks.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from array import array
from types import FunctionType

import numpy as np

CLOCK = time.perf_counter

# Layers whose self time the benchmark reports by name.  A span charged
# to any other module lands in ``other``.
LAYERS = (
    "cluster.hrg",
    "scaling.coordinator",
    "transfer.links",
    "simulation",
    "pipeline.router",
    "pipeline.batching",
    "pipeline.replica",
    "models.costs",
    "models.profiler",
    "scaling.autoscaler",
    "core.flexpipe",
    "refactoring.monitor",
    "scaling.warm_cache",
    "partitioning",
    "cluster.allocator",
    "refactoring.executor",
    "core.deployment",
    "core.admission",
    "baselines",
    "validation.auditor",
    "metrics.collector",
    "workloads",
    "scenarios.driver",
    "scenarios.sharding",
)

# Whole packages that count as one layer, and modules filed elsewhere.
_PACKAGE_LAYERS = ("simulation", "partitioning", "workloads", "baselines")
_MODULE_LAYERS = {"qos.admission": "core.admission"}

PUBLIC = "<public>"  # every public function defined on the class itself

# (module, class, method names or PUBLIC, layer).  ``None`` as the class
# means module-level functions, which are rebound in every ``repro``
# module that imported them by name.
SITES = (
    ("repro.core.context", None, ("get_ladder",), "partitioning"),
    ("repro.core.context", None, ("get_profile",), "models.profiler"),
    ("repro.workloads.azure2019", None, ("load_window_cached",), "workloads"),
    ("repro.scenarios.sharding", None,
     ("partition_scenario", "merge_shard_reports"), "scenarios.sharding"),
    ("repro.cluster.hrg", "HierarchicalResourceGraph",
     ("contention_score", "rank_servers", "register_scaling_event"),
     "cluster.hrg"),
    ("repro.scaling.coordinator", "ScalingCoordinator",
     ("record_scaling",), "scaling.coordinator"),
    ("repro.transfer.links", "FairShareLink", ("transfer",), "transfer.links"),
    ("repro.simulation.engine", "Simulator", ("run",), "simulation"),
    ("repro.pipeline.router", "ModelRouter", ("submit",), "pipeline.router"),
    ("repro.pipeline.batching", "DynamicBatcher",
     ("enqueue", "pump", "flush"), "pipeline.batching"),
    ("repro.pipeline.replica", "PipelineReplica", PUBLIC, "pipeline.replica"),
    ("repro.models.costs", "CostModel", PUBLIC, "models.costs"),
    ("repro.scaling.autoscaler", "Autoscaler", ("tick",), "scaling.autoscaler"),
    ("repro.core.flexpipe", "FlexPipeSystem", PUBLIC, "core.flexpipe"),
    ("repro.refactoring.monitor", "WorkloadMonitor", PUBLIC,
     "refactoring.monitor"),
    ("repro.scaling.warm_cache", "HostParamCache",
     ("put", "coverage", "coverage_by_tier"), "scaling.warm_cache"),
    ("repro.partitioning.partitioner", "Partitioner", ("plan",), "partitioning"),
    ("repro.partitioning.ladder", "GranularityLadder", ("__init__",),
     "partitioning"),
    ("repro.cluster.allocator", "GPUAllocator",
     ("allocate_stages", "reserve_on", "release", "resize"),
     "cluster.allocator"),
    ("repro.refactoring.executor", "RefactoringExecutor",
     ("refactor", "abort_on_cordon"), "refactoring.executor"),
    ("repro.core.deployment", "ReplicaFactory", ("deploy",), "core.deployment"),
    ("repro.core.admission", "AdmissionGate", ("submit",), "core.admission"),
    ("repro.qos.admission", "TenantAdmissionController", ("submit",),
     "core.admission"),
    ("repro.baselines.base", "StaticPipelineSystem", PUBLIC, "baselines"),
    ("repro.baselines.alpaserve", "AlpaServeSystem", PUBLIC, "baselines"),
    ("repro.baselines.distserve", "DistServeSystem", PUBLIC, "baselines"),
    ("repro.baselines.muxserve", "MuxServeSystem", PUBLIC, "baselines"),
    ("repro.baselines.tetris", "TetrisSystem", PUBLIC, "baselines"),
    ("repro.validation.auditor", "InvariantAuditor",
     ("audit_running", "audit_quiesce"), "validation.auditor"),
    ("repro.metrics.collector", "MetricsCollector", ("summarize",),
     "metrics.collector"),
    ("repro.scenarios.driver", "ScenarioDriver",
     ("start", "advance", "finish"), "scenarios.driver"),
)


def layer_of_module(module: str | None) -> str:
    """The layer a ``repro`` module belongs to (``other`` if unnamed)."""
    if not module or not module.startswith("repro."):
        return "other"
    path = module[len("repro."):]
    package = path.split(".", 1)[0]
    if package in _PACKAGE_LAYERS:
        return package
    layer = _MODULE_LAYERS.get(path, path)
    return layer if layer in LAYERS else "other"


def _public_methods(cls) -> tuple[str, ...]:
    return tuple(
        name
        for name, value in vars(cls).items()
        if isinstance(value, FunctionType) and not name.startswith("_")
    )


class SpanLog:
    """Flat in-memory span arrays: site id, parent index, start, end."""

    def __init__(self):
        self.sites: list[tuple[str, str]] = []  # (site name, layer)
        self._site_ids: dict[str, int] = {}
        self.site = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]  # indices of the spans now running; -1 = none
        self._callers: dict[int, object] = {}

    def __len__(self) -> int:
        return len(self.end)

    @property
    def depth(self) -> int:
        """Number of spans open right now."""
        return len(self._open) - 1

    def site_id(self, name: str, layer: str) -> int:
        sid = self._site_ids.get(name)
        if sid is None:
            sid = self._site_ids[name] = len(self.sites)
            self.sites.append((name, layer))
        return sid

    def spanned(self, sid: int, fn):
        """``fn`` wrapped so that each call records one span of ``sid``.

        The only place a span is recorded.  A plain function, so that it
        binds as a method when it replaces one on a class.
        """
        add_site, add_parent = self.site.append, self.parent.append
        add_start, ends, stack = self.start.append, self.end, self._open

        def span(*args, **kwargs):
            idx = len(ends)
            add_site(sid)
            add_parent(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            add_start(CLOCK())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = CLOCK()
                stack.pop()

        return span

    def caller(self, sid: int):
        """``caller(sid)(fn, *args)``: ``fn(*args)`` as one span of ``sid``.

        For callbacks known only per event: bound into a
        ``functools.partial`` per event, which is cheaper than building a
        wrapper function per event.  The span also covers the
        ``_invoke`` frame, which calibration takes out.
        """
        call = self._callers.get(sid)
        if call is None:
            call = self._callers[sid] = self.spanned(sid, _invoke)
        return call

    def self_times(self, lo: int = 0, hi: int | None = None):
        """(site ids, parent offsets, durations, self times) of ``lo:hi``.

        Spans are appended when they open, so a span's children always
        follow it; a range that starts and ends with no span open is
        closed under the parent relation.  Roots have a negative parent.
        """
        hi = len(self) if hi is None else hi
        site = np.frombuffer(self.site, dtype=np.int32)[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi] - lo
        dur = (
            np.frombuffer(self.end, dtype=np.float64)[lo:hi]
            - np.frombuffer(self.start, dtype=np.float64)[lo:hi]
        )
        child = parent >= 0
        cover = np.bincount(
            parent[child], weights=dur[child], minlength=hi - lo
        )
        return site, parent, dur, dur - cover

    def save(self, path) -> None:
        """Write the spans and the site table (``numpy.savez``)."""
        np.savez(
            path,
            site=np.frombuffer(self.site, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            site_names=np.array([name for name, _ in self.sites]),
            site_layers=np.array([layer for _, layer in self.sites]),
        )


def _invoke(fn, *args):
    return fn(*args)


def calibrate(trials: int = 7, n: int = 20_000) -> dict[str, float]:
    """Per-span cost of the wrappers, measured on a function that does nothing.

    ``inside``: wrapper time inside the span's own interval, which its
    self time includes.  ``outside``: wrapper time around the interval,
    which the caller's self time includes.  ``call_*``: the same for the
    per-event ``caller`` spans.  Each is the minimum over ``trials``, the
    estimate least disturbed by other work on the machine.
    """
    log = SpanLog()
    sid = log.site_id("calibration", "calibration")

    def noop():
        return None

    wrapped = log.spanned(sid, noop)
    handed = functools.partial(log.caller(sid), noop)
    best = {"bare": math.inf, "span": math.inf, "span_in": math.inf,
            "call": math.inf, "call_in": math.inf}
    for _ in range(trials):
        for key, fn in (("bare", noop), ("span", wrapped), ("call", handed)):
            lo = len(log)
            t0 = CLOCK()
            for _ in range(n):
                fn()
            best[key] = min(best[key], (CLOCK() - t0) / n)
            if key != "bare":
                _, _, dur, _ = log.self_times(lo)
                best[key + "_in"] = min(best[key + "_in"], float(dur.mean()))
        del log.site[:], log.parent[:], log.start[:], log.end[:]
    inside = max(best["span_in"] - best["bare"], 0.0)
    call_inside = max(best["call_in"] - best["bare"], 0.0)
    return {
        "inside": inside,
        "outside": max(best["span"] - best["bare"] - inside, 0.0),
        "call_inside": call_inside,
        "call_outside": max(best["call"] - best["bare"] - call_inside, 0.0),
    }


class Patcher:
    """Replaces attributes of ``repro`` classes and modules, reversibly."""

    def __init__(self):
        self._methods: list[tuple[type, str, object, object]] = []
        self._functions: list[tuple[object, object]] = []

    def method(self, cls, name: str, replacement) -> None:
        original = cls.__dict__[name]
        setattr(cls, name, replacement)
        self._methods.append((cls, name, original, replacement))

    def function(self, module, name: str, replacement) -> None:
        """Rebind ``module.name`` everywhere a ``repro`` module holds it."""
        original = getattr(module, name)
        self._functions.append((original, replacement))
        _rebind(original, replacement)

    def restore(self) -> None:
        for cls, name, original, _ in reversed(self._methods):
            setattr(cls, name, original)
        for original, replacement in reversed(self._functions):
            _rebind(replacement, original)

    def leftovers(self) -> list[str]:
        """Attributes that still hold one of this patcher's replacements."""
        out = [
            f"{cls.__qualname__}.{name}"
            for cls, name, _, replacement in self._methods
            if cls.__dict__.get(name) is replacement
        ]
        replacements = {id(new) for _, new in self._functions}
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            out.extend(
                f"{module_name}.{attr}"
                for attr, value in vars(module).items()
                if id(value) in replacements
            )
        return out


def _rebind(old, new) -> None:
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)


class _SpannedIterator:
    """An iterator whose every ``next`` is one span (generator sites)."""

    __slots__ = ("_next",)

    def __init__(self, next_fn):
        self._next = next_fn

    def __iter__(self):
        return self

    def __next__(self):
        return self._next()


class LayerTracer(Patcher):
    """Installs every span site, and counts work at the same boundaries."""

    def __init__(self):
        super().__init__()
        self.log = SpanLog()
        self.counts: dict[str, float] = {}
        self.batchers: list = []
        self._dispatch_sites: dict[object, int] = {}
        self._periodic_tick = None
        self.overhead = {"inside": 0.0, "outside": 0.0, "call_inside": 0.0,
                         "call_outside": 0.0, "handoff": 0.0}

    # ------------------------------------------------------------------
    def _count(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def _wrap(self, name: str, layer: str, fn, observe=None):
        """``fn`` as one span per call; ``observe(args, kwargs, result,
        error)`` runs after the span closes, so its cost lands in the
        caller's self time."""
        span = self.log.spanned(self.log.site_id(name, layer), fn)
        if observe is None:
            return functools.update_wrapper(span, fn)

        def observed(*args, **kwargs):
            result = error = None
            try:
                result = span(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                observe(args, kwargs, result, error)

        return functools.update_wrapper(observed, fn)

    def _dispatch_site(self, callback, kind: str = "dispatch") -> int:
        """Span site of a callback handed to the engine (``dispatch``)
        or to a batcher (``handoff``)."""
        target = callback
        while True:
            if isinstance(target, functools.partial):
                target = target.func
            elif getattr(target, "__func__", None) is self._periodic_tick:
                target = target.__self__.callback
            else:
                break
        key = (kind, getattr(target, "__func__", target))
        sid = self._dispatch_sites.get(key)
        if sid is None:
            layer = layer_of_module(getattr(target, "__module__", None))
            sid = self.log.site_id(f"{kind}:{layer}", layer)
            self._dispatch_sites[key] = sid
        return sid

    def _handoff(self, callback, kind: str = "dispatch"):
        sid = self._dispatch_site(callback, kind)
        return functools.partial(self.log.caller(sid), callback)

    def calibrate(self) -> dict[str, float]:
        """Wrapper costs per span (see :func:`calibrate`), plus the cost
        of handing one callback to the engine, which each
        ``schedule_at`` span contains."""
        overhead = calibrate()

        def noop():
            return None

        best = math.inf
        for _ in range(7):
            t0 = CLOCK()
            for _ in range(20_000):
                self._handoff(noop)
            best = min(best, (CLOCK() - t0) / 20_000)
        overhead["handoff"] = best
        self.overhead = overhead
        return overhead

    # ------------------------------------------------------------------
    def install(self) -> "LayerTracer":
        from repro.simulation.processes import PeriodicProcess

        self._periodic_tick = PeriodicProcess._tick
        # Module-level functions first, before the scenario catalog is
        # imported: the catalog loads the Azure window at import time.
        for module_name, cls_name, names, layer in SITES:
            if cls_name is None:
                module = importlib.import_module(module_name)
                for name in names:
                    fn = getattr(module, name)
                    self.function(
                        module, name, self._wrap(f"{module_name}.{name}", layer, fn)
                    )
        self._install_generator(
            "repro.workloads.azure2019", "iter_minted_stamps", "workloads"
        )
        observers = self._observers()
        for module_name, cls_name, names, layer in SITES:
            if cls_name is None:
                continue
            cls = getattr(importlib.import_module(module_name), cls_name)
            if names == PUBLIC:
                names = _public_methods(cls)
            for name in names:
                self._install_method(cls, name, layer, observers)
        self._install_arrivals()
        self._install_engine()
        self._install_batcher_init()
        self._install_scorer()
        return self

    def _observers(self) -> dict:
        """Counters that need an argument, result or error of a call,
        keyed by ``Class.method``."""
        from repro.cluster.allocator import AllocationError

        count = self._count

        def transfer(args, kwargs, result, error):
            count("transfer.gib", args[1] / 2**30)
            count("transfer.active", args[0].active_count)

        def allocate(args, kwargs, result, error):
            count("allocator.calls")
            if isinstance(error, AllocationError):
                count("allocator.failed")

        def refactor(args, kwargs, result, error):
            if error is None and result:
                count("executor.accepted")

        def abort(args, kwargs, result, error):
            if error is None:
                count("executor.aborts", result)

        def submit(args, kwargs, result, error):
            count("admission.submitted")
            if args[1].rejected:
                count("admission.shed")

        return {
            "FairShareLink.transfer": transfer,
            "GPUAllocator.allocate_stages": allocate,
            "GPUAllocator.reserve_on": allocate,
            "RefactoringExecutor.refactor": refactor,
            "RefactoringExecutor.abort_on_cordon": abort,
            "AdmissionGate.submit": submit,
            "TenantAdmissionController.submit": submit,
        }

    def _install_method(self, cls, name: str, layer: str, observers=None) -> None:
        fn = cls.__dict__[name]
        site = f"{cls.__module__}.{cls.__name__}.{name}"
        observe = (observers or {}).get(f"{cls.__name__}.{name}")
        self.method(cls, name, self._wrap(site, layer, fn, observe))

    def _install_generator(self, module_name: str, name: str, layer: str):
        module = importlib.import_module(module_name)
        fn = getattr(module, name)
        sid = self.log.site_id(f"{module_name}.{name}", layer)
        spanned = self.log.spanned

        def generator_call(*args, **kwargs):
            return _SpannedIterator(spanned(sid, fn(*args, **kwargs).__next__))

        self.function(module, name, functools.update_wrapper(generator_call, fn))

    def _install_arrivals(self) -> None:
        importlib.import_module("repro.workloads.azure")
        from repro.workloads.arrivals import ArrivalProcess

        pending, seen = list(ArrivalProcess.__subclasses__()), set()
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            pending.extend(cls.__subclasses__())
            if "next_interarrival" in cls.__dict__:
                self._install_method(cls, "next_interarrival", "workloads")

    def _install_engine(self) -> None:
        from repro.simulation.engine import Simulator

        original = Simulator.__dict__["schedule_at"]
        handoff = self._handoff

        def schedule_at(sim, when, callback, *args):
            return original(sim, when, handoff(callback), *args)

        functools.update_wrapper(schedule_at, original)
        self.method(
            Simulator,
            "schedule_at",
            self._wrap(
                "repro.simulation.engine.Simulator.schedule_at",
                "simulation",
                schedule_at,
            ),
        )

    def _install_batcher_init(self) -> None:
        """Charge the replica's batch dispatch to the replica, not the
        batcher, and keep each batcher to read its batch counters."""
        from repro.pipeline.batching import DynamicBatcher

        original = DynamicBatcher.__dict__["__init__"]
        handoff, batchers = self._handoff, self.batchers

        def __init__(batcher, sim, config, can_dispatch, dispatch, *args, **kw):
            dispatch = handoff(dispatch, "handoff")
            original(batcher, sim, config, can_dispatch, dispatch, *args, **kw)
            batchers.append(batcher)

        self.method(
            DynamicBatcher, "__init__", functools.update_wrapper(__init__, original)
        )

    def _install_scorer(self) -> None:
        """``scorer`` builds a closure the allocator calls per candidate
        GPU; both the build and each call are coordinator spans."""
        from repro.scaling.coordinator import ScalingCoordinator

        original = ScalingCoordinator.__dict__["scorer"]
        layer = "scaling.coordinator"
        score_sid = self.log.site_id(
            "repro.scaling.coordinator.ScalingCoordinator.scorer.<score>", layer
        )
        spanned = self.log.spanned

        def scorer(coordinator, *args, **kwargs):
            return spanned(score_sid, original(coordinator, *args, **kwargs))

        functools.update_wrapper(scorer, original)
        self.method(
            ScalingCoordinator,
            "scorer",
            self._wrap(
                "repro.scaling.coordinator.ScalingCoordinator.scorer",
                layer,
                scorer,
            ),
        )


# ----------------------------------------------------------------------
# From spans to per-layer metrics
# ----------------------------------------------------------------------
def layer_report(
    tracer: LayerTracer, cells: list[tuple[int, int, float]]
) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics and the tiling check over the traced cells.

    ``cells`` holds each cell's span index range and wall time.  Self
    times have the calibrated wrapper cost taken out (``inside`` from
    each span, ``outside`` from its parent, or from the residual for a
    root); that cost is reported as ``trace.wrapper_s``, so self times,
    wrapper time and residual still add up to the wall time exactly.
    Returns ``(metrics, tiling)``; ``tiling`` carries those four sums and
    the largest amount by which children overran a parent before
    correction (0 when spans nest).
    """
    log = tracer.log
    names = [name for name, _ in log.sites]
    layers = [layer for _, layer in log.sites]
    n_sites = len(names)
    over = tracer.overhead
    is_call = np.array(
        [n.startswith(("dispatch:", "handoff:")) for n in names], dtype=bool
    )
    inside = np.where(is_call, over["call_inside"], over["inside"])
    outside = np.where(is_call, over["call_outside"], over["outside"])
    for i, name in enumerate(names):
        if name.endswith(".Simulator.schedule_at"):
            inside[i] += over["handoff"]
    self_by_site = np.zeros(n_sites)
    incl_by_site = np.zeros(n_sites)
    calls_by_site = np.zeros(n_sites)
    wall = residual = wrapper = nest_error = 0.0
    for lo, hi, cell_wall in cells:
        site, parent, dur, own = log.self_times(lo, hi)
        if own.size:
            nest_error = max(nest_error, float(-own.min()))
        child = parent >= 0
        span_in, span_out = inside[site], outside[site]
        own = own - span_in - np.bincount(
            parent[child], weights=span_out[child], minlength=own.size
        )
        self_by_site += np.bincount(site, weights=own, minlength=n_sites)
        calls_by_site += np.bincount(site, minlength=n_sites)
        incl_by_site += np.bincount(site, weights=dur, minlength=n_sites)
        wall += cell_wall
        wrapper += float(span_in.sum() + span_out.sum())
        residual += cell_wall - float(dur[~child].sum() + span_out[~child].sum())
    self_by_layer: dict[str, float] = {}
    for sid in range(n_sites):
        layer = layers[sid] if layers[sid] in LAYERS else "other"
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + self_by_site[sid]

    def calls(*suffixes: str) -> float:
        return float(
            sum(calls_by_site[i] for i, n in enumerate(names) if n.endswith(suffixes))
        )

    def inclusive(suffix: str) -> float:
        # Summed span durations; every site read this way is one that
        # never calls itself, so no time is counted twice.
        return float(
            sum(incl_by_site[i] for i, n in enumerate(names) if n.endswith(suffix))
        )

    counts = tracer.counts
    batches = sum(b.batches_formed for b in tracer.batchers)
    batched = sum(b.requests_batched for b in tracer.batchers)
    transfers = calls(".FairShareLink.transfer")
    allocator_calls = counts.get("allocator.calls", 0.0)
    refactors = calls(".RefactoringExecutor.refactor")
    submitted = counts.get("admission.submitted", 0.0)
    metrics = {f"{layer}.self_s": self_by_layer.get(layer, 0.0) for layer in LAYERS}
    metrics.update(
        {
            "other.self_s": self_by_layer.get("other", 0.0),
            "unattributed_s": residual,
            "trace.wrapper_s": wrapper,
            "cluster.hrg.scores": calls(".contention_score"),
            "cluster.hrg.events_registered": calls(".register_scaling_event"),
            "transfer.links.transfers": transfers,
            "transfer.links.gib_moved": counts.get("transfer.gib", 0.0),
            "transfer.links.mean_active": _ratio(
                counts.get("transfer.active", 0.0), transfers
            ),
            "simulation.events": float(
                sum(calls_by_site[i] for i, n in enumerate(names) if n.startswith("dispatch:"))
            ),
            "pipeline.router.submitted": calls(".ModelRouter.submit"),
            "pipeline.batching.batches": float(batches),
            "pipeline.batching.mean_batch": _ratio(batched, batches),
            "models.costs.calls": float(
                sum(calls_by_site[i] for i, n in enumerate(names) if ".CostModel." in n)
            ),
            "scaling.autoscaler.ticks": calls(".Autoscaler.tick"),
            "scaling.warm_cache.puts": calls(".HostParamCache.put"),
            "partitioning.ladder_requests": calls(".get_ladder"),
            "partitioning.ladder_builds": calls(".GranularityLadder.__init__"),
            "partitioning.plans": calls(".Partitioner.plan"),
            "cluster.allocator.allocations": allocator_calls,
            "cluster.allocator.failed_ratio": _ratio(
                counts.get("allocator.failed", 0.0), allocator_calls
            ),
            "refactoring.executor.requests": refactors,
            "refactoring.executor.accept_ratio": _ratio(
                counts.get("executor.accepted", 0.0), refactors
            ),
            "refactoring.executor.aborts": counts.get("executor.aborts", 0.0),
            "core.deployment.deploys": calls(".ReplicaFactory.deploy"),
            "core.admission.submitted": submitted,
            "core.admission.shed_ratio": _ratio(
                counts.get("admission.shed", 0.0), submitted
            ),
            "validation.auditor.audits": calls(".audit_running", ".audit_quiesce"),
            "scenarios.driver.start_s": inclusive(".ScenarioDriver.start"),
            "scenarios.driver.advance_s": inclusive(".ScenarioDriver.advance"),
            "scenarios.driver.finish_s": inclusive(".ScenarioDriver.finish"),
            "scenarios.sharding.partition_s": inclusive(".partition_scenario"),
            "scenarios.sharding.merge_s": inclusive(".merge_shard_reports"),
            "workloads.arrivals": calls(".next_interarrival"),
        }
    )
    tiling = {
        "wall_s": wall,
        "self_s": float(sum(self_by_layer.values())),
        "wrapper_s": wrapper,
        "residual_s": residual,
        "nest_error_s": nest_error,
    }
    return metrics, tiling


def site_inclusive(tracer: LayerTracer, suffix: str) -> float:
    """Summed duration of one site's spans over the whole process."""
    log = tracer.log
    sids = [i for i, (name, _) in enumerate(log.sites) if name.endswith(suffix)]
    if not sids or not len(log):
        return 0.0
    site, _, dur, _ = log.self_times()
    return float(dur[np.isin(site, sids)].sum())


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0
