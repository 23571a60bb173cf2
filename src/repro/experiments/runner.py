"""Parallel experiment runner with an on-disk result cache.

Every paper figure replays the same seeded workload against 4-6 systems;
the runs are independent (per-run ``Simulator`` + ``RandomStreams`` built
from the config seed), so they fan out across processes with byte-identical
results to a sequential sweep.  A content-addressed cache keyed by the
experiment config, the system + overrides, and a fingerprint of the
``repro`` source tree means re-running a figure only recomputes cells whose
inputs actually changed — edit one baseline and only its runs rerun.

Environment knobs (CLI flags take precedence):

* ``REPRO_JOBS``       — default worker count (``1`` = sequential);
* ``REPRO_CACHE_DIR``  — cache location (default ``<repo>/.runcache``);
* ``REPRO_NO_CACHE``   — set (non-empty) to disable the cache.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable

from repro.experiments.common import ExperimentConfig, run_system
from repro.metrics.collector import RunSummary

_CACHE_VERSION = 1


# ----------------------------------------------------------------------
# Task description
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunTask:
    """One (system, config) cell of a figure sweep.

    ``system`` names a factory in ``SYSTEM_FACTORIES``; ``overrides`` are
    keyword arguments forwarded to it (sorted tuple so the task hashes).
    ``extract`` optionally names a ``module:function`` run on
    ``(task, summary, system)`` inside the worker to pull extra *picklable*
    data out of the live system (per-request records, scaling events) that
    the system object itself — full of simulator state — cannot carry
    across the process boundary.
    """

    system: str
    cfg: ExperimentConfig
    overrides: tuple[tuple[str, Any], ...] = ()
    extract: str | None = None

    @classmethod
    def create(
        cls,
        system: str,
        cfg: ExperimentConfig,
        overrides: dict[str, Any] | None = None,
        extract: str | None = None,
    ) -> "RunTask":
        return cls(system, cfg, tuple(sorted((overrides or {}).items())), extract)


@dataclass
class RunResult:
    task: RunTask
    summary: RunSummary
    extra: Any = None
    cached: bool = False


def as_task(
    name: str, factory: Callable, cfg: ExperimentConfig
) -> RunTask | None:
    """Map a ``(name, factory)`` pair back to a registry task, if possible.

    ``run_comparison`` accepts arbitrary factory callables; only the ones
    that *are* the registered factories can cross a process boundary (and
    be cache-keyed by name).  Others run in-process.
    """
    from repro.experiments.systems import SYSTEM_FACTORIES

    if SYSTEM_FACTORIES.get(name) is factory:
        return RunTask.create(name, cfg)
    return None


# ----------------------------------------------------------------------
# Worker entry point (must be module-level for pickling)
# ----------------------------------------------------------------------
def _resolve_extractor(spec: str) -> Callable:
    module_name, _, func_name = spec.partition(":")
    if not func_name:
        raise ValueError(f"extract spec must be 'module:function', got {spec!r}")
    module = importlib.import_module(module_name)
    return getattr(module, func_name)


def execute_task(task: RunTask) -> tuple[RunSummary, Any]:
    """Run one task to completion; the worker-side body of the pool."""
    from repro.experiments.systems import SYSTEM_FACTORIES

    factory = SYSTEM_FACTORIES[task.system]
    overrides = dict(task.overrides)
    summary, system = run_system(
        lambda ctx, cfg: factory(ctx, cfg, **overrides), task.cfg
    )
    extra = None
    if task.extract is not None:
        extra = _resolve_extractor(task.extract)(task, summary, system)
    return summary, extra


# ----------------------------------------------------------------------
# Content-addressed result cache
# ----------------------------------------------------------------------
def code_fingerprint() -> str:
    """Hash of every ``repro`` source file: the cache's invalidation key.

    Any edit anywhere in the package invalidates all cached results —
    coarse, but sound: no stale figure can survive a code change.  Not
    memoized at module level on purpose: each ``ExperimentRunner``
    snapshots it once at construction, so a long-lived process that edits
    code and builds a fresh runner gets a fresh fingerprint.
    """
    root = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def default_cache_dir() -> Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    # src/repro/experiments/runner.py -> repo root is four levels up when
    # running from a source checkout; installed packages land in a user
    # cache dir instead of site-packages' parent.
    root = Path(__file__).resolve().parents[3]
    if (root / "setup.py").exists() or (root / ".git").exists():
        return root / ".runcache"
    base = os.environ.get("XDG_CACHE_HOME")
    return (Path(base) if base else Path.home() / ".cache") / "repro-flexpipe"


def cache_key(task: RunTask, fingerprint: str | None = None) -> str:
    payload = {
        "version": _CACHE_VERSION,
        "code": fingerprint if fingerprint is not None else code_fingerprint(),
        "system": task.system,
        "overrides": list(task.overrides),
        "extract": task.extract,
        "cfg": asdict(task.cfg),
    }
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


class ResultCache:
    """Pickle-per-key cache of ``(value, reserved)`` pairs.

    Figure cells store ``value = (RunSummary, extra)``; scenario cells
    store their report.  The second slot is reserved (always ``None``)
    so a ``None`` value stays distinguishable from a miss.
    """

    def __init__(self, root: Path | str | None = None):
        self.root = Path(root) if root is not None else default_cache_dir()

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.pkl"

    def get(self, key: str) -> tuple[RunSummary, Any] | None:
        path = self._path(key)
        try:
            with path.open("rb") as fh:
                return pickle.load(fh)
        except (OSError, pickle.PickleError, EOFError, AttributeError):
            return None  # missing or unreadable: treat as a miss

    def put(self, key: str, value: tuple[RunSummary, Any]) -> None:
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            path = self._path(key)
            tmp = path.with_name(path.name + f".tmp{os.getpid()}")
            try:
                with tmp.open("wb") as fh:
                    pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
                tmp.replace(path)  # atomic: concurrent writers settle on one
            except BaseException:
                tmp.unlink(missing_ok=True)  # no orphan on a failed write
                raise
        except OSError:
            pass  # the cache is best-effort: an unwritable dir must not kill a run

    def clear(self) -> int:
        """Delete every cached result (and stray tmp files); returns the
        number of results removed."""
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*.pkl"):
                path.unlink(missing_ok=True)
                removed += 1
            for path in self.root.glob("*.pkl.tmp*"):
                path.unlink(missing_ok=True)
        return removed


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------
def default_jobs() -> int:
    env = os.environ.get("REPRO_JOBS")
    if env:
        return max(int(env), 1)
    return 1


class ExperimentRunner:
    """Fans independent runs across processes, consulting the cache first.

    Results are position-stable and byte-identical to a sequential sweep:
    each run seeds its own ``RandomStreams``, so execution order cannot
    leak between cells.
    """

    def __init__(
        self,
        jobs: int | None = None,
        use_cache: bool | None = None,
        cache_dir: Path | str | None = None,
    ):
        self.jobs = max(jobs if jobs is not None else default_jobs(), 1)
        if use_cache is None:
            use_cache = not os.environ.get("REPRO_NO_CACHE")
        self.use_cache = use_cache
        self.cache = ResultCache(cache_dir)
        # Snapshotted once per runner: a long-lived process that edits the
        # source and builds a new runner re-keys its cache entries.
        self._fingerprint = code_fingerprint() if self.use_cache else ""
        self._pool: ProcessPoolExecutor | None = None
        self.simulations_run = 0
        self.cache_hits = 0

    def _get_pool(self) -> ProcessPoolExecutor:
        """Lazily create — and then keep — the worker pool.

        Reusing workers across ``run_tasks`` batches preserves their warm
        module-level graph/profile/ladder caches (the Eq. 2 DP cold start)
        instead of re-forking a cold pool per figure.
        """
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool

    def close(self) -> None:
        """Shut down the worker pool (idempotent; the interpreter's own
        exit handling covers runners that are never closed explicitly)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    # ------------------------------------------------------------------
    def run_tasks(self, tasks: list[RunTask]) -> list[RunResult]:
        """Run every task, returning results in task order."""
        pairs = self._cached_map(execute_task, tasks, cache_key)
        return [
            RunResult(task, summary, extra, cached=cached)
            for task, ((summary, extra), cached) in zip(tasks, pairs)
        ]

    def run_task(self, task: RunTask) -> RunResult:
        return self.run_tasks([task])[0]

    def map(self, fn: Callable, items: list) -> list:
        """Fan an arbitrary pure function over items on this runner's pool.

        Generic counterpart of :meth:`run_tasks` for work that is not a
        figure cell (chaos-audit cases, shard groups): order-stable, no
        caching.
        ``fn`` and every item must be picklable when ``jobs > 1``.
        """
        items = list(items)
        if self.jobs > 1 and len(items) > 1:
            return list(self._get_pool().map(fn, items))
        return [fn(item) for item in items]

    def cached_map(
        self,
        fn: Callable,
        items: list,
        key_fn: Callable,
        *,
        cacheable: Callable[[Any], bool] | None = None,
    ) -> list:
        """Like :meth:`map`, but consulting the result cache per item.

        ``key_fn(item, fingerprint)`` must return the item's content
        hash.  Figure cells (:meth:`run_tasks`) and ad-hoc workloads
        (scenario cells) both run through the same underlying protocol,
        so fingerprint epoch, hit/run counters and get/put ordering live
        in exactly one place.  ``cacheable(value)`` may veto persisting
        an individual result (e.g. a report describing a transient
        harness crash, which must re-execute next time).
        """
        return [
            value
            for value, _ in self._cached_map(
                fn, items, key_fn, cacheable=cacheable
            )
        ]

    def _cached_map(
        self,
        fn: Callable,
        items: list,
        key_fn: Callable,
        *,
        cacheable: Callable[[Any], bool] | None = None,
    ) -> list[tuple[Any, bool]]:
        """The cache protocol: ``(value, was_cached)`` per item, in order.

        Values round-trip on disk as ``(value, None)`` pairs (the second
        slot is reserved), so a legitimately-``None`` value is still
        distinguishable from a cache miss.
        """
        items = list(items)
        results: list[tuple[Any, bool] | None] = [None] * len(items)
        pending: list[int] = []
        for i, item in enumerate(items):
            if self.use_cache:
                hit = self.cache.get(key_fn(item, self._fingerprint))
                if hit is not None:
                    results[i] = (hit[0], True)
                    self.cache_hits += 1
                    continue
            pending.append(i)
        if pending:
            outcomes = self.map(fn, [items[i] for i in pending])
            for i, value in zip(pending, outcomes):
                self.simulations_run += 1
                results[i] = (value, False)
                if self.use_cache and (cacheable is None or cacheable(value)):
                    self.cache.put(
                        key_fn(items[i], self._fingerprint), (value, None)
                    )
        return results  # type: ignore[return-value]


def make_runner(
    runner: ExperimentRunner | None = None,
    *,
    jobs: int | None = None,
    use_cache: bool | None = None,
) -> ExperimentRunner:
    """Use the caller-provided runner, or build one from the knobs."""
    if runner is not None:
        return runner
    return ExperimentRunner(jobs=jobs, use_cache=use_cache)
