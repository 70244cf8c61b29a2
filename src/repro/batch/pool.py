"""The batch runner: a persistent worker pool with a serial twin.

Work arrives as picklable items plus a module-level function to apply
(:func:`map_calls`), or as :class:`~repro.batch.specs.RunSpec` grids
(:func:`run_specs`).  Execution strategy:

- ``max_workers=None`` picks ``min(cpu_count, items, 8)``; ``1`` (or a
  single item) runs **in-process** — no pool, no pickling, the baseline
  the batch layer must never be slower than on a cold cache.
- Otherwise items fan across one *persistent*
  ``concurrent.futures.ProcessPoolExecutor``: workers are created once
  (forked where the platform allows — they inherit a warm ``repro``
  import), re-initialised with a fresh ambient trace state
  (:func:`repro.trace.reset_ambient` — a worker must never emit into its
  parent's recorder), and reused across calls and batches.  Items go
  out in chunks of about ``1 / CHUNKS_PER_WORKER`` of a worker's share,
  so a short cell does not pay a queue round trip of its own.
- Pool creation or a mid-batch pool collapse degrades to the serial
  twin; results are identical either way (the equivalence tests pin
  this), so the fallback is silent.

Every worker call runs inside :class:`~repro.batch.cache.caching_runs`
over the process's :func:`~repro.batch.cache.shared_cache`, so
deterministic runs are computed at most once across all the workers:
the on-disk store is the coordination point, and its atomic writes make
concurrent workers safe (worst case two workers race to compute the
same key once).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Iterable, Sequence

from repro.batch.cache import cache_enabled, caching_runs, shared_cache
from repro.batch.results import BatchReport, RunOutcome
from repro.batch.specs import RunSpec, spec_key

__all__ = [
    "default_workers",
    "map_calls",
    "run_specs",
    "shutdown_pool",
    "submit_one",
]

_POOL: ProcessPoolExecutor | None = None
_POOL_WORKERS = 0
#: Chunks each worker is handed per batch: enough that the last chunk
#: leaves at most about a sixteenth of a worker's share as tail
#: imbalance, few enough that the queue round trips stay amortised.
CHUNKS_PER_WORKER = 16


def default_workers(n_items: int) -> int:
    """The auto worker count: ``min(cpu_count, n_items, 8)``, at least 1.

    ``REPRO_JOBS=<n>`` overrides the CPU heuristic (still clamped to the
    item count — more workers than items is pure overhead), so CI and
    classroom environments can pin the pool to a deterministic size
    without threading CLI flags through every entry point.  Unparsable
    or non-positive values fall back to the heuristic.
    """
    raw = os.environ.get("REPRO_JOBS")
    if raw:
        try:
            forced = int(raw)
        except ValueError:
            forced = 0
        if forced >= 1:
            return max(1, min(forced, max(1, n_items)))
    return max(1, min(os.cpu_count() or 1, n_items, 8))


def _worker_init() -> None:
    # Fresh ambient trace state and a fresh rank-thread pool (forked
    # children also get both via their at-fork hooks, but spawn-based
    # platforms need them here: the parent's parked pool threads do not
    # exist in the child), then one warm registry import that every spec
    # on this worker reuses.
    from repro.sched.pool import reset_pool
    from repro.trace import reset_ambient

    reset_ambient()
    reset_pool()
    import repro.patternlets  # noqa: F401


def _get_pool(workers: int) -> ProcessPoolExecutor | None:
    global _POOL, _POOL_WORKERS
    if _POOL is not None and _POOL_WORKERS == workers:
        return _POOL
    shutdown_pool()
    import multiprocessing

    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # platform without fork
        ctx = multiprocessing.get_context()
    try:
        _POOL = ProcessPoolExecutor(
            max_workers=workers, mp_context=ctx, initializer=_worker_init
        )
        _POOL_WORKERS = workers
    except (OSError, ValueError, NotImplementedError):
        _POOL = None
        _POOL_WORKERS = 0
    return _POOL


def shutdown_pool() -> None:
    """Tear down the persistent pool (tests; end-of-process hygiene)."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None:
        _POOL.shutdown(wait=False, cancel_futures=True)
        _POOL = None
        _POOL_WORKERS = 0


_ZERO_STATS = {"hits": 0, "misses": 0, "stores": 0, "evictions": 0}


def _merge_stats(into: "dict[str, int] | None", stats: dict[str, int]) -> None:
    if into is None:
        return
    for key in _ZERO_STATS:
        into[key] = into.get(key, 0) + int(stats.get(key, 0))


def _cached_calls(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    cache_dir: str | None,
    use_cache: bool,
) -> tuple[list[Any], dict[str, int]]:
    """Apply ``fn`` to ``items`` under this process's run cache.

    Returns the results and the cache counters these calls moved.  The
    cache is shared by every call in the process, so the counters are a
    before/after delta; one process runs one call at a time (the
    ambient trace allows one live run per process).
    """
    cache = shared_cache(cache_dir) if use_cache else None
    before = cache.stats() if cache is not None else _ZERO_STATS
    with caching_runs(cache, enabled=use_cache):
        results = [fn(item) for item in items]
    after = cache.stats() if cache is not None else _ZERO_STATS
    return results, {key: after[key] - before[key] for key in _ZERO_STATS}


def _entry(
    payload: tuple[Callable[[Any], Any], Any, str | None, bool]
) -> tuple[Any, dict[str, int]]:
    # Runs on a worker: apply fn to one item under the run cache.  The
    # cache's hit/miss/store deltas ride back with the result so the
    # parent can sum them across workers.
    fn, item, cache_dir, use_cache = payload
    (result,), stats = _cached_calls(fn, (item,), cache_dir, use_cache)
    return result, stats


def submit_one(
    fn: Callable[[Any], Any],
    item: Any,
    *,
    workers: int,
    use_cache: bool | None = None,
    cache_dir: str | None = None,
) -> "Any | None":
    """Submit one call to the persistent pool without blocking on it.

    The serve daemon's entry point: unlike :func:`map_calls` (one
    blocking barrier per batch) this hands back the
    ``concurrent.futures.Future`` for a single item — resolving to the
    same ``(result, cache_stats)`` pair :func:`_entry` returns — so an
    event loop can await many independent submissions concurrently.
    Returns ``None`` when pooling is unavailable (``workers <= 1`` or
    the pool cannot be built/has collapsed); the caller then runs the
    item on its own serial path, mirroring :func:`map_calls`' silent
    degradation.
    """
    if workers <= 1:
        return None
    use = cache_enabled() if use_cache is None else use_cache
    pool = _get_pool(workers)
    if pool is None:
        return None
    try:
        return pool.submit(_entry, (fn, item, cache_dir, use))
    except Exception:  # noqa: BLE001 - a broken pool degrades, never fails
        shutdown_pool()
        return None


def _run_serial(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    cache_dir: str | None,
    use_cache: bool,
    stats_out: "dict[str, int] | None" = None,
) -> list[Any]:
    results, stats = _cached_calls(fn, items, cache_dir, use_cache)
    if use_cache:
        _merge_stats(stats_out, stats)
    return results


def map_calls(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    *,
    max_workers: int | None = None,
    use_cache: bool | None = None,
    cache_dir: str | None = None,
    stats_out: "dict[str, int] | None" = None,
) -> tuple[list[Any], int, bool]:
    """Apply ``fn`` to every item through the batch layer, order preserved.

    ``fn`` must be a module-level callable (pickled by reference) that
    catches its own per-item failures — the pool treats an escaped
    exception as infrastructure failure and re-runs the batch serially.
    Returns ``(results, workers, pooled)``.  When ``stats_out`` is given,
    run-cache hit/miss/store counts (summed across every process that
    served the batch) are merged into it.
    """
    items = list(items)
    use = cache_enabled() if use_cache is None else use_cache
    workers = default_workers(len(items)) if max_workers is None else max(1, max_workers)
    if workers <= 1 or len(items) <= 1:
        return _run_serial(fn, items, cache_dir, use, stats_out), 1, False
    pool = _get_pool(workers)
    if pool is None:
        return _run_serial(fn, items, cache_dir, use, stats_out), 1, False
    payloads = [(fn, item, cache_dir, use) for item in items]
    chunksize = max(1, len(payloads) // (workers * CHUNKS_PER_WORKER))
    try:
        pairs = list(pool.map(_entry, payloads, chunksize=chunksize))
    except Exception:  # noqa: BLE001 - a broken pool degrades, never fails
        shutdown_pool()
        return _run_serial(fn, items, cache_dir, use, stats_out), 1, False
    for _, stats in pairs:
        _merge_stats(stats_out, stats)
    return [result for result, _ in pairs], workers, True


def _exec_spec(spec: RunSpec) -> RunOutcome:
    """Run one spec (on whichever process) and summarise it."""
    from repro.core.registry import run_patternlet
    from repro.obs.derive import run_summary

    try:
        key = spec_key(spec)
    except Exception:  # noqa: BLE001 - an unkeyable spec may still run (or fail)
        key = None
    try:
        run = run_patternlet(
            spec.patternlet,
            tasks=spec.tasks,
            toggles=spec.toggle_dict or None,
            mode=spec.mode,
            seed=spec.seed,
            policy=spec.policy,
            topology=spec.topology,
            **spec.extra_dict,
        )
    except Exception as exc:  # noqa: BLE001 - reported per-outcome
        return RunOutcome(
            spec=spec,
            key=key,
            cached=False,
            text="",
            span=None,
            wall=0.0,
            races=0,
            error=f"{type(exc).__name__}: {exc}",
        )
    summary = run_summary(run.trace, tasks_hint=run.meta.get("tasks"))
    return RunOutcome(
        spec=spec,
        key=key,
        cached=bool(run.meta.get("cached")),
        text=run.text,
        span=run.span,
        wall=run.wall,
        races=summary["races"],  # the summary's own detect_races verdict
        metrics=summary,
    )


def run_specs(
    specs: Iterable[RunSpec],
    *,
    max_workers: int | None = None,
    use_cache: bool | None = None,
    cache_dir: str | None = None,
) -> BatchReport:
    """Execute a spec grid through the pool + cache; the tentpole entry point.

    Order of ``outcomes`` matches the order of ``specs``.  Each outcome
    carries the run's full printed text, span, happens-before race
    count, and whether it was served from the cache.
    """
    specs = list(specs)
    t0 = time.perf_counter()
    cache_stats: dict[str, int] = {}
    outcomes, workers, pooled = map_calls(
        _exec_spec,
        specs,
        max_workers=max_workers,
        use_cache=use_cache,
        cache_dir=cache_dir,
        stats_out=cache_stats,
    )
    return BatchReport(
        outcomes=outcomes,
        wall_s=time.perf_counter() - t0,
        workers=workers,
        pooled=pooled,
        cache_stats=cache_stats,
    )
