"""In-memory span recorder and the layer wrappers of the traced run.

A span is ``(name, start, end, span_id, parent_id, request_id, pid)``;
times are ``time.perf_counter()`` seconds (CLOCK_MONOTONIC on Linux, so
spans from the pool workers and the daemon share the parent's clock).
Parents are tracked through a ``contextvars`` variable, which follows
asyncio tasks as well as threads.

Wrappers replace a function under the name its *caller* looks it up by:
several modules import layer functions by name (``batch.cache`` holds its
own ``run_to_record``), so patching only the defining module would miss
those calls.  Nothing here is imported by the program; the traced run
installs it, and forked pool workers inherit it.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import os
import time
from typing import Any, Callable, Iterable

_CURRENT: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "bench_span", default=None)
#: Request id of the HTTP exchange a daemon coroutine is serving.
REQUEST: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "bench_request", default=None)

_spans: list[tuple[str, float, float, int, int | None, str | None, int]] = []
_ids = itertools.count(1)


def _reset_in_child() -> None:
    # A forked worker starts with a copy of the parent's buffer; its own
    # spans are the only ones it may hand back.
    global _ids
    _spans.clear()
    _ids = itertools.count(1)


os.register_at_fork(after_in_child=_reset_in_child)


def take_spans() -> list[tuple]:
    """Remove and return every span recorded so far in this process."""
    out = list(_spans)
    _spans.clear()
    return out


def add_spans(spans: Iterable[tuple]) -> None:
    """Adopt spans recorded in another process (already pid-stamped)."""
    _spans.extend(spans)


def _open() -> tuple[int, int | None, contextvars.Token]:
    sid = next(_ids)
    return sid, _CURRENT.get(), _CURRENT.set(sid)


def _close(name: str, t0: float, sid: int, parent: int | None,
           token: contextvars.Token) -> None:
    t1 = time.perf_counter()
    _CURRENT.reset(token)
    _spans.append((name, t0, t1, sid, parent, REQUEST.get(), os.getpid()))


def timed(name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    """``fn`` wrapped so every call records one span called ``name``."""
    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def awrapper(*args: Any, **kwargs: Any) -> Any:
            sid, parent, token = _open()
            t0 = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                _close(name, t0, sid, parent, token)
        return awrapper

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        sid, parent, token = _open()
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            _close(name, t0, sid, parent, token)
    return wrapper


def patch(owner: Any, attr: str, name: str) -> None:
    """Replace ``owner.attr`` with its timed twin (idempotent per name)."""
    fn = getattr(owner, attr)
    if getattr(fn, "_bench_span", None) == name:
        return
    wrapped = timed(name, fn)
    wrapped._bench_span = name  # type: ignore[attr-defined]
    setattr(owner, attr, wrapped)


# -- the layers ----------------------------------------------------------------


def install_layers() -> None:
    """Wrap the engine, cache and batch layers of this process."""
    import repro.batch.cache as cache
    import repro.batch.pool as pool
    import repro.batch.results as results
    import repro.core.registry as registry
    import repro.obs.derive as derive
    import repro.trace as trace
    from repro.mp.runtime import MpRuntime
    from repro.smp.runtime import SmpRuntime

    patch(registry, "run_patternlet", "core.run_patternlet")
    patch(registry, "capture_run", "core.capture_run")
    patch(MpRuntime, "run", "mp.MpRuntime.run")
    patch(SmpRuntime, "parallel", "smp.SmpRuntime.parallel")
    patch(pool, "spec_key", "batch.specs.spec_key")
    patch(cache, "run_to_record", "batch.results.run_to_record")
    patch(cache, "run_from_record", "batch.results.run_from_record")
    patch(results, "run_from_record", "batch.results.run_from_record")
    patch(cache.RunCache, "get", "batch.cache.get")
    patch(cache.RunCache, "put", "batch.cache.put")
    patch(cache.RunCache, "prune", "batch.cache.prune")
    patch(derive, "run_summary", "obs.derive.run_summary")
    patch(trace, "detect_races", "trace.detect_races")
    patch(results, "detect_races", "trace.detect_races")


def install_pool_courier() -> None:
    """Carry each pool worker's spans back to the parent with its stats.

    ``map_calls`` pickles ``_entry`` by reference and merges the stats
    dict each call returns through ``_merge_stats``; both names are
    looked up in ``repro.batch.pool`` at call time.  The worker-side
    wrapper keeps the original's qualified name, so in a forked child it
    unpickles to itself.  Install before the pool forks.
    """
    import repro.batch.pool as pool

    if getattr(pool._entry, "_bench_span", None) is not None:
        return
    entry = timed("batch.pool.cell", pool._entry)

    @functools.wraps(pool._entry)
    def courier(payload: Any) -> Any:
        result, stats = entry(payload)
        return result, dict(stats, bench_spans=take_spans())

    merge = pool._merge_stats

    @functools.wraps(merge)
    def merge_and_collect(into: Any, stats: dict) -> None:
        add_spans(stats.get("bench_spans", ()))
        merge(into, stats)

    courier._bench_span = "batch.pool.cell"  # type: ignore[attr-defined]
    pool._entry = courier
    pool._merge_stats = merge_and_collect


#: ``[client port, requests so far]`` of the connection a task serves.
_CONN: contextvars.ContextVar[list | None] = contextvars.ContextVar(
    "bench_conn", default=None)


def install_serve() -> None:
    """Wrap the daemon's layers (run inside the daemon by ``launch.py``).

    Requests are named ``"<client port>:<n>"`` (the n-th request on that
    keep-alive connection), so the benchmark can pair a daemon-side span
    with its own client-side timing of the same exchange.
    """
    import repro.batch.pool as pool
    import repro.serve.daemon as daemon
    import repro.serve.service as service

    install_layers()
    patch(pool, "_entry", "serve.execute")
    patch(service, "spec_key", "batch.specs.spec_key")
    patch(daemon, "spec_key", "batch.specs.spec_key")
    patch(daemon, "parse_run_request", "serve.parse_run_request")
    patch(service.PatternletService, "serve_run", "serve.serve_run")

    serve_connection = daemon.ServeDaemon._serve_connection
    route = daemon.ServeDaemon._route

    @functools.wraps(serve_connection)
    async def numbered_connection(self: Any, reader: Any, writer: Any) -> None:
        peer = writer.get_extra_info("peername")
        _CONN.set([peer[1] if peer else 0, 0])
        await serve_connection(self, reader, writer)

    @functools.wraps(route)
    async def numbered_route(self: Any, method: str, path: str, body: bytes) -> Any:
        conn = _CONN.get() or [0, 0]
        token = REQUEST.set(f"{conn[0]}:{conn[1]}")
        conn[1] += 1
        try:
            return await route(self, method, path, body)
        finally:
            REQUEST.reset(token)

    daemon.ServeDaemon._serve_connection = numbered_connection
    daemon.ServeDaemon._route = numbered_route


# -- analysis --------------------------------------------------------------------


def self_times(spans: list[tuple]) -> dict[tuple[int, int], float]:
    """Self time per span: duration minus the union of its children."""
    children: dict[tuple[int, int | None], list[tuple[float, float]]] = {}
    for name, t0, t1, sid, parent, req, pid in spans:
        if parent is not None:
            children.setdefault((pid, parent), []).append((t0, t1))
    out: dict[tuple[int, int], float] = {}
    for name, t0, t1, sid, parent, req, pid in spans:
        covered = 0.0
        edge = t0
        for c0, c1 in sorted(children.get((pid, sid), ())):
            c0, c1 = max(c0, edge), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                edge = c1
        out[(pid, sid)] = (t1 - t0) - covered
    return out
