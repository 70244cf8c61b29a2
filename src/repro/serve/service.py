"""The serving core: canonicalisation, coalescing, admission, telemetry.

This module is the daemon's brain, deliberately separated from the HTTP
plumbing in :mod:`repro.serve.daemon` so every serving property is
testable without a socket:

**Canonicalisation.**  :func:`parse_run_request` turns an HTTP JSON body
into a :class:`~repro.batch.specs.RunSpec` — validating the patternlet
name, task count, seed, toggles, policy, topology and network profile
*before admission* — and the spec's content address
(:func:`~repro.batch.specs.spec_key`) becomes the request's identity.
Two bodies that spell the same run differently (key order, defaults
spelled out vs omitted, ``np`` vs ``tasks``) resolve to the same key and
are served the same bytes; bodies differing in any semantic field (seed,
np, a toggle) can never collide, because the key is the same SHA-256 the
run cache trusts.

**Cache-aware request coalescing.**  :class:`PatternletService` keeps a
single-flight table: ``{spec key → asyncio.Future}``.  The first request
for a key becomes the *leader* and executes; every identical request
arriving while that flight is open *attaches* to the future instead of
executing — a 300-client burst on one grid cell does exactly one
execution.  Finished responses are memoised per key (content-addressed,
so immutable), which is why a warm burst is served without touching the
admission queue at all: memo, then in-flight table, then the
content-addressed disk cache, and only then an execution slot.

**Admission control.**  Executions (never cache/memo/coalesce serves)
pass a bounded FIFO queue: an ``asyncio.Semaphore(workers)`` provides
the concurrency bound and FIFO ordering, a high-water mark
(``workers + queue_limit``) sheds excess load with 429 +
``Retry-After``, and a per-request deadline bounds queue wait (503 on
expiry).  Draining (graceful shutdown) rejects new executions with 503
while letting attached and cached requests complete.

Executions run off the event loop: on a single dedicated thread when
``workers == 1`` (zero IPC — and safe, because the trace recorder stack
is process-ambient and must never see two concurrent runs in one
process), or on the batch layer's persistent fork pool
(:func:`repro.batch.pool.submit_one`) when ``workers > 1`` — the same
warm worker processes and run cache ``patternlet sweep --jobs`` uses.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro._version import __version__
from repro.batch.results import outcome_from_wire, outcome_to_wire, spec_from_wire, spec_to_wire
from repro.batch.specs import RunSpec, engine_fingerprint, spec_key, sweep_fingerprint
from repro.errors import ReproError

__all__ = [
    "MAX_SEED",
    "MAX_TASKS",
    "PatternletService",
    "RequestError",
    "ServeConfig",
    "parse_run_request",
    "parse_sweep_request",
]

#: Largest admissible per-request task count — np=1024 is the engine's
#: proven scaling ceiling (the np1024 bench), with headroom above it.
MAX_TASKS = 2048

#: Largest admissible seed (inclusive).  Seeds feed the lockstep policy
#: RNG; bounding them keeps keys canonical and rejects garbage early.
MAX_SEED = 2**32 - 1

_POLICIES = ("random", "roundrobin", "fifo", "lifo")
_NETWORKS = ("uniform", "hetero2", "hetero4")

_RUN_FIELDS = frozenset(
    {"patternlet", "tasks", "np", "toggles", "seed", "policy", "topology",
     "network", "mode"}
)
_SWEEP_FIELDS = frozenset(
    {"patternlets", "tasks", "np", "toggles", "seeds", "policy",
     "topologies", "topology", "network"}
)


class RequestError(ReproError):
    """A request that fails validation — carries its HTTP status."""

    def __init__(self, message: str, *, status: int = 400):
        super().__init__(message)
        self.status = status


@dataclass
class ServeConfig:
    """Everything `patternlet serve` can tune (defaults are classroom-sane)."""

    host: str = "127.0.0.1"
    port: int = 0
    #: Execution concurrency bound.  1 = a single in-process lane (the
    #: lowest-latency path); >1 fans misses to that many persistent
    #: worker processes via the batch pool.
    workers: int = 1
    #: Admitted-but-unstarted executions allowed beyond ``workers``;
    #: past ``workers + queue_limit`` new executions are shed with 429.
    queue_limit: int = 32
    #: Milliseconds an admitted execution may wait for a slot before the
    #: request is failed with 503 (deadline exceeded).
    deadline_ms: float = 10_000.0
    use_cache: bool = True
    cache_dir: str | None = None
    #: Grid cells a single /sweep request may expand to (413 beyond).
    max_cells: int = 256
    #: Seconds shutdown waits for in-flight executions before forcing.
    drain_timeout_s: float = 10.0
    #: Keep-alive idle timeout per connection, seconds.
    idle_timeout_s: float = 30.0
    max_body_bytes: int = 1 << 20

    @property
    def high_water(self) -> int:
        return max(1, self.workers) + max(0, self.queue_limit)


def _require_int(doc: Mapping[str, Any], key: str, lo: int, hi: int,
                 default: int) -> int:
    value = doc.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise RequestError(f"{key!r} must be an integer, got {value!r}")
    if not lo <= value <= hi:
        raise RequestError(f"{key!r} must be in [{lo}, {hi}], got {value}")
    return value


def _toggle_overrides(doc: Mapping[str, Any]) -> dict[str, bool]:
    toggles = doc.get("toggles") or {}
    if not isinstance(toggles, Mapping):
        raise RequestError(f"'toggles' must be an object, got {toggles!r}")
    out: dict[str, bool] = {}
    for name, value in toggles.items():
        if not isinstance(value, bool):
            raise RequestError(
                f"toggle {name!r} must be true or false, got {value!r}")
        out[str(name)] = value
    return out


def parse_run_request(doc: Any) -> RunSpec:
    """Canonicalise one ``POST /run`` body into a validated :class:`RunSpec`.

    Everything that determines admission is checked here, before any
    queueing: the patternlet exists, the toggles belong to it, np and
    seed are bounded, the policy/topology/network names are known, and
    the mode is deterministic (``lockstep`` — the only mode a shared
    daemon may coalesce or cache, since a thread-mode run is genuine OS
    nondeterminism that no two clients should ever share).  Raises
    :class:`RequestError`; never runs anything.
    """
    if not isinstance(doc, Mapping):
        raise RequestError("request body must be a JSON object")
    unknown = set(doc) - _RUN_FIELDS
    if unknown:
        raise RequestError(f"unknown field(s): {', '.join(sorted(unknown))}")
    name = doc.get("patternlet")
    if not isinstance(name, str) or not name:
        raise RequestError("'patternlet' is required and must be a string")
    from repro.core.registry import get_patternlet

    try:
        p = get_patternlet(name)
    except ReproError as exc:
        raise RequestError(str(exc), status=404) from None
    if "tasks" in doc and "np" in doc:
        raise RequestError("give 'tasks' or 'np', not both")
    tasks_doc = {"tasks": doc.get("tasks", doc.get("np"))}
    tasks: int | None = None
    if tasks_doc["tasks"] is not None:
        tasks = _require_int(tasks_doc, "tasks", 1, MAX_TASKS, 1)
    seed = _require_int(doc, "seed", 0, MAX_SEED, 0)
    mode = doc.get("mode", "lockstep")
    if mode != "lockstep":
        raise RequestError(
            f"mode {mode!r} is not servable: only deterministic 'lockstep' "
            "runs can be coalesced and cached by a shared daemon")
    policy = doc.get("policy", "random")
    if policy not in _POLICIES:
        raise RequestError(
            f"unknown policy {policy!r} (one of: {', '.join(_POLICIES)})")
    toggles = _toggle_overrides(doc)
    try:
        p.toggle_set(toggles)  # unknown toggle names raise here
    except ReproError as exc:
        raise RequestError(str(exc)) from None
    topology = doc.get("topology")
    if topology is not None:
        from repro.mp.communicators import available_topologies

        known = available_topologies()
        if topology not in known:
            raise RequestError(
                f"unknown topology {topology!r} (one of: {', '.join(known)})")
    extra: dict[str, Any] = {}
    network = doc.get("network")
    if network is not None:
        if network not in _NETWORKS:
            raise RequestError(
                f"unknown network {network!r} (one of: {', '.join(_NETWORKS)})")
        extra["network"] = network
    return RunSpec.make(
        p.name,
        tasks=tasks,
        toggles=toggles or None,
        mode="lockstep",
        seed=seed,
        policy=policy,
        topology=topology,
        **extra,
    )


def parse_sweep_request(doc: Any, *, max_cells: int) -> list[RunSpec]:
    """Expand one ``POST /sweep`` body into a validated spec grid.

    The grid is the cross product ``patternlets × tasks × topologies ×
    seeds`` with one shared toggle/policy/network setting — the same
    shape as ``patternlet sweep``.  Every cell passes
    :func:`parse_run_request`'s validation; grids beyond ``max_cells``
    are rejected with 413 before any validation work is done.
    """
    if not isinstance(doc, Mapping):
        raise RequestError("request body must be a JSON object")
    unknown = set(doc) - _SWEEP_FIELDS
    if unknown:
        raise RequestError(f"unknown field(s): {', '.join(sorted(unknown))}")
    names = doc.get("patternlets")
    if not isinstance(names, (list, tuple)) or not names \
            or not all(isinstance(n, str) for n in names):
        raise RequestError("'patternlets' must be a non-empty list of names")
    seeds = doc.get("seeds", list(range(8)))
    if not isinstance(seeds, (list, tuple)) or not seeds:
        raise RequestError("'seeds' must be a non-empty list of integers")
    if "tasks" in doc and "np" in doc:
        raise RequestError("give 'tasks' or 'np', not both")
    tasks_list = doc.get("tasks", doc.get("np"))
    if tasks_list is None:
        tasks_list = [None]
    elif not isinstance(tasks_list, (list, tuple)) or not tasks_list:
        raise RequestError("'tasks' must be a non-empty list of integers")
    topologies = doc.get("topologies", doc.get("topology"))
    if topologies is None:
        topologies = [None]
    elif isinstance(topologies, str):
        topologies = [topologies]
    elif not isinstance(topologies, (list, tuple)) or not topologies:
        raise RequestError("'topologies' must be a list of topology names")
    n_cells = len(names) * len(seeds) * len(tasks_list) * len(topologies)
    if n_cells > max_cells:
        raise RequestError(
            f"grid of {n_cells} cells exceeds the {max_cells}-cell cap",
            status=413)
    specs: list[RunSpec] = []
    for name in names:
        for tasks in tasks_list:
            for topo in topologies:
                for seed in seeds:
                    cell = {
                        "patternlet": name,
                        "tasks": tasks,
                        "seed": seed,
                        "toggles": doc.get("toggles") or {},
                        "policy": doc.get("policy", "random"),
                        "topology": topo,
                    }
                    if doc.get("network") is not None:
                        cell["network"] = doc["network"]
                    specs.append(parse_run_request(cell))
    return specs


# ---------------------------------------------------------------------------
# Execution entry points (picklable: they also run on pool processes)


def _exec_spec_wire(wire: Mapping[str, Any]) -> dict[str, Any]:
    """Run one wire-coded spec → wire-coded outcome (worker-side)."""
    from repro.batch.pool import _exec_spec

    return outcome_to_wire(_exec_spec(spec_from_wire(wire)))


@dataclass
class _Flight:
    """One open single-flight entry: the leader's future plus counters."""

    future: asyncio.Future
    attached: int = 0
    t0: float = field(default_factory=time.monotonic)


class PatternletService:
    """The daemon's request pipeline (see module docstring).

    All mutable state — the single-flight table, the response memo, the
    metrics registry — is touched only from the event loop thread, so
    none of it needs locks; executions and cache decodes happen on
    executor threads / pool processes and only their *results* cross
    back onto the loop.
    """

    #: Finished response bodies kept per spec key (content-addressed, so
    #: permanently valid); LRU-bounded.
    MEMO_CAP = 4096
    #: Stored sweep reports (``GET /report/<key>``); LRU-bounded.
    REPORT_CAP = 64

    def __init__(self, config: ServeConfig) -> None:
        self.cfg = config
        self.started = time.time()
        self._inflight: dict[str, _Flight] = {}
        self._sem = asyncio.Semaphore(max(1, config.workers))
        self._pending = 0  # admitted executions not yet finished
        self._queued = 0  # admitted, still waiting for a slot
        self._draining = False
        self._memo: OrderedDict[str, bytes] = OrderedDict()
        self._reports: OrderedDict[str, bytes] = OrderedDict()
        from repro.batch.cache import RunCache, cache_enabled

        self._use_cache = config.use_cache and cache_enabled()
        self._cache = RunCache(config.cache_dir) if self._use_cache else None
        # The serial execution lane (workers == 1) — also the fallback
        # when the process pool cannot be built.  One thread, because
        # the ambient trace stack allows one live run per process.
        self._lane = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="patternlet-serve-exec")
        self._build_registry()

    # -- metrics -------------------------------------------------------------

    def _build_registry(self) -> None:
        from repro.obs.registry import MetricsRegistry

        reg = MetricsRegistry(prefix="patternlet")
        reg.info["version"] = __version__
        reg.info["fingerprint"] = engine_fingerprint()
        reg.info["role"] = "serve"
        self.registry = reg
        self.c_requests = reg.counter(
            "serve_requests", "HTTP requests handled, by endpoint and status.")
        self.c_executions = reg.counter(
            "serve_executions", "Runs actually executed (cache misses that "
            "won their single-flight slot).")
        self.c_coalesce = reg.counter(
            "serve_coalesce_hits", "Requests attached to an identical "
            "in-flight execution instead of executing.")
        self.c_cache_hits = reg.counter(
            "serve_cache_hits", "Requests served from the response memo or "
            "the content-addressed run cache.")
        self.c_cache_misses = reg.counter(
            "serve_cache_misses", "Requests whose spec key was absent from "
            "every cache tier.")
        self.c_shed = reg.counter(
            "serve_shed", "Executions rejected with 429 past the admission "
            "high-water mark.")
        self.c_deadline = reg.counter(
            "serve_deadline_expired", "Admitted executions that timed out "
            "waiting for a slot (503).")
        self.g_queue = reg.gauge(
            "serve_queue_depth", "Admitted executions waiting for a slot.")
        self.g_inflight = reg.gauge(
            "serve_inflight", "Executions currently running.")
        self.g_draining = reg.gauge(
            "serve_draining", "1 while the daemon is draining for shutdown.")
        self.h_latency = reg.histogram(
            "serve_request", "Per-endpoint request service time.",
            buckets=(0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0,
                     1000.0, 5000.0),
            unit="ms")

    def render_metrics(self) -> str:
        """One strict-OpenMetrics scrape of the serve counters."""
        return self.registry.to_openmetrics()

    def observe(self, endpoint: str, status: int, ms: float) -> None:
        """Record one finished HTTP exchange (called by the HTTP layer)."""
        self.c_requests.inc({"endpoint": endpoint, "status": str(status)})
        self.h_latency.observe(round(ms, 3), {"endpoint": endpoint})

    # -- shutdown ------------------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining

    def start_draining(self) -> None:
        """Stop admitting new runs; in-flight executions keep going."""
        self._draining = True
        self.g_draining.set(1)

    async def drain(self, timeout: float | None = None) -> bool:
        """Wait for every admitted execution to finish; True when clean."""
        deadline = time.monotonic() + (
            timeout if timeout is not None else self.cfg.drain_timeout_s)
        while self._pending > 0 or self._inflight:
            if time.monotonic() >= deadline:
                return False
            await asyncio.sleep(0.01)
        return True

    def close(self) -> None:
        """Release the execution lane (idempotent)."""
        self._lane.shutdown(wait=True, cancel_futures=True)

    # -- health / report -----------------------------------------------------

    def health_doc(self) -> tuple[int, dict[str, Any]]:
        """Liveness document for ``GET /healthz`` (503 while draining)."""
        status = 503 if self._draining else 200
        return status, {
            "status": "draining" if self._draining else "ok",
            "uptime_s": round(time.time() - self.started, 3),
            "workers": self.cfg.workers,
            "inflight": len(self._inflight),
            "queue_depth": self._queued,
            "draining": self._draining,
        }

    def report_body(self, key: str) -> bytes | None:
        """A stored sweep report or memoised run response for ``key``."""
        body = self._reports.get(key)
        if body is not None:
            self._reports.move_to_end(key)
            return body
        body = self._memo.get(key)
        if body is not None:
            self._memo.move_to_end(key)
            return body
        if self._cache is not None:
            record = self._cache.get(key)
            if record is not None:
                try:
                    return self._payload_for(key, self._outcome_from_record(key, record))
                except ReproError:
                    return None
        return None

    # -- the /run pipeline ---------------------------------------------------

    async def serve_run(self, spec: RunSpec) -> tuple[int, bytes, str]:
        """Serve one canonical spec; returns ``(status, body, served-by)``.

        ``served-by`` names the tier that produced the bytes (``memo``,
        ``coalesce``, ``cache``, ``execute``) — exposed as a response
        header so clients and tests can see coalescing without the
        bodies differing per tier.
        """
        key = spec_key(spec)
        if key is None:  # unreachable after validation; belt and braces
            raise RequestError("spec is not content-addressable")
        body = self._memo.get(key)
        if body is not None:
            self._memo.move_to_end(key)
            self.c_cache_hits.inc()
            return 200, body, "memo"
        flight = self._inflight.get(key)
        if flight is not None:
            flight.attached += 1
            self.c_coalesce.inc()
            status, body = await asyncio.shield(flight.future)
            return status, body, "coalesce"
        if self._cache is not None:
            record = self._cache.get(key)
            if record is not None:
                outcome = self._outcome_from_record(key, record)
                body = self._payload_for(key, outcome)
                self.c_cache_hits.inc()
                return 200, body, "cache"
        self.c_cache_misses.inc()
        return await self._execute(key, spec) + ("execute",)

    async def _execute(self, key: str, spec: RunSpec) -> tuple[int, bytes]:
        if self._draining:
            raise RequestError("daemon is draining; try another instance",
                               status=503)
        if self._pending >= self.cfg.high_water:
            self.c_shed.inc()
            raise RequestError(
                f"admission queue full ({self._pending} pending)", status=429)
        loop = asyncio.get_running_loop()
        flight = _Flight(future=loop.create_future())
        self._inflight[key] = flight
        self._pending += 1
        self._queued += 1
        self.g_queue.set(self._queued)
        try:
            try:
                await asyncio.wait_for(self._sem.acquire(),
                                       timeout=self.cfg.deadline_ms / 1000.0)
            except (asyncio.TimeoutError, TimeoutError):
                self.c_deadline.inc()
                err = RequestError(
                    f"no execution slot within {self.cfg.deadline_ms:.0f} ms",
                    status=503)
                if not flight.future.done():
                    flight.future.set_exception(err)
                    flight.future.exception()  # consumed: not "unretrieved"
                raise err
            self._queued -= 1
            self.g_queue.set(self._queued)
            self.g_inflight.set(min(self._pending, self.cfg.workers))
            try:
                self.c_executions.inc()
                wire, stats = await self._dispatch(spec)
            finally:
                self._sem.release()
                self.g_inflight.set(
                    max(0, min(self._pending - 1, self.cfg.workers)))
            for name, n in (("hits", stats.get("hits", 0)),
                            ("misses", stats.get("misses", 0))):
                # Worker-side cache counters (a pool process may itself
                # have hit the shared store).
                if n:
                    (self.c_cache_hits if name == "hits"
                     else self.c_cache_misses).inc(amount=n)
            outcome = outcome_from_wire(wire)
            if outcome.error is not None:
                body = self._error_body(outcome.error)
                result = (500, body)
            else:
                body = self._payload_for(key, outcome)
                result = (200, body)
            if not flight.future.done():
                flight.future.set_result(result)
            return result
        except RequestError:
            raise
        except Exception as exc:  # noqa: BLE001 — fail the whole flight
            if not flight.future.done():
                flight.future.set_exception(exc)
                flight.future.exception()
            raise
        finally:
            self._pending -= 1
            if self._queued > self._pending:
                self._queued = self._pending
                self.g_queue.set(self._queued)
            self._inflight.pop(key, None)

    async def _dispatch(self, spec: RunSpec) -> tuple[dict[str, Any], dict[str, int]]:
        """Run one spec on the execution backend; returns (wire, stats)."""
        loop = asyncio.get_running_loop()
        wire_spec = spec_to_wire(spec)
        payload = (_exec_spec_wire, wire_spec, self.cfg.cache_dir,
                   self._use_cache)
        if self.cfg.workers > 1:
            from repro.batch.pool import submit_one

            fut = submit_one(_exec_spec_wire, wire_spec,
                             workers=self.cfg.workers,
                             use_cache=self._use_cache,
                             cache_dir=self.cfg.cache_dir)
            if fut is not None:
                try:
                    return await asyncio.wrap_future(fut)
                except Exception:  # noqa: BLE001 — pool collapse: lane fallback
                    pass
        from repro.batch.pool import _entry

        return await loop.run_in_executor(self._lane, _entry, payload)

    # -- the /sweep pipeline -------------------------------------------------

    async def serve_sweep(self, specs: list[RunSpec]) -> tuple[int, bytes]:
        """Run a validated grid; returns the summary (and stores the report).

        Cells go through :meth:`serve_run`, so identical cells coalesce
        with each other *and* with concurrent ``/run`` traffic.  At most
        ``workers`` of a sweep's cells are in :meth:`serve_run` at once:
        the grid alone can never pass the admission high-water mark and
        shed its own cells, and ``/run`` requests still get slots
        between them.
        """
        t0 = time.monotonic()
        window = asyncio.Semaphore(max(1, self.cfg.workers))

        async def cell(spec: RunSpec) -> tuple[int, bytes, str]:
            async with window:
                return await self.serve_run(spec)

        results = await asyncio.gather(
            *(cell(spec) for spec in specs), return_exceptions=True)
        cells = []
        errors = 0
        for spec, res in zip(specs, results):
            if isinstance(res, BaseException):
                errors += 1
                detail = (str(res) if isinstance(res, ReproError)
                          else f"{type(res).__name__}: {res}")
                cells.append({"label": spec.label(), "error": detail})
                continue
            status, body, served = res
            doc = json.loads(body)
            if status != 200:
                errors += 1
            cells.append({
                "label": spec.label(),
                "key": doc.get("key"),
                "served": served,
                "races": doc.get("races"),
                "span": doc.get("span"),
                "error": doc.get("error"),
            })
        report_key = sweep_fingerprint(specs)
        report = {
            "report": report_key,
            "cells": cells,
            "runs": len(specs),
            "errors": errors,
            "wall_s": round(time.monotonic() - t0, 4),
            "engine": {"version": __version__,
                       "fingerprint": engine_fingerprint()},
        }
        self._store_report(report_key, report)
        summary = dict(report)
        summary.pop("cells")
        summary["distinct_cells"] = len({spec_key(s) for s in specs})
        return (200 if errors == 0 else 500), _dumps(summary)

    # -- payload construction ------------------------------------------------

    def _outcome_from_record(self, key: str, record: Mapping[str, Any]) -> Any:
        """Decode one cache record into a RunOutcome-shaped object."""
        from repro.batch.results import run_from_record
        from repro.obs.derive import run_summary

        try:
            run = run_from_record(dict(record))
        except ReproError as exc:
            raise RequestError(f"stored record for {key} is unreadable: {exc}",
                               status=500) from None
        from repro.batch.results import RunOutcome

        summary = run_summary(run.trace, tasks_hint=run.meta.get("tasks"))
        return RunOutcome(
            spec=None,
            key=key,
            cached=True,
            text=run.text,
            span=run.span,
            wall=run.wall,
            races=summary["races"],
            metrics=summary,
        )

    def _payload_for(self, key: str, outcome: Any) -> bytes:
        """Build (and memoise) the content-addressed response body.

        The body is a pure function of the spec key's *content* — run
        text, span, race verdict — never of how this particular request
        was served, so every request for one key receives byte-identical
        bytes whether it executed, coalesced, or hit a cache tier.
        (Transport provenance rides in the ``X-Patternlet-Served``
        header instead.)
        """
        doc = {
            "key": key,
            "text": outcome.text,
            "span": outcome.span,
            "races": outcome.races,
            "engine": {"version": __version__,
                       "fingerprint": engine_fingerprint()},
        }
        if outcome.metrics is not None:
            summary = outcome.metrics
            doc["metrics"] = {
                k: summary[k] for k in ("span", "speedup", "efficiency")
                if isinstance(summary, Mapping) and k in summary
            }
        body = _dumps(doc)
        self._memo[key] = body
        self._memo.move_to_end(key)
        while len(self._memo) > self.MEMO_CAP:
            self._memo.popitem(last=False)
        return body

    def _store_report(self, key: str, report: Mapping[str, Any]) -> None:
        self._reports[key] = _dumps(report)
        self._reports.move_to_end(key)
        while len(self._reports) > self.REPORT_CAP:
            self._reports.popitem(last=False)

    @staticmethod
    def _error_body(message: str) -> bytes:
        return _dumps({"error": message})


def _dumps(doc: Mapping[str, Any]) -> bytes:
    """Canonical response JSON: sorted keys, compact, newline-terminated."""
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()
