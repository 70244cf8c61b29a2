"""Fleet-wide telemetry plane: spans, worker journals, live scraping.

The sweep fleet (:mod:`repro.batch.fleet`) is a distributed system —
persistent worker processes coordinated through atomic JSON files — and
until this module its behaviour (claims, steals, reposts, stragglers)
was invisible except through post-hoc totals.  Three pieces fix that:

**Span propagation.**  The coordinator mints one ``sweep_id`` per
submitted grid and a :class:`SpanContext` per (shard, cell, worker).
The context rides inside the fleet's job documents, is re-established
ambiently in the worker around each cell (:func:`span_context`), and is
stamped onto the finished run's metadata and its
:class:`~repro.trace.events.TraceRecorder` — so every trace export from
every worker process carries its lineage.  The span **never** enters
the cache key and never injects trace events: cached records and
derived metrics stay byte-identical to serial runs.

**Structured worker journals.**  Each worker appends typed JSONL
records (``worker.start``, ``claim``, ``cell.start``, ``cell.finish``,
``steal.honoured``, ``job.done``, ``heartbeat``, ``worker.exit``) to
``telemetry/worker-<w>.jsonl``; the coordinator writes its own
(``sweep.start``, ``job.post``, ``steal``, ``repost``,
``sweep.finish``) to ``telemetry/coordinator.jsonl``.  One record is
one ``O_APPEND`` line write + flush — readers tolerate a torn tail the
same way the fleet's document reader tolerates a half-written claim.
Merging sorts by ``(worker, seq, kind)`` where ``seq`` is a per-journal
monotone counter, so the merged stream is deterministic no matter when
the journals are tailed.

**Live scrape surface.**  :func:`fleet_registry` folds the journals
(plus the live fleet dirs, when present) into one
:class:`~repro.obs.registry.MetricsRegistry` — per-worker cell/claim/
cache counters, a cell-wall histogram, and fleet gauges (queue depth,
busy/idle workers, steals, cache hit rate).  The registry's fully
sorted OpenMetrics export makes two scrapes of a quiesced fleet
byte-identical; :class:`MetricsServer` mounts it on a stdlib HTTP
endpoint (``patternlet metrics-serve``); the serve daemon folds the
same registry into its own ``/metrics`` under ``serve --telemetry-dir``.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

__all__ = [
    "COORDINATOR",
    "JOURNAL_SCHEMA",
    "MetricsServer",
    "SpanContext",
    "WorkerJournal",
    "current_context",
    "fleet_registry",
    "load_export",
    "merge_journals",
    "read_journal",
    "read_journals",
    "serve_metrics",
    "span_context",
    "write_export",
]

#: Version stamp every journal record carries (``"v"``).
JOURNAL_SCHEMA = 1

#: Worker id the coordinator journals under.
COORDINATOR = -1

#: Record kinds that belong to the worker's lifecycle, not to any one
#: sweep — kept when merging with a ``sweep_id`` filter.
_LIFECYCLE_KINDS = frozenset({"worker.start", "worker.exit"})

_CONTENT_TYPE = "application/openmetrics-text; version=1.0.0; charset=utf-8"


# ---------------------------------------------------------------------------
# Span context


@dataclass(frozen=True, slots=True)
class SpanContext:
    """Lineage of one unit of fleet work: sweep → shard → cell → worker."""

    sweep: str
    shard: int | None = None
    cell: int | None = None
    worker: int | None = None
    stolen_from: int | None = None

    def to_wire(self) -> dict[str, Any]:
        """JSON-safe form with unset fields dropped (job-doc payload)."""
        doc: dict[str, Any] = {"sweep": self.sweep}
        for field in ("shard", "cell", "worker", "stolen_from"):
            value = getattr(self, field)
            if value is not None:
                doc[field] = value
        return doc

    @classmethod
    def from_wire(cls, doc: dict[str, Any]) -> "SpanContext":
        return cls(
            sweep=str(doc.get("sweep", "")),
            shard=doc.get("shard"),
            cell=doc.get("cell"),
            worker=doc.get("worker"),
            stolen_from=doc.get("stolen_from"),
        )

    def to_meta(self) -> dict[str, str]:
        """String-valued form for run metadata / trace-export labels."""
        return {k: str(v) for k, v in self.to_wire().items()}


_CTX: SpanContext | None = None


def current_context() -> SpanContext | None:
    """The ambient :class:`SpanContext`, or ``None`` outside a span."""
    return _CTX


@contextlib.contextmanager
def span_context(ctx: SpanContext | None) -> Iterator[SpanContext | None]:
    """Install ``ctx`` as the ambient span for the dynamic extent."""
    global _CTX
    prev = _CTX
    _CTX = ctx
    try:
        yield ctx
    finally:
        _CTX = prev


# ---------------------------------------------------------------------------
# Journals


class WorkerJournal:
    """Append-only typed JSONL journal for one fleet participant.

    One record is one line: ``json.dumps(..., sort_keys=True)`` +
    newline, written through an ``O_APPEND`` handle and flushed — the
    same crash discipline as the fleet's atomic documents, minus the
    rename (appends to distinct files never collide).  Telemetry is
    advisory: every I/O error is swallowed (``write`` returns ``False``)
    so a full disk can never take a worker down.
    """

    def __init__(self, path: str | os.PathLike, worker: int) -> None:
        self.path = Path(path)
        self.worker = int(worker)
        self.seq = 0
        self._fh: Any = None

    def write(self, kind: str, *, span: SpanContext | None = None,
              **fields: Any) -> bool:
        """Append one typed record; ``False`` if the write was lost."""
        doc: dict[str, Any] = {
            "v": JOURNAL_SCHEMA,
            "kind": kind,
            "worker": self.worker,
            "seq": self.seq,
            "ts": round(time.time(), 6),
        }
        if span is not None:
            doc["span"] = span.to_wire()
        doc.update(fields)
        try:
            if self._fh is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._fh = open(self.path, "a", encoding="utf-8")
            self._fh.write(
                json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n"
            )
            self._fh.flush()
        except OSError:
            return False
        self.seq += 1
        return True

    def close(self) -> None:
        """Release the append handle (records already on disk stay put)."""
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None


def read_journal(path: str | os.PathLike) -> list[dict[str, Any]]:
    """All well-formed records in one journal file (torn tail tolerated)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError:
        return []
    out: list[dict[str, Any]] = []
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
        except ValueError:
            continue  # torn tail or foreign junk — skip, don't fail
        if isinstance(doc, dict) and isinstance(doc.get("kind"), str):
            out.append(doc)
    return out


def read_journals(telemetry_dir: str | os.PathLike) -> list[dict[str, Any]]:
    """Deterministic merge of every ``*.jsonl`` journal in a directory.

    Sorted by ``(worker, seq, kind)`` — worker ids and per-journal
    sequence numbers, never wall clocks — so the merged stream is
    identical however the journals were interleaved on disk.
    """
    root = Path(telemetry_dir)
    records: list[dict[str, Any]] = []
    try:
        paths = sorted(root.glob("*.jsonl"))
    except OSError:
        return []
    for path in paths:
        records.extend(read_journal(path))
    records.sort(key=lambda r: (r.get("worker", 0), r.get("seq", 0),
                                r.get("kind", "")))
    return records


def merge_journals(
    telemetry_dir: str | os.PathLike,
    *,
    sweep_id: str | None = None,
    heartbeats: bool = False,
) -> list[dict[str, Any]]:
    """The merged journal stream, optionally filtered to one sweep.

    With a ``sweep_id``, records are kept when their span names that
    sweep or when they are sweep-scoped coordinator records
    (``sweep.*``) for it; worker lifecycle records survive the filter.
    Heartbeats are live-scrape fodder and dropped from exports unless
    asked for.
    """
    out: list[dict[str, Any]] = []
    for rec in read_journals(telemetry_dir):
        if not heartbeats and rec.get("kind") == "heartbeat":
            continue
        if sweep_id is not None:
            span = rec.get("span")
            rec_sweep = span.get("sweep") if isinstance(span, dict) else None
            if rec_sweep is None:
                rec_sweep = rec.get("sweep")
            if rec_sweep != sweep_id and rec.get("kind") not in _LIFECYCLE_KINDS:
                continue
        out.append(rec)
    return out


def write_export(
    telemetry_dir: str | os.PathLike,
    out_dir: str | os.PathLike,
    *,
    sweep_id: str,
    fleet: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Persist one sweep's merged journal + summary to ``out_dir``.

    Writes ``journal.jsonl`` (the deterministic merge) and
    ``fleet.json`` (schema, sweep id, record count, the coordinator's
    fleet summary) and returns the summary document.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records = merge_journals(telemetry_dir, sweep_id=sweep_id)
    with open(out / "journal.jsonl", "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, separators=(",", ":"), sort_keys=True))
            fh.write("\n")
    summary = {
        "schema": JOURNAL_SCHEMA,
        "sweep_id": sweep_id,
        "records": len(records),
        "fleet": fleet,
    }
    with open(out / "fleet.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return summary


def load_export(export_dir: str | os.PathLike) -> tuple[
    list[dict[str, Any]], dict[str, Any]
]:
    """Read back a :func:`write_export` directory → (records, summary)."""
    root = Path(export_dir)
    records = read_journal(root / "journal.jsonl")
    summary: dict[str, Any] = {}
    try:
        loaded = json.loads((root / "fleet.json").read_text(encoding="utf-8"))
        if isinstance(loaded, dict):
            summary = loaded
    except (OSError, ValueError):
        pass
    return records, summary


# ---------------------------------------------------------------------------
# Metrics


def _journal_source(root: Path) -> Path:
    """Resolve a fleet root / export dir / bare journal dir to journals."""
    if (root / "telemetry").is_dir():
        return root / "telemetry"
    return root


def fleet_registry(root: str | os.PathLike, *, prefix: str = "patternlet"):
    """Fold journals (and live fleet dirs, if present) into one registry.

    ``root`` may be a live fleet directory (containing ``telemetry/``
    and the messenger dirs), a :func:`write_export` output directory, or
    any directory of ``*.jsonl`` journals.  Counters and histograms come
    from the journals alone, so a quiesced fleet scrapes byte-identically
    every time; the queue-depth / busy-worker gauges are added only when
    the live messenger dirs exist.
    """
    from repro._version import __version__
    from repro.batch.specs import engine_fingerprint
    from repro.obs.registry import MetricsRegistry

    root = Path(root)
    reg = MetricsRegistry(prefix=prefix)
    reg.info["version"] = __version__
    reg.info["fingerprint"] = engine_fingerprint()

    records = read_journals(_journal_source(root))
    cells = reg.counter(
        "fleet_worker_cells", "Grid cells finished per fleet worker."
    )
    hits = reg.counter(
        "fleet_worker_cache_hits", "Cache-served cells per fleet worker."
    )
    misses = reg.counter(
        "fleet_worker_cache_misses", "Executed (uncached) cells per fleet worker."
    )
    claims = reg.counter(
        "fleet_worker_claims", "Shard claims won per fleet worker."
    )
    steals = reg.counter(
        "fleet_steals", "Coordinator work-steal revocations issued."
    )
    reposts = reg.counter(
        "fleet_reposts", "Dead-worker shards reposted by the coordinator."
    )
    walls = reg.histogram(
        "fleet_cell_wall", "Distribution of per-cell wall times.", unit="ms"
    )
    hit_count = miss_count = 0
    for rec in records:
        kind = rec.get("kind")
        worker = {"worker": str(rec.get("worker", "?"))}
        if kind == "cell.finish":
            cells.inc(worker)
            if rec.get("cached"):
                hits.inc(worker)
                hit_count += 1
            else:
                misses.inc(worker)
                miss_count += 1
            wall = rec.get("wall")
            if isinstance(wall, (int, float)):
                walls.observe(round(wall * 1000.0, 3), worker)
        elif kind == "claim":
            claims.inc(worker)
        elif kind == "steal":
            steals.inc()
        elif kind == "repost":
            reposts.inc()
    rate = reg.gauge(
        "fleet_cache_hit_rate", "Cache-served fraction of finished cells."
    )
    rate.set(round(hit_count / (hit_count + miss_count), 6)
             if hit_count + miss_count else 0.0)

    jobs_dir = root / "jobs"
    status_dir = root / "status"
    if jobs_dir.is_dir() and status_dir.is_dir():
        try:
            depth = len([p for p in jobs_dir.iterdir()
                         if p.name.startswith("shard-")])
        except OSError:
            depth = 0
        busy = idle = 0
        for path in sorted(status_dir.glob("worker-*.json")):
            try:
                doc = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                continue
            if isinstance(doc, dict) and doc.get("type") == "RUNNING":
                busy += 1
            else:
                idle += 1
        reg.gauge(
            "fleet_queue_depth", "Unclaimed jobs waiting in the fleet queue."
        ).set(depth)
        reg.gauge(
            "fleet_busy_workers", "Workers currently running a job."
        ).set(busy)
        reg.gauge(
            "fleet_idle_workers", "Workers heartbeating READY."
        ).set(idle)
    return reg


# ---------------------------------------------------------------------------
# Live scrape endpoint


class MetricsServer:
    """Stdlib HTTP endpoint serving OpenMetrics from a render callable.

    ``render`` is invoked per request, so scraping a live fleet sees the
    journals as they are *now*; once the fleet quiesces the render is a
    pure function of settled files and consecutive scrapes are
    byte-identical.  This is the ``/metrics`` surface the serve daemon
    (ROADMAP item 1) mounts unchanged.
    """

    def __init__(self, render: Callable[[], str], *,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.render = render

        class _Handler(BaseHTTPRequestHandler):
            server_version = "patternlet-metrics/1"
            # HTTP/1.1 so connections persist between scrapes: the
            # handler always sends Content-Length, which is what the
            # stdlib needs to keep the socket open instead of closing
            # it after every response (HTTP/1.0's only framing).  A
            # Prometheus-style scraper or bench swarm then pays
            # connection setup once, not per request.
            protocol_version = "HTTP/1.1"

            def do_GET(handler) -> None:  # noqa: N805 — stdlib idiom
                if handler.path not in ("/", "/metrics"):
                    handler.send_error(404, "try /metrics")
                    return
                try:
                    body = self.render().encode("utf-8")
                except Exception as exc:  # render must never kill the server
                    handler.send_error(500, f"render failed: {exc}")
                    return
                handler.send_response(200)
                handler.send_header("Content-Type", _CONTENT_TYPE)
                handler.send_header("Content-Length", str(len(body)))
                handler.end_headers()
                handler.wfile.write(body)

            def log_message(self, *args: Any) -> None:  # silence stderr
                pass

        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        host = self._httpd.server_address[0]
        return f"http://{host}:{self.port}/metrics"

    def start(self) -> "MetricsServer":
        """Serve on a daemon thread; returns self for chaining."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="patternlet-metrics",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the listener down and join the serving thread."""
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()


def serve_metrics(root: str | os.PathLike, *, host: str = "127.0.0.1",
                  port: int = 0) -> MetricsServer:
    """A started :class:`MetricsServer` scraping ``root``'s fleet telemetry."""
    root = Path(root)
    server = MetricsServer(
        lambda: fleet_registry(root).to_openmetrics(), host=host, port=port
    )
    return server.start()
