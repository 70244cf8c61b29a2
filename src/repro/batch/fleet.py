"""The sweep fleet: persistent worker processes over a file-based messenger.

The in-process pool (:mod:`repro.batch.pool`) fans a batch across a
``ProcessPoolExecutor`` — fine for one batch, but every item crosses a
pickled pipe, the pool is married to one parent interpreter, and nothing
rebalances a worker stuck behind a slow cell.  This module is the
substrate the ROADMAP's classroom service daemon sits on: a **fleet** of
long-lived worker processes coordinated *purely through the filesystem*,
layered on the same content-addressed :class:`~repro.batch.cache.RunCache`
every other consumer shares.

The message protocol is panda-yoda's Yoda/Droid shared-file messenger,
re-expressed as files instead of MPI messages (typed JSON documents, one
atomic rename per transition):

========================  ====================================================
message                   carrier
========================  ====================================================
``READY_FOR_JOB``         ``status/worker-<w>.json`` (idle heartbeat)
``NEW_JOB``               ``jobs/shard-<s>.json`` — a shard of grid cells;
                          *claiming* is ``os.replace`` into ``claimed/``,
                          so exactly one worker wins a job, no locks
``RUNNING_JOB``           ``status/worker-<w>.json`` — per-cell progress
                          (``done``/``total``), the coordinator's straggler
                          telemetry
``JOB_DONE``              ``results/shard-<s>.json`` — the shard's outcomes
                          plus the worker's cache counters
``NO_WORK_LEFT``          ``control/NO_WORK_LEFT`` sentinel (shutdown)
========================  ====================================================

Work stealing is coordinator-side and cooperative: when every job is
claimed and a worker sits idle, the coordinator picks the claimed shard
with the most cells still ahead of its worker, writes a *revocation*
(``revoke/shard-<s>.json`` with ``{"keep": K}`` — "finish your first K
cells, the tail is reassigned"), and posts the stolen tail as a fresh
job.  The victim checks the revocation before each cell, so it gives up
the tail at its next cell boundary.  The one race — the victim starting
cell K just as the revocation lands — is *allowed*: grid cells are
deterministic and content-addressed, so a doubly-executed cell produces
the identical outcome twice and the coordinator's first-wins merge drops
the duplicate.  Idempotence is what lets the whole protocol run without
a single lock.

Fault model: a worker that dies mid-shard is detected by the coordinator
(dead process + claimed shard without a result) and its unmerged cells
are reposted; if the whole fleet dies, or a deadline passes,
:func:`run_specs_fleet` falls back to the in-process path — at worst the
cells already computed are served back from the shared run cache, so no
work is lost.  Results merged from any mix of workers, thieves and
reposts are byte-identical to the serial path (the equivalence suite
pins a ``fleet`` leg next to serial/pooled/cache-served).

Escape hatches: ``REPRO_FLEET_WORKERS=<n>`` turns the fleet on for
``patternlet sweep`` without flags (``--fleet N`` wins when given;
``--fleet 0`` sizes automatically, honouring ``REPRO_JOBS``), and
``REPRO_FLEET_STALL=<substr>:<ms>`` makes workers stall that long before
any cell whose label contains the substring — the deterministic
straggler injector the work-stealing tests and classroom demos use.

Observability: the coordinator mints a ``sweep_id`` per submitted grid
and threads a span context (sweep → shard → cell → worker lineage)
through every job document; with ``telemetry=True`` each participant
additionally appends typed JSONL records to ``telemetry/`` (see
:mod:`repro.obs.telemetry`), the coordinator merges them into an export
directory after the batch, and ``patternlet metrics-serve`` /
``sweep --telemetry`` expose the live OpenMetrics scrape surface.
"""

from __future__ import annotations

import atexit
import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.batch.cache import RunCache, cache_enabled, caching_runs, write_json
from repro.batch.results import (
    BatchReport,
    RunOutcome,
    outcome_from_wire,
    outcome_to_wire,
    spec_from_wire,
    spec_to_wire,
)
from repro.batch.specs import RunSpec, plan_shards, sweep_fingerprint
from repro.errors import CacheUnserializable
from repro.obs.telemetry import (
    COORDINATOR,
    SpanContext,
    WorkerJournal,
    span_context,
    write_export,
)

__all__ = [
    "FLEET_AMORTISE_CELLS",
    "MSG_JOB_DONE",
    "MSG_NEW_JOB",
    "MSG_NO_WORK_LEFT",
    "MSG_READY",
    "MSG_RUNNING",
    "Fleet",
    "FleetError",
    "default_fleet_workers",
    "fleet_advisory",
    "fleet_size",
    "run_specs_fleet",
    "shutdown_fleet",
]

MSG_READY = "READY_FOR_JOB"
MSG_RUNNING = "RUNNING_JOB"
MSG_NEW_JOB = "NEW_JOB"
MSG_JOB_DONE = "JOB_DONE"
MSG_NO_WORK_LEFT = "NO_WORK_LEFT"

#: Seconds between empty job scans on a worker (doubles up to the max —
#: a busy fleet polls tightly, an idle one backs off to a gentle tick).
_POLL_S = 0.002
_BACKOFF_MAX_S = 0.02

#: Coordinator poll interval while waiting on results.
_COORD_POLL_S = 0.002

_DIRS = ("jobs", "claimed", "revoke", "results", "status", "control",
         "telemetry")

#: Cells per worker below which the file messenger's fixed costs tend to
#: swamp the parallel win (the committed baseline measures
#: ``fleet_speedup_vs_pool`` ≈ 0.2 on the 14-cell quick grid).
FLEET_AMORTISE_CELLS = 32


def fleet_advisory(n_cells: int, workers: int) -> str | None:
    """One-line note when a grid is too small to amortise the fleet.

    The fleet is not "broken" on small grids — per-job file messaging
    plus worker polling is a fixed cost each cell must outweigh.  The
    CLI prints this (to stderr) so students see *why* a tiny
    ``--fleet`` sweep can lose to the in-process pool.
    """
    if workers >= 1 and 0 < n_cells < workers * FLEET_AMORTISE_CELLS:
        return (
            f"note: {n_cells} cells across {workers} fleet workers is under "
            f"the ~{FLEET_AMORTISE_CELLS} cells/worker amortisation "
            "threshold; file-messenger overhead can outweigh the parallel "
            "win (fleet_speedup_vs_pool < 1) — the in-process pool is "
            "usually faster for grids this small"
        )
    return None


class FleetError(RuntimeError):
    """The fleet cannot finish this batch (dead workers, deadline, ...)."""


# -- env hatches --------------------------------------------------------------


def default_fleet_workers() -> int | None:
    """``REPRO_FLEET_WORKERS`` as an int, or ``None`` (fleet not requested)."""
    raw = os.environ.get("REPRO_FLEET_WORKERS")
    if not raw:
        return None
    try:
        n = int(raw)
    except ValueError:
        return None
    return n if n >= 1 else None


def fleet_size(requested: int | None, n_items: int) -> int | None:
    """Resolve the effective fleet size for a batch of ``n_items``.

    ``requested`` is the CLI's ``--fleet`` value: an explicit ``N >= 1``
    wins outright, ``0`` means "auto" (the :func:`~repro.batch.pool.
    default_workers` heuristic, which honours ``REPRO_JOBS``), and
    ``None`` defers to the ``REPRO_FLEET_WORKERS`` hatch — returning
    ``None`` when that is unset too, i.e. the fleet stays off.
    """
    if requested is None:
        requested = default_fleet_workers()
        if requested is None:
            return None
    if requested == 0:
        from repro.batch.pool import default_workers

        return default_workers(n_items)
    return max(1, requested)


def _stall_hook() -> tuple[str, float] | None:
    """The ``REPRO_FLEET_STALL`` straggler injector, parsed (or ``None``)."""
    raw = os.environ.get("REPRO_FLEET_STALL")
    if not raw or ":" not in raw:
        return None
    substr, _, ms = raw.rpartition(":")
    try:
        delay = float(ms) / 1000.0
    except ValueError:
        return None
    return (substr, delay) if substr and delay > 0 else None


# -- atomic file documents ----------------------------------------------------


def _read_doc(path: Path) -> dict[str, Any] | None:
    """Read a message document; ``None`` for absent/torn/foreign files."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return None
    return doc if isinstance(doc, dict) else None


# -- the worker process -------------------------------------------------------


def _claim_job(root: Path, worker_id: int) -> Path | None:
    """Try to claim one unclaimed job via atomic rename; ``None`` if none.

    ``os.replace`` into ``claimed/`` is the whole mutual-exclusion story:
    exactly one worker's rename succeeds, every loser gets
    ``FileNotFoundError`` and moves on.  The claimed filename carries the
    worker id so the coordinator can attribute shards to processes.
    """
    jobs = root / "jobs"
    try:
        candidates = sorted(p for p in jobs.iterdir() if p.suffix == ".json")
    except OSError:
        return None
    for path in candidates:
        target = root / "claimed" / f"{path.stem}.w{worker_id}.json"
        try:
            os.replace(path, target)
        except OSError:
            continue  # another worker won this one
        return target
    return None


def _run_job(
    root: Path,
    worker_id: int,
    job: Mapping[str, Any],
    cache_dir: str | None,
    use_cache: bool,
    stall: tuple[str, float] | None,
    journal: WorkerJournal | None = None,
) -> None:
    """Execute one claimed shard cell-by-cell and publish its JOB_DONE."""
    from repro.batch.pool import _exec_spec

    shard = job["shard"]
    cells = job["cells"]  # [[grid_index, spec_wire], ...]
    job_span = job.get("span") if isinstance(job.get("span"), dict) else None
    sweep = str((job_span or {}).get("sweep", ""))
    stolen_from = job.get("stolen_from")
    revoke_path = root / "revoke" / f"shard-{shard}.json"
    status_path = root / "status" / f"worker-{worker_id}.json"
    if journal is not None:
        journal.write(
            "claim",
            span=SpanContext(sweep, shard=shard, worker=worker_id,
                             stolen_from=stolen_from),
            shard=shard,
            cells=len(cells),
            stolen_from=stolen_from,
        )
    write_json(
        status_path,
        {
            "type": MSG_RUNNING,
            "worker": worker_id,
            "shard": shard,
            "done": 0,
            "total": len(cells),
            "pid": os.getpid(),
        },
    )
    out: list[list[Any]] = []
    cache = RunCache(cache_dir) if (use_cache and cache_dir is not None) else None
    cm = caching_runs(cache, enabled=use_cache)
    with cm:
        for local, (gidx, wire) in enumerate(cells):
            revoke = _read_doc(revoke_path)
            if revoke is not None and local >= int(revoke.get("keep", len(cells))):
                if journal is not None:
                    journal.write(
                        "steal.honoured",
                        span=SpanContext(sweep, shard=shard, worker=worker_id),
                        shard=shard,
                        keep=int(revoke.get("keep", 0)),
                        dropped=len(cells) - local,
                    )
                break  # the tail was stolen; stop at this cell boundary
            spec = spec_from_wire(wire)
            ctx = SpanContext(sweep, shard=shard, cell=gidx, worker=worker_id,
                              stolen_from=stolen_from)
            if journal is not None:
                journal.write("cell.start", span=ctx, shard=shard, cell=gidx,
                              label=spec.label())
            t_cell = time.perf_counter()
            if stall is not None and stall[0] in spec.label():
                time.sleep(stall[1])
            with span_context(ctx):
                outcome = _exec_spec(spec)
            if journal is not None:
                journal.write(
                    "cell.finish",
                    span=ctx,
                    shard=shard,
                    cell=gidx,
                    cached=outcome.cached,
                    wall=round(time.perf_counter() - t_cell, 6),
                    races=outcome.races,
                    error=outcome.error,
                    ranks=list((outcome.metrics or {}).get("tasks", ()))[:16],
                )
            out.append([gidx, outcome_to_wire(outcome)])
            write_json(
                status_path,
                {
                    "type": MSG_RUNNING,
                    "worker": worker_id,
                    "shard": shard,
                    "done": local + 1,
                    "total": len(cells),
                    "pid": os.getpid(),
                },
            )
    stats = cm.cache.stats() if cm.cache is not None else {}
    write_json(
        root / "results" / f"shard-{shard}.json",
        {
            "type": MSG_JOB_DONE,
            "shard": shard,
            "worker": worker_id,
            "stolen_from": stolen_from,
            "outcomes": out,
            "stats": stats,
        },
    )
    if journal is not None:
        journal.write(
            "job.done",
            span=SpanContext(sweep, shard=shard, worker=worker_id),
            shard=shard,
            cells=len(out),
        )


#: Seconds between idle-worker heartbeat journal records (live-only
#: liveness signal; merges drop them).
_HEARTBEAT_S = 1.0


def _fleet_worker_main(
    root_s: str,
    worker_id: int,
    cache_dir: str | None,
    use_cache: bool,
    telemetry: bool = False,
) -> None:
    """A worker process's whole life: poll → claim → run → repeat.

    Top-level and argued only with scalars, so it is spawn-safe as well
    as fork-safe.  Fresh ambient trace state and a fresh rank-thread
    pool first (forked children also get both via their at-fork hooks;
    spawned ones need the explicit calls), then one warm registry import
    every shard on this worker reuses.
    """
    from repro.sched.pool import reset_pool
    from repro.trace import reset_ambient

    reset_ambient()
    reset_pool()
    import repro.patternlets  # noqa: F401

    root = Path(root_s)
    status_path = root / "status" / f"worker-{worker_id}.json"
    sentinel = root / "control" / MSG_NO_WORK_LEFT
    stall = _stall_hook()
    journal = (
        WorkerJournal(root / "telemetry" / f"worker-{worker_id}.jsonl", worker_id)
        if telemetry
        else None
    )
    if journal is not None:
        journal.write("worker.start", pid=os.getpid())
    backoff = _POLL_S
    ready_written = False
    last_beat = time.monotonic()
    while True:
        claimed = _claim_job(root, worker_id)
        if claimed is None:
            # READY is written on transition (or when the coordinator's
            # post-batch cleanup swept the file), not every poll tick —
            # an idle fleet must not grind the message directory.
            if not ready_written or not status_path.exists():
                write_json(
                    status_path,
                    {"type": MSG_READY, "worker": worker_id, "pid": os.getpid()},
                )
                ready_written = True
            if journal is not None and time.monotonic() - last_beat >= _HEARTBEAT_S:
                journal.write("heartbeat", state="ready")
                last_beat = time.monotonic()
            if sentinel.exists():
                if journal is not None:
                    journal.write("worker.exit", pid=os.getpid())
                    journal.close()
                try:
                    os.unlink(status_path)  # leave nothing behind on exit
                except OSError:
                    pass
                return
            time.sleep(backoff)
            backoff = min(backoff * 2, _BACKOFF_MAX_S)
            continue
        backoff = _POLL_S
        ready_written = False  # _run_job overwrote the status with RUNNING
        job = _read_doc(claimed)
        if job is None:
            continue  # torn claim (should not happen: writes are atomic)
        try:
            _run_job(root, worker_id, job, cache_dir, use_cache, stall, journal)
        except Exception:  # noqa: BLE001 - a poisoned shard must not kill the worker
            # Publish an empty JOB_DONE so the coordinator reposts the
            # shard's cells instead of waiting for a dead man's result.
            write_json(
                root / "results" / f"shard-{job['shard']}.json",
                {
                    "type": MSG_JOB_DONE,
                    "shard": job["shard"],
                    "worker": worker_id,
                    "stolen_from": job.get("stolen_from"),
                    "outcomes": [],
                    "stats": {},
                },
            )


# -- the coordinator ----------------------------------------------------------


@dataclass
class _Shard:
    """Coordinator-side bookkeeping for one posted job."""

    cells: list[int]  # grid indices, in shard order
    worker: int | None = None  # claimer, once visible in claimed/
    keep: int | None = None  # revocation watermark (None = whole shard)
    completed: bool = False
    stolen_from: int | None = None

    @property
    def effective_total(self) -> int:
        return self.keep if self.keep is not None else len(self.cells)


class Fleet:
    """A persistent set of worker processes plus their message directory.

    Construction spawns the workers (fork where the platform has it,
    spawn otherwise) and creates the fleet directory; :meth:`submit`
    runs one spec grid through them; :meth:`shutdown` posts
    ``NO_WORK_LEFT`` and removes the directory.  One fleet serves many
    batches back-to-back — that persistence is the point: worker
    processes with warm imports, warm rank-thread pools, and warm
    decoded-record memos are what make repeated sweeps (grading a
    section, a service daemon's request stream) cheap.
    """

    def __init__(
        self,
        workers: int,
        *,
        use_cache: bool,
        cache_dir: str | None,
        root: str | Path | None = None,
        telemetry: bool = False,
        keep_dir: bool = False,
    ):
        self.workers = max(1, workers)
        self.use_cache = use_cache
        self.cache_dir = cache_dir
        self.telemetry = telemetry
        self.keep_dir = keep_dir
        self._own_root = root is None
        self.root = Path(root) if root is not None else Path(
            tempfile.mkdtemp(prefix="repro-fleet-")
        )
        for name in _DIRS:
            (self.root / name).mkdir(parents=True, exist_ok=True)
        self._next_shard = 0
        self._sweep_seq = 0
        self._sweep_id = ""
        self._journal = (
            WorkerJournal(self.root / "telemetry" / "coordinator.jsonl",
                          COORDINATOR)
            if telemetry
            else None
        )
        import multiprocessing

        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # platform without fork
            ctx = multiprocessing.get_context()
        self._procs = []
        for i in range(self.workers):
            p = ctx.Process(
                target=_fleet_worker_main,
                args=(str(self.root), i, cache_dir, use_cache, telemetry),
                daemon=True,
            )
            p.start()
            self._procs.append(p)

    # -- liveness --------------------------------------------------------

    def alive_workers(self) -> list[int]:
        """Ids of workers whose processes are still running."""
        return [i for i, p in enumerate(self._procs) if p.is_alive()]

    # -- job posting -----------------------------------------------------

    def _post_job(
        self,
        wires: list[dict[str, Any]],
        indices: list[int],
        shards: dict[int, _Shard],
        *,
        stolen_from: int | None = None,
    ) -> int:
        shard_id = self._next_shard
        self._next_shard += 1
        doc: dict[str, Any] = {
            "type": MSG_NEW_JOB,
            "shard": shard_id,
            "cells": [[g, wires[g]] for g in indices],
            # Lineage every downstream consumer (worker journals, run
            # metadata, the merged trace) inherits.
            "span": {"sweep": self._sweep_id, "shard": shard_id},
        }
        if stolen_from is not None:
            doc["stolen_from"] = stolen_from
        if not write_json(self.root / "jobs" / f"shard-{shard_id}.json", doc):
            raise FleetError(f"cannot post job for shard {shard_id}")
        shards[shard_id] = _Shard(cells=list(indices), stolen_from=stolen_from)
        if self._journal is not None:
            self._journal.write(
                "job.post",
                span=SpanContext(self._sweep_id, shard=shard_id),
                shard=shard_id,
                cells=len(indices),
                stolen_from=stolen_from,
            )
        return shard_id

    # -- coordinator passes ----------------------------------------------

    def _scan_claims(self, shards: dict[int, _Shard]) -> None:
        try:
            entries = list((self.root / "claimed").iterdir())
        except OSError:
            return
        for path in entries:
            # "shard-<id>.w<worker>.json"
            parts = path.name.split(".")
            if len(parts) != 3 or not parts[1].startswith("w"):
                continue
            try:
                shard_id = int(parts[0].rpartition("-")[2])
                worker = int(parts[1][1:])
            except ValueError:
                continue
            sh = shards.get(shard_id)
            if sh is not None and sh.worker is None:
                sh.worker = worker

    def _drain_results(
        self,
        shards: dict[int, _Shard],
        merged: dict[int, RunOutcome],
        stats: dict[str, int],
        completed: list[dict[str, Any]],
        seen: set[str],
    ) -> bool:
        """Merge any new JOB_DONE files; True when something landed."""
        try:
            entries = sorted((self.root / "results").iterdir())
        except OSError:
            return False
        progressed = False
        for path in entries:
            if path.name in seen or path.suffix != ".json":
                continue
            doc = _read_doc(path)
            if doc is None:
                continue  # results are atomic; absent-or-whole
            seen.add(path.name)
            sh = shards.get(doc.get("shard"))
            if sh is None:
                continue  # a previous batch's stragglers, if any
            for gidx, wire in doc.get("outcomes", ()):
                if gidx not in merged:  # first-wins: duplicates are identical
                    try:
                        merged[gidx] = outcome_from_wire(wire)
                    except (KeyError, TypeError, ValueError, CacheUnserializable):
                        continue  # unreadable cell: left for a repost
            for key, value in doc.get("stats", {}).items():
                stats[key] = stats.get(key, 0) + int(value)
            sh.completed = True
            completed.append(
                {
                    "shard": doc.get("shard"),
                    "worker": doc.get("worker"),
                    "cells": len(doc.get("outcomes", ())),
                    "stolen_from": doc.get("stolen_from"),
                }
            )
            progressed = True
        return progressed

    def _unclaimed_jobs(self) -> bool:
        try:
            return any(
                p.suffix == ".json" for p in (self.root / "jobs").iterdir()
            )
        except OSError:
            return False

    def _read_statuses(self) -> dict[int, dict[str, Any]]:
        out: dict[int, dict[str, Any]] = {}
        try:
            entries = list((self.root / "status").iterdir())
        except OSError:
            return out
        for path in entries:
            doc = _read_doc(path)
            if doc is not None and isinstance(doc.get("worker"), int):
                out[doc["worker"]] = doc
        return out

    def _steal_pass(
        self, wires: list[dict[str, Any]], shards: dict[int, _Shard]
    ) -> int:
        """One work-stealing decision: split the worst straggler's tail.

        Preconditions for acting: no unclaimed jobs (else the idle worker
        should just claim one) and at least one live idle worker.  The
        victim is the running shard with the most cells still ahead of
        its worker's progress; it keeps its in-flight cell plus half the
        tail, and the rest becomes a fresh job.  Repeated passes halve
        the remainder again, so a permanently slow worker converges to
        holding only the cell it is stuck in — tail latency tracks the
        slowest *cell*, not the slowest shard.
        """
        if self._unclaimed_jobs():
            return 0
        statuses = self._read_statuses()
        alive = set(self.alive_workers())
        idle = [
            w
            for w, st in statuses.items()
            if st.get("type") == MSG_READY and w in alive
        ]
        if not idle:
            return 0
        victim_id, victim, done_now, stealable = None, None, 0, 0
        for shard_id, sh in shards.items():
            if sh.completed or sh.worker is None:
                continue
            st = statuses.get(sh.worker)
            if not st or st.get("type") != MSG_RUNNING or st.get("shard") != shard_id:
                continue  # not demonstrably inside this shard right now
            done = int(st.get("done", 0))
            margin = sh.effective_total - done - 1  # cells behind the in-flight one
            if margin > stealable:
                victim_id, victim, done_now, stealable = shard_id, sh, done, margin
        if victim is None or stealable < 1:
            return 0
        new_keep = done_now + 1 + (stealable // 2)
        if victim.keep is not None and new_keep >= victim.keep:
            return 0  # nothing genuinely new to take
        stolen = victim.cells[new_keep : victim.effective_total]
        if not stolen:
            return 0
        if not write_json(
            self.root / "revoke" / f"shard-{victim_id}.json", {"keep": new_keep}
        ):
            return 0
        victim.keep = new_keep
        new_shard = self._post_job(wires, stolen, shards, stolen_from=victim_id)
        if self._journal is not None:
            self._journal.write(
                "steal",
                span=SpanContext(self._sweep_id, shard=victim_id),
                victim=victim_id,
                keep=new_keep,
                cells=len(stolen),
                reposted_as=new_shard,
            )
        return 1

    def _reap_dead(
        self,
        wires: list[dict[str, Any]],
        shards: dict[int, _Shard],
        merged: dict[int, RunOutcome],
    ) -> int:
        """Repost the unmerged cells of shards whose claimer died."""
        alive = set(self.alive_workers())
        reposts = 0
        for shard_id, sh in list(shards.items()):
            if sh.completed or sh.worker is None or sh.worker in alive:
                continue
            sh.completed = True  # abandoned; a ghost result would still merge
            remaining = [
                g for g in sh.cells[: sh.effective_total] if g not in merged
            ]
            if remaining:
                new_shard = self._post_job(wires, remaining, shards)
                if self._journal is not None:
                    self._journal.write(
                        "repost",
                        span=SpanContext(self._sweep_id, shard=shard_id),
                        dead_shard=shard_id,
                        dead_worker=sh.worker,
                        cells=len(remaining),
                        reposted_as=new_shard,
                    )
                reposts += 1
        return reposts

    # -- the batch entry point -------------------------------------------

    def submit(
        self,
        specs: Iterable[RunSpec],
        *,
        steal: bool = True,
        timeout: float | None = None,
        export_dir: str | Path | None = None,
    ) -> BatchReport:
        """Run one spec grid across the fleet; outcomes in spec order.

        Raises :class:`FleetError` when the fleet cannot finish (every
        worker dead with work outstanding, an unpostable job, or the
        deadline passing) — :func:`run_specs_fleet` turns that into an
        in-process fallback.  With telemetry on and ``export_dir`` given,
        the batch's merged journal + fleet summary are exported there and
        surfaced as ``report.telemetry``.
        """
        specs = list(specs)
        t0 = time.perf_counter()
        # The sweep id every span in this batch descends from: the grid's
        # content fingerprint plus a coordinator-unique serial, so two
        # submissions of the same grid stay distinguishable.
        self._sweep_id = (
            f"{sweep_fingerprint(specs)}-{os.getpid()}-{self._sweep_seq}"
        )
        self._sweep_seq += 1
        if self._journal is not None:
            self._journal.write(
                "sweep.start",
                span=SpanContext(self._sweep_id),
                cells=len(specs),
                workers=self.workers,
            )
        wires = [spec_to_wire(s) for s in specs]
        shards: dict[int, _Shard] = {}
        planned = plan_shards(len(specs), self.workers)
        for indices in planned:
            self._post_job(wires, indices, shards)
        merged: dict[int, RunOutcome] = {}
        stats: dict[str, int] = {}
        completed: list[dict[str, Any]] = []
        seen: set[str] = set()
        steals = 0
        reposts = 0
        deadline = time.monotonic() + timeout if timeout is not None else None
        while len(merged) < len(specs):
            progressed = self._drain_results(shards, merged, stats, completed, seen)
            if len(merged) >= len(specs):
                break
            self._scan_claims(shards)
            reposts += self._reap_dead(wires, shards, merged)
            if not self.alive_workers():
                raise FleetError("every fleet worker died with work outstanding")
            if steal:
                steals += self._steal_pass(wires, shards)
            if deadline is not None and time.monotonic() > deadline:
                raise FleetError(
                    f"fleet batch exceeded its {timeout:.0f}s deadline "
                    f"({len(merged)}/{len(specs)} cells merged)"
                )
            if not progressed:
                time.sleep(_COORD_POLL_S)
        wall_s = time.perf_counter() - t0
        fleet_summary: dict[str, Any] = {
            "workers": self.workers,
            "planned_shards": len(planned),
            "completed_shards": len(completed),
            "steals": steals,
            "reposts": reposts,
            "sweep_id": self._sweep_id,
            "shards": completed,
        }
        if self.keep_dir:
            fleet_summary["root"] = str(self.root)
        report = BatchReport(
            outcomes=[merged[i] for i in range(len(specs))],
            wall_s=wall_s,
            workers=self.workers,
            pooled=True,
            cache_stats=stats,
            fleet=fleet_summary,
        )
        if self._journal is not None:
            self._journal.write(
                "sweep.finish",
                span=SpanContext(self._sweep_id),
                cells=len(merged),
                steals=steals,
                reposts=reposts,
                wall=round(wall_s, 6),
            )
            if export_dir is not None:
                summary = write_export(
                    self.root / "telemetry",
                    export_dir,
                    sweep_id=self._sweep_id,
                    fleet=fleet_summary,
                )
                summary["dir"] = str(export_dir)
                report.telemetry = summary
        if not self.keep_dir:
            self._sweep_cleanup()
        return report

    def _sweep_cleanup(self) -> None:
        """Sweep the finished batch's message files out of the directory.

        A merged batch's ``jobs``/``claimed``/``revoke``/``results``
        documents are dead weight — worse, a stolen-tail job posted but
        never claimed would be claimed (and pointlessly recomputed) at
        the start of the *next* batch.  Status files go too; workers
        rewrite READY the moment they notice theirs missing.
        ``telemetry/`` and ``control/`` survive: journals span batches
        and the sentinel is the shutdown signal.  Late writers racing
        this sweep are harmless — a straggling thief's result file is
        ignored by the next batch's merge (stale shard id) and swept by
        its cleanup.
        """
        for name in ("jobs", "claimed", "revoke", "results", "status"):
            try:
                entries = list((self.root / name).iterdir())
            except OSError:
                continue
            for path in entries:
                if path.name.startswith(("shard-", "worker-")):
                    try:
                        os.unlink(path)
                    except OSError:
                        pass

    def shutdown(self) -> None:
        """Post NO_WORK_LEFT, reap the workers, remove the directory."""
        try:
            (self.root / "control" / MSG_NO_WORK_LEFT).touch()
        except OSError:
            pass
        for p in self._procs:
            p.join(timeout=1.0)
        for p in self._procs:
            if p.is_alive():
                p.terminate()
                p.join(timeout=1.0)
        self._procs = []
        if self._journal is not None:
            self._journal.close()
        if self._own_root and not self.keep_dir:
            shutil.rmtree(self.root, ignore_errors=True)


# -- the persistent module-level fleet ----------------------------------------

_FLEET: Fleet | None = None
_FLEET_KEY: tuple[int, bool, str | None, bool, bool] | None = None
_ATEXIT_ARMED = False


def _get_fleet(
    workers: int,
    use_cache: bool,
    cache_dir: str | None,
    *,
    telemetry: bool = False,
    keep_dir: bool = False,
) -> Fleet | None:
    """The process-wide fleet, (re)built when the shape changes or workers die."""
    global _FLEET, _FLEET_KEY, _ATEXIT_ARMED
    key = (workers, use_cache, cache_dir, telemetry, keep_dir)
    if (
        _FLEET is not None
        and _FLEET_KEY == key
        and len(_FLEET.alive_workers()) == _FLEET.workers
    ):
        return _FLEET
    shutdown_fleet()
    try:
        _FLEET = Fleet(
            workers,
            use_cache=use_cache,
            cache_dir=cache_dir,
            telemetry=telemetry,
            keep_dir=keep_dir,
        )
        _FLEET_KEY = key
    except (OSError, ValueError, NotImplementedError):
        _FLEET = None
        _FLEET_KEY = None
    if _FLEET is not None and not _ATEXIT_ARMED:
        atexit.register(shutdown_fleet)
        _ATEXIT_ARMED = True
    return _FLEET


def shutdown_fleet() -> None:
    """Tear down the persistent fleet (tests; end-of-process hygiene)."""
    global _FLEET, _FLEET_KEY
    if _FLEET is not None:
        _FLEET.shutdown()
        _FLEET = None
        _FLEET_KEY = None


def run_specs_fleet(
    specs: Iterable[RunSpec],
    *,
    workers: int | None = None,
    use_cache: bool | None = None,
    cache_dir: str | None = None,
    steal: bool = True,
    timeout: float | None = 300.0,
    telemetry_dir: str | Path | None = None,
    serve_port: int | None = None,
    keep_fleet_dir: bool = False,
    announce: "Any | None" = None,
) -> BatchReport:
    """Execute a spec grid on the persistent fleet; the sharded entry point.

    The fleet-shaped sibling of :func:`repro.batch.pool.run_specs`, with
    the same contract (outcome order matches spec order; per-outcome
    text/span/races; merged cache stats) plus a ``fleet`` summary on the
    report.  Degrades rather than fails: single-cell batches, specs the
    wire codec cannot ship, an unspawnable fleet, or a mid-batch fleet
    collapse all land on the in-process path, whose results are
    identical by the equivalence guarantee.

    ``telemetry_dir`` turns worker journals on and exports the merged
    batch telemetry there (``report.telemetry`` summarises it); with
    ``serve_port`` additionally set (0 = ephemeral), a live OpenMetrics
    endpoint over the fleet directory runs for the duration of the batch
    and its URL is passed to ``announce`` (a ``str`` callback).
    ``keep_fleet_dir`` preserves the message directory — per-batch
    cleanup *and* shutdown removal are skipped — for post-mortems.
    Degraded (in-process) paths have no journals; the report simply
    lacks the ``telemetry`` block.
    """
    specs = list(specs)
    use = cache_enabled() if use_cache is None else use_cache
    telemetry = telemetry_dir is not None
    from repro.batch.pool import default_workers, run_specs

    n = workers if workers is not None and workers >= 1 else fleet_size(0, len(specs))
    if n is None:
        n = default_workers(len(specs))
    if len(specs) <= 1:
        return run_specs(specs, max_workers=1, use_cache=use, cache_dir=cache_dir)
    try:
        [spec_to_wire(s) for s in specs]
    except CacheUnserializable:
        return run_specs(specs, max_workers=None, use_cache=use, cache_dir=cache_dir)
    fleet = _get_fleet(
        n, use, cache_dir, telemetry=telemetry, keep_dir=keep_fleet_dir
    )
    if fleet is None:
        return run_specs(specs, max_workers=None, use_cache=use, cache_dir=cache_dir)
    server = None
    if telemetry and serve_port is not None:
        from repro.obs.telemetry import serve_metrics

        try:
            server = serve_metrics(fleet.root, port=serve_port)
        except OSError:
            server = None  # port taken: the sweep still runs, just unscraped
        if server is not None and announce is not None:
            announce(server.url)
    try:
        return fleet.submit(
            specs,
            steal=steal,
            timeout=timeout,
            export_dir=telemetry_dir if telemetry else None,
        )
    except FleetError:
        shutdown_fleet()
        return run_specs(specs, max_workers=None, use_cache=use, cache_dir=cache_dir)
    finally:
        if server is not None:
            server.stop()
