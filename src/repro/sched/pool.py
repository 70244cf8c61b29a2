"""Process-wide rank-thread pool: park worker threads between runs.

Both executors used to create, start, and join a fresh OS thread per rank
on every run.  At batch rates (thousands of runs per second) and at large
``np`` (the paper's "run it again with more tasks" mechanic) thread
setup/teardown dominated per-run cost.  This module keeps a pool of
parked daemon threads that rank bodies are *leased* onto instead:

- **Parking** is a held-by-default ``threading.Lock`` per worker (the
  same binary-semaphore trick the lockstep token uses): re-leasing a
  parked worker is one ``release``, parking is one ``acquire`` — no
  condition-variable broadcast, no new OS thread.
- **LIFO reuse**: the most recently parked worker is leased first, so a
  hot run-loop keeps hitting the same few cache-warm threads.
- **Leases, not threads**: callers get a :class:`Lease` whose
  :meth:`Lease.join` waits for the *body* to finish, not the thread to
  die.  A lease is reclaimed even when the body unwinds via abort or
  deadlock — the worker scrubs per-thread state and reparks — which
  replaces the old leak-prone ``Thread.join(timeout=5.0)`` abandonment:
  an aborted run no longer strands an OS thread per rank.
- **State hygiene**: between leases a worker resets its task label (the
  only engine thread-local that outlives a task body; the executors
  clear their own TLS in ``finally`` blocks and ``muted`` stacks unwind
  with the body).  Determinism therefore cannot leak between runs: a
  pooled thread is indistinguishable from a fresh one to the engine.
- **Fork safety**: ``os.register_at_fork`` swaps in a brand-new empty
  pool in forked children (pool threads do not survive ``fork``),
  mirroring ``repro.trace.events.reset_ambient``.

``REPRO_RANK_POOL=0`` disables pooling: every lease then runs on a fresh
thread.  The hypothesis suite uses this hatch to prove pooled and
fresh-thread execution produce identical traces.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Callable, Sequence

from repro.sched.base import set_task_label

__all__ = [
    "Lease",
    "RankThreadPool",
    "get_pool",
    "lease",
    "prepare_many",
    "pool_enabled",
    "pool_stats",
    "reset_pool",
    "shutdown_pool",
]

#: Environment hatch: set to ``0`` to run every lease on a fresh thread.
POOL_ENV = "REPRO_RANK_POOL"

#: Parked workers beyond this are let die instead of reparked.  1024 ranks
#: plus headroom: one np=1024 run parks its whole team for the next run
#: (at 320 a warm np=1024 world still respawned ~700 OS threads per run,
#: which alone cost more than the np=1024 wall-time target).
MAX_IDLE = 1088


def pool_enabled() -> bool:
    """Whether leases go through the pool (``REPRO_RANK_POOL`` hatch)."""
    return os.environ.get(POOL_ENV, "1").lower() not in ("0", "false", "no", "off")


class Lease:
    """One rank body running on a pooled (or fresh) thread.

    ``join`` waits for the *body* to complete — the worker thread itself
    survives and reparks.  Unlike ``Thread.join`` this cannot strand an
    OS thread: the worker is back in the pool even if the body aborted.
    """

    __slots__ = ("name", "_done")

    def __init__(self, name: str):
        self.name = name
        self._done = threading.Event()

    def join(self, timeout: float | None = None) -> bool:
        """Wait until the leased body has finished; True if it has."""
        return self._done.wait(timeout)

    @property
    def done(self) -> bool:
        return self._done.is_set()


class _Worker:
    """A pooled thread: parked on its wake-lock until handed a job."""

    __slots__ = ("thread", "wake", "job")

    def __init__(self) -> None:
        # Held-by-default binary semaphore; releasing it is the handoff.
        self.wake = threading.Lock()
        self.wake.acquire()
        self.job: tuple[Callable[..., Any], Sequence[Any], Lease] | None = None
        self.thread: threading.Thread | None = None


class RankThreadPool:
    """LIFO pool of parked daemon threads rank bodies are leased onto."""

    def __init__(self, *, max_idle: int = MAX_IDLE):
        self._lock = threading.Lock()
        self._idle: list[_Worker] = []
        self.max_idle = max_idle
        # Lifetime counters (read by tests/benchmarks via stats()).
        self._spawned = 0  # OS threads ever created
        self._leases = 0  # lease() calls ever served
        self._active = 0  # leases currently running

    # -- leasing ---------------------------------------------------------

    def lease(
        self, fn: Callable[..., Any], args: Sequence[Any] = (), *, name: str = "rank"
    ) -> Lease:
        """Run ``fn(*args)`` on a pooled thread; returns immediately."""
        out = Lease(name)
        with self._lock:
            self._leases += 1
            self._active += 1
            w = self._idle.pop() if self._idle else None
            if w is None:
                w = _Worker()
                self._spawned += 1
        w.job = (fn, args, out)
        if w.thread is None:
            # First lease for this worker: the job is staged before the
            # thread starts, so _worker_main runs it straight away.
            w.thread = threading.Thread(
                target=self._worker_main, args=(w,), name=name, daemon=True
            )
            w.thread.start()
        else:
            w.thread.name = name
            w.wake.release()
        return out

    def prepare(
        self, fn: Callable[..., Any], args: Sequence[Any] = (), *, name: str = "rank"
    ) -> tuple[Lease, Callable[[], None]]:
        """Stage ``fn(*args)`` on a pooled worker without waking it.

        Returns ``(lease, start)``; the body runs only once ``start()`` is
        called.  This lets the lockstep executor fuse the pool wake with
        the first token grant: a plain lease wakes the worker just to park
        it again on the token semaphore — two OS wakeups per rank, which
        at np=1024 is the dominant setup cost.
        """
        out = Lease(name)
        with self._lock:
            self._leases += 1
            self._active += 1
            w = self._idle.pop() if self._idle else None
            if w is None:
                w = _Worker()
                self._spawned += 1
        w.job = (fn, args, out)
        return out, self._starter(w, name)

    def prepare_many(
        self,
        fn: Callable[..., Any],
        argss: Sequence[Sequence[Any]],
        names: Sequence[str],
    ) -> tuple[list[Lease], list[Callable[[], None]]]:
        """Batch :meth:`prepare`: one pool-lock acquisition for n workers.

        Per-lease locking was O(n) contended acquisitions against workers
        reparking from the previous run — measurably quadratic-feeling at
        np=1024 world setup.
        """
        n = len(argss)
        outs = [Lease(nm) for nm in names]
        with self._lock:
            self._leases += n
            self._active += n
            idle = self._idle
            k = min(len(idle), n)
            if k:
                # Reversed slice preserves the LIFO pop() order: hottest
                # (most recently parked) workers are leased first.
                workers = idle[-k:][::-1]
                del idle[-k:]
            else:
                workers = []
            for _ in range(n - k):
                workers.append(_Worker())
                self._spawned += 1
        starters = []
        for w, args, out, nm in zip(workers, argss, outs, names):
            w.job = (fn, args, out)
            starters.append(self._starter(w, nm))
        return outs, starters

    def _starter(self, w: _Worker, name: str) -> Callable[[], None]:
        def start() -> None:
            if w.thread is None:
                # First lease for this worker: the job is staged before
                # the thread starts, so _worker_main runs it straight away.
                w.thread = threading.Thread(
                    target=self._worker_main, args=(w,), name=name, daemon=True
                )
                w.thread.start()
            else:
                w.thread.name = name
                w.wake.release()

        return start

    def _worker_main(self, w: _Worker) -> None:
        while True:
            job, w.job = w.job, None
            if job is None:  # shutdown poke
                return
            fn, args, out = job
            try:
                fn(*args)
            except BaseException:  # noqa: BLE001 - bodies report via records
                # Executor task mains catch everything and report through
                # TaskRecord/TaskGroup; anything reaching here is a bug in
                # the executor itself, but a dead pool thread would only
                # compound it — scrub and repark regardless.
                pass
            # State hygiene: the task label is the one engine thread-local
            # that a body could leave behind (executors clear it in their
            # own finally blocks; this is the belt-and-braces for abort
            # paths that unwind through BaseException).
            set_task_label(None)
            reparked = self._repark(w)
            # Signal completion only after reparking: a caller that joins
            # and immediately starts the next run finds this worker back
            # in the pool, so serial run loops never over-spawn.
            out._done.set()
            if not reparked:
                return
            w.wake.acquire()

    def _repark(self, w: _Worker) -> bool:
        with self._lock:
            self._active -= 1
            if len(self._idle) >= self.max_idle:
                return False
            self._idle.append(w)
            return True

    # -- management ------------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Lifetime counters: spawned/leases/active/idle (for tests)."""
        with self._lock:
            return {
                "spawned": self._spawned,
                "leases": self._leases,
                "active": self._active,
                "idle": len(self._idle),
            }

    def shutdown(self) -> None:
        """Let all parked workers exit (busy ones exit on repark)."""
        with self._lock:
            idle, self._idle = self._idle, []
            self.max_idle = 0
        for w in idle:
            w.job = None
            w.wake.release()


#: The process-wide pool.  Read through the module (``_pool.get_pool()``)
#: so fork resets are visible everywhere.
_POOL = RankThreadPool()


def get_pool() -> RankThreadPool:
    """The current process-wide pool (rebound on fork/reset)."""
    return _POOL


def lease(
    fn: Callable[..., Any], args: Sequence[Any] = (), *, name: str = "rank"
) -> Lease:
    """Lease a rank body from the process pool (or a fresh thread).

    This is the one entry point the executors use; the env hatch and the
    current pool instance are resolved per call.
    """
    if not pool_enabled():
        out = Lease(name)

        def runner() -> None:
            try:
                fn(*args)
            except BaseException:  # noqa: BLE001 - bodies report via records
                pass
            finally:
                set_task_label(None)
                out._done.set()

        threading.Thread(target=runner, name=name, daemon=True).start()
        return out
    return _POOL.lease(fn, args, name=name)


def prepare_many(
    fn: Callable[..., Any],
    argss: Sequence[Sequence[Any]],
    names: Sequence[str],
) -> tuple[list[Lease], list[Callable[[], None]]]:
    """Stage n bodies without waking anyone; see :meth:`RankThreadPool.prepare_many`.

    With the pool disabled (``REPRO_RANK_POOL=0``) each ``start()`` spawns
    a fresh thread instead, so pooled and fresh execution stay
    observationally identical — including the deferred-start protocol.
    """
    if not pool_enabled():
        outs = []
        starters = []
        for args, nm in zip(argss, names):
            out = Lease(nm)

            def runner(fn=fn, args=args, out=out) -> None:
                try:
                    fn(*args)
                except BaseException:  # noqa: BLE001 - bodies report via records
                    pass
                finally:
                    set_task_label(None)
                    out._done.set()

            def start(runner=runner, nm=nm) -> None:
                threading.Thread(target=runner, name=nm, daemon=True).start()

            outs.append(out)
            starters.append(start)
        return outs, starters
    return _POOL.prepare_many(fn, argss, names)


def pool_stats() -> dict[str, int]:
    """Lifetime counters of the current pool (see :meth:`RankThreadPool.stats`)."""
    return _POOL.stats()


def reset_pool() -> None:
    """Install a fresh empty pool, abandoning the old object.

    Used in forked children, where the parent's pool threads do not
    exist and the old pool's lock may have been copied mid-held — so
    the old object must not be touched at all.
    """
    global _POOL
    _POOL = RankThreadPool()


def shutdown_pool() -> None:
    """Drain the current pool's parked workers and install a fresh one."""
    global _POOL
    old, _POOL = _POOL, RankThreadPool()
    old.shutdown()


if hasattr(os, "register_at_fork"):  # pragma: no branch
    # Pool threads do not survive fork; the child must not try to lease
    # from workers that only exist in the parent.  Same pattern as
    # repro.trace.events.reset_ambient.
    os.register_at_fork(after_in_child=reset_pool)
