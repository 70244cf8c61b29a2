"""Synchronisation primitives for SMP thread teams.

These implement the paper's synchronisation patterns:

- :class:`TeamBarrier` — the *Barrier* pattern (Figures 7-9): a reusable,
  generation-counted barrier.  It also synchronises the team's *virtual
  clocks*: every thread leaves the barrier at the max of the arrival clocks,
  which is what makes span (critical-path) measurements meaningful.
- :class:`TicketLock` — the *Mutual Exclusion* pattern as OpenMP's
  ``critical`` directive: a named, FIFO-fair lock.  Its acquire path goes
  through the executor's wait machinery, which costs a condition-variable
  round trip per acquisition — deliberately heavier than :class:`AtomicGuard`,
  reproducing the critical-vs-atomic cost gap of Figure 30.
- :class:`AtomicGuard` — OpenMP's ``atomic`` directive: the cheapest mutual
  exclusion available (a bare ``threading.Lock`` under real threads).  Like
  the real directive it must only guard a single small update: bodies must
  not print, block, or hit scheduler checkpoints.

All primitives observe their team's ``broken`` flag so a crashed teammate
unblocks everyone with :class:`~repro.errors.TeamBrokenError` instead of a
hang.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from repro.errors import TeamBrokenError
from repro.trace.events import active as _trace_active, emit as _trace_emit

if TYPE_CHECKING:  # pragma: no cover
    from repro.smp.runtime import ExecutionContext, Team

__all__ = ["TeamBarrier", "TicketLock", "AtomicGuard", "OrderedCursor"]


class TeamBarrier:
    """Reusable generation-counted barrier for one team."""

    def __init__(self, team: "Team"):
        self._team = team
        self._lock = threading.Lock()
        self._count = 0
        self._generation = 0
        self._gen_vmax: dict[int, float] = {}

    @property
    def generation(self) -> int:
        """How many times the whole team has passed the barrier."""
        return self._generation

    def wait(self, ctx: "ExecutionContext") -> None:
        """Block until every teammate has arrived; synchronise virtual clocks."""
        team = self._team
        ex = team.executor
        with self._lock:
            gen = self._generation
            prev = self._gen_vmax.get(gen, 0.0)
            self._gen_vmax[gen] = max(prev, ctx.vtime)
            # Publish this arrival before the count flips: the departing
            # edge below must see every arrival of its generation.
            _trace_emit(
                "barrier.arrive",
                scope=team.scope,
                generation=gen,
                vtime=ctx.vtime,
                hb_rel=("barrier", team.scope, gen),
            )
            self._count += 1
            last = self._count == team.size
            if last:
                self._count = 0
                self._generation += 1
                self._gen_vmax.pop(gen - 2, None)
        if last:
            ex.notify()
        else:
            ex.wait_until(
                lambda: self._generation != gen or team.broken,
                describe=f"barrier #{gen} of team {team.label!r}",
            )
        if team.broken:
            raise TeamBrokenError(
                f"barrier #{gen} of team {team.label!r} aborted: a teammate failed"
            )
        release = self._gen_vmax.get(gen, ctx.vtime)
        ctx._advance_to(release + team.runtime.costs.barrier)
        _trace_emit(
            "barrier.depart",
            scope=team.scope,
            generation=gen,
            vtime=ctx.vtime,
            hb_acq=("barrier", team.scope, gen),
        )


class TicketLock:
    """FIFO-fair named lock backing the ``critical`` directive.

    Tickets are handed out in arrival order; ``now_serving`` advances on
    release.  Waiting goes through ``executor.wait_until``, so blocked
    threads appear in deadlock diagnostics by critical-section name.
    """

    def __init__(self, team: "Team", name: str):
        self._team = team
        self.name = name
        self._lock = threading.Lock()
        self._next_ticket = 0
        self._now_serving = 0
        #: Total acquisitions (teaching/diagnostic counter).
        self.acquisitions = 0

    def acquire(self, ctx: "ExecutionContext") -> None:
        """Take a ticket; wait until it is served (FIFO order)."""
        team = self._team
        with self._lock:
            ticket = self._next_ticket
            self._next_ticket += 1
        team.executor.wait_until(
            lambda: self._now_serving == ticket or team.broken,
            describe=f"critical section {self.name!r} (ticket {ticket})",
        )
        if team.broken:
            raise TeamBrokenError(
                f"critical section {self.name!r} aborted: a teammate failed"
            )
        ctx._advance_by(team.runtime.costs.critical)
        if _trace_active():
            _trace_emit(
                "critical.acquire",
                scope=team.scope,
                name=self.name,
                vtime=ctx.vtime,
                hb_acq=("critical", team.scope, self.name),
            )

    def release(self, ctx: "ExecutionContext") -> None:
        """Serve the next ticket and wake its holder."""
        # Emit before advancing now_serving: the next holder's acquire
        # event must come after this release in stream order.
        if _trace_active():
            _trace_emit(
                "critical.release",
                scope=self._team.scope,
                name=self.name,
                vtime=ctx.vtime,
                hb_rel=("critical", self._team.scope, self.name),
            )
        with self._lock:
            self._now_serving += 1
            self.acquisitions += 1
        self._team.executor.notify()

    @property
    def held(self) -> bool:
        with self._lock:
            return self._now_serving < self._next_ticket


class AtomicGuard:
    """Cheapest mutual exclusion, backing the ``atomic`` directive.

    Under real threads this is a bare ``threading.Lock`` — one uncontended
    atomic RMW to take, no scheduler interaction.  Under lockstep the lock
    can never be contended (only one task runs at a time and atomic bodies
    contain no checkpoints), so acquisition is effectively free there; the
    Figure 30 cost-comparison bench therefore runs in thread mode.
    """

    def __init__(self, team: "Team"):
        self._team = team
        self._lock = threading.Lock()
        self._held = False  # lockstep-mode ownership flag
        #: Total guarded updates (teaching/diagnostic counter).
        self.updates = 0

    def acquire(self, ctx: "ExecutionContext") -> None:
        """Take the guard (bare lock under threads, flag under lockstep)."""
        team = self._team
        if team.executor.mode == "lockstep":
            # A raw lock would be invisible to the lockstep scheduler: if a
            # body ever hit a checkpoint while holding it, the next task to
            # contend would block the whole world.  Route through the
            # executor instead; with one task running at a time this is
            # still contention-free in the common case.
            team.executor.wait_until(
                lambda: not self._held or team.broken, describe="atomic guard"
            )
            if team.broken:
                raise TeamBrokenError("atomic guard aborted: a teammate failed")
            self._held = True
        else:
            self._lock.acquire()
        ctx._advance_by(team.runtime.costs.atomic)
        if _trace_active():
            _trace_emit(
                "atomic.acquire",
                scope=team.scope,
                vtime=ctx.vtime,
                hb_acq=("atomic", team.scope),
            )

    def release(self, ctx: "ExecutionContext") -> None:
        """Release the guard, counting the completed update."""
        self.updates += 1
        # Emit while still holding the guard so the next acquire event
        # cannot precede this release in stream order.
        if _trace_active():
            _trace_emit(
                "atomic.release",
                scope=self._team.scope,
                vtime=ctx.vtime,
                hb_rel=("atomic", self._team.scope),
            )
        if self._team.executor.mode == "lockstep":
            self._held = False
            self._team.executor.notify()
        else:
            self._lock.release()


class OrderedCursor:
    """OpenMP's ``ordered`` construct: sections run in iteration order.

    Inside a worksharing loop, each thread wraps its order-sensitive code
    in ``with cursor.turn(i):`` — the body for iteration ``i`` runs only
    after iterations ``start..i-1`` have completed theirs, regardless of
    which threads own which iterations.  Create one per loop via
    ``ctx.ordered_cursor()`` (all threads share the same cursor).
    """

    def __init__(self, team: "Team", start: int = 0, step: int = 1):
        if step == 0:
            raise ValueError("step must be non-zero")
        self._team = team
        self._next = start
        self._step = step
        self._lock = threading.Lock()

    @property
    def next_turn(self) -> int:
        return self._next

    def turn(self, iteration: int) -> "_OrderedTurn":
        """Context manager running its body when ``iteration``'s turn comes."""
        return _OrderedTurn(self, iteration)

    def _enter(self, iteration: int) -> None:
        team = self._team
        team.executor.wait_until(
            lambda: self._next == iteration or team.broken,
            describe=f"ordered section turn {iteration}",
        )
        if team.broken:
            raise TeamBrokenError("ordered section aborted: a teammate failed")
        _trace_emit(
            "ordered.enter",
            scope=team.scope,
            iteration=iteration,
            hb_acq=("ordered", team.scope, id(self)),
        )

    def _exit(self) -> None:
        _trace_emit(
            "ordered.exit",
            scope=self._team.scope,
            iteration=self._next,
            hb_rel=("ordered", self._team.scope, id(self)),
        )
        with self._lock:
            self._next += self._step
        self._team.executor.notify()


class _OrderedTurn:
    __slots__ = ("_cursor", "_iteration")

    def __init__(self, cursor: OrderedCursor, iteration: int):
        self._cursor = cursor
        self._iteration = iteration

    def __enter__(self) -> None:
        self._cursor._enter(self._iteration)

    def __exit__(self, *exc: object) -> None:
        self._cursor._exit()
