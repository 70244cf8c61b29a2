"""Deterministic lockstep executor.

Tasks are real threads, but exactly one holds the *token* at any moment and
control transfers only at explicit switch points:

- ``checkpoint()`` — called by the runtimes after every observable action
  (a print, a message send, a race-window entry);
- ``wait_until(pred)`` — the task blocks; the token moves on;
- task completion.

At each switch the executor asks its :class:`~repro.sched.policy.Policy`
which runnable task runs next.  With a seeded
:class:`~repro.sched.policy.RandomPolicy` the complete interleaving — and
therefore the output order, the outcome of a data race, whether a deadlock
manifests — is a pure function of the seed.  This gives the patternlets a
*replay* capability the paper's C versions lack: "run it again with seed 7"
shows the same lost update every time.

Switch-point machinery (the hot path of every lockstep run):

- The token is handed over a per-task **binary semaphore** (a raw
  ``threading.Lock`` held-by-default): one release wakes exactly the chosen
  task, one acquire parks the yielding one.  This replaced a per-task
  ``threading.Event`` ping-pong, whose set/clear/wait cycle cost three
  extra lock round-trips per switch.
- Blocked predicates are re-evaluated only when the **dirty flag** says
  shared state actually changed — set by :meth:`notify`, task completion,
  and aborts — rather than on every switch.  This is sound because of the
  executor contract (see :mod:`repro.sched.base`): any state change that
  can turn a predicate true must be followed by ``notify()``.  A safety
  net re-evaluates everything once before declaring deadlock.
- Unmanaged threads (e.g. the pytest main thread polling runtime state)
  wait on one shared :class:`threading.Condition` and are woken by the
  next ``notify()`` — previously they spun on a 1 ms timed sleep.  The
  ``timed_waits`` counter records any fallback timed poll (only ever taken
  when *no* managed task exists to deliver a wakeup); tests assert it
  stays zero in deadlock-free runs.
- The runnable set is a **maintained sorted index** (``_ready``, ascending
  tid — exactly the list the policy contract requires) plus a blocked-task
  index for promotion passes, so a switch costs O(log np) instead of an
  O(np) scan of the task table; this is what makes np=256 runs practical.
- **Batched arbitration** (``batch=k``, default 1): one full policy
  decision grants the chosen task a quantum of ``k-1`` further free passes
  through plain checkpoints, amortising the ~2.6 us OS handoff floor
  across k observable actions.  Blocking waits, completion and aborts
  always cancel the quantum and re-arbitrate, so liveness is unchanged;
  the interleaving is a pure function of ``(seed, batch)`` and the default
  ``batch=1`` stream is byte-identical to the pinned goldens.
- Task bodies run on threads **leased from the process-wide rank pool**
  (:mod:`repro.sched.pool`) rather than freshly spawned per run: thread
  setup/teardown no longer dominates per-run cost at batch rates, and an
  aborted/deadlocked run reparks its workers instead of stranding OS
  threads behind the old ``Thread.join(timeout=5.0)``.

If the runnable set empties while blocked tasks remain, every task is woken
with a :class:`~repro.errors.DeadlockError` naming each blocked task and
what it was waiting for.

Limitations (documented, enforced): one lockstep world at a time per
executor — concurrent ``run_tasks`` calls from *different unmanaged threads*
are rejected; nested ``run_tasks`` from inside a managed task (hybrid
MPI+OpenMP patternlets) is fully supported.  Managed tasks must not block on
raw OS primitives the executor cannot see; the runtimes in this library
never do.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, insort
from typing import Any, Callable, Iterator, Sequence

from repro.errors import DeadlockError, ParallelError, SchedulerError
from repro.sched.pool import lease as _pool_lease, prepare_many as _pool_prepare_many
from repro.sched.base import (
    Executor,
    TaskGroup,
    TaskHandle,
    TaskRecord,
    resolve_describe,
    set_task_label,
)
from repro.sched.policy import Policy, RandomPolicy
from repro.trace import events as _trace_events
from repro.trace.events import active as _trace_active, emit as _trace_emit

__all__ = ["LockstepExecutor"]

_NEW = "new"
_RUNNABLE = "runnable"
_RUNNING = "running"
_BLOCKED = "blocked"
_DONE = "done"


class _TaskState:
    __slots__ = (
        "tid",
        "label",
        "status",
        "sem",
        "pred",
        "describe",
        "group",
        "record",
        "quantum",
        "start",
        "deferred",
    )

    def __init__(self, tid: int, label: str, group: "_GroupState", record: TaskRecord):
        self.tid = tid
        self.label = label
        self.status = _NEW
        # Binary semaphore carrying the token: held (locked) by default,
        # released exactly when this task is handed the token.
        self.sem = threading.Lock()
        self.sem.acquire()
        self.pred: Callable[[], bool] | None = None
        self.describe: str | Callable[[], str] = ""
        self.group = group
        self.record = record
        #: Remaining free fast passes through checkpoint() granted by the
        #: last full arbitration (batched mode only; always 0 at batch=1).
        self.quantum = 0
        #: Deferred pool start (run_tasks bodies): the worker thread stays
        #: parked in the pool until the first token grant calls this — one
        #: OS wakeup per rank instead of two.  None once started (or for
        #: spawn(), which leases immediately).
        self.start: Callable[[], None] | None = None
        self.deferred = False


class _GroupState:
    __slots__ = ("group", "remaining", "done_event")

    def __init__(self, group: TaskGroup, size: int):
        self.group = group
        self.remaining = size
        self.done_event = threading.Event()


class LockstepExecutor(Executor):
    """Deterministic, seed-replayable cooperative executor."""

    mode = "lockstep"

    #: Trace entries beyond this are dropped (the trace is a teaching aid,
    #: not a log; unbounded growth would bloat long benchmark runs).
    TRACE_LIMIT = 200_000

    def __init__(
        self,
        *,
        policy: Policy | None = None,
        max_steps: int = 5_000_000,
        batch: int = 1,
    ):
        self.policy = policy if policy is not None else RandomPolicy(0)
        if not isinstance(batch, int) or batch < 1:
            raise ValueError(f"batch must be a positive int, got {batch!r}")
        #: Switch points serviced per full arbitration.  At the default
        #: ``batch=1`` every checkpoint is a policy decision plus (usually)
        #: an OS token handoff — the classroom mode, byte-identical to the
        #: pinned golden interleavings.  At ``batch=k>1`` one arbitration
        #: grants the chosen task a *quantum* of ``k-1`` further free
        #: passes through plain checkpoints (~25x cheaper than a handoff:
        #: no lock, no semaphore, no policy draw), amortising the ~2.6 us
        #: OS handoff floor across k observable actions.  Blocking waits,
        #: task completion and aborts always cancel the quantum and take
        #: the full arbitration path, so no task can starve a peer whose
        #: predicate its own actions made true for longer than k-1 steps.
        #: The interleaving is still a pure function of (seed, batch) —
        #: only the batch=1 stream matches the goldens.
        self.batch = batch
        self._quantum = batch - 1
        # Bound once: the policy is fixed for the executor's lifetime and
        # choose() runs on every switch.  For the default RandomPolicy the
        # draw is additionally inlined at the switch sites as
        # ``runnable[randbelow(len(runnable))]`` — exactly the bits
        # RandomPolicy.choose draws, skipping its call frame.
        self._choose = self.policy.choose
        self._randbelow = (
            self.policy._randbelow if type(self.policy) is RandomPolicy else None
        )
        #: Hard cap on scheduler switches; a runaway loop aborts instead of
        #: hanging the session.
        self.max_steps = max_steps
        self._lock = threading.Lock()
        #: Wakeup channel for unmanaged threads parked in wait_until.
        self._cond = threading.Condition(self._lock)
        #: Count of unmanaged threads currently waiting on _cond; notify()
        #: only takes the condition lock when someone is actually parked.
        self._ext_waiters = 0
        #: True when shared state changed since blocked predicates were
        #: last re-evaluated (set by notify/finish/abort).
        self._dirty = False
        #: Timed fallback polls taken by unmanaged waiters.  Stays 0 in any
        #: run where managed tasks exist to deliver real wakeups; tests
        #: assert on this to keep the busy-wait from creeping back.
        self.timed_waits = 0
        self._tasks: dict[int, _TaskState] = {}
        #: Live (not yet _DONE) entries in _tasks.  _finish used to decide
        #: "everyone done?" with an O(np) scan of the table — O(np^2) per
        #: world teardown, measurable at np=1024.
        self._undone = 0
        #: Maintained index of runnable tids, always sorted ascending —
        #: exactly the list the policy contract requires.  Switch points
        #: re-insert/remove in O(log np) instead of scanning the whole
        #: task table per switch (O(np) — ruinous at np=256).
        self._ready: list[int] = []
        #: Blocked tasks by tid; promotion passes scan only this index.
        self._blocked: dict[int, _TaskState] = {}
        self._current: int | None = None
        self._next_tid = 0
        self._steps = 0
        self._aborted: BaseException | None = None
        self._trace: list[tuple[str, str]] = []
        self._tls = threading.local()

    # -- introspection -------------------------------------------------------

    def steps(self) -> Iterator[tuple[str, str]]:
        """Recorded ``(event, task_label)`` scheduling trace, in order."""
        return iter(list(self._trace))

    @property
    def step_count(self) -> int:
        return self._steps

    # -- Executor interface --------------------------------------------------

    def run_tasks(
        self,
        thunks: Sequence[Callable[[], Any]],
        labels: Sequence[str],
        *,
        group_label: str = "group",
        on_group: Callable[[TaskGroup], None] | None = None,
    ) -> TaskGroup:
        if len(thunks) != len(labels):
            raise ValueError("thunks and labels must have equal length")
        group = TaskGroup(label=group_label)
        group.records = [TaskRecord(i, labels[i]) for i in range(len(thunks))]
        if on_group is not None:
            on_group(group)
        if not thunks:
            return group
        gstate = _GroupState(group, len(thunks))

        caller = self._current_state()
        with self._lock:
            if self._aborted is not None:
                raise SchedulerError("executor already aborted; create a new one")
            if caller is None and self._current is not None:
                raise SchedulerError(
                    "lockstep executor already driving a task group from "
                    "another thread; use one outer run_tasks at a time"
                )
            states = []
            for rec, thunk in zip(group.records, thunks):
                tid = self._next_tid
                self._next_tid += 1
                st = _TaskState(tid, rec.label, gstate, rec)
                self._tasks[tid] = st
                self._undone += 1
                states.append((st, thunk))

        # Deferred starts: stage every body on a pooled worker without
        # waking it.  A plain lease wakes the worker just to park it again
        # on the token semaphore — two OS wakeups per rank, which at
        # np=1024 is the dominant setup cost.  The first token grant (or
        # the abort wake) calls the starter instead of releasing the
        # semaphore, fusing pool wake and token handoff into one.
        leases, starters = _pool_prepare_many(
            self._task_main,
            [(st, thunk) for st, thunk in states],
            [f"{group_label}:{st.label}" for st, _ in states],
        )
        with self._lock:
            ready = self._ready
            for (st, _), start in zip(states, starters):
                st.start = start
                st.deferred = True
                st.status = _RUNNABLE
                insort(ready, st.tid)
            self._dirty = True

        if caller is not None:
            # Nested fork-join from inside a managed task: the parent simply
            # blocks until its children are all done; the children are now
            # runnable and the normal switching machinery drives them.
            self.wait_until(
                lambda: gstate.remaining == 0,
                describe=f"completion of nested group {group_label!r}",
            )
        else:
            # Outer call from an unmanaged thread: hand the token to the
            # first task, then sleep until the group completes (or aborts).
            with self._lock:
                first = self._pick_next_locked()
                if first is not None:
                    self._hand_token_locked(first)
            gstate.done_event.wait()
            if self._aborted is not None:
                # Give every task body a moment to unwind before raising.
                # Leases are reclaimed by the pool even when a body is
                # still unwinding: no OS thread is stranded either way.
                for l in leases:
                    l.join(timeout=5.0)
                # A real task failure often *causes* the subsequent
                # deadlock (its orphaned peers block forever); report the
                # root cause, with the deadlock among the failures.
                genuine = [
                    f
                    for f in group.failures()
                    if f.cause is not self._aborted
                    and not isinstance(f.cause, DeadlockError)
                ]
                if genuine:
                    raise ParallelError(group.failures())
                raise self._aborted

        for l in leases:
            l.join(timeout=5.0)
        self._raise_group_failures(group)
        return group

    def spawn(self, thunk: Callable[[], Any], label: str) -> TaskHandle:
        caller = self._current_state()
        if caller is None:
            raise SchedulerError(
                "lockstep spawn requires a managed caller: run the program's "
                "main under run_tasks (e.g. PthreadsRuntime.run)"
            )
        record = TaskRecord(0, label)
        group = TaskGroup(label=f"spawn:{label}", records=[record])
        gstate = _GroupState(group, 1)
        with self._lock:
            if self._aborted is not None:
                raise SchedulerError("executor already aborted; create a new one")
            tid = self._next_tid
            self._next_tid += 1
            st = _TaskState(tid, label, gstate, record)
            self._tasks[tid] = st
            self._undone += 1
        task_lease = _pool_lease(self._task_main, (st, thunk), name=f"spawn:{label}")
        with self._lock:
            st.status = _RUNNABLE
            insort(self._ready, st.tid)
            self._dirty = True

        def waiter() -> None:
            self.wait_until(
                lambda: gstate.remaining == 0,
                describe=f"join of spawned task {label!r}",
            )
            task_lease.join(timeout=5.0)

        return TaskHandle(record, waiter)

    def checkpoint(self) -> None:
        # The single hottest function in a lockstep run: called after every
        # observable action by every managed task.  The pick/hand/park
        # sequence is inlined here (same logic as _pick_next_locked +
        # _hand_token_locked, which remain the shared path for wait_until
        # and _finish) to keep the per-switch cost to a handful of
        # attribute reads.  The runnable set is the maintained sorted
        # _ready list — re-inserting *me* costs O(log np) and the policy
        # draw indexes it directly, so a switch no longer scans the task
        # table (O(np) per switch was ruinous at np=256).  The list holds
        # exactly the RUNNABLE tids in ascending order — the same members
        # in the same order the table scan produced — so seeded policies
        # draw identical choices.
        me = getattr(self._tls, "state", None)
        if me is None:
            return
        if self._aborted is not None:
            raise _AbortUnwind()
        if me.quantum:
            # Batched mode: this switch point is covered by the quantum the
            # last full arbitration granted — service it for free (no lock,
            # no policy draw, no handoff).  The dirty flag is deliberately
            # left alone: promotions run at the next full arbitration.
            me.quantum -= 1
            self._steps += 1
            return
        with self._lock:
            me.status = _RUNNABLE
            ready = self._ready
            insort(ready, me.tid)
            if self._dirty:
                self._dirty = False
                if self._blocked:
                    self._promote_locked()
            rb = self._randbelow
            if rb is not None:
                i = rb(len(ready))
                chosen = ready[i]
            else:
                chosen = self._choose(ready, me.tid)
                i = bisect_left(ready, chosen)
                if i >= len(ready) or ready[i] != chosen:
                    raise SchedulerError(f"policy chose unknown task id {chosen}")
            if chosen == me.tid:
                del ready[i]
                me.status = _RUNNING
                me.quantum = self._quantum
                return
            nxt = self._tasks[chosen]
            self._steps += 1
            if self._steps > self.max_steps:
                self._abort_locked(
                    SchedulerError(
                        f"lockstep step limit exceeded ({self.max_steps}); "
                        "probable livelock"
                    )
                )
            else:
                del ready[i]
                nxt.status = _RUNNING
                nxt.quantum = self._quantum
                self._current = nxt.tid
                trace = self._trace
                if len(trace) < self.TRACE_LIMIT:
                    trace.append(("run", nxt.label))
                rec = _trace_events._top
                if rec is not None and rec.recording:
                    rec.emit("sched.run", task=nxt.label)
                s = nxt.start
                if s is None:
                    nxt.sem.release()
                else:
                    nxt.start = None
                    s()
        me.sem.acquire()
        if self._aborted is not None:
            raise _AbortUnwind()

    def wait_until(
        self, pred: Callable[[], bool], *, describe: str | Callable[[], str] = "condition"
    ) -> None:
        me = getattr(self._tls, "state", None)
        if me is None:
            self._wait_unmanaged(pred)
            return
        blocked = False
        while not pred():
            if self._aborted is not None:
                raise _AbortUnwind()
            blocked = True
            # A blocking task surrenders whatever quantum it held: the
            # full arbitration below re-evaluates predicates and draws a
            # fresh policy decision, so batching can never convert a
            # satisfiable wait into a starvation.
            me.quantum = 0
            with self._lock:
                me.status = _BLOCKED
                me.pred = pred
                me.describe = describe
                self._blocked[me.tid] = me
                trace = self._trace
                if len(trace) < self.TRACE_LIMIT:
                    trace.append(("block", me.label))
                rec = _trace_events._top
                if rec is not None and rec.recording:
                    rec.emit("sched.block", task=me.label)
                # _pick_next_locked + _hand_token_locked inlined, as in
                # checkpoint(): this block runs once per blocked receive.
                # *me* is skipped in the promote pass — its predicate was
                # evaluated false at the top of this loop iteration, and
                # predicates are pure, so re-evaluating it cannot promote
                # it (the empty-ready safety net still re-checks all).
                ready = self._ready
                if self._dirty:
                    self._dirty = False
                    self._promote_locked(skip=me)
                if not ready:
                    # Safety net: one forced re-evaluation (see
                    # _pick_next_locked) before declaring deadlock.
                    self._promote_locked()
                if not ready:
                    self._abort_locked(self._deadlock_locked())
                    break
                rb = self._randbelow
                if rb is not None:
                    i = rb(len(ready))
                    chosen = ready[i]
                else:
                    chosen = self._choose(ready, None)
                    i = bisect_left(ready, chosen)
                    if i >= len(ready) or ready[i] != chosen:
                        raise SchedulerError(
                            f"policy chose unknown task id {chosen}"
                        )
                nxt = self._tasks[chosen]
                self._steps += 1
                if self._steps > self.max_steps:
                    self._abort_locked(
                        SchedulerError(
                            f"lockstep step limit exceeded ({self.max_steps}); "
                            "probable livelock"
                        )
                    )
                else:
                    del ready[i]
                    nxt.status = _RUNNING
                    nxt.quantum = self._quantum
                    self._current = nxt.tid
                    if len(trace) < self.TRACE_LIMIT:
                        trace.append(("run", nxt.label))
                    rec = _trace_events._top
                    if rec is not None and rec.recording:
                        rec.emit("sched.run", task=nxt.label)
                    s = nxt.start
                    if s is None:
                        nxt.sem.release()
                    else:
                        nxt.start = None
                        s()
            me.sem.acquire()
            if self._aborted is not None:
                raise _AbortUnwind()
        if self._aborted is not None:
            raise _AbortUnwind()
        if blocked:
            # Safe without the executor lock: *me* holds the token (is
            # RUNNING), the promote pass already dropped me from the
            # blocked index when it woke me, and promote scans only read
            # preds of BLOCKED tasks.
            me.pred = None
            me.describe = ""

    def _wait_unmanaged(self, pred: Callable[[], bool]) -> None:
        # Unmanaged thread (e.g. the pytest main thread polling some
        # state): park on the shared condition; notify() delivers a real
        # wakeup.  Rare, but keeps the API total.
        with self._cond:
            while not pred():
                if self._aborted is not None:
                    raise self._aborted
                self._ext_waiters += 1
                try:
                    if self._tasks:
                        self._cond.wait()
                    else:
                        # No managed task exists, so nothing will ever call
                        # notify(); a timed poll is the only option left.
                        self.timed_waits += 1
                        self._cond.wait(0.01)
                finally:
                    self._ext_waiters -= 1

    def notify(self) -> None:
        # State changes only propagate at switch points, so every notify is
        # also a preemption opportunity; this is what lets a seeded run
        # interleave sends with receives, prints with prints, and so on.
        # The dirty flag is what permits _pick_next_locked to skip predicate
        # re-evaluation on switches where nothing changed.
        self._dirty = True
        if self._ext_waiters:
            with self._cond:
                self._cond.notify_all()
        self.checkpoint()

    # -- internals -----------------------------------------------------------

    def _trace_add(self, entry: tuple[str, str]) -> None:
        if len(self._trace) < self.TRACE_LIMIT:
            self._trace.append(entry)
        # Mirror every scheduling decision onto the run's event spine (a
        # no-op when no recorder is ambient).  The event is *about*
        # entry[1]'s task, not necessarily emitted by its thread.
        if _trace_active():
            _trace_emit(f"sched.{entry[0]}", task=entry[1])

    def _current_state(self) -> _TaskState | None:
        # TLS holds the state object itself (not a tid needing a dict
        # lookup): this runs on every checkpoint and wait.
        return getattr(self._tls, "state", None)

    def _task_main(self, st: _TaskState, thunk: Callable[[], Any]) -> None:
        self._tls.state = st
        set_task_label(st.label)
        if not st.deferred:
            # Deferred run_tasks bodies skip this: being started *is* the
            # first token grant (or the abort wake) — their semaphore was
            # never released, so there is nothing to await.
            self._await_token(st, first=True)
        try:
            if self._aborted is None:
                st.record.result = thunk()
        except _AbortUnwind:
            st.record.exception = self._aborted
            st.group.group.failed = True
        except BaseException as exc:  # noqa: BLE001 - reported via group
            st.record.exception = exc
            st.group.group.failed = True
        finally:
            set_task_label(None)
            self._tls.state = None
            self._finish(st)

    def _await_token(self, st: _TaskState, *, first: bool = False) -> None:
        st.sem.acquire()
        if self._aborted is not None and first:
            # Woken only to unwind; _task_main handles it.
            return
        if self._aborted is not None:
            raise _AbortUnwind()

    def _check_abort(self) -> None:
        if self._aborted is not None:
            raise _AbortUnwind()

    def _hand_token_locked(self, nxt: _TaskState) -> None:
        if self._aborted is not None:
            # _abort_locked already released every live semaphore; a second
            # release would raise (binary semaphore).  Everyone is unwinding.
            return
        self._steps += 1
        if self._steps > self.max_steps:
            self._abort_locked(
                SchedulerError(
                    f"lockstep step limit exceeded ({self.max_steps}); "
                    "probable livelock"
                )
            )
            return
        ready = self._ready
        i = bisect_left(ready, nxt.tid)
        if i < len(ready) and ready[i] == nxt.tid:
            del ready[i]
        nxt.status = _RUNNING
        nxt.quantum = self._quantum
        self._current = nxt.tid
        # _trace_add inlined: this runs once per switch.
        trace = self._trace
        if len(trace) < self.TRACE_LIMIT:
            trace.append(("run", nxt.label))
        rec = _trace_events._top
        if rec is not None and rec.recording:
            rec.emit("sched.run", task=nxt.label)
        s = nxt.start
        if s is None:
            nxt.sem.release()
        else:
            nxt.start = None
            s()

    def _promote_locked(self, skip: _TaskState | None = None) -> None:
        """Move blocked tasks whose predicates came true to runnable.

        Scans only the blocked-task index (not the whole table), in
        ascending-tid order — the same wake order the old full-table scan
        produced, so seeded interleavings are unchanged.
        """
        blocked = self._blocked
        if not blocked:
            return
        promoted = None
        for tid in sorted(blocked):
            st = blocked[tid]
            if st is skip or st.pred is None or not st.pred():
                continue
            st.status = _RUNNABLE
            insort(self._ready, tid)
            if promoted is None:
                promoted = [tid]
            else:
                promoted.append(tid)
            trace = self._trace
            if len(trace) < self.TRACE_LIMIT:
                trace.append(("wake", st.label))
            rec = _trace_events._top
            if rec is not None and rec.recording:
                rec.emit("sched.wake", task=st.label)
        if promoted is not None:
            for tid in promoted:
                del blocked[tid]

    def _pick_next_locked(self) -> _TaskState | None:
        if self._dirty:
            self._dirty = False
            self._promote_locked()
        ready = self._ready
        if not ready:
            # Safety net: one forced re-evaluation before concluding that
            # nothing can run, in case state changed without a notify().
            self._promote_locked()
            if not ready:
                return None
        chosen = self._choose(ready, None)
        i = bisect_left(ready, chosen)
        if i >= len(ready) or ready[i] != chosen:
            raise SchedulerError(f"policy chose unknown task id {chosen}")
        return self._tasks[chosen]

    def _finish(self, st: _TaskState) -> None:
        with self._lock:
            st.status = _DONE
            st.quantum = 0
            self._undone -= 1
            self._trace_add(("done", st.label))
            st.group.remaining -= 1
            group_done = st.group.remaining == 0
            self._current = None
            self._dirty = True  # remaining/failed changed: joiners may wake
            if self._aborted is None:
                nxt = self._pick_next_locked()
                if nxt is not None:
                    self._hand_token_locked(nxt)
                else:
                    live = [
                        t
                        for t in self._tasks.values()
                        if t.status in (_BLOCKED, _RUNNING)
                    ]
                    if live:
                        self._abort_locked(self._deadlock_locked())
            if group_done:
                st.group.done_event.set()
            if self._ext_waiters:
                self._cond.notify_all()
            # Garbage-collect finished tasks so long sessions stay small.
            # The live counter replaces an all-done table scan that made
            # world teardown O(np^2).
            if self._undone == 0:
                self._tasks.clear()
                # Stale tids can linger in the indexes only on abort paths
                # (the executor is dead then anyway); clear with the table.
                self._ready.clear()
                self._blocked.clear()
                self._current = None

    def _deadlock_locked(self) -> DeadlockError:
        blocked = {
            st.label: resolve_describe(st.describe) or "unspecified condition"
            for st in self._blocked.values()
            if st.status == _BLOCKED
        }
        detail = "; ".join(f"{k} waiting for: {v}" for k, v in sorted(blocked.items()))
        return DeadlockError(
            f"deadlock: all live tasks are blocked ({detail})", blocked=blocked
        )

    def _abort_locked(self, exc: BaseException) -> None:
        if self._aborted is None:
            self._aborted = exc
        # Wake everything; each task unwinds via _AbortUnwind, every group
        # waiter is released, and parked unmanaged waiters re-check.
        for st in self._tasks.values():
            if st.status in (_BLOCKED, _RUNNABLE, _RUNNING):
                st.group.group.failed = True
                s = st.start
                if s is not None:
                    # Never-started deferred body: releasing its semaphore
                    # cannot wake a worker still parked in the pool — start
                    # it so it observes the abort and unwinds via _finish.
                    st.start = None
                    s()
                elif st.sem.locked():
                    try:
                        st.sem.release()
                    except RuntimeError:  # pragma: no cover - lost race: already released
                        pass
        groups = {id(st.group): st.group for st in self._tasks.values()}
        for g in groups.values():
            g.done_event.set()
        self._cond.notify_all()


class _AbortUnwind(BaseException):
    """Internal unwind signal; never escapes the executor."""
