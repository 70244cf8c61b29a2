"""The event spine: one structured record stream per run.

Every substrate in this library — the lockstep scheduler, the SMP (OpenMP)
runtime, the MP (MPI) runtime, and the pthreads layer — emits its observable
actions into a single :class:`TraceRecorder` as :class:`Event` records: task
starts and ends, prints, barrier arrivals, lock hand-offs, message sends and
receives, shared-memory accesses.  Everything that used to be a separate
bookkeeping mechanism (output capture, virtual-time span accounting, the
lockstep scheduling trace) is a *view* over this one stream:

- :mod:`repro.core.capture` reads the ``io.print`` events;
- :mod:`repro.trace.span` computes critical-path span from ``task.end``
  virtual timestamps;
- :mod:`repro.trace.hb` grows vector clocks from the ``hb_rel``/``hb_acq``
  edges and proves (or refutes) data races;
- :mod:`repro.trace.export` serialises the stream for Chrome's trace viewer.

Recorders are *ambient*: a module-level stack names the recorder currently
collecting events, and :func:`emit` appends to the top of that stack (or
does nothing when no recorder is installed, so untraced library use costs
one ``if``).  Run harnesses push a recorder for the duration of a run
(:class:`~repro.core.capture.OutputRecorder` does this); each runtime pushes
its own private recorder as a fallback, so spans remain computable even for
bare API calls.  The stack is shared across threads on purpose — a run's
worker tasks must all land in the same stream.

Happens-before edges are declared at the emission site with two optional
keys: ``hb_rel=key`` publishes the emitting task's causal knowledge to the
synchronisation object ``key`` (a lock release, a message send, a barrier
arrival), and ``hb_acq=key`` absorbs everything previously published to
``key`` (a lock acquire, a message receive, a barrier departure).  This is
the classic vector-clock sync-object model; :mod:`repro.trace.hb` gives it
teeth.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable, Iterator

__all__ = [
    "Event",
    "TraceRecorder",
    "current_recorder",
    "push_recorder",
    "pop_recorder",
    "reset_ambient",
    "using_recorder",
    "muted",
    "active",
    "emit",
]


#: The calling thread's task identity: ``task_local.label`` is the label of
#: the task running on this thread (``"omp:3"``, ``"mpi:2"``), or absent.
#: :mod:`repro.sched.base` owns its API (``current_task_label`` /
#: ``set_task_label``); it lives here because an event defaults its
#: ``task`` to it, and this module cannot import :mod:`repro.sched` (which
#: imports this module) at top level.
task_local = threading.local()


@dataclass(frozen=True, slots=True)
class Event:
    """One observable action of one task.

    ``seq`` is the event's position in its recorder's stream — a total
    order consistent with real time (appends are serialised by the
    recorder's lock).  ``vtime`` is the emitting task's virtual clock at
    the time of the action, when the substrate tracks one (SMP work units,
    MP LogP units); ``None`` otherwise.  ``hb_acq``/``hb_rel`` are the
    happens-before edge declarations described in the module docstring,
    and ``payload`` carries kind-specific detail (the printed line, the
    message uid, the barrier generation, ...).
    """

    seq: int
    task: str
    kind: str
    vtime: float | None = None
    hb_acq: Hashable | None = None
    hb_rel: Hashable | None = None
    payload: dict[str, Any] = field(default_factory=dict)

    @property
    def scope(self) -> str | None:
        """The run scope (region/world id) this event belongs to, if any."""
        return self.payload.get("scope")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        vt = f", vtime={self.vtime:g}" if self.vtime is not None else ""
        return f"Event({self.seq}, {self.task!r}, {self.kind!r}{vt})"


# The frozen dataclass ``__init__`` stores each field through
# ``object.__setattr__``; storing through the slot descriptors directly is
# the same write without the generic attribute lookup.  Bound once here.
_new_object = object.__new__
(_set_seq, _set_task, _set_kind, _set_vtime, _set_hb_acq, _set_hb_rel,
 _set_payload) = (
    getattr(Event, f).__set__
    for f in ("seq", "task", "kind", "vtime", "hb_acq", "hb_rel", "payload")
)


def _new_event(
    seq: int,
    task: str,
    kind: str,
    vtime: float | None,
    hb_acq: Hashable | None,
    hb_rel: Hashable | None,
    payload: dict[str, Any],
) -> Event:
    """Build an :class:`Event` without the frozen ``__init__``.

    The one constructor on the recording and decoding hot paths (every
    emission, every cache-record decode).  The result is an ordinary frozen
    ``Event``: equal to ``Event(...)`` with the same fields, and assignment
    still raises ``FrozenInstanceError``.  All seven fields are required.
    """
    ev = _new_object(Event)
    _set_seq(ev, seq)
    _set_task(ev, task)
    _set_kind(ev, kind)
    _set_vtime(ev, vtime)
    _set_hb_acq(ev, hb_acq)
    _set_hb_rel(ev, hb_rel)
    _set_payload(ev, payload)
    return ev


class TraceRecorder:
    """Thread-safe sink for one run's events (slotted-ring storage).

    ``limit`` bounds memory for pathological runs (a trace is an analysis
    artifact, not an unbounded log).  Two bounding policies:

    - ``ring=False`` (default): events past the limit are counted in
      ``dropped`` rather than stored — the stream keeps its *head*, and
      analyses should treat a trace with drops as incomplete.
    - ``ring=True``: storage is a fixed ring of ``limit`` slots; new events
      overwrite the oldest and ``evicted`` counts the overwritten head —
      the stream keeps its *tail*, which is what long-lived benchmark and
      service runs want.  ``seq`` numbers keep counting the true stream
      position either way.

    The class attribute ``recording`` is the muting flip: :func:`emit`'s
    module-level fast path reads exactly one attribute off the ambient
    recorder to decide whether to build an event at all, so a muted run
    pays a pointer read plus an attribute read per would-be emission.
    """

    #: Read by the :func:`emit` fast path; ``_MutedRecorder`` overrides.
    recording = True

    def __init__(self, *, limit: int = 1_000_000, ring: bool = False):
        if limit <= 0:
            raise ValueError("limit must be positive")
        self.limit = limit
        self.ring = ring
        #: Events rejected once the limit was reached (head-keeping mode).
        self.dropped = 0
        #: Events overwritten by newer ones (ring mode).
        self.evicted = 0
        self._lock = threading.Lock()
        self._events: list[Event] = []
        self._n = 0  # total events ever emitted (stream position / seq)

    def emit(
        self,
        kind: str,
        *,
        task: str | None = None,
        vtime: float | None = None,
        hb_acq: Hashable | None = None,
        hb_rel: Hashable | None = None,
        **payload: Any,
    ) -> Event | None:
        """Record one event; returns it (or ``None`` when head-mode drops it).

        ``task`` defaults to the calling thread's task label, so emission
        sites inside the runtimes rarely need to name themselves; scheduler
        code emitting *about* another task passes ``task=`` explicitly.
        """
        if task is None:
            task = getattr(task_local, "label", None) or "main"
        with self._lock:
            n = self._n
            if len(self._events) < self.limit:
                ev = _new_event(n, task, kind, vtime, hb_acq, hb_rel, payload)
                self._events.append(ev)
            elif self.ring:
                ev = _new_event(n, task, kind, vtime, hb_acq, hb_rel, payload)
                # Reuse the ring slot of the oldest event.
                self._events[n % self.limit] = ev
                self.evicted += 1
            else:
                self.dropped += 1
                return None
            self._n = n + 1
        return ev

    def events(
        self, kind: str | None = None, *, scope: str | None = None
    ) -> list[Event]:
        """Snapshot of the stream, optionally filtered by kind and/or scope.

        In ring mode the snapshot is the retained tail, oldest first.
        """
        with self._lock:
            evs = list(self._events)
            if self.ring and self._n > self.limit:
                pivot = self._n % self.limit
                evs = evs[pivot:] + evs[:pivot]
        if kind is not None:
            evs = [e for e in evs if e.kind == kind]
        if scope is not None:
            evs = [e for e in evs if e.payload.get("scope") == scope]
        return evs

    def preload(self, events: "Iterable[Event]") -> None:
        """Replace the stream with ``events`` (the deserialisation path).

        Used when a recorded run is rebuilt from a cache record or a wire
        transfer: the events arrive fully formed (``seq`` already
        assigned), so they are installed verbatim rather than re-emitted.
        """
        evs = list(events)
        if len(evs) > self.limit:
            self.limit = len(evs)
        with self._lock:
            self._events = evs
            self._n = evs[-1].seq + 1 if evs else 0

    def __getstate__(self) -> dict[str, Any]:
        # Locks cannot cross process boundaries; a recorder travels as its
        # plain state and grows a fresh (necessarily uncontended) lock on
        # arrival.  Worker processes therefore never inherit a lock that a
        # parent thread might have held at fork/pickle time.
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def kinds(self) -> dict[str, int]:
        """Event counts per kind (diagnostics)."""
        out: dict[str, int] = {}
        for e in self.events():
            out[e.kind] = out.get(e.kind, 0) + 1
        return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TraceRecorder({len(self)} events)"


# -- the ambient recorder stack ---------------------------------------------

_stack: list[TraceRecorder] = []
_stack_lock = threading.Lock()

#: Cache of ``_stack[-1]`` (or ``None``), maintained under ``_stack_lock``
#: by push/pop.  The emission fast paths read this single module global
#: instead of indexing the list and catching IndexError — on a muted or
#: untraced run that makes every would-be emission one pointer read plus
#: one attribute read.  Reads are lock-free on purpose: a shared lock here
#: would serialise (and so distort) exactly the code whose costs the
#: library exists to demonstrate.  Torn reads are impossible under the
#: GIL; a push/pop racing a read just means the event lands on (or misses)
#: the recorder by one action, same as any unsynchronised observer.
_top: TraceRecorder | None = None


def current_recorder() -> TraceRecorder | None:
    """The recorder currently collecting events, or ``None``."""
    return _top


def push_recorder(rec: TraceRecorder) -> TraceRecorder:
    """Install ``rec`` as the ambient recorder (stacked; see module doc)."""
    global _top
    with _stack_lock:
        _stack.append(rec)
        _top = rec
    return rec


def pop_recorder(rec: TraceRecorder) -> None:
    """Remove the most recent installation of ``rec`` from the stack.

    Removal is by identity rather than strictly LIFO position because
    nested runs may uninstall out of order when tasks of different
    runtimes finish interleaved.
    """
    global _top
    with _stack_lock:
        for i in range(len(_stack) - 1, -1, -1):
            if _stack[i] is rec:
                del _stack[i]
                break
        _top = _stack[-1] if _stack else None


class using_recorder:
    """Context manager installing a recorder for the duration of a block.

    ``using_recorder()`` with no argument creates a fresh recorder; either
    way the recorder is available as the ``as`` target::

        with using_recorder() as rec:
            rt.parallel(body)
        print(rec.kinds())
    """

    def __init__(self, rec: TraceRecorder | None = None):
        self.recorder = rec if rec is not None else TraceRecorder()

    def __enter__(self) -> TraceRecorder:
        push_recorder(self.recorder)
        return self.recorder

    def __exit__(self, *exc: object) -> None:
        pop_recorder(self.recorder)


def reset_ambient() -> None:
    """Forget every installed recorder: a process-fresh ambient state.

    Batch worker processes call this (and a fork hook calls it for them,
    see below) so a child never emits into — or blocks on — a recorder
    stack inherited from its parent: the parent's run harness may have a
    recorder installed at fork time, and its events belong to the parent's
    run, not the worker's.  The stack *lock* is also replaced, because the
    inherited copy may have been held by a parent thread at fork time and
    would then never be released in the child.
    """
    global _top, _stack_lock
    _stack_lock = threading.Lock()
    _stack.clear()
    _top = None


if hasattr(os, "register_at_fork"):  # POSIX; a no-op concern elsewhere
    os.register_at_fork(after_in_child=reset_ambient)


class _MutedRecorder(TraceRecorder):
    """A recorder that drops everything — the top of the stack under
    :func:`muted`, shadowing whatever run harness installed below it."""

    recording = False

    def emit(self, kind: str, **kwargs: Any) -> Event | None:  # noqa: ARG002
        return None


class muted:
    """Suppress all trace emission for the duration of a block.

    For wall-clock microbenchmarks (the Figure 30 atomic-vs-critical
    timing): recording an event costs a lock round trip, which is the
    same order as the uncontended atomic update being measured — the
    observer would dominate the observation.  Code under ``muted()``
    runs the untraced fast path; spans and captures derived from the
    trace will not see the muted region.

    Each entry pushes its own fresh muted recorder, so one ``muted``
    instance is re-entrant (nested ``with`` blocks, reuse across threads
    or across forked worker processes) and never shares lock state with
    any other entry.
    """

    def __init__(self) -> None:
        self._local = threading.local()

    def __enter__(self) -> None:
        rec = _MutedRecorder()
        pushed = getattr(self._local, "pushed", None)
        if pushed is None:
            pushed = self._local.pushed = []
        pushed.append(rec)
        push_recorder(rec)

    def __exit__(self, *exc: object) -> None:
        pushed = getattr(self._local, "pushed", None)
        if pushed:
            pop_recorder(pushed.pop())


def active() -> bool:
    """True when an unmuted recorder is collecting events.

    Hot emission sites (per-iteration cell accesses, atomic guards, the
    message-transport and scheduler inner loops) check this before building
    an :func:`emit` call, so a muted or untraced run pays one global read
    plus one attribute read per would-be event instead of argument
    packing — the difference matters inside held locks, where emission
    overhead multiplies into contention.
    """
    rec = _top
    return rec is not None and rec.recording


def emit(
    kind: str,
    *,
    task: str | None = None,
    vtime: float | None = None,
    hb_acq: Hashable | None = None,
    hb_rel: Hashable | None = None,
    **payload: Any,
) -> Event | None:
    """Emit to the ambient recorder; a cheap no-op when none is installed.

    For a plain :class:`TraceRecorder` below its limit — every recorded
    run — the event is appended here, in this one frame, rather than
    through :meth:`TraceRecorder.emit` (which would re-pack ``payload``).
    Subclasses, and any recorder at its limit (head drop or ring
    eviction), take :meth:`TraceRecorder.emit`, which owns those policies.
    """
    rec = _top
    if rec is None or not rec.recording:
        return None
    if type(rec) is TraceRecorder:
        if task is None:
            task = getattr(task_local, "label", None) or "main"
        with rec._lock:
            events = rec._events
            if len(events) < rec.limit:
                n = rec._n
                ev = _new_event(n, task, kind, vtime, hb_acq, hb_rel, payload)
                events.append(ev)
                rec._n = n + 1
                return ev
    return rec.emit(
        kind, task=task, vtime=vtime, hb_acq=hb_acq, hb_rel=hb_rel, **payload
    )


def as_events(source: "Iterable[Event] | TraceRecorder") -> list[Event]:
    """Normalise a recorder-or-iterable argument to an event list."""
    if isinstance(source, TraceRecorder):
        return source.events()
    return list(source)
