"""The event spine: recorder, ambient stack, muting."""

import dataclasses
import threading

import pytest

from repro.batch.results import run_from_record, run_to_record
from repro.core import run_patternlet
from repro.sched.base import set_task_label, task_label_scope
from repro.trace import (
    Event,
    TraceRecorder,
    active,
    as_events,
    current_recorder,
    emit,
    muted,
    pop_recorder,
    push_recorder,
    using_recorder,
)
from repro.trace.events import _new_event


class TestRecorder:
    def test_emit_assigns_monotonic_seq(self):
        rec = TraceRecorder()
        events = [rec.emit(f"k{i}", task="t") for i in range(5)]
        assert [e.seq for e in events] == [0, 1, 2, 3, 4]

    def test_payload_and_accessors(self):
        rec = TraceRecorder()
        ev = rec.emit("io.print", task="omp:0", line="hi", scope="r#1")
        assert ev.payload["line"] == "hi"
        assert ev.scope == "r#1"
        assert len(rec) == 1
        assert rec.events("io.print") == [ev]
        assert rec.events("other") == []

    def test_scope_filter(self):
        rec = TraceRecorder()
        rec.emit("task.end", task="a", scope="s1")
        rec.emit("task.end", task="b", scope="s2")
        assert [e.task for e in rec.events(scope="s1")] == ["a"]

    def test_kinds_counts(self):
        rec = TraceRecorder()
        rec.emit("a", task="t")
        rec.emit("a", task="t")
        rec.emit("b", task="t")
        assert rec.kinds() == {"a": 2, "b": 1}

    def test_limit_drops_and_counts(self):
        rec = TraceRecorder(limit=2)
        assert rec.emit("a", task="t") is not None
        assert rec.emit("b", task="t") is not None
        assert rec.emit("c", task="t") is None
        assert len(rec) == 2 and rec.dropped == 1

    def test_limit_must_be_positive(self):
        with pytest.raises(ValueError):
            TraceRecorder(limit=0)

    def test_thread_safe_append(self):
        rec = TraceRecorder()

        def spam():
            for _ in range(200):
                rec.emit("k", task="t")

        threads = [threading.Thread(target=spam) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        events = rec.events()
        assert len(events) == 800
        assert [e.seq for e in events] == list(range(800))

    def test_as_events_accepts_recorder_or_list(self):
        rec = TraceRecorder()
        ev = rec.emit("k", task="t")
        assert as_events(rec) == [ev]
        assert as_events([ev]) == [ev]


class TestAmbientStack:
    def test_module_emit_is_noop_without_recorder(self):
        assert current_recorder() is None
        assert emit("k") is None
        assert not active()

    def test_push_pop(self):
        rec = TraceRecorder()
        push_recorder(rec)
        try:
            assert current_recorder() is rec
            assert active()
            emit("k", detail=1)
        finally:
            pop_recorder(rec)
        assert current_recorder() is None
        assert rec.events("k")[0].payload["detail"] == 1

    def test_using_recorder_context(self):
        with using_recorder() as rec:
            emit("inside")
        assert len(rec.events("inside")) == 1
        assert current_recorder() is None

    def test_pop_removes_by_identity_out_of_order(self):
        a, b = TraceRecorder(), TraceRecorder()
        push_recorder(a)
        push_recorder(b)
        pop_recorder(a)  # out of LIFO order
        assert current_recorder() is b
        pop_recorder(b)
        assert current_recorder() is None

    def test_emit_defaults_task_to_main(self):
        with using_recorder() as rec:
            emit("k")
        assert rec.events("k")[0].task == "main"


class TestMuted:
    def test_muted_drops_emissions(self):
        with using_recorder() as rec:
            emit("before")
            with muted():
                assert not active()
                emit("during")
            emit("after")
        assert sorted(rec.kinds()) == ["after", "before"]

    def test_muted_without_recorder_is_harmless(self):
        with muted():
            assert emit("k") is None

    def test_direct_recorder_emit_bypasses_mute(self):
        # Output capture must keep working inside muted blocks.
        rec = TraceRecorder()
        with muted():
            rec.emit("io.print", task="main", line="still captured")
        assert len(rec) == 1


def _fields(ev: Event) -> tuple:
    return tuple(getattr(ev, f.name) for f in dataclasses.fields(Event))


class TestEmitPaths:
    """The module ``emit`` appends in its own frame for a plain recorder;
    it must record exactly what :meth:`TraceRecorder.emit` records."""

    def test_module_and_recorder_emit_interleave_equal(self):
        with using_recorder() as rec:
            a = emit("k", task="t", vtime=1.5, hb_rel=("r", 1), line="x")
            b = rec.emit("k", task="t", vtime=1.5, hb_rel=("r", 1), line="x")
            c = emit("j", hb_acq=("r", 1))
            d = rec.emit("j", hb_acq=("r", 1))
        assert rec.events() == [a, b, c, d]
        assert [e.seq for e in rec.events()] == [0, 1, 2, 3]
        assert _fields(a)[1:] == _fields(b)[1:]
        assert _fields(c)[1:] == _fields(d)[1:]
        assert a == Event(0, "t", "k", 1.5, None, ("r", 1), {"line": "x"})
        assert c == Event(2, "main", "j", None, ("r", 1), None, {})

    def test_module_emit_at_the_limit_is_dropped_and_counted(self):
        with using_recorder(TraceRecorder(limit=2)) as rec:
            assert emit("a") is not None
            assert emit("b") is not None
            assert emit("c") is None
            assert emit("d") is None
        assert [e.kind for e in rec.events()] == ["a", "b"]
        assert rec.dropped == 2 and rec.evicted == 0

    def test_subclass_emit_is_honoured(self):
        class Tagging(TraceRecorder):
            def emit(self, kind, **kwargs):
                return super().emit(kind, tagged=True, **kwargs)

        with using_recorder(Tagging()) as rec:
            emit("k", line="x")
        assert rec.events()[0].payload == {"line": "x", "tagged": True}

    @pytest.mark.parametrize("direct", [False, True])
    def test_task_defaults_to_main_and_follows_the_label(self, direct):
        rec = TraceRecorder()
        put = rec.emit if direct else emit
        with using_recorder(rec):
            put("unlabelled")
            with task_label_scope("omp:3"):
                put("scoped")
            set_task_label("mpi:2")
            try:
                put("set")
            finally:
                set_task_label(None)
            put("cleared")
        assert [e.task for e in rec.events()] == ["main", "omp:3", "mpi:2", "main"]

    def test_task_label_is_per_thread(self):
        rec = TraceRecorder()

        def body():
            set_task_label("worker")
            emit("from-thread")

        with using_recorder(rec):
            t = threading.Thread(target=body)
            t.start()
            t.join(timeout=10)
            assert not t.is_alive()
            emit("from-main")
        assert {e.kind: e.task for e in rec.events()} == {
            "from-thread": "worker",
            "from-main": "main",
        }


class TestEventConstruction:
    """Every hot-path builder yields an ordinary frozen :class:`Event`."""

    def _assert_plain_frozen(self, ev: Event) -> None:
        assert type(ev) is Event
        assert ev == Event(*_fields(ev))
        assert repr(ev) == repr(Event(*_fields(ev)))
        with pytest.raises(dataclasses.FrozenInstanceError):
            ev.seq = 99
        with pytest.raises(dataclasses.FrozenInstanceError):
            ev.payload = {}

    def test_new_event_equals_the_dataclass_constructor(self):
        ev = _new_event(3, "omp:1", "mem.write", 2.0, ("a", 1), None, {"cell": "c"})
        assert ev == Event(3, "omp:1", "mem.write", 2.0, ("a", 1), None, {"cell": "c"})
        assert ev != Event(3, "omp:1", "mem.write", 2.0, ("a", 1), None, {})
        self._assert_plain_frozen(ev)

    def test_recorded_events_are_plain_frozen_events(self):
        rec = TraceRecorder()
        self._assert_plain_frozen(rec.emit("k", task="t", line="x"))
        with using_recorder(rec):
            self._assert_plain_frozen(emit("k", vtime=1.0))

    def test_decoded_events_are_plain_frozen_events(self):
        run = run_patternlet("mpi.reduction", tasks=4, seed=0)
        served = run_from_record(run_to_record(run, key="k"))
        assert served.trace.events() == run.trace.events()
        for ev in served.trace.events():
            self._assert_plain_frozen(ev)
