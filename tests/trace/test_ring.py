"""Ring-mode storage and the one-attribute-read muting fast path."""

import threading

from repro.trace import TraceRecorder, muted, using_recorder
from repro.trace import events as events_mod


class TestRingMode:
    def test_under_limit_behaves_like_plain_recorder(self):
        rec = TraceRecorder(limit=10, ring=True)
        for i in range(5):
            rec.emit(f"k{i}", task="t")
        assert [e.kind for e in rec.events()] == [f"k{i}" for i in range(5)]
        assert rec.evicted == 0 and rec.dropped == 0

    def test_overflow_keeps_the_tail(self):
        rec = TraceRecorder(limit=4, ring=True)
        for i in range(10):
            rec.emit(f"k{i}", task="t")
        # Head-keeping mode would retain k0..k3; the ring keeps k6..k9.
        assert [e.kind for e in rec.events()] == ["k6", "k7", "k8", "k9"]
        assert rec.evicted == 6
        assert rec.dropped == 0
        assert len(rec) == 4

    def test_seq_numbers_keep_true_stream_position(self):
        rec = TraceRecorder(limit=3, ring=True)
        events = [rec.emit(f"k{i}", task="t") for i in range(7)]
        # Every emit returns a live event (nothing is refused)...
        assert all(ev is not None for ev in events)
        assert [ev.seq for ev in events] == list(range(7))
        # ...and the retained tail is oldest-first with contiguous seqs.
        assert [e.seq for e in rec.events()] == [4, 5, 6]

    def test_filters_apply_to_the_retained_tail(self):
        rec = TraceRecorder(limit=4, ring=True)
        for i in range(8):
            rec.emit("even" if i % 2 == 0 else "odd", task="t", scope=f"s{i % 2}")
        assert [e.seq for e in rec.events("even")] == [4, 6]
        assert [e.seq for e in rec.events(scope="s1")] == [5, 7]

    def test_head_mode_still_drops(self):
        rec = TraceRecorder(limit=2, ring=False)
        rec.emit("a", task="t")
        rec.emit("b", task="t")
        assert rec.emit("c", task="t") is None
        assert rec.dropped == 1 and rec.evicted == 0

    def test_module_emit_evicts_in_ring_mode(self):
        with using_recorder(TraceRecorder(limit=2, ring=True)) as rec:
            returned = [events_mod.emit(f"k{i}", task="t") for i in range(5)]
        assert all(ev is not None for ev in returned)
        assert [e.seq for e in returned] == [0, 1, 2, 3, 4]
        assert [e.kind for e in rec.events()] == ["k3", "k4"]
        assert rec.evicted == 3 and rec.dropped == 0

    def test_ring_is_thread_safe(self):
        rec = TraceRecorder(limit=50, ring=True)

        def spam():
            for _ in range(200):
                rec.emit("k", task="t")

        threads = [threading.Thread(target=spam) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        evs = rec.events()
        assert len(evs) == 50
        assert rec.evicted == 800 - 50
        # The tail is 50 consecutive stream positions ending at the last.
        assert [e.seq for e in evs] == list(range(750, 800))


class TestEmitFastPath:
    def test_top_cache_tracks_push_pop(self):
        assert events_mod._top is events_mod.current_recorder()
        with using_recorder() as rec:
            assert events_mod._top is rec
            with using_recorder() as inner:
                assert events_mod._top is inner
            assert events_mod._top is rec

    def test_recording_attr_is_the_muting_flip(self):
        assert TraceRecorder.recording is True
        with using_recorder() as rec:
            with muted():
                top = events_mod._top
                assert top.recording is False
                events_mod.emit("invisible", task="t")
            events_mod.emit("visible", task="t")
        assert [e.kind for e in rec.events()] == ["visible"]

    def test_muted_emit_does_not_touch_the_shadowed_recorder(self):
        # The emit fast path must bail on the recording attribute alone —
        # if it reached the shadowed recorder's lock, the muted() guard
        # would not be "one attribute read per would-be emission".
        with using_recorder() as rec:
            entered = []
            real_emit = rec.emit
            rec.emit = lambda *a, **k: (entered.append(1), real_emit(*a, **k))[1]
            with muted():
                for _ in range(10):
                    events_mod.emit("k", task="t")
            assert entered == []

    def test_muted_emit_never_takes_the_shadowed_recorder_lock(self):
        # The module emit appends to a plain recorder under its lock
        # without calling ``rec.emit``, so patching ``emit`` (as above)
        # cannot see a leak; the lock and the storage must stay untouched.
        class CountingLock:
            def __init__(self):
                self.entries = 0
                self._lock = threading.Lock()

            def __enter__(self):
                self.entries += 1
                return self._lock.__enter__()

            def __exit__(self, *exc):
                return self._lock.__exit__(*exc)

        with using_recorder() as rec:
            events_mod.emit("before", task="t")
            rec._lock = lock = CountingLock()
            with muted():
                for _ in range(10):
                    events_mod.emit("k", task="t")
                    events_mod.emit("k")
            assert lock.entries == 0
            events_mod.emit("after", task="t")
        assert lock.entries == 1
        assert [e.kind for e in rec.events()] == ["before", "after"]
