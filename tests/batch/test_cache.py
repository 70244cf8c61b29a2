"""The run cache: hit semantics, escape hatches, LRU bounds, degradation."""

from __future__ import annotations

import json

import pytest

import repro.core.registry as registry
from repro.batch.cache import RunCache, cache_enabled, caching_runs, default_cache_dir
from repro.batch.results import _memo_clear, run_to_record
from repro.batch.specs import RunSpec, spec_key
from repro.core.registry import run_patternlet


@pytest.fixture(autouse=True)
def fresh_memo():
    """Isolate each test from the process-wide decoded-record memo."""
    _memo_clear()
    yield
    _memo_clear()


def _cache(tmp_path, **kw):
    return RunCache(tmp_path / "runs", **kw)


class TestHitNeverExecutes:
    def test_hit_is_served_without_running_the_patternlet(self, tmp_path, monkeypatch):
        cache = _cache(tmp_path)
        with caching_runs(cache, enabled=True):
            first = run_patternlet("openmp.spmd", tasks=3, seed=2)
        assert cache.stores == 1 and not first.meta.get("cached")

        def sentinel(*a, **k):
            raise AssertionError("cache hit executed the patternlet")

        monkeypatch.setattr(registry, "capture_run", sentinel)
        _memo_clear()  # force the disk tier, not just the memo
        with caching_runs(cache, enabled=True):
            served = run_patternlet("openmp.spmd", tasks=3, seed=2)
        assert served.meta["cached"] is True
        assert served.text == first.text

    def test_memory_tier_also_never_executes(self, tmp_path, monkeypatch):
        cache = _cache(tmp_path)
        with caching_runs(cache, enabled=True):
            run_patternlet("openmp.spmd", tasks=3, seed=2)

        def sentinel(*a, **k):
            raise AssertionError("memo hit executed the patternlet")

        monkeypatch.setattr(registry, "capture_run", sentinel)
        with caching_runs(cache, enabled=True):  # memo still primed
            served = run_patternlet("openmp.spmd", tasks=3, seed=2)
        assert served.meta["cached"] is True

    def test_thread_mode_always_executes(self, tmp_path):
        cache = _cache(tmp_path)
        with caching_runs(cache, enabled=True):
            a = run_patternlet("openmp.critical2", mode="thread", tasks=2, reps=50)
            b = run_patternlet("openmp.critical2", mode="thread", tasks=2, reps=50)
        assert cache.stores == 0
        assert not a.meta.get("cached") and not b.meta.get("cached")


class TestServedRunsAreWhole:
    def test_served_run_preserves_trace_and_race_verdict(self, tmp_path):
        from repro.trace import detect_races

        cache = _cache(tmp_path)
        with caching_runs(cache, enabled=True):
            live = run_patternlet(
                "openmp.reduction", toggles={"parallel_for": True}, seed=1
            )
        _memo_clear()
        with caching_runs(cache, enabled=True):
            served = run_patternlet(
                "openmp.reduction", toggles={"parallel_for": True}, seed=1
            )
        assert served.text == live.text
        assert served.span == live.span
        assert len(detect_races(served.trace)) == len(detect_races(live.trace))
        assert [e.seq for e in served.trace.events()] == [
            e.seq for e in live.trace.events()
        ]


class TestEscapeHatches:
    def test_repro_cache_0_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert not cache_enabled()
        with caching_runs(None):  # enabled=None defers to the env gate
            run = run_patternlet("openmp.spmd", seed=0)
        assert not run.meta.get("cached")

    def test_cache_dir_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "relocated"))
        assert default_cache_dir() == tmp_path / "relocated"

    def test_disabled_context_is_a_noop(self, tmp_path):
        cache = _cache(tmp_path)
        with caching_runs(cache, enabled=False):
            run_patternlet("openmp.spmd", seed=0)
        assert cache.stores == 0 and len(cache) == 0


class TestStore:
    def test_corrupt_record_is_a_miss_and_removed(self, tmp_path):
        cache = _cache(tmp_path)
        with caching_runs(cache, enabled=True):
            run_patternlet("openmp.spmd", tasks=2, seed=0)
        key = spec_key(RunSpec.make("openmp.spmd", tasks=2, seed=0))
        path = cache._path(key)
        path.write_text("{ not json")
        _memo_clear()
        assert cache.get(key) is None
        assert not path.exists()
        with caching_runs(cache, enabled=True):  # recomputes and re-stores
            run = run_patternlet("openmp.spmd", tasks=2, seed=0)
        assert not run.meta.get("cached") and path.exists()

    def test_schema_mismatch_is_a_miss(self, tmp_path):
        cache = _cache(tmp_path)
        with caching_runs(cache, enabled=True):
            run_patternlet("openmp.spmd", tasks=2, seed=0)
        key = spec_key(RunSpec.make("openmp.spmd", tasks=2, seed=0))
        record = json.loads(cache._path(key).read_text())
        record["schema"] = 999
        cache._path(key).write_text(json.dumps(record))
        assert cache.get(key) is None

    def test_lru_prune_keeps_most_recent(self, tmp_path):
        cache = _cache(tmp_path, max_bytes=1)  # everything is over the cap
        with caching_runs(cache, enabled=True):
            run = run_patternlet("openmp.spmd", tasks=2, seed=0)
        record = run_to_record(run, key="k")
        blob_size = len(json.dumps(record, separators=(",", ":")))
        cache.max_bytes = int(blob_size * 2.5)  # room for two records
        for i in range(4):
            assert cache.put(f"{i:02d}aaa", record)
        assert cache.prune() >= 1
        assert cache.size_bytes() <= cache.max_bytes

    def test_clear_removes_everything(self, tmp_path):
        cache = _cache(tmp_path)
        with caching_runs(cache, enabled=True):
            run_patternlet("openmp.spmd", tasks=2, seed=0)
            run_patternlet("openmp.spmd", tasks=3, seed=0)
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_unwritable_root_degrades_to_live_runs(self, tmp_path):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file where the cache dir should be")
        cache = RunCache(blocked / "nested")
        with caching_runs(cache, enabled=True):
            run = run_patternlet("openmp.spmd", seed=0)
        assert run.text  # ran fine; nothing persisted
        assert len(cache) == 0

    def test_counters(self, tmp_path):
        cache = _cache(tmp_path)
        with caching_runs(cache, enabled=True):
            run_patternlet("openmp.spmd", tasks=2, seed=0)
        _memo_clear()
        with caching_runs(cache, enabled=True):
            run_patternlet("openmp.spmd", tasks=2, seed=0)
        stats = cache.stats()
        assert stats["stores"] == 1 and stats["hits"] == 1
        assert stats["evictions"] == 0

    def test_prune_counts_evictions(self, tmp_path):
        cache = _cache(tmp_path, max_bytes=1)
        record = {"schema": 1, "pad": "x" * 256}
        for i in range(3):
            cache.put(f"{i:02d}abc", record)
        removed = cache.prune()
        assert removed >= 1
        assert cache.stats()["evictions"] == cache.evictions >= removed


class TestRecordBytes:
    """Records are compact ``json.dumps`` bytes, so older stores stay valid."""

    def _record(self):
        run = run_patternlet("openmp.reduction", toggles={"parallel_for": True}, seed=1)
        key = spec_key(RunSpec.make("openmp.reduction", toggles={"parallel_for": True}, seed=1))
        return key, run_to_record(run, key=key)

    def test_put_writes_exactly_the_compact_dumps_bytes(self, tmp_path):
        cache = _cache(tmp_path)
        key, record = self._record()
        record = dict(record, note="caf\u00e9 \u2192 \U0001f600", ratio=0.1 + 0.2)
        assert cache.put(key, record)
        assert cache._path(key).read_bytes() == json.dumps(
            record, separators=(",", ":")).encode()

    def test_record_written_by_a_streaming_dump_is_a_hit(self, tmp_path, monkeypatch):
        # Stores written before the one-pass encoder streamed the record
        # through ``json.dump``: the same bytes, so still served.
        cache = _cache(tmp_path)
        key, record = self._record()
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, separators=(",", ":"))
        legacy = path.read_bytes()
        assert cache.get(key) == record

        def sentinel(*a, **k):
            raise AssertionError("a legacy record was not served")

        monkeypatch.setattr(registry, "capture_run", sentinel)
        with caching_runs(cache, enabled=True):
            served = run_patternlet(
                "openmp.reduction", toggles={"parallel_for": True}, seed=1)
        assert served.meta["cached"] is True
        assert cache.put(key, record) and path.read_bytes() == legacy


class TestOrphanedTempFiles:
    """A writer killed between ``mkstemp`` and ``os.replace`` leaks a ``.tmp``."""

    def _temp_file(self, cache, *, size, age_s):
        import os
        import time

        sub = cache.root / "ab"
        sub.mkdir(parents=True, exist_ok=True)
        path = sub / "tmpdeadwriter.tmp"
        path.write_bytes(b"x" * size)
        stamp = time.time() - age_s
        os.utime(path, (stamp, stamp))
        return path

    def test_stale_orphan_is_removed_by_prune(self, tmp_path):
        cache = _cache(tmp_path, max_bytes=1)
        orphan = self._temp_file(cache, size=200_000, age_s=3600)
        assert cache.prune() == 0  # not a record: no eviction counted
        assert not orphan.exists()
        assert cache.size_bytes() == 0

    def test_stale_orphan_is_removed_by_clear(self, tmp_path):
        cache = _cache(tmp_path)
        cache.put("ab" + "0" * 62, {"schema": 1, "pad": "x"})
        orphan = self._temp_file(cache, size=1000, age_s=3600)
        assert cache.clear() == 1
        assert not orphan.exists() and cache.size_bytes() == 0

    def test_write_in_flight_is_kept_and_counted(self, tmp_path):
        cache = _cache(tmp_path, max_bytes=1)
        fresh = self._temp_file(cache, size=1000, age_s=0)
        assert cache.size_bytes() == 1000
        cache.prune()
        assert fresh.exists()  # a live writer is about to rename it


class TestPruneTrigger:
    RECORD = {"schema": 1, "pad": "x" * 8000}  # 8023 bytes on disk

    @pytest.mark.parametrize("cap_mib, puts_under", [(1, 8), (2, 16)])
    def test_prunes_on_the_first_store_then_per_sixteenth_of_the_cap(
        self, tmp_path, cap_mib, puts_under
    ):
        cache = _cache(tmp_path, max_bytes=cap_mib * 1024 * 1024)
        pruned = []
        real_prune = cache.prune
        cache.prune = lambda: pruned.append(1) or real_prune()  # type: ignore[method-assign]
        cache.put("ee" + "a" * 62, self.RECORD)
        assert pruned == [1]  # a fresh instance walks on its first store
        for i in range(puts_under):  # just under cap / 16 in total
            cache.put(f"{i:02d}" + "a" * 62, self.RECORD)
        assert pruned == [1]
        cache.put("ff" + "a" * 62, self.RECORD)
        assert pruned == [1, 1]

    def test_short_lived_writers_keep_an_overfull_store_bounded(self, tmp_path):
        cap = 1024 * 1024
        filler = _cache(tmp_path, max_bytes=1 << 30)
        for i in range(200):  # about 1.6 MB: past the cap
            filler.put(f"{i:03d}" + "b" * 61, self.RECORD)
        assert filler.size_bytes() > cap
        for writer in range(6):  # e.g. one CLI sweep or selfcheck each
            cache = _cache(tmp_path, max_bytes=cap)
            for i in range(4):  # 32 KB, well under cap / 16
                cache.put(f"{writer}{i}" + "c" * 62, self.RECORD)
            assert cache.size_bytes() <= cap + cap // 16


# -- multi-writer safety ------------------------------------------------------

# Worker bodies live at module level so the fork/spawn machinery can
# import them.  Each hammers one shared cache root with an interleaved
# put/get/prune stream: every key is content-shaped (sha256 hex) but
# drawn from a small universe, so processes constantly collide on the
# same record files — the access pattern of pool workers and the serve
# daemon sharing one root, concentrated.

_KEY_UNIVERSE = 24


def _stress_key(i: int) -> str:
    import hashlib

    return hashlib.sha256(str(i % _KEY_UNIVERSE).encode()).hexdigest()


def _stress_worker(root: str, max_bytes: int, rounds: int, wid: int) -> None:
    from repro.batch.cache import RunCache
    from repro.batch.results import RECORD_SCHEMA

    cache = RunCache(root, max_bytes=max_bytes)
    record = {"schema": RECORD_SCHEMA, "writer": wid, "pad": "x" * 300}
    for r in range(rounds):
        for i in range(_KEY_UNIVERSE):
            cache.put(_stress_key(i), dict(record, key=_stress_key(i)))
            cache.get(_stress_key((i + wid) % _KEY_UNIVERSE))
            if (i + r) % 5 == wid % 5:
                cache.prune()


def _spawn_stress(root, max_bytes, rounds, n_procs):
    import multiprocessing

    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        ctx = multiprocessing.get_context()
    procs = [
        ctx.Process(target=_stress_worker, args=(str(root), max_bytes, rounds, w))
        for w in range(n_procs)
    ]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=120)
    assert all(p.exitcode == 0 for p in procs)


class TestMultiWriter:
    def test_concurrent_writers_never_corrupt_records(self, tmp_path):
        # Unbounded cache: every key every writer stored must survive as
        # whole, parseable, schema-correct JSON — no lost records, no
        # torn files, however the atomic replaces interleave.
        root = tmp_path / "shared"
        _spawn_stress(root, max_bytes=1 << 30, rounds=6, n_procs=4)
        cache = RunCache(root)
        for i in range(_KEY_UNIVERSE):
            record = cache.get(_stress_key(i))
            assert record is not None, f"record {i} was lost"
            assert record["key"] == _stress_key(i)
        for path in root.glob("*/*.json"):
            json.loads(path.read_text())  # nothing torn on disk

    def test_concurrent_pruners_respect_the_size_bound(self, tmp_path):
        # Tiny cap: every writer prunes constantly, racing unlinks
        # against each other's puts and each other's prunes.  Whatever
        # survives must be whole, and one quiet final prune must land
        # the store under the cap.
        root = tmp_path / "bounded"
        max_bytes = 4 * 400  # roughly four records
        _spawn_stress(root, max_bytes=max_bytes, rounds=6, n_procs=4)
        for path in root.glob("*/*.json"):
            json.loads(path.read_text())
        cache = RunCache(root, max_bytes=max_bytes)
        cache.prune()
        assert cache.size_bytes() <= max_bytes

    def test_prune_tolerates_vanishing_directories(self, tmp_path):
        # A concurrent pruner can delete a whole fan-out directory
        # between the walk listing it and descending into it.
        import shutil

        cache = _cache(tmp_path)
        cache.put("aa" + "0" * 62, {"schema": 1, "pad": "x"})
        cache.put("bb" + "0" * 62, {"schema": 1, "pad": "x"})
        real_iterdir = type(cache.root).iterdir

        def racing_iterdir(self):
            if self == cache.root:
                entries = list(real_iterdir(self))
                shutil.rmtree(cache.root / "aa", ignore_errors=True)
                return iter(entries)
            return real_iterdir(self)

        import unittest.mock

        with unittest.mock.patch.object(
            type(cache.root), "iterdir", racing_iterdir
        ):
            assert cache.prune() == 0  # under cap; walk survives the race
        assert len(cache) == 1


class TestSingleFlight:
    """Thread-level coalescing: one compute per key even under a stampede."""

    def _swarm(self, tmp_path, monkeypatch, *, leader_fails=False,
               n_followers=5):
        import threading
        import time

        cache = _cache(tmp_path)
        real = registry.capture_run
        executions = []
        results = []
        errors = []

        def slow_capture(*args, **kwargs):
            executions.append(threading.get_ident())
            time.sleep(0.25)  # hold the flight open while followers pile in
            if leader_fails and len(executions) == 1:
                raise RuntimeError("leader died mid-flight")
            return real(*args, **kwargs)

        monkeypatch.setattr(registry, "capture_run", slow_capture)

        def worker():
            try:
                results.append(run_patternlet("openmp.spmd", tasks=3, seed=5))
            except RuntimeError as exc:
                errors.append(exc)

        # One shared context for every thread: the interceptor slot is
        # process-global, so concurrent enter/exit from worker threads
        # would race its save/restore.  Entering once on the main thread
        # is the supported embedding shape — the flight table underneath
        # is what coalesces the stampede.
        with caching_runs(cache, enabled=True):
            leader = threading.Thread(target=worker)
            leader.start()
            while not executions:  # the flight is provably open past here
                time.sleep(0.005)
            followers = [threading.Thread(target=worker)
                         for _ in range(n_followers)]
            for t in followers:
                t.start()
            leader.join()
            for t in followers:
                t.join()
        return executions, results, errors

    def test_stampede_on_one_key_computes_once(self, tmp_path, monkeypatch):
        executions, results, errors = self._swarm(tmp_path, monkeypatch)
        assert len(executions) == 1  # five followers attached, none ran
        assert not errors
        assert len(results) == 6
        assert len({r.text for r in results}) == 1

    def test_failed_leader_releases_its_follower_to_run_live(
        self, tmp_path, monkeypatch
    ):
        # A leader that dies must not strand a follower: _end_flight
        # runs on the failure path, the woken follower re-reads the
        # tiers, misses, and computes for itself.  (One follower only:
        # coalescing callers, not this layer, guarantee one live run
        # per process — the trace recorder stack is process-ambient.)
        executions, results, errors = self._swarm(
            tmp_path, monkeypatch, leader_fails=True, n_followers=1)
        assert len(errors) == 1  # only the leader saw the crash
        assert len(results) == 1
        assert "Hello" in results[0].text  # a whole, live-computed run
        assert len(executions) == 2  # the follower recomputed after the wake

    def test_flights_are_scoped_per_key(self, tmp_path):
        from repro.batch.cache import _begin_flight, _end_flight

        scope = str(tmp_path)
        assert _begin_flight(scope, "k1") is None  # first caller leads
        assert _begin_flight(scope, "k2") is None  # other keys unaffected
        follow = _begin_flight(scope, "k1")
        assert follow is not None and not follow.is_set()
        _end_flight(scope, "k1")
        assert follow.is_set()  # followers released
        assert _begin_flight(scope, "k1") is None  # table entry retired
        _end_flight(scope, "k1")
        _end_flight(scope, "k2")
        _end_flight(scope, "nope")  # closing a non-flight is a no-op
