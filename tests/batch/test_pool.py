"""The batch pool: worker isolation, serial fallback, degradation paths."""

from __future__ import annotations

import pytest

import repro.batch.pool as pool_mod
from repro.batch.pool import default_workers, map_calls, run_specs, shutdown_pool
from repro.batch.specs import RunSpec
from repro.trace import muted, pop_recorder, push_recorder
from repro.trace.events import TraceRecorder, emit


@pytest.fixture(autouse=True)
def pool_hygiene():
    """Leave no persistent pool behind a test."""
    yield
    shutdown_pool()


def _double(x):
    """Module-level so the pool can pickle it by reference."""
    return x * 2


def _spmd_seed_and_lines(seed):
    """Module-level: one cacheable run, tagged with its item."""
    from repro.core.registry import run_patternlet

    run = run_patternlet("openmp.spmd", tasks=2, seed=seed)
    return seed, len(run.text.splitlines())


def _run_and_count(spec_seed):
    """Run one deterministic patternlet; return its print-line count."""
    from repro.core.registry import run_patternlet

    run = run_patternlet("openmp.spmd", tasks=3, seed=spec_seed)
    return len(run.text.splitlines())


class TestDefaults:
    def test_default_workers_bounds(self):
        assert default_workers(0) == 1
        assert default_workers(1) == 1
        assert 1 <= default_workers(100) <= 8

    def test_repro_jobs_overrides_the_heuristic(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_workers(100) == 3
        assert default_workers(2) == 2  # still clamped to the item count
        assert default_workers(0) == 1

    def test_repro_jobs_garbage_falls_back(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        heuristic = default_workers(100)
        for bad in ("zero", "", "-2", "0"):
            monkeypatch.setenv("REPRO_JOBS", bad)
            assert default_workers(100) == heuristic

    def test_single_item_runs_in_process(self):
        results, workers, pooled = map_calls(_double, [21], max_workers=8)
        assert results == [42] and workers == 1 and not pooled

    def test_max_workers_1_runs_in_process(self):
        results, workers, pooled = map_calls(_double, [1, 2, 3], max_workers=1)
        assert results == [2, 4, 6] and workers == 1 and not pooled


class TestPooled:
    def test_pooled_map_preserves_order(self):
        results, _workers, pooled = map_calls(
            _double, list(range(8)), max_workers=2, use_cache=False
        )
        assert results == [x * 2 for x in range(8)]
        assert pooled  # fork is available on the CI platforms we run

    def test_workers_do_not_emit_into_the_parent_recorder(self):
        parent = TraceRecorder()
        push_recorder(parent)
        try:
            results, _w, pooled = map_calls(
                _run_and_count, [0, 1, 2, 3], max_workers=2, use_cache=False
            )
        finally:
            pop_recorder(parent)
        assert pooled and all(n >= 3 for n in results)
        # The parent's recorder was ambient at fork time; a leak here means
        # a worker inherited it instead of resetting (satellite 1).
        assert len(parent) == 0

    def test_pool_is_persistent_across_batches(self):
        map_calls(_double, [1, 2], max_workers=2, use_cache=False)
        first = pool_mod._POOL
        map_calls(_double, [3, 4], max_workers=2, use_cache=False)
        assert pool_mod._POOL is first and first is not None


class TestFallback:
    def test_pool_creation_failure_degrades_to_serial(self, monkeypatch):
        monkeypatch.setattr(pool_mod, "_get_pool", lambda workers: None)
        results, workers, pooled = map_calls(
            _double, [1, 2, 3], max_workers=4, use_cache=False
        )
        assert results == [2, 4, 6] and workers == 1 and not pooled

    def test_mid_batch_collapse_reruns_serially(self, monkeypatch):
        class BrokenPool:
            def map(self, *a, **k):
                raise RuntimeError("pool died")

            def shutdown(self, *a, **k):
                pass

        monkeypatch.setattr(pool_mod, "_get_pool", lambda workers: BrokenPool())
        results, workers, pooled = map_calls(
            _double, [1, 2, 3], max_workers=4, use_cache=False
        )
        assert results == [2, 4, 6] and workers == 1 and not pooled


class TestChunkedDispatch:
    def test_chunksize_is_a_sixteenth_of_each_workers_share(self, monkeypatch):
        seen = []

        class InlinePool:
            def map(self, fn, payloads, chunksize=1):
                seen.append(chunksize)
                return map(fn, payloads)

        monkeypatch.setattr(pool_mod, "_get_pool", lambda workers: InlinePool())
        for n, workers in ((97, 2), (20, 2), (31, 2), (640, 4)):
            results, _w, pooled = map_calls(
                _double, range(n), max_workers=workers, use_cache=False)
            assert pooled and results == [x * 2 for x in range(n)]
        assert seen == [3, 1, 1, 10]

    def test_97_items_keep_order_and_match_serial_stats(self, tmp_path):
        from repro.batch.results import _memo_clear

        seeds = list(range(97))
        expect, _, _ = map_calls(_spmd_seed_and_lines, seeds, max_workers=1,
                                 use_cache=False)
        for phase in ("cold", "warm"):
            _memo_clear()
            shutdown_pool()  # warm: fresh workers read the disk store
            serial_stats: dict = {}
            pooled_stats: dict = {}
            serial, _, _ = map_calls(
                _spmd_seed_and_lines, seeds, max_workers=1, use_cache=True,
                cache_dir=str(tmp_path / "serial"), stats_out=serial_stats)
            pooled, workers, was_pooled = map_calls(
                _spmd_seed_and_lines, seeds, max_workers=2, use_cache=True,
                cache_dir=str(tmp_path / "pooled"), stats_out=pooled_stats)
            assert was_pooled and workers == 2
            assert serial == pooled == expect, phase
            assert pooled_stats == serial_stats, phase
            if phase == "cold":
                assert serial_stats == {"hits": 0, "misses": 97, "stores": 97,
                                        "evictions": 0}
            else:
                assert serial_stats["hits"] == 97 and serial_stats["stores"] == 0


class TestPooledDiskBound:
    def test_pooled_sweep_under_a_small_cap_stays_bounded(self, tmp_path, monkeypatch):
        from repro.batch.cache import RunCache
        from repro.batch.specs import figure_suite_specs

        workers = 2
        cap = 1024 * 1024
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "1")
        shutdown_pool()  # workers fork with the cap in their environment
        root = tmp_path / "capped"
        report = run_specs(figure_suite_specs(range(20)), max_workers=workers,
                           use_cache=True, cache_dir=str(root))
        assert report.pooled and not report.errors
        assert report.cache_stats["stores"] == report.runs
        assert report.cache_stats["evictions"] > 0  # the workers pruned
        largest = max(p.stat().st_size for p in root.glob("*/*.json"))
        assert RunCache(root).size_bytes() <= cap * (1 + workers / 16) + largest
        assert not list(root.rglob("*.tmp"))


class TestMutedReentrancy:
    def test_nested_muted_contexts(self):
        rec = TraceRecorder()
        push_recorder(rec)
        try:
            emit("t.one")
            m = muted()
            with m:
                emit("t.hidden")
                with m:  # same instance, nested: must not unbalance
                    emit("t.hidden2")
                emit("t.hidden3")
            emit("t.two")
        finally:
            pop_recorder(rec)
        assert [e.kind for e in rec.events()] == ["t.one", "t.two"]


class TestRunSpecs:
    def test_report_shape_and_error_capture(self):
        specs = [
            RunSpec.make("openmp.spmd", tasks=2, seed=0),
            RunSpec.make("no.such.patternlet"),
        ]
        report = run_specs(specs, max_workers=1, use_cache=False)
        assert report.runs == 2 and len(report.errors) == 1
        good, bad = report.outcomes
        assert good.ok and good.text and good.key
        assert not bad.ok and "no.such.patternlet" in (bad.error or "")
        assert report.stats()["errors"] == 1
