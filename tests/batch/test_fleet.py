"""The sweep fleet: shard planning, the file messenger, work stealing.

The correctness bar is the same as the pool's — fleet-merged outcomes
must be byte-identical to serial (the equivalence suite pins that leg);
this file covers the machinery itself: the shard planner's invariants,
the spec/outcome wire codecs, claim exclusivity, the straggler-stealing
protocol, and every degradation path back to the in-process runner.
"""

from __future__ import annotations

import pytest

from repro.batch.fleet import (
    FLEET_AMORTISE_CELLS,
    Fleet,
    FleetError,
    default_fleet_workers,
    fleet_advisory,
    fleet_size,
    run_specs_fleet,
    shutdown_fleet,
)
from repro.batch.pool import run_specs, shutdown_pool
from repro.batch.results import (
    _memo_clear,
    outcome_from_wire,
    outcome_to_wire,
    spec_from_wire,
    spec_to_wire,
)
from repro.batch.specs import RunSpec, plan_shards
from repro.errors import CacheUnserializable


@pytest.fixture(autouse=True)
def fleet_hygiene():
    """No fleet (or pool) outlives its test."""
    _memo_clear()
    yield
    shutdown_fleet()
    shutdown_pool()
    _memo_clear()


def _grid(n, patternlet="openmp.spmd", tasks=3):
    return [RunSpec.make(patternlet, tasks=tasks, seed=s) for s in range(n)]


def _fingerprint(report):
    return [(o.text, o.span, o.races) for o in report.outcomes]


class TestShardPlanner:
    def test_every_index_appears_exactly_once(self):
        for n, w in [(1, 1), (7, 2), (8, 2), (100, 3), (5, 16)]:
            shards = plan_shards(n, w)
            flat = [i for shard in shards for i in shard]
            assert sorted(flat) == list(range(n))

    def test_shards_are_contiguous_and_balanced(self):
        shards = plan_shards(10, 2)  # 4 shards of 2-3 cells
        for shard in shards:
            assert shard == list(range(shard[0], shard[0] + len(shard)))
        sizes = {len(s) for s in shards}
        assert max(sizes) - min(sizes) <= 1

    def test_overshard_controls_the_shard_count(self):
        assert len(plan_shards(100, 4)) == 8  # default overshard=2
        assert len(plan_shards(100, 4, overshard=1)) == 4
        assert len(plan_shards(3, 4)) == 3  # never more shards than cells

    def test_degenerate_inputs(self):
        assert plan_shards(0, 4) == []
        assert plan_shards(1, 4) == [[0]]
        assert plan_shards(4, 0) == [[0, 1], [2, 3]]


class TestWireCodecs:
    def test_spec_round_trip(self):
        spec = RunSpec.make(
            "mpi.reduction",
            tasks=6,
            toggles={"barrier": True},
            seed=3,
            policy="fifo",
            topology="ring",
            network="hetero2",
        )
        assert spec_from_wire(spec_to_wire(spec)) == spec

    def test_wire_is_json_safe(self):
        import json

        spec = RunSpec.make("openmp.spmd", tasks=2, seed=1)
        again = json.loads(json.dumps(spec_to_wire(spec)))
        assert spec_from_wire(again) == spec

    def test_unserializable_extra_raises(self):
        spec = RunSpec.make("openmp.spmd", probe=object())
        with pytest.raises(CacheUnserializable):
            spec_to_wire(spec)

    def test_doc_round_trips_through_the_shared_writer(self, tmp_path):
        import json

        from repro.batch.cache import write_json
        from repro.batch.fleet import _read_doc

        report = run_specs(_grid(2), max_workers=1, use_cache=False)
        doc = {"type": "job_done", "shard": 3, "worker": 1,
               "outcomes": [[i, outcome_to_wire(o)]
                            for i, o in enumerate(report.outcomes)]}
        path = tmp_path / "shard-3.json"
        written = write_json(path, doc)
        assert written == len(path.read_bytes())
        assert path.read_bytes() == json.dumps(doc, separators=(",", ":")).encode()
        assert _read_doc(path) == doc
        assert [p.name for p in tmp_path.iterdir()] == ["shard-3.json"]
        assert write_json(tmp_path / "missing" / "x.json", doc) == 0
        assert write_json(tmp_path / "bad.json", {"x": object()}) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["shard-3.json"]

    def test_outcome_round_trip_preserves_the_fingerprint(self):
        report = run_specs(_grid(2), max_workers=1, use_cache=False)
        for outcome in report.outcomes:
            back = outcome_from_wire(outcome_to_wire(outcome))
            assert (back.text, back.span, back.races) == (
                outcome.text,
                outcome.span,
                outcome.races,
            )
            assert back.spec == outcome.spec
            assert back.metrics == outcome.metrics


class TestSizeHatches:
    def test_fleet_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_FLEET_WORKERS", raising=False)
        assert default_fleet_workers() is None
        assert fleet_size(None, 10) is None

    def test_env_hatch_turns_the_fleet_on(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLEET_WORKERS", "3")
        assert default_fleet_workers() == 3
        assert fleet_size(None, 10) == 3

    def test_explicit_flag_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLEET_WORKERS", "3")
        assert fleet_size(5, 10) == 5

    def test_zero_means_auto_and_honours_repro_jobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2")
        assert fleet_size(0, 10) == 2

    def test_garbage_env_means_off(self, monkeypatch):
        for bad in ("many", "", "0", "-1"):
            monkeypatch.setenv("REPRO_FLEET_WORKERS", bad)
            assert default_fleet_workers() is None


class TestFleetRuns:
    def test_cold_then_warm_matches_serial(self, tmp_path):
        specs = _grid(8)
        serial = run_specs(specs, max_workers=1, use_cache=False)
        cold = run_specs_fleet(
            specs, workers=2, use_cache=True, cache_dir=str(tmp_path)
        )
        assert not cold.errors and cold.hits == 0
        assert _fingerprint(cold) == _fingerprint(serial)
        assert cold.fleet is not None and cold.fleet["workers"] == 2
        warm = run_specs_fleet(
            specs, workers=2, use_cache=True, cache_dir=str(tmp_path)
        )
        assert warm.hit_rate == 1.0
        assert _fingerprint(warm) == _fingerprint(serial)

    def test_fleet_persists_across_submits(self, tmp_path):
        import repro.batch.fleet as fleet_mod

        run_specs_fleet(_grid(4), workers=2, use_cache=True, cache_dir=str(tmp_path))
        first = fleet_mod._FLEET
        assert first is not None
        pids = [p.pid for p in first._procs]
        run_specs_fleet(_grid(4), workers=2, use_cache=True, cache_dir=str(tmp_path))
        assert fleet_mod._FLEET is first
        assert [p.pid for p in first._procs] == pids  # same processes, reused

    def test_shape_change_rebuilds_the_fleet(self, tmp_path):
        import repro.batch.fleet as fleet_mod

        run_specs_fleet(_grid(4), workers=2, use_cache=True, cache_dir=str(tmp_path))
        first = fleet_mod._FLEET
        run_specs_fleet(_grid(4), workers=3, use_cache=True, cache_dir=str(tmp_path))
        assert fleet_mod._FLEET is not first
        assert fleet_mod._FLEET.workers == 3

    def test_stats_carry_the_fleet_summary(self, tmp_path):
        report = run_specs_fleet(
            _grid(4), workers=2, use_cache=True, cache_dir=str(tmp_path)
        )
        stats = report.stats()
        assert stats["fleet"]["workers"] == 2
        assert stats["fleet"]["completed_shards"] >= 1
        assert "cache_evictions" in stats


class TestDegradation:
    def test_single_spec_stays_in_process(self, tmp_path):
        import repro.batch.fleet as fleet_mod

        report = run_specs_fleet(
            _grid(1), workers=2, use_cache=True, cache_dir=str(tmp_path)
        )
        assert not report.errors and report.fleet is None
        assert fleet_mod._FLEET is None  # never even spawned

    def test_unserializable_spec_falls_back_in_process(self, tmp_path):
        import repro.batch.fleet as fleet_mod

        specs = _grid(3) + [RunSpec.make("openmp.spmd", probe=object())]
        report = run_specs_fleet(
            specs, workers=2, use_cache=False, cache_dir=str(tmp_path)
        )
        assert len(report.outcomes) == 4 and report.fleet is None
        assert fleet_mod._FLEET is None

    def test_collapsed_fleet_raises_then_entry_point_recovers(self, tmp_path):
        specs = _grid(6)
        fleet = Fleet(2, use_cache=True, cache_dir=str(tmp_path))
        try:
            for p in fleet._procs:  # the whole fleet dies mid-shift
                p.terminate()
                p.join(timeout=5)
            with pytest.raises(FleetError):
                fleet.submit(specs, timeout=30.0)
        finally:
            fleet.shutdown()
        # The public entry point turns that into an in-process result.
        report = run_specs_fleet(
            specs, workers=2, use_cache=True, cache_dir=str(tmp_path)
        )
        assert not report.errors and len(report.outcomes) == 6

    def test_dead_worker_shards_are_reposted(self, tmp_path):
        # Kill one worker; its claimed-but-unfinished cells must be
        # reposted and finished by the survivor.
        specs = _grid(8)
        fleet = Fleet(2, use_cache=True, cache_dir=str(tmp_path))
        try:
            fleet._procs[0].terminate()
            fleet._procs[0].join(timeout=5)
            report = fleet.submit(specs, timeout=60.0)
            assert not report.errors and len(report.outcomes) == 8
        finally:
            fleet.shutdown()


class TestWorkStealing:
    def test_straggler_shard_is_rebalanced(self, tmp_path, monkeypatch):
        # One poisoned cell (seed=0) stalls ~700ms on whichever worker
        # claims it; the other worker finishes everything else and must
        # steal the straggler's tail rather than idle.  Env is set
        # before the fleet spawns, so the workers inherit the stall.
        monkeypatch.setenv("REPRO_FLEET_STALL", "seed=0:700")
        specs = _grid(10)
        serial = run_specs(specs, max_workers=1, use_cache=False)
        fleet = Fleet(2, use_cache=True, cache_dir=str(tmp_path))
        try:
            report = fleet.submit(specs, timeout=120.0)
        finally:
            fleet.shutdown()
        assert not report.errors
        assert _fingerprint(report) == _fingerprint(serial)
        assert report.fleet["steals"] >= 1
        stolen = [s for s in report.fleet["shards"] if s["stolen_from"] is not None]
        assert stolen, "no completed shard records a theft"

    def test_steal_can_be_disabled(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FLEET_STALL", "seed=0:250")
        specs = _grid(6)
        fleet = Fleet(2, use_cache=True, cache_dir=str(tmp_path))
        try:
            report = fleet.submit(specs, steal=False, timeout=120.0)
        finally:
            fleet.shutdown()
        assert not report.errors
        assert report.fleet["steals"] == 0


def _messenger_files(root):
    """Leftover shard/worker docs per messenger dir under ``root``."""
    return {
        d: sorted(
            p.name
            for p in (root / d).iterdir()
            if p.name.startswith(("shard-", "worker-"))
        )
        for d in ("jobs", "claimed", "revoke", "results", "status")
        if (root / d).is_dir()
    }


class TestSweepCleanup:
    def test_message_dirs_are_swept_after_merge(self, tmp_path):
        fleet = Fleet(2, use_cache=True, cache_dir=str(tmp_path))
        try:
            report = fleet.submit(_grid(6), timeout=120.0)
            assert not report.errors
            left = _messenger_files(fleet.root)
            # status/ is exempt: idle workers re-assert READY (that file
            # is the liveness signal the steal pass reads).
            assert left["jobs"] == left["claimed"] == left["revoke"] == []
            assert left["results"] == []
            root = fleet.root
        finally:
            fleet.shutdown()
        assert not root.exists()  # own root is removed on shutdown

    def test_status_files_vanish_on_shutdown(self, tmp_path):
        fleet = Fleet(
            2, use_cache=True, cache_dir=str(tmp_path),
            root=tmp_path / "fleet", keep_dir=True,
        )
        try:
            fleet.submit(_grid(4), timeout=120.0)
        finally:
            fleet.shutdown()
        left = _messenger_files(tmp_path / "fleet")
        assert left["status"] == []  # workers unlink their own on exit

    def test_keep_dir_preserves_the_docs(self, tmp_path):
        fleet = Fleet(
            2, use_cache=True, cache_dir=str(tmp_path),
            root=tmp_path / "fleet", keep_dir=True,
        )
        try:
            report = fleet.submit(_grid(4), timeout=120.0)
        finally:
            fleet.shutdown()
        assert report.fleet["root"] == str(tmp_path / "fleet")
        left = _messenger_files(tmp_path / "fleet")
        assert left["results"], "keep_dir swept the result docs"

    def test_leftover_results_do_not_leak_into_the_next_sweep(self, tmp_path):
        # The regression _sweep_cleanup guards against: a stale doc from
        # sweep N must never be merged into (or claimed during) sweep N+1.
        fleet = Fleet(2, use_cache=True, cache_dir=str(tmp_path))
        try:
            first = fleet.submit(_grid(6), timeout=120.0)
            second = fleet.submit(_grid(4, tasks=2), timeout=120.0)
        finally:
            fleet.shutdown()
        assert len(first.outcomes) == 6
        assert len(second.outcomes) == 4 and not second.errors


class TestAdvisory:
    def test_small_grid_draws_the_advisory(self):
        text = fleet_advisory(4, 2)
        assert text is not None and "fleet" in text

    def test_amortised_grid_is_quiet(self):
        assert fleet_advisory(2 * FLEET_AMORTISE_CELLS, 2) is None
        assert fleet_advisory(500, 2) is None

    def test_threshold_is_exact(self):
        workers = 3
        edge = workers * FLEET_AMORTISE_CELLS
        assert fleet_advisory(edge - 1, workers) is not None
        assert fleet_advisory(edge, workers) is None

    def test_empty_grid_is_quiet(self):
        assert fleet_advisory(0, 2) is None


class TestFleetTelemetry:
    def test_journals_and_export_end_to_end(self, tmp_path):
        from repro.obs.telemetry import load_export

        export = tmp_path / "telem"
        fleet = Fleet(
            2, use_cache=True, cache_dir=str(tmp_path / "cache"),
            telemetry=True,
        )
        try:
            report = fleet.submit(
                _grid(6), timeout=120.0, export_dir=export
            )
        finally:
            fleet.shutdown()
        assert not report.errors
        sweep_id = report.fleet["sweep_id"]
        assert report.telemetry is not None
        assert report.telemetry["sweep_id"] == sweep_id
        assert report.telemetry["records"] > 0
        records, summary = load_export(export)
        assert summary["fleet"]["workers"] == 2
        kinds = {r["kind"] for r in records}
        assert {"sweep.start", "claim", "cell.start", "cell.finish",
                "job.done", "sweep.finish"} <= kinds
        finishes = [r for r in records if r["kind"] == "cell.finish"]
        assert len(finishes) == 6
        assert all(r["span"]["sweep"] == sweep_id for r in finishes)

    def test_sweep_ids_are_distinct_per_submit(self, tmp_path):
        fleet = Fleet(
            2, use_cache=True, cache_dir=str(tmp_path), telemetry=True
        )
        try:
            a = fleet.submit(_grid(4), timeout=120.0)
            b = fleet.submit(_grid(4), timeout=120.0)
        finally:
            fleet.shutdown()
        assert a.fleet["sweep_id"] != b.fleet["sweep_id"]

    def test_stolen_claims_record_their_provenance(self, tmp_path, monkeypatch):
        from repro.obs.telemetry import load_export

        monkeypatch.setenv("REPRO_FLEET_STALL", "seed=0:700")
        export = tmp_path / "telem"
        fleet = Fleet(
            2, use_cache=True, cache_dir=str(tmp_path / "cache"),
            telemetry=True,
        )
        try:
            report = fleet.submit(
                _grid(10), timeout=120.0, export_dir=export
            )
        finally:
            fleet.shutdown()
        assert report.fleet["steals"] >= 1
        records, _ = load_export(export)
        steals = [r for r in records if r["kind"] == "steal"]
        assert steals and steals[0]["worker"] == -1  # coordinator's record
        stolen_claims = [
            r for r in records
            if r["kind"] == "claim" and r.get("stolen_from") is not None
        ]
        assert stolen_claims, "no claim carries steal provenance"
        assert stolen_claims[0]["span"]["stolen_from"] == stolen_claims[0][
            "stolen_from"
        ]

    def test_telemetry_off_leaves_no_journals(self, tmp_path):
        fleet = Fleet(
            2, use_cache=True, cache_dir=str(tmp_path),
            root=tmp_path / "fleet", keep_dir=True,
        )
        try:
            report = fleet.submit(_grid(4), timeout=120.0)
        finally:
            fleet.shutdown()
        assert report.telemetry is None
        assert list((tmp_path / "fleet" / "telemetry").glob("*.jsonl")) == []

    def test_run_specs_fleet_wires_the_telemetry_dir(self, tmp_path):
        export = tmp_path / "telem"
        report = run_specs_fleet(
            _grid(6), workers=2, use_cache=True,
            cache_dir=str(tmp_path / "cache"), telemetry_dir=export,
        )
        assert report.telemetry is not None
        assert (export / "journal.jsonl").is_file()
        assert (export / "fleet.json").is_file()
        assert report.stats()["telemetry"]["records"] > 0
