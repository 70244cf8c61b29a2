"""The metrics byte-identity guarantee.

Canonical metrics are a pure function of the trace plus identity meta,
so (a) reruns of the same spec agree exactly, (b) serial, pooled, and
cache-served executions agree byte-for-byte, and (c) the derived counters
match oracles kept outside the trace: the lockstep executor's own
scheduling log, and the sync-site counts each program performs by
construction.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch.cache import RunCache, caching_runs
from repro.batch.pool import run_specs, shutdown_pool
from repro.batch.results import _memo_clear
from repro.batch.specs import RunSpec
from repro.core.registry import run_patternlet
from repro.obs import derive_metrics, metrics_dict
from repro.sched.lockstep import LockstepExecutor
from repro.sched.policy import RandomPolicy
from repro.trace import using_recorder


def _canon(run) -> str:
    return json.dumps(metrics_dict(run), sort_keys=True)


@pytest.fixture(autouse=True)
def clean_slate():
    _memo_clear()
    yield
    _memo_clear()
    shutdown_pool()


class TestRerunIdentity:
    @pytest.mark.parametrize(
        "name",
        [
            "openmp.parallelLoopEqualChunks",
            "openmp.parallelLoopChunksOf1",
            "openmp.parallelLoopDynamic",
            "mpi.messagePassing",
        ],
    )
    def test_same_spec_same_metrics(self, name):
        a = run_patternlet(name, tasks=4, seed=3)
        b = run_patternlet(name, tasks=4, seed=3)
        assert _canon(a) == _canon(b)

    def test_different_seed_differs_for_dynamic(self):
        a = run_patternlet("openmp.parallelLoopDynamic", tasks=4, seed=0)
        b = run_patternlet("openmp.parallelLoopDynamic", tasks=4, seed=2)
        assert _canon(a) != _canon(b)


class TestCacheServedIdentity:
    def test_cache_served_metrics_are_byte_identical(self, tmp_path):
        live = run_patternlet("openmp.parallelLoopDynamic", tasks=4, seed=1)
        want = _canon(live)
        cache_dir = str(tmp_path / "runs")
        with caching_runs(RunCache(cache_dir), enabled=True):
            cold = run_patternlet(
                "openmp.parallelLoopDynamic", tasks=4, seed=1
            )
        assert _canon(cold) == want
        _memo_clear()  # force the disk tier, not the in-process memo
        served_cache = RunCache(cache_dir)
        with caching_runs(served_cache, enabled=True):
            served = run_patternlet(
                "openmp.parallelLoopDynamic", tasks=4, seed=1
            )
        assert served.meta.get("cached") is True
        assert served_cache.stats()["hits"] == 1
        # A served run is indistinguishable: "cached" never labels metrics.
        assert _canon(served) == want
        assert "cached" not in json.dumps(metrics_dict(served))

    def test_pooled_summaries_match_serial(self):
        specs = [
            RunSpec(patternlet="mpi.messagePassing", tasks=4, seed=s)
            for s in range(4)
        ]
        serial = run_specs(specs, max_workers=1, use_cache=False)
        pooled = run_specs(specs, max_workers=2, use_cache=False)
        assert not serial.errors and not pooled.errors
        for a, b in zip(serial.outcomes, pooled.outcomes):
            assert json.dumps(a.metrics, sort_keys=True) == json.dumps(
                b.metrics, sort_keys=True
            )


def _per_task(reg, family):
    fam = reg.get(family)
    return {dict(key)["task"]: value for key, value in fam.samples.items()}


class TestLiveDerivedAgreement:
    """Counts kept live, while the run happens, equal the derived ones.

    The live side never goes through the trace recorder or the derivation
    pass: ``LockstepExecutor.steps()`` is written at every switch point
    beside the trace emit, so it tallies ``run``/``block``/``wake``; and
    each sync patternlet performs a known count by construction: one
    barrier arrival per thread, ``reps`` (50) guarded updates each.
    """

    TASKS = [f"omp:{i}" for i in range(4)]

    @settings(max_examples=25, deadline=None)
    @given(
        tasks=st.integers(2, 5),
        rounds=st.integers(1, 4),
        seed=st.integers(0, 1000),
    )
    def test_live_equals_derived(self, tasks, rounds, seed):
        ex = LockstepExecutor(policy=RandomPolicy(seed))
        arrived = [0]

        def body():
            # A hand-rolled barrier per round: every arrival but the last
            # finds the count short and blocks until the last one wakes it.
            for r in range(1, rounds + 1):
                arrived[0] += 1
                if arrived[0] == r * tasks:
                    ex.notify()
                else:
                    ex.wait_until(lambda r=r: arrived[0] >= r * tasks)

        with using_recorder() as rec:
            ex.run_tasks([body] * tasks, [f"t{i}" for i in range(tasks)])
        reg = derive_metrics(rec)
        for event, family in (
            ("run", "sched_switches"),
            ("block", "sched_blocks"),
            ("wake", "sched_wakes"),
        ):
            want: dict[str, float] = {}
            for kind, label in ex.steps():
                if kind == event:
                    want[label] = want.get(label, 0) + 1
            assert want, f"program never produced a {event!r} step"
            assert _per_task(reg, family) == want, family

    def _counts(self, name, toggles, family):
        run = run_patternlet(name, tasks=4, seed=2, toggles=toggles)
        return _per_task(derive_metrics(run.trace), family)

    def test_barrier_site_agrees(self):
        got = self._counts(
            "openmp.barrier", {"barrier": True}, "barrier_arrivals"
        )
        assert got == dict.fromkeys(self.TASKS, 1)
        assert (
            self._counts("openmp.barrier", {"barrier": False}, "barrier_arrivals")
            == {}
        )

    def test_critical_and_atomic_sites_agree(self):
        assert self._counts(
            "openmp.critical", {"critical": True}, "critical_acquisitions"
        ) == dict.fromkeys(self.TASKS, 50)
        assert self._counts(
            "openmp.atomic", {"atomic": True}, "atomic_updates"
        ) == dict.fromkeys(self.TASKS, 50)
