"""The ``sweep`` phase: a grading grid, cold into a fresh cache, then warm.

Each round builds ``figure_suite_specs`` over ``GRID_SEEDS`` new seeds
(700 distinct cells) and runs it through ``run_specs(max_workers=2)``
into a fresh cache root: the cold pass does the writes (key, execute,
record encode, disk write).  The pool is then shut down, so the warm
pass over the same grid starts from freshly forked workers and reads the
disk store rather than a process memo.

The rates are stated at the reference host speed (``REFERENCE_MIPS``):
a ``SpeedSampler`` reads the host's speed on both CPUs while each pass
runs, and a pass that ran while it read 1.2 times the reference counts
as 1.2 times as long.
"""

from __future__ import annotations

import os
import random
import shutil
import time
from typing import Any

from common import (
    CPUS,
    WORK,
    SpeedSampler,
    awake,
    child_pids,
    median,
    peak_rss_mib,
    pin,
    reap_pool,
)

GRID_SEEDS = 50
WORKERS = 2
#: Rounds a phase runs even when its seconds are spent.
MIN_ROUNDS = 2
#: Warm passes per round, each from freshly forked workers; the warm pass
#: is short (under a second), so it is measured more than once.
WARM_PASSES = 2
#: Cells per round re-run serially with the cache off as a reference.
SAMPLE = 10
#: Cap of the traced run's disk-bound probe (``REPRO_CACHE_MAX_MB``).
CAP_MB = 1


def _workers_peak_rss() -> float:
    return max((peak_rss_mib(pid) for pid in child_pids()), default=0.0)


def _same(a: Any, b: Any) -> bool:
    return (a.text, a.span, a.races, a.error) == (b.text, b.span, b.races, b.error)


def run_phase(seconds: float, rng: random.Random, traced: bool) -> dict[str, Any]:
    from repro.batch import figure_suite_specs, run_specs

    import tracer

    pin(0, CPUS)  # the workers pin themselves (pin_forked_children)
    cold_rates: list[float] = []
    warm_rates: list[float] = []
    cold_walls: list[float] = []
    warm_walls: list[float] = []
    spans: dict[str, list[tuple]] = {"cold": [], "warm": []}
    record_bytes: list[int] = []
    hit_shares: list[float] = []
    attempted = failed = violations = 0
    rss = 0.0
    rounds = 0
    t_start = time.perf_counter()
    while rounds < MIN_ROUNDS or time.perf_counter() - t_start < seconds:
        specs = figure_suite_specs([rng.randrange(2**31) for _ in range(GRID_SEEDS)])
        root = WORK / f"sweep-{os.getpid()}-{rounds}"
        shutil.rmtree(root, ignore_errors=True)
        reap_pool()
        tracer.take_spans()

        with SpeedSampler(CPUS) as sampler:
            t0 = time.perf_counter()
            cold = run_specs(specs, max_workers=WORKERS, use_cache=True,
                             cache_dir=str(root))
            cold_walls.append(time.perf_counter() - t0)
        cold_rates.append(len(specs) / (cold_walls[-1] * sampler.speed()))
        rss = max(rss, _workers_peak_rss())
        reap_pool()
        spans["cold"] += tracer.take_spans()

        for _ in range(WARM_PASSES):
            # A warm cell is a short hand-off between processes: see awake.
            with awake(CPUS), SpeedSampler(CPUS) as sampler:
                t0 = time.perf_counter()
                warm = run_specs(specs, max_workers=WORKERS, use_cache=True,
                                 cache_dir=str(root))
                warm_walls.append(time.perf_counter() - t0)
            rss = max(rss, _workers_peak_rss())
            reap_pool()
            spans["warm"] += tracer.take_spans()
            warm_rates.append(len(specs) / (warm_walls[-1] * sampler.speed()))
            attempted += len(specs)
            failed += len(warm.errors)
            violations += sum(not _same(c, w)
                              for c, w in zip(cold.outcomes, warm.outcomes))
            lookups = warm.cache_stats.get("hits", 0) + warm.cache_stats.get("misses", 0)
            hit_shares.append(warm.cache_stats.get("hits", 0) / max(1, lookups))
            if not warm.pooled or warm.hits != len(specs) or hit_shares[-1] != 1.0:
                violations += 1

        attempted += len(specs)
        failed += len(cold.errors)
        if not cold.pooled:
            violations += 1  # the pool fell back to serial: not this workload

        picks = sorted(rng.sample(range(len(specs)), SAMPLE))
        ref = run_specs([specs[i] for i in picks], max_workers=1, use_cache=False)
        attempted += SAMPLE
        violations += sum(not _same(r, cold.outcomes[i])
                          for r, i in zip(ref.outcomes, picks))
        tracer.take_spans()
        if traced:
            record_bytes += [p.stat().st_size for p in root.glob("*/*.json")]
        shutil.rmtree(root, ignore_errors=True)
        rounds += 1

    out = {
        "attempted": attempted,
        "failed": failed,
        "violations": violations,
        "metrics": {
            "sweep_cold_cells_s": (median(cold_rates), "cells/s"),
            "sweep_warm_cells_s": (median(warm_rates), "cells/s"),
        },
        "samples": {"sweep_rounds": rounds, "sweep_cells_per_pass": len(specs)},
        "rss_mb": rss,
        "spans": spans,
        "walls": {"cold": median(cold_walls), "warm": median(warm_walls)},
        "passes": {"cold": len(cold_walls), "warm": len(warm_walls)},
        "wall_sums": {"cold": sum(cold_walls), "warm": sum(warm_walls)},
        "record_bytes": record_bytes,
        "hit_share": median(hit_shares),
    }
    if traced:
        out["cap"] = cap_probe(rng)
        out["attempted"] += out["cap"]["cells"]
        out["failed"] += out["cap"]["errors"]
    return out


def cap_probe(rng: random.Random) -> dict[str, Any]:
    """One cold pooled pass under a small ``REPRO_CACHE_MAX_MB`` cap.

    Reports the bytes left on disk against the cap and how often the
    workers pruned.  Pooled workers build a fresh ``RunCache`` per cell,
    so the every-32-stores prune never fires there and the cap does not
    bound the disk; this probe keeps that visible until it is fixed.
    """
    from repro.batch import RunCache, figure_suite_specs, run_specs

    import tracer

    specs = figure_suite_specs([rng.randrange(2**31) for _ in range(GRID_SEEDS)])
    root = WORK / f"sweep-cap-{os.getpid()}"
    shutil.rmtree(root, ignore_errors=True)
    reap_pool()
    tracer.take_spans()
    os.environ["REPRO_CACHE_MAX_MB"] = str(CAP_MB)
    try:
        report = run_specs(specs, max_workers=WORKERS, use_cache=True,
                           cache_dir=str(root))
        reap_pool()
    finally:
        del os.environ["REPRO_CACHE_MAX_MB"]
    spans = tracer.take_spans()
    disk = RunCache(root).size_bytes()
    shutil.rmtree(root, ignore_errors=True)
    return {
        "prunes": sum(1 for s in spans if s[0] == "batch.cache.prune"),
        "disk_bytes": disk,
        "cap_bytes": CAP_MB * 1024 * 1024,
        "cells": len(specs),
        "errors": len(report.errors),
    }
