"""The ``classroom`` phase: live lockstep runs with the cache off.

One lesson is what an instructor shows in front of a class (Adams 2015,
section III): the 14 deterministic figure runs at their figure task
counts, then the "crank the task count" demos at np 16 and 64.  Lessons
repeat over a small pool of seeds, exactly as ``patternlet run --seed``
would, so every (run, seed) pair recurs and must print the same text.

The host's speed drifts by about +-20% over seconds and minutes, far
more than the program's own spread.  So a short pass of the fixed
calibration loop follows every lesson on the same CPU, and the lesson's
times are stated at ``REFERENCE_MIPS``: a lesson that ran while the loops
before and after it read 12 M iterations/s on average counts as 1.2
times as long.
"""

from __future__ import annotations

import random
import time
from typing import Any

from common import CPUS, REFERENCE_MIPS, host_speed, median, pin, percentile

#: Patternlets the lesson re-runs at a larger task count.
CRANK = ("mpi.spmd", "mpi.broadcast", "mpi.reduction", "mpi.gather",
         "openmp.reduction")
CRANK_NP = (16, 64)
#: Distinct seeds per run; each lesson reuses one, so repeats are compared.
SEED_POOL = 8
#: Calibration-loop iterations after each lesson (about 6 ms; a lesson
#: takes about 70).
REFERENCE_ITERATIONS = 60_000


def lesson() -> list[tuple[str, int | None, dict[str, bool] | None]]:
    from repro.batch.specs import FIGURE_RUNS

    return list(FIGURE_RUNS) + [(n, np, None) for n in CRANK for np in CRANK_NP]


def run_phase(seconds: float, rng: random.Random, traced: bool) -> dict[str, Any]:
    from repro.core import registry
    from repro.core.selfcheck import FIGURE_CHECKS
    from repro.obs import derive
    from repro.sched.pool import pool_stats

    import tracer

    pin(0, CPUS[:1])
    runs = lesson()
    seeds = [rng.randrange(2**31) for _ in range(SEED_POOL)]
    texts: dict[tuple[int, int], str] = {}
    latencies: list[float] = []
    counts: dict[str, list[int]] = {k: [] for k in (
        "switches", "blocks", "messages", "message_bytes", "events")}
    summary = getattr(derive.run_summary, "__wrapped__", derive.run_summary)
    attempted = failed = violations = 0
    threads_before = pool_stats()["spawned"]
    lesson_rates: list[float] = []
    host_mips: list[float] = []
    for idx, (name, tasks, toggles) in enumerate(runs):  # untimed warm-up
        registry.run_patternlet(name, tasks=tasks, toggles=toggles, seed=seeds[0])
    tracer.take_spans()
    lessons = 0
    t_start = time.perf_counter()
    speed = host_speed(CPUS[0], REFERENCE_ITERATIONS)
    while time.perf_counter() - t_start < seconds:
        seed = seeds[lessons % SEED_POOL]
        lessons += 1
        busy = 0.0
        done = 0
        elapsed_runs: list[float] = []
        for idx, (name, tasks, toggles) in enumerate(runs):
            attempted += 1
            t0 = time.perf_counter()
            try:
                run = registry.run_patternlet(name, tasks=tasks, toggles=toggles,
                                              seed=seed)
            except Exception:  # noqa: BLE001 - a failed run is counted, not fatal
                failed += 1
                continue
            elapsed = time.perf_counter() - t0
            elapsed_runs.append(elapsed)
            busy += elapsed
            done += 1
            if texts.setdefault((idx, seed), run.text) != run.text:
                violations += 1
            if traced:
                events = run.trace.events()
                doc = summary(run.trace, tasks_hint=run.meta.get("tasks"))
                counts["switches"].append(sum(e.kind == "sched.run" for e in events))
                counts["blocks"].append(sum(e.kind == "sched.block" for e in events))
                counts["messages"].append(doc["messages"]["total"])
                counts["message_bytes"].append(doc["messages"]["bytes"])
                counts["events"].append(len(events))
        before, speed = speed, host_speed(CPUS[0], REFERENCE_ITERATIONS)
        scale = (before + speed) / 2
        host_mips.append(speed * REFERENCE_MIPS)
        latencies.extend(e * scale for e in elapsed_runs)
        if done:
            lesson_rates.append(done / (busy * scale))
    spans = tracer.take_spans()
    threads = pool_stats()["spawned"] - threads_before

    # The paper's deterministic figure claims (Fig. 30 is a wall-clock
    # ratio of real threads, so it is no output check).
    for figure, (_desc, check) in FIGURE_CHECKS.items():
        if figure == "Fig. 30":
            continue
        attempted += 1
        try:
            passed, _detail = check()
        except Exception:  # noqa: BLE001
            passed = False
        if not passed:
            violations += 1
    tracer.take_spans()

    p50, _, n = percentile(latencies, 0.50)
    p99, q99, _ = percentile(latencies, 0.99)
    return {
        "attempted": attempted,
        "failed": failed,
        "violations": violations,
        "metrics": {
            "demo_runs_s": (median(lesson_rates), "runs/s"),
            "demo_run_ms_p50": (p50 * 1000.0, "ms"),
            "demo_run_ms_p99": (p99 * 1000.0, "ms"),
        },
        "samples": {"demo_run_ms": n, "demo_run_ms_p99_quantile": round(q99, 5),
                    "lessons": lessons,
                    "classroom_host_mips_p50": round(median(host_mips), 3)},
        "spans": spans,
        "counts": counts,
        "threads_created": threads,
    }
