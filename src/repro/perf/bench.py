"""Engine microbenchmarks and baseline comparison.

Four metric families, chosen to cover every layer the execution engine
optimises:

``msg_throughput_immutable`` / ``msg_throughput_mutable`` /
``msg_throughput_cow`` / ``msg_throughput_buffer``
    One-directional rank0→rank1 message stream under the lockstep
    executor, messages per second — one metric per transport lane
    (:func:`repro.mp.serialize.pack_packet`'s decision ladder).  The
    immutable variant sends an ``int`` (the by-reference fast path) and
    deliberately runs at the default ``batch=1``, so it guards the
    classroom token-handoff path end to end.  The mutable variant sends
    a small flat ``list`` (the ``cow-flat`` shallow-snapshot lane),
    ``cow`` a nested 8×8 list (the full freeze walk + lazy proxies, at a
    size where a pickle round-trip used to hurt), and ``buffer`` a
    16 KiB ``bytearray`` (the buffer-protocol snapshot lane); these
    three run under batched arbitration
    (``batch=64``) — the configuration a throughput-bound harness would
    actually use — which is what moved the mutable gate from 90k to
    450k+ msgs/s.

``switch_rate`` / ``switch_rate_np64``
    Lockstep task switches per second: spinners on bare ``checkpoint()``
    calls, measured over the executor's own step counter.  This isolates
    the switch-point primitive from transport costs.  ``switch_rate``
    runs under batched arbitration (``batch=32``), where a quantum'd
    checkpoint is a few attribute reads instead of an OS handoff — the
    1M+ switches/s headline.  The ``np64`` variant runs 64 spinners at
    the default ``batch=1`` and is gated separately: it guards both the
    un-batched handoff floor and the O(log np) ready index — a
    per-switch table scan (or a batching regression that leaks into the
    default path) craters exactly this metric.

``np1024_spmd_wall_s``
    Wall seconds for one warm np=1024 spmd world (no communication):
    the world setup + serial rank chain cost at the executor's scaling
    ceiling.  Reported, not gated — CI asserts completion via the
    np=1024 smoke test instead, since absolute wall clock at this scale
    is machine noise on shared runners.

``run_setup_ms``
    Fixed per-run overhead: wall milliseconds per empty 4-rank lockstep
    world, warm rank pool.  This is the thread-spawn amortisation the
    rank pool (:mod:`repro.sched.pool`) buys; it is what bounds batch
    throughput on cache misses.

``bcast_ms_p{2,4,8,32}``
    Wall milliseconds per 64-element broadcast at 2/4/8/32 ranks — the
    collective-latency-vs-rank-count curve; exercises the pack-once
    forwarding path (p32 adds the large-np point where mailbox matching
    and switch selection costs would dominate if they were O(np)).
    Each point is the *fastest registered communicator topology* at that
    rank count (pin one with ``bench --topology``), so the metric tracks
    the engine's best collective path as topologies evolve.

``allreduce_ms_p64``
    Wall milliseconds per scalar allreduce at 64 ranks, again the
    fastest topology — the many-rank combining path (reduction + fan-out
    or ring pipeline) that the topology registry is supposed to keep
    cheap.  Gated (see below).

``figure_suite_np64_wall_s``
    Wall seconds for the scaling demo: the three classroom-representative
    patternlets (spmd, broadcast, reduction) each run once at np=64 —
    the "crank the task count" mechanic the paper teaches with.

``figure_suite_wall_s``
    Wall seconds for one pass of the figure self-check
    (:func:`repro.core.selfcheck.run_selfcheck`, cache disabled) — the
    end-to-end number a classroom actually feels on first run.

``batch_throughput_runs_s`` / ``cache_hit_rate`` / ``figure_suite_batch_wall_s``
    The batch layer (:mod:`repro.batch`): a cold pass over the
    deterministic figure-suite spec grid into a private cache, then warm
    passes served entirely from it.  ``batch_throughput_runs_s`` is the
    warm (cache-served) rate, ``cache_hit_rate`` the warm pass's hit
    fraction (1.0 when the cache is sound), and
    ``figure_suite_batch_wall_s`` the cold batch's wall clock.

``serve_p50_ms`` / ``serve_p99_ms`` / ``served_runs_s`` / ``coalesce_hit_rate``
    The service daemon (:mod:`repro.serve`): a 300-request burst of one
    identical Fig. 21/22 grid cell from 8 keep-alive client threads
    against a live warm daemon, interleaved A/B with direct in-process
    cache-served runs (``serve_direct_ms``, reported).  The percentiles
    are client-observed request latencies (gated lower-is-better:
    best-of-rounds minima, same stability argument as the collective
    latencies), ``served_runs_s`` the burst throughput (gated), and
    ``coalesce_hit_rate`` the fraction of burst requests that cost no
    execution — 1.0 exactly when single-flight coalescing plus the
    response memo are sound, which the serve tests pin.

``selfcheck_cold_wall_s`` / ``selfcheck_warm_wall_s`` / ``selfcheck_warm_speedup``
    Interleaved A/B over the full self-check: alternating
    cache-disabled (A) and cache-served (B) passes, best-of-each, so
    both arms see the same machine state.  The speedup is the number the
    tentpole promises (≥ 2x warm).

All engine benchmarks run under ``muted()`` so they measure the engine,
not the trace recorder; the trace fast path is itself covered because
muting is exactly the one-attribute-read guard the emit sites take.

Comparison policy: throughput metrics (:data:`HIGHER_IS_BETTER`) fail a
check when they drop more than ``tolerance`` (default 30%) below the
baseline; the fastest-topology collective latencies
(:data:`LOWER_IS_BETTER`: ``bcast_ms_p32``, ``allreduce_ms_p64``) fail
when they *rise* more than ``tolerance`` above it — these are best-of
minima over several topologies, which bounds their noise enough to gate.
A gated metric *absent from the baseline* is skipped with a warning (new
metrics must not break older baselines).  The remaining latency/wall
metrics are *reported* but never fail a check — shared CI machines make
absolute milliseconds too noisy to gate on, while a 30% throughput
collapse on the same machine within one run is a real regression.

A failing gate is re-measured before the verdict: the CLI calls
:func:`remeasure` on just the failing metrics (best of 10 fresh
samples) and compares again.  This shields the check from hosts whose
effective CPU speed swings in multi-minute phases — a slow phase can
depress every sample of a three-repetition estimate — without
weakening the gate, since no amount of resampling speeds up a truly
slower engine.
"""

from __future__ import annotations

import json
import platform
import time
from typing import Any, Callable, Mapping

from repro.trace import muted

__all__ = [
    "HIGHER_IS_BETTER",
    "LOWER_IS_BETTER",
    "SCHEMA",
    "bench_allreduce_latency",
    "bench_batch_suite",
    "bench_bcast_latency",
    "bench_figure_suite",
    "bench_large_np_suite",
    "bench_msg_throughput",
    "bench_np1024_spmd",
    "bench_run_setup",
    "bench_selfcheck_ab",
    "bench_serve",
    "bench_switch_rate",
    "compare",
    "format_table",
    "load_report",
    "make_report",
    "remeasure",
    "run_benchmarks",
    "save_report",
]

SCHEMA = 1

#: Metrics where bigger numbers are better; only these can fail a check.
HIGHER_IS_BETTER = (
    "msg_throughput_immutable",
    "msg_throughput_mutable",
    "msg_throughput_cow",
    "msg_throughput_buffer",
    "switch_rate",
    "switch_rate_np64",
    "batch_throughput_runs_s",
    "served_runs_s",
)

#: Latency metrics where smaller numbers are better; these fail a check
#: when they rise more than ``tolerance`` above the baseline.  Only
#: best-of-several minima qualify (the fastest-topology collectives, the
#: serve daemon's best-round percentiles): a min over several
#: independently-run samples is stable enough to gate, where a single
#: raw latency is not.
LOWER_IS_BETTER = (
    "bcast_ms_p32",
    "allreduce_ms_p64",
    "serve_p50_ms",
    "serve_p99_ms",
)

def bench_msg_throughput(payload: Any = 12345, *, n: int = 3000, batch: int = 1) -> float:
    """Messages/second for a rank0→rank1 stream of ``payload`` copies.

    ``batch`` selects the lockstep arbitration quantum (see
    :class:`~repro.sched.lockstep.LockstepExecutor`): 1 measures the
    classroom default, >1 the amortised-handoff configuration.

    The clock runs *inside* the world, from the post-barrier start of the
    stream to the receiver draining its last message.  World setup and
    teardown (pool lease, executor construction) are ``run_setup_ms``'s
    job; folding them in here made the measured rate depend on ``n`` —
    at current transport speeds setup was ~25% of a ``--quick`` run —
    so quick and full runs disagreed about the same engine.
    """
    from repro.mp.runtime import MpRuntime

    start = [0.0]

    def main(comm):
        comm.barrier()
        if comm.rank == 0:
            start[0] = time.perf_counter()
            for _ in range(n):
                comm.send(payload, 1, tag=0)
            return None
        for _ in range(n):
            comm.recv(source=0, tag=0)
        # Draining message n proves rank 0 already stamped the start.
        return time.perf_counter() - start[0]

    rt = MpRuntime(mode="lockstep", seed=0, batch=batch)
    with muted():
        dt = rt.run(2, main).results[1]
    return n / dt


def bench_switch_rate(*, tasks: int = 4, k: int = 20000, batch: int = 1) -> float:
    """Lockstep task switches/second: ``tasks`` spinners × ``k`` checkpoints."""
    from repro.sched.lockstep import LockstepExecutor

    ex = LockstepExecutor(batch=batch)

    def body():
        for _ in range(k):
            ex.checkpoint()

    with muted():
        t0 = time.perf_counter()
        ex.run_tasks([body] * tasks, [f"t{i}" for i in range(tasks)])
        dt = time.perf_counter() - t0
    return ex.step_count / dt


def bench_run_setup(*, np: int = 4, runs: int = 100) -> float:
    """Fixed per-run overhead: wall ms per empty ``np``-rank lockstep run.

    Each iteration builds a fresh :class:`~repro.mp.runtime.MpRuntime`
    and runs a no-op world — the setup/teardown a ``patternlet run`` or
    a batch cache miss pays before any patternlet code executes.  One
    warm-up run first, so the measurement sees the steady state a run
    loop actually lives in (rank pool populated, imports warm).
    """
    from repro.mp.runtime import MpRuntime

    def main(comm):
        return None

    with muted():
        MpRuntime(mode="lockstep", seed=0).run(np, main)  # warm the pool
        t0 = time.perf_counter()
        for _ in range(runs):
            MpRuntime(mode="lockstep", seed=0).run(np, main)
        dt = time.perf_counter() - t0
    return dt / runs * 1000


def bench_np1024_spmd(*, np: int = 1024, repeats: int = 3) -> float:
    """Wall seconds for one warm ``np``-rank spmd world (no communication).

    One warm-up run populates the rank pool (its MAX_IDLE is sized to
    park a whole np=1024 team); the best of ``repeats`` is reported —
    world setup can only be slowed by interference, never sped up.
    """
    from repro.mp.runtime import MpRuntime

    def main(comm):
        return comm.rank

    with muted():
        MpRuntime(mode="lockstep", seed=0).run(np, main)  # warm the pool
        best = float("inf")
        for _ in range(repeats):
            best = min(best, MpRuntime(mode="lockstep", seed=0).run(np, main).wall)
    return best


def bench_large_np_suite(*, np: int = 64) -> float:
    """Wall seconds to run the three classroom patternlets at ``np`` tasks.

    spmd, broadcast and reduction (the "crank the task count" demos) run
    once each at ``np`` under the seeded lockstep scheduler — the
    end-to-end cost of the scaling mechanic the paper's patternlets are
    built around.
    """
    from repro.core.registry import run_patternlet

    t0 = time.perf_counter()
    for name in ("mpi.spmd", "mpi.broadcast", "openmp.reduction"):
        run_patternlet(name, tasks=np, mode="lockstep", seed=0)
    return time.perf_counter() - t0


def bench_bcast_latency(
    p: int, *, iters: int = 50, topology: str | None = None
) -> float:
    """Wall milliseconds per 64-element broadcast across ``p`` ranks.

    ``topology`` pins the communicator algorithm set (``None`` = the
    process default); :func:`run_benchmarks` reports the fastest across
    every registered topology.

    Timed in-world between two barriers (same reasoning as
    :func:`bench_msg_throughput`): folding world setup into ``dt/iters``
    made the per-op latency depend on ``iters``, so quick and full runs
    disagreed about the same collective.
    """
    from repro.mp.runtime import MpRuntime

    start = [0.0]

    def main(comm):
        comm.barrier()
        if comm.rank == 0:
            start[0] = time.perf_counter()
        for _ in range(iters):
            comm.bcast(list(range(64)), root=0)
        comm.barrier()
        if comm.rank == 0:
            return time.perf_counter() - start[0]
        return None

    rt = MpRuntime(mode="lockstep", seed=0, topology=topology)
    with muted():
        dt = rt.run(p, main).results[0]
    return dt / iters * 1000


def bench_allreduce_latency(
    p: int = 64, *, iters: int = 20, topology: str | None = None
) -> float:
    """Wall milliseconds per scalar allreduce across ``p`` ranks.

    In-world timing, like :func:`bench_bcast_latency`.
    """
    from repro.mp.runtime import MpRuntime

    start = [0.0]

    def main(comm):
        comm.barrier()
        if comm.rank == 0:
            start[0] = time.perf_counter()
        for _ in range(iters):
            comm.allreduce(comm.rank)
        comm.barrier()
        if comm.rank == 0:
            return time.perf_counter() - start[0]
        return None

    rt = MpRuntime(mode="lockstep", seed=0, topology=topology)
    with muted():
        dt = rt.run(p, main).results[0]
    return dt / iters * 1000


def bench_figure_suite() -> float:
    """Wall seconds for one full figure self-check pass (cache disabled).

    Cache-off keeps this metric's meaning stable against the committed
    baselines: it is the *compute* cost of the suite.  The cache-served
    cost is :func:`bench_selfcheck_ab`'s warm arm.
    """
    from repro.core.selfcheck import run_selfcheck

    t0 = time.perf_counter()
    run_selfcheck(use_cache=False)
    return time.perf_counter() - t0


def bench_batch_suite(*, quick: bool = False, repeats: int = 3) -> dict[str, float]:
    """Cold + warm batch passes over the figure-suite grid (private cache).

    The cold pass computes every spec into a throwaway cache directory;
    ``repeats`` warm passes then serve it back.  Returns the three batch
    metrics described in the module docstring.  Warm throughput is the
    best of the repeats — a cache read can only be slowed by
    interference, never sped up.
    """
    import shutil
    import tempfile

    from repro.batch import figure_suite_specs, run_specs

    specs = figure_suite_specs(seeds=range(2 if quick else 4))
    tmp = tempfile.mkdtemp(prefix="repro-bench-cache-")
    try:
        cold = run_specs(specs, max_workers=1, use_cache=True, cache_dir=tmp)
        warms = [
            run_specs(specs, max_workers=1, use_cache=True, cache_dir=tmp)
            for _ in range(repeats)
        ]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    best = max(warms, key=lambda r: r.throughput_runs_s)
    return {
        "batch_throughput_runs_s": round(best.throughput_runs_s, 1),
        "cache_hit_rate": round(min(w.hit_rate for w in warms), 4),
        "figure_suite_batch_wall_s": round(cold.wall_s, 3),
    }


def _pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile (deterministic; no interpolation)."""
    ordered = sorted(values)
    rank = max(1, -(-int(q * 100) * len(ordered) // 100))  # ceil(q*n)
    return ordered[min(rank, len(ordered)) - 1]


#: The serve-bench burst spec: one Fig. 21/22 grid cell (mpi.reduction
#: at np=10 is a FIGURE_RUNS entry), identical across every request so
#: the whole burst coalesces/caches onto at most one execution.
_SERVE_SPEC = {"patternlet": "mpi.reduction", "np": 10, "seed": 0}


def _serve_swarm(
    port: int, body: bytes, *, clients: int, requests: int
) -> tuple[list[float], float]:
    """Fire ``requests`` identical POSTs from ``clients`` keep-alive
    connections; returns (per-request latencies in ms, burst wall s)."""
    import http.client
    from concurrent.futures import ThreadPoolExecutor

    def one_client(n: int) -> list[float]:
        lat: list[float] = []
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            for _ in range(n):
                t0 = time.perf_counter()
                conn.request("POST", "/run", body=body)
                resp = conn.getresponse()
                resp.read()
                lat.append((time.perf_counter() - t0) * 1000.0)
                if resp.status != 200:
                    raise RuntimeError(f"serve bench got HTTP {resp.status}")
        finally:
            conn.close()
        return lat

    shares = [requests // clients + (1 if i < requests % clients else 0)
              for i in range(clients)]
    t0 = time.perf_counter()
    with ThreadPoolExecutor(max_workers=clients) as pool:
        chunks = list(pool.map(one_client, shares))
    wall = time.perf_counter() - t0
    return [ms for chunk in chunks for ms in chunk], wall


def bench_serve(
    *, quick: bool = False, rounds: int = 3, clients: int = 8,
    requests: int = 300,
) -> dict[str, float]:
    """Concurrent client swarm against a live daemon, warm cache, A/B direct.

    A private daemon (one execution lane, private cache) is primed with
    one request for the burst spec; each round then fires a
    ``requests``-strong burst of *identical* requests from ``clients``
    keep-alive connections (A) and, back to back, the same number of
    direct in-process cache-served runs (B) — so the serving overhead is
    priced against the same machine state that produced the direct
    number.

    ``serve_p50_ms`` / ``serve_p99_ms`` are client-observed request
    latencies (best across rounds — interference only ever inflates a
    latency), ``served_runs_s`` the best burst throughput, and
    ``coalesce_hit_rate`` the fraction of burst requests that did *not*
    cost an execution — exactly 1.0 when coalescing + caching are sound,
    since the daemon was warm.  ``serve_direct_ms`` (reported only) is
    the direct arm's per-run cost, the floor the HTTP hop is measured
    against.  The burst stays at full size in quick mode: the whole A/B
    is a few seconds, and a smaller burst would sample queueing, not
    steady-state serving.
    """
    import shutil
    import tempfile

    from repro.batch.cache import RunCache, caching_runs
    from repro.core.registry import run_patternlet
    from repro.serve import ServeConfig, running

    del quick
    tmp = tempfile.mkdtemp(prefix="repro-bench-serve-")
    body = json.dumps(_SERVE_SPEC).encode()
    p50s: list[float] = []
    p99s: list[float] = []
    rates: list[float] = []
    hit_rates: list[float] = []
    direct_ms: list[float] = []
    try:
        cfg = ServeConfig(workers=1, cache_dir=tmp, queue_limit=1024,
                          deadline_ms=60_000.0)
        with running(cfg) as daemon:
            service = daemon.service
            assert service is not None
            # Prime: the one execution the whole benchmark pays.
            _serve_swarm(daemon.port, body, clients=1, requests=1)
            for _ in range(rounds):
                before = service.c_executions.total()
                lats, wall = _serve_swarm(daemon.port, body,
                                          clients=clients, requests=requests)
                executed = service.c_executions.total() - before
                p50s.append(_pct(lats, 0.50))
                p99s.append(_pct(lats, 0.99))
                rates.append(requests / wall if wall > 0 else 0.0)
                hit_rates.append(1.0 - executed / requests)
                with muted(), caching_runs(RunCache(tmp), enabled=True):
                    t0 = time.perf_counter()
                    for _ in range(requests):
                        run_patternlet(_SERVE_SPEC["patternlet"],
                                       tasks=_SERVE_SPEC["np"],
                                       mode="lockstep",
                                       seed=_SERVE_SPEC["seed"])
                    direct_ms.append(
                        (time.perf_counter() - t0) / requests * 1000.0)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {
        "serve_p50_ms": round(min(p50s), 3),
        "serve_p99_ms": round(min(p99s), 3),
        "served_runs_s": round(max(rates), 1),
        "coalesce_hit_rate": round(min(hit_rates), 4),
        "serve_direct_ms": round(min(direct_ms), 3),
    }


def bench_selfcheck_ab(*, rounds: int = 3) -> dict[str, float]:
    """Interleaved A/B: cache-disabled vs cache-served full self-checks.

    Alternates one cold (A) and one warm (B) pass per round against a
    private pre-primed cache, taking the best of each arm, so both arms
    sample the same machine conditions — the measurement discipline the
    engine benchmarks established for cross-commit comparisons.
    """
    import shutil
    import tempfile

    from repro.core.selfcheck import run_selfcheck

    tmp = tempfile.mkdtemp(prefix="repro-bench-ab-")
    try:
        run_selfcheck(use_cache=True, cache_dir=tmp)  # prime
        cold: list[float] = []
        warm: list[float] = []
        for _ in range(rounds):
            t0 = time.perf_counter()
            run_selfcheck(use_cache=False)
            cold.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            run_selfcheck(use_cache=True, cache_dir=tmp)
            warm.append(time.perf_counter() - t0)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    best_cold, best_warm = min(cold), min(warm)
    return {
        "selfcheck_cold_wall_s": round(best_cold, 3),
        "selfcheck_warm_wall_s": round(best_warm, 3),
        "selfcheck_warm_speedup": round(best_cold / best_warm, 2)
        if best_warm > 0
        else 0.0,
    }


def run_benchmarks(
    *,
    quick: bool = False,
    progress: Callable[[str], None] | None = None,
    topology: str | None = None,
) -> dict[str, float]:
    """Run the full metric set; returns ``{metric: value}``.

    ``quick`` shrinks iteration counts ~5× for CI smoke runs — noisier,
    but each metric stays well above timer resolution, and the 30%
    check tolerance absorbs the jitter.

    ``topology`` pins the collective-latency benches to one communicator
    topology; by default each reports the fastest registered topology at
    its rank count.

    The gated throughput metrics are each the best of three repetitions:
    a rate sample can only be depressed by interference (GC, a noisy
    neighbour on a shared runner), never inflated, so the maximum is the
    best estimate of the engine's actual speed and the one that makes a
    30% regression gate trustworthy.
    """
    scale = 5 if quick else 1
    note = progress or (lambda _msg: None)
    out: dict[str, float] = {}
    note("msg throughput (immutable payload, batch=1 default path)")
    out["msg_throughput_immutable"] = round(
        max(bench_msg_throughput(12345, n=3000 // scale) for _ in range(3)), 1
    )
    note("msg throughput (mutable payload, batch=64)")
    out["msg_throughput_mutable"] = round(
        max(
            bench_msg_throughput([1, 2, 3], n=3000 // scale, batch=64)
            for _ in range(3)
        ),
        1,
    )
    note("msg throughput (CoW nested 8x8 list, batch=64)")
    cow_payload = [list(range(8)) for _ in range(8)]
    out["msg_throughput_cow"] = round(
        max(
            bench_msg_throughput(cow_payload, n=3000 // scale, batch=64)
            for _ in range(3)
        ),
        1,
    )
    note("msg throughput (16 KiB bytearray buffer lane, batch=64)")
    out["msg_throughput_buffer"] = round(
        max(
            bench_msg_throughput(bytearray(16384), n=3000 // scale, batch=64)
            for _ in range(3)
        ),
        1,
    )
    note("lockstep switch rate (batch=32)")
    out["switch_rate"] = round(
        max(bench_switch_rate(k=20000 // scale, batch=32) for _ in range(3)), 1
    )
    note("lockstep switch rate at np=64 (batch=1 default path)")
    out["switch_rate_np64"] = round(
        max(bench_switch_rate(tasks=64, k=20000 // scale) for _ in range(3)), 1
    )
    note("np=1024 spmd world wall clock")
    out["np1024_spmd_wall_s"] = round(
        bench_np1024_spmd(repeats=1 if quick else 3), 4
    )
    note("per-run setup cost (pool-amortised)")
    out["run_setup_ms"] = round(bench_run_setup(runs=100 // scale), 3)
    from repro.mp.communicators import available_topologies

    topos = [topology] if topology else available_topologies()
    for p in (2, 4, 8, 32):
        note(f"bcast latency at {p} ranks ({'/'.join(t or 'default' for t in topos)})")
        out[f"bcast_ms_p{p}"] = round(
            min(
                bench_bcast_latency(p, iters=50 // scale, topology=t)
                for t in topos
            ),
            3,
        )
    note(f"allreduce latency at 64 ranks ({'/'.join(t or 'default' for t in topos)})")
    out["allreduce_ms_p64"] = round(
        min(
            bench_allreduce_latency(64, iters=20 // scale, topology=t)
            for t in topos
        ),
        3,
    )
    note("figure suite wall clock")
    out["figure_suite_wall_s"] = round(bench_figure_suite(), 3)
    note("large-np patternlet suite at 64 tasks")
    out["figure_suite_np64_wall_s"] = round(bench_large_np_suite(), 3)
    note("batch runner: cold + warm figure-suite grid")
    out.update(bench_batch_suite(quick=quick))
    note("service daemon: 300-request coalescing swarm over a warm cache")
    out.update(bench_serve(quick=quick, rounds=1 if quick else 3))
    note("selfcheck cold/warm interleaved A/B")
    out.update(bench_selfcheck_ab(rounds=1 if quick else 3))
    return out


def _best_bcast_ms_p32(scale: int) -> float:
    from repro.mp.communicators import available_topologies

    return min(
        bench_bcast_latency(32, iters=50 // scale, topology=t)
        for t in available_topologies()
    )


def _best_allreduce_ms_p64(scale: int) -> float:
    from repro.mp.communicators import available_topologies

    return min(
        bench_allreduce_latency(64, iters=20 // scale, topology=t)
        for t in available_topologies()
    )


def _serve_sample(metric: str) -> Callable[[int], float]:
    def sample(scale: int) -> float:
        del scale  # the burst is fixed-size (see bench_serve)
        return bench_serve(rounds=2)[metric]

    return sample


#: One raw sample per gated microbench metric, keyed by metric name.
#: Payloads, iteration counts and batch sizes mirror
#: :func:`run_benchmarks` exactly — each sampler takes the quick-mode
#: ``scale`` divisor (5 for quick, 1 for full).  Batch throughput is
#: deliberately absent (a whole cold+warm grid is too expensive to
#: retry); the serve burst *is* sampled — it is under a second and its
#: scheduling noise is exactly the transient a best-of-N retry exists
#: to shed.
_GATED_SAMPLERS: dict[str, Callable[[int], float]] = {
    "served_runs_s": _serve_sample("served_runs_s"),
    "serve_p50_ms": _serve_sample("serve_p50_ms"),
    "serve_p99_ms": _serve_sample("serve_p99_ms"),
    "msg_throughput_immutable": lambda s: bench_msg_throughput(12345, n=3000 // s),
    "msg_throughput_mutable": lambda s: bench_msg_throughput(
        [1, 2, 3], n=3000 // s, batch=64
    ),
    "msg_throughput_cow": lambda s: bench_msg_throughput(
        [list(range(8)) for _ in range(8)], n=3000 // s, batch=64
    ),
    "msg_throughput_buffer": lambda s: bench_msg_throughput(
        bytearray(16384), n=3000 // s, batch=64
    ),
    "switch_rate": lambda s: bench_switch_rate(k=20000 // s, batch=32),
    "switch_rate_np64": lambda s: bench_switch_rate(tasks=64, k=20000 // s),
    "bcast_ms_p32": _best_bcast_ms_p32,
    "allreduce_ms_p64": _best_allreduce_ms_p64,
}


def remeasure(
    metrics: Mapping[str, float],
    names: list[str],
    *,
    quick: bool = False,
    repeats: int = 10,
    progress: Callable[[str], None] | None = None,
) -> dict[str, float]:
    """Best-of-``repeats`` re-measurement of specific gated metrics.

    A regression verdict deserves more samples than a pass.  On a busy
    or frequency-scaling host, the three-sample estimate from
    :func:`run_benchmarks` can land entirely inside a slow CPU phase and
    read 30-50% under the engine's true speed.  Interference only ever
    *depresses* a throughput sample, so taking the best of many extra
    repetitions converges on the real rate without hiding a genuine
    regression — a truly slower engine cannot luck its way back above
    the baseline floor.

    Returns a copy of ``metrics`` with every metric in ``names`` that
    has a registered sampler replaced by its re-measured value; names
    without a sampler (suite walls, absolute gates) pass through
    unchanged.  "Best" honours the metric's direction: max for
    throughputs, min for the gated latencies.
    """
    scale = 5 if quick else 1
    note = progress or (lambda _msg: None)
    out = dict(metrics)
    for name in names:
        sampler = _GATED_SAMPLERS.get(name)
        if sampler is None:
            continue
        note(f"re-measuring {name} (best of {repeats})")
        samples = [sampler(scale) for _ in range(repeats)]
        if name in LOWER_IS_BETTER:
            out[name] = round(min(samples), 3)
        else:
            out[name] = round(max(samples), 1)
    return out


# -- reports and baseline comparison -----------------------------------------


def make_report(metrics: Mapping[str, float], *, quick: bool = False) -> dict:
    """Wrap raw metrics in the versioned report envelope."""
    return {
        "schema": SCHEMA,
        "quick": quick,
        "python": platform.python_version(),
        "metrics": dict(metrics),
    }


def save_report(path: str, report: Mapping[str, Any]) -> None:
    """Write a report as stable, diff-friendly JSON (sorted keys)."""
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_report(path: str) -> dict:
    """Load a report; a bare ``{metric: value}`` dict is also accepted."""
    with open(path) as fh:
        data = json.load(fh)
    if "metrics" not in data:
        data = {"schema": 0, "metrics": data}
    return data


def compare(
    current: Mapping[str, float],
    baseline: Mapping[str, float],
    *,
    tolerance: float = 0.30,
    on_skip: Callable[[str], None] | None = None,
) -> list[str]:
    """Failure messages for throughput metrics that regressed past tolerance.

    Empty list means the check passes.  Metrics missing from either side
    are skipped — a newly added metric has no baseline to regress
    against, and gating on its absence would break every older baseline
    file.  Each skip of a *gated* metric is reported through ``on_skip``
    (the CLI prints it as a warning) so a silently un-gated metric is
    visible rather than mistaken for a passing check.
    """
    failures: list[str] = []
    for name in HIGHER_IS_BETTER:
        if name not in current:
            continue
        if name not in baseline:
            if on_skip is not None:
                on_skip(
                    f"{name}: absent from baseline; gate skipped "
                    f"(regenerate the baseline to arm it)"
                )
            continue
        base = baseline[name]
        if base <= 0:
            continue
        floor = base * (1.0 - tolerance)
        if current[name] < floor:
            failures.append(
                f"{name}: {current[name]:.1f} is {1 - current[name] / base:.0%} "
                f"below baseline {base:.1f} (tolerance {tolerance:.0%})"
            )
    for name in LOWER_IS_BETTER:
        if name not in current:
            continue
        if name not in baseline:
            if on_skip is not None:
                on_skip(
                    f"{name}: absent from baseline; gate skipped "
                    f"(regenerate the baseline to arm it)"
                )
            continue
        base = baseline[name]
        if base <= 0:
            continue
        ceiling = base * (1.0 + tolerance)
        if current[name] > ceiling:
            failures.append(
                f"{name}: {current[name]:.3f}ms is "
                f"{current[name] / base - 1:.0%} above baseline "
                f"{base:.3f}ms (tolerance {tolerance:.0%})"
            )
    return failures


def format_table(
    current: Mapping[str, float], baseline: Mapping[str, float] | None = None
) -> list[str]:
    """Human-readable metric rows, with deltas when a baseline is given."""
    lines = []
    width = max(len(k) for k in current)
    for name, value in current.items():
        row = f"{name:<{width}}  {value:>12g}"
        if baseline and name in baseline and baseline[name]:
            ratio = value / baseline[name]
            row += f"  ({ratio:.2f}x baseline)"
        lines.append(row)
    return lines
