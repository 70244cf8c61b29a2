"""Per-layer metrics of a traced run, from its spans and counters.

Each figure is taken on the phase whose end-to-end metric it should
move (README.md has the map): engine layers on ``classroom``, record
writes on the cold ``sweep`` pass, record reads on the warm pass, and
the daemon's layers on ``serve``.
"""

from __future__ import annotations

from typing import Any

from common import median
from tracer import self_times

TIERS = ("memo", "coalesce", "cache", "execute")


def _durations(spans: list[tuple], name: str) -> list[float]:
    return [s[2] - s[1] for s in spans if s[0] == name]


def _p50_ms(spans: list[tuple], name: str) -> float:
    return median(_durations(spans, name)) * 1000.0


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _overhead_pct(workload: str, plain: dict[str, Any], traced: dict[str, Any]) -> float:
    """How much slower the traced phase ran, on its headline figure."""
    if workload == "serve":  # a latency: the traced one is the larger
        return (traced["serve"]["samples"]["serve_p50_ms"]
                / plain["serve"]["samples"]["serve_p50_ms"]) * 100.0 - 100.0
    metric = {"classroom": "demo_runs_s", "sweep": "sweep_cold_cells_s"}[workload]
    return (plain[workload]["metrics"][metric][0]
            / traced[workload]["metrics"][metric][0]) * 100.0 - 100.0


def per_layer(workload: str, plain: dict[str, Any], traced: dict[str, Any],
              fingerprint_ms: float) -> dict[str, tuple[float, str]]:
    from sweep import WORKERS

    m: dict[str, tuple[float, str]] = {}

    room = traced["classroom"]
    spans = room["spans"]
    selfs = self_times(spans)
    m["core.capture_run.self_ms"] = (median([
        selfs[(s[6], s[3])] for s in spans if s[0] == "core.capture_run"]) * 1000.0, "ms")
    m["mp.MpRuntime.run.ms_p50"] = (_p50_ms(spans, "mp.MpRuntime.run"), "ms")
    m["smp.SmpRuntime.parallel.ms_p50"] = (_p50_ms(spans, "smp.SmpRuntime.parallel"), "ms")
    for key, name, unit in (("switches", "sched.switches_per_run", "count"),
                            ("blocks", "sched.blocks_per_run", "count"),
                            ("messages", "mp.messages_per_run", "count"),
                            ("message_bytes", "mp.message_bytes_per_run", "bytes"),
                            ("events", "trace.events_per_run", "count")):
        m[name] = (_mean(room["counts"][key]), unit)
    # Counted in the untraced pass: the first lessons of a fresh process.
    m["sched.pool.threads_created"] = (plain["classroom"]["threads_created"], "count")

    sw = traced["sweep"]
    cold, warm = sw["spans"]["cold"], sw["spans"]["warm"]
    execute = _p50_ms(cold, "core.capture_run")
    put = _p50_ms(cold, "batch.cache.put")
    m["core.run_patternlet.ms_p50"] = (_p50_ms(cold, "core.run_patternlet"), "ms")
    m["sweep.cold.execute.ms_p50"] = (execute, "ms")
    m["batch.results.run_to_record.ms_p50"] = (_p50_ms(cold, "batch.results.run_to_record"), "ms")
    m["batch.results.record_bytes_p50"] = (median(sw["record_bytes"]), "bytes")
    m["batch.cache.put.ms_p50"] = (put, "ms")
    m["batch.cache.put_over_execute"] = (put / execute if execute else 0.0, "ratio")
    m["batch.cache.get.ms_p50"] = (_p50_ms(warm, "batch.cache.get"), "ms")
    m["batch.results.run_from_record.ms_p50"] = (
        _p50_ms(warm, "batch.results.run_from_record"), "ms")
    m["obs.derive.run_summary.ms_p50"] = (_p50_ms(warm, "obs.derive.run_summary"), "ms")
    m["trace.detect_races.ms_p50"] = (_p50_ms(warm, "trace.detect_races"), "ms")
    m["batch.cache.hit_share"] = (sw["hit_share"], "fraction")
    cells = sum(_durations(cold, "batch.pool.cell"))
    m["batch.pool.busy_share"] = (cells / (sw["wall_sums"]["cold"] * WORKERS), "fraction")
    # Self times of every layer in a pass add up to the busy time of its
    # workers: per pass and worker, against the untraced wall of the pass.
    for phase, phase_spans in (("cold", cold), ("warm", warm)):
        per_pass = sum(self_times(phase_spans).values()) / sw["passes"][phase] / WORKERS
        m[f"sweep.{phase}.layer_sum_over_wall"] = (
            per_pass / plain["sweep"]["walls"][phase], "ratio")
    cap = sw["cap"]
    m["batch.cache.prunes"] = (cap["prunes"], "count")
    m["batch.cache.disk_bytes"] = (cap["disk_bytes"], "bytes")
    m["batch.cache.disk_over_cap"] = (cap["disk_bytes"] / cap["cap_bytes"], "ratio")

    srv = traced["serve"]
    dspans = srv["spans"]
    keys = _durations(cold + warm + dspans, "batch.specs.spec_key")
    m["batch.specs.spec_key.us_p50"] = (median(keys) * 1e6, "us")
    m["batch.specs.engine_fingerprint.ms"] = (fingerprint_ms, "ms")
    m["serve.parse_run_request.us_p50"] = (
        median(_durations(dspans, "serve.parse_run_request")) * 1e6, "us")
    m["serve.execute.ms_p50"] = (_p50_ms(dspans, "serve.execute"), "ms")
    served = {s[5]: s for s in dspans if s[0] == "serve.serve_run"}
    by_tier: dict[str, list[float]] = {t: [] for t in TIERS}
    daemon_self: list[float] = []
    for x in srv["exchanges"]:
        span = served.get(x.rid)
        if x.kind == "sweep" or span is None:
            continue
        by_tier[x.served].append(span[2] - span[1])
        daemon_self.append((x.done - x.sent) - (span[2] - span[1]))
    for tier in ("memo", "cache", "execute"):
        m[f"serve.serve_run.{tier}.ms_p50"] = (median(by_tier[tier]) * 1000.0, "ms")
    m["serve.daemon.self_ms_p50"] = (median(daemon_self) * 1000.0, "ms")
    for tier in TIERS:
        m[f"serve.tier_share.{tier}"] = (srv["tier_share"].get(tier, 0.0), "fraction")
    m["serve.gen_lag_ms_p99"] = (srv["gen_lag_ms_p99"], "ms")
    m["serve.matched_requests"] = (len(daemon_self), "count")
    m["trace_overhead_pct"] = (_overhead_pct(workload, plain, traced), "%")
    return m

