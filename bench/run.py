"""The repository benchmark: ``classroom``, ``sweep`` and ``serve``.

Usage (from the repository root)::

    python3 bench/run.py --workload classroom|sweep|serve --seed N \\
        --seconds S --trace 0|1

Every run executes three phases in one fresh process, always in the
order classroom, sweep, serve.  The phase named by ``--workload`` is
measured for ``--seconds``; the other two run a short fixed pass, so
every run reports every end-to-end metric.  ``--trace 1`` runs the same
three phases twice, untraced and then with the layer wrappers of
``tracer.py`` installed, and reports the per-layer metrics and the
tracing overhead.  The last stdout line is the result; the line before
it carries the host fingerprint and sample counts.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import time
from typing import Any

from common import (
    BENCH,
    CPUS,
    ROOT,
    SRC,
    WORK,
    child_env,
    child_pids,
    emit,
    fail,
    host_fingerprint,
    host_speed,
    median,
    pin,
    pin_forked_children,
    reap_pool,
)

WORKLOADS = ("classroom", "sweep", "serve")
#: Seconds of the phases a run is not named after (sweep: its minimum rounds).
SIDE_SECONDS = {"classroom": 4.0, "sweep": 0.0, "serve": 5.0}
#: Timed set-ups per run (after one untimed warm-up); the median is reported.
SETUP_SAMPLES = 5


def _probe(kind: str) -> tuple[float, dict[str, Any]]:
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "probe.py"), kind],
                            env=child_env(), cwd=str(WORK), text=True,
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
    pin(proc.pid, CPUS[-1:])
    line = proc.stdout.readline() if proc.stdout else ""
    secs = time.perf_counter() - t0
    rest = proc.communicate(timeout=60)[0]
    if proc.returncode != 0 or not line.startswith("READY "):
        raise RuntimeError(f"set-up probe {kind} failed ({proc.returncode}): {line}{rest}")
    return secs, json.loads(line[len("READY "):])


def measure_setup(kind: str) -> list[float]:
    """Fresh-process set-up times of one phase: imports, engine
    fingerprint and pool spawn, or daemon bind plus ``/healthz``.

    Like the classroom times, each is stated at the reference host speed,
    read on the set-up's CPU just before and just after it.
    """
    import serve

    cpu = CPUS[0] if kind == "serve" else CPUS[-1]

    def once() -> float:
        before = host_speed(cpu)
        if kind == "serve":
            secs = serve.setup_once(WORK / f"setup-cache-{time.monotonic_ns()}")
        else:
            secs = _probe(kind)[0]
        return secs * (before + host_speed(cpu)) / 2

    once()  # warm-up: byte-compiles the sources, fills the page cache
    return [once() for _ in range(SETUP_SAMPLES)]


def run_phases(workload: str, seconds: float, seed: int, traced: bool) -> dict[str, Any]:
    import classroom
    import serve
    import sweep

    phases = {"classroom": classroom, "sweep": sweep, "serve": serve}
    out = {}
    for name, module in phases.items():
        secs = seconds if name == workload else SIDE_SECONDS[name]
        out[name] = module.run_phase(secs, random.Random(f"{seed}:{name}"), traced)
    return out


def _tally(res: dict[str, Any]) -> tuple[int, int, int]:
    return (sum(r["attempted"] for r in res.values()),
            sum(r["failed"] for r in res.values()),
            sum(r["violations"] for r in res.values()))


def end_to_end(res: dict[str, Any], setup: list[float]) -> dict[str, tuple[float, str]]:
    metrics: dict[str, tuple[float, str]] = {
        "setup_s": (median(setup), "s"),
        # The program's processes only: the sweep's pool workers and the
        # daemon, not this process, which also holds the benchmark's data.
        "peak_rss_mb": (max(res["sweep"]["rss_mb"], res["serve"]["rss_mb"]), "MiB"),
    }
    for phase in res.values():
        metrics.update(phase["metrics"])
    return metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "cli.py").is_file():
        fail(f"no program sources under {SRC.relative_to(ROOT)}/; run from a "
             "checkout of the repository")
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    # The program's processes see only this checkout (see child_env).
    env = child_env()
    os.environ.clear()
    os.environ.update(env)
    pin_forked_children()

    host = host_fingerprint()
    try:
        if not args.trace:
            setup = measure_setup(args.workload)
            res = run_phases(args.workload, args.seconds, args.seed, traced=False)
            metrics = end_to_end(res, setup)
        else:
            import layers
            import tracer

            plain = run_phases(args.workload, args.seconds, args.seed, traced=False)
            fingerprint_ms = _probe("sweep")[1]["engine_fingerprint_ms"]
            reap_pool()
            tracer.install_layers()
            tracer.install_pool_courier()
            traced = run_phases(args.workload, args.seconds, args.seed, traced=True)
            metrics = layers.per_layer(args.workload, plain, traced, fingerprint_ms)
            res = {k: dict(v, attempted=v["attempted"] + traced[k]["attempted"],
                           failed=v["failed"] + traced[k]["failed"],
                           violations=v["violations"] + traced[k]["violations"])
                   for k, v in plain.items()}
    finally:
        reap_pool()
    if child_pids():
        fail("a child process outlived the run")

    attempted, failed, violations = _tally(res)
    samples = {k: v for r in res.values() for k, v in r["samples"].items()}
    detail = {"host": host, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "samples": samples,
              "violations": violations}
    result = {
        "correct": violations == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, v, u in
                    ((k, float(v), u) for k, (v, u) in metrics.items())},
    }
    out_dir = WORK / "results"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(result, **detail), sort_keys=True, indent=1))
    emit(detail)
    emit(result)
    return 0 if violations == 0 and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
