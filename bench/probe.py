"""Set-up probe: a fresh process that gets one unit of work ready.

Usage: ``python3 bench/probe.py classroom|sweep``.  Prints one line
``READY <json>`` when ready, then tears down what it started.

- ``classroom``: import the engine and resolve every lesson patternlet;
- ``sweep``: import the batch layer, compute the engine fingerprint,
  spawn the two-worker pool and get its first cells back.
"""

import json
import sys
import time


def main(kind: str) -> int:
    doc = {}
    if kind == "classroom":
        from repro.core.registry import get_patternlet

        from classroom import lesson

        for name, _tasks, _toggles in lesson():
            get_patternlet(name)
    elif kind == "sweep":
        from repro.batch import RunSpec, engine_fingerprint, run_specs, shutdown_pool

        t0 = time.perf_counter()
        engine_fingerprint()
        doc["engine_fingerprint_ms"] = (time.perf_counter() - t0) * 1000.0
        first = [RunSpec.make("mpi.spmd", tasks=1, seed=s) for s in (0, 1)]
        report = run_specs(first, max_workers=2, use_cache=False)
        if report.errors or not report.pooled:
            return 1
    else:
        return 2
    print("READY " + json.dumps(doc), flush=True)
    if kind == "sweep":
        shutdown_pool()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
