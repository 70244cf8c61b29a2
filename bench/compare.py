"""Compare two sets of benchmark results, refusing results from different hosts.

Usage: ``python3 bench/compare.py BASE_DIR NEW_DIR``.  Each directory
holds result files written by ``run.py`` (``.bench_work/results/``).
For every workload and end-to-end metric it prints both medians, the
change against the base, and whether the change stays within the
metric's bound from ``BENCHMARK.json``.  Exits 2 without comparing when
the results come from different hosts: any CPU count, CPU model or
Python version differs, or the two sets' median calibration scores
differ by more than ``CALIBRATION_TOLERANCE``.  Exits 1 when a metric
got worse by more than its bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from common import ROOT, same_host


def _load(directory: str) -> list[dict]:
    rows = [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*.json"))]
    if not rows:
        raise SystemExit(f"compare: no results in {directory}")
    return rows


def main(base_dir: str, new_dir: str) -> int:
    base, new = _load(base_dir), _load(new_dir)
    if not same_host([r["host"] for r in base], [r["host"] for r in new]):
        hosts = sorted({json.dumps(r["host"], sort_keys=True) for r in base + new})
        print("compare: refusing: results come from different hosts:\n  "
              + "\n  ".join(hosts), file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    worse = 0
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        for workload in sorted({r["workload"] for r in base}):
            a = [r["metrics"][name]["value"] for r in base
                 if r["workload"] == workload and name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in new
                 if r["workload"] == workload and name in r["metrics"]]
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / ma
            regressed = (change if lower else -change) > metric["bound"]
            worse += regressed
            print(f"{workload:10s} {name:20s} {ma:12.4f} -> {mb:12.4f} "
                  f"{change:+8.1%} (n={len(a)}/{len(b)})"
                  f"{'  WORSE' if regressed else ''}")
    return 1 if worse else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
