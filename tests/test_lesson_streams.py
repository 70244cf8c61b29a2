"""Golden pin of every event a classroom lesson records.

``test_golden_interleavings`` pins the printed text and span of one
patternlet; this pins the whole event stream of every run in a lesson —
the 14 paper-figure runs, then the "crank the task count" demos at np 16
and 64 — for seeds 0 and 1.  Each run is reduced to one SHA-256 over its
compact-JSON wire rows (the cache record's event encoding), so an event
that is added, dropped, reordered or re-attributed fails here even when
the printed output is unchanged.

Region scopes, message uids and cell names come from process-global
counters, so a run's stream depends on what ran before it in the same
interpreter.  The lesson therefore runs in one fresh interpreter, in the
order below, exactly as the goldens were generated.  Regenerate (only
with a justified semantic change) with::

    PYTHONPATH=src python tests/test_lesson_streams.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_lesson_streams.json"

#: One lesson: ``(patternlet, tasks, toggle overrides)``, in run order.
LESSON: tuple[tuple[str, int | None, dict[str, bool] | None], ...] = (
    ("openmp.spmd", None, {"parallel": False}),
    ("openmp.spmd", 4, None),
    ("mpi.spmd", 1, None),
    ("mpi.spmd", 4, None),
    ("openmp.barrier", None, {"barrier": False}),
    ("openmp.barrier", None, {"barrier": True}),
    ("mpi.barrier", 4, {"barrier": False}),
    ("mpi.barrier", 4, {"barrier": True}),
    ("openmp.parallelLoopEqualChunks", 2, None),
    ("mpi.parallelLoopEqualChunks", 4, None),
    ("openmp.reduction", None, {"parallel_for": True}),
    ("openmp.reduction", None, {"parallel_for": True, "reduction": True}),
    ("mpi.reduction", 10, None),
    ("mpi.gather", 6, None),
) + tuple(
    (name, np, None)
    for name in ("mpi.spmd", "mpi.broadcast", "mpi.reduction", "mpi.gather",
                 "openmp.reduction")
    for np in (16, 64)
)
SEEDS = (0, 1)


def case_id(name: str, tasks: int | None,
            toggles: dict[str, bool] | None, seed: int) -> str:
    np = "default" if tasks is None else f"np{tasks}"
    tg = ",".join(
        f"{k}={'on' if v else 'off'}" for k, v in sorted((toggles or {}).items())
    )
    return f"{name}/{np}/{tg or '-'}/seed{seed}"


def lesson_digests() -> dict[str, str]:
    """Run the lesson once per seed; digest each run's wire-form stream."""
    from repro.batch.results import _event_to_wire
    from repro.core import run_patternlet

    out = {}
    for seed in SEEDS:
        for name, tasks, toggles in LESSON:
            run = run_patternlet(name, tasks=tasks, toggles=toggles, seed=seed,
                                 topology="binomial")
            rows = [_event_to_wire(ev) for ev in run.trace.events()]
            blob = json.dumps(rows, separators=(",", ":")).encode()
            out[case_id(name, tasks, toggles, seed)] = hashlib.sha256(blob).hexdigest()
    return out


#: Empty when the file is missing, which the coverage test reports.
GOLDEN: dict[str, str] = (
    json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
)


@pytest.fixture(scope="module")
def fresh_digests() -> dict[str, str]:
    import repro

    env = dict(os.environ)
    env["PYTHONPATH"] = str(pathlib.Path(repro.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, __file__], env=env, capture_output=True, text=True,
        timeout=300, check=True,
    )
    return json.loads(proc.stdout)


def test_golden_file_covers_the_lesson_for_both_seeds():
    assert len(LESSON) == 24
    assert sorted(GOLDEN) == sorted(
        case_id(*run, seed) for seed in SEEDS for run in LESSON
    )


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_event_stream_matches_golden(case, fresh_digests):
    assert fresh_digests[case] == GOLDEN[case], f"{case}: event stream drifted"


if __name__ == "__main__":
    doc = json.dumps(lesson_digests(), indent=1, sort_keys=True) + "\n"
    if sys.argv[1:] == ["--write"]:
        GOLDEN_PATH.write_text(doc)
    else:
        sys.stdout.write(doc)
