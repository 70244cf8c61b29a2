"""Trace serialisation: Chrome trace-event JSON.

``patternlet trace NAME --out run.json`` writes a file loadable in any
Chrome trace-event viewer (``chrome://tracing``, Perfetto's legacy
importer, speedscope): task lifetimes as begin/end duration events, every
other spine event as an instant on its task's track.  Timestamps are the
trace sequence numbers (one microsecond per event) — the viewers need a
monotonic axis, and for a deterministic lockstep run the interesting axis
*is* the event order, not wall time.

The schema is the "JSON Array Format" of the Trace Event specification:
``{"traceEvents": [...], "displayTimeUnit": "ms"}`` with ``ph`` one of
``M`` (metadata), ``B``/``E`` (duration), ``i`` (instant).
"""

from __future__ import annotations

import json
from typing import Any, Iterable

from repro.trace.events import Event, TraceRecorder, as_events

__all__ = [
    "display_task_name",
    "to_chrome_trace",
    "dumps",
    "write_chrome_trace",
]

TASK_START = "task.start"
TASK_END = "task.end"


def display_task_name(label: str) -> str:
    """Human-friendly name for a task label.

    ``mpi:N`` reads as ``rank N`` and ``omp:N`` as ``thread N``, so
    Perfetto lanes (and report Gantt lanes, which share this helper)
    show ``rank 0..N-1`` instead of bare internal labels.  Nested labels
    keep their nesting: ``mpi:1/omp:0`` → ``rank 1 / thread 0``.
    """
    parts = []
    for part in label.split("/"):
        prefix, _, num = part.partition(":")
        if num.isdigit() and prefix == "mpi":
            parts.append(f"rank {num}")
        elif num.isdigit() and prefix == "omp":
            parts.append(f"thread {num}")
        else:
            parts.append(part)
    return " / ".join(parts)


def _sort_index(label: str) -> int:
    """Stable lane order: main first, then ranks/threads numerically."""
    if label == "main":
        return 0
    index = 0
    for part in label.split("/"):
        _, _, num = part.partition(":")
        if num.isdigit():
            index = index * 1000 + int(num) + 1
        else:
            index = index * 1000 + 999
    return index + 1


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def to_chrome_trace(
    source: "Iterable[Event] | TraceRecorder",
) -> dict[str, Any]:
    """Convert an event stream to a Chrome trace-event document."""
    events = as_events(source)
    tids: dict[str, int] = {}
    out: list[dict[str, Any]] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": 0,
            "tid": 0,
            "args": {"name": "patternlet run"},
        }
    ]
    for ev in events:
        if ev.task not in tids:
            tids[ev.task] = len(tids)
            out.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": 0,
                    "tid": tids[ev.task],
                    "args": {"name": display_task_name(ev.task)},
                }
            )
            out.append(
                {
                    "ph": "M",
                    "name": "thread_sort_index",
                    "pid": 0,
                    "tid": tids[ev.task],
                    "args": {"sort_index": _sort_index(ev.task)},
                }
            )
        args: dict[str, Any] = {k: _jsonable(v) for k, v in ev.payload.items()}
        if ev.vtime is not None:
            args["vtime"] = ev.vtime
        entry: dict[str, Any] = {
            "name": ev.kind,
            "cat": ev.kind.split(".", 1)[0],
            "pid": 0,
            "tid": tids[ev.task],
            "ts": ev.seq,
            "args": args,
        }
        if ev.kind == TASK_START:
            entry["ph"] = "B"
            entry["name"] = ev.payload.get("scope", ev.task)
        elif ev.kind == TASK_END:
            entry["ph"] = "E"
            entry["name"] = ev.payload.get("scope", ev.task)
        else:
            entry["ph"] = "i"
            entry["s"] = "t"  # thread-scoped instant
        out.append(entry)
    return {"traceEvents": out, "displayTimeUnit": "ms"}


def dumps(
    source: "Iterable[Event] | TraceRecorder", *, indent: int | None = None
) -> str:
    """The Chrome trace document as a JSON string."""
    return json.dumps(to_chrome_trace(source), indent=indent, default=str)


def write_chrome_trace(
    path: str, source: "Iterable[Event] | TraceRecorder"
) -> int:
    """Write the Chrome trace JSON to ``path``; returns the event count."""
    events = as_events(source)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(events))
    return len(events)
