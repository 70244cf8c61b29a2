"""Run records and batch results: how a captured run crosses a boundary.

A cached (or pooled) run must survive two hostile crossings — process →
process and process → disk → process — **byte-identically**: the figure
checks read not just the printed text but the full event trace (the
Fig. 22 check re-proves its race from the happens-before edges), so a
served run must rebuild the *entire* stream with perfect fidelity.

JSON alone cannot do that (it collapses tuples — happens-before keys
like ``("mutex", 3)`` — into lists, which are unhashable and would
silently break the race detector).  The codec here closes the gap with a
tagged canonical form:

========  =====================================
value     encoding
========  =====================================
scalar    itself (``None``/bool/int/float/str)
tuple     ``{"t": [...]}``
list      ``{"l": [...]}``
dict      ``{"d": [[key, value], ...]}``
========  =====================================

Every container is tagged, so the decode is unambiguous; anything
outside the vocabulary raises :class:`~repro.errors.CacheUnserializable`
and the run simply executes live instead of being cached.

:func:`run_to_record` / :func:`run_from_record` turn a
:class:`~repro.core.capture.CapturedRun` into one JSON document (events,
span, wall, metadata, result when expressible, and the happens-before
race verdict) and back.  :class:`RunOutcome` / :class:`BatchReport` are
the batch runner's per-run and per-batch summaries.

Above the disk store sits a small in-process memo: because keys are
content addresses (same key ⇒ same record, by construction), a record
decoded once per process never needs decoding again — repeat hits share
the same frozen :class:`~repro.trace.events.Event` objects and skip both
the JSON parse and the event rebuild.  Only the mutable per-run bits
(``meta``, ``result``) are re-decoded from their wire form on each
serve, so served runs never alias each other's mutable state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.core.capture import CapturedRun
from repro.errors import CacheUnserializable
from repro.trace import detect_races
from repro.trace.events import Event, _new_event

__all__ = [
    "RECORD_SCHEMA",
    "BatchReport",
    "RunOutcome",
    "decode_value",
    "encode_value",
    "memo_run",
    "outcome_from_wire",
    "outcome_to_wire",
    "run_from_record",
    "run_to_record",
    "spec_from_wire",
    "spec_to_wire",
]

#: Bumped whenever the record layout changes; mismatched records are
#: treated as cache misses, never as errors.
RECORD_SCHEMA = 1


def _pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile (deterministic; no interpolation)."""
    ordered = sorted(values)
    rank = max(1, -(-int(q * 100) * len(ordered) // 100))  # ceil(q*n)
    return ordered[min(rank, len(ordered)) - 1]

_TAGS = ("t", "l", "d")


def encode_value(value: Any) -> Any:
    """Canonical-JSON encoding of ``value`` (see module docstring).

    Raises :class:`~repro.errors.CacheUnserializable` for anything
    outside the vocabulary (arbitrary objects, sets, bytes, ...).
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, tuple):
        return {"t": [encode_value(v) for v in value]}
    if isinstance(value, list):
        return {"l": [encode_value(v) for v in value]}
    if isinstance(value, dict):
        return {"d": [[encode_value(k), encode_value(v)] for k, v in value.items()]}
    raise CacheUnserializable(
        f"value of type {type(value).__name__} is outside the record vocabulary"
    )


def decode_value(wire: Any) -> Any:
    """Inverse of :func:`encode_value`.

    Only containers are dict-tagged, so scalars pass straight through —
    the recursion (and its fast paths below) only ever descends into
    genuine containers, which keeps the cache-hit decode cheap.
    """
    if isinstance(wire, dict):
        if len(wire) != 1:
            raise CacheUnserializable(f"malformed container tag: {wire!r}")
        tag, body = next(iter(wire.items()))
        if tag == "t":
            return tuple(
                decode_value(v) if type(v) is dict else v for v in body
            )
        if tag == "l":
            return [decode_value(v) if type(v) is dict else v for v in body]
        if tag == "d":
            return {
                (decode_value(k) if type(k) is dict else k): (
                    decode_value(v) if type(v) is dict else v
                )
                for k, v in body
            }
        raise CacheUnserializable(f"unknown container tag {tag!r}")
    return wire


def _event_to_wire(ev: Event) -> list[Any]:
    # Variable-length row: [seq, task, kind, vtime?, hb_acq?, hb_rel?,
    # payload?] with trailing empties trimmed.  Most events are bare
    # [seq, task, kind] rows, which keeps records small and — more
    # importantly — keeps the hit-path decode allocation-light.
    payload = encode_value(ev.payload) if ev.payload else None
    wire = [
        ev.seq,
        ev.task,
        ev.kind,
        ev.vtime,
        encode_value(ev.hb_acq),
        encode_value(ev.hb_rel),
        payload,
    ]
    while len(wire) > 3 and wire[-1] is None:
        wire.pop()
    return wire


def _event_from_wire(wire: list[Any]) -> Event:
    n = len(wire)
    vtime = wire[3] if n > 3 else None
    hb_acq = wire[4] if n > 4 else None
    hb_rel = wire[5] if n > 5 else None
    payload = wire[6] if n > 6 else None
    # Containers are always dict-tagged on the wire, so a non-dict field
    # is already its decoded self — the overwhelmingly common case.
    if type(hb_acq) is dict:
        hb_acq = decode_value(hb_acq)
    if type(hb_rel) is dict:
        hb_rel = decode_value(hb_rel)
    return _new_event(
        wire[0],
        wire[1],
        wire[2],
        vtime,
        hb_acq,
        hb_rel,
        decode_value(payload) if payload is not None else {},
    )


def run_to_record(run: CapturedRun, *, key: str) -> dict[str, Any]:
    """Serialise a captured run as one content-addressed cache record.

    Raises :class:`~repro.errors.CacheUnserializable` when the trace is
    incomplete (events were dropped or evicted — a partial stream must
    not masquerade as the run) or carries out-of-vocabulary values.  The
    ``result`` field is best-effort: runtime handles (``WorldResult``,
    ``TeamResult``) do not serialise, and no deterministic figure check
    reads them, so an inexpressible result is recorded as absent rather
    than blocking the cache.
    """
    trace = run.trace
    if trace.dropped or trace.evicted:
        raise CacheUnserializable("trace is incomplete (dropped/evicted events)")
    events = [_event_to_wire(ev) for ev in trace.events()]
    try:
        result: dict[str, Any] | None = {"value": encode_value(run.result)}
    except CacheUnserializable:
        result = None
    return {
        "schema": RECORD_SCHEMA,
        "key": key,
        "events": events,
        "wall": run.wall,
        "span": run.span,
        "meta": encode_value(run.meta),
        "result": result,
        "races": len(detect_races(trace)),
    }


def run_from_record(record: Mapping[str, Any]) -> CapturedRun:
    """Rebuild a :class:`CapturedRun` from a cache record.

    The trace is preloaded verbatim, so every view — printed text,
    per-task records, span, the happens-before analyses — behaves
    exactly as it did on the original run.  ``meta["cached"]`` marks the
    run as served.
    """
    events = tuple(_event_from_wire(w) for w in record["events"])
    return _run_from_entry(
        (
            events,
            record["wall"],
            record["span"],
            record["meta"],
            record.get("result"),
        )
    )


# -- the in-process decoded-record memo ---------------------------------------

#: Entry cap; eviction is insertion-ordered (oldest first), which is fine
#: for a per-process working set this size.
_MEMO_CAP = 512

_memo: dict[tuple[str, str], tuple[Any, ...]] = {}


def _memo_put(scope: str, key: str, entry: tuple[Any, ...]) -> None:
    k = (scope, key)
    if len(_memo) >= _MEMO_CAP and k not in _memo:
        _memo.pop(next(iter(_memo)))
    _memo[k] = entry


def _memo_serve(scope: str, key: str) -> CapturedRun | None:
    entry = _memo.get((scope, key))
    return _run_from_entry(entry) if entry is not None else None


def _memo_clear() -> None:
    _memo.clear()


def memo_run(
    scope: str, key: str, run: CapturedRun, record: Mapping[str, Any]
) -> None:
    """Memoize a run under its content ``key``, scoped to one store.

    ``scope`` is the owning cache's root path: the memo mirrors a
    *store*, so two caches at different roots stay fully isolated even
    inside one process (``--cache-dir`` must mean what it says).  The
    run's frozen events are shared directly — no decode ever happens
    again for this key — while ``meta``/``result`` stay in wire form so
    serves cannot alias each other's mutable state.
    """
    _memo_put(
        scope,
        key,
        (
            tuple(run.trace.events()),
            record["wall"],
            record["span"],
            record["meta"],
            record.get("result"),
        ),
    )


def _run_from_entry(entry: tuple[Any, ...]) -> CapturedRun:
    events, wall, span, meta_wire, result_wire = entry
    run = CapturedRun()
    run.trace.preload(events)
    run.wall = wall
    run.span = span
    run.meta = decode_value(meta_wire)
    run.meta["cached"] = True
    if result_wire is not None:
        run.result = decode_value(result_wire["value"])
    return run


# -- spec and outcome wire forms (the serve daemon's worker protocol) ---------


def spec_to_wire(spec: Any) -> dict[str, Any]:
    """A :class:`~repro.batch.specs.RunSpec` as one plain-JSON document.

    The serve daemon ships each execution to its lane or a pool worker
    in this form, so specs cross as canonical JSON rather than live
    objects — the same codec discipline as cache records.  Raises
    :class:`~repro.errors.CacheUnserializable` for extras outside the
    record vocabulary.
    """
    return {
        "patternlet": spec.patternlet,
        "tasks": spec.tasks,
        "toggles": [[k, bool(v)] for k, v in spec.toggles],
        "mode": spec.mode,
        "seed": spec.seed,
        "policy": spec.policy,
        "extra": encode_value(spec.extra_dict),
        "topology": spec.topology,
    }


def spec_from_wire(wire: Mapping[str, Any]) -> Any:
    """Inverse of :func:`spec_to_wire`."""
    from repro.batch.specs import RunSpec

    return RunSpec(
        patternlet=wire["patternlet"],
        tasks=wire["tasks"],
        toggles=tuple((k, bool(v)) for k, v in wire["toggles"]),
        mode=wire["mode"],
        seed=wire["seed"],
        policy=wire["policy"],
        extra=tuple(sorted(decode_value(wire["extra"]).items())),
        topology=wire["topology"],
    )


def outcome_to_wire(outcome: "RunOutcome") -> dict[str, Any]:
    """A :class:`RunOutcome` as one plain-JSON document (served results).

    ``metrics`` is best-effort like a record's ``result`` field: a
    summary that will not serialise is shipped as absent rather than
    failing the cell — every consumer of per-cell metrics already
    tolerates ``None`` (uncacheable thread-mode runs have no metrics
    either).
    """
    try:
        metrics = encode_value(outcome.metrics) if outcome.metrics is not None else None
    except CacheUnserializable:
        metrics = None
    return {
        "spec": spec_to_wire(outcome.spec),
        "key": outcome.key,
        "cached": outcome.cached,
        "text": outcome.text,
        "span": outcome.span,
        "wall": outcome.wall,
        "races": outcome.races,
        "error": outcome.error,
        "metrics": metrics,
    }


def outcome_from_wire(wire: Mapping[str, Any]) -> "RunOutcome":
    """Inverse of :func:`outcome_to_wire`."""
    metrics = wire.get("metrics")
    return RunOutcome(
        spec=spec_from_wire(wire["spec"]),
        key=wire["key"],
        cached=bool(wire["cached"]),
        text=wire["text"],
        span=wire["span"],
        wall=wire["wall"],
        races=wire["races"],
        error=wire.get("error"),
        metrics=decode_value(metrics) if metrics is not None else None,
    )


# -- batch summaries ----------------------------------------------------------


@dataclass
class RunOutcome:
    """One spec's outcome inside a batch: output, verdicts, provenance."""

    spec: Any  # RunSpec; typed loosely to avoid an import cycle
    key: str | None
    cached: bool
    text: str
    span: float | None
    wall: float
    races: int
    error: str | None = None
    #: The run's :func:`repro.obs.derive.run_summary` dict (pure function
    #: of the trace — identical whether the run executed or was served).
    metrics: dict[str, Any] | None = None

    @property
    def ok(self) -> bool:
        """True when the run completed (racy output still counts as ran)."""
        return self.error is None


@dataclass
class BatchReport:
    """Everything a batch produced, plus the numbers the CLI/bench report."""

    outcomes: list[RunOutcome] = field(default_factory=list)
    wall_s: float = 0.0
    workers: int = 1
    pooled: bool = False
    #: Aggregated run-cache counters (hits/misses/stores) across every
    #: process that served this batch, when the runner collected them.
    cache_stats: dict[str, int] | None = None

    @property
    def runs(self) -> int:
        """Total specs processed."""
        return len(self.outcomes)

    @property
    def hits(self) -> int:
        """Runs served from the content-addressed cache."""
        return sum(1 for o in self.outcomes if o.cached)

    @property
    def executed(self) -> int:
        """Runs actually computed (misses plus uncacheable specs)."""
        return self.runs - self.hits

    @property
    def errors(self) -> list[RunOutcome]:
        """Outcomes whose run raised."""
        return [o for o in self.outcomes if not o.ok]

    @property
    def hit_rate(self) -> float:
        """Cache hits over total runs (0.0 for an empty batch)."""
        return self.hits / self.runs if self.runs else 0.0

    @property
    def throughput_runs_s(self) -> float:
        """Completed runs per wall second."""
        return self.runs / self.wall_s if self.wall_s > 0 else 0.0

    def cell_stats(self) -> dict[str, dict[str, Any]]:
        """Per-grid-cell metric percentiles across seeds.

        A *cell* is one (patternlet, tasks, toggles, topology, extras)
        combination; the seeds inside it form the sample.  For each
        derived metric the cell reports nearest-rank p50/p90 and the max
        — the numbers a grader scans to spot the one seed whose schedule
        collapsed, or (in a ``--topology a,b`` sweep) to compare span
        across communicator topologies at one np.
        """
        cells: dict[str, list[RunOutcome]] = {}
        for o in self.outcomes:
            if o.metrics is None:
                continue
            label = o.spec.patternlet
            if o.spec.tasks is not None:
                label += f" np={o.spec.tasks}"
            for t, on in o.spec.toggles:
                label += f" {t}={'on' if on else 'off'}"
            if o.spec.topology is not None:
                label += f" topo={o.spec.topology}"
            for k, v in o.spec.extra:
                label += f" {k}={v}"
            cells.setdefault(label, []).append(o)
        out: dict[str, dict[str, Any]] = {}
        for label in sorted(cells):
            outs = cells[label]
            series = {
                "span": [o.metrics["span"] for o in outs],
                "speedup": [o.metrics["speedup"] for o in outs],
                "efficiency": [o.metrics["efficiency"] for o in outs],
                "blocked_steps": [
                    sum(sum(per.values()) for per in o.metrics["blocked"].values())
                    for o in outs
                ],
                "messages": [o.metrics["messages"]["total"] for o in outs],
            }
            cell: dict[str, Any] = {"seeds": len(outs)}
            for name, values in series.items():
                cell[name] = {
                    "p50": _pct(values, 0.50),
                    "p90": _pct(values, 0.90),
                    "max": max(values),
                }
            out[label] = cell
        return out

    def stats(self) -> dict[str, Any]:
        """The report as one flat JSON-able dict (CI artifacts, bench)."""
        out: dict[str, Any] = {
            "runs": self.runs,
            "executed": self.executed,
            "hits": self.hits,
            "hit_rate": round(self.hit_rate, 4),
            "errors": len(self.errors),
            "wall_s": round(self.wall_s, 4),
            "throughput_runs_s": round(self.throughput_runs_s, 1),
            "workers": self.workers,
            "pooled": self.pooled,
        }
        if self.cache_stats is not None:
            out["cache_hits"] = self.cache_stats.get("hits", 0)
            out["cache_misses"] = self.cache_stats.get("misses", 0)
            out["cache_stores"] = self.cache_stats.get("stores", 0)
            out["cache_evictions"] = self.cache_stats.get("evictions", 0)
        cells = self.cell_stats()
        if cells:
            out["cells"] = cells
        return out
