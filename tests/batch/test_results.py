"""The spec/outcome wire codecs and the shared JSON writer.

The serve daemon ships every execution to its lane or a pool worker as
wire documents, so a spec must survive the round trip exactly and an
outcome must keep the fingerprint (text, span, races) the equivalence
suite pins.
"""

from __future__ import annotations

import json

import pytest

from repro.batch.cache import write_json
from repro.batch.pool import run_specs
from repro.batch.results import (
    outcome_from_wire,
    outcome_to_wire,
    spec_from_wire,
    spec_to_wire,
)
from repro.batch.specs import RunSpec
from repro.errors import CacheUnserializable


def _grid(n):
    return [RunSpec.make("openmp.spmd", tasks=3, seed=s) for s in range(n)]


class TestWireCodecs:
    def test_spec_round_trip(self):
        spec = RunSpec.make(
            "mpi.reduction",
            tasks=6,
            toggles={"barrier": True},
            seed=3,
            policy="fifo",
            topology="ring",
            network="hetero2",
        )
        assert spec_from_wire(spec_to_wire(spec)) == spec

    def test_wire_is_json_safe(self):
        spec = RunSpec.make("openmp.spmd", tasks=2, seed=1)
        again = json.loads(json.dumps(spec_to_wire(spec)))
        assert spec_from_wire(again) == spec

    def test_unserializable_extra_raises(self):
        spec = RunSpec.make("openmp.spmd", probe=object())
        with pytest.raises(CacheUnserializable):
            spec_to_wire(spec)

    def test_doc_round_trips_through_the_shared_writer(self, tmp_path):
        report = run_specs(_grid(2), max_workers=1, use_cache=False)
        doc = {"outcomes": [[i, outcome_to_wire(o)]
                            for i, o in enumerate(report.outcomes)]}
        path = tmp_path / "doc.json"
        written = write_json(path, doc)
        assert written == len(path.read_bytes())
        assert path.read_bytes() == json.dumps(doc, separators=(",", ":")).encode()
        assert json.loads(path.read_bytes()) == doc
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]
        assert write_json(tmp_path / "missing" / "x.json", doc) == 0
        assert write_json(tmp_path / "bad.json", {"x": object()}) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]

    def test_outcome_round_trip_preserves_the_fingerprint(self):
        report = run_specs(_grid(2), max_workers=1, use_cache=False)
        for outcome in report.outcomes:
            back = outcome_from_wire(outcome_to_wire(outcome))
            assert (back.text, back.span, back.races) == (
                outcome.text,
                outcome.span,
                outcome.races,
            )
            assert back.spec == outcome.spec
            assert back.metrics == outcome.metrics
