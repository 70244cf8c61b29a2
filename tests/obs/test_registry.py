"""The metrics registry and its two deterministic serialisations."""

import math

import pytest

from repro.obs import MetricsRegistry, parse_openmetrics
from repro.obs.registry import DEFAULT_BUCKETS, Counter, Gauge, Histogram


class TestCounter:
    def test_inc_accumulates_per_label_set(self):
        c = Counter("events", "Events.")
        c.inc({"task": "omp:0"})
        c.inc({"task": "omp:0"}, 2)
        c.inc({"task": "omp:1"})
        assert c.value({"task": "omp:0"}) == 3
        assert c.value({"task": "omp:1"}) == 1
        assert c.total() == 4

    def test_label_order_is_irrelevant(self):
        c = Counter("events", "Events.")
        c.inc({"a": 1, "b": 2})
        c.inc({"b": 2, "a": 1})
        assert c.value({"b": 2, "a": 1}) == 2

    def test_negative_increment_rejected(self):
        c = Counter("events", "Events.")
        with pytest.raises(ValueError):
            c.inc(None, -1)

    def test_first_exemplar_wins(self):
        c = Counter("events", "Events.")
        c.inc({"task": "t"}, exemplar={"trace_seq": 5})
        c.inc({"task": "t"}, exemplar={"trace_seq": 9})
        labels, value = c.exemplars[(("task", "t"),)]
        assert dict(labels) == {"trace_seq": "5"} and value == 1

    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError):
            Counter("bad name", "help")


class TestGauge:
    def test_set_replaces_add_shifts(self):
        g = Gauge("frac", "A fraction.")
        g.set(0.5)
        g.set(0.25)
        assert g.value() == 0.25
        g.add(-0.05)
        assert g.value() == pytest.approx(0.2)

    def test_missing_sample_reads_zero(self):
        assert Gauge("frac", "F.").value({"task": "none"}) == 0.0


class TestHistogram:
    def test_cumulative_buckets(self):
        h = Histogram("sizes", "Sizes.", buckets=(1, 10, 100))
        for v in (0.5, 5, 50, 500):
            h.observe(v)
        counts, total, n = h.samples[()]
        assert counts == [1, 2, 3]  # cumulative: le=1, le=10, le=100
        assert n == 4 and total == 555.5
        assert h.count() == 4 and h.sum() == 555.5

    def test_per_label_samples(self):
        h = Histogram("sizes", "Sizes.")
        h.observe(3, {"task": "a"})
        h.observe(7, {"task": "b"})
        assert h.count({"task": "a"}) == 1
        assert h.labels_seen() == [(("task", "a"),), (("task", "b"),)]

    def test_needs_a_bucket(self):
        with pytest.raises(ValueError):
            Histogram("empty", "E.", buckets=())


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        a = reg.counter("hits", "Hits.")
        b = reg.counter("hits", "Hits.")
        assert a is b and len(reg) == 1 and "hits" in reg

    def test_kind_collision_is_an_error(self):
        reg = MetricsRegistry()
        reg.counter("x", "X.")
        with pytest.raises(ValueError):
            reg.gauge("x", "X.")

    def test_families_are_name_sorted(self):
        reg = MetricsRegistry()
        reg.counter("zebra", "Z.")
        reg.gauge("alpha", "A.")
        assert [f.name for f in reg.families()] == ["alpha", "zebra"]

    def test_get_unknown_is_none(self):
        assert MetricsRegistry().get("nope") is None


def _populated_registry():
    reg = MetricsRegistry()
    reg.info["version"] = "1.0.0"
    reg.info["fingerprint"] = "abc123"
    c = reg.counter("messages_sent", "Messages sent.", unit="")
    c.inc({"task": "mpi:0"}, 3, exemplar={"trace_seq": 17})
    c.inc({"task": "mpi:1"}, 2)
    reg.gauge("run_speedup", "Speedup.").set(2.64)
    h = reg.histogram("message_size_bytes", "Sizes.", unit="bytes")
    h.observe(36, {"task": "mpi:0"})
    h.observe(4096, {"task": "mpi:0"})
    return reg


class TestOpenMetricsRoundTrip:
    def test_text_is_eof_terminated(self):
        text = _populated_registry().to_openmetrics()
        assert text.endswith("# EOF\n")

    def test_round_trips_through_the_parser(self):
        reg = _populated_registry()
        doc = parse_openmetrics(reg.to_openmetrics())
        fam = doc["patternlet_messages_sent"]
        assert fam["type"] == "counter"
        by_task = {s["labels"]["task"]: s["value"] for s in fam["samples"]}
        assert by_task == {"mpi:0": 3, "mpi:1": 2}

    def test_exemplar_survives_the_round_trip(self):
        doc = parse_openmetrics(_populated_registry().to_openmetrics())
        sample = doc["patternlet_messages_sent"]["samples"][0]
        assert sample["exemplar"] == {
            "labels": {"trace_seq": "17"},
            "value": 3,  # the amount of the increment that pinned it
        }

    def test_histogram_suffixes_fold_back(self):
        doc = parse_openmetrics(_populated_registry().to_openmetrics())
        fam = doc["patternlet_message_size_bytes"]
        assert fam["type"] == "histogram" and fam["unit"] == "bytes"
        suffixes = {s.get("suffix") for s in fam["samples"]}
        assert {"_bucket", "_count", "_sum"} <= suffixes
        inf_bucket = [
            s for s in fam["samples"]
            if s.get("suffix") == "_bucket" and s["labels"].get("le") == "+Inf"
        ]
        assert inf_bucket and inf_bucket[0]["value"] == 2

    def test_info_metric_carries_identity(self):
        doc = parse_openmetrics(_populated_registry().to_openmetrics())
        info = doc["patternlet_engine"]["samples"][0]
        assert info["labels"]["fingerprint"] == "abc123"
        assert info["suffix"] == "_info" and info["value"] == 1

    def test_export_is_deterministic(self):
        assert (
            _populated_registry().to_openmetrics()
            == _populated_registry().to_openmetrics()
        )

    def test_label_escaping_round_trips(self):
        reg = MetricsRegistry()
        reg.counter("c", "C.").inc({"k": 'quo"te\\back\nline'})
        doc = parse_openmetrics(reg.to_openmetrics())
        labels = doc["patternlet_c"]["samples"][0]["labels"]
        assert labels["k"] == 'quo"te\\back\nline'

    def test_escaped_backslash_then_n_is_not_a_newline(self):
        # ``\\n`` is an escaped backslash followed by a literal ``n`` —
        # a replace-chain unescaper would wrongly decode it to ``\n``.
        reg = MetricsRegistry()
        reg.counter("c", "C.").inc({"path": "dir\\name"})
        doc = parse_openmetrics(reg.to_openmetrics())
        assert doc["patternlet_c"]["samples"][0]["labels"]["path"] == "dir\\name"

    def test_literal_brace_inside_label_value(self):
        # A ``}`` inside a quoted value must not terminate the label set.
        reg = MetricsRegistry()
        reg.counter("c", "C.").inc({"expr": "f(x) { return 1; }", "site": "a"})
        doc = parse_openmetrics(reg.to_openmetrics())
        labels = doc["patternlet_c"]["samples"][0]["labels"]
        assert labels == {"expr": "f(x) { return 1; }", "site": "a"}

    def test_exemplar_free_counter_round_trips(self):
        reg = MetricsRegistry()
        reg.counter("plain", "P.").inc({"task": "t"}, 4)
        doc = parse_openmetrics(reg.to_openmetrics())
        (sample,) = doc["patternlet_plain"]["samples"]
        assert sample["value"] == 4 and "exemplar" not in sample


class TestParserStrictness:
    def test_missing_eof_rejected(self):
        with pytest.raises(ValueError, match="EOF"):
            parse_openmetrics("# TYPE x counter\nx_total 1\n")

    def test_content_after_eof_rejected(self):
        with pytest.raises(ValueError, match="after"):
            parse_openmetrics("# EOF\nx_total 1\n")

    def test_malformed_sample_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_openmetrics("x_total one\n# EOF\n")

    def test_inf_values_parse(self):
        doc = parse_openmetrics("g{le=\"+Inf\"} +Inf\n# EOF\n")
        assert doc["g"]["samples"][0]["value"] == math.inf


class TestJsonExport:
    def test_fully_ordered(self):
        doc = _populated_registry().to_json()
        assert doc["schema"] == 1 and doc["prefix"] == "patternlet"
        assert list(doc["engine"]) == sorted(doc["engine"])
        assert list(doc["families"]) == sorted(doc["families"])

    def test_histogram_entry_shape(self):
        doc = _populated_registry().to_json()
        fam = doc["families"]["message_size_bytes"]
        assert fam["buckets"] == list(DEFAULT_BUCKETS)
        (sample,) = fam["samples"]
        assert sample["count"] == 2 and sample["sum"] == 4132.0
