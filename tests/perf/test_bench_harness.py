"""The perf-regression harness: reports, comparison policy, CLI wiring."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.perf import bench
from repro.perf.bench import (
    HIGHER_IS_BETTER,
    bench_msg_throughput,
    bench_switch_rate,
    compare,
    format_table,
    load_report,
    make_report,
    save_report,
)

METRICS = {
    "msg_throughput_immutable": 100000.0,
    "msg_throughput_mutable": 50000.0,
    "switch_rate": 200000.0,
    "bcast_ms_p2": 0.05,
    "figure_suite_wall_s": 0.07,
}


class TestComparePolicy:
    def test_identical_metrics_pass(self):
        assert compare(METRICS, METRICS) == []

    def test_small_dip_within_tolerance_passes(self):
        current = dict(METRICS, switch_rate=METRICS["switch_rate"] * 0.75)
        assert compare(current, METRICS, tolerance=0.30) == []

    def test_throughput_collapse_fails(self):
        current = dict(METRICS, switch_rate=METRICS["switch_rate"] * 0.5)
        failures = compare(current, METRICS, tolerance=0.30)
        assert len(failures) == 1
        assert "switch_rate" in failures[0]

    def test_latency_regression_never_fails(self):
        # Wall/latency metrics are reported, not gated (too noisy in CI).
        current = dict(METRICS, bcast_ms_p2=METRICS["bcast_ms_p2"] * 100)
        assert compare(current, METRICS) == []

    def test_missing_metric_is_skipped(self):
        current = {k: v for k, v in METRICS.items() if k != "switch_rate"}
        assert compare(current, METRICS) == []
        assert compare(METRICS, current) == []

    def test_tolerance_is_configurable(self):
        current = dict(METRICS, switch_rate=METRICS["switch_rate"] * 0.75)
        assert compare(current, METRICS, tolerance=0.10) != []

    def test_only_throughput_metrics_can_gate(self):
        assert set(HIGHER_IS_BETTER) == {
            "msg_throughput_immutable",
            "msg_throughput_mutable",
            "msg_throughput_cow",
            "msg_throughput_buffer",
            "switch_rate",
            "switch_rate_np64",
            "batch_throughput_runs_s",
            "served_runs_s",
        }
        assert set(bench.LOWER_IS_BETTER) == {
            "bcast_ms_p32",
            "allreduce_ms_p64",
            "serve_p50_ms",
            "serve_p99_ms",
        }

    def test_gated_metric_absent_from_baseline_warns_but_passes(self):
        # An older baseline file predating a gated metric must not fail
        # the check — but the un-armed gate is reported, not silent.
        current = dict(METRICS, batch_throughput_runs_s=1000.0)
        skips: list[str] = []
        assert compare(current, METRICS, on_skip=skips.append) == []
        assert len(skips) == 1
        assert "batch_throughput_runs_s" in skips[0]
        assert "regenerate the baseline" in skips[0]

    def test_no_skip_warning_when_baseline_has_the_metric(self):
        current = dict(METRICS, batch_throughput_runs_s=1000.0)
        baseline = dict(METRICS, batch_throughput_runs_s=900.0)
        skips: list[str] = []
        assert compare(current, baseline, on_skip=skips.append) == []
        assert skips == []

    def test_ungated_metrics_never_trigger_skip_warnings(self):
        current = dict(METRICS, brand_new_latency_ms=1.0)
        skips: list[str] = []
        assert compare(current, METRICS, on_skip=skips.append) == []
        assert skips == []


class TestReports:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "bench.json"
        save_report(str(path), make_report(METRICS, quick=True))
        report = load_report(str(path))
        assert report["schema"] == bench.SCHEMA
        assert report["quick"] is True
        assert report["metrics"] == METRICS

    def test_bare_metric_dict_is_accepted(self, tmp_path):
        # A hand-written baseline {metric: value} works as a --check target.
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(METRICS))
        report = load_report(str(path))
        assert report["metrics"] == METRICS
        assert report["schema"] == 0

    def test_saved_json_is_diff_stable(self, tmp_path):
        path = tmp_path / "bench.json"
        save_report(str(path), make_report(METRICS))
        text = path.read_text()
        assert text.endswith("\n")
        keys = list(json.loads(text)["metrics"])
        assert keys == sorted(keys)

    def test_format_table_shows_baseline_ratios(self):
        current = dict(METRICS, switch_rate=METRICS["switch_rate"] * 2)
        lines = format_table(current, METRICS)
        assert any("2.00x baseline" in line for line in lines)
        assert len(lines) == len(current)


class TestMetricFunctions:
    def test_msg_throughput_is_positive(self):
        assert bench_msg_throughput(1, n=50) > 0

    def test_switch_rate_is_positive(self):
        assert bench_switch_rate(tasks=2, k=50) > 0


class TestRemeasure:
    def test_failing_gates_get_best_of_n(self, monkeypatch):
        # Each registered sampler is called ``repeats`` times and the
        # best sample wins (interference can only depress a rate).
        calls: list[int] = []
        samples = iter([100.0, 900.0, 300.0])
        monkeypatch.setitem(
            bench._GATED_SAMPLERS,
            "switch_rate",
            lambda s: calls.append(s) or next(samples),
        )
        out = bench.remeasure(
            {"switch_rate": 50.0, "other": 1.0}, ["switch_rate"], repeats=3
        )
        assert out["switch_rate"] == 900.0
        assert out["other"] == 1.0
        assert calls == [1, 1, 1]

    def test_quick_mode_passes_scale_to_samplers(self, monkeypatch):
        seen: list[int] = []
        monkeypatch.setitem(
            bench._GATED_SAMPLERS,
            "switch_rate",
            lambda s: seen.append(s) or 1.0,
        )
        bench.remeasure({"switch_rate": 5.0}, ["switch_rate"], quick=True,
                        repeats=2)
        assert seen == [5, 5]

    def test_unsampled_names_pass_through(self):
        # Suite-level metrics have no sampler; remeasure leaves them be.
        metrics = {"batch_throughput_runs_s": 10.0}
        assert bench.remeasure(metrics, ["batch_throughput_runs_s"]) == metrics

    def test_every_sampler_name_is_a_gated_metric(self):
        gated = set(HIGHER_IS_BETTER) | set(bench.LOWER_IS_BETTER)
        assert set(bench._GATED_SAMPLERS) <= gated

    def test_latency_remeasure_takes_the_minimum(self, monkeypatch):
        samples = iter([5.0, 2.0, 9.0])
        monkeypatch.setitem(
            bench._GATED_SAMPLERS, "bcast_ms_p32", lambda s: next(samples)
        )
        out = bench.remeasure({"bcast_ms_p32": 9.0}, ["bcast_ms_p32"],
                              repeats=3)
        assert out["bcast_ms_p32"] == 2.0


class TestServeBench:
    def test_serve_gates_have_samplers(self):
        # A failing serve gate must be re-measurable like any other.
        assert {"served_runs_s", "serve_p50_ms", "serve_p99_ms"} <= set(
            bench._GATED_SAMPLERS
        )

    def test_nearest_rank_percentile(self):
        values = [float(v) for v in range(1, 101)]
        assert bench._pct(values, 0.50) == 50.0
        assert bench._pct(values, 0.99) == 99.0
        assert bench._pct([7.0], 0.99) == 7.0

    def test_warm_identical_burst_coalesces_completely(self):
        # The acceptance bar: a warm burst of identical-spec requests
        # never reaches the execution tier — coalesce_hit_rate is 1.0.
        out = bench.bench_serve(quick=True, rounds=1, clients=4, requests=40)
        assert set(out) == {
            "serve_p50_ms",
            "serve_p99_ms",
            "served_runs_s",
            "coalesce_hit_rate",
            "serve_direct_ms",
        }
        assert out["coalesce_hit_rate"] == 1.0
        assert out["served_runs_s"] > 0
        assert out["serve_p50_ms"] <= out["serve_p99_ms"]


class TestCli:
    @pytest.fixture
    def fake_metrics(self, monkeypatch):
        # The CLI imports run_benchmarks at call time, so patching the
        # bench module swaps in instant fake numbers.  remeasure is
        # stubbed to a no-op so a fake "regression" is not rescued (or
        # slowed down) by ten very real benchmark repetitions.
        monkeypatch.setattr(
            bench,
            "run_benchmarks",
            lambda *, quick, progress=None, topology=None: dict(METRICS),
        )
        monkeypatch.setattr(
            bench,
            "remeasure",
            lambda metrics, names, **kw: dict(metrics),
        )
        return METRICS

    def test_bench_writes_report(self, fake_metrics, tmp_path, capsys):
        out = tmp_path / "BENCH_runtime.json"
        assert main(["bench", "--quick", "--out", str(out)]) == 0
        assert load_report(str(out))["metrics"] == METRICS
        assert "msg_throughput_immutable" in capsys.readouterr().out

    def test_bench_check_passes_against_self(self, fake_metrics, tmp_path):
        baseline = tmp_path / "baseline.json"
        save_report(str(baseline), make_report(METRICS))
        assert main(["bench", "--quick", "--check", str(baseline)]) == 0

    def test_bench_check_fails_on_regression(self, fake_metrics, tmp_path):
        inflated = {
            k: v * 2 if k in HIGHER_IS_BETTER else v for k, v in METRICS.items()
        }
        baseline = tmp_path / "baseline.json"
        save_report(str(baseline), make_report(inflated))
        assert main(["bench", "--quick", "--check", str(baseline)]) == 1

    def test_bench_check_remeasure_rescues_transient_dip(
        self, monkeypatch, tmp_path, capsys
    ):
        # First pass reads a dipped switch_rate; the best-of-N retry
        # comes back healthy, so the check passes instead of flagging a
        # phantom regression.
        dipped = dict(METRICS, switch_rate=METRICS["switch_rate"] * 0.5)
        monkeypatch.setattr(
            bench,
            "run_benchmarks",
            lambda *, quick, progress=None, topology=None: dict(dipped),
        )
        retried: list[list[str]] = []
        monkeypatch.setattr(
            bench,
            "remeasure",
            lambda metrics, names, **kw: retried.append(names)
            or dict(metrics, switch_rate=METRICS["switch_rate"]),
        )
        baseline = tmp_path / "baseline.json"
        save_report(str(baseline), make_report(METRICS))
        assert main(["bench", "--quick", "--check", str(baseline)]) == 0
        assert retried == [["switch_rate"]]
        err = capsys.readouterr().err
        assert "re-measuring" in err
        assert "perf check passed" in err

    def test_bench_check_missing_baseline_errors(self, fake_metrics, tmp_path):
        missing = tmp_path / "nope.json"
        assert main(["bench", "--quick", "--check", str(missing)]) == 1

    def test_bench_check_warns_on_unarmed_gate(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(
            bench,
            "run_benchmarks",
            lambda *, quick, progress=None, topology=None: dict(
                METRICS, batch_throughput_runs_s=1000.0
            ),
        )
        baseline = tmp_path / "baseline.json"
        save_report(str(baseline), make_report(METRICS))  # predates the metric
        assert main(["bench", "--quick", "--check", str(baseline)]) == 0
        err = capsys.readouterr().err
        assert "warning:" in err and "batch_throughput_runs_s" in err
