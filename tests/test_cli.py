"""The patternlet command-line tool."""

import pytest

from repro.cli import build_parser, main


class TestParsing:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_flags(self):
        args = build_parser().parse_args(
            ["run", "openmp.spmd", "--tasks", "8", "--on", "parallel", "--seed", "3"]
        )
        assert args.tasks == 8 and args.on == ["parallel"] and args.seed == 3


class TestCommands:
    def test_inventory(self, capsys):
        assert main(["inventory"]) == 0
        out = capsys.readouterr().out
        assert "total       44" in out

    def test_list_all(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "openmp.spmd" in out and "mpi.gather" in out
        assert len(out.strip().splitlines()) == 44

    def test_list_backend(self, capsys):
        assert main(["list", "--backend", "pthreads"]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 9

    def test_show(self, capsys):
        assert main(["show", "openmp.barrier"]) == 0
        out = capsys.readouterr().out
        assert "#pragma omp barrier" in out and "exercise" in out

    def test_show_unknown_is_error(self, capsys):
        assert main(["show", "openmp.zzz"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_run(self, capsys):
        assert main(["run", "openmp.spmd", "--tasks", "3", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("Hello from thread") == 3

    def test_run_with_toggle(self, capsys):
        assert main(
            ["run", "openmp.barrier", "--tasks", "2", "--on", "barrier"]
        ) == 0

    def test_run_attributed(self, capsys):
        assert main(["run", "openmp.spmd", "--attribute", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "[omp:0" in out

    def test_run_bad_toggle(self, capsys):
        assert main(["run", "openmp.spmd", "--on", "hyperdrive"]) == 1

    def test_catalog(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "== execution ==" in out and "Reduction" in out


class TestNewCommands:
    def test_trace(self, capsys):
        assert main(["trace", "openmp.spmd", "--tasks", "2", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "omp:0" in out and "|" in out

    def test_trace_no_legend(self, capsys):
        assert main(
            ["trace", "openmp.spmd", "--tasks", "2", "--no-legend"]
        ) == 0
        out = capsys.readouterr().out
        assert "Hello" not in out  # legend suppressed; lanes only

    def test_selfcheck_single_figure(self, capsys):
        assert main(["selfcheck", "--figure", "Fig. 5"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "1/1" in out

    def test_selfcheck_unknown_figure(self, capsys):
        assert main(["selfcheck", "--figure", "Fig. 99"]) == 1


class TestTraceExport:
    def test_trace_json_is_chrome_schema(self, capsys):
        import json

        assert main(["trace", "openmp.spmd", "--tasks", "2", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "traceEvents" in doc
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert {"M", "B", "E"} <= phases

    def test_trace_out_writes_file(self, capsys, tmp_path):
        import json

        path = tmp_path / "spmd.trace.json"
        assert main(
            ["trace", "openmp.spmd", "--tasks", "2", "--out", str(path)]
        ) == 0
        assert f"wrote" in capsys.readouterr().out
        doc = json.loads(path.read_text())
        names = {e["args"].get("name") for e in doc["traceEvents"]
                 if e["ph"] == "M"}
        # Perfetto lanes carry friendly rank/thread names, not raw labels.
        assert any(n and n.startswith("thread ") for n in names)

    def test_trace_events_lanes(self, capsys):
        assert main(
            ["trace", "openmp.barrier", "--tasks", "2", "--on", "barrier",
             "--events"]
        ) == 0
        out = capsys.readouterr().out
        assert "barrier.arrive" in out and "task.start" in out


class TestDetectRaces:
    def test_racy_run_reports_and_exits_2(self, capsys):
        code = main(["run", "openmp.reduction", "--on", "parallel_for",
                     "--detect-races", "--seed", "1"])
        assert code == 2
        out = capsys.readouterr().out
        assert "RACE DETECTED" in out

    def test_fixed_run_is_clean(self, capsys):
        code = main(["run", "openmp.reduction", "--on", "parallel_for",
                     "--on", "reduction", "--detect-races", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ordered by happens-before" in out


class TestQuizCommand:
    def test_quiz_prints_four_questions(self, capsys):
        assert main(["quiz"]) == 0
        out = capsys.readouterr().out
        assert out.count("Q") >= 4 and "(a)" in out

    def test_quiz_key_marks_answers(self, capsys):
        assert main(["quiz", "--key"]) == 0
        out = capsys.readouterr().out
        assert out.count("*") == 4

    def test_source_command(self, capsys):
        assert main(["source", "mpi.gather"]) == 0
        out = capsys.readouterr().out
        assert "MPI_Gather" in out or "gather" in out


class TestSweepCommand:
    def test_quick_sweep_cold_then_warm(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "runs")
        assert main(["sweep", "--quick", "--cache-dir", cache_dir]) == 0
        cold = capsys.readouterr()
        assert "hit rate 0%" in cold.err
        assert main(["sweep", "--quick", "--cache-dir", cache_dir]) == 0
        warm = capsys.readouterr()
        assert "hit rate 100%" in warm.err

    def test_sweep_stats_out(self, tmp_path, capsys):
        import json

        cache_dir = str(tmp_path / "runs")
        stats = tmp_path / "stats.json"
        assert main(
            ["sweep", "openmp.spmd", "--seeds", "0-2", "--cache-dir", cache_dir,
             "--stats-out", str(stats)]
        ) == 0
        data = json.loads(stats.read_text())
        assert data["runs"] == 3 and data["errors"] == 0
        assert {"hit_rate", "throughput_runs_s", "workers"} <= set(data)

    def test_sweep_jobs_cold_then_warm(self, tmp_path, capsys):
        import json

        from repro.batch.pool import shutdown_pool

        cache_dir = str(tmp_path / "runs")
        stats = tmp_path / "stats.json"
        args = ["sweep", "openmp.spmd", "--seeds", "0-5", "--cache-dir",
                cache_dir, "--stats-out", str(stats)]
        try:
            assert main(args + ["--jobs", "2"]) == 0
            cold = capsys.readouterr()
            assert "2 workers" in cold.err and "hit rate 0%" in cold.err
            pooled = json.loads(stats.read_text())
            assert pooled["workers"] == 2 and pooled["pooled"] is True
            assert pooled["runs"] == 6 and pooled["errors"] == 0
            assert main(args + ["--jobs", "2"]) == 0
            assert "hit rate 100%" in capsys.readouterr().err
            assert json.loads(stats.read_text())["hit_rate"] == 1.0
        finally:
            shutdown_pool()
        assert main(args + ["--jobs", "1", "--no-cache"]) == 0
        serial = json.loads(stats.read_text())
        assert serial["pooled"] is False
        assert serial["cells"] == pooled["cells"]

    def test_sweep_no_cache_never_hits(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "runs")
        args = ["sweep", "openmp.spmd", "--seeds", "0,1", "--cache-dir", cache_dir]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args + ["--no-cache"]) == 0
        assert "hit rate 0%" in capsys.readouterr().err

    def test_sweep_grid_and_toggles(self, tmp_path, capsys):
        assert main(
            ["sweep", "openmp.barrier", "--seeds", "0-3", "--on", "barrier",
             "--tasks", "2,4", "--cache-dir", str(tmp_path / "runs"),
             "--per-run"]
        ) == 0
        out = capsys.readouterr().out
        # 2 task counts x 4 seeds, one line each, plus the summary.
        assert out.count("openmp.barrier") >= 8

    def test_sweep_unknown_patternlet_fails(self, tmp_path, capsys):
        assert main(
            ["sweep", "openmp.zzz", "--cache-dir", str(tmp_path / "runs")]
        ) == 1

    def test_selfcheck_with_jobs_and_cache_flags(self, tmp_path, capsys):
        assert main(
            ["selfcheck", "--jobs", "1", "--cache-dir", str(tmp_path / "runs")]
        ) == 0
        assert main(["selfcheck", "--no-cache"]) == 0


class TestTopologyFlags:
    def test_run_accepts_topology(self, capsys):
        assert main(["run", "mpi.broadcast", "--np", "4",
                     "--topology", "ring"]) == 0
        assert "AFTER  broadcast" in capsys.readouterr().out

    def test_run_unknown_topology_is_an_error(self, capsys):
        assert main(["run", "mpi.broadcast", "--topology", "hypercube"]) == 1
        err = capsys.readouterr().err
        assert "hypercube" in err and "binomial" in err

    def test_run_accepts_network_profile(self, capsys):
        assert main(["run", "mpi.broadcast", "--np", "8",
                     "--network", "hetero2"]) == 0
        assert "AFTER  broadcast" in capsys.readouterr().out

    def test_sweep_crosses_topologies_and_labels_cells(self, tmp_path, capsys):
        assert main(
            ["sweep", "mpi.broadcast", "--np", "4",
             "--topology", "flat,binomial", "--seeds", "0-1",
             "--cache-dir", str(tmp_path / "runs")]
        ) == 0
        out = capsys.readouterr().out
        assert "topo=flat" in out and "topo=binomial" in out

    def test_sweep_rejects_unknown_topology_listing_available(
        self, tmp_path, capsys
    ):
        assert main(
            ["sweep", "mpi.broadcast", "--topology", "flat,hypercube",
             "--cache-dir", str(tmp_path / "runs")]
        ) == 1
        err = capsys.readouterr().err
        assert "hypercube" in err
        assert "hierarchical" in err

    def test_np_is_an_alias_for_tasks_in_sweep(self, tmp_path, capsys):
        assert main(
            ["sweep", "mpi.spmd", "--np", "2,4", "--seeds", "0",
             "--cache-dir", str(tmp_path / "runs")]
        ) == 0
        out = capsys.readouterr().out
        assert "np=2" in out and "np=4" in out

    def test_topology_sweep_on_hetero_network_orders_spans(
        self, tmp_path, capsys
    ):
        import json

        stats = tmp_path / "stats.json"
        assert main(
            ["sweep", "mpi.broadcast", "--np", "32",
             "--topology", "flat,hierarchical", "--network", "hetero2",
             "--seeds", "0", "--cache-dir", str(tmp_path / "runs"),
             "--stats-out", str(stats)]
        ) == 0
        cells = json.loads(stats.read_text())["cells"]
        span = {
            topo: cells[f"mpi.broadcast np=32 topo={topo} network=hetero2"][
                "span"]["p50"]
            for topo in ("flat", "hierarchical")
        }
        assert span["hierarchical"] < span["flat"]


class TestVersionFlag:
    def test_version_shows_engine_fingerprint(self, capsys):
        from repro._version import __version__
        from repro.batch.specs import engine_fingerprint

        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
        out = capsys.readouterr().out
        assert __version__ in out and engine_fingerprint() in out


class TestMetricsFlag:
    def test_metrics_round_trips_through_the_parser(self, capsys):
        from repro.obs import parse_openmetrics

        assert main(
            ["run", "openmp.parallelLoopDynamic", "--np", "4", "--seed", "1",
             "--metrics"]
        ) == 0
        out = capsys.readouterr().out
        text = out[out.index("# TYPE"):]
        doc = parse_openmetrics(text)
        assert "patternlet_loop_iterations" in doc
        assert "patternlet_engine" in doc

    def test_metrics_out_json(self, tmp_path, capsys):
        import json

        path = tmp_path / "metrics.json"
        assert main(
            ["run", "openmp.spmd", "--tasks", "2", "--metrics-out", str(path)]
        ) == 0
        doc = json.loads(path.read_text())
        assert doc["schema"] == 1 and "summary" in doc
        assert doc["engine"]["patternlet"] == "openmp.spmd"

    def test_metrics_out_openmetrics_text(self, tmp_path, capsys):
        from repro.obs import parse_openmetrics

        path = tmp_path / "metrics.om"
        assert main(
            ["run", "openmp.spmd", "--tasks", "2", "--metrics-out", str(path)]
        ) == 0
        parse_openmetrics(path.read_text())  # strict; must not raise


class TestReportCommand:
    def test_report_writes_self_contained_html(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["report", "openmp/parallelLoopDynamic", "--np", "4"]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        files = list(tmp_path.glob("*.html"))
        assert len(files) == 1
        html = files[0].read_text(encoding="utf-8")
        assert "Per-rank timeline (Gantt)" in html
        assert "<script src" not in html and "https://" not in html

    def test_report_out_flag(self, tmp_path, capsys):
        path = tmp_path / "run.html"
        assert main(
            ["report", "mpi.messagePassing", "--np", "4", "--out", str(path)]
        ) == 0
        html = path.read_text(encoding="utf-8")
        assert "rank 0" in html and "Message matrix" in html

    def test_report_unknown_patternlet_fails(self, tmp_path, capsys):
        assert main(
            ["report", "openmp.zzz", "--out", str(tmp_path / "x.html")]
        ) == 1


class TestSelfcheckCacheLine:
    def test_summary_line_reports_cache_traffic(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "runs")
        assert main(["selfcheck", "--cache-dir", cache_dir]) == 0
        cold = capsys.readouterr().out
        assert "cache:" in cold and "stored" in cold
        assert main(["selfcheck", "--cache-dir", cache_dir]) == 0
        warm = capsys.readouterr().out
        import re

        hits = int(re.search(r"(\d+) hits", warm).group(1))
        assert hits > 0


class TestServeCli:
    def test_serve_flags_parse(self):
        args = build_parser().parse_args(
            ["serve", "--port", "9000", "--workers", "2",
             "--queue-limit", "8", "--deadline-ms", "500", "--no-cache"]
        )
        assert args.port == 9000 and args.workers == 2
        assert args.queue_limit == 8 and args.no_cache is True

    def test_bind_conflict_is_an_error(self, capsys):
        import socket

        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        try:
            assert main(["serve", "--port", str(port)]) == 1
        finally:
            sock.close()
        assert "cannot bind" in capsys.readouterr().err

    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        # The whole daemon lifecycle as operators see it: spawn the CLI,
        # wait for the announce line, serve one real request, SIGTERM,
        # and get a clean (drained) exit status back.
        import http.client
        import os
        import signal
        import subprocess
        import sys

        proc = subprocess.Popen(
            [sys.executable, "-c",
             "from repro.cli import main; raise SystemExit("
             "main(['serve', '--port', '0', '--cache-dir', "
             f"{str(tmp_path)!r}]))"],
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        )
        try:
            announce = proc.stderr.readline().decode()
            assert "serving at http://" in announce
            port = int(announce.split("http://127.0.0.1:")[1].split()[0])
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            conn.request("GET", "/healthz")
            assert conn.getresponse().status == 200
            conn.close()
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.stderr.close()
