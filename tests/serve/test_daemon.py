"""The HTTP daemon end-to-end: routes, keep-alive, admission, shutdown."""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
import time

from repro.obs import parse_openmetrics
from repro.serve import ServeConfig, running

RUN = {"patternlet": "mpi.reduction", "np": 4}


def _request(port, method, path, body=None, conn=None):
    """One HTTP exchange; returns (status, headers, decoded-or-raw body)."""
    owned = conn is None
    if owned:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    payload = json.dumps(body).encode() if body is not None else None
    conn.request(method, path, body=payload,
                 headers={"Content-Type": "application/json"} if payload else {})
    resp = conn.getresponse()
    raw = resp.read()
    headers = {k.lower(): v for k, v in resp.getheaders()}
    if owned:
        conn.close()
    try:
        doc = json.loads(raw)
    except ValueError:
        doc = raw
    return resp.status, headers, doc


def _slow_dispatch(daemon, delay):
    """Swap the execution backend for a deterministic slow coroutine."""
    from repro.batch.results import RunOutcome, outcome_to_wire
    from repro.batch.specs import spec_key

    async def dispatch(spec):
        await asyncio.sleep(delay)
        out = RunOutcome(spec=spec, key=spec_key(spec), cached=False,
                         text="slow", span=1.0, wall=delay, races=0)
        return outcome_to_wire(out), {"hits": 0, "misses": 1}

    daemon.service._dispatch = dispatch


class TestRoutes:
    def test_run_report_metrics_healthz(self, tmp_path):
        with running(cache_dir=str(tmp_path)) as daemon:
            status, headers, _ = _request(daemon.port, "GET", "/healthz")
            assert status == 200

            status, headers, doc = _request(daemon.port, "POST", "/run", RUN)
            assert status == 200
            assert headers["x-patternlet-served"] == "execute"
            key = headers["x-patternlet-key"]
            assert doc["key"] == key and doc["races"] == 0

            # Identical body again: memoised, byte-identical.
            status, headers, doc2 = _request(daemon.port, "POST", "/run", RUN)
            assert headers["x-patternlet-served"] == "memo"
            assert doc2 == doc

            status, _, stored = _request(daemon.port, "GET", f"/report/{key}")
            assert status == 200 and stored == doc

            status, _, _ = _request(daemon.port, "GET", "/report/nope")
            assert status == 404

            status, headers, text = _request(daemon.port, "GET", "/metrics")
            assert status == 200
            assert headers["content-type"].startswith(
                "application/openmetrics-text")
            doc = parse_openmetrics(text.decode())
            assert "patternlet_serve_executions" in doc
            assert "patternlet_serve_requests" in doc

    def test_sweep_summary_and_stored_report(self, tmp_path):
        with running(cache_dir=str(tmp_path)) as daemon:
            grid = {"patternlets": ["mpi.reduction"], "np": [2, 4],
                    "seeds": [0, 1]}
            status, _, doc = _request(daemon.port, "POST", "/sweep", grid)
            assert status == 200
            assert doc["runs"] == 4 and doc["errors"] == 0
            assert doc["distinct_cells"] == 4
            status, _, report = _request(
                daemon.port, "GET", f"/report/{doc['report']}")
            assert status == 200
            assert len(report["cells"]) == 4

    def test_error_statuses(self, tmp_path):
        cfg = ServeConfig(cache_dir=str(tmp_path), max_body_bytes=512)
        with running(cfg) as daemon:
            port = daemon.port
            assert _request(port, "GET", "/nope")[0] == 404
            assert _request(port, "GET", "/run")[0] == 405
            assert _request(port, "POST", "/run",
                            {"patternlet": "no.such"})[0] == 404
            assert _request(port, "POST", "/run",
                            {"patternlet": "mpi.reduction",
                             "mode": "thread"})[0] == 400
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            conn.request("POST", "/run", body=b"x" * 1024)
            assert conn.getresponse().status == 413
            conn.close()
            # Invalid JSON is a 400, not a connection reset.
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            conn.request("POST", "/run", body=b"{not json")
            assert conn.getresponse().status == 400
            conn.close()


class TestKeepAlive:
    def test_two_requests_share_one_socket(self, tmp_path):
        with running(cache_dir=str(tmp_path)) as daemon:
            conn = http.client.HTTPConnection("127.0.0.1", daemon.port,
                                              timeout=30)
            status, headers, _ = _request(daemon.port, "GET", "/healthz",
                                          conn=conn)
            assert status == 200
            assert headers["connection"] == "keep-alive"
            sock = conn.sock
            assert sock is not None
            status, _, _ = _request(daemon.port, "POST", "/run", RUN,
                                    conn=conn)
            assert status == 200
            assert conn.sock is sock  # same socket, no reconnect
            conn.close()

    def test_connection_close_is_honoured(self, tmp_path):
        with running(cache_dir=str(tmp_path)) as daemon:
            conn = http.client.HTTPConnection("127.0.0.1", daemon.port,
                                              timeout=30)
            conn.request("GET", "/healthz", headers={"Connection": "close"})
            resp = conn.getresponse()
            resp.read()
            assert resp.getheader("Connection") == "close"
            conn.close()


class TestAdmission:
    def test_high_water_sheds_with_429_and_retry_after(self, tmp_path):
        cfg = ServeConfig(cache_dir=str(tmp_path), workers=1, queue_limit=0)
        with running(cfg) as daemon:
            _slow_dispatch(daemon, 0.6)
            port = daemon.port
            results = []

            def post(seed):
                results.append(_request(
                    port, "POST", "/run", dict(RUN, seed=seed)))

            first = threading.Thread(target=post, args=(0,))
            first.start()
            time.sleep(0.2)  # first request holds the only slot
            status, headers, doc = _request(port, "POST", "/run",
                                            dict(RUN, seed=1))
            first.join()
            assert status == 429
            assert headers["retry-after"] == "1"
            assert "admission queue full" in doc["error"]
            assert results[0][0] == 200  # the leader still finished
            assert daemon.service.c_shed.total() == 1.0

    def test_sweep_past_high_water_does_not_shed_its_own_cells(self, tmp_path):
        # 40 uncached cells on an idle daemon whose high-water mark is
        # 1 + 32: fed all at once, cells 34-40 would be shed with 429 by
        # their own siblings.
        cfg = ServeConfig(cache_dir=str(tmp_path), use_cache=False, workers=1)
        with running(cfg) as daemon:
            grid = {"patternlets": ["openmp.spmd"], "seeds": list(range(40))}
            status, _, doc = _request(daemon.port, "POST", "/sweep", grid)
            assert status == 200, doc
            assert doc["runs"] == 40 and doc["errors"] == 0
            assert daemon.service.c_shed.total() == 0.0
            assert daemon.service.c_executions.total() == 40.0

    def test_queue_deadline_expires_with_503(self, tmp_path):
        cfg = ServeConfig(cache_dir=str(tmp_path), workers=1,
                          queue_limit=4, deadline_ms=100)
        with running(cfg) as daemon:
            _slow_dispatch(daemon, 0.8)
            port = daemon.port
            first = threading.Thread(
                target=_request, args=(port, "POST", "/run", RUN))
            first.start()
            time.sleep(0.2)
            status, _, doc = _request(port, "POST", "/run",
                                      dict(RUN, seed=1))
            first.join()
            assert status == 503
            assert "no execution slot" in doc["error"]
            assert daemon.service.c_deadline.total() == 1.0

    def test_draining_rejects_new_executions(self, tmp_path):
        with running(cache_dir=str(tmp_path)) as daemon:
            port = daemon.port
            _request(port, "POST", "/run", RUN)  # warm the memo
            daemon.service.start_draining()
            # New work is refused...
            status, _, doc = _request(port, "POST", "/run",
                                      dict(RUN, seed=5))
            assert status == 503
            assert "draining" in doc["error"]
            assert _request(port, "GET", "/healthz")[0] == 503
            # ...but already-finished keys are still served.
            status, headers, _ = _request(port, "POST", "/run", RUN)
            assert status == 200
            assert headers["x-patternlet-served"] == "memo"


def _thread_count_settles(target, *, timeout=10.0):
    """Wait for stragglers mid-exit; return the settled count."""
    deadline = time.monotonic() + timeout
    n = threading.active_count()
    while n > target and time.monotonic() < deadline:
        time.sleep(0.02)
        n = threading.active_count()
    return n


class TestGracefulShutdown:
    def test_shutdown_drains_inflight_runs(self, tmp_path):
        results = []
        with running(cache_dir=str(tmp_path)) as daemon:
            _slow_dispatch(daemon, 0.5)
            port = daemon.port
            client = threading.Thread(
                target=lambda: results.append(
                    _request(port, "POST", "/run", RUN)))
            client.start()
            time.sleep(0.2)  # the run is in flight when shutdown begins
        client.join()
        assert results[0][0] == 200  # drained, not dropped

    def test_stopped_daemon_leaves_zero_threads(self, tmp_path):
        # PR-5's leak discipline extended to the daemon: the event loop
        # thread, the execution lane, and every rank thread the runs
        # parked must all be gone after shutdown.
        baseline = _thread_count_settles(threading.active_count())
        with running(cache_dir=str(tmp_path)) as daemon:
            for seed in range(3):
                status, _, _ = _request(daemon.port, "POST", "/run",
                                        dict(RUN, seed=seed))
                assert status == 200
        assert _thread_count_settles(baseline) <= baseline

    def test_shutdown_reports_clean_drain(self, tmp_path):
        # The context manager path returns through ServeDaemon.shutdown;
        # drive it directly to pin the clean-drain verdict.
        from repro.serve import ServeDaemon

        async def scenario():
            daemon = await ServeDaemon(
                ServeConfig(cache_dir=str(tmp_path))).start()
            status, _, _ = await _async_health(daemon.port)
            assert status == 200
            return await daemon.shutdown()

        assert asyncio.run(scenario()) is True


async def _async_health(port):
    """A minimal in-loop client (the daemon serves on this same loop)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
    await writer.drain()
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n"):
            break
        if line.lower().startswith(b"content-length:"):
            length = int(line.split(b":")[1])
    body = await reader.readexactly(length)
    writer.close()
    return status, {}, body
