"""Endpoint round-trips, backpressure, and graceful SIGTERM drain."""

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time

from repro.serve.protocol import MAX_BODY_BYTES
from tests.serve.conftest import COORD, request, request_json


def test_healthz_and_metrics_roundtrip(make_server):
    server = make_server()
    status, health = request_json(server.port, "GET", "/healthz")
    assert status == 200
    assert health["status"] == "ok"
    assert health["jobs"] == {
        "queued": 0, "running": 0, "done": 0, "failed": 0
    }
    status, metrics = request_json(server.port, "GET", "/metrics")
    assert status == 200
    assert metrics["serve"]["sessions"] == 0
    # The registry export is live: the healthz hit above is counted.
    assert metrics["metrics"]["counters"]["serve.requests"] >= 1


def test_analyze_then_predict_share_one_session(make_server):
    server = make_server()
    status, analysis = request_json(
        server.port, "POST", "/analyze", {**COORD, "top": 3}
    )
    assert status == 200
    assert analysis["baseline_cpi"] > 1.0
    assert len(analysis["bottlenecks"]) == 3
    assert analysis["model_digest"]
    status, prediction = request_json(
        server.port, "POST", "/predict",
        {**COORD, "overrides": {"L2D": 40}},
    )
    assert status == 200
    assert prediction["baseline_cpi"] == analysis["baseline_cpi"]
    assert prediction["predicted_cpi"] > 0
    _status, metrics = request_json(server.port, "GET", "/metrics")
    assert metrics["serve"]["sessions"] == 1
    counters = metrics["metrics"]["counters"]
    assert counters["serve.session_builds"] == 1
    assert counters["serve.session_hits"] >= 1


def test_predict_accepts_display_labels(make_server):
    """Event keys parse through parse_event: 'Fmul' == 'FP_MUL'."""
    server = make_server()
    _status, by_name = request_json(
        server.port, "POST", "/predict",
        {**COORD, "overrides": {"FP_MUL": 4}},
    )
    _status, by_label = request_json(
        server.port, "POST", "/predict",
        {**COORD, "overrides": {"Fmul": 4}},
    )
    assert by_name == by_label


def test_job_lifecycle_to_front(make_server):
    server = make_server()
    job_request = {
        **COORD,
        "axes": {"L2D": [10, 20, 30], "FP_MUL": [2, 4]},
        "chunk_size": 4,
    }
    status, submitted = request_json(
        server.port, "POST", "/jobs", job_request
    )
    assert status == 202
    assert submitted["state"] == "queued"
    assert submitted["num_points"] == 6
    job_id = submitted["job_id"]

    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        status, polled = request_json(
            server.port, "GET", f"/jobs/{job_id}"
        )
        assert status == 200
        if polled["state"] in ("done", "failed"):
            break
        time.sleep(0.05)
    assert polled["state"] == "done", polled
    assert polled["front_size"] >= 1

    status, front = request_json(
        server.port, "GET", f"/jobs/{job_id}/front"
    )
    assert status == 200
    assert front["num_points"] == 6
    assert len(front["pareto_front"]) == polled["front_size"]
    for candidate in front["pareto_front"]:
        assert set(candidate) == {"latency", "predicted_cpi", "cost"}


def test_job_front_not_ready_is_409_and_unknown_404(make_server):
    server = make_server()
    status, body = request_json(server.port, "GET", "/jobs/job-nope")
    assert status == 404
    assert body["error"]["status"] == 404
    # A job against a cold session spends a while building it; its
    # front must 409 (not 500) while queued/running.
    status, submitted = request_json(
        server.port, "POST", "/jobs",
        {**COORD, "macros": 200, "axes": {"L1D": [1, 2, 3]}},
    )
    assert status == 202
    status, body = request_json(
        server.port, "GET", f"/jobs/{submitted['job_id']}/front"
    )
    assert status in (200, 409)  # 200 only if it finished that fast
    if status == 409:
        assert "poll" in body["error"]["message"]


def test_unknown_paths_methods_and_workloads(make_server):
    server = make_server()
    status, _body = request_json(server.port, "GET", "/nope")
    assert status == 404
    status, _body = request_json(server.port, "POST", "/healthz", {})
    assert status == 405
    status, body = request_json(
        server.port, "POST", "/analyze", {"workload": "not-a-workload"}
    )
    assert status == 404
    assert "unknown workload" in body["error"]["message"]


def test_oversized_body_is_413(make_server):
    """A declared-oversize body is refused before it is read: the 413
    arrives even though the client never sends a single body byte."""
    import socket

    server = make_server()
    with socket.create_connection(("127.0.0.1", server.port), 30) as sock:
        sock.sendall(
            b"POST /analyze HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: %d\r\n\r\n" % (MAX_BODY_BYTES + 1)
        )
        response = b""
        while b"\r\n\r\n" not in response:
            chunk = sock.recv(4096)
            if not chunk:
                break
            response += chunk
    assert response.startswith(b"HTTP/1.1 413 ")
    assert b"Connection: close" in response


def test_post_without_content_length_is_411(make_server):
    server = make_server()
    import http.client

    connection = http.client.HTTPConnection(
        "127.0.0.1", server.port, timeout=30
    )
    try:
        # Hand-rolled request: http.client would add Content-Length.
        connection.connect()
        connection.sock.sendall(
            b"POST /analyze HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        response = http.client.HTTPResponse(connection.sock)
        response.begin()
        assert response.status == 411
    finally:
        connection.close()


def test_backpressure_returns_429_with_retry_after(make_server):
    """Fill the only heavy slot, then watch the next cold request bounce."""
    server = make_server(workers=1, queue_limit=0)
    slow = {"workload": "gamess", "macros": 4000}
    results = {}

    def occupy():
        results["slow"] = request_json(
            server.port, "POST", "/analyze", slow, timeout=120
        )

    thread = threading.Thread(target=occupy, daemon=True)
    thread.start()
    # Wait until the slow build is admitted to the heavy plane.
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        _status, metrics = request_json(server.port, "GET", "/metrics")
        if metrics["serve"]["admitted_heavy"] >= 1:
            break
        time.sleep(0.01)
    assert metrics["serve"]["admitted_heavy"] >= 1

    status, headers, body = request(
        server.port, "POST", "/analyze",
        {"workload": "mcf", "macros": 4000},
    )
    assert status == 429
    assert "Retry-After" in headers
    assert int(headers["Retry-After"]) >= 1
    assert json.loads(body)["error"]["status"] == 429

    thread.join(timeout=120)
    assert results["slow"][0] == 200  # the occupant still completed
    _status, metrics = request_json(server.port, "GET", "/metrics")
    assert metrics["metrics"]["counters"]["serve.rejected"] >= 1


def test_sigterm_drains_gracefully(tmp_path):
    """Real process, real signal: the in-flight request completes and
    the daemon exits 0 — the CI serve-smoke contract.  The drain grace
    matches the client's timeout, so the cold request, which outlasts
    the default 10 s grace under ``REPRO_NATIVE=0``, must finish during
    the drain on both gates."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env.pop("REPRO_TRACE_OUT", None)
    env.pop("REPRO_METRICS_JSON", None)
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "--port", "0",
            "--cache-dir", str(tmp_path / "cache"), "--drain-grace", "120",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
    )
    try:
        banner = proc.stderr.readline().strip()
        match = re.search(r":(\d+)$", banner)
        assert match, f"no port in banner {banner!r}"
        port = int(match.group(1))

        results = {}

        def inflight():
            results["slow"] = request_json(
                port, "POST", "/analyze",
                {"workload": "gamess", "macros": 3000},
                timeout=120,
            )

        thread = threading.Thread(target=inflight, daemon=True)
        thread.start()
        time.sleep(0.3)  # let the request reach the server
        proc.send_signal(signal.SIGTERM)
        thread.join(timeout=120)
        returncode = proc.wait(timeout=60)
        assert returncode == 0
        status, body = results["slow"]
        assert status == 200
        assert body["baseline_cpi"] > 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
