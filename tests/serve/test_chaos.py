"""Chaos drills for the daemon, driven by seeded fault plans.

Two failure families the serving layer must absorb:

* **job failure** — a sweep job's model raises as the sweep restricts
  it; the job lands in ``failed`` with the error recorded, its front
  answers 409, ``serve.jobs_failed`` counts it, and the next identical
  job on the same daemon completes, through the sweep's block pricer,
  with the front of an undisturbed daemon;
* **client death** — a client disconnects mid-request (body never
  arrives) or mid-response (socket reset before the reply lands); the
  server counts the abort in ``/metrics`` and keeps serving.
"""

import json
import socket
import struct
import time

from tests.chaos import faults
from tests.serve.conftest import COORD, request_json

JOB_PAYLOAD = {
    **COORD,
    "axes": {
        "L1D": [1, 2, 3, 4],
        "FP_ADD": [1, 2, 3, 4, 5],
        "MEM_D": [20, 40, 60, 80, 100],
    },
    "chunk_size": 16,
}


def _arm(plan, tmp_path, monkeypatch):
    for key, value in faults.arm(plan, tmp_path / "chaos").items():
        monkeypatch.setenv(key, value)


def _chaos_transform(model):
    return faults.ChaosModel(model, probe_id="serve-job")


def _submit_and_wait(port, payload, timeout=120.0):
    status, submitted = request_json(port, "POST", "/jobs", payload)
    assert status == 202
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _status, polled = request_json(
            port, "GET", f"/jobs/{submitted['job_id']}"
        )
        if polled["state"] in ("done", "failed"):
            return polled
        time.sleep(0.05)
    raise AssertionError(f"job {submitted['job_id']} never finished")


def test_failed_job_is_reported_and_the_daemon_recovers(
    tmp_path, monkeypatch, make_server
):
    """Seeded plan: the first sweep the daemon runs raises.  The job
    fails visibly, and the next identical job on the same daemon
    completes with the front an undisturbed daemon gives, priced block
    by block as an unwrapped model is."""
    clean = make_server()
    expected = _submit_and_wait(clean.port, JOB_PAYLOAD)
    assert expected["state"] == "done", expected
    _status, expected_front = request_json(
        clean.port, "GET", f"/jobs/{expected['job_id']}/front"
    )

    _arm(
        {"serve-job": {"kind": "raise", "attempts": 1}},
        tmp_path,
        monkeypatch,
    )
    server = make_server(model_transform=_chaos_transform)
    failed = _submit_and_wait(server.port, JOB_PAYLOAD)
    assert failed["state"] == "failed", failed
    assert "ChaosError" in failed["error"]
    status, body = request_json(
        server.port, "GET", f"/jobs/{failed['job_id']}/front"
    )
    assert status == 409
    assert "ChaosError" in body["error"]["message"]
    _status, metrics = request_json(server.port, "GET", "/metrics")
    assert metrics["metrics"]["counters"]["serve.jobs_failed"] == 1

    # The plan's one faulty attempt is spent, so this run is undisturbed.
    retried = _submit_and_wait(server.port, JOB_PAYLOAD)
    assert retried["state"] == "done", retried
    _status, front = request_json(
        server.port, "GET", f"/jobs/{retried['job_id']}/front"
    )
    assert front["pareto_front"] == expected_front["pareto_front"]
    assert front["num_meeting_target"] == (
        expected_front["num_meeting_target"]
    )
    _status, metrics = request_json(server.port, "GET", "/metrics")
    assert metrics["metrics"]["counters"]["sweep.blocks"] > 0


def test_client_disconnect_mid_request_counts_abort(make_server):
    """Half a body, then FIN: the server reaps the connection, counts
    one abort, and the next request on a fresh connection is normal."""
    server = make_server(read_timeout=1.0)
    with socket.create_connection(("127.0.0.1", server.port), 30) as sock:
        sock.sendall(
            b"POST /analyze HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 100\r\n\r\nten bytes!"
        )
    # FIN arrived before the declared 100 bytes: readexactly fails
    # immediately (IncompleteReadError) — no timeout wait needed.
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        _status, metrics = request_json(server.port, "GET", "/metrics")
        aborts = metrics["metrics"]["counters"].get(
            "serve.client_aborts", 0
        )
        if aborts >= 1:
            break
        time.sleep(0.02)
    assert aborts == 1

    status, health = request_json(server.port, "GET", "/healthz")
    assert status == 200 and health["status"] == "ok"


def test_client_disconnect_mid_response_counts_abort(make_server):
    """Reset the socket while a cold analyze is computing: when the
    server finally writes the response, the connection is gone.  It
    counts the abort and stays healthy."""
    server = make_server()
    body = json.dumps({"workload": "mcf", "macros": 2000}).encode()
    sock = socket.create_connection(("127.0.0.1", server.port), 30)
    try:
        sock.sendall(
            b"POST /analyze HTTP/1.1\r\nHost: x\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body) + body
        )
        # Wait until the request is admitted (the build is running) …
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            _status, metrics = request_json(server.port, "GET", "/metrics")
            if metrics["serve"]["inflight_requests"] >= 1:
                break
            time.sleep(0.01)
        assert metrics["serve"]["inflight_requests"] >= 1
        # … then vanish with a reset (SO_LINGER 0 sends RST on close),
        # so the server's eventual write/drain fails deterministically.
        sock.setsockopt(
            socket.SOL_SOCKET,
            socket.SO_LINGER,
            struct.pack("ii", 1, 0),
        )
    finally:
        sock.close()

    deadline = time.monotonic() + 60
    aborts = 0
    while time.monotonic() < deadline:
        _status, metrics = request_json(server.port, "GET", "/metrics")
        aborts = metrics["metrics"]["counters"].get(
            "serve.client_aborts", 0
        )
        if aborts >= 1:
            break
        time.sleep(0.05)
    assert aborts >= 1, "mid-response disconnect was never counted"

    # The abort cost the server nothing: the session it built is warm
    # and immediately serves the next client.
    status, analysis = request_json(
        server.port, "POST", "/analyze",
        {"workload": "mcf", "macros": 2000}, timeout=30,
    )
    assert status == 200
    assert analysis["baseline_cpi"] > 0
    _status, health = request_json(server.port, "GET", "/healthz")
    assert health["status"] == "ok"
