"""Property tests for the serve wire protocol.

Three guarantees, each hammered by Hypothesis:

* every valid request round-trips ``from_dict(to_dict(r)) == r``;
* malformed and oversized input is rejected with a typed
  :class:`ProtocolError` carrying a 4xx status — never any other
  exception (the server's 500 boundary must be unreachable from
  input alone), and against a live socket never a hang;
* job ids stay unique under concurrent submission.
"""

import concurrent.futures
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.events import LATENCY_DOMAIN, EVENT_LABELS
from repro.dse.sweep import DEFAULT_CHUNK_SIZE
from repro.serve.jobs import JobRegistry
from repro.serve.protocol import (
    MAX_BODY_BYTES,
    AnalyzeRequest,
    JobRequest,
    PredictRequest,
    ProtocolError,
    decode_body,
    encode_body,
)

events = st.sampled_from(list(LATENCY_DOMAIN))
cycles = st.integers(min_value=1, max_value=100_000)

coords = st.fixed_dictionaries(
    {"workload": st.sampled_from(["gamess", "mcf", "milc"])},
    optional={
        "macros": st.integers(min_value=1, max_value=1_000_000),
        "seed": st.integers(min_value=0, max_value=2**31 - 1),
        "segment_length": st.integers(min_value=1, max_value=65_536),
    },
)


def _with_events_as_names(mapping):
    return {event.name: value for event, value in mapping.items()}


analyze_payloads = st.builds(
    lambda coord, top: {**coord, **top},
    coords,
    st.fixed_dictionaries(
        {}, optional={"top": st.integers(min_value=1, max_value=64)}
    ),
)

predict_payloads = st.builds(
    lambda coord, overrides: {
        **coord,
        "overrides": _with_events_as_names(overrides),
    },
    coords,
    st.dictionaries(events, cycles, max_size=len(LATENCY_DOMAIN)),
)

job_payloads = st.builds(
    lambda coord, axes, extras: {
        **coord,
        "axes": {
            event.name: sorted(values)
            for event, values in axes.items()
        },
        **extras,
    },
    coords,
    st.dictionaries(
        events,
        st.sets(cycles, min_size=1, max_size=5),
        min_size=1,
        max_size=4,
    ),
    st.fixed_dictionaries(
        {},
        optional={
            "chunk_size": st.integers(min_value=1, max_value=1 << 20),
            "target_cpi": st.floats(
                min_value=0.01, max_value=100.0,
                allow_nan=False, allow_infinity=False,
            ),
        },
    ),
)


@settings(max_examples=200)
@given(analyze_payloads)
def test_analyze_roundtrip(payload):
    parsed = AnalyzeRequest.from_dict(payload)
    assert AnalyzeRequest.from_dict(parsed.to_dict()) == parsed


@settings(max_examples=200)
@given(predict_payloads)
def test_predict_roundtrip(payload):
    parsed = PredictRequest.from_dict(payload)
    assert PredictRequest.from_dict(parsed.to_dict()) == parsed
    # Canonical encoding is stable: encode(decode(encode(x))) fixpoint.
    wire = encode_body(parsed.to_dict())
    assert encode_body(decode_body(wire)) == wire


@settings(max_examples=200)
@given(job_payloads)
def test_job_roundtrip(payload):
    parsed = JobRequest.from_dict(payload)
    again = JobRequest.from_dict(parsed.to_dict())
    assert again == parsed
    assert parsed.num_points >= 1


def test_job_with_a_top_k_field_is_rejected():
    with pytest.raises(ProtocolError, match="'top_k'") as exc:
        JobRequest.from_dict(
            {"workload": "gamess", "axes": {"L1D": [1]}, "top_k": 5}
        )
    assert exc.value.status == 400


def test_job_chunk_size_defaults_to_the_sweep_default():
    parsed = JobRequest.from_dict({"workload": "gamess", "axes": {"L1D": [1]}})
    assert parsed.chunk_size == DEFAULT_CHUNK_SIZE == 65536
    assert JobRequest(coord=parsed.coord).chunk_size == DEFAULT_CHUNK_SIZE


@settings(max_examples=100)
@given(predict_payloads)
def test_display_labels_parse_to_same_request(payload):
    """'Fmul' and 'FP_MUL' (any case) name the same override."""
    relabelled = dict(payload)
    relabelled["overrides"] = {
        EVENT_LABELS[next(e for e in LATENCY_DOMAIN if e.name == name)]:
            value
        for name, value in payload["overrides"].items()
    }
    assert PredictRequest.from_dict(relabelled) == (
        PredictRequest.from_dict(payload)
    )


# --------------------------------------------------------------------------
# malformed input: always ProtocolError 4xx, never anything else
# --------------------------------------------------------------------------

junk_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=10), children, max_size=4),
    max_leaves=10,
)


@settings(max_examples=300)
@given(junk_values)
def test_junk_payloads_reject_with_4xx(value):
    for parser in (
        AnalyzeRequest.from_dict,
        PredictRequest.from_dict,
        JobRequest.from_dict,
    ):
        try:
            parser(value)
        except ProtocolError as error:
            assert 400 <= error.status < 500
        # Not raising is fine only if the junk happened to be valid.


@settings(max_examples=200)
@given(st.binary(max_size=512))
def test_junk_bytes_reject_with_4xx(raw):
    try:
        decode_body(raw)
    except ProtocolError as error:
        assert 400 <= error.status < 500


def test_oversized_body_is_413_in_decode():
    with pytest.raises(ProtocolError) as exc:
        decode_body(b"0" * (MAX_BODY_BYTES + 1))
    assert exc.value.status == 413


# --------------------------------------------------------------------------
# live socket: junk in, 4xx out, connection never hangs
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def junk_server():
    from repro.obs.observer import Observer
    from repro.serve.server import ServeConfig, ServerThread

    thread = ServerThread(
        ServeConfig(read_timeout=2.0),
        obs=Observer(enabled=True, progress_stream=None),
    ).start()
    yield thread
    thread.stop()


@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.binary(min_size=0, max_size=200))
def test_live_junk_bodies_get_4xx_never_500_never_hang(
    junk_server, raw
):
    from tests.serve.conftest import request

    status, _headers, body = request(
        junk_server.port, "POST", "/analyze", raw_body=raw or b"x",
        timeout=30,
    )
    assert 400 <= status < 500, (status, body)
    assert json.loads(body)["error"]["status"] == status


def test_truncated_body_never_hangs_connection(junk_server):
    """Declared length, half the bytes, no close: the read timeout
    reaps it instead of leaking a stuck connection."""
    import socket

    with socket.create_connection(
        ("127.0.0.1", junk_server.port), 30
    ) as sock:
        sock.sendall(
            b"POST /analyze HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 100\r\n\r\nhalf"
        )
        sock.settimeout(30)
        # The server must close the connection (timeout abort), not
        # hold it open waiting forever.
        assert sock.recv(4096) == b""


# --------------------------------------------------------------------------
# job ids
# --------------------------------------------------------------------------


def test_job_ids_unique_under_concurrent_submission():
    registry = JobRegistry(retention=10_000)
    request_obj = JobRequest.from_dict(
        {"workload": "gamess", "axes": {"L1D": [1, 2]}}
    )
    with concurrent.futures.ThreadPoolExecutor(max_workers=16) as pool:
        records = list(
            pool.map(
                lambda _i: registry.create(request_obj), range(2000)
            )
        )
    ids = [record.job_id for record in records]
    assert len(set(ids)) == len(ids)


def test_live_concurrent_submissions_get_unique_ids(make_server):
    from tests.serve.conftest import COORD, request_json

    server = make_server(queue_limit=64)
    payload = {**COORD, "axes": {"L1D": [1, 2]}, "chunk_size": 2}

    def submit(_index):
        return request_json(server.port, "POST", "/jobs", payload)

    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        responses = list(pool.map(submit, range(24)))
    assert all(status == 202 for status, _body in responses)
    ids = [body["job_id"] for _status, body in responses]
    assert len(set(ids)) == len(ids)
