"""Single-flight semantics: a stampede of identical cold requests
performs exactly one computation, and everyone gets the same answer."""

import asyncio
import concurrent.futures
import threading

from repro.serve.singleflight import SingleFlight
from tests.serve.conftest import COORD, request


# --------------------------------------------------------------------------
# unit level
# --------------------------------------------------------------------------


def test_concurrent_callers_share_one_execution():
    async def scenario():
        flight = SingleFlight()
        calls = []
        release = asyncio.Event()

        async def compute():
            calls.append(1)
            await release.wait()
            return "value"

        tasks = [
            asyncio.ensure_future(flight.run("key", compute))
            for _ in range(16)
        ]
        await asyncio.sleep(0)  # let every task reach the flight
        assert flight.inflight() == 1
        release.set()
        results = await asyncio.gather(*tasks)
        assert len(calls) == 1
        assert {value for value, _leader in results} == {"value"}
        assert sum(leader for _value, leader in results) == 1
        assert flight.inflight() == 0

    asyncio.run(scenario())


def test_leader_failure_propagates_then_key_resets():
    async def scenario():
        flight = SingleFlight()
        attempts = []

        async def failing():
            attempts.append(1)
            await asyncio.sleep(0)
            raise RuntimeError("boom")

        tasks = [
            asyncio.ensure_future(flight.run("key", failing))
            for _ in range(4)
        ]
        outcomes = await asyncio.gather(*tasks, return_exceptions=True)
        assert len(attempts) == 1  # one execution, four failures seen
        assert all(
            isinstance(outcome, RuntimeError) for outcome in outcomes
        )
        # The key is cleared: a later call retries fresh.
        value, leader = await flight.run(
            "key", lambda: _async_value("recovered")
        )
        assert (value, leader) == ("recovered", True)
        assert len(attempts) == 1

    async def _async_value(value):
        return value

    asyncio.run(scenario())


def test_distinct_keys_do_not_coalesce():
    async def scenario():
        flight = SingleFlight()
        calls = []

        def make(key):
            async def compute():
                calls.append(key)
                await asyncio.sleep(0)
                return key

            return compute

        results = await asyncio.gather(
            flight.run("a", make("a")), flight.run("b", make("b"))
        )
        assert sorted(calls) == ["a", "b"]
        assert [value for value, _leader in results] == ["a", "b"]

    asyncio.run(scenario())


# --------------------------------------------------------------------------
# live stampede
# --------------------------------------------------------------------------


def test_cold_analyze_stampede_computes_once(make_server):
    """N concurrent identical cold /analyze requests: exactly one
    simulation (one ``cache.store`` span, one cache miss), N
    bit-identical response bodies."""
    server = make_server(workers=2, queue_limit=16)
    stampede = 12

    # Hold the one build until every request has joined the flight, so
    # a late request cannot find the finished session and read it as a
    # warm hit instead of a coalesced follower.
    daemon = server.server
    arrived = []
    all_arrived = threading.Event()
    flight_run = daemon._flight.run
    build_session = daemon._build_session

    async def counting_run(key, compute):
        arrived.append(key)
        if len(arrived) == stampede:
            all_arrived.set()
        return await flight_run(key, compute)

    def held_build(coord):
        all_arrived.wait(timeout=60)
        return build_session(coord)

    daemon._flight.run = counting_run
    daemon._build_session = held_build

    def hit(_index):
        return request(
            server.port, "POST", "/analyze", COORD, timeout=120
        )

    with concurrent.futures.ThreadPoolExecutor(
        max_workers=stampede
    ) as pool:
        responses = list(pool.map(hit, range(stampede)))

    assert all_arrived.is_set(), f"{len(arrived)} of {stampede} arrived"
    statuses = [status for status, _headers, _body in responses]
    assert statuses == [200] * stampede
    bodies = {body for _status, _headers, body in responses}
    assert len(bodies) == 1, "stampede responses diverged"

    obs = server.server.obs
    store_spans = [
        span for span in obs.tracer.spans if span.name == "cache.store"
    ]
    assert len(store_spans) == 1, (
        f"expected exactly one computation, saw "
        f"{len(store_spans)} cache.store spans"
    )
    counters = obs.metrics.snapshot()["counters"]
    assert counters["cache.miss"] == 1
    assert counters.get("cache.hit", 0) == 0
    assert counters["serve.session_builds"] == 1
    assert counters["serve.session_coalesced"] == stampede - 1

    # And the warm path afterwards touches neither flight nor cache.
    status, _headers, body = request(
        server.port, "POST", "/analyze", COORD
    )
    assert status == 200
    assert body in bodies
    counters = obs.metrics.snapshot()["counters"]
    assert counters["serve.session_hits"] >= 1
    assert counters["cache.miss"] == 1
