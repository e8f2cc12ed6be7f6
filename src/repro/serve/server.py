"""The ``repro serve`` asyncio HTTP/JSON daemon.

A deliberately small HTTP/1.1 server on stdlib ``asyncio`` only — no
web framework — fronting warm :class:`~repro.dse.pipeline.AnalysisSession`
objects so design-space questions are answered at model speed
(microseconds) instead of cold-CLI speed (seconds).

Request handling is split into two planes:

* **Warm plane** (runs inline on the event loop): ``/healthz``,
  ``/metrics``, job polling, and any ``/analyze`` / ``/predict`` whose
  session is already resident.  A warm predict is one matrix-vector
  product; bouncing it through an executor would cost more than the
  work itself, and this is what makes the committed ≥200 req/s
  throughput floor feasible on one core.
* **Heavy plane** (executor threads, bounded): cold session builds and
  sweep jobs.  Admission control caps concurrently admitted heavy
  operations at ``workers + queue_limit``; beyond that the request is
  answered ``429`` with a ``Retry-After`` header instead of being
  queued without bound.  Identical concurrent cold builds collapse to
  one computation via :class:`~repro.serve.singleflight.SingleFlight`,
  with the artifact cache (PR 1) making the result durable.

Graceful drain: on SIGTERM/SIGINT the listener closes (new connections
are refused), in-flight requests and running jobs are given
``drain_grace`` seconds to finish, idle keep-alive connections are then
cancelled, and the daemon exits 0.  A client disconnecting mid-request
or mid-response only increments ``serve.client_aborts`` — it never
takes the server down.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import dataclasses
import pathlib
import sys
import threading
from collections import deque
from typing import Callable, Dict, Optional, Tuple

from repro.obs import clock
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.serve import protocol
from repro.serve.jobs import JobRecord, JobRegistry, execute_sweep
from repro.serve.protocol import (
    AnalyzeRequest,
    JobRequest,
    PredictRequest,
    ProtocolError,
    WorkloadCoord,
)
from repro.serve.singleflight import SingleFlight

__all__ = ["ServeConfig", "ReproServer", "ServerThread", "run_forever"]

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    411: "Length Required",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}

#: Latency samples retained for the /metrics percentile summary.  A
#: bounded deque, not an obs Histogram: the registry's histograms keep
#: every raw observation, which a long-lived daemon cannot afford.
_LATENCY_WINDOW = 4096


class _Backpressure(Exception):
    """Raised when the heavy plane is full; carries the retry hint."""

    def __init__(self, retry_after: int) -> None:
        super().__init__("server busy")
        self.retry_after = retry_after


@dataclasses.dataclass(frozen=True)
class ServeConfig:
    """Everything the daemon needs, resolved before the loop starts."""

    host: str = "127.0.0.1"
    port: int = 0
    #: executor threads for the heavy plane (cold builds, job sweeps).
    workers: int = 2
    #: heavy operations allowed to wait beyond the running ones before
    #: new arrivals are bounced with 429.
    queue_limit: int = 8
    cache_dir: Optional[str] = None
    #: seconds in-flight work gets to finish after SIGTERM.
    drain_grace: float = 10.0
    #: seconds an idle keep-alive connection may sit between requests.
    idle_timeout: float = 120.0
    #: seconds allowed for reading one request's headers + body.
    read_timeout: float = 10.0
    #: ``Retry-After`` seconds suggested on 429 responses.
    retry_after: int = 1


class ReproServer:
    """One daemon instance: routing, warm state, jobs, drain."""

    def __init__(
        self,
        config: ServeConfig,
        obs: Optional[Observer] = None,
        model_transform: Optional[Callable] = None,
    ) -> None:
        self.config = config
        self.obs = obs if obs is not None else NULL_OBSERVER
        self._model_transform = model_transform
        self._sessions: Dict[str, object] = {}
        self._flight = SingleFlight()
        self._registry = JobRegistry()
        self._cache = None
        if config.cache_dir is not None:
            from repro.runtime.cache import open_cache

            self._cache = open_cache(pathlib.Path(config.cache_dir))
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=config.workers, thread_name_prefix="repro-serve"
        )
        self._exec_gate: Optional[asyncio.Semaphore] = None
        self._admitted = 0
        self._inflight_requests = 0
        self._job_tasks: set = set()
        self._conn_tasks: set = set()
        self._latencies: deque = deque(maxlen=_LATENCY_WINDOW)
        self._server: Optional[asyncio.base_events.Server] = None
        self._draining = False
        self._drained = asyncio.Event()
        self.port: Optional[int] = None

    # ---- lifecycle ----------------------------------------------------

    async def start(self) -> None:
        self._exec_gate = asyncio.Semaphore(self.config.workers)
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def wait_closed(self) -> None:
        """Block until a drain completes (triggered by :meth:`drain`)."""
        await self._drained.wait()

    def request_drain(self) -> None:
        """Signal-handler entry point: start draining, don't block."""
        if not self._draining:
            asyncio.ensure_future(self.drain())

    async def drain(self) -> None:
        """Stop accepting, let in-flight work finish, then shut down."""
        if self._draining:
            await self._drained.wait()
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = clock.perf_seconds() + self.config.drain_grace
        while clock.perf_seconds() < deadline:
            busy = self._inflight_requests + len(self._job_tasks)
            if busy == 0:
                break
            await asyncio.sleep(0.05)
        # Idle keep-alive readers (and any work past its grace) go now.
        for task in list(self._conn_tasks) + list(self._job_tasks):
            task.cancel()
        if self._conn_tasks or self._job_tasks:
            await asyncio.gather(
                *self._conn_tasks, *self._job_tasks,
                return_exceptions=True,
            )
        self._executor.shutdown(wait=True, cancel_futures=True)
        self._drained.set()

    # ---- heavy-plane admission ----------------------------------------

    def _admit(self) -> None:
        limit = self.config.workers + self.config.queue_limit
        if self._admitted >= limit:
            self.obs.counter("serve.rejected").inc()
            raise _Backpressure(self.config.retry_after)
        self._admitted += 1

    async def _run_heavy(self, fn, *args):
        """Run admitted work on an executor thread, gated to ``workers``."""
        loop = asyncio.get_running_loop()
        async with self._exec_gate:
            return await loop.run_in_executor(self._executor, fn, *args)

    # ---- warm sessions -------------------------------------------------

    def _build_session(self, coord: WorkloadCoord):
        from repro.dse.pipeline import analyze
        from repro.workloads.suite import make_workload, suite_names

        if coord.workload not in suite_names():
            raise ProtocolError(
                404,
                f"unknown workload {coord.workload!r}; expected one of "
                f"{', '.join(suite_names())}",
            )
        workload = make_workload(
            coord.workload, num_macro_ops=coord.macros, seed=coord.seed
        )
        return analyze(
            workload,
            segment_length=coord.segment_length,
            cache=self._cache,
            obs=self.obs if self.obs.enabled else None,
        )

    async def _ensure_session(self, coord: WorkloadCoord):
        key = coord.key()
        session = self._sessions.get(key)
        if session is not None:
            self.obs.counter("serve.session_hits").inc()
            return session

        async def compute():
            self._admit()
            try:
                return await self._run_heavy(self._build_session, coord)
            finally:
                self._admitted -= 1

        session, leader = await self._flight.run(key, compute)
        if leader:
            self.obs.counter("serve.session_builds").inc()
        else:
            self.obs.counter("serve.session_coalesced").inc()
        self._sessions[key] = session
        return session

    # ---- endpoint handlers ---------------------------------------------

    async def _handle_analyze(self, payload) -> Tuple[int, dict]:
        request = AnalyzeRequest.from_dict(payload)
        session = await self._ensure_session(request.coord)
        latency = session.config.latency
        body = request.coord.to_dict()
        body.update(
            {
                "num_uops": len(session.workload),
                "baseline_cpi": session.baseline_cpi,
                "model_digest": session.rpstacks.content_digest(),
                "bottlenecks": [
                    {"event": label, "cpi_share": share}
                    for label, share in session.rpstacks.bottlenecks(
                        latency, top=request.top
                    )
                ],
            }
        )
        return 200, body

    async def _handle_predict(self, payload) -> Tuple[int, dict]:
        request = PredictRequest.from_dict(payload)
        session = await self._ensure_session(request.coord)
        point = session.config.latency.with_overrides(
            dict(request.overrides)
        )
        predicted_cpi = session.rpstacks.predict_cpi(point)
        body = request.to_dict()
        body.update(
            {
                "baseline_cpi": session.baseline_cpi,
                "predicted_cpi": predicted_cpi,
                "speedup": session.baseline_cpi / predicted_cpi,
            }
        )
        return 200, body

    async def _handle_submit_job(self, payload) -> Tuple[int, dict]:
        request = JobRequest.from_dict(payload)
        # Admission happens at submission so a full queue is a visible
        # 429 now, not a job parked in "queued" forever; the slot is
        # handed to the background task, which releases it when done.
        self._admit()
        record = self._registry.create(request)
        task = asyncio.ensure_future(self._run_job(record))
        self._job_tasks.add(task)
        task.add_done_callback(self._job_tasks.discard)
        return 202, {
            "job_id": record.job_id,
            "state": record.state,
            "num_points": request.num_points,
        }

    async def _run_job(self, record: JobRecord) -> None:
        job_obs: Optional[Observer] = None
        try:
            session = await self._ensure_session(record.request.coord)
            record.state = "running"
            record.started = clock.wall_iso()
            job_obs = Observer(enabled=True, progress_stream=None)
            started = clock.perf_seconds()
            with self.obs.span(
                "serve.job", job_id=record.job_id,
                points=record.request.num_points,
            ):
                result = await self._run_heavy(
                    lambda: execute_sweep(
                        session,
                        record.request,
                        obs=job_obs,
                        model_transform=self._model_transform,
                    )
                )
            record.elapsed_seconds = clock.perf_seconds() - started
            record.result = result
            record.state = "done"
            self.obs.counter("serve.jobs_done").inc()
        except asyncio.CancelledError:
            record.state = "failed"
            record.error = "cancelled by shutdown"
            raise
        except BaseException as error:  # noqa: BLE001 - recorded, not raised
            record.state = "failed"
            record.error = f"{type(error).__name__}: {error}"
            self.obs.counter("serve.jobs_failed").inc()
        finally:
            self._admitted -= 1
            record.finished = clock.wall_iso()
            if job_obs is not None:
                self.obs.absorb(
                    events=job_obs.tracer.export_events(),
                    metrics=job_obs.metrics.export(),
                )

    def _handle_job_get(self, path: str) -> Tuple[int, dict]:
        parts = path.strip("/").split("/")
        record = self._registry.get(parts[1])
        if record is None:
            raise ProtocolError(404, f"unknown job id {parts[1]!r}")
        if len(parts) == 2:
            return 200, record.status_dict()
        if len(parts) == 3 and parts[2] == "front":
            if record.state == "failed":
                raise ProtocolError(
                    409, f"job {record.job_id} failed: {record.error}"
                )
            if record.state != "done":
                raise ProtocolError(
                    409,
                    f"job {record.job_id} is {record.state}; "
                    "poll /jobs/<id> until state is 'done'",
                )
            return 200, record.front_dict()
        raise ProtocolError(404, f"unknown path {path!r}")

    def _handle_healthz(self) -> Tuple[int, dict]:
        return 200, {
            "status": "draining" if self._draining else "ok",
            "sessions": len(self._sessions),
            "jobs": self._registry.counts(),
        }

    def _latency_summary(self) -> dict:
        samples = sorted(self._latencies)
        if not samples:
            return {"count": 0}

        def pct(q: float) -> float:
            index = min(
                len(samples) - 1, int(round(q * (len(samples) - 1)))
            )
            return samples[index] * 1000.0

        return {
            "count": len(samples),
            "p50_ms": pct(0.50),
            "p90_ms": pct(0.90),
            "p99_ms": pct(0.99),
            "max_ms": samples[-1] * 1000.0,
        }

    def _handle_metrics(self) -> Tuple[int, dict]:
        snapshot = (
            self.obs.metrics.snapshot() if self.obs.enabled else {}
        )
        return 200, {
            "metrics": snapshot,
            "serve": {
                "inflight_requests": self._inflight_requests,
                "admitted_heavy": self._admitted,
                "singleflight_inflight": self._flight.inflight(),
                "sessions": len(self._sessions),
                "jobs": self._registry.counts(),
                "request_latency": self._latency_summary(),
            },
        }

    # ---- routing -------------------------------------------------------

    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, dict, Dict[str, str]]:
        if path == "/healthz":
            self._require_method(method, "GET", path)
            return (*self._handle_healthz(), {})
        if path == "/metrics":
            self._require_method(method, "GET", path)
            return (*self._handle_metrics(), {})
        if path.startswith("/jobs/"):
            self._require_method(method, "GET", path)
            return (*self._handle_job_get(path), {})
        if path == "/analyze":
            self._require_method(method, "POST", path)
            status, payload = await self._handle_analyze(
                protocol.decode_body(body)
            )
            return status, payload, {}
        if path == "/predict":
            self._require_method(method, "POST", path)
            status, payload = await self._handle_predict(
                protocol.decode_body(body)
            )
            return status, payload, {}
        if path == "/jobs":
            self._require_method(method, "POST", path)
            status, payload = await self._handle_submit_job(
                protocol.decode_body(body)
            )
            return status, payload, {}
        raise ProtocolError(404, f"unknown path {path!r}")

    @staticmethod
    def _require_method(method: str, expected: str, path: str) -> None:
        if method != expected:
            raise ProtocolError(
                405, f"{path} only accepts {expected}, got {method}"
            )

    # ---- HTTP plumbing -------------------------------------------------

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        try:
            await self._connection_loop(reader, writer)
        except asyncio.CancelledError:
            pass
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
            asyncio.TimeoutError,
            TimeoutError,
        ):
            self.obs.counter("serve.client_aborts").inc()
        finally:
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _connection_loop(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        while True:
            try:
                request_line = await asyncio.wait_for(
                    reader.readline(), self.config.idle_timeout
                )
            except (asyncio.TimeoutError, TimeoutError):
                return  # idle keep-alive expiry: not an abort
            if not request_line:
                return  # clean EOF at a request boundary: not an abort
            started = clock.perf_seconds()
            self._inflight_requests += 1
            try:
                keep_alive = await self._serve_one(
                    request_line, reader, writer, started
                )
            finally:
                self._inflight_requests -= 1
            if not keep_alive or self._draining:
                return

    async def _serve_one(
        self,
        request_line: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        started: float,
    ) -> bool:
        method, path = "?", "?"
        try:
            method, path, headers = await self._read_head(
                request_line, reader
            )
            body = await self._read_body(method, headers, reader)
            status, payload, extra = await self._dispatch(
                method, path, body
            )
        except ProtocolError as error:
            status, payload, extra = self._error_response(error)
        except _Backpressure as error:
            status = 429
            payload = {
                "error": {"status": 429, "message": "server busy"}
            }
            extra = {"Retry-After": str(error.retry_after)}
        except (
            asyncio.IncompleteReadError,
            asyncio.TimeoutError,
            TimeoutError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            # Client vanished (or stalled) mid-request: count and drop.
            self.obs.counter("serve.client_aborts").inc()
            return False
        except asyncio.CancelledError:
            raise
        except Exception as error:  # noqa: BLE001 - the 500 boundary
            self.obs.counter("serve.errors").inc()
            status = 500
            payload = {
                "error": {
                    "status": 500,
                    "message": f"{type(error).__name__}: {error}",
                }
            }
            extra = {}
        keep_alive = status not in (400, 411, 413, 431, 500, 501)
        try:
            self._write_response(writer, status, payload, extra, keep_alive)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            # Client vanished mid-response: count, stay healthy.
            self.obs.counter("serve.client_aborts").inc()
            return False
        elapsed = clock.perf_seconds() - started
        self._latencies.append(elapsed)
        self._record_request(method, path, status, elapsed)
        return keep_alive

    async def _read_head(self, request_line: bytes, reader):
        try:
            parts = request_line.decode("ascii").split()
        except UnicodeDecodeError:
            raise ProtocolError(400, "malformed request line") from None
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise ProtocolError(400, "malformed request line")
        method, path = parts[0], parts[1]
        headers: Dict[str, str] = {}
        total = len(request_line)
        while True:
            line = await asyncio.wait_for(
                reader.readline(), self.config.read_timeout
            )
            if not line:
                raise asyncio.IncompleteReadError(b"", None)
            total += len(line)
            if total > protocol.MAX_HEADER_BYTES:
                raise ProtocolError(431, "headers too large")
            if line in (b"\r\n", b"\n"):
                return method, path, headers
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep:
                raise ProtocolError(400, f"malformed header {name!r}")
            headers[name.strip().lower()] = value.strip()

    async def _read_body(
        self, method: str, headers: Dict[str, str], reader
    ) -> bytes:
        if "transfer-encoding" in headers:
            raise ProtocolError(
                501, "chunked transfer encoding is not supported"
            )
        raw_length = headers.get("content-length")
        if raw_length is None:
            if method == "POST":
                raise ProtocolError(
                    411, "POST requires a Content-Length header"
                )
            return b""
        try:
            length = int(raw_length)
        except ValueError:
            raise ProtocolError(400, "malformed Content-Length") from None
        if length < 0:
            raise ProtocolError(400, "malformed Content-Length")
        if length > protocol.MAX_BODY_BYTES:
            # Reject before buffering; the connection is closed after
            # the 413 since the unread body would desync keep-alive.
            raise ProtocolError(
                413,
                f"request body exceeds {protocol.MAX_BODY_BYTES} bytes",
            )
        if length == 0:
            return b""
        return await asyncio.wait_for(
            reader.readexactly(length), self.config.read_timeout
        )

    @staticmethod
    def _error_response(error: ProtocolError):
        return (
            error.status,
            {"error": {"status": error.status, "message": error.message}},
            {},
        )

    def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        extra: Dict[str, str],
        keep_alive: bool,
    ) -> None:
        body = protocol.encode_body(payload)
        head_lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        head_lines.extend(
            f"{name}: {value}" for name, value in extra.items()
        )
        writer.write(
            ("\r\n".join(head_lines) + "\r\n\r\n").encode("ascii") + body
        )

    def _record_request(
        self, method: str, path: str, status: int, elapsed: float
    ) -> None:
        if not self.obs.enabled:
            return
        route = path.split("/")[1] if "/" in path else path
        self.obs.counter("serve.requests").inc()
        self.obs.counter(f"serve.requests.{route or 'root'}").inc()
        self.obs.counter(f"serve.status.{status // 100}xx").inc()
        self.obs.record(
            "serve.request",
            clock.wall_ns() - int(elapsed * 1e9),
            int(elapsed * 1e9),
            method=method,
            path=path,
            status=status,
        )


async def _serve_until_drained(
    server: ReproServer, install_signals: bool
) -> None:
    await server.start()
    if install_signals:
        import signal

        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, server.request_drain)
            except NotImplementedError:  # non-POSIX event loops
                pass
    server.obs.progress(
        f"serving on http://{server.config.host}:{server.port}"
    )
    await server.wait_closed()


#: The daemon's interpreter switch interval, seconds.  A cold build
#: spends nearly all its time in Python stages that hold the interpreter
#: lock (its segment walk runs compiled, without it), so at the 5 ms
#: default a warm request arriving mid-build waits up to 5 ms for the
#: lock before the event loop can serve it.
_SWITCH_INTERVAL_S = 0.001


def run_forever(
    config: ServeConfig, obs: Optional[Observer] = None
) -> int:
    """Blocking entry point used by ``repro serve``: run until a
    SIGTERM/SIGINT drain completes; returns the process exit code."""
    sys.setswitchinterval(_SWITCH_INTERVAL_S)
    server = ReproServer(config, obs=obs)
    asyncio.run(_serve_until_drained(server, install_signals=True))
    return 0


class ServerThread:
    """Run a :class:`ReproServer` on a private loop in a daemon thread.

    The embedding used by tests and the ``serve_latency`` bench: start,
    read ``.port``, hammer it from ordinary blocking ``http.client``
    code, then ``stop()`` (which performs the same graceful drain as
    SIGTERM).  Usable as a context manager.
    """

    def __init__(
        self,
        config: ServeConfig,
        obs: Optional[Observer] = None,
        model_transform: Optional[Callable] = None,
    ) -> None:
        self.server = ReproServer(
            config, obs=obs, model_transform=model_transform
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._failure: Optional[BaseException] = None

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def address(self) -> Tuple[str, int]:
        return (self.server.config.host, self.server.port)

    def start(self, timeout: float = 10.0) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout):
            raise RuntimeError("server thread failed to start in time")
        if self._failure is not None:
            raise RuntimeError(
                f"server thread failed to start: {self._failure!r}"
            )
        return self

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self._main())
        finally:
            self._loop.close()

    async def _main(self) -> None:
        try:
            await self.server.start()
        except BaseException as error:  # surface bind errors to start()
            self._failure = error
            self._started.set()
            return
        self._started.set()
        await self.server.wait_closed()

    def stop(self, timeout: float = 30.0) -> None:
        if self._loop is None or self._thread is None:
            return
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self.server.request_drain)
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise RuntimeError("server thread did not drain in time")

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
