"""The ``repro serve`` analysis daemon.

Long-running service layer over the analysis pipeline (ROADMAP north
star: serving design-space queries to heavy traffic).  RpStacks'
value proposition is that a *built* model answers "what if this latency
changed?" in microseconds — so the expensive part (simulate, build the
dependence graph, generate stacks) should happen once and stay warm in
a process, not once per CLI invocation:

* :mod:`repro.serve.protocol` — strict JSON wire schema with typed
  validation errors (HTTP status attached);
* :mod:`repro.serve.singleflight` — stampede control: N identical
  concurrent cold requests collapse to one computation;
* :mod:`repro.serve.jobs` — async job lifecycle for long sweeps: a
  job runs on an executor thread and ends ``done`` or ``failed``;
* :mod:`repro.serve.server` — the stdlib-``asyncio`` HTTP daemon:
  warm-path endpoints, bounded backpressure, graceful drain;
* :mod:`repro.serve.loadgen` — the closed-loop load generator behind
  the committed ``serve_latency`` benchmark.
"""

from repro.serve.jobs import JOB_STATES, JobRecord, JobRegistry
from repro.serve.loadgen import LoadReport, run_load
from repro.serve.protocol import (
    MAX_BODY_BYTES,
    AnalyzeRequest,
    JobRequest,
    PredictRequest,
    ProtocolError,
    WorkloadCoord,
)
from repro.serve.server import (
    ReproServer,
    ServeConfig,
    ServerThread,
    run_forever,
)
from repro.serve.singleflight import SingleFlight

__all__ = [
    "AnalyzeRequest",
    "JOB_STATES",
    "JobRecord",
    "JobRegistry",
    "JobRequest",
    "LoadReport",
    "MAX_BODY_BYTES",
    "PredictRequest",
    "ProtocolError",
    "ReproServer",
    "ServeConfig",
    "ServerThread",
    "SingleFlight",
    "WorkloadCoord",
    "run_forever",
    "run_load",
]
