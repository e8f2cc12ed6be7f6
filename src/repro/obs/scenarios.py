"""Built-in benchmark scenarios — every committed headline number.

Each scenario wraps one measurement this repo's PR history committed a
speedup for (warm-cache analysis, parallel stack generation, the native
simulator, columnar traces, the streaming sweep, the suite runner) as a
:class:`~repro.obs.bench.Scenario` recipe.  The recipe builds the
workload once (untimed), returns the timed body plus a digest function,
and relies on the pipeline's own spans/counters for per-stage
attribution — nothing here times anything itself.

All heavyweight imports happen inside the recipes: this module is
imported by :mod:`repro.obs.bench` (via :func:`ensure_registered`), and
``repro.obs`` must stay importable without the simulator stack.

Tier scales are sized for seconds-per-scenario on a development box
("full", the committed baselines) and sub-second gating on a PR runner
("ci").  Most knobs are env-overridable (``REPRO_BENCH_*``).
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict

from repro.obs.bench import Scenario, register

__all__ = ["ensure_registered"]

_REGISTERED = False

#: Suite workload every scenario analyses/simulates; gamess is the
#: paper's headline memory-plus-float analogue and the one the legacy
#: benches standardised on.
_WORKLOAD = "gamess"


def _make_workload(macros: int):
    from repro.workloads.suite import make_workload

    return make_workload(_WORKLOAD, macros)


def _front_digest(result) -> str:
    """Stable digest of a sweep's Pareto front (configs, CPIs, costs)."""
    payload = json.dumps(
        [c.as_dict() for c in result.pareto_front()], sort_keys=True
    )
    return hashlib.sha256(payload.encode()).hexdigest()


# --------------------------------------------------------------------------
# analysis pipeline
# --------------------------------------------------------------------------


def _analyze_cold_recipe(scale: Dict[str, int]):
    from repro.core.model import RpStacksModel  # noqa: F401 (doc link)
    from repro.dse.pipeline import analyze

    workload = _make_workload(scale["macros"])
    holder = {}

    def body():
        holder["session"] = analyze(workload)

    def digest():
        return holder["session"].rpstacks.content_digest()

    return body, digest


def _analyze_warm_recipe(scale: Dict[str, int]):
    import tempfile

    from repro.dse.pipeline import analyze
    from repro.runtime.cache import ArtifactCache

    workload = _make_workload(scale["macros"])
    # The cache lives for the scenario's lifetime (the TemporaryDirectory
    # object is kept alive by the closure) and is primed during setup so
    # every timed rep measures the pure warm path: probe, load, rebuild.
    tmp = tempfile.TemporaryDirectory(prefix="repro-bench-warm-")
    cache = ArtifactCache(tmp.name)
    analyze(workload, cache=cache)
    holder = {"tmp": tmp}

    def body():
        holder["session"] = analyze(workload, cache=cache)

    def digest():
        return holder["session"].rpstacks.content_digest()

    return body, digest


def _generate_jobs8_recipe(scale: Dict[str, int]):
    from repro.core.generator import generate_rpstacks
    from repro.dse.pipeline import analyze

    session = analyze(_make_workload(scale["macros"]))
    graph = session.graph
    baseline = session.config.latency
    jobs = scale["jobs"]
    holder = {}

    def body():
        holder["model"] = generate_rpstacks(graph, baseline, jobs=jobs)

    def digest():
        return holder["model"].content_digest()

    return body, digest


def _suite_jobs_recipe(scale: Dict[str, int]):
    from repro.runtime.runner import run_suite
    from repro.workloads.suite import suite_names

    names = suite_names()
    holder = {}

    def body():
        holder["report"] = run_suite(
            names, macros=scale["macros"], jobs=scale["jobs"]
        )

    def digest():
        report = holder["report"]
        combined = hashlib.sha256()
        for name in names:
            combined.update(
                report.session(name).rpstacks.content_digest().encode()
            )
        return combined.hexdigest()

    return body, digest


# --------------------------------------------------------------------------
# simulator
# --------------------------------------------------------------------------


def _simulate_recipe(scale: Dict[str, int], native):
    from repro.simulator.machine import Machine
    from repro.simulator.traceio import result_digest

    workload = _make_workload(scale["macros"])
    # Prepass runs once in setup (structure-domain, shared across
    # latency points — exactly how the DSE loop amortises it); the
    # timed body is the per-design-point timing run, with the per-point
    # memo cleared so every rep actually simulates.
    machine = Machine(workload, native=native)
    holder = {}

    def body():
        machine._cache.clear()
        holder["result"] = machine.simulate()

    def digest():
        return result_digest(holder["result"])

    return body, digest


def _simulate_native_recipe(scale: Dict[str, int]):
    return _simulate_recipe(scale, native=True)


def _simulate_python_recipe(scale: Dict[str, int]):
    return _simulate_recipe(scale, native=False)


def _trace_columns_recipe(scale: Dict[str, int]):
    from repro.simulator.columns import TraceColumns
    from repro.simulator.machine import Machine

    workload = _make_workload(scale["macros"])
    machine = Machine(workload)
    columns = machine.simulate().columns
    holder = {}

    def body():
        # The record-materialisation tax PR 7 moved off the hot path —
        # kept measurable so it stays visible if it creeps back in.
        records = columns.to_records()
        holder["columns"] = TraceColumns.from_records(records)

    def digest():
        return hashlib.sha256(
            holder["columns"].canonical_bytes()
        ).hexdigest()

    return body, digest


# --------------------------------------------------------------------------
# design-space exploration
# --------------------------------------------------------------------------


def _sweep_space_for(kpoints: int):
    """A deterministic latency space of roughly ``kpoints`` thousand
    points: axes are appended in a fixed order until the cartesian
    product reaches the target."""
    from repro.common.events import EventType
    from repro.dse.designspace import DesignSpace

    ladder = [
        (EventType.L1D, [1, 2, 3, 4]),
        (EventType.FP_ADD, [1, 2, 3, 4, 5, 6]),
        (EventType.MEM_D, [17, 33, 50, 66, 83, 100]),
        (EventType.L2D, [2, 4, 6, 8, 10, 12]),
        (EventType.FP_MUL, [1, 2, 3, 4, 5, 6]),
        (EventType.LD, [1, 2, 3, 4]),
        (EventType.INT_MUL, [1, 2, 3, 4, 5]),
        (EventType.ST, [1, 2]),
        (EventType.DTLB, [5, 10, 15, 20]),
    ]
    target = max(1, kpoints) * 1000
    axes = {}
    size = 1
    for event, levels in ladder:
        axes[event] = levels
        size *= len(levels)
        if size >= target:
            break
    return DesignSpace.from_mapping(axes)


def _dse_sweep_recipe(scale: Dict[str, int]):
    from repro.dse.pipeline import analyze
    from repro.dse.sweep import sweep_space

    session = analyze(_make_workload(scale["macros"]))
    space = _sweep_space_for(scale["kpoints"])
    chunk_size = scale["chunk_size"]
    holder = {}

    def body():
        holder["result"] = sweep_space(
            session.rpstacks, space, chunk_size=chunk_size
        )

    def digest():
        return _front_digest(holder["result"])

    return body, digest


# --------------------------------------------------------------------------
# serving
# --------------------------------------------------------------------------


def _serve_latency_recipe(scale: Dict[str, int]):
    import json as _json
    import tempfile

    from repro.obs.observer import get_observer
    from repro.serve.loadgen import run_load
    from repro.serve.server import ServeConfig, ServerThread

    # One daemon serves every rep: setup starts it, primes the session
    # (one cold analyze through the artifact cache), and pre-encodes the
    # request body, so the timed body measures the pure warm plane —
    # socket, HTTP parse, validate, predict, respond.  The thread is a
    # daemon and holds only a TemporaryDirectory, so scenario teardown
    # is process exit (matching the cache-holding recipes above).
    tmp = tempfile.TemporaryDirectory(prefix="repro-bench-serve-")
    server = ServerThread(
        ServeConfig(cache_dir=tmp.name, workers=1, queue_limit=4)
    ).start()
    holder = {"tmp": tmp, "server": server}
    coord = {"workload": _WORKLOAD, "macros": scale["workload_macros"]}
    import http.client

    connection = http.client.HTTPConnection(
        "127.0.0.1", server.port, timeout=120
    )
    connection.request(
        "POST", "/analyze", body=_json.dumps(coord).encode(),
        headers={"Content-Type": "application/json"},
    )
    connection.getresponse().read()
    connection.close()
    predict_body = _json.dumps(
        {**coord, "overrides": {"L2D": 30, "FP_MUL": 2}}
    ).encode()
    requests = scale["requests"]
    concurrency = scale["concurrency"]

    def body():
        report = run_load(
            "127.0.0.1",
            server.port,
            "/predict",
            predict_body,
            requests=requests,
            concurrency=concurrency,
        )
        if report.errors or report.requests != requests:
            raise RuntimeError(
                f"load run degraded: {report.requests}/{requests} ok, "
                f"{report.errors} errors, statuses {report.status_counts}"
            )
        get_observer().counter("serve.client_requests").inc(
            report.requests
        )
        holder["report"] = report

    def digest():
        return holder["report"].digest

    return body, digest


# --------------------------------------------------------------------------
# registration
# --------------------------------------------------------------------------


def ensure_registered() -> None:
    """Register the built-in scenarios exactly once per process."""
    global _REGISTERED
    if _REGISTERED:
        return
    _REGISTERED = True

    register(
        Scenario(
            name="analyze_cold",
            title="full analysis pipeline, cold (simulate + graph + stacks)",
            recipe=_analyze_cold_recipe,
            scales={"full": {"macros": 600}, "ci": {"macros": 150}},
            env_overrides={"macros": "REPRO_BENCH_ANALYZE_MACROS"},
        )
    )
    register(
        Scenario(
            name="analyze_warm",
            title="full analysis pipeline, warm artifact cache",
            recipe=_analyze_warm_recipe,
            scales={"full": {"macros": 3000}, "ci": {"macros": 600}},
            env_overrides={"macros": "REPRO_BENCH_ANALYZE_MACROS"},
        )
    )
    register(
        Scenario(
            name="generate_jobs8",
            title="RpStacks generation, segment-parallel (jobs=8)",
            recipe=_generate_jobs8_recipe,
            scales={
                "full": {"macros": 600, "jobs": 8},
                "ci": {"macros": 150, "jobs": 2},
            },
            env_overrides={
                "macros": "REPRO_BENCH_GENERATE_MACROS",
                "jobs": "REPRO_BENCH_GENERATE_JOBS",
            },
        )
    )
    register(
        Scenario(
            name="suite_jobs",
            title="suite runner, 12 analogues over two worker processes",
            recipe=_suite_jobs_recipe,
            scales={
                "full": {"macros": 1000, "jobs": 2},
                "ci": {"macros": 150, "jobs": 2},
            },
        )
    )
    register(
        Scenario(
            name="simulate_native",
            title="timing simulation, compiled kernel (per design point)",
            recipe=_simulate_native_recipe,
            scales={"full": {"macros": 120000}, "ci": {"macros": 20000}},
            env_overrides={"macros": "REPRO_BENCH_SIMULATE_MACROS"},
            native_sensitive=True,
        )
    )
    register(
        Scenario(
            name="simulate_python",
            title="timing simulation, Python loop (per design point)",
            recipe=_simulate_python_recipe,
            scales={"full": {"macros": 5000}, "ci": {"macros": 600}},
            env_overrides={"macros": "REPRO_BENCH_SIMULATE_PY_MACROS"},
        )
    )
    register(
        Scenario(
            name="trace_columns",
            title="trace record materialisation + columnar rebuild",
            recipe=_trace_columns_recipe,
            scales={"full": {"macros": 30000}, "ci": {"macros": 5000}},
            env_overrides={"macros": "REPRO_BENCH_COLUMNS_MACROS"},
            # Materialisation churns ~10^5 Python objects per rep, so
            # the minimum needs more reps to converge across processes.
            repeats=7,
            warmup=2,
        )
    )
    register(
        Scenario(
            name="serve_latency",
            title="serve daemon warm-path request throughput",
            recipe=_serve_latency_recipe,
            scales={
                "full": {
                    "workload_macros": 300,
                    "requests": 600,
                    "concurrency": 4,
                },
                "ci": {
                    "workload_macros": 150,
                    "requests": 200,
                    "concurrency": 2,
                },
            },
            env_overrides={
                "workload_macros": "REPRO_BENCH_SERVE_MACROS",
                "requests": "REPRO_BENCH_SERVE_REQUESTS",
                "concurrency": "REPRO_BENCH_SERVE_CONCURRENCY",
            },
        )
    )
    register(
        Scenario(
            name="dse_sweep_throughput",
            title="streaming sweep-engine throughput",
            recipe=_dse_sweep_recipe,
            scales={
                "full": {"macros": 300, "kpoints": 500, "chunk_size": 65536},
                "ci": {"macros": 150, "kpoints": 20, "chunk_size": 4096},
            },
            env_overrides={"kpoints": "REPRO_BENCH_SWEEP_KPOINTS"},
        )
    )
