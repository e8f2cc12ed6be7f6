"""The four end-to-end workloads and the checks on their outputs.

Each workload is one function ``(seed, seconds, trace, checker,
build_dir, trace_path, sizes, corpus_seed) -> Report``.  Sizes are fixed
in :data:`SIZES` and passed as an argument so the self-test can shrink
them.

Inputs.  The analysed traces, including those of the daemon's cold
builds, are a fixed corpus, generated from ``corpus_seed``.  The run
seed makes everything else: the design points priced, the order of the
traces in each round and the daemon's request mix.  With the corpus
fixed, the accuracy numbers are the same for every run seed, so they can
be gated as tightly as a count; across trace seeds they move by about
40% of their median.

Timing.  The library workloads run a fixed number of rounds for a
time budget: ``seconds / round_s``, at least :data:`MIN_ROUNDS`, where
``round_s`` is a workload's round time on the reference host.  The
count does not depend on how fast the rounds run, so the program under
test and its parent are measured on the same work; only a run that
overruns its budget by :data:`OVERRUN` stops early.  Each round sets up
afresh (a cheap setup several times, see :data:`SETUP_SECONDS`) and
then runs the workload's task.  ``serve_mixed`` starts its daemon
:data:`SETUPS` times, then sends a fixed amount of traffic.  Every
timing is adjusted for the host's speed by :mod:`host`, and is a mean
over the run (a median for ``setup_s``): the host switches between two
speeds, so a median or a percentile of a run's samples jumps between
them as the share of slow time moves, where a mean follows that share
smoothly and the adjustment removes it.  With tracing on, half the
rounds run untraced (for ``bench.trace_overhead_pct``) and then one
traced setup plus one traced round, with a span around every public
call, followed by a small probe of the pricing, sweep and cache layers
on the analysed models.

Every call goes through public entry points: ``make_workload``,
``analyze``, ``Machine``, ``build_graph``, ``generate_rpstacks``, the
baseline predictors, ``ArtifactCache``, ``sweep_space``,
``RpStacksModel.predict_cycles(_matrix)``, and HTTP against
``python -m repro serve``.
"""

from __future__ import annotations

import functools
import gc
import http.client
import json
import pathlib
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import (
    AnalysisSession,
    ArtifactCache,
    Machine,
    analyze,
    baseline_config,
    build_graph,
    generate_rpstacks,
    make_workload,
    suite_names,
)
from repro.baselines import CP1Predictor, FMTPredictor, GraphReevalPredictor
from repro.common.events import LATENCY_DOMAIN, EventType
from repro.dse import DesignSpace, bottleneck_reduction_scenarios, sweep_space
from repro.obs.clock import perf_seconds

from host import HostProbe, Interval
from spans import Spans

#: The latency ladder: 9 axes, 829,440 points.  Kept here rather than
#: imported so edits elsewhere cannot change the workload.
LADDER = (
    (EventType.L1D, (1, 2, 3, 4)),
    (EventType.FP_ADD, (1, 2, 3, 4, 5, 6)),
    (EventType.MEM_D, (17, 33, 50, 66, 83, 100)),
    (EventType.L2D, (2, 4, 6, 8, 10, 12)),
    (EventType.FP_MUL, (1, 2, 3, 4, 5, 6)),
    (EventType.LD, (1, 2, 3, 4)),
    (EventType.INT_MUL, (1, 2, 3, 4, 5)),
    (EventType.ST, (1, 2)),
    (EventType.DTLB, (5, 10, 15, 20)),
)

#: Fixed workload sizes.  ``traces`` and ``sessions`` are (analogue,
#: macro-ops) pairs; ``points`` design points are priced one at a time
#: per analysed model; ``probe_axes`` ladder axes (20,736 points at 6)
#: make the traced run's layer-probe sweep; ``round_s`` is one round's
#: seconds, set-up included, on the reference host (2 vCPUs, both
#: native kernels), which turns a time budget into a round count.
SIZES: Dict[str, dict] = {
    # Walk-dominated cold analysis of long traces; the two analogues
    # differ about 3x in walk cost per uop.  Each analysis takes about
    # a second, so a run holds seven rounds.
    "analyze_long": {
        "traces": (("gamess", 2500), ("mcf", 4000)),
        "points": 1000,
        "fractions": (0.5,),
        "probe_axes": 6,
        "round_s": 3.4,
    },
    # The Fig 11 protocol over every analogue: short traces, so the
    # per-trace fixed costs are a visible share.
    "suite_accuracy": {
        "traces": tuple((name, 1000) for name in suite_names()),
        "points": 200,
        "fractions": (0.5, 0.2),
        "probe_axes": 6,
        "round_s": 5.3,
    },
    # Warm-cache analysis, the full ladder sweep and front validation.
    # A warm analysis takes under 0.1 s, so one per round would give
    # its mean only a few short samples; each round loads the model
    # several times and every load is a sample.
    "explore_warm": {
        "traces": (("gamess", 2000),),
        "analyses": 8,
        "points": 1000,
        "axes": 9,
        "probe_axes": 6,
        "round_s": 5.5,
    },
    # Closed-loop daemon traffic: warm reads beside cold builds.
    "serve_mixed": {
        "sessions": (
            ("gamess", 1000), ("mcf", 1000), ("gcc", 1000), ("lbm", 1000),
        ),
        # 16 cold builds: each primed analogue four times, at trace seeds
        # of their own, and shorter than the primed traces so that the
        # builds and their in-process checks fit a run of about 30 s.
        "cold_rounds": 4,
        "cold_macros": 600,
        "batch": 100,
        "points": 200,
        "fractions": (0.5,),
        "probe_axes": 6,
    },
}

#: Daemon setups per ``serve_mixed`` run; ``setup_s`` is their median.
SETUPS = 3

#: Fewest untraced rounds of a library workload, so every timing is a
#: mean of several samples.
MIN_ROUNDS = 3

#: A library run adds no round once it has taken this multiple of its
#: time budget, so a host slower than the reference stretches a run by
#: at most about one round.
OVERRUN = 1.25

#: A library round repeats its setup until this many seconds have gone
#: into it, so a cheap setup (0.1 s) gives ``setup_s`` several samples
#: per round, spread over the run like the rounds themselves.
SETUP_SECONDS = 0.5

#: Single-point prices timed as one block between two host probes.
PRICE_BLOCK = 250

#: Points per chunk in the probe sweep and the bare pricing probe.
PROBE_CHUNK = 4096

#: Span names of public calls, by the per-layer time metric they feed.
LAYER_SPANS = {
    "workloads.generate_s": ("make_workload",),
    "simulator.prepass_s": ("Machine",),
    "simulator.simulate_s": ("Machine.simulate",),
    "simulator.validate_s": ("Machine.cycles",),
    "graphmodel.build_s": ("build_graph",),
    "core.generate_s": ("generate_rpstacks",),
    "baselines.init_s": (
        "CP1Predictor", "FMTPredictor", "GraphReevalPredictor",
    ),
}


class Checker:
    """Counts attempted operations and the ones that failed.

    Only operations that can fail are counted: output checks, HTTP
    responses and re-simulations.  ``failed / attempted`` is the run's
    error rate.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def equal(self, what: str, actual, expected) -> bool:
        return self.record(
            actual == expected,
            f"{what}: got {actual!r}, expected {expected!r}",
        )


@dataclass
class Report:
    """What one workload run measured."""

    end_to_end: Dict[str, float]
    per_layer: Dict[str, float] = field(default_factory=dict)
    #: extra printed values (value, unit) outside the metric contract
    details: Dict[str, Tuple[float, str]] = field(default_factory=dict)


# --------------------------------------------------------------------------
# shared pieces
# --------------------------------------------------------------------------


def design_points(seed: int, count: int) -> list:
    """*count* random latency points around the baseline."""
    base = baseline_config().latency
    rng = random.Random(seed)
    return [
        base.with_overrides(
            {event: rng.randint(1, 2 * base[event])
             for event in LATENCY_DOMAIN}
        )
        for _ in range(count)
    ]


def ladder_space(axes: int) -> DesignSpace:
    return DesignSpace.from_mapping(dict(LADDER[:axes]))


def fig11_scenarios(session, fractions: Sequence[float]) -> list:
    """Fig 11: the two top bottlenecks, alone and paired, scaled down."""
    ranked = sorted(session.cp1.cpi_stack().items(), key=lambda kv: -kv[1])
    top = [
        event for event, _ in ranked
        if event not in (EventType.BASE, EventType.BR_MISP)
    ][:2]
    return [
        scenario
        for fraction in fractions
        for scenario in bottleneck_reduction_scenarios(
            session.config.latency, top, fraction
        )
    ]


def analyze_traced(workload, spans: Spans) -> AnalysisSession:
    """``analyze(workload)`` as its public calls, one span each.

    Counts are recorded on the spans where the work happens.
    """
    config = baseline_config()
    with spans.span("Machine", uops=len(workload)):
        machine = Machine(workload, config)
    with spans.span("Machine.simulate", uops=len(workload)):
        result = machine.simulate()
    with spans.span("build_graph") as span:
        graph = build_graph(result)
    span.args.update(edges=graph.num_edges)
    with spans.span("generate_rpstacks") as span:
        model = generate_rpstacks(graph, config.latency)
    span.args.update(
        nodes_visited=model.stats.nodes_visited,
        candidate_stacks=model.stats.candidate_stacks,
        reductions=model.stats.reductions,
        paths=model.num_paths,
    )
    with spans.span("CP1Predictor"):
        cp1 = CP1Predictor(graph, config.latency)
    with spans.span("FMTPredictor"):
        fmt = FMTPredictor(result)
    with spans.span("GraphReevalPredictor"):
        reeval = GraphReevalPredictor(graph)
    return AnalysisSession(
        workload=workload, config=config, machine=machine,
        baseline_result=result, graph=graph, rpstacks=model,
        cp1=cp1, fmt=fmt, reeval=reeval,
    )


def price_points(model, points, spans: Spans, host: HostProbe,
                 blocks: List[Interval], latencies: List[float]) -> None:
    """Price *points* one call at a time, in blocks of PRICE_BLOCK
    between host probes; each block goes to *blocks* and each call's
    seconds to *latencies*."""
    with spans.span("predict_cycles", points=len(points)):
        for lo in range(0, len(points), PRICE_BLOCK):
            chunk = points[lo:lo + PRICE_BLOCK]
            with host.timed(blocks, work=len(chunk)):
                for point in chunk:
                    start = perf_seconds()
                    model.predict_cycles(point)
                    latencies.append(perf_seconds() - start)


def validate(session, points, spans: Spans, checker: Checker,
             host: HostProbe) -> Dict[str, List[float]]:
    """Re-simulate *points*; each predictor's |error| in percent."""
    errors: Dict[str, List[float]] = {}
    predictors = session.predictors()
    for point in points:
        host.tick()
        with spans.span("Machine.cycles"):
            simulated = session.machine.cycles(point)
        if not checker.record(
            simulated > 0, f"re-simulation of {point.describe()} failed"
        ):
            continue
        for name, predictor in predictors.items():
            predicted = predictor.predict_cycles(point)
            errors.setdefault(name, []).append(
                abs(predicted - simulated) / simulated * 100.0
            )
    return errors


def accuracy(per_model: Sequence[Dict[str, List[float]]]) -> Dict[str, float]:
    """Mean of per-model mean |error|, and the worst point, per predictor."""
    def mean_of(name):
        return statistics.mean(
            statistics.mean(errs[name]) for errs in per_model
        )

    return {
        "rpstacks_err_mean_pct": mean_of("rpstacks"),
        "rpstacks_err_max_pct": max(
            max(errs["rpstacks"]) for errs in per_model
        ),
        "baselines.cp1_err_mean_pct": mean_of("cp1"),
        "baselines.fmt_err_mean_pct": mean_of("fmt"),
    }


def segmentation_bias(sessions, checker: Checker) -> float:
    """Check the segmented bound; return the summed over-prediction %.

    DESIGN.md section 5: the summed per-segment maxima never fall below
    the unsegmented critical path at the baseline configuration.
    """
    predicted = exact = 0.0
    for session in sessions:
        base = session.config.latency
        p = session.rpstacks.predict_cycles(base)
        e = session.graph.longest_path_length(base)
        checker.record(
            p >= e,
            f"{session.workload.name}: predict_cycles(base) {p} < "
            f"longest_path_length(base) {e}",
        )
        predicted += p
        exact += e
    return (predicted - exact) / exact * 100.0


def tail_details(prefix: str, seconds: Sequence[float]) -> dict:
    """Median, p90, p99 and sample count of single-call latencies, as
    measured."""
    cuts = statistics.quantiles(seconds, n=100)
    return {
        f"{prefix}_p50_ms": (statistics.median(seconds) * 1e3, "ms"),
        f"{prefix}_p90_ms": (cuts[89] * 1e3, "ms"),
        f"{prefix}_p99_ms": (cuts[98] * 1e3, "ms"),
        f"{prefix}_samples": (len(seconds), "count"),
    }


def host_details(host: HostProbe, setups: List[Interval],
                 analyses: List[Interval], task: List[Interval],
                 calls: int, call_s: float) -> dict:
    """The end-to-end timings unadjusted, and the host's probe readings."""
    return {
        "raw.setup_s": (
            statistics.median(host.busy(s) for s in setups), "s"),
        "raw.analyze_uops_per_s": (host.raw_rate(analyses), "uops/s"),
        "raw.task_s": (
            statistics.fmean(host.busy(t) for t in task), "s"),
        "raw.predict_ms": (call_s / calls * 1e3, "ms"),
        "host.probe_ms": (host.mean_reading_ms(), "ms"),
        "host.probes": (len(host.readings), "count"),
    }


def median_ms(seconds: Sequence[float]) -> float:
    """Median in milliseconds; NaN when nothing was sampled."""
    return statistics.median(seconds) * 1e3 if seconds else float("nan")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def trace_overhead_pct(host: HostProbe, traced: List[Interval],
                       untraced: List[Interval]) -> float:
    """The median traced task against the median untraced one, both
    host-adjusted so that drift between the two phases cancels."""
    return (statistics.median(host.adjusted(t) for t in traced)
            / statistics.median(host.adjusted(t) for t in untraced)
            - 1.0) * 100.0


def layer_metrics(spans: Spans) -> Dict[str, float]:
    """Per-layer timings and counts from the traced phase's spans."""
    totals: Dict[str, float] = {}
    for span in spans.finished:
        totals[span.name] = totals.get(span.name, 0.0) + span.duration
    metrics = {
        name: sum(totals.get(s, 0.0) for s in names)
        for name, names in LAYER_SPANS.items()
    }

    def arg_sum(span_name: str, key: str) -> int:
        return sum(
            s.args.get(key, 0) for s in spans.finished if s.name == span_name
        )

    walk = arg_sum("generate_rpstacks", "nodes_visited")
    candidates = arg_sum("generate_rpstacks", "candidate_stacks")
    paths = arg_sum("generate_rpstacks", "paths")
    analysis = sum(metrics[name] for name in (
        "simulator.prepass_s", "simulator.simulate_s", "graphmodel.build_s",
        "core.generate_s", "baselines.init_s",
    ))
    metrics.update({
        "simulator.uops_per_s": (
            arg_sum("Machine.simulate", "uops")
            / metrics["simulator.simulate_s"]
        ),
        "simulator.validate_runs": sum(
            s.name == "Machine.cycles" for s in spans.finished
        ),
        "graphmodel.edges": arg_sum("build_graph", "edges"),
        "core.generate_share": metrics["core.generate_s"] / analysis,
        "core.us_per_node": metrics["core.generate_s"] / walk * 1e6,
        "core.candidate_stacks": candidates,
        "core.reductions": arg_sum("generate_rpstacks", "reductions"),
        "core.paths": paths,
        "core.kept_ratio": paths / candidates,
    })
    # The self times of the stages inside a task sum to the durations of
    # the task's direct children.  Coverage is taken against the traced
    # task itself, so a host slowdown between the untraced and traced
    # rounds leaves it alone.
    tasks = [s for s in spans.finished if s.name == "task"]
    ids = {task.span_id for task in tasks}
    covered = sum(s.duration for s in spans.finished if s.parent_id in ids)
    traced = sum(task.duration for task in tasks)
    metrics["bench.stage_coverage_pct"] = covered / traced * 100.0
    return metrics


def layer_probe(sessions, points, probe_axes: int, cache_root: pathlib.Path,
                spans: Spans, checker: Checker,
                host: HostProbe) -> Dict[str, float]:
    """Measure pricing, sweep and cache layers on the analysed models."""
    space = ladder_space(probe_axes)
    n = space.num_points
    thetas = [
        space.theta_matrix(lo, min(lo + PROBE_CHUNK, n))
        for lo in range(0, n, PROBE_CHUNK)
    ]
    shutil.rmtree(cache_root, ignore_errors=True)
    cache = ArtifactCache(cache_root)
    blocks: List[Interval] = []
    price_s = sweep_s = 0.0
    peaks, store_s, load_s, sizes = [], [], [], []
    for session in sessions:
        model = session.rpstacks
        price_points(model, points, spans, host, blocks, [])
        with spans.span("predict_cycles_matrix", points=n) as span:
            for theta in thetas:
                model.predict_cycles_matrix(theta)
        price_s += span.duration
        with spans.span("sweep_space", points=n) as span:
            result = sweep_space(model, space, chunk_size=PROBE_CHUNK)
        sweep_s += span.duration
        peaks.append(result.metrics.peak_candidates)
        key = ArtifactCache.key_for(session.workload, session.config)
        with spans.span("ArtifactCache.store") as span:
            entry = cache.store(key, session)
        store_s.append(span.duration)
        with spans.span("ArtifactCache.load") as span:
            loaded = cache.load(key)
        load_s.append(span.duration)
        checker.equal(
            f"{session.workload.name}: cache round trip digest",
            loaded.rpstacks.content_digest() if loaded else None,
            model.content_digest(),
        )
        sizes.append(sum(f.stat().st_size for f in entry.iterdir()))
    shutil.rmtree(cache_root, ignore_errors=True)
    count = len(sessions)
    return {
        "core.predict_us": 1e6 / host.rate(blocks),
        "core.price_points_per_s": n * count / price_s,
        "dse.sweep_s": sweep_s / count,
        "dse.overhead_s": (sweep_s - price_s) / count,
        "dse.points_per_s": n * count / sweep_s,
        "dse.peak_candidates": max(peaks),
        "runtime.cache_store_ms": statistics.mean(store_s) * 1e3,
        "runtime.cache_load_ms": statistics.mean(load_s) * 1e3,
        "runtime.cache_entry_mb": statistics.mean(sizes) / 2**20,
    }


def check_same_digests(checker: Checker, runs: List[Dict[str, str]]) -> None:
    """Every round must produce the same model (and front) per input."""
    first = runs[0]
    for index, digests in enumerate(runs[1:], start=1):
        for label, digest in digests.items():
            checker.equal(f"{label}: digest of round {index}", digest,
                          first[label])


# --------------------------------------------------------------------------
# library workloads: analyze_long, suite_accuracy, explore_warm
# --------------------------------------------------------------------------


@dataclass
class Round:
    """One pass over every trace of a library workload."""

    #: the round's setups
    setups: List[Interval] = field(default_factory=list)
    #: the round's task, from the first analysis to the last validation
    task: Optional[Interval] = None
    #: each analysis, its work the trace's uops
    analyses: List[Interval] = field(default_factory=list)
    #: blocks of single-point prices, their work the number of calls
    prices: List[Interval] = field(default_factory=list)
    #: seconds of each single-point price
    price_s: List[float] = field(default_factory=list)
    digests: Dict[str, str] = field(default_factory=dict)
    fronts: Dict[str, list] = field(default_factory=dict)
    errors: Dict[str, Dict[str, List[float]]] = field(default_factory=dict)
    sessions: Dict[str, AnalysisSession] = field(default_factory=dict)


def _library_round(inputs, order, analyze_one, analyses, points, space,
                   fractions, spans: Spans, checker: Checker,
                   host: HostProbe) -> Round:
    """Analyse each input in *order* (*analyses* times, keeping the
    last), price points one by one, sweep *space* if given, then
    re-simulate the front (or the Fig 11 scenarios)."""
    out = Round()
    for label in order:
        workload = inputs[label]
        for _ in range(analyses):
            with host.timed(out.analyses, work=len(workload)):
                session = analyze_one(workload)
        price_points(session.rpstacks, points, spans, host, out.prices,
                     out.price_s)
        if space is None:
            scenarios = fig11_scenarios(session, fractions)
        else:
            with spans.span("sweep_space", points=space.num_points):
                front = sweep_space(session.rpstacks, space).pareto_front()
            host.probe()
            out.fronts[label] = front
            scenarios = [c.latency for c in front]
        out.errors[label] = validate(session, scenarios, spans, checker,
                                     host)
        out.sessions[label] = session
    return out


def _library_workload(seed, seconds, trace, checker, build_dir, trace_path,
                      sizes, warm: bool, corpus_seed: int) -> Report:
    traces = {f"{name}.{macros}": (name, macros)
              for name, macros in sizes["traces"]}
    points = design_points(seed, sizes["points"])
    space = ladder_space(sizes["axes"]) if warm else None
    fractions = sizes.get("fractions")
    cache_root = build_dir / "explore-cache"
    order_rng = random.Random(seed)
    host = HostProbe()

    def setup(spans: Spans):
        inputs = {}
        for label, (name, macros) in traces.items():
            host.tick()
            with spans.span("make_workload", workload=name, macros=macros):
                inputs[label] = make_workload(name, macros,
                                              seed=corpus_seed)
        if not warm:
            return inputs, None
        shutil.rmtree(cache_root, ignore_errors=True)
        cache = ArtifactCache(cache_root)
        for workload in inputs.values():
            if spans.enabled:
                session = analyze_traced(workload, spans)
                key = ArtifactCache.key_for(workload, session.config)
                with spans.span("ArtifactCache.store"):
                    cache.store(key, session)
            else:
                analyze(workload, cache=cache)
        return inputs, cache

    def run_round(spans: Spans, index: int, inputs, cache) -> Round:
        if not warm:
            def analyze_one(workload):
                if spans.enabled:
                    return analyze_traced(workload, spans)
                return analyze(workload)
        else:
            def analyze_one(workload):
                if not spans.enabled:
                    return analyze(workload, cache=cache)
                key = ArtifactCache.key_for(workload, baseline_config())
                with spans.span("ArtifactCache.load"):
                    session = cache.load(key)
                if not checker.record(session is not None,
                                      "warm cache miss"):
                    session = analyze_traced(workload, spans)
                return session

        order = sorted(traces)
        order_rng.shuffle(order)
        gc.collect()
        spans.trace_id = index
        host.probe()
        start = perf_seconds()
        with spans.span("task", index=index):
            out = _library_round(inputs, order, analyze_one,
                                 sizes.get("analyses", 1), points, space,
                                 fractions, spans, checker, host)
        out.task = Interval(start, perf_seconds())
        host.probe()
        for label, session in out.sessions.items():
            out.digests[label] = session.rpstacks.content_digest()
        for label, front in out.fronts.items():
            out.digests[label + " front"] = repr(
                [(c.latency.cycles, c.predicted_cpi) for c in front]
            )
        return out

    untraced = Spans(enabled=False)
    budget = seconds / 2 if trace else seconds
    fewest = 1 if trace else MIN_ROUNDS
    count = max(fewest, int(budget / sizes["round_s"]))
    rounds: List[Round] = []
    began = perf_seconds()
    for _ in range(count):
        if (len(rounds) >= fewest
                and perf_seconds() - began > OVERRUN * budget):
            break
        if rounds:
            rounds[-1].sessions = {}  # one round's models alive at a time
        setups: List[Interval] = []
        while sum(s.seconds for s in setups) < SETUP_SECONDS:
            inputs = cache = None  # release the previous setup's inputs
            gc.collect()
            with host.timed(setups):
                inputs, cache = setup(untraced)
        rounds.append(run_round(untraced, len(rounds), inputs, cache))
        rounds[-1].setups = setups

    final = rounds[-1]
    setups = [s for r in rounds for s in r.setups]
    analyses = [a for r in rounds for a in r.analyses]
    tasks = [r.task for r in rounds]
    prices = [p for r in rounds for p in r.prices]
    price_s = [s for r in rounds for s in r.price_s]
    report = Report(end_to_end={
        "setup_s": statistics.median(host.adjusted(s) for s in setups),
        "analyze_uops_per_s": host.rate(analyses),
        "task_s": statistics.fmean(host.adjusted(t) for t in tasks),
        "predict_ms": 1e3 / host.rate(prices),
    })
    report.details.update(host_details(
        host, setups, analyses, tasks, len(price_s), sum(price_s)
    ))
    report.details.update(tail_details("core.predict", price_s))
    report.details["bench.rounds"] = (len(rounds), "count")
    digests = [r.digests for r in rounds]
    if trace:
        final.sessions = {}
        spans = Spans(enabled=True)
        spans.trace_id = -1
        with spans.span("setup"):
            inputs, cache = setup(spans)
        final = run_round(spans, len(rounds), inputs, cache)
        digests.append(final.digests)
        report.per_layer = layer_metrics(spans)
        report.per_layer["bench.trace_overhead_pct"] = trace_overhead_pct(
            host, [final.task], tasks
        )
        report.per_layer.update(layer_probe(
            list(final.sessions.values()), points, sizes["probe_axes"],
            build_dir / "probe-cache", spans, checker, host,
        ))
        spans.write_chrome(trace_path)
    check_same_digests(checker, digests)
    report.end_to_end["peak_rss_mb"] = peak_rss_mb()
    scores = accuracy([final.errors[label] for label in sorted(traces)])
    for name in ("rpstacks_err_mean_pct", "rpstacks_err_max_pct"):
        report.end_to_end[name] = scores.pop(name)
    report.per_layer.update(scores)
    report.per_layer["core.seg_bias_pct"] = segmentation_bias(
        final.sessions.values(), checker
    )
    for label in sorted(traces):
        report.details[f"core.err_pct.{label}"] = (
            statistics.mean(final.errors[label]["rpstacks"]), "%"
        )
    shutil.rmtree(cache_root, ignore_errors=True)
    return report


# --------------------------------------------------------------------------
# serve_mixed: closed-loop HTTP traffic against a daemon subprocess
# --------------------------------------------------------------------------


class Daemon:
    """One ``python -m repro serve`` subprocess with a fresh cache dir."""

    def __init__(self, root: pathlib.Path, host: HostProbe) -> None:
        shutil.rmtree(root, ignore_errors=True)
        root.mkdir(parents=True)
        self.log_path = root / "serve.log"
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve", "--port", "0",
                    "--workers", "1", "--queue-limit", "4",
                    "--cache-dir", str(root / "cache"),
                ],
                stdout=log,
                stderr=subprocess.STDOUT,
            )
        try:
            self.port = self._wait_for_port(host)
        except BaseException:
            self.stop()
            raise

    def _wait_for_port(self, host: HostProbe) -> int:
        deadline = perf_seconds() + 60.0
        while perf_seconds() < deadline:
            banner = re.search(
                r"serving on http://[\w.]+:(\d+)", self.log_path.read_text()
            )
            if banner:
                return int(banner.group(1))
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"serve exited with {self.proc.returncode}: "
                    f"{self.log_path.read_text()[-2000:]}"
                )
            host.tick()
            time.sleep(0.02)
        raise RuntimeError("serve did not report its port within 60 s")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=300)

    def peak_rss_mb(self) -> float:
        status = pathlib.Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def request(conn, method: str, path: str, payload=None) -> Tuple[int, bytes]:
    body = None if payload is None else json.dumps(payload).encode()
    headers = {"Content-Type": "application/json"} if body else {}
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    return response.status, response.read()


@dataclass
class Batch:
    """One batch of connection A's requests."""

    interval: Optional[Interval] = None
    predict: List[float] = field(default_factory=list)
    analyze_warm: List[float] = field(default_factory=list)
    healthz: List[float] = field(default_factory=list)


@dataclass
class Load:
    """What the load phase observed."""

    #: A's first batch, sent before B starts
    quiet: Optional[Batch] = None
    #: A's batches that ran from start to end beside B's cold builds
    contended: List[Batch] = field(default_factory=list)
    #: every batch, including the one B's end cut into
    batches: List[Batch] = field(default_factory=list)
    seconds: float = 0.0
    #: (coord index, overrides, response body) per /predict
    predict_bodies: list = field(default_factory=list)
    #: (coord index, response body) per warm /analyze
    analyze_bodies: list = field(default_factory=list)
    #: (coord, response body, interval with the trace's uops as work) per
    #: cold /analyze
    cold: list = field(default_factory=list)


def drive_load(daemon: Daemon, coords, colds, batch_size: int,
               rng: random.Random, spans: Spans, checker: Checker,
               host: HostProbe) -> Load:
    """Closed loop on two connections; each waits for every reply.

    Connection A sends the request mix in batches of *batch_size*; its
    first batch runs alone, as the quiet reference.  Then connection B
    sends the cold analyses of *colds* back to back while A keeps
    going.  A stops once B is done; a batch counts as contended only if
    B was still busy when it ended.  Only A probes the host, between
    its requests; B's builds are adjusted by those probes.
    """
    load = Load()
    base = baseline_config().latency
    b_start = threading.Event()
    b_done = threading.Event()
    a_done = threading.Event()
    b_errors: List[str] = []

    def connection_b() -> None:
        conn = daemon.connect()
        try:
            b_start.wait()
            for coord in colds:
                if a_done.is_set():  # A failed or was interrupted
                    break
                with spans.span("POST /analyze", cold=True):
                    start = perf_seconds()
                    status, raw = request(conn, "POST", "/analyze", coord)
                    end = perf_seconds()
                if checker.record(status == 200,
                                  f"cold /analyze {coord}: HTTP {status}"):
                    body = json.loads(raw)
                    load.cold.append(
                        (coord, body, Interval(start, end, body["num_uops"]))
                    )
        except Exception as error:  # noqa: BLE001 - reported by the caller
            b_errors.append(f"connection B: {type(error).__name__}: {error}")
        finally:
            b_done.set()
            conn.close()

    thread = threading.Thread(target=connection_b, name="connection-b")
    thread.start()
    conn = daemon.connect()
    start = perf_seconds()
    try:
        while not b_done.is_set():
            batch = Batch()
            spans.trace_id = len(load.batches)
            host.probe()
            batch_start = perf_seconds()
            with spans.span("task", index=len(load.batches)):
                for _ in range(batch_size):
                    host.tick()
                    roll = rng.random()
                    index = rng.randrange(len(coords))
                    if roll < 0.90:
                        events = rng.sample(LATENCY_DOMAIN, rng.randint(1, 3))
                        overrides = {
                            e.name: rng.randint(1, 2 * base[e]) for e in events
                        }
                        method, path = "POST", "/predict"
                        payload = dict(coords[index], overrides=overrides)
                    elif roll < 0.98:
                        method, path = "POST", "/analyze"
                        payload = coords[index]
                    else:
                        method, path, payload = "GET", "/healthz", None
                    with spans.span(f"{method} {path}"):
                        begin = perf_seconds()
                        status, raw = request(conn, method, path, payload)
                        elapsed = perf_seconds() - begin
                    if not checker.record(
                        status == 200, f"{method} {path}: HTTP {status}"
                    ):
                        continue
                    if path == "/predict":
                        batch.predict.append(elapsed)
                        load.predict_bodies.append(
                            (index, overrides, json.loads(raw))
                        )
                    elif path == "/analyze":
                        batch.analyze_warm.append(elapsed)
                        load.analyze_bodies.append((index, json.loads(raw)))
                    else:
                        batch.healthz.append(elapsed)
            batch.interval = Interval(batch_start, perf_seconds())
            load.batches.append(batch)
            if load.quiet is None:
                load.quiet = batch
                b_start.set()
            elif not b_done.is_set():
                load.contended.append(batch)
    finally:
        a_done.set()
        b_start.set()
        conn.close()
        thread.join()
    host.probe()
    load.seconds = perf_seconds() - start
    for error in b_errors:
        checker.record(False, error)
    if not load.contended:
        raise RuntimeError("no batch of A ran beside a cold build")
    return load


def serve_mixed(seed, seconds, trace, checker, build_dir, trace_path,
                corpus_seed: int, sizes=SIZES["serve_mixed"]) -> Report:
    """Daemon traffic; a fixed amount of it, so *seconds* is unused."""
    coords = [
        {"workload": name, "macros": macros, "seed": corpus_seed}
        for name, macros in sizes["sessions"]
    ]
    # New coordinates for every cold build, part of the fixed corpus so
    # that every run builds the same traces: distinct trace seeds far
    # from the corpus seed, inside the range the wire protocol accepts
    # (0 to 2**31 - 1).
    cold_seeds = random.Random(corpus_seed).sample(
        range(1_000_000, 2**31 - 1),
        sizes["cold_rounds"] * len(sizes["sessions"]),
    )
    rng = random.Random(seed)
    colds = [
        {"workload": name, "macros": sizes["cold_macros"],
         "seed": cold_seeds.pop()}
        for _round in range(sizes["cold_rounds"])
        for name, _macros in sizes["sessions"]
    ]
    host = HostProbe()

    def setup(index: int) -> Daemon:
        daemon = Daemon(build_dir / f"serve-{index}", host)
        conn = daemon.connect()
        try:
            for coord in coords:
                host.tick()
                status, _raw = request(conn, "POST", "/analyze", coord)
                checker.record(status == 200, f"prime {coord}: HTTP {status}")
        finally:
            conn.close()
        return daemon

    setups: List[Interval] = []
    daemon: Optional[Daemon] = None
    spans = Spans(enabled=trace)
    try:
        for index in range(1 if trace else SETUPS):
            if daemon is not None:
                daemon.stop()
            gc.collect()
            with host.timed(setups):
                daemon = setup(index)
        # With tracing on, half the cold builds run untraced, as the
        # reference for the tracing overhead, and half traced.
        half = len(colds) // 2 if trace else len(colds)
        load = drive_load(daemon, coords, colds[:half], sizes["batch"], rng,
                          Spans(enabled=False), checker, host)
        loads = [load]
        if trace:
            loads.append(drive_load(daemon, coords, colds[half:],
                                    sizes["batch"], rng, spans, checker,
                                    host))

        # Timing is over: build the in-process oracle for each primed
        # coordinate and score the served predictions of Fig 11a.
        sessions = []
        for coord in coords:
            with spans.span("make_workload", workload=coord["workload"]):
                workload = make_workload(coord["workload"], coord["macros"],
                                         seed=coord["seed"])
            sessions.append(
                analyze_traced(workload, spans) if trace else analyze(workload)
            )
        errors = _served_accuracy(daemon, coords, sessions,
                                  sizes["fractions"], spans, checker)
        server_rss = daemon.peak_rss_mb()
    finally:
        if daemon is not None:
            daemon.stop()

    base = baseline_config().latency
    for phase in loads:
        for coord, body, _interval in phase.cold:
            with spans.span("make_workload", workload=coord["workload"]):
                workload = make_workload(coord["workload"], coord["macros"],
                                         seed=coord["seed"])
            session = (analyze_traced(workload, spans) if trace
                       else analyze(workload))
            checker.equal(f"cold /analyze {coord} model_digest",
                          body["model_digest"],
                          session.rpstacks.content_digest())
        for index, overrides, body in phase.predict_bodies:
            point = base.with_overrides(
                {EventType[name]: value for name, value in overrides.items()}
            )
            checker.equal(f"/predict {coords[index]} {overrides}",
                          body["predicted_cpi"],
                          sessions[index].rpstacks.predict_cpi(point))
        for index, body in phase.analyze_bodies:
            checker.equal(f"warm /analyze {coords[index]} model_digest",
                          body["model_digest"],
                          sessions[index].rpstacks.content_digest())

    cold = [interval for _c, _body, interval in load.cold]
    predict = [s for b in load.contended for s in b.predict]
    tasks = [b.interval for b in load.contended]
    scores = accuracy(errors)
    report = Report(end_to_end={
        "setup_s": statistics.median(host.adjusted(s) for s in setups),
        "peak_rss_mb": server_rss,
        "analyze_uops_per_s": host.rate(cold),
        "task_s": statistics.fmean(host.adjusted(t) for t in tasks),
        # each round trip at its batch's host scale
        "predict_ms": sum(
            host.scale(b.interval) * sum(b.predict) for b in load.contended
        ) / len(predict) * 1e3,
        "rpstacks_err_mean_pct": scores.pop("rpstacks_err_mean_pct"),
        "rpstacks_err_max_pct": scores.pop("rpstacks_err_max_pct"),
    })
    report.details.update(host_details(
        host, setups, cold, tasks, len(predict), sum(predict)
    ))
    report.details.update(tail_details("serve.predict", predict))
    requests = sum(
        len(b.predict) + len(b.analyze_warm) + len(b.healthz)
        for b in load.batches
    )
    report.details.update({
        "serve.requests_per_s": (requests / load.seconds, "1/s"),
        "serve.cold_analyze_p50_s": (
            statistics.median(i.seconds for i in cold), "s"),
        "serve.cold_builds": (len(cold), "count"),
        "serve.contended_batches": (len(load.contended), "count"),
        "serve.healthz_p50_ms": (median_ms(
            [s for b in load.batches for s in b.healthz]), "ms"),
        "serve.analyze_warm_p50_ms": (median_ms(
            [s for b in load.batches for s in b.analyze_warm]), "ms"),
        "serve.predict_quiet_p50_ms": (median_ms(load.quiet.predict), "ms"),
        "serve.refused": (
            sum(f.endswith("HTTP 429") for f in checker.failures), "count"
        ),
    })
    report.per_layer.update(scores)
    report.per_layer["core.seg_bias_pct"] = segmentation_bias(sessions,
                                                              checker)
    if trace:
        report.per_layer.update(layer_metrics(spans))
        report.per_layer["bench.trace_overhead_pct"] = trace_overhead_pct(
            host, [b.interval for b in loads[1].contended], tasks
        )
        report.per_layer.update(layer_probe(
            sessions, design_points(seed, sizes["points"]),
            sizes["probe_axes"], build_dir / "probe-cache", spans, checker,
            host,
        ))
        report.details["serve.overhead_ratio"] = (
            report.end_to_end["predict_ms"] * 1e3
            / report.per_layer["core.predict_us"], "ratio",
        )
        spans.write_chrome(trace_path)
    return report


def _served_accuracy(daemon, coords, sessions, fractions, spans, checker):
    """Fig 11 errors with the RpStacks prediction taken from /predict."""
    conn = daemon.connect()
    per_model = []
    try:
        for coord, session in zip(coords, sessions):
            base = session.config.latency
            errors: Dict[str, List[float]] = {}
            for point in fig11_scenarios(session, fractions):
                overrides = {
                    e.name: point[e] for e in LATENCY_DOMAIN
                    if point[e] != base[e]
                }
                status, raw = request(conn, "POST", "/predict",
                                      dict(coord, overrides=overrides))
                if not checker.record(status == 200,
                                      f"accuracy /predict: HTTP {status}"):
                    continue
                served = json.loads(raw)["predicted_cpi"]
                checker.equal(f"accuracy /predict {coord} {overrides}",
                              served, session.rpstacks.predict_cpi(point))
                with spans.span("Machine.cycles"):
                    simulated = session.machine.cycles(point)
                checker.record(simulated > 0, "re-simulation failed")
                predicted = {
                    "rpstacks": served * len(session.workload),
                    "cp1": session.cp1.predict_cycles(point),
                    "fmt": session.fmt.predict_cycles(point),
                }
                for name, value in predicted.items():
                    errors.setdefault(name, []).append(
                        abs(value - simulated) / simulated * 100.0
                    )
            per_model.append(errors)
    finally:
        conn.close()
    return per_model


WORKLOADS = {
    "analyze_long": functools.partial(
        _library_workload, sizes=SIZES["analyze_long"], warm=False
    ),
    "suite_accuracy": functools.partial(
        _library_workload, sizes=SIZES["suite_accuracy"], warm=False
    ),
    "explore_warm": functools.partial(
        _library_workload, sizes=SIZES["explore_warm"], warm=True
    ),
    "serve_mixed": serve_mixed,
}
