"""High-level facade: one call from workload to a full analysis session.

``analyze(workload)`` runs the RpStacks pipeline of Fig 8a — baseline
timing simulation, dependence-graph construction, RpStacks generation —
and returns an :class:`AnalysisSession`, from which examples, tests and
benchmarks reach the model, the graph and the comparison predictors.
The graph and the predictors are derived from the baseline run when a
consumer first asks for them, so a session read back from the artifact
cache costs only its two archives until then.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple

from repro.baselines.cp1 import CP1Predictor
from repro.baselines.fmt import FMTPredictor
from repro.common.config import LatencyConfig, MicroarchConfig, baseline_config
from repro.core.generator import generate_rpstacks
from repro.core.model import RpStacksModel
from repro.core.native import load_native
from repro.dse.designspace import DesignSpace
from repro.dse.explorer import Explorer, ExplorationResult
from repro.graphmodel.builder import build_graph
from repro.graphmodel.graph import DependenceGraph
from repro.graphmodel.reeval import GraphReevalPredictor
from repro.isa.uop import Workload
from repro.obs.observer import get_observer
from repro.simulator.machine import Machine
from repro.simulator.trace import SimResult


class AnalysisSession:
    """Everything derived from one baseline simulation of one workload.

    ``graph`` is built from ``baseline_result`` on first access, and
    ``cp1``, ``fmt`` and ``reeval`` together on the first access of any
    of them, each at most once per session, unless the constructor was
    given them (the three predictors come together or not at all).  A
    per-session lock guards the builds, so threads sharing a session
    (the server's) build each part once and all get the same object;
    ``functools.cached_property`` would not do, since on Python 3.11 its
    lock is shared by every instance of the class.  The ``graph.build``
    and ``baselines.init`` spans land under whatever observer is ambient
    at that first access.  Sessions pickle without their lock, built or
    not.
    """

    def __init__(
        self,
        *,
        workload: Workload,
        config: MicroarchConfig,
        machine: Machine,
        baseline_result: SimResult,
        rpstacks: RpStacksModel,
        graph: Optional[DependenceGraph] = None,
        cp1: Optional[CP1Predictor] = None,
        fmt: Optional[FMTPredictor] = None,
        reeval: Optional[GraphReevalPredictor] = None,
    ) -> None:
        self.workload = workload
        self.config = config
        self.machine = machine
        self.baseline_result = baseline_result
        self.rpstacks = rpstacks
        self._graph = graph
        baselines = (cp1, fmt, reeval)
        given = sum(part is not None for part in baselines)
        if given not in (0, 3):
            raise TypeError("pass cp1, fmt and reeval together or not at all")
        self._baselines = baselines if given else None
        self._lock = threading.Lock()

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    @property
    def graph(self) -> DependenceGraph:
        """The dependence graph of the baseline run (Table I)."""
        if self._graph is None:
            with self._lock:
                if self._graph is None:
                    self._graph = build_graph(self.baseline_result)
        return self._graph

    @property
    def cp1(self) -> CP1Predictor:
        return self._built_baselines()[0]

    @property
    def fmt(self) -> FMTPredictor:
        return self._built_baselines()[1]

    @property
    def reeval(self) -> GraphReevalPredictor:
        return self._built_baselines()[2]

    def _built_baselines(self) -> Tuple:
        if self._baselines is None:
            graph = self.graph
            with self._lock:
                if self._baselines is None:
                    with get_observer().span(
                        "baselines.init",
                        workload=self.workload.name,
                        native=load_native() is not None,
                    ):
                        self._baselines = (
                            CP1Predictor(graph, self.config.latency),
                            FMTPredictor(self.baseline_result),
                            GraphReevalPredictor(graph),
                        )
        return self._baselines

    @property
    def baseline_cpi(self) -> float:
        return self.baseline_result.cpi

    def predictors(self) -> Dict[str, object]:
        """The paper's comparison trio, keyed by report name."""
        return {"rpstacks": self.rpstacks, "cp1": self.cp1, "fmt": self.fmt}

    def all_predictors(self) -> Dict[str, object]:
        """Every single-simulation predictor, including the related-work
        mechanistic interval model and exact graph re-evaluation."""
        from repro.baselines.interval import IntervalModelPredictor

        predictors = self.predictors()
        predictors["interval"] = IntervalModelPredictor(
            self.baseline_result
        )
        predictors["graph-reeval"] = self.reeval
        return predictors

    def explore(
        self,
        space: DesignSpace,
        target_cpi: Optional[float] = None,
    ) -> ExplorationResult:
        """Sweep *space* with the RpStacks predictor (Fig 6a, step 2)."""
        return Explorer(self.rpstacks).explore(space, target_cpi=target_cpi)

    def sweep(
        self,
        space: DesignSpace,
        target_cpi: Optional[float] = None,
        *,
        chunk_size: int = 65536,
        top_k: Optional[int] = None,
        obs=None,
        progress_interval: Optional[float] = None,
    ) -> ExplorationResult:
        """Stream *space* through the bounded-memory sweep engine.

        The million-point version of :meth:`explore`: same Pareto front
        (bit-identical), but chunked and never materialising the space.
        ``obs`` / ``progress_interval`` forward to
        :func:`repro.dse.sweep.sweep_space` for chunk spans, metrics
        and progress lines.
        """
        return Explorer(self.rpstacks).sweep(
            space,
            target_cpi=target_cpi,
            chunk_size=chunk_size,
            top_k=top_k,
            obs=obs,
            progress_interval=progress_interval,
        )

    def simulate(self, latency: LatencyConfig) -> SimResult:
        """Ground-truth re-simulation (validation only — the slow path)."""
        return self.machine.simulate(latency)


def analyze(
    workload: Workload,
    config: Optional[MicroarchConfig] = None,
    similarity_threshold: float = 0.7,
    segment_length: int = 256,
    max_paths: int = 32,
    preserve_unique: bool = True,
    include_base_in_similarity: bool = False,
    jobs: int = 1,
    warm_caches: bool = True,
    cache=None,
    obs=None,
) -> AnalysisSession:
    """Run the full single-simulation analysis pipeline on *workload*.

    Args:
        workload: the dynamic micro-op stream to analyse.
        config: structure + baseline latencies (Table II default).
        similarity_threshold / segment_length / max_paths /
            preserve_unique / include_base_in_similarity: RpStacks
            generation parameters (§III-C).
        jobs: the most threads the compiled segment walk may use (the
            spec walk stays serial).  Segments are independent (§IV-D)
            and results are order-merged, so any ``jobs`` value yields a
            byte-identical model; ``jobs`` therefore never enters the
            cache key.
        warm_caches: warm caches/TLBs to steady state before measuring.
        cache: an :class:`~repro.runtime.cache.ArtifactCache` (or a
            cache directory path) for content-addressed reuse: when the
            exact same analysis has run before, its archived trace and
            model are reloaded instead of re-simulated, and the graph
            is rebuilt from the trace (cheaper than archiving it) when
            the session is first asked for it.
        obs: an :class:`~repro.obs.Observer`; installed as the ambient
            observer for the duration of the call so every stage below
            (simulation, graph build, stack generation, cache probes)
            records spans and metrics into it.  ``None`` keeps whatever
            observer is already ambient (the disabled one by default).
            Parts the session builds later, on first access, record
            into the observer ambient at that access.

    Returns:
        An :class:`AnalysisSession` holding the model.  A cold run hands
        it the graph it built; the comparison predictors (and, on a
        cache hit, the graph) are built on first access.
    """
    from repro.obs.observer import use_observer

    with use_observer(obs) as observer:
        return _analyze_instrumented(
            workload,
            config,
            similarity_threshold,
            segment_length,
            max_paths,
            preserve_unique,
            include_base_in_similarity,
            jobs,
            warm_caches,
            cache,
            observer,
        )


def _analyze_instrumented(
    workload,
    config,
    similarity_threshold,
    segment_length,
    max_paths,
    preserve_unique,
    include_base_in_similarity,
    jobs,
    warm_caches,
    cache,
    obs,
) -> AnalysisSession:
    config = config or baseline_config()
    if cache is not None:
        from repro.core.reduction import ReductionPolicy
        from repro.runtime.cache import open_cache

        cache = open_cache(cache)
        key = cache.key_for(
            workload,
            config,
            policy=ReductionPolicy(
                similarity_threshold=similarity_threshold,
                max_paths=max_paths,
                preserve_unique=preserve_unique,
                include_base_in_similarity=include_base_in_similarity,
            ),
            segment_length=segment_length,
            warm_caches=warm_caches,
        )
        with obs.span("cache.load", workload=workload.name) as span:
            session = cache.load(key)
        if session is not None:
            obs.counter("cache.hit").inc()
            span.set(outcome="hit")
            return session
        obs.counter("cache.miss").inc()
        span.set(outcome="miss")
    with obs.span("analyze", workload=workload.name, uops=len(workload)):
        machine = Machine(workload, config, warm_caches=warm_caches)
        result = machine.simulate()
        graph = build_graph(result)
        rpstacks = generate_rpstacks(
            graph,
            config.latency,
            similarity_threshold=similarity_threshold,
            segment_length=segment_length,
            max_paths=max_paths,
            preserve_unique=preserve_unique,
            include_base_in_similarity=include_base_in_similarity,
            jobs=jobs,
        )
        session = AnalysisSession(
            workload=workload,
            config=config,
            machine=machine,
            baseline_result=result,
            rpstacks=rpstacks,
            graph=graph,
        )
        if cache is not None:
            with obs.span("cache.store", workload=workload.name):
                cache.store(key, session)
    return session
