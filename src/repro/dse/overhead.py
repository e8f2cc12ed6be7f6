"""Exploration-overhead accounting (Figs 2b and 13).

Measures, on this machine, the wall-clock costs of each exploration
method's phases — baseline simulation, graph construction, RpStacks
generation, per-point evaluation, per-point re-simulation, per-point
graph re-evaluation — and composes them into exploration-time curves
over the number of design points.  The crossover point (where RpStacks'
one-off analysis beats per-point simulation) is the paper's Fig 13
headline; the speed-up at 1000 points is its abstract's "26x" claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.baselines.cp1 import CP1Predictor
from repro.common.config import LatencyConfig, MicroarchConfig, baseline_config
from repro.core.generator import generate_rpstacks
from repro.core.model import RpStacksModel
from repro.dse.literature import MethodSpeed
from repro.graphmodel.builder import build_graph
from repro.graphmodel.graph import DependenceGraph
from repro.isa.uop import Workload
from repro.obs import clock
from repro.obs.observer import use_observer
from repro.obs.report import format_seconds, stage_table
from repro.simulator.core import simulate


@dataclass
class OverheadProfile:
    """Measured phase costs of one workload's exploration methods.

    All times in seconds on the measuring machine; compose with
    :meth:`simulator_curve` / :meth:`rpstacks_curve` etc.
    """

    workload_name: str
    num_uops: int
    simulate_seconds: float
    graph_build_seconds: float
    rpstacks_generate_seconds: float
    rpstacks_eval_seconds: float
    graph_reeval_seconds: float

    def simulator_method(self) -> MethodSpeed:
        """Per-point timing simulation (the MARSSx86-style baseline)."""
        return MethodSpeed(
            name="simulator",
            setup_seconds=0.0,
            per_point_seconds=self.simulate_seconds,
        )

    def rpstacks_method(self) -> MethodSpeed:
        """One simulation + analysis up front, near-free per point."""
        setup = (
            self.simulate_seconds
            + self.graph_build_seconds
            + self.rpstacks_generate_seconds
        )
        return MethodSpeed(
            name="rpstacks",
            setup_seconds=setup,
            per_point_seconds=self.rpstacks_eval_seconds,
        )

    def graph_reeval_method(self) -> MethodSpeed:
        """Fields-style: one simulation, then a graph pass per point."""
        setup = self.simulate_seconds + self.graph_build_seconds
        return MethodSpeed(
            name="graph-reeval",
            setup_seconds=setup,
            per_point_seconds=self.graph_reeval_seconds,
        )

    def speedup(self, num_points: int) -> float:
        """Simulator-time / RpStacks-time at *num_points* designs."""
        return self.simulator_method().exploration_seconds(
            num_points
        ) / self.rpstacks_method().exploration_seconds(num_points)

    def crossover_points(self) -> float:
        """Design-point count where RpStacks overtakes re-simulation.

        Solving setup + n*eval = n*simulate for n; ``inf`` if per-point
        evaluation is not actually cheaper.
        """
        gain = self.simulate_seconds - self.rpstacks_eval_seconds
        if gain <= 0:
            return float("inf")
        setup = (
            self.simulate_seconds
            + self.graph_build_seconds
            + self.rpstacks_generate_seconds
        )
        return setup / gain

    def stage_breakdown(self) -> List[Tuple[str, float]]:
        """The paper's Table VI stage set as ``(stage, seconds)`` rows:
        one-off analysis phases plus the per-design evaluation cost."""
        return [
            ("baseline simulation", self.simulate_seconds),
            ("graph construction", self.graph_build_seconds),
            ("stack generation", self.rpstacks_generate_seconds),
            ("per-design evaluation", self.rpstacks_eval_seconds),
        ]

    def describe(self) -> str:
        """Table VI-style per-stage wall-time/percentage breakdown."""
        stages = self.stage_breakdown()
        table = stage_table(
            stages,
            title=(
                f"{self.workload_name}: {self.num_uops} uops — "
                "one-off analysis breakdown"
            ),
        )
        lines = [
            table,
            "",
            f"per-design evaluation   "
            f"{format_seconds(self.rpstacks_eval_seconds)}/point "
            f"(vs {format_seconds(self.simulate_seconds)} re-simulation)",
            f"graph re-evaluation     "
            f"{format_seconds(self.graph_reeval_seconds)}/point",
            f"speedup @ 1000 points   {self.speedup(1000):.1f}x",
            f"crossover               "
            f"{self.crossover_points():.1f} design points",
        ]
        return "\n".join(lines)


def measure_overhead(
    workload: Workload,
    config: Optional[MicroarchConfig] = None,
    eval_points: int = 64,
    reeval_points: int = 3,
    segment_length: int = 256,
    obs=None,
) -> OverheadProfile:
    """Measure every phase cost for *workload* on this machine.

    The simulation phase times the pure-Python reference simulator
    (``simulate(..., native=False)``), which stands in for the paper's
    detailed simulator in the per-point re-simulation cost.

    Args:
        workload: the stream to analyse.
        config: structure + baseline latency (Table II default).
        eval_points: RpStacks evaluations to average over.
        reeval_points: graph re-evaluations to average over (slow).
        segment_length: RpStacks segmentation parameter.
        obs: an :class:`~repro.obs.Observer` — each phase is recorded
            as a ``profile.*`` span and a metrics histogram, so the
            printed table and the exported trace agree by construction.
    """
    config = config or baseline_config()
    with use_observer(obs) as observer:
        with observer.span(
            "profile.simulate", workload=workload.name
        ):
            start = clock.perf_seconds()
            result = simulate(workload, config, native=False)
            simulate_seconds = clock.perf_seconds() - start

        with observer.span("profile.graph_build", workload=workload.name):
            start = clock.perf_seconds()
            graph = build_graph(result)
            graph_build_seconds = clock.perf_seconds() - start

        with observer.span("profile.stack_gen", workload=workload.name):
            start = clock.perf_seconds()
            model = generate_rpstacks(
                graph, config.latency, segment_length=segment_length
            )
            rpstacks_generate_seconds = clock.perf_seconds() - start

        probe = config.latency.with_overrides({})
        with observer.span(
            "profile.eval", workload=workload.name, points=eval_points
        ):
            start = clock.perf_seconds()
            for _ in range(eval_points):
                model.predict_cycles(probe)
            rpstacks_eval_seconds = (
                clock.perf_seconds() - start
            ) / eval_points

        with observer.span(
            "profile.graph_reeval", workload=workload.name,
            points=reeval_points,
        ):
            start = clock.perf_seconds()
            for _ in range(reeval_points):
                graph.longest_path_length(probe)
            graph_reeval_seconds = (
                clock.perf_seconds() - start
            ) / reeval_points

        if observer.enabled:
            metrics = observer.metrics
            metrics.histogram("profile.simulate_seconds").observe(
                simulate_seconds
            )
            metrics.histogram("profile.graph_build_seconds").observe(
                graph_build_seconds
            )
            metrics.histogram("profile.stack_gen_seconds").observe(
                rpstacks_generate_seconds
            )
            metrics.histogram("profile.eval_seconds").observe(
                rpstacks_eval_seconds
            )
            metrics.gauge("profile.uops").set(len(workload))

    return OverheadProfile(
        workload_name=workload.name,
        num_uops=len(workload),
        simulate_seconds=simulate_seconds,
        graph_build_seconds=graph_build_seconds,
        rpstacks_generate_seconds=rpstacks_generate_seconds,
        rpstacks_eval_seconds=rpstacks_eval_seconds,
        graph_reeval_seconds=graph_reeval_seconds,
    )


def exploration_curves(
    profile: OverheadProfile,
    design_points: Sequence[int] = (1, 10, 38, 100, 1000),
) -> Dict[str, List[float]]:
    """Exploration-time curves for Fig 13-style tables."""
    methods = (
        profile.simulator_method(),
        profile.graph_reeval_method(),
        profile.rpstacks_method(),
    )
    return {
        method.name: [
            method.exploration_seconds(n) for n in design_points
        ]
        for method in methods
    }
