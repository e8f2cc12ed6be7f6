"""The compiled longest path against the spec relax.

``DependenceGraph.longest_path_length``, ``critical_path`` and
``node_distances`` run the compiled kernel when it loads and the spec
``_relax`` under ``REPRO_NATIVE=0``.  Both must give the same distance
at every node and the same critical-path stack at every design point.
The zero-cycle points matter most: they make many in-edges tie, and the
tie rule (only a strictly longer in-edge replaces the best so far, in
CSR order) decides which parent edges CP1's stack follows.
"""

import functools

import numpy as np
import pytest

from repro.common.config import baseline_config
from repro.common.events import EventType
from repro.core import native
from repro.core.native import load_native
from repro.graphmodel.builder import build_graph, pack_edges
from repro.graphmodel.graph import DependenceGraph
from repro.obs.observer import Observer, use_observer
from repro.simulator.core import simulate
from repro.workloads import STRESS_KERNELS
from repro.workloads.suite import make_workload, suite_names

MACROS = 300

#: Stress-kernel arguments keeping the differential quick.
STRESS_ARGS = {"icache_thrash": {"passes": 1}, "dcache_thrash": {"passes": 1}}

#: Seeded random design points per graph.
RANDOM_POINTS = 4

WORKLOADS = {
    **{
        name: functools.partial(make_workload, name, MACROS)
        for name in suite_names()
    },
    **{
        name: functools.partial(make, **STRESS_ARGS.get(name, {}))
        for name, make in STRESS_KERNELS.items()
    },
    "one-uop": functools.partial(make_workload, "perlbench", 1),
}


@functools.lru_cache(maxsize=None)
def _graph(name: str) -> DependenceGraph:
    if name == "no-edges":
        return pack_edges(2, [], [], [])
    return build_graph(simulate(WORKLOADS[name](), baseline_config()))


def _points(seed: int):
    """The baseline, every non-BASE event at 0, then random points
    whose events each take 0, 1 or a value in 0-300."""
    base = baseline_config().latency
    events = [event for event in EventType if event != EventType.BASE]
    points = [base]
    points += [base.with_overrides({event: 0}) for event in events]
    rng = np.random.default_rng(seed)
    for _ in range(RANDOM_POINTS):
        overrides = {}
        for event in events:
            choice = (0, 1, int(rng.integers(0, 301)))
            overrides[event] = choice[int(rng.integers(3))]
        points.append(base.with_overrides(overrides))
    return points


POINTS = _points(seed=18)


def _outcomes(graph: DependenceGraph, points):
    outcomes = []
    for latency in points:
        length, stack = graph.critical_path(latency)
        outcomes.append(
            (
                graph.node_distances(latency),
                length,
                stack.tolist(),
                graph.longest_path_length(latency),
            )
        )
    return outcomes


@pytest.mark.parametrize("name", [*WORKLOADS, "no-edges"])
def test_compiled_longest_path_matches_spec(monkeypatch, name):
    monkeypatch.delenv("REPRO_NATIVE", raising=False)
    if load_native() is None:
        pytest.skip("no C toolchain available in this environment")
    graph = _graph(name)
    compiled = _outcomes(graph, POINTS)
    monkeypatch.setenv("REPRO_NATIVE", "0")
    spec = _outcomes(graph, POINTS)
    for latency, mine, theirs in zip(POINTS, compiled, spec):
        dist, length, stack, total = mine
        assert len(dist) == graph.num_nodes
        assert dist == theirs[0], latency.describe()
        assert (length, stack, total) == theirs[1:], latency.describe()
        assert length == total == dist[graph.sink]


@pytest.mark.parametrize(
    "gate,load_failed,fallbacks",
    [("auto", True, 3), ("0", True, None), ("auto", False, None)],
    ids=["failed-load", "asked-for-spec", "loaded"],
)
def test_only_a_failed_kernel_load_counts_a_fallback(
    monkeypatch, gate, load_failed, fallbacks
):
    """Each longest path that runs the spec relax because the compiled
    kernel failed to load in auto mode counts one
    ``graph.native_fallbacks``; one under ``REPRO_NATIVE=0``, where the
    spec was asked for, counts none, and so does one on the loaded
    kernel."""
    graph = _graph("gamess")
    monkeypatch.setenv("REPRO_NATIVE", gate)
    if load_failed:
        # How load_gated remembers a failed best-effort load.
        monkeypatch.setitem(native._LOADED, "reducer", None)
    elif load_native() is None:
        pytest.skip("no C toolchain available in this environment")
    base = baseline_config().latency
    obs = Observer(enabled=True, progress_stream=None)
    with use_observer(obs):
        graph.longest_path_length(base)
        graph.critical_path(base)
        graph.node_distances(base)
    counters = obs.metrics.snapshot()["counters"]
    assert counters.get("graph.native_fallbacks") == fallbacks
