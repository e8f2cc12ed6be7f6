"""Pinned outputs of the three trace consumers.

``FMTPredictor`` (commit-stall attribution), ``collect_statistics``
(the interval model's inputs) and ``render_pipeline`` (the ASCII
diagram) each walk the whole timing trace.  One checked-in fixture pins
their exact outputs on the 12 suite analogues at 150 macro-ops and the
6 stress kernels, and every case is checked against results from both
simulator implementations, so a change to how the consumers read the
trace cannot shift a single value unnoticed.

Regenerate after an intentional behaviour change with::

    PYTHONPATH=src python -c "
    import json, pathlib
    from tests.integration.test_trace_consumers import FIXTURE, snapshot, traces
    data = {name: snapshot(make(), native=False) for name, make in traces()}
    FIXTURE.write_text(json.dumps(data, indent=1, sort_keys=True) + '\\n')
    "
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import pytest

from repro.baselines.fmt import FMTPredictor
from repro.baselines.interval import collect_statistics
from repro.common.config import baseline_config
from repro.simulator.core import simulate
from repro.simulator.native import load_native_sim
from repro.simulator.pipeview import render_pipeline
from repro.workloads.kernels import STRESS_KERNELS
from repro.workloads.suite import make_workload, suite_names

FIXTURE = pathlib.Path(__file__).parent / "golden" / "trace_consumers.json"

#: Dynamic length of the suite analogues in the fixture.
MACROS = 150


def traces():
    """(name, zero-argument workload builder) for every pinned trace."""
    cases = [
        (name, lambda name=name: make_workload(name, MACROS))
        for name in suite_names()
    ]
    cases += sorted(STRESS_KERNELS.items())
    return cases


def snapshot(workload, native: bool) -> dict:
    """The consumers' outputs on one simulated trace, JSON-ready.

    Floats are stored through ``repr`` so the comparison is exact, and
    per-event tables as ordered pairs: the predictors sum them in
    insertion order, so the order is part of the output.
    """
    result = simulate(workload, baseline_config(), native=native)
    components = FMTPredictor(result).components
    stats = dataclasses.asdict(collect_statistics(result))
    for key in ("icache_units", "memory_units"):
        stats[key] = [
            [event.name, units] for event, units in stats[key].items()
        ]
    stats["memory_parallelism"] = repr(stats["memory_parallelism"])
    return {
        "fmt_components": [
            [event.name, repr(cycles)] for event, cycles in components.items()
        ],
        "interval_statistics": stats,
        "pipeline": render_pipeline(result, first=result.num_uops // 2),
    }


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_trace(pinned):
    assert sorted(pinned) == sorted(name for name, _ in traces())


@pytest.mark.parametrize(
    "native",
    [
        False,
        pytest.param(
            True,
            marks=pytest.mark.skipif(
                load_native_sim() is None,
                reason="no C compiler available (or REPRO_NATIVE=0)",
            ),
        ),
    ],
    ids=["python", "native"],
)
@pytest.mark.parametrize("name, make", traces(), ids=[n for n, _ in traces()])
def test_consumers_reproduce_pinned_outputs(pinned, name, make, native):
    assert snapshot(make(), native=native) == pinned[name]
