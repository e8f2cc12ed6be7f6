"""Cross-run and cross-process simulation determinism.

The whole RpStacks pipeline assumes a simulation is a pure function of
(workload, configuration): artifact caching, continuing a suite from
its cache and the native/Python differential all compare results
produced at different times, in different processes, on either
execution path.
These tests pin that down with canonical digests — twice in the same
process, across ``parallel_map`` workers, and between worker and
parent.
"""

from __future__ import annotations

from repro.common.config import baseline_config
from repro.runtime.runner import parallel_map
from repro.simulator.core import simulate
from repro.simulator.traceio import result_digest
from repro.workloads.suite import make_workload

MACROS = 120


def _digest_of(name: str) -> str:
    workload = make_workload(name, MACROS)
    return result_digest(simulate(workload, baseline_config()))


class TestInProcess:
    def test_same_workload_twice_is_identical(self):
        assert _digest_of("gamess") == _digest_of("gamess")

    def test_rebuilt_workload_is_identical(self):
        a = make_workload("mcf", MACROS)
        b = make_workload("mcf", MACROS)
        assert a is not b
        config = baseline_config()
        assert result_digest(simulate(a, config)) == result_digest(
            simulate(b, config)
        )


class TestAcrossWorkers:
    def test_worker_pool_matches_in_process(self):
        names = ["gamess", "mcf"]
        outcomes = parallel_map(
            _digest_of, [(name,) for name in names], jobs=2
        )
        assert all(outcome.ok for outcome in outcomes)
        for name, outcome in zip(names, outcomes):
            assert outcome.value == _digest_of(name)

    def test_workers_agree_with_each_other(self):
        outcomes = parallel_map(
            _digest_of, [("lbm",), ("lbm",)], jobs=2
        )
        assert all(outcome.ok for outcome in outcomes)
        assert outcomes[0].value == outcomes[1].value
