"""Machine facade tests: pre-pass sharing, memoisation, consistency."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.common.config import baseline_config
from repro.common.events import EventType
from repro.dse import DesignSpace, bottleneck_reduction_scenarios, sweep_space
from repro.dse.pipeline import analyze
from repro.isa.uop import MicroOp, OpClass, Workload
from repro.obs.observer import Observer, use_observer
from repro.simulator.core import simulate
from repro.simulator.machine import Machine
from repro.simulator.native import load_native_sim, native_cycles
from repro.simulator.trace import SimResult
from repro.simulator.traceio import result_digest
from repro.workloads.kernels import STRESS_KERNELS, daxpy
from repro.workloads.suite import make_workload, suite_names
from tests.simulator.test_native_parity import _tiny_structures

requires_native = pytest.mark.skipif(
    load_native_sim() is None,
    reason="no C compiler available (or REPRO_NATIVE=0)",
)

#: Macro-ops per analogue in the cycles-only parity sweep.
MACROS = 150

#: The e2e benchmark's first six ladder axes (20,736 points).
LADDER_6 = {
    EventType.L1D: [1, 2, 3, 4],
    EventType.FP_ADD: [1, 2, 3, 4, 5, 6],
    EventType.MEM_D: [17, 33, 50, 66, 83, 100],
    EventType.L2D: [2, 4, 6, 8, 10, 12],
    EventType.FP_MUL: [1, 2, 3, 4, 5, 6],
    EventType.LD: [1, 2, 3, 4],
}

#: Trace columns no latency changes (shared by a compiled machine's runs).
SHARED_COLUMNS = (
    "dtlb_miss", "mispredicted", "store_barrier", "line_sharer",
    "exec_indptr", "exec_events", "exec_units",
    "fetch_indptr", "fetch_events", "fetch_units",
    "data_indptr", "data_values", "addr_indptr", "addr_values",
)

#: Columns each run stamps for itself.
STAMPED_COLUMNS = (
    "t_fetch", "t_rename", "t_dispatch", "t_ready", "t_issue",
    "t_complete", "t_commit", "phys_reg_freer", "iq_freer",
)

#: Points that need no analysis: a ladder corner and halved memory.
_BASE = baseline_config().latency
FIXED_POINTS = (
    _BASE,
    _BASE.with_overrides(
        {event: values[0] for event, values in LADDER_6.items()}
    ),
    _BASE.scaled({EventType.L2D: 0.5, EventType.MEM_D: 0.5}),
)


def _wide_agen() -> Workload:
    """A load with three address sources: outside the packed layout."""
    uop = MicroOp(
        seq=0, macro_id=0, som=True, eom=True,
        opclass=OpClass.LOAD, pc=0, dst_reg=8,
        mem_addr=1 << 20, addr_src_regs=(1, 2, 3),
    )
    return Workload(name="wide-agen", uops=(uop,))


def _analysed_points(workload):
    """The baseline, Fig 11a's paired halving of the top two
    bottlenecks, and a point on the 6-axis ladder's Pareto front."""
    session = analyze(workload)
    base = session.config.latency
    ranked = sorted(session.cp1.cpi_stack().items(), key=lambda kv: -kv[1])
    top = [
        event for event, _ in ranked
        if event not in (EventType.BASE, EventType.BR_MISP)
    ][:2]
    paired = bottleneck_reduction_scenarios(base, top, 0.5)[-1]
    front = sweep_space(
        session.rpstacks, DesignSpace.from_mapping(LADDER_6)
    ).pareto_front()
    return base, paired, front[len(front) // 2].latency


def _assert_cycles_match(workload, config, points) -> None:
    """Compiled cycles-only counts equal full runs and the Python spec."""
    fast = Machine(workload, config, native=True)
    counts = [fast.cycles(point) for point in points]
    assert counts == [fast.simulate(point).cycles for point in points]
    slow = Machine(workload, config, native=False)
    assert counts == [slow.cycles(point) for point in points]


def test_results_match_direct_simulation(tiny_workload):
    machine = Machine(tiny_workload)
    direct = simulate(tiny_workload, baseline_config())
    assert machine.cycles() == direct.cycles


def test_latency_points_are_memoised(tiny_workload):
    machine = Machine(tiny_workload)
    latency = baseline_config().latency.with_overrides({EventType.L1D: 2})
    first = machine.simulate(latency)
    second = machine.simulate(latency)
    assert first is second
    assert machine.timing_runs == 1


def test_distinct_points_simulated_separately(tiny_workload):
    machine = Machine(tiny_workload)
    base = baseline_config().latency
    machine.simulate(base)
    machine.simulate(base.with_overrides({EventType.FP_ADD: 3}))
    assert machine.timing_runs == 2


def test_cached_results_not_corrupted_by_later_runs(tiny_workload):
    machine = Machine(tiny_workload)
    base_result = machine.simulate()
    base_commit_times = [u.t_commit for u in base_result.uops]
    machine.simulate(
        baseline_config().latency.with_overrides({EventType.L1D: 1})
    )
    assert [u.t_commit for u in base_result.uops] == base_commit_times


def test_cpi_is_cycles_over_uops(tiny_workload):
    machine = Machine(tiny_workload)
    result = machine.simulate()
    assert machine.cpi() == result.cycles / len(tiny_workload)


def test_cpi_before_any_run_is_cycles_over_uops(tiny_workload):
    point = FIXED_POINTS[2]
    machine = Machine(tiny_workload)
    assert machine.cpi(point) == machine.cycles(point) / len(tiny_workload)


def test_repeated_cycles_runs_the_timing_loop_once(tiny_workload):
    point = FIXED_POINTS[1]
    obs = Observer(enabled=True, progress_stream=None)
    with use_observer(obs):
        machine = Machine(tiny_workload)
        first = machine.cycles(point)
        assert machine.cycles(point) == first
        assert machine.cpi(point) == first / len(tiny_workload)
    assert machine.timing_runs == 1
    assert obs.metrics.snapshot()["counters"]["sim.runs"] == 1


def test_simulate_after_cycles_returns_a_full_result(tiny_workload):
    point = FIXED_POINTS[2]
    machine = Machine(tiny_workload)
    count = machine.cycles(point)
    result = machine.simulate(point)
    assert isinstance(result, SimResult)
    assert result.cycles == count
    assert result.columns.n == len(tiny_workload)
    assert result_digest(result) == result_digest(
        Machine(tiny_workload).simulate(point)
    )
    assert machine.simulate(point) is result


def test_runs_share_no_stamp_array(tiny_workload):
    machine = Machine(tiny_workload)
    first = machine.simulate(FIXED_POINTS[0]).columns
    second = machine.simulate(FIXED_POINTS[1]).columns
    for name in STAMPED_COLUMNS:
        for other in STAMPED_COLUMNS:
            assert not np.shares_memory(
                getattr(first, name), getattr(second, other)
            ), (name, other)


@pytest.mark.parametrize(
    "native",
    [pytest.param(None, marks=requires_native), False],
    ids=["compiled", "python"],
)
def test_one_shot_simulate_is_one_machine_run(native):
    """A one-shot run records what a machine's first run records: one
    ``sim.prepass`` span saying which simulator ran, one ``sim.run``
    span and the run counters."""
    obs = Observer(enabled=True, progress_stream=None)
    with use_observer(obs):
        simulate(daxpy(iterations=8), baseline_config(), native=native)
    spans = [s for s in obs.tracer.spans if s.name.startswith("sim.")]
    assert [s.name for s in spans] == ["sim.prepass", "sim.run"]
    compiled = native is None
    assert spans[0].attrs["native"] is compiled
    counters = obs.metrics.snapshot()["counters"]
    assert counters["sim.runs"] == 1
    assert counters.get("sim.native_runs") == (1 if compiled else None)


def test_pickled_machine_prices_identically(tiny_workload):
    machine = Machine(tiny_workload)
    machine.cycles(FIXED_POINTS[1])
    machine.simulate(FIXED_POINTS[0])
    clone = pickle.loads(pickle.dumps(machine))
    assert clone.cycles(FIXED_POINTS[1]) == machine.cycles(FIXED_POINTS[1])
    assert clone.timing_runs == machine.timing_runs
    assert clone.cycles(FIXED_POINTS[2]) == machine.cycles(FIXED_POINTS[2])
    assert result_digest(clone.simulate(FIXED_POINTS[1])) == result_digest(
        machine.simulate(FIXED_POINTS[1])
    )


@requires_native
class TestCyclesOnly:
    """Compiled ``Machine.cycles`` runs the timing kernel alone; its
    counts must equal full runs and the Python spec's."""

    @pytest.mark.parametrize("name", suite_names())
    def test_analogue_counts_match(self, name):
        workload = make_workload(name, MACROS)
        _assert_cycles_match(
            workload, baseline_config(), _analysed_points(workload)
        )

    @pytest.mark.parametrize("kernel", sorted(STRESS_KERNELS))
    def test_stress_kernel_counts_match(self, kernel):
        _assert_cycles_match(
            STRESS_KERNELS[kernel](), baseline_config(), FIXED_POINTS
        )

    def test_tiny_structures_counts_match(self):
        _assert_cycles_match(
            make_workload("mcf", MACROS), _tiny_structures(), FIXED_POINTS
        )

    @pytest.mark.parametrize("prefetcher", ["next-line", "stride"])
    def test_prefetcher_counts_match(self, prefetcher):
        config = dataclasses.replace(
            baseline_config(), prefetcher=prefetcher
        )
        _assert_cycles_match(
            make_workload("libquantum", MACROS), config, FIXED_POINTS
        )

    def test_cycles_assembles_no_trace(self, tiny_workload):
        machine = Machine(tiny_workload, native=True)
        machine.cycles(FIXED_POINTS[1])
        assert machine._cache == {}
        assert "columns" not in vars(machine._prepass)

    def test_shared_columns_are_read_only(self, tiny_workload):
        machine = Machine(tiny_workload, native=True)
        first = machine.simulate(FIXED_POINTS[0]).columns
        second = machine.simulate(FIXED_POINTS[1]).columns
        for name in SHARED_COLUMNS:
            column = getattr(first, name)
            assert column is getattr(second, name), name
            assert not column.flags.writeable, name
        for name in STAMPED_COLUMNS:
            assert getattr(first, name).flags.writeable, name

    def test_pickled_prepass_rebuilds_read_only_columns(self, tiny_workload):
        machine = Machine(tiny_workload, native=True)
        machine.simulate(FIXED_POINTS[1])
        clone = pickle.loads(pickle.dumps(machine))
        assert "columns" not in vars(clone._prepass)
        columns = clone.simulate(FIXED_POINTS[2]).columns
        assert not any(
            getattr(columns, name).flags.writeable
            for name in SHARED_COLUMNS
        )

    def test_pickled_prepass_takes_its_own_addresses(self, tiny_workload):
        """A priced pre-pass keeps its arrays' addresses for the timing
        kernel; a pickled one drops them, takes its own on first use
        and prices alike."""
        machine = Machine(tiny_workload, native=True)
        prepass = machine._prepass
        designs = [machine.config.with_latency(p) for p in FIXED_POINTS]
        expected = [native_cycles(design, prepass) for design in designs]
        assert "addresses" in vars(prepass)
        clone = pickle.loads(pickle.dumps(prepass))
        assert "addresses" not in vars(clone)
        assert [native_cycles(design, clone) for design in designs] == expected
        assert set(clone.addresses).isdisjoint(prepass.addresses)

    def test_cycles_keeps_run_observability(self):
        """A cycles-only run is spanned and counted like a full one."""
        workload = daxpy(iterations=16)
        obs = Observer(enabled=True, progress_stream=None)
        with use_observer(obs):
            machine = Machine(workload, native=True)
            machine.cycles(FIXED_POINTS[1])
        runs = [s for s in obs.tracer.spans if s.name == "sim.run"]
        assert [span.attrs["trace"] for span in runs] == [False]
        assert runs[0].attrs["uops"] == len(workload)
        snapshot = obs.metrics.snapshot()
        counters = snapshot["counters"]
        assert counters["sim.runs"] == 1
        assert counters["sim.native_runs"] == 1
        assert counters["sim.uops_retired"] == len(workload)
        assert snapshot["histograms"]["sim.seconds"]["count"] == 1

    def test_unsupported_workload_fallback_is_counted(self):
        obs = Observer(enabled=True, progress_stream=None)
        with use_observer(obs):
            simulate(_wide_agen(), baseline_config())
        counters = obs.metrics.snapshot()["counters"]
        assert counters["sim.native_fallbacks"] == 1
        spans = [s for s in obs.tracer.spans if s.name.startswith("sim.")]
        assert [s.name for s in spans] == ["sim.prepass", "sim.run"]
        assert spans[0].attrs["native"] == "fallback"
        assert "sim.native_runs" not in counters

    def test_prepass_span_says_which_simulator_ran(self):
        obs = Observer(enabled=True, progress_stream=None)
        with use_observer(obs):
            Machine(_wide_agen())
            Machine(daxpy(iterations=8))
            Machine(daxpy(iterations=8), native=False)
        prepasses = [
            span.attrs["native"]
            for span in obs.tracer.spans if span.name == "sim.prepass"
        ]
        assert prepasses == ["fallback", True, False]
        counters = obs.metrics.snapshot()["counters"]
        assert counters["sim.native_fallbacks"] == 1
