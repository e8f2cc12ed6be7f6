"""Differential oracle: compiled simulator vs the Python reference.

The compiled prepass/timing kernels in ``repro.simulator.native`` claim
*bit-identical* results — same cycles, same stats, same per-µop trace
records — for every supported workload/configuration.  These tests are
the gate on that claim: the full workload suite, the stress kernels,
shrunken-structure configurations, both prefetchers, per-latency
re-runs over one shared pre-pass, and the explicit fallback paths.

Everything here compares through :func:`result_digest`, the canonical
SHA-256 over every behaviour-bearing field, so "equal" really means
byte-for-byte equal after serialisation.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.common.config import (
    CacheConfig,
    CoreConfig,
    MicroarchConfig,
    TLBConfig,
    baseline_config,
)
from repro.isa.uop import MicroOp, OpClass, Workload
from repro.obs.observer import Observer, use_observer
from repro.simulator.core import simulate
from repro.simulator.machine import Machine
from repro.simulator.native import (
    UnsupportedWorkloadError,
    load_native_sim,
    resolve_native,
)
from repro.simulator.traceio import result_digest
from repro.workloads.kernels import STRESS_KERNELS, daxpy
from repro.workloads.suite import make_workload, suite_names

requires_native = pytest.mark.skipif(
    load_native_sim() is None,
    reason="no C compiler available (or REPRO_NATIVE=0)",
)

#: Small but non-trivial dynamic length for the 12-workload sweep.
MACROS = 150


def _assert_identical(workload, config) -> None:
    native = simulate(workload, config, native=True)
    python = simulate(workload, config, native=False)
    assert native.cycles == python.cycles
    assert native.stats == python.stats
    assert native.uops == python.uops
    assert result_digest(native) == result_digest(python)


def _tiny_structures() -> MicroarchConfig:
    """A deliberately starved machine: every structural limit binds."""
    return MicroarchConfig(
        core=CoreConfig(
            rob_size=16,
            iq_size=4,
            lsq_size=4,
            fetch_buffer=4,
            phys_regs=70,
            fu_fp=1,
            fu_long_alu=1,
            fu_load=1,
            fu_store=1,
            mshr_entries=2,
            branch_predictor="bimodal",
            branch_predictor_entries=64,
        ),
        l1i=CacheConfig(2 * 1024, 2),
        l1d=CacheConfig(2 * 1024, 2),
        l2=CacheConfig(32 * 1024, 4),
        itlb=TLBConfig(entries=4),
        dtlb=TLBConfig(entries=4),
    )


@requires_native
class TestSuiteDifferential:
    """The 12-workload native==python byte-identity gate."""

    @pytest.mark.parametrize("name", suite_names())
    def test_workload_identical(self, name):
        workload = make_workload(name, MACROS)
        _assert_identical(workload, baseline_config())


@requires_native
class TestStressDifferential:
    @pytest.mark.parametrize("kernel", sorted(STRESS_KERNELS))
    def test_stress_kernel_identical(self, kernel):
        _assert_identical(STRESS_KERNELS[kernel](), baseline_config())

    def test_tiny_structures_identical(self):
        workload = make_workload("mcf", MACROS)
        _assert_identical(workload, _tiny_structures())

    @pytest.mark.parametrize("prefetcher", ["next-line", "stride"])
    def test_prefetcher_identical(self, prefetcher):
        workload = make_workload("libquantum", MACROS)
        config = dataclasses.replace(
            baseline_config(), prefetcher=prefetcher
        )
        _assert_identical(workload, config)

    def test_taken_predictor_identical(self):
        workload = make_workload("gamess", MACROS)
        config = MicroarchConfig(
            core=CoreConfig(branch_predictor="taken")
        )
        _assert_identical(workload, config)


@requires_native
class TestMixedMode:
    def test_machine_reruns_share_prepass(self):
        """Machine's per-latency reruns stay identical and cached."""
        workload = make_workload("lbm", MACROS)
        config = baseline_config()
        from repro.common.events import EventType

        fast = Machine(workload, config, native=True)
        slow = Machine(workload, config, native=False)
        halved = config.latency.with_overrides(
            {EventType.L1D: 2, EventType.L2D: 6, EventType.BR_MISP: 3}
        )
        for design in (config.latency, halved):
            assert result_digest(fast.simulate(design)) == result_digest(
                slow.simulate(design)
            )

    def test_observability_spans_still_fire(self):
        """The compiled fast path must not silence instrumentation."""
        workload = daxpy(iterations=16)
        obs = Observer(enabled=True, progress_stream=None)
        with use_observer(obs):
            machine = Machine(workload, native=True)
            machine.simulate()
        totals = obs.tracer.totals_by_name()
        assert "sim.prepass" in totals
        assert "sim.run" in totals
        counters = obs.metrics.snapshot()["counters"]
        assert counters["sim.runs"] == 1
        assert counters["sim.native_runs"] == 1


class TestFallback:
    def test_native_false_forces_python(self):
        workload = daxpy(iterations=8)
        result = simulate(workload, baseline_config(), native=False)
        assert result.cycles > 0

    def test_unsupported_workload_falls_back(self):
        """>2 address sources is outside the packed layout: auto mode
        silently uses Python, explicit native=True refuses."""
        uops = (
            MicroOp(
                seq=0, macro_id=0, som=True, eom=True,
                opclass=OpClass.LOAD, pc=0, dst_reg=8,
                mem_addr=1 << 20, addr_src_regs=(1, 2, 3),
            ),
        )
        workload = Workload(name="wide-agen", uops=uops)
        config = baseline_config()
        python = simulate(workload, config, native=False)
        auto = simulate(workload, config)
        assert result_digest(auto) == result_digest(python)
        if load_native_sim() is not None:
            with pytest.raises(UnsupportedWorkloadError):
                simulate(workload, config, native=True)

    def test_gate_off_disables_native(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        assert load_native_sim() is None
        assert resolve_native(None) is None
        with pytest.raises(RuntimeError):
            resolve_native(True)
        # auto mode must still simulate correctly via the Python path
        workload = daxpy(iterations=8)
        result = simulate(workload, baseline_config())
        assert result_digest(result) == result_digest(
            simulate(workload, baseline_config(), native=False)
        )
