"""Top-level simulation entry point (the ``Machine`` facade).

A :class:`Machine` binds one workload to one *structure-domain*
configuration and answers timing queries for any number of latency design
points, sharing the functional pre-pass (caches, TLBs, branch predictor,
dependencies) across them.  This mirrors the paper's exploration shape:
one structure, many latency configurations.

The implementation is chosen once, when the pre-pass runs: a compiled
pre-pass is priced by the compiled timing loop at every latency point,
and a Python one by :class:`~repro.simulator.core.TimingSimulator`.
Either way each run starts with unbound structural witnesses.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from repro.common.config import LatencyConfig, MicroarchConfig, baseline_config
from repro.isa.uop import Workload
from repro.obs import clock
from repro.obs.observer import get_observer
from repro.simulator.core import TimingSimulator
from repro.simulator.native import (
    PackedPrepass,
    native_timing,
    try_native_prepass,
)
from repro.simulator.prepass import PrepassResult, run_prepass
from repro.simulator.trace import SimResult


class Machine:
    """Simulate one workload on one structure at many latency points.

    The functional pre-pass runs once (it depends only on the structure
    domain); each :meth:`simulate` call prices it under a different
    latency configuration.  Results are memoised per latency point.
    *native* selects the implementation for every run: ``None`` uses
    the compiled simulator when ``REPRO_NATIVE`` allows, ``False`` the
    Python one, ``True`` requires the compiled one.  Both are bit
    identical, so cached results are portable.
    """

    def __init__(
        self,
        workload: Workload,
        config: Optional[MicroarchConfig] = None,
        warm_caches: bool = True,
        warm_stream: Optional[Workload] = None,
        predictor_extra_stream: Optional[Workload] = None,
        native: Optional[bool] = None,
    ) -> None:
        self.workload = workload
        self.config = config or baseline_config()
        self._prepass_args = (
            warm_caches, warm_stream, predictor_extra_stream, native,
        )
        self._prepass: Union[PackedPrepass, PrepassResult, None] = None
        self._cache: Dict[LatencyConfig, SimResult] = {}
        #: count of timing runs actually executed (for overhead reports)
        self.timing_runs = 0
        self._run_prepass()

    @classmethod
    def from_baseline(cls, result: SimResult) -> "Machine":
        """The machine behind a stored baseline run (an artifact-cache hit).

        *result* answers the baseline latency, so the pre-pass (warm
        caches, auto-selected simulator) waits for the first run at
        another latency; loading a session builds no µop view.
        """
        machine = cls.__new__(cls)
        machine.workload = result.workload
        machine.config = result.config
        machine._prepass_args = (True, None, None, None)
        machine._prepass = None
        machine._cache = {result.config.latency: result}
        machine.timing_runs = 0
        return machine

    def _run_prepass(self) -> Union[PackedPrepass, PrepassResult]:
        # The observer is resolved ambiently (never stored) so Machine —
        # and the AnalysisSession wrapping it — stays picklable across
        # the worker pool and the artifact cache.
        workload = self.workload
        warm_caches, warm_stream, predictor_extra_stream, native = (
            self._prepass_args
        )
        with get_observer().span(
            "sim.prepass", workload=workload.name, uops=len(workload)
        ):
            args = (
                workload,
                self.config,
                warm_caches,
                warm_stream,
                predictor_extra_stream,
            )
            self._prepass = (
                try_native_prepass(*args, native=native)
                or run_prepass(*args)
            )
        return self._prepass

    def simulate(
        self, latency: Optional[LatencyConfig] = None
    ) -> SimResult:
        """Timing-simulate under *latency* (baseline latency if omitted)."""
        latency = latency or self.config.latency
        cached = self._cache.get(latency)
        if cached is not None:
            return cached
        design = self.config.with_latency(latency)
        prepass = self._prepass
        if prepass is None:
            prepass = self._run_prepass()
        obs = get_observer()
        start = clock.perf_seconds()
        used_native = isinstance(prepass, PackedPrepass)
        with obs.span(
            "sim.run", workload=self.workload.name, uops=len(self.workload)
        ):
            if used_native:
                result = native_timing(self.workload, design, prepass)
            else:
                result = TimingSimulator(self.workload, design, prepass).run()
        if obs.enabled:
            obs.counter("sim.runs").inc()
            if used_native:
                obs.counter("sim.native_runs").inc()
            obs.counter("sim.uops_retired").inc(len(self.workload))
            obs.histogram("sim.seconds").observe(
                clock.perf_seconds() - start
            )
        self.timing_runs += 1
        self._cache[latency] = result
        return result

    def cycles(self, latency: Optional[LatencyConfig] = None) -> int:
        """Total cycles under *latency*."""
        return self.simulate(latency).cycles

    def cpi(self, latency: Optional[LatencyConfig] = None) -> float:
        """Cycles per µop under *latency*."""
        return self.simulate(latency).cpi
