"""Cycle-level out-of-order timing simulator (the MARSSx86 substitute)."""

from repro.simulator.branch import (
    AlwaysTakenPredictor,
    BimodalPredictor,
    BranchPredictor,
    GsharePredictor,
    make_predictor,
)
from repro.simulator.caches import AccessLevel, MemoryHierarchy, SetAssocCache
from repro.simulator.columns import (
    TraceColumns,
    WorkloadColumns,
    columns_equal,
)
from repro.simulator.core import TimingSimulator, simulate
from repro.simulator.machine import Machine
from repro.simulator.pipeview import render_pipeline
from repro.simulator.prefetch import (
    NextLinePrefetcher,
    NoPrefetcher,
    Prefetcher,
    StridePrefetcher,
    make_prefetcher,
)
from repro.simulator.native import UnsupportedWorkloadError, load_native_sim
from repro.simulator.prepass import PrepassResult, run_prepass
from repro.simulator.traceio import load_result, result_digest, save_result
from repro.simulator.tlb import TLB
from repro.simulator.trace import (
    SimResult,
    UopTrace,
    data_access_charge,
    fetch_access_charge,
)

__all__ = [
    "AccessLevel",
    "AlwaysTakenPredictor",
    "BimodalPredictor",
    "BranchPredictor",
    "GsharePredictor",
    "Machine",
    "MemoryHierarchy",
    "NextLinePrefetcher",
    "NoPrefetcher",
    "Prefetcher",
    "PrepassResult",
    "StridePrefetcher",
    "SetAssocCache",
    "SimResult",
    "TLB",
    "TimingSimulator",
    "TraceColumns",
    "UnsupportedWorkloadError",
    "UopTrace",
    "WorkloadColumns",
    "columns_equal",
    "data_access_charge",
    "fetch_access_charge",
    "load_result",
    "load_native_sim",
    "make_predictor",
    "make_prefetcher",
    "render_pipeline",
    "result_digest",
    "save_result",
    "run_prepass",
    "simulate",
]
