"""Design-space exploration: spaces, explorer, validation, overheads."""

from repro.dse.designspace import DesignSpace, reduction_space
from repro.dse.explorer import (
    Candidate,
    ExplorationResult,
    Explorer,
    SweepMetrics,
    default_cost_model,
)
from repro.dse.sweep import sweep_space
from repro.dse.literature import (
    LITERATURE_MIPS,
    MethodSpeed,
    acceleration_method_speeds,
)
from repro.dse.markdown import workload_report
from repro.dse.montecarlo import SpaceStatistics, sample_space_statistics
from repro.dse.overhead import (
    OverheadProfile,
    exploration_curves,
    measure_overhead,
)
from repro.dse.pipeline import AnalysisSession, analyze
from repro.dse.portfolio import (
    PortfolioCandidate,
    PortfolioExplorer,
    PortfolioResult,
)
from repro.dse.svg import render_line_chart, render_stacked_bars
from repro.dse.search import (
    GreedyLatencySearch,
    SearchResult,
    SearchStep,
)
from repro.dse.structure import (
    StructureExplorer,
    StructurePoint,
    StructureResult,
    structure_grid,
)
from repro.dse.validate import (
    ScenarioError,
    ValidationReport,
    bottleneck_reduction_scenarios,
    validate_predictors,
)

__all__ = [
    "AnalysisSession",
    "Candidate",
    "DesignSpace",
    "ExplorationResult",
    "GreedyLatencySearch",
    "SearchResult",
    "SpaceStatistics",
    "sample_space_statistics",
    "SearchStep",
    "Explorer",
    "LITERATURE_MIPS",
    "MethodSpeed",
    "OverheadProfile",
    "PortfolioCandidate",
    "PortfolioExplorer",
    "PortfolioResult",
    "ScenarioError",
    "StructureExplorer",
    "StructurePoint",
    "StructureResult",
    "SweepMetrics",
    "structure_grid",
    "sweep_space",
    "ValidationReport",
    "acceleration_method_speeds",
    "analyze",
    "bottleneck_reduction_scenarios",
    "default_cost_model",
    "exploration_curves",
    "measure_overhead",
    "reduction_space",
    "render_line_chart",
    "render_stacked_bars",
    "validate_predictors",
    "workload_report",
]
