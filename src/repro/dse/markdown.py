"""One-stop markdown report for a workload's analysis session.

``workload_report(session)`` assembles everything an architect reads
after the single simulation — baseline CPI, the representative-stack
decomposition, per-segment bottleneck timeline, sensitivity, the
predictor comparison on a probe scenario — into one markdown document,
suitable for dropping into a design log or code review.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.common.config import LatencyConfig
from repro.common.events import EventType, event_label
from repro.dse.pipeline import AnalysisSession


def _table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    lines = [
        "| " + " | ".join(headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    return "\n".join(lines)


def workload_report(
    session: AnalysisSession,
    probe_overrides: Optional[Dict[EventType, int]] = None,
) -> str:
    """Render the session's findings as a markdown document.

    Args:
        session: a completed :func:`repro.dse.pipeline.analyze` session.
        probe_overrides: latency overrides for the validation section;
            defaults to halving the top two bottleneck events.
    """
    base = session.config.latency
    model = session.rpstacks
    workload = session.workload
    num_uops = len(workload)

    parts: List[str] = []
    parts.append(f"# Analysis report: {workload.name}")
    parts.append(
        f"*{num_uops} micro-ops, {workload.num_macro_ops} macro-ops; "
        f"baseline CPI **{session.baseline_cpi:.3f}** (simulated), "
        f"{model.num_paths} representative paths in "
        f"{model.num_segments} segments.*"
    )

    # Penalty decomposition.
    stack = model.representative_stack(base)
    rows = [
        (event_label(event), f"{value / num_uops:.3f}")
        for event, value in sorted(
            stack.penalties(base).items(), key=lambda kv: -kv[1]
        )
    ]
    parts.append("## Penalty decomposition (CPI)")
    parts.append(_table(["event", "CPI"], rows))

    # Sensitivity: what one cycle on each event is worth.
    gradient = model.sensitivity(base)
    rows = [
        (event_label(event), f"{value:.4f}")
        for event, value in sorted(
            gradient.items(), key=lambda kv: -kv[1]
        )
        if event is not EventType.BASE
    ][:8]
    parts.append("## Sensitivity (ΔCPI per +1 cycle)")
    parts.append(_table(["event", "dCPI/dcycle"], rows))

    # Per-segment bottleneck timeline.
    timeline = model.segment_bottlenecks(base)
    parts.append("## Bottleneck timeline (per graph segment)")
    parts.append(
        _table(
            ["segment", "dominant event", "share of segment"],
            [
                (index, label, f"{share:.0%}")
                for index, label, share in timeline
            ],
        )
    )

    # Probe validation: all predictors vs re-simulation.
    if probe_overrides is None:
        top = model.bottlenecks(base, top=2)
        probe_overrides = {}
        for label, _share in top:
            from repro.common.events import parse_event

            event = parse_event(label)
            if event in (EventType.BASE, EventType.BR_MISP):
                continue
            probe_overrides[event] = max(1, base[event] // 2)
    probe = base.with_overrides(probe_overrides)
    simulated = session.machine.cpi(probe)
    rows = []
    for name, predictor in session.predictors().items():
        predicted = predictor.predict_cycles(probe) / num_uops
        rows.append(
            (
                name,
                f"{predicted:.3f}",
                f"{(predicted - simulated) / simulated * 100:+.2f}%",
            )
        )
    parts.append(
        "## Probe validation — "
        + ", ".join(
            f"{event.name}={value}"
            for event, value in probe_overrides.items()
        )
        + f" (simulated CPI {simulated:.3f})"
    )
    parts.append(_table(["method", "predicted CPI", "error"], rows))

    return "\n\n".join(parts) + "\n"
