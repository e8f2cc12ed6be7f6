"""Extension — streaming million-point sweep-engine throughput.

The ROADMAP north star asks for design-space exploration "as fast as
the hardware allows".  This bench measures the streaming sweep engine
(:func:`repro.dse.sweep.sweep_space`) against the baseline it replaces
— a per-point ``predict_cpi``/cost loop over materialised
:class:`LatencyConfig` objects — on a >1M-point latency space, and
records the bounded-memory evidence (peak candidate-set size) alongside
the throughput numbers.

``test_sweep_smoke`` is the CI guard: a small space, chunked must beat
the per-point loop.  The million-point run backs the committed numbers
in ``results/dse_sweep.txt``.
"""

from conftest import get_session, timed, write_report

from repro.common.events import EventType
from repro.dse.designspace import DesignSpace
from repro.dse.explorer import default_cost_model
from repro.dse.report import format_table
from repro.dse.sweep import sweep_space

#: >1M-point latency space (4*6*6*6*8*4*5*2*4 = 1,105,920 points).
MILLION_SPACE = {
    EventType.L1D: [1, 2, 3, 4],
    EventType.FP_ADD: [1, 2, 3, 4, 5, 6],
    EventType.FP_MUL: [1, 2, 3, 4, 5, 6],
    EventType.L2D: [2, 4, 6, 8, 10, 12],
    EventType.MEM_D: [17, 33, 50, 66, 83, 100, 116, 133],
    EventType.LD: [1, 2, 3, 4],
    EventType.INT_MUL: [1, 2, 3, 4, 5],
    EventType.ST: [1, 2],
    EventType.DTLB: [5, 10, 15, 20],
}

SMALL_SPACE = {
    EventType.L1D: [1, 2, 3, 4],
    EventType.FP_ADD: [1, 2, 3, 4, 5, 6],
    EventType.MEM_D: [33, 66, 133],
    EventType.L2D: [3, 6, 12],
}


def per_point_rate(model, space, sample: int) -> float:
    """Points/second of the baseline loop: materialise a design point,
    predict its CPI, cost it — exactly what ``Explorer.explore`` spends
    per point."""
    base = space.base

    def body():
        for index in range(sample):
            point = space.point_at(index)
            model.predict_cpi(point)
            default_cost_model(point, base)

    _, seconds = timed(body)
    return sample / seconds


def test_sweep_smoke():
    """CI guard: on even a small space the chunked path must beat the
    per-point loop."""
    model = get_session("gamess").rpstacks
    space = DesignSpace.from_mapping(SMALL_SPACE)
    result = sweep_space(model, space, chunk_size=4096)
    chunked_rate = result.metrics.points_per_second
    loop_rate = per_point_rate(model, space, space.num_points)
    assert chunked_rate > loop_rate, (
        f"chunked path ({chunked_rate:,.0f} pts/s) must beat the "
        f"per-point loop ({loop_rate:,.0f} pts/s)"
    )
    assert len(result.candidates) >= 1


def test_million_point_sweep(benchmark):
    session = get_session("gamess")
    model = session.rpstacks
    space = DesignSpace.from_mapping(MILLION_SPACE)
    assert space.num_points > 1_000_000
    target = session.baseline_cpi * 0.9

    result = benchmark.pedantic(
        sweep_space,
        args=(model, space),
        kwargs={"target_cpi": target, "chunk_size": 65536},
        iterations=1,
        rounds=1,
    )
    metrics = result.metrics
    loop_rate = per_point_rate(model, space, sample=20_000)
    speedup = metrics.points_per_second / loop_rate

    rows = [
        [
            "per-point loop (extrapolated)",
            f"{loop_rate / 1e3:.0f}k pts/s",
            f"{space.num_points / loop_rate:.1f}s",
            f"{space.num_points:,} (all materialised)",
        ],
        [
            "streamed chunks (jobs=1)",
            f"{metrics.points_per_second / 1e3:.0f}k pts/s",
            f"{metrics.total_seconds:.2f}s",
            f"{metrics.peak_candidates}",
        ],
    ]
    priced = model.restricted(*space.bounds()).num_paths
    text = (
        f"Streaming DSE sweep engine ({space.num_points:,}-point latency "
        f"space, gamess model, {priced} of {model.num_paths} stacks "
        f"priced)\n"
        + format_table(
            ["method", "throughput", "wall-clock", "resident candidates"],
            rows,
        )
        + f"\n\nspeedup over per-point loop: {speedup:.1f}x"
        f"\nPareto front: {len(result.pareto_front())} designs, "
        f"{result.num_meeting_target:,} points met target CPI "
        f"{target:.3f}"
        f"\nchunks: {metrics.num_chunks} x {metrics.chunk_size} "
        f"(mean {metrics.mean_chunk_seconds * 1e3:.1f}ms, "
        f"max {metrics.max_chunk_seconds * 1e3:.1f}ms)"
    )
    write_report("dse_sweep.txt", text)
    benchmark.extra_info["points_per_second"] = metrics.points_per_second
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["peak_candidates"] = metrics.peak_candidates

    # Acceptance floor: the chunked engine prices the space at least
    # 10x faster than the per-point loop, in bounded memory.
    assert speedup >= 10
    assert metrics.peak_candidates < space.num_points / 100
