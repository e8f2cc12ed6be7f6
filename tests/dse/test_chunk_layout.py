"""The sweep's layouts against per-point references.

Enumeration, per-axis cost tables, the block pricing and its screen
must not change a bit of what the sweep returns: pricing vectors,
costs, candidates, ``meeting_target`` and ``peak_candidates``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import LatencyConfig
from repro.common.events import LATENCY_DOMAIN, NUM_EVENTS, EventType
from repro.core.model import RpStacksModel
from repro.dse.designspace import DesignSpace
from repro.dse.explorer import default_cost_model, default_cost_tables
from repro.dse.pipeline import analyze
from repro.dse.sweep import (
    _BLOCKS_PER_CHUNK,
    _Blocks,
    _cost_terms,
    _exact_costs,
    _prune,
    _screen_margin,
    sweep_space,
)
from repro.obs.observer import Observer
from repro.workloads.suite import make_workload, suite_names

#: The e2e benchmark's latency ladder (829,440 points).
LADDER = (
    (EventType.L1D, (1, 2, 3, 4)),
    (EventType.FP_ADD, (1, 2, 3, 4, 5, 6)),
    (EventType.MEM_D, (17, 33, 50, 66, 83, 100)),
    (EventType.L2D, (2, 4, 6, 8, 10, 12)),
    (EventType.FP_MUL, (1, 2, 3, 4, 5, 6)),
    (EventType.LD, (1, 2, 3, 4)),
    (EventType.INT_MUL, (1, 2, 3, 4, 5)),
    (EventType.ST, (1, 2)),
    (EventType.DTLB, (5, 10, 15, 20)),
)

#: Built directly: unsorted axes, zero-cycle values, values above the
#: base latency, an event whose base latency is zero and an event
#: outside the latency domain (which the cost model ignores).
DIRECT_SPACE = DesignSpace(
    base=LatencyConfig().with_overrides({EventType.ST: 0}),
    axes=(
        (EventType.MEM_D, (266, 0, 17, 133, 66)),
        (EventType.L1D, (8, 0, 2, 4)),
        (EventType.BR_MISP, (30, 1)),
        (EventType.FP_ADD, (3, 12, 0)),
        (EventType.ST, (2, 0)),
    ),
)

#: Chunk bounds that start and stop inside a period of every axis of
#: DIRECT_SPACE (periods 240, 48, 12, 6 and 2 points).
SPLIT_BOUNDS = ((1, 239), (7, 113), (59, 201), (121, 123), (199, 237))


def bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def draw_model_and_space(data):
    """A random integer model over a directly built space.

    Axes come in any order, so their events interleave
    ``LATENCY_DOMAIN``; values are unsorted, repeated, zero (costed as
    0.5 cycles) or single.  Stacks are integers over the swept events
    and ``BASE``, so each segment's winner changes across the space and
    between blocks.
    """
    events = data.draw(
        st.lists(
            st.sampled_from(LATENCY_DOMAIN), min_size=1, max_size=5,
            unique=True,
        )
    )
    axes = tuple(
        (event, tuple(data.draw(
            st.lists(st.integers(0, 24), min_size=1, max_size=6)
        )))
        for event in events
    )
    base = LatencyConfig().with_overrides({
        event: data.draw(st.integers(0, 24)) for event in events
    })
    space = DesignSpace(base=base, axes=axes)
    columns = [int(EventType.BASE)] + [int(event) for event in events]
    segments = []
    for _ in range(data.draw(st.integers(1, 4))):
        rows = data.draw(st.lists(
            st.lists(st.integers(0, 9), min_size=len(columns),
                     max_size=len(columns)),
            min_size=1, max_size=5,
        ))
        stacks = np.zeros((len(rows), NUM_EVENTS))
        stacks[:, columns] = rows
        segments.append(stacks)
    model = RpStacksModel(
        segments, baseline=LatencyConfig(),
        num_uops=data.draw(st.integers(1, 50)),
    )
    return model, space


class TestEnumeration:
    def test_bounds_split_every_axis_period(self):
        periods = []
        period = 1
        for _event, values in reversed(DIRECT_SPACE.axes):
            period *= len(values)
            periods.append(period)
        assert periods == [2, 6, 12, 48, 240]
        for lo, hi in SPLIT_BOUNDS:
            for period in periods:
                assert lo % period and hi % period

    @pytest.mark.parametrize("lo, hi", SPLIT_BOUNDS)
    def test_theta_matrix_matches_point_at(self, lo, hi):
        thetas = DIRECT_SPACE.theta_matrix(lo, hi)
        expected = np.stack(
            [DIRECT_SPACE.point_at(i).as_vector() for i in range(lo, hi)],
            axis=1,
        )
        assert thetas.tobytes() == expected.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_any_space_and_chunk_match_point_at(self, data):
        events = data.draw(
            st.lists(
                st.sampled_from(LATENCY_DOMAIN), min_size=1, max_size=4,
                unique=True,
            )
        )
        values = st.lists(st.integers(0, 300), min_size=1, max_size=5)
        space = DesignSpace(
            base=LatencyConfig(),
            axes=tuple((event, tuple(data.draw(values))) for event in events),
        )
        lo = data.draw(st.integers(0, space.num_points))
        hi = data.draw(st.integers(lo, space.num_points))
        expected = np.zeros((NUM_EVENTS, hi - lo))
        for column, index in enumerate(range(lo, hi)):
            expected[:, column] = space.point_at(index).as_vector()
        assert space.theta_matrix(lo, hi).tobytes() == expected.tobytes()

    def test_a_space_with_an_empty_axis_has_an_empty_chunk(self):
        space = DesignSpace(
            base=LatencyConfig(),
            axes=((EventType.L1D, (1, 2)), (EventType.LD, ())),
        )
        assert space.num_points == 0
        assert space.theta_matrix(0, 0).shape == (NUM_EVENTS, 0)
        assert _exact_costs(
            _cost_terms(space), np.arange(0)
        ).shape == (0,)


class TestCostTables:
    @pytest.mark.parametrize("lo, hi", SPLIT_BOUNDS + ((0, 240),))
    def test_axis_tables_match_the_scalar_model(self, lo, hi):
        costs = _exact_costs(
            _cost_terms(DIRECT_SPACE), np.arange(lo, hi)
        )
        scalar = [
            default_cost_model(DIRECT_SPACE.point_at(i), DIRECT_SPACE.base)
            for i in range(lo, hi)
        ]
        assert bits(costs) == bits(scalar)

    def test_tables_follow_the_latency_domain_order(self):
        tables = default_cost_tables(DIRECT_SPACE)
        # BR_MISP is outside the latency domain and ST's base is zero, so
        # neither adds a term.
        assert [event for event, _terms in tables] == [
            EventType.L1D, EventType.MEM_D, EventType.FP_ADD,
        ]
        assert bits(tables[0][1]) == bits([0.0, 7.0, 1.0, 0.0])


class TestScreen:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_screened_prune_equals_prune(self, data):
        model, space = draw_model_and_space(data)
        total = space.num_points
        chunk_size = data.draw(st.sampled_from([1, 13, 97, 331, total + 1]))
        cycles = model.predict_cycles_matrix(space.theta_matrix())
        cpis = cycles / model.num_uops
        costs = np.array(
            [default_cost_model(point, space.base) for point in space]
        )
        limit = data.draw(st.sampled_from(
            [math.inf, float(np.median(cycles)), -1.0]
        ))
        # Every chunk laid out, priced and screened as one batch.
        terms = _cost_terms(space)
        blocks = _Blocks(
            model.restricted(*space.bounds()).segment_stacks, space,
            chunk_size // _BLOCKS_PER_CHUNK, _screen_margin(terms),
        )
        starts = np.arange(0, total, chunk_size)
        stops = np.minimum(starts + chunk_size, total)
        kept, kept_cycles, chunk_of, inside = blocks.price(
            blocks.layout(starts, stops), limit
        )
        assert bits(kept_cycles) == bits(cycles[kept])
        assert bits(_exact_costs(terms, kept)) == bits(costs[kept])
        for chunk, (lo, hi) in enumerate(zip(starts, stops)):
            everything = np.arange(lo, hi)
            mine = np.sort(kept[chunk_of == chunk])
            assert np.unique(mine).size == mine.size
            assert ((lo <= mine) & (mine < hi)).all()
            # Screened points still count against the limit.
            assert inside[chunk] == np.count_nonzero(cycles[lo:hi] <= limit)
            expected = _prune(everything, cpis[lo:hi], costs[lo:hi])
            screened = _prune(mine, cpis[mine], costs[mine])
            for ours, theirs in zip(screened, expected):
                assert ours.dtype == theirs.dtype
                assert ours.tobytes() == theirs.tobytes()
            # Every dropped point has a strictly cheaper point of its
            # chunk with a CPI no higher: the lowest CPI among strictly
            # cheaper points is <= its.
            dropped = np.setdiff1d(everything, mine)
            order = lo + np.argsort(costs[lo:hi], kind="stable")
            running = np.minimum.accumulate(cpis[order])
            cheaper = np.searchsorted(
                costs[order], costs[dropped], side="left"
            )
            assert (cheaper > 0).all()
            assert (running[cheaper - 1] <= cpis[dropped]).all()


# ---- the full sweep against a per-point reference ----------------------


@pytest.fixture(scope="module")
def ladder_reference():
    """The ladder, each point's axis digits (flat index ``//`` stride
    ``%`` axis length) and its default cost from the per-event formula
    applied point by point."""
    space = DesignSpace.from_mapping(dict(LADDER))
    flat = np.arange(space.num_points)
    digits = []
    stride = space.num_points
    for _event, values in space.axes:
        stride //= len(values)
        digits.append(((flat // stride) % len(values)).astype(np.int8))
    events = [event for event, _values in space.axes]
    costs = np.zeros(space.num_points)
    for event in LATENCY_DOMAIN:
        old = float(space.base[event])
        if event not in events or old <= 0:
            continue
        axis = events.index(event)
        new = np.asarray(space.axes[axis][1], dtype=float)[digits[axis]]
        effective = np.where(new > 0, new, 0.5)
        costs += np.where(new < old, old / effective - 1.0, 0.0)
    return space, digits, costs


def reference_cpis(model, space, digits):
    """Each point's CPI under the full model, priced from its digits."""
    cpis = np.empty(space.num_points)
    for lo in range(0, space.num_points, 65536):
        hi = min(lo + 65536, space.num_points)
        thetas = np.tile(space.base.as_vector()[:, np.newaxis], (1, hi - lo))
        for (event, values), axis_digits in zip(space.axes, digits):
            thetas[int(event)] = np.asarray(values, dtype=float)[
                axis_digits[lo:hi]
            ]
        cpis[lo:hi] = model.predict_cycles_matrix(thetas) / model.num_uops
    return cpis


def reference_sweep(cpis, costs, chunk_size, target_cpi):
    """The sweep's chunk loop with the exact prune alone."""
    held = (np.empty(0, np.int64), np.empty(0), np.empty(0))
    meeting = peak = 0
    for lo in range(0, cpis.size, chunk_size):
        hi = min(lo + chunk_size, cpis.size)
        indices = np.arange(lo, hi, dtype=np.int64)
        chunk = (indices, cpis[lo:hi], costs[lo:hi])
        if target_cpi is not None:
            meets = chunk[1] <= target_cpi
            chunk = tuple(column[meets] for column in chunk)
        meeting += chunk[0].size
        chunk = _prune(*chunk)
        peak = max(peak, held[0].size + chunk[0].size)
        held = _prune(
            *(np.concatenate(pair) for pair in zip(held, chunk))
        )
    return held, meeting, peak


@pytest.fixture(scope="module", params=suite_names())
def ladder_case(request, ladder_reference):
    space, digits, costs = ladder_reference
    model = analyze(make_workload(request.param, 1000)).rpstacks
    return model, space, reference_cpis(model, space, digits), costs


@pytest.mark.parametrize("chunk_size", [65536, 4096, 777])
@pytest.mark.parametrize(
    "bounded", [False, True], ids=["plain", "target"]
)
def test_ladder_sweep_matches_the_reference(ladder_case, chunk_size, bounded):
    model, space, cpis, costs = ladder_case
    target_cpi = float(np.quantile(cpis, 0.4)) if bounded else None
    (indices, ref_cpis, ref_costs), meeting, peak = reference_sweep(
        cpis, costs, chunk_size, target_cpi
    )
    result = sweep_space(
        model, space, target_cpi=target_cpi, chunk_size=chunk_size
    )
    assert [c.latency for c in result.candidates] == [
        space.point_at(int(index)) for index in indices
    ]
    assert bits([c.predicted_cpi for c in result.candidates]) == bits(ref_cpis)
    assert bits([c.cost for c in result.candidates]) == bits(ref_costs)
    assert result.num_meeting_target == meeting
    assert result.metrics.peak_candidates == peak


def test_ladder_sweep_lays_out_one_level_of_blocks(ladder_case):
    """Each chunk is cut at block boundaries once: every part of a
    block inside a chunk is one piece, whatever stacks it keeps."""
    model, space, _cpis, _costs = ladder_case
    chunk_size = 65536
    # The inner block: the most trailing whole axes of at most a
    # sixteenth of a chunk's points.
    size = 1
    for _event, values in reversed(space.axes):
        if size * len(values) > chunk_size // _BLOCKS_PER_CHUNK:
            break
        size *= len(values)
    assert size == 960
    starts = np.arange(0, space.num_points, chunk_size)
    stops = np.minimum(starts + chunk_size, space.num_points)
    pieces = int(((stops - 1) // size - starts // size + 1).sum())
    assert pieces == 876
    obs = Observer(enabled=True, progress_stream=None)
    sweep_space(model, space, chunk_size=chunk_size, obs=obs)
    counters = obs.metrics.export()["counters"]
    assert counters["sweep.blocks"] == pieces
    assert counters["sweep.blocks_summed"] <= pieces
