"""The block-priced sweep against a point-by-point reference.

``sweep_space`` prices an ``RpStacksModel`` from the space's blocks:
inner-block prices, per-block constants, a per-block restriction and
screens on re-associated costs.  Whatever the model, the space or the
chunk size, its candidates, ``meeting_target`` and ``peak_candidates``
must be those of pricing every point with ``theta_matrix`` and
``predict_cycles_matrix``, costing it with ``default_cost_model`` and
pruning chunk by chunk.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import LatencyConfig
from repro.common.events import NUM_EVENTS, EventType
from repro.core.model import RpStacksModel
from repro.dse.designspace import DesignSpace
from repro.dse.explorer import default_cost_model
from repro.dse.sweep import sweep_space
from tests.dse.test_chunk_layout import (
    bits,
    draw_model_and_space,
    reference_sweep,
)


def assert_matches_reference(model, space, chunk_size, target_cpi, top_k):
    cpis = (
        model.predict_cycles_matrix(space.theta_matrix()) / model.num_uops
    )
    costs = np.array(
        [default_cost_model(point, space.base) for point in space]
    )
    (indices, ref_cpis, ref_costs), meeting, peak = reference_sweep(
        cpis, costs, chunk_size, target_cpi, top_k
    )
    result = sweep_space(
        model, space, target_cpi=target_cpi, chunk_size=chunk_size,
        top_k=top_k,
    )
    assert [c.latency for c in result.candidates] == [
        space.point_at(int(index)) for index in indices
    ]
    assert bits([c.predicted_cpi for c in result.candidates]) == bits(ref_cpis)
    assert bits([c.cost for c in result.candidates]) == bits(ref_costs)
    assert result.num_meeting_target == meeting
    assert result.metrics.peak_candidates == peak
    return result


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_any_model_space_and_chunk_match_the_reference(data):
    model, space = draw_model_and_space(data)
    chunk_size = data.draw(st.sampled_from(
        [1, 13, 97, 331, space.num_points + 1]
    ))
    cpis = (
        model.predict_cycles_matrix(space.theta_matrix()) / model.num_uops
    )
    target_cpi = data.draw(st.sampled_from([
        None, float(cpis.max()), float(cpis.min()) - 1.0,
        float(np.median(cpis)),
    ]))
    top_k = data.draw(st.sampled_from([None, 1, 3]))
    result = assert_matches_reference(
        model, space, chunk_size, target_cpi, top_k
    )
    if target_cpi == float(cpis.max()):
        assert result.num_meeting_target == space.num_points
    elif target_cpi is not None and target_cpi < cpis.min():
        assert result.num_meeting_target == 0
        assert result.candidates == []


def test_rounded_cost_ties_keep_the_lower_index():
    """Two points of one block tie in cycles and in exact cost, but
    their inner cost shares round apart (1.6666666666666665 against
    1.6666666666666667), so only the screen's margin keeps the one of
    lower index, which the prune keeps.
    """
    base = LatencyConfig().with_overrides(
        {EventType.L1D: 7, EventType.L2D: 8, EventType.MEM_D: 5}
    )
    space = DesignSpace(
        base=base,
        axes=(
            (EventType.L1D, (3, 7)),
            (EventType.L2D, (4, 3)),
            (EventType.MEM_D, (3, 5)),
        ),
    )
    kept = space.point_at(0)
    tied = space.point_at(3)
    assert default_cost_model(kept, base) == default_cost_model(tied, base)
    shares = [(8 / 4 - 1.0) + (5 / 3 - 1.0), (8 / 3 - 1.0) + 0.0]
    assert shares[0] > shares[1]
    stack = np.zeros((1, NUM_EVENTS))
    stack[0, [EventType.BASE, EventType.L1D, EventType.L2D,
              EventType.MEM_D]] = (10, 1, 2, 1)
    model = RpStacksModel([stack], baseline=base, num_uops=4)
    assert model.predict_cycles(kept) == model.predict_cycles(tied)
    # Chunks of 64 points lay the four L2D x MEM_D points out as a block.
    result = assert_matches_reference(model, space, 64, None, None)
    assert kept in [c.latency for c in result.candidates]
    assert tied not in [c.latency for c in result.candidates]


def test_an_axis_set_again_by_a_later_axis_is_shadowed():
    """A directly built space may sweep one event twice; as in
    ``point_at``, the later axis sets it, here across the inner/outer
    split of 64-point chunks (blocks of the last two axes)."""
    space = DesignSpace(
        base=LatencyConfig(),
        axes=(
            (EventType.L1D, (1, 2, 3)),
            (EventType.FP_ADD, (2, 6, 4)),
            (EventType.L1D, (4, 1)),
            (EventType.L2D, (12, 3)),
        ),
    )
    stacks = np.zeros((2, NUM_EVENTS))
    stacks[0, [EventType.BASE, EventType.L1D, EventType.FP_ADD]] = (5, 3, 1)
    stacks[1, [EventType.BASE, EventType.L2D]] = (9, 2)
    model = RpStacksModel([stacks], baseline=LatencyConfig(), num_uops=7)
    for chunk_size in (1, 64, 100):
        assert_matches_reference(model, space, chunk_size, None, None)


#: A latency near float64's largest value.
HUGE = 10**308


@pytest.mark.parametrize("overflowing", ["costs", "cycles"])
def test_spaces_that_overflow_are_priced_unscreened(overflowing):
    """Halving a ``HUGE`` base latency costs ``inf``, and a ``HUGE``
    latency twice over takes ``inf`` cycles.  Such costs leave the
    screen no margin and such cycles no exact sums, so the sweep prices
    the space unscreened and keeps its cheapest point, whose cost or
    CPI is ``inf``."""
    base = LatencyConfig().with_overrides(
        {EventType.L1D: HUGE, EventType.L2D: 8}
    )
    if overflowing == "costs":
        rows, l1d = ((10, 1, 2),), (0, 1, 3)
    else:
        rows, l1d = ((10, 2, 2), (10, 0, 3)), (HUGE, 5, 3)
    stacks = np.zeros((len(rows), NUM_EVENTS))
    stacks[:, [EventType.BASE, EventType.L1D, EventType.L2D]] = rows
    space = DesignSpace(
        base=base,
        axes=((EventType.L1D, l1d), (EventType.L2D, (1, 2, 4, 8))),
    )
    model = RpStacksModel([stacks], baseline=LatencyConfig(), num_uops=4)
    # The point of lowest CPI costs inf, or the cheapest takes inf cycles.
    odd = space.point_at(0 if overflowing == "costs" else 3)
    with np.errstate(over="ignore", invalid="ignore"):
        assert math.inf in (
            default_cost_model(odd, base), model.predict_cycles(odd)
        )
        for chunk_size in (1, 5, 64):
            result = assert_matches_reference(
                model, space, chunk_size, None, None
            )
            assert odd in [c.latency for c in result.candidates]
