"""Streaming design-space sweep engine.

The paper's headline claim is that an RpStacks model prices design
points in microseconds, so the exploration bottleneck should be the
hardware, not the Python object layer.  :class:`~repro.dse.explorer.Explorer.explore`
materialises every point as a :class:`~repro.common.config.LatencyConfig`
— fine for thousands of points, memory- and CPU-bound for millions.

This module is the one fast path beside that materialised reference.
It prices an :class:`~repro.core.model.RpStacksModel` from the
space's mixed-radix structure and costs only with
:func:`~repro.dse.explorer.default_cost_model`.  Any other predictor
or cost model, and any space whose default costs overflow or whose
cycles pass ``2 ** 51``, goes through ``Explorer.explore``:

* before any point is priced, the model is restricted to the space's
  box (:meth:`DesignSpace.bounds`, :meth:`RpStacksModel.restricted`):
  per segment, only the stacks that can be the maximum somewhere in
  the space are kept;
* the fastest axes form an *inner block* of ``B`` points (whole axes,
  at most a sixteenth of a chunk) and the rest the outer axes, so a
  point's price per stack is its block's *constant* plus its inner
  price.  Per segment the stacks are priced over the inner block once
  per sweep, and once per block at its outer vector;
* per block the restriction is repeated on the block's sub-box (the
  outer axes fixed).  Where every segment keeps one stack, the block is
  *summed*: its cycles are its constant plus one inner row, whose
  screened front is found once per sweep and reused by every such
  block.  Blocks that keep several stacks, and the part of a summed
  block that a chunk boundary cuts, are priced point by point, per
  segment as the highest of the stacks left;
* a *screen* drops points that a strictly cheaper point of the same
  chunk with no more cycles dominates: whole blocks that a summed
  block of the chunk dominates point by point, and within a block the
  points behind its front.  It compares costs split into an outer and
  an inner share, which round differently from the exact sum, so
  "strictly cheaper" needs a margin above that rounding;
* the survivors are costed exactly: each point's ``default_cost_tables``
  terms are gathered and added in ``LATENCY_DOMAIN`` order from
  ``0.0``, the scalar model's additions;
* a bounded-memory reduction keeps only the candidates that can still
  reach the cost/CPI Pareto front, so a multi-million-point space never
  resides in RAM at once.  Chunks are laid out, priced and costed in
  batches of at least :data:`DEFAULT_CHUNK_SIZE` points, and pruned
  one by one.

**Exactness.** The reduction keeps every point whose CPI is strictly
below the minimum CPI of all points preceding it in ``(cost, cpi,
index)`` order.  A point dropped by that rule can never appear in
:meth:`ExplorationResult.pareto_front` (the front's scan requires each
kept point to beat *some* preceding survivor, and the dropped point has
a preceding dominator), and the rule is confluent: pruning each chunk
and then the running set yields the same surviving set as pruning all
points at once, so the candidate list does not depend on the chunk
size.  The screen keeps that set too.  It drops a point only when some
point of the chunk is strictly cheaper with a CPI no higher; that
point precedes it in the order, so the prune would drop it as well.
Removing it changes no other verdict: whatever it preceded, its
dominator (or, if that was dropped too, the end of the chain of
strictly cheaper dominators) precedes with a CPI no higher, so every
running minimum stays the same.  The screen reads only the chunk, and
every screened point is still counted against the target, so the
candidate set, ``meeting_target`` and ``peak_candidates`` are the
unscreened sweep's at every chunk size.
Stack unit counts and latencies are integers (the model's
constructor enforces it) and the sweep takes cycles of at most
``2 ** 51``, so every constant, inner price and sum is exact in
float64, and neither blocks, chunking nor the restrictions can
change a single bit: the streamed front is **bit-identical** to the
materialised explorer's, which prices the full model and which
``tests/dse/test_sweep.py`` asserts against differentially.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.common.events import NUM_EVENTS
from repro.core.model import RpStacksModel, vertex_margins
from repro.dse.designspace import DesignSpace
from repro.dse.explorer import (
    ROLLING_WINDOW_CHUNKS,
    Candidate,
    ExplorationResult,
    SweepMetrics,
    default_cost_tables,
)
from repro.obs import clock
from repro.obs.observer import get_observer

#: Default points per chunk: big enough for blocks of a thousand points,
#: small enough that a chunk's intermediates stay cache-friendly.
DEFAULT_CHUNK_SIZE = 65536

#: Default seconds between progress lines when an interval isn't given
#: explicitly (progress is emitted only under an enabled observer).
DEFAULT_PROGRESS_INTERVAL = 10.0

#: Spans that split each ``sweep.chunk`` under an enabled observer, in
#: the order the chunk runs them.
CHUNK_STAGES = ("sweep.enumerate", "sweep.price", "sweep.cost", "sweep.prune")

#: A block holds at most a sixteenth of a chunk's points, so chunk
#: boundaries cut few of them.
_BLOCKS_PER_CHUNK = 16


def _prune(
    indices: np.ndarray, cpis: np.ndarray, costs: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Drop every candidate that cannot reach the Pareto front.

    Keeps point ``p`` iff its CPI is strictly below the CPI of every
    point sorted before it by ``(cost, cpi, index)`` — a conservative
    superset of the front (near-ties within the front's 1e-12 epsilon
    are retained for the final exact scan).  Output is sorted by that
    same key, which makes merges order-insensitive.
    """
    if indices.size == 0:
        return indices, cpis, costs
    order = np.lexsort((indices, cpis, costs))
    sorted_cpis = cpis[order]
    keep = np.empty(order.size, dtype=bool)
    keep[0] = True
    keep[1:] = sorted_cpis[1:] < np.minimum.accumulate(sorted_cpis)[:-1]
    chosen = order[keep]
    return indices[chosen], cpis[chosen], costs[chosen]


def _cost_terms(space: DesignSpace) -> List[Tuple[int, int, np.ndarray]]:
    """:func:`default_cost_tables` as ``(stride, length, terms)`` triples.

    Point ``i`` takes ``terms[i // stride % length]`` from each triple;
    the triples keep the tables' ``LATENCY_DOMAIN`` order.
    """
    strides = dict(
        zip((event for event, _values in space.axes), space._strides())
    )
    return [
        (strides[event], terms.size, terms)
        for event, terms in default_cost_tables(space)
    ]


def _exact_costs(
    terms: List[Tuple[int, int, np.ndarray]], indices: np.ndarray
) -> np.ndarray:
    """Default costs of the points at *indices*, bit for bit.

    Each point's terms are added in ``LATENCY_DOMAIN`` order from
    ``0.0``, the additions :func:`default_cost_model` makes.
    """
    costs = np.zeros(indices.size)
    for stride, length, table in terms:
        costs += table[indices // stride % length]
    return costs


def _screen_margin(terms: List[Tuple[int, int, np.ndarray]]) -> float:
    """How much lower a cost split into outer + inner shares must be to
    count as strictly cheaper.

    Exact costs and their splits differ by under ``n`` ulps of the
    largest cost each (``n`` cost tables); the margin covers both sides
    of a comparison twice over.  ``inf`` where the costs overflow.
    """
    largest = sum(float(table.max()) for _s, _n, table in terms)
    return 4 * len(terms) * np.finfo(float).eps * largest


def _check_exact(model: RpStacksModel, space: DesignSpace, margin: float):
    """Raise ``ValueError`` unless :class:`_Blocks` prices and screens
    *space* exactly.

    It needs a finite screen *margin* and cycles of at most ``2 ** 51``
    (each segment's highest stack at the top of the box, summed): then
    every constant, inner price, sum and vertex margin is an integer
    float64 holds exactly, and the screen's chunk lift fits in int64.
    """
    top = space.bounds()[1]
    most = sum(float((stacks @ top).max()) for stacks in model.segment_stacks)
    if not (margin < math.inf and most <= 2.0 ** 51):
        raise ValueError(
            "sweep_space prices spaces whose default costs are finite and "
            "whose cycles stay within 2 ** 51; price this one with "
            "Explorer.explore"
        )


def _cycle_limit(target_cpi: Optional[float], num_uops) -> float:
    """The most cycles a point may take and meet *target_cpi*.

    Cycles are non-negative integers and ``cycles / num_uops`` is
    monotone in them, so a point meets the target iff its cycles are at
    most the limit: ``inf`` when every point does, ``-1`` when none can.
    """
    if target_cpi is None or target_cpi == math.inf:
        return math.inf
    if not target_cpi >= 0:
        return -1.0
    uops = float(num_uops)
    if target_cpi * uops >= 2.0 ** 53:
        return math.inf
    limit = float(math.floor(target_cpi * uops))
    while (limit + 1) / uops <= target_cpi:
        limit += 1
    while limit >= 0 and limit / uops > target_cpi:
        limit -= 1
    return limit


class _Pieces:
    """Chunks cut at block boundaries, with the data of their blocks
    (:meth:`_Blocks.layout`)."""

    __slots__ = (
        "chunk", "blocks", "local", "begin", "end", "consts", "winners",
        "singles", "tuples", "keys", "summed", "whole", "screened",
    )


class _Blocks:
    """A restricted model priced block by block over the space.

    The space's fastest axes form the *inner* block of ``size`` points,
    the rest the *outer* axes: block ``b`` holds points ``[b * size,
    (b + 1) * size)``, and a point's pricing vector is its block's outer
    vector plus its inner vector.  Per segment each stack is priced over
    the inner block once per sweep, and once per block at the outer
    vector (the block's *constant*).  Counts and latencies are integers,
    so every sum is exact.

    A block whose segments keep one stack each over the whole block is
    *summed*: its cycles are its constant plus one inner row, whose
    screened front is priced once per sweep.  A block that keeps several
    stacks, and the part of a summed block inside a chunk that cuts it,
    are priced point by point, per segment as the highest of the stacks
    left.

    Inner points are kept in *rank* order: by their share of the cost,
    the sum of the inner axes' cost terms.  Within one block that order
    is the points' cost order up to float re-association, which
    ``cheaper`` allows for: in every block, the point of rank ``i`` is
    strictly cheaper than every point of rank ``cheaper[i]`` or more.
    """

    def __init__(
        self, segments, space: DesignSpace, most: int, margin: float
    ) -> None:
        axes = space.axes
        # The inner axes: the most trailing whole axes whose points
        # number at most *most*.
        split, size = len(axes), 1
        while split and size * len(axes[split - 1][1]) <= most:
            split -= 1
            size *= len(axes[split][1])
        self.size = size
        self.margin = margin
        #: pieces laid out and pieces summed
        self.tally = [0, 0]
        # Inner events sit at 0 in the outer vectors, every other event
        # at 0 in the inner ones.
        inner = [int(event) for event, _values in axes[split:]]
        thetas = np.zeros((NUM_EVENTS, size))
        thetas[inner] = DesignSpace(
            space.base, axes[split:]
        ).theta_matrix()[inner]
        self.base = space.base.as_vector()
        self.base[inner] = 0.0
        #: (event, values, stride in blocks) of the outer axes
        self.outer_axes = [
            (int(event), np.asarray(values, dtype=np.float64), stride // size)
            for (event, values), stride in zip(axes[:split], space._strides())
        ]
        positions = np.arange(size)
        share = np.zeros(size)
        #: (stride in blocks, length, terms) of the outer cost tables
        self.outer_terms = []
        for stride, length, table in _cost_terms(space):
            if stride < size:
                share += table[positions // stride % length]
            else:
                self.outer_terms.append((stride // size, length, table))
        self.order = np.argsort(share, kind="stable")
        ranked = share[self.order]
        self.cheaper = np.searchsorted(ranked, ranked - margin, side="left")
        thetas = thetas[:, self.order]
        lo, hi = thetas.min(axis=1), thetas.max(axis=1)
        #: per segment: inner prices (k × size, rank order) and the
        #: k × k least inner margins of stack r over stack q
        self.segments = []
        for stacks in segments:
            margins = None
            if stacks.shape[0] > 1:
                margins = vertex_margins(stacks, lo, hi)
            self.segments.append((stacks, stacks @ thetas, margins))
        #: winners per segment -> their inner cycles, and the inner
        #: front of a summed block
        self.inner, self.fronts = {}, {}

    def layout(self, starts, stops) -> _Pieces:
        """Cut the chunks ``[starts[i], stops[i])`` into pieces: the
        parts of blocks inside them.  Then restrict their blocks and
        screen them."""
        size = self.size
        pieces = _Pieces()
        firsts = starts // size
        parts = (stops - 1) // size - firsts + 1
        pieces.chunk = chunk = np.repeat(np.arange(starts.size), parts)
        pieces.blocks = blocks = (
            np.arange(chunk.size)
            - np.repeat(np.cumsum(parts) - parts, parts)
            + firsts[chunk]
        )
        pieces.begin = np.maximum(starts[chunk], blocks * size)
        pieces.end = np.minimum(stops[chunk], blocks * size + size)
        # The chunks are sorted, so a block repeats only in a run.
        fresh = np.empty(blocks.size, dtype=bool)
        fresh[0] = True
        np.not_equal(blocks[1:], blocks[:-1], out=fresh[1:])
        pieces.local = np.cumsum(fresh) - 1
        summed, share = self._blocks(blocks[fresh], pieces)
        pieces.keys = pieces.keys[pieces.local]
        pieces.summed = summed[pieces.local]
        pieces.whole = pieces.summed & (pieces.end - pieces.begin == size)
        pieces.screened = self._screen_blocks(pieces, share[pieces.local])
        self.tally[0] += chunk.size
        self.tally[1] += int(np.count_nonzero(pieces.whole))
        return pieces

    def _blocks(self, blocks: np.ndarray, pieces: _Pieces):
        """Set the data of *blocks* on *pieces*: per segment the
        constants, the first stack that can win and whether it is the
        only one (``None`` for a one-stack segment), and a key per
        distinct winner tuple.  Returns which blocks keep one stack in
        every segment (*summed*) and their outer share of the cost."""
        count = blocks.size
        outer = np.empty((NUM_EVENTS, count))
        outer[...] = self.base[:, np.newaxis]
        for event, values, stride in self.outer_axes:
            outer[event] = values[blocks // stride % values.size]
        every = np.arange(count)
        pieces.consts, pieces.winners, pieces.singles = [], [], []
        summed = np.ones(count, dtype=bool)
        code = np.zeros(count, dtype=np.intp)
        for stacks, inner, margins in self.segments:
            const = (stacks @ outer).T
            winner = np.zeros(count, dtype=np.intp)
            single = None
            if margins is not None:
                # The one stack left, if any, prices highest all over
                # the block, so at rank 0 too; it must cover each other
                # stack by RpStacksModel.restricted's vertex margin with
                # the outer axes fixed.
                winner = (const + inner[:, 0]).argmax(axis=1)
                lead = const[every, winner][:, np.newaxis]
                single = (lead - const + margins[winner] >= 0).all(axis=1)
                summed &= single
                # Number the distinct winner tuples so far densely, so
                # the codes stay below count × stacks.
                code = np.unique(
                    code * stacks.shape[0] + winner, return_inverse=True
                )[1]
            pieces.consts.append(const)
            pieces.winners.append(winner)
            pieces.singles.append(single)
        # Each block's key numbers its winner tuple.
        _codes, first, pieces.keys = np.unique(
            code, return_index=True, return_inverse=True
        )
        pieces.tuples = [
            tuple(int(winner[block]) for winner in pieces.winners)
            for block in first.tolist()
        ]
        share = np.zeros(count)
        for stride, length, table in self.outer_terms:
            share += table[blocks // stride % length]
        return summed, share

    def _screen_blocks(self, pieces: _Pieces, share: np.ndarray):
        """Which pieces a whole summed block of their chunk dominates
        point by point.

        A summed block prices inner point ``j`` at its constant plus
        ``I_w(j)``, where ``w`` picks one stack per segment.  Any block
        prices ``j`` at least at its own constants of ``w`` plus
        ``I_w(j)``; a summed block with winners ``v`` prices it at its
        constant plus ``I_v(j)``, so at least at that constant plus the
        least of ``I_v - I_w`` plus ``I_w(j)``.  So a summed block whose
        outer cost share is lower by the margin, and whose constant is
        no higher than either bound, holds a strictly cheaper point with
        no more cycles beside every point of the piece.
        """
        local, chunk, keys = pieces.local, pieces.chunk, pieces.keys
        screened = np.zeros(local.size, dtype=bool)
        if len(pieces.tuples) > 1:
            inner = np.stack([self.prices(t) for t in pieces.tuples])
            own = np.zeros(local.size)
            for const, winner in zip(pieces.consts, pieces.winners):
                own += const[local, winner[local]]
        for key in np.flatnonzero(np.bincount(keys[pieces.whole])):
            mine = np.flatnonzero(pieces.whole & (keys == key))
            sums = np.zeros(local.size)
            for const, winner in zip(pieces.consts, pieces.tuples[key]):
                sums += const[local, winner]
            if len(pieces.tuples) > 1:
                least = (inner - inner[key]).min(axis=1)
                sums = np.where(
                    pieces.summed, np.maximum(sums, own + least[keys]), sums
                )
            # Dominators in (chunk, share) order, with a running minimum
            # of their constants that restarts at every chunk: the lift
            # puts each earlier chunk above any later one.
            ranked = np.sort(share[mine])
            width = mine.size + 1
            place = chunk[mine] * width + np.searchsorted(
                ranked, share[mine], side="left"
            )
            order = np.argsort(place, kind="stable")
            place = place[order]
            values = sums[mine][order].astype(np.int64)
            lift = chunk[mine][order] * (values.max() - values.min() + 1)
            best = np.minimum.accumulate(values - lift) + lift
            # A piece's cheaper dominators sit before its place.
            ahead = np.searchsorted(
                place,
                chunk * width + np.searchsorted(
                    ranked, share - self.margin, side="left"
                ),
                side="left",
            )
            hit = ahead > np.searchsorted(place, chunk * width, side="left")
            screened[hit] |= best[ahead[hit] - 1] <= sums[hit]
        return screened

    def price(self, pieces: _Pieces, limit: float):
        """The pieces' screened points.

        Returns the survivors' flat indices, cycles and chunks (indices
        into :meth:`layout`'s), and per chunk the count of its points
        within *limit* cycles.  Every point dropped has a strictly
        cheaper point of its chunk with no more cycles.
        """
        size = self.size
        counted = limit != math.inf
        wanted = counted | ~pieces.screened
        counts = (pieces.end - pieces.begin).astype(np.float64)
        found = []
        fronts = np.flatnonzero(pieces.whole & wanted)
        keys = pieces.keys[fronts]
        for key in np.flatnonzero(np.bincount(keys)):
            mine = fronts[keys == key]
            base = np.zeros(mine.size)
            for const, winner in zip(pieces.consts, pieces.tuples[key]):
                base += const[pieces.local[mine], winner]
            ranks, prices, ordered = self.front(pieces.tuples[key])
            if counted:
                counts[mine] = np.searchsorted(
                    ordered, limit - base, side="right"
                )
                kept = ~pieces.screened[mine]
                mine, base = mine[kept], base[kept]
            found.append((
                ((pieces.blocks[mine] * size)[:, np.newaxis]
                 + self.order[ranks]).ravel(),
                (base[:, np.newaxis] + prices).ravel(),
                np.repeat(mine, ranks.size),
            ))
        rest = np.flatnonzero(~pieces.whole & wanted)
        if rest.size:
            rows = self._rows(pieces, rest)
            if counted:
                counts[rest] = np.count_nonzero(rows <= limit, axis=1)
                rows[pieces.screened[rest]] = np.inf
            row, rank = np.nonzero(self._screen(rows))
            found.append((
                pieces.blocks[rest[row]] * size + self.order[rank],
                rows[row, rank],
                rest[row],
            ))
        # Every chunk holds a piece, so each gets a count.
        inside = np.bincount(pieces.chunk, weights=counts)
        if not found:
            return (
                np.empty(0, dtype=np.int64), np.empty(0),
                np.empty(0, dtype=np.int64), inside,
            )
        indices, cycles, which = (
            np.concatenate(column) for column in zip(*found)
        )
        return indices, cycles, pieces.chunk[which], inside

    def _rows(self, pieces: _Pieces, rest: np.ndarray) -> np.ndarray:
        """Cycles of the *rest* pieces' points in rank order, ``inf``
        outside a piece: per segment the one stack left, else the
        highest."""
        local = pieces.local[rest]
        rows = np.zeros((rest.size, self.size))
        for (_stacks, inner, _margins), const, winner, single in zip(
            self.segments, pieces.consts, pieces.winners, pieces.singles
        ):
            won = winner[local]
            part = inner[won]
            part += const[local, won][:, np.newaxis]
            if single is not None and not single[local].all():
                several = local[~single[local]]
                highest = np.full((several.size, self.size), -np.inf)
                for stack, prices in enumerate(inner):
                    np.maximum(
                        highest,
                        prices + const[several, stack][:, np.newaxis],
                        out=highest,
                    )
                part[~single[local]] = highest
            rows += part
        begin = pieces.begin[rest] - pieces.blocks[rest] * self.size
        end = pieces.end[rest] - pieces.blocks[rest] * self.size
        cut = np.flatnonzero((begin > 0) | (end < self.size))
        if cut.size:
            outside = (self.order < begin[cut, np.newaxis]) | (
                self.order >= end[cut, np.newaxis]
            )
            rows[cut] = np.where(outside, np.inf, rows[cut])
        return rows

    def _screen(self, rows: np.ndarray) -> np.ndarray:
        """Which points of *rows* no cheaper point of their row
        dominates.

        *rows* holds cycles in rank order, ``inf`` outside a piece.  A
        point is dropped when a point of a lower ``cheaper`` rank, so
        strictly cheaper, takes no more cycles; ``inf`` never survives.
        """
        best = np.empty((rows.shape[0], rows.shape[1] + 1))
        best[:, 0] = np.inf
        np.minimum.accumulate(rows, axis=1, out=best[:, 1:])
        return best[:, self.cheaper] > rows

    def prices(self, winners: Tuple[int, ...]) -> np.ndarray:
        """``I_w``: inner cycles in rank order of one stack per segment."""
        if winners not in self.inner:
            prices = np.zeros(self.size)
            for (_stacks, inner, _margins), winner in zip(
                self.segments, winners
            ):
                prices += inner[winner]
            self.inner[winners] = prices
        return self.inner[winners]

    def front(self, winners: Tuple[int, ...]):
        """Ranks of a summed block's points that no cheaper point of the
        block dominates, their inner cycles, and all inner cycles
        sorted."""
        if winners not in self.fronts:
            prices = self.prices(winners)
            ranks = np.flatnonzero(self._screen(prices[np.newaxis])[0])
            self.fronts[winners] = (ranks, prices[ranks], np.sort(prices))
        return self.fronts[winners]


def _sweep_chunks(
    model: RpStacksModel,
    space: DesignSpace,
    chunk_size: int,
    target_cpi: Optional[float],
    obs,
    progress_interval: Optional[float],
) -> dict:
    """Price every point of *space* chunk by chunk, merging each
    chunk's survivors into a running pruned candidate set.

    Returns a handful of small arrays and counts, not design points.
    Under an enabled *obs* each chunk becomes a ``sweep.chunk`` span
    split into :data:`CHUNK_STAGES`, and a progress line is emitted
    every *progress_interval* seconds; the disabled path is hoisted to
    one ``obs.enabled`` check per chunk.
    """
    instrumented = obs.enabled
    interval = (
        progress_interval
        if progress_interval is not None
        else DEFAULT_PROGRESS_INTERVAL
    )
    last_progress = clock.perf_seconds()
    total = space.num_points
    terms = _cost_terms(space)
    margin = _screen_margin(terms)
    _check_exact(model, space, margin)
    pricer = _Blocks(
        model.segment_stacks, space, chunk_size // _BLOCKS_PER_CHUNK, margin
    )
    # Chunks laid out together: a default chunk's points at least, and
    # few enough that chunk offsets stay exact in int64.
    batch_chunks = min(1024, max(1, DEFAULT_CHUNK_SIZE // chunk_size))
    limit = _cycle_limit(target_cpi, model.num_uops)
    held_idx = np.empty(0, dtype=np.int64)
    held_cpi = np.empty(0, dtype=np.float64)
    held_cost = np.empty(0, dtype=np.float64)
    meeting = 0
    peak = 0
    chunk_seconds: List[float] = []
    total_chunks = -(-total // chunk_size)
    # Trailing (points, seconds) window for the progress line's rate.
    recent: List[Tuple[int, float]] = []
    batch_hi = 0
    for lo in range(0, total, chunk_size):
        hi = min(lo + chunk_size, total)
        wall_tick = clock.wall_ns() if instrumented else 0
        ticks = [clock.perf_seconds()]
        if lo == batch_hi:
            # A batch of whole chunks is laid out, priced and costed at
            # its first chunk; every chunk then prunes its own slice.
            batch_lo = lo
            batch_hi = min(lo + batch_chunks * chunk_size, total)
            starts = np.arange(lo, batch_hi, chunk_size)
            stops = np.minimum(starts + chunk_size, batch_hi)
            pieces = pricer.layout(starts, stops)
            ticks.append(clock.perf_seconds())
            found, cycles, chunk_of, meets = pricer.price(pieces, limit)
            found_cpi = cycles / model.num_uops
            if target_cpi is not None:
                kept = np.flatnonzero(found_cpi <= target_cpi)
                found, found_cpi, chunk_of = (
                    found[kept], found_cpi[kept], chunk_of[kept]
                )
            if meets.size > 1:
                order = np.argsort(chunk_of, kind="stable")
                found, found_cpi, chunk_of = (
                    found[order], found_cpi[order], chunk_of[order]
                )
            bounds = np.searchsorted(
                chunk_of, np.arange(meets.size + 1)
            ).tolist()
            ticks.append(clock.perf_seconds())
            found_cost = _exact_costs(terms, found)
            ticks.append(clock.perf_seconds())
        else:
            ticks *= 4
        position = (lo - batch_lo) // chunk_size
        begin, stop = bounds[position], bounds[position + 1]
        meeting += int(meets[position])
        prune_inputs = stop - begin
        indices, cpis, costs = _prune(
            found[begin:stop], found_cpi[begin:stop], found_cost[begin:stop]
        )
        peak = max(peak, int(held_idx.size + indices.size))
        held_idx = np.concatenate((held_idx, indices))
        held_cpi = np.concatenate((held_cpi, cpis))
        held_cost = np.concatenate((held_cost, costs))
        held_idx, held_cpi, held_cost = _prune(held_idx, held_cpi, held_cost)
        now = clock.perf_seconds()
        ticks.append(now)
        chunk_seconds.append(now - ticks[0])
        recent.append((hi - lo, chunk_seconds[-1]))
        if len(recent) > ROLLING_WINDOW_CHUNKS:
            del recent[0]
        if instrumented:
            obs.record(
                "sweep.chunk",
                wall_tick,
                int(chunk_seconds[-1] * 1e9),
                start=lo,
                stop=hi,
                survivors=int(held_idx.size),
            )
            for name, begin, end in zip(CHUNK_STAGES, ticks, ticks[1:]):
                obs.record(
                    name,
                    wall_tick + int((begin - ticks[0]) * 1e9),
                    int((end - begin) * 1e9),
                )
            obs.counter("sweep.points").inc(hi - lo)
            obs.counter("sweep.prune_inputs").inc(prune_inputs)
            obs.histogram("sweep.chunk_seconds").observe(chunk_seconds[-1])
            obs.gauge("prune.survivors").set(int(held_idx.size))
            if now - last_progress >= interval:
                last_progress = now
                chunks_done = len(chunk_seconds)
                window_points = sum(p for p, _ in recent)
                window_seconds = sum(s for _, s in recent)
                rolling = (
                    window_points / window_seconds
                    if window_seconds > 0
                    else 0.0
                )
                eta = (total - hi) / rolling if rolling > 0 else 0.0
                obs.progress(
                    f"sweep: {chunks_done}/{total_chunks} chunks, "
                    f"{hi:,} points priced, "
                    f"front size {held_idx.size}, "
                    f"{rolling:,.0f} points/s, ETA {eta:.1f}s",
                    chunks_done=chunks_done,
                    total_chunks=total_chunks,
                    points_priced=hi,
                    front_size=int(held_idx.size),
                    rolling_points_per_sec=rolling,
                    eta_seconds=eta,
                )
    return {
        "indices": held_idx,
        "cpis": held_cpi,
        "costs": held_cost,
        "meeting": meeting,
        "peak": peak,
        "chunk_seconds": chunk_seconds,
        "blocks": pricer.tally[0],
        "summed": pricer.tally[1],
        "block_size": pricer.size,
    }


def sweep_space(
    model: RpStacksModel,
    space: DesignSpace,
    target_cpi: Optional[float] = None,
    *,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    obs=None,
    progress_interval: Optional[float] = None,
) -> ExplorationResult:
    """Sweep *space* in bounded memory, pricing it block by block and
    streaming each chunk's survivors through a Pareto reduction.

    Args:
        model: an :class:`~repro.core.model.RpStacksModel`, priced
            through :meth:`~repro.core.model.RpStacksModel.restricted`
            to the space's :meth:`~repro.dse.designspace.DesignSpace.bounds`.
            Any other predictor or space, or another cost model, is
            priced by the materialised
            :meth:`~repro.dse.explorer.Explorer.explore`.
        space: the design space; never materialised.
        target_cpi: drop points whose predicted CPI exceeds this.
        chunk_size: design points per chunk, the unit of the Pareto
            prune: the screen compares points of one chunk only.  Blocks
            hold at most a sixteenth of a chunk, and chunks are priced
            in batches of at least :data:`DEFAULT_CHUNK_SIZE` points.
        obs: an :class:`~repro.obs.Observer`; when enabled, every chunk
            becomes a ``sweep.chunk`` span split into
            :data:`CHUNK_STAGES`, chunk timings land in the
            ``sweep.chunk_seconds`` histogram, the ``sweep.prune_inputs``
            counter counts the points that reach the exact prune, the
            ``sweep.blocks`` and ``sweep.blocks_summed`` counters the
            blocks laid out (a block cut by a chunk boundary once per
            chunk) and those priced from a reused inner front, the
            ``sweep.run`` span carries the
            inner block's ``block_size``, and progress lines are
            emitted.  The restriction is a
            ``sweep.restrict`` span (``stacks`` in the caller's model,
            ``stacks_priced`` after it) and a ``sweep.stacks_priced``
            gauge.  Defaults to the
            ambient observer — disabled instrumentation costs one flag
            check per chunk.
        progress_interval: seconds between progress lines (chunks done /
            points priced / current front size); defaults to
            :data:`DEFAULT_PROGRESS_INTERVAL`.  Progress requires an
            enabled observer.

    Returns:
        An :class:`ExplorationResult` whose candidates are the pruned
        front-reachable set, with ``meeting_target`` counting every
        point that met the target and ``metrics`` recording throughput,
        chunk timings and the peak candidate-set size.

    Raises:
        TypeError: *model* is not an ``RpStacksModel``.
        ValueError: *chunk_size* is below 1, or the space's default
            costs overflow or its cycles pass ``2 ** 51``.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be at least 1")
    if not isinstance(model, RpStacksModel):
        raise TypeError(
            f"sweep_space prices an RpStacksModel, not "
            f"{type(model).__name__}; price it with Explorer.explore"
        )
    obs = obs if obs is not None else get_observer()
    total = space.num_points
    start = clock.perf_seconds()
    with obs.span("sweep.run", points=total, chunk_size=chunk_size) as run:
        with obs.span("sweep.restrict", stacks=model.num_paths) as span:
            priced_model = model.restricted(*space.bounds())
            span.set(stacks_priced=priced_model.num_paths)
        obs.gauge("sweep.stacks_priced").set(priced_model.num_paths)
        state = _sweep_chunks(
            priced_model, space, chunk_size, target_cpi, obs,
            progress_interval,
        )
        run.set(block_size=state["block_size"])
    elapsed = clock.perf_seconds() - start

    candidates = [
        Candidate(
            latency=space.point_at(int(index)),
            predicted_cpi=float(cpi),
            cost=float(cost),
        )
        for index, cpi, cost in zip(
            state["indices"], state["cpis"], state["costs"]
        )
    ]
    metrics = SweepMetrics.from_chunk_seconds(
        state["chunk_seconds"],
        num_points=total,
        total_seconds=elapsed,
        chunk_size=chunk_size,
        peak_candidates=state["peak"],
    )
    # The chunk loop counted sweep.points and sweep.chunk_seconds; the
    # run's totals land beside them.
    obs.counter("sweep.meeting_target").inc(state["meeting"])
    obs.counter("sweep.blocks").inc(state["blocks"])
    obs.counter("sweep.blocks_summed").inc(state["summed"])
    obs.gauge("sweep.peak_candidates").set(state["peak"])
    obs.gauge("sweep.points_per_sec").set(metrics.points_per_second)
    obs.gauge("prune.survivors").set(len(candidates))
    return ExplorationResult(
        candidates=candidates,
        num_points=total,
        target_cpi=target_cpi,
        meeting_target=state["meeting"],
        metrics=metrics,
    )
