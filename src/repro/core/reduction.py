"""Path reduction: merging, dominance elimination, uniqueness (§III-C).

Applied at every converging dependence-graph node, reduction keeps the
per-node path population small without losing any path that could become
critical under some latency configuration:

* **dominance elimination** — a stack whose every component is ≤ another
  stack's can never out-price it under non-negative latencies, so it is
  dropped (sound, never costs accuracy);
* **similarity merging** — stacks whose modified cosine similarity
  exceeds the threshold are merged, keeping the one with the larger
  baseline penalty (lossy; the threshold trades speed for accuracy,
  swept in the Fig 14 bench);
* **uniqueness preservation** — a stack owning an event dimension that no
  other stack has is exempt from merging, so every event that *could* be
  made a bottleneck keeps a witness path (the paper shows accuracy
  collapses without this).

The reducer also enforces a hard population cap as a safety valve; the
baseline-maximum stack is always retained, which preserves the invariant
that RpStacks' prediction at the baseline configuration equals the exact
critical-path length.

Two entry points share the same semantics:

* :func:`reduce_stacks` takes an arbitrary candidate matrix (duplicates,
  any order) and is the public reducer;
* :func:`reduce_blocks` is the traversal fast path.  Candidate
  populations at a converging node are concatenations of per-predecessor
  *blocks*, and each block is a previous reduction's output shifted by a
  constant edge charge — already duplicate-free, internally
  dominance-free and sorted by descending baseline penalty.  Constant
  shifts preserve all three properties, so duplicate and dominance
  elimination only ever fire *across* blocks; :func:`reduce_blocks`
  checks exactly those pairs and skips the per-row hashing pass
  entirely.  Its output is bit-identical to
  ``reduce_stacks(np.vstack(blocks))`` (pinned by differential tests).

:func:`reduce_stacks_reference` preserves the original single-shot
implementation (full similarity matrix, per-row duplicate hashing) as
the oracle for differential tests and the baseline for
``benchmarks/bench_generate.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.common.events import EventType
from repro.core.similarity import _ScratchArena, rect_modified_cosine_into

#: Scratch buffers for the cover/beat matrices of the traversal fast
#: path.  Distinct from the similarity kernel's arena tags, so a
#: reduction step can hold cover views across a kernel call.
_ARENA = _ScratchArena()

def _cross_block_mask(block_sizes: Sequence[int], count: int) -> np.ndarray:
    """(count, count) bool: True where rows come from different blocks.

    Built directly into a scratch buffer — block-size tuples rarely
    repeat across nodes (memoising them misses ~95% of the time), so a
    flat fill plus one diagonal-block clear per predecessor is cheaper
    than materialising block-id vectors.
    """
    mask = _ARENA.take("cross", (count, count), dtype=bool)
    mask[:] = True
    offset = 0
    for size in block_sizes:
        mask[offset : offset + size, offset : offset + size] = False
        offset += size
    return mask

@dataclass(frozen=True)
class ReductionPolicy:
    """Tunables of the per-node path reduction.

    Attributes:
        similarity_threshold: merge stacks whose modified cosine
            similarity exceeds this (paper default 0.7).
        max_paths: hard cap on stacks kept per node.
        preserve_unique: exempt stacks with a unique event dimension from
            merging (the paper's uniqueness rule; disabling it reproduces
            the accuracy collapse of Fig 14).
        include_base_in_similarity: compare the BASE dimension too when
            computing similarity.  Off by default (stall-only vectors
            separate rare-event paths on their own); turning it on makes
            the shared pipeline backbone inflate similarity — the regime
            where the uniqueness rule carries first-order weight, which
            is the likely reading of the paper's Fig 14.
    """

    similarity_threshold: float = 0.7
    max_paths: int = 32
    preserve_unique: bool = True
    include_base_in_similarity: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.similarity_threshold <= 1.0:
            raise ValueError("similarity_threshold must be in [0, 1]")
        if self.max_paths < 1:
            raise ValueError("max_paths must be at least 1")


def _drop_duplicates(stacks: np.ndarray) -> np.ndarray:
    """Remove exact duplicate rows, keeping first occurrences in order."""
    seen = set()
    keep = []
    for i in range(stacks.shape[0]):
        key = stacks[i].tobytes()
        if key not in seen:
            seen.add(key)
            keep.append(i)
    if len(keep) == stacks.shape[0]:
        return stacks
    return stacks[keep]


def unique_dimension_mask(stacks: np.ndarray) -> np.ndarray:
    """Rows owning an event dimension no other row has (k-vector of bool)."""
    count, dims = stacks.shape
    positive = _ARENA.take("udm_positive", (count, dims), dtype=bool)
    np.greater(stacks, 0, out=positive)
    support = _ARENA.take("udm_support", (dims,), dtype=np.int64)
    positive.sum(axis=0, out=support)
    lone = _ARENA.take("udm_lone", (dims,), dtype=bool)
    np.equal(support, 1, out=lone)
    positive &= lone
    return positive.any(axis=1)


def _greedy_merge(
    sim_rows: np.ndarray,
    unique_mask: np.ndarray,
    threshold: float,
) -> Tuple[List[int], List[bool]]:
    """Greedy similarity absorption in descending-penalty order.

    A candidate is absorbed by the first kept mergeable stack it
    resembles; the kept stack has the larger baseline penalty, which is
    exactly the paper's keep-the-larger rule.  Unique rows are kept but
    never absorb anything.

    Per-pair similarity values come from the same kernel the historical
    implementation used, so the absorption decisions are bit-identical
    to indexing a ``pairwise_modified_cosine`` matrix row-by-row.

    Returns:
        ``(kept_indices, kept_unique)`` — surviving row indices in
        order, and whether each survived via the uniqueness rule.
    """
    count = sim_rows.shape[0]
    over = _ARENA.take("over", (count, count), dtype=bool)
    np.greater(
        rect_modified_cosine_into(sim_rows, sim_rows), threshold, out=over
    )
    unique = unique_mask.tolist()
    kept_indices: List[int] = []
    kept_unique: List[bool] = []
    # Each row's over-threshold set packs into one Python int, so the
    # absorption loop is pure integer bit work: row i is blocked when
    # some kept mergeable row j < i had bit i set (the kernel is bitwise
    # symmetric, so j's row speaks for the pair).
    row_bytes = over.shape[1] + 7 >> 3
    packed = np.packbits(over, axis=1, bitorder="little").tobytes()
    blocked = 0
    for i in range(count):
        if unique[i]:
            kept_indices.append(i)
            kept_unique.append(True)
            continue
        if blocked >> i & 1:
            continue  # absorbed by a larger, similar path
        kept_indices.append(i)
        kept_unique.append(False)
        start = i * row_bytes
        blocked |= int.from_bytes(
            packed[start : start + row_bytes], "little"
        )
    return kept_indices, kept_unique


def _finish_reduction(
    stacks: np.ndarray,
    policy: ReductionPolicy,
) -> np.ndarray:
    """Similarity merge + cap on a duplicate- and dominance-free
    population already sorted by descending baseline penalty."""
    count = stacks.shape[0]
    if count == 1:
        return stacks

    unique_mask = (
        unique_dimension_mask(stacks)
        if policy.preserve_unique
        else np.zeros(count, dtype=bool)
    )

    # By default similarity compares only the *stall-event* dimensions
    # (Fig 9's penalty vectors): the BASE backbone is common to every
    # path through the same program region and would otherwise make
    # genuinely different paths look alike.
    if policy.include_base_in_similarity:
        sim_rows = stacks
    else:
        sim_rows = stacks[:, EventType.BASE + 1 :]
    kept_indices, kept_unique = _greedy_merge(
        sim_rows, unique_mask, policy.similarity_threshold
    )

    reduced = stacks[kept_indices]
    if reduced.shape[0] > policy.max_paths:
        # Cap (bounded-memory safety valve): the baseline-maximum row and
        # unique rows take priority, then the largest remaining paths.
        priority = sorted(
            range(reduced.shape[0]),
            key=lambda j: (j != 0, not kept_unique[j], j),
        )
        chosen = sorted(priority[: policy.max_paths])
        reduced = reduced[chosen]
    return reduced


def reduce_stacks(
    stacks: np.ndarray,
    base_theta: np.ndarray,
    policy: ReductionPolicy,
) -> np.ndarray:
    """Reduce a candidate stack population to its representatives.

    Args:
        stacks: (k, NUM_EVENTS) candidate unit vectors.
        base_theta: baseline latency pricing vector (decides which of two
            merged paths is "larger" and orders the population).
        policy: reduction tunables.

    Returns:
        (k', NUM_EVENTS) reduced population, sorted by descending
        baseline penalty; row 0 is always the baseline-maximum stack.
    """
    if stacks.ndim != 2:
        raise ValueError("stacks must be a 2-D array")
    if stacks.shape[0] <= 1:
        return stacks
    if stacks.shape[0] == 2:
        # Two-candidate fast path: the overwhelmingly common case at
        # converging pipeline nodes, worth skipping the matrix machinery
        # for.  Semantics identical to the general path below.
        return _reduce_pair(stacks, base_theta, policy)

    stacks = _drop_duplicates(stacks)
    count = stacks.shape[0]
    if count == 1:
        return stacks

    penalties = stacks @ base_theta
    order = np.argsort(-penalties, kind="stable")
    stacks = stacks[order]

    # Dominance: row i is dropped if some earlier (>= penalty) row is >=
    # element-wise.  Duplicates are gone, so domination is never mutual
    # under a strictly positive pricing vector.
    covers = (stacks[:, None, :] >= stacks[None, :, :]).all(axis=2)
    earlier = np.tri(count, count, -1, dtype=bool).T  # earlier[j, i]: j < i
    dominated = (covers & earlier).any(axis=0)
    stacks = stacks[~dominated]
    return _finish_reduction(stacks, policy)


def reduce_blocks(
    stacks: np.ndarray,
    block_sizes: Sequence[int],
    base_theta: np.ndarray,
    policy: ReductionPolicy,
) -> np.ndarray:
    """Traversal fast path: reduce a concatenation of reduced blocks.

    *stacks* is the row-wise concatenation of per-predecessor blocks of
    ``block_sizes[i]`` rows each.  Every block must itself be a
    reduction output shifted by a constant (possibly zero) charge —
    duplicate-free, internally dominance-free and sorted by descending
    baseline penalty.  Under that invariant a row can only be eliminated
    by a row of *another* block, which this function checks in one
    vectorised pass instead of re-hashing and re-sorting the whole
    population.

    The elimination rule mirrors the sequential semantics of
    :func:`reduce_stacks` exactly: row ``q`` beats row ``r`` when ``q``
    covers ``r`` element-wise and either has the strictly larger
    baseline penalty or ties it from an earlier concatenation position
    (duplicate elimination is the equal-rows special case).  Survivors
    are then stable-sorted by descending penalty and finished with the
    shared similarity-merge/cap stage, so the result is bit-identical to
    ``reduce_stacks(stacks, ...)``.
    """
    count, dims = stacks.shape
    if count <= 1:
        return stacks
    if count == 2:
        return _reduce_pair(stacks, base_theta, policy)

    penalties = stacks @ base_theta

    # Sorted position encodes the full elimination precedence: q beats r
    # only if q sorts before r, i.e. q's penalty is strictly larger or
    # ties it from an earlier concatenation position (the stable sort's
    # tiebreak) — the same precedence the sequential dedup + stable
    # argsort establishes.
    order = np.argsort(-penalties, kind="stable")
    position = _ARENA.take("position", (count,), dtype=np.int64)
    position[order] = np.arange(count, dtype=np.int64)

    # Cover/beat matrices live in scratch buffers: this runs at every
    # converging node, and the allocations otherwise dominate the walk.
    elementwise = _ARENA.take("elementwise", (count, count, dims), dtype=bool)
    np.greater_equal(stacks[:, None, :], stacks[None, :, :], out=elementwise)
    # "covers" = all dims hold; counting set dims through a uint8 einsum
    # is ~3x cheaper than np.all's axis reduction (dims < 256, so the
    # count cannot wrap).
    cover_counts = _ARENA.take("cover_counts", (count, count), dtype=np.uint8)
    np.einsum("pqd->pq", elementwise.view(np.uint8), out=cover_counts)
    beats = _ARENA.take("beats", (count, count), dtype=bool)
    np.equal(cover_counts, dims, out=beats)
    beats &= _cross_block_mask(block_sizes, count)
    mask = _ARENA.take("mask", (count, count), dtype=bool)
    np.less(position[:, None], position[None, :], out=mask)
    beats &= mask
    dropped = beats.any(axis=0)
    # Survivors in sorted order: filter the sort permutation itself.
    chosen = order[~dropped[order]]
    if chosen.size == 1:
        return stacks[chosen]
    return _finish_reduction(stacks[chosen], policy)


def _pairwise_modified_cosine_seed(stacks: np.ndarray) -> np.ndarray:
    """Seed-era pairwise similarity kernel, kept verbatim.

    This is the allocation-heavy implementation the original serial
    generator shipped with; :func:`reduce_stacks_reference` uses it so
    that the benchmark baseline keeps the true pre-optimisation cost.
    It is bit-identical to ``rect_modified_cosine_into(s, s)`` on
    non-negative inputs (pinned by a differential fuzz test): both sum
    the 13 products left-to-right and divide by the same safe
    denominators, so every float matches.
    """
    a = stacks[:, None, :]
    b = stacks[None, :, :]
    scale = np.maximum(a, b)
    safe = np.where(scale > 0, scale, 1.0)
    a_norm = a / safe
    b_norm = b / safe
    dots = (a_norm * b_norm).sum(axis=-1)
    norms_a = np.sqrt((a_norm * a_norm).sum(axis=-1))
    norms_b = np.sqrt((b_norm * b_norm).sum(axis=-1))
    denom = norms_a * norms_b
    sims = np.divide(
        dots, np.where(denom > 0, denom, 1.0), where=denom > 0,
        out=np.zeros_like(dots),
    )
    # Two all-zero stacks are identical by convention.
    all_zero = ~(scale > 0).any(axis=-1)
    sims[all_zero] = 1.0
    return np.clip(sims, 0.0, 1.0)


def reduce_stacks_reference(
    stacks: np.ndarray,
    base_theta: np.ndarray,
    policy: ReductionPolicy,
) -> np.ndarray:
    """Original single-shot reducer, kept verbatim as the test oracle.

    Computes the full pairwise similarity matrix up front and hashes
    every row for duplicate elimination — the behaviour (and cost)
    shipped before the block-wise fast path existed.  Differential tests
    assert :func:`reduce_stacks` and :func:`reduce_blocks` reproduce its
    output bit-for-bit; ``benchmarks/bench_generate.py`` uses it as the
    speedup baseline.
    """
    if stacks.ndim != 2:
        raise ValueError("stacks must be a 2-D array")
    if stacks.shape[0] <= 1:
        return stacks
    if stacks.shape[0] == 2:
        return _reduce_pair(stacks, base_theta, policy)

    stacks = _drop_duplicates(stacks)
    count = stacks.shape[0]
    if count == 1:
        return stacks

    penalties = stacks @ base_theta
    order = np.argsort(-penalties, kind="stable")
    stacks = stacks[order]

    covers = (stacks[:, None, :] >= stacks[None, :, :]).all(axis=2)
    earlier = np.tri(count, count, -1, dtype=bool).T
    dominated = (covers & earlier).any(axis=0)
    stacks = stacks[~dominated]
    count = stacks.shape[0]
    if count == 1:
        return stacks

    unique_mask = (
        unique_dimension_mask(stacks)
        if policy.preserve_unique
        else np.zeros(count, dtype=bool)
    )

    if policy.include_base_in_similarity:
        sims = _pairwise_modified_cosine_seed(stacks)
    else:
        sims = _pairwise_modified_cosine_seed(stacks[:, EventType.BASE + 1 :])
    threshold = policy.similarity_threshold
    kept_indices = [0]
    kept_mergeable = [] if unique_mask[0] else [0]
    kept_unique = [bool(unique_mask[0])]
    for i in range(1, count):
        if unique_mask[i]:
            kept_indices.append(i)
            kept_unique.append(True)
            continue
        if kept_mergeable and (sims[i, kept_mergeable] > threshold).any():
            continue
        kept_indices.append(i)
        kept_mergeable.append(i)
        kept_unique.append(False)

    reduced = stacks[kept_indices]
    if reduced.shape[0] > policy.max_paths:
        priority = sorted(
            range(reduced.shape[0]),
            key=lambda j: (j != 0, not kept_unique[j], j),
        )
        chosen = sorted(priority[: policy.max_paths])
        reduced = reduced[chosen]
    return reduced


def _reduce_pair(
    stacks: np.ndarray,
    base_theta: np.ndarray,
    policy: ReductionPolicy,
) -> np.ndarray:
    """reduce_stacks specialised to exactly two candidates."""
    first, second = stacks[0], stacks[1]
    penalty_first = float(first @ base_theta)
    penalty_second = float(second @ base_theta)
    if penalty_second > penalty_first:
        first, second = second, first
        penalty_first, penalty_second = penalty_second, penalty_first
    if (second == first).all():
        return first[None, :]
    if (second <= first).all():
        return first[None, :]  # dominated
    # Cap parity with the general path: with max_paths == 1 only the
    # baseline-maximum row survives, whatever the uniqueness or
    # similarity verdict (the general path's cap priority always ranks
    # row 0 first).
    keep_both = (
        np.stack([first, second])
        if policy.max_paths >= 2
        else first[None, :]
    )
    if policy.preserve_unique:
        first_positive = first > 0
        second_positive = second > 0
        # A unique stack neither absorbs nor is absorbed: if either row
        # owns a dimension the other lacks, no merge can happen.
        if (second_positive & ~first_positive).any() or (
            first_positive & ~second_positive
        ).any():
            return keep_both
    if policy.include_base_in_similarity:
        a, b = first, second
    else:
        a, b = first[EventType.BASE + 1 :], second[EventType.BASE + 1 :]
    from repro.core.similarity import modified_cosine

    if modified_cosine(a, b) > policy.similarity_threshold:
        return first[None, :]  # merged, keeping the larger
    return keep_both
