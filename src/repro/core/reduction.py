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

:func:`reduce_stacks` is the one Python implementation and the spec:
the reducer inside the compiled segment walk (:mod:`repro.core.native`)
is differential-tested against it, both per reduction and end to end.
The spec walk, which runs when that kernel does not load, calls it at
every converging node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.common.events import EventType
from repro.core.similarity import pairwise_modified_cosine


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
    positive = stacks > 0
    lone = positive.sum(axis=0) == 1
    return (positive & lone).any(axis=1)


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
        For two or more candidates it is a new array, never a view of
        *stacks*.
    """
    if stacks.ndim != 2:
        raise ValueError("stacks must be a 2-D array")
    if stacks.shape[0] <= 1:
        return stacks

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
    sim_lo = 0 if policy.include_base_in_similarity else EventType.BASE + 1
    sims = pairwise_modified_cosine(stacks[:, sim_lo:])

    # Greedy absorption in descending-penalty order: a row is absorbed by
    # the first kept mergeable row it resembles, which has the larger
    # baseline penalty (the paper's keep-the-larger rule).  Unique rows
    # are kept but never absorb anything.
    threshold = policy.similarity_threshold
    kept: List[int] = []
    mergeable: List[int] = []
    for i in range(count):
        if not unique_mask[i]:
            if mergeable and (sims[i, mergeable] > threshold).any():
                continue
            mergeable.append(i)
        kept.append(i)

    reduced = stacks[kept]
    if reduced.shape[0] > policy.max_paths:
        # Cap (bounded-memory safety valve): the baseline-maximum row and
        # unique rows take priority, then the largest remaining paths.
        priority = sorted(
            range(reduced.shape[0]),
            key=lambda j: (j != 0, not unique_mask[kept[j]], j),
        )
        chosen = sorted(priority[: policy.max_paths])
        reduced = reduced[chosen]
    return reduced
