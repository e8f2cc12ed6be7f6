"""Modified cosine similarity between stall-event stacks (Fig 9).

Plain cosine similarity over penalty vectors would let large-magnitude
dimensions (e.g. a 133-cycle memory component) drown out small ones.  The
paper therefore normalises each dimension by the larger of the two
vectors' components before taking the cosine, giving every event kind
equal say in whether two paths are "the same kind of path".

Similarity ranges over [0, 1]: 1 for parallel (after normalisation)
vectors, 0 for orthogonal ones.  By convention two all-zero stacks are
identical (similarity 1) and a zero stack is orthogonal to any non-zero
stack (similarity 0).

Every public entry point — scalar, row-vs-set and full-matrix — routes
through one rectangular kernel, so the three historically separate
implementations can no longer drift apart (they used to disagree in the
last ulp because ``np.linalg.norm`` (BLAS) and ``(x * x).sum()``
(pairwise summation) round differently; a threshold comparison sitting
exactly on the boundary would then depend on which caller asked).
Inputs must be non-negative (stacks are unit counts by construction).
"""

from __future__ import annotations

import numpy as np


def rect_modified_cosine(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Modified-cosine similarities of every *left* row vs every *right*
    row, as a ``(p, q)`` matrix in [0, 1].

    Entry ``[i, j]`` equals ``modified_cosine(left[i], right[j])``
    exactly — same floats, not just approximately.  The kernel is
    symmetric: swapping operands transposes the result bit-for-bit,
    because every elementwise step commutes and the contractions run
    over the same values in the same order either way.
    """
    # Dimension-major layout, (d, p, q), over the dimensions some row
    # uses: where every row is zero a term is exactly +0.0, which leaves
    # the (non-negative) sums below unchanged.
    used = left.any(axis=0) | right.any(axis=0)
    a = left.T[used, :, None]
    b = right.T[used, None, :]

    # scale == 0 only where both components are 0; dividing by 1 there
    # gives the wanted 0 contribution exactly, without the massive
    # FP-assist stalls that a subnormal sentinel divisor would trigger
    # (stall vectors are mostly zeros, so zero dims are the common case).
    scale = np.maximum(a, b)
    scale += scale == 0.0
    left_norm = a / scale
    right_norm = b / scale

    # Index-order sums, so every build rounds alike and the compiled
    # reducer (repro.core.native) matches them bit for bit: einsum and
    # BLAS split a contraction into SIMD partial sums, whose rounding
    # depends on the build and can move a similarity across the merge
    # threshold.
    shape = (left.shape[0], right.shape[0])
    sims = np.zeros(shape)
    norms = np.zeros(shape)
    denom = np.zeros(shape)
    for x, y in zip(left_norm, right_norm):
        sims += x * y
        norms += x * x
        denom += y * y
    denom = np.sqrt(norms * denom)
    # A zero norm means a zero row: the dot is 0 too, and 0/1 = 0 is
    # exactly the zero-vs-nonzero convention.
    denom += denom == 0.0
    sims /= denom

    # Two all-zero stacks are identical by convention.
    sims[~(left.any(axis=1)[:, None] | right.any(axis=1)[None, :])] = 1.0
    # Guard against floating-point drift above 1 (inputs are
    # non-negative, so drift below 0 cannot happen).
    return np.minimum(sims, 1.0, out=sims)


def modified_cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Per-dimension max-normalised cosine similarity of two stacks."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(rect_modified_cosine(a[None, :], b[None, :])[0, 0])


def pairwise_modified_cosine(stacks: np.ndarray) -> np.ndarray:
    """Full (k x k) modified-cosine similarity matrix of a population.

    Used by the spec reducer: one vectorised computation replaces
    per-candidate comparisons.  Semantics match :func:`modified_cosine`
    pairwise; the matrix is symmetric with a unit diagonal.
    """
    stacks = np.asarray(stacks, dtype=np.float64)
    if stacks.ndim != 2:
        raise ValueError("stacks must be a 2-D array")
    return rect_modified_cosine(stacks, stacks)


def similarity_to_set(candidate: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """Similarities of *candidate* against every row of *kept* (k x D).

    Vectorised version of :func:`modified_cosine`; semantics match the
    scalar function row-by-row.
    """
    candidate = np.asarray(candidate, dtype=np.float64)
    kept = np.asarray(kept, dtype=np.float64)
    if kept.ndim != 2 or kept.shape[1] != candidate.shape[0]:
        raise ValueError(f"kept must be (k, {candidate.shape[0]})")
    if kept.shape[0] == 0:
        return np.zeros(0)
    return rect_modified_cosine(candidate[None, :], kept)[0]
