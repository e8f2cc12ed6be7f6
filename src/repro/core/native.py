"""Optional C fast paths: the segment walk (§IV-D), its reduction, and
the whole-graph longest path.

The segment walk visits every graph node and reduces at every converging
node — tens of thousands of times per workload — on populations of a few
dozen rows.  At that size a Python walk is bounded by interpreter and
ufunc dispatch overhead, not arithmetic.  This module compiles (once,
cached) a small C kernel that walks one whole
:class:`~repro.graphmodel.graph.SegmentView` in a single call:

* Kahn topological order over the view's CSR arrays, failing on a cycle
  exactly like :meth:`SegmentView.topological_order`;
* per-node stack sets in one offset arena, each row with its carried
  facts (below): segment entries share one zero row, a node with one
  uncharged predecessor shares that predecessor's rows, and one with a
  single charged predecessor gets a shifted copy of them;
* at each converging node, block assembly and one full reduction — a
  merge of the blocks by baseline penalty, cross-block dominance,
  uniqueness marking, lazy greedy similarity merge and the population
  cap.

The reduction relies on two invariants of the walk:

* **rows are non-negative** (:class:`DependenceGraph` rejects a negative
  unit count), so a row ``q`` can cover ``r`` only if ``r``'s support
  is a subset of ``q``'s, and a dimension where two rows are both zero
  adds exactly ``+0.0`` to every similarity accumulator;
* **each block is a reduced set shifted by a constant**: a converging
  node's candidates concatenate per-predecessor blocks, each a previous
  reduction's output (or the zero row) plus a constant edge charge —
  already duplicate-free, internally dominance-free and sorted by
  descending baseline penalty.  A constant shift preserves all three
  properties, so duplicate and dominance elimination only ever fire
  *across* blocks, and the kernel checks exactly those pairs.  Row ``q``
  beats row ``r`` when ``q`` covers ``r`` element-wise and sorts before
  it (strictly larger penalty, or a tie from an earlier concatenation
  position); duplicate elimination is the equal-rows special case.

Decisions are bit-identical to the spec walk
(:func:`repro.core.generator._walk_segment` over
:func:`~repro.core.reduction.reduce_stacks`):

* penalties are integer-valued (unit counts priced by integer cycle
  latencies), so summation order cannot change them;
* similarity accumulates dimension-by-dimension in index order, exactly
  like the ``einsum`` contractions in
  :func:`repro.core.similarity.rect_modified_cosine`, skipping only the
  ``+0.0`` terms, and applies the same guards in the same order
  (compiled with ``-ffp-contract=off`` so no FMA contraction can alter
  rounding); where one row holds a dimension's maximum, ``x / x`` is
  exactly ``1.0``, so one division per dimension suffices;
* the block merge (below) gives the stable argsort's order, and the
  greedy merge's and the cap's tie-breaks replicate the spec's priority
  rules verbatim.

A reduction never re-derives what its blocks already settle:

* **carried facts.**  Beside its values, every arena row carries its
  baseline penalty, its support bitmask and a merge-tested bit, set
  when the row was a non-unique keeper of the reduction that produced
  it (kept by the merge, not by the uniqueness rule) and no shift since
  then has touched a similarity dimension.  A shift by edge charge
  ``c`` adds ``c``'s penalty to the penalty, which is exact because
  penalties are integer-valued; ORs ``c``'s support into the support,
  which holds because rows and charges are non-negative, so
  ``x + c > 0`` exactly where ``x > 0`` or ``c > 0``; and clears the bit
  unless ``c`` is zero on every similarity dimension.  Under
  ``include_base_in_similarity`` those include BASE, so a row keeps the
  bit only across charges that are zero on BASE too.  The entry set's
  zero row has penalty 0, support 0 and no bit.
* **block merge.**  Every block is sorted by descending penalty, ties
  in stable order, and a constant shift keeps that order, so the kernel
  merges the blocks (the highest head penalty first, ties to the
  earlier block) instead of sorting their concatenation: exactly the
  order a stable argsort of the concatenation gives.

Most pairs the reduction looks at have an outcome known before any
arithmetic, and four skips leave that work out without changing any
decision or any computed float:

* **pair lists.**  Cross-block dominance and the greedy merge each list
  the pairs still undecided in one branch-free pass (dominance: the
  later row not dropped, in another block, its support a subset of the
  earlier row's and its first dimension no larger; merge: not excluded
  by the skips below), then run the unchanged cover test or similarity
  over that list, with the same early exits.  A cover test only ever
  drops its own pair's later row, so a list made before the first test
  holds exactly the pairs the plain loop would test, and the outcome is
  the same.
* **the support bound.**  Let A and B be two rows' supports over the
  similarity dimensions and k = |A∩B|.  Every max-normalised component
  is at most 1, and exactly 1 on A∖B and B∖A, so the squared norms are
  u + |A∖B| and v + |B∖A|, where u and v, each at most k, are the
  squared norms over A∩B.  Cauchy–Schwarz bounds the dot by √(u·v), so
  the squared modified cosine is at most u/(u + |A∖B|) · v/(v + |B∖A|)
  ≤ k/|A| · k/|B|: the modified cosine never exceeds the support cosine
  k/√(|A|·|B|).  The merge therefore skips a pair with
  k² ≤ (τ − 10⁻⁹)²·|A|·|B|: its computed similarity cannot exceed τ,
  because the 10⁻⁹ margin dwarfs the rounding of the similarity (about
  10⁻¹⁴ relative, over at most 64 dimensions) and of the bound itself.
  A pair whose support union is empty (similarity 1.0 by convention)
  is never skipped, nor is any pair when τ ≤ 10⁻⁹.  Each kept mergeable
  row's support and popcount are stored when it is kept, so the bound
  costs a few integer operations per pair.
* **the first dimension.**  Row ``q`` covers ``r`` only if
  ``r[0] <= q[0]``, so the dominance listing also requires that, read
  from a sorted-position copy of column 0, and the cover test then
  skips dimension 0.  A row that covers another passes this test, so
  no outcome changes; dimension 0 (BASE) is the one most cover tests
  used to fail on, and the first each test read.
* **pairs already compared.**  The merge skips a pair of rows from one
  block that both carry the merge-tested bit.  Their values and
  supports on the similarity dimensions are the ones their common
  source reduction saw, and there the merge kept both, the later after
  testing it against the earlier (a block keeps its source's order).
  So their similarity was evaluated, or excluded by the support bound,
  and did not exceed τ, and the same arithmetic on the same values
  gives the same float now.  The
  pairs left are evaluated newest kept row first: a row is absorbed if
  any of its pairs exceeds τ, so the order cannot change the outcome,
  but a blocker is found sooner.

A reduce-level differential fuzz test (including populations whose
support cosines sit just below, on and just above τ, and blocks that
carry the kernel's own merge-tested bits through shifts that do and do
not touch the similarity dimensions) and whole-model digest comparisons
pin the equivalence.

The same library holds ``repro_longest_path``
(:meth:`NativeWalk.longest_path`), the compiled form of
:meth:`DependenceGraph._relax
<repro.graphmodel.graph.DependenceGraph._relax>` that CP1, per-design
graph re-evaluation and the criticality toolkit run on.  It builds its
own Kahn order from the in-edge CSR (a cycle raises
:class:`~repro.graphmodel.graph.GraphBuildError`) and relaxes each node
as it is dequeued: start at 0.0, then take an in-edge, in CSR order,
only when it is strictly longer.  A node's distance and parent depend
only on its predecessors' distances and its in-edge order, so any
topological order gives the spec's values bit for bit.

Everything degrades gracefully: no compiler, a failed build, or
``REPRO_NATIVE=0`` all fall back to the spec walk and the spec relax
(set ``REPRO_NATIVE=1`` to make a missing native build an error
instead).
The compiled library is cached under the system temp directory keyed by
source hash, so later processes just ``dlopen`` it.  The C walk keeps
every buffer per call and has no global mutable state, and ctypes
releases the interpreter lock for each call, so concurrent
:meth:`NativeWalk.walk_segment` calls are safe and run in parallel: the
generator walks segments on threads at ``jobs > 1``.

The build/cache/gate machinery (:func:`native_mode`,
:func:`compile_shared_library`, :func:`load_gated`) is generic and
shared with the compiled simulator (:mod:`repro.simulator.native`).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import sys
import tempfile
import threading
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

import numpy as np

from repro.common.events import NUM_EVENTS, EventType

if TYPE_CHECKING:  # the graph model imports the simulator, which imports us
    from repro.core.reduction import ReductionPolicy
    from repro.graphmodel.graph import SegmentView

_C_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define REPRO_ENOMEM (-1)
#define REPRO_ECYCLE (-2)
#define REPRO_EINPUT (-3)

/* Modified cosine similarity of two stack rows over the dimensions in
 * `mask`: the union of both rows' supports within [sim_lo, dims).
 * Mirrors rect_modified_cosine bit-for-bit: per-dimension max
 * normalisation, sequential in-order accumulation of dot and squared
 * norms, product-then-sqrt denominator with the zero guard, the
 * all-zero convention, and the final clamp to 1.0.  A dimension where
 * both rows are zero would add exactly +0.0 to each (non-negative)
 * accumulator, so it is skipped.  The row holding a dimension's
 * maximum normalises to x / x == 1.0 exactly, so with r = min / max the
 * terms are r (the product), 1.0 and r * r: one division per dimension
 * and no data-dependent branch. */
static double sim_pair(const double *a, const double *b, uint64_t mask) {
    if (!mask) return 1.0;
    double dot = 0.0, na = 0.0, nb = 0.0;
    for (; mask; mask &= mask - 1) {
        int i = __builtin_ctzll(mask);
        double x = a[i], y = b[i];
        int a_lower = x < y;
        double r = (a_lower ? x : y) / (a_lower ? y : x);
        double rr = r * r;
        dot += r;
        na += a_lower ? rr : 1.0;
        nb += a_lower ? 1.0 : rr;
    }
    double den = sqrt(na * nb);
    if (den == 0.0) den = 1.0;
    double sim = dot / den;
    return sim > 1.0 ? 1.0 : sim;
}

/* Set bits of x.  Portable and inline: without -mpopcnt,
 * __builtin_popcountll is a call into libgcc. */
static inline int popcount64(uint64_t x) {
    x -= (x >> 1) & 0x5555555555555555ULL;
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
    return (int)((x * 0x0101010101010101ULL) >> 56);
}

/* Bytes of reduction scratch for count rows in nblocks blocks. */
static size_t scratch_bytes(int64_t count, int64_t nblocks) {
    return (size_t)count * (2 * sizeof(uint64_t) + sizeof(double)
                            + 10 * sizeof(int32_t))
           + (size_t)nblocks * 2 * sizeof(int32_t);
}

/* One full converging-node reduction.
 *
 * stacks:      count x dims row-major candidate rows (concatenated
 *              per-predecessor blocks, each already reduced + shifted;
 *              every entry non-negative).
 * pen, supp:   each row's baseline penalty and support bitmask.
 * tested:      each row's merge-tested bit (module docstring).
 * block_sizes: rows per predecessor block (nblocks entries summing to
 *              count).
 * sim_mask:    dimensions similarity compares ([sim_lo, dims)).
 * scratch:     >= scratch_bytes(count, nblocks) bytes.
 * out_indices: >= count entries; receives the kept row indices (into
 *              the input order), output order.
 * out_tested:  >= count entries; receives each kept row's merge-tested
 *              bit: set when the merge kept it, not the uniqueness rule.
 * work:        work[0] += cover tests run, work[1] += similarities
 *              evaluated.
 * Returns the number of kept rows.
 */
static int32_t reduce_rows(
    const double *stacks, const double *pen, const uint64_t *supp,
    const uint8_t *tested, int32_t count, int32_t dims,
    const int32_t *block_sizes, int32_t nblocks, uint64_t sim_mask,
    double threshold, int32_t max_paths, int32_t preserve_unique,
    char *scratch, int32_t *out_indices, uint8_t *out_tested,
    int64_t *work)
{
    if (count <= 1) {
        for (int i = 0; i < count; i++) {
            out_indices[i] = i;
            out_tested[i] = 0;
        }
        return count;
    }
    uint64_t *ssupp = (uint64_t *)scratch;       /* by sorted position */
    uint64_t *msupp = ssupp + count;             /* by kept mergeable row */
    double *scol0 = (double *)(msupp + count);   /* by sorted position */
    int32_t *order = (int32_t *)(scol0 + count); /* sorted position -> row */
    int32_t *sblock = order + count;             /* by sorted position */
    int32_t *stag = sblock + count;              /* by sorted position */
    int32_t *dropped = stag + count;             /* by sorted position */
    int32_t *surv = dropped + count;             /* sorted positions */
    int32_t *uniq = surv + count;
    int32_t *kept = uniq + count;
    int32_t *mpop = kept + count;                /* popcounts of msupp */
    int32_t *mtag = mpop + count;                /* by kept mergeable row */
    int32_t *pairs = mtag + count;               /* undecided pairs */
    int32_t *next = pairs + count;               /* by block: next row */
    int32_t *end = next + nblocks;               /* by block: row past it */

    /* merge the blocks, each already in descending penalty order, by
     * descending penalty with ties to the earlier block: the stable
     * argsort's order.  A row's tag is its block when it carries the
     * merge-tested bit and -1 otherwise. */
    for (int b = 0, at = 0; b < nblocks; b++) {
        next[b] = at;
        at += block_sizes[b];
        end[b] = at;
    }
    for (int k = 0; k < count; k++) {
        int best = -1;
        for (int b = 0; b < nblocks; b++) {
            if (next[b] < end[b]
                && (best < 0 || pen[next[b]] > pen[next[best]]))
                best = b;
        }
        int r = next[best]++;
        order[k] = r;
        sblock[k] = best;
        stag[k] = tested[r] ? best : -1;
        ssupp[k] = supp[r];
        scol0[k] = stacks[(size_t)r * dims];
        dropped[k] = 0;
    }
    /* cross-block dominance in sorted order: an earlier row beats a
     * later one it covers element-wise.  Rows are non-negative, so q
     * covers r only if r's support is a subset of q's, and only r's
     * support needs comparing.  A dropped q is skipped: whatever it
     * covers, the earlier row that covers it covers too, and from
     * another block, since blocks are internally dominance-free.  For
     * one q, dropped[pj] changes only in r's own cover test, so the
     * pairs still undecided (r not dropped, another block, support
     * subset, r[0] <= q[0]) are listed in one branch-free pass before
     * any is tested, and the test skips dimension 0. */
    for (int pi = 0; pi < count; pi++) {
        if (dropped[pi]) continue;
        const double *qrow = stacks + (size_t)order[pi] * dims;
        uint64_t q_missing = ~ssupp[pi];
        double q0 = scol0[pi];
        int qb = sblock[pi];
        int npairs = 0;
        for (int pj = pi + 1; pj < count; pj++) {
            pairs[npairs] = pj;
            npairs += !dropped[pj] & (sblock[pj] != qb)
                      & ((ssupp[pj] & q_missing) == 0) & (scol0[pj] <= q0);
        }
        work[0] += npairs;
        for (int c = 0; c < npairs; c++) {
            int pj = pairs[c];
            const double *rrow = stacks + (size_t)order[pj] * dims;
            int covers = 1;
            for (uint64_t m = ssupp[pj] & ~(uint64_t)1; m; m &= m - 1) {
                int d = __builtin_ctzll(m);
                if (qrow[d] < rrow[d]) { covers = 0; break; }
            }
            dropped[pj] = covers;
        }
    }
    int n2 = 0;
    for (int k = 0; k < count; k++) {
        if (!dropped[k]) surv[n2++] = k;
    }
    if (n2 == 1) {
        out_indices[0] = order[surv[0]];
        out_tested[0] = 0;
        return 1;
    }
    /* uniqueness: a surviving row owning a dimension no other survivor
     * has (over ALL dims, matching unique_dimension_mask) */
    if (preserve_unique) {
        uint64_t once = 0, twice = 0;
        for (int i = 0; i < n2; i++) {
            uint64_t s = ssupp[surv[i]];
            twice |= once & s;
            once |= s;
        }
        uint64_t lone = once & ~twice;
        for (int i = 0; i < n2; i++) uniq[i] = (ssupp[surv[i]] & lone) != 0;
    } else {
        for (int i = 0; i < n2; i++) uniq[i] = 0;
    }
    /* greedy merge, lazy similarities: row i is absorbed if some kept
     * mergeable row before it is more similar than the threshold.  Two
     * kinds of pair cannot block and are never evaluated (module
     * docstring): one from the row's own block when both carry the
     * merge-tested bit (equal tags), and one with
     * |A & B|^2 <= (threshold - 1e-9)^2 |A| |B|, where A and B are the
     * two rows' supports within sim_mask, unless its union is empty
     * (similarity 1.0) or threshold <= 1e-9.  The rest are listed in one
     * branch-free pass, newest kept row first, then evaluated in that
     * order up to the first that blocks. */
    const int bounded = threshold > 1e-9;
    const double bound2 = (threshold - 1e-9) * (threshold - 1e-9);
    int nkept = 0, nmerge = 0;
    int32_t *kept_merge = out_indices; /* reuse as temp: sorted positions */
    for (int i = 0; i < n2; i++) {
        if (uniq[i]) {
            kept[nkept++] = i;
            continue;
        }
        int ri = surv[i];
        uint64_t a = ssupp[ri] & sim_mask;
        int pa = popcount64(a);
        int tag = stag[ri] >= 0 ? stag[ri] : -2; /* -2: equals no mtag */
        int npairs = 0;
        for (int m = nmerge - 1; m >= 0; m--) {
            uint64_t b = msupp[m];
            int both = popcount64(a & b);
            pairs[npairs] = m;
            npairs += (mtag[m] != tag)
                      & (!bounded | ((a | b) == 0)
                         | ((double)(both * both) > bound2 * (pa * mpop[m])));
        }
        const double *row = stacks + (size_t)order[ri] * dims;
        int blocked = 0;
        for (int c = 0; c < npairs; c++) {
            int m = pairs[c];
            const double *other = stacks + (size_t)order[kept_merge[m]] * dims;
            work[1]++;
            if (sim_pair(row, other, a | msupp[m]) > threshold) {
                blocked = 1;
                break;
            }
        }
        if (blocked) continue;
        kept_merge[nmerge] = ri;
        msupp[nmerge] = a;
        mpop[nmerge] = pa;
        mtag[nmerge++] = stag[ri];
        kept[nkept++] = i;
    }
    /* cap: row 0 first, then uniqueness witnesses, then index order —
     * selected set re-emitted in ascending kept order */
    if (nkept > max_paths) {
        int taken = 0;
        int32_t *chosen = kept_merge; /* reuse again */
        for (int j = 0; j < nkept && taken < max_paths; j++) {
            if (j == 0 || uniq[kept[j]]) chosen[taken++] = j;
        }
        for (int j = 1; j < nkept && taken < max_paths; j++) {
            if (!uniq[kept[j]]) chosen[taken++] = j;
        }
        /* chosen holds kept-positions; emit in ascending position */
        int32_t *mark = dropped; /* reuse: zeroed below */
        for (int j = 0; j < nkept; j++) mark[j] = 0;
        for (int t = 0; t < taken; t++) mark[chosen[t]] = 1;
        int outn = 0;
        for (int j = 0; j < nkept; j++) {
            if (!mark[j]) continue;
            out_indices[outn] = order[surv[kept[j]]];
            out_tested[outn++] = !uniq[kept[j]];
        }
        return outn;
    }
    for (int j = 0; j < nkept; j++) {
        out_indices[j] = order[surv[kept[j]]];
        out_tested[j] = !uniq[kept[j]];
    }
    return nkept;
}

static uint64_t similarity_mask(int32_t dims, int32_t sim_lo) {
    uint64_t all = dims == 64 ? ~(uint64_t)0 : ((uint64_t)1 << dims) - 1;
    return all & ~(((uint64_t)1 << sim_lo) - 1);
}

/* Baseline penalty and support bitmask of one row. */
static double row_penalty(const double *row, const double *theta,
                          int32_t dims) {
    double p = 0.0;
    for (int d = 0; d < dims; d++) p += row[d] * theta[d];
    return p;
}

static uint64_t row_support(const double *row, int32_t dims) {
    uint64_t s = 0;
    for (int d = 0; d < dims; d++) {
        if (row[d] > 0.0) s |= (uint64_t)1 << d;
    }
    return s;
}

/* One converging-node reduction on caller rows (the reduce-level entry
 * point the differential fuzz drives).  block_sizes holds nblocks
 * non-negative sizes summing to count; tested (NULL: no bit set) gives
 * each row's merge-tested bit and out_tested (NULL: not returned)
 * receives each kept row's.  Returns the number of kept rows (indices
 * in out_indices), or a negative REPRO_E* code. */
int32_t repro_reduce_node(
    const double *stacks, int32_t count, int32_t dims,
    const int32_t *block_sizes, int32_t nblocks, const double *theta,
    int32_t sim_lo, double threshold, int32_t max_paths,
    int32_t preserve_unique, const uint8_t *tested, int32_t *out_indices,
    uint8_t *out_tested)
{
    if (dims < 1 || dims > 64 || sim_lo < 0 || sim_lo > dims || count < 0
        || nblocks < 0)
        return REPRO_EINPUT;
    int64_t total = 0;
    for (int32_t b = 0; b < nblocks; b++) {
        if (block_sizes[b] < 0) return REPRO_EINPUT;
        total += block_sizes[b];
    }
    if (total != count) return REPRO_EINPUT;
    size_t rows = (size_t)count + 1;
    double *pen = malloc(rows * sizeof(double));
    uint64_t *supp = malloc(rows * sizeof(uint64_t));
    uint8_t *bits = calloc(2 * rows, 1); /* tested in, then out */
    char *scratch = malloc(scratch_bytes(count, nblocks) + 1);
    int32_t kept = REPRO_ENOMEM;
    if (pen && supp && bits && scratch) {
        for (int32_t i = 0; i < count; i++) {
            const double *row = stacks + (size_t)i * dims;
            pen[i] = row_penalty(row, theta, dims);
            supp[i] = row_support(row, dims);
        }
        if (tested) memcpy(bits, tested, (size_t)count);
        int64_t work[2] = {0, 0};
        kept = reduce_rows(
            stacks, pen, supp, bits, count, dims, block_sizes, nblocks,
            similarity_mask(dims, sim_lo), threshold, max_paths,
            preserve_unique, scratch, out_indices, bits + rows, work);
        if (out_tested) memcpy(out_tested, bits + rows, (size_t)kept);
    }
    free(pen); free(supp); free(bits); free(scratch);
    return kept;
}

/* Grow *buf to hold at least `need` items of `item` bytes (doubling). */
static int reserve(void **buf, int64_t *cap, int64_t need, size_t item) {
    if (need <= *cap) return 0;
    int64_t next = *cap > 0 ? *cap : 64;
    while (next < need) next *= 2;
    void *grown = realloc(*buf, (size_t)next * item);
    if (!grown) return -1;
    *buf = grown;
    *cap = next;
    return 0;
}

/* Stack rows and their carried facts (module docstring), grown
 * together: values, baseline penalty, support bitmask and
 * merge-tested bit. */
typedef struct {
    double *val;
    double *pen;
    uint64_t *supp;
    uint8_t *tested;
    int64_t cap;
} rowset;

static int rowset_reserve(rowset *s, int64_t need, int32_t dims) {
    if (need <= s->cap) return 0;
    int64_t next = s->cap > 0 ? s->cap : 64;
    while (next < need) next *= 2;
    double *val = realloc(s->val, (size_t)next * dims * sizeof(double));
    if (val) s->val = val;
    double *pen = realloc(s->pen, (size_t)next * sizeof(double));
    if (pen) s->pen = pen;
    uint64_t *supp = realloc(s->supp, (size_t)next * sizeof(uint64_t));
    if (supp) s->supp = supp;
    uint8_t *tested = realloc(s->tested, (size_t)next);
    if (tested) s->tested = tested;
    if (!val || !pen || !supp || !tested) return -1;
    s->cap = next;
    return 0;
}

static void rowset_free(rowset *s) {
    free(s->val); free(s->pen); free(s->supp); free(s->tested);
}

/* Copy cnt rows and their facts from row `src` of `from` to row `dst`
 * of `to`, shifted by an edge charge with support csupp: values plus
 * the charge, penalty plus its penalty, support OR its support, and the
 * merge-tested bit kept only if the charge is zero on every similarity
 * dimension.  A zero charge (csupp 0) copies. */
static void shift_rows(rowset *to, int64_t dst, const rowset *from,
                       int64_t src, int32_t cnt, const double *charge,
                       uint64_t csupp, int32_t dims, const double *theta,
                       uint64_t sim_mask) {
    double *tv = to->val + (size_t)dst * dims;
    const double *fv = from->val + (size_t)src * dims;
    if (!csupp) {
        memcpy(tv, fv, (size_t)cnt * dims * sizeof(double));
        memcpy(to->pen + dst, from->pen + src, (size_t)cnt * sizeof(double));
        memcpy(to->supp + dst, from->supp + src,
               (size_t)cnt * sizeof(uint64_t));
        memcpy(to->tested + dst, from->tested + src, (size_t)cnt);
        return;
    }
    double cpen = row_penalty(charge, theta, dims);
    uint8_t keep = (csupp & sim_mask) == 0;
    for (int32_t i = 0; i < cnt; i++, tv += dims, fv += dims) {
        for (int d = 0; d < dims; d++) tv[d] = fv[d] + charge[d];
        to->pen[dst + i] = from->pen[src + i] + cpen;
        to->supp[dst + i] = from->supp[src + i] | csupp;
        to->tested[dst + i] = from->tested[src + i] & keep;
    }
}

/* Kahn's algorithm set-up over an in-edge CSR: builds the out-edge CSR
 * (out_ptr must arrive zeroed, n + 1 entries; out_dst m entries), sets
 * indegree to each node's in-degree and puts the sources in queue.
 * Returns how many nodes were queued. */
static int64_t kahn_init(
    int64_t n, const int64_t *in_indptr, const int64_t *edge_src,
    int64_t *out_ptr, int64_t *out_dst, int64_t *indegree, int64_t *queue)
{
    int64_t m = in_indptr[n];
    for (int64_t e = 0; e < m; e++) out_ptr[edge_src[e] + 1]++;
    for (int64_t v = 0; v < n; v++) out_ptr[v + 1] += out_ptr[v];
    memcpy(indegree, out_ptr, (size_t)n * sizeof(int64_t)); /* cursors */
    for (int64_t v = 0; v < n; v++) {
        for (int64_t e = in_indptr[v]; e < in_indptr[v + 1]; e++)
            out_dst[indegree[edge_src[e]]++] = v;
    }
    int64_t tail = 0;
    for (int64_t v = 0; v < n; v++) {
        indegree[v] = in_indptr[v + 1] - in_indptr[v];
        if (indegree[v] == 0) queue[tail++] = v;
    }
    return tail;
}

/* Propagate stacks through one segment view; see the module docstring.
 *
 * n, in_indptr, edge_src: the view's local CSR over intra in-edges.
 * charges:     m x dims row-major dense edge charges (non-negative).
 * sink:        local id whose population is returned.
 * out_rows:    receives a malloc'd count x dims copy of the sink's rows
 *              (release with repro_free).
 * counts:      receives [candidate rows, reductions, cover tests,
 *              similarity evaluations].
 * Returns the sink's row count, or a negative REPRO_E* code.
 */
int64_t repro_walk_segment(
    int64_t n, const int64_t *in_indptr, const int64_t *edge_src,
    const double *charges, int32_t dims, int64_t sink,
    const double *theta, int32_t sim_lo, double threshold,
    int32_t max_paths, int32_t preserve_unique,
    double **out_rows, int64_t *counts)
{
    if (dims < 1 || dims > 64 || sim_lo < 0 || sim_lo > dims || sink < 0
        || sink >= n)
        return REPRO_EINPUT;
    int64_t m = in_indptr[n];
    for (int64_t e = 0; e < m; e++) {
        if (edge_src[e] < 0 || edge_src[e] >= n) return REPRO_EINPUT;
    }
    const uint64_t sim_mask = similarity_mask(dims, sim_lo);
    const size_t row_bytes = (size_t)dims * sizeof(double);
    int64_t rc = REPRO_ENOMEM;
    int64_t *out_ptr = calloc((size_t)n + 1, sizeof(int64_t));
    int64_t *out_dst = malloc((size_t)(m > 0 ? m : 1) * sizeof(int64_t));
    int64_t *indegree = malloc((size_t)n * sizeof(int64_t));
    int64_t *queue = malloc((size_t)n * sizeof(int64_t));
    int64_t *set_off = malloc((size_t)n * sizeof(int64_t));
    int32_t *set_count = malloc((size_t)n * sizeof(int32_t));
    rowset arena = {0}, cand = {0};
    int32_t *sizes = NULL, *kept_idx = NULL;
    uint8_t *kept_tested = NULL;
    char *scratch = NULL;
    int64_t arena_rows = 1, sizes_cap = 0, kept_cap = 0, tested_cap = 0;
    int64_t scratch_cap = 0;
    int64_t candidates = 0, reductions = 0, work[2] = {0, 0};
    if (!out_ptr || !out_dst || !indegree || !queue || !set_off
        || !set_count || rowset_reserve(&arena, 1, dims))
        goto done;
    /* row 0: the shared entry (zero) set, with no facts */
    memset(arena.val, 0, row_bytes);
    arena.pen[0] = 0.0;
    arena.supp[0] = 0;
    arena.tested[0] = 0;

    int64_t head = 0,
            tail = kahn_init(n, in_indptr, edge_src, out_ptr, out_dst,
                             indegree, queue);
    while (head < tail) {
        int64_t v = queue[head++];
        int64_t begin = in_indptr[v], deg = in_indptr[v + 1] - begin;
        if (deg == 0) {
            set_off[v] = 0; /* segment entry: start from nothing */
            set_count[v] = 1;
        } else if (deg == 1) {
            /* one predecessor: its set moves shared, or shifted by the
             * edge charge (a constant shift needs no reduction) */
            int64_t p = edge_src[begin];
            const double *charge = charges + (size_t)begin * dims;
            uint64_t csupp = row_support(charge, dims);
            if (!csupp) {
                set_off[v] = set_off[p];
                set_count[v] = set_count[p];
            } else {
                int32_t cnt = set_count[p];
                if (rowset_reserve(&arena, arena_rows + cnt, dims))
                    goto done;
                shift_rows(&arena, arena_rows, &arena, set_off[p], cnt,
                           charge, csupp, dims, theta, sim_mask);
                set_off[v] = arena_rows;
                set_count[v] = cnt;
                arena_rows += cnt;
            }
        } else {
            /* converging node: assemble the shifted blocks, reduce */
            int64_t total = 0;
            for (int64_t e = begin; e < begin + deg; e++)
                total += set_count[edge_src[e]];
            if (total > INT32_MAX) { rc = REPRO_EINPUT; goto done; }
            if (rowset_reserve(&cand, total, dims)
                || reserve((void **)&kept_idx, &kept_cap, total,
                           sizeof(int32_t))
                || reserve((void **)&kept_tested, &tested_cap, total, 1)
                || reserve((void **)&scratch, &scratch_cap,
                           (int64_t)scratch_bytes(total, deg), 1)
                || reserve((void **)&sizes, &sizes_cap, deg,
                           sizeof(int32_t)))
                goto done;
            int64_t at = 0;
            for (int64_t e = begin; e < begin + deg; e++) {
                int64_t p = edge_src[e];
                const double *charge = charges + (size_t)e * dims;
                shift_rows(&cand, at, &arena, set_off[p], set_count[p],
                           charge, row_support(charge, dims), dims, theta,
                           sim_mask);
                at += set_count[p];
                sizes[e - begin] = set_count[p];
            }
            candidates += total;
            reductions++;
            int32_t kept = reduce_rows(
                cand.val, cand.pen, cand.supp, cand.tested, (int32_t)total,
                dims, sizes, (int32_t)deg, sim_mask, threshold, max_paths,
                preserve_unique, scratch, kept_idx, kept_tested, work);
            if (rowset_reserve(&arena, arena_rows + kept, dims))
                goto done;
            for (int32_t i = 0; i < kept; i++) {
                int64_t to = arena_rows + i, from = kept_idx[i];
                memcpy(arena.val + (size_t)to * dims,
                       cand.val + (size_t)from * dims, row_bytes);
                arena.pen[to] = cand.pen[from];
                arena.supp[to] = cand.supp[from];
                arena.tested[to] = kept_tested[i];
            }
            set_off[v] = arena_rows;
            set_count[v] = kept;
            arena_rows += kept;
        }
        for (int64_t k = out_ptr[v]; k < out_ptr[v + 1]; k++) {
            int64_t w = out_dst[k];
            if (--indegree[w] == 0) queue[tail++] = w;
        }
    }
    if (head != n) {
        rc = REPRO_ECYCLE;
        goto done;
    }
    {
        int32_t cnt = set_count[sink];
        double *rows = malloc((size_t)cnt * row_bytes);
        if (!rows) goto done;
        memcpy(rows, arena.val + (size_t)set_off[sink] * dims,
               (size_t)cnt * row_bytes);
        *out_rows = rows;
        counts[0] = candidates;
        counts[1] = reductions;
        counts[2] = work[0];
        counts[3] = work[1];
        rc = cnt;
    }
done:
    free(out_ptr); free(out_dst); free(indegree); free(queue);
    free(set_off); free(set_count); rowset_free(&arena); rowset_free(&cand);
    free(sizes); free(kept_idx); free(kept_tested); free(scratch);
    return rc;
}

/* Longest path from the virtual start to every node of a whole graph:
 * the compiled DependenceGraph._relax.  Kahn order over the out-edge
 * CSR built here; each node is relaxed as it is dequeued, starting at
 * 0.0 and taking an in-edge (in CSR order) only when it is strictly
 * longer, so ties keep the earliest edge and a node whose every
 * candidate is <= 0.0 keeps parent -1.  A node's result depends only
 * on its predecessors' results and its in-edge order, so any
 * topological order gives the spec's distances and parents exactly.
 *
 * n, in_indptr, edge_src: the graph's CSR over in-edges.
 * weights:     per-edge weight in CSR order.
 * dist:        receives n distances.
 * parent:      receives n winning in-edge ids (-1: none), or NULL.
 * Returns 0, or a negative REPRO_E* code.
 */
int64_t repro_longest_path(
    int64_t n, const int64_t *in_indptr, const int64_t *edge_src,
    const double *weights, double *dist, int64_t *parent)
{
    int64_t m = in_indptr[n];
    for (int64_t e = 0; e < m; e++) {
        if (edge_src[e] < 0 || edge_src[e] >= n) return REPRO_EINPUT;
    }
    int64_t rc = REPRO_ENOMEM;
    int64_t *out_ptr = calloc((size_t)n + 1, sizeof(int64_t));
    int64_t *out_dst = malloc((size_t)(m > 0 ? m : 1) * sizeof(int64_t));
    int64_t *indegree = malloc((size_t)(n > 0 ? n : 1) * sizeof(int64_t));
    int64_t *queue = malloc((size_t)(n > 0 ? n : 1) * sizeof(int64_t));
    if (!out_ptr || !out_dst || !indegree || !queue) goto done;

    int64_t head = 0,
            tail = kahn_init(n, in_indptr, edge_src, out_ptr, out_dst,
                             indegree, queue);
    while (head < tail) {
        int64_t v = queue[head++];
        double best = 0.0;
        int64_t best_edge = -1;
        for (int64_t e = in_indptr[v]; e < in_indptr[v + 1]; e++) {
            double cand = dist[edge_src[e]] + weights[e];
            if (cand > best) {
                best = cand;
                best_edge = e;
            }
        }
        dist[v] = best;
        if (parent) parent[v] = best_edge;
        for (int64_t k = out_ptr[v]; k < out_ptr[v + 1]; k++) {
            int64_t w = out_dst[k];
            if (--indegree[w] == 0) queue[tail++] = w;
        }
    }
    rc = head == n ? 0 : REPRO_ECYCLE;
done:
    free(out_ptr); free(out_dst); free(indegree); free(queue);
    return rc;
}

void repro_free(void *ptr) { free(ptr); }
"""

_CFLAGS = ["-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-fast-math"]

#: Error codes of the kernel entry points (``REPRO_E*`` in the source).
_ENOMEM, _ECYCLE = -1, -2


def _check(code: int, what: str) -> int:
    """Map a negative kernel return code to its Python exception."""
    if code >= 0:
        return code
    if code == _ENOMEM:
        raise MemoryError(f"native {what} allocation failed")
    if code == _ECYCLE:
        from repro.graphmodel.graph import GraphBuildError

        raise GraphBuildError("dependence graph contains a cycle")
    raise ValueError(f"native {what} rejected its input (code {code})")


def _require(array: np.ndarray, dtype, length: int, what: str) -> None:
    """Reject anything but a contiguous 1-D *dtype* array of at least
    *length* entries, which the kernel reads or writes unchecked."""
    if (
        array.dtype != dtype
        or array.ndim != 1
        or not array.flags.c_contiguous
        or array.shape[0] < length
    ):
        raise ValueError(
            f"{what} must be a contiguous 1-D {np.dtype(dtype).name} "
            f"array of at least {length} entries"
        )


def _policy_args(policy: ReductionPolicy) -> Tuple[int, float, int, int]:
    """``(sim_lo, threshold, max_paths, preserve_unique)`` for the kernel."""
    return (
        0 if policy.include_base_in_similarity else EventType.BASE + 1,
        policy.similarity_threshold,
        policy.max_paths,
        1 if policy.preserve_unique else 0,
    )


class NativeWalk:
    """ctypes wrapper around the compiled segment walk, its reducer and
    the whole-graph longest path."""

    def __init__(self, lib: ctypes.CDLL) -> None:
        reduce_node = lib.repro_reduce_node
        reduce_node.restype = ctypes.c_int32
        reduce_node.argtypes = [
            ctypes.c_void_p,  # stacks
            ctypes.c_int32,  # count
            ctypes.c_int32,  # dims
            ctypes.c_void_p,  # block_sizes
            ctypes.c_int32,  # nblocks
            ctypes.c_void_p,  # theta
            ctypes.c_int32,  # sim_lo
            ctypes.c_double,  # threshold
            ctypes.c_int32,  # max_paths
            ctypes.c_int32,  # preserve_unique
            ctypes.c_void_p,  # tested (NULL: no bit set)
            ctypes.c_void_p,  # out_indices
            ctypes.c_void_p,  # out_tested (NULL: not returned)
        ]
        walk = lib.repro_walk_segment
        walk.restype = ctypes.c_int64
        walk.argtypes = [
            ctypes.c_int64,  # n
            ctypes.c_void_p,  # in_indptr
            ctypes.c_void_p,  # edge_src
            ctypes.c_void_p,  # charges
            ctypes.c_int32,  # dims
            ctypes.c_int64,  # sink
            ctypes.c_void_p,  # theta
            ctypes.c_int32,  # sim_lo
            ctypes.c_double,  # threshold
            ctypes.c_int32,  # max_paths
            ctypes.c_int32,  # preserve_unique
            ctypes.POINTER(ctypes.POINTER(ctypes.c_double)),  # out_rows
            ctypes.c_void_p,  # counts
        ]
        longest = lib.repro_longest_path
        longest.restype = ctypes.c_int64
        longest.argtypes = [
            ctypes.c_int64,  # n
            ctypes.c_void_p,  # in_indptr
            ctypes.c_void_p,  # edge_src
            ctypes.c_void_p,  # weights
            ctypes.c_void_p,  # dist
            ctypes.c_void_p,  # parent (NULL: not tracked)
        ]
        lib.repro_free.restype = None
        lib.repro_free.argtypes = [ctypes.c_void_p]
        self._reduce_node = reduce_node
        self._walk = walk
        self._longest = longest
        self._free = lib.repro_free

    def reduce_node_indices(
        self,
        stacks: np.ndarray,
        sizes: np.ndarray,
        theta: np.ndarray,
        policy: ReductionPolicy,
        out_indices: np.ndarray,
        tested: Optional[np.ndarray] = None,
        out_tested: Optional[np.ndarray] = None,
    ) -> int:
        """Kept-row indices of one node reduction (into *out_indices*).

        *stacks* must be C-contiguous float64 and non-negative, its rows
        concatenated blocks, each a reduced set shifted by a constant;
        *sizes* holds the blocks' row counts, *theta* is C-contiguous
        float64 and *out_indices* needs >= count entries.  *tested*
        gives each row's merge-tested bit (module docstring; ``None``:
        no bit set), and *out_tested*, when given, receives each kept
        row's.  Returns the number of kept rows.  Raises
        :class:`ValueError` when *sizes* is not int32, holds a negative
        size or does not sum to the row count.
        """
        count = stacks.shape[0]
        _require(sizes, np.int32, 0, "block sizes")
        _require(out_indices, np.int32, count, "out_indices")
        for bits, name in ((tested, "tested"), (out_tested, "out_tested")):
            if bits is not None:
                _require(bits, np.uint8, count, name)
        return _check(
            self._reduce_node(
                stacks.ctypes.data,
                count,
                stacks.shape[1],
                sizes.ctypes.data,
                sizes.shape[0],
                theta.ctypes.data,
                *_policy_args(policy),
                None if tested is None else tested.ctypes.data,
                out_indices.ctypes.data,
                None if out_tested is None else out_tested.ctypes.data,
            ),
            "reduction",
        )

    def walk_segment(
        self, view: SegmentView, theta: np.ndarray, policy: ReductionPolicy
    ) -> Tuple[np.ndarray, int, int, Dict[str, int]]:
        """Walk one segment view in a single call.

        *theta* must be C-contiguous float64 of ``NUM_EVENTS`` entries.
        Returns ``(sink_stacks, candidate_stacks, reductions, work)``:
        the spec walk's three results, plus the reductions' work as
        ``{"cover_tests": ..., "similarity_evals": ...}`` (dominance
        cover tests run and merge similarities evaluated).  Raises
        :class:`GraphBuildError` on a cyclic view.
        """
        charges = np.ascontiguousarray(view.charge_matrix())
        in_indptr = np.ascontiguousarray(view.in_indptr, dtype=np.int64)
        edge_src = np.ascontiguousarray(view.edge_src, dtype=np.int64)
        counts = np.zeros(4, dtype=np.int64)
        rows = ctypes.POINTER(ctypes.c_double)()
        count = _check(
            self._walk(
                view.num_nodes,
                in_indptr.ctypes.data,
                edge_src.ctypes.data,
                charges.ctypes.data,
                NUM_EVENTS,
                view.sink_local,
                theta.ctypes.data,
                *_policy_args(policy),
                ctypes.byref(rows),
                counts.ctypes.data,
            ),
            "segment walk",
        )
        try:
            stacks = np.ctypeslib.as_array(
                rows, shape=(count, NUM_EVENTS)
            ).copy()
        finally:
            self._free(rows)
        work = {
            "cover_tests": int(counts[2]),
            "similarity_evals": int(counts[3]),
        }
        return stacks, int(counts[0]), int(counts[1]), work

    def longest_path(
        self,
        in_indptr: np.ndarray,
        edge_src: np.ndarray,
        weights: np.ndarray,
        track_parents: bool,
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Longest-path distance (and winning in-edge) of every node.

        *in_indptr* and *edge_src* are a whole graph's in-edge CSR
        (int64), *weights* its per-edge weights in the same order.
        Returns ``(dist, parent)`` as :meth:`DependenceGraph._relax`
        computes them, with ``parent`` ``None`` unless *track_parents*;
        raises :class:`GraphBuildError` on a cyclic graph.
        """
        n = in_indptr.shape[0] - 1
        in_indptr = np.ascontiguousarray(in_indptr, dtype=np.int64)
        edge_src = np.ascontiguousarray(edge_src, dtype=np.int64)
        weights = np.ascontiguousarray(weights, dtype=np.float64)
        dist = np.empty(n, dtype=np.float64)
        parent = np.empty(n, dtype=np.int64) if track_parents else None
        _check(
            self._longest(
                n,
                in_indptr.ctypes.data,
                edge_src.ctypes.data,
                weights.ctypes.data,
                dist.ctypes.data,
                None if parent is None else parent.ctypes.data,
            ),
            "longest path",
        )
        return dist, parent


#: Loaded kernels by name; ``None`` records a failed best-effort load.
_LOADED: Dict[str, object] = {}
#: Serialises first loads, so concurrent callers share one build.
_LOAD_LOCK = threading.Lock()


def native_mode() -> str:
    """The ``REPRO_NATIVE`` gate: ``"off"``, ``"require"`` or ``"auto"``.

    ``0/off/false/no`` disables every native path; ``1/on/true/yes``
    turns a build/load failure into an error instead of a silent Python
    fallback; anything else (or unset) means best-effort.
    """
    mode = os.environ.get("REPRO_NATIVE", "auto").lower()
    if mode in ("0", "off", "false", "no"):
        return "off"
    if mode in ("1", "on", "true", "yes"):
        return "require"
    return "auto"


def compile_shared_library(
    name: str, source: str, cflags: Optional[list] = None
) -> str:
    """Compile *source* into a cached shared library; return its path.

    The cache directory is keyed by the hash of the source and flags, so
    a source change never reuses a stale build.  Every call compiles in
    its own temporary directory and renames the result into place
    atomically, so concurrent builders (threads or processes) never
    share a scratch file and all converge on one artifact.
    """
    cflags = list(_CFLAGS if cflags is None else cflags)
    tag = hashlib.sha256(
        (source + " ".join(cflags)).encode()
    ).hexdigest()[:16]
    root = os.environ.get("REPRO_NATIVE_CACHE") or os.path.join(
        tempfile.gettempdir(), f"repro-native-{os.getuid()}"
    )
    directory = os.path.join(root, tag)
    lib_path = os.path.join(directory, f"_{name}.so")
    if os.path.exists(lib_path):
        return lib_path
    os.makedirs(directory, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=directory) as work:
        src_path = os.path.join(work, f"_{name}.c")
        with open(src_path, "w") as handle:
            handle.write(source)
        tmp_path = os.path.join(work, f"_{name}.so")
        compiler = os.environ.get("CC", "cc")
        subprocess.run(
            [compiler, *cflags, src_path, "-o", tmp_path, "-lm"],
            check=True,
            capture_output=True,
            timeout=120,
        )
        os.replace(tmp_path, lib_path)
    return lib_path


def load_gated(what: str, builder: Callable[[], object]):
    """Run *builder* under the ``REPRO_NATIVE`` gate, memoised by *what*.

    The gate is read on every call, so flipping ``REPRO_NATIVE``
    mid-process takes effect either way: ``0`` returns ``None`` even
    after a successful load (the handle stays cached for when it flips
    back), and ``1`` retries a load that an earlier ``0`` skipped or an
    earlier best-effort attempt lost.  In auto mode a failed load is
    reported once and remembered, returning ``None``; under ``1`` it is
    re-raised as ``RuntimeError``.  Loads run under one lock, so threads
    racing on a first load share a single build.
    """
    mode = native_mode()
    if mode == "off":
        return None

    def memoised() -> bool:
        return what in _LOADED and (
            _LOADED[what] is not None or mode == "auto"
        )

    if memoised():
        return _LOADED[what]
    with _LOAD_LOCK:
        if memoised():
            return _LOADED[what]
        try:
            kernel = builder()
        except Exception as exc:  # noqa: BLE001 - any failure means fallback
            if mode == "require":
                raise RuntimeError(
                    f"REPRO_NATIVE=1 but the native {what} failed to load: "
                    f"{exc}"
                ) from exc
            print(
                f"repro: native {what} unavailable "
                f"({exc.__class__.__name__}); using the Python path",
                file=sys.stderr,
            )
            kernel = None
        _LOADED[what] = kernel
    return kernel


def load_native() -> Optional[NativeWalk]:
    """The compiled segment walk and longest path, or ``None`` when
    unavailable.

    Gated by ``REPRO_NATIVE`` (see :func:`load_gated`): ``0`` disables
    the native path, ``1`` turns a build/load failure into an error
    instead of a silent fallback to the spec walk and relax.
    """
    return load_gated(
        "reducer",
        lambda: NativeWalk(
            ctypes.CDLL(compile_shared_library("reduction", _C_SOURCE))
        ),
    )
