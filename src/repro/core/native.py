"""Optional C fast path for the per-node reduction (§III-C).

The segment walk reduces at every converging node — tens of thousands
of times per workload — on populations of a few dozen rows.  At that
size the cost of the numpy spec (:func:`repro.core.reduction.reduce_stacks`)
is ufunc *dispatch*, not arithmetic, so the walk is bounded by the
Python/numpy call overhead long before the hardware is.

This module compiles (once, cached) a small C routine that performs one
entire node reduction — baseline penalties, stable descending sort,
cross-block dominance, uniqueness marking, lazy greedy similarity merge
and the population cap — in a single call.

The kernel relies on the block structure of a converging node's
candidates.  They are the concatenation of per-predecessor *blocks*, and
each block is a previous reduction's output shifted by a constant edge
charge: already duplicate-free, internally dominance-free and sorted by
descending baseline penalty.  A constant shift preserves all three
properties, so duplicate and dominance elimination only ever fire
*across* blocks, and the kernel checks exactly those pairs.  Row ``q``
beats row ``r`` when ``q`` covers ``r`` element-wise and sorts before it
(strictly larger penalty, or a tie from an earlier concatenation
position); duplicate elimination is the equal-rows special case.

Decisions are bit-identical to :func:`~repro.core.reduction.reduce_stacks`
on such populations:

* penalties are integer-valued (unit counts priced by integer cycle
  latencies), so summation order cannot change them;
* similarity accumulates dimension-by-dimension in index order, exactly
  like the ``einsum`` contractions in
  :func:`repro.core.similarity.rect_modified_cosine`, and applies the
  same guards in the same order (compiled with ``-ffp-contract=off`` so
  no FMA contraction can alter rounding);
* sort/merge/cap tie-breaks replicate the stable argsort and priority
  rules verbatim.

A differential fuzz test and a full-suite model comparison pin the
equivalence.  Everything degrades gracefully: no compiler, a failed
build, or ``REPRO_NATIVE=0`` all fall back to the spec reducer (set
``REPRO_NATIVE=1`` to make a missing native build an error instead).
The compiled library is cached under the system temp directory keyed by
source hash, so workers spawned by ``parallel_map`` just ``dlopen`` it.

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
from typing import Callable, Dict, Optional

import numpy as np

_C_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Modified cosine similarity of two stack rows over dims [lo, dims).
 * Mirrors rect_modified_cosine bit-for-bit: per-dimension max
 * normalisation with the zero-dim divisor patched to 1.0, sequential
 * in-order accumulation of dot and squared norms (einsum order),
 * product-then-sqrt denominator with the zero guard, the all-zero
 * convention, and the final clamp to 1.0. */
static double sim_pair(const double *a, const double *b, int lo, int dims) {
    double dot = 0.0, na = 0.0, nb = 0.0;
    int a_zero = 1, b_zero = 1;
    for (int i = lo; i < dims; i++) {
        double x = a[i], y = b[i];
        if (x != 0.0) a_zero = 0;
        if (y != 0.0) b_zero = 0;
        double s = x > y ? x : y;
        if (s == 0.0) s = 1.0;
        double an = x / s, bn = y / s;
        dot += an * bn;
        na += an * an;
        nb += bn * bn;
    }
    if (a_zero && b_zero) return 1.0;
    double den = sqrt(na * nb);
    if (den == 0.0) den = 1.0;
    double sim = dot / den;
    return sim > 1.0 ? 1.0 : sim;
}

/* One full converging-node reduction.
 *
 * stacks:      count x dims row-major candidate rows (concatenated
 *              per-predecessor blocks, each already reduced + shifted).
 * block_sizes: rows per predecessor block (nblocks entries).
 * theta:       baseline pricing vector (dims entries).
 * sim_lo:      first similarity dimension (1 excludes BASE).
 * out_indices: caller buffer of >= count entries; receives the kept
 *              row indices (into the input order), output order.
 * Returns number of kept rows, or -1 on allocation failure.
 */
int repro_reduce_node(
    const double *stacks, int32_t count, int32_t dims,
    const int32_t *block_sizes, int32_t nblocks,
    const double *theta, int32_t sim_lo, double threshold,
    int32_t max_paths, int32_t preserve_unique, int32_t *out_indices)
{
    if (dims > 64) return -1; /* support[] bound; never true for NUM_EVENTS */
    if (count <= 1) {
        for (int i = 0; i < count; i++) out_indices[i] = i;
        return count;
    }
    /* one scratch allocation for every per-row array */
    size_t ints = (size_t)count * 6;
    int32_t *scratch = (int32_t *)malloc(
        ints * sizeof(int32_t) + (size_t)count * sizeof(double));
    if (!scratch) return -1;
    int32_t *order = scratch;
    int32_t *block_id = scratch + count;
    int32_t *dropped = scratch + 2 * (size_t)count;
    int32_t *surv = scratch + 3 * (size_t)count;
    int32_t *uniq = scratch + 4 * (size_t)count;
    int32_t *kept = scratch + 5 * (size_t)count;
    double *pen = (double *)(scratch + ints);

    for (int i = 0; i < count; i++) {
        double p = 0.0;
        const double *row = stacks + (size_t)i * dims;
        for (int d = 0; d < dims; d++) p += row[d] * theta[d];
        pen[i] = p;
        dropped[i] = 0;
    }
    {
        int b = 0, off = block_sizes[0];
        for (int i = 0; i < count; i++) {
            while (i >= off) off += block_sizes[++b];
            block_id[i] = b;
        }
    }
    /* stable descending insertion sort (counts are a few dozen rows) */
    for (int i = 0; i < count; i++) {
        double p = pen[i];
        int j = i;
        while (j > 0 && pen[order[j - 1]] < p) {
            order[j] = order[j - 1];
            j--;
        }
        order[j] = i;
    }
    /* cross-block dominance in sorted order: an earlier row beats a
     * later one it covers element-wise, even if itself dropped (as in
     * reduce_stacks). */
    for (int pi = 0; pi < count; pi++) {
        int q = order[pi];
        const double *qrow = stacks + (size_t)q * dims;
        int qb = block_id[q];
        for (int pj = pi + 1; pj < count; pj++) {
            int r = order[pj];
            if (dropped[r] || block_id[r] == qb) continue;
            const double *rrow = stacks + (size_t)r * dims;
            int covers = 1;
            for (int d = 0; d < dims; d++) {
                if (qrow[d] < rrow[d]) { covers = 0; break; }
            }
            if (covers) dropped[r] = 1;
        }
    }
    int n2 = 0;
    for (int pi = 0; pi < count; pi++) {
        if (!dropped[order[pi]]) surv[n2++] = order[pi];
    }
    if (n2 == 1) {
        out_indices[0] = surv[0];
        free(scratch);
        return 1;
    }
    /* uniqueness: a surviving row owning a dimension no other survivor
     * has (over ALL dims, matching unique_dimension_mask) */
    if (preserve_unique) {
        int support[64];
        for (int d = 0; d < dims; d++) support[d] = 0;
        for (int i = 0; i < n2; i++) {
            const double *row = stacks + (size_t)surv[i] * dims;
            for (int d = 0; d < dims; d++) {
                if (row[d] > 0.0) support[d]++;
            }
        }
        for (int i = 0; i < n2; i++) {
            const double *row = stacks + (size_t)surv[i] * dims;
            int u = 0;
            for (int d = 0; d < dims; d++) {
                if (row[d] > 0.0 && support[d] == 1) { u = 1; break; }
            }
            uniq[i] = u;
        }
    } else {
        for (int i = 0; i < n2; i++) uniq[i] = 0;
    }
    /* greedy merge, lazy similarities: row i is absorbed if some kept
     * mergeable row before it is more similar than the threshold */
    int nkept = 0, nmerge = 0;
    int32_t *kept_merge = out_indices; /* reuse as temp: indices into surv */
    for (int i = 0; i < n2; i++) {
        if (uniq[i]) {
            kept[nkept++] = i;
            continue;
        }
        const double *row = stacks + (size_t)surv[i] * dims;
        int blocked = 0;
        for (int m = 0; m < nmerge; m++) {
            const double *other = stacks + (size_t)surv[kept_merge[m]] * dims;
            if (sim_pair(row, other, sim_lo, dims) > threshold) {
                blocked = 1;
                break;
            }
        }
        if (blocked) continue;
        kept_merge[nmerge++] = i;
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
            if (mark[j]) out_indices[outn++] = surv[kept[j]];
        }
        free(scratch);
        return outn;
    }
    for (int j = 0; j < nkept; j++) out_indices[j] = surv[kept[j]];
    free(scratch);
    return nkept;
}
"""

_CFLAGS = ["-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-fast-math"]


class NativeReduction:
    """ctypes wrapper around the compiled per-node reducer."""

    def __init__(self, lib: ctypes.CDLL) -> None:
        fn = lib.repro_reduce_node
        fn.restype = ctypes.c_int32
        fn.argtypes = [
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
            ctypes.c_void_p,  # out_indices
        ]
        self._fn = fn

    def reduce_node_indices(
        self,
        stacks: np.ndarray,
        sizes: np.ndarray,
        theta: np.ndarray,
        sim_lo: int,
        threshold: float,
        max_paths: int,
        preserve_unique: bool,
        out_indices: np.ndarray,
    ) -> int:
        """Kept-row indices of one node reduction (into *out_indices*).

        *stacks* must be C-contiguous float64, *sizes*/*out_indices*
        int32, *theta* float64; *out_indices* needs >= count entries.
        Returns the number of kept rows.
        """
        count = self._fn(
            stacks.ctypes.data,
            stacks.shape[0],
            stacks.shape[1],
            sizes.ctypes.data,
            sizes.shape[0],
            theta.ctypes.data,
            sim_lo,
            threshold,
            max_paths,
            1 if preserve_unique else 0,
            out_indices.ctypes.data,
        )
        if count < 0:
            raise MemoryError("native reduction scratch allocation failed")
        return count


#: Loaded kernels by name; ``None`` records a failed best-effort load.
_LOADED: Dict[str, object] = {}


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
    a source change never reuses a stale build and concurrent workers
    converge on one artifact (the final rename is atomic: racing
    builders both win).
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
    src_path = os.path.join(directory, f"_{name}.c")
    with open(src_path, "w") as handle:
        handle.write(source)
    tmp_path = os.path.join(directory, f"_{name}.{os.getpid()}.tmp.so")
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
    re-raised as ``RuntimeError``.
    """
    mode = native_mode()
    if mode == "off":
        return None
    if what in _LOADED and (_LOADED[what] is not None or mode == "auto"):
        return _LOADED[what]
    try:
        kernel = builder()
    except Exception as exc:  # noqa: BLE001 - any failure means fallback
        if mode == "require":
            raise RuntimeError(
                f"REPRO_NATIVE=1 but the native {what} failed to load: {exc}"
            ) from exc
        print(
            f"repro: native {what} unavailable ({exc.__class__.__name__}); "
            "using the Python path",
            file=sys.stderr,
        )
        kernel = None
    _LOADED[what] = kernel
    return kernel


def load_native() -> Optional[NativeReduction]:
    """The compiled reducer, or ``None`` when unavailable.

    Gated by ``REPRO_NATIVE`` (see :func:`load_gated`): ``0`` disables
    the native path, ``1`` turns a build/load failure into an error
    instead of a silent fallback to the spec reducer.
    """
    return load_gated(
        "reducer",
        lambda: NativeReduction(
            ctypes.CDLL(compile_shared_library("reduction", _C_SOURCE))
        ),
    )
