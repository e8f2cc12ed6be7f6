"""Optional compiled fast path for the cycle-level simulator.

The pure-Python simulator (``prepass.py`` + ``core.py``) is the
dominant cost of a cold analysis: at 200k µops the functional pre-pass
and the per-cycle timing loop together take tens of seconds, and unlike
the stack generation they cannot be parallelised away because they
*produce* the trace.  This module compiles both hot loops into one
small C library using the same zero-dependency machinery as
:mod:`repro.core.native` (system ``cc`` + ``ctypes``, hash-keyed build
cache, ``REPRO_NATIVE`` gate, automatic Python fallback):

* ``repro_sim_prepass`` — the program-order functional pass: LRU
  caches and TLBs, bimodal/gshare predictors, the prefetchers, the
  rename-map dependence walk, store barriers and the line-share
  window.  It consumes flat µop arrays and emits per-µop outcome
  arrays (service levels, miss flags, producers, witnesses): the
  :class:`PackedPrepass`.
* ``repro_sim_timing`` — the per-cycle commit/issue/dispatch/rename/
  fetch loop with idle-cycle skipping, consuming a packed prepass
  plus per-design latency arrays and emitting the pipeline
  timestamps and structural witnesses directly.

The implementation is chosen once per run: a packed prepass is only
ever priced by the compiled timing loop, and the result is assembled
straight into :class:`~repro.simulator.columns.TraceColumns` with no
per-µop Python objects.  Everything is integer arithmetic, so the
native path is **bit identical** to the Python reference by
construction; a 12-workload differential test
(``tests/simulator/test_native_parity.py``) and the stress-kernel
oracles pin the equivalence.  The Python implementation stays the
executable specification.

Workloads the packer cannot express (register ids outside 0..255, more
than two address sources) silently fall back to the Python path.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.common.config import MicroarchConfig
from repro.common.events import EventType
from repro.core.native import compile_shared_library, load_gated
from repro.isa.uop import EXEC_EVENT, OpClass, Workload
from repro.simulator.columns import TraceColumns
from repro.simulator.trace import (
    SimResult,
    data_access_charge,
    fetch_access_charge,
)

#: Maximum architectural register id the packed rename map supports.
MAX_REGS = 256

_PREDICTOR_KINDS = {"taken": 0, "bimodal": 1, "gshare": 2}
_PREFETCHER_KINDS = {"none": 0, "next-line": 1, "stride": 2}
#: Gshare global-history length (mirrors GsharePredictor's default).
_GSHARE_HISTORY_BITS = 12
#: Stride prefetcher reference-prediction-table size (StridePrefetcher).
_STRIDE_TABLE_ENTRIES = 256
#: Ring capacity for the in-flight fill window; must exceed
#: LINE_SHARE_WINDOW + 1 (at most one fill is pushed per µop, so every
#: fill inside the window is among the last WINDOW+1 pushes).
_FILL_RING = 128


class UnsupportedWorkloadError(ValueError):
    """The workload cannot be expressed in the packed array format."""


_C_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define I64_MIN (-9223372036854775807LL - 1)
#define I64_MAX 9223372036854775807LL

/* ---------------- LRU tag store (caches and TLBs) ----------------
 *
 * Mirrors SetAssocCache / TLB: each set is an LRU list with the most
 * recently used tag last (the OrderedDict convention).  A fully
 * associative TLB is a tag store with one set and page-granular tags.
 * Set index / tag use modulo arithmetic, matching _locate (the set
 * count need not be a power of two). */
typedef struct {
    int64_t *tags;   /* sets * assoc entries, per-set MRU-last prefix */
    int32_t *count;  /* valid entries per set */
    int64_t sets, assoc, shift;
    int64_t hits, misses;
} TagStore;

static int tag_init(TagStore *c, int64_t sets, int64_t assoc, int64_t shift)
{
    c->sets = sets; c->assoc = assoc; c->shift = shift;
    c->hits = 0; c->misses = 0;
    c->tags = (int64_t *)malloc((size_t)(sets * assoc) * sizeof(int64_t));
    c->count = (int32_t *)calloc((size_t)sets, sizeof(int32_t));
    return c->tags != NULL && c->count != NULL;
}

static void tag_destroy(TagStore *c) { free(c->tags); free(c->count); }

/* Look up addr; allocate on miss, refresh LRU position on hit.  This is
 * both .access (count_stats=1) and .install/.warm (count_stats=0): the
 * replacement-state effect of the two is identical. */
static int tag_touch(TagStore *c, int64_t addr, int count_stats)
{
    int64_t line = addr >> c->shift;
    int64_t set = line % c->sets;
    int64_t tag = line / c->sets;
    int64_t *row = c->tags + set * c->assoc;
    int32_t used = c->count[set];
    for (int32_t i = 0; i < used; i++) {
        if (row[i] == tag) {
            memmove(row + i, row + i + 1,
                    (size_t)(used - 1 - i) * sizeof(int64_t));
            row[used - 1] = tag;
            if (count_stats) c->hits++;
            return 1;
        }
    }
    if (count_stats) c->misses++;
    if (used >= c->assoc) {
        memmove(row, row + 1, (size_t)(used - 1) * sizeof(int64_t));
        row[used - 1] = tag;
    } else {
        row[used] = tag;
        c->count[set] = used + 1;
    }
    return 0;
}

/* ---------------- branch predictors ---------------- */
typedef struct {
    int kind;            /* 0 taken, 1 bimodal, 2 gshare */
    int64_t mask;        /* entries - 1 */
    int64_t history, hist_mask;
    uint8_t *counters;   /* mask + 1 entries, weakly-taken (2) start */
} Pred;

static int pred_init(Pred *p, int64_t kind, int64_t mask, int64_t hist_mask)
{
    p->kind = (int)kind; p->mask = mask;
    p->history = 0; p->hist_mask = hist_mask;
    p->counters = NULL;
    if (kind != 0) {
        p->counters = (uint8_t *)malloc((size_t)(mask + 1));
        if (!p->counters) return 0;
        memset(p->counters, 2, (size_t)(mask + 1));
    }
    return 1;
}

static void pred_destroy(Pred *p) { free(p->counters); }

static int pred_access(Pred *p, int64_t pc, int taken)
{
    if (p->kind == 0) return 1;  /* always taken */
    int64_t idx = (p->kind == 1)
        ? ((pc >> 2) & p->mask)
        : (((pc >> 2) ^ p->history) & p->mask);
    uint8_t ctr = p->counters[idx];
    int prediction = ctr >= 2;
    if (taken) { if (ctr < 3) ctr++; }
    else       { if (ctr > 0) ctr--; }
    p->counters[idx] = ctr;
    if (p->kind == 2)
        p->history = ((p->history << 1) | (taken ? 1 : 0)) & p->hist_mask;
    return prediction;
}

/* ---------------- prefetchers ----------------
 *
 * The stride table mirrors StridePrefetcher's dict: keyed by
 * pc % (entries*4), insertion-ordered, evicting the OLDEST INSERTED
 * entry only when a NEW key overflows the table (updates keep their
 * position).  Line granularity is the module-level 64 bytes. */
typedef struct {
    int kind;            /* 0 none, 1 next-line, 2 stride */
    int64_t entries, count;
    int64_t *keys, *lines, *strides;
} Pf;

static int pf_init(Pf *p, int64_t kind, int64_t entries)
{
    p->kind = (int)kind; p->entries = entries; p->count = 0;
    p->keys = p->lines = p->strides = NULL;
    if (kind == 2) {
        p->keys = (int64_t *)malloc((size_t)(entries + 1) * 3 * sizeof(int64_t));
        if (!p->keys) return 0;
        p->lines = p->keys + (entries + 1);
        p->strides = p->lines + (entries + 1);
    }
    return 1;
}

static void pf_destroy(Pf *p) { free(p->keys); }

static void pf_access(Pf *p, TagStore *l1d, TagStore *l2,
                      int64_t pc, int64_t addr, int was_miss)
{
    if (p->kind == 0) return;
    if (p->kind == 1) {
        if (!was_miss) return;
        int64_t target = (addr / 64 + 1) * 64;
        tag_touch(l1d, target, 0);
        tag_touch(l2, target, 0);
        return;
    }
    int64_t key = pc % (p->entries * 4);
    int64_t line = addr / 64;
    for (int64_t i = 0; i < p->count; i++) {
        if (p->keys[i] == key) {
            int64_t stride = line - p->lines[i];
            int64_t last_stride = p->strides[i];
            p->lines[i] = line;
            p->strides[i] = stride;
            if (stride != 0 && stride == last_stride) {
                int64_t target = (line + stride) * 64;
                tag_touch(l1d, target, 0);
                tag_touch(l2, target, 0);
            }
            return;
        }
    }
    p->keys[p->count] = key;
    p->lines[p->count] = line;
    p->strides[p->count] = 0;
    p->count++;
    if (p->count > p->entries) {
        memmove(p->keys, p->keys + 1, (size_t)(p->count - 1) * sizeof(int64_t));
        memmove(p->lines, p->lines + 1, (size_t)(p->count - 1) * sizeof(int64_t));
        memmove(p->strides, p->strides + 1,
                (size_t)(p->count - 1) * sizeof(int64_t));
        p->count--;
    }
}

/* ---------------- functional pre-pass ----------------
 *
 * cfg layout (int64): 0:n 1:warm_n 2:extra_n
 *   3..5  l1i sets/assoc/line_shift      6..8  l1d    9..11 l2
 *   12,13 itlb entries/page_shift        14,15 dtlb
 *   16 pred_kind 17 pred_mask 18 pred_hist_mask
 *   19 pf_kind 20 pf_entries 21 share_window
 *
 * Op classes: 6 = LOAD, 7 = STORE, 8 = BRANCH (OpClass values).
 * Producer/source sentinels are -1.  Output arrays must arrive
 * zero-initialised except p0/p1/a0/a1 (-1-initialised).
 * Returns 0, or -1 on allocation failure. */
int repro_sim_prepass(
    const int64_t *cfg,
    const int64_t *pc, const int64_t *mem, const int8_t *opclass,
    const int8_t *taken,
    const int64_t *dst, const int64_t *src0, const int64_t *src1,
    const int64_t *asrc0, const int64_t *asrc1,
    const int64_t *wpc, const int64_t *wmem,
    const int8_t *wis_branch, const int8_t *wtaken,
    const int8_t *w_itlb, const int8_t *w_l1i, const int8_t *w_l2i,
    const int8_t *w_dtlb, const int8_t *w_l1d, const int8_t *w_l2d,
    const int64_t *epc, const int8_t *etaken,
    int8_t *fetch_level, int8_t *itlb_miss, int8_t *mispredicted,
    int8_t *dtlb_miss, int8_t *data_level,
    int64_t *p0, int64_t *p1, int64_t *a0, int64_t *a1,
    int64_t *store_barrier, int64_t *line_sharer,
    int64_t *stats_out)
{
    int64_t n = cfg[0], wn = cfg[1], en = cfg[2];
    TagStore l1i, l1d, l2, itlb, dtlb;
    Pred pred;
    Pf pf;
    int ok = tag_init(&l1i, cfg[3], cfg[4], cfg[5])
        & tag_init(&l1d, cfg[6], cfg[7], cfg[8])
        & tag_init(&l2, cfg[9], cfg[10], cfg[11])
        & tag_init(&itlb, 1, cfg[12], cfg[13])
        & tag_init(&dtlb, 1, cfg[14], cfg[15])
        & pred_init(&pred, cfg[16], cfg[17], cfg[18])
        & pf_init(&pf, cfg[19], cfg[20]);
    int64_t last_writer[256];
    int64_t ring_line[128], ring_seq[128];
    int64_t ring_n = 0, ring_pos = 0;
    int64_t share_window = cfg[21];
    if (!ok) goto fail;

    /* warm pass: footprint gating was vectorised by the caller into the
     * per-uop w_* flags; the line-granular I-side structure and the
     * full-stream predictor training are replayed here. */
    {
        int64_t prev_line = I64_MIN;
        for (int64_t i = 0; i < wn; i++) {
            int64_t line = wpc[i] >> l1i.shift;
            if (line != prev_line) {
                if (w_itlb[i]) tag_touch(&itlb, wpc[i], 0);
                if (w_l1i[i]) tag_touch(&l1i, wpc[i], 0);
                if (w_l2i[i]) tag_touch(&l2, wpc[i], 0);
                prev_line = line;
            }
            if (wis_branch[i]) pred_access(&pred, wpc[i], wtaken[i]);
            if (wmem[i] >= 0) {
                if (w_dtlb[i]) tag_touch(&dtlb, wmem[i], 0);
                if (w_l1d[i]) tag_touch(&l1d, wmem[i], 0);
                if (w_l2d[i]) tag_touch(&l2, wmem[i], 0);
            }
        }
    }
    for (int64_t e = 0; e < en; e++)
        pred_access(&pred, epc[e], etaken[e]);

    for (int64_t r = 0; r < 256; r++) last_writer[r] = -1;

    /* measured pass, program order */
    {
        int64_t prev_line = I64_MIN;
        int64_t last_store = -1;
        int64_t mispredictions = 0;
        for (int64_t i = 0; i < n; i++) {
            int8_t oc = opclass[i];
            int64_t line = pc[i] >> l1i.shift;
            if (line != prev_line) {
                int hit = tag_touch(&itlb, pc[i], 1);
                int lvl = tag_touch(&l1i, pc[i], 1)
                    ? 1 : (tag_touch(&l2, pc[i], 1) ? 2 : 3);
                fetch_level[i] = (int8_t)lvl;
                itlb_miss[i] = (int8_t)!hit;
                prev_line = line;
            }
            if (oc == 8) {
                int prediction = pred_access(&pred, pc[i], taken[i]);
                int wrong = prediction != (taken[i] != 0);
                mispredicted[i] = (int8_t)wrong;
                mispredictions += wrong;
            }
            if (src0[i] >= 0) p0[i] = last_writer[src0[i]];
            if (src1[i] >= 0) p1[i] = last_writer[src1[i]];
            if (asrc0[i] >= 0) a0[i] = last_writer[asrc0[i]];
            if (asrc1[i] >= 0) a1[i] = last_writer[asrc1[i]];
            if (mem[i] >= 0) {
                int dhit = tag_touch(&dtlb, mem[i], 1);
                dtlb_miss[i] = (int8_t)!dhit;
                int lvl = tag_touch(&l1d, mem[i], 1)
                    ? 1 : (tag_touch(&l2, mem[i], 1) ? 2 : 3);
                pf_access(&pf, &l1d, &l2, pc[i], mem[i], lvl > 1);
                int64_t dline = mem[i] >> l1d.shift;
                if (oc == 6) {
                    data_level[i] = (int8_t)lvl;
                    /* newest-first scan of the fill ring == dict of the
                     * most recent fill per line, bounded by the window */
                    for (int64_t k = 0; k < ring_n; k++) {
                        int64_t idx = (ring_pos - 1 - k) & (128 - 1);
                        if (i - ring_seq[idx] > share_window) break;
                        if (ring_line[idx] == dline) {
                            line_sharer[i] = ring_seq[idx];
                            break;
                        }
                    }
                    store_barrier[i] = last_store;
                } else {
                    last_store = i;
                }
                if (lvl > 1) {
                    ring_line[ring_pos] = dline;
                    ring_seq[ring_pos] = i;
                    ring_pos = (ring_pos + 1) & (128 - 1);
                    if (ring_n < 128) ring_n++;
                }
            }
            if (dst[i] >= 0) last_writer[dst[i]] = i;
        }
        stats_out[8] = mispredictions;
    }
    stats_out[0] = l1i.hits;  stats_out[1] = l1i.misses;
    stats_out[2] = l1d.hits;  stats_out[3] = l1d.misses;
    stats_out[4] = l2.hits;   stats_out[5] = l2.misses;
    stats_out[6] = itlb.misses;
    stats_out[7] = dtlb.misses;

    tag_destroy(&l1i); tag_destroy(&l1d); tag_destroy(&l2);
    tag_destroy(&itlb); tag_destroy(&dtlb);
    pred_destroy(&pred); pf_destroy(&pf);
    return 0;
fail:
    tag_destroy(&l1i); tag_destroy(&l1d); tag_destroy(&l2);
    tag_destroy(&itlb); tag_destroy(&dtlb);
    pred_destroy(&pred); pf_destroy(&pf);
    return -1;
}

/* ---------------- cycle-level timing loop ----------------
 *
 * A faithful transliteration of TimingSimulator: the five stage
 * handlers run in commit -> issue -> dispatch -> rename -> fetch order
 * each cycle; when no stage makes progress the loop jumps to the
 * earliest future wake-up hint.  The Python list of hints collapses to
 * a running minimum over hints strictly greater than the current cycle
 * (only min(future) is ever consumed).
 *
 * cfg layout (int64): 0:n 1:fetch_w 2:rename_w 3:dispatch_w 4:issue_w
 *   5:commit_w 6:fetch_buffer 7:decode_depth 8:rob 9:iq 10:lsq
 *   11:free_regs 12:fu_base 13:fu_long 14:fu_fp 15:fu_load 16:fu_store
 *   17:mshr 18:misp_penalty
 *
 * All t_* arrays and preg_freer/iq_freer arrive -1-initialised (the
 * _UNSET sentinel; the witness first-binding guard matches the Python
 * `== -1` checks).
 * Returns 0 ok, 1 deadlock, 2 runaway, -1 allocation failure; out[0] =
 * total cycles, out[1] = cycle and out[2] = committed at failure. */

#define HINT(h) do { int64_t _h = (h); \
    if (_h > cycle && _h < hint) hint = _h; } while (0)

int repro_sim_timing(
    const int64_t *cfg,
    const int8_t *opclass, const int8_t *som, const int64_t *pc,
    const int64_t *macro_last,
    const int64_t *p0, const int64_t *p1,
    const int64_t *a0, const int64_t *a1,
    const int64_t *store_barrier, const int64_t *line_sharer,
    const int8_t *mispredicted, const int8_t *needs_reg,
    const int64_t *exec_lat, const int64_t *fetch_lat,
    const int64_t *dtlb_lat, const int64_t *agu_lat,
    const int8_t *is_demand, const int8_t *prod_opt,
    int64_t *t_fetch, int64_t *t_ic, int64_t *t_rename,
    int64_t *t_dispatch, int64_t *t_ready, int64_t *t_issue,
    int64_t *t_complete, int64_t *t_commit,
    int64_t *preg_freer, int64_t *iq_freer,
    int64_t *out)
{
    int64_t n = cfg[0];
    const int64_t fetch_width = cfg[1], rename_width = cfg[2];
    const int64_t dispatch_width = cfg[3], issue_width = cfg[4];
    const int64_t commit_width = cfg[5];
    const int64_t fb_cap = cfg[6], decode_depth = cfg[7];
    const int64_t rob_cap = cfg[8], iq_cap = cfg[9], lsq_cap = cfg[10];
    const int64_t mshr_cap = cfg[17], misp_penalty = cfg[18];
    /* fu id per op class: 0 base, 1 long, 2 fp, 3 load, 4 store
     * (INT_ALU, INT_MUL, INT_DIV, FP_ADD, FP_MUL, FP_DIV, LOAD, STORE,
     *  BRANCH, NOP) */
    static const int FU_OF[10] = {0, 1, 1, 2, 2, 2, 3, 4, 0, 0};
    int64_t fu_count[5];
    fu_count[0] = cfg[12]; fu_count[1] = cfg[13]; fu_count[2] = cfg[14];
    fu_count[3] = cfg[15]; fu_count[4] = cfg[16];
    const int64_t n_long = cfg[13], n_fp = cfg[14];

    /* scratch: fetch buffer ring, rename-out ring, ROB ring, IQ list,
     * divider pipes, MSHR list, store sequence list, gating flags */
    int64_t *fb = (int64_t *)malloc((size_t)(fb_cap) * sizeof(int64_t));
    int64_t *ren = (int64_t *)malloc((size_t)(rob_cap) * sizeof(int64_t));
    int64_t *rob = (int64_t *)malloc((size_t)(rob_cap) * sizeof(int64_t));
    int64_t *iq = (int64_t *)malloc((size_t)(iq_cap) * sizeof(int64_t));
    int64_t *long_busy = (int64_t *)calloc((size_t)n_long, sizeof(int64_t));
    int64_t *fp_busy = (int64_t *)calloc((size_t)n_fp, sizeof(int64_t));
    int64_t *mshr = (int64_t *)malloc((size_t)mshr_cap * sizeof(int64_t));
    int64_t *store_seqs = (int64_t *)malloc((size_t)(n + 1) * sizeof(int64_t));
    int8_t *gated_opt = (int8_t *)calloc((size_t)n, 1);
    if (!fb || !ren || !rob || !iq || !long_busy || !fp_busy || !mshr
        || !store_seqs || !gated_opt) {
        free(fb); free(ren); free(rob); free(iq); free(long_busy);
        free(fp_busy); free(mshr); free(store_seqs); free(gated_opt);
        return -1;
    }
    int64_t fb_head = 0, fb_n = 0;
    int64_t ren_head = 0, ren_n = 0;
    int64_t rob_head = 0, rob_n = 0;
    int64_t iq_n = 0, mshr_n = 0;

    int64_t n_stores = 0;
    for (int64_t i = 0; i < n; i++)
        if (opclass[i] == 7) store_seqs[n_stores++] = i;
    int64_t store_idx = 0;
    int64_t store_ptr = n_stores ? store_seqs[0] : n;

    int64_t next_fetch = 0;
    int64_t current_line = I64_MIN;
    int64_t pending_line = 0;
    int have_pending = 0;
    int64_t line_ready = 0, fetch_stall_until = 0;
    int64_t blocked_branch = -1;
    int64_t free_regs = cfg[11];
    int64_t reg_waiter = -1, iq_waiter = -1;
    int64_t lsq_occ = 0;
    int64_t committed = 0;

    int64_t cycle = 0, guard = 0;
    const int64_t limit = 2000 * n + 100000;
    int rc = 0;

    while (committed < n) {
        int64_t hint = I64_MAX;
        int progress = 0;

        /* ---- commit ---- */
        {
            int64_t budget = commit_width;
            while (rob_n > 0 && budget > 0) {
                int64_t head = rob[rob_head];
                int64_t done = t_complete[head];
                if (done < 0 || done > cycle - 1) {
                    if (done >= 0) HINT(done + 1);
                    break;
                }
                if (som[head]) {
                    int blocked = 0;
                    int64_t gate = -1;
                    for (int64_t m = head; m <= macro_last[head]; m++) {
                        int64_t md = t_complete[m];
                        if (md < 0 || md > cycle - 1) {
                            blocked = 1;
                            if (md >= 0) gate = md + 1;
                            break;
                        }
                    }
                    if (blocked) {
                        if (gate >= 0) HINT(gate);
                        break;
                    }
                }
                rob_head = (rob_head + 1) % rob_cap;
                rob_n--;
                t_commit[head] = cycle;
                committed++;
                budget--;
                progress = 1;
                if (needs_reg[head]) {  /* frees_reg == needs_reg */
                    free_regs++;
                    if (reg_waiter >= 0) {
                        preg_freer[reg_waiter] = head;
                        reg_waiter = -1;
                    }
                }
                if (opclass[head] == 6 || opclass[head] == 7) lsq_occ--;
            }
        }

        /* ---- issue ---- */
        {
            int64_t budget = issue_width;
            int64_t issued_cls[5] = {0, 0, 0, 0, 0};
            int64_t first_issued = -1, first_preferred = -1;
            int any_issued = 0;
            int64_t w = 0;
            for (int64_t k = 0; k < iq_n; k++) {
                int64_t s = iq[k];
                if (budget <= 0) { iq[w++] = s; continue; }
                int8_t oc = opclass[s];
                int64_t ready = t_ready[s];
                if (ready < 0) {
                    /* readiness: address path first, then data
                     * producers, then the line-share merge bound */
                    int64_t rdy = t_dispatch[s] + 1;
                    int gated = 0, unknown = 0;
                    if (oc == 6 || oc == 7) {
                        int64_t ar1 = rdy;
                        int64_t ap[2]; ap[0] = a0[s]; ap[1] = a1[s];
                        for (int j = 0; j < 2 && !unknown; j++) {
                            int64_t prod = ap[j];
                            if (prod < 0) continue;
                            int64_t done = t_complete[prod];
                            if (done < 0) { unknown = 1; break; }
                            if (done >= ar1) {
                                ar1 = done;
                                gated = gated || prod_opt[prod];
                            }
                        }
                        rdy = ar1 + agu_lat[s] + dtlb_lat[s];
                    }
                    if (!unknown) {
                        int64_t dp[2]; dp[0] = p0[s]; dp[1] = p1[s];
                        for (int j = 0; j < 2 && !unknown; j++) {
                            int64_t prod = dp[j];
                            if (prod < 0) continue;
                            int64_t done = t_complete[prod];
                            if (done < 0) { unknown = 1; break; }
                            if (done >= rdy) {
                                rdy = done;
                                gated = gated || prod_opt[prod];
                            }
                        }
                    }
                    if (!unknown && oc == 6 && line_sharer[s] >= 0) {
                        int64_t si = t_issue[line_sharer[s]];
                        if (si < 0) unknown = 1;
                        else if (si > rdy) rdy = si;
                    }
                    if (unknown) { iq[w++] = s; continue; }
                    gated_opt[s] = (int8_t)gated;
                    ready = rdy;
                    t_ready[s] = ready;
                }
                if (ready > cycle) { HINT(ready); iq[w++] = s; continue; }
                int fu = FU_OF[oc];
                int64_t avail = fu_count[fu] - issued_cls[fu];
                if (fu == 1 || fu == 2) {
                    int64_t *units = (fu == 1) ? long_busy : fp_busy;
                    int64_t nu = (fu == 1) ? n_long : n_fp;
                    int64_t busy = 0, min_busy = I64_MAX;
                    for (int64_t u = 0; u < nu; u++) {
                        if (units[u] > cycle) {
                            busy++;
                            if (units[u] < min_busy) min_busy = units[u];
                        }
                    }
                    avail -= busy;
                    if (busy) HINT(min_busy);
                }
                if (avail <= 0) { iq[w++] = s; continue; }
                if (oc == 7 && s != store_ptr) { iq[w++] = s; continue; }
                if (oc == 6 && store_ptr <= store_barrier[s]) {
                    iq[w++] = s; continue;
                }
                if (is_demand[s]) {
                    int64_t mw = 0, mmin = I64_MAX;
                    for (int64_t m = 0; m < mshr_n; m++) {
                        if (mshr[m] > cycle) {
                            mshr[mw++] = mshr[m];
                            if (mshr[m] < mmin) mmin = mshr[m];
                        }
                    }
                    mshr_n = mw;
                    if (mshr_n >= mshr_cap) {
                        HINT(mmin);
                        iq[w++] = s;
                        continue;
                    }
                }
                /* issue now */
                t_issue[s] = cycle;
                int64_t el = exec_lat[s];
                if (el < 1) el = 1;
                int64_t completion = cycle + el;
                if (oc == 6 && line_sharer[s] >= 0
                    && t_complete[line_sharer[s]] > completion)
                    completion = t_complete[line_sharer[s]];
                t_complete[s] = completion;
                issued_cls[fu]++;
                budget--;
                progress = 1;
                any_issued = 1;
                if (first_issued < 0) first_issued = s;
                if (gated_opt[s] && first_preferred < 0) first_preferred = s;
                if (is_demand[s]) mshr[mshr_n++] = completion;
                if (oc == 2 || oc == 5) {  /* INT_DIV / FP_DIV */
                    int64_t *units = (fu == 1) ? long_busy : fp_busy;
                    int64_t nu = (fu == 1) ? n_long : n_fp;
                    int64_t slot = 0;
                    for (int64_t u = 1; u < nu; u++)
                        if (units[u] < units[slot]) slot = u;
                    units[slot] = completion;
                }
                if (oc == 7) {
                    store_idx++;
                    store_ptr = (store_idx < n_stores)
                        ? store_seqs[store_idx] : n;
                }
            }
            iq_n = w;
            if (any_issued && iq_waiter >= 0) {
                if (iq_freer[iq_waiter] == -1)
                    iq_freer[iq_waiter] =
                        (first_preferred >= 0) ? first_preferred
                                               : first_issued;
                iq_waiter = -1;
            }
        }

        /* ---- dispatch ---- */
        {
            int64_t budget = dispatch_width;
            while (ren_n > 0 && budget > 0) {
                int64_t s = ren[ren_head];
                if (t_rename[s] + 1 > cycle) {
                    HINT(t_rename[s] + 1);
                    break;
                }
                if (iq_n >= iq_cap) {
                    if (iq_freer[s] == -1 && iq_waiter < 0) iq_waiter = s;
                    break;
                }
                int ismem = (opclass[s] == 6 || opclass[s] == 7);
                if (ismem && lsq_occ >= lsq_cap) break;
                ren_head = (ren_head + 1) % rob_cap;
                ren_n--;
                t_dispatch[s] = cycle;
                iq[iq_n++] = s;
                if (ismem) lsq_occ++;
                budget--;
                progress = 1;
            }
        }

        /* ---- rename ---- */
        {
            int64_t budget = rename_width;
            while (fb_n > 0 && budget > 0) {
                int64_t s = fb[fb_head];
                int64_t decode_done = t_ic[s] + decode_depth;
                if (decode_done > cycle) {
                    HINT(decode_done);
                    break;
                }
                if (rob_n >= rob_cap) break;
                if (needs_reg[s] && free_regs <= 0) {
                    if (reg_waiter < 0) reg_waiter = s;
                    break;
                }
                fb_head = (fb_head + 1) % fb_cap;
                fb_n--;
                t_rename[s] = cycle;
                rob[(rob_head + rob_n) % rob_cap] = s;
                rob_n++;
                if (needs_reg[s]) free_regs--;
                ren[(ren_head + ren_n) % rob_cap] = s;
                ren_n++;
                budget--;
                progress = 1;
            }
        }

        /* ---- fetch ---- */
        if (next_fetch < n) {
            int skip = 0;
            if (blocked_branch >= 0) {
                int64_t done = t_complete[blocked_branch];
                if (done < 0) skip = 1;  /* redirect not resolved: no hints */
                else {
                    fetch_stall_until = done + misp_penalty;
                    blocked_branch = -1;
                }
            }
            if (!skip && cycle < fetch_stall_until) {
                HINT(fetch_stall_until);
                skip = 1;
            }
            if (!skip && have_pending) {
                if (cycle < line_ready) {
                    HINT(line_ready);
                    skip = 1;
                } else {
                    current_line = pending_line;
                    have_pending = 0;
                }
            }
            if (!skip) {
                int64_t budget = fetch_width;
                while (budget > 0 && next_fetch < n && fb_n < fb_cap) {
                    int64_t s = next_fetch;
                    int64_t line = pc[s] >> 6;  /* fixed 64-byte lines */
                    if (line != current_line) {
                        pending_line = line;
                        have_pending = 1;
                        int64_t fl = fetch_lat[s];
                        if (fl < 1) fl = 1;
                        line_ready = cycle + fl;
                        fetch_stall_until = line_ready;
                        t_fetch[s] = cycle;
                        progress = 1;
                        HINT(line_ready);
                        break;
                    }
                    if (t_fetch[s] < 0) t_fetch[s] = cycle;
                    t_ic[s] = cycle;
                    fb[(fb_head + fb_n) % fb_cap] = s;
                    fb_n++;
                    next_fetch++;
                    budget--;
                    progress = 1;
                    if (mispredicted[s]) {
                        blocked_branch = s;
                        break;
                    }
                }
            }
        }

        if (progress) {
            cycle++;
            guard = 0;
        } else if (hint != I64_MAX) {
            cycle = hint;
        } else {
            cycle++;
            guard++;
            if (guard > 100) { rc = 1; break; }
        }
        if (cycle > limit) { rc = 2; break; }
    }

    out[0] = (rc == 0) ? t_commit[n - 1] : 0;
    out[1] = cycle;
    out[2] = committed;
    free(fb); free(ren); free(rob); free(iq); free(long_busy);
    free(fp_busy); free(mshr); free(store_seqs); free(gated_opt);
    return rc;
}
"""


class NativeSim:
    """ctypes wrapper around the compiled simulator kernels."""

    def __init__(self, lib: ctypes.CDLL) -> None:
        prepass = lib.repro_sim_prepass
        prepass.restype = ctypes.c_int
        prepass.argtypes = [ctypes.c_void_p] * 34
        timing = lib.repro_sim_timing
        timing.restype = ctypes.c_int
        timing.argtypes = [ctypes.c_void_p] * 30
        self._prepass = prepass
        self._timing = timing

    def run_prepass(self, arrays) -> None:
        """Invoke ``repro_sim_prepass``; *arrays* is the ordered list of
        int64/int8 numpy arrays matching the C signature."""
        rc = self._prepass(*[a.ctypes.data for a in arrays])
        if rc != 0:
            raise MemoryError("native prepass allocation failed")

    def run_timing(self, arrays) -> Tuple[int, int, int]:
        """Invoke ``repro_sim_timing``; returns (rc, cycle, committed)."""
        rc = self._timing(*[a.ctypes.data for a in arrays])
        out = arrays[-1]
        return rc, int(out[1]), int(out[2])


def load_native_sim() -> Optional[NativeSim]:
    """The compiled simulator, or ``None`` when unavailable.

    Gated by ``REPRO_NATIVE`` exactly like the reduction kernel (see
    :func:`repro.core.native.load_gated`): ``0`` disables, ``1`` makes
    failure an error.
    """
    return load_gated(
        "simulator",
        lambda: NativeSim(
            ctypes.CDLL(compile_shared_library("simulator", _C_SOURCE))
        ),
    )


def resolve_native(native: Optional[bool]) -> Optional[NativeSim]:
    """Resolve a ``native`` tri-state (None=auto, False=off, True=must).

    Returns the loaded kernel or ``None``; raises when *native* is True
    but the kernel is unavailable (including under ``REPRO_NATIVE=0``).
    """
    if native is False:
        return None
    sim = load_native_sim()
    if sim is None and native is True:
        raise RuntimeError(
            "native simulator explicitly requested but unavailable "
            "(no compiler, build failure, or REPRO_NATIVE=0)"
        )
    return sim


# ----------------------------------------------------------------------
# packing
# ----------------------------------------------------------------------


@dataclass
class PackedWorkload:
    """Flat array view of a workload (the C kernels' input format)."""

    n: int
    pc: np.ndarray          # int64
    mem: np.ndarray         # int64, -1 for non-memory µops
    opclass: np.ndarray     # int8
    som: np.ndarray         # int8
    taken: np.ndarray       # int8
    dst: np.ndarray         # int64, -1 when no destination
    src0: np.ndarray        # int64, -1 sentinels
    src1: np.ndarray
    asrc0: np.ndarray
    asrc1: np.ndarray
    n_src: np.ndarray       # int8: len(src_regs)
    n_asrc: np.ndarray      # int8: len(addr_src_regs)
    macro_last: np.ndarray  # int64
    is_branch: np.ndarray   # int8


def _first_two(indptr: np.ndarray, values: np.ndarray):
    """First and second entry of each CSR row (-1 where absent), and
    the row lengths."""
    counts = np.diff(indptr)
    padded = np.append(values, -1)
    starts = indptr[:-1]
    first = np.where(counts > 0, padded[starts], -1)
    second = np.where(
        counts > 1, padded[np.minimum(starts + 1, len(values))], -1
    )
    return first, second, counts.astype(np.int8)


def pack_workload(workload: Workload) -> PackedWorkload:
    """Derive the C kernels' flat arrays from *workload*'s columns.

    Raises :class:`UnsupportedWorkloadError` when the stream cannot be
    expressed (callers treat that as "use the Python path").
    """
    cols = workload.columns
    n = cols.n
    if (np.diff(cols.asrc_indptr) > 2).any():
        raise UnsupportedWorkloadError(
            "packed format supports at most two address sources"
        )
    src0, src1, n_src = _first_two(cols.src_indptr, cols.src_values)
    asrc0, asrc1, n_asrc = _first_two(cols.asrc_indptr, cols.asrc_values)
    pc = cols.pc
    mem = cols.mem_addr
    dst = cols.dst_reg
    if pc.min(initial=0) < 0 or mem.min(initial=-1) < -1:
        raise UnsupportedWorkloadError("negative pc/address")
    for regs in (dst, src0, src1, asrc0, asrc1):
        if regs.max(initial=-1) >= MAX_REGS:
            raise UnsupportedWorkloadError(
                f"register ids must be below {MAX_REGS}"
            )
    opclass = cols.opclass.astype(np.int8)
    # Macro-ops are contiguous: the last µop of each macro is the one
    # before the next SoM (or the end of the stream).
    heads = np.flatnonzero(cols.som)
    macro_last = (np.append(heads[1:], n) - 1)[np.cumsum(cols.som) - 1]
    return PackedWorkload(
        n=n, pc=pc, mem=mem, opclass=opclass,
        som=cols.som.astype(np.int8), taken=cols.taken.astype(np.int8),
        dst=dst, src0=src0, src1=src1, asrc0=asrc0, asrc1=asrc1,
        n_src=n_src, n_asrc=n_asrc, macro_last=macro_last,
        is_branch=(opclass == int(OpClass.BRANCH)).astype(np.int8),
    )


@dataclass
class PackedPrepass:
    """The compiled pre-pass outcome (the compiled timing loop's input).

    Read-only once built: every timing run over it allocates its own
    timestamp and witness arrays.
    """

    workload: PackedWorkload
    fetch_level: np.ndarray    # int8: 0 = no new line, else AccessLevel
    itlb_miss: np.ndarray      # int8
    mispredicted: np.ndarray   # int8
    dtlb_miss: np.ndarray      # int8
    data_level: np.ndarray     # int8: loads only, else 0
    p0: np.ndarray             # int64 producer seqs (-1 sentinels)
    p1: np.ndarray
    a0: np.ndarray
    a1: np.ndarray
    store_barrier: np.ndarray  # int64
    line_sharer: np.ndarray    # int64
    needs_reg: np.ndarray      # int8
    stats: Dict[str, int]      # functional counters (cache/TLB/branch)


# ----------------------------------------------------------------------
# native functional pre-pass
# ----------------------------------------------------------------------


def _shift_of(nbytes: int) -> int:
    return nbytes.bit_length() - 1


def _warm_flags(stream: Workload, pw: PackedWorkload, config):
    """Vectorised replica of ``prepass._warm_structures`` gating.

    Returns six int8 arrays over the warm stream: warm the ITLB / L1I /
    L2 (code side) and DTLB / L1D / L2 (data side) for each µop.  The
    line-granularity and the predictor training stay in C; only the
    footprint-fits-level decision is precomputed here.
    """
    from repro.simulator.prepass import (
        _declared_footprint,
        _observed_footprint,
    )
    from repro.workloads.phased import CODE_REGION_BYTES, DATA_REGION_BYTES

    default_data_fp = _declared_footprint(stream, "working_set_bytes")
    if default_data_fp is None:
        default_data_fp = _observed_footprint(stream, data_side=True)
    default_code_fp = _declared_footprint(stream, "code_footprint_bytes")
    if default_code_fp is None:
        default_code_fp = _observed_footprint(stream, data_side=False)

    params = dict(stream.params)
    phase_data_fps = params.get("phase_data_footprints")
    phase_code_fps = params.get("phase_code_footprints")

    n = pw.n
    if phase_code_fps:
        table = np.asarray(
            list(phase_code_fps) + [default_code_fp], np.int64
        )
        region = pw.pc // CODE_REGION_BYTES
        region = np.where(
            (region >= 0) & (region < len(phase_code_fps)),
            region,
            len(phase_code_fps),
        )
        code_fp = table[region]
    else:
        code_fp = np.full(n, default_code_fp, np.int64)
    if phase_data_fps:
        has_mem = pw.mem >= 0
        if not has_mem.any():
            raise ValueError("phased workload without memory accesses")
        base = int(pw.mem[has_mem].min()) // DATA_REGION_BYTES
        table = np.asarray(
            list(phase_data_fps) + [default_data_fp], np.int64
        )
        region = pw.mem // DATA_REGION_BYTES - base
        region = np.where(
            (region >= 0) & (region < len(phase_data_fps)),
            region,
            len(phase_data_fps),
        )
        data_fp = table[region]
    else:
        data_fp = np.full(n, default_data_fp, np.int64)

    itlb_reach = config.itlb.entries * config.itlb.page_bytes
    dtlb_reach = config.dtlb.entries * config.dtlb.page_bytes
    return (
        (code_fp <= itlb_reach).astype(np.int8),
        (code_fp <= config.l1i.size_bytes).astype(np.int8),
        (code_fp <= config.l2.size_bytes).astype(np.int8),
        (data_fp <= dtlb_reach).astype(np.int8),
        (data_fp <= config.l1d.size_bytes).astype(np.int8),
        (data_fp <= config.l2.size_bytes).astype(np.int8),
    )


_STATS_KEYS = (
    "l1i_hits", "l1i_misses", "l1d_hits", "l1d_misses",
    "l2_hits", "l2_misses", "itlb_misses", "dtlb_misses",
    "branch_mispredictions",
)

_EMPTY_INT8 = np.zeros(0, np.int8)
_EMPTY_INT64 = np.zeros(0, np.int64)


def _run_native_prepass(
    workload: Workload,
    config: MicroarchConfig,
    warm_caches: bool,
    warm_stream: Optional[Workload],
    predictor_extra_stream: Optional[Workload],
    sim: NativeSim,
):
    """Invoke the compiled pre-pass.

    Raises :class:`UnsupportedWorkloadError` when the workload cannot
    be packed.
    """
    pw = pack_workload(workload)
    n = pw.n

    if warm_caches:
        warm = warm_stream or workload
        wp = pack_workload(warm) if warm is not workload else pw
        flags = _warm_flags(warm, wp, config)
        wn = wp.n
        warm_arrays = (wp.pc, wp.mem, wp.is_branch, wp.taken) + flags
    else:
        wn = 0
        warm_arrays = (
            _EMPTY_INT64, _EMPTY_INT64, _EMPTY_INT8, _EMPTY_INT8,
            _EMPTY_INT8, _EMPTY_INT8, _EMPTY_INT8,
            _EMPTY_INT8, _EMPTY_INT8, _EMPTY_INT8,
        )
    if predictor_extra_stream is not None:
        ep = pack_workload(predictor_extra_stream)
        branches = ep.is_branch != 0
        epc = np.ascontiguousarray(ep.pc[branches])
        etaken = np.ascontiguousarray(ep.taken[branches])
    else:
        epc, etaken = _EMPTY_INT64, _EMPTY_INT8
    en = len(epc)

    core = config.core
    pred_kind = _PREDICTOR_KINDS[core.branch_predictor]
    cfg = np.array(
        [
            n, wn, en,
            config.l1i.num_sets, config.l1i.associativity,
            _shift_of(config.l1i.line_bytes),
            config.l1d.num_sets, config.l1d.associativity,
            _shift_of(config.l1d.line_bytes),
            config.l2.num_sets, config.l2.associativity,
            _shift_of(config.l2.line_bytes),
            config.itlb.entries, _shift_of(config.itlb.page_bytes),
            config.dtlb.entries, _shift_of(config.dtlb.page_bytes),
            pred_kind, core.branch_predictor_entries - 1,
            (1 << _GSHARE_HISTORY_BITS) - 1,
            _PREFETCHER_KINDS[config.prefetcher], _STRIDE_TABLE_ENTRIES,
            # LINE_SHARE_WINDOW (imported lazily to avoid a cycle)
            64,
        ],
        np.int64,
    )
    from repro.simulator.prepass import LINE_SHARE_WINDOW

    cfg[21] = LINE_SHARE_WINDOW

    fetch_level = np.zeros(n, np.int8)
    itlb_miss = np.zeros(n, np.int8)
    mispredicted = np.zeros(n, np.int8)
    dtlb_miss = np.zeros(n, np.int8)
    data_level = np.zeros(n, np.int8)
    p0 = np.full(n, -1, np.int64)
    p1 = np.full(n, -1, np.int64)
    a0 = np.full(n, -1, np.int64)
    a1 = np.full(n, -1, np.int64)
    store_barrier = np.full(n, -1, np.int64)
    line_sharer = np.full(n, -1, np.int64)
    stats_out = np.zeros(9, np.int64)

    sim.run_prepass(
        [
            cfg,
            pw.pc, pw.mem, pw.opclass, pw.taken,
            pw.dst, pw.src0, pw.src1, pw.asrc0, pw.asrc1,
            *warm_arrays,
            epc, etaken,
            fetch_level, itlb_miss, mispredicted, dtlb_miss, data_level,
            p0, p1, a0, a1, store_barrier, line_sharer,
            stats_out,
        ]
    )

    return PackedPrepass(
        workload=pw, fetch_level=fetch_level, itlb_miss=itlb_miss,
        mispredicted=mispredicted, dtlb_miss=dtlb_miss,
        data_level=data_level, p0=p0, p1=p1, a0=a0, a1=a1,
        store_barrier=store_barrier, line_sharer=line_sharer,
        needs_reg=(pw.dst >= 0).astype(np.int8),
        stats=dict(zip(_STATS_KEYS, stats_out.tolist())),
    )


def try_native_prepass(
    workload: Workload,
    config: MicroarchConfig,
    warm_caches: bool = True,
    warm_stream: Optional[Workload] = None,
    predictor_extra_stream: Optional[Workload] = None,
    native: Optional[bool] = None,
) -> Optional[PackedPrepass]:
    """Run the compiled pre-pass, or return ``None`` to fall back.

    Arguments mirror :func:`repro.simulator.prepass.run_prepass`;
    *native* is the usual tri-state (see :func:`resolve_native`).  The
    result is only ever priced by :func:`native_timing`.
    """
    if len(workload) == 0:
        raise ValueError("cannot simulate an empty workload")
    sim = resolve_native(native)
    if sim is None:
        return None
    try:
        return _run_native_prepass(
            workload, config, warm_caches, warm_stream,
            predictor_extra_stream, sim,
        )
    except UnsupportedWorkloadError:
        if native is True:
            raise
        return None


# ----------------------------------------------------------------------
# columnar trace assembly
# ----------------------------------------------------------------------

#: (exec_events (20, 3) int16, exec_len (20,) int64,
#:  fetch_events (8, 4) int16, fetch_len (8,) int64) — built once.
_CHARGE_TABLES = None


def _charge_tables():
    """Flat event-chain lookup tables for columnar charge assembly.

    Exec rows are keyed by opclass (0..9, stores and NOPs charge BASE)
    or ``16 + data_level`` for loads; fetch rows by ``fetch_level * 2 +
    itlb_miss`` with level 0 meaning "no new line opened".  Chains come
    from the same :func:`data_access_charge` / :func:`fetch_access_charge`
    constants the Python prepass charges, so columns and records carry
    identical event sequences by construction.
    """
    global _CHARGE_TABLES
    if _CHARGE_TABLES is not None:
        return _CHARGE_TABLES
    exec_events = np.zeros((20, 3), np.int16)
    exec_len = np.zeros(20, np.int64)
    base = EventType.BASE
    for oc in OpClass:
        event = EXEC_EVENT[oc]
        if oc in (OpClass.NOP, OpClass.STORE):
            event = base
        exec_events[int(oc), 0] = int(event)
        exec_len[int(oc)] = 1
    for level in (1, 2, 3):
        chain = data_access_charge(level, False)
        for slot, (event, _units) in enumerate(chain):
            exec_events[16 + level, slot] = int(event)
        exec_len[16 + level] = len(chain)
    fetch_events = np.zeros((8, 4), np.int16)
    fetch_len = np.zeros(8, np.int64)
    for level in (1, 2, 3):
        for miss in (0, 1):
            chain = fetch_access_charge(level, bool(miss))
            for slot, (event, _units) in enumerate(chain):
                fetch_events[level * 2 + miss, slot] = int(event)
            fetch_len[level * 2 + miss] = len(chain)
    _CHARGE_TABLES = (exec_events, exec_len, fetch_events, fetch_len)
    return _CHARGE_TABLES


def _producer_csr(counts: np.ndarray, first: np.ndarray, second: np.ndarray):
    """CSR-pack up to two producer seqs per µop (vectorised)."""
    counts = counts.astype(np.int64)
    indptr = np.zeros(len(counts) + 1, np.int64)
    np.cumsum(counts, out=indptr[1:])
    values = np.empty(int(indptr[-1]), np.int64)
    starts = indptr[:-1]
    has_one = counts >= 1
    values[starts[has_one]] = first[has_one]
    has_two = counts >= 2
    values[starts[has_two] + 1] = second[has_two]
    return indptr, values


def _trace_columns(
    pp: PackedPrepass,
    stamps,
    preg_freer: np.ndarray,
    iq_freer: np.ndarray,
) -> TraceColumns:
    """Assemble :class:`TraceColumns` straight from the C outcome arrays.

    Pure array work — no per-row Python objects anywhere.  The run's own
    timestamp and witness arrays become columns without a copy.
    """
    pw = pp.workload
    n = pw.n
    exec_tbl, exec_len_tbl, fetch_tbl, fetch_len_tbl = _charge_tables()

    opclass = pw.opclass.astype(np.int64)
    is_load = opclass == int(OpClass.LOAD)
    exec_key = np.where(is_load, pp.data_level.astype(np.int64) + 16, opclass)
    exec_len = exec_len_tbl[exec_key]
    exec_indptr = np.zeros(n + 1, np.int64)
    np.cumsum(exec_len, out=exec_indptr[1:])
    exec_events = exec_tbl[exec_key][
        np.arange(3) < exec_len[:, None]
    ]
    exec_units = np.ones(int(exec_indptr[-1]), np.int32)

    fetch_key = (
        pp.fetch_level.astype(np.int64) * 2 + pp.itlb_miss.astype(np.int64)
    )
    fetch_len = fetch_len_tbl[fetch_key]
    fetch_indptr = np.zeros(n + 1, np.int64)
    np.cumsum(fetch_len, out=fetch_indptr[1:])
    fetch_events = fetch_tbl[fetch_key][
        np.arange(4) < fetch_len[:, None]
    ]
    fetch_units = np.ones(int(fetch_indptr[-1]), np.int32)

    data_indptr, data_values = _producer_csr(pw.n_src, pp.p0, pp.p1)
    addr_indptr, addr_values = _producer_csr(pw.n_asrc, pp.a0, pp.a1)

    (
        t_fetch, t_rename, t_dispatch, t_ready, t_issue,
        t_complete, t_commit,
    ) = stamps
    return TraceColumns(
        n=n,
        dtlb_miss=pp.dtlb_miss != 0,
        mispredicted=pp.mispredicted != 0,
        store_barrier=np.where(is_load, pp.store_barrier, -1),
        line_sharer=pp.line_sharer,
        phys_reg_freer=preg_freer,
        iq_freer=iq_freer,
        t_fetch=t_fetch,
        t_rename=t_rename,
        t_dispatch=t_dispatch,
        t_ready=t_ready,
        t_issue=t_issue,
        t_complete=t_complete,
        t_commit=t_commit,
        exec_indptr=exec_indptr,
        exec_events=exec_events,
        exec_units=exec_units,
        fetch_indptr=fetch_indptr,
        fetch_events=fetch_events,
        fetch_units=fetch_units,
        data_indptr=data_indptr,
        data_values=data_values,
        addr_indptr=addr_indptr,
        addr_values=addr_values,
    )


# ----------------------------------------------------------------------
# native timing loop
# ----------------------------------------------------------------------


def _design_arrays(pp: PackedPrepass, config: MicroarchConfig):
    """Per-design latency/derived arrays for the timing kernel.

    Mirrors the TimingSimulator constructor: exec/fetch/DTLB/AGU
    latencies, the demand-miss MSHR mask, and the "producer result comes
    from an optimizable event" bias used by the IQ witness."""
    theta = np.asarray(config.latency.cycles, np.int64)
    oc = pp.workload.opclass
    exec_ids = np.asarray(
        [int(EXEC_EVENT[OpClass(k)]) for k in range(len(OpClass))],
        np.int64,
    )[oc]
    is_load = oc == int(OpClass.LOAD)
    is_store = oc == int(OpClass.STORE)
    dl = pp.data_level
    base = int(theta[EventType.BASE])

    load_lat = (
        theta[EventType.L1D]
        + np.where(dl >= 2, theta[EventType.L2D], 0)
        + np.where(dl >= 3, theta[EventType.MEM_D], 0)
    )
    exec_lat = np.where(
        is_load, load_lat, np.where(is_store, base, theta[exec_ids])
    ).astype(np.int64)

    fl = pp.fetch_level
    fetch_lat = np.where(
        fl > 0,
        pp.itlb_miss * theta[EventType.ITLB]
        + theta[EventType.L1I]
        + np.where(fl >= 2, theta[EventType.L2I], 0)
        + np.where(fl >= 3, theta[EventType.MEM_I], 0),
        0,
    ).astype(np.int64)

    dtlb_lat = (pp.dtlb_miss * theta[EventType.DTLB]).astype(np.int64)
    agu_lat = np.where(
        is_load, theta[EventType.LD], theta[EventType.ST]
    ).astype(np.int64)

    is_demand = (is_load & (pp.line_sharer < 0) & (dl >= 2)).astype(np.int8)

    load_opt = (
        (theta[EventType.L1D] > 1)
        | ((dl >= 2) & (theta[EventType.L2D] > 1))
        | ((dl >= 3) & (theta[EventType.MEM_D] > 1))
    )
    other_opt = (exec_ids != int(EventType.BASE)) & (theta[exec_ids] > 1)
    prod_opt = np.where(
        is_load, load_opt, np.where(is_store, False, other_opt)
    ).astype(np.int8)
    return exec_lat, fetch_lat, dtlb_lat, agu_lat, is_demand, prod_opt


def native_timing(
    workload: Workload, config: MicroarchConfig, pp: PackedPrepass
) -> SimResult:
    """Price a compiled pre-pass under *config* with the compiled loop.

    Each run starts from fresh timestamp and unbound (-1) witness
    arrays, so runs sharing *pp* are independent.  Failure modes mirror
    the Python loop (deadlock / runaway raise ``RuntimeError``).
    """
    sim = resolve_native(True)
    pw = pp.workload
    n = pw.n
    core = config.core
    exec_lat, fetch_lat, dtlb_lat, agu_lat, is_demand, prod_opt = (
        _design_arrays(pp, config)
    )
    theta = config.latency.cycles
    cfg = np.array(
        [
            n, core.fetch_width, core.rename_width, core.dispatch_width,
            core.issue_width, core.commit_width, core.fetch_buffer,
            core.decode_depth, core.rob_size, core.iq_size,
            core.lsq_size, core.phys_regs - 64, core.fu_base_alu,
            core.fu_long_alu, core.fu_fp, core.fu_load, core.fu_store,
            core.mshr_entries, theta[EventType.BR_MISP],
        ],
        np.int64,
    )
    t_fetch = np.full(n, -1, np.int64)
    t_ic = np.full(n, -1, np.int64)
    t_rename = np.full(n, -1, np.int64)
    t_dispatch = np.full(n, -1, np.int64)
    t_ready = np.full(n, -1, np.int64)
    t_issue = np.full(n, -1, np.int64)
    t_complete = np.full(n, -1, np.int64)
    t_commit = np.full(n, -1, np.int64)
    preg_freer = np.full(n, -1, np.int64)
    iq_freer = np.full(n, -1, np.int64)
    out = np.zeros(4, np.int64)

    rc, at_cycle, committed = sim.run_timing(
        [
            cfg,
            pw.opclass, pw.som, pw.pc, pw.macro_last,
            pp.p0, pp.p1, pp.a0, pp.a1,
            pp.store_barrier, pp.line_sharer,
            pp.mispredicted, pp.needs_reg,
            exec_lat, fetch_lat, dtlb_lat, agu_lat, is_demand, prod_opt,
            t_fetch, t_ic, t_rename, t_dispatch, t_ready, t_issue,
            t_complete, t_commit,
            preg_freer, iq_freer,
            out,
        ]
    )
    if rc == 1:
        raise RuntimeError(
            f"pipeline deadlock at cycle {at_cycle}, "
            f"{committed}/{n} committed"
        )
    if rc == 2:
        raise RuntimeError(
            f"runaway simulation: cycle {at_cycle} > "
            f"limit {2000 * n + 100000}"
        )
    if rc != 0:
        raise MemoryError("native timing allocation failed")
    stamps = (
        t_fetch, t_rename, t_dispatch, t_ready, t_issue,
        t_complete, t_commit,
    )
    stats = dict(pp.stats)
    stats["uops"] = n
    stats["macro_ops"] = workload.num_macro_ops
    return SimResult(
        workload=workload,
        config=config,
        cycles=int(out[0]),
        columns=_trace_columns(pp, stamps, preg_freer, iq_freer),
        stats=stats,
    )


def try_native_simulate(
    workload: Workload,
    config: MicroarchConfig,
    warm_caches: bool = True,
    native: Optional[bool] = None,
) -> Optional[SimResult]:
    """Compiled pre-pass + timing run, or ``None`` to fall back.

    This is the fast path for one-shot :func:`repro.simulator.simulate`
    calls: both C kernels run back to back and the result is assembled
    directly into :class:`TraceColumns` from the C outcome arrays.
    """
    pp = try_native_prepass(workload, config, warm_caches, native=native)
    if pp is None:
        return None
    return native_timing(workload, config, pp)
