"""Simulation-result serialisation (the Fig 8b dynamic trace on disk).

A timing run is the expensive step of the whole pipeline; archiving its
result lets the graph/RpStacks stages (and any later re-analysis) run
without re-simulating.  The current format (version 3) is a compressed
``.npz`` holding the µop stream and the trace in **columnar** form —
the same struct-of-arrays/CSR layout :mod:`repro.simulator.columns`
keeps in memory — so saving and loading are array copies with no
per-µop Python encode/decode loops.  Its 36 columns are packed into one
member per dtype (four today), in the order a ``layout`` list in the
metadata gives, because opening a member and parsing its ``.npy``
header cost a load more than inflating the bytes.  This build reads
version 3 and nothing else: an archive of any other version is a
:class:`TraceFormatError` naming the file.

Only the *baseline* configuration's structure/latency identity is
stored, not Python objects, so archives are portable across sessions.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Dict, List, Optional, Union

import numpy as np

from repro.common.archive import json_object, read_npz, save_npz
from repro.common.config import (
    CacheConfig,
    CoreConfig,
    LatencyConfig,
    MicroarchConfig,
    TLBConfig,
)
from repro.isa.uop import Workload, WorkloadColumns
from repro.simulator.columns import TraceColumns
from repro.simulator.trace import SimResult

#: The one format :func:`save_result` writes and :func:`load_result`
#: reads.  The artifact cache folds it into its fingerprint, so a bump
#: orphans every cached trace rather than mis-serving it.
FORMAT_VERSION = 3

#: TraceColumns attribute -> column key, saved/loaded verbatim.
_TRACE_KEYS = (
    ("dtlb_miss", "rec_dtlb_miss"),
    ("mispredicted", "rec_mispredicted"),
    ("store_barrier", "rec_store_barrier"),
    ("line_sharer", "rec_line_sharer"),
    ("phys_reg_freer", "rec_phys_reg_freer"),
    ("iq_freer", "rec_iq_freer"),
    ("t_fetch", "rec_t_fetch"),
    ("t_rename", "rec_t_rename"),
    ("t_dispatch", "rec_t_dispatch"),
    ("t_ready", "rec_t_ready"),
    ("t_issue", "rec_t_issue"),
    ("t_complete", "rec_t_complete"),
    ("t_commit", "rec_t_commit"),
    ("exec_indptr", "rec_exec_indptr"),
    ("exec_events", "rec_exec_events"),
    ("exec_units", "rec_exec_units"),
    ("fetch_indptr", "rec_fetch_indptr"),
    ("fetch_events", "rec_fetch_events"),
    ("fetch_units", "rec_fetch_units"),
    ("data_indptr", "rec_data_indptr"),
    ("data_values", "rec_data_values"),
    ("addr_indptr", "rec_addr_indptr"),
    ("addr_values", "rec_addr_values"),
)

#: WorkloadColumns attribute -> column key.
_UOP_KEYS = (
    ("macro_id", "uop_macro_id"),
    ("som", "uop_som"),
    ("eom", "uop_eom"),
    ("opclass", "uop_opclass"),
    ("pc", "uop_pc"),
    ("dst_reg", "uop_dst_reg"),
    ("mem_addr", "uop_mem_addr"),
    ("taken", "uop_taken"),
    ("target_pc", "uop_target_pc"),
    ("src_indptr", "uop_src_indptr"),
    ("src_values", "uop_src_values"),
    ("asrc_indptr", "uop_asrc_indptr"),
    ("asrc_values", "uop_asrc_values"),
)


class TraceFormatError(ValueError):
    """Raised when a file is not a compatible trace archive."""


def _decode_param_value(value):
    """Undo JSON's tuple->list coercion in workload provenance params."""
    if isinstance(value, list):
        return tuple(_decode_param_value(item) for item in value)
    return value


def _encode_param_value(value):
    """JSON-stable encoding of a workload provenance param value."""
    if isinstance(value, tuple):
        return [_encode_param_value(item) for item in value]
    return value


def save_result(
    result: SimResult, path: Union[str, pathlib.Path]
) -> pathlib.Path:
    """Archive one simulation result at
    :func:`~repro.common.archive.normalise_archive_path` of *path*;
    returns the real path written."""
    workload = result.workload
    uop_cols = workload.columns
    trace_cols = result.columns

    columns = [
        (key, getattr(uop_cols, attr)) for attr, key in _UOP_KEYS
    ] + [(key, getattr(trace_cols, attr)) for attr, key in _TRACE_KEYS]
    blocks: Dict[str, List[np.ndarray]] = {}
    layout = []
    for key, column in columns:
        blocks.setdefault(column.dtype.name, []).append(column)
        layout.append([key, column.dtype.name, len(column)])
    meta = {
        "format_version": FORMAT_VERSION,
        "workload_name": workload.name,
        "workload_params": [[k, v] for k, v in workload.params],
        "cycles": result.cycles,
        "stats": result.stats,
        "config": config_to_dict(result.config),
        "layout": layout,
    }
    arrays = {dtype: np.concatenate(parts) for dtype, parts in blocks.items()}
    arrays["meta_json"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )
    return save_npz(path, arrays)


def result_digest(result: SimResult) -> str:
    """Canonical SHA-256 over every behaviour-bearing field of a run.

    Two results digest equally iff their workload streams, traces
    (charges, producers, witnesses, timestamps), cycle counts, stats
    and configurations are all value-identical — the oracle the
    native/Python differential and the determinism tests compare.  The
    digest is independent of *how* the result was produced (compiled or
    pure-Python path, fresh or loaded from an archive, in-process or
    worker pool): it hashes the canonical byte encoding of
    the column arrays, and equal values yield equal bytes by
    construction.
    """
    workload = result.workload
    header = {
        "workload_name": workload.name,
        "workload_params": [
            [k, _encode_param_value(v)] for k, v in workload.params
        ],
        "cycles": result.cycles,
        "stats": result.stats,
        "config": config_to_dict(result.config),
    }
    digest = hashlib.sha256()
    digest.update(b"repro-trace-digest-v2\x00")
    digest.update(
        json.dumps(header, sort_keys=True, separators=(",", ":")).encode(
            "utf-8"
        )
    )
    digest.update(workload.columns.canonical_bytes())
    digest.update(result.columns.canonical_bytes())
    return digest.hexdigest()


def load_result(
    path: Union[str, pathlib.Path], data: Optional[bytes] = None
) -> SimResult:
    """Load an archive written by :func:`save_result`, from *data* (the
    file's bytes, already read) when given.

    Raises:
        TraceFormatError: naming the file, when it is no trace archive
            of version :data:`FORMAT_VERSION` (a model archive, an
            archive of another version, one whose metadata is no JSON
            object or has a field of the wrong shape, a corrupt one, or
            no ``.npz`` archive at all).
    """
    path = pathlib.Path(path)
    members = read_npz(path, TraceFormatError, data)
    if "meta_json" not in members:
        raise TraceFormatError(f"{path} is not a trace archive")
    meta = json_object(members["meta_json"], path, TraceFormatError)
    version = meta.get("format_version")
    if version != FORMAT_VERSION:
        raise TraceFormatError(
            f"{path}: trace format version {version}; "
            f"this build reads version {FORMAT_VERSION}"
        )
    if "layout" not in meta:
        raise TraceFormatError(f"{path} has no trace layout")
    try:
        columns = _unpack(path, meta["layout"], members)
        uop_cols = WorkloadColumns(
            n=len(columns["uop_macro_id"]),
            **{attr: columns[key] for attr, key in _UOP_KEYS},
        )
        params = tuple(
            (k, _decode_param_value(v)) for k, v in meta["workload_params"]
        )
        return SimResult(
            workload=Workload.from_columns(
                meta["workload_name"], uop_cols, params
            ),
            config=config_from_dict(meta["config"]),
            cycles=int(meta["cycles"]),
            columns=TraceColumns(
                n=uop_cols.n,
                **{attr: columns[key] for attr, key in _TRACE_KEYS},
            ),
            stats=dict(meta["stats"]),
        )
    except TraceFormatError:
        raise
    except KeyError as missing:
        raise TraceFormatError(
            f"{path} is not a trace archive: it has no {missing}"
        ) from None
    except (TypeError, ValueError) as exc:
        raise TraceFormatError(
            f"{path} is not a trace archive: its metadata is malformed "
            f"({exc})"
        ) from None


def _unpack(path, layout, members) -> Dict[str, np.ndarray]:
    """Slice the per-dtype blocks back into named columns (views of the
    blocks, in ``layout`` order)."""
    blocks: Dict[str, np.ndarray] = {}
    ends: Dict[str, int] = {}
    columns = {}
    for key, dtype, length in layout:
        if dtype not in blocks:
            if dtype not in members:
                raise TraceFormatError(f"{path}: block {dtype} is missing")
            blocks[dtype] = members[dtype]
        start = ends.get(dtype, 0)
        ends[dtype] = start + length
        columns[key] = blocks[dtype][start:ends[dtype]]
    for dtype, block in blocks.items():
        if block.dtype.name != dtype or block.shape != (ends[dtype],):
            raise TraceFormatError(
                f"{path}: block {dtype} does not match its layout"
            )
    return columns


def config_to_dict(config: MicroarchConfig) -> dict:
    """Canonical JSON-ready encoding of a full design point.

    Used both by the trace archive metadata and by the runtime cache's
    fingerprinting, so any configuration field that can change simulated
    behaviour must appear here.
    """
    return {
        "core": {
            field: getattr(config.core, field)
            for field in CoreConfig.__dataclass_fields__
        },
        "l1i": [config.l1i.size_bytes, config.l1i.associativity,
                config.l1i.line_bytes],
        "l1d": [config.l1d.size_bytes, config.l1d.associativity,
                config.l1d.line_bytes],
        "l2": [config.l2.size_bytes, config.l2.associativity,
               config.l2.line_bytes],
        "itlb": [config.itlb.entries, config.itlb.page_bytes],
        "dtlb": [config.dtlb.entries, config.dtlb.page_bytes],
        "latency": list(config.latency.cycles),
        "prefetcher": config.prefetcher,
    }


def config_from_dict(data: dict) -> MicroarchConfig:
    """Inverse of :func:`config_to_dict`."""
    return MicroarchConfig(
        core=CoreConfig(**data["core"]),
        l1i=CacheConfig(*data["l1i"]),
        l1d=CacheConfig(*data["l1d"]),
        l2=CacheConfig(*data["l2"]),
        itlb=TLBConfig(*data["itlb"]),
        dtlb=TLBConfig(*data["dtlb"]),
        latency=LatencyConfig(tuple(data["latency"])),
        prefetcher=data["prefetcher"],
    )
