"""Simulation-result serialisation (the Fig 8b dynamic trace on disk).

A timing run is the expensive step of the whole pipeline; archiving its
result lets the graph/RpStacks stages (and any later re-analysis) run
without re-simulating.  The current format (version 2) is a compressed
``.npz`` holding the µop stream and the trace in **columnar** form —
the same struct-of-arrays/CSR layout :mod:`repro.simulator.columns`
keeps in memory — so saving and loading are array copies with no
per-µop Python encode/decode loops.  Version 1 archives (per-row JSON
ragged metadata) remain loadable bit-identically.

Only the *baseline* configuration's structure/latency identity is
stored, not Python objects, so archives are portable across sessions.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Union

import numpy as np

from repro.common.config import (
    CacheConfig,
    CoreConfig,
    LatencyConfig,
    MicroarchConfig,
    TLBConfig,
)
from repro.common.events import EventType
from repro.isa.uop import MicroOp, OpClass, Workload, WorkloadColumns
from repro.simulator.columns import (
    TIMESTAMP_COLUMNS,
    WITNESS_COLUMNS,
    TraceColumns,
)
from repro.simulator.trace import SimResult, UopTrace

#: Format written by :func:`save_result`.
FORMAT_VERSION = 2

#: Oldest format :func:`load_result` still reads.  The artifact cache
#: folds this (not the writer version) into its fingerprint, so bumping
#: the writer does not orphan cache entries that remain readable.
COMPAT_FORMAT_VERSION = 1

_TIMESTAMP_FIELDS = TIMESTAMP_COLUMNS
_WITNESS_FIELDS = WITNESS_COLUMNS

#: TraceColumns attribute -> archive key, saved/loaded verbatim.
_V2_TRACE_KEYS = (
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

#: WorkloadColumns attribute -> archive key.
_V2_UOP_KEYS = (
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


def _encode_charge(charge) -> list:
    return [[int(event), int(units)] for event, units in charge]


def _decode_charge(data) -> tuple:
    return tuple((EventType(event), units) for event, units in data)


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


def normalise_archive_path(path: Union[str, pathlib.Path]) -> pathlib.Path:
    """The actual on-disk path for a requested archive path.

    Archives are always ``.npz`` (that is what ``np.savez_compressed``
    produces), so the requested name is *normalised* rather than blindly
    suffixed:

    * ``trace.npz``    -> ``trace.npz``      (already correct)
    * ``trace``        -> ``trace.npz``      (extension added)
    * ``trace.dat``    -> ``trace.npz``      (extension replaced — the
      old behaviour silently produced ``trace.dat.npz``)
    * ``trace.npz.gz`` -> ``trace.npz``      (trailing decorations after
      ``.npz`` dropped — the old behaviour produced ``trace.npz.gz.npz``)
    """
    path = pathlib.Path(path)
    name = path.name
    if name.endswith(".npz"):
        return path
    if ".npz." in name:
        stem = name[: name.index(".npz.") + len(".npz")]
        return path.with_name(stem)
    if path.suffix:
        return path.with_suffix(".npz")
    return path.with_name(name + ".npz")


def save_result(
    result: SimResult, path: Union[str, pathlib.Path]
) -> pathlib.Path:
    """Archive one simulation result; returns the real path written."""
    path = normalise_archive_path(path)

    workload = result.workload
    uop_cols = workload.columns
    trace_cols = result.columns

    meta = {
        "format_version": FORMAT_VERSION,
        "workload_name": workload.name,
        "workload_params": [[k, v] for k, v in workload.params],
        "cycles": result.cycles,
        "stats": result.stats,
        "config": config_to_dict(result.config),
    }
    arrays = {key: getattr(uop_cols, attr) for attr, key in _V2_UOP_KEYS}
    arrays.update(
        {key: getattr(trace_cols, attr) for attr, key in _V2_TRACE_KEYS}
    )
    arrays["meta_json"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, **arrays)
    return path


def result_digest(result: SimResult) -> str:
    """Canonical SHA-256 over every behaviour-bearing field of a run.

    Two results digest equally iff their workload streams, traces
    (charges, producers, witnesses, timestamps), cycle counts, stats
    and configurations are all value-identical — the oracle the
    native/Python differential and the determinism tests compare.  The
    digest is independent of *how* the result was produced (compiled or
    pure-Python path, fresh or loaded from either archive format,
    in-process or worker pool): it hashes the canonical byte encoding of
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


def load_result(path: Union[str, pathlib.Path]) -> SimResult:
    """Load an archive written by :func:`save_result` (any readable
    format version — see :data:`COMPAT_FORMAT_VERSION`)."""
    path = pathlib.Path(path)
    with np.load(path, allow_pickle=False) as archive:
        if "meta_json" not in archive:
            raise TraceFormatError(f"{path} is not a trace archive")
        meta = json.loads(bytes(archive["meta_json"]).decode("utf-8"))
        version = meta.get("format_version")
        if version == 1:
            loader = _load_v1
        elif version == 2:
            loader = _load_v2
        else:
            raise TraceFormatError(
                f"{path}: unsupported trace format version {version} "
                f"(this build reads versions "
                f"{COMPAT_FORMAT_VERSION}..{FORMAT_VERSION})"
            )
        # Format-version observability: how often the compatibility
        # path (v1) still runs vs the columnar format (v2).
        from repro.obs.observer import get_observer

        get_observer().counter(f"traceio.loads.v{version}").inc()
        uop = {
            key[4:]: archive[key]
            for key in archive.files
            if key.startswith("uop_")
        }
        rec = {
            key[4:]: archive[key]
            for key in archive.files
            if key.startswith("rec_")
        }
    return loader(meta, uop, rec)


def _meta_workload_params(meta) -> tuple:
    return tuple(
        (k, _decode_param_value(v)) for k, v in meta["workload_params"]
    )


def _load_v2(meta, uop, rec) -> SimResult:
    """Columnar archive: adopt the arrays as the workload's columns."""
    uop_cols = WorkloadColumns(
        n=len(uop["macro_id"]), **{attr: uop[key[4:]] for attr, key in _V2_UOP_KEYS}
    )
    workload = Workload.from_columns(
        meta["workload_name"], uop_cols, _meta_workload_params(meta)
    )
    columns = TraceColumns(
        n=uop_cols.n, **{attr: rec[key[4:]] for attr, key in _V2_TRACE_KEYS}
    )
    return SimResult(
        workload=workload,
        config=config_from_dict(meta["config"]),
        cycles=int(meta["cycles"]),
        columns=columns,
        stats=dict(meta["stats"]),
    )


def _load_v1(meta, uop, rec) -> SimResult:
    """Legacy row-oriented archive (per-µop JSON ragged metadata)."""
    ragged = meta["ragged"]
    n = len(uop["macro_id"])
    uops = []
    for i in range(n):
        mem_addr = int(uop["mem_addr"][i])
        dst = int(uop["dst_reg"][i])
        uops.append(
            MicroOp(
                seq=i,
                macro_id=int(uop["macro_id"][i]),
                som=bool(uop["som"][i]),
                eom=bool(uop["eom"][i]),
                opclass=OpClass(int(uop["opclass"][i])),
                pc=int(uop["pc"][i]),
                src_regs=tuple(ragged["src_regs"][i]),
                dst_reg=None if dst < 0 else dst,
                mem_addr=None if mem_addr < 0 else mem_addr,
                addr_src_regs=tuple(ragged["addr_src_regs"][i]),
                taken=bool(uop["taken"][i]),
                target_pc=(
                    None
                    if int(uop["target_pc"][i]) < 0
                    else int(uop["target_pc"][i])
                ),
            )
        )
    workload = Workload(
        name=meta["workload_name"],
        uops=tuple(uops),
        params=_meta_workload_params(meta),
    )

    records = []
    for i in range(n):
        record = UopTrace(
            seq=i,
            exec_charge=_decode_charge(ragged["exec_charge"][i]),
            fetch_charge=_decode_charge(ragged["fetch_charge"][i]),
            dtlb_miss=bool(rec["dtlb_miss"][i]),
            mispredicted=bool(rec["mispredicted"][i]),
            data_producers=tuple(ragged["data_producers"][i]),
            addr_producers=tuple(ragged["addr_producers"][i]),
        )
        for field in _WITNESS_FIELDS + _TIMESTAMP_FIELDS:
            setattr(record, field, int(rec[field][i]))
        records.append(record)

    return SimResult(
        workload=workload,
        config=config_from_dict(meta["config"]),
        cycles=int(meta["cycles"]),
        columns=TraceColumns.from_records(records),
        stats=dict(meta["stats"]),
    )


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
    """Inverse of :func:`config_to_dict`.

    Archives written before the prefetcher field existed default it to
    ``"none"``, which is what they were simulated with.
    """
    return MicroarchConfig(
        core=CoreConfig(**data["core"]),
        l1i=CacheConfig(*data["l1i"]),
        l1d=CacheConfig(*data["l1d"]),
        l2=CacheConfig(*data["l2"]),
        itlb=TLBConfig(*data["itlb"]),
        dtlb=TLBConfig(*data["dtlb"]),
        latency=LatencyConfig(tuple(data["latency"])),
        prefetcher=data.get("prefetcher", "none"),
    )
