"""RpStacks model serialisation.

An :class:`~repro.core.model.RpStacksModel` is the distilled product of
an expensive simulation + analysis; a real exploration workflow archives
models per (workload, structure) and re-loads them for later sweeps.
Models serialise to a single ``.npz`` file: the stack matrices of every
segment, the generating latency configuration, and the metadata needed
to verify compatibility at load time.  Format 3 packs the segments into
one ``stacks`` member, split by the ``segment_sizes`` list of its
metadata; formats 1 and 2 (one ``segment_NNNNNN`` member per segment)
still load.
"""

from __future__ import annotations

import json
import pathlib
from typing import Union

import numpy as np

from repro.common.archive import save_npz
from repro.common.config import LatencyConfig
from repro.common.events import NUM_EVENTS
from repro.core.model import GenerationStats, RpStacksModel

#: Bumped whenever the on-disk layout changes.
FORMAT_VERSION = 3

#: Oldest format :func:`load_model` still reads (v1 lacked the full
#: generation-statistics record; those fields load as zero).  The
#: artifact cache folds this, not the writer version, into its
#: fingerprint.
COMPAT_FORMAT_VERSION = 1


class ModelFormatError(ValueError):
    """Raised when a file is not a compatible RpStacks model archive."""


def save_model(
    model: RpStacksModel, path: Union[str, pathlib.Path]
) -> pathlib.Path:
    """Write *model* at
    :func:`~repro.common.archive.normalise_archive_path` of *path*.

    Returns the path actually written.
    """
    meta = {
        "format_version": FORMAT_VERSION,
        "num_events": NUM_EVENTS,
        "num_uops": model.num_uops,
        "num_segments": model.num_segments,
        "segment_sizes": [len(stacks) for stacks in model.segment_stacks],
        "analysis_seconds": model.stats.analysis_seconds,
        "stats": {
            "nodes_visited": model.stats.nodes_visited,
            "candidate_stacks": model.stats.candidate_stacks,
            "reductions": model.stats.reductions,
            "extra": dict(model.stats.extra),
        },
    }
    arrays = {
        "stacks": np.vstack(model.segment_stacks),
        "baseline_cycles": np.asarray(model.baseline.cycles, dtype=np.int64),
        "meta_json": np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8
        ),
    }
    return save_npz(path, arrays)


def load_model(path: Union[str, pathlib.Path]) -> RpStacksModel:
    """Load a model previously written by :func:`save_model`.

    Raises:
        ModelFormatError: on missing keys, version or event-taxonomy
            mismatches (a model saved under a different event set cannot
            be re-priced safely), or stacks the model constructor rejects
            (entries that are not finite, non-negative integers).
    """
    path = pathlib.Path(path)
    with np.load(path) as archive:
        if "meta_json" not in archive or "baseline_cycles" not in archive:
            raise ModelFormatError(f"{path} is not an RpStacks model file")
        meta = json.loads(bytes(archive["meta_json"]).decode("utf-8"))
        version = meta.get("format_version")
        if version not in range(COMPAT_FORMAT_VERSION, FORMAT_VERSION + 1):
            raise ModelFormatError(
                f"{path}: unsupported format version {version}"
            )
        if meta.get("num_events") != NUM_EVENTS:
            raise ModelFormatError(
                f"{path}: event taxonomy mismatch: file has "
                f"{meta.get('num_events')} events, library has {NUM_EVENTS}"
            )
        if version >= 3:
            segments = _unpack_stacks(path, meta, archive)
        else:
            segments = []
            for index in range(meta["num_segments"]):
                key = f"segment_{index:06d}"
                if key not in archive:
                    raise ModelFormatError(
                        f"{path}: missing segment array {key}"
                    )
                segments.append(np.asarray(archive[key], dtype=np.float64))
        baseline = LatencyConfig(
            tuple(int(v) for v in archive["baseline_cycles"])
        )
    saved_stats = meta.get("stats", {})
    stats = GenerationStats(
        nodes_visited=int(saved_stats.get("nodes_visited", 0)),
        candidate_stacks=int(saved_stats.get("candidate_stacks", 0)),
        reductions=int(saved_stats.get("reductions", 0)),
        analysis_seconds=float(meta.get("analysis_seconds", 0.0)),
        extra={
            key: float(value)
            for key, value in saved_stats.get("extra", {}).items()
        },
    )
    try:
        return RpStacksModel(
            segments,
            baseline=baseline,
            num_uops=int(meta["num_uops"]),
            stats=stats,
        )
    except ValueError as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc


def _unpack_stacks(path, meta, archive) -> list:
    """Format 3's ``stacks`` member split into its segments (views)."""
    if "stacks" not in archive:
        raise ModelFormatError(f"{path}: missing stacks array")
    stacks = np.asarray(archive["stacks"], dtype=np.float64)
    sizes = meta["segment_sizes"]
    if len(sizes) != meta["num_segments"] or sum(sizes) != len(stacks):
        raise ModelFormatError(f"{path}: segment sizes do not match stacks")
    return np.split(stacks, np.cumsum(sizes[:-1]))
