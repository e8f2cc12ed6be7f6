"""RpStacks model serialisation.

An :class:`~repro.core.model.RpStacksModel` is the distilled product of
an expensive simulation + analysis; a real exploration workflow archives
models per (workload, structure) and re-loads them for later sweeps.
Models serialise to a single ``.npz`` file: the stack matrices of every
segment, the generating latency configuration, and the metadata needed
to verify compatibility at load time.  Format 3 packs the segments into
one ``stacks`` member, split by the ``segment_sizes`` list of its
metadata.  This build reads format 3 and nothing else: an archive of
any other version is a :class:`ModelFormatError` naming the file.
"""

from __future__ import annotations

import json
import pathlib
from typing import Optional, Union

import numpy as np

from repro.common.archive import json_object, read_npz, save_npz
from repro.common.config import LatencyConfig
from repro.common.events import NUM_EVENTS
from repro.core.model import GenerationStats, RpStacksModel

#: The one format :func:`save_model` writes and :func:`load_model`
#: reads, bumped whenever the on-disk layout changes.  The artifact
#: cache folds it into its fingerprint, so a bump orphans every cached
#: model rather than mis-serving it.
FORMAT_VERSION = 3


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


def load_model(
    path: Union[str, pathlib.Path], data: Optional[bytes] = None
) -> RpStacksModel:
    """Load a model previously written by :func:`save_model`, from
    *data* (the file's bytes, already read) when given.

    Raises:
        ModelFormatError: naming the file, when it is no ``.npz``
            archive or a corrupt one, on metadata that is no JSON
            object, on missing keys, version or event-taxonomy
            mismatches (a model saved under a different event set
            cannot be re-priced safely), or stacks the model
            constructor rejects (entries that are not finite,
            non-negative integers).
    """
    path = pathlib.Path(path)
    members = read_npz(path, ModelFormatError, data)
    if "meta_json" not in members or "baseline_cycles" not in members:
        raise ModelFormatError(f"{path} is not an RpStacks model file")
    meta = json_object(members["meta_json"], path, ModelFormatError)
    version = meta.get("format_version")
    if version != FORMAT_VERSION:
        raise ModelFormatError(
            f"{path}: model format version {version}; "
            f"this build reads version {FORMAT_VERSION}"
        )
    if meta.get("num_events") != NUM_EVENTS:
        raise ModelFormatError(
            f"{path}: event taxonomy mismatch: file has "
            f"{meta.get('num_events')} events, library has {NUM_EVENTS}"
        )
    if "stacks" not in members:
        raise ModelFormatError(f"{path}: missing stacks array")
    try:
        saved_stats = meta["stats"]
        stats = GenerationStats(
            nodes_visited=int(saved_stats["nodes_visited"]),
            candidate_stacks=int(saved_stats["candidate_stacks"]),
            reductions=int(saved_stats["reductions"]),
            analysis_seconds=float(meta["analysis_seconds"]),
            extra={
                key: float(value)
                for key, value in saved_stats["extra"].items()
            },
        )
        sizes = meta["segment_sizes"]
        num_segments = meta["num_segments"]
        num_uops = int(meta["num_uops"])
    except KeyError as missing:
        raise ModelFormatError(
            f"{path} is not an RpStacks model file: it has no {missing}"
        ) from None
    stacks = np.asarray(members["stacks"], dtype=np.float64)
    if len(sizes) != num_segments or sum(sizes) != len(stacks):
        raise ModelFormatError(f"{path}: segment sizes do not match stacks")
    baseline = LatencyConfig(
        tuple(int(v) for v in members["baseline_cycles"])
    )
    try:
        return RpStacksModel(
            np.split(stacks, np.cumsum(sizes[:-1])),
            baseline=baseline,
            num_uops=num_uops,
            stats=stats,
        )
    except ValueError as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc
