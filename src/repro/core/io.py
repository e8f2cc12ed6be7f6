"""RpStacks model serialisation.

An :class:`~repro.core.model.RpStacksModel` is the distilled product of
an expensive simulation + analysis; a real exploration workflow archives
models per (workload, structure) and re-loads them for later sweeps.
Models serialise to a single ``.npz`` file: per-segment stack matrices,
the generating latency configuration, and the metadata needed to verify
compatibility at load time.
"""

from __future__ import annotations

import json
import pathlib
from typing import Union

import numpy as np

from repro.common.config import LatencyConfig
from repro.common.events import NUM_EVENTS
from repro.core.model import GenerationStats, RpStacksModel

#: Bumped whenever the on-disk layout changes.
FORMAT_VERSION = 2

#: Versions :func:`load_model` still understands (v1 lacked the full
#: generation-statistics record; those fields load as zero).
COMPATIBLE_VERSIONS = (1, 2)


class ModelFormatError(ValueError):
    """Raised when a file is not a compatible RpStacks model archive."""


def save_model(
    model: RpStacksModel, path: Union[str, pathlib.Path]
) -> pathlib.Path:
    """Write *model* to *path* (``.npz`` appended if missing).

    Returns the path actually written.
    """
    path = pathlib.Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    meta = {
        "format_version": FORMAT_VERSION,
        "num_events": NUM_EVENTS,
        "num_uops": model.num_uops,
        "num_segments": model.num_segments,
        "analysis_seconds": model.stats.analysis_seconds,
        "stats": {
            "nodes_visited": model.stats.nodes_visited,
            "candidate_stacks": model.stats.candidate_stacks,
            "reductions": model.stats.reductions,
            "extra": dict(model.stats.extra),
        },
    }
    arrays = {
        f"segment_{index:06d}": stacks
        for index, stacks in enumerate(model.segment_stacks)
    }
    arrays["baseline_cycles"] = np.asarray(
        model.baseline.cycles, dtype=np.int64
    )
    arrays["meta_json"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, **arrays)
    return path


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
        if meta.get("format_version") not in COMPATIBLE_VERSIONS:
            raise ModelFormatError(
                f"unsupported format version {meta.get('format_version')}"
            )
        if meta.get("num_events") != NUM_EVENTS:
            raise ModelFormatError(
                "event taxonomy mismatch: file has "
                f"{meta.get('num_events')} events, library has {NUM_EVENTS}"
            )
        segments = []
        for index in range(meta["num_segments"]):
            key = f"segment_{index:06d}"
            if key not in archive:
                raise ModelFormatError(f"missing segment array {key}")
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
