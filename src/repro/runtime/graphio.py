"""Dependence-graph serialisation (``.npz``).

A public archive format for a dependence graph on its own.  The
artifact cache does not use it: a graph is a pure function of its trace,
and the columnar builder rebuilds it faster than this archive is read
back (see :mod:`repro.runtime.cache`).  The format stores the graph's
packed edge arrays — endpoints plus ``(num_edges, MAX_EDGE_EVENTS)``
event/unit matrices and per-edge charge lengths — exactly as
:meth:`DependenceGraph.from_packed` adopts them, so a round trip is
lossless and loading needs no per-edge Python loop.
"""

from __future__ import annotations

import json
import pathlib
from typing import Union

import numpy as np

from repro.graphmodel.graph import DependenceGraph

FORMAT_VERSION = 1


class GraphFormatError(ValueError):
    """Raised when a file is not a compatible graph archive."""


def save_graph(
    graph: DependenceGraph, path: Union[str, pathlib.Path]
) -> pathlib.Path:
    """Archive *graph* to *path* (``.npz`` appended if missing)."""
    path = pathlib.Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")

    meta = {
        "format_version": FORMAT_VERSION,
        "num_uops": graph.num_uops,
        "num_edges": graph.num_edges,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(
        path,
        edge_src=graph.edge_src,
        edge_dst=graph.edge_dst,
        charge_events=graph._events,
        charge_units=graph._units,
        charge_lengths=graph._charge_lengths,
        meta_json=np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8
        ),
    )
    return path


def load_graph(path: Union[str, pathlib.Path]) -> DependenceGraph:
    """Load a graph previously written by :func:`save_graph`."""
    path = pathlib.Path(path)
    with np.load(path, allow_pickle=False) as archive:
        if "meta_json" not in archive:
            raise GraphFormatError(f"{path} is not a graph archive")
        meta = json.loads(bytes(archive["meta_json"]).decode("utf-8"))
        if meta.get("format_version") != FORMAT_VERSION:
            raise GraphFormatError(
                f"unsupported format version {meta.get('format_version')}"
            )
        edge_src = archive["edge_src"]
        edge_dst = archive["edge_dst"]
        events = archive["charge_events"]
        units = archive["charge_units"]
        lengths = archive["charge_lengths"]

    if len(edge_src) != meta["num_edges"]:
        raise GraphFormatError(
            f"edge count mismatch: meta says {meta['num_edges']}, "
            f"file holds {len(edge_src)}"
        )
    return DependenceGraph.from_packed(
        num_uops=int(meta["num_uops"]),
        edge_src=edge_src,
        edge_dst=edge_dst,
        events=events,
        units=units,
        charge_lengths=lengths,
    )
