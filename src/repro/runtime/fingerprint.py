"""Content-addressed fingerprints for analysis artifacts.

An :func:`repro.dse.pipeline.analyze` run is fully determined by the
workload stream, the microarchitecture configuration, the dependence
graph builder options, the RpStacks reduction policy (plus segmentation)
and the code version of the pipeline itself.  Hashing a canonical
encoding of exactly those inputs yields a key under which the run's
artifacts (trace and model; the graph is rebuilt from the trace) can
be stored and later reused — the
same cache-the-expensive-front-end pattern LightningSimV2 applies to
RTL simulation.

The hash is over *content*, not provenance: two workloads generated from
different specs that happen to produce the same µop stream share a key
(and can share a cache entry), while any single differing field —
another seed, one changed latency, a flipped reduction knob — produces a
different key.  Property-based tests in ``tests/runtime`` pin both
directions down.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Optional

from repro.common.config import MicroarchConfig
from repro.common.events import NUM_EVENTS
from repro.core import io as model_io
from repro.core.reduction import ReductionPolicy
from repro.graphmodel.builder import BuilderOptions
from repro.isa.uop import Workload
from repro.simulator import traceio
from repro.simulator.traceio import config_to_dict

#: Bump to invalidate every existing cache entry after a change to the
#: simulator, graph builder or generator that alters their outputs
#: without touching any fingerprinted input.
PIPELINE_EPOCH = 1


def code_version() -> str:
    """Version token folded into every fingerprint.

    Combines the pipeline epoch, the on-disk format compatibility floors
    and the event taxonomy size.  The trace and model components are
    each the *oldest readable* archive version, not the writer version:
    bumping a writer while keeping the old reader (as the v1->v2->v3
    trace and v2->v3 model transitions do) leaves existing cache entries
    loadable, so they must keep their keys; dropping a reader raises the
    floor and orphans (rather than mis-serves) the now-unreadable
    entries.
    """
    return (
        f"epoch{PIPELINE_EPOCH}"
        f"-trace{traceio.COMPAT_FORMAT_VERSION}"
        f"-model{model_io.COMPAT_FORMAT_VERSION}"
        f"-events{NUM_EVENTS}"
    )


def workload_fingerprint(workload: Workload) -> str:
    """SHA-256 digest of a workload's full dynamic content.

    Every field that influences simulation is folded in: the µop stream
    itself (opclasses, registers, addresses, branch outcomes, macro-op
    bracketing) plus the name and provenance parameters.  Two workloads
    with identical content hash identically regardless of how they were
    produced.
    """
    digest = hashlib.sha256()
    digest.update(workload.name.encode("utf-8"))
    digest.update(
        json.dumps(
            [[key, repr(value)] for key, value in workload.params],
            sort_keys=False,
        ).encode("utf-8")
    )
    # Stream content hashes via the canonical column encoding: fixed
    # dtypes and field order, so equal content gives equal bytes with no
    # per-µop Python loop.
    digest.update(workload.columns.canonical_bytes())
    return digest.hexdigest()


def analysis_fingerprint(
    workload: Workload,
    config: MicroarchConfig,
    policy: Optional[ReductionPolicy] = None,
    segment_length: int = 256,
    builder_options: Optional[BuilderOptions] = None,
    warm_caches: bool = True,
) -> str:
    """Cache key of one complete ``analyze()`` invocation.

    Any perturbation of any argument — one latency cycle, one policy
    threshold, one builder ablation switch — yields a distinct key;
    equal inputs always yield equal keys (pure function of content).
    """
    policy = policy or ReductionPolicy()
    builder_options = builder_options or BuilderOptions()
    payload = {
        "code_version": code_version(),
        "workload": workload_fingerprint(workload),
        "config": config_to_dict(config),
        "builder": dataclasses.asdict(builder_options),
        "policy": dataclasses.asdict(policy),
        "segment_length": int(segment_length),
        "warm_caches": bool(warm_caches),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def file_checksum(path) -> str:
    """SHA-256 of a file's bytes (cache-entry integrity verification)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
