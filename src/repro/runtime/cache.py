"""Content-addressed artifact cache for analysis sessions.

RpStacks' pitch is amortising one expensive baseline simulation into
microsecond design-point evaluations; this cache amortises it across
*processes and sessions*.  Every ``analyze()`` invocation fingerprints
its inputs (see :mod:`repro.runtime.fingerprint`) and persists the two
artifacts that are expensive to derive — the timing trace and the
RpStacks model — under that key.  A later call with identical inputs
reloads them instead of re-simulating, turning a multi-second analysis
into a few milliseconds.  The loaded session rebuilds the dependence
graph from the trace, and the comparison predictors from the graph,
only when a consumer first asks for them: a sweep or a served
prediction needs the model alone.

The graph is not stored: it is a pure function of the trace (Table I).
On six analogues at 600 macro-ops (one pinned CPU of a 2-vCPU x86-64
host), deflating a copy of it took 12-15 ms of a store that follows a
16-47 ms cold analysis, and made 61-64% of each entry's bytes, while
the columnar builder rebuilds it in 1.2-1.6 ms, less than the
2.0-2.4 ms its archive took to read back.

Layout (one directory per entry, sharded by key prefix)::

    <root>/
      v2/
        ab/
          ab03f1.../
            meta.json     # key, workload name, per-file sha256 checksums
            trace.npz     # repro.simulator.traceio archive
            model.npz     # repro.core.io archive

Integrity and parallel-safety:

* every artifact's SHA-256 is recorded in ``meta.json`` and verified on
  load; a corrupted or truncated entry is treated as a miss (and
  removed) rather than crashing or silently serving bad data;
* writers stage the whole entry in a temporary sibling directory and
  ``os.replace`` it into place, so concurrent writers of the same key
  race benignly (last rename wins, both contents are identical by
  construction) and readers never observe half-written entries.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Union

from repro.obs import clock
from repro.obs.metrics import MetricsRegistry
from repro.runtime.fingerprint import analysis_fingerprint, file_checksum

#: Bumped when the entry layout changes; lives in the directory tree so
#: old layouts are simply ignored rather than misparsed.
LAYOUT_VERSION = "v2"

_ARTIFACTS = ("trace.npz", "model.npz")


class CacheError(RuntimeError):
    """Raised for unusable cache roots (not for corrupt entries)."""


@dataclass
class CacheStats:
    """What a scan of the cache root finds on disk: entries, sizes and
    ages.

    A cache's hit, miss and corruption counts belong to the process
    that probed it (:attr:`ArtifactCache.hits` and its metrics
    registry), so they are not part of this snapshot.
    """

    root: str
    entries: int = 0
    total_bytes: int = 0
    workloads: Dict[str, int] = field(default_factory=dict)
    #: seconds since each entry was created, newest first (wall clock;
    #: empty when no entry carries a parsable ``created`` stamp)
    entry_ages_seconds: List[float] = field(default_factory=list)

    @property
    def newest_age_seconds(self) -> Optional[float]:
        return self.entry_ages_seconds[0] if self.entry_ages_seconds else None

    @property
    def oldest_age_seconds(self) -> Optional[float]:
        return self.entry_ages_seconds[-1] if self.entry_ages_seconds else None

    @staticmethod
    def _age(seconds: float) -> str:
        if seconds >= 86400:
            return f"{seconds / 86400:.1f}d"
        if seconds >= 3600:
            return f"{seconds / 3600:.1f}h"
        if seconds >= 60:
            return f"{seconds / 60:.1f}m"
        return f"{seconds:.0f}s"

    def describe(self) -> str:
        lines = [
            f"cache root      {self.root}",
            f"entries         {self.entries}",
            f"total size      {self.total_bytes / 1024:.1f} KiB",
        ]
        if self.entry_ages_seconds:
            lines.append(
                f"entry age       newest {self._age(self.newest_age_seconds)}"
                f", oldest {self._age(self.oldest_age_seconds)}"
            )
        for name in sorted(self.workloads):
            lines.append(f"  {name:<14} {self.workloads[name]} entries")
        return "\n".join(lines)


class ArtifactCache:
    """Persistent, content-addressed store of analysis artifacts.

    Args:
        root: cache directory (created on first write).  Safe to share
            between concurrent processes; see the module docstring.
    """

    def __init__(self, root: Union[str, pathlib.Path]) -> None:
        self.root = pathlib.Path(root)
        if self.root.exists() and not self.root.is_dir():
            raise CacheError(f"cache root {self.root} is not a directory")
        #: session counters (cache.hit / cache.miss / cache.corruption)
        self.metrics = MetricsRegistry()

    @property
    def hits(self) -> int:
        """Session cache hits (the ``cache.hit`` counter)."""
        return int(self.metrics.counter_value("cache.hit"))

    @property
    def misses(self) -> int:
        """Session cache misses (the ``cache.miss`` counter)."""
        return int(self.metrics.counter_value("cache.miss"))

    @property
    def corruptions(self) -> int:
        """Session integrity failures (the ``cache.corruption`` counter)."""
        return int(self.metrics.counter_value("cache.corruption"))

    # ---- key handling -------------------------------------------------

    @staticmethod
    def key_for(workload, config, **kwargs) -> str:
        """Fingerprint of one analysis; see :func:`analysis_fingerprint`."""
        return analysis_fingerprint(workload, config, **kwargs)

    def _entry_dir(self, key: str) -> pathlib.Path:
        return self.root / LAYOUT_VERSION / key[:2] / key

    # ---- read path ----------------------------------------------------

    def load(self, key: str):
        """Return the cached :class:`~repro.dse.pipeline.AnalysisSession`
        for *key*, or ``None`` on miss or corruption.

        A failed checksum, a truncated archive or any deserialisation
        error counts as a miss: the entry is evicted and ``None`` is
        returned so the caller recomputes (and re-stores) it.
        """
        entry = self._entry_dir(key)
        meta_path = entry / "meta.json"
        if not meta_path.is_file():
            self.metrics.counter("cache.miss").inc()
            return None
        try:
            meta = json.loads(meta_path.read_text())
            checksums = meta["checksums"]
            for name in _ARTIFACTS:
                artifact = entry / name
                if file_checksum(artifact) != checksums[name]:
                    raise CacheCorruption(f"checksum mismatch on {name}")
            session = self._load_session(entry)
        except Exception:
            # Corrupt, truncated, unreadable or written by an
            # incompatible library version: evict and recompute.
            self.metrics.counter("cache.corruption").inc()
            self.metrics.counter("cache.miss").inc()
            shutil.rmtree(entry, ignore_errors=True)
            return None
        self.metrics.counter("cache.hit").inc()
        return session

    @staticmethod
    def _load_session(entry: pathlib.Path):
        from repro.core.io import load_model
        from repro.dse.pipeline import AnalysisSession
        from repro.simulator.machine import Machine
        from repro.simulator.traceio import load_result

        result = load_result(entry / "trace.npz")
        # The stored run answers ``session.simulate(baseline)`` (and
        # overhead accounting) as in a freshly analysed session.  The
        # graph and the comparison predictors wait for a consumer.
        return AnalysisSession(
            workload=result.workload,
            config=result.config,
            machine=Machine.from_baseline(result),
            baseline_result=result,
            rpstacks=load_model(entry / "model.npz"),
        )

    # ---- write path ---------------------------------------------------

    def store(self, key: str, session) -> pathlib.Path:
        """Persist *session*'s artifacts under *key*; returns the entry dir.

        The entry is staged in a temporary directory and atomically
        renamed into place, so concurrent writers and readers are safe.
        """
        from repro.core.io import save_model
        from repro.simulator.traceio import save_result

        entry = self._entry_dir(key)
        entry.parent.mkdir(parents=True, exist_ok=True)
        staging = pathlib.Path(
            tempfile.mkdtemp(prefix=f".{key[:8]}-", dir=entry.parent)
        )
        try:
            save_result(session.baseline_result, staging / "trace.npz")
            save_model(session.rpstacks, staging / "model.npz")
            meta = {
                "key": key,
                "workload": session.workload.name,
                "num_uops": len(session.workload),
                "baseline_cycles": session.baseline_result.cycles,
                # Explicit wall-clock ISO stamp: every other duration in
                # the system is monotonic (perf_counter-domain), but an
                # entry's birth time is a calendar fact shown to humans.
                "created": clock.wall_iso(),
                "checksums": {
                    name: file_checksum(staging / name)
                    for name in _ARTIFACTS
                },
            }
            meta_tmp = staging / "meta.json.tmp"
            meta_tmp.write_text(json.dumps(meta, indent=2, sort_keys=True))
            os.replace(meta_tmp, staging / "meta.json")
            if entry.exists():
                shutil.rmtree(entry, ignore_errors=True)
            try:
                os.replace(staging, entry)
            except OSError:
                # A concurrent writer won the rename race; its entry has
                # identical content, so ours is redundant.
                shutil.rmtree(staging, ignore_errors=True)
        except BaseException:  # Ctrl-C included: leave no staging behind
            shutil.rmtree(staging, ignore_errors=True)
            raise
        return entry

    # ---- maintenance --------------------------------------------------

    def _entries(self) -> Iterator[pathlib.Path]:
        layout = self.root / LAYOUT_VERSION
        if not layout.is_dir():
            return
        for shard in sorted(layout.iterdir()):
            if not shard.is_dir():
                continue
            for entry in sorted(shard.iterdir()):
                # A dot-prefixed directory is a writer's staging area,
                # complete with meta.json just before its rename.
                if not entry.name.startswith(".") and (
                    entry / "meta.json"
                ).is_file():
                    yield entry

    @staticmethod
    def _entry_age_seconds(created) -> Optional[float]:
        """Age of an entry from its ISO-8601 ``created`` stamp (``None``
        when the stamp is missing or unparsable)."""
        try:
            then = clock.parse_wall_iso(created).timestamp()
        except (TypeError, ValueError):
            return None
        return max(0.0, clock.wall_ns() / 1e9 - then)

    def stats(self) -> CacheStats:
        """Entry counts, sizes and ages, as found on disk."""
        stats = CacheStats(root=str(self.root))
        ages: List[float] = []
        for entry in self._entries():
            stats.entries += 1
            name = "?"
            try:
                meta = json.loads((entry / "meta.json").read_text())
                name = meta.get("workload", "?")
                age = self._entry_age_seconds(meta.get("created"))
                if age is not None:
                    ages.append(age)
            except (OSError, ValueError):
                pass
            stats.workloads[name] = stats.workloads.get(name, 0) + 1
            for artifact in entry.iterdir():
                try:
                    stats.total_bytes += artifact.stat().st_size
                except OSError:
                    pass
        stats.entry_ages_seconds = sorted(ages)
        return stats

    def clear(self) -> int:
        """Delete every entry, and the staging directories writers
        killed mid-store left behind; returns how many entries were
        removed."""
        removed = 0
        for entry in list(self._entries()):
            shutil.rmtree(entry, ignore_errors=True)
            removed += 1
        for staging in self.root.glob(f"{LAYOUT_VERSION}/*/.*"):
            shutil.rmtree(staging, ignore_errors=True)
        return removed


class CacheCorruption(RuntimeError):
    """Internal marker for a failed integrity check (caught in load)."""


def open_cache(
    cache: Union[None, str, pathlib.Path, ArtifactCache]
) -> Optional[ArtifactCache]:
    """Coerce a user-facing ``cache=`` argument into an ArtifactCache."""
    if cache is None or isinstance(cache, ArtifactCache):
        return cache
    return ArtifactCache(cache)
