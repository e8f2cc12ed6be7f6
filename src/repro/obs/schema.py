"""Schema for the perf-trajectory store (``BENCH_<scenario>.json``).

Every benchmark-harness run (:mod:`repro.obs.bench`) produces one
:class:`BenchRecord` — the scenario's timing samples, per-stage span
totals, environment fingerprint and result digest — and appends it to
the scenario's trajectory file at the repo root.  The file also carries
the *committed baselines* (one per tier) that
:mod:`repro.obs.regress` gates against in CI.

Design rules:

* **Schema-versioned.**  Every record and file carries
  ``schema_version``; readers reject versions newer than they know.
* **Forward-tolerant.**  Unknown fields inside a record are preserved
  verbatim (``extras``) and re-serialised, so a record written by a
  future minor revision round-trips through an older reader without
  loss (property-tested in ``tests/obs/test_bench_schema.py``).
* **Plain JSON.**  No pickles, no numpy scalars — the store is diffable
  in code review and consumable by any tool.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

__all__ = [
    "SCHEMA_VERSION",
    "BenchRecord",
    "TrajectoryFile",
    "trajectory_path",
    "BenchSchemaError",
]

#: Version written by this build; readers accept <= this.
SCHEMA_VERSION = 1

#: Runs kept per trajectory file (oldest dropped first); baselines are
#: stored separately and never expire.
MAX_RUNS = 50

#: Record keys this schema revision understands.  Anything else in a
#: record dict is preserved in ``extras`` and re-emitted on save.
_KNOWN_RECORD_KEYS = frozenset(
    {
        "schema_version",
        "scenario",
        "tier",
        "created",
        "scale",
        "repeats",
        "warmup",
        "samples",
        "stages",
        "counters",
        "aux",
        "digest",
        "env",
    }
)


class BenchSchemaError(ValueError):
    """Raised when a trajectory file or record cannot be interpreted."""


@dataclass
class BenchRecord:
    """One measured run of one scenario.

    Attributes:
        scenario: registered scenario name (``analyze_cold``, ...).
        tier: measurement tier — ``"full"`` (committed headline scale)
            or ``"ci"`` (reduced scale for per-PR gating).
        created: ISO-8601 UTC timestamp of the run.
        scale: resolved scale knobs (e.g. ``{"macros": 2000}``); two
            records are only comparable when these match.
        repeats / warmup: measurement protocol actually used.
        samples: wall-clock seconds of each timed repetition, in run
            order.  Gates read :attr:`min_seconds` (min-of-N), humans
            read :attr:`median_seconds` and :attr:`spread`.
        stages: per-span-name wall seconds from the *fastest* rep (the
            one :attr:`min_seconds` reports), so a regression can be
            attributed to the stage that moved.  Nested spans each get
            their own entry, so totals may exceed the sample.
        counters: metric counters from the fastest rep (e.g.
            ``trace.materializations`` — regressions that *add work*
            show up here even before they cost wall time).
        aux: scenario-specific derived metrics (``points_per_second``).
        digest: canonical result digest for parity (``None`` when the
            scenario has no deterministic payload).
        env: environment fingerprint (python/numpy versions, cpu count,
            ``REPRO_NATIVE``, git sha, platform).
        extras: unknown fields from future schema revisions, preserved
            verbatim.
    """

    scenario: str
    tier: str
    created: str
    scale: Dict[str, int]
    repeats: int
    warmup: int
    samples: List[float]
    stages: Dict[str, float] = field(default_factory=dict)
    counters: Dict[str, Union[int, float]] = field(default_factory=dict)
    aux: Dict[str, Union[int, float]] = field(default_factory=dict)
    digest: Optional[str] = None
    env: Dict[str, object] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION
    extras: Dict[str, object] = field(default_factory=dict)

    # ---- derived statistics -------------------------------------------

    @property
    def min_seconds(self) -> float:
        """Best-of-N — the noise-robust statistic the gates compare."""
        return min(self.samples) if self.samples else 0.0

    @property
    def median_seconds(self) -> float:
        ordered = sorted(self.samples)
        if not ordered:
            return 0.0
        mid = len(ordered) // 2
        if len(ordered) % 2:
            return ordered[mid]
        return (ordered[mid - 1] + ordered[mid]) / 2.0

    @property
    def spread(self) -> float:
        """(max - min) / min — how noisy the samples were (0 = exact)."""
        if not self.samples or self.min_seconds <= 0:
            return 0.0
        return (max(self.samples) - self.min_seconds) / self.min_seconds

    def stage_shares(self) -> Dict[str, float]:
        """Each stage's fraction of the fastest sample (may sum > 1
        because nested spans overlap their parents)."""
        total = self.min_seconds
        if total <= 0:
            return {}
        return {
            name: seconds / total for name, seconds in self.stages.items()
        }

    # ---- (de)serialisation --------------------------------------------

    def to_dict(self) -> dict:
        data = {
            "schema_version": self.schema_version,
            "scenario": self.scenario,
            "tier": self.tier,
            "created": self.created,
            "scale": dict(self.scale),
            "repeats": self.repeats,
            "warmup": self.warmup,
            "samples": list(self.samples),
            "stages": dict(self.stages),
            "counters": dict(self.counters),
            "aux": dict(self.aux),
            "digest": self.digest,
            "env": dict(self.env),
        }
        data.update(self.extras)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "BenchRecord":
        if not isinstance(data, dict):
            raise BenchSchemaError(f"record must be an object: {data!r}")
        version = data.get("schema_version")
        if not isinstance(version, int) or version < 1:
            raise BenchSchemaError(
                f"record missing a valid schema_version: {version!r}"
            )
        if version > SCHEMA_VERSION:
            # Minor forward drift is tolerated (unknown fields ride in
            # extras); a *major* bump signals incompatible semantics.
            raise BenchSchemaError(
                f"record schema_version {version} is newer than this "
                f"build understands ({SCHEMA_VERSION})"
            )
        try:
            scenario = data["scenario"]
            tier = data["tier"]
            created = data["created"]
            samples = [float(s) for s in data["samples"]]
        except KeyError as missing:
            raise BenchSchemaError(
                f"record missing required field {missing.args[0]!r}"
            ) from None
        if not samples:
            raise BenchSchemaError("record has no timing samples")
        extras = {
            key: value
            for key, value in data.items()
            if key not in _KNOWN_RECORD_KEYS
        }
        return cls(
            scenario=str(scenario),
            tier=str(tier),
            created=str(created),
            scale={
                str(k): int(v) for k, v in data.get("scale", {}).items()
            },
            repeats=int(data.get("repeats", len(samples))),
            warmup=int(data.get("warmup", 0)),
            samples=samples,
            stages={
                str(k): float(v)
                for k, v in data.get("stages", {}).items()
            },
            counters={
                str(k): _number(v)
                for k, v in data.get("counters", {}).items()
            },
            aux={
                str(k): _number(v) for k, v in data.get("aux", {}).items()
            },
            digest=data.get("digest"),
            env=dict(data.get("env", {})),
            schema_version=version,
            extras=extras,
        )


def _number(value) -> Union[int, float]:
    """A counter or aux value as stored: integers stay integral, so a
    load and save rewrites no committed record."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    return float(value)


def trajectory_path(
    directory: Union[str, pathlib.Path], scenario: str
) -> pathlib.Path:
    """The trajectory file for *scenario* under *directory*."""
    return pathlib.Path(directory) / f"BENCH_{scenario}.json"


@dataclass
class TrajectoryFile:
    """One scenario's committed baselines plus its recent run history."""

    scenario: str
    baselines: Dict[str, BenchRecord] = field(default_factory=dict)
    runs: List[BenchRecord] = field(default_factory=list)
    schema_version: int = SCHEMA_VERSION

    def baseline_for(self, tier: str) -> Optional[BenchRecord]:
        return self.baselines.get(tier)

    def latest_run(self, tier: Optional[str] = None) -> Optional[BenchRecord]:
        """Most recent appended run (optionally restricted to *tier*)."""
        for record in reversed(self.runs):
            if tier is None or record.tier == tier:
                return record
        return None

    def append(self, record: BenchRecord) -> None:
        if record.scenario != self.scenario:
            raise BenchSchemaError(
                f"record for {record.scenario!r} appended to the "
                f"{self.scenario!r} trajectory"
            )
        self.runs.append(record)
        if len(self.runs) > MAX_RUNS:
            del self.runs[: len(self.runs) - MAX_RUNS]

    def set_baseline(self, record: BenchRecord) -> None:
        if record.scenario != self.scenario:
            raise BenchSchemaError(
                f"record for {record.scenario!r} cannot baseline the "
                f"{self.scenario!r} trajectory"
            )
        self.baselines[record.tier] = record

    # ---- persistence --------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "scenario": self.scenario,
            "baselines": {
                tier: record.to_dict()
                for tier, record in sorted(self.baselines.items())
            },
            "runs": [record.to_dict() for record in self.runs],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TrajectoryFile":
        if not isinstance(data, dict) or "scenario" not in data:
            raise BenchSchemaError("not a trajectory document")
        version = data.get("schema_version")
        if not isinstance(version, int) or version > SCHEMA_VERSION:
            raise BenchSchemaError(
                f"trajectory schema_version {version!r} unsupported "
                f"(this build reads <= {SCHEMA_VERSION})"
            )
        return cls(
            scenario=str(data["scenario"]),
            baselines={
                str(tier): BenchRecord.from_dict(record)
                for tier, record in data.get("baselines", {}).items()
            },
            runs=[
                BenchRecord.from_dict(record)
                for record in data.get("runs", [])
            ],
            schema_version=version,
        )

    def save(self, path: Union[str, pathlib.Path]) -> pathlib.Path:
        """Atomically write this trajectory as pretty-printed JSON."""
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        tmp.replace(path)
        return path

    @classmethod
    def load(cls, path: Union[str, pathlib.Path]) -> "TrajectoryFile":
        path = pathlib.Path(path)
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as error:
            raise BenchSchemaError(f"{path}: not valid JSON: {error}")
        return cls.from_dict(data)

    @classmethod
    def open(
        cls, directory: Union[str, pathlib.Path], scenario: str
    ) -> "TrajectoryFile":
        """Load the scenario's trajectory, or start an empty one."""
        path = trajectory_path(directory, scenario)
        if path.exists():
            loaded = cls.load(path)
            if loaded.scenario != scenario:
                raise BenchSchemaError(
                    f"{path} records scenario {loaded.scenario!r}, "
                    f"expected {scenario!r}"
                )
            return loaded
        return cls(scenario=scenario)
