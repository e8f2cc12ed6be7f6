"""Wire protocol of the ``repro serve`` daemon.

Every request body and response body on the wire is JSON; this module
is the single place their shapes are defined, validated and
(de)serialised, so the server, the load generator, the property tests
and the docs all speak from one vocabulary.

Design rules:

* **Strict decoding.**  Unknown fields, wrong types and out-of-range
  values are rejected with a :class:`ProtocolError` carrying the HTTP
  status the server should answer with (``400``/``413``) — malformed
  input must never surface as a 500 or a hung connection
  (property-tested in ``tests/serve/test_protocol.py``).
* **Canonical round-trips.**  ``from_dict(to_dict(req)) == req`` for
  every valid request; event keys are emitted as enum member names
  (``"FP_ADD"``) and parsed case-insensitively via
  :func:`repro.common.events.parse_event` (labels like ``"Fadd"``
  are accepted on input).
* **Deterministic bodies.**  Responses for identical requests against
  identical state are byte-identical (no timestamps in digested
  payloads) — the serving bench asserts response parity across reps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from repro.common.events import LATENCY_DOMAIN, EventType, parse_event
from repro.dse.sweep import DEFAULT_CHUNK_SIZE

__all__ = [
    "MAX_BODY_BYTES",
    "MAX_HEADER_BYTES",
    "MAX_AXIS_VALUES",
    "ProtocolError",
    "WorkloadCoord",
    "AnalyzeRequest",
    "PredictRequest",
    "JobRequest",
    "decode_body",
    "encode_body",
]

#: Hard cap on request bodies; anything larger is answered 413 before
#: the body is read (oversize input must not buffer server-side).
MAX_BODY_BYTES = 1 << 20

#: Cap on the request line plus headers (answered 431 when exceeded).
MAX_HEADER_BYTES = 16 * 1024

#: Cap on candidate latencies per sweep axis (keeps a hostile job
#: request from declaring a quadrillion-point space).
MAX_AXIS_VALUES = 64

#: Bounds on workload-generation coordinates (matches what the CLI and
#: test suites exercise; a million-macro request is a typo, not a plan).
_MAX_MACROS = 1_000_000
_MAX_SEGMENT_LENGTH = 65_536
_MAX_LATENCY_CYCLES = 100_000


class ProtocolError(Exception):
    """A request the server must reject, with its HTTP status code."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def _require_mapping(payload: object) -> Mapping:
    if not isinstance(payload, Mapping):
        raise ProtocolError(
            400, f"request body must be a JSON object, got "
            f"{type(payload).__name__}"
        )
    return payload


def _reject_unknown(payload: Mapping, known: frozenset, what: str) -> None:
    unknown = sorted(set(payload) - set(known))
    if unknown:
        raise ProtocolError(
            400, f"unknown {what} field(s): {', '.join(map(repr, unknown))}"
        )


def _int_field(
    payload: Mapping, name: str, default: int, low: int, high: int
) -> int:
    value = payload.get(name, default)
    # bool is an int subclass; a JSON true/false here is a type error.
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(400, f"{name!r} must be an integer")
    if not low <= value <= high:
        raise ProtocolError(
            400, f"{name!r} must be within [{low}, {high}], got {value}"
        )
    return value


def _event_key(name: object, what: str) -> EventType:
    if not isinstance(name, str):
        raise ProtocolError(400, f"{what} keys must be event-name strings")
    try:
        event = parse_event(name)
    except KeyError:
        raise ProtocolError(400, f"unknown event name {name!r}") from None
    if event not in LATENCY_DOMAIN:
        raise ProtocolError(
            400,
            f"event {event.name!r} is outside the latency domain and "
            "cannot be tuned from a single simulation",
        )
    return event


@dataclass(frozen=True)
class WorkloadCoord:
    """Generation coordinates of one suite workload analysis.

    These four values fully determine the warm-cache key of a session:
    two requests with equal coordinates share one in-memory session and
    one on-disk cache entry.
    """

    workload: str
    macros: int = 300
    seed: int = 1
    segment_length: int = 256

    _FIELDS = frozenset({"workload", "macros", "seed", "segment_length"})

    def key(self) -> str:
        """Canonical warm-cache key for this coordinate tuple."""
        return (
            f"{self.workload}|macros={self.macros}|seed={self.seed}"
            f"|seglen={self.segment_length}"
        )

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "macros": self.macros,
            "seed": self.seed,
            "segment_length": self.segment_length,
        }

    @classmethod
    def from_mapping(cls, payload: Mapping) -> "WorkloadCoord":
        workload = payload.get("workload")
        if not isinstance(workload, str) or not workload:
            raise ProtocolError(
                400, "'workload' must be a non-empty workload name"
            )
        return cls(
            workload=workload,
            macros=_int_field(payload, "macros", 300, 1, _MAX_MACROS),
            seed=_int_field(payload, "seed", 1, 0, 2**31 - 1),
            segment_length=_int_field(
                payload, "segment_length", 256, 1, _MAX_SEGMENT_LENGTH
            ),
        )


@dataclass(frozen=True)
class AnalyzeRequest:
    """``POST /analyze`` — run (or reuse) one full analysis."""

    coord: WorkloadCoord
    top: int = 5

    def to_dict(self) -> dict:
        payload = self.coord.to_dict()
        payload["top"] = self.top
        return payload

    @classmethod
    def from_dict(cls, payload: object) -> "AnalyzeRequest":
        payload = _require_mapping(payload)
        _reject_unknown(
            payload, WorkloadCoord._FIELDS | {"top"}, "analyze"
        )
        return cls(
            coord=WorkloadCoord.from_mapping(payload),
            top=_int_field(payload, "top", 5, 1, 64),
        )


@dataclass(frozen=True)
class PredictRequest:
    """``POST /predict`` — price one latency point on a warm model."""

    coord: WorkloadCoord
    #: latency overrides applied to the baseline configuration.
    overrides: Tuple[Tuple[EventType, int], ...] = ()

    def to_dict(self) -> dict:
        payload = self.coord.to_dict()
        payload["overrides"] = {
            event.name: cycles for event, cycles in self.overrides
        }
        return payload

    @classmethod
    def from_dict(cls, payload: object) -> "PredictRequest":
        payload = _require_mapping(payload)
        _reject_unknown(
            payload, WorkloadCoord._FIELDS | {"overrides"}, "predict"
        )
        raw = payload.get("overrides", {})
        if not isinstance(raw, Mapping):
            raise ProtocolError(
                400, "'overrides' must be an object of event -> cycles"
            )
        overrides = []
        for name, cycles in raw.items():
            event = _event_key(name, "override")
            if isinstance(cycles, bool) or not isinstance(cycles, int):
                raise ProtocolError(
                    400, f"override {name!r} must map to an integer"
                )
            if not 1 <= cycles <= _MAX_LATENCY_CYCLES:
                raise ProtocolError(
                    400,
                    f"override {name!r} must be within "
                    f"[1, {_MAX_LATENCY_CYCLES}], got {cycles}",
                )
            overrides.append((event, cycles))
        overrides.sort(key=lambda pair: int(pair[0]))
        return cls(
            coord=WorkloadCoord.from_mapping(payload),
            overrides=tuple(overrides),
        )


@dataclass(frozen=True)
class JobRequest:
    """``POST /jobs`` — submit a design-space sweep as an async job."""

    coord: WorkloadCoord
    #: sweep axes: (event, candidate latencies), sorted by event.
    axes: Tuple[Tuple[EventType, Tuple[int, ...]], ...] = ()
    chunk_size: int = DEFAULT_CHUNK_SIZE
    target_cpi: Optional[float] = None
    top_k: Optional[int] = None

    _FIELDS = WorkloadCoord._FIELDS | {
        "axes", "chunk_size", "target_cpi", "top_k",
    }

    def to_dict(self) -> dict:
        payload = self.coord.to_dict()
        payload["axes"] = {
            event.name: list(values) for event, values in self.axes
        }
        payload["chunk_size"] = self.chunk_size
        if self.target_cpi is not None:
            payload["target_cpi"] = self.target_cpi
        if self.top_k is not None:
            payload["top_k"] = self.top_k
        return payload

    @classmethod
    def from_dict(cls, payload: object) -> "JobRequest":
        payload = _require_mapping(payload)
        _reject_unknown(payload, cls._FIELDS, "job")
        raw_axes = payload.get("axes")
        if not isinstance(raw_axes, Mapping) or not raw_axes:
            raise ProtocolError(
                400,
                "'axes' must be a non-empty object of "
                "event -> [candidate latencies]",
            )
        axes = []
        for name, values in raw_axes.items():
            event = _event_key(name, "axis")
            if not isinstance(values, (list, tuple)) or not values:
                raise ProtocolError(
                    400, f"axis {name!r} must be a non-empty array"
                )
            if len(values) > MAX_AXIS_VALUES:
                raise ProtocolError(
                    400,
                    f"axis {name!r} has {len(values)} candidates "
                    f"(limit {MAX_AXIS_VALUES})",
                )
            cleaned = []
            for value in values:
                if isinstance(value, bool) or not isinstance(value, int):
                    raise ProtocolError(
                        400, f"axis {name!r} values must be integers"
                    )
                if not 1 <= value <= _MAX_LATENCY_CYCLES:
                    raise ProtocolError(
                        400,
                        f"axis {name!r} values must be within "
                        f"[1, {_MAX_LATENCY_CYCLES}], got {value}",
                    )
                cleaned.append(value)
            if len(set(cleaned)) != len(cleaned):
                raise ProtocolError(
                    400, f"axis {name!r} has duplicate candidates"
                )
            axes.append((event, tuple(cleaned)))
        if len({event for event, _values in axes}) != len(axes):
            raise ProtocolError(400, "duplicate axis events")
        axes.sort(key=lambda pair: int(pair[0]))
        target_cpi = payload.get("target_cpi")
        if target_cpi is not None:
            if isinstance(target_cpi, bool) or not isinstance(
                target_cpi, (int, float)
            ):
                raise ProtocolError(400, "'target_cpi' must be a number")
            target_cpi = float(target_cpi)
            if not target_cpi > 0:
                raise ProtocolError(400, "'target_cpi' must be positive")
        top_k = payload.get("top_k")
        if top_k is not None:
            if isinstance(top_k, bool) or not isinstance(top_k, int):
                raise ProtocolError(400, "'top_k' must be an integer")
            if top_k < 1:
                raise ProtocolError(400, "'top_k' must be at least 1")
        return cls(
            coord=WorkloadCoord.from_mapping(payload),
            axes=tuple(axes),
            chunk_size=_int_field(
                payload, "chunk_size", DEFAULT_CHUNK_SIZE, 1, 1 << 20
            ),
            target_cpi=target_cpi,
            top_k=top_k,
        )

    @property
    def num_points(self) -> int:
        total = 1
        for _event, values in self.axes:
            total *= len(values)
        return total


def decode_body(body: bytes) -> object:
    """Decode a request body to a JSON value, or raise 400."""
    if len(body) > MAX_BODY_BYTES:
        raise ProtocolError(
            413, f"request body exceeds {MAX_BODY_BYTES} bytes"
        )
    try:
        text = body.decode("utf-8")
    except UnicodeDecodeError:
        raise ProtocolError(400, "request body is not valid UTF-8") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as error:
        raise ProtocolError(
            400, f"request body is not valid JSON: {error.msg}"
        ) from None


def encode_body(payload: Mapping) -> bytes:
    """Canonical JSON encoding for response bodies (stable key order,
    so identical payloads are byte-identical on the wire)."""
    return json.dumps(payload, sort_keys=True).encode("utf-8")
