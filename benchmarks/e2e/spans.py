"""In-memory span recorder for the benchmark's traced run.

The benchmark records its own spans, from its own files, around each
public call it makes into the program; spans inside the program are not
used.  A span keeps its name, start, end, parent span and the trace id
of the task it belongs to.  Spans stay in memory and are written once,
at exit, as Chrome ``trace_event`` JSON that Perfetto opens directly.

Every clock read goes through :func:`repro.obs.clock.perf_seconds`.
A disabled recorder hands out one shared no-op context manager, so the
untraced run pays one attribute check per call site.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import pathlib
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs.clock import perf_seconds

_NOOP = contextlib.nullcontext()


@dataclass
class Span:
    span_id: int
    parent_id: Optional[int]
    trace_id: int
    name: str
    start: float
    end: float = 0.0
    tid: int = 0
    args: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Open:
    __slots__ = ("_spans", "span")

    def __init__(self, spans: "Spans", span: Span) -> None:
        self._spans = spans
        self.span = span

    def __enter__(self) -> Span:
        self._spans._stack().append(self.span.span_id)
        self.span.start = perf_seconds()
        return self.span

    def __exit__(self, *exc) -> None:
        self.span.end = perf_seconds()
        self._spans._stack().pop()
        with self._spans._lock:
            self._spans.finished.append(self.span)


class Spans:
    """Span recorder; ``Spans(enabled=False)`` records nothing."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.finished: List[Span] = []
        #: id shared by every span of one task (set by the caller).
        self.trace_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._origin = perf_seconds()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **args):
        """Context manager recording one span (a no-op when disabled)."""
        if not self.enabled:
            return _NOOP
        stack = self._stack()
        return _Open(
            self,
            Span(
                span_id=next(self._ids),
                parent_id=stack[-1] if stack else None,
                trace_id=self.trace_id,
                name=name,
                start=0.0,
                tid=threading.get_ident() & 0xFFFFFFFF,
                args=args,
            ),
        )

    def write_chrome(self, path: pathlib.Path) -> pathlib.Path:
        """Write every span as Chrome ``trace_event`` JSON."""
        pid = os.getpid()
        events = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": "e2e benchmark"},
            }
        ]
        for s in sorted(self.finished, key=lambda s: s.start):
            events.append(
                {
                    "name": s.name,
                    "cat": s.name.split(".", 1)[0],
                    "ph": "X",
                    "ts": (s.start - self._origin) * 1e6,
                    "dur": s.duration * 1e6,
                    "pid": pid,
                    "tid": s.tid,
                    "args": dict(
                        s.args,
                        span_id=s.span_id,
                        parent_id=s.parent_id,
                        trace_id=s.trace_id,
                    ),
                }
            )
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})
        )
        return path
