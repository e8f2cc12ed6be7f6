"""The :class:`Observer` facade and its disabled fast path.

An observer bundles one :class:`~repro.obs.tracer.Tracer` and one
:class:`~repro.obs.metrics.MetricsRegistry` behind a single ``enabled``
flag.  Instrumented code holds an observer (explicitly passed or
resolved from the *ambient* observer of its thread or asyncio task) and
calls ``obs.span(...)`` / ``obs.counter(...)`` unconditionally; when
the observer is disabled every call returns a shared, stateless null
object, so the cost on a hot path is one attribute check and one
dictionary-free method dispatch.  Hot loops that cannot afford even
that hoist the check once: ``if obs.enabled: ...``.

Ambient resolution keeps the pipeline's dataclasses free of observer
references (they stay picklable and cache-serialisable): ``analyze()``
installs its observer with :func:`use_observer` and every stage below it
— the simulator, the graph builder, the stack generator, cache probes —
picks it up via :func:`get_observer` without any constructor plumbing.
The ambient observer is a :class:`contextvars.ContextVar`, so two
threads that each scope their own observer (the daemon's overlapping
cold builds) never see or restore each other's, and a thread started
inside a scope starts with the null observer: work handed to other
threads takes its observer explicitly, as the segment walk's does.

Environment toggles (the zero-code path)::

    REPRO_TRACE_OUT=trace.json    # enable + write a Chrome trace here
    REPRO_METRICS_JSON=m.json     # enable + write a metrics snapshot
    REPRO_OBS=1                   # enable collection without files

:func:`from_env` reads these once; the CLI's ``--trace-out`` /
``--metrics-json`` flags override them per command.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
import sys
from typing import Iterator, List, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer

__all__ = [
    "Observer",
    "NULL_OBSERVER",
    "get_observer",
    "set_observer",
    "use_observer",
    "from_env",
]


class _NullSpan:
    """Shared do-nothing span: enter/exit/set are all free."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs) -> "_NullSpan":
        return self


class _NullInstrument:
    """Shared do-nothing counter/gauge/histogram."""

    __slots__ = ()
    value = 0

    def inc(self, amount=1) -> None:
        pass

    def set(self, value) -> None:
        pass

    def observe(self, value) -> None:
        pass


_NULL_SPAN = _NullSpan()
_NULL_INSTRUMENT = _NullInstrument()

#: Sentinel: resolve ``sys.stderr`` at emit time, not construction time
#: (so stream redirection/capture active when progress fires is honoured).
STDERR = object()


class Observer:
    """Tracer + metrics registry behind one ``enabled`` switch.

    Args:
        enabled: when ``False``, every instrumentation call is a no-op
            against shared null objects (nothing is allocated).
        trace_out: optional path; :meth:`finish` writes the Chrome
            trace there.
        metrics_out: optional path; :meth:`finish` writes the metrics
            snapshot there.
        progress_stream: where :meth:`progress` lines go (``None``
            silences them; the default :data:`STDERR` sentinel resolves
            ``sys.stderr`` each time a line is emitted).
        process_name: track label in trace viewers.
    """

    __slots__ = (
        "enabled",
        "tracer",
        "metrics",
        "trace_out",
        "metrics_out",
        "progress_stream",
    )

    def __init__(
        self,
        enabled: bool = True,
        trace_out: Optional[str] = None,
        metrics_out: Optional[str] = None,
        progress_stream=STDERR,
        process_name: str = "repro",
    ) -> None:
        self.enabled = enabled
        self.tracer = Tracer(process_name=process_name) if enabled else None
        self.metrics = MetricsRegistry() if enabled else None
        self.trace_out = trace_out
        self.metrics_out = metrics_out
        self.progress_stream = progress_stream

    # ---- instrumentation points --------------------------------------

    def span(self, name: str, **attrs):
        """Timed context manager; shared no-op when disabled."""
        if not self.enabled:
            return _NULL_SPAN
        return self.tracer.span(name, **attrs)

    def event(self, name: str, **attrs) -> None:
        """Zero-duration trace mark."""
        if self.enabled:
            self.tracer.instant(name, **attrs)

    def record(
        self, name: str, start_wall_ns: int, duration_ns: int, **attrs
    ) -> None:
        """Log an interval the caller already measured (hot-loop path)."""
        if self.enabled:
            self.tracer.record(name, start_wall_ns, duration_ns, **attrs)

    def counter(self, name: str):
        if not self.enabled:
            return _NULL_INSTRUMENT
        return self.metrics.counter(name)

    def gauge(self, name: str):
        if not self.enabled:
            return _NULL_INSTRUMENT
        return self.metrics.gauge(name)

    def histogram(self, name: str):
        if not self.enabled:
            return _NULL_INSTRUMENT
        return self.metrics.histogram(name)

    def progress(self, message: str, **attrs) -> None:
        """A human-visible progress line, mirrored into the trace."""
        if not self.enabled:
            return
        self.tracer.instant("progress", message=message, **attrs)
        stream = (
            sys.stderr
            if self.progress_stream is STDERR
            else self.progress_stream
        )
        if stream is not None:
            print(message, file=stream, flush=True)

    # ---- cross-process merge -----------------------------------------

    def absorb(
        self,
        events: Optional[List[dict]] = None,
        metrics: Optional[dict] = None,
    ) -> None:
        """Merge a worker's exported trace events and metrics."""
        if not self.enabled:
            return
        if events:
            self.tracer.add_events(events)
        if metrics:
            self.metrics.merge(metrics)

    # ---- output -------------------------------------------------------

    def finish(self) -> List[str]:
        """Write any configured outputs; returns the paths written."""
        written = []
        if self.enabled and self.trace_out:
            written.append(str(self.tracer.write(self.trace_out)))
        if self.enabled and self.metrics_out:
            written.append(str(self.metrics.write(self.metrics_out)))
        return written


#: The module default: disabled, allocation-free instrumentation.
NULL_OBSERVER = Observer(enabled=False)

#: The ambient observer of the current context: each thread, and each
#: asyncio task, installs and restores its own.  A new thread starts
#: with the null observer.
_ambient: contextvars.ContextVar = contextvars.ContextVar(
    "repro_ambient_observer", default=NULL_OBSERVER
)


def get_observer() -> Observer:
    """This context's ambient observer (the null one by default)."""
    return _ambient.get()


def set_observer(obs: Optional[Observer]) -> Observer:
    """Install *obs* as this context's ambient; returns the previous
    one."""
    previous = _ambient.get()
    _ambient.set(obs if obs is not None else NULL_OBSERVER)
    return previous


@contextlib.contextmanager
def use_observer(obs: Optional[Observer]) -> Iterator[Observer]:
    """Scope *obs* as this context's ambient observer; restores the
    previous one.

    ``use_observer(None)`` is a no-op scope (the current ambient stays),
    which lets ``analyze(obs=None)`` wrap its body unconditionally.
    """
    if obs is None:
        yield get_observer()
        return
    token = _ambient.set(obs)
    try:
        yield obs
    finally:
        _ambient.reset(token)


def resolve(obs: Optional[Observer]) -> Observer:
    """An explicit observer if given, else the ambient one."""
    return obs if obs is not None else _ambient.get()


def from_env(environ=None) -> Observer:
    """Build an observer from ``REPRO_TRACE_OUT`` / ``REPRO_METRICS_JSON``
    / ``REPRO_OBS``; disabled (the null observer) when none are set."""
    environ = os.environ if environ is None else environ
    trace_out = environ.get("REPRO_TRACE_OUT") or None
    metrics_out = environ.get("REPRO_METRICS_JSON") or None
    flag = environ.get("REPRO_OBS", "").strip().lower()
    enabled = bool(trace_out or metrics_out) or flag in {"1", "true", "on"}
    if not enabled:
        return NULL_OBSERVER
    return Observer(
        enabled=True, trace_out=trace_out, metrics_out=metrics_out
    )
