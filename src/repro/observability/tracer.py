"""Nested, low-overhead query spans — the flight recorder's clock.

The provider emits a span around every lifecycle phase (canonicalize →
analyze → optimize → codegen → compile → execute) and the parallel
runtime emits one per morsel dispatch and merge.  Design constraints, in
order:

1. **Near-zero cost when off.**  Tracing is disabled by default; the hot
   path then pays one attribute read and one ``or`` per ``span()`` call
   (a shared no-op context manager is returned — no allocation).  The
   ``REPRO_TRACE`` environment variable or :meth:`Tracer.enable` turns it
   on; ``Query.using(trace=True)`` scopes it to one query.
2. **Monotonic clock.**  All timestamps come from
   :func:`time.perf_counter` — wall-clock adjustments never produce
   negative phase durations.
3. **Thread safety.**  Spans may open and close on any thread (morsel
   kernels run on a pool); the record buffer is lock-protected and the
   nesting stack is thread-local, so parent/child links never cross
   threads.
4. **Zero dependencies.**  Stdlib only; importable from every layer
   without cycles.

Spans are flat records after the fact (name, start, end, parent id,
depth, attributes) — :mod:`repro.observability.explain` folds them back
into the annotated plan tree, and ``to_json_lines`` exports them for
offline tooling.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

__all__ = ["SpanRecord", "Tracer", "TRACER", "trace_enabled_from_env"]

#: retained finished spans; older records roll off (the recorder flies on)
MAX_RECORDS = 100_000


def trace_enabled_from_env() -> bool:
    """True when ``REPRO_TRACE`` asks for always-on tracing."""
    return os.environ.get("REPRO_TRACE", "").strip().lower() in (
        "1",
        "true",
        "on",
        "yes",
    )


@dataclass
class SpanRecord:
    """One finished span: a named interval on the monotonic clock."""

    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    end: float
    depth: int
    thread: int
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "depth": self.depth,
            "thread": self.thread,
            "attrs": dict(self.attrs),
        }


class _NoopSpan:
    """Shared do-nothing span handed out while tracing is inactive."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self


_NOOP = _NoopSpan()


class _Span:
    """A live span: context manager pushing onto the thread's stack."""

    __slots__ = (
        "_tracer",
        "name",
        "attrs",
        "_span_id",
        "_parent_id",
        "_depth",
        "_start",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs

    def set(self, **attrs: Any) -> "_Span":
        """Attach attributes to the span (e.g. ``sp.set(rows=n)``)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        stack = tracer._stack()
        self._span_id = next(tracer._ids)
        self._parent_id = stack[-1] if stack else None
        self._depth = len(stack)
        stack.append(self._span_id)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        end = time.perf_counter()
        stack = self._tracer._stack()
        if stack and stack[-1] == self._span_id:
            stack.pop()
        self._tracer._emit(
            SpanRecord(
                span_id=self._span_id,
                parent_id=self._parent_id,
                name=self.name,
                start=self._start,
                end=end,
                depth=self._depth,
                thread=threading.get_ident(),
                attrs=self.attrs,
            )
        )


class Tracer:
    """Thread-safe span recorder with an inactive fast path.

    The tracer is *active* when globally enabled (``REPRO_TRACE`` /
    :meth:`enable`) or while at least one :meth:`capture` sink is open —
    ``explain_analyze`` uses a capture so it can observe one query's
    spans without turning tracing on for the whole process.
    """

    def __init__(self, enabled: Optional[bool] = None, max_records: int = MAX_RECORDS):
        self._enabled = trace_enabled_from_env() if enabled is None else bool(enabled)
        self._lock = threading.Lock()
        self._records: "deque[SpanRecord]" = deque(maxlen=max_records)
        self._sinks: List[List[SpanRecord]] = []
        self._ids = itertools.count(1)
        self._tls = threading.local()

    # -- activation -------------------------------------------------------------

    @property
    def active(self) -> bool:
        return self._enabled or bool(self._sinks)

    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    def scope(self, enabled: bool = True):
        """Temporarily force tracing on (or off) — ``using(trace=...)``."""
        return _Scope(self, enabled)

    def capture(self):
        """Collect every span finished while the context is open.

        ::

            with TRACER.capture() as spans:
                query.to_list()
            # spans: List[SpanRecord], all threads included
        """
        return _Capture(self)

    # -- span API ---------------------------------------------------------------

    def span(self, name: str, **attrs: Any):
        """A context-managed span; a shared no-op while inactive."""
        if not (self._enabled or self._sinks):
            return _NOOP
        return _Span(self, name, attrs)

    def record(self, name: str, start: float, end: float, **attrs: Any) -> None:
        """Record an interval measured externally (no nesting stack).

        Used for spans whose lifetime outlives a ``with`` block — e.g.
        the lazy result iterator, whose "execute" interval only closes
        when the consumer exhausts it.
        """
        if not (self._enabled or self._sinks):
            return
        self._emit(
            SpanRecord(
                span_id=next(self._ids),
                parent_id=None,
                name=name,
                start=start,
                end=end,
                depth=0,
                thread=threading.get_ident(),
                attrs=attrs,
            )
        )

    # -- inspection -------------------------------------------------------------

    def spans(self) -> List[SpanRecord]:
        """Snapshot of the retained records (oldest first)."""
        with self._lock:
            return list(self._records)

    def reset(self) -> None:
        with self._lock:
            self._records.clear()

    def to_json_lines(self) -> str:
        """The retained spans as JSON lines (one object per span)."""
        return "\n".join(json.dumps(r.to_dict()) for r in self.spans())

    # -- internals --------------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _emit(self, record: SpanRecord) -> None:
        with self._lock:
            if self._enabled:
                self._records.append(record)
            for sink in self._sinks:
                sink.append(record)


class _Scope:
    __slots__ = ("_tracer", "_enabled", "_previous")

    def __init__(self, tracer: Tracer, enabled: bool):
        self._tracer = tracer
        self._enabled = enabled

    def __enter__(self) -> Tracer:
        self._previous = self._tracer._enabled
        self._tracer._enabled = self._enabled
        return self._tracer

    def __exit__(self, *exc: Any) -> None:
        self._tracer._enabled = self._previous


class _Capture:
    __slots__ = ("_tracer", "_sink")

    def __init__(self, tracer: Tracer):
        self._tracer = tracer
        self._sink: List[SpanRecord] = []

    def __enter__(self) -> List[SpanRecord]:
        with self._tracer._lock:
            self._tracer._sinks.append(self._sink)
        return self._sink

    def __exit__(self, *exc: Any) -> None:
        with self._tracer._lock:
            try:
                self._tracer._sinks.remove(self._sink)
            except ValueError:
                pass


def traced_rows(
    tracer: Tracer,
    iterator: Iterator[Any],
    started: Optional[float] = None,
    **attrs: Any,
):
    """Wrap a lazy result iterator so its drain records a ``query.execute``
    span (rows counted), honouring deferred execution.

    Created only while the tracer is active; the span is recorded when the
    iterator is exhausted *or* closed early (partial drains record the
    rows seen with ``complete=False``).  *started* is the span's start
    when the kernel was invoked before the drain (eager engines do their
    work then); it defaults to the first ``next()``.
    """

    def generator():
        rows = 0
        complete = False
        began = time.perf_counter() if started is None else started
        try:
            for row in iterator:
                rows += 1
                yield row
            complete = True
        finally:
            tracer.record(
                "query.execute",
                began,
                time.perf_counter(),
                rows=rows,
                complete=complete,
                **attrs,
            )

    return generator()


#: the process-wide tracer every instrumented layer shares
TRACER = Tracer()
