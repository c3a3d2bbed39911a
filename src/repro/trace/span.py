"""Spans and the trace recorder.

A :class:`Span` is one timed stage of an invocation (``bind``,
``encode``, ``transfer``, ``dispatch``, ``reply``, ``retry``,
``degrade``, ``invoke``) on one side (client or server) and one SPMD
rank.  Spans carrying the same ``trace_id`` — propagated in the
request header — belong to one logical collective invocation.

Timestamps come from a single process-wide monotonic epoch so spans
recorded on different threads (client ranks, server ranks, the reply
sender) share one timeline and render coherently in the Chrome trace
viewer.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.rts import backends as rts_backends
from repro.metrics import MetricsRegistry

#: Process-wide monotonic epoch: all recorders measure from here, so
#: traces gathered from several recorders still share a timeline.
_EPOCH_NS = time.perf_counter_ns()


def _now_us() -> float:
    return (time.perf_counter_ns() - _EPOCH_NS) / 1_000.0


@dataclass(frozen=True)
class Span:
    """One completed, immutable timed stage."""

    name: str
    trace_id: int
    side: str  # "client" or "server"
    rank: int
    start_us: float
    dur_us: float
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def end_us(self) -> float:
        return self.start_us + self.dur_us


class _NullSpan:
    """The disabled-path span: every operation is a no-op.

    A single shared instance is returned by :func:`span_or_null` when
    tracing is off, so disabled instrumentation sites allocate
    nothing.
    """

    __slots__ = ()

    def note(self, **_attrs: Any) -> "_NullSpan":
        return self

    def end(self) -> None:
        return None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc: Any) -> bool:
        return False

    def __bool__(self) -> bool:
        return False


NULL_SPAN = _NullSpan()


class SpanHandle:
    """An open span; call :meth:`end` (or exit the ``with`` block) to
    record it.  ``note(**attrs)`` attaches attributes at any point
    while the span is open."""

    __slots__ = (
        "_recorder",
        "name",
        "trace_id",
        "side",
        "rank",
        "attrs",
        "_start_us",
        "_ended",
    )

    def __init__(
        self,
        recorder: "TraceRecorder",
        name: str,
        trace_id: int,
        side: str,
        rank: int,
        attrs: dict[str, Any],
    ) -> None:
        self._recorder = recorder
        self.name = name
        self.trace_id = trace_id
        self.side = side
        self.rank = rank
        self.attrs = attrs
        self._start_us = _now_us()
        self._ended = False

    def note(self, **attrs: Any) -> "SpanHandle":
        self.attrs.update(attrs)
        return self

    def end(self) -> Span | None:
        if self._ended:
            return None
        self._ended = True
        span = Span(
            name=self.name,
            trace_id=self.trace_id,
            side=self.side,
            rank=self.rank,
            start_us=self._start_us,
            dur_us=_now_us() - self._start_us,
            attrs=self.attrs,
        )
        self._recorder.record(span)
        return span

    def __enter__(self) -> "SpanHandle":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        if exc is not None and "error" not in self.attrs:
            self.attrs["error"] = repr(exc)
        self.end()
        return False

    def __bool__(self) -> bool:
        return True


class TraceRecorder:
    """Thread-safe bounded span store plus a metrics registry.

    ``capacity`` bounds memory: once full, the oldest span is evicted
    per new span and ``dropped`` counts the evictions.  Every recorded
    span also feeds a per-stage duration histogram
    (``span.<side>.<name>_us``) in :attr:`metrics`.
    """

    def __init__(
        self,
        capacity: int = 65536,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._capacity = capacity
        self._lock = threading.Lock()
        self._spans: deque[Span] = deque()
        self.dropped = 0
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    # -- recording ---------------------------------------------------

    def begin(
        self,
        name: str,
        *,
        trace_id: int = 0,
        side: str = "client",
        rank: int = 0,
        **attrs: Any,
    ) -> SpanHandle:
        """Open a span; also usable as a context manager.

        Spans opened inside an SPMD rank are tagged with that rank's
        RTS backend (``rts: thread|process``) unless the caller set
        one explicitly, so traces from mixed-backend runs stay
        separable; serial-code spans stay untagged.
        """
        backend = rts_backends.active_backend()
        if backend is not None:
            attrs.setdefault("rts", backend)
        return SpanHandle(self, name, trace_id, side, rank, attrs)

    def record(self, span: Span) -> None:
        with self._lock:
            if len(self._spans) >= self._capacity:
                self._spans.popleft()
                self.dropped += 1
            self._spans.append(span)
        self.metrics.histogram(
            f"span.{span.side}.{span.name}_us"
        ).observe(span.dur_us)

    # -- querying ----------------------------------------------------

    def spans(
        self,
        *,
        trace_id: int | None = None,
        name: str | None = None,
        side: str | None = None,
        rank: int | None = None,
    ) -> list[Span]:
        """A filtered snapshot, in recording order."""
        with self._lock:
            snapshot: Iterable[Span] = list(self._spans)
        return [
            s
            for s in snapshot
            if (trace_id is None or s.trace_id == trace_id)
            and (name is None or s.name == name)
            and (side is None or s.side == side)
            and (rank is None or s.rank == rank)
        ]

    def trace_ids(self) -> list[int]:
        """Distinct non-zero trace ids, in first-seen order."""
        seen: dict[int, None] = {}
        for span in self.spans():
            if span.trace_id:
                seen.setdefault(span.trace_id, None)
        return list(seen)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self.dropped = 0

    # -- integration hooks -------------------------------------------

    def fabric_meter(self):
        """A fabric :class:`~repro.orb.transport.Meter` that tallies
        frames and bytes by frame kind into the metrics registry."""
        metrics = self.metrics

        def meter(src: int, dest: int, kind: str, nbytes: int) -> None:
            metrics.counter(f"fabric.frames.{kind}").inc()
            metrics.counter(f"fabric.bytes.{kind}").inc(nbytes)

        return meter

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "spans": len(self._spans),
                "capacity": self._capacity,
                "dropped": self.dropped,
            }


def span_or_null(trace: TraceRecorder | None, name: str, **kw: Any):
    """``trace.begin(name, **kw)`` when tracing is on, else the shared
    :data:`NULL_SPAN`.  This is the one call every instrumentation
    site makes; with ``trace is None`` it is a function call, an
    ``is`` test, and a constant return."""
    if trace is None:
        return NULL_SPAN
    return trace.begin(name, **kw)
