"""Collective-aware tracing and metrics (``repro.trace``).

PARDIS's evaluation hinges on knowing *where time goes* in a
collective invocation — argument gather/scatter, network transfer,
servant dispatch — per SPMD rank and per protocol stage.  This
package provides:

- :class:`TraceRecorder` — a bounded, thread-safe recorder of
  :class:`Span` records.  Spans are rank-tagged and carry a *trace
  id* that is propagated in the request header, so the client- and
  server-side spans of one collective invocation — across every SPMD
  thread on both sides — correlate into a single logical trace.
- :class:`MetricsRegistry` (re-exported from :mod:`repro.metrics`) —
  named counters and histograms plus pluggable snapshot *sources*.
  The counters are always on — every ORB owns a registry, and uses
  the recorder's when it has one; what tracing adds to it is the
  timings: span-duration histograms, ``future.wait_us`` and the
  per-frame fabric meter.
- A Chrome-trace/Perfetto JSON exporter (:func:`to_chrome_trace`,
  :func:`write_chrome_trace`, :func:`read_chrome_trace`) and a text
  timeline (:func:`format_timeline`, also ``tools/trace_view.py``).

Tracing is **off by default**: every instrumentation site in the ORB
guards on ``trace is None`` (see :func:`span_or_null`), so the
disabled fast path costs one attribute load and an ``is`` test.
Enable it per ORB with ``ORB(trace=True)`` or by passing a
:class:`TraceRecorder`.

See ``docs/observability.md`` for the span vocabulary, metric names,
and exporter usage.
"""

from __future__ import annotations

from repro.trace.export import (
    chrome_trace_events,
    read_chrome_trace,
    spans_from_chrome_trace,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.metrics import Counter, Histogram, MetricsRegistry
from repro.trace.span import (
    NULL_SPAN,
    Span,
    TraceRecorder,
    span_or_null,
)
from repro.trace.view import format_timeline, summarize

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "Span",
    "TraceRecorder",
    "chrome_trace_events",
    "format_timeline",
    "read_chrome_trace",
    "span_or_null",
    "spans_from_chrome_trace",
    "summarize",
    "to_chrome_trace",
    "write_chrome_trace",
]
