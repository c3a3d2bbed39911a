"""Span lifecycle, the null-span disabled path, and the recorder."""

import pytest

from repro.trace import NULL_SPAN, TraceRecorder, span_or_null
from repro.trace.span import SpanHandle


class TestSpanHandle:
    def test_end_records_one_immutable_span(self):
        trace = TraceRecorder()
        handle = trace.begin(
            "encode", trace_id=7, side="client", rank=2, op="ping"
        )
        span = handle.note(nbytes=128).end()
        assert span is not None
        assert span.name == "encode"
        assert span.trace_id == 7
        assert span.side == "client"
        assert span.rank == 2
        assert span.attrs == {"op": "ping", "nbytes": 128}
        assert span.dur_us >= 0.0
        assert span.end_us == pytest.approx(
            span.start_us + span.dur_us
        )
        assert trace.spans() == [span]

    def test_double_end_records_once(self):
        trace = TraceRecorder()
        handle = trace.begin("transfer")
        assert handle.end() is not None
        assert handle.end() is None
        assert len(trace) == 1

    def test_context_manager_records_and_tags_errors(self):
        trace = TraceRecorder()
        with trace.begin("dispatch", trace_id=1):
            pass
        with pytest.raises(ValueError):
            with trace.begin("dispatch", trace_id=2):
                raise ValueError("boom")
        ok, failed = trace.spans(name="dispatch")
        assert "error" not in ok.attrs
        assert failed.attrs["error"] == "ValueError('boom')"

    def test_timestamps_share_one_epoch(self):
        # Spans from two recorders must land on one timeline — the
        # Chrome trace of a client recorder and a server recorder
        # renders coherently only with a shared epoch.
        a, b = TraceRecorder(), TraceRecorder()
        first = a.begin("x").end()
        second = b.begin("x").end()
        assert second.start_us >= first.start_us


class TestNullSpan:
    def test_span_or_null_disabled_path(self):
        span = span_or_null(None, "encode", trace_id=3)
        assert span is NULL_SPAN
        assert not span
        assert span.note(nbytes=1) is span
        assert span.end() is None
        with span as inner:
            assert inner is span

    def test_span_or_null_enabled_path(self):
        trace = TraceRecorder()
        span = span_or_null(trace, "encode", trace_id=3)
        assert isinstance(span, SpanHandle)
        assert span
        span.end()
        assert trace.spans()[0].trace_id == 3


class TestTraceRecorder:
    def test_filters(self):
        trace = TraceRecorder()
        trace.begin("encode", trace_id=1, side="client", rank=0).end()
        trace.begin("dispatch", trace_id=1, side="server", rank=1).end()
        trace.begin("encode", trace_id=2, side="client", rank=1).end()
        assert len(trace.spans(trace_id=1)) == 2
        assert len(trace.spans(name="encode")) == 2
        assert len(trace.spans(side="server")) == 1
        assert len(trace.spans(rank=1)) == 2
        assert len(trace.spans(trace_id=1, side="client")) == 1
        assert trace.trace_ids() == [1, 2]

    def test_capacity_evicts_oldest_and_counts_drops(self):
        trace = TraceRecorder(capacity=3)
        for i in range(5):
            trace.begin("s", trace_id=i).end()
        assert len(trace) == 3
        assert trace.dropped == 2
        assert [s.trace_id for s in trace.spans()] == [2, 3, 4]
        assert trace.stats() == {
            "spans": 3,
            "capacity": 3,
            "dropped": 2,
        }
        trace.clear()
        assert len(trace) == 0
        assert trace.dropped == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            TraceRecorder(capacity=0)

    def test_spans_feed_duration_histograms(self):
        trace = TraceRecorder()
        trace.begin("reply", side="server").end()
        trace.begin("reply", side="server").end()
        snap = trace.metrics.snapshot()
        assert snap["histograms"]["span.server.reply_us"]["count"] == 2

    def test_fabric_meter_tallies_frames_and_bytes(self):
        trace = TraceRecorder()
        meter = trace.fabric_meter()
        meter(1, 2, "request", 100)
        meter(1, 2, "request", 50)
        meter(2, 1, "reply", 30)
        counters = trace.metrics.snapshot()["counters"]
        assert counters["fabric.frames.request"] == 2
        assert counters["fabric.bytes.request"] == 150
        assert counters["fabric.frames.reply"] == 1
        assert counters["fabric.bytes.reply"] == 30
