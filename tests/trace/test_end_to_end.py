"""End-to-end trace correlation through the ORB.

The tentpole behaviors: one logical trace per invocation with client
and server spans correlated by the trace id propagated in the request
header; the id surviving retries and the multiport→centralized
degradation (which records an explicit ``degrade`` span naming the
engine flip); and the acceptance scenario — a collective pipelined
invocation under injected faults exporting a single correlated trace
through the Chrome-trace exporter.
"""

import threading

import numpy as np
import pytest

from repro import ORB, FtPolicy, compile_idl
from repro.ft.faults import FaultSchedule, FaultyFabric
from repro.orb import request as wire
from repro.orb.transport import Fabric
from repro.trace import (
    TraceRecorder,
    spans_from_chrome_trace,
    to_chrome_trace,
)

TRACE_IDL = """
typedef dsequence<double, 8192> vec;

interface svc {
    double ping(in double x);
    double checksum(in vec data);
};
"""


@pytest.fixture(scope="module")
def idl():
    return compile_idl(TRACE_IDL, module_name="trace_e2e_idl")


def _servant_factory(idl, calls=None):
    from repro.rts.mpi import SUM

    class Servant(idl.svc_skel):
        def ping(self, x):
            if calls is not None:
                calls.append(x)
            return x * 2.0

        def checksum(self, data):
            total = data.local_data().sum()
            if self.comm is not None:
                total = self.comm.allreduce(total, op=SUM)
            return float(total)

    return lambda ctx: Servant()


class Valve:
    """Injects ``action`` on the listed frame kinds while armed, up to
    ``limit`` times (deterministic fault injection for exact-frame
    scenarios)."""

    def __init__(self, action, kinds, limit=None):
        self.action = action
        self.kinds = frozenset(kinds)
        self.limit = limit
        self.injected = 0
        self.armed = False
        self._lock = threading.Lock()

    def decide(self, kind):
        with self._lock:
            if not self.armed or kind not in self.kinds:
                return ()
            if self.limit is not None and self.injected >= self.limit:
                return ()
            self.injected += 1
            return (self.action,)


class TestSerialTraceCorrelation:
    def test_client_and_server_spans_share_one_trace_id(self, idl):
        with ORB("trace-serial", trace=True) as orb:
            orb.serve("svc", _servant_factory(idl), nthreads=1)
            runtime = orb.client_runtime(label="traced")
            try:
                proxy = idl.svc._bind("svc", runtime)
                assert proxy.ping(21.0) == 42.0
            finally:
                runtime.close()
            trace = orb.trace
            (trace_id,) = trace.trace_ids()
            spans = trace.spans(trace_id=trace_id)
            by_side = {
                side: {s.name for s in spans if s.side == side}
                for side in ("client", "server")
            }
            assert {"encode", "transfer", "reply", "invoke"} <= by_side[
                "client"
            ]
            assert {"transfer", "dispatch", "reply"} <= by_side["server"]
            invoke = trace.spans(trace_id=trace_id, name="invoke")[0]
            dispatch = trace.spans(trace_id=trace_id, name="dispatch")[0]
            assert invoke.attrs["op"] == "ping"
            assert dispatch.attrs["outcome"] == "ok"
            # The id in the server's spans came off the wire: it
            # equals the request id the client stamped.
            assert trace_id == invoke.attrs["request_id"]
            # The bind span is recorded too (no trace id: binding
            # precedes any request).
            assert trace.spans(name="bind")[0].attrs["object"] == "svc"

    def test_tracing_off_records_nothing_and_stats_omit_trace(self, idl):
        with ORB("trace-off") as orb:
            orb.serve("svc", _servant_factory(idl), nthreads=1)
            runtime = orb.client_runtime(label="plain")
            try:
                proxy = idl.svc._bind("svc", runtime)
                assert proxy.ping(1.0) == 2.0
            finally:
                runtime.close()
            assert orb.trace is None
            assert "trace" not in orb.stats()

    def test_shared_recorder_across_orbs(self, idl):
        # One recorder passed to two ORBs (the multi-process pattern):
        # both feed the same span store and metrics registry.
        recorder = TraceRecorder()
        naming_orb = ORB("trace-a", trace=recorder)
        with naming_orb as orb:
            orb.serve("svc", _servant_factory(idl), nthreads=1)
            runtime = orb.client_runtime(label="shared")
            try:
                proxy = idl.svc._bind("svc", runtime)
                proxy.ping(1.0)
            finally:
                runtime.close()
        assert orb.trace is recorder
        assert len(recorder) > 0


class TestCollectiveTraceCorrelation:
    def test_all_ranks_of_both_sides_form_one_trace(self, idl):
        nthreads = 2
        with ORB("trace-coll", trace=True) as orb:
            orb.serve("svc", _servant_factory(idl), nthreads=nthreads)

            def run(c):
                proxy = idl.svc._spmd_bind(
                    "svc", c.runtime, transfer="multiport"
                )
                seq = idl.vec.from_global(
                    np.ones(64, dtype=np.float64), comm=c.comm
                )
                return proxy.checksum(seq)

            results = orb.run_spmd_client(nthreads, run)
            assert results == [64.0, 64.0]
            trace = orb.trace
            (trace_id,) = trace.trace_ids()
            spans = trace.spans(trace_id=trace_id)
            # Every rank on each side contributed spans to the one
            # logical trace.
            for side in ("client", "server"):
                ranks = {s.rank for s in spans if s.side == side}
                assert ranks == set(range(nthreads))
            # All ranks executed the same stages (the client encode
            # span is rank 0 only: it encodes the one header).
            for name in ("invoke", "transfer"):
                assert len(
                    trace.spans(trace_id=trace_id, side="client", name=name)
                ) == nthreads
            for name in ("transfer", "dispatch", "reply"):
                assert len(
                    trace.spans(trace_id=trace_id, side="server", name=name)
                ) == nthreads


class TestRetryTracePropagation:
    def test_trace_id_survives_retries_and_retry_spans_record(self, idl):
        valve = Valve("drop", kinds=("request",), limit=1)
        policy = FtPolicy(
            max_retries=4, backoff_base_ms=1.0, backoff_cap_ms=5.0
        )
        calls = []
        with ORB(
            "trace-retry",
            fabric=FaultyFabric(Fabric("trace-retry"), valve),
            timeout=0.3,
            trace=True,
        ) as orb:
            orb.serve("svc", _servant_factory(idl, calls), nthreads=1)
            runtime = orb.client_runtime(label="retry")
            try:
                proxy = idl.svc._bind("svc", runtime, ft_policy=policy)
                valve.armed = True
                assert proxy.ping(21.0) == 42.0
            finally:
                runtime.close()
            assert valve.injected == 1
            trace = orb.trace
            (trace_id,) = trace.trace_ids()
            retries = trace.spans(trace_id=trace_id, name="retry")
            assert len(retries) == 1
            assert retries[0].attrs == {
                "attempt": 1,
                "failure": "timeout",
            }
            # Both attempts' reply waits belong to the same trace: the
            # id is the first attempt's request id and retries reuse it.
            attempts = [
                s.attrs["attempt"]
                for s in trace.spans(trace_id=trace_id, name="reply",
                                     side="client")
            ]
            assert attempts == [0, 1]
            # The server executed under the retried request and its
            # spans still correlate.
            assert trace.spans(trace_id=trace_id, side="server",
                               name="dispatch")
            assert trace.spans(trace_id=trace_id, name="invoke")[0].attrs[
                "attempts"
            ] == 1
            # The ft counters mirrored into the metrics registry.
            counters = trace.metrics.snapshot()["counters"]
            assert counters["ft.retries"] >= 1


class TestDegradationTrace:
    def test_engine_flip_records_degrade_span_same_trace(self, idl):
        valve = Valve("disconnect", kinds=("data",))
        policy = FtPolicy(
            max_retries=4, backoff_base_ms=1.0, backoff_cap_ms=5.0
        )
        with ORB(
            "trace-degrade",
            fabric=FaultyFabric(Fabric("trace-degrade"), valve),
            timeout=0.3,
            trace=True,
        ) as orb:
            orb.serve(
                "svc",
                _servant_factory(idl),
                nthreads=1,
            )
            runtime = orb.client_runtime(label="degrade")
            try:
                proxy = idl.svc._bind(
                    "svc", runtime, transfer="multiport", ft_policy=policy
                )
                data = idl.vec.from_global([1.0, 2.0, 3.0])
                valve.armed = True
                assert proxy.checksum(data) == 6.0
            finally:
                runtime.close()
            trace = orb.trace
            (trace_id,) = trace.trace_ids()
            (degrade,) = trace.spans(trace_id=trace_id, name="degrade")
            assert degrade.attrs == {
                "from_engine": wire.MODE_MULTIPORT,
                "to_engine": wire.MODE_CENTRALIZED,
            }
            # Both engines' invoke spans share the trace: the original
            # multiport attempt and the centralized fallback.
            engines = {
                s.attrs["engine"]
                for s in trace.spans(trace_id=trace_id, name="invoke")
            }
            assert engines == {wire.MODE_MULTIPORT, wire.MODE_CENTRALIZED}
            # The server only ever dispatched the centralized fallback
            # (the multiport data never arrived), under the same id.
            dispatched = trace.spans(trace_id=trace_id, side="server",
                                     name="dispatch")
            assert dispatched and all(
                s.attrs["outcome"] == "ok" for s in dispatched
            )


class TestAcceptanceExportedCollectiveTrace:
    def test_faulted_pipelined_collective_exports_one_trace(self, idl):
        """ISSUE acceptance: a collective pipelined invocation under
        injected faults exports a single correlated trace — client and
        server spans for every rank, retry spans visible — via the
        Chrome-trace exporter."""
        nthreads = 2
        schedule = FaultSchedule(seed=97, drop=0.08)
        faulty = FaultyFabric(Fabric("trace-acc"), schedule)
        policy = FtPolicy(
            max_retries=10, backoff_base_ms=1.0, backoff_cap_ms=10.0
        )
        with ORB(
            "trace-acc", fabric=faulty, timeout=0.3, trace=True
        ) as orb:
            orb.serve(
                "svc",
                _servant_factory(idl),
                nthreads=nthreads,
                reply_cache_bytes=1 << 20,
            )

            def run(c):
                proxy = idl.svc._spmd_bind(
                    "svc",
                    c.runtime,
                    transfer="multiport",
                    ft_policy=policy,
                )
                seq = idl.vec.from_global(
                    np.ones(256, dtype=np.float64), comm=c.comm
                )
                # Pipelined: several invocations in flight at once.
                futures = [proxy.checksum_nb(seq) for _ in range(8)]
                return [f.value(timeout=120.0) for f in futures]

            results = orb.run_spmd_client(nthreads, run, timeout=300.0)
            assert results[0] == results[1] == [256.0] * 8
            assert faulty.fault_stats()["drop"] > 0

            trace = orb.trace
            trace_ids = trace.trace_ids()
            assert len(trace_ids) == 8  # one logical trace per invocation
            retried = [
                t for t in trace_ids if trace.spans(trace_id=t, name="retry")
            ]
            assert retried, "seeded faults produced no retries"

            doc = to_chrome_trace(trace)
            exported = spans_from_chrome_trace(doc)
            target = retried[0]
            one_trace = [s for s in exported if s.trace_id == target]
            # Single correlated trace: both sides, every rank, with
            # the retry spans visible after the export round-trip.
            assert {(s.side, s.rank) for s in one_trace} >= {
                (side, rank)
                for side in ("client", "server")
                for rank in range(nthreads)
            }
            assert any(s.name == "retry" for s in one_trace)
            assert any(
                s.name == "dispatch" and s.side == "server"
                for s in one_trace
            )
            # The ride-along metrics made it into the document.
            counters = doc["otherData"]["metrics"]["counters"]
            assert counters["ft.retries"] >= 1
