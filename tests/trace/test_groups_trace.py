"""Tracing for replicated-group bindings: the ``replica=`` span tag
and trace-id continuity across a client-side failover."""

import pytest

from repro import ORB, FtPolicy, compile_idl

GROUPS_TRACE_IDL = """
interface counter {
    double add(in double x);
};
"""

RETRYING = FtPolicy(
    max_retries=1, backoff_base_ms=1.0, backoff_cap_ms=5.0
)


@pytest.fixture(scope="module")
def idl():
    return compile_idl(
        GROUPS_TRACE_IDL, module_name="groups_trace_idl"
    )


def _factory(idl):
    class CounterServant(idl.counter_skel):
        def __init__(self):
            self.total = 0.0

        def add(self, x):
            self.total += x
            return self.total

    return lambda ctx: CounterServant()


class TestReplicaTag:
    def test_group_client_spans_carry_the_replica(self, idl):
        with ORB("groups-tag", timeout=0.3, trace=True) as orb:
            group = orb.serve_replicated(
                "ctr", _factory(idl), replicas=3
            )
            runtime = orb.client_runtime()
            try:
                proxy = idl.counter._group_bind(
                    "ctr", runtime, ft_policy=RETRYING
                )
                assert proxy.add(1.0) == 1.0
                target = proxy._group.current_replica()
            finally:
                runtime.close()
                group.shutdown()
            invoke = orb.trace.spans(side="client", name="invoke")[0]
            assert invoke.attrs["replica"] == target
            # The bind span records the group binding mode.
            bind = orb.trace.spans(name="bind")[0]
            assert bind.attrs["mode"] == "group_bind"

    def test_singleton_spans_stay_untagged(self, idl):
        with ORB("solo-tag", trace=True) as orb:
            orb.serve("ctr", _factory(idl), nthreads=1)
            runtime = orb.client_runtime()
            try:
                proxy = idl.counter._bind("ctr", runtime)
                assert proxy.add(2.0) == 2.0
            finally:
                runtime.close()
            for span in orb.trace.spans(side="client"):
                assert "replica" not in span.attrs


class TestFailoverContinuity:
    def test_one_trace_spans_failure_vote_and_replay(self, idl):
        with ORB("groups-cont", timeout=0.3, trace=True) as orb:
            group = orb.serve_replicated(
                "ctr", _factory(idl), replicas=3
            )
            runtime = orb.client_runtime()
            try:
                proxy = idl.counter._group_bind(
                    "ctr", runtime, ft_policy=RETRYING
                )
                first = proxy._group.current_replica()
                group.kill(first)
                assert proxy.add(3.0) == 3.0
                second = proxy._group.current_replica()
            finally:
                runtime.close()
                group.shutdown()

            trace = orb.trace
            (trace_id,) = trace.trace_ids()
            spans = trace.spans(trace_id=trace_id)

            # The failed attempt, the failover vote, and the replay
            # all belong to ONE logical trace.
            invokes = [s for s in spans if s.name == "invoke"]
            replicas = {s.attrs.get("replica") for s in invokes}
            assert {first, second} <= replicas

            (flip,) = [s for s in spans if s.name == "failover"]
            assert flip.attrs["failed_replica"] == first
            assert flip.attrs["replica"] == second
            assert flip.attrs["group"] == "ctr"
            assert flip.attrs["operation"] == "counter.add"

            # The metrics registry counted the flip.
            metrics = trace.metrics.snapshot()
            assert metrics["counters"]["groups.failovers"] == 1
