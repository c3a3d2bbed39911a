"""End-to-end retry semantics on a serial client: retried drops,
reply-cache dedup, deadlines with retries disabled, multiport
degradation, and the orb.stats() snapshot."""

import threading

import pytest

from repro import ORB, FtPolicy, compile_idl
from repro.ft.faults import FaultyFabric
from repro.ft.policy import DeadlineExceeded
from repro.orb.transport import Fabric

RETRY_IDL = """
typedef dsequence<double, 4096> vec;

interface flaky {
    double ping(in double x);
    vec echo(in vec data);
};
"""


@pytest.fixture(scope="module")
def idl():
    return compile_idl(RETRY_IDL, module_name="retries_idl")


class Valve:
    """A hand-cranked fault schedule: injects ``action`` on the listed
    frame kinds only while armed, up to ``limit`` times.  Used instead
    of FaultSchedule where a test needs to fault an exact frame (e.g.
    only the first reply) rather than a seeded fraction."""

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


def _serve_counting(orb, idl, counter, **kwargs):
    class Servant(idl.flaky_skel):
        def ping(self, x):
            counter.append(x)
            return x * 2.0

        def echo(self, data):
            counter.append("echo")
            return data

    orb.serve("flaky", lambda ctx: Servant(), nthreads=1, **kwargs)


def _orb_with_valve(valve, timeout=0.3):
    return ORB(
        "retries-test",
        fabric=FaultyFabric(Fabric("retries"), valve),
        timeout=timeout,
    )


RETRYING = FtPolicy(max_retries=4, backoff_base_ms=1.0, backoff_cap_ms=5.0)


class TestRetries:
    def test_dropped_request_is_retried_to_completion(self, idl):
        valve = Valve("drop", kinds=("request",), limit=1)
        calls = []
        with _orb_with_valve(valve) as orb:
            _serve_counting(orb, idl, calls)
            runtime = orb.client_runtime(label="retry")
            try:
                proxy = idl.flaky._bind(
                    "flaky", runtime, ft_policy=RETRYING
                )
                valve.armed = True
                assert proxy.ping(21.0) == 42.0
            finally:
                runtime.close()
            assert valve.injected == 1
            assert orb.stats()["ft"]["retries"] >= 1
            assert calls == [21.0]

    def test_reply_cache_replays_instead_of_reexecuting(self, idl):
        # Only the reply frame is lost: the request executed, so the
        # retry must be answered from the reply cache — the servant
        # runs exactly once even though the request arrived twice.
        valve = Valve("drop", kinds=("reply",), limit=1)
        calls = []
        with _orb_with_valve(valve) as orb:
            _serve_counting(
                orb,
                idl,
                calls,
                reply_cache_bytes=1 << 20,
            )
            runtime = orb.client_runtime(label="dedup")
            try:
                proxy = idl.flaky._bind(
                    "flaky", runtime, ft_policy=RETRYING
                )
                valve.armed = True
                assert proxy.ping(5.0) == 10.0
                valve.armed = False
                assert proxy.ping(6.0) == 12.0
            finally:
                runtime.close()
            assert calls == [5.0, 6.0]
            assert orb.stats()["ft"]["retries"] >= 1
            cache_stats = orb.stats()["reply_caches"]["flaky"]
            assert cache_stats["replays"] >= 1

    def test_without_cache_lost_reply_reexecutes(self, idl):
        # The documented at-least-once fallback: cache off, a lost
        # reply means the retry executes the servant again.
        valve = Valve("drop", kinds=("reply",), limit=1)
        calls = []
        with _orb_with_valve(valve) as orb:
            _serve_counting(orb, idl, calls)
            runtime = orb.client_runtime(label="atleastonce")
            try:
                proxy = idl.flaky._bind(
                    "flaky", runtime, ft_policy=RETRYING
                )
                valve.armed = True
                assert proxy.ping(5.0) == 10.0
            finally:
                runtime.close()
            assert calls == [5.0, 5.0]


class TestDeadline:
    def test_retries_disabled_raises_deadline_exceeded(self, idl):
        valve = Valve("drop", kinds=("request",))
        with _orb_with_valve(valve, timeout=0.2) as orb:
            _serve_counting(orb, idl, [])
            runtime = orb.client_runtime(label="deadline")
            try:
                proxy = idl.flaky._bind(
                    "flaky",
                    runtime,
                    ft_policy=FtPolicy(deadline_ms=200.0, max_retries=0),
                )
                valve.armed = True
                with pytest.raises(DeadlineExceeded) as info:
                    proxy.ping(1.0)
            finally:
                runtime.close()
            assert info.value.operation == "ping"
            assert info.value.category == "TIMEOUT"
            assert info.value.attempts == 0
            assert orb.stats()["ft"]["deadline_exceeded"] == 1


class TestDegradation:
    def test_multiport_degrades_to_centralized(self, idl):
        # Data ports dead, request path alive: the multiport transfer
        # fails "unreachable" and the proxy permanently falls back to
        # the centralized method (paper §3.2) instead of erroring.
        valve = Valve("disconnect", kinds=("data",))
        calls = []
        with _orb_with_valve(valve) as orb:
            # The abandoned multiport request (stuck collecting chunks
            # that will never come, until the server-side
            # request_timeout clears it) holds this client's turn for
            # up to one timeout: the centralized fallback waits behind
            # it, and the policy's retries outlast the wait.
            _serve_counting(orb, idl, calls)
            runtime = orb.client_runtime(label="degrade")
            try:
                proxy = idl.flaky._bind(
                    "flaky",
                    runtime,
                    transfer="multiport",
                    ft_policy=RETRYING,
                )
                data = idl.vec.from_global([1.0, 2.0, 3.0])
                valve.armed = True
                result = proxy.echo(data)
                assert result.length() == 3
                assert proxy.transfer_method == "centralized"
                # Later invocations go centralized directly.
                assert proxy.echo(data).length() == 3
            finally:
                runtime.close()
            assert orb.stats()["ft"]["degraded"] >= 1


class TestOrbStats:
    def test_snapshot_shape_and_counters(self, idl):
        valve = Valve("drop", kinds=("request",), limit=1)
        with _orb_with_valve(valve) as orb:
            _serve_counting(
                orb,
                idl,
                [],
                reply_cache_bytes=1 << 20,
            )
            runtime = orb.client_runtime(label="stats")
            try:
                proxy = idl.flaky._bind(
                    "flaky", runtime, ft_policy=RETRYING
                )
                valve.armed = True
                proxy.ping(1.0)
                stats = orb.stats()
            finally:
                runtime.close()
        assert stats["fabric"]["faults"]["drop"] == 1
        assert stats["ft"]["retries"] >= 1
        assert "hits" in stats["transfer_schedule_cache"]
        assert stats["cdr_copies"]["bytes"] >= 0
        assert stats["reply_caches"]["flaky"]["admitted"] >= 1

    def test_snapshot_is_deep_copied_at_the_boundary(self, idl):
        # Regression: stats() must hand back a deep copy.  Poisoning
        # any nested section of a snapshot must not leak into later
        # snapshots, and later ORB activity must not mutate a snapshot
        # already taken.
        valve = Valve("drop", kinds=("request",), limit=1)
        with _orb_with_valve(valve) as orb:
            _serve_counting(orb, idl, [])
            runtime = orb.client_runtime(label="isolated")
            try:
                proxy = idl.flaky._bind(
                    "flaky", runtime, ft_policy=RETRYING
                )
                proxy.ping(1.0)
                before = orb.stats()
                for section in before.values():
                    if isinstance(section, dict):
                        section.clear()
                before["fabric"] = None
                clean = orb.stats()
                assert clean["fabric"]["faults"]["drop"] == 0
                assert "hits" in clean["transfer_schedule_cache"]
                assert clean["ft"] == {
                    name: c.value for name, c in runtime.ft.items()
                }

                valve.armed = True
                proxy.ping(2.0)  # injects a drop + a retry
                after = orb.stats()
                assert clean["fabric"]["faults"]["drop"] == 0
                assert clean["ft"]["retries"] == 0
                assert after["fabric"]["faults"]["drop"] == 1
                assert after["ft"]["retries"] >= 1
            finally:
                runtime.close()
