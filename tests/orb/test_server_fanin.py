"""Fan-in edge cases on the event-loop server: admission control
(connection and request), per-client backpressure, and the fair
dispatch pool.

The ISSUE acceptance scenarios live here: a connect storm past
``max_connections`` gets a BUSY frame instead of a hang, a slow
client stalls only its own queue, and a client that disconnects
mid-backpressure frees its admission slot.
"""

import socket
import struct
import threading
import time

import pytest

from repro import ORB, FtPolicy, compile_idl
from repro.orb.naming import NamingService
from repro.orb.request import RequestMessage, peek_request
from repro.orb.server import (
    KIND_BUSY,
    ServerConfig,
    ServerGovernor,
)
from repro.orb.socketnet import SocketFabric

FANIN_IDL = """
interface blocker {
    long ping(in long x);
    long slow(in long x);
    oneway void poke(in long x);
};
"""


@pytest.fixture(scope="module")
def idl():
    return compile_idl(FANIN_IDL, module_name="fanin_idl")


def _servant_factory(idl, gate):
    class Blocker(idl.blocker_skel):
        def ping(self, x):
            return int(x) + 1

        def slow(self, x):
            gate.wait(timeout=30.0)
            return int(x)

        def poke(self, x):
            gate.wait(timeout=30.0)

    return lambda ctx: Blocker()


def _wait_for(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


# ---------------------------------------------------------------------------
# peek_request
# ---------------------------------------------------------------------------


class TestPeekRequest:
    def test_roundtrip(self):
        message = RequestMessage(
            request_id=(7 << 32) | 42,
            object_key="obj",
            operation="op",
            trace_id=99,
            oneway=True,
        )
        payload = b"".join(
            bytes(s) for s in message.encode_segments()
        )
        routing = peek_request(payload)
        assert routing is not None
        assert routing.request_id == (7 << 32) | 42
        assert routing.client_identity == 7
        assert routing.trace_id == 99
        assert routing.operation == "op"
        assert routing.oneway is True
        assert routing.reply_port is None

    def test_garbage_returns_none(self):
        assert peek_request(b"") is None
        assert peek_request(b"\xff" * 40) is None

    def test_wrong_mode_returns_none(self):
        message = RequestMessage(
            request_id=1, object_key="obj", operation="op"
        )
        payload = bytearray(
            b"".join(bytes(s) for s in message.encode_segments())
        )
        # Corrupt the mode octet (offset 1 of the fixed head).
        assert payload[1] == 0
        payload[1] = 7
        assert peek_request(bytes(payload)) is None


# ---------------------------------------------------------------------------
# Governor unit behavior
# ---------------------------------------------------------------------------


class TestGovernor:
    def test_unadmitted_completion_is_ignored(self):
        gov = ServerGovernor(ServerConfig(client_queue_limit=4))
        gov.request_done((123 << 32) | 1)  # never admitted: no-op
        snap = gov.snapshot()
        assert snap["requests"]["inflight"] == 0
        assert snap["requests"]["completed"] == 0

    def test_max_inflight_rejects(self):
        gov = ServerGovernor(ServerConfig(max_inflight=2))
        assert gov.admit_request(1, 1 << 32, 0, None)
        assert gov.admit_request(1, (1 << 32) | 1, 0, None)
        assert not gov.admit_request(1, (1 << 32) | 2, 0, None)
        snap = gov.snapshot()
        assert snap["requests"]["rejected"] == 1
        gov.request_done(1 << 32)
        assert gov.admit_request(1, (1 << 32) | 3, 0, None)

    def test_pause_and_resume_transitions(self):
        class Loop:
            paused: list = []
            resumed: list = []

            def pause(self, identity):
                self.paused.append(identity)

            def request_resume(self, identity):
                self.resumed.append(identity)

        loop = Loop()
        gov = ServerGovernor(ServerConfig(client_queue_limit=3))
        gov.attach_loop(loop)
        for seq in range(3):
            gov.admit_request(5, (5 << 32) | seq, 0, None)
        assert loop.paused == [5]
        assert gov.is_paused(5)
        gov.request_done(5 << 32)  # pending 2: still paused
        assert loop.resumed == []
        gov.request_done((5 << 32) | 1)  # pending 1 == resume_at
        assert loop.resumed == [5]
        assert not gov.is_paused(5)

    def test_disconnect_clears_orphaned_identity(self):
        gov = ServerGovernor(ServerConfig(client_queue_limit=2))
        gov.on_connection()
        gov.admit_request(9, 9 << 32, 0, None)
        gov.admit_request(9, (9 << 32) | 1, 0, None)
        assert gov.is_paused(9)
        gov.on_disconnect([9])
        snap = gov.snapshot()
        assert snap["requests"]["inflight"] == 0
        assert snap["backpressure"]["paused_clients"] == 0
        # A late completion for the forgotten identity stays a no-op.
        gov.request_done(9 << 32)
        assert gov.snapshot()["requests"]["inflight"] == 0


# ---------------------------------------------------------------------------
# Fair dispatch pool ordering
# ---------------------------------------------------------------------------


class TestFairPool:
    def _pool(self, executed, release, nworkers=1):
        from repro.orb.adapter import _DispatchPool

        class Engine:
            def execute(self, request):
                executed.append(request.request_id)
                release.wait(timeout=10.0)

        return _DispatchPool(Engine(), nworkers, "test-pool")

    def _request(self, identity, seq):
        return RequestMessage(
            request_id=(identity << 32) | seq,
            object_key="obj",
            operation="op",
        )

    def test_round_robin_across_clients_fifo_within(self):
        executed: list = []
        release = threading.Event()
        pool = self._pool(executed, release)
        # Worker grabs A's first request and blocks on the gate;
        # everything else queues behind it.
        pool.dispatch(self._request(1, 0))
        assert _wait_for(lambda: len(executed) == 1)
        for seq in (1, 2):
            pool.dispatch(self._request(1, seq))
        for seq in (0, 1, 2):
            pool.dispatch(self._request(2, seq))
        release.set()
        pool.stop()
        ids = [(r >> 32, r & 0xFFFFFFFF) for r in executed]
        # Per-client FIFO...
        assert [s for c, s in ids if c == 1] == [0, 1, 2]
        assert [s for c, s in ids if c == 2] == [0, 1, 2]
        # ...and round-robin interleaving, not client-1-then-client-2.
        assert ids == [
            (1, 0), (2, 0), (1, 1), (2, 1), (1, 2), (2, 2),
        ]

    def test_stop_drains_queued_requests(self):
        executed: list = []
        release = threading.Event()
        release.set()
        pool = self._pool(executed, release, nworkers=2)
        for seq in range(8):
            pool.dispatch(self._request(3, seq))
        pool.stop()
        assert [r & 0xFFFFFFFF for r in executed] == list(range(8))

    def test_a_servant_s_service_wakes_a_worker_for_a_rerung_key(self):
        """``service`` runs on a servant's thread, not on a worker on
        its way back to the ring: a key it re-rings wakes a parked
        worker, or that client's next request waits for unrelated
        work."""
        from repro.orb.adapter import _DispatchPool

        executed: list = []
        gate = threading.Event()
        a0 = self._request(1, 0)
        b0, b1 = self._request(2, 0), self._request(2, 1)

        class Engine:
            def execute(self, request):
                executed.append(request.request_id)
                if request is a0:
                    gate.wait(timeout=10.0)
                elif request is b0:
                    # On the calling thread: the worker finishes a0
                    # and parks before this key re-rings.
                    gate.set()
                    assert _wait_for(lambda: len(pool._idle) == 1)

        pool = _DispatchPool(Engine(), 1, "test-pool")
        pool.dispatch(a0)
        assert _wait_for(lambda: executed == [a0.request_id])
        pool.dispatch(b0)
        pool.dispatch(b1)
        assert pool.service(1) == 1
        assert _wait_for(lambda: len(executed) == 3)
        pool.stop()
        assert executed == [r.request_id for r in (a0, b0, b1)]

    def test_two_clients_streams_overlap_on_two_workers(self):
        """A worker that keeps its own client's stream leaves the other
        client's to a second worker: every request meets one of the
        other client's at a barrier only two threads can pass."""
        from repro.orb.adapter import _DispatchPool

        barrier = threading.Barrier(2)

        class Engine:
            def execute(self, request):
                barrier.wait(timeout=10.0)

        pool = _DispatchPool(Engine(), 2, "test-pool")
        for seq in range(8):
            pool.dispatch(self._request(1, seq))
            pool.dispatch(self._request(2, seq))
        pool.stop()
        assert not barrier.broken


# ---------------------------------------------------------------------------
# Connection admission: connect storm gets BUSY, not a hang
# ---------------------------------------------------------------------------


def _read_busy_frame(sock):
    """Read one frame off a raw client socket and return its kind."""
    header = b""
    while len(header) < 4:
        chunk = sock.recv(4 - len(header))
        assert chunk, "connection closed before the BUSY frame"
        header += chunk
    length = int.from_bytes(header, "big")
    body = b""
    while len(body) < length:
        chunk = sock.recv(length - len(body))
        assert chunk, "connection closed mid-frame"
        body += chunk
    # The envelope head by its offset table (docs/protocol.md, "TCP
    # framing"), not by the codec under test.
    dest_port_id, _nbytes, _tcp_port, _port_id, host_n, label_n, kind_n = (
        struct.unpack_from(("<" if body[0] else ">") + "3xIIIIHHH", body, 1)
    )
    assert dest_port_id == 0  # no real port
    kind_at = 26 + host_n + label_n
    return body[kind_at : kind_at + kind_n].decode("utf-8")


def test_connect_storm_past_max_connections_gets_busy():
    config = ServerConfig(max_connections=2)
    with SocketFabric("storm-server", server=config) as fabric:
        keep = []
        try:
            for _ in range(2):
                sock = socket.create_connection(
                    (fabric.host, fabric.tcp_port), timeout=5
                )
                keep.append(sock)
            # Both admitted by the loop before the storm starts.
            assert _wait_for(
                lambda: fabric.governor.snapshot()["connections"][
                    "accepted"
                ]
                == 2
            )
            for _ in range(5):
                extra = socket.create_connection(
                    (fabric.host, fabric.tcp_port), timeout=5
                )
                extra.settimeout(5)
                try:
                    assert _read_busy_frame(extra) == KIND_BUSY
                    # ...and then a clean close, not a hang.
                    assert extra.recv(1) == b""
                finally:
                    extra.close()
            stats = fabric.governor.snapshot()["connections"]
            assert stats["rejected"] == 5
            assert stats["active"] == 2
        finally:
            for sock in keep:
                sock.close()
        # Closed connections release their admission slots.
        assert _wait_for(
            lambda: fabric.governor.snapshot()["connections"]["active"]
            == 0
        )
        final = socket.create_connection(
            (fabric.host, fabric.tcp_port), timeout=5
        )
        final.close()
        assert _wait_for(
            lambda: fabric.governor.snapshot()["connections"]["accepted"]
            == 3
        )


# ---------------------------------------------------------------------------
# Request admission: BUSY reply is retryable
# ---------------------------------------------------------------------------


def test_max_inflight_busy_reply_is_retried(idl):
    gate = threading.Event()
    naming = NamingService()
    config = ServerConfig(max_inflight=2, client_queue_limit=0)
    with SocketFabric("busy-server", server=config) as sf, \
            SocketFabric("busy-client") as cf:
        server = ORB("busy-server", fabric=sf, naming=naming, timeout=5.0)
        client = ORB("busy-client", fabric=cf, naming=naming, timeout=5.0)
        with server, client:
            server.serve(
                "blocker",
                _servant_factory(idl, gate),
                nthreads=1,
                dispatch_workers=4,
            )
            policy = FtPolicy(
                max_retries=50,
                backoff_base_ms=5.0,
                backoff_cap_ms=50.0,
            )
            runtime = client.client_runtime(
                pipeline_depth=8, ft_policy=policy
            )
            proxy = idl.blocker._bind("blocker", runtime)
            futures = [proxy.slow_nb(i) for i in range(6)]
            # The overflow got BUSY replies, not queue slots.
            assert _wait_for(
                lambda: sf.governor.snapshot()["requests"]["rejected"]
                > 0
            )
            gate.set()
            assert sorted(f.value(timeout=30.0) for f in futures) == \
                list(range(6))
            runtime.close()
            stats = server.stats()["server"]["requests"]
            assert stats["rejected"] > 0
            assert stats["max_inflight"] == 2


# ---------------------------------------------------------------------------
# Backpressure: a slow client stalls only its own queue
# ---------------------------------------------------------------------------


def test_slow_client_stalls_only_its_own_queue(idl):
    gate = threading.Event()
    naming = NamingService()
    config = ServerConfig(client_queue_limit=4)
    with SocketFabric("bp-server", server=config) as sf, \
            SocketFabric("bp-hog") as hog_fabric, \
            SocketFabric("bp-polite") as polite_fabric:
        server = ORB("bp-server", fabric=sf, naming=naming, timeout=10.0)
        hog = ORB("bp-hog", fabric=hog_fabric, naming=naming, timeout=10.0)
        polite = ORB(
            "bp-polite", fabric=polite_fabric, naming=naming, timeout=10.0
        )
        with server, hog, polite:
            server.serve(
                "blocker",
                _servant_factory(idl, gate),
                nthreads=1,
                dispatch_workers=2,
            )
            hog_rt = hog.client_runtime()
            hog_proxy = idl.blocker._bind("blocker", hog_rt)
            # 20 oneways into a gated servant: the hog's queue fills
            # and its socket is paused at the limit.
            for i in range(20):
                hog_proxy.poke(i)
            assert _wait_for(
                lambda: sf.governor.snapshot()["backpressure"][
                    "paused_clients"
                ]
                == 1
            )
            snap = sf.governor.snapshot()
            assert snap["requests"]["inflight"] <= 4
            # A different client's requests keep flowing while the
            # hog is paused.
            polite_rt = polite.client_runtime()
            polite_proxy = idl.blocker._bind("blocker", polite_rt)
            assert [polite_proxy.ping(i) for i in range(5)] == [
                i + 1 for i in range(5)
            ]
            assert (
                sf.governor.snapshot()["backpressure"][
                    "paused_clients"
                ]
                == 1
            )
            # Open the gate: the hog drains, resumes, and finishes.
            gate.set()
            assert _wait_for(
                lambda: sf.governor.snapshot()["requests"]["inflight"]
                == 0
            )
            final = sf.governor.snapshot()
            assert final["backpressure"]["paused_clients"] == 0
            assert final["backpressure"]["pauses"] >= 1
            assert final["backpressure"]["resumes"] >= 1
            # Every admitted oneway was executed, in spite of the
            # pauses (admitted includes the polite client's pings).
            assert final["requests"]["completed"] == \
                final["requests"]["admitted"]
            hog_rt.close()
            polite_rt.close()


# ---------------------------------------------------------------------------
# Disconnect mid-backpressure frees the admission slot
# ---------------------------------------------------------------------------


def test_disconnect_mid_backpressure_frees_slot(idl):
    gate = threading.Event()
    naming = NamingService()
    limit = 4
    config = ServerConfig(client_queue_limit=limit)
    with SocketFabric("dc-server", server=config) as sf:
        server = ORB("dc-server", fabric=sf, naming=naming, timeout=10.0)
        with server:
            server.serve(
                "blocker",
                _servant_factory(idl, gate),
                nthreads=1,
                dispatch_workers=limit,
            )
            with SocketFabric("dc-client") as cf:
                client = ORB(
                    "dc-client", fabric=cf, naming=naming, timeout=10.0
                )
                with client:
                    runtime = client.client_runtime()
                    proxy = idl.blocker._bind("blocker", runtime)
                    # Exactly `limit` oneways: the identity pauses
                    # with its kernel buffer drained, so the EOF of
                    # the coming disconnect is observable.
                    for i in range(limit):
                        proxy.poke(i)
                    assert _wait_for(
                        lambda: sf.governor.snapshot()[
                            "backpressure"
                        ]["paused_clients"]
                        == 1
                    )
                    runtime.close()
            # The client fabric is gone; the paused-connection sweep
            # notices and frees the identity's pending slots even
            # though the servant is still blocked.
            assert _wait_for(
                lambda: sf.governor.snapshot()["requests"]["inflight"]
                == 0,
                timeout=15.0,
            )
            assert (
                sf.governor.snapshot()["backpressure"][
                    "paused_clients"
                ]
                == 0
            )
            gate.set()


# ---------------------------------------------------------------------------
# A request admitted for a port that is gone frees its slot on the drop
# ---------------------------------------------------------------------------


def test_admitted_request_to_a_dead_port_releases_its_slot(idl):
    """The loop admits a request before it knows whether the port is
    still there.  After a replica is killed, calls still addressed to
    it are dropped frames — and must not keep their admission slots
    until the client happens to disconnect."""
    from repro.orb.transport import KIND_REQUEST

    naming = NamingService()
    config = ServerConfig(max_inflight=2)
    with SocketFabric("dead-server", server=config) as sf, SocketFabric(
        "dead-client"
    ) as cf:
        server = ORB("dead-server", fabric=sf, naming=naming, timeout=10.0)
        with server:
            server.serve("blocker", _servant_factory(idl, threading.Event()))
            dead = sf.open_port("killed-replica")
            dead.close()
            reply_port = cf.open_port("replies")
            for seq in range(2):
                request = RequestMessage(
                    request_id=(9 << 32) | seq,
                    object_key="blocker",
                    operation="ping",
                    reply_port=reply_port.address,
                )
                reply_port.send(
                    dead.address, request.encode_segments(), KIND_REQUEST
                )
            assert _wait_for(lambda: sf.dropped_frames == 2)
            # Released on the drop itself, on the loop thread: nothing
            # to wait for beyond the drop being visible.
            requests = sf.governor.snapshot()["requests"]
            assert requests["admitted"] == 2
            assert requests["inflight"] == 0
            assert requests["completed"] == 2
            # The budget is whole again: the same connection's next
            # calls to a live object are admitted, not refused BUSY.
            client = ORB("dead-client", fabric=cf, naming=naming, timeout=10.0)
            with client:
                runtime = client.client_runtime()
                proxy = idl.blocker._bind("blocker", runtime)
                assert [proxy.ping(i) for i in range(3)] == [1, 2, 3]
                runtime.close()
            # (A reply can overtake its own slot's release.)
            assert _wait_for(
                lambda: sf.governor.snapshot()["requests"]["inflight"] == 0
            )
            assert sf.governor.snapshot()["requests"]["rejected"] == 0
            assert reply_port.pending() == 0  # dropped, not answered


# ---------------------------------------------------------------------------
# Stats surface
# ---------------------------------------------------------------------------


def test_orb_stats_server_section_schema():
    with SocketFabric(
        "stats-server",
        server=ServerConfig(max_connections=100, max_inflight=500),
    ) as fabric:
        orb = ORB("stats-server", fabric=fabric, naming=NamingService())
        with orb:
            section = orb.stats()["server"]
            assert sorted(section) == [
                "backpressure", "connections", "requests",
            ]
            assert section["connections"]["max"] == 100
            assert section["requests"]["max_inflight"] == 500
            assert section["backpressure"]["queue_limit"] == 64
            assert section["backpressure"]["resume_at"] == 32


@pytest.mark.parametrize("trace", [None, True])
def test_server_counters_are_in_the_registry_traced_or_not(idl, trace):
    """The governor's tallies *are* the ``server.*`` metrics: adopted
    by the ORB's always-on registry, no recorder needed."""
    gate = threading.Event()
    gate.set()
    naming = NamingService()
    with SocketFabric("m-server") as sf, SocketFabric("m-client") as cf:
        server = ORB(
            "m-server", fabric=sf, naming=naming, timeout=5.0, trace=trace
        )
        client = ORB("m-client", fabric=cf, naming=naming, timeout=5.0)
        with server, client:
            server.serve(
                "blocker", _servant_factory(idl, gate), nthreads=1
            )
            runtime = client.client_runtime()
            proxy = idl.blocker._bind("blocker", runtime)
            assert proxy.ping(1) == 2
            counters = server.metrics.snapshot()["counters"]
            assert counters["server.connections.accepted"] >= 1
            assert counters["server.requests.admitted"] == 1
            section = server.stats()["server"]
            assert section["requests"]["admitted"] == 1
            if trace:
                traced = server.stats()["trace"]["metrics"]["counters"]
                assert traced["server.requests.admitted"] == 1
            runtime.close()
