"""Fan-in edge cases on the event-loop server: per-client
backpressure, the connection count, and the fair dispatch pool.

A slow client stalls only its own queue, a client that disconnects
mid-backpressure frees its queue slots, and a request frame that
reaches no request intake is never counted.  Tests that need a small
queue monkeypatch the two depths of :mod:`repro.orb.server`, which the
governor reads at each call.
"""

import socket
import threading
import time

import pytest

from repro import ORB, compile_idl
from repro.orb import adapter
from repro.orb import server as server_module
from repro.orb.naming import NamingService
from repro.orb.request import RequestMessage, peek_request
from repro.orb.server import CLIENT_QUEUE_LIMIT, RESUME_AT, ServerGovernor
from repro.orb.socketnet import SocketFabric, _local_name
from repro.orb.transport import KIND_REQUEST

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


@pytest.fixture
def small_queue(monkeypatch):
    """Backpressure at four requests, read again at two."""
    monkeypatch.setattr(server_module, "CLIENT_QUEUE_LIMIT", 4)
    monkeypatch.setattr(server_module, "RESUME_AT", 2)
    return 4


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
        gov = ServerGovernor()
        gov.request_done((123 << 32) | 1)  # never admitted: no-op
        snap = gov.snapshot()
        assert snap["requests"]["inflight"] == 0
        assert snap["requests"]["completed"] == 0

    def test_pause_and_resume_transitions(self, monkeypatch):
        monkeypatch.setattr(server_module, "CLIENT_QUEUE_LIMIT", 3)
        monkeypatch.setattr(server_module, "RESUME_AT", 1)

        class Loop:
            paused: list = []
            resumed: list = []

            def pause(self, identity):
                self.paused.append(identity)

            def request_resume(self, identity):
                self.resumed.append(identity)

        loop = Loop()
        gov = ServerGovernor()
        gov.attach_loop(loop)
        for _ in range(3):
            gov.admit_request(5)
        assert loop.paused == [5]
        assert gov.is_paused(5)
        gov.request_done(5 << 32)  # pending 2: still paused
        assert loop.resumed == []
        gov.request_done((5 << 32) | 1)  # pending 1 == RESUME_AT
        assert loop.resumed == [5]
        assert not gov.is_paused(5)

    def test_disconnect_clears_orphaned_identity(self, monkeypatch):
        monkeypatch.setattr(server_module, "CLIENT_QUEUE_LIMIT", 2)
        gov = ServerGovernor()
        gov.on_connection()
        gov.admit_request(9)
        gov.admit_request(9)
        assert gov.is_paused(9)
        gov.on_disconnect([9])
        snap = gov.snapshot()
        assert snap["requests"]["inflight"] == 0
        assert snap["backpressure"]["paused_clients"] == 0
        # A late completion for the forgotten identity stays a no-op.
        gov.request_done(9 << 32)
        assert gov.snapshot()["requests"]["inflight"] == 0

    def test_a_paused_identity_pauses_once_and_alone(self, monkeypatch):
        """Requests admitted past the limit do not pause the identity
        again, another identity's depth is its own, and a second
        fill after a resume is a second pause."""
        monkeypatch.setattr(server_module, "CLIENT_QUEUE_LIMIT", 2)
        monkeypatch.setattr(server_module, "RESUME_AT", 0)
        paused = []
        resumed = []

        class Loop:
            pause = staticmethod(paused.append)
            request_resume = staticmethod(resumed.append)

        gov = ServerGovernor()
        gov.attach_loop(Loop())
        for _ in range(4):
            gov.admit_request(7)
        gov.admit_request(8)
        assert paused == [7]
        assert not gov.is_paused(8)
        snap = gov.snapshot()
        assert snap["requests"]["inflight"] == 5
        assert snap["backpressure"]["pauses"] == 1
        for seq in range(4):
            gov.request_done((7 << 32) | seq)
        assert resumed == [7]
        gov.admit_request(7)
        gov.admit_request(7)
        assert paused == [7, 7]
        backpressure = gov.snapshot()["backpressure"]
        assert (backpressure["pauses"], backpressure["resumes"]) == (2, 1)

    def test_the_depths_are_read_at_each_call(self, monkeypatch):
        """A governor made before the depths change uses the new ones,
        and its snapshot reports them."""
        gov = ServerGovernor()
        backpressure = gov.snapshot()["backpressure"]
        assert (backpressure["queue_limit"], backpressure["resume_at"]) == (
            CLIENT_QUEUE_LIMIT,
            RESUME_AT,
        )
        monkeypatch.setattr(server_module, "CLIENT_QUEUE_LIMIT", 3)
        monkeypatch.setattr(server_module, "RESUME_AT", 2)
        backpressure = gov.snapshot()["backpressure"]
        assert (backpressure["queue_limit"], backpressure["resume_at"]) == (
            3,
            2,
        )
        for _ in range(3):
            gov.admit_request(4)
        assert gov.is_paused(4)
        gov.request_done(4 << 32)  # pending 2 == the patched RESUME_AT
        assert not gov.is_paused(4)


# ---------------------------------------------------------------------------
# Fair dispatch pool ordering
# ---------------------------------------------------------------------------


class TestFairPool:
    """The pool on its own: ``run()`` is the rank thread's part, driven
    here on a thread of the test's, and ``end()`` ends service."""

    @staticmethod
    def _run(pool):
        thread = threading.Thread(target=pool.run, daemon=True)
        thread.start()
        return thread

    @staticmethod
    def _end(pool, thread):
        pool.end()
        thread.join(timeout=10.0)
        assert not thread.is_alive()

    def _pool(self, executed, release):
        from repro.orb.adapter import _DispatchPool

        class Engine:
            def execute(self, request):
                executed.append(request.request_id)
                release.wait(timeout=10.0)

        return _DispatchPool(Engine(), "test-pool")

    def _request(self, identity, seq):
        return RequestMessage(
            request_id=(identity << 32) | seq,
            object_key="obj",
            operation="op",
        )

    def test_round_robin_across_clients_fifo_within(self, monkeypatch):
        monkeypatch.setattr(adapter, "DISPATCH_THREADS", 1)
        executed: list = []
        release = threading.Event()
        pool = self._pool(executed, release)
        thread = self._run(pool)
        # The one thread grabs A's first request and blocks on the
        # gate; everything else queues behind it.
        pool.dispatch(self._request(1, 0))
        assert _wait_for(lambda: len(executed) == 1)
        for seq in (1, 2):
            pool.dispatch(self._request(1, seq))
        for seq in (0, 1, 2):
            pool.dispatch(self._request(2, seq))
        release.set()
        self._end(pool, thread)
        ids = [(r >> 32, r & 0xFFFFFFFF) for r in executed]
        # Per-client FIFO...
        assert [s for c, s in ids if c == 1] == [0, 1, 2]
        assert [s for c, s in ids if c == 2] == [0, 1, 2]
        # ...and round-robin interleaving, not client-1-then-client-2.
        assert ids == [
            (1, 0), (2, 0), (1, 1), (2, 1), (1, 2), (2, 2),
        ]

    def test_end_drains_queued_requests(self):
        executed: list = []
        release = threading.Event()
        release.set()
        pool = self._pool(executed, release)
        # Queued before the rank thread runs: the first request wakes
        # it all the same.
        for seq in range(8):
            pool.dispatch(self._request(3, seq))
        pool.end()
        pool.run()
        assert [r & 0xFFFFFFFF for r in executed] == list(range(8))

    def test_a_servant_s_service_wakes_a_thread_for_a_rerung_key(
        self, monkeypatch
    ):
        """``service`` runs on a servant's thread, not on a thread on
        its way back to the ring: a key it re-rings wakes a parked
        thread, or that client's next request waits for unrelated
        work."""
        from repro.orb.adapter import _DispatchPool

        monkeypatch.setattr(adapter, "DISPATCH_THREADS", 1)
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
                    # On the calling thread: the pool's thread
                    # finishes a0 and parks before this key re-rings.
                    gate.set()
                    assert _wait_for(lambda: len(pool._idle) == 1)

        pool = _DispatchPool(Engine(), "test-pool")
        thread = self._run(pool)
        pool.dispatch(a0)
        assert _wait_for(lambda: executed == [a0.request_id])
        pool.dispatch(b0)
        pool.dispatch(b1)
        assert pool.service(1) == 1
        assert _wait_for(lambda: len(executed) == 3)
        self._end(pool, thread)
        assert executed == [r.request_id for r in (a0, b0, b1)]

    def test_two_clients_streams_overlap_on_two_threads(self):
        """A thread that keeps its own client's stream leaves the other
        client's to a second thread, started for it: every request
        meets one of the other client's at a barrier only two threads
        can pass."""
        from repro.orb.adapter import _DispatchPool

        barrier = threading.Barrier(2)

        class Engine:
            def execute(self, request):
                barrier.wait(timeout=10.0)

        pool = _DispatchPool(Engine(), "test-pool")
        thread = self._run(pool)
        for seq in range(8):
            pool.dispatch(self._request(1, seq))
            pool.dispatch(self._request(2, seq))
        self._end(pool, thread)
        assert not barrier.broken
        assert not [t for t in pool._threads if t.is_alive()]


# ---------------------------------------------------------------------------
# Connections: both listeners feed one count
# ---------------------------------------------------------------------------


def _connect_local(fabric):
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(5)
    sock.connect(_local_name((fabric.host, fabric.tcp_port)))
    return sock


def test_both_listeners_feed_one_connection_count():
    """Raw TCP peers and local-stream peers are counted together, and
    closing them brings ``active`` back to zero."""
    with SocketFabric("two-listeners") as fabric:

        def connections():
            return fabric.governor.snapshot()["connections"]

        peers = []
        try:
            for _ in range(3):
                peers.append(
                    socket.create_connection(
                        (fabric.host, fabric.tcp_port), timeout=5
                    )
                )
                peers.append(_connect_local(fabric))
            assert _wait_for(lambda: connections()["accepted"] == 6)
            assert connections()["active"] == 6
        finally:
            for sock in peers:
                sock.close()
        assert _wait_for(lambda: connections()["active"] == 0)
        assert (connections()["accepted"], connections()["closed"]) == (6, 6)


# ---------------------------------------------------------------------------
# Backpressure: a slow client stalls only its own queue
# ---------------------------------------------------------------------------


def test_slow_client_stalls_only_its_own_queue(idl, small_queue):
    gate = threading.Event()
    naming = NamingService()
    with SocketFabric("bp-server") as sf, \
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
            assert snap["requests"]["inflight"] <= small_queue
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


def test_disconnect_mid_backpressure_frees_slot(idl, small_queue):
    gate = threading.Event()
    naming = NamingService()
    limit = small_queue
    with SocketFabric("dc-server") as sf:
        server = ORB("dc-server", fabric=sf, naming=naming, timeout=10.0)
        with server:
            server.serve(
                "blocker",
                _servant_factory(idl, gate),
                nthreads=1,
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
# The default depths, with nothing patched
# ---------------------------------------------------------------------------


def test_a_default_fabric_pauses_a_hog_at_the_limit_and_resumes_it(idl):
    """One-ways into a gated servant pause their identity at exactly
    :data:`CLIENT_QUEUE_LIMIT` admitted requests; another client's
    calls keep being answered; the hog is read again once its queue
    drains to :data:`RESUME_AT`, and not a request earlier."""
    permits = threading.Semaphore(0)

    class Blocker(idl.blocker_skel):
        def ping(self, x):
            return int(x) + 1

        def slow(self, x):
            return int(x)

        def poke(self, x):
            permits.acquire(timeout=30.0)

    naming = NamingService()
    with SocketFabric("dflt-server") as sf, \
            SocketFabric("dflt-hog") as hog_fabric, \
            SocketFabric("dflt-polite") as polite_fabric:
        server = ORB("dflt-server", fabric=sf, naming=naming, timeout=10.0)
        hog = ORB("dflt-hog", fabric=hog_fabric, naming=naming, timeout=10.0)
        polite = ORB(
            "dflt-polite", fabric=polite_fabric, naming=naming, timeout=10.0
        )
        with server, hog, polite:
            server.serve(
                "blocker", lambda ctx: Blocker(), nthreads=1
            )

            def snap():
                return sf.governor.snapshot()

            hog_rt = hog.client_runtime()
            hog_proxy = idl.blocker._bind("blocker", hog_rt)
            extra = 16
            for i in range(CLIENT_QUEUE_LIMIT + extra):
                hog_proxy.poke(i)
            assert _wait_for(
                lambda: snap()["backpressure"]["paused_clients"] == 1
            )
            # The frame that paused the hog was the last one read.
            assert snap()["requests"]["admitted"] == CLIENT_QUEUE_LIMIT
            polite_rt = polite.client_runtime()
            polite_proxy = idl.blocker._bind("blocker", polite_rt)
            assert [polite_proxy.ping(i) for i in range(5)] == [
                i + 1 for i in range(5)
            ]
            assert _wait_for(
                lambda: snap()["requests"]["inflight"] == CLIENT_QUEUE_LIMIT
            )
            # One short of the resume depth: still paused.
            drained = CLIENT_QUEUE_LIMIT - RESUME_AT
            for _ in range(drained - 1):
                permits.release()
            assert _wait_for(
                lambda: snap()["requests"]["inflight"] == RESUME_AT + 1
            )
            assert snap()["backpressure"]["resumes"] == 0
            assert snap()["backpressure"]["paused_clients"] == 1
            permits.release()
            assert _wait_for(lambda: snap()["backpressure"]["resumes"] == 1)
            # Read again: the frames held back in the socket arrive.
            assert _wait_for(
                lambda: snap()["requests"]["admitted"]
                == CLIENT_QUEUE_LIMIT + extra + 5
            )
            for _ in range(RESUME_AT + extra):
                permits.release()
            assert _wait_for(lambda: snap()["requests"]["inflight"] == 0)
            final = snap()["backpressure"]
            assert (final["pauses"], final["resumes"]) == (1, 1)
            hog_rt.close()
            polite_rt.close()


# ---------------------------------------------------------------------------
# Request frames that reach no request intake are never counted
# ---------------------------------------------------------------------------


def _raw_requests(port, dest, identity, count):
    for seq in range(count):
        request = RequestMessage(
            request_id=(identity << 32) | seq,
            object_key="blocker",
            operation="ping",
            reply_port=port.address,
        )
        port.send(dest, request.encode_segments(), KIND_REQUEST)


def test_request_frames_to_a_data_port_hold_no_slot(idl):
    """Request frames sent to a servant's data port are dropped by its
    inbox as garbage.  They were never the intake's to count, so they
    cannot pause their identity — and with it the connection a
    well-behaved client on the same fabric shares."""
    naming = NamingService()
    with SocketFabric("dp-server") as sf, SocketFabric("dp-client") as cf:
        server = ORB("dp-server", fabric=sf, naming=naming, timeout=10.0)
        client = ORB("dp-client", fabric=cf, naming=naming, timeout=5.0)
        with server, client:
            group = server.serve(
                "blocker", _servant_factory(idl, threading.Event())
            )
            stray = cf.open_port("stray")
            _raw_requests(
                stray, group.reference.data_ports[0], 9, CLIENT_QUEUE_LIMIT
            )
            # Same client fabric, so the same connection, behind them.
            runtime = client.client_runtime()
            proxy = idl.blocker._bind("blocker", runtime)
            assert proxy.ping(1) == 2
            assert _wait_for(
                lambda: sf.governor.snapshot()["requests"]["inflight"] == 0
            )
            assert sf.governor.snapshot()["backpressure"]["pauses"] == 0
            assert stray.pending() == 0  # dropped, not answered
            runtime.close()


def test_a_request_to_a_dead_port_takes_no_slot(idl):
    """After a replica is killed, calls still addressed to it are
    dropped frames: they reach no request intake, so they are never
    admitted, and the same connection's calls to a live object are."""
    naming = NamingService()
    with SocketFabric("dead-server") as sf, SocketFabric(
        "dead-client"
    ) as cf:
        server = ORB("dead-server", fabric=sf, naming=naming, timeout=10.0)
        with server:
            server.serve("blocker", _servant_factory(idl, threading.Event()))
            dead = sf.open_port("killed-replica")
            dead.close()
            reply_port = cf.open_port("replies")
            _raw_requests(reply_port, dead.address, 9, 2)
            assert _wait_for(lambda: sf.dropped_frames == 2)
            requests = sf.governor.snapshot()["requests"]
            assert (requests["admitted"], requests["inflight"]) == (0, 0)
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
            assert sf.governor.snapshot()["requests"]["admitted"] == 3
            assert reply_port.pending() == 0  # dropped, not answered


# ---------------------------------------------------------------------------
# Stats surface
# ---------------------------------------------------------------------------


def test_orb_stats_server_section_schema():
    with SocketFabric("stats-server") as fabric:
        orb = ORB("stats-server", fabric=fabric, naming=NamingService())
        with orb:
            section = orb.stats()["server"]
            assert sorted(section) == [
                "backpressure", "connections", "requests",
            ]
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
