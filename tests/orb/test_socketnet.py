"""TCP transport and served-naming tests.

In-process these exercise real sockets over loopback; the
cross-process path is covered by examples/two_process_demo.py and
examples/replicated_group.py --two-process (tests/examples).
"""

import threading

import numpy as np
import pytest

from repro import ORB
from repro.orb import nameservice
from repro.orb.nameservice import NAMING_OBJECT, NamingClient, serve_naming
from repro.orb.naming import NamingError
from repro.orb.reference import ObjectReference
from repro.orb.socketnet import SocketFabric, SocketPortAddress
from repro.orb.transport import (
    KIND_DATA,
    KIND_REPLY,
    KIND_REQUEST,
    TransportError,
)
from tests.naming_transports import served_naming
from tests.orb.test_server_fanin import _wait_for


@pytest.fixture()
def fabric():
    with SocketFabric("test-fabric") as fabric:
        yield fabric


class TestSocketFabric:
    def test_local_delivery(self, fabric):
        a, b = fabric.open_port("a"), fabric.open_port("b")
        a.send(b.address, b"hello", KIND_REQUEST)
        src, kind, payload = b.recv(timeout=5)
        assert (kind, payload) == (KIND_REQUEST, b"hello")
        assert src == a.address

    def test_cross_fabric_delivery_over_tcp(self, fabric):
        with SocketFabric("peer") as peer:
            sender = fabric.open_port("sender")
            receiver = peer.open_port("receiver")
            sender.send(receiver.address, b"over tcp", KIND_DATA)
            src, kind, payload = receiver.recv(timeout=5)
            assert payload == b"over tcp"
            assert src.tcp_port == fabric.tcp_port

    def test_bidirectional_conversation(self, fabric):
        with SocketFabric("peer") as peer:
            a = fabric.open_port("a")
            b = peer.open_port("b")
            a.send(b.address, b"ping")
            src, _, _ = b.recv(timeout=5)
            b.send(src, b"pong")
            assert a.recv(timeout=5)[2] == b"pong"

    def test_many_messages_stay_ordered(self, fabric):
        with SocketFabric("peer") as peer:
            a = fabric.open_port()
            b = peer.open_port()
            for i in range(100):
                a.send(b.address, bytes([i]), KIND_DATA)
            got = [b.recv(timeout=5)[2][0] for _ in range(100)]
            assert got == list(range(100))

    def test_large_payload(self, fabric):
        with SocketFabric("peer") as peer:
            a = fabric.open_port()
            b = peer.open_port()
            blob = np.arange(200_000, dtype=np.float64).tobytes()
            a.send(b.address, blob)
            assert b.recv(timeout=10)[2] == blob

    def test_unknown_local_port(self, fabric):
        a = fabric.open_port()
        ghost = SocketPortAddress(fabric.host, fabric.tcp_port, 9999)
        with pytest.raises(TransportError, match="no port"):
            a.send(ghost, b"x")

    def test_unreachable_endpoint(self, fabric):
        a = fabric.open_port()
        # A port that is almost certainly closed.
        ghost = SocketPortAddress("127.0.0.1", 1, 1)
        with pytest.raises(TransportError, match="cannot reach"):
            a.send(ghost, b"x")

    def test_bytes_only(self, fabric):
        a, b = fabric.open_port(), fabric.open_port()
        with pytest.raises(TransportError, match="bytes"):
            a.send(b.address, "not bytes")  # type: ignore[arg-type]

    def test_meter_sees_outgoing(self, fabric):
        seen = []
        fabric.add_meter(lambda s, d, k, n: seen.append((k, n)))
        a, b = fabric.open_port(), fabric.open_port()
        a.send(b.address, b"xyz", KIND_DATA)
        assert seen == [(KIND_DATA, 3)]

    def test_closed_fabric_rejects_ports(self):
        fabric = SocketFabric()
        fabric.close()
        with pytest.raises(TransportError, match="closed"):
            fabric.open_port()

    def test_addresses_survive_ior_roundtrip(self, fabric):
        port = fabric.open_port("obj:request")
        ref = ObjectReference(
            object_key="obj",
            repo_id="IDL:obj:1.0",
            request_port=port.address,
            data_ports=(port.address,),
        )
        back = ObjectReference.from_ior(ref.ior())
        assert back.request_port == port.address
        assert back.request_port.tcp_port == fabric.tcp_port


def make_ref(fabric, key="obj"):
    port = fabric.open_port(key)
    return ObjectReference(
        object_key=key,
        repo_id=f"IDL:{key}:1.0",
        request_port=port.address,
    )


class TestRemoteNaming:
    def test_bind_resolve_roundtrip(self, fabric):
        with served_naming() as (_orb, ior):
            client = NamingClient(fabric, ior)
            ref = make_ref(fabric)
            client.bind("example", ref)
            resolved = client.resolve("example")
            assert resolved == ref
            client.close()

    def test_resolve_by_host(self, fabric):
        with served_naming() as (_orb, ior):
            client = NamingClient(fabric, ior)
            client.bind("obj", make_ref(fabric, "a"), host="h1")
            client.bind("obj", make_ref(fabric, "b"), host="h2")
            assert client.resolve("obj", "h2").object_key == "b"
            with pytest.raises(NamingError, match="several"):
                client.resolve("obj")
            client.close()

    def test_duplicate_bind_error_propagates(self, fabric):
        with served_naming() as (_orb, ior):
            client = NamingClient(fabric, ior)
            client.bind("x", make_ref(fabric))
            with pytest.raises(NamingError, match="already bound"):
                client.bind("x", make_ref(fabric))
            client.rebind("x", make_ref(fabric, "newer"))
            assert client.resolve("x").object_key == "newer"
            client.close()

    def test_unbind_and_names(self, fabric):
        with served_naming() as (_orb, ior):
            client = NamingClient(fabric, ior)
            client.bind("a", make_ref(fabric))
            client.bind("b", make_ref(fabric), host="h")
            # The naming object is an ordinary object: it is listed
            # in the domain it serves, and resolves to its own IOR.
            assert client.names() == [
                (NAMING_OBJECT, ""), ("a", ""), ("b", "h")
            ]
            assert client.resolve(NAMING_OBJECT).ior() == ior
            client.unbind("a")
            assert client.names() == [(NAMING_OBJECT, ""), ("b", "h")]
            with pytest.raises(NamingError):
                client.resolve("a")
            client.close()

    def test_unreachable_server(self, fabric):
        nowhere = ObjectReference(
            object_key=NAMING_OBJECT,
            repo_id="IDL:NamingContext:1.0",
            request_port=SocketPortAddress("127.0.0.1", 1, 1),
        )
        client = NamingClient(fabric, nowhere.ior())
        with pytest.raises(NamingError, match="unreachable"):
            client.resolve("anything")
        client.close()

    def test_a_server_that_went_away_is_a_naming_error(
        self, fabric, monkeypatch
    ):
        monkeypatch.setattr(nameservice, "CALL_TIMEOUT", 0.5)
        with served_naming() as (_orb, ior):
            client = NamingClient(fabric, ior)
            client.bind("x", make_ref(fabric))
        with pytest.raises(NamingError, match="unreachable"):
            client.resolve("x")
        client.close()

    def test_two_clients_share_registry(self, fabric):
        with served_naming() as (orb, ior), SocketFabric("peer") as peer:
            c1 = NamingClient(fabric, ior)
            c2 = NamingClient(peer, ior)
            c1.bind("shared", make_ref(fabric))
            assert c2.resolve("shared").object_key == "obj"
            # ... and it is the serving ORB's own registry they share.
            assert orb.naming.resolve("shared").object_key == "obj"
            c1.close()
            c2.close()

    def test_concurrent_callers_take_turns(self, fabric):
        """Several threads of one process resolve through one client
        (an SPMD client's ranks binding at once)."""
        with served_naming() as (_orb, ior):
            client = NamingClient(fabric, ior)
            client.bind("obj", make_ref(fabric))
            keys, errors = [], []

            def resolve_many():
                try:
                    for _ in range(25):
                        keys.append(client.resolve("obj").object_key)
                except Exception as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)

            threads = [
                threading.Thread(target=resolve_many) for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
            assert not errors
            assert keys == ["obj"] * 100
            client.close()


class TestNamingOnTheOrdinaryPath:
    """What the second server never had: the event loop's
    backpressure, drop accounting and stats reach naming requests."""

    def test_requests_are_counted_by_the_governor(self, fabric):
        with served_naming() as (orb, ior):
            client = NamingClient(fabric, ior)
            client.bind("obj", make_ref(fabric))

            def admitted():
                return orb.stats()["server"]["requests"]["admitted"]

            before = admitted()
            for i in range(1, 4):
                client.resolve("obj")
                assert admitted() == before + i
            client.close()

    def test_a_garbage_frame_is_dropped_and_naming_survives(self, fabric):
        with served_naming() as (orb, ior):
            client = NamingClient(fabric, ior)
            client.bind("obj", make_ref(fabric))
            target = ObjectReference.from_ior(ior).request_port
            junk = fabric.open_port("junk")
            for payload in (b"\x00", b"\x01garbage" * 10, b"\xff" * 64):
                junk.send(target, payload, KIND_REQUEST)
            assert client.resolve("obj").object_key == "obj"
            # ... and no junk frame holds an admission slot.
            assert _wait_for(
                lambda: not orb.stats()["server"]["requests"]["inflight"]
            )
            junk.close()
            client.close()

    def test_no_naming_server_thread_exists(self, fabric):
        with served_naming() as (_orb, ior):
            client = NamingClient(fabric, ior)
            client.bind("obj", make_ref(fabric))
            client.resolve("obj")
            names = [t.name for t in threading.enumerate()]
            assert not [n for n in names if n.startswith("naming-server")]
            # The naming object is a serial group like any other, and
            # one client's calls run on its rank thread alone.
            assert [
                n for n in names if n.startswith(f"server:{NAMING_OBJECT}")
            ] == [f"server:{NAMING_OBJECT}-0"]
            client.close()

    def test_tracing_reaches_naming(self, fabric):
        """The serving ORB's recorder sees naming upcalls like any
        other object's."""
        from repro import TraceRecorder

        recorder = TraceRecorder()
        with served_naming(trace=recorder) as (_orb, ior):
            client = NamingClient(fabric, ior)
            client.names()
            client.close()
        assert ("dispatch", "server") in {
            (span.name, span.side) for span in recorder.spans()
        }

    def test_a_retried_bind_is_replayed_not_re_executed(self, fabric):
        """``bind`` is not idempotent.  The naming object is served
        with a reply cache, so when the reply to a ``bind`` is lost and
        a client's ft policy sends the request again, the recorded
        reply comes back — not "already bound"."""
        from repro import FaultSchedule, FaultyFabric, FtPolicy

        class DropNextReply(FaultSchedule):
            armed = False

            def decide(self, kind):
                if kind == KIND_REPLY and self.armed:
                    self.armed = False
                    return ("drop",)
                return ()

        idl = nameservice._idl
        schedule = DropNextReply()
        with SocketFabric("naming-host") as inner, ORB(
            "naming-host", fabric=FaultyFabric(inner, schedule)
        ) as host:
            naming = NamingClient(fabric, serve_naming(host))
            with ORB(
                "retrying", fabric=fabric, naming=naming, timeout=0.3
            ) as client_orb:
                runtime = client_orb.client_runtime(
                    ft_policy=FtPolicy(max_retries=2, backoff_base_ms=1.0)
                )
                stub = idl.NamingContext._bind(NAMING_OBJECT, runtime)
                schedule.armed = True
                stub.bind("obj", make_ref(fabric).ior(), "")
                runtime.close()
            naming.close()
            assert host.fabric.fault_stats()["drop"] == 1
            assert host.naming.resolve("obj").object_key == "obj"
            cache = host.stats()["reply_caches"][NAMING_OBJECT]
            assert cache["replays"] == 1


class TestOrbOverSockets:
    def test_full_invocation_over_tcp_fabrics(self):
        """Two ORBs in one process, joined only by TCP — the served
        naming object included; the in-process fabric is not involved
        at all."""
        from repro import compile_idl

        idl = compile_idl(
            """
            typedef dsequence<double> d;
            interface adder { double total(in d xs); };
            """,
            module_name="socket_idl",
        )

        class Impl(idl.adder_skel):
            def total(self, xs):
                value = float(xs.local_data().sum())
                if self.comm is not None:
                    from repro.rts.mpi import SUM

                    value = self.comm.allreduce(value, op=SUM)
                return value

        with served_naming() as (server_orb, ior):
            client_fabric = SocketFabric("client-side")
            client_orb = ORB(
                "client",
                fabric=client_fabric,
                naming=NamingClient(client_fabric, ior),
            )
            try:
                server_orb.serve("adder", lambda ctx: Impl(), 3)

                def client(c):
                    proxy = idl.adder._spmd_bind("adder", c.runtime)
                    xs = idl.d.from_global(
                        np.arange(100, dtype=np.float64), comm=c.comm
                    )
                    return proxy.total(xs)

                results = client_orb.run_spmd_client(2, client)
                assert results == [4950.0, 4950.0]
            finally:
                client_orb.shutdown()
                client_fabric.close()

    def test_a_second_server_process_binds_through_the_client(self):
        """An ORB whose naming *is* the client serves an object: its
        reference travels to the directory as an IOR, and a duplicate
        name comes back as the directory's own NamingError — with the
        activated group torn down, not leaked."""
        from repro import compile_idl

        idl = compile_idl(
            "interface pinger { long ping(in long x); };",
            module_name="socket_ping_idl",
        )

        class Impl(idl.pinger_skel):
            def ping(self, x):
                return x + 1

        with served_naming() as (host_orb, ior), SocketFabric(
            "second"
        ) as second_fabric:
            second = ORB(
                "second",
                fabric=second_fabric,
                naming=NamingClient(second_fabric, ior),
            )
            with second:
                second.serve("pinger", lambda ctx: Impl())
                runtime = host_orb.client_runtime()
                assert idl.pinger._bind("pinger", runtime).ping(1) == 2
                runtime.close()
                threads = threading.active_count()
                ports = second_fabric.open_port_count()
                with pytest.raises(NamingError, match="already bound"):
                    second.serve("pinger", lambda ctx: Impl())
                assert threading.active_count() == threads
                assert second_fabric.open_port_count() == ports
            assert host_orb.naming.names() == [(NAMING_OBJECT, "")]
