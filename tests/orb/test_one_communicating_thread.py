"""A collective group is served like a serial one (ISSUE 23).

The request port's upcall admits each frame on the delivering thread
and queues it; rank 0 — the group's one communicating thread — takes
it off the queue, delivers the header to its peers, executes in
lockstep with them and sends the reply itself.  What the prefetch and
reply-sender threads used to provide must hold without them: nothing
but a rank thread ever enters the group's communicator, a port closed
under the group ends it cleanly, and ``service_pending`` still drains
the same queued requests on every rank.
"""

import threading

import pytest

from repro import ORB
from repro.orb.naming import NamingService
from repro.orb.socketnet import SocketFabric
from repro.orb.transport import KIND_CONTROL, KIND_REQUEST, Fabric
from repro.rts.executor import SpmdError

from tests.integration.observing import serve_recording
from tests.orb.test_serial_upcall import (  # noqa: F401 - idl is a fixture
    _Book,
    _RawClient,
    _factory,
    _frame,
    _settled,
    _thread_names,
    idl,
)
from tests.orb.test_server_fanin import _wait_for

FABRICS = ["inproc", "socket"]


class _Deployment:
    """A server ORB and a client fabric: one in-process fabric for
    both, or two socket fabrics."""

    def __init__(self, kind, name):
        naming = NamingService()
        if kind == "inproc":
            self.server_fabric = self.client_fabric = Fabric(name)
        else:
            self.server_fabric = SocketFabric(f"{name}-server")
            self.client_fabric = SocketFabric(f"{name}-client")
        self.server = ORB(
            f"{name}-s", fabric=self.server_fabric, naming=naming,
            timeout=10.0,
        )
        self.client = (
            self.server
            if kind == "inproc"
            else ORB(
                f"{name}-c", fabric=self.client_fabric, naming=naming,
                timeout=10.0,
            )
        )

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.client.shutdown()
        self.server.shutdown()
        self.client_fabric.close()
        self.server_fabric.close()


def _group_threads(name):
    return [n for n in _thread_names() if n.startswith(f"server:{name}")]


# ---------------------------------------------------------------------------
# Only rank threads enter the group's communicator
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", FABRICS)
def test_only_rank_threads_call_the_group_communicator(kind, idl):
    """Every call the adapter and the engine make on a served group's
    communicator or RTS — the header relay's sends and receives, the
    engine's collectives — comes from one of its rank threads: never
    from the fabric's event loop, never from a local sender running
    the upcall."""
    callers = set()

    class Ledger(idl.ledger_skel):
        def post(self, x):
            return int(x)

    with _Deployment(kind, "who") as d:
        serve_recording(
            d.server, Ledger, 3, callers, reply_cache_bytes=1 << 16
        )
        runtime = d.client.client_runtime(label="who", pipeline_depth=4)
        proxy = idl.ledger._bind("example", runtime)
        futures = [proxy.post_nb(i) for i in range(12)]
        assert [f.value(timeout=10) for f in futures] == list(range(12))
        # A retry the cache answers is sent from the queue too.
        raw = _RawClient(
            d.client_fabric, d.server.naming.resolve("example").request_port
        )
        for _ in range(2):
            raw.send(_frame(idl, "post", raw.request_id(1), 5,
                            raw.port.address))
            assert raw.reply().request_id == raw.request_id(1)
        raw.port.close()
        runtime.close()
        d.server.shutdown()  # the end of service is relayed as well
    threads = {thread for thread, _method in callers}
    assert threads == {f"server:example-{rank}" for rank in range(3)}
    methods = {method for _thread, method in callers}
    assert {"send", "recv", "broadcast", "synchronize"} <= methods


# ---------------------------------------------------------------------------
# Ports closed under a collective group
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("how", ["kill", "fabric-close"])
@pytest.mark.parametrize("kind", FABRICS)
def test_ports_closed_under_a_collective_group_end_it(kind, how, idl):
    """Rank 0 waits on its queue, not on the port: the closing port
    must tell it.  What was queued still runs, the peers are stopped,
    and no thread, port or admission slot is left behind."""
    book = _Book()
    threads = threading.active_count()
    with _Deployment(kind, "closed") as d:
        ports = d.server_fabric.open_port_count()
        group = d.server.serve("ledger", _factory(idl, book), nthreads=3)
        assert len(_group_threads("ledger")) == 3
        raw = _RawClient(d.client_fabric, group.reference.request_port)
        # Three requests queue behind the gate: one executing, two in
        # rank 0's queue.
        for seq in range(3):
            raw.send(_frame(idl, "held", raw.request_id(seq), seq,
                            raw.port.address))
        governor = d.server_fabric.governor
        if kind == "socket":
            assert _wait_for(
                lambda: governor.snapshot()["requests"]["admitted"] == 3
            )
        threading.Timer(0.2, book.gate.set).start()
        if how == "kill":
            group.kill()
        else:
            d.server_fabric.close()
        assert _wait_for(lambda: not _group_threads("ledger"))
        # Every rank ran every queued request, in order.
        assert book.posted == [0, 0, 0, 1, 1, 1, 2, 2, 2]
        if kind == "socket":
            assert _settled(governor)
        raw.port.close()
        expected_ports = ports if how == "kill" else 0
        assert d.server_fabric.open_port_count() == expected_ports
        group.shutdown()  # safe afterwards: only the naming entry goes
    assert _wait_for(lambda: threading.active_count() == threads)


@pytest.mark.parametrize("failing_rank", [0, 2])
@pytest.mark.parametrize("kind", FABRICS)
def test_failed_activation_leaves_nothing_behind(kind, failing_rank, idl):
    """Activation is all or nothing: one rank's factory raising fails
    ``serve`` with that rank's error, whichever rank it is — the ranks
    that did activate are stopped, the ports closed."""
    threads = threading.active_count()

    def factory(ctx):
        if ctx.rank == failing_rank:
            raise RuntimeError("factory exploded")
        return _factory(idl, _Book())(ctx)

    with _Deployment(kind, "doomed") as d:
        ports = d.server_fabric.open_port_count()
        with pytest.raises(SpmdError, match="factory exploded"):
            d.server.serve("ledger", factory, nthreads=3)
        assert not _group_threads("ledger")
        assert d.server_fabric.open_port_count() == ports
        assert ("ledger", "") not in d.server.naming.names()
    assert _wait_for(lambda: threading.active_count() == threads)


# ---------------------------------------------------------------------------
# service_pending on a collective group
# ---------------------------------------------------------------------------


def test_service_pending_drains_a_pipelined_clients_queue_on_every_rank(idl):
    """§2.1 on a collective group: every rank serves the same queued
    requests, and reports the same count.  Nothing was relayed to the
    peers ahead of time, so nothing is left over for the dispatch loop
    to trip on afterwards."""
    served = {}
    posted = {rank: [] for rank in range(3)}
    entered = threading.Event()
    release = threading.Event()

    class Busy(idl.ledger_skel):
        def held(self, x):
            if self.rank == 0:
                entered.set()
            release.wait(timeout=20)
            served[self.rank] = [
                self.service_pending(3), self.service_pending(8),
                self.service_pending(8),
            ]
            posted[self.rank].append(("held", int(x)))
            return int(x)

        def post(self, x):
            posted[self.rank].append(("post", int(x)))
            return int(x)

    with ORB("svc", timeout=10.0) as orb:
        group = orb.serve("ledger", lambda ctx: Busy(), nthreads=3)
        raw = _RawClient(orb.fabric, group.reference.request_port)
        raw.send(_frame(idl, "held", raw.request_id(0), 99,
                        raw.port.address))
        assert entered.wait(timeout=10)
        # One client, five more requests in flight behind the one
        # executing (a local send returns once the upcall queued it).
        for seq in range(1, 6):
            raw.send(_frame(idl, "post", raw.request_id(seq), seq,
                            raw.port.address))
        release.set()
        replies = [raw.reply().request_id for _ in range(6)]
        assert replies == [raw.request_id(s) for s in (1, 2, 3, 4, 5, 0)]
        # A request after the drain goes through the dispatch loop.
        raw.send(_frame(idl, "post", raw.request_id(6), 6,
                        raw.port.address))
        assert raw.reply().request_id == raw.request_id(6)
        raw.port.close()
    assert served == {rank: [3, 2, 0] for rank in range(3)}
    expected = [("post", s) for s in range(1, 6)] + [("held", 99), ("post", 6)]
    assert posted == {rank: expected for rank in range(3)}


def test_garbage_and_foreign_control_frames_do_not_end_a_collective_group(idl):
    book = _Book()
    with ORB("junk", timeout=10.0) as orb:
        group = orb.serve("ledger", _factory(idl, book), nthreads=2)
        raw = _RawClient(orb.fabric, group.reference.request_port)
        raw.port.send(raw.target, b"not-shutdown", KIND_CONTROL)
        raw.port.send(raw.target, b"\xff" * 32, KIND_REQUEST)
        raw.send(_frame(idl, "post", raw.request_id(1), 1, raw.port.address))
        assert raw.reply().request_id == raw.request_id(1)
        assert len(_group_threads("ledger")) == 2
        raw.port.close()
