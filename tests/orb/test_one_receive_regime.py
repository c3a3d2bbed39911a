"""One receive regime: every port the ORB reads has one consumer that
files what arrives on the delivering thread — ``_RequestIntake`` on a
request port, an :class:`~repro.orb.transfer.Inbox` on every other —
so nothing pulls from a port, a client rank needs one port, and
nothing a port delivers is held forever."""

import contextlib
import threading
import time

import numpy as np
import pytest

from repro import ORB, compile_idl
from repro.dist import Layout, transfer_schedule
from repro.orb import request as wire
from repro.orb.naming import NamingService
from repro.orb.request import RequestMessage
from repro.orb.socketnet import SocketFabric
from repro.orb.transfer import (
    decode_system_exception,
    send_chunks,
    template_layout,
)
from repro.orb.transport import KIND_REPLY, KIND_REQUEST, Fabric, Port

HALF = 1 << 18  # doubles: one 2 MiB chunk per server rank

IDL = """
typedef dsequence<double> darray;

interface sink {
    long take(in long tag, in darray data);
    long bump(in long x);
    darray echo(in darray data);
    void hold(in double seconds);
};
"""


@pytest.fixture(scope="module")
def idl():
    return compile_idl(IDL, module_name="receive_regime_idl")


def _factory(idl, contexts, released=None):
    """``hold`` returns once ``released`` is set, or after its
    seconds."""
    released = released or threading.Event()

    class Sink(idl.sink_skel):
        def take(self, tag, data):
            return tag

        def bump(self, x):
            return x + 1

        def echo(self, data):
            return data

        def hold(self, seconds):
            released.wait(seconds)

    def factory(ctx):
        contexts.append(ctx)
        return Sink()

    return factory


def _take(idl, tag, length=2 * HALF):
    def body(ctx):
        proxy = idl.sink._spmd_bind("sink", ctx.runtime, transfer="multiport")
        data = idl.darray.from_global(np.ones(length), comm=ctx.comm)
        return proxy.take(tag, data)

    return body


def test_chunks_no_request_collects_expire(idl, manual_clock):
    """A request whose body fails to decode is answered MARSHAL before
    its chunks arrive, so no rank ever collects them; the request is
    done on every rank, so once they are older than the ORB timeout,
    the next frame a rank files drops them."""
    contexts = []
    with ORB("leak", timeout=2.0) as orb:
        group = orb.serve("sink", _factory(idl, contexts), nthreads=2)
        ref = group.reference
        raw = orb.fabric.open_port("raw")
        request_id = (0x1EAC << 32) | 1
        try:
            raw.send(
                ref.request_port,
                RequestMessage(
                    request_id=request_id,
                    object_key="sink",
                    operation="take",
                    mode=wire.MODE_MULTIPORT,
                    reply_port=raw.address,
                    client_data_ports=(raw.address,),
                    dist_layouts=(("data", (2 * HALF,)),),
                    body=b"\x01",
                ).encode(),
                KIND_REQUEST,
            )
            _src, _kind, payload = raw.recv(kind=KIND_REPLY, timeout=10)
            reply = wire.decode_reply(payload)
            assert reply.request_id == request_id
            assert decode_system_exception(reply.body).category == "MARSHAL"
            # The chunks follow the header, as a real client sends them.
            client_layout = Layout.from_local_lengths((2 * HALF,))
            send_chunks(
                raw,
                ref.data_ports,
                transfer_schedule(
                    client_layout, template_layout(None, 2 * HALF, 2)
                ),
                0,
                np.ones(2 * HALF),
                request_id,
                "data",
                wire.PHASE_REQUEST,
            )
        finally:
            raw.close()
        inboxes = [ctx.inbox for ctx in contexts]
        # A later call comes and goes; nothing collects the strays.
        assert orb.run_spmd_client(2, _take(idl, 1)) == [1, 1]
        assert [inbox.pending_entries() for inbox in inboxes] == [1, 1]
        manual_clock.advance(2.2)
        assert orb.run_spmd_client(2, _take(idl, 2)) == [2, 2]
        assert [inbox.pending_entries() for inbox in inboxes] == [0, 0]
        assert [inbox.stats()["expired"] for inbox in inboxes] == [1, 1]


def _wait_for(predicate, seconds=10.0):
    deadline = time.monotonic() + seconds
    while not predicate():
        assert time.monotonic() < deadline
        time.sleep(0.01)


def test_a_future_s_result_chunks_outlive_the_timeout(idl, manual_clock):
    """Result chunks that land for a non-blocking call wait for its
    ``value`` however long the caller computes meanwhile, even when
    another call's reply is filed on the port after the ORB timeout."""
    with ORB("futures", timeout=1.0) as orb:
        orb.serve("sink", _factory(idl, []), nthreads=2)
        runtime = orb.client_runtime(label="futures", pipeline_depth=4)
        try:
            proxy = idl.sink._bind("sink", runtime, transfer="multiport")
            ramp = np.arange(4096, dtype=np.float64)
            echoed = proxy.echo_nb(idl.darray.from_global(ramp))
            # The reply and the result chunks are filed.
            _wait_for(lambda: runtime.inbox.pending_entries() == 2)
            manual_clock.advance(1.3)  # the section 2.1 futures pattern
            bumped = proxy.bump_nb(1)
            _wait_for(lambda: runtime.inbox.pending_entries() == 3)
            np.testing.assert_array_equal(
                echoed.value(timeout=10).local_data(), ramp
            )
            assert bumped.value(timeout=10) == 2
            assert runtime.inbox.stats()["expired"] == 0
        finally:
            runtime.close()


def test_a_queued_request_s_chunks_outlive_the_timeout(idl, manual_clock):
    """A collective group runs its requests in arrival order, so a
    multi-port request can wait behind a slow call for longer than the
    server's timeout; its chunks, filed on arrival, are kept until it
    is served, however many frames are filed meanwhile."""
    naming = NamingService()
    fabric = Fabric("queued")
    with ORB("queued-server", fabric=fabric, naming=naming,
             timeout=1.0) as server, \
            ORB("queued-client", fabric=fabric, naming=naming,
                timeout=30.0) as client:
        contexts = []
        released = threading.Event()
        server.serve("sink", _factory(idl, contexts, released), nthreads=2)
        runtime = client.client_runtime(label="queued", pipeline_depth=4)
        try:
            proxy = idl.sink._bind("sink", runtime, transfer="multiport")
            data = idl.darray.from_global(np.ones(4096))
            held = proxy.hold_nb(30.0)
            first = proxy.take_nb(1, data)
            _wait_for(
                lambda: [c.inbox.pending_entries() for c in contexts]
                == [1, 1]
            )
            manual_clock.advance(1.3)
            # Filed while the first take still waits in the queue.
            second = proxy.take_nb(2, data)
            _wait_for(
                lambda: [c.inbox.pending_entries() for c in contexts]
                == [2, 2]
            )
            released.set()
            assert held.value(timeout=30) is None
            assert first.value(timeout=30) == 1
            assert second.value(timeout=30) == 2
            assert [c.inbox.stats()["expired"] for c in contexts] == [0, 0]
        finally:
            runtime.close()


@contextlib.contextmanager
def _deployment(kind):
    """A server ORB and a client ORB: on one in-process fabric, or on
    two socket fabrics."""
    naming = NamingService()
    with contextlib.ExitStack() as stack:
        if kind == "inproc":
            fabrics = [Fabric("regime")] * 2
        else:
            fabrics = [
                stack.enter_context(SocketFabric(f"regime-{side}"))
                for side in ("server", "client")
            ]
        orbs = [
            stack.enter_context(
                ORB(f"regime-{i}", fabric=fabric, naming=naming, timeout=10.0)
            )
            for i, fabric in enumerate(fabrics)
        ]
        yield fabrics, orbs


def _held_ports(fabrics):
    return [port for fabric in set(fabrics) for port in fabric._ports.values()]


@pytest.mark.parametrize("kind", ["inproc", "socket"])
def test_every_port_the_orb_holds_has_an_upcall(kind, idl, monkeypatch):
    """After a 2x4 multi-port call and a serial call, every port either
    fabric holds is read by an upcall, and nothing was ever pulled
    from one."""
    pulled = []
    monkeypatch.setattr(
        Port, "recv", lambda self, *a, **k: pulled.append("recv")
    )
    with _deployment(kind) as (fabrics, (server, client)):
        server.serve("sink", _factory(idl, []), nthreads=4)
        held = []

        def body(ctx):
            result = _take(idl, 5, length=64)(ctx)
            # Every rank's runtime is still open here.
            ctx.comm.barrier()
            if ctx.rank == 0:
                held.extend(_held_ports(fabrics))
            ctx.comm.barrier()
            return result

        assert client.run_spmd_client(2, body) == [5, 5]
        runtime = client.client_runtime(label="serial")
        assert idl.sink._bind("sink", runtime).bump(1) == 2
        held.extend(_held_ports(fabrics))
        # Four data ports and a request port, two collective client
        # ranks and the serial one.
        assert len({p.address for p in held}) == 8
        assert [p for p in held if p.upcall is None] == []
        runtime.close()
    assert pulled == []


def test_a_client_rank_opens_one_port():
    with ORB("one-port") as orb:
        before = orb.fabric.open_port_count()

        def body(ctx):
            ctx.comm.barrier()
            count = orb.fabric.open_port_count()
            ctx.comm.barrier()
            return count

        assert orb.run_spmd_client(3, body) == [before + 3] * 3
