"""The per-invocation collective sequence of each data path.

The paper's Tables 1 and 2 break an invocation into stages; on the
real stack each stage that involves every thread is one RTS
collective.  These tests pin the ordered list of collectives one
invocation costs — per path, per side, per rank — so an engine change
that adds a vote or a barrier to either path fails here, not in a
latency figure three PRs later.
"""

import threading

import numpy as np
import pytest

from repro import ORB
from repro.orb import request as wire
from repro.orb.naming import NamingService
from repro.orb.request import RequestMessage
from repro.orb.socketnet import SocketFabric

from tests.integration.observing import Recording, names, serve_recording
from tests.orb.test_serial_upcall import _RawClient, _settled
from tests.orb.test_server_fanin import _wait_for

#: The pinned call is ``void diffusion(in long, inout darray)``: a plain
#: argument, and a distributed one that travels in both directions, so
#: every stage has work.
#:
#: Client, centralized (§3.2): synchronize, gather the argument to
#: rank 0, [network], vote on the reply header, then per distributed
#: result broadcast its length and scatter it, broadcast the plain
#: results, synchronize.
#: Client, multi-port (§3.3): synchronize, [network], vote on the
#: header, vote on chunk delivery, synchronize.
#: Server, centralized: broadcast the plain arguments, per distributed
#: argument broadcast its length and scatter it, [servant], vote on
#: the outcome, synchronize, gather the result to rank 0.
#: Server, multi-port: broadcast the plain arguments, vote on chunk
#: delivery, [servant], vote on the outcome, synchronize.
EXPECTED = {
    ("client", "centralized"): [
        "synchronize", "gather_views", "allgather", "broadcast",
        "scatter_chunks", "broadcast", "synchronize",
    ],
    ("client", "multiport"): [
        "synchronize", "allgather", "allgather", "synchronize",
    ],
    ("server", "centralized"): [
        "broadcast", "broadcast", "scatter_chunks", "allgather",
        "synchronize", "gather_views",
    ],
    ("server", "multiport"): [
        "broadcast", "allgather", "allgather", "synchronize",
    ],
}


@pytest.mark.parametrize("transfer", ["centralized", "multiport"])
def test_one_invocation_costs_exactly_these_collectives(
    orb, idl, servant_class, transfer
):
    server_logs, _ = serve_recording(orb, servant_class, 2)

    def client(c):
        diff = idl.diff_object._spmd_bind(
            "example", c.runtime, transfer=transfer
        )
        seq = idl.darray.from_global(np.zeros(12), comm=c.comm)
        log = []
        c.runtime.rts = Recording(c.runtime.rts, log)
        diff.diffusion(2, seq)
        np.testing.assert_array_equal(seq.allgather(), np.full(12, 2.0))
        return log

    client_logs = orb.run_spmd_client(2, client)
    for rank in range(2):
        assert names(client_logs[rank]) == EXPECTED["client", transfer]
        assert names(server_logs[rank]) == EXPECTED["server", transfer]


@pytest.mark.parametrize("transfer", ["centralized", "multiport"])
def test_serial_bind_costs_no_collectives(
    orb, idl, servant_class, transfer
):
    """After plain ``_bind`` each thread interacts on its own (§2.1):
    even inside a client group, and against a 1-thread object, an
    invocation runs no collective on either side."""
    server_logs, contexts = serve_recording(orb, servant_class, 1)

    def client(c):
        log = []
        c.runtime.rts = Recording(c.runtime.rts, log)
        diff = idl.diff_object._bind(
            "example", c.runtime, transfer=transfer
        )
        assert diff._runtime.rts is None
        seq = idl.darray.from_global(np.zeros(12))
        diff.diffusion(2, seq)
        np.testing.assert_array_equal(seq.allgather(), np.full(12, 2.0))
        return log

    assert orb.run_spmd_client(2, client) == [[], []]
    assert contexts[0].rts is None and contexts[0].comm is None
    assert server_logs == {0: []}


def test_a_retry_on_a_collective_group_is_rank_0s_business_alone(
    idl, servant_class
):
    """With a reply cache, a retried request is answered by rank 0
    from its queue: no peer hears of it, so the per-rank collective
    lists stay identical — one invocation's worth per *execution* —
    and a duplicate of a request still executing is dropped with its
    admission slot given back."""
    entered = threading.Semaphore(0)
    gate = threading.Event()

    class Gated(servant_class):
        def validate(self, step):
            entered.release()
            gate.wait(timeout=20)

    def frame(operation, request_id, values, reply_port):
        plan = idl.diff_object._operations[operation]
        return RequestMessage(
            request_id=request_id,
            object_key="example",
            operation=operation,
            reply_port=reply_port,
            body=plan.request[True].encode(
                [values.get(name) for name in plan.request_names]
            ),
        ).encode()

    with SocketFabric("retry-server") as sf, SocketFabric("retry-client") as cf:
        with ORB("retry", fabric=sf, naming=NamingService(), timeout=10.0) as orb:
            logs, _ = serve_recording(
                orb, Gated, 2, reply_cache_bytes=1 << 20
            )
            governor = sf.governor
            raw = _RawClient(
                cf, orb.naming.resolve("example").request_port
            )

            def admitted():
                return governor.snapshot()["requests"]["admitted"]

            def cache():
                return orb.stats()["reply_caches"]["example"]

            # Executed once...
            scaled = frame("scaled", raw.request_id(1),
                           {"factor": 3, "counter": 4}, raw.port.address)
            raw.send(scaled)
            first = raw.reply()
            one_call = names(logs[0])
            assert one_call and names(logs[1]) == one_call
            # ...and replayed: same reply, no collective on any rank.
            raw.send(scaled)
            again = raw.reply()
            assert (again.request_id, again.status, bytes(again.body)) == (
                first.request_id, wire.STATUS_OK, bytes(first.body)
            )
            assert _wait_for(lambda: admitted() == 2 and _settled(governor))
            assert cache()["replays"] == 1
            assert names(logs[0]) == names(logs[1]) == one_call

            # A duplicate of a request still executing on both ranks.
            held = frame("validate", raw.request_id(2), {"step": 1},
                         raw.port.address)
            raw.send(held)
            for _ in range(2):
                assert entered.acquire(timeout=10)
            raw.send(held)
            assert _wait_for(lambda: admitted() == 4)
            assert _wait_for(lambda: cache()["duplicates_dropped"] == 1)
            assert _wait_for(
                lambda: governor.snapshot()["requests"]["inflight"] == 1
            )
            gate.set()
            assert raw.reply().request_id == raw.request_id(2)
            assert _wait_for(lambda: _settled(governor))
            # Two executions, four frames: the same list on each rank.
            assert names(logs[0]) == names(logs[1])
            assert names(logs[0]).count("synchronize") == 2
            raw.port.close()
