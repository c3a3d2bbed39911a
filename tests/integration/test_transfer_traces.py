"""Protocol-pattern tests reproducing Figures 2 and 3.

Figure 2 (centralized): run-time-system communication (gather at the
client, scatter at the server) surrounds a single thick network
transfer between the two communicating threads.

Figure 3 (multi-port): no run-time-system gather/scatter for argument
data; instead each client thread sends directly to every server thread
whose block it overlaps.

A message pattern is what crosses the network plus what the run-time
system is asked to move, so these tests run a real invocation and read
exactly those two seams from outside (``tests/integration/observing``):
a meter on the fabric (``fabric.add_meter``) and a recording delegate
in place of each rank's RTS object.  Every assertion runs on the
in-process fabric and across two ``SocketFabric``s (co-located, so
joined by their local stream).  The synchronization points of either method are pinned,
with the rest of the collective sequence, by
``test_collective_sequence.py::EXPECTED``.
"""

import contextlib

import numpy as np
import pytest

from repro import ORB, compile_idl
from repro.orb.naming import NamingService
from repro.orb.request import DataChunk
from repro.orb.socketnet import SocketFabric
from tests.integration.observing import (
    FrameMeter,
    Recording,
    moves,
    serve_recording,
)

IDL = """
typedef dsequence<double> darray;
interface diff_object {
    void diffusion(in long timestep, inout darray data);
};
"""

#: What a chunk frame carries besides its elements (the parameter name
#: is the only variable-length field, and it is always ``data`` here).
CHUNK_HEADER = len(DataChunk(0, "data", 0, 0, 0, 0, 0).encode())


@pytest.fixture(scope="module")
def idl():
    return compile_idl(IDL, module_name="trace_idl")


@pytest.fixture(params=["inproc", "socket"])
def metered(request):
    """``(server_orb, client_orb, meter)`` with ``meter`` on every
    fabric involved: one ORB on the in-process fabric, or a server ORB
    and a client ORB on a ``SocketFabric`` each."""
    meter = FrameMeter()
    with contextlib.ExitStack() as stack:
        if request.param == "inproc":
            orbs = [stack.enter_context(ORB(timeout=30.0))] * 2
        else:
            naming = NamingService()
            orbs = [
                stack.enter_context(
                    ORB(
                        side,
                        fabric=stack.enter_context(SocketFabric(side)),
                        naming=naming,
                        timeout=30.0,
                    )
                )
                for side in ("server", "client")
            ]
        for orb in set(orbs):
            orb.fabric.add_meter(meter)
        yield (*orbs, meter)


def run_diffusion(metered, idl, transfer, nclient, nserver, n=120):
    """One ``diffusion`` call; returns what was seen of it: the
    per-rank RTS logs of both sides, and the data frames of each phase
    as ``(sending rank, receiving rank, nbytes)``."""
    server_orb, client_orb, meter = metered

    class Impl(idl.diff_object_skel):
        def diffusion(self, timestep, data):
            data.local_data()[:] += timestep

    server_logs, _ = serve_recording(server_orb, Impl, nserver)

    def client(c):
        diff = idl.diff_object._spmd_bind(
            "example", c.runtime, transfer=transfer
        )
        seq = idl.darray.from_global(np.zeros(n), comm=c.comm)
        log = []
        c.runtime.rts = Recording(c.runtime.rts, log)
        diff.diffusion(1, seq)
        return seq.allgather(), log, c.runtime.port.address

    results = client_orb.run_spmd_client(nclient, client)
    np.testing.assert_array_equal(results[0][0], np.ones(n))
    client_logs = {rank: r[1] for rank, r in enumerate(results)}
    client_rank = {r[2]: rank for rank, r in enumerate(results)}
    reference = server_orb.naming.resolve("example")
    server_rank = {
        address: rank for rank, address in enumerate(reference.data_ports)
    }
    chunks = {"request": [], "reply": []}
    for src, dest, _kind, nbytes in meter.of_kind("data"):
        if src in client_rank:
            chunks["request"].append(
                (client_rank[src], server_rank[dest], nbytes)
            )
        else:
            chunks["reply"].append(
                (server_rank[src], client_rank[dest], nbytes)
            )
    return client_logs, server_logs, chunks


class TestFigure2Centralized:
    NCLIENT, NSERVER = 3, 4

    def test_pattern(self, metered, idl):
        client_logs, server_logs, chunks = run_diffusion(
            metered, idl, "centralized", self.NCLIENT, self.NSERVER
        )
        meter = metered[2]
        # Client-side gather: every non-communicating client thread
        # contributes its block to thread 0 (the dotted lines of
        # Figure 2, left).
        client_gathers = moves(client_logs[0], "gather_views")
        assert {src for src, _dst, _n in client_gathers} == set(
            range(1, self.NCLIENT)
        )
        assert all(dst == 0 for _src, dst, _n in client_gathers)
        # Exactly one request and one reply cross the network (the
        # thick black line).
        assert len(meter.of_kind("request")) == 1
        assert len(meter.of_kind("reply")) == 1
        # No direct thread-to-thread data chunks in this method.
        assert meter.of_kind("data") == []
        assert chunks == {"request": [], "reply": []}
        # Server-side scatter to every non-communicating thread, and a
        # mirror gather for the inout result.
        server_scatters = moves(server_logs[0], "scatter_chunks")
        assert {dst for _src, dst, _n in server_scatters} == set(
            range(1, self.NSERVER)
        )
        server_gathers = moves(server_logs[0], "gather_views")
        assert {src for src, _dst, _n in server_gathers} == set(
            range(1, self.NSERVER)
        )
        # Client scatters the returned data back over its threads.
        client_scatters = moves(client_logs[0], "scatter_chunks")
        assert {dst for _src, dst, _n in client_scatters} == set(
            range(1, self.NCLIENT)
        )
        # Every rank was handed the same schedule as rank 0.
        for logs in (client_logs, server_logs):
            for log in logs.values():
                for op in ("gather_views", "scatter_chunks"):
                    assert moves(log, op) == moves(logs[0], op)


class TestFigure3MultiPort:
    NCLIENT, NSERVER = 3, 4

    def test_pattern(self, metered, idl):
        # 120 elements over 3 client threads (40 each) and 4 server
        # threads (30 each): client 0 -> servers {0,1}, client 1 ->
        # servers {1,2}, client 2 -> servers {2,3}.
        client_logs, server_logs, chunks = run_diffusion(
            metered, idl, "multiport", self.NCLIENT, self.NSERVER
        )
        meter = metered[2]
        # The header still travels centralized: one request message,
        # and one reply.
        assert len(meter.of_kind("request")) == 1
        assert len(meter.of_kind("reply")) == 1
        # Request-phase chunks: exactly the block-intersection pattern.
        assert sorted((s, d) for s, d, _n in chunks["request"]) == [
            (0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 3),
        ]
        # Reply-phase chunks mirror the pattern (server -> client).
        assert sorted((s, d) for s, d, _n in chunks["reply"]) == [
            (0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2),
        ]
        # No run-time-system gather/scatter of argument data at all:
        # "communication is direct, no need for gather and scatter".
        for log in [*client_logs.values(), *server_logs.values()]:
            assert moves(log, "gather_views") == []
            assert moves(log, "scatter_chunks") == []

    def test_chunk_volume_matches_argument(self, metered, idl):
        n = 120
        _c, _s, chunks = run_diffusion(metered, idl, "multiport", 3, 4, n=n)
        for phase in ("request", "reply"):
            sent = sum(nbytes for _s, _d, nbytes in chunks[phase])
            assert sent == 8 * n + len(chunks[phase]) * CHUNK_HEADER

    def test_aligned_layouts_minimize_sends(self, metered, idl):
        """Equal client and server thread counts with blockwise layout
        on both sides: exactly one chunk per thread per direction —
        'only the minimum number of sends in each case' (§3.3)."""
        _c, _s, chunks = run_diffusion(metered, idl, "multiport", 4, 4, n=128)
        for phase in ("request", "reply"):
            assert sorted((s, d) for s, d, _n in chunks[phase]) == [
                (r, r) for r in range(4)
            ]
