"""How long a centralized gather lends a rank's block.

On the through-root path the communicating thread gets every rank's
block in place (``RuntimeSystem.gather_views``) and writes — or lets
the peer pull — the frame straight out of the ranks' own arrays.  A
block stays lent until its rank's next collective with rank 0, which
rank 0 enters only once the frame is sent.  So a rank may overwrite
its block the moment the program hands it back: here rank 1 of a
two-rank client does so as soon as each call returns, on every route
a centralized request takes (blocking, oneway, a pipelined window, a
retry, a degraded call), and the servant peers of a roundtrip reuse
their result array at the next invocation.  The other side must see
the original data every time.
"""

import contextlib
import dataclasses

import numpy as np
import pytest

from repro import ORB, FtPolicy, compile_idl
from repro.ft.faults import FaultSchedule, FaultyFabric
from repro.orb.naming import NamingService
from repro.orb.request import decode_reply, decode_request
from repro.orb.socketnet import SocketFabric
from repro.orb.transport import Fabric, flatten_payload

N = 1 << 17  # doubles: 1 MiB, a frame the local stream pulls

IDL = f"""
typedef dsequence<double, {N}> payload;

interface lender {{
    long ingest(in long k, in payload data);
    oneway void post(in long k, in payload data);
    payload roundtrip(in long k, in payload data);
}};
"""

RETRYING = FtPolicy(max_retries=8, backoff_base_ms=1.0, backoff_cap_ms=5.0)


@pytest.fixture(scope="module")
def idl():
    return compile_idl(IDL, module_name="lend_window_idl")


def expected(k, lo=0, hi=N):
    return np.arange(lo, hi, dtype=np.float64) + 1000.0 * k


def serve(orb, idl, seen, **options):
    """A four-rank servant group that checks every block it receives
    against call ``k``'s data, into ``seen``: ``(k, rank, intact)``."""

    class Lender(idl.lender_skel):
        block = None

        def _check(self, k, data):
            lo, hi = data.local_range()
            intact = np.array_equal(data.local_data(), expected(k, lo, hi))
            seen.append((k, self.rank, intact))

        def ingest(self, k, data):
            self._check(k, data)
            return k

        def post(self, k, data):
            self._check(k, data)

        def roundtrip(self, k, data):
            # The result array of the last call, reused: its reply is
            # sent, so it is this rank's to overwrite again.
            if self.block is None:
                self.block = np.empty(data.local_length())
            self.block[:] = -1.0
            self.block[:] = data.local_data()
            return idl.payload.adopt(self.block, comm=self.comm, release=True)

    orb.serve("lender", lambda ctx: Lender(), nthreads=4, **options)


@contextlib.contextmanager
def orbs(client_fabric=None, timeout=30.0):
    """A server and a client ORB on two socket fabrics; the client's
    optionally wrapped (``client_fabric(inner)``)."""
    naming = NamingService()
    with SocketFabric("lend-server") as sf, SocketFabric("lend-client") as cf:
        wrapped = cf if client_fabric is None else client_fabric(cf)
        with ORB("lend-server", fabric=sf, naming=naming, timeout=timeout) as server, \
                ORB("lend-client", fabric=wrapped, naming=naming, timeout=timeout) as client:
            yield server, client, wrapped


def sequence(idl, ctx, k):
    return idl.payload.from_global(expected(k), comm=ctx.comm)


def spoil(ctx, seq):
    """Rank 1 takes its block back at once."""
    if ctx.rank == 1:
        seq.local_data()[:] = np.nan


def all_intact(seen, calls):
    """Every servant rank saw every call, and saw it intact (a retried
    call may run twice; each run must)."""
    assert all(intact for _k, _rank, intact in seen)
    assert {(k, r) for k, r, _ in seen} == {(k, r) for k in calls for r in range(4)}


def test_blocking_and_oneway_calls(idl):
    seen = []
    with orbs() as (server, client, _):
        serve(server, idl, seen)

        def body(ctx):
            proxy = idl.lender._spmd_bind(
                "lender", ctx.runtime, transfer="centralized"
            )
            for k in range(3):
                seq = sequence(idl, ctx, k)
                assert proxy.ingest(k, seq) == k
                spoil(ctx, seq)
            for k in range(3, 6):
                seq = sequence(idl, ctx, k)
                proxy.post(k, seq)
                spoil(ctx, seq)
            return proxy.ingest(6, sequence(idl, ctx, 6))  # after the posts

        assert client.run_spmd_client(2, body) == [6, 6]
    all_intact(seen, range(7))


def test_a_pipelined_window_of_four(idl):
    seen = []
    with orbs() as (server, client, _):
        serve(server, idl, seen)

        def body(ctx):
            proxy = idl.lender._spmd_bind(
                "lender", ctx.runtime, transfer="centralized"
            )
            window = [sequence(idl, ctx, k) for k in range(4)]
            futures = [proxy.ingest_nb(k, s) for k, s in enumerate(window)]
            results = []
            for future, seq in zip(futures, window):
                results.append(future.value(timeout=30))
                spoil(ctx, seq)
            return results

        assert client.run_spmd_client(2, body) == [[0, 1, 2, 3]] * 2
    all_intact(seen, range(4))


def test_a_retry_after_a_dropped_request_frame(idl):
    seen = []
    schedule = FaultSchedule(seed=38, drop=0.4, kinds=("request",))
    with orbs(lambda inner: FaultyFabric(inner, schedule), timeout=0.5) as (
        server, client, faulty
    ):
        serve(server, idl, seen, reply_cache_bytes=1 << 20)

        def body(ctx):
            proxy = idl.lender._spmd_bind(
                "lender", ctx.runtime, transfer="centralized",
                ft_policy=RETRYING,
            )
            for k in range(4):
                seq = sequence(idl, ctx, k)
                assert proxy.ingest(k, seq) == k
                spoil(ctx, seq)

        client.run_spmd_client(2, body, timeout=120.0)
        assert faulty.fault_stats()["drop"] > 0
    all_intact(seen, range(4))


class _DeadDataPorts:
    """Every data chunk is unreachable: a multi-port call degrades to
    the centralized method."""

    def decide(self, kind):
        return ("disconnect",) if kind == "data" else ()


def test_a_degraded_call(idl):
    seen = []
    with orbs(lambda inner: FaultyFabric(inner, _DeadDataPorts()), timeout=1.0) as (
        server, client, _
    ):
        serve(server, idl, seen, reply_cache_bytes=1 << 20)

        def body(ctx):
            proxy = idl.lender._spmd_bind(
                "lender", ctx.runtime, transfer="multiport",
                ft_policy=RETRYING,
            )
            for k in range(3):
                seq = sequence(idl, ctx, k)
                assert proxy.ingest(k, seq) == k
                spoil(ctx, seq)
            return proxy.transfer_method

        assert client.run_spmd_client(2, body, timeout=120.0) == ["centralized"] * 2
        assert client.stats()["ft"]["degraded"] >= 1
    # The abandoned multi-port attempt never reached a servant.
    all_intact(seen, range(3))


def test_servant_peers_reuse_their_result_array(idl):
    """Four roundtrips in flight, so the next request already waits
    while a reply is sent: the servant peers start on it — and
    overwrite the result array they lent — only once rank 0 is done."""
    with orbs() as (server, client, _):
        serve(server, idl, [])

        def body(ctx):
            proxy = idl.lender._spmd_bind(
                "lender", ctx.runtime, transfer="centralized"
            )
            window = [sequence(idl, ctx, k) for k in range(4)]
            futures = [proxy.roundtrip_nb(k, s) for k, s in enumerate(window)]
            intact = []
            for k, future in enumerate(futures):
                echoed = future.value(timeout=30)
                lo, hi = echoed.local_range()
                intact.append(np.array_equal(echoed.local_data(), expected(k, lo, hi)))
            return intact

        assert client.run_spmd_client(2, body) == [[True] * 4] * 2


class _Capturing(Fabric):
    """The in-process fabric, keeping every request and reply frame
    as the octets it carried."""

    def __init__(self):
        super().__init__("capturing")
        self.frames = []

    def send(self, src, dest, payload, kind="data"):
        if kind in ("request", "reply"):
            self.frames.append((kind, bytes(flatten_payload(payload))))
        super().send(src, dest, payload, kind)


def test_the_frames_carry_the_assembled_value_octet_for_octet(idl):
    """The lent pieces encode to the frames an assembled array would:
    the request of one centralized call from two ranks, and the reply
    gathered from four, re-encoded from the whole value, match the
    captured octets."""
    fabric = _Capturing()
    with ORB("wire", fabric=fabric, timeout=30.0) as orb:
        serve(orb, idl, [])

        def body(ctx):
            proxy = idl.lender._spmd_bind("lender", ctx.runtime, transfer="centralized")
            proxy.roundtrip(3, sequence(idl, ctx, 3))

        orb.run_spmd_client(2, body)
    frames = dict(fabric.frames)
    assert [kind for kind, _ in fabric.frames] == ["request", "reply"]
    plan = idl.lender._operations["roundtrip"]
    request = decode_request(frames["request"])
    body = plan.request[False].encode([3, expected(3)])
    assert dataclasses.replace(request, body=body).encode() == frames["request"]
    reply = decode_reply(frames["reply"])
    body = plan.reply[False].encode([expected(3)])
    assert dataclasses.replace(reply, body=body).encode() == frames["reply"]
