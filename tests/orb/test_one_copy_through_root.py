"""The centralized method's RTS legs on thread ranks: a gather lends
the communicating thread every rank's pieces in place, and the send
writes them into the frame; a scatter of a received frame hands each
servant rank a view of it.

Pinned here end to end over sockets (element-exact results, one write
per received byte and none besides), and a gather that fails on the
root while a slow peer is still lending: the next gather on that
thread is untouched by it.
"""

import contextlib
import threading
import types

import numpy as np
import pytest

from repro import ORB, compile_idl
from repro.cdr.accounting import copy_audit
from repro.dist import BlockTemplate
from repro.orb.datapath import _gather
from repro.orb.naming import NamingService
from repro.orb.socketnet import SocketFabric
from repro.rts import GroupAbortedError, RuntimeSystem, create_group

BULK = 1 << 18  # doubles: 2 MiB, well above the pooled-frame size

IDL = f"""
typedef dsequence<double, {2 * BULK}> payload;

interface through_root {{
    payload roundtrip(in payload data);
    double ingest(in payload data);
}};
"""


@pytest.fixture(scope="module")
def idl():
    return compile_idl(IDL, module_name="one_copy_through_root_idl")


@contextlib.contextmanager
def two_socket_orbs():
    naming = NamingService()
    with contextlib.ExitStack() as stack:
        yield [
            stack.enter_context(
                ORB(
                    name,
                    naming=naming,
                    fabric=stack.enter_context(SocketFabric(name)),
                    timeout=30.0,
                )
            )
            for name in ("root-server", "root-client")
        ]


def test_two_to_four_centralized_over_sockets(idl):
    """``ingest`` scatters the request frame over four servant ranks,
    ``roundtrip`` also gathers the reply on the server and scatters
    the reply frame over the two client ranks."""
    source = np.arange(BULK, dtype=np.float64) * 0.5
    seen = {}

    class Servant(idl.through_root_skel):
        def ingest(self, data):
            seen[self.rank] = data.local_data()
            return float(data.local_data().sum())

        def roundtrip(self, data):
            return data

    with two_socket_orbs() as (server, client):
        server.serve("root", lambda ctx: Servant(), nthreads=4)

        def body(ctx):
            proxy = idl.through_root._spmd_bind(
                "root", ctx.runtime, transfer="centralized"
            )
            data = idl.payload.from_global(source, comm=ctx.comm)
            proxy.ingest(data)  # connections warm
            with copy_audit() as account:
                total = proxy.ingest(data)
            ctx.comm.barrier()
            echoed = proxy.roundtrip(data)
            return total, account.snapshot()[0], echoed.local_data()

        results = client.run_spmd_client(2, body)

    quarter = BULK // 4
    for rank, block in seen.items():
        np.testing.assert_array_equal(
            block, source[rank * quarter : (rank + 1) * quarter]
        )
        # Adopted: a view of the received frame, writable and aligned.
        assert block.base is not None
        assert block.flags.writeable and block.flags.aligned
    blocks = list(seen.values())
    for i, a in enumerate(blocks):
        for b in blocks[i + 1 :]:
            assert not np.shares_memory(a, b)
    assert {r[0] for r in results} == {float(seen[0].sum())}
    # The socket read alone: the gather lends, the scatter adopts.  Both
    # client ranks see the one process-wide account.
    assert results[0][1] / source.nbytes == pytest.approx(1.0, abs=0.01)
    echoed = np.concatenate([r[2] for r in results])
    np.testing.assert_array_equal(echoed, source)
    assert not np.shares_memory(results[0][2], results[1][2])


class _Stalls(np.ndarray):
    """A block whose pieces are taken only once ``gate`` opens; taking
    one sets ``entered`` — the rank is inside the gather."""

    entered = threading.Event()
    gate = threading.Event()

    def __getitem__(self, key):
        _Stalls.entered.set()
        _Stalls.gate.wait(10)
        return np.asarray(self)[key]


def _seq(layout, local):
    return types.SimpleNamespace(
        layout=layout,
        dtype=local.dtype,
        length=lambda: layout.length,
        local_data=lambda: local,
    )


def test_a_failed_gather_leaves_nothing_for_the_next_one():
    """A gather root that leaves by ``GroupAbortedError`` while a slow
    peer has yet to lend: the peer's late lend must not reach the next
    invocation on the root's thread, which gathers exactly its own
    group's data."""
    n = 4096
    layout = BlockTemplate(2).layout(n)
    expected = np.arange(n, dtype=np.float64)
    half = n // 2
    first = create_group(2, "first")
    late = np.full(n - half, -1.0).view(_Stalls)
    outcome = []

    def late_peer():
        try:
            _gather(RuntimeSystem(first[1]), _seq(layout, late))
        except GroupAbortedError:
            outcome.append("aborted")

    def aborter():
        _Stalls.entered.wait(10)
        first[0].abort("a peer failed")

    threads = [threading.Thread(target=f) for f in (late_peer, aborter)]
    for t in threads:
        t.start()
    with pytest.raises(GroupAbortedError):
        _gather(RuntimeSystem(first[0]), _seq(layout, expected[:half].copy()))

    # The next invocation on this thread, over a healthy group.
    second = create_group(2, "second")
    helper = threading.Thread(
        target=_gather,
        args=(RuntimeSystem(second[1]), _seq(layout, expected[half:].copy())),
    )
    helper.start()
    result = _gather(
        RuntimeSystem(second[0]), _seq(layout, expected[:half].copy())
    )
    helper.join(10)
    _Stalls.gate.set()  # the slow peer of the failed gather lends now
    for t in threads:
        t.join(10)
    assert outcome == ["aborted"]
    np.testing.assert_array_equal(np.concatenate(result), expected)
