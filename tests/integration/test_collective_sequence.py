"""The per-invocation collective sequence of each data path.

The paper's Tables 1 and 2 break an invocation into stages; on the
real stack each stage that involves every thread is one RTS
collective.  These tests pin the ordered list of collectives one
invocation costs — per path, per side, per rank — so an engine change
that adds a vote or a barrier to either path fails here, not in a
latency figure three PRs later.
"""

import numpy as np
import pytest

from tests.integration.observing import Recording, names, serve_recording

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
        "synchronize", "gather_chunks", "allgather", "broadcast",
        "scatter_chunks", "broadcast", "synchronize",
    ],
    ("client", "multiport"): [
        "synchronize", "allgather", "allgather", "synchronize",
    ],
    ("server", "centralized"): [
        "broadcast", "broadcast", "scatter_chunks", "allgather",
        "synchronize", "gather_chunks",
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
