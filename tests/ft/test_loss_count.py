"""Loss recovery counted, not timed: under seeded frame loss every call
is answered, the servant runs each request exactly once, and every
attempt timeout has a lost frame behind it.

Each cell is one fabric (in-process, or a server and a client
``SocketFabric``) and one transfer method (centralized, multi-port).
A serial echo servant counts its executions and keeps a reply cache.
A ``FaultyFabric`` with a seeded ``FaultSchedule`` drops frames of
every kind but control; on the socket cells it wraps *both* fabrics,
so replies and the server's chunks are lost as well as requests.  The
client retries timed-out attempts.

Four counts per cell: faults injected (``fault_stats()``), attempt
timeouts (a spy on ``ClientInvocation.timeout_failure``),
``ft.retries`` and servant executions.  Under loss the time a call
takes is its attempt timeouts and nothing else, so timeouts per fault
is the figure of merit; unlike a goodput it repeats on a shared host.
"""

import numpy as np
import pytest

from repro import ORB, FtPolicy, compile_idl
from repro.ft.faults import FaultSchedule, FaultyFabric
from repro.orb import transfer
from repro.orb.naming import NamingService
from repro.orb.socketnet import SocketFabric
from repro.orb.transport import Fabric

IDL = """
typedef dsequence<double, 2048> payload;

interface lossecho {
    payload roundtrip(in payload data);
};
"""

PAYLOAD = np.arange(2048, dtype=np.float64)  # 16 KiB
REQUESTS = 20
#: Per-frame drop probability, every frame kind but control.
DROP = 0.05
#: Per-attempt timeout: each lost frame costs one of these.
TIMEOUT_S = 0.2
#: Retries without backoff: the attempt timeout already paces them.
POLICY = FtPolicy(max_retries=8, backoff_base_ms=0.0, backoff_cap_ms=0.0)
#: Reply-cache budget, so a retried request whose reply was lost is
#: answered from the cache instead of re-executed.
REPLY_CACHE_BYTES = 4 << 20

#: (fabric, method) -> (schedule seed, expected counts).  Each seed
#: drops a reply, so without the reply cache the executions would
#: exceed the requests in every cell; the socket cells' seed also
#: drops a frame on each fabric (the client's schedule is seeded one
#: higher), and socket multi-port loses a request, a reply and a
#: server chunk.  The counts agreed in 20 of 20 runs, so they are
#: pinned.  ``retries`` may exceed ``timeouts`` on socket multi-port
#: under other seeds (a retry answered by the abandoned attempt's
#: server-side collection, see ROADMAP item 8), so only timeouts are
#: bounded by faults.
CELLS = {
    ("inproc", "centralized"): (0, {"faults": 2, "timeouts": 2,
                                    "retries": 2, "executions": 20}),
    ("inproc", "multiport"): (13, {"faults": 2, "timeouts": 2,
                                   "retries": 2, "executions": 20}),
    ("socket", "centralized"): (7, {"faults": 2, "timeouts": 2,
                                    "retries": 2, "executions": 20}),
    ("socket", "multiport"): (7, {"faults": 3, "timeouts": 3,
                                  "retries": 3, "executions": 20}),
}


@pytest.fixture(scope="module")
def idl():
    return compile_idl(IDL, module_name="loss_count_idl")


def counted_losses(idl, fabric, method, seed):
    """Run ``REQUESTS`` calls in one cell and return its four counts."""
    executions = []

    class Echo(idl.lossecho_skel):
        def roundtrip(self, data):
            executions.append(1)
            return data

    timeouts = []
    timeout_failure = transfer.ClientInvocation.timeout_failure

    def spy(inv, exc):
        timeouts.append(1)
        return timeout_failure(inv, exc)

    def run(server_orb, client_orb, faulty):
        server_orb.serve(
            "lossecho",
            lambda ctx: Echo(),
            nthreads=1,
            reply_cache_bytes=REPLY_CACHE_BYTES,
        )
        runtime = client_orb.client_runtime(label="loss", ft_policy=POLICY)
        try:
            proxy = idl.lossecho._bind("lossecho", runtime, transfer=method)
            data = idl.payload.from_global(PAYLOAD)
            for _ in range(REQUESTS):
                assert proxy.roundtrip(data).length() == len(PAYLOAD)
        finally:
            runtime.close()
        return {
            "faults": sum(
                n
                for f in faulty
                for action, n in f.fault_stats().items()
                if action != "forwarded"
            ),
            "timeouts": len(timeouts),
            "retries": client_orb.stats()["ft"]["retries"],
            "executions": len(executions),
        }

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transfer.ClientInvocation, "timeout_failure", spy)
        if fabric == "inproc":
            faulty = FaultyFabric(
                Fabric("loss-count"), FaultSchedule(seed=seed, drop=DROP)
            )
            with ORB("loss-count", fabric=faulty, timeout=TIMEOUT_S) as orb:
                return run(orb, orb, [faulty])
        naming = NamingService()
        with SocketFabric("loss-server") as sf, \
                SocketFabric("loss-client") as cf:
            faulty = [
                FaultyFabric(sf, FaultSchedule(seed=seed, drop=DROP)),
                FaultyFabric(cf, FaultSchedule(seed=seed + 1, drop=DROP)),
            ]
            server_orb, client_orb = (
                ORB(f"loss-{side}", fabric=f, naming=naming,
                    timeout=TIMEOUT_S)
                for side, f in zip(("server", "client"), faulty)
            )
            with server_orb, client_orb:
                return run(server_orb, client_orb, faulty)


@pytest.mark.parametrize("cell", list(CELLS), ids="-".join)
def test_every_loss_costs_at_most_one_timeout_and_no_execution(
    idl, cell, record_property
):
    seed, expected = CELLS[cell]
    counts = counted_losses(idl, *cell, seed)
    assert counts["faults"] >= 1, counts
    record_property("timeouts_per_fault", counts["timeouts"] / counts["faults"])
    # Effectively once: a lost reply is answered from the cache.
    assert counts["executions"] == REQUESTS, counts
    # No timeout without a loss behind it.
    assert 1 <= counts["timeouts"] <= counts["faults"], counts
    assert counts == expected
