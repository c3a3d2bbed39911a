"""Fan-in counted, not timed: the server's request path costs the same
Python calls per request at 50 client identities as at 1000.

Each identity is a real :class:`~repro.orb.proxy.ClientRuntime` of its
own, with a reply port of its own, spread over four client socket
fabrics — so the identities far outnumber the connections, as when
many consoles share a gateway.  Every identity first sends one oneway
to a gated servant, so every identity is queued at the server at
once; then every identity makes a blocking call, twice round.  A profile hook
counts the Python calls of the server fabric's event loop and of the
object's dispatch threads over that window, per request.

What a request costs at the server depends on how many peers it has
seen only where a per-peer table can overflow: the interned heads and
addresses, and each port's compiled reply templates
(:data:`repro.cdr.head.INTERNED`).  A table that thrashes shows as a
count that grows with the identities; on a shared host a timing
cannot resolve that 10%, the count can.
"""

import sys
import threading
import time
from collections import Counter

from repro import ORB, compile_idl
from repro.orb.naming import NamingService
from repro.orb.socketnet import SocketFabric

IDL = """
interface tally {
    long bump(in long x);
    oneway void hold(in long x);
};
"""

#: Client fabrics the identities share: one connection each.
FABRICS = 4
#: Requests per identity in the counted window: one oneway, two bumps.
PER_IDENTITY = 3
#: Server-side calls per request may differ by this share between a
#: small and a large fan-in.
TOLERANCE = 0.02
#: Identities that warm the server up before the counted window: the
#: object's every dispatch thread started, each kind of frame seen.
WARMUP = 8


def _server_thread(name):
    return name.startswith(("fanin-server", "server:tally"))


def _requests_at(server, inflight, seconds=30.0):
    """The governor's request counters once ``inflight`` requests are
    in flight.  Read at 0 only after waiting: a blocking call returns
    when its reply arrives, before the server counts it completed."""
    deadline = time.monotonic() + seconds
    while True:
        requests = server.stats()["server"]["requests"]
        if requests["inflight"] == inflight:
            return requests
        assert time.monotonic() < deadline, requests
        time.sleep(0.005)


def counted_fanin(identities):
    """Server-side Python calls per request with ``identities`` client
    identities queued at once, the governor's request counters and the
    server's connection count after the window."""
    idl = compile_idl(IDL, module_name="fanin_count_idl")
    gate = threading.Event()

    class Tally(idl.tally_skel):
        def bump(self, x):
            return x + 1

        def hold(self, x):
            gate.wait(timeout=60.0)

    counts = Counter()
    counting = [False]

    def profile(frame, event, arg):
        if event != "call":
            return
        if not _server_thread(threading.current_thread().name):
            sys.setprofile(None)  # a client thread: never counted
        elif counting[0]:
            counts[threading.get_ident()] += 1

    naming = NamingService()
    # Installed before the server exists: the threads it starts inherit
    # it (``setprofile_all_threads`` is 3.12-only); every other thread
    # drops it at its first call.
    threading.setprofile(profile)
    fabrics = [SocketFabric("fanin-server")]
    try:
        fabrics += [SocketFabric(f"fanin-client{k}") for k in range(FABRICS)]
        server = ORB("fanin-server", fabric=fabrics[0], naming=naming,
                     timeout=60.0, sanitize=False)
        clients = [
            ORB(f.name, fabric=f, naming=naming, timeout=60.0, sanitize=False)
            for f in fabrics[1:]
        ]
        with server:
            server.serve("tally", lambda ctx: Tally(), nthreads=1)
            runtimes = [
                clients[i % FABRICS].client_runtime(label=f"id{i}")
                for i in range(WARMUP + identities)
            ]
            proxies = [idl.tally._bind("tally", rt) for rt in runtimes]

            def window(group):
                gate.clear()
                for proxy in group:
                    proxy.hold(0)
                _requests_at(server, len(group))
                gate.set()
                _requests_at(server, 0)
                for x in (1, 2):
                    for proxy in group:
                        assert proxy.bump(x) == x + 1
                return _requests_at(server, 0)

            window(proxies[:WARMUP])
            counting[0] = True
            try:
                requests = window(proxies[WARMUP:])
            finally:
                counting[0] = False
            names = {t.ident: t.name for t in threading.enumerate()}
            connections = server.stats()["server"]["connections"]["active"]
            for runtime in runtimes:
                runtime.close()
            for client in clients:
                client.shutdown()
    finally:
        threading.setprofile(None)
        for fabric in fabrics:
            fabric.close()
    assert all(_server_thread(names[ident]) for ident in counts), counts
    per_request = sum(counts.values()) / (PER_IDENTITY * identities)
    return per_request, requests, connections


def assert_flat(small, large):
    """``large`` identities cost what ``small`` do per request, and
    every admitted request completed with far fewer connections."""
    small_calls, _, _ = counted_fanin(small)
    large_calls, requests, connections = counted_fanin(large)
    assert requests["admitted"] == requests["completed"], requests
    assert requests["admitted"] == PER_IDENTITY * (WARMUP + large), requests
    assert connections <= 2 * FABRICS < large
    ratio = large_calls / small_calls
    assert abs(ratio - 1) <= TOLERANCE, (
        f"{large_calls:.1f} calls per request at {large} identities, "
        f"{small_calls:.1f} at {small} ({ratio:.3f}x)"
    )
    return small_calls, large_calls


def test_a_request_costs_the_same_at_1000_identities_as_at_50():
    assert_flat(50, 1000)
