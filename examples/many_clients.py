"""Massive client fan-in: one event loop, hundreds of identities.

The server-side socket fabric no longer spends a thread per
connection: a single ``selectors`` event loop owns every client
socket, demultiplexes request frames by the 64-bit client identity in
their request ids, and feeds the dispatch pool through per-client
fair queues.  This example points 300 simulated clients — far more
than you would ever give threads to — at one serial servant, then
shows the one valve that keeps a server's memory bounded: a client
that outruns a slow servant has its socket paused at 64 queued
requests, while another client's calls keep being answered, and
``orb.stats()["server"]`` counts the pause and the resume.

Run:  python examples/many_clients.py

See docs/scaling.md for the architecture and the backpressure depths.
"""

import threading
import time

from repro import ORB, compile_idl
from repro.bench.clients import run_clients
from repro.orb.naming import NamingService
from repro.orb.socketnet import SocketFabric

IDL = """
interface counter {
    long add(in long x);
    oneway void note(in long x);
};
"""

idl = compile_idl(IDL, module_name="many_clients_idl")

CLIENTS = 300
CONNECTIONS = 64  # identities multiplex over a socket budget


def _wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.01)


def fan_in_sweep():
    """300 window-1 clients over 64 sockets against one servant."""
    [point] = run_clients(
        clients=[CLIENTS],
        total_requests=1500,
        connections=CONNECTIONS,
        repeats=1,
    )
    print(
        f"{point.clients} clients over {point.connections} "
        f"connections: {point.goodput_rps:,.0f} req/s, "
        f"{point.errors} errors"
    )
    assert point.errors == 0
    return point


def backpressure():
    """A hog pauses only itself; a polite client is still answered."""
    gate = threading.Event()

    class Counter(idl.counter_skel):
        def add(self, x):
            return int(x) + 1

        def note(self, x):
            gate.wait(timeout=10.0)  # a slow servant piles work up

    naming = NamingService()
    with SocketFabric("fanin-server") as sf, \
            SocketFabric("fanin-hog") as hf, \
            SocketFabric("fanin-polite") as pf:
        server = ORB("fanin-server", fabric=sf, naming=naming,
                     timeout=10.0)
        hog = ORB("fanin-hog", fabric=hf, naming=naming, timeout=10.0)
        polite = ORB("fanin-polite", fabric=pf, naming=naming,
                     timeout=10.0)
        with server, hog, polite:
            server.serve("counter", lambda ctx: Counter(),
                         nthreads=1)

            def section():
                return server.stats()["server"]

            hog_rt = hog.client_runtime()
            hog_proxy = idl.counter._bind("counter", hog_rt)
            for i in range(80):  # one-ways: nothing waits for them
                hog_proxy.note(i)
            _wait_for(
                lambda: section()["backpressure"]["paused_clients"] == 1
            )
            limit = section()["backpressure"]["queue_limit"]
            print(f"hog paused at {limit} queued requests")
            polite_rt = polite.client_runtime()
            polite_proxy = idl.counter._bind("counter", polite_rt)
            answers = [polite_proxy.add(i) for i in range(5)]
            assert answers == [i + 1 for i in range(5)]
            print("polite client answered while the hog waits")
            gate.set()
            _wait_for(lambda: section()["requests"]["inflight"] == 0)
            bp = section()["backpressure"]
            print(
                f"{section()['requests']['completed']} requests completed, "
                f"{bp['pauses']} pause, {bp['resumes']} resume "
                f"(read again at {bp['resume_at']})"
            )
            assert bp["pauses"] >= 1 and bp["resumes"] >= 1
            hog_rt.close()
            polite_rt.close()


def main():
    fan_in_sweep()
    backpressure()
    print("OK")


if __name__ == "__main__":
    main()
