"""How much Python a call runs: counted, not timed.

Two shapes of the benchmark, each over two socket fabrics with one
client rank bound collectively by the centralized method and a serial
servant:

- one blocking ``long bump(long)`` — the ``small_call`` shape — crosses
  four threads: the caller, the client fabric's event loop, the server
  fabric's event loop and the servant's dispatch thread — the serial
  object's rank thread, which serves one client alone;
- one 64 KiB ``roundtrip`` of eight kept in flight with ``_nb`` stubs —
  the ``pipelined_window`` shape — adds the runtime's invocation worker,
  which launches what the caller queued while the caller does not wait.

A profile hook counts the Python function calls every thread makes per
call.  On a shared host wall time cannot resolve a 10% change in this
work; the count can.
"""

import sys
import threading
from collections import Counter, deque

import numpy as np

from repro import ORB, compile_idl
from repro.dist import DistributedSequence
from repro.orb.naming import NamingService
from repro.orb.socketnet import SocketFabric

IDL = """
typedef dsequence<double> payload;
interface counted {
    long bump(in long x);
    payload roundtrip(in payload data);
};
"""

#: Python calls per blocking call, all four threads together: 273
#: before operations were compiled into plans, 203 after, 165 with the
#: hop compiled too (frame templates kept by the sending port, heads
#: interned), 147 with a copy event counted in one call, 146 once the
#: request intake, not the event loop, counts a request; the bound
#: keeps 3% over 165 as headroom for the wait loops' re-checks.
BOUND = 170
#: Python calls per pipelined 64 KiB roundtrip, every thread and the
#: window's own bookkeeping together: 338 while the invocation worker
#: launched, flushed and resolved every call and the payload went
#: through the generic CDR walk; 231-234 once a blocked reader works
#: its runtime's queue itself and a trailing dsequence is compiled into
#: the body; the rest, 3%, is headroom.
PIPELINED_BOUND = 241
WARMUP, CALLS = 100, 500
WINDOW = 8
PAYLOAD = np.arange(8192, dtype=np.float64)  # 64 KiB


def _role(name, caller):
    if name == caller:
        return "caller"
    if name == "server:counted-0":
        return "dispatch worker"
    if name.startswith("count-server"):
        return "server loop"
    if name.startswith("count-client"):
        return "client loop"
    if name.startswith("pardis-worker"):
        return "invocation worker"
    return name


def _counted(run, watch=None):
    """Python calls per op of ``run(proxy, n)`` after a warm-up, by
    thread role, and what ``watch(proxy)`` returns when called after
    the counted window."""
    idl = compile_idl(IDL, module_name="call_count_idl")

    class Servant(idl.counted_skel):
        def bump(self, x):
            return x + 1

        def roundtrip(self, data):
            return data

    counts = Counter()
    counting = [False]

    def profile(frame, event, arg):
        if event == "call" and counting[0]:
            counts[threading.get_ident()] += 1

    # Installed before the fabrics and ORBs exist: the threads they
    # start inherit it (``setprofile_all_threads`` is 3.12-only).
    threading.setprofile(profile)
    try:
        naming = NamingService()
        with SocketFabric("count-server") as sf, SocketFabric(
            "count-client"
        ) as cf:
            server = ORB("count-server", fabric=sf, naming=naming,
                         sanitize=False)
            client = ORB("count-client", fabric=cf, naming=naming,
                         sanitize=False)
            with server, client:
                server.serve("counted", lambda ctx: Servant(), nthreads=1)
                runtime = client.client_runtime(pipeline_depth=WINDOW)
                proxy = idl.counted._spmd_bind(
                    "counted", runtime, transfer="centralized"
                )
                run(proxy, WARMUP)
                names = {t.ident: t.name for t in threading.enumerate()}
                sys.setprofile(profile)
                counting[0] = True
                run(proxy, CALLS)
                counting[0] = False
                sys.setprofile(None)
                watched = None if watch is None else watch(proxy)
                runtime.close()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    caller = threading.current_thread().name
    by_role = Counter()
    for ident, n in counts.items():
        by_role[_role(names.get(ident, str(ident)), caller)] += n / CALLS
    detail = ", ".join(f"{role} {n:.1f}" for role, n in by_role.most_common())
    return sum(by_role.values()), by_role, detail, watched


def test_a_small_call_makes_at_most_the_bounded_python_calls():
    def run(proxy, n):
        for i in range(n):
            assert proxy.bump(i) == i + 1

    per_call, by_role, detail, _ = _counted(run)
    assert set(by_role) == {
        "caller", "dispatch worker", "server loop", "client loop"
    }, detail
    assert per_call <= BOUND, f"{per_call:.1f} calls per call: {detail}"


def test_a_pipelined_roundtrip_makes_at_most_the_bounded_python_calls():
    """Which thread launches depends on scheduling, so only the sum is
    bounded.  A blocking touch in the steady-state window works the
    queue on the reader's thread: it queues no flush marker."""

    data = DistributedSequence.from_global(PAYLOAD)

    def run(proxy, n):
        pending = deque()
        issued = 0
        while issued < n or pending:
            while len(pending) < WINDOW and issued < n:
                pending.append(proxy.roundtrip_nb(data))
                issued += 1
            reply = pending.popleft().value()
            assert reply.length() == len(PAYLOAD)

    def queued(proxy):
        """The kinds of item one more window queues."""
        worker = proxy._runtime.worker
        kinds, put = [], worker._put

        def spy(item):
            kinds.append(item[0])
            put(item)

        worker._put = spy
        run(proxy, CALLS)
        return kinds

    per_call, _by_role, detail, kinds = _counted(run, queued)
    assert kinds.count("invoke") == CALLS
    assert "flush" not in kinds
    assert per_call <= PIPELINED_BOUND, (
        f"{per_call:.1f} calls per roundtrip: {detail}"
    )

