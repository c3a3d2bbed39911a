"""How much Python one small call runs: counted, not timed.

One blocking ``long bump(long)`` over two socket fabrics — the
``small_call`` benchmark's shape: one client rank bound collectively,
the centralized method, a serial servant — crosses four threads: the
caller, the client fabric's event loop, the server fabric's event loop
and a dispatch worker.  A profile hook counts the Python function
calls each makes per call.  On a shared host wall time cannot resolve
a 10% change in this work; the count can.
"""

import sys
import threading
from collections import Counter

from repro import ORB, compile_idl
from repro.orb.naming import NamingService
from repro.orb.socketnet import SocketFabric

IDL = "interface counted { long bump(in long x); };"

#: Python calls per blocking call, all four threads together: 273
#: before operations were compiled into plans, 203 after, 165 with the
#: hop compiled too (frame templates kept by the sending port, heads
#: interned); the rest, 3%, is headroom for the wait loops' re-checks.
BOUND = 170
WARMUP, CALLS = 100, 500


def _role(name, caller):
    if name == caller:
        return "caller"
    if ":dispatch" in name:
        return "dispatch worker"
    if name.startswith("count-server"):
        return "server loop"
    if name.startswith("count-client"):
        return "client loop"
    return name


def test_a_small_call_makes_at_most_the_bounded_python_calls():
    idl = compile_idl(IDL, module_name="call_count_idl")

    class Servant(idl.counted_skel):
        def bump(self, x):
            return x + 1

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
                runtime = client.client_runtime()
                proxy = idl.counted._spmd_bind(
                    "counted", runtime, transfer="centralized"
                )
                for i in range(WARMUP):
                    assert proxy.bump(i) == i + 1
                names = {t.ident: t.name for t in threading.enumerate()}
                sys.setprofile(profile)
                counting[0] = True
                for i in range(CALLS):
                    proxy.bump(i)
                counting[0] = False
                sys.setprofile(None)
                runtime.close()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    caller = threading.current_thread().name
    by_role = Counter()
    for ident, n in counts.items():
        by_role[_role(names.get(ident, str(ident)), caller)] += n / CALLS
    per_call = sum(by_role.values())
    detail = ", ".join(f"{role} {n:.1f}" for role, n in by_role.most_common())
    assert set(by_role) == {
        "caller", "dispatch worker", "server loop", "client loop"
    }, detail
    assert per_call <= BOUND, f"{per_call:.1f} calls per call: {detail}"
