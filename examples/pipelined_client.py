"""Pipelined invocations: the client computes while its requests run (§2.1).

The paper's futures let "the client use remote resources concurrently
with its own": a client fires its non-blocking invocations, goes on
with its own computation, and touches the futures only when it needs
the results.  Meanwhile the server works through the requests, one
client's in the order they were sent.

The pattern that unlocks the overlap:

    futures = [proxy.op_nb(arg) for arg in work]   # fire everything
    compute()                                      # the client's own work
    results = [f.value() for f in futures]         # then touch

versus blocking on every call first and computing afterwards, which
waits out every request's service time before the client's own work
even starts.

Run:  python examples/pipelined_client.py
"""

import time

from repro import ORB, compile_idl

IDL = """
interface worker {
    double crunch(in double x);
};
"""

idl = compile_idl(IDL, module_name="pipelined_idl")

#: Modeled per-request computation on the server (seconds).
SERVICE = 0.03
REQUESTS = 6
#: Modeled computation of the client's own (seconds).
CLIENT_WORK = 0.15


class CrunchServant(idl.worker_skel):
    def crunch(self, x):
        time.sleep(SERVICE)  # stands in for real computation
        return x * x


def compute():
    time.sleep(CLIENT_WORK)  # stands in for the client's own work


def blocking_then_compute(proxy):
    """Every call waits for its reply; the client computes after."""
    results = [proxy.crunch(float(i)) for i in range(REQUESTS)]
    compute()
    return results


def pipelined(proxy):
    """Fire every call, compute, and only then touch the futures."""
    futures = [proxy.crunch_nb(float(i)) for i in range(REQUESTS)]
    compute()
    return [f.value(timeout=30) for f in futures]


def timed(orb, run):
    runtime = orb.client_runtime(label=run.__name__,
                                 pipeline_depth=REQUESTS)
    try:
        proxy = idl.worker._bind("worker", runtime)
        proxy.crunch(0.0)  # warm the connection
        start = time.perf_counter()
        results = run(proxy)
        elapsed = time.perf_counter() - start
    finally:
        runtime.close()
    assert results == [float(i * i) for i in range(REQUESTS)]
    return elapsed


def main():
    orb = ORB()
    orb.serve("worker", lambda ctx: CrunchServant(), nthreads=1)

    blocking = timed(orb, blocking_then_compute)
    overlapped = timed(orb, pipelined)

    print(f"blocking, then compute: {blocking * 1e3:7.1f} ms")
    print(f"pipelined with compute: {overlapped * 1e3:7.1f} ms")
    print(f"speedup: {blocking / overlapped:.1f}x")

    # Blocking costs the sum of the server's and the client's work
    # (about 330 ms); overlapped, the larger of the two (about
    # 180 ms).  The margin leaves room for scheduling noise.
    assert overlapped < 0.8 * blocking, (
        "the client's computation should overlap the server's"
    )

    orb.shutdown()
    print("OK")


if __name__ == "__main__":
    main()
