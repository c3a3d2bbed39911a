"""Failover recovery counted, not timed: after the bound replica of a
replicated group is killed mid-burst, its sibling serves each call at
the Python-call cost of the steady state before the kill.

One ORB on the in-process fabric serves a group of three echo
replicas; one client runtime, bound to the group with a retrying
policy, sends windows of pipelined 64 KiB ``roundtrip_nb`` calls.  The
replica the proxy is bound to is killed (ports closed, no unbind — a
crash) once a window's burst is in flight: its calls fail, exhaust
their retries, and the engine fails the binding over and re-issues
them on a sibling.  A profile hook counts every thread's Python calls
per window.  The windows before the kill and those after it must cost
the same per call: a recovery that leaves a resend, a re-resolve or a
dead peer's bookkeeping on the steady path shows as a count that
stays up, which a goodput ratio on a shared host cannot resolve.
"""

import sys
import threading
from collections import Counter

import numpy as np

from repro import ORB, FtPolicy, compile_idl

IDL = """
typedef dsequence<double, 262144> payload;

interface groupecho {
    payload roundtrip(in payload data);
};
"""

REPLICAS = 3
#: Pipelined calls per window.
REQUESTS = 24
PAYLOAD = np.arange(8192, dtype=np.float64)  # 64 KiB
#: Counted windows on each side of the kill, after one warm-up window.
COUNTED = 3
#: Per-attempt timeout.  A send to the killed replica's closed port
#: fails at once, so the kill window waits out none of it.
TIMEOUT_S = 0.3
#: Two retries against the dead replica, then failover; no backoff.
POLICY = FtPolicy(max_retries=2, backoff_base_ms=0.0, backoff_cap_ms=0.0)
#: Reply-cache budget per replica, so a retried request to a live
#: replica dedups instead of re-executing.
REPLY_CACHE_BYTES = 4 << 20
#: Python calls per call after the failover may differ from before it
#: by this share.
TOLERANCE = 0.01


def counted_recovery():
    """Python calls per call in each window — warm-up, steady, kill,
    recovered, in order — and the ORB's stats after the run."""
    idl = compile_idl(IDL, module_name="failover_count_idl")

    class Echo(idl.groupecho_skel):
        def roundtrip(self, data):
            return data

    counts = Counter()
    window = [None]

    def profile(frame, event, arg):
        if event == "call" and window[0] is not None:
            counts[window[0], threading.get_ident()] += 1

    # Installed before the ORB exists: the threads it starts inherit it
    # (``setprofile_all_threads`` is 3.12-only); this thread's is set
    # around the windows.
    threading.setprofile(profile)
    try:
        with ORB("failover-count", timeout=TIMEOUT_S, sanitize=False) as orb:
            group = orb.serve_replicated(
                "groupecho",
                lambda ctx: Echo(),
                replicas=REPLICAS,
                nthreads=1,
                reply_cache_bytes=REPLY_CACHE_BYTES,
            )
            runtime = orb.client_runtime(label="failover-count")
            proxy = idl.groupecho._group_bind(
                "groupecho", runtime, ft_policy=POLICY
            )
            data = idl.payload.from_global(PAYLOAD)
            kill = 1 + COUNTED
            sys.setprofile(profile)
            for w in range(2 * COUNTED + 2):
                window[0] = w
                futures = [proxy.roundtrip_nb(data) for _ in range(REQUESTS)]
                if w == kill:
                    group.kill(proxy._group.current_replica())
                for future in futures:
                    assert future.value(timeout=60.0).length() == len(PAYLOAD)
                window[0] = None
            sys.setprofile(None)
            stats = orb.stats()
            runtime.close()
            group.shutdown()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    per_window = Counter()
    for (w, _ident), n in counts.items():
        per_window[w] += n / REQUESTS
    return [per_window[w] for w in range(2 * COUNTED + 2)], stats


def test_the_sibling_serves_at_the_steady_state_cost_after_a_failover():
    windows, stats = counted_recovery()
    steady = windows[1:1 + COUNTED]
    recovered = windows[2 + COUNTED:]
    before = sum(steady) / COUNTED
    after = sum(recovered) / COUNTED
    detail = ", ".join(f"{n:.1f}" for n in windows)
    assert stats["ft"]["failovers"] == 1, stats["ft"]
    # Each call the kill interrupted spent its retries, no more.
    assert stats["ft"]["retries_exhausted"] >= 1, stats["ft"]
    assert stats["ft"]["retries"] == (
        POLICY.max_retries * stats["ft"]["retries_exhausted"]
    ), stats["ft"]
    assert abs(after / before - 1) <= TOLERANCE, (
        f"{after:.1f} calls per call after the failover, {before:.1f} "
        f"before it (windows: {detail})"
    )
