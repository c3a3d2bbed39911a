"""Fault tolerance under injected frame loss (repro.ft).

A client invokes an echo servant through a :class:`FaultyFabric` that
drops frames from a seeded, deterministic schedule.  Two policies face
the same loss:

- a retrying :class:`FtPolicy` — every invocation completes, the
  server's reply cache answering retried requests whose reply was the
  lost frame (so the servant never re-executes);
- retries disabled — the first lost frame surfaces as an error
  instead of hanging the client: :class:`DeadlineExceeded` when the
  loss shows up as a client-side timeout (lost reply),
  :class:`InvocationRetriesExhausted` when the server saw the loss
  first and answered with a COMM_FAILURE (lost data chunk).

``orb.stats()`` shows the whole story afterwards: frames the schedule
dropped, retries the policy spent, replays the server's cache served.

Run:  python examples/faulty_client.py
"""

import numpy as np

from repro import (
    ORB,
    DeadlineExceeded,
    FaultSchedule,
    FaultyFabric,
    FtPolicy,
    InvocationRetriesExhausted,
    compile_idl,
)
from repro.orb.transport import Fabric

IDL = """
typedef dsequence<double, 65536> payload;

interface echo {
    payload roundtrip(in payload data);
};
"""

idl = compile_idl(IDL, module_name="faulty_idl")

#: One frame in twenty lost, deterministically (same seed, same run).
LOSS = FaultSchedule(seed=11, drop=0.05)

REQUESTS = 40
N = 4096


class EchoServant(idl.echo_skel):
    def __init__(self):
        self.executions = 0

    def roundtrip(self, data):
        self.executions += 1
        return data


def retrying_run(orb):
    """Every invocation survives the loss; returns the retry count."""
    policy = FtPolicy(
        max_retries=8, backoff_base_ms=5.0, backoff_cap_ms=50.0
    )
    runtime = orb.client_runtime(label="retrying", ft_policy=policy)
    try:
        proxy = idl.echo._bind("echo", runtime)
        data = idl.payload.from_global(np.arange(N, dtype=np.float64))
        for i in range(REQUESTS):
            result = proxy.roundtrip(data)
            assert result.length() == N, f"request {i} came back short"
        return orb.stats()["ft"]["retries"]
    finally:
        runtime.close()


def fragile_run(orb):
    """Retries off: the same loss becomes a prompt error.  Which
    error depends on where the frame was lost — a lost reply times
    the client out (DeadlineExceeded), a lost data chunk makes the
    server answer COMM_FAILURE (InvocationRetriesExhausted, zero
    retries allowed)."""
    policy = FtPolicy(deadline_ms=250.0, max_retries=0)
    runtime = orb.client_runtime(label="fragile", ft_policy=policy)
    try:
        proxy = idl.echo._bind("echo", runtime)
        data = idl.payload.from_global(np.arange(N, dtype=np.float64))
        for i in range(REQUESTS):
            try:
                proxy.roundtrip(data)
            except (DeadlineExceeded, InvocationRetriesExhausted) as exc:
                return i, exc
        raise AssertionError("the seeded schedule dropped nothing")
    finally:
        runtime.close()


def main():
    faulty = FaultyFabric(Fabric("faulty-demo"), LOSS)
    with ORB("faulty-demo", fabric=faulty, timeout=0.25) as orb:
        orb.serve(
            "echo",
            lambda ctx: EchoServant(),
            nthreads=1,
            reply_cache_bytes=4 << 20,
        )
        retries = retrying_run(orb)
        print(f"retrying client: {REQUESTS}/{REQUESTS} completed "
              f"({retries} retries)")
        index, exc = fragile_run(orb)
        print(f"fragile client: invocation #{index} raised "
              f"{type(exc).__name__}")
        stats = orb.stats()
        print(f"injected drops: {stats['fabric']['faults']['drop']}, "
              f"cache replays: "
              f"{stats['reply_caches']['echo']['replays']}")
    print("OK")


if __name__ == "__main__":
    main()
