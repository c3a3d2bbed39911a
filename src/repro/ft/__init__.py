"""Fault tolerance for SPMD invocations.

PARDIS invocations are *collective*: every computing thread of an SPMD
client participates in a request (§2.1), so a lost frame or a hung
server rank must never strand one rank in ``wait()`` while its peers
move on — the group would silently diverge on the collective sequence.
This subsystem adds the robustness layer around that constraint:

- :mod:`repro.ft.policy` — per-proxy/per-ORB QoS policies
  (:class:`FtPolicy`: deadlines, bounded retries with deterministic
  backoff) and the exceptions they raise.
- :mod:`repro.ft.agreement` — the collective failure vote: a failure
  observed by *any* rank is resolved over the RTS so all ranks raise
  the identical exception at the identical collective index.
- :mod:`repro.ft.dedup` — the server-side reply cache making retries
  safe: a retried request whose reply was lost is answered from the
  cache instead of re-executed.
- :mod:`repro.ft.faults` — the fault-injection fabric wrapper
  (seeded drop / delay / duplicate / truncate / disconnect schedules)
  that exercises all of the above in tests and benchmarks.

See ``docs/robustness.md`` for the protocol description and the
fault-injection cookbook.
"""

from repro.ft.agreement import agree, agree_failure
from repro.ft.dedup import ReplyCache
from repro.ft.faults import FaultSchedule, FaultyFabric
from repro.ft.policy import (
    DeadlineExceeded,
    Failure,
    FtPolicy,
    InvocationRetriesExhausted,
)

#: Alias matching the CORBA-ish "transport" spelling used in the
#: paper-adjacent literature; the wrapper wraps fabrics either way.
FaultyTransport = FaultyFabric

__all__ = [
    "DeadlineExceeded",
    "Failure",
    "FaultSchedule",
    "FaultyFabric",
    "FaultyTransport",
    "FtPolicy",
    "InvocationRetriesExhausted",
    "ReplyCache",
    "agree",
    "agree_failure",
]
