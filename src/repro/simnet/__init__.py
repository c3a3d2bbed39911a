"""A discrete-event simulator of the paper's testbed (performance plane).

The functional plane (``repro.orb``) proves the protocols correct;
this package reproduces their *performance* on the paper's hardware —
a 4-processor SGI Onyx R4400 client and a 10-processor SGI Power
Challenge R8000 server joined by one dedicated ATM link (§3.1) — which
no longer exists.  The simulator executes the same transfer schedules
as the real engines (both planes call
:func:`repro.dist.transfer_schedule`), timing them against three
models:

- a **processor-sharing link** (:mod:`network`): concurrent transfers
  share the raw bandwidth fairly, which is how the multi-port method's
  interleaved sends keep the wire busy while any one pair is stalled;
- an **OS scheduler-interference model** (:mod:`machine`): each
  synchronous segment rendezvous stalls for a scheduling delay that
  grows with the number of computing threads on a machine — the
  paper's explanation for the centralized method slowing down as
  resources are *added*;
- **per-machine CPU cost models** (:mod:`machine`): marshaling,
  unmarshaling and shared-memory gather/scatter rates.

:mod:`calibration` holds the constants fitted to the paper's reported
numbers.  :mod:`invocation` writes each transfer method's client,
server and reply stages once and runs them for a burst of clients
against one object: a burst of one gives the component breakdown the
paper's tables report (:func:`simulate_centralized`,
:func:`simulate_multiport`), a burst of k the contention between
invoking clients that motivates §3.3's separate header
(:func:`simulate_concurrent`).
"""

from repro.simnet.engine import (
    AllOf,
    Event,
    Gate,
    Process,
    SimulationError,
    Simulator,
)
from repro.simnet.network import SharedLink
from repro.simnet.machine import MachineModel
from repro.simnet.calibration import SimConfig, paper_testbed
from repro.simnet.invocation import (
    CentralizedBreakdown,
    ConcurrentBreakdown,
    MultiPortBreakdown,
    simulate_centralized,
    simulate_concurrent,
    simulate_multiport,
)

__all__ = [
    "AllOf",
    "CentralizedBreakdown",
    "ConcurrentBreakdown",
    "Event",
    "Gate",
    "MachineModel",
    "MultiPortBreakdown",
    "Process",
    "SharedLink",
    "SimConfig",
    "SimulationError",
    "Simulator",
    "paper_testbed",
    "simulate_centralized",
    "simulate_concurrent",
    "simulate_multiport",
]
