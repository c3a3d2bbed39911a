"""The PARDIS run-time-system (RTS) interface and its implementation.

Paper §2.3: "A generic run-time system interface has therefore been
built into PARDIS libraries and may also be used by the
compiler-generated stubs.  To date only one run-time system interface
has been specified; it encompasses the functionality of
message-passing libraries."

This subpackage provides:

- :mod:`repro.rts.mpi` — the message-passing library with the mpi4py
  surface (lowercase pickling methods and uppercase buffer methods,
  tag matching, full collective set): one ``Intracomm``, written
  against a small kernel, and the thread kernel.  It plays the role
  MPICH played in the paper's testbed.
- :mod:`repro.rts.executor` — SPMD execution: run a function over
  ``n`` ranks, one thread per rank, fork-join or detached.
- :mod:`repro.rts.futures` — ABC++-style futures returned by the
  non-blocking stub methods.
- :mod:`repro.rts.interface` — the RTS interface the ORB and generated
  stubs program against, and its message-passing realization.
- :mod:`repro.rts.onesided` — the one-sided (put/get window) RTS
  interface the paper lists as future work.
- :mod:`repro.rts.backends` — backend selection (``PARDIS_RTS``) and
  per-rank execution-context tracking.
- :mod:`repro.rts.procs` — the true-parallel backend: the process
  kernel (ranks as forked processes over a pipe mesh), large payloads
  through pooled shared-memory segments.
- :mod:`repro.rts.shm` — the pooled, refcounted shared-memory
  segments underneath the process backend's data plane.
"""

from repro.rts import backends
from repro.rts.mpi import (
    ANY_SOURCE,
    ANY_TAG,
    CollectiveMismatchError,
    DeadlockError,
    GroupAbortedError,
    Intracomm,
    MAX,
    MIN,
    PROD,
    Request,
    SUM,
    create_group,
)
from repro.rts.executor import (
    RankContext,
    SpmdExecutor,
    SpmdHandle,
    spawn_spmd,
    spmd_run,
)
from repro.rts.futures import Future, FutureError
from repro.rts.interface import MessagePassingRTS, RuntimeSystem
from repro.rts.onesided import OneSidedRTS, Window, WindowError
from repro.rts.procs import (
    ProcessRTS,
    ProcHandle,
    process_backend_supported,
    spawn_process_group,
)


def rts_for(comm) -> RuntimeSystem:
    """The :class:`RuntimeSystem` whose data plane follows ``comm``'s
    kernel: :class:`~repro.rts.procs.ProcessRTS` (shared-memory
    segments) on process ranks, :class:`MessagePassingRTS` on thread
    ranks.  Another realization of the contract — say
    :class:`OneSidedRTS` — is installed by assignment where a caller
    wants it (``ctx.rts = OneSidedRTS(ctx.comm)`` in a servant
    factory, ``runtime.rts = OneSidedRTS(runtime.orb_comm)``).
    """
    if comm.backend == backends.PROCESS:
        return ProcessRTS(comm)
    return MessagePassingRTS(comm)


__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "CollectiveMismatchError",
    "DeadlockError",
    "Future",
    "FutureError",
    "GroupAbortedError",
    "Intracomm",
    "MAX",
    "MIN",
    "MessagePassingRTS",
    "OneSidedRTS",
    "PROD",
    "ProcHandle",
    "ProcessRTS",
    "RankContext",
    "Window",
    "WindowError",
    "Request",
    "RuntimeSystem",
    "SUM",
    "SpmdExecutor",
    "SpmdHandle",
    "backends",
    "create_group",
    "process_backend_supported",
    "rts_for",
    "spawn_process_group",
    "spawn_spmd",
    "spmd_run",
]
