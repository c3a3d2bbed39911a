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
  stubs program against, written once over either kernel: the root
  exposes a buffer and every rank copies its own pieces, or every
  rank lends the root its pieces in place.
- :mod:`repro.rts.backends` — backend selection (``PARDIS_RTS``) and
  per-rank execution-context tracking.
- :mod:`repro.rts.procs` — the true-parallel backend: the process
  kernel (ranks as forked processes over a pipe mesh), large payloads
  and exposed or lent RTS buffers through pooled shared-memory
  segments.
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
from repro.rts.interface import RuntimeSystem
from repro.rts.procs import (
    ProcHandle,
    process_backend_supported,
    spawn_process_group,
)

#: The RTS's name before it was written once over both kernels; kept
#: because ``bench/layers.py`` builds it.
MessagePassingRTS = RuntimeSystem


def rts_for(comm) -> RuntimeSystem:
    """The :class:`RuntimeSystem` over ``comm``, on thread or process
    ranks alike: its data plane goes through the kernel's ``expose``
    and ``lend`` (the arrays themselves between threads, pooled
    shared-memory segments between processes).  ``ctx.rts`` and
    ``runtime.rts`` are plain attributes the ORB fills with it, so a
    caller may wrap it.
    """
    return RuntimeSystem(comm)


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
    "PROD",
    "ProcHandle",
    "RankContext",
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
