"""The generic run-time-system interface of paper §2.3.

"In order to provide support for interaction with SPMD objects and
distributed sequences, PARDIS may need to issue calls to the run-time
system underlying a parallel application.  A generic run-time system
interface has therefore been built into PARDIS libraries and may also
be used by the compiler-generated stubs."

:class:`RuntimeSystem` is that interface: the small set of operations
the ORB and generated stubs need from whatever parallel package the
application is built on.  The control plane — identity, barrier,
broadcast, allgather — is the communicator's and is written here once;
a realization supplies the data plane, ``gather_chunks`` and
``scatter_chunks``.  :class:`MessagePassingRTS` moves the chunks by
send and receive (the paper's only specified interface, "tested using
applications based on MPI and the Tulip run-time system");
:mod:`repro.rts.onesided` adds the one-sided realization the paper
lists as future work, :mod:`repro.rts.procs` the shared-memory one.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any

import numpy as np

from repro.dist.schedule import TransferStep, tiling_fault
from repro.rts.mpi import Intracomm

#: Tag namespace for RTS-internal traffic performed on behalf of the
#: ORB (gathers/scatters of distributed arguments).
_TAG_RTS = 1 << 21


class RuntimeSystem(ABC):
    """What PARDIS needs from the application's run-time system."""

    def __init__(self, comm: Intracomm) -> None:
        self._comm = comm

    @property
    def comm(self) -> Intracomm:
        """The application's communicator."""
        return self._comm

    @property
    def backend(self) -> str:
        """Which execution substrate carries this RTS's ranks
        (``"thread"`` or ``"process"``)."""
        return self._comm.backend

    @property
    def rank(self) -> int:
        """This computing thread's rank within the application."""
        return self._comm.rank

    @property
    def size(self) -> int:
        """Number of computing threads of the application."""
        return self._comm.size

    def synchronize(self) -> None:
        """Group-wide barrier (pre/post-invocation synchronization)."""
        self._comm.barrier()

    def broadcast(self, obj: Any, root: int) -> Any:
        """Deliver ``obj`` from ``root`` to every computing thread."""
        return self._comm.bcast(obj, root=root)

    def allgather(self, obj: Any) -> list[Any]:
        """Every thread's ``obj``, by rank, on every thread.  The
        fault-tolerance agreement protocol votes through this call."""
        return self._comm.allgather(obj)

    @abstractmethod
    def gather_chunks(
        self,
        local: np.ndarray,
        steps: list[TransferStep],
        root: int,
        out: np.ndarray | None,
    ) -> np.ndarray | None:
        """Gather distributed-argument chunks onto ``root``.

        ``steps`` is a transfer schedule whose destination is a
        single-rank layout; each source rank contributes the pieces of
        ``local`` the schedule assigns it.  Only ``root`` receives the
        assembled array (into ``out`` when provided).
        """

    @abstractmethod
    def scatter_chunks(
        self,
        full: np.ndarray | None,
        steps: list[TransferStep],
        root: int,
        out: np.ndarray,
    ) -> None:
        """Scatter from an assembled array on ``root`` into per-rank
        ``out`` blocks, following a single-source schedule."""


def gather_target(steps: list[TransferStep], dtype: Any) -> np.ndarray:
    """The landing array of a gather root that was handed none —
    uninitialised, which is sound because the steps of a gather
    schedule tile ``[0, total)``: every element gets written."""
    total = steps[-1].global_hi if steps else 0
    fault = tiling_fault([(s.global_lo, s.global_hi) for s in steps], 0, total)
    assert fault is None, fault
    return np.empty(total, dtype=dtype)


class MessagePassingRTS(RuntimeSystem):
    """Message-passing realization over :class:`Intracomm`.

    This is the reproduction of the paper's MPI-backed RTS interface:
    the centralized transfer method's gathers and scatters run through
    these calls, exactly as the paper's communicating thread drives
    MPICH.
    """

    def gather_chunks(
        self,
        local: np.ndarray,
        steps: list[TransferStep],
        root: int,
        out: np.ndarray | None,
    ) -> np.ndarray | None:
        me = self.rank
        mine = [s for s in steps if s.src_rank == me]
        if me == root:
            if out is None:
                out = gather_target(steps, local.dtype)
            for step in mine:
                out[step.global_lo : step.global_hi] = local[step.src_slice]
            pending = sorted(
                (s for s in steps if s.src_rank != me),
                key=lambda s: s.src_rank,
            )
            for step in pending:
                chunk = self._comm.recv(source=step.src_rank, tag=_TAG_RTS)
                out[step.global_lo : step.global_hi] = chunk
            return out
        for step in mine:
            self._comm.send(local[step.src_slice], dest=root, tag=_TAG_RTS)
        return None

    def scatter_chunks(
        self,
        full: np.ndarray | None,
        steps: list[TransferStep],
        root: int,
        out: np.ndarray,
    ) -> None:
        me = self.rank
        if me == root:
            assert full is not None
            for step in steps:
                chunk = full[step.global_lo : step.global_hi]
                if step.dst_rank == me:
                    out[step.dst_slice] = chunk
                else:
                    self._comm.send(chunk, dest=step.dst_rank, tag=_TAG_RTS)
            return
        mine = sorted(
            (s for s in steps if s.dst_rank == me),
            key=lambda s: s.global_lo,
        )
        for step in mine:
            chunk = self._comm.recv(source=root, tag=_TAG_RTS)
            out[step.dst_slice] = chunk
