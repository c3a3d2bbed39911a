"""The generic run-time-system interface of paper §2.3.

"In order to provide support for interaction with SPMD objects and
distributed sequences, PARDIS may need to issue calls to the run-time
system underlying a parallel application.  A generic run-time system
interface has therefore been built into PARDIS libraries and may also
be used by the compiler-generated stubs."

:class:`RuntimeSystem` is that interface: the small set of operations
the ORB and generated stubs need from whatever parallel package the
application is built on.  It is written once, over the communicator
and its kernel.  The control plane — identity, barrier, broadcast,
allgather — is the communicator's; the data plane, ``gather_chunks``
and ``scatter_chunks``, has one shape on both kernels: the root
exposes a buffer (the kernel's ``expose``) and every rank copies its
own pieces.  Thread ranks are handed the root's array itself (the
paper's interface was "tested using applications based on MPI and the
Tulip run-time system"; ranks that share a heap need no messages to
move a chunk); process ranks map a pooled shared-memory segment
(:mod:`repro.rts.procs`).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.cdr.accounting import copied
from repro.dist.schedule import TransferStep, tiling_fault
from repro.rts.mpi import Intracomm


class RuntimeSystem:
    """What PARDIS needs from the application's run-time system — the
    reproduction of the paper's MPI-backed RTS interface, through which
    the centralized transfer method's gathers and scatters run, on
    thread and process ranks alike.

    A gather writes each rank's steps straight into the buffer the root
    exposed, then meets the group at a barrier; a scatter reads each
    block straight out of the root's exposed ``full`` and leaves
    without one.  Every byte is copied once, and each copy is reported
    to the copy account — except by a scatter called without ``out``
    whose source the rank may own (:func:`adoptable`): its block is
    then a view of ``full``, disjoint from every other rank's.  That is
    the case on every thread rank and on a process root; a process
    peer's view of the root's segment is read-only, so it copies.
    """

    def __init__(self, comm: Intracomm) -> None:
        self._comm = comm
        self._kernel = comm._kernel

    @property
    def comm(self) -> Intracomm:
        """The application's communicator."""
        return self._comm

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
        assembled array: ``out`` itself when provided, else memory the
        kernel picks (on process ranks, a leased view of the segment
        the ranks wrote).  ``local`` may be changed again once the call
        returns.
        """
        me = self.rank
        landing = out
        if me == root and out is None:
            landing = gather_target(steps, local.dtype)
        target = self._kernel.expose(f"rts-gather@{root}", landing, root, True)
        moved = 0
        for step in steps:
            if step.src_rank == me:
                target[step.global_lo : step.global_hi] = local[step.src_slice]
                moved += step.nelems
        copied(moved * local.itemsize)
        self._comm.barrier()
        if me != root:
            return None
        if out is None or target is out:
            return target
        # The ranks assembled in a buffer the kernel exposed for out.
        total = steps[-1].global_hi if steps else 0
        out[:total] = target[:total]
        copied(total * out.itemsize)
        return out

    def scatter_chunks(
        self,
        full: np.ndarray | None,
        steps: list[TransferStep],
        root: int,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """This rank's block of ``root``'s assembled ``full``,
        following a single-source schedule: landed in ``out`` when
        provided, else in memory the RTS picks.  The root hands
        ``full`` over read-only: it may not change until the group's
        next collective."""
        source = self._kernel.expose(f"rts-scatter@{root}", full, root, False)
        mine = [s for s in steps if s.dst_rank == self.rank]
        if out is None and len(mine) == 1 and adoptable(source):
            return source[mine[0].global_lo : mine[0].global_hi]
        block = land_block(source, mine, out)
        copied(block.nbytes)
        return block


def gather_target(steps: list[TransferStep], dtype: Any) -> np.ndarray:
    """The landing array of a gather root that was handed none —
    uninitialised, which is sound because the steps of a gather
    schedule tile ``[0, total)``: every element gets written."""
    total = steps[-1].global_hi if steps else 0
    fault = tiling_fault([(s.global_lo, s.global_hi) for s in steps], 0, total)
    assert fault is None, fault
    return np.empty(total, dtype=dtype)


def land_block(
    source: np.ndarray, mine: list[TransferStep], out: np.ndarray | None
) -> np.ndarray:
    """Copy a rank's scatter steps ``mine`` out of the root's assembled
    ``source`` into ``out`` — uninitialised when allocated here, which
    is sound because a rank's steps tile its block."""
    if out is None:
        out = np.empty(sum(s.nelems for s in mine), dtype=source.dtype)
    for step in mine:
        out[step.dst_slice] = source[step.global_lo : step.global_hi]
    return out


def adoptable(block: np.ndarray) -> bool:
    """May ``block``, decoded off the wire, *be* a rank's block, in
    place?  Yes when it is writable — which only an owned receive
    buffer (or a private byteswapped copy) decodes to, see
    :class:`~repro.cdr.decoder.CdrDecoder` — and aligned."""
    return block.flags.writeable and block.flags.aligned
