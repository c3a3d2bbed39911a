"""One-sided RTS interface — the paper's planned second interface.

§2.3: "In the future PARDIS will provide an alternative run-time
system interface capturing the functionality of the more flexible
one-sided run-time systems", and §2.2 notes that SPMD-style collective
sequence access exists only because message-passing systems "cannot
handle asynchronous access to an arbitrary context".

This module supplies that alternative: :class:`Window` exposes a
rank's memory for remote ``put``/``get``/``accumulate`` without the
owner's participation (MPI-2 RMA semantics with passive-target
locking), and :class:`OneSidedRTS` realizes the
:class:`~repro.rts.interface.RuntimeSystem` contract over windows, so
the ORB's gathers and scatters can run one-sided.  On top of it,
distributed sequences gain truly asynchronous element access
(:func:`remote_element`), lifting the collective-access restriction.
"""

from __future__ import annotations

import threading
from typing import Any

import numpy as np

from repro.dist.schedule import TransferStep
from repro.rts.interface import RuntimeSystem, gather_target
from repro.rts.mpi import Intracomm


class WindowError(RuntimeError):
    """Out-of-range access or misuse of a window."""


class _WindowState:
    """Group-shared state: every rank's exposed buffer and lock."""

    def __init__(self, size: int) -> None:
        self.buffers: list[np.ndarray | None] = [None] * size
        self.locks = [threading.RLock() for _ in range(size)]
        self.attached = threading.Barrier(size)


class Window:
    """A per-rank handle onto group-wide exposed memory.

    Creation is collective (:meth:`create`); afterwards any rank may
    ``put``/``get``/``accumulate`` against any target rank without
    that rank's involvement — the defining one-sided property.  Each
    access takes the target's lock (passive-target exclusive lock), so
    concurrent accesses to one target serialize.
    """

    def __init__(
        self, state: _WindowState, rank: int, comm: Intracomm
    ) -> None:
        self._state = state
        self._rank = rank
        self._comm = comm

    @classmethod
    def create(cls, comm: Intracomm, local: np.ndarray) -> "Window":
        """Collective.  Expose ``local`` (aliased, not copied) to the
        group."""
        local = np.asarray(local)
        if local.ndim != 1:
            raise WindowError("windows expose one-dimensional buffers")
        # Rank 0 allocates the shared state; every rank must hold that
        # very object, which is what the thread kernel's share is for.
        state = _WindowState(comm.size) if comm.rank == 0 else None
        shared: _WindowState = comm._kernel.share("window-create", state)
        shared.buffers[comm.rank] = local
        shared.attached.wait()
        return cls(shared, comm.rank, comm)

    # -- introspection ---------------------------------------------------

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self._comm.size

    def local(self) -> np.ndarray:
        buffer = self._state.buffers[self._rank]
        assert buffer is not None
        return buffer

    def _target(self, rank: int) -> np.ndarray:
        if not 0 <= rank < self.size:
            raise WindowError(f"target rank {rank} outside group")
        buffer = self._state.buffers[rank]
        if buffer is None:
            raise WindowError(f"rank {rank} has no attached buffer")
        return buffer

    def _check_range(
        self, buffer: np.ndarray, offset: int, count: int
    ) -> None:
        if offset < 0 or count < 0 or offset + count > len(buffer):
            raise WindowError(
                f"access [{offset}, {offset + count}) outside window "
                f"of {len(buffer)} elements"
            )

    # -- RMA operations ----------------------------------------------------

    def get(self, target: int, offset: int, count: int) -> np.ndarray:
        """Read ``count`` elements at ``offset`` from ``target``'s
        window; the target does not participate."""
        buffer = self._target(target)
        self._check_range(buffer, offset, count)
        with self._state.locks[target]:
            return buffer[offset : offset + count].copy()

    def put(self, target: int, offset: int, data: np.ndarray) -> None:
        """Write ``data`` into ``target``'s window at ``offset``."""
        data = np.asarray(data)
        buffer = self._target(target)
        self._check_range(buffer, offset, len(data))
        with self._state.locks[target]:
            buffer[offset : offset + len(data)] = data

    def accumulate(
        self, target: int, offset: int, data: np.ndarray
    ) -> None:
        """Atomic element-wise add into the target window (MPI_SUM)."""
        data = np.asarray(data)
        buffer = self._target(target)
        self._check_range(buffer, offset, len(data))
        with self._state.locks[target]:
            buffer[offset : offset + len(data)] += data

    def fence(self) -> None:
        """Collective.  Orders all preceding RMA against all ranks'
        subsequent local reads (MPI_Win_fence)."""
        self._comm.barrier()


class OneSidedRTS(RuntimeSystem):
    """The RuntimeSystem contract realized one-sided.

    Gather and scatter become sequences of ``get``/``put`` driven
    entirely by the root, between fences, where
    :class:`MessagePassingRTS` has every rank copy its own pieces
    through the root's exposed buffer.  The ORB can
    swap this in wherever :class:`MessagePassingRTS` is used; both are
    tested against the same contract suite.
    """

    def gather_chunks(
        self,
        local: np.ndarray,
        steps: list[TransferStep],
        root: int,
        out: np.ndarray | None,
    ) -> np.ndarray | None:
        window = Window.create(self._comm, np.ascontiguousarray(local))
        window.fence()  # all buffers attached and filled
        result: np.ndarray | None = None
        if self.rank == root:
            result = (
                out
                if out is not None
                else gather_target(steps, local.dtype)
            )
            for step in steps:
                result[step.global_lo : step.global_hi] = window.get(
                    step.src_rank, step.src_offset, step.nelems
                )
        window.fence()  # root done reading; windows may be reused
        return result

    def scatter_chunks(
        self,
        full: np.ndarray | None,
        steps: list[TransferStep],
        root: int,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        if out is None:  # only the root knows the blocks' element type
            dtype = self.broadcast(None if full is None else full.dtype, root)
            out = np.empty(sum(s.nelems for s in steps if s.dst_rank == self.rank), dtype)
        window = Window.create(self._comm, out)
        window.fence()
        if self.rank == root:
            assert full is not None
            for step in steps:
                window.put(
                    step.dst_rank,
                    step.dst_offset,
                    full[step.global_lo : step.global_hi],
                )
        window.fence()  # targets may not read `out` before this
        return out


def remote_element(seq: Any, index: int, window: Window) -> float:
    """Asynchronously read one element of a distributed sequence via a
    window over its local blocks — the access style the paper's
    collective-only mapping could not offer (§2.2)."""
    layout = seq.layout
    owner = layout.owner_of(index)
    lo, _hi = layout.local_range(owner)
    return float(window.get(owner, index - lo, 1)[0])
