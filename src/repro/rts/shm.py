"""Pooled, refcounted shared-memory segments for the process backend.

The process RTS moves every large payload through POSIX shared memory
(``multiprocessing.shared_memory``) instead of pickling it across a
pipe: the producing rank writes straight into a segment, consumers map
the same physical pages, and only a tiny descriptor (name, dtype,
shape) crosses the control plane.

Hygiene is the hard part, and it is handled on three levels:

1. **Tracker opt-out.**  CPython's ``resource_tracker`` registers every
   ``SharedMemory`` *attach* as an owned segment, which makes it warn
   about — and unlink — segments that a sibling process still uses.
   Every create/attach here is immediately unregistered
   (:func:`untrack`); PARDIS manages segment lifetime itself.
2. **Pooling + refcounts.**  Segments come from a per-process
   :class:`ShmPool` keyed by size class.  A zero-copy array returned to
   the application holds a :class:`SegmentLease`; the segment returns
   to the free list only when the last lease dies, so reuse can never
   overwrite live data.
3. **Supervisor sweep.**  Ranks report every name they create to the
   parent process *before* first use and report unlinks back
   (:mod:`repro.rts.procs`).  When the group ends — normally, by
   abort, or because a rank was SIGKILLed mid-operation — the parent
   unlinks every name still registered.  No ``/dev/shm`` entry
   outlives the group.

All segment names carry :data:`NAME_PREFIX`, so tests can assert that
``/dev/shm`` holds no PARDIS segments after a suite run.
"""

from __future__ import annotations

import itertools
import os
import threading
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Callable, Sequence

import numpy as np

#: Every PARDIS segment name starts with this (followed by the
#: creating pid and a counter), so leak checks can filter /dev/shm.
NAME_PREFIX = "pardis_shm"

#: Payloads at or above this many bytes ride in shared memory; smaller
#: ones are cheaper to pickle straight through the pipe.
SHM_THRESHOLD = 32 * 1024

_counter = itertools.count()

#: Process-wide pool accounting, including pools that were already
#: closed and stats merged back from joined child ranks, so
#: ``orb.stats()["rts"]["shm"]`` in a parent reflects the whole run.
_stats_lock = threading.Lock()
_retired_stats = {"allocated": 0, "reused": 0, "freed": 0}
_live_pools: list["ShmPool"] = []


def untrack(seg: shared_memory.SharedMemory) -> None:
    """Remove ``seg`` from the resource tracker's ledger.

    Attaching registers the segment as if this process owned it; left
    in place, a child's exit would unlink segments the group still
    uses and the interpreter would warn about "leaked" objects that
    are in fact owned elsewhere.  Lifetime is managed by the pool and
    the supervisor sweep instead.
    """
    try:
        resource_tracker.unregister(seg._name, "shared_memory")
    except Exception:
        pass


def create_segment(nbytes: int) -> shared_memory.SharedMemory:
    """Create a fresh, untracked segment with a PARDIS name."""
    while True:
        name = f"{NAME_PREFIX}_{os.getpid()}_{next(_counter):x}"
        try:
            seg = shared_memory.SharedMemory(
                name=name, create=True, size=max(nbytes, 1)
            )
        except FileExistsError:
            # A stale segment from a recycled pid; claim the next name.
            continue
        untrack(seg)
        return seg


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without claiming ownership."""
    seg = shared_memory.SharedMemory(name=name)
    untrack(seg)
    return seg


def unlink_segment(seg: shared_memory.SharedMemory) -> None:
    """Unlink an *untracked* segment, keeping the tracker balanced.

    ``SharedMemory.unlink`` unregisters from the resource tracker as a
    side effect; since every segment here was untracked at creation,
    re-register first so the tracker's ledger never goes negative (a
    stray unregister makes the tracker process log ``KeyError``).
    """
    try:
        resource_tracker.register(seg._name, "shared_memory")
    except Exception:
        pass
    try:
        seg.unlink()
    except FileNotFoundError:
        # shm_unlink failed before the stdlib's unregister ran.
        untrack(seg)


def unlink_quietly(name: str) -> bool:
    """Unlink ``name`` if it still exists; True when removed."""
    try:
        seg = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    untrack(seg)
    unlink_segment(seg)
    close_quietly(seg)
    return True


def close_quietly(seg: shared_memory.SharedMemory) -> None:
    """Unmap ``seg`` unless a buffer export still pins the mapping."""
    try:
        seg.close()
    except BufferError:
        # A view is still exported; the mapping dies with the process.
        pass


def leaked_segments(prefixes: tuple[str, ...] = (NAME_PREFIX, "psm_")) -> list[str]:
    """Names under ``/dev/shm`` matching ``prefixes`` (Linux only)."""
    try:
        entries = os.listdir("/dev/shm")
    except FileNotFoundError:
        return []
    return sorted(
        e for e in entries if any(e.startswith(p) for p in prefixes)
    )


class SegmentLease:
    """Keeps one pooled segment checked out while references exist.

    NumPy views handed to the application carry the lease on a
    subclass attribute; when the last view is collected the lease's
    finalizer returns the segment to its pool for reuse.
    """

    __slots__ = ("_release", "_done")

    def __init__(self, release: Callable[[], None]) -> None:
        self._release = release
        self._done = False

    def release(self) -> None:
        if not self._done:
            self._done = True
            self._release()

    def __del__(self) -> None:  # pragma: no cover - GC timing
        self.release()


class ShmArray(np.ndarray):
    """An ndarray whose storage is a leased shm segment.

    Behaves exactly like ``ndarray``; the extra ``_pardis_lease``
    attribute pins the segment until the last view dies.  Pickling
    (e.g. returning one from a process-backend rank body) copies the
    data and drops the lease, as it must.
    """

    _pardis_lease: Any = None


def leased_view(arr: np.ndarray, lease: SegmentLease) -> ShmArray:
    """Return ``arr`` as a view that keeps ``lease`` alive."""
    view = arr.view(ShmArray)
    view._pardis_lease = lease
    return view


def _size_class(nbytes: int) -> int:
    """Round a request up to a power-of-two class (min 4 KiB)."""
    size = 4096
    while size < nbytes:
        size <<= 1
    return size


class ShmPool:
    """A per-process pool of reusable shared-memory segments.

    ``on_register(name)`` / ``on_unregister(name)`` hook the parent
    supervisor's registry: every created name is announced *before*
    the segment is first used and withdrawn when actually unlinked,
    so a SIGKILL at any instant leaves the parent able to sweep.
    """

    def __init__(
        self,
        on_register: Callable[[str], None] | None = None,
        on_unregister: Callable[[str], None] | None = None,
    ) -> None:
        self._lock = threading.Lock()
        self._free: dict[int, list[shared_memory.SharedMemory]] = {}
        self._owned: dict[str, shared_memory.SharedMemory] = {}
        self._on_register = on_register
        self._on_unregister = on_unregister
        self._closed = False
        self.allocated = 0
        self.reused = 0
        self.freed = 0
        with _stats_lock:
            _live_pools.append(self)

    # -- checkout / return -------------------------------------------------

    def acquire(self, nbytes: int) -> shared_memory.SharedMemory:
        """A segment of at least ``nbytes``; reused when possible."""
        size = _size_class(nbytes)
        with self._lock:
            bucket = self._free.get(size)
            if bucket:
                self.reused += 1
                return bucket.pop()
        if self._on_register is not None:
            # Announce the name *before* creation: if this rank dies
            # between the two steps the sweep's unlink is a no-op.
            name = f"{NAME_PREFIX}_{os.getpid()}_{next(_counter):x}"
            self._on_register(name)
            try:
                seg = shared_memory.SharedMemory(
                    name=name, create=True, size=max(size, 1)
                )
            except FileExistsError:
                seg = create_segment(size)
                self._on_register(seg.name)
            else:
                untrack(seg)
        else:
            seg = create_segment(size)
        with self._lock:
            self._owned[seg.name] = seg
            self.allocated += 1
        return seg

    def release(self, seg: shared_memory.SharedMemory) -> None:
        """Return a segment to the free list (or unlink if closed)."""
        with self._lock:
            if not self._closed and seg.name in self._owned:
                self._free.setdefault(seg.size, []).append(seg)
                return
        self._unlink(seg)

    def lease(self, seg: shared_memory.SharedMemory) -> SegmentLease:
        return SegmentLease(lambda: self.release(seg))

    # -- lifecycle ---------------------------------------------------------

    def _unlink(
        self, seg: shared_memory.SharedMemory, unmap: bool = True
    ) -> None:
        name = seg.name
        unlink_segment(seg)
        if unmap:
            close_quietly(seg)
        with self._lock:
            self._owned.pop(name, None)
            self.freed += 1
        if self._on_unregister is not None:
            self._on_unregister(name)

    def close(self, keep: Sequence[Any] = ()) -> None:
        """Unlink every owned segment (leased ones included) but those
        in ``keep``, which stay registered for the supervisor's sweep.

        Called at rank shutdown; outstanding zero-copy views keep
        their mapping (the pages survive until the process exits) but
        the names disappear from ``/dev/shm`` immediately.  (A NumPy
        view holds no buffer export on the mapping, so a checked-out
        segment is never unmapped here: a leased gather result
        returned from a rank body is read after this, when pickled.)
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            owned = [s for s in self._owned.values() if s not in keep]
            free = {id(seg) for bucket in self._free.values() for seg in bucket}
            self._free.clear()
        for seg in owned:
            self._unlink(seg, unmap=id(seg) in free)
        with _stats_lock:
            if self in _live_pools:
                _live_pools.remove(self)
            _retired_stats["allocated"] += self.allocated
            _retired_stats["reused"] += self.reused
            _retired_stats["freed"] += self.freed

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "allocated": self.allocated,
                "reused": self.reused,
                "freed": self.freed,
                "active": len(self._owned),
            }


def merge_retired_stats(stats: dict[str, int]) -> None:
    """Fold a joined child rank's pool counters into this process."""
    with _stats_lock:
        for key in ("allocated", "reused", "freed"):
            _retired_stats[key] += int(stats.get(key, 0))


def pool_stats() -> dict[str, int]:
    """Process-wide segment accounting (live pools + retired)."""
    with _stats_lock:
        totals = dict(_retired_stats)
        totals["active"] = 0
        pools = list(_live_pools)
    for pool in pools:
        snap = pool.stats()
        for key in ("allocated", "reused", "freed", "active"):
            totals[key] += snap[key]
    return totals
