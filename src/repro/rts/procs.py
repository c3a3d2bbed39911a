"""True-parallel SPMD: ranks as OS processes, shm data plane.

The thread backend (:mod:`repro.rts.mpi`) gives PARDIS concurrency but
not compute — every rank shares one GIL, so the zero-copy wire path
and pipelining scale overlap, never cores.  This module is the other
half of ROADMAP item 1: the same SPMD contract with every rank a
forked OS process, mirroring the paper's MPI-processes-on-SGI-nodes
testbed.

Three planes:

- **Control** — a full mesh of OS pipes carries tagged, pickled
  messages: :class:`_RankState` is the process kernel under the one
  communicator, :class:`repro.rts.mpi.Intracomm`.  Collectives
  rendezvous through rank 0, which detects mismatched collective
  names exactly like the thread kernel.
- **Data** — payloads at or above :data:`repro.rts.shm.SHM_THRESHOLD`
  never cross a pipe: the sender writes them into a shared-memory
  segment and ships a descriptor.  The kernel's ``expose`` goes
  further: the RTS data plane has every rank write its gather chunks
  *directly* into (or read its scatter block out of) one pooled
  segment, in parallel, with the gather root handing out a zero-copy
  leased view.
- **Supervision** — the parent keeps a registry of every segment name
  any rank announces, and sweeps (unlinks) whatever is still
  registered when the group ends, so even a SIGKILLed rank leaks
  nothing into ``/dev/shm``.

Ranks are created with the ``fork`` start method, so rank bodies may
be closures and lambdas, exactly like the thread backend; only rank
*results* (and raised exceptions) must be picklable, since they
travel back to the parent over a pipe.
"""

from __future__ import annotations

import copy
import itertools
import multiprocessing
import os
import pickle
import time
from multiprocessing import connection as mpconn
from typing import Any, Callable, Sequence

import numpy as np

from repro.cdr.accounting import copied
from repro.rts import backends, shm
from repro.rts.executor import RankContext, raise_rank_failures
from repro.rts.mpi import (
    ANY_TAG,
    DEFAULT_TIMEOUT,
    CollectiveMismatchError,
    DeadlockError,
    GroupAbortedError,
    Intracomm,
    _first_match,
    _isolate,
    _Message,
)

#: How often blocked operations re-check the abort flag (seconds).
_POLL = 0.02

#: Envelope channels: application point-to-point, collective
#: contributions (to rank 0), and collective results (from rank 0).
_CH_P2P, _CH_COLL, _CH_COLLRES = 0, 1, 2


class RankDiedError(RuntimeError):
    """A rank process exited without reporting a result."""


def process_backend_supported() -> bool:
    """Fork-based process groups need a platform with ``fork``."""
    return "fork" in multiprocessing.get_all_start_methods()


# ---------------------------------------------------------------------------
# Per-process group state
# ---------------------------------------------------------------------------


class _Pending:
    """One buffered, not-yet-matched incoming message."""

    __slots__ = ("src", "tag", "kind", "data")

    def __init__(self, src: int, tag: int, kind: str, data: Any) -> None:
        self.src = src
        self.tag = tag
        self.kind = kind
        self.data = data


class _RankState:
    """Everything one rank process knows about its group — the kernel
    under :class:`~repro.rts.mpi.Intracomm` when ranks are processes.

    It supplies the same contract as the thread kernel (``post``,
    ``take``, ``peek``, ``rendezvous``, ``fork_context``, ``expose``,
    ``abort``, ``check_alive``).  Isolation is the pipe's doing:
    whatever crosses one arrives as a private copy, so only a rank's
    deposits to itself are copied by hand.  A duplicated communicator
    is a shallow copy of this state under a fresh context id ``ctx``,
    multiplexed onto the same pipe mesh, since new pipes cannot be
    created between already-running processes.
    """

    backend = backends.PROCESS

    def __init__(
        self,
        name: str,
        rank: int,
        size: int,
        readers: dict[int, Any],
        writers: dict[int, Any],
        up: Any,
        abort_event: Any,
    ) -> None:
        self.name = name
        self.rank = rank
        self.size = size
        self.readers = readers
        self.writers = writers
        self.up = up
        self.abort_event = abort_event
        #: Context id of the communicator this state carries: 0 is the
        #: base comm; rank 0 allocates the rest, for dup.
        self.ctx = 0
        self.contexts = itertools.count(1)
        #: Buffered messages keyed by (ctx, channel), all contexts'.
        self.pending: dict[tuple[int, int], list[_Pending]] = {}
        self.pool = shm.ShmPool(
            on_register=lambda n: self._up_send(("reg", n)),
            on_unregister=lambda n: self._up_send(("unreg", n)),
        )
        self.attach_cache: dict[str, Any] = {}
        #: Segments this rank exposed read-only, by context id, back to
        #: the pool at its next collective there (see :meth:`expose`).
        self.exposed: dict[int, list[Any]] = {}
        self._closed = False

    # -- supervisor link ---------------------------------------------------

    def _up_send(self, message: tuple) -> None:
        try:
            self.up.send(message)
        except (BrokenPipeError, OSError):
            pass

    # -- payload encode / decode ------------------------------------------

    def encode(self, payload: Any) -> tuple[str, Any]:
        """Choose the wire form: inline pickle or shm descriptor."""
        if (
            isinstance(payload, np.ndarray)
            and payload.nbytes >= shm.SHM_THRESHOLD
        ):
            arr = np.ascontiguousarray(payload)
            seg = self._oneshot_segment(arr.nbytes)
            np.ndarray(arr.shape, arr.dtype, buffer=seg.buf)[...] = arr
            desc = (seg.name, arr.dtype, arr.shape)
            seg.close()
            return "nd_shm", desc
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        if len(blob) >= shm.SHM_THRESHOLD:
            seg = self._oneshot_segment(len(blob))
            seg.buf[: len(blob)] = blob
            desc = (seg.name, len(blob))
            seg.close()
            return "pickle_shm", desc
        return "inline", blob

    def _oneshot_segment(self, nbytes: int) -> Any:
        """A single-message segment; the *receiver* unlinks it."""
        name = f"{shm.NAME_PREFIX}_{os.getpid()}_p2p_{time.monotonic_ns():x}"
        self._up_send(("reg", name))
        try:
            seg = multiprocessing.shared_memory.SharedMemory(  # type: ignore[attr-defined]
                name=name, create=True, size=max(nbytes, 1)
            )
        except (FileExistsError, AttributeError):
            seg = shm.create_segment(nbytes)
            self._up_send(("reg", seg.name))
        else:
            shm.untrack(seg)
        return seg

    def decode(self, kind: str, data: Any) -> Any:
        if kind == "inline":
            return pickle.loads(data)
        if kind == "isolated":
            return data
        if kind == "nd_shm":
            name, dtype, shape = data
            seg = shm.attach_segment(name)
            arr = np.ndarray(shape, dtype, buffer=seg.buf).copy()
            self._consume_oneshot(seg, name)
            return arr
        if kind == "pickle_shm":
            name, nbytes = data
            seg = shm.attach_segment(name)
            blob = bytes(seg.buf[:nbytes])
            self._consume_oneshot(seg, name)
            return pickle.loads(blob)
        raise RuntimeError(f"unknown payload kind {kind!r}")

    def _consume_oneshot(self, seg: Any, name: str) -> None:
        shm.unlink_segment(seg)
        shm.close_quietly(seg)
        self._up_send(("unreg", name))

    # -- transport ---------------------------------------------------------

    def check_alive(self) -> None:
        if self.abort_event.is_set():
            raise GroupAbortedError(f"group '{self.name}' aborted")

    def abort(self, reason: str) -> None:
        self.abort_event.set()

    def _ship(self, dst: int, channel: int, tag: int, payload: Any) -> None:
        self.check_alive()
        if dst == self.rank:
            entry = _Pending(self.rank, tag, "isolated", _isolate(payload))
            self.pending.setdefault((self.ctx, channel), []).append(entry)
            return
        kind, data = self.encode(payload)
        try:
            self.writers[dst].send(
                (self.ctx, channel, tag, self.rank, kind, data)
            )
        except (BrokenPipeError, OSError) as exc:
            raise GroupAbortedError(
                f"group '{self.name}': rank {dst} is gone ({exc})"
            ) from None

    def drain(self, timeout: float) -> None:
        """Pull every ready incoming message into the pending queues."""
        conns = list(self.readers.values())
        if not conns:
            time.sleep(min(timeout, _POLL))
            return
        for conn in mpconn.wait(conns, timeout):
            try:
                ctx, channel, tag, src, kind, data = conn.recv()
            except (EOFError, OSError):
                for peer, reader in list(self.readers.items()):
                    if reader is conn:
                        del self.readers[peer]
                continue
            self.pending.setdefault((ctx, channel), []).append(
                _Pending(src, tag, kind, data)
            )

    def _receive(
        self, channel: int, source: int, tag: int, timeout: float
    ) -> _Message | None:
        """The first matching message of ``channel``, decoded, waiting
        up to ``timeout`` seconds for it; None when none arrived."""
        deadline = time.monotonic() + timeout
        box = self.pending.setdefault((self.ctx, channel), [])
        # The first pass only collects what already sits in the pipes.
        remaining = 0.0
        while True:
            self.check_alive()
            index = _first_match(box, source, tag)
            if index is not None:
                entry = box.pop(index)
                return _Message(
                    entry.src, entry.tag, self.decode(entry.kind, entry.data)
                )
            if remaining < 0:
                return None
            self.drain(min(_POLL, remaining))
            remaining = deadline - time.monotonic()

    def post(self, dest: int, tag: int, obj: Any) -> None:
        """Ship ``obj`` to ``dest``'s mailbox."""
        self._ship(dest, _CH_P2P, tag, obj)

    def take(self, source: int, tag: int, timeout: float) -> _Message | None:
        """Remove and return the first matching message, waiting up to
        ``timeout`` seconds for one; None when none arrived."""
        return self._receive(_CH_P2P, source, tag, timeout)

    def peek(self, source: int, tag: int) -> bool:
        """Is a matching message pending?"""
        self.check_alive()
        self.drain(0)
        box = self.pending.get((self.ctx, _CH_P2P), ())
        return _first_match(box, source, tag) is not None

    # -- rendezvous --------------------------------------------------------

    def _collect(self, channel: int, source: int, opname: str) -> Any:
        message = self._receive(channel, source, ANY_TAG, DEFAULT_TIMEOUT)
        if message is None:
            raise DeadlockError(
                f"rank {self.rank} of '{self.name}': collective "
                f"'{opname}' timed out waiting for rank {source}"
            )
        return message.payload

    def rendezvous(
        self,
        opname: str,
        contribution: Any,
        project: Callable[[int, dict[int, Any]], Any],
    ) -> Any:
        """Rendezvous through rank 0.

        Every rank ships ``(opname, contribution)`` to rank 0, which
        waits for the full group, verifies all ranks entered the
        *same* collective, and answers each rank with
        ``project(rank, board)``.  Mismatched opnames abort the group
        and raise :class:`CollectiveMismatchError`, mirroring the
        thread kernel's phased rendezvous.  Once it completes, every
        rank has entered it, so none still reads a segment this rank
        exposed before: those go back to the pool.
        """
        released = self.exposed.pop(self.ctx, [])
        result = self._through_rank0(opname, contribution, project)
        for seg in released:
            self.pool.release(seg)
        return result

    def _through_rank0(
        self,
        opname: str,
        contribution: Any,
        project: Callable[[int, dict[int, Any]], Any],
    ) -> Any:
        if self.rank != 0:
            self._ship(0, _CH_COLL, 0, (opname, contribution))
            status, result = self._collect(_CH_COLLRES, 0, opname)
            if status == "mismatch":
                raise CollectiveMismatchError(result)
            return result
        # Rank 0: coordinator and participant.
        opnames = {0: opname}
        board: dict[int, Any] = {0: _isolate(contribution)}
        for src in range(1, self.size):
            opnames[src], board[src] = self._collect(_CH_COLL, src, opname)
        if len(set(opnames.values())) > 1:
            detail = ", ".join(
                f"rank {r}: '{opnames[r]}'" for r in sorted(opnames)
            )
            mismatch = (
                f"group '{self.name}' ranks entered different "
                f"collectives — {detail}"
            )
            for dst in range(1, self.size):
                self._ship(dst, _CH_COLLRES, 0, ("mismatch", mismatch))
            self.abort_event.set()
            raise CollectiveMismatchError(mismatch)
        for dst in range(1, self.size):
            self._ship(dst, _CH_COLLRES, 0, ("ok", project(dst, board)))
        return project(0, board)

    def fork_context(self, name: str) -> "_RankState":
        """Collective.  This state under a fresh context id, so traffic
        on the fork can never match traffic here."""
        fresh = next(self.contexts) if self.rank == 0 else None
        forked = copy.copy(self)
        forked.name = name
        forked.ctx = self.rendezvous("dup", fresh, lambda dst, board: board[0])
        return forked

    # -- shm attachments ---------------------------------------------------

    def attach_cached(self, name: str) -> Any:
        seg = self.attach_cache.get(name)
        if seg is None:
            seg = shm.attach_segment(name)
            self.attach_cache[name] = seg
        return seg

    def expose(
        self, opname: str, array: Any, root: int, writable: bool
    ) -> Any:
        """Collective.  ``root``'s ``array`` as a buffer every rank
        maps: the root checks a pooled segment out — copying ``array``
        in unless it is ``writable``, a landing the ranks fill — and
        broadcasts its descriptor, and each peer attaches it, writable
        or read-only as asked.  A writable segment is the root's, as a
        leased view, until its last reference dies; a read-only one
        goes back to the pool at the root's next collective, while the
        root keeps reading ``array`` itself."""
        if self.size == 1:
            return array
        if self.rank != root:
            name, dtype, shape = self.rendezvous(
                opname, None, lambda dst, board: board[root]
            )
            view = np.ndarray(shape, dtype, buffer=self.attach_cached(name).buf)
            view.flags.writeable = writable
            return view
        seg = self.pool.acquire(array.nbytes)
        view = np.ndarray(array.shape, array.dtype, buffer=seg.buf)
        if not writable:
            view[...] = array
            copied(array.nbytes)
        self.rendezvous(
            opname,
            (seg.name, array.dtype, array.shape),
            lambda dst, board: board[root],
        )
        if writable:
            return shm.leased_view(view, self.pool.lease(seg))
        self.exposed.setdefault(self.ctx, []).append(seg)
        return array

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        stats = self.pool.stats()
        # A peer may not have mapped the segments this rank exposed
        # last, since a scatter ends without a barrier: the supervisor
        # unlinks their names once every rank has exited.
        self.pool.close(keep=[s for segs in self.exposed.values() for s in segs])
        for seg in self.attach_cache.values():
            shm.close_quietly(seg)
        self.attach_cache.clear()
        self._up_send(("shmstats", stats))


# ---------------------------------------------------------------------------
# Spawning and supervision
# ---------------------------------------------------------------------------


def _picklable_exception(exc: BaseException) -> BaseException:
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _child_main(
    rank: int,
    size: int,
    name: str,
    fn: Callable[..., Any],
    args: tuple,
    extra: tuple,
    pipes: list[list[Any]],
    up_pairs: list[Any],
    abort_event: Any,
) -> None:
    # Keep only this rank's pipe ends; close the inherited rest.
    readers: dict[int, Any] = {}
    writers: dict[int, Any] = {}
    for src in range(size):
        for dst in range(size):
            if src == dst:
                continue
            r_end, w_end = pipes[src][dst]
            if dst == rank:
                readers[src] = r_end
            else:
                r_end.close()
            if src == rank:
                writers[dst] = w_end
            else:
                w_end.close()
    for r, (r_end, w_end) in enumerate(up_pairs):
        r_end.close()
        if r != rank:
            w_end.close()
    up = up_pairs[rank][1]
    backends.set_process_context(rank, size)
    state = _RankState(
        name, rank, size, readers, writers, up, abort_event
    )
    comm = Intracomm(state)
    status: tuple
    try:
        result = fn(
            RankContext(rank=rank, size=size, comm=comm), *args, *extra
        )
        status = ("ok", result)
    except BaseException as exc:  # noqa: BLE001 - reported via join
        if not isinstance(exc, GroupAbortedError):
            abort_event.set()
        status = ("err", _picklable_exception(exc))
    state.close()
    try:
        up.send(("result",) + status)
    except Exception:
        try:
            up.send(
                (
                    "result",
                    "err",
                    RuntimeError(
                        f"rank {rank} result could not be pickled"
                    ),
                )
            )
        except Exception:
            pass
    up.close()


class ProcHandle:
    """A running (possibly detached) process SPMD group.

    The parent-side mirror of :class:`repro.rts.executor.SpmdHandle`:
    ``join`` returns per-rank results in rank order or raises
    :class:`~repro.rts.executor.SpmdError`; ``abort`` releases blocked
    ranks.  Additionally supervises shared memory: every segment name
    a rank announces is swept (unlinked) when the group ends, however
    it ends — including a rank killed outright.
    """

    def __init__(
        self,
        name: str,
        procs: list[Any],
        up_conns: list[Any],
        abort_event: Any,
    ) -> None:
        self._name = name
        self._procs = procs
        self._up = up_conns
        self._abort_event = abort_event
        self._results: dict[int, Any] = {}
        self._failures: dict[int, BaseException] = {}
        self._segments: set[str] = set()
        self._shm_stats: dict[str, int] = {}
        self._done = False
        import weakref

        self._sweeper = weakref.finalize(
            self, _emergency_cleanup, procs, list(self._segments)
        )

    @property
    def size(self) -> int:
        return len(self._procs)

    @property
    def pids(self) -> list[int]:
        return [p.pid for p in self._procs]

    def alive(self) -> bool:
        return any(p.is_alive() for p in self._procs)

    def abort(self, reason: str = "aborted by caller") -> None:
        self._abort_event.set()

    def kill_rank(self, rank: int) -> None:
        """SIGKILL one rank (fault-injection support; no cleanup runs
        in the child — the parent sweep must cover it)."""
        self._procs[rank].kill()

    # -- supervision -------------------------------------------------------

    def _handle_message(self, rank: int, message: tuple) -> None:
        kind = message[0]
        if kind == "reg":
            self._segments.add(message[1])
        elif kind == "unreg":
            self._segments.discard(message[1])
        elif kind == "shmstats":
            shm.merge_retired_stats(message[1])
            for key, value in message[1].items():
                self._shm_stats[key] = (
                    self._shm_stats.get(key, 0) + int(value)
                )
        elif kind == "result":
            _, status, payload = message
            if status == "ok":
                self._results[rank] = payload
            else:
                self._failures[rank] = payload

    def _drain(self, timeout: float) -> None:
        pending = [
            (r, conn)
            for r, conn in enumerate(self._up)
            if conn is not None
        ]
        if not pending:
            time.sleep(min(timeout, _POLL))
            return
        ready = mpconn.wait([conn for _, conn in pending], timeout)
        for rank, conn in pending:
            if conn not in ready:
                continue
            while True:
                try:
                    if not conn.poll(0):
                        break
                    message = conn.recv()
                except (EOFError, OSError):
                    self._up[rank] = None
                    break
                self._handle_message(rank, message)

    def _reported(self, rank: int) -> bool:
        return rank in self._results or rank in self._failures

    def join(self, timeout: float | None = None) -> list[Any]:
        """Wait for every rank; sweep segments; return rank results."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while not all(self._reported(r) for r in range(self.size)):
            self._drain(_POLL * 5)
            for rank, proc in enumerate(self._procs):
                if self._reported(rank) or proc.is_alive():
                    continue
                # One more drain: the result may be sitting in the pipe.
                self._drain(0)
                if self._reported(rank):
                    continue
                self._failures[rank] = RankDiedError(
                    f"rank {rank} of '{self._name}' exited with code "
                    f"{proc.exitcode} before reporting a result"
                )
                # Peers blocked on the dead rank must fail, not hang.
                self._abort_event.set()
            if deadline is not None and time.monotonic() > deadline:
                if not all(self._reported(r) for r in range(self.size)):
                    raise TimeoutError(
                        f"SPMD group '{self._name}' did not finish "
                        f"within {timeout} seconds"
                    )
        self._finish()
        raise_rank_failures(self._name, self._failures)
        return [self._results[r] for r in range(self.size)]

    def _finish(self) -> None:
        if self._done:
            return
        self._done = True
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - last resort
                proc.kill()
                proc.join(timeout=5.0)
        # Everything the ranks will ever say is now in the pipes.
        self._drain(0)
        for conn in self._up:
            if conn is not None:
                try:
                    conn.close()
                except OSError:
                    pass
        self.sweep_segments()
        self._sweeper.detach()

    def sweep_segments(self) -> int:
        """Unlink every registered-but-not-unregistered segment."""
        swept = 0
        for name in sorted(self._segments):
            if shm.unlink_quietly(name):
                swept += 1
        self._segments.clear()
        return swept

    def shm_stats(self) -> dict[str, int]:
        """Aggregated pool counters reported by joined ranks."""
        return dict(self._shm_stats)


def _emergency_cleanup(procs: list[Any], segments: list[str]) -> None:
    """GC/exit fallback when a handle is dropped without join."""
    for proc in procs:
        if proc.is_alive():
            proc.kill()
    for name in segments:
        shm.unlink_quietly(name)


def spawn_process_group(
    fn: Callable[..., Any],
    nranks: int,
    *args: Any,
    name: str = "spmd",
    rank_args: Sequence[Sequence[Any]] | None = None,
) -> ProcHandle:
    """Start ``fn(ctx, *args)`` on ``nranks`` forked processes.

    The process-backend twin of
    :meth:`repro.rts.executor.SpmdExecutor.spawn`.  Because ranks are
    forked, ``fn`` may be any callable (closures included); results
    and exceptions must be picklable.
    """
    if nranks <= 0:
        raise ValueError("an SPMD group needs at least one rank")
    if rank_args is not None and len(rank_args) != nranks:
        raise ValueError(f"rank_args must have exactly {nranks} entries")
    if not process_backend_supported():
        raise RuntimeError(
            "the process RTS backend requires the 'fork' start method"
        )
    mp = multiprocessing.get_context("fork")
    pipes = [
        [
            mp.Pipe(duplex=False) if src != dst else (None, None)
            for dst in range(nranks)
        ]
        for src in range(nranks)
    ]
    up_pairs = [mp.Pipe(duplex=False) for _ in range(nranks)]
    abort_event = mp.Event()
    procs = []
    for rank in range(nranks):
        extra = tuple(rank_args[rank]) if rank_args is not None else ()
        procs.append(
            mp.Process(
                target=_child_main,
                args=(
                    rank,
                    nranks,
                    name,
                    fn,
                    args,
                    extra,
                    pipes,
                    up_pairs,
                    abort_event,
                ),
                name=f"{name}-{rank}",
                daemon=True,
            )
        )
    for proc in procs:
        proc.start()
    # The parent needs only the uplink read ends; release the rest.
    for src in range(nranks):
        for dst in range(nranks):
            if src == dst:
                continue
            pipes[src][dst][0].close()
            pipes[src][dst][1].close()
    up_conns = []
    for r_end, w_end in up_pairs:
        w_end.close()
        up_conns.append(r_end)
    return ProcHandle(name, procs, up_conns, abort_event)
