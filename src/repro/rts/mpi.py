"""The MPI-like message-passing library, and its thread kernel.

This is the reproduction's stand-in for MPICH: the paper's SPMD
applications communicate internally through "the PARDIS interface to
the run-time system underlying the object implementation", which for
the evaluation was MPI.  :class:`Intracomm` is the one communicator:
tag matching, wildcards, requests, the buffer pair and every
collective are written here once, against a small kernel that moves
the bytes.  This module holds the thread kernel (each rank a Python
thread, :class:`_ThreadKernel` over a shared :class:`_Group`);
:mod:`repro.rts.procs` holds the process kernel.

Payloads are isolated by the kernel (here NumPy arrays are copied and
everything else goes through pickle; between processes the pipe does
it) so the distributed-memory semantics of real MPI hold — a receiver
can never observe later mutations by the sender, and unpicklable
payloads fail loudly exactly as they would under mpi4py.  The RTS data
plane above the communicator is the exception: its gathers and
scatters go through a buffer the root exposes (the kernel's
``expose``; here :meth:`_ThreadKernel.share`, the root's array itself)
and copy each byte once (:class:`repro.rts.interface.RuntimeSystem`).

Following the mpi4py convention from the guides, lowercase methods
(``send``/``recv``/``bcast``/…) accept arbitrary Python objects, while
the uppercase ``Send``/``Recv`` pair moves NumPy buffers directly into
caller-provided storage.

All blocking calls take an optional ``timeout``; the group-wide
default (:data:`DEFAULT_TIMEOUT`) bounds how long a mismatched program
can hang before a :class:`DeadlockError` pinpoints the stuck call.
"""

from __future__ import annotations

import pickle
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

#: Wildcards, mirroring MPI_ANY_SOURCE / MPI_ANY_TAG.
ANY_SOURCE = -1
ANY_TAG = -1

#: Default number of seconds a blocking call may wait before raising
#: :class:`DeadlockError`.  Long enough for any legitimate test-suite
#: wait, short enough that a deadlocked suite still terminates.
DEFAULT_TIMEOUT = 60.0


class DeadlockError(RuntimeError):
    """A blocking call exceeded its timeout — the program is stuck."""


class GroupAbortedError(RuntimeError):
    """The group was aborted (a peer rank raised) mid-operation."""


class CollectiveMismatchError(RuntimeError):
    """Ranks of a group disagreed about which collective they entered."""


@dataclass
class _ReduceOp:
    """A named reduction operator usable with ``reduce``/``allreduce``."""

    name: str
    fn: Callable[[Any, Any], Any]

    def __call__(self, a: Any, b: Any) -> Any:
        return self.fn(a, b)

    def __repr__(self) -> str:
        return f"<op {self.name}>"


SUM = _ReduceOp("sum", lambda a, b: a + b)
PROD = _ReduceOp("prod", lambda a, b: a * b)
MAX = _ReduceOp("max", lambda a, b: np.maximum(a, b))
MIN = _ReduceOp("min", lambda a, b: np.minimum(a, b))


def _isolate(payload: Any) -> Any:
    """Copy a payload so sender and receiver share no mutable state."""
    if isinstance(payload, np.ndarray):
        return payload.copy()
    if payload is None or isinstance(payload, (bool, int, float, str, bytes)):
        return payload
    return pickle.loads(pickle.dumps(payload))


def _isolate_each(payload: Any) -> Any:
    """Isolate a collective's contribution or result.  A list there
    holds one entry per rank; isolating each on its own keeps arrays
    on the copy path instead of a pickle round trip."""
    if type(payload) is list:
        return [_isolate(item) for item in payload]
    return _isolate(payload)


@dataclass
class _Message:
    src: int
    tag: int
    payload: Any


def _first_match(box: Sequence[Any], source: int, tag: int) -> int | None:
    """Index of the first entry of ``box`` that ``source`` and ``tag``
    (or their wildcards) match."""
    for index, message in enumerate(box):
        if source in (ANY_SOURCE, message.src) and tag in (
            ANY_TAG, message.tag
        ):
            return index
    return None


class Request:
    """Handle for a non-blocking operation.

    Sends are buffered (the payload is isolated eagerly), so a send
    request is born complete.  Receive requests complete on
    :meth:`wait`/:meth:`test`.
    """

    def __init__(
        self,
        completed: bool = True,
        result: Any = None,
        poll: Callable[[float | None], Any] | None = None,
        try_poll: Callable[[], tuple[bool, Any]] | None = None,
    ) -> None:
        self._completed = completed
        self._result = result
        self._poll = poll
        self._try_poll = try_poll

    def wait(self, timeout: float | None = None) -> Any:
        """Block until complete; return the received object (or None
        for sends)."""
        if not self._completed:
            assert self._poll is not None
            self._result = self._poll(timeout)
            self._completed = True
        return self._result

    def test(self) -> tuple[bool, Any]:
        """Non-blocking completion check, mpi4py-style."""
        if not self._completed and self._try_poll is not None:
            done, result = self._try_poll()
            if done:
                self._completed = True
                self._result = result
        return self._completed, self._result


class _Group:
    """Shared state of one thread group: the locked mailboxes, the
    queues of shared objects and the board of the phased rendezvous."""

    def __init__(self, size: int, name: str) -> None:
        if size <= 0:
            raise ValueError("group size must be positive")
        self.size = size
        self.name = name
        self.lock = threading.Lock()
        self.cond = threading.Condition(self.lock)
        self.mailboxes: list[list[_Message]] = [[] for _ in range(size)]
        # What roots shared, per receiving rank, as (opname, object) in
        # program order (see _ThreadKernel.share); under ``cond``.
        self.shared: list[deque[tuple[str, Any]]] = [
            deque() for _ in range(size)
        ]
        self.aborted = False
        self.abort_reason: str | None = None
        # Collective rendezvous state (phased; see _ThreadKernel._exchange).
        self.coll_lock = threading.Lock()
        self.coll_cond = threading.Condition(self.coll_lock)
        self.coll_generation = 0
        self.coll_arrived = 0
        self.coll_opname: str | None = None
        self.coll_board: dict[int, Any] = {}
        # Completed boards, keyed by generation, each paired with the
        # number of ranks still to read it (so a fast rank starting the
        # next collective can never clobber an unread result).
        self.coll_published: dict[int, list[Any]] = {}

    def abort(self, reason: str) -> None:
        with self.cond:
            self.aborted = True
            self.abort_reason = reason
            self.cond.notify_all()
        with self.coll_cond:
            self.coll_cond.notify_all()

    def check_alive(self) -> None:
        if self.aborted:
            raise GroupAbortedError(
                f"group '{self.name}' aborted: {self.abort_reason}"
            )


class _ThreadKernel:
    """One rank's hold on a thread group — the kernel under
    :class:`Intracomm` when ranks are threads.

    A kernel supplies a mailbox (:meth:`post`, :meth:`take`,
    :meth:`peek`), a :meth:`rendezvous`, :meth:`fork_context`,
    :meth:`expose` and the ``abort``/``check_alive`` pair, and owns
    payload isolation: what a rank posts or contributes is copied on
    deposit, and what it reads off the shared board is copied again, so
    no two ranks ever hold the same mutable object.  :meth:`share` is
    the one deliberate exception, and the RTS data plane's way in.
    """

    backend = "thread"

    def __init__(self, group: _Group, rank: int) -> None:
        if not 0 <= rank < group.size:
            raise ValueError(f"rank {rank} outside group of {group.size}")
        self.group = group
        self.rank = rank
        self.size = group.size
        self.name = group.name
        self.abort = group.abort
        self.check_alive = group.check_alive

    # -- mailbox ---------------------------------------------------------

    def post(self, dest: int, tag: int, obj: Any) -> None:
        """Deposit an isolated copy of ``obj`` in ``dest``'s mailbox."""
        message = _Message(self.rank, tag, _isolate(obj))
        group = self.group
        with group.cond:
            group.check_alive()
            group.mailboxes[dest].append(message)
            group.cond.notify_all()

    def take(self, source: int, tag: int, timeout: float) -> _Message | None:
        """Remove and return the first matching message, waiting up to
        ``timeout`` seconds for one; None when none arrived."""
        deadline = time.monotonic() + timeout
        group = self.group
        box = group.mailboxes[self.rank]
        with group.cond:
            while True:
                group.check_alive()
                index = _first_match(box, source, tag)
                if index is not None:
                    return box.pop(index)
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None
                group.cond.wait(remaining)

    def peek(self, source: int, tag: int) -> bool:
        """Is a matching message pending?"""
        group = self.group
        with group.cond:
            group.check_alive()
            box = group.mailboxes[self.rank]
            return _first_match(box, source, tag) is not None

    # -- rendezvous --------------------------------------------------------

    def rendezvous(
        self,
        opname: str,
        contribution: Any,
        project: Callable[[int, dict[int, Any]], Any],
    ) -> Any:
        """Every rank contributes; each returns ``project(rank,
        board)``, where ``board`` maps rank to contribution.  Ranks
        that entered under different ``opname`` raise
        :class:`CollectiveMismatchError`."""
        # None needs no copy, and it is what a barrier and every
        # non-root rank of a rooted collective pass through here.
        if contribution is not None:
            contribution = _isolate_each(contribution)
        result = project(self.rank, self._exchange(opname, contribution))
        return result if result is None else _isolate_each(result)

    def share(self, opname: str, obj: Any, root: int = 0) -> Any:
        """Collective.  ``root``'s ``obj`` itself — the same object,
        not a copy — on every rank: how the threads of a group come to
        hold one fresh group (``dup``), and how a gather or scatter
        root exposes its buffer (:meth:`expose`).

        Only the other ranks wait: the root leaves ``obj`` in each of
        their queues and goes on.  A root shares only after it has
        seen every earlier share, so each queue holds them in program
        order, and the first entry is this collective's."""
        group = self.group
        with group.cond:
            group.check_alive()
            if self.rank == root:
                for rank, queue in enumerate(group.shared):
                    if rank != root:
                        queue.append((opname, obj))
                group.cond.notify_all()
                return obj
            queue = group.shared[self.rank]
            deadline = time.monotonic() + DEFAULT_TIMEOUT
            while not queue:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise DeadlockError(
                        f"rank {self.rank} of '{group.name}': collective "
                        f"'{opname}' timed out waiting for rank {root}"
                    )
                group.cond.wait(remaining)
                group.check_alive()
            entered, shared = queue.popleft()
        if entered != opname:
            group.abort(f"rank {self.rank} entered collective '{opname}' "
                        f"while rank {root} shared for '{entered}'")
            raise CollectiveMismatchError(group.abort_reason)
        return shared

    def expose(self, opname: str, array: Any, root: int, writable: bool) -> Any:
        """Collective.  The buffer the RTS data plane copies through:
        ranks that share a heap read or write ``root``'s ``array``
        itself (:meth:`share`), whichever way it is ``writable``."""
        return self.share(opname, array, root)

    def _exchange(self, opname: str, contribute: Any) -> dict[int, Any]:
        """The phased rendezvous.

        Every rank deposits ``contribute`` on the board, everyone waits
        until the group is complete, reads the full board, and the last
        reader opens the next generation.  Mismatched collective names
        across ranks raise :class:`CollectiveMismatchError` on every
        rank, which is the failure mode the tests inject.
        """
        group = self.group
        deadline = time.monotonic() + DEFAULT_TIMEOUT
        with group.coll_cond:
            group.check_alive()
            generation = group.coll_generation
            if group.coll_arrived == 0:
                group.coll_opname = opname
                group.coll_board = {}
            elif group.coll_opname != opname:
                mismatch = (
                    f"rank {self.rank} entered collective '{opname}' "
                    f"while the group is executing "
                    f"'{group.coll_opname}'"
                )
                group.aborted = True
                group.abort_reason = mismatch
                group.coll_cond.notify_all()
                raise CollectiveMismatchError(mismatch)
            group.coll_board[self.rank] = contribute
            group.coll_arrived += 1
            if group.coll_arrived == group.size:
                # Rendezvous complete: publish for the waiters, reset
                # the rendezvous slots for the next collective.
                board = dict(group.coll_board)
                if group.size > 1:
                    group.coll_published[generation] = [
                        board, group.size - 1
                    ]
                group.coll_generation += 1
                group.coll_arrived = 0
                group.coll_board = {}
                group.coll_opname = None
                group.coll_cond.notify_all()
                return board
            while group.coll_generation == generation:
                group.check_alive()
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise DeadlockError(
                        f"rank {self.rank} of '{group.name}': collective "
                        f"'{opname}' timed out waiting for peers"
                    )
                group.coll_cond.wait(remaining)
            entry = group.coll_published[generation]
            entry[1] -= 1
            if entry[1] == 0:
                del group.coll_published[generation]
            return entry[0]

    def fork_context(self, name: str) -> "_ThreadKernel":
        """Collective.  A kernel over the same ranks with independent
        mailboxes and rendezvous state: one fresh group, shared."""
        fresh = _Group(self.size, name) if self.rank == 0 else None
        return _ThreadKernel(self.share("dup", fresh), self.rank)


class Intracomm:
    """The communicator, one instance per rank, over either kernel.

    API mirrors mpi4py's ``Intracomm`` for the subset PARDIS needs:
    point-to-point with tags and wildcards, non-blocking variants, the
    buffer-based ``Send``/``Recv`` fast path, and the collective set
    ``barrier``, ``bcast``, ``scatter``, ``gather``, ``allgather``,
    ``alltoall``, ``reduce``, ``allreduce``.  Every collective is a
    name, a contribution and a projection of the board handed to the
    kernel's rendezvous; ``backend`` (``"thread"`` or ``"process"``)
    says which kernel carries the ranks.
    """

    def __init__(self, kernel: Any) -> None:
        self._kernel = kernel
        self._rank: int = kernel.rank

    # -- introspection --------------------------------------------------

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self._kernel.size

    @property
    def name(self) -> str:
        return self._kernel.name

    @property
    def backend(self) -> str:
        return self._kernel.backend

    def __repr__(self) -> str:
        return (
            f"<Intracomm '{self.name}' rank {self._rank} of {self.size}>"
        )

    # -- point-to-point --------------------------------------------------

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Buffered send: the kernel isolates ``obj`` and deposits it;
        never blocks."""
        if not 0 <= dest < self.size:
            raise ValueError(f"destination rank {dest} outside group")
        if tag < 0:
            raise ValueError("send tag must be non-negative")
        self._kernel.post(dest, tag, obj)

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        """Non-blocking send; buffered, so complete at once."""
        self.send(obj, dest, tag)
        return Request(completed=True)

    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        timeout: float | None = None,
        status: dict | None = None,
    ) -> Any:
        """Blocking tag-matched receive.

        ``status``, when given, is filled with the matched ``source``
        and ``tag`` (a light-weight MPI_Status).
        """
        message = self._kernel.take(
            source, tag, DEFAULT_TIMEOUT if timeout is None else timeout
        )
        if message is None:
            raise DeadlockError(
                f"rank {self._rank} of '{self.name}': recv("
                f"source={source}, tag={tag}) timed out"
            )
        if status is not None:
            status["source"] = message.src
            status["tag"] = message.tag
        return message.payload

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Non-blocking receive returning a :class:`Request`."""

        def poll(timeout: float | None) -> Any:
            return self.recv(source, tag, timeout=timeout)

        def try_poll() -> tuple[bool, Any]:
            message = self._kernel.take(source, tag, 0)
            if message is None:
                return False, None
            return True, message.payload

        return Request(completed=False, poll=poll, try_poll=try_poll)

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> bool:
        """Non-blocking: is a matching message pending?"""
        return self._kernel.peek(source, tag)

    def sendrecv(
        self,
        obj: Any,
        dest: int,
        sendtag: int = 0,
        source: int = ANY_SOURCE,
        recvtag: int = ANY_TAG,
        timeout: float | None = None,
    ) -> Any:
        """Combined send+receive (safe against exchange deadlock since
        sends are buffered)."""
        self.send(obj, dest, sendtag)
        return self.recv(source, recvtag, timeout=timeout)

    # -- NumPy buffer fast path -------------------------------------------

    def Send(self, array: np.ndarray, dest: int, tag: int = 0) -> None:
        """Buffer send of a NumPy array (uppercase mpi4py convention)."""
        self.send(np.asarray(array), dest, tag)

    def Recv(
        self,
        buffer: np.ndarray,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        timeout: float | None = None,
    ) -> None:
        """Receive directly into ``buffer`` (must be large enough)."""
        payload = np.asarray(self.recv(source, tag, timeout=timeout))
        if payload.size > buffer.size:
            raise ValueError(
                f"receive buffer holds {buffer.size} elements but the "
                f"message carries {payload.size}"
            )
        flat = buffer.reshape(-1)
        flat[: payload.size] = payload.reshape(-1)

    # -- collectives -------------------------------------------------------

    def barrier(self) -> None:
        """Block until all ranks arrive."""
        self._kernel.rendezvous("barrier", None, lambda dst, board: None)

    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Broadcast from ``root``; all ranks return the value."""
        self._check_root(root)
        return self._kernel.rendezvous(
            f"bcast@{root}",
            obj if self._rank == root else None,
            lambda dst, board: board[root],
        )

    def scatter(self, objs: Sequence[Any] | None, root: int = 0) -> Any:
        """Root supplies one object per rank; each rank gets its own."""
        self._check_root(root)
        if self._rank == root and (objs is None or len(objs) != self.size):
            raise ValueError(
                f"scatter root must supply exactly {self.size} items"
            )
        return self._kernel.rendezvous(
            f"scatter@{root}",
            list(objs) if self._rank == root else None,
            lambda dst, board: board[root][dst],
        )

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        """Root returns the list of contributions in rank order."""
        self._check_root(root)
        size = self.size
        return self._kernel.rendezvous(
            f"gather@{root}",
            obj,
            lambda dst, board: (
                [board[r] for r in range(size)] if dst == root else None
            ),
        )

    def allgather(self, obj: Any) -> list[Any]:
        """Every rank returns all contributions in rank order."""
        size = self.size
        return self._kernel.rendezvous(
            "allgather",
            obj,
            lambda dst, board: [board[r] for r in range(size)],
        )

    def alltoall(self, objs: Sequence[Any]) -> list[Any]:
        """Rank i's element j goes to rank j's slot i."""
        size = self.size
        if len(objs) != size:
            raise ValueError(
                f"alltoall requires exactly {size} items per rank"
            )
        return self._kernel.rendezvous(
            "alltoall",
            list(objs),
            lambda dst, board: [board[r][dst] for r in range(size)],
        )

    def reduce(
        self, obj: Any, op: _ReduceOp = SUM, root: int = 0
    ) -> Any | None:
        """Reduce contributions with ``op``; only root gets the result."""
        self._check_root(root)
        return self._kernel.rendezvous(
            f"reduce@{root}:{op.name}", obj, self._fold(op, root)
        )

    def allreduce(self, obj: Any, op: _ReduceOp = SUM) -> Any:
        """Reduce and broadcast the result to every rank."""
        return self._kernel.rendezvous(
            f"allreduce:{op.name}", obj, self._fold(op)
        )

    def _fold(
        self, op: _ReduceOp, root: int | None = None
    ) -> Callable[[int, dict[int, Any]], Any]:
        """A reduction's projection: the board folded in rank order for
        ``root`` (for every rank when None).  A kernel that projects
        for several ranks in one place folds once."""
        folded: list[Any] = []

        def project(dst: int, board: dict[int, Any]) -> Any:
            if root is not None and dst != root:
                return None
            if not folded:
                result = board[0]
                for r in range(1, self.size):
                    result = op(result, board[r])
                folded.append(result)
            return folded[0]

        return project

    def _check_root(self, root: int) -> None:
        if not 0 <= root < self.size:
            raise ValueError(f"root rank {root} outside group")

    def dup(self, name: str | None = None) -> "Intracomm":
        """Collective.  A new communicator over the same ranks with
        independent mailboxes and collective state (MPI_Comm_dup) —
        traffic on the duplicate can never match traffic here."""
        return Intracomm(
            self._kernel.fork_context(name or f"{self.name}:dup")
        )

    # -- control -----------------------------------------------------------

    def abort(self, reason: str = "application abort") -> None:
        """Abort the whole group: every blocked peer raises
        :class:`GroupAbortedError`."""
        self._kernel.abort(reason)


def create_group(size: int, name: str = "group") -> list[Intracomm]:
    """Create a fresh thread group and return one communicator per
    rank."""
    group = _Group(size, name)
    return [Intracomm(_ThreadKernel(group, r)) for r in range(size)]
