"""The client side: runtimes, proxies and the two bind operations.

Paper §2.1 defines two bindings:

- ``_bind`` — "non-collective and always establishes one binding per
  thread"; each thread then interacts on its own, using the
  *non-distributed* mapping of distributed arguments (serial
  sequences).
- ``_spmd_bind`` — "a collective form of bind; it has to be called by
  all the computing threads of a client and should be used by clients
  wishing to act as one entity".  Every subsequent invocation is
  collective and distributed arguments travel distributed.

Each PARDIS-connected client thread owns a :class:`ClientRuntime`:
its one port and the inbox that files what arrives there (replies
and result chunks), the ORB-internal communicator (a private
duplicate of the application's, so ORB traffic can never interleave
with application messages), and an invocation queue.  The queue gives
non-blocking invocations (§2.1's futures) a total order per rank:
because every rank enqueues invocations in the same program order,
and the queue is worked in that order — by its worker thread while
nobody waits, by a blocked reader on its own thread otherwise — the
collective operations inside the invocation engine match up across
ranks even when the application fires several requests before
touching any future.  A blocking invocation never enters the queue:
it runs on the calling thread under the runtime's turn, after the
launches queued before it (:meth:`_InvocationWorker.call`).
"""

from __future__ import annotations

import copy
import enum
import itertools
import queue
import random
import threading
from collections import deque
from typing import Any, Callable

from repro.ft.policy import FT_COUNTERS
from repro.groups.failover import GROUP_COUNTERS, GroupBinding
from repro.groups.select import GroupView
from repro.idl.runtime import template_to_spec
from repro.metrics import MetricsRegistry
from repro.orb.operation import OperationPlan, RemoteError
from repro.orb.reference import GroupReference, ObjectReference
from repro.orb.datapath import DataPath, path_for
from repro.orb.transfer import Inbox, invoke_begin
from repro.orb.transport import Fabric
from repro.rts import rts_for
from repro.rts.futures import Future
from repro.san import call_site as _san_call_site
from repro.san import enabled as _san_enabled
from repro.san.collective import CollectiveChecker
from repro.san.futures import track as _san_track
from repro.trace.span import span_or_null
from repro.rts.interface import RuntimeSystem
from repro.rts.mpi import Intracomm


class BindMode(enum.Enum):
    """How a proxy was bound (decides collective vs per-thread)."""

    SERIAL = "bind"
    SPMD = "spmd_bind"


class ClientRuntime:
    """Per-thread client-side ORB state.

    Create one per computing thread via
    :meth:`repro.core.ORB.client_runtime`; pass it to ``_bind`` /
    ``_spmd_bind``.
    """

    def __init__(
        self,
        fabric: Fabric,
        naming: Any,
        comm: Intracomm | None = None,
        *,
        timeout: float = 60.0,
        label: str = "client",
        pipeline_depth: int = 8,
        ft_policy: Any = None,
        trace: Any = None,
        sanitize: bool | None = None,
        orb: Any = None,
    ) -> None:
        if pipeline_depth <= 0:
            raise ValueError("pipeline_depth must be positive")
        #: The ORB that minted this runtime (``None``: a free-standing
        #: one, such as a ``NamingClient``'s): its registry names the
        #: tallies below, and :meth:`close` leaves its open-runtime
        #: list.
        self._orb = orb
        metrics = orb.metrics if orb is not None else MetricsRegistry()
        self.fabric = fabric
        self.naming = naming
        self.app_comm = comm
        #: ``repro.trace`` recorder shared across the ORB's runtimes
        #: (None = tracing off; the engines guard every span site on
        #: this being set, keeping the disabled path free).
        self.trace = trace
        self.timeout = timeout
        self.pipeline_depth = pipeline_depth
        #: Runtime-wide fault-tolerance policy (a proxy may override).
        self.ft_policy = ft_policy
        #: The ``ft.*`` and ``groups.*`` tallies, by short name.
        self.ft = {n: metrics.counter(f"ft.{n}") for n in FT_COUNTERS}
        self.groups = {
            n: metrics.counter(f"groups.{n}") for n in GROUP_COUNTERS
        }
        # The collective-sequence counter: one draw per collective
        # invocation, in launch (= program) order, so an invocation's
        # index is identical on every rank — it names the collective
        # point a group-agreed failure is raised at.
        self._collective_indexes = itertools.count()
        self.rank = 0 if comm is None else comm.rank
        self.size = 1 if comm is None else comm.size
        # A private communicator for ORB-internal collectives, so the
        # engines never interleave with application traffic.
        if comm is None:
            self.orb_comm: Intracomm | None = None
            self.rts: RuntimeSystem | None = None
        else:
            self.orb_comm = comm.dup(f"{label}:orb")
            self.rts = rts_for(self.orb_comm)
        #: ``repro.san``: ``sanitize=None`` defers to ``PARDIS_SAN``.
        self.sanitize = (
            _san_enabled() if sanitize is None else bool(sanitize)
        )
        # The alignment checker gets its own communicator: its p2p
        # digest traffic must never tag-match the engines' traffic on
        # orb_comm, and runtime creation is already collective so the
        # dup rendezvous is safe here.
        self.san: CollectiveChecker | None = None
        if self.sanitize and comm is not None:
            self.san = CollectiveChecker(comm.dup(f"{label}:san"))
        # One port takes both this rank's reply (rank 0's) and its
        # result chunks; the inbox files them as they arrive.  Nothing
        # here ages: a future's result chunks wait for its ``value``
        # however long that takes, and ``invoke_begin`` discards every
        # id it is finished with.
        self.port = fabric.open_port(f"{label}:{self.rank}")
        self.inbox = Inbox(self.port)
        if comm is None:
            self.data_port_addresses = (self.port.address,)
        else:
            self.data_port_addresses = tuple(comm.allgather(self.port.address))
        # Request ids carry a random per-runtime base in the high 32
        # bits: concurrent clients of one object then never collide on
        # the server's demultiplexing keys, and the base doubles as a
        # client identity for the server's per-client dispatch order.
        # Collective runtimes must share ONE sequence — the multi-port
        # engine tags every rank's chunks with its locally drawn id and
        # the server matches them against the id in rank 0's header —
        # so rank 0 draws the base and broadcasts it.  A rank's serial
        # calls draw from a base of its own: from the shared one, two
        # ranks' serial calls would reach a server under one id, and
        # would shift the shared sequence out of step across ranks.
        self._serial_ids = itertools.count(
            (random.getrandbits(31) << 32) + 1
        )
        if comm is None:
            self._request_ids = self._serial_ids
        else:
            base = comm.bcast(
                random.getrandbits(31) << 32 if self.rank == 0 else None,
                root=0,
            )
            self._request_ids = itertools.count(base + 1)
        #: Shared with this runtime's serial views, so invocation
        #: order is global per thread; its thread starts with the
        #: first ``_nb`` submission — a runtime that only makes
        #: blocking calls never needs one.
        self.worker = _InvocationWorker(
            f"pardis-worker-{self.rank}",
            pipeline_depth,
            metrics,
            timed=trace is not None,
            reply_timeout=timeout,
        )
        self._closed = False

    def next_request_id(self) -> int:
        return next(self._request_ids)

    def next_collective_index(self) -> int:
        return next(self._collective_indexes)

    def serial_view(self) -> "ClientRuntime":
        """A per-thread (non-collective) view of this runtime.

        Used by plain ``_bind``: the thread interacts with objects on
        its own, so the engines must see a 1-thread client.  A copy
        of this runtime with the group identity erased: port, inbox,
        worker and tallies are the parent's (replies still arrive on
        this thread's port; the common worker keeps blocking/non-blocking
        calls ordered), and request ids come from this rank's serial
        sequence.
        """
        if self.app_comm is None:
            return self
        view = copy.copy(self)
        view.app_comm = None
        view.rank = 0
        view.size = 1
        view.orb_comm = None
        view.rts = None
        view.data_port_addresses = (self.port.address,)
        view._request_ids = self._serial_ids
        # Serial invocations are per-thread and must not skew the
        # group's collective sequence; a 1-thread client has no group
        # for the alignment checker to align either.
        view._collective_indexes = itertools.count()
        view.san = None
        return view

    def close(self) -> None:
        """Release the port and stop the worker (idempotent).

        The worker first drains in-flight completions, so every
        launched request still resolves its future before the port
        disappears under it.
        """
        if self._closed:
            return
        self._closed = True
        self.worker.stop()
        self.port.close()
        if self._orb is not None:
            self._orb.runtime_closed(self)

    def __enter__(self) -> "ClientRuntime":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


_CLOSED = "client runtime is closed; no further invocations"


class _InvocationWorker:
    """A per-rank pipelined executor for invocations.

    Invocations are *launched* in program order, which under the SPMD
    assumption is identical on every rank.  A launch runs only the
    engine's send phase (``invoke_begin``); up to ``depth`` requests
    may then be in flight, their deferred completions (reply receive,
    reply-side collectives, result composition) queued on a pending
    deque.  Completions drain strictly in launch order, triggered by
    exactly four events, each at a fixed point of program order: the
    pipeline is full, a reader demands a future, a blocking call
    completes, or the worker is stopping.

    Everything runs under the runtime's *turn*, taken and left by
    :meth:`_take` and :meth:`_leave` (which wakes the worker thread
    for whatever is still queued).  A non-blocking invocation queues
    its launch; while nobody waits, the worker thread works the
    queue, so a non-blocking stub never blocks.  A reader about to
    block on a pending future (no timeout, or one at least the
    runtime's reply timeout) takes the turn itself and, on its own
    thread, works the items queued before its demand and then drains
    through its future: the engine calls, in the order, that a flush
    marker queued at that point would have produced.  A poll
    (``ready()``) or a shorter timeout queues that marker for the
    worker thread instead.

    A blocking invocation (:meth:`call`) has one route: on its
    caller's thread under the turn, it works the launches queued
    before it, admits, launches, drains the earlier completions and
    completes — the engine calls a queued launch and a reader's
    drain through it would make, with no future in between.  A
    thread that already holds the turn (a done-callback on the
    draining thread) works through in place, for a blocking call and
    a long wait alike.

    The launch order and the drain policy are functions of program
    order alone — never of timing or of which thread works the
    queue — so the per-rank sequence of engine collectives is
    identical on every rank and collective operations of different
    outstanding requests can never cross-match.  The worker thread
    itself starts with the first queued submission.
    """

    def __init__(
        self,
        name: str,
        depth: int,
        metrics: MetricsRegistry,
        timed: bool = False,
        reply_timeout: float | None = None,
    ) -> None:
        if depth <= 0:
            raise ValueError("pipeline depth must be positive")
        self.depth = depth
        #: Waits at least this long (``None``: only unbounded ones)
        #: work the queue on the reader's thread.
        self._reply_timeout = reply_timeout
        #: The ``invocations.<outcome>`` tallies.
        self._submitted, self._completed, self._failed = (
            metrics.counter(f"invocations.{outcome}")
            for outcome in ("submitted", "completed", "failed")
        )
        #: Where futures time their waits (``future.wait_us``): the
        #: registry with tracing on, else ``None`` — timings are
        #: opt-in, tallies are not.
        self._wait_metrics = metrics if timed else None
        #: Launches ``("invoke", fn, future)`` and flush markers
        #: ``("flush", future)``, in program order; ``_queued`` and
        #: ``_taken`` count the items ever put and taken.
        self._queue: deque[tuple] = deque()
        self._queued = self._taken = 0
        self._stopped = False
        #: Launched-but-uncompleted requests: (complete, future).
        self._pending: deque[tuple[Callable[[], Any], Future]] = deque()
        #: Futures with a flush marker queued: one marker each.
        self._flushing: set[Future] = set()
        self._lock = threading.Lock()
        #: Wakes the worker thread, one token per item queued, per
        #: turn left with items still queued, and for stop.
        self._wake: queue.SimpleQueue = queue.SimpleQueue()
        #: Held by whichever thread is inside the engine, so a second
        #: thread's call on the same runtime is not launched while one
        #: is; ``_holder`` is the ident of the thread holding it.
        self._turn = threading.Lock()
        self._holder: int | None = None
        self._name = name
        self._thread: threading.Thread | None = None

    def _take(self, timeout: float = -1) -> bool:
        """Take the turn (waiting up to ``timeout`` seconds, ``-1``:
        for good); ``False`` if it stayed taken."""
        if not self._turn.acquire(timeout=timeout):
            return False
        self._holder = threading.get_ident()
        return True

    def _leave(self) -> None:
        """Leave the turn, waking the worker thread for what is left."""
        with self._lock:
            self._holder = None
            if self._queue:
                self._wake.put(True)
        self._turn.release()

    def _drain_one(self) -> None:
        complete, future = self._pending.popleft()
        try:
            value = complete()
        except BaseException as exc:  # noqa: BLE001 - to the future
            future.set_exception(exc)
            self._failed.inc()
        else:
            future.set_result(value)
            self._completed.inc()

    def _drain_through(self, target: Future) -> None:
        """Complete pending requests up to and including ``target``.

        A no-op when the target is not pending (already resolved —
        e.g. drained earlier by a full pipeline); completions that
        would then run here already ran at that earlier, equally
        queue-determined point.  A done-callback may drain further
        on its own; the loop stops as soon as ``target`` resolved.
        """
        if not any(fut is target for _, fut in self._pending):
            return
        while self._pending and not target._done:
            self._drain_one()

    def _work(self, through: Future | None = None) -> None:
        """Work the queue under the turn: every item queued by now,
        then — for a reader — the drain through its future."""
        mark = self._queued
        while self._taken < mark:
            with self._lock:
                item = self._queue.popleft()
                self._taken += 1
            self._handle(item)
            # A lingering item would pin its future across the next
            # wait, hiding abandoned futures from the lifecycle
            # sanitizer until shutdown.
            del item
        if through is not None:
            self._drain_through(through)

    def _run(self) -> None:
        while True:
            with self._lock:
                if self._stopped and not self._queue:
                    break
                # While another thread holds the turn the queue is its
                # to work; it wakes this thread for what is left.
                idle = not self._queue or self._holder is not None
            if idle:
                self._wake.get()
                continue
            self._take()
            try:
                self._work()
            finally:
                self._leave()
        # Shutdown: every launched request still gets its completion.
        self._take()
        try:
            while self._pending:
                self._drain_one()
        finally:
            self._leave()

    def _handle(self, item: tuple) -> None:
        if item[0] == "flush":
            self._drain_through(item[1])
            with self._lock:
                self._flushing.discard(item[1])
            return
        _kind, fn, future = item
        # Admission: never more than ``depth`` in flight.
        while len(self._pending) >= self.depth:
            self._drain_one()
        try:
            state, payload = fn()
        except BaseException as exc:  # noqa: BLE001 - to the future
            future.set_exception(exc)
            return
        if state == "done":
            future.set_result(payload)
        else:
            self._pending.append((payload, future))

    def _put(self, item: tuple) -> None:
        """Queue ``item`` and wake the worker thread; called under the
        lock, so that ``stop`` cannot slip in ahead of it."""
        self._queue.append(item)
        self._queued += 1
        self._wake.put(True)

    def submit(self, fn: Callable[[], Any], label: str) -> Future:
        """Enqueue a launch; ``fn()`` must return the engine's
        ``("done", value)`` / ``("pending", complete)`` pair."""
        future = Future(label)
        future._pre_wait = self._demand
        future._trace_metrics = self._wait_metrics
        with self._lock:
            if self._stopped:
                raise RuntimeError(_CLOSED)
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._run, name=self._name, daemon=True
                )
                self._thread.start()
            self._put(("invoke", fn, future))
        self._submitted.inc()
        return future

    def call(self, fn: Callable[[], Any]) -> Any:
        """Run a blocking invocation on the calling thread and return
        its result (or raise its exception); ``fn`` is as for
        :meth:`submit`.  Under the turn — taken here, or already the
        caller's — it runs the launches queued before it, the
        admission drain, its own launch, the earlier completions in
        launch order and its own completion."""
        if self._stopped:
            raise RuntimeError(_CLOSED)
        nested = self._holder == threading.get_ident()
        if not nested:
            self._take()
        try:
            if self._queue:
                self._work()
            while len(self._pending) >= self.depth:
                self._drain_one()
            self._submitted.inc()
            state, payload = fn()
            if state == "done":
                return payload
            while self._pending:
                self._drain_one()
            try:
                result = payload()
            except BaseException:
                self._failed.inc()
                raise
            self._completed.inc()
            return result
        finally:
            if not nested:
                self._leave()

    def _demand(self, future: Future, timeout: float | None) -> None:
        """Demand hook: a reader is about to wait up to ``timeout``
        seconds for ``future`` (``0``: it polls).  A long wait works
        the queue on the reader's thread; a poll or a short wait
        queues one flush marker per future — the first drains through
        it, so a second would find nothing to do."""
        if self._holder == threading.get_ident():
            if timeout != 0:
                self._work(future)
            return
        if self._stopped:
            return
        limit = self._reply_timeout
        if timeout is None or (
            timeout != 0 and limit is not None and timeout >= limit
        ):
            if self._take(-1 if timeout is None else timeout):
                try:
                    self._work(future)
                finally:
                    self._leave()
            return
        with self._lock:
            if future in self._flushing or self._stopped:
                return
            self._flushing.add(future)
            self._put(("flush", future))

    def stop(self, join_timeout: float | None = 10.0) -> None:
        with self._lock:
            self._stopped = True
            thread = self._thread
            self._wake.put(True)
        if (
            thread is not None
            and join_timeout is not None
            and threading.current_thread() is not thread
            and self._holder != threading.get_ident()
        ):
            thread.join(join_timeout)


class ClientProxy:
    """Base class of generated client stubs.

    Generated subclasses carry ``_interface``, ``_repo_id`` and
    ``_operations``; their operation methods call :meth:`_invoke` /
    :meth:`_invoke_nb`.
    """

    _interface: str = ""
    _repo_id: str = ""
    _operations: dict[str, OperationPlan] = {}

    def __init__(
        self,
        runtime: ClientRuntime,
        ref: ObjectReference,
        mode: BindMode,
        transfer: str,
        ft_policy: Any = None,
        group: GroupBinding | None = None,
    ) -> None:
        self._runtime = runtime
        self._ref = ref
        self._mode = mode
        #: Where this binding's argument data flows (the
        #: ``transfer=`` method, until a degradation swaps it).
        self._path: DataPath = path_for(transfer)
        #: Per-proxy fault-tolerance policy; ``None`` defers to the
        #: runtime's (ORB-wide) policy.
        self._ft_policy = ft_policy
        #: Replicated-group binding state (``None`` for singleton
        #: bindings): which replica this proxy targets and how to fail
        #: over.  Set by :meth:`_group_bind`.
        self._group = group
        #: (operation, slot name) → template spec for out/return
        #: distributed values (§2.2's client-side initialization).
        self._out_templates: dict[tuple[str, str], tuple] = {}

    # -- binding -----------------------------------------------------------

    @classmethod
    def _bind(
        cls,
        obj_name: str,
        runtime: ClientRuntime,
        host_name: str | None = None,
        *,
        transfer: str | None = None,
        ft_policy: Any = None,
    ) -> "ClientProxy":
        """Per-thread, non-collective bind (§2.1).

        The proxy then uses the non-distributed argument mapping: each
        thread interacts with the object on its own, so distributed
        sequence arguments must be serial (``comm=None``).
        """
        with span_or_null(
            runtime.trace, "bind", side="client",
            rank=runtime.rank, object=obj_name, mode=BindMode.SERIAL.value,
        ):
            ref = runtime.naming.resolve(obj_name, host_name)
            cls._check_interface(ref)
            return cls(
                runtime.serial_view(),
                ref,
                BindMode.SERIAL,
                cls._default_transfer(ref, transfer),
                ft_policy=ft_policy,
            )

    @classmethod
    def _spmd_bind(
        cls,
        obj_name: str,
        runtime: ClientRuntime,
        host_name: str | None = None,
        *,
        transfer: str | None = None,
        ft_policy: Any = None,
    ) -> "ClientProxy":
        """Collective bind: all client threads act as one entity.

        The communicating thread resolves the name; every thread gets
        a proxy over the shared binding, and "every invocation to the
        object must be called by all the threads that participated in
        the bind call" (§2.1).
        """
        if runtime.app_comm is None:
            # A 1-thread client group: degenerate but legal.
            return cls._bind(
                obj_name, runtime, host_name, transfer=transfer,
                ft_policy=ft_policy,
            )
        with span_or_null(
            runtime.trace, "bind", side="client",
            rank=runtime.rank, object=obj_name, mode=BindMode.SPMD.value,
        ):
            if runtime.rank == 0:
                ior = runtime.naming.resolve(obj_name, host_name).ior()
            else:
                ior = None
            ior = runtime.orb_comm.bcast(ior, root=0)
            ref = ObjectReference.from_ior(ior)
            cls._check_interface(ref)
            return cls(
                runtime,
                ref,
                BindMode.SPMD,
                cls._default_transfer(ref, transfer),
                ft_policy=ft_policy,
            )

    @classmethod
    def _group_bind(
        cls,
        group_name: str,
        runtime: ClientRuntime,
        *,
        transfer: str | None = None,
        ft_policy: Any = None,
    ) -> "ClientProxy":
        """Bind to a *replicated object group* (``repro.groups``).

        Resolves the group through the naming directory and pins the
        proxy to one replica: round-robin over the live members by the
        directory's bind token, so successive bindings spread across
        the replicas (:meth:`~repro.groups.select.GroupView.choose`).

        Collective when the runtime is (rank 0 resolves; the group
        reference and bind token ride one broadcast, so every rank
        selects the same replica), per-thread otherwise — the §2.1
        ``_spmd_bind`` / ``_bind`` split, at group scope.

        With an ``ft_policy`` in force, an invocation the policy gives
        up on against the pinned replica *fails over*: all ranks vote,
        flip to the same sibling, and the engine re-issues the call
        there.  Without one the binding fails fast exactly like a
        singleton proxy (lint rule PD213 flags that configuration).
        """
        with span_or_null(
            runtime.trace, "bind", side="client", rank=runtime.rank,
            object=group_name, mode="group_bind",
        ):
            if runtime.app_comm is None:
                gref = runtime.naming.resolve_group(group_name)
                token = runtime.naming.next_bind_token(group_name)
                bind_runtime = runtime.serial_view()
            else:
                if runtime.rank == 0:
                    gref0 = runtime.naming.resolve_group(group_name)
                    payload = (
                        gref0.ior(),
                        runtime.naming.next_bind_token(group_name),
                    )
                else:
                    payload = None
                gior, token = runtime.orb_comm.bcast(payload, root=0)
                gref = GroupReference.from_ior(gior)
                bind_runtime = runtime
            if (
                cls._repo_id
                and gref.repo_id
                and gref.repo_id != cls._repo_id
            ):
                raise RemoteError(
                    f"group '{gref.group_name}' implements "
                    f"{gref.repo_id}, proxy expects {cls._repo_id}",
                    category="INV_OBJREF",
                )
            binding = GroupBinding(
                GroupView(gref), token, runtime.groups,
                interface=cls._interface,
            )
            _replica, ref = binding.target()
            runtime.groups["binds"].inc()
            return cls(
                bind_runtime,
                ref,
                (
                    BindMode.SERIAL
                    if bind_runtime.app_comm is None
                    else BindMode.SPMD
                ),
                cls._default_transfer(ref, transfer),
                ft_policy=ft_policy,
                group=binding,
            )

    @classmethod
    def _default_transfer(
        cls, ref: ObjectReference, transfer
    ) -> str:
        if transfer is not None:
            transfer = getattr(transfer, "value", transfer)
            path_for(transfer)  # validate early
            return transfer
        return "multiport" if ref.multiport_capable else "centralized"

    @classmethod
    def _check_interface(cls, ref: ObjectReference) -> None:
        if cls._repo_id and ref.repo_id and ref.repo_id != cls._repo_id:
            raise RemoteError(
                f"object '{ref.object_key}' implements {ref.repo_id}, "
                f"proxy expects {cls._repo_id}",
                category="INV_OBJREF",
            )

    # -- invocation -----------------------------------------------------------

    @property
    def reference(self) -> ObjectReference:
        """The bound object; on a group binding, the replica invocations
        currently go to."""
        if self._group is not None:
            return self._group.target()[1]
        return self._ref

    @property
    def transfer_method(self) -> str:
        return self._path.mode

    def _plan(self, operation: str) -> OperationPlan:
        try:
            return self._operations[operation]
        except KeyError:
            raise RemoteError(
                f"interface {self._interface!r} has no operation "
                f"{operation!r}",
                category="BAD_OPERATION",
            ) from None

    def set_out_template(
        self, operation: str, param: str, template: Any
    ) -> None:
        """Preset the client-side distribution of an out/return value.

        §2.2: "An 'out' argument should be initialized by a
        distribution template before calling the operation which
        returns it; otherwise a uniform blockwise distribution will be
        assumed."  Use ``"__return__"`` as ``param`` for a distributed
        return value.
        """
        dist = {name: arg for _i, name, _tc, arg in self._plan(operation).dist_reply}
        if param not in dist:
            raise ValueError(
                f"'{param}' is not a distributed out/return value of "
                f"operation '{operation}'"
            )
        if dist[param] is not None:
            raise ValueError(
                f"'{param}' is inout; its distribution follows the "
                f"argument you pass"
            )
        nranks = getattr(template, "nranks", None)
        if nranks is not None and nranks != self._runtime.size:
            raise ValueError(
                f"template spans {nranks} threads but the client "
                f"group has {self._runtime.size}"
            )
        self._out_templates[(operation, param)] = template_to_spec(
            template
        )

    def _invoke(self, operation: str, args: tuple) -> Any:
        """Blocking invocation, on the caller's thread: ordered behind
        the rank's earlier ``_nb`` launches, bounded by the engine's
        own deadlines (:meth:`_InvocationWorker.call`)."""
        return self._runtime.worker.call(self._prepare(operation, args)[0])

    def _invoke_nb(self, operation: str, args: tuple) -> Future:
        """Non-blocking invocation returning a future (§2.1).

        The worker launches the request (send phase) as soon as it
        reaches the head of the queue — up to the runtime's
        ``pipeline_depth`` requests overlap their round-trips — and
        completes it when the future is touched, the pipeline fills,
        or the runtime closes.
        """
        launch, label, site = self._prepare(operation, args)
        future = self._runtime.worker.submit(launch, label=label)
        if self._runtime.sanitize:
            _san_track(future, label, site)
        return future

    def _prepare(
        self, operation: str, args: tuple
    ) -> tuple[Callable[[], tuple[str, Any]], str, str]:
        """What every invocation does on the application thread, in
        program order, before its launch runs anywhere: the argument
        checks, the sanitizer's alignment check, and the launch
        closure itself.  Returns ``(launch, label, call site)``."""
        plan = self._operations.get(operation) or self._plan(operation)
        if self._mode is BindMode.SERIAL:
            # After plain ``_bind``, distributed arguments must be
            # serial: the thread interacts with the object on its own.
            for i, name, _tc in plan.dist_request:
                value = args[i] if i < len(args) else None
                if getattr(value, "comm", None) is not None:
                    raise ValueError(
                        f"argument '{name}' is group-distributed; "
                        f"after _bind use the non-distributed mapping "
                        f"(serial sequences), or bind with _spmd_bind"
                    )
        runtime = self._runtime
        path = self._path
        ref = self._ref
        label = f"{self._interface}.{operation}"
        site = ""
        if runtime.sanitize:
            site = _san_call_site()
            if self._mode is BindMode.SPMD and runtime.san is not None:
                # Alignment check on the application thread, in
                # program order, *before* the launch runs: a divergent
                # rank aborts here with the call site, instead of
                # cross-matching engine collectives.
                runtime.san.check(label, site)
        out_map = {}
        if plan.dist_reply:
            for (op, param), template_spec in self._out_templates.items():
                if op == operation:
                    out_map[param] = template_spec
        launch = lambda: invoke_begin(  # noqa: E731
            runtime,
            ref,
            plan,
            args,
            path,
            out_templates=out_map,
            ft_policy=self._ft_policy,
            on_degrade=self._on_degrade,
            group=self._group,
        )
        return launch, label, site

    def invoke_all(self, operation: str, args: tuple = ()) -> Any:
        """Collective invocation by name (the paper's vocabulary).

        Equivalent to calling the generated stub method, but spelled
        with the §2 verb the correctness tooling is built around:
        both the static collective-flow analysis
        (:mod:`repro.lint.flow`) and the runtime sanitizer
        (:mod:`repro.san`) treat ``invoke_all`` as a collective
        entry point, so code using this spelling is checkable even
        when the operation name is dynamic.
        """
        return self._invoke(operation, tuple(args))

    def _on_degrade(self, fallback: DataPath) -> None:
        """Multi-port graceful degradation (engine callback, every
        rank): subsequent invocations go centralized directly instead
        of rediscovering the dead data path each time."""
        self._path = fallback

    def __repr__(self) -> str:
        if self._group is not None:
            return (
                f"<proxy {self._interface} -> group "
                f"'{self._group.group_name}' replica "
                f"{self._group.current_replica()} "
                f"[{self._mode.value}, {self._path.mode}]>"
            )
        return (
            f"<proxy {self._interface} -> '{self._ref.object_key}' "
            f"[{self._mode.value}, {self._path.mode}]>"
        )
