"""The object adapter: server-side activation and dispatch.

A :class:`ServantGroup` is the server half of an SPMD object: it owns
one computing thread per rank, each running a servant instance.
Requests arrive on the group's single request port, whose upcall
decodes and admits each frame on the thread that delivers it and
queues what survives — for the dispatch pool when the group is
*serial* (one thread), for rank 0 when it is collective.  Rank 0 is
the group's one communicating thread: it takes a request off the
queue, delivers it "to all the computing threads" (the defining
property of an SPMD object, §2), runs the one server engine in
lockstep with its peers — moving the distributed arguments in and out
along the :class:`~repro.orb.datapath.DataPath` the request's mode
names — and "informs the client" (§3.2) itself.  No other thread
receives for the group, and none sends its replies.

The group registers itself with the naming service on activation,
publishing an object reference that carries the request port, the
per-thread data ports (multi-port method), and the distribution
templates the servant registered for its parameters (§2.2).
"""

from __future__ import annotations

import queue
import threading
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

from repro import clock
from repro.dist import DistributedSequence
from repro.dist.template import DistTemplate
from repro.idl.runtime import template_to_spec
from repro.orb import request as wire
from repro.orb.datapath import DataPath, path_for
from repro.orb.operation import OperationPlan, RemoteError
from repro.orb.reference import ObjectReference
from repro.orb.request import ReplyHead, ReplyMessage, RequestMessage
from repro.orb.transfer import (
    Inbox,
    encode_system_exception,
    encode_user_exception,
)
from repro.ft.dedup import ReplyCache
from repro.orb.transport import (
    Fabric,
    KIND_CONTROL,
    KIND_DATA,
    KIND_REPLY,
    Port,
    TransportError,
)
from repro.rts import rts_for
from repro.rts.executor import SpmdExecutor, SpmdHandle
from repro.rts.interface import RuntimeSystem
from repro.rts.mpi import DeadlockError, GroupAbortedError, Intracomm
from repro.trace.span import span_or_null

#: Control payloads on the request port.
CONTROL_SHUTDOWN = b"shutdown"

#: Tag for request headers relayed rank 0 → peers (kept far from
#: application tags, like the RTS chunk tag in
#: :mod:`repro.rts.interface`).
_TAG_HEADER = 1 << 22

#: The most threads a serial object's requests run on: its rank
#: thread, plus one started each time a client's requests become
#: runnable while every thread is busy.
DISPATCH_THREADS = 4


@dataclass
class ServantContext:
    """Per-rank server-side state handed to servants and engines."""

    rank: int
    size: int
    comm: Intracomm | None
    rts: RuntimeSystem | None
    request_port: Port | None  # rank 0 only
    data_port: Port
    #: Files the chunks that arrive on ``data_port``.
    inbox: Inbox
    fabric: Fabric
    templates: dict[tuple[str, str], tuple]
    #: ``repro.trace`` recorder (None = tracing off): the engine opens
    #: rank-tagged server-side spans under the request header's trace
    #: id, correlating them with the client's spans.
    trace: Any = None
    timeout: float = 60.0
    #: Set by the servant group: collective drain of queued requests
    #: (the §2.1 "interrupt its computation to process outstanding
    #: requests" capability).  See :meth:`Servant.service_pending`.
    service_fn: Callable[[int], int] | None = None


class Servant:
    """Base class of generated skeletons.

    Implement one method per IDL operation.  The activation context is
    available as :attr:`comm` / :attr:`rank` / :attr:`size` for
    SPMD-aware implementations (e.g. to build result sequences over
    the server group).
    """

    _interface: str = ""
    _repo_id: str = ""
    _operations: dict[str, OperationPlan] = {}
    _pardis_ctx: ServantContext | None = None

    @property
    def ctx(self) -> ServantContext:
        if self._pardis_ctx is None:
            raise RuntimeError("servant is not activated")
        return self._pardis_ctx

    @property
    def comm(self) -> Intracomm | None:
        return self.ctx.comm

    @property
    def rank(self) -> int:
        return self.ctx.rank

    @property
    def size(self) -> int:
        return self.ctx.size

    def sequence(
        self,
        typedef: Any,
        length: int,
        template: DistTemplate | None = None,
    ) -> DistributedSequence:
        """Create a result sequence distributed over the server group."""
        return typedef.create(length, comm=self.comm, template=template)

    def service_pending(self, max_requests: int = 1) -> int:
        """Interrupt the current computation to serve queued requests.

        Paper §2.1: "PARDIS also allows the server to interrupt its
        computation in order to process outstanding requests."
        Collective: every computing thread of the object must call it
        at the same point.  Processes up to ``max_requests`` requests
        already queued on the object's request port (never blocks
        waiting for new ones) and returns how many were served.
        """
        fn = self.ctx.service_fn
        if fn is None:
            raise RuntimeError(
                "service_pending is only available on an activated "
                "servant"
            )
        return fn(max_requests)


# ---------------------------------------------------------------------------
# Server-side request execution
# ---------------------------------------------------------------------------


def _agree_outcome(
    ctx: ServantContext, outcome: tuple[str, Any]
) -> tuple[str, Any]:
    """All ranks must deliver the same outcome class; on disagreement
    every rank adopts one canonical failure.

    Disagreement has two faces: a genuinely broken SPMD servant (some
    ranks return, others raise — an INTERNAL error), and a rank-local
    delivery failure (one rank's request chunks never arrived, the
    others assembled fine).  The vote carries system-failure payloads
    so the second case surfaces as the real failure — lowest-rank
    system outcome wins — keeping its category (COMM_FAILURE is
    retryable under a client fault-tolerance policy; INTERNAL is not).
    """
    votes = ctx.comm.allgather(
        (outcome[0], outcome[1] if outcome[0] == "system" else None)
    )
    kinds = [kind for kind, _ in votes]
    if all(k == kinds[0] for k in kinds):
        return outcome
    for kind, payload in votes:
        if kind == "system":
            return ("system", payload)
    return (
        "system",
        (
            "INTERNAL",
            f"SPMD servant diverged: outcomes {sorted(set(kinds))} "
            f"across threads",
        ),
    )


def _engine_failure(exc: Exception) -> tuple[str, Any]:
    """An engine-level exception as a votable ``'system'`` outcome."""
    if isinstance(exc, RemoteError):
        return ("system", (exc.category, str(exc)))
    category = (
        "COMM_FAILURE" if isinstance(exc, TransportError) else "MARSHAL"
    )
    return ("system", (category, f"{type(exc).__name__}: {exc}"))


def _error_reply(
    request: RequestMessage, outcome: tuple[str, Any]
) -> ReplyMessage:
    kind, payload = outcome
    if kind == "user":
        return ReplyMessage(
            request.request_id,
            wire.STATUS_USER_EXCEPTION,
            encode_user_exception(payload),
        )
    category, message = payload
    return ReplyMessage(
        request.request_id,
        wire.STATUS_SYSTEM_EXCEPTION,
        encode_system_exception(category, message),
    )


class _ServerEngine:
    """Executes one request on one rank (all ranks run this in
    lockstep)."""

    def __init__(
        self,
        ctx: ServantContext,
        servant: Servant,
        cache: ReplyCache | None = None,
    ) -> None:
        self.ctx = ctx
        self.servant = servant
        #: The group's reply cache (request dedup); ``None`` when the
        #: object was activated without ``reply_cache_bytes``.
        self.cache = cache
        #: Set on rank 0 (the communicating thread, so each request is
        #: released exactly once): the fabric's server governor, whose
        #: admission slot a request gives back as it leaves here.
        self.governor: Any = None

    # -- shared ----------------------------------------------------------

    def _reply(self, request: RequestMessage, reply: ReplyMessage) -> None:
        if self.ctx.rank != 0:
            return
        if request.oneway or request.reply_port is None:
            if self.cache is not None:
                # No reply to replay, but the executed id must still
                # swallow duplicate deliveries forever.
                self.cache.record_reply(request.request_id, None)
            return
        port = self.ctx.request_port or self.ctx.data_port
        head = port.template(request.reply_port, KIND_REPLY, None, ReplyHead)
        frame = head.reply(reply)
        if self.cache is not None:
            # Settled before the reply leaves: a client that has the
            # reply may send the same id again at once, and that
            # retry must find the entry complete, not in progress
            # (which drops it unanswered).
            if reply.status == wire.STATUS_SYSTEM_EXCEPTION:
                # The request did not run to completion; the correct
                # answer to a retry is to re-execute it.
                self.cache.forget(request.request_id)
            else:
                self.cache.record_reply(request.request_id, head.message(frame))
        try:
            head.route.send(frame)
        except TransportError:
            # The client went away; its reply is undeliverable — and
            # no reason for rank 0 to leave the lockstep of its peers.
            pass

    def execute(self, request: RequestMessage) -> None:
        plan = self.servant._operations.get(request.operation)
        try:
            if plan is None:
                raise RemoteError(
                    f"interface {self.servant._interface!r} has no "
                    f"operation {request.operation!r}",
                    category="BAD_OPERATION",
                )
            self._invoke(request, plan, path_for(request.mode))
        except Exception as exc:  # noqa: BLE001 - reported to the client
            # Engine-level failure: report if this rank owns the reply
            # channel.  Transport trouble is COMM_FAILURE — retryable
            # under a client fault-tolerance policy — while marshaling
            # and schedule mismatches are MARSHAL (retrying cannot
            # help).
            self._reply(
                request, _error_reply(request, _engine_failure(exc))
            )
        finally:
            # This rank is finished with the request: chunks that no
            # collect took (an error exit, or chunks landing after the
            # answer) now age out of the inbox.
            self.ctx.inbox.done(request.request_id)
            if self.governor is not None:
                self.governor.request_done(request.request_id)

    def _invoke(
        self, request: RequestMessage, plan: OperationPlan, path: DataPath
    ) -> None:
        """The server side of an invocation, by either transfer method
        — the one place its stage sequence is spelled: arguments in,
        delivery agreement, servant call and outcome agreement,
        post-invoke synchronization, results out.  Where the argument
        data flows is ``path``'s business (:mod:`repro.orb.datapath`).
        """
        ctx = self.ctx
        root = ctx.rank == 0
        span_kw = dict(
            trace_id=request.trace_id, side="server", rank=ctx.rank
        )
        xfer_span = span_or_null(
            ctx.trace, "transfer", op=plan.name, engine=path.mode,
            request_id=request.request_id, **span_kw,
        )
        # Rank 0 decodes the header body.  Its *outcome* rides the
        # broadcast that carries the plain arguments to the peers, so
        # a malformed body is every rank's error exit at the same
        # collective point — not rank 0's alone, with the peers left
        # waiting to consume the next request's broadcast as this
        # one's arguments.
        decoded = delivery = None
        if root:
            try:
                # Plain arguments come back detached from the receive
                # buffer: servants may mutate them.
                decoded = plan.request[path.receipt_is_rank_local].decode(
                    request.body
                )
                plain = decoded
                if plan.dist_request:
                    # Whole arrays (through-root) stay on rank 0.
                    plain = list(decoded)
                    for i, *_ in plan.dist_request:
                        plain[i] = None
                delivery = ("ok", plain)
            except Exception as exc:  # noqa: BLE001 - voted, sent to client
                delivery = _engine_failure(exc)
        if ctx.rts is not None:
            delivery = ctx.rts.broadcast(delivery, root=0)
        if delivery[0] == "ok":
            args = delivery[1]
            try:
                placed = (
                    path.receive_arguments(ctx, request, plan, decoded)
                    if plan.dist_request else {}
                )
            except Exception as exc:  # noqa: BLE001 - voted, sent to client
                delivery = _engine_failure(exc)
            if path.receipt_is_rank_local and ctx.comm is not None:
                # Every rank received on its own data port, so a
                # failure — request chunks that never arrived, a bad
                # layout — is this rank's alone.  Agree that every
                # rank assembled its arguments before anyone enters
                # the servant, whose body may contain collectives that
                # would wedge against a rank that is unwinding.
                delivery = _agree_outcome(ctx, delivery)
                if delivery[0] != "ok" and ctx.rts is not None:
                    ctx.rts.synchronize()
        if delivery[0] != "ok":
            xfer_span.note(outcome=delivery[0]).end()
            self._reply(request, _error_reply(request, delivery))
            return
        for i, _name, tc in plan.dist_request:
            layout, local = placed[i]
            args[i] = DistributedSequence(
                layout.length,
                dtype=tc.element_dtype,
                comm=ctx.comm,
                bound=tc.bound,
                _layout=layout,
                _local=local,
            )
        xfer_span.end()

        disp_span = span_or_null(
            ctx.trace, "dispatch", op=plan.name, **span_kw
        )
        outcome = plan.dispatch(self.servant, args)
        if ctx.comm is not None:
            outcome = _agree_outcome(ctx, outcome)
        # "After the invocation the server's computing threads
        # synchronize and the communicating thread informs the client."
        if ctx.rts is not None:
            ctx.rts.synchronize()
        disp_span.note(outcome=outcome[0]).end()

        reply_span = span_or_null(ctx.trace, "reply", **span_kw)
        if outcome[0] != "ok":
            self._reply(request, _error_reply(request, outcome))
            reply_span.note(status=outcome[0]).end()
            return
        results = values = outcome[1]
        dist_layouts: tuple = ()
        if plan.staged:
            values, dist_layouts = path.stage_results(
                ctx, request, plan, results
            )
        if root:
            body = plan.reply[path.receipt_is_rank_local].encode(values)
            self._reply(
                request,
                ReplyMessage(
                    request.request_id, wire.STATUS_OK, body,
                    dist_layouts=dist_layouts,
                ),
            )
            reply_span.note(nbytes=len(body))
        # With a reply cache, each frame sent outside the reply is
        # recorded so a retried request can be answered by replaying
        # it — and the request is done on this rank: drop any late or
        # re-delivered chunks for its id (a retry is answered from the
        # cache, never re-collected).
        if plan.staged:
            record = None
            if self.cache is not None:
                record = partial(self.cache.record_chunks, request.request_id)
            path.ship_results(
                ctx, request, plan, results, dist_layouts, record
            )
        if self.cache is not None:
            ctx.inbox.discard(request.request_id)
        reply_span.end()


# ---------------------------------------------------------------------------
# Dispatch: request intake, the rank loops of a collective group, the
# dispatch pool of a serial one
# ---------------------------------------------------------------------------


@dataclass
class _RequestIntake:
    """What a request frame goes through between the request port and
    execution: the governor's count, decode, reply-cache admission, and
    the release of the count of every frame that goes no further.

    Written once for both kinds of group and run as the request port's
    upcall — on the delivering thread, the socket fabric's event loop
    or a local sender.  What survives is queued on ``sink``, the
    group's :class:`_DispatchPool` or rank 0's :class:`_LockstepLoop`,
    and so is the end of service.  Nothing here blocks, sends, calls
    servant code or touches the group's communicator, which is what
    lets an event loop run it.
    """

    port: Port
    cache: ReplyCache | None
    governor: Any
    sink: Any

    def upcall(self, delivery: Any) -> bool:
        """Consume one delivery.  Service ends — the same way for
        either kind of group — with the shutdown control frame or with
        the port closing under the group (``delivery is None``): the
        sink stops once it has run what was queued before that."""
        if delivery is None or delivery.kind == KIND_CONTROL:
            if delivery is None or delivery.payload == CONTROL_SHUTDOWN:
                self.sink.end()
            return True
        head = delivery.head
        if head is not None and self.governor is not None:
            # Only the event loop's peek sets a head: a frame from a
            # sender on this fabric is not counted, and each exit below
            # releases what was.
            self.governor.admit_request(head.request_id >> 32)
        message = self.admit(delivery.payload, head)
        if message is not None:
            self.sink.dispatch(message)
        return True

    def release(self, request_id: int) -> None:
        if self.governor is not None:
            self.governor.request_done(request_id)

    def admit(
        self, payload: Any, head: Any = None
    ) -> RequestMessage | None:
        """The request to execute, or ``None`` for a frame that ends
        here: garbage, a duplicate of a request still executing, or a
        retry the cache answers.  ``head`` is the delivering loop's
        peek, when it took one (and then the request was counted)."""
        try:
            message = wire.decode_request(payload, head)
        except Exception:
            # Garbage on the wire must not kill the object: drop the
            # datagram and keep serving — but release its count if the
            # header was sound enough for the event loop to peek.
            if head is not None:
                self.release(head.request_id)
            return None
        if self.cache is not None:
            verdict = self.cache.admit(message.request_id)
            if verdict == "replay":
                # Already executed: answered from the cache without
                # touching the servant (effectively-once).  A replay
                # sends, so it is queued for a thread that may block —
                # in its client's turn.
                self.sink.dispatch(message, run=self.replay)
                return None
            if verdict == "in-progress":
                # The original attempt is still executing; its reply
                # will answer the retry too.  The retry's own
                # admission slot is released here.
                self.release(message.request_id)
                return None
        return message

    def replay(self, message: RequestMessage) -> None:
        """Re-send a recorded reply for a retried request.

        Result chunks are replayed first (a multiport client collects
        them against the same request id), then the reply frame.  A
        reply-expecting retry whose frame is not recorded yet — the
        entry was evicted, or chunk recording raced ahead of the reply
        on a collective group — is silently dropped: the client's next
        retry will find either a complete entry or a fresh execution.
        Either way the retry's admission slot is released here.
        """
        reply, chunks = self.cache.replay(message.request_id)
        try:
            if message.reply_port is not None and reply is None:
                return
            for dst_rank, frames in chunks.items():
                if dst_rank >= len(message.client_data_ports):
                    continue
                dest = message.client_data_ports[dst_rank]
                for frame in frames:
                    self.port.send(dest, frame, KIND_DATA)
            if message.reply_port is not None:
                self.port.send(message.reply_port, reply, KIND_REPLY)
        except TransportError:
            # The retrying client vanished mid-replay; the cache entry
            # stays for the next attempt.
            pass
        finally:
            self.release(message.request_id)


class _LockstepLoop:
    """Where a collective group's requests execute: on every rank's
    own thread, in lockstep — the engine runs collectives that need
    them all.  Each rank has one; rank 0's also holds the queue the
    request port's upcall fills, and rank 0 — the communicating thread
    — delivers a request to its peers *when it dequeues it*: the
    body-less header, buffered point-to-point on the group
    communicator.  (``service_pending`` cannot wait for a header that
    may not come, so there the delivery is a broadcast, which is also
    the ranks' agreement on whether there is a request at all.)
    """

    def __init__(self, engine: _ServerEngine) -> None:
        self._engine = engine
        #: Read at each use, not copied: a servant factory may have
        #: put an observing delegate in place of ``comm``/``rts``.
        self._ctx = engine.ctx
        #: Rank 0: ``(run, request)`` in arrival order — ``run`` is
        #: ``None`` for a request to execute, else what answers it
        #: without the peers (a cache replay); a bare ``None`` is the
        #: end of service.
        self._pending: queue.SimpleQueue[Any] = queue.SimpleQueue()

    def dispatch(self, request: RequestMessage, run: Any = None) -> None:
        self._pending.put((run, request))

    def end(self) -> None:
        self._pending.put(None)

    def _dequeue(self, block: bool) -> RequestMessage | None:
        """Rank 0: the next request to execute, having answered the
        replays queued ahead of it.  ``None`` at the end of service
        (sticky) or, not blocking, when nothing is queued right now."""
        while True:
            try:
                item = self._pending.get(block)
            except queue.Empty:
                return None
            if item is None:
                self._pending.put(None)
                return None
            run, request = item
            if run is None:
                return request
            run(request)

    def _next_request(self) -> RequestMessage | None:
        """"Delivered to all the computing threads" (§2): rank 0 takes
        the next queued request and sends its header to the peers,
        which wait for it; ``None`` ends the loop on every rank."""
        ctx = self._ctx
        if ctx.rank == 0:
            request = self._dequeue(block=True)
            # Peers need the header only; rank 0 keeps the original
            # (its body may be a buffer view, which does not pickle).
            header = request.without_body() if request is not None else None
            try:
                for peer in range(1, ctx.size):
                    ctx.comm.send(header, peer, tag=_TAG_HEADER)
            except GroupAbortedError:
                # The peers are gone: the engine's first collective
                # says so, in an error reply to the client.
                pass
            return request
        while True:
            try:
                return ctx.comm.recv(source=0, tag=_TAG_HEADER)
            except DeadlockError:
                # An idle object, not a deadlock: no request arrived
                # for a whole timeout window.  Keep waiting — a dying
                # rank aborts the group and raises GroupAbortedError
                # here instead.
                continue
            except GroupAbortedError:
                return None

    def run(self) -> None:
        while (request := self._next_request()) is not None:
            self._engine.execute(request)

    def service(self, max_requests: int) -> int:
        """``service_pending`` for a collective object: drain
        already-queued requests mid-computation (§2.1), the same ones
        on every rank.  It always ends at a broadcast of no request: a
        peer leaves only once rank 0 has sent the last reply, which
        may read result blocks the peer lent it."""
        ctx = self._ctx
        processed = 0
        while True:
            request = None
            if ctx.rank == 0 and processed < max_requests:
                request = self._dequeue(block=False)
            header = ctx.rts.broadcast(
                request.without_body() if request is not None else None,
                root=0,
            )
            if header is None:
                return processed
            self._engine.execute(request if ctx.rank == 0 else header)
            processed += 1


class _DispatchPool:
    """Where a serial (single-thread) group's requests execute: on its
    rank thread, plus up to ``DISPATCH_THREADS - 1`` more threads
    started as clients overlap.

    Work is queued per client identity (the request id's high bits)
    and an identity is never on two threads at once, so one client's
    requests execute in send order; a ready-ring round-robins the
    threads across clients, so a client with a thousand queued
    requests cannot starve a client with one.  Any thread may pick up
    any client.

    :meth:`dispatch` never blocks — it runs on the delivering thread,
    which may be an event loop; what bounds the queues is the
    governor's backpressure, upstream of it.  Parked threads form a
    stack: new work wakes the *most recently idled* one, and exactly
    one, and a thread that finishes a request takes the next one
    itself, so a single client's stream stays on the rank thread.
    Only when a client's work becomes runnable and no thread is parked
    does :meth:`dispatch` start another.

    Collective groups never use the pool; their engine runs
    collectives that need every rank in lockstep
    (:class:`_LockstepLoop`).
    """

    def __init__(self, engine: _ServerEngine, name: str) -> None:
        self._engine = engine
        self._name = name
        self._lock = threading.Lock()
        self._stopping = False
        #: identity -> queued work; the ring of identities with
        #: runnable work (queued, not on a thread); identities on a
        #: thread right now.
        self._queues: dict[int, deque[tuple]] = {}
        self._ready: deque[int] = deque()
        self._active: set[int] = set()
        #: The rank thread starts parked, so the first request wakes it
        #: even if it arrives before :meth:`run` is entered.
        self._rank_wake = threading.Lock()
        self._rank_wake.acquire()
        #: The wake locks of parked threads, most recently idled last.
        self._idle: list[Any] = [self._rank_wake]
        #: The threads started beside the rank thread.
        self._threads: list[threading.Thread] = []

    def dispatch(self, request: RequestMessage, run: Any = None) -> None:
        """Queue ``run(request)`` — the engine's ``execute`` unless
        given — under the request's client identity."""
        work = (run or self._engine.execute, request)
        key = request.request_id >> 32
        with self._lock:
            queued = self._queues.get(key)
            if queued is not None:
                queued.append(work)  # behind work already in the ring
                return
            self._queues[key] = deque((work,))
            if key in self._active:
                return  # runnable once its predecessor is done
            self._ready.append(key)
            if self._idle:
                self._idle.pop().release()
                return
            if self._stopping or len(self._threads) >= DISPATCH_THREADS - 1:
                return
            wake = threading.Lock()
            wake.acquire()
            name = f"{self._name}:dispatch{len(self._threads) + 1}"
            thread = threading.Thread(
                target=self._work, args=(wake,), name=name, daemon=True
            )
            # ``start`` waits only for the new thread to exist, not for
            # this lock, which its first ``_take`` then waits for.
            try:
                thread.start()
            except RuntimeError:
                return  # the work stays queued for the threads that exist
            self._threads.append(thread)

    def _next(self) -> tuple[int, tuple] | None:
        """The next runnable work, if any (lock held)."""
        if not self._ready:
            return None
        key = self._ready.popleft()
        queued = self._queues[key]
        work = queued.popleft()
        if not queued:
            del self._queues[key]
        self._active.add(key)
        return key, work

    def _done(self, key: int) -> bool:
        """``key``'s work has run (lock held).  With more queued under
        it, the key rejoins the *back* of the ready ring (round-robin);
        returns whether it did."""
        self._active.discard(key)
        if key in self._queues:
            self._ready.append(key)
            return True
        return False

    @staticmethod
    def _execute(work: tuple) -> None:
        run, request = work
        try:
            run(request)
        except Exception:
            # Even the error reply failed to send (client gone):
            # there is nobody left to report to.
            pass

    def _take(
        self, wake: Any, done: tuple[int, tuple] | None
    ) -> tuple[int, tuple] | None:
        """Retire ``done``, the work this thread just ran, and block
        until work is runnable; ``None`` once the pool is stopping and
        drained as far as this thread can tell (what is still queued
        then belongs to identities running on other threads, which
        re-ring and run it).  Retiring and taking share one critical
        section, so a re-rung identity is this thread's to run: no
        parked thread is woken for it, only to find nothing and park
        again."""
        while True:
            with self._lock:
                if done is not None:
                    self._done(done[0])
                    done = None
                taken = self._next()
                if taken is not None or self._stopping:
                    return taken
                self._idle.append(wake)
            wake.acquire()  # parked until dispatch() or end()

    def _work(self, wake: Any) -> None:
        taken = None
        while True:
            # ``taken`` keeps the last request, and the receive buffer
            # under it, alive while the thread is parked in ``_take``.
            # Dropping it first makes that buffer's free race the
            # event loop's next allocation, and the process's peak RSS
            # timing-dependent (8 MiB echoes: 98-114 MB run to run
            # instead of a steady 106).
            taken = self._take(wake, taken)
            if taken is None:
                return
            self._execute(taken[1])

    def service(self, max_requests: int) -> int:
        """``service_pending`` for a serial object: run up to
        ``max_requests`` already-runnable requests on the calling
        servant's thread, never waiting for one.  Runnable is what an
        idle thread could take: other clients' requests (the caller's
        own client's later ones stay behind the one executing)."""
        processed = 0
        while processed < max_requests:
            with self._lock:
                taken = self._next()
            if taken is None:
                break
            key, work = taken
            self._execute(work)
            with self._lock:
                # A servant is not on its way back to the ring: a
                # re-rung identity wakes a parked thread.
                if self._done(key) and self._idle:
                    self._idle.pop().release()
            processed += 1
        return processed

    def end(self) -> None:
        """The end of service: every thread finishes what is queued,
        then exits.  Never blocks — it runs on the delivering thread."""
        with self._lock:
            self._stopping = True
            while self._idle:
                self._idle.pop().release()

    def run(self) -> None:
        """The rank thread: the pool's first thread, parked until the
        first request.  Returns once the pool is stopping and drained,
        having joined the threads it started."""
        self._rank_wake.acquire()
        self._work(self._rank_wake)
        deadline = clock.now() + 10.0
        for thread in self._threads:  # final: the pool is stopping
            thread.join(deadline - clock.now())


# ---------------------------------------------------------------------------
# The servant group: activation + dispatch loop
# ---------------------------------------------------------------------------


class ServantGroup:
    """One activated SPMD object: threads, ports, naming entry."""

    def __init__(
        self,
        fabric: Fabric,
        naming: Any,
        name: str,
        servant_factory: Callable[[ServantContext], Servant],
        nthreads: int,
        *,
        host: str = "",
        multiport: bool = True,
        templates: dict[tuple[str, str], Any] | None = None,
        reply_cache_bytes: int = 0,
        request_timeout: float = 60.0,
        trace: Any = None,
    ) -> None:
        if nthreads <= 0:
            raise ValueError("an SPMD object needs at least one thread")
        if request_timeout <= 0:
            raise ValueError("request_timeout must be positive")
        self.fabric = fabric
        self.naming = naming
        self.name = name
        self.host = host
        self.nthreads = nthreads
        self.multiport = multiport
        self.trace = trace
        self._servant_factory = servant_factory
        self._templates = {
            key: template_to_spec(value)
            for key, value in (templates or {}).items()
        }
        #: Request dedup for client retries (ISSUE ft pillar 3).  Off
        #: by default: without it a retried request re-executes
        #: (at-least-once); with a byte budget, replies are recorded
        #: and replayed so retries become effectively-once.
        self.reply_cache = (
            ReplyCache(reply_cache_bytes) if reply_cache_bytes else None
        )
        #: Bound on a dispatched request's waits (chunk collection):
        #: a half-delivered request frees its dispatch slot after this
        #: long instead of pinning it for the default minute.
        self.request_timeout = request_timeout
        self._executor = SpmdExecutor(
            nthreads, name=f"server:{name}", backend="thread"
        )
        self._handle: SpmdHandle | None = None
        self._request_port: Port | None = None
        self._data_ports: list[Port] = []
        self._ref: ObjectReference | None = None
        self._activation = threading.Condition()
        #: Rank 0's activation: ``None`` while under way, then whether
        #: the group started.
        self._started: bool | None = None
        self._repo_id = ""

    @property
    def reference(self) -> ObjectReference:
        if self._ref is None:
            raise RuntimeError(f"servant group '{self.name}' not started")
        return self._ref

    def start(self) -> None:
        """Open ports, register with naming, start dispatch threads."""
        if self._handle is not None:
            raise RuntimeError("servant group already started")
        self._request_port = self.fabric.open_port(
            f"{self.name}:request"
        )
        self._data_ports = [
            self.fabric.open_port(f"{self.name}:data{r}")
            for r in range(self.nthreads)
        ]
        self._handle = self._executor.spawn(self._rank_main)
        # Wait for activation, failing fast if the servant factory (or
        # any rank, which aborts rank 0's barrier) dies first.
        with self._activation:
            clock.wait_for(
                self._activation, lambda: self._started is not None, 30.0
            )
        if not self._started:
            handle, self._handle = self._handle, None
            self._close_ports()
            handle.join(timeout=5)  # raises the dead rank's SpmdError
            raise RuntimeError(
                f"servant group '{self.name}' failed to activate"
            )
        data_addresses = (
            tuple(p.address for p in self._data_ports)
            if self.multiport
            else ()
        )
        self._ref = ObjectReference(
            object_key=self.name,
            repo_id=self._repo_id,
            request_port=self._request_port.address,
            data_ports=data_addresses,
            param_templates=tuple(sorted(self._templates.items())),
        )
        try:
            self.naming.bind(self.name, self._ref, host=self.host)
        except BaseException:
            # Not advertised (a duplicate name, an unreachable naming
            # object): the activated ranks and ports must not outlive
            # the failed call — nobody holds the group to shut it down.
            self._ref = None
            self._stop()
            raise

    def _rank_main(self, rank_ctx: Any) -> None:
        try:
            self._serve(rank_ctx)
        finally:
            if rank_ctx.rank == 0:
                self._request_port.upcall = None
                self._activated(False)  # a no-op once started

    def _activated(self, started: bool) -> None:
        with self._activation:
            if self._started is None:
                self._started = started
            self._activation.notify_all()

    def _serve(self, rank_ctx: Any) -> None:
        comm = rank_ctx.comm
        ctx = ServantContext(
            rank=rank_ctx.rank,
            size=self.nthreads,
            comm=comm if self.nthreads > 1 else None,
            rts=rts_for(comm) if self.nthreads > 1 else None,
            request_port=(
                self._request_port if rank_ctx.rank == 0 else None
            ),
            data_port=self._data_ports[rank_ctx.rank],
            inbox=Inbox(self._data_ports[rank_ctx.rank], self.request_timeout),
            fabric=self.fabric,
            templates=self._templates,
            trace=self.trace,
            timeout=self.request_timeout,
        )
        servant = self._servant_factory(ctx)
        if not isinstance(servant, Servant):
            raise TypeError(
                f"servant factory returned {type(servant).__name__}, "
                f"not a Servant"
            )
        servant._pardis_ctx = ctx
        if self.nthreads > 1:
            # Activation is all or nothing: a rank whose factory raised
            # has aborted the group, which fails this barrier on the
            # others — rank 0 never advertises an object some of whose
            # computing threads do not exist.
            comm.barrier()
        engine = _ServerEngine(ctx, servant, cache=self.reply_cache)
        # The two kinds of group differ in who drains the queue of
        # admitted requests, and in nothing before it: the threads of
        # a pool, or the rank loops in lockstep.
        drain: Any = (
            _DispatchPool(engine, f"server:{self.name}")
            if ctx.rts is None
            else _LockstepLoop(engine)
        )
        ctx.service_fn = drain.service
        if ctx.rank == 0:
            self._repo_id = servant._repo_id
            engine.governor = self.fabric.governor
            # Installed before the object is advertised: a request
            # that found the port without it would sit in a queue
            # nobody reads.
            self._request_port.upcall = _RequestIntake(
                self._request_port, self.reply_cache, engine.governor, drain
            ).upcall
            self._activated(True)
        drain.run()

    def _close_ports(self) -> None:
        for port in [self._request_port, *self._data_ports]:
            if port is not None and not port.closed:
                port.close()

    def kill(self, timeout: float = 30.0) -> None:
        """Crash the object: close its ports abruptly, *without*
        unregistering from naming or draining queued requests.

        This is the fault-injection counterpart of :meth:`shutdown`
        (``repro.groups`` uses it to fail one replica of a group):
        the naming entry stays behind like a dead process's would, and
        clients discover the failure the way they would for a real
        crash — sends to the closed ports raise
        :class:`~repro.orb.transport.TransportError`, pending receives
        never complete.  The dispatch threads themselves wind down
        (the closing request port tells its upcall, which ends the
        service of either kind of group: what was already queued still
        runs, then the rank threads exit), so a killed group leaks no
        threads.  Idempotent; ``shutdown`` afterwards is safe and only
        removes the naming entry.
        """
        if self._handle is None:
            return
        self._close_ports()
        handle, self._handle = self._handle, None
        try:
            handle.join(timeout)
        except Exception:
            # The ranks died of the port close — that is the point.
            pass

    def _stop(self, timeout: float = 30.0) -> None:
        """Stop the dispatch loops and close the ports (a no-op on a
        group already stopped or killed)."""
        if self._handle is None:
            return
        if self._request_port is not None and not self._request_port.closed:
            self.fabric.send(
                self._data_ports[0].address
                if self._data_ports
                else self._request_port.address,
                self._request_port.address,
                CONTROL_SHUTDOWN,
                KIND_CONTROL,
            )
        try:
            self._handle.join(timeout)
        finally:
            self._handle = None
            self._close_ports()

    def shutdown(self, timeout: float = 30.0) -> None:
        """Stop the dispatch loops and unregister."""
        try:
            self._stop(timeout)
        finally:
            try:
                self.naming.unbind(self.name, host=self.host)
            except Exception:
                pass
