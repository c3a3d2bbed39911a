"""Distributed-argument transfer (paper §3): the client invocation
engine and the machinery both transfer methods share.

The two methods run one invocation contract.  Each side designates a
*communicating thread* (rank 0); on invocation the client's threads
synchronize, the invocation header travels between the communicating
threads — "sending the invocation to every computing thread … could
lead to contention between different invoking clients" (§3.3) — all
server threads execute, synchronize, and one reply comes back.
:func:`invoke_begin` spells that sequence once for the client
(``_ServerEngine`` in :mod:`repro.orb.adapter` does for the server),
parameterised by a :class:`~repro.orb.datapath.DataPath` that decides
where the argument *data* flows: **centralized** (§3.2, Figure 2:
gathered to rank 0, one network message, scattered) or **multi-port**
(§3.3, Figure 3: chunks straight between the owning threads' ports).

This module also holds what both paths build on: the :class:`Inbox`
that files replies and chunks, the chunk senders, the exception
codecs, and the per-invocation state with its fault-tolerance
control.

What travels in the header frames — body codecs, slot positions,
which values are distributed — is the operation's compiled
:class:`~repro.orb.operation.OperationPlan`, which also states the
servant/result convention both methods share.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from functools import lru_cache
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from repro import clock
from repro.cdr.accounting import copied
from repro.cdr.decoder import CdrDecoder
from repro.cdr.encoder import CdrEncoder
from repro.cdr.typecodes import DSequenceTC, MarshalError
from repro.dist import BlockTemplate, DistributedSequence, Layout
from repro.dist.schedule import TransferStep, tiling_fault
from repro.ft.agreement import agree, agree_failure
from repro.ft.policy import (
    DeadlineExceeded,
    Failure,
    effective_policy,
    failure_to_exception,
    reconstruct_error,
)
from repro.idl.runtime import template_from_spec
from repro.orb import request as wire
from repro.orb.operation import (
    OperationPlan,
    RemoteError,
    UserException,
    compose,
)
from repro.orb.reference import ObjectReference
from repro.orb.request import ChunkHead, DataChunk, ReplyMessage, RequestHead
from repro.orb.transport import (
    KIND_DATA,
    KIND_REPLY,
    KIND_REQUEST,
    Port,
    TransportError,
    TransportTimeout,
    _Delivery,
)
from repro.trace.span import span_or_null

if TYPE_CHECKING:
    from repro.orb.datapath import DataPath
    from repro.orb.proxy import ClientRuntime


@lru_cache(maxsize=256)
def template_layout(
    spec_tuple: tuple | None, length: int, nthreads: int
) -> Layout:
    """Where a distributed value of ``length`` elements lives over
    ``nthreads`` threads by a template spec: the servant's registered
    template on the server side, the caller's preset one for a value
    returned to the client — uniform blockwise without one (§2.2
    default).  A :class:`~repro.dist.Layout` is frozen, so one is kept
    per (spec, length, threads) for every call that asks again."""
    template = template_from_spec(spec_tuple) or BlockTemplate()
    return template.layout(length, nthreads)


# ---------------------------------------------------------------------------
# The inbox: one consumer for a port that receives replies and chunks
# ---------------------------------------------------------------------------


class Inbox:
    """Files the replies and data chunks a port receives, as they are
    delivered, for whoever waits on them.

    Installed as the port's ``upcall``, the inbox decodes and files
    each frame on the thread that delivers it (a socket fabric's event
    loop, or the sender itself in-process): replies by request id —
    a pipelined client has several in flight, answered in any order —
    and chunks by ``(request id, param, phase)``, so an engine waits
    for exactly the set its transfer schedule predicts.  Any number of
    threads may wait at once, on one condition (a server's dispatch
    pool does; so does a client whose runtime is shared).

    Within a chunk entry, chunks are filed by their schedule
    coordinates ``(src rank, global range)`` — the ranges of one
    (request, param, phase) partition the destination block, so a
    re-delivered chunk (a duplicated frame, or a retry re-sending data
    that already landed) replaces its original instead of inflating
    the count toward ``expected``.  The upcall never raises: an
    undecodable frame, or one of another kind, is dropped and counted.

    Nothing is held forever.  A failed ``collect`` evicts its partial
    entry; :meth:`discard` evicts a request's reply and chunks and
    retires its id, so late frames for it are dropped on arrival; and
    once the owner has marked a request :meth:`done`, its chunk
    entries — those still filed, and any that arrive later, such as
    the chunks of a request answered before they landed — are dropped
    at the next filing after no frame has touched them for
    ``timeout``.  An id is never retired on ``done``: a retry without
    a reply cache re-sends its chunks under the same id, and
    :meth:`collect` takes the id back from aging.  Entries of requests
    not yet done (queued, or being collected) and every entry of an
    inbox whose ``timeout`` is ``None`` (a client's) are kept until
    collected or discarded.
    """

    #: How many finished (done or discarded) request ids to remember.
    MAX_RETIRED = 1024

    def __init__(self, port: Port, timeout: float | None = None) -> None:
        self.port = port
        self.timeout = timeout
        self._cond = threading.Condition()
        self._replies: dict[int, ReplyMessage] = {}
        #: ``(request id, param, phase) -> chunks by coordinates``.
        self._chunks: dict[
            tuple[int, str, int], dict[tuple[int, int, int], DataChunk]
        ] = {}
        #: The chunk entries of done requests, by when a frame last
        #: touched them, least recently touched first.
        self._aging: dict[tuple[int, str, int], float] = {}
        #: Finished request ids, oldest first: ``True`` once
        #: discarded (late frames are dropped), ``False`` once done
        #: (its chunk entries age).
        self._finished: OrderedDict[int, bool] = OrderedDict()
        self._counts = dict.fromkeys(
            ("duplicates_dropped", "late_dropped", "garbage_dropped",
             "expired"),
            0,
        )
        port.upcall = self._file

    def pending_entries(self) -> int:
        """How many replies and (request, param, phase) chunk entries
        are held."""
        with self._cond:
            return len(self._replies) + len(self._chunks)

    def stats(self) -> dict[str, int]:
        """Drop counters: duplicate, post-retirement, undecodable and
        expired."""
        with self._cond:
            return dict(self._counts)

    def _file(self, delivery: _Delivery | None) -> bool:
        """The port's upcall."""
        if delivery is None:
            # The port is closing: waiters wake and find it closed.
            with self._cond:
                self._cond.notify_all()
            return True
        try:
            item = _DECODERS[delivery.kind](delivery.payload)
        except Exception:  # undecodable, or a kind an inbox never files
            item = None
        with self._cond:
            if item is None:
                self._counts["garbage_dropped"] += 1
            elif self._finished.get(item.request_id):
                self._counts["late_dropped"] += 1
            elif isinstance(item, ReplyMessage):
                self._replies[item.request_id] = item
            else:
                key = (item.request_id, item.param, item.phase)
                entry = self._chunks.setdefault(key, {})
                coord = (item.src_rank, item.global_lo, item.global_hi)
                if coord in entry:
                    self._counts["duplicates_dropped"] += 1
                entry[coord] = item
                if item.request_id in self._finished:
                    self._aging.pop(key, None)
                    self._aging[key] = clock.now()
            if self._aging and self.timeout is not None:
                # Aging entries are in last-touched order: the sweep
                # stops at the first one still fresh.
                fresh = clock.now() - self.timeout
                while self._aging:
                    key, touched = next(iter(self._aging.items()))
                    if touched >= fresh:
                        break
                    del self._aging[key], self._chunks[key]
                    self._counts["expired"] += 1
            self._cond.notify_all()
        return True

    def _wait(
        self, ready: Any, timeout: float | None, what: Callable[[], str]
    ) -> Any:
        """``ready()``'s first true result, waiting for frames to be
        filed until the port closes (``ready()`` is then ``True``) or
        time runs out."""
        with self._cond:
            got = clock.wait_for(self._cond, ready, timeout)
        if got is True:
            raise TransportError(
                f"port {self.port.address} closed while {what()}"
            )
        if not got:
            raise TransportTimeout(f"timed out {what()}")
        return got

    def reply(self, request_id: int, timeout: float | None) -> ReplyMessage:
        """Block until the reply for ``request_id`` is filed."""
        replies, port = self._replies, self.port
        return self._wait(
            lambda: replies.pop(request_id, None) or port.closed,
            timeout,
            lambda: f"waiting for the reply to request {request_id}",
        )

    def collect(
        self,
        request_id: int,
        param: str,
        phase: int,
        expected: int,
        timeout: float | None = 60.0,
    ) -> list[DataChunk]:
        """Block until ``expected`` chunks for the key are filed.

        On failure the key's partial entry is evicted, so a timed-out
        request never strands chunks here."""
        key = (request_id, param, phase)
        with self._cond:
            if self._finished.get(request_id) is False:
                # A retry of a done request: its entries stop aging.
                del self._finished[request_id]
                for k in [k for k in self._aging if k[0] == request_id]:
                    del self._aging[k]
        if expected <= 0:
            return []

        def ready() -> list[DataChunk] | bool:
            entry = self._chunks.get(key)
            if entry is not None and len(entry) >= expected:
                return list(self._evict(key).values())
            return self.port.closed

        try:
            return self._wait(
                ready,
                timeout,
                lambda: f"collecting chunks for request {request_id} "
                f"('{param}')",
            )
        except BaseException:
            with self._cond:
                self._evict(key)
            raise

    def done(self, request_id: int) -> None:
        """The owner is finished with the request: its chunk entries,
        and any that arrive for it later, age from now on."""
        self._finish(request_id, False)

    def discard(self, request_id: int) -> None:
        """Evict an abandoned request's reply and chunks, and drop its
        late arrivals from now on."""
        self._finish(request_id, True)

    def _finish(self, request_id: int, retired: bool) -> None:
        with self._cond:
            if self._finished.get(request_id):
                return  # discarded: its frames are dropped already
            self._finished[request_id] = retired
            self._finished.move_to_end(request_id)
            while len(self._finished) > self.MAX_RETIRED:
                self._finished.popitem(last=False)
            if retired:
                self._replies.pop(request_id, None)
            for key in [k for k in self._chunks if k[0] == request_id]:
                if retired:
                    self._evict(key)
                else:
                    self._aging.pop(key, None)
                    self._aging[key] = clock.now()

    def _evict(self, key: tuple[int, str, int]) -> Any:
        self._aging.pop(key, None)
        return self._chunks.pop(key, None)


#: What the inbox decodes a frame of each kind it files with.
_DECODERS = {KIND_REPLY: wire.decode_reply, KIND_DATA: wire.decode_chunk}


def assemble_chunks(
    chunks: list[DataChunk],
    layout: Layout,
    rank: int,
    dtype: np.dtype,
    out: np.ndarray,
) -> None:
    """Write received chunks into the local block ``out`` of ``rank``.

    The chunks must tile the block exactly — ``out`` may be
    uninitialised memory, and no byte of it may reach a servant
    unwritten."""
    lo, hi = layout.local_range(rank)
    for chunk in chunks:
        if not (lo <= chunk.global_lo <= chunk.global_hi <= hi):
            raise MarshalError(
                f"chunk [{chunk.global_lo}, {chunk.global_hi}) for "
                f"'{chunk.param}' lies outside rank {rank}'s block "
                f"[{lo}, {hi})"
            )
    fault = tiling_fault(
        [(c.global_lo, c.global_hi) for c in chunks], lo, hi
    )
    if fault is not None:
        raise MarshalError(
            f"chunks do not cover rank {rank}'s block [{lo}, {hi}): "
            f"{fault}"
        )
    for chunk in chunks:
        elements = chunk.elements(dtype)
        # The landing store: straight from the chunk payload view into
        # the destination block, the receive side's one copy.
        copied(elements.nbytes)
        out[chunk.global_lo - lo : chunk.global_hi - lo] = elements


def send_chunks(
    port: Port,
    dest_ports: tuple,
    steps: list[TransferStep],
    my_rank: int,
    local: np.ndarray,
    request_id: int,
    param: str,
    phase: int,
    record: Any = None,
) -> None:
    """Ship this rank's outgoing chunks of one parameter.

    ``record(dst_rank, frame_bytes)``, when given, receives every
    encoded chunk frame as it goes out — the server's reply cache
    records reply chunks this way so a retried request can be answered
    by replaying the exact frames.  Recording flattens each frame (a
    copy), so it is reserved for the opt-in dedup path; the default
    path ships the segment views of all but small frames untouched.
    """
    for step in steps:
        if step.src_rank != my_rank:
            continue
        block = local[step.src_slice]
        if not block.flags.c_contiguous:
            block = np.ascontiguousarray(block)
            copied(block.nbytes)
        # Ship a view of the sender's block — the chunk rides to the
        # transport by reference unless the frame is small enough to
        # leave as one buffer.
        payload = memoryview(block).cast("B")
        head = port.template(
            dest_ports[step.dst_rank], KIND_DATA, (param, phase),
            lambda route: ChunkHead(param, phase, route),
        )
        frame = head.chunk(
            request_id, step.src_rank, step.dst_rank, step.global_lo,
            step.global_hi, payload,
        )
        if record is not None:
            record(step.dst_rank, head.message(frame))
        head.route.send(frame)


# ---------------------------------------------------------------------------
# Exception bodies
# ---------------------------------------------------------------------------


def encode_user_exception(exc: UserException) -> bytes:
    """Marshal a declared exception for a user-exception reply."""
    if exc._tc is None:
        raise RemoteError(
            f"user exception {type(exc).__name__} carries no typecode",
            category="MARSHAL",
        )
    enc = CdrEncoder()
    enc.write(exc._tc, exc)
    return enc.getvalue()


def decode_user_exception(
    plan: OperationPlan, body: bytes
) -> UserException:
    """Rebuild the concrete exception a servant raised, matching the
    repository id against the operation's raises clause: an instance
    of the class compiled with the operation."""
    probe = CdrDecoder(body)
    repo_id = probe.read_string()
    exc_tc = plan.raises.get(repo_id)
    if exc_tc is None:
        raise RemoteError(
            f"server raised undeclared exception {repo_id!r}",
            category="UNKNOWN",
        )
    members = CdrDecoder(body).read(exc_tc)
    cls = plan.exceptions.get(repo_id)
    if cls is not None:
        return cls(**members)
    exc = UserException(**members)
    exc._tc = exc_tc
    return exc


def encode_system_exception(category: str, message: str) -> bytes:
    """Marshal a system-exception reply body."""
    enc = CdrEncoder()
    enc.write_string(category)
    enc.write_string(message)
    return enc.getvalue()


def decode_system_exception(body: bytes) -> RemoteError:
    """Rebuild the RemoteError a system-exception reply carries."""
    dec = CdrDecoder(body)
    category = dec.read_string()
    message = dec.read_string()
    return RemoteError(message, category=category)


# ---------------------------------------------------------------------------
# One invocation: shared state and fault-tolerant control
# ---------------------------------------------------------------------------


class ClientInvocation:
    """One invocation on the client: what the engine and its data path
    share about it, and its retry/deadline control.

    Every decision here is a pure function of (canonical failure,
    attempt count, policy) — plus this rank's clock only for *filing*
    a deadline flag before the vote — so the ranks of a collective
    binding stay in lockstep through every retry, degradation and
    raise without extra communication.
    """

    def __init__(
        self,
        runtime: "ClientRuntime",
        ref: ObjectReference,
        plan: OperationPlan,
        args: Sequence[Any],
        layouts: dict[str, Layout],
        out_templates: dict[str, tuple],
        policy: Any,
        request_id: int,
        trace_id: int | None = None,
        group: Any = None,
    ) -> None:
        self.runtime = runtime
        self.ref = ref
        self.plan = plan
        #: The caller's arguments, in request slot order.
        self.args = args
        #: Layouts the distributed arguments were launched with, by name.
        self.layouts = layouts
        #: Preset template specs of out/return values, by slot name.
        self.out_templates = out_templates
        self.policy = policy
        self.request_id = request_id
        #: The binding's :class:`~repro.groups.failover.GroupBinding`,
        #: or None for a singleton binding.
        self.group = group
        #: Trace correlation (``repro.trace``): the recorder, or None
        #: when tracing is off.  The trace id defaults to the *first*
        #: attempt's request id — rank-identical by construction,
        #: since all ranks share one request-id sequence — and is
        #: passed through explicitly when degradation or failover
        #: re-issues the invocation under a fresh request id.
        self.trace = runtime.trace
        if trace_id is None:
            trace_id = request_id if self.trace is not None else 0
        self.trace_id = trace_id
        self.start = clock.now()
        #: Retries performed so far (0 = still on the first attempt).
        self.attempts = 0
        # The invocation's position in the runtime's collective
        # sequence; drawn at launch, in program order, so it is
        # identical on every rank and stable across retries.
        self.collective_index = runtime.next_collective_index()
        self.ft = runtime.ft

    # -- local clock (pre-vote only) -------------------------------------

    def _remaining_deadline(self) -> float | None:
        if self.policy is None or self.policy.deadline_ms is None:
            return None
        return self.policy.deadline_ms / 1e3 - (clock.now() - self.start)

    def attempt_timeout(self) -> float | None:
        """The receive window of the current attempt: the runtime
        timeout, clamped to what is left of the deadline (never below
        1ms, so an overrun surfaces as a fast timeout — at the normal
        protocol point — instead of a divergent local raise)."""
        base = self.runtime.timeout
        remaining = self._remaining_deadline()
        if remaining is None:
            return base
        remaining = max(remaining, 1e-3)
        return remaining if base is None else min(base, remaining)

    def timeout_failure(self, exc: Exception) -> Failure:
        """File a receive timeout, stamping the deadline verdict *now*
        so the post-vote decision never reads a local clock."""
        remaining = self._remaining_deadline()
        return Failure(
            "timeout",
            "TIMEOUT",
            str(exc),
            rank=self.runtime.rank,
            deadline_exhausted=(
                remaining is not None and remaining <= 1e-3
            ),
        )

    # -- post-vote decisions (pure) --------------------------------------

    def next_action(self, failure: Failure) -> str:
        """``"retry"`` / ``"degrade"`` / ``"failover"`` / ``"raise"``
        for the canonical failure — identical on every rank by
        construction.  On a replicated-group binding, a failure the
        policy gives up on fails over to a sibling replica."""
        policy = self.policy
        if policy is None:
            return "raise"
        if failure.kind == "unreachable":
            return "degrade"
        if (
            failure.deadline_exhausted
            or self.attempts >= policy.max_retries
            or not policy.is_retryable(failure)
        ):
            return "raise" if self.group is None else "failover"
        return "retry"

    def before_retry(self) -> None:
        self.attempts += 1
        self.ft["retries"].inc()
        delay = self.policy.backoff_seconds(
            self.attempts, self.request_id
        )
        if delay > 0:
            clock.sleep(delay)

    def note_agreement(self) -> None:
        if self.runtime.rts is not None:
            self.ft["agreements"].inc()

    def note_degraded(self) -> None:
        self.ft["degraded"].inc()

    def failure_exception(self, failure: Failure) -> Exception:
        """The exception every rank raises for a failure the invocation
        gives up on, counted here once."""
        if self.policy is None:
            return reconstruct_error(failure)
        exc = failure_to_exception(
            failure,
            self.policy,
            operation=self.plan.name,
            collective_index=self.collective_index,
            attempts=self.attempts,
        )
        self.ft[
            "deadline_exceeded"
            if isinstance(exc, DeadlineExceeded)
            else "retries_exhausted"
        ].inc()
        return exc


def _retryable_remote(
    policy: Any, status: int, body: bytes | None
) -> Failure | None:
    """A system-exception reply worth retrying, as a filed failure —
    or ``None`` to let the reply propagate normally."""
    if policy is None or status != wire.STATUS_SYSTEM_EXCEPTION:
        return None
    err = decode_system_exception(body)
    failure = Failure("remote", err.category, str(err))
    return failure if policy.is_retryable(failure) else None



# ---------------------------------------------------------------------------
# The client invocation engine
# ---------------------------------------------------------------------------


def _check_dseq_arg(
    name: str, tc: DSequenceTC, value: Any, runtime: "ClientRuntime"
) -> DistributedSequence:
    if not isinstance(value, DistributedSequence):
        raise TypeError(
            f"parameter '{name}' is a distributed sequence; "
            f"pass a DistributedSequence, not {type(value).__name__}"
        )
    expected = runtime.size
    actual = 1 if value.comm is None else value.comm.size
    if actual != expected:
        raise ValueError(
            f"argument '{name}' is distributed over {actual} "
            f"threads but the client group has {expected}"
        )
    if tc.bound is not None and value.length() > tc.bound:
        raise MarshalError(
            f"argument '{name}' has {value.length()} elements, "
            f"over the IDL bound {tc.bound}"
        )
    if value.dtype != tc.element_dtype:
        raise MarshalError(
            f"argument '{name}' has dtype {value.dtype}, the "
            f"IDL element type is {tc.element_dtype}"
        )
    return value


def _install_reply_sequence(
    tc: DSequenceTC,
    arg: int | None,
    layout: Layout,
    local: np.ndarray,
    inv: ClientInvocation,
) -> DistributedSequence | None:
    """In-place update of the inout argument at request position
    ``arg``; a fresh sequence for an out/return value."""
    local = np.ascontiguousarray(local, dtype=tc.element_dtype)
    if arg is not None:
        seq: DistributedSequence = inv.args[arg]
        seq._layout = layout
        seq._local = local
        return None
    return DistributedSequence(
        layout.length,
        dtype=tc.element_dtype,
        comm=inv.runtime.app_comm,
        _layout=layout,
        _local=local,
    )


def invoke_begin(
    runtime: "ClientRuntime",
    ref: ObjectReference,
    plan: OperationPlan,
    args: tuple,
    path: "DataPath",
    out_templates: dict[str, tuple] | None = None,
    ft_policy: Any = None,
    on_degrade: Any = None,
    trace_id: int | None = None,
    group: Any = None,
) -> tuple[str, Any]:
    """The client side of an invocation, by either transfer method:
    put the request on the wire; defer the reply.

    This function is the one place the client's stage sequence is
    spelled — checks, pre-invoke synchronization, request id, send
    phase, then (deferred) the retrying wait → vote → deliver loop and
    the post-invoke synchronization.  Where the argument data flows is
    ``path``'s business (:mod:`repro.orb.datapath`).

    Returns ``("done", value)`` when the invocation finished outright
    (oneway), else ``("pending", complete)`` where ``complete()``
    receives the reply and composes the result.  The pipelined
    invocation worker calls ``invoke_begin`` for request N+1 as soon
    as request N's send phase returned, overlapping the network
    round-trips; completions run in launch order, so the collective
    phases inside ``complete`` stay in program order on every rank.

    ``ft_policy`` overrides the runtime's fault-tolerance policy for
    this invocation; ``on_degrade(fallback)`` is called (once, on every
    rank) if the invocation falls back to another data path midway.
    ``group`` is the binding's
    :class:`~repro.groups.failover.GroupBinding` (``None`` for a
    singleton binding): the invocation then goes to the replica the
    binding targets at launch — ``ref`` is ignored — its client spans
    carry ``replica=<id>``, and a failure the policy gives up on fails
    over to a sibling.
    """
    if group is not None:
        replica, ref = group.target()
    if path.receipt_is_rank_local and not ref.multiport_capable:
        raise RemoteError(
            f"object '{ref.object_key}' does not advertise data "
            f"ports; multi-port transfer is unavailable",
            category="NO_RESOURCES",
        )
    nargs = len(plan.request_names)
    if len(args) != nargs:
        raise TypeError(
            f"{plan.name}() takes {nargs} arguments, got {len(args)}"
        )
    layouts = {}
    for i, name, tc in plan.dist_request:
        layouts[name] = _check_dseq_arg(name, tc, args[i], runtime).layout
    rts = runtime.rts
    root = runtime.rank == 0
    # "On invocation, the computing threads of the client first
    # synchronize, marshal arguments and then the request is sent to
    # the server" (§3.2).
    if rts is not None:
        rts.synchronize()
    request_id = runtime.next_request_id()
    inv = ClientInvocation(
        runtime, ref, plan, args, layouts, out_templates or {},
        effective_policy(ft_policy, runtime), request_id,
        trace_id=trace_id, group=group,
    )
    trace = inv.trace
    span_kw = dict(trace_id=inv.trace_id, side="client", rank=runtime.rank)
    if group is not None:
        span_kw["replica"] = replica
    inv_span = span_or_null(
        trace, "invoke", op=plan.name, engine=path.mode,
        request_id=request_id, **span_kw,
    )
    # A rank records a send stage only when it has work in it: every
    # rank gathers on a path that funnels data through rank 0, every
    # rank ships on one with rank-local receipt; rank 0 always encodes
    # and sends the header (§3.3: "delivered using the centralized
    # method").
    direct = path.receipt_is_rank_local
    codec = plan.request[direct]

    def send_phase() -> Failure | None:
        """One full send: the header frame plus whatever data the path
        moves outside it.

        Re-run verbatim on retry, under the same request id (the
        server's reply cache dedups the header, its inboxes dedup
        re-delivered chunk ranges).  A send-side transport error is
        *filed*, not raised — it surfaces at the agreement vote in
        ``complete`` so all ranks handle it at the same collective
        point.  Past the header frame a failure is ``"unreachable"``:
        the data never reached the owning server thread, so the group
        may degrade to the fallback path under a fresh id without
        risking double execution.
        """
        enc_span = span_or_null(
            trace if root or not direct else None, "encode",
            op=plan.name, **span_kw,
        )
        values, header_fields = args, {}
        if plan.staged or direct:
            # (A direct path's header names the client's data ports
            # whatever the operation moves.)
            values, header_fields = path.stage_arguments(inv)
        if root:
            body = codec.encode(values)
            head = runtime.port.template(
                ref.request_port, KIND_REQUEST,
                (ref.object_key, plan.name, path.mode),
                lambda route: RequestHead(
                    ref.object_key, plan.name, path.mode, plan.oneway,
                    None if plan.oneway else runtime.port.address,
                    runtime.size, route,
                ),
            )
            frame = head.request(
                request_id, inv.trace_id, body, **header_fields
            )
            enc_span.note(nbytes=len(body))
        enc_span.end()
        xfer_span = span_or_null(
            trace if root or direct else None, "transfer", **span_kw
        )
        kind = "transport"
        try:
            if root:
                xfer_span.note(nbytes=len(body))
                head.route.send(frame)
            kind = "unreachable"
            if plan.staged:
                path.ship_arguments(inv)
        except TransportError as exc:
            xfer_span.note(error=str(exc)).end()
            if plan.oneway:
                raise
            return Failure(
                kind, "COMM_FAILURE", str(exc), rank=runtime.rank
            )
        xfer_span.end()
        return None

    first_failure = send_phase()
    if plan.oneway:
        if rts is not None:
            rts.synchronize()
        inv_span.end()
        return ("done", None)

    def retire() -> None:
        """Late or duplicated frames for the id are dropped on arrival
        from now on, instead of piling up."""
        runtime.inbox.discard(request_id)

    def attempt() -> Any:
        """The retrying reply loop: wait, vote, deliver or re-send.

        Stage 1 votes on the reply header (rank 0's receive).  With
        rank-local receipt a stage 2 votes on delivery (every rank
        received on its own port); received data is only installed
        into argument sequences after it succeeds, so a failed attempt
        never leaves a rank's ``inout`` arguments half-updated.
        """
        pending = first_failure
        while True:
            local, pending = pending, None
            reply = header = None
            reply_span = span_or_null(
                trace, "reply", attempt=inv.attempts, **span_kw
            )
            if local is None and root:
                try:
                    reply = runtime.inbox.reply(
                        request_id, timeout=inv.attempt_timeout()
                    )
                except TransportTimeout as exc:
                    local = inv.timeout_failure(exc)
                except TransportError as exc:
                    local = Failure(
                        "transport", "COMM_FAILURE", str(exc), rank=0
                    )
                else:
                    # The body rides the vote when every rank needs it:
                    # an exception to raise, or (rank-local receipt) the
                    # plain values, which are all it then holds — a
                    # small bytes copy makes it voteable.
                    body = None
                    if direct or reply.status != wire.STATUS_OK:
                        body = bytes(reply.body)
                        copied(len(body))
                    local = _retryable_remote(
                        inv.policy, reply.status, body
                    )
                    if local is None:
                        header = (reply.status, body, reply.dist_layouts)
            # Agreement: the vote that carries rank 0's header on
            # success, and elects the canonical failure otherwise, so
            # all ranks leave this point with the same next move.
            failure, header = agree(rts, local, header)
            inv.note_agreement()
            if failure is None:
                status, body, _layouts = header
                if status == wire.STATUS_USER_EXCEPTION:
                    raise decode_user_exception(plan, body)
                if status != wire.STATUS_OK:
                    raise decode_system_exception(body)
                local = None
                try:
                    values, placed = path.receive_results(
                        inv, reply, header
                    )
                except (TransportError, MarshalError) as exc:
                    if not direct:
                        raise
                    local = (
                        inv.timeout_failure(exc)
                        if isinstance(exc, TransportTimeout)
                        else Failure(
                            "transport", "COMM_FAILURE", str(exc),
                            rank=runtime.rank,
                        )
                    )
                if direct:
                    failure = agree_failure(rts, local)
                    inv.note_agreement()
            if failure is None:
                for i, _name, tc, arg in plan.dist_reply:
                    values[i] = _install_reply_sequence(
                        tc, arg, *placed[i], inv
                    )
                if rts is not None:
                    rts.synchronize()
                retire()
                reply_span.end()
                if plan.inout:
                    values = [values[i] for i in plan.produced]
                return compose(values)
            reply_span.note(failure=failure.kind).end()
            action = inv.next_action(failure)
            if action == "retry":
                with span_or_null(
                    trace, "retry", attempt=inv.attempts + 1,
                    failure=failure.kind, **span_kw,
                ):
                    inv.before_retry()
                    pending = send_phase()
                continue
            if action == "degrade":
                # The data path to some server thread is gone but the
                # header path works: collectively swap the invocation
                # onto the fallback path and run it again.  The failed
                # attempt's data never reached the owning thread, so
                # the server cannot have executed it — a fresh-id
                # invocation is exactly-once safe.  The original trace
                # id rides along, so the degraded attempt's spans stay
                # in the same logical trace.
                inv.note_degraded()
                retire()
                if on_degrade is not None:
                    on_degrade(path.fallback)
                with span_or_null(
                    trace, "degrade", from_engine=path.mode,
                    to_engine=path.fallback.mode, **span_kw,
                ):
                    return reissue(path.fallback, None)
            cause = inv.failure_exception(failure)
            if action == "raise":
                raise cause
            # The policy gave up on this replica: move the binding to
            # a sibling (collectively) and re-issue the call there
            # under a fresh request id, in the same trace.  The
            # sibling's reply cache has never seen the call, so one
            # the dead replica executed before dying runs again.
            retire()
            group.fail_over(runtime, replica, cause, inv.trace_id)
            return reissue(path, on_degrade)

    def reissue(via: "DataPath", on_degrade: Any) -> Any:
        """The whole invocation again, by ``via``: a fresh request id
        in the same trace, under the policy this one ran."""
        kind, payload = invoke_begin(
            runtime, ref, plan, args, via, out_templates,
            ft_policy=inv.policy, on_degrade=on_degrade,
            trace_id=inv.trace_id, group=group,
        )
        return payload if kind == "done" else payload()

    def complete() -> Any:
        try:
            result = attempt()
        except BaseException as exc:
            # Abandoned request: evict its chunks and drop any late
            # reply so nothing accumulates.
            retire()
            inv_span.note(error=repr(exc)).end()
            raise
        inv_span.note(attempts=inv.attempts).end()
        return result

    return ("pending", complete)
