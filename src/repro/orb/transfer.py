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

This module also holds what both paths build on: value slots and the
body codecs, chunk collection and reply demultiplexing, gather
staging, and the per-invocation fault-tolerance control.

Servant/result convention shared by both methods
------------------------------------------------

A servant method receives one value per ``in``/``inout`` parameter, in
declaration order; distributed sequences arrive as
:class:`~repro.dist.DistributedSequence` local views on every thread.
It *produces*, in order: the return value (unless void), then a value
for each ``out`` parameter and each non-distributed ``inout``
parameter.  ``inout`` distributed sequences are mutated in place — on
the server by the servant, on the client by the engine once the reply
arrives.  Zero produced values → return ``None``; one → return it
bare; several → return the tuple.  The client-side composed result
follows the identical rule.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

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
    RETURN_SLOT,
    OperationSpec,
    RemoteError,
    Slot,
    UserException,
    find_exception_class,
)
from repro.orb.reference import ObjectReference
from repro.orb.request import DataChunk, ReplyMessage, RequestHead
from repro.orb.transport import (
    KIND_DATA,
    KIND_REPLY,
    KIND_REQUEST,
    Port,
    TransportError,
    TransportTimeout,
)
from repro.trace.span import span_or_null

if TYPE_CHECKING:
    from repro.orb.datapath import DataPath
    from repro.orb.proxy import ClientRuntime

_NATIVE_LITTLE = sys.byteorder == "little"


def server_layout(
    spec_tuple: tuple | None, length: int, nthreads: int
) -> Layout:
    """The server-side layout of a distributed parameter: the template
    the servant registered, or uniform blockwise (§2.2 default)."""
    template = template_from_spec(spec_tuple) or BlockTemplate()
    return template.layout(length, nthreads)


# ---------------------------------------------------------------------------
# Argument slots: what travels where
# ---------------------------------------------------------------------------


# The slot views live on the spec, built once; these spellings remain
# for callers outside the engines.


def request_slots(spec: OperationSpec) -> tuple[Slot, ...]:
    """Client→server values, in declaration order."""
    return spec.request_slots


def reply_slots(spec: OperationSpec) -> tuple[Slot, ...]:
    """Server→client values: return first, then out/inout params."""
    return spec.reply_slots


def produced_slots(spec: OperationSpec) -> tuple[Slot, ...]:
    """Reply slots a servant must *produce* (inout distributed
    sequences are mutated in place instead)."""
    return spec.produced_slots


def compose(values: list[Any]) -> Any:
    """Apply the 0/1/n composition rule."""
    if not values:
        return None
    if len(values) == 1:
        return values[0]
    return tuple(values)


def decompose(result: Any, nslots: int, where: str) -> list[Any]:
    """Inverse of :func:`compose`, validating arity."""
    if nslots == 0:
        if result is not None:
            raise RemoteError(
                f"{where} produced a value but the operation returns "
                f"nothing",
                category="BAD_OPERATION",
            )
        return []
    if nslots == 1:
        return [result]
    if not isinstance(result, tuple) or len(result) != nslots:
        raise RemoteError(
            f"{where} must produce a tuple of {nslots} values",
            category="BAD_OPERATION",
        )
    return list(result)


# ---------------------------------------------------------------------------
# Chunk collection (multi-port receive side)
# ---------------------------------------------------------------------------


class ChunkCollector:
    """Receives data chunks on a port, holding unmatched ones.

    Chunks for different requests and parameters interleave freely on
    a port (several clients may be mid-transfer, and a pipelined
    client has several requests in flight); the collector files each
    by ``(request id, param, phase)`` so an engine can wait for
    exactly the set its transfer schedule predicts.

    Thread-safe: several threads may collect different keys
    concurrently (the server's dispatch pool does).  At most one of
    them receives from the port at a time, filing chunks for every
    waiter; the others block on the condition until their key fills
    or the receiver role frees up.

    A failed ``collect`` (timeout, closed port, decode error) evicts
    its partial entry, and :meth:`discard` retires a request id so
    late chunks for an abandoned request are dropped on arrival
    instead of accumulating forever.

    Within an entry, chunks are filed by their schedule coordinates
    ``(src rank, global range)`` — the ranges of one (request, param,
    phase) partition the destination block, so the coordinates are
    unique and a re-delivered chunk (a duplicated frame, or a retry
    re-sending data that already landed) replaces its original instead
    of inflating the count toward ``expected``.  Undecodable frames
    (truncation faults) are dropped and counted, never raised into an
    innocent collector's ``collect``.
    """

    #: How many discarded request ids to remember.
    MAX_RETIRED = 1024

    def __init__(self, port: Port) -> None:
        self._port = port
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._pending: dict[
            tuple[int, str, int], dict[tuple[int, int, int], DataChunk]
        ] = {}
        self._receiving = False
        self._retired: OrderedDict[int, None] = OrderedDict()
        self._counts = {
            "duplicates_dropped": 0,
            "late_dropped": 0,
            "garbage_dropped": 0,
        }

    @property
    def port(self) -> Port:
        return self._port

    def pending_entries(self) -> int:
        """How many (request, param, phase) entries are held."""
        with self._lock:
            return len(self._pending)

    def stats(self) -> dict[str, int]:
        """Drop counters: duplicate, post-retirement, undecodable."""
        with self._lock:
            return dict(self._counts)

    def discard(self, request_id: int) -> None:
        """Evict all chunks of an abandoned request and drop its late
        arrivals from now on."""
        with self._cond:
            for key in [k for k in self._pending if k[0] == request_id]:
                del self._pending[key]
            self._retired[request_id] = None
            self._retired.move_to_end(request_id)
            while len(self._retired) > self.MAX_RETIRED:
                self._retired.popitem(last=False)

    def collect(
        self,
        request_id: int,
        param: str,
        phase: int,
        expected: int,
        timeout: float = 60.0,
    ) -> list[DataChunk]:
        """Block until ``expected`` chunks for the key have arrived.

        On failure the key's partial entry is evicted, so a timed-out
        request can never strand chunks in the collector."""
        key = (request_id, param, phase)
        deadline = time.monotonic() + timeout
        try:
            while True:
                with self._cond:
                    have = self._pending.get(key)
                    if have is not None and len(have) >= expected:
                        return list(self._pending.pop(key).values())
                    if expected <= 0:
                        return []
                    if self._receiving:
                        # Someone else is on the port; it will file our
                        # chunks and notify.
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            raise TransportTimeout(
                                f"timed out collecting chunks for "
                                f"request {request_id} ('{param}')"
                            )
                        self._cond.wait(remaining)
                        continue
                    self._receiving = True
                try:
                    self._receive_one(deadline, request_id, param)
                finally:
                    with self._cond:
                        self._receiving = False
                        self._cond.notify_all()
        except BaseException:
            with self._cond:
                self._pending.pop(key, None)
            raise

    def _receive_one(
        self, deadline: float, request_id: int, param: str
    ) -> None:
        """Receive and file the next chunk off the port."""
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise TransportTimeout(
                f"timed out collecting chunks for request "
                f"{request_id} ('{param}')"
            )
        _src, _kind, payload = self._port.recv(
            kind=KIND_DATA, timeout=remaining
        )
        try:
            chunk = wire.decode_chunk(payload)
        except MarshalError:
            # A corrupt frame (e.g. an injected truncation) belongs to
            # one sender's request, not to whoever happens to hold the
            # receiver role — drop it and keep collecting.
            with self._cond:
                self._counts["garbage_dropped"] += 1
                self._cond.notify_all()
            return
        with self._cond:
            if chunk.request_id in self._retired:
                self._counts["late_dropped"] += 1
            else:
                entry = self._pending.setdefault(
                    (chunk.request_id, chunk.param, chunk.phase), {}
                )
                coord = (chunk.src_rank, chunk.global_lo, chunk.global_hi)
                if coord in entry:
                    self._counts["duplicates_dropped"] += 1
                entry[coord] = chunk
            self._cond.notify_all()


class ReplyDemux:
    """Files replies by request id so several can be in flight (§2.1).

    The pipelined client keeps multiple requests outstanding on one
    reply port; their replies may come back in any order (different
    objects answer at different speeds).  ``wait(request_id)``
    receives from the port, returning the reply for the asked id and
    filing every other one for its own later ``wait``.

    The invocation worker is the single consumer, so no receiver
    arbitration is needed; the lock protects ``discard`` calls from
    other threads (close/error paths).  Discarded ids are remembered
    so an abandoned request's late reply is dropped, not leaked.
    """

    #: How many discarded request ids to remember.
    MAX_RETIRED = 1024

    def __init__(self, port: Port) -> None:
        self._port = port
        self._lock = threading.Lock()
        self._filed: dict[int, ReplyMessage] = {}
        self._retired: OrderedDict[int, None] = OrderedDict()
        self._counts = {"late_dropped": 0, "garbage_dropped": 0}

    @property
    def port(self) -> Port:
        return self._port

    def outstanding(self) -> int:
        """How many unclaimed replies are filed."""
        with self._lock:
            return len(self._filed)

    def stats(self) -> dict[str, int]:
        """Drop counters: post-retirement and undecodable replies."""
        with self._lock:
            return dict(self._counts)

    def poll(self, request_id: int) -> ReplyMessage | None:
        """The filed reply for ``request_id``, if it already arrived."""
        with self._lock:
            return self._filed.pop(request_id, None)

    def wait(
        self, request_id: int, timeout: float | None = 60.0
    ) -> ReplyMessage:
        """Block until the reply for ``request_id`` arrives, filing
        replies for other in-flight requests along the way."""
        with self._lock:
            reply = self._filed.pop(request_id, None)
        if reply is not None:
            return reply
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        while True:
            remaining = (
                None if deadline is None
                else deadline - time.monotonic()
            )
            if remaining is not None and remaining <= 0:
                raise TransportTimeout(
                    f"timed out waiting for the reply to request "
                    f"{request_id}"
                )
            _src, _kind, payload = self._port.recv(
                kind=KIND_REPLY, timeout=remaining
            )
            try:
                reply = wire.decode_reply(payload)
            except MarshalError:
                # A corrupt frame (injected truncation); drop it — the
                # retry machinery re-requests, not the demux.
                with self._lock:
                    self._counts["garbage_dropped"] += 1
                continue
            if reply.request_id == request_id:
                return reply
            with self._lock:
                if reply.request_id not in self._retired:
                    self._filed[reply.request_id] = reply
                else:
                    self._counts["late_dropped"] += 1

    def discard(self, request_id: int) -> None:
        """Forget an abandoned request; drop its late reply."""
        with self._lock:
            self._filed.pop(request_id, None)
            self._retired[request_id] = None
            self._retired.move_to_end(request_id)
            while len(self._retired) > self.MAX_RETIRED:
                self._retired.popitem(last=False)


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
    path ships segment views untouched.
    """
    for step in steps:
        if step.src_rank != my_rank:
            continue
        block = local[step.src_slice]
        if not block.flags.c_contiguous:
            block = np.ascontiguousarray(block)
            copied(block.nbytes)
        # Ship a view of the sender's block — the chunk rides to the
        # transport by reference, no flatten.
        payload = memoryview(block).cast("B")
        chunk = DataChunk(
            request_id=request_id,
            param=param,
            phase=phase,
            src_rank=step.src_rank,
            dst_rank=step.dst_rank,
            global_lo=step.global_lo,
            global_hi=step.global_hi,
            payload=payload,
        )
        if record is not None:
            frame = b"".join(
                bytes(s) for s in chunk.encode_segments()
            )
            record(step.dst_rank, frame)
            port.send(dest_ports[step.dst_rank], frame, KIND_DATA)
        else:
            port.send(
                dest_ports[step.dst_rank],
                chunk.encode_segments(),
                KIND_DATA,
            )


# ---------------------------------------------------------------------------
# Body marshaling
# ---------------------------------------------------------------------------


def plain_body_encoder(
    slots: Sequence[Slot], values: dict[str, Any]
) -> CdrEncoder:
    """Marshal the non-distributed slots of a message body.

    Returns the encoder itself so a message can append its segments by
    reference (zero-copy send path)."""
    enc = CdrEncoder()
    for slot in slots:
        if slot.distributed:
            continue
        enc.write(slot.typecode, values[slot.name])
    return enc


def encode_plain_body(
    slots: Sequence[Slot], values: dict[str, Any]
) -> bytes:
    """Flattened form of :func:`plain_body_encoder`."""
    return plain_body_encoder(slots, values).getvalue()


def decode_plain_body(slots: Sequence[Slot], body: Any) -> dict[str, Any]:
    """Inverse of :func:`encode_plain_body`."""
    dec = CdrDecoder(body, owned=True)
    values: dict[str, Any] = {}
    for slot in slots:
        if slot.distributed:
            continue
        values[slot.name] = dec.read(slot.typecode)
    return values


def full_body_encoder(
    slots: Sequence[Slot], values: dict[str, Any]
) -> CdrEncoder:
    """Centralized method: everything inline, distributed sequences as
    materialized arrays (appended by reference — the encoder borrows
    them until the message is sent)."""
    enc = CdrEncoder()
    for slot in slots:
        if slot.distributed:
            enc.write(slot.typecode, np.asarray(values[slot.name]))
        else:
            enc.write(slot.typecode, values[slot.name])
    return enc


def decode_full_body(slots: Sequence[Slot], body: Any) -> dict[str, Any]:
    """Inverse of :func:`full_body_encoder`.  Numeric sequences come
    back as views into ``body``'s buffer — writable, for whoever
    adopts it, when ``body`` is a receive buffer this side owns."""
    dec = CdrDecoder(body, owned=True)
    return {slot.name: dec.read(slot.typecode) for slot in slots}


def detach_plain_values(
    slots: Sequence[Slot], values: dict[str, Any]
) -> None:
    """Replace read-only decoder-view arrays in the plain slots with
    writable copies.

    User code receives (and servants may mutate) these values, so they
    must not alias a transport buffer; plain slots are small, the copy
    is part of the accounted budget."""
    for slot in slots:
        if slot.distributed:
            continue
        value = values.get(slot.name)
        if isinstance(value, np.ndarray) and not value.flags.writeable:
            copied(value.nbytes)
            values[slot.name] = value.copy()


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
    spec: OperationSpec, body: bytes
) -> UserException:
    """Rebuild the concrete exception a servant raised, matching the
    repository id against the operation's raises clause."""
    probe = CdrDecoder(body)
    repo_id = probe.read_string()
    exc_tc = spec.exception_by_id(repo_id)
    if exc_tc is None:
        raise RemoteError(
            f"server raised undeclared exception {repo_id!r}",
            category="UNKNOWN",
        )
    members = CdrDecoder(body).read(exc_tc)
    cls = find_exception_class(repo_id)
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
# Gather staging (centralized method)
# ---------------------------------------------------------------------------

class _StagingPool(threading.local):
    """One thread's staging buffers, by parameter name."""

    def __init__(self) -> None:
        self.buffers: dict[str, np.ndarray] = {}


_staging_pool = _StagingPool()


def staging_array(name: str, length: int, dtype: np.dtype) -> np.ndarray:
    """A reusable per-thread landing buffer for the centralized gather.

    The communicating thread gathers every distributed parameter into
    a full-length staging array before marshaling; one grow-only
    buffer per parameter name, reused across requests, replaces a
    fresh full-sequence allocation per invocation.  Safe because the
    send path finishes with the buffer (vectored write, or the
    in-process flatten) before ``invoke`` returns to this thread, and
    a gather that fails drops it (:func:`drop_staging`).
    """
    buffers = _staging_pool.buffers
    nbytes = max(length * dtype.itemsize, 1)
    buf = buffers.get(name)
    if buf is None or buf.nbytes < nbytes:
        buf = buffers[name] = np.empty(nbytes, dtype=np.uint8)
    return buf[: length * dtype.itemsize].view(dtype)


def drop_staging(name: str) -> None:
    """Forget this thread's ``name`` staging buffer instead of reusing
    it: the gather that exposed it failed, and a peer may still be
    writing into it."""
    _staging_pool.buffers.pop(name, None)


# ---------------------------------------------------------------------------
# Fault-tolerant invocation control
# ---------------------------------------------------------------------------


class _FtInvocation:
    """Per-invocation retry/deadline state of the client engine.

    Every decision here is a pure function of (canonical failure,
    attempt count, policy) — plus this rank's clock only for *filing*
    a deadline flag before the vote — so the ranks of a collective
    binding stay in lockstep through every retry, degradation and
    raise without extra communication.
    """

    def __init__(
        self,
        runtime: "ClientRuntime",
        spec: OperationSpec,
        policy: Any,
        request_id: int,
        trace_id: int | None = None,
    ) -> None:
        self.runtime = runtime
        self.spec = spec
        self.policy = policy
        self.request_id = request_id
        #: Trace correlation (``repro.trace``): the recorder, or None
        #: when tracing is off.  The trace id defaults to the *first*
        #: attempt's request id — rank-identical by construction,
        #: since all ranks share one request-id sequence — and is
        #: passed through explicitly when degradation re-issues the
        #: invocation under a fresh request id.
        self.trace = runtime.trace
        if trace_id is None:
            trace_id = request_id if self.trace is not None else 0
        self.trace_id = trace_id
        self.start = time.monotonic()
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
        return self.policy.deadline_ms / 1e3 - (
            time.monotonic() - self.start
        )

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
        """``"retry"`` / ``"degrade"`` / ``"raise"`` for the canonical
        failure — identical on every rank by construction."""
        policy = self.policy
        if (
            failure.kind == "unreachable"
            and policy is not None
            and policy.degrade_to_centralized
        ):
            return "degrade"
        if (
            policy is None
            or failure.deadline_exhausted
            or self.attempts >= policy.max_retries
            or not policy.is_retryable(failure)
        ):
            return "raise"
        return "retry"

    def before_retry(self) -> None:
        self.attempts += 1
        self.ft["retries"].inc()
        delay = self.policy.backoff_seconds(
            self.attempts, self.request_id
        )
        if delay > 0:
            time.sleep(delay)

    def note_agreement(self) -> None:
        if self.runtime.rts is not None:
            self.ft["agreements"].inc()

    def note_degraded(self) -> None:
        self.ft["degraded"].inc()

    def raise_failure(self, failure: Failure) -> None:
        if self.policy is None:
            raise reconstruct_error(failure)
        exc = failure_to_exception(
            failure,
            self.policy,
            operation=self.spec.name,
            collective_index=self.collective_index,
            attempts=self.attempts,
        )
        self.ft[
            "deadline_exceeded"
            if isinstance(exc, DeadlineExceeded)
            else "retries_exhausted"
        ].inc()
        raise exc


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


@dataclass
class ClientInvocation:
    """What the engine and its data path share about one invocation."""

    runtime: "ClientRuntime"
    ref: ObjectReference
    spec: OperationSpec
    #: The request slots, and the caller's arguments by slot name.
    slots: Sequence[Slot]
    args: dict[str, Any]
    #: Layouts the distributed arguments were launched with, by name.
    layouts: dict[str, Layout]
    #: Preset template specs of out/return values, by slot name.
    out_templates: dict[str, tuple]
    request_id: int
    ctl: _FtInvocation


def _check_dseq_arg(
    slot: Slot, value: Any, runtime: "ClientRuntime"
) -> DistributedSequence:
    if not isinstance(value, DistributedSequence):
        raise TypeError(
            f"parameter '{slot.name}' is a distributed sequence; "
            f"pass a DistributedSequence, not {type(value).__name__}"
        )
    expected = runtime.size
    actual = 1 if value.comm is None else value.comm.size
    if actual != expected:
        raise ValueError(
            f"argument '{slot.name}' is distributed over {actual} "
            f"threads but the client group has {expected}"
        )
    tc: DSequenceTC = slot.typecode  # type: ignore[assignment]
    if tc.bound is not None and value.length() > tc.bound:
        raise MarshalError(
            f"argument '{slot.name}' has {value.length()} elements, "
            f"over the IDL bound {tc.bound}"
        )
    if value.dtype != tc.element_dtype:
        raise MarshalError(
            f"argument '{slot.name}' has dtype {value.dtype}, the "
            f"IDL element type is {tc.element_dtype}"
        )
    return value


def _install_reply_sequence(
    slot: Slot,
    layout: Layout,
    local: np.ndarray,
    inv: ClientInvocation,
) -> DistributedSequence | None:
    """In-place update for inout; fresh sequence for out/return."""
    tc: DSequenceTC = slot.typecode  # type: ignore[assignment]
    local = np.ascontiguousarray(local, dtype=tc.element_dtype)
    if slot.param is not None and slot.param.direction.sends:
        seq: DistributedSequence = inv.args[slot.name]
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


def invoke(
    runtime: "ClientRuntime",
    ref: ObjectReference,
    spec: OperationSpec,
    args: tuple,
    path: "DataPath",
    out_templates: dict[str, tuple] | None = None,
    ft_policy: Any = None,
    on_degrade: Any = None,
    trace_id: int | None = None,
    heads: dict | None = None,
) -> Any:
    """One complete invocation: send, then wait for the reply."""
    kind, payload = invoke_begin(
        runtime, ref, spec, args, path, out_templates,
        ft_policy=ft_policy, on_degrade=on_degrade, trace_id=trace_id,
        heads=heads,
    )
    return payload if kind == "done" else payload()


def invoke_begin(
    runtime: "ClientRuntime",
    ref: ObjectReference,
    spec: OperationSpec,
    args: tuple,
    path: "DataPath",
    out_templates: dict[str, tuple] | None = None,
    ft_policy: Any = None,
    on_degrade: Any = None,
    trace_id: int | None = None,
    heads: dict | None = None,
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
    ``heads`` is the calling binding's own store of request-head
    templates (:class:`~repro.orb.request.RequestHead`), keyed by
    object, operation and mode: rank 0 builds the one it needs at first
    use and leaves it there for the binding's next call.
    """
    if path.receipt_is_rank_local and not ref.multiport_capable:
        raise RemoteError(
            f"object '{ref.object_key}' does not advertise data "
            f"ports; multi-port transfer is unavailable",
            category="NO_RESOURCES",
        )
    slots = spec.request_slots
    if len(args) != len(slots):
        raise TypeError(
            f"{spec.name}() takes {len(slots)} arguments, got {len(args)}"
        )
    by_name = dict(zip((s.name for s in slots), args))
    layouts = {
        s.name: _check_dseq_arg(s, by_name[s.name], runtime).layout
        for s in slots
        if s.distributed
    }
    if heads is None:
        heads = {}
    rts = runtime.rts
    root = runtime.rank == 0
    # "On invocation, the computing threads of the client first
    # synchronize, marshal arguments and then the request is sent to
    # the server" (§3.2).
    if rts is not None:
        rts.synchronize()
    request_id = runtime.next_request_id()
    ctl = _FtInvocation(
        runtime, spec, effective_policy(ft_policy, runtime), request_id,
        trace_id=trace_id,
    )
    inv = ClientInvocation(
        runtime, ref, spec, slots, by_name, layouts, out_templates or {},
        request_id, ctl,
    )
    trace = ctl.trace
    span_kw = dict(trace_id=ctl.trace_id, side="client", rank=runtime.rank)
    inv_span = span_or_null(
        trace, "invoke", op=spec.name, engine=path.mode,
        request_id=request_id, **span_kw,
    )
    # A rank records a send stage only when it has work in it: every
    # rank gathers on a path that funnels data through rank 0, every
    # rank ships on one with rank-local receipt; rank 0 always encodes
    # and sends the header (§3.3: "delivered using the centralized
    # method").
    direct = path.receipt_is_rank_local

    def send_phase() -> Failure | None:
        """One full send: the header frame plus whatever data the path
        moves outside it.

        Re-run verbatim on retry, under the same request id (the
        server's reply cache dedups the header, its collectors dedup
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
            op=spec.name, **span_kw,
        )
        values, header_fields = path.stage_arguments(inv)
        if root:
            body = path.body_encoder(slots, values)
            key = (ref.object_key, spec.name, path.mode)
            head = heads.get(key)
            if head is None:
                head = heads[key] = RequestHead(
                    ref.object_key, spec.name, path.mode, spec.oneway,
                    None if spec.oneway else runtime.reply_port.address,
                    runtime.size,
                )
            segments = head.segments(
                request_id, ctl.trace_id, body, **header_fields
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
                runtime.reply_port.send(
                    ref.request_port, segments, KIND_REQUEST
                )
            kind = "unreachable"
            path.ship_arguments(inv)
        except TransportError as exc:
            xfer_span.note(error=str(exc)).end()
            if spec.oneway:
                raise
            return Failure(
                kind, "COMM_FAILURE", str(exc), rank=runtime.rank
            )
        xfer_span.end()
        return None

    first_failure = send_phase()
    if spec.oneway:
        if rts is not None:
            rts.synchronize()
        inv_span.end()
        return ("done", None)

    def retire() -> None:
        """Late or duplicated frames for the id are dropped on arrival
        from now on, instead of piling up."""
        runtime.demux.discard(request_id)
        runtime.collector.discard(request_id)

    def attempt() -> Any:
        """The retrying reply loop: wait, vote, deliver or re-send.

        Stage 1 votes on the reply header (rank 0's receive).  With
        rank-local receipt a stage 2 votes on delivery (every rank
        received on its own data port); received data is only installed
        into argument sequences after it succeeds, so a failed attempt
        never leaves a rank's ``inout`` arguments half-updated.
        """
        pending = first_failure
        while True:
            local, pending = pending, None
            reply = header = None
            reply_span = span_or_null(
                trace, "reply", attempt=ctl.attempts, **span_kw
            )
            if local is None and root:
                try:
                    reply = runtime.demux.wait(
                        request_id, timeout=ctl.attempt_timeout()
                    )
                except TransportTimeout as exc:
                    local = ctl.timeout_failure(exc)
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
                        ctl.policy, reply.status, body
                    )
                    if local is None:
                        header = (reply.status, body, reply.dist_layouts)
            # Agreement: the vote that carries rank 0's header on
            # success, and elects the canonical failure otherwise, so
            # all ranks leave this point with the same next move.
            failure, header = agree(rts, local, header)
            ctl.note_agreement()
            if failure is None:
                status, body, _layouts = header
                if status == wire.STATUS_USER_EXCEPTION:
                    raise decode_user_exception(spec, body)
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
                        ctl.timeout_failure(exc)
                        if isinstance(exc, TransportTimeout)
                        else Failure(
                            "transport", "COMM_FAILURE", str(exc),
                            rank=runtime.rank,
                        )
                    )
                if direct:
                    failure = agree_failure(rts, local)
                    ctl.note_agreement()
            if failure is None:
                for slot in spec.reply_slots:
                    if slot.distributed:
                        values[slot.name] = _install_reply_sequence(
                            slot, *placed[slot.name], inv
                        )
                if rts is not None:
                    rts.synchronize()
                retire()
                reply_span.end()
                return compose(
                    [values[s.name] for s in spec.produced_slots]
                )
            reply_span.note(failure=failure.kind).end()
            action = ctl.next_action(failure)
            if action == "retry":
                with span_or_null(
                    trace, "retry", attempt=ctl.attempts + 1,
                    failure=failure.kind, **span_kw,
                ):
                    ctl.before_retry()
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
                ctl.note_degraded()
                retire()
                if on_degrade is not None:
                    on_degrade(path.fallback)
                with span_or_null(
                    trace, "degrade", from_engine=path.mode,
                    to_engine=path.fallback.mode, **span_kw,
                ):
                    return invoke(
                        runtime, ref, spec, args, path.fallback,
                        out_templates, ft_policy=ctl.policy,
                        trace_id=ctl.trace_id, heads=heads,
                    )
            ctl.raise_failure(failure)

    def complete() -> Any:
        try:
            result = attempt()
        except BaseException as exc:
            # Abandoned request: evict its chunks and drop any late
            # reply so nothing accumulates.
            retire()
            inv_span.note(error=repr(exc)).end()
            raise
        inv_span.note(attempts=ctl.attempts).end()
        return result

    return ("pending", complete)
