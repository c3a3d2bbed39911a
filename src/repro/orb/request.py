"""Request, reply and data-chunk wire messages (the GIOP role).

Every message opens with a fixed-layout head (:mod:`repro.cdr.head`):
one ``struct`` holding its ids, counts and lengths, its strings, a pad
to 8.  Generic CDR walking starts only behind the first member whose
*shape* varies: a request's data ports, layouts and templates — for
the multi-port method, per distributed parameter, the client-side
layout (local lengths), from which both sides compute the identical
transfer schedule, the "information contained in the transfer header"
of §3.3 — and a reply's layouts travel as a nested CDR stream behind
the head, present only when one of their counts is non-zero.

Every octet run that can carry bulk data — a request or reply body, a
chunk payload — starts 8-aligned in its message (GIOP 1.2 aligns the
request body for the same reason), and ends it: a message is exactly as
long as its head says.  The decoders here declare their stream *owned*:
handed a writable buffer, which a fabric delivers only to its new
owner, they pass that run on writable.

Each kind of message is sent through a frame template
(:class:`RequestHead`, :class:`ReplyHead`, :class:`ChunkHead` over
:class:`~repro.cdr.head.Template`) compiled for the hop it travels,
so a frame is built by one ``struct`` and a join; a free-standing
message's ``encode_segments`` goes through a template of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from repro.cdr.decoder import CdrDecoder
from repro.cdr.encoder import CdrEncoder
from repro.cdr.head import (
    HeadLayout,
    Template,
    octet_run,
    octets,
    padded,
    text,
)
from repro.cdr.typecodes import MarshalError, TC_ULONGLONG as _TC_ULONGLONG
from repro.orb.reference import read_spec, write_spec
from repro.orb.transport import (
    PortAddress,
    address_from_wire,
    read_address,
    write_address,
)

#: Transfer modes, in the order of their octet on the wire.
MODE_CENTRALIZED = "centralized"
MODE_MULTIPORT = "multiport"
_MODES = (MODE_CENTRALIZED, MODE_MULTIPORT)

#: Reply status codes.
STATUS_OK = 0
STATUS_USER_EXCEPTION = 1
STATUS_SYSTEM_EXCEPTION = 2

#: Data-chunk phases.
PHASE_REQUEST = 0
PHASE_REPLY = 1


def _request_key(port_id, tcp_port, key, operation, host, label) -> tuple:
    """What a request head's key decodes to: object key, operation,
    reply port."""
    reply_port = address_from_wire(port_id, tcp_port, host, label) if port_id else None
    return text(key), text(operation), reply_port


# The fixed heads; docs/protocol.md has the offset tables.  What one
# frame varies — a request's ids, counts and body length, a reply's
# every field, a chunk's lengths, ids, range and ranks — is contiguous.
_REQUEST_HEAD = HeadLayout("B?xI", "QQIIII", "II", 4, _request_key)
_REPLY_HEAD = HeadLayout("3x", "IQII")
_CHUNK_HEAD = HeadLayout("B2x", "IQQQII", strings=1, make=text)


class RequestHead(Template):
    """The requests one binding sends for one operation along one
    ``route`` (:meth:`~repro.orb.transport.Fabric.route`), as a frame
    template, kept by the sending port
    (:meth:`~repro.orb.transport.Port.template`).

    Object key, operation, mode, reply port and client width are the
    binding's, not the call's: their octets, behind the route's
    envelope, are built here, once, and :meth:`request` completes them
    with what a call varies.  A :class:`RequestMessage` encodes through
    a head of its own (no route), so there is one request encoder.
    """

    def __init__(
        self,
        object_key: str,
        operation: str,
        mode: str = MODE_CENTRALIZED,
        oneway: bool = False,
        reply_port: Any = None,
        client_nthreads: int = 1,
        route: Any = None,
    ) -> None:
        if mode not in _MODES:
            raise MarshalError(f"unknown transfer mode {mode!r}")
        port_id, tcp_port, host, label = (
            (0, 0, b"", b"") if reply_port is None else reply_port.wire
        )
        super().__init__(*_REQUEST_HEAD.pieces(
            (_MODES.index(mode), oneway, client_nthreads), (port_id, tcp_port),
            (object_key.encode("utf-8"), operation.encode("utf-8"), host, label),
        ), route)

    def request(
        self,
        request_id: int,
        trace_id: int,
        body: Any,
        client_data_ports: tuple = (),
        dist_layouts: tuple = (),
        out_templates: tuple = (),
    ) -> list[Any]:
        """One request's frame (:meth:`Template.frame`); the arguments
        are :class:`RequestMessage`'s fields of the same names."""
        tail = b""
        if client_data_ports or dist_layouts or out_templates:
            # A CDR stream nested at an 8-aligned offset aligns as its
            # message does; its own pad keeps what follows 8-aligned.
            enc = CdrEncoder()
            for port in client_data_ports:
                write_address(enc, port)
            for name, lengths in dist_layouts:
                enc.write_string(name)
                enc.write_ulong(len(lengths))
                for length in lengths:
                    enc.write(_TC_ULONGLONG, int(length))
            for name, spec in out_templates:
                enc.write_string(name)
                write_spec(enc, spec)
            enc.align(8)
            tail = enc.getvalue()
        return self.frame(
            body, tail, request_id, trace_id, len(client_data_ports),
            len(dist_layouts), len(out_templates), len(body),
        )


class _Message:
    """What the three messages share: the wire form as one buffer."""

    def encode(self) -> bytes:
        return b"".join(self.encode_segments())


@dataclass
class RequestMessage(_Message):
    """One operation invocation as it crosses the network."""

    request_id: int
    object_key: str
    operation: str
    #: Trace correlation id (``repro.trace``): equal to the *first*
    #: attempt's request id and preserved across retries and
    #: multiport→centralized degradation, so client- and server-side
    #: spans of every attempt of a collective invocation correlate.
    #: Zero when tracing is off.
    trace_id: int = 0
    mode: str = MODE_CENTRALIZED
    oneway: bool = False
    reply_port: PortAddress | None = None
    client_nthreads: int = 1
    client_data_ports: tuple[PortAddress, ...] = ()
    #: (param name, per-rank local lengths) for each distributed
    #: parameter the client sends or expects back.
    dist_layouts: tuple[tuple[str, tuple[int, ...]], ...] = ()
    #: (param name, template spec) for out/return distributed values
    #: whose client-side distribution the caller preset (§2.2: "an
    #: 'out' argument should be initialized by a distribution template
    #: before calling the operation which returns it").
    out_templates: tuple[tuple[str, tuple], ...] = ()
    #: Marshaled argument body: bytes-like, or a CdrEncoder whose
    #: segments are appended by reference (zero-copy send path).
    body: Any = b""
    #: A decoded head's word on what follows it — data ports, layouts,
    #: templates, body octets — and the offset it ends at:
    #: :func:`decode_request` handed a :func:`peek_request` resumes
    #: there instead of decoding the head a second time.
    counts: tuple[int, ...] = field(default=(0, 0, 0, 0), compare=False, repr=False)
    resume_at: int = field(default=0, compare=False, repr=False)

    @property
    def client_identity(self) -> int:
        """The 64-bit id's high half: the sending client runtime."""
        return self.request_id >> 32

    def encode_segments(self) -> list[Any]:
        """The wire form as a buffer list (:meth:`Template.frame`)."""
        return RequestHead(
            self.object_key, self.operation, self.mode, self.oneway,
            self.reply_port, self.client_nthreads,
        ).request(
            self.request_id, self.trace_id, self.body,
            self.client_data_ports, self.dist_layouts, self.out_templates,
        )

    def without_body(self) -> "RequestMessage":
        """A copy safe to broadcast to peer ranks: the (possibly huge,
        possibly buffer-view) body is dropped — only rank 0 decodes
        it, and views do not survive pickling."""
        return replace(self, body=b"")

    def out_template_of(self, param: str) -> tuple | None:
        for name, spec in self.out_templates:
            if name == param:
                return spec
        return None

    def layout_of(self, param: str) -> tuple[int, ...] | None:
        for name, lengths in self.dist_layouts:
            if name == param:
                return lengths
        return None


def _read_head(view: memoryview) -> RequestMessage:
    """Decode the head of a request frame: one ``unpack``, its key
    looked up (:meth:`~repro.cdr.head.HeadLayout.decode`), and not an
    octet further."""
    fields, (key, operation, reply_port), end = _REQUEST_HEAD.decode(view)
    _flag, mode, oneway, client_nthreads, request_id, trace_id = fields[:6]
    if mode >= len(_MODES):
        raise MarshalError(f"unknown transfer mode {mode}")
    return RequestMessage(
        request_id, key, operation, trace_id, _MODES[mode], oneway,
        reply_port, client_nthreads, counts=fields[6:10], resume_at=end,
    )


def peek_request(data: Any) -> RequestMessage | None:
    """Partially decode a request frame for backpressure.

    Reads only the fixed head and its strings — one ``unpack`` and a
    few dozen octets — so the event loop can attribute a frame to a
    client identity before the full (possibly large) message is
    decoded by the dispatch layer: the message
    returned has no data ports, layouts, templates or body yet.
    Returns ``None`` for anything that is not a well-formed request
    head; such frames are delivered unaccounted and dropped downstream
    like any other garbage.
    """
    try:
        return _read_head(octets(data))
    except MarshalError:
        return None


def decode_request(
    data: bytes, head: RequestMessage | None = None
) -> RequestMessage:
    """Parse a request message off the wire.

    ``head`` is what :func:`peek_request` already read off this very
    frame (or a byte-for-byte copy of it): the decode then starts
    where the peek stopped, and completes that message.
    """
    view = octets(data)
    message = _read_head(view) if head is None else head
    nports, nlayouts, ntemplates, body_n = message.counts
    pos = message.resume_at
    if nports or nlayouts or ntemplates:
        dec = CdrDecoder(view[pos:])
        ports = tuple(read_address(dec) for _ in range(nports))
        if not all(port.port_id for port in ports):
            raise MarshalError("null client data port")
        message.client_data_ports = ports
        message.dist_layouts = tuple(
            (dec.read_string(), _read_lengths(dec))
            for _ in range(nlayouts)
        )
        message.out_templates = tuple(
            (dec.read_string(), read_spec(dec)) for _ in range(ntemplates)
        )
        pos = padded(len(view) - dec.remaining)
    message.body = octet_run(view, pos, body_n, last=True)
    return message


def _read_lengths(dec: CdrDecoder) -> tuple[int, ...]:
    count = dec.read_ulong()
    return tuple(int(dec.read(_TC_ULONGLONG)) for _ in range(count))


@dataclass
class ReplyMessage(_Message):
    """The server's answer to a request."""

    request_id: int
    status: int = STATUS_OK
    #: Marshaled result body: bytes-like, or a CdrEncoder appended by
    #: reference on the send path.
    body: Any = b""
    #: Per returned distributed parameter: (name, client-side local
    #: lengths, server-side local lengths).  The client needs both to
    #: place the data and to predict the chunk schedule — the server's
    #: *final* layout can differ from the registered template when the
    #: servant resized the sequence.
    dist_layouts: tuple[tuple[str, tuple[int, ...], tuple[int, ...]], ...] = ()

    def encode_segments(self) -> list[Any]:
        """The wire form as a buffer list (:meth:`Template.frame`)."""
        return _REPLIES.reply(self)

    def layout_of(
        self, param: str
    ) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
        for name, client_lengths, server_lengths in self.dist_layouts:
            if name == param:
                return client_lengths, server_lengths
        return None


class ReplyHead(Template):
    """The replies sent along one ``route``, as a frame template: a
    reply head has no constant field, so it is the route's envelope."""

    def __init__(self, route: Any = None) -> None:
        super().__init__(*_REPLY_HEAD.pieces(()), route)

    def reply(self, reply: ReplyMessage) -> list[Any]:
        """One reply's frame (:meth:`Template.frame`)."""
        tail = b""
        if reply.dist_layouts:
            enc = CdrEncoder()
            for name, client_lengths, server_lengths in reply.dist_layouts:
                enc.write_string(name)
                for lengths in (client_lengths, server_lengths):
                    enc.write_ulong(len(lengths))
                    for length in lengths:
                        enc.write(_TC_ULONGLONG, int(length))
            enc.align(8)
            tail = enc.getvalue()
        return self.frame(
            reply.body, tail, reply.status, reply.request_id,
            len(reply.dist_layouts), len(reply.body),
        )


_REPLIES = ReplyHead()


def decode_reply(data: bytes) -> ReplyMessage:
    """Parse a reply message off the wire."""
    view = octets(data)
    fields, _key, pos = _REPLY_HEAD.decode(view)
    _flag, status, request_id, nlayouts, body_n = fields
    if status not in (
        STATUS_OK,
        STATUS_USER_EXCEPTION,
        STATUS_SYSTEM_EXCEPTION,
    ):
        raise MarshalError(f"unknown reply status {status}")
    layouts: tuple = ()
    if nlayouts:
        dec = CdrDecoder(view[pos:])
        layouts = tuple(
            (dec.read_string(), _read_lengths(dec), _read_lengths(dec))
            for _ in range(nlayouts)
        )
        pos = padded(len(view) - dec.remaining)
    return ReplyMessage(
        request_id=request_id,
        status=status,
        body=octet_run(view, pos, body_n, last=True),
        dist_layouts=layouts,
    )


@dataclass
class DataChunk(_Message):
    """One contiguous slice of a distributed argument in flight
    (multi-port method) — the unit of thread-to-thread transfer."""

    request_id: int
    param: str
    phase: int  # PHASE_REQUEST or PHASE_REPLY
    src_rank: int
    dst_rank: int
    global_lo: int
    global_hi: int
    #: Raw element bytes: bytes-like, including a memoryview of the
    #: sender's local block (shipped by reference, never flattened).
    payload: Any = b""

    def encode_segments(self) -> list[Any]:
        """The wire form as a buffer list (:meth:`Template.frame`): a
        payload of more than a few KiB rides along by reference."""
        return ChunkHead(self.param, self.phase).chunk(
            self.request_id, self.src_rank, self.dst_rank, self.global_lo,
            self.global_hi, self.payload,
        )

    def elements(self, dtype: np.dtype) -> np.ndarray:
        """Decode the payload as elements of ``dtype`` (native order;
        chunk payloads are produced by the same CDR element rules).

        Returns a view over the payload buffer — no copy; writable
        only when the payload is (an owned receive buffer)."""
        expected = (self.global_hi - self.global_lo) * dtype.itemsize
        if len(self.payload) != expected:
            raise MarshalError(
                f"chunk for '{self.param}' carries {len(self.payload)} "
                f"bytes, expected {expected}"
            )
        return np.frombuffer(self.payload, dtype=dtype)


class ChunkHead(Template):
    """The chunks of one parameter in one phase sent along one
    ``route``, as a frame template."""

    def __init__(self, param: str, phase: int, route: Any = None) -> None:
        super().__init__(
            *_CHUNK_HEAD.pieces((phase,), (), (param.encode("utf-8"),)), route
        )

    def chunk(
        self, request_id: int, src_rank: int, dst_rank: int, global_lo: int,
        global_hi: int, payload: Any,
    ) -> list[Any]:
        """One chunk's frame (:meth:`Template.frame`): the payload view
        rides along by reference unless the frame is small."""
        return self.frame(
            payload, b"", len(payload), request_id, global_lo, global_hi,
            src_rank, dst_rank,
        )


def decode_chunk(data: bytes) -> DataChunk:
    """Parse a data-chunk message off the wire."""
    view = octets(data)
    fields, param, end = _CHUNK_HEAD.decode(view)
    (
        _flag, phase, payload_n, request_id, global_lo, global_hi,
        src_rank, dst_rank,
    ) = fields[:8]
    if phase not in (PHASE_REQUEST, PHASE_REPLY):
        raise MarshalError(f"unknown chunk phase {phase}")
    if global_hi < global_lo:
        raise MarshalError("chunk range is inverted")
    return DataChunk(
        request_id=request_id,
        param=param,
        phase=phase,
        src_rank=src_rank,
        dst_rank=dst_rank,
        global_lo=global_lo,
        global_hi=global_hi,
        payload=octet_run(view, end, payload_n, last=True),
    )
