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
request body for the same reason), and the decoders here declare their
stream *owned*: handed a writable buffer, which a fabric delivers only
to its new owner, they pass that run on writable.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from typing import Any, NamedTuple

import numpy as np

from repro.cdr.accounting import copied
from repro.cdr.decoder import CdrDecoder
from repro.cdr.encoder import CdrEncoder
from repro.cdr.head import (
    NATIVE_LITTLE,
    HeadLayout,
    octet_run,
    octets,
    padded,
    text,
)
from repro.cdr.typecodes import MarshalError, TC_ULONGLONG as _TC_ULONGLONG
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

# The fixed heads; docs/protocol.md has the offset tables.
_REQUEST_HEAD = HeadLayout("B?xIQQIIIIII", strings=4)
#: What one invocation varies of a request head — request id, trace
#: id, the three counts, the body length — is contiguous, so a
#: binding's template is completed with one ``pack`` between two
#: constant runs.
_REQUEST_VARYING = struct.Struct(("<" if NATIVE_LITTLE else ">") + "QQIIII")
_REQUEST_VARYING_AT = 8
_REPLY_HEAD = HeadLayout("3xIQII")
_CHUNK_HEAD = HeadLayout("B2xIQQQII", strings=1)


def _frame(head: bytes, body: Any) -> list[Any]:
    """``head`` (8-aligned at its end) and then ``body`` as a buffer
    list, nothing copied: an encoder body contributes its segments, a
    buffer travels by reference."""
    if isinstance(body, CdrEncoder):
        return [head, *body.segments()]
    return [head, body]


def _flatten(segments: list[Any]) -> bytes:
    if len(segments) == 1 and isinstance(segments[0], bytes):
        return segments[0]
    return b"".join(
        s if isinstance(s, bytes) else bytes(s) for s in segments
    )


class RequestHead:
    """The head of the requests one binding sends for one operation.

    Object key, operation, mode, reply port and client width are the
    binding's, not the call's: their octets are built here, once, and
    :meth:`segments` completes them with what a call varies.  A
    :class:`RequestMessage` encodes through a head of its own, so there
    is one request encoder.
    """

    def __init__(
        self,
        object_key: str,
        operation: str,
        mode: str = MODE_CENTRALIZED,
        oneway: bool = False,
        reply_port: Any = None,
        client_nthreads: int = 1,
    ) -> None:
        if mode not in _MODES:
            raise MarshalError(f"unknown transfer mode {mode!r}")
        port_id, tcp_port, host, label = (
            (0, 0, b"", b"") if reply_port is None else reply_port.wire
        )
        head = _REQUEST_HEAD.encode(
            (
                _MODES.index(mode), oneway, client_nthreads,
                0, 0, 0, 0, 0, 0, port_id, tcp_port,
            ),
            (
                object_key.encode("utf-8"), operation.encode("utf-8"),
                host, label,
            ),
        )
        self._before = head[:_REQUEST_VARYING_AT]
        self._after = head[_REQUEST_VARYING_AT + _REQUEST_VARYING.size :]

    def segments(
        self,
        request_id: int,
        trace_id: int,
        body: Any,
        client_data_ports: tuple = (),
        dist_layouts: tuple = (),
        out_templates: tuple = (),
    ) -> list[Any]:
        """One request's wire form as a buffer list (no payload
        flatten); the arguments are :class:`RequestMessage`'s fields
        of the same names."""
        try:
            varying = _REQUEST_VARYING.pack(
                request_id, trace_id, len(client_data_ports),
                len(dist_layouts), len(out_templates), len(body),
            )
        except struct.error as exc:
            raise MarshalError(f"cannot marshal head: {exc}") from None
        copied(len(self._after))
        head = self._before + varying + self._after
        if client_data_ports or dist_layouts or out_templates:
            # A CDR stream nested at an 8-aligned offset aligns as its
            # message does; its own pad keeps what follows 8-aligned.
            tail = CdrEncoder()
            for port in client_data_ports:
                write_address(tail, port)
            for name, lengths in dist_layouts:
                tail.write_string(name)
                tail.write_ulong(len(lengths))
                for length in lengths:
                    tail.write(_TC_ULONGLONG, int(length))
            for name, spec in out_templates:
                tail.write_string(name)
                tail.write_string(spec[0])
                weights = spec[1] if len(spec) > 1 else ()
                tail.write_ulong(len(weights))
                for weight in weights:
                    tail.write_ulong(int(weight))
            tail.align(8)
            head += tail.getvalue()
        return _frame(head, body)


@dataclass(frozen=True)
class RequestMessage:
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

    def encode_segments(self) -> list[Any]:
        """The wire form as a buffer list (no payload flatten)."""
        return RequestHead(
            self.object_key, self.operation, self.mode, self.oneway,
            self.reply_port, self.client_nthreads,
        ).segments(
            self.request_id, self.trace_id, self.body,
            self.client_data_ports, self.dist_layouts, self.out_templates,
        )

    def encode(self) -> bytes:
        return _flatten(self.encode_segments())

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


class RequestRouting(NamedTuple):
    """The head of a request frame, decoded: what server-side
    admission control and backpressure need, read without touching
    the data ports, layouts, templates or body."""

    request_id: int
    trace_id: int
    operation: str
    oneway: bool
    reply_port: PortAddress | None
    #: The rest of what the head holds, and the offset it ends at:
    #: :func:`decode_request` handed a routing resumes there instead
    #: of decoding the head a second time.
    object_key: str = ""
    mode: str = MODE_CENTRALIZED
    client_nthreads: int = 1
    #: How much follows the head: data ports, layouts, templates,
    #: body octets.
    counts: tuple[int, int, int, int] = (0, 0, 0, 0)
    resume_at: int = 0

    @property
    def client_identity(self) -> int:
        """The 64-bit id's high half: the sending client runtime."""
        return self.request_id >> 32


def _read_head(view: memoryview) -> RequestRouting:
    """Decode the head of a request frame: one ``unpack``, its four
    strings, and not an octet further."""
    fields, (key, operation, host, label), end = _REQUEST_HEAD.decode(view)
    (
        _flag, mode, oneway, client_nthreads, request_id, trace_id,
        nports, nlayouts, ntemplates, body_n, port_id, tcp_port,
    ) = fields
    if mode >= len(_MODES):
        raise MarshalError(f"unknown transfer mode {mode}")
    return RequestRouting(
        request_id,
        trace_id,
        text(operation),
        oneway,
        address_from_wire(port_id, tcp_port, host, label)
        if port_id else None,
        text(key),
        _MODES[mode],
        client_nthreads,
        (nports, nlayouts, ntemplates, body_n),
        end,
    )


def peek_request(data: Any) -> RequestRouting | None:
    """Partially decode a request frame for admission decisions.

    Reads only the fixed head and its strings — one ``unpack`` and a
    few dozen octets — so the event loop can attribute a frame to a
    client identity and decide admission before the full (possibly
    large) message is decoded by the dispatch layer.  Returns ``None``
    for anything that is not a well-formed request head; such frames
    are delivered unaccounted and dropped downstream like any other
    garbage.
    """
    try:
        return _read_head(octets(data))
    except MarshalError:
        return None


def decode_request(
    data: bytes, head: RequestRouting | None = None
) -> RequestMessage:
    """Parse a request message off the wire.

    ``head`` is what :func:`peek_request` already read off this very
    frame (or a byte-for-byte copy of it): the decode then starts
    where the peek stopped.
    """
    view = octets(data)
    if head is None:
        head = _read_head(view)
    nports, nlayouts, ntemplates, body_n = head.counts
    pos = head.resume_at
    ports: tuple = ()
    layouts: tuple = ()
    out_templates: tuple = ()
    if nports or nlayouts or ntemplates:
        dec = CdrDecoder(view[pos:])
        ports = tuple(read_address(dec) for _ in range(nports))
        if not all(port.port_id for port in ports):
            raise MarshalError("null client data port")
        layouts = tuple(
            (dec.read_string(), _read_lengths(dec))
            for _ in range(nlayouts)
        )
        out_templates = tuple(
            _read_template(dec) for _ in range(ntemplates)
        )
        pos = padded(len(view) - dec.remaining)
    return RequestMessage(
        request_id=head.request_id,
        trace_id=head.trace_id,
        object_key=head.object_key,
        operation=head.operation,
        mode=head.mode,
        oneway=head.oneway,
        reply_port=head.reply_port,
        client_nthreads=head.client_nthreads,
        client_data_ports=ports,
        dist_layouts=layouts,
        out_templates=out_templates,
        body=octet_run(view, pos, body_n),
    )


def _read_lengths(dec: CdrDecoder) -> tuple[int, ...]:
    count = dec.read_ulong()
    return tuple(int(dec.read(_TC_ULONGLONG)) for _ in range(count))


def _read_template(dec: CdrDecoder) -> tuple[str, tuple]:
    name = dec.read_string()
    kind = dec.read_string()
    nweights = dec.read_ulong()
    weights = tuple(dec.read_ulong() for _ in range(nweights))
    return name, ((kind,) if not weights else (kind, weights))


@dataclass(frozen=True)
class ReplyMessage:
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
        """The wire form as a buffer list (no payload flatten)."""
        fields = (
            self.status, self.request_id, len(self.dist_layouts),
            len(self.body),
        )
        head = _REPLY_HEAD.encode(fields)
        if self.dist_layouts:
            tail = CdrEncoder()
            for name, client_lengths, server_lengths in self.dist_layouts:
                tail.write_string(name)
                for lengths in (client_lengths, server_lengths):
                    tail.write_ulong(len(lengths))
                    for length in lengths:
                        tail.write(_TC_ULONGLONG, int(length))
            tail.align(8)
            head += tail.getvalue()
        return _frame(head, self.body)

    def encode(self) -> bytes:
        return _flatten(self.encode_segments())

    def layout_of(
        self, param: str
    ) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
        for name, client_lengths, server_lengths in self.dist_layouts:
            if name == param:
                return client_lengths, server_lengths
        return None


def decode_reply(data: bytes) -> ReplyMessage:
    """Parse a reply message off the wire."""
    view = octets(data)
    fields, _strings, pos = _REPLY_HEAD.decode(view)
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
        body=octet_run(view, pos, body_n),
        dist_layouts=layouts,
    )


@dataclass(frozen=True)
class DataChunk:
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
        """The wire form as a buffer list — the payload view rides
        along by reference, so a chunk send never copies the data."""
        fields = (
            self.phase, len(self.payload), self.request_id,
            self.global_lo, self.global_hi, self.src_rank, self.dst_rank,
        )
        head = _CHUNK_HEAD.encode(fields, (self.param.encode("utf-8"),))
        return _frame(head, self.payload)

    def encode(self) -> bytes:
        return _flatten(self.encode_segments())

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


def decode_chunk(data: bytes) -> DataChunk:
    """Parse a data-chunk message off the wire."""
    view = octets(data)
    fields, (param,), end = _CHUNK_HEAD.decode(view)
    (
        _flag, phase, payload_n, request_id, global_lo, global_hi,
        src_rank, dst_rank,
    ) = fields
    if phase not in (PHASE_REQUEST, PHASE_REPLY):
        raise MarshalError(f"unknown chunk phase {phase}")
    if global_hi < global_lo:
        raise MarshalError("chunk range is inverted")
    return DataChunk(
        request_id=request_id,
        param=text(param),
        phase=phase,
        src_rank=src_rank,
        dst_rank=dst_rank,
        global_lo=global_lo,
        global_hi=global_hi,
        payload=octet_run(view, end, payload_n),
    )
