"""Request, reply and data-chunk wire messages (the GIOP role).

Every message is a CDR stream.  The request header frames the opaque
argument body produced by the transfer engine; for the multi-port
method the header additionally carries, per distributed parameter, the
client-side layout (local lengths), from which both sides compute the
identical transfer schedule — this is the "information contained in
the transfer header" of §3.3.

Every octet run that can carry bulk data — a request or reply body, a
chunk payload — starts 8-aligned in its message (GIOP 1.2 aligns the
request body for the same reason), and the decoders here declare their
stream *owned*: handed a writable buffer, which a fabric delivers only
to its new owner, they pass that run on writable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from repro.cdr.decoder import CdrDecoder
from repro.cdr.encoder import CdrEncoder
from repro.cdr.typecodes import MarshalError, TC_ULONGLONG as _TC_ULONGLONG
from repro.orb.transport import PortAddress

#: Transfer modes on the wire.
MODE_CENTRALIZED = "centralized"
MODE_MULTIPORT = "multiport"

#: Reply status codes.
STATUS_OK = 0
STATUS_USER_EXCEPTION = 1
STATUS_SYSTEM_EXCEPTION = 2

#: Data-chunk phases.
PHASE_REQUEST = 0
PHASE_REPLY = 1


def _write_port(enc: CdrEncoder, port) -> None:
    """Encode an address: in-process (:class:`PortAddress`) or TCP
    (:class:`~repro.orb.socketnet.SocketPortAddress`); a null address
    travels as port id 0."""
    enc.write_ulong(0 if port is None else port.port_id)
    enc.write_string("" if port is None else port.label)
    enc.write_string(getattr(port, "host", "") or "")
    enc.write_ulong(getattr(port, "tcp_port", 0) or 0)


def _read_port(dec: CdrDecoder):
    port_id = dec.read_ulong()
    label = dec.read_string()
    host = dec.read_string()
    tcp_port = dec.read_ulong()
    if port_id == 0:
        return None
    if host:
        from repro.orb.socketnet import SocketPortAddress

        return SocketPortAddress(host, tcp_port, port_id, label)
    return PortAddress(port_id, label)


def _append_body(enc: CdrEncoder, body: Any) -> None:
    """Length-prefix ``body`` and append it 8-aligned, without copying:
    encoder bodies contribute their segments, buffers travel by
    reference."""
    enc.begin_octet_run(len(body))
    if isinstance(body, CdrEncoder):
        enc.append_encoder(body)
    else:
        enc.write_octets_view(body)


def _flatten(segments: list[Any]) -> bytes:
    if len(segments) == 1 and isinstance(segments[0], bytes):
        return segments[0]
    return b"".join(
        s if isinstance(s, bytes) else bytes(s) for s in segments
    )


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
        enc = CdrEncoder()
        enc.write(_TC_ULONGLONG, self.request_id)
        enc.write(_TC_ULONGLONG, self.trace_id)
        enc.write_string(self.object_key)
        enc.write_string(self.operation)
        enc.write_string(self.mode)
        enc.write_boolean(self.oneway)
        _write_port(enc, self.reply_port)
        enc.write_ulong(self.client_nthreads)
        enc.write_ulong(len(self.client_data_ports))
        for port in self.client_data_ports:
            _write_port(enc, port)
        enc.write_ulong(len(self.dist_layouts))
        for name, lengths in self.dist_layouts:
            enc.write_string(name)
            enc.write_ulong(len(lengths))
            for length in lengths:
                enc.write(_TC_ULONGLONG, int(length))
        enc.write_ulong(len(self.out_templates))
        for name, spec in self.out_templates:
            enc.write_string(name)
            enc.write_string(spec[0])
            weights = spec[1] if len(spec) > 1 else ()
            enc.write_ulong(len(weights))
            for weight in weights:
                enc.write_ulong(int(weight))
        _append_body(enc, self.body)
        return enc.segments()

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


@dataclass(frozen=True)
class RequestRouting:
    """The head of a request frame — just the fields server-side
    admission control and backpressure need, decoded without touching
    the data ports, layouts, templates or body."""

    request_id: int
    trace_id: int
    operation: str
    oneway: bool
    reply_port: PortAddress | None
    #: The rest of what the head holds, and the stream offset it ends
    #: at: :func:`decode_request` handed a routing resumes there
    #: instead of decoding the head a second time.
    object_key: str = ""
    mode: str = MODE_CENTRALIZED
    resume_at: int = 0

    @property
    def client_identity(self) -> int:
        """The 64-bit id's high half: the sending client runtime."""
        return self.request_id >> 32


def _read_head(dec: CdrDecoder) -> RequestRouting:
    """Decode a request frame through its reply port (``dec`` fresh:
    only the flag octet read)."""
    size = dec.remaining + 1
    request_id = int(dec.read(_TC_ULONGLONG))
    trace_id = int(dec.read(_TC_ULONGLONG))
    object_key = dec.read_string()
    operation = dec.read_string()
    mode = dec.read_string()
    if mode not in (MODE_CENTRALIZED, MODE_MULTIPORT):
        raise MarshalError(f"unknown transfer mode {mode!r}")
    oneway = dec.read_boolean()
    reply_port = _read_port(dec)
    return RequestRouting(
        request_id=request_id,
        trace_id=trace_id,
        operation=operation,
        oneway=oneway,
        reply_port=reply_port,
        object_key=object_key,
        mode=mode,
        resume_at=size - dec.remaining,
    )


def peek_request(data: Any) -> RequestRouting | None:
    """Partially decode a request frame for admission decisions.

    Reads only through the reply port — a few dozen bytes — so the
    event loop can attribute a frame to a client identity and decide
    admission before the full (possibly large) message is decoded by
    the dispatch layer.  Returns ``None`` for anything that is not a
    well-formed request head; such frames are delivered unaccounted
    and dropped downstream like any other garbage.
    """
    try:
        return _read_head(CdrDecoder(data))
    except Exception:
        return None


def decode_request(
    data: bytes, head: RequestRouting | None = None
) -> RequestMessage:
    """Parse a request message off the wire.

    ``head`` is what :func:`peek_request` already read off this very
    frame (or a byte-for-byte copy of it): the decode then starts
    where the peek stopped.
    """
    dec = CdrDecoder(data, owned=True)
    if head is None:
        head = _read_head(dec)
    else:
        dec.read_octets(head.resume_at - 1)  # flag octet already read
    client_nthreads = dec.read_ulong()
    nports = dec.read_ulong()
    ports = []
    for _ in range(nports):
        port = _read_port(dec)
        if port is None:
            raise MarshalError("null client data port")
        ports.append(port)
    nlayouts = dec.read_ulong()
    layouts = []
    for _ in range(nlayouts):
        name = dec.read_string()
        count = dec.read_ulong()
        lengths = tuple(int(dec.read(_TC_ULONGLONG)) for _ in range(count))
        layouts.append((name, lengths))
    ntemplates = dec.read_ulong()
    out_templates = []
    for _ in range(ntemplates):
        name = dec.read_string()
        kind = dec.read_string()
        nweights = dec.read_ulong()
        weights = tuple(dec.read_ulong() for _ in range(nweights))
        out_templates.append(
            (name, (kind,) if not weights else (kind, weights))
        )
    body = dec.read_octet_run()
    return RequestMessage(
        request_id=head.request_id,
        trace_id=head.trace_id,
        object_key=head.object_key,
        operation=head.operation,
        mode=head.mode,
        oneway=head.oneway,
        reply_port=head.reply_port,
        client_nthreads=client_nthreads,
        client_data_ports=tuple(ports),
        dist_layouts=tuple(layouts),
        out_templates=tuple(out_templates),
        body=body,
    )


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
        enc = CdrEncoder()
        enc.write(_TC_ULONGLONG, self.request_id)
        enc.write_ulong(self.status)
        enc.write_ulong(len(self.dist_layouts))
        for name, client_lengths, server_lengths in self.dist_layouts:
            enc.write_string(name)
            for lengths in (client_lengths, server_lengths):
                enc.write_ulong(len(lengths))
                for length in lengths:
                    enc.write(_TC_ULONGLONG, int(length))
        _append_body(enc, self.body)
        return enc.segments()

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
    dec = CdrDecoder(data, owned=True)
    request_id = int(dec.read(_TC_ULONGLONG))
    status = dec.read_ulong()
    if status not in (
        STATUS_OK,
        STATUS_USER_EXCEPTION,
        STATUS_SYSTEM_EXCEPTION,
    ):
        raise MarshalError(f"unknown reply status {status}")
    nlayouts = dec.read_ulong()
    layouts = []
    for _ in range(nlayouts):
        name = dec.read_string()
        pair = []
        for _side in range(2):
            count = dec.read_ulong()
            pair.append(
                tuple(int(dec.read(_TC_ULONGLONG)) for _ in range(count))
            )
        layouts.append((name, pair[0], pair[1]))
    body = dec.read_octet_run()
    return ReplyMessage(
        request_id=request_id,
        status=status,
        body=body,
        dist_layouts=tuple(layouts),
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
        enc = CdrEncoder()
        enc.write(_TC_ULONGLONG, self.request_id)
        enc.write_string(self.param)
        enc.write_ulong(self.phase)
        enc.write_ulong(self.src_rank)
        enc.write_ulong(self.dst_rank)
        enc.write(_TC_ULONGLONG, self.global_lo)
        enc.write(_TC_ULONGLONG, self.global_hi)
        _append_body(enc, self.payload)
        return enc.segments()

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
    dec = CdrDecoder(data, owned=True)
    request_id = int(dec.read(_TC_ULONGLONG))
    param = dec.read_string()
    phase = dec.read_ulong()
    if phase not in (PHASE_REQUEST, PHASE_REPLY):
        raise MarshalError(f"unknown chunk phase {phase}")
    src_rank = dec.read_ulong()
    dst_rank = dec.read_ulong()
    global_lo = int(dec.read(_TC_ULONGLONG))
    global_hi = int(dec.read(_TC_ULONGLONG))
    if global_hi < global_lo:
        raise MarshalError("chunk range is inverted")
    payload = dec.read_octet_run()
    return DataChunk(
        request_id=request_id,
        param=param,
        phase=phase,
        src_rank=src_rank,
        dst_rank=dst_rank,
        global_lo=global_lo,
        global_hi=global_hi,
        payload=payload,
    )
