"""Compiled frames against the head layouts written out field by field.

A frame template (:class:`~repro.cdr.head.Template`) packs its route's
envelope and a head's constant fields once and writes what a frame
varies with one ``struct``; the receive side reads each head with one
``unpack_from`` and looks its strings up by their exact octets
(:meth:`~repro.cdr.head.HeadLayout.decode`).  None of that may show on
the wire.  The reference here is each head as docs/protocol.md
tabulates it, packed whole — every field, the string lengths, the
strings, the pad — and read back the same long way.  Every case demands
the same octets (a template writes this machine's byte order) and, in
both byte orders, the same decoded fields on an interning-table miss
and on a hit.

Pinned as well: a frame or a message is exactly as long as its head
says — octets behind it make it garbage — and a flood of distinct
strings leaves a table at its bound.
"""

import socket
import struct
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdr import CdrEncoder
from repro.cdr.head import INTERNED, LENGTH
from repro.cdr.typecodes import MarshalError, TC_ULONGLONG
from repro.orb import request as wire
from repro.orb import socketnet
from repro.orb.request import (
    MODE_CENTRALIZED,
    MODE_MULTIPORT,
    PHASE_REPLY,
    PHASE_REQUEST,
    ChunkHead,
    DataChunk,
    ReplyHead,
    ReplyMessage,
    RequestHead,
    RequestMessage,
    decode_chunk,
    decode_reply,
    decode_request,
)
from repro.orb.socketnet import SocketFabric
from repro.orb.transfer import Inbox
from repro.orb.transport import (
    KIND_DATA,
    KIND_REPLY,
    KIND_REQUEST,
    Fabric,
    PortAddress,
    Route,
    SocketPortAddress,
    write_address,
)

NATIVE = sys.byteorder == "little"

# The fixed part of each head behind its flag octet, as docs/protocol.md
# tabulates it — transcribed here, not imported from the codec.
REQUEST_FMT, REQUEST_STRINGS = "B?xIQQIIIIII", 4
REPLY_FMT, REPLY_STRINGS = "3xIQII", 0
CHUNK_FMT, CHUNK_STRINGS = "B2xIQQQII", 1
ENVELOPE_FMT, ENVELOPE_STRINGS = "3xIIII", 3

# -- the reference: a head packed whole, and read back the long way ---------


def ref_head(fmt, fields, strings, little):
    """Flag, every field, the string lengths, the strings, the pad."""
    raw = b"".join(strings)
    fixed = struct.pack(
        ("<" if little else ">") + "B" + fmt + "H" * len(strings),
        little, *fields, *map(len, strings),
    )
    return fixed + raw + bytes(-(len(fixed) + len(raw)) % 8)


def ref_read(fmt, nstrings, data):
    """A head's fields (flag left out), its strings decoded, and the
    8-aligned offset it ends at."""
    layout = struct.Struct(("<" if data[0] else ">") + "B" + fmt + "H" * nstrings)
    fields = layout.unpack_from(data)
    at, strings = layout.size, []
    for n in fields[len(fields) - nstrings :]:
        strings.append(bytes(data[at : at + n]).decode("utf-8"))
        at += n
    return fields[1 : len(fields) - nstrings], strings, at + (-at) % 8


def ref_frame(src, dest_port_id, kind, message, little):
    """A socket frame: length prefix, envelope, the message."""
    envelope = ref_head(
        ENVELOPE_FMT,
        (dest_port_id, len(message), src.tcp_port, src.port_id),
        (src.host.encode(), src.label.encode(), kind.encode()),
        little,
    )
    return LENGTH.pack(len(envelope) + len(message)) + envelope + message


def _wire(port):
    if port is None:
        return 0, 0, b"", b""
    return port.port_id, port.tcp_port, port.host.encode(), port.label.encode()


def ref_request(m, little):
    port_id, tcp_port, host, label = _wire(m.reply_port)
    tail = b""
    if m.client_data_ports or m.dist_layouts or m.out_templates:
        enc = CdrEncoder(little)
        for port in m.client_data_ports:
            write_address(enc, port)
        for name, lengths in m.dist_layouts:
            enc.write_string(name)
            enc.write_ulong(len(lengths))
            for n in lengths:
                enc.write(TC_ULONGLONG, n)
        for name, spec in m.out_templates:
            enc.write_string(name)
            enc.write_string(spec[0])
            weights = spec[1] if len(spec) > 1 else ()
            enc.write_ulong(len(weights))
            for weight in weights:
                enc.write_ulong(weight)
        enc.align(8)
        tail = enc.getvalue()
    head = ref_head(
        REQUEST_FMT,
        (
            (MODE_CENTRALIZED, MODE_MULTIPORT).index(m.mode), m.oneway,
            m.client_nthreads, m.request_id, m.trace_id,
            len(m.client_data_ports), len(m.dist_layouts),
            len(m.out_templates), len(m.body), port_id, tcp_port,
        ),
        (m.object_key.encode(), m.operation.encode(), host, label),
        little,
    )
    return head + tail + m.body


def ref_reply(m, little):
    tail = b""
    if m.dist_layouts:
        enc = CdrEncoder(little)
        for name, client_lengths, server_lengths in m.dist_layouts:
            enc.write_string(name)
            for lengths in (client_lengths, server_lengths):
                enc.write_ulong(len(lengths))
                for n in lengths:
                    enc.write(TC_ULONGLONG, n)
        enc.align(8)
        tail = enc.getvalue()
    fields = (m.status, m.request_id, len(m.dist_layouts), len(m.body))
    return ref_head(REPLY_FMT, fields, (), little) + tail + m.body


def ref_chunk(c, little):
    fields = (
        c.phase, len(c.payload), c.request_id, c.global_lo, c.global_hi,
        c.src_rank, c.dst_rank,
    )
    return ref_head(CHUNK_FMT, fields, (c.param.encode(),), little) + c.payload


# -- the corpus ----------------------------------------------------------------

# Any code point but the surrogates: non-ASCII labels, keys and
# operation names, NULs and empty strings included.
names = st.text(max_size=12)
u32 = st.integers(0, 2**32 - 1)
u64 = st.integers(0, 2**64 - 1)
lengths = st.lists(u64, max_size=3).map(tuple)
# Small bodies leave as one joined buffer, a 5000-octet one by reference.
bodies = st.one_of(st.binary(max_size=40), st.just(bytes(range(250)) * 20))
socket_addresses = st.builds(
    SocketPortAddress, st.text(min_size=1, max_size=12), u32,
    st.integers(1, 2**32 - 1), names,
)
addresses = st.one_of(
    st.builds(PortAddress, st.integers(1, 2**32 - 1), names), socket_addresses
)
templates = st.one_of(
    st.just(("block",)),
    st.lists(u32, min_size=1, max_size=3).map(lambda w: ("proportions", tuple(w))),
)
requests = st.builds(
    RequestMessage,
    request_id=u64,
    object_key=names,
    operation=names,
    trace_id=u64,
    mode=st.sampled_from((MODE_CENTRALIZED, MODE_MULTIPORT)),
    oneway=st.booleans(),
    reply_port=st.one_of(st.none(), addresses),
    client_nthreads=u32,
    # Zero and non-zero tail counts.
    client_data_ports=st.lists(addresses, max_size=2).map(tuple),
    dist_layouts=st.lists(st.tuples(names, lengths), max_size=2).map(tuple),
    out_templates=st.lists(st.tuples(names, templates), max_size=2).map(tuple),
    body=bodies,
)
replies = st.builds(
    ReplyMessage,
    request_id=u64,
    status=st.sampled_from((0, 1, 2)),
    body=bodies,
    dist_layouts=st.lists(st.tuples(names, lengths, lengths), max_size=2).map(tuple),
)
chunks = st.builds(
    DataChunk,
    request_id=u64,
    param=names,
    phase=st.sampled_from((PHASE_REQUEST, PHASE_REPLY)),
    src_rank=u32,
    dst_rank=u32,
    global_lo=st.integers(0, 2**32),
    global_hi=st.integers(2**32, 2**64 - 1),
    payload=bodies,
)


def _route(src, dest, kind):
    """A socket fabric's hop, without a fabric behind it."""
    return Route(dest, socketnet._envelope(src, dest, kind), None)


def _decoded_twice(frame, kind, decode, layouts, little):
    """``frame`` (a socket frame in either byte order) decoded with
    the interning tables of its byte order empty — a miss — and again:
    a hit."""
    for layout in layouts:
        layout.interned[little].cache_clear()
    got = []
    for _ in range(2):
        dest_id, src, got_kind, payload = SocketFabric._decode_frame(
            memoryview(bytearray(frame[LENGTH.size :]))
        )
        assert got_kind == kind
        got.append((dest_id, src, src.label, decode(payload)))
    # hits, misses: the second decode found what the first made
    assert all(layout.interned[little].cache_info()[:2] == (1, 1) for layout in layouts)
    return got


def _labels(message):
    ports = (message.reply_port, *message.client_data_ports)
    return [None if port is None else port.label for port in ports]


class TestTheCompiledFrameIsTheLayout:
    @settings(max_examples=150, deadline=None)
    @given(m=requests, src=socket_addresses, dest=socket_addresses, little=st.booleans())
    def test_requests(self, m, src, dest, little):
        head = RequestHead(
            m.object_key, m.operation, m.mode, m.oneway, m.reply_port,
            m.client_nthreads, _route(src, dest, KIND_REQUEST),
        )
        frame = head.request(
            m.request_id, m.trace_id, m.body, m.client_data_ports,
            m.dist_layouts, m.out_templates,
        )
        assert b"".join(frame) == ref_frame(
            src, dest.port_id, KIND_REQUEST, ref_request(m, NATIVE), NATIVE
        )
        assert head.message(frame) == ref_request(m, NATIVE) == m.encode()
        layouts = (socketnet._ENVELOPE, wire._REQUEST_HEAD)
        other = ref_frame(src, dest.port_id, KIND_REQUEST, ref_request(m, little), little)
        for dest_id, got_src, label, got in _decoded_twice(
            other, KIND_REQUEST, decode_request, layouts, little
        ):
            assert (dest_id, got_src, label) == (dest.port_id, src, src.label)
            assert got == m and _labels(got) == _labels(m)
            fields, strings, end = ref_read(REQUEST_FMT, REQUEST_STRINGS, ref_request(m, little))
            assert (got.object_key, got.operation) == tuple(strings[:2])
            assert (got.request_id, got.trace_id, got.resume_at) == (*fields[3:5], end)

    @settings(max_examples=100, deadline=None)
    @given(m=replies, src=socket_addresses, dest=socket_addresses, little=st.booleans())
    def test_replies(self, m, src, dest, little):
        head = ReplyHead(_route(src, dest, KIND_REPLY))
        frame = head.reply(m)
        assert b"".join(frame) == ref_frame(
            src, dest.port_id, KIND_REPLY, ref_reply(m, NATIVE), NATIVE
        )
        assert head.message(frame) == ref_reply(m, NATIVE) == m.encode()
        other = ref_frame(src, dest.port_id, KIND_REPLY, ref_reply(m, little), little)
        for dest_id, got_src, label, got in _decoded_twice(
            other, KIND_REPLY, decode_reply, (socketnet._ENVELOPE,), little
        ):
            assert (dest_id, got_src, label, got) == (dest.port_id, src, src.label, m)

    @settings(max_examples=100, deadline=None)
    @given(c=chunks, src=socket_addresses, dest=socket_addresses, little=st.booleans())
    def test_chunks(self, c, src, dest, little):
        head = ChunkHead(c.param, c.phase, _route(src, dest, KIND_DATA))
        frame = head.chunk(
            c.request_id, c.src_rank, c.dst_rank, c.global_lo, c.global_hi,
            c.payload,
        )
        assert b"".join(frame) == ref_frame(
            src, dest.port_id, KIND_DATA, ref_chunk(c, NATIVE), NATIVE
        )
        assert head.message(frame) == ref_chunk(c, NATIVE) == c.encode()
        layouts = (socketnet._ENVELOPE, wire._CHUNK_HEAD)
        other = ref_frame(src, dest.port_id, KIND_DATA, ref_chunk(c, little), little)
        for dest_id, got_src, label, got in _decoded_twice(
            other, KIND_DATA, decode_chunk, layouts, little
        ):
            assert (dest_id, got_src, label, got) == (dest.port_id, src, src.label, c)

    def test_a_small_frame_is_one_buffer_and_a_large_body_travels_by_reference(self):
        src = SocketPortAddress("127.0.0.1", 40001, 3, "client")
        dest = SocketPortAddress("127.0.0.1", 40002, 1, "server")
        head = RequestHead("k", "op", route=_route(src, dest, KIND_REQUEST))
        (small,) = head.request(1, 0, b"\x01" + bytes(7))
        assert isinstance(small, bytes)
        big = bytes(8192)
        frame = head.request(2, 0, big)
        assert len(frame) == 2 and frame[1] is big

    def test_an_in_process_route_frames_the_message_alone(self):
        fabric = Fabric("bare")
        sender, receiver = fabric.open_port("s"), fabric.open_port("r")
        head = RequestHead("k", "op", route=fabric.route(sender.address, receiver.address, KIND_REQUEST))
        assert head.route.envelope is None and head.skip == 0
        message = RequestMessage(7, "k", "op", body=b"body")
        head.route.send(head.request(7, 0, b"body"))
        assert decode_request(receiver.recv(timeout=5)[2]) == message


def test_a_port_keeps_one_template_per_hop_and_key_up_to_its_bound():
    fabric = Fabric("kept")
    sender, a, b = (fabric.open_port(name) for name in "sab")
    one = sender.template(a.address, KIND_REPLY, None, ReplyHead)
    assert sender.template(a.address, KIND_REPLY, None, ReplyHead) is one
    assert sender.template(b.address, KIND_REPLY, None, ReplyHead) is not one
    assert sender.template(a.address, KIND_DATA, None, ReplyHead) is not one
    for key in range(2 * INTERNED):
        sender.template(a.address, KIND_REPLY, key, ReplyHead)
        assert len(sender._templates) <= INTERNED
    one.route.send(one.reply(ReplyMessage(5, 0, b"kept")))
    assert decode_reply(a.recv(timeout=5)[2]) == ReplyMessage(5, 0, b"kept")


# -- hostile input, on a miss and on a hit ---------------------------------

SRC = SocketPortAddress("127.0.0.1", 40001, 3, "bench:réply")
DEST = SocketPortAddress("127.0.0.1", 40002, 9, "sérver")
REQUEST = RequestMessage(
    (7 << 32) | 1, "benchsvc", "opération", trace_id=9, reply_port=SRC,
    body=b"\x01" + bytes(11),
)
CHUNK = DataChunk(6, "däta", PHASE_REQUEST, 0, 1, 8, 10, bytes(16))


def _envelope_decode(data):
    return SocketFabric._decode_frame(memoryview(bytes(data)))


#: (frame or message octets, decoder, its tables, where the head's
#: first string length sits, that string's octets)
CASES = {
    "envelope": (
        b"".join(SocketFabric._encode_frame(SRC, DEST, KIND_DATA, b"payload!", 8)),
        _envelope_decode, socketnet._ENVELOPE, 20, b"127.0.0.1",
    ),
    "request": (REQUEST.encode(), decode_request, wire._REQUEST_HEAD, 48, b"benchsvc"),
    "chunk": (CHUNK.encode(), decode_chunk, wire._CHUNK_HEAD, 40, "däta".encode()),
}


@pytest.mark.parametrize("name", sorted(CASES))
class TestHostileHeads:
    def test_truncation_anywhere_is_a_marshal_error(self, name):
        data, decode, layout, _at, _string = CASES[name]
        for warm in (False, True):
            for table in layout.interned:
                table.cache_clear()
            if warm:
                decode(data)  # the good key is in the table: a hit
            for cut in range(len(data)):
                with pytest.raises(MarshalError):
                    decode(data[:cut])

    def test_string_lengths_past_the_buffer_are_a_marshal_error(self, name):
        data, decode, layout, at, _string = CASES[name]
        bad = bytearray(data)
        bad[at : at + 2] = struct.pack("=H", 0xFFFF)
        for warm in (False, True):
            if warm:
                decode(data)
            with pytest.raises(MarshalError, match="truncated"):
                decode(bytes(bad))

    def test_bad_utf8_is_a_marshal_error_and_never_interned(self, name):
        data, decode, layout, _at, string = CASES[name]
        bad = bytearray(data)
        bad[bytes(bad).index(string)] = 0xFF
        for warm in (False, True):
            if warm:
                decode(data)
            before = [table.cache_info().currsize for table in layout.interned]
            with pytest.raises(MarshalError, match="not UTF-8"):
                decode(bytes(bad))
            assert [table.cache_info().currsize for table in layout.interned] == before


def _from(label):
    """An envelope-only frame from a peer port labelled ``label``."""
    src = SocketPortAddress("10.0.0.1", 1, 2, label)
    return b"".join(SocketFabric._encode_frame(src, DEST, KIND_DATA, b"x", 1))


def test_a_flood_of_distinct_labels_leaves_the_table_at_its_bound():
    """A peer that keeps sending stays interned through a flood of keys
    each seen once, and the table holds its bound."""
    table = socketnet._ENVELOPE.interned[NATIVE]
    table.cache_clear()
    peer = b"".join(SocketFabric._encode_frame(SRC, DEST, KIND_DATA, b"x", 1))
    first = _envelope_decode(peer)[1]
    for i in range(2 * INTERNED):
        _envelope_decode(_from(f"flood-{i}"))
        assert table.cache_info().currsize <= INTERNED
        if i % 100 == 0:
            assert _envelope_decode(peer)[1] is first
    assert table.cache_info().currsize == INTERNED


def test_a_peer_arriving_after_the_table_filled_is_interned_while_it_sends():
    """The keys of peers gone quiet give way: one that comes later hits
    on every frame after its first, whatever else arrives between."""
    table = socketnet._ENVELOPE.interned[NATIVE]
    table.cache_clear()
    for i in range(2 * INTERNED):
        _envelope_decode(_from(f"gone-{i}"))
    late = _from("late")
    _envelope_decode(late)
    for i in range(INTERNED // 2):
        _envelope_decode(_from(f"other-{i}"))
        hits = table.cache_info().hits
        _envelope_decode(late)
        assert table.cache_info().hits == hits + 1


# -- a frame is as long as its head says ---------------------------------------


@pytest.mark.parametrize(
    "message, decode",
    [
        (REQUEST, decode_request),
        (ReplyMessage(5, 0, b"answer"), decode_reply),
        (ReplyMessage(5, 0, b"", (("data", (1, 2), (3,)),)), decode_reply),
        (CHUNK, decode_chunk),
    ],
    ids=["request", "reply", "reply+tail", "chunk"],
)
def test_a_message_with_trailing_octets_is_a_marshal_error(message, decode):
    data = message.encode()
    assert decode(data) == message
    with pytest.raises(MarshalError, match="8 trailing octets"):
        decode(data + bytes(8))


def test_a_request_frame_with_trailing_octets_is_dropped_not_delivered():
    with SocketFabric("exact") as fabric:
        port = fabric.open_port("victim")
        message = REQUEST.encode()
        good = b"".join(SocketFabric._encode_frame(
            SRC, port.address, KIND_REQUEST, message, len(message)
        ))
        with socket.create_connection((fabric.host, fabric.tcp_port), timeout=5) as raw:
            raw.sendall(LENGTH.pack(len(good) + 16) + good + bytes(16))
            raw.sendall(LENGTH.pack(len(good)) + good)
            _src, kind, payload = port.recv(timeout=5)
        assert kind == KIND_REQUEST and decode_request(payload) == REQUEST
        deadline = time.monotonic() + 5
        while fabric.dropped_frames < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert fabric.dropped_frames == 1 and port.pending() == 0


def test_an_inbox_counts_a_reply_with_trailing_octets_as_garbage():
    fabric = Fabric("inbox")
    sender, receiver = fabric.open_port("s"), fabric.open_port("r")
    inbox = Inbox(receiver)
    sender.send(receiver.address, ReplyMessage(5, 0, b"late").encode() + bytes(8), KIND_REPLY)
    assert inbox.stats()["garbage_dropped"] == 1
    assert inbox.pending_entries() == 0
