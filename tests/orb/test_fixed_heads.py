"""Fixed-layout heads (ISSUE 24) against the CDR heads they replaced.

The fabric envelope and the request, reply and chunk heads are one
``struct`` each way; the field-by-field CDR codec they replaced lives
on in ``tests/cdr/reference_codec.py``.  Pinned here: both codecs carry
the same messages, in either byte order; a head cut short anywhere is a
``MarshalError`` and nothing else; ``peek_request`` stops where the
head does; and a binding's head template is the binding's alone.
"""

import gc
import struct
import sys
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ORB, compile_idl
from repro.cdr.typecodes import MarshalError
from repro.orb.request import (
    MODE_CENTRALIZED,
    MODE_MULTIPORT,
    PHASE_REPLY,
    PHASE_REQUEST,
    DataChunk,
    ReplyMessage,
    RequestMessage,
    decode_chunk,
    decode_reply,
    decode_request,
    peek_request,
)
from repro.orb.socketnet import SocketFabric
from repro.orb.transport import KIND_REQUEST, PortAddress, SocketPortAddress
from tests.cdr.reference_codec import (
    reference_decode_chunk,
    reference_decode_frame,
    reference_decode_reply,
    reference_decode_request,
    reference_encode_chunk,
    reference_encode_frame,
    reference_encode_reply,
    reference_encode_request,
)

# -- the corpus ---------------------------------------------------------------

# ``st.text`` draws any code point but the surrogates (which UTF-8
# cannot carry): non-ASCII names, NULs and empty strings included.
names = st.text(max_size=12)
u32 = st.integers(0, 2**32 - 1)
u64 = st.integers(0, 2**64 - 1)
port_ids = st.integers(1, 2**32 - 1)
bodies = st.binary(max_size=40)
lengths = st.lists(u64, max_size=4).map(tuple)

addresses = st.one_of(
    st.builds(PortAddress, port_ids, names),
    st.builds(
        SocketPortAddress, st.text(min_size=1, max_size=12), u32, port_ids,
        names,
    ),
)
socket_addresses = st.builds(
    SocketPortAddress, st.text(min_size=1, max_size=12), u32, u32, names
)
templates = st.one_of(
    st.just(("block",)),
    st.lists(u32, min_size=1, max_size=4).map(
        lambda weights: ("proportions", tuple(weights))
    ),
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
    client_data_ports=st.lists(addresses, max_size=3).map(tuple),
    dist_layouts=st.lists(st.tuples(names, lengths), max_size=3).map(tuple),
    out_templates=st.lists(st.tuples(names, templates), max_size=3).map(
        tuple
    ),
    body=bodies,
)
replies = st.builds(
    ReplyMessage,
    request_id=u64,
    status=st.sampled_from((0, 1, 2)),
    body=bodies,
    dist_layouts=st.lists(
        st.tuples(names, lengths, lengths), max_size=3
    ).map(tuple),
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
orders = st.booleans()


# The fixed part of each head, flag octet first, as docs/protocol.md
# tabulates it — transcribed here, not imported from the codec.
REQUEST_FMT = "BB?xIQQIIIIIIHHHH"
REPLY_FMT = "B3xIQII"
CHUNK_FMT = "BB2xIQQQIIH"
ENVELOPE_FMT = "B3xIIIIHHH"


def in_order(wire, fmt, little):
    """``wire`` — encoded in this machine's order, like every stream
    the codec writes — with its fixed head in the order asked for.
    Strings and octet runs have no byte order, and a CDR tail is a
    nested stream with a flag octet of its own."""
    native = "<" if sys.byteorder == "little" else ">"
    fields = struct.unpack_from(native + fmt, wire)
    assert fields[0] == (native == "<")
    head = struct.pack(("<" if little else ">") + fmt, little, *fields[1:])
    return head + wire[len(head) :]


def _decode_frame(frame):
    return SocketFabric._decode_frame(memoryview(frame))


def _labels(message):
    """Address equality leaves the label out; the wire does not."""
    ports = (message.reply_port, *message.client_data_ports)
    return [None if port is None else port.label for port in ports]


def _encode_frame(src, dest_port_id, kind, payload, little):
    segments = SocketFabric._encode_frame(
        src, PortAddress(dest_port_id), kind, payload, len(payload)
    )
    return in_order(b"".join(segments), ENVELOPE_FMT, little)


class TestTheSameMessagesAsTheCdrHeads:
    """new-decode(new-encode(m)) == m == reference-decode(
    reference-encode(m)), field for field (the messages are frozen
    dataclasses: ``==`` is that), in both byte orders."""

    @settings(max_examples=300, deadline=None)
    @given(message=requests, little=orders)
    def test_requests(self, message, little):
        wire = in_order(message.encode(), REQUEST_FMT, little)
        for decoded in (
            decode_request(wire),
            reference_decode_request(
                reference_encode_request(message, little)
            ),
        ):
            assert decoded == message
            assert _labels(decoded) == _labels(message)
        routing = peek_request(wire)
        assert decode_request(wire, routing) == message
        assert (
            routing.request_id, routing.trace_id, routing.operation,
            routing.oneway, routing.reply_port, routing.object_key,
            routing.mode, routing.client_identity,
        ) == (
            message.request_id, message.trace_id, message.operation,
            message.oneway, message.reply_port, message.object_key,
            message.mode, message.request_id >> 32,
        )

    @settings(max_examples=200, deadline=None)
    @given(message=replies, little=orders)
    def test_replies(self, message, little):
        wire = in_order(message.encode(), REPLY_FMT, little)
        assert decode_reply(wire) == message
        assert reference_decode_reply(
            reference_encode_reply(message, little)
        ) == message

    @settings(max_examples=200, deadline=None)
    @given(chunk=chunks, little=orders)
    def test_chunks(self, chunk, little):
        wire = in_order(chunk.encode(), CHUNK_FMT, little)
        assert decode_chunk(wire) == chunk
        assert reference_decode_chunk(
            reference_encode_chunk(chunk, little)
        ) == chunk

    @settings(max_examples=200, deadline=None)
    @given(
        src=socket_addresses, dest=u32, kind=names, payload=bodies,
        little=orders,
    )
    def test_envelopes(self, src, dest, kind, payload, little):
        expected = (dest, src, kind, payload)
        for got in (
            _decode_frame(_encode_frame(src, dest, kind, payload, little)),
            reference_decode_frame(
                reference_encode_frame(src, dest, kind, payload, little)
            ),
        ):
            assert got == expected and got[1].label == src.label

    def test_a_segment_list_and_a_large_body_travel_by_reference(self):
        big = bytes(4096)
        message = RequestMessage(1, "k", "op", body=big)
        segments = message.encode_segments()
        assert segments[-1] is big and len(segments) == 2
        assert decode_request(b"".join(segments)) == message


# -- hostile input -------------------------------------------------------------

REPLY_PORT = SocketPortAddress("127.0.0.1", 40001, 3, "bench:réply")
EXAMPLES = {
    "request": (
        RequestMessage(
            (7 << 32) | 1, "benchsvc", "roundtrip", trace_id=9,
            reply_port=REPLY_PORT, body=b"\x01" + bytes(11),
        ),
        decode_request, REQUEST_FMT,
    ),
    "request+tail": (
        RequestMessage(
            2, "k", "op", mode=MODE_MULTIPORT, reply_port=REPLY_PORT,
            client_nthreads=2,
            client_data_ports=(PortAddress(4, "d0"), REPLY_PORT),
            dist_layouts=(("data", (3, 4)),),
            out_templates=(("out", ("proportions", (1, 2))),),
            body=b"tail",
        ),
        decode_request, REQUEST_FMT,
    ),
    "reply": (ReplyMessage(5, 0, b"answer"), decode_reply, REPLY_FMT),
    "reply+tail": (
        ReplyMessage(5, 0, b"", (("data", (1, 2), (3,)),)),
        decode_reply, REPLY_FMT,
    ),
    "chunk": (
        DataChunk(6, "däta", PHASE_REQUEST, 0, 1, 8, 10, bytes(16)),
        decode_chunk, CHUNK_FMT,
    ),
    "chunk, no payload": (
        DataChunk(6, "x", PHASE_REPLY, 0, 1, 8, 8, b""),
        decode_chunk, CHUNK_FMT,
    ),
}


class TestHostileInput:
    @pytest.mark.parametrize("little", [True, False])
    @pytest.mark.parametrize("name", sorted(EXAMPLES))
    def test_truncation_anywhere_is_a_marshal_error(self, name, little):
        message, decode, fmt = EXAMPLES[name]
        wire = in_order(message.encode(), fmt, little)
        assert decode(wire) == message
        for cut in range(len(wire)):
            with pytest.raises(MarshalError):
                decode(wire[:cut])

    @pytest.mark.parametrize("little", [True, False])
    def test_a_truncated_envelope_is_a_marshal_error(self, little):
        wire = _encode_frame(REPLY_PORT, 9, "request", b"payload!", little)
        assert _decode_frame(wire)[0] == 9
        for cut in range(len(wire)):
            with pytest.raises(MarshalError):
                _decode_frame(wire[:cut])

    @pytest.mark.parametrize(
        "name", [n for n in sorted(EXAMPLES) if not n.startswith("reply")]
    )
    def test_bad_utf8_in_a_head_string_is_a_marshal_error(self, name):
        """(A reply head has no strings.)"""
        message, decode, _fmt = EXAMPLES[name]
        wire = bytearray(message.encode())
        first = (
            message.param if decode is decode_chunk else message.object_key
        )
        wire[bytes(wire).index(first.encode("utf-8"))] = 0xFF
        with pytest.raises(MarshalError, match="not UTF-8"):
            decode(bytes(wire))
        if decode is decode_request:
            assert peek_request(bytes(wire)) is None

    def test_bad_utf8_in_the_envelope_is_a_marshal_error(self):
        wire = bytearray(_encode_frame(REPLY_PORT, 9, "data", b"x", True))
        wire[bytes(wire).index(b"127.0.0.1")] = 0xFF
        with pytest.raises(MarshalError, match="not UTF-8"):
            _decode_frame(bytes(wire))

    def test_counts_past_the_frame_are_a_marshal_error(self):
        wire = bytearray(
            in_order(EXAMPLES["request"][0].encode(), REQUEST_FMT, True)
        )
        wire[24:28] = b"\xff\xff\xff\xff"  # data ports: 2**32 - 1
        assert peek_request(bytes(wire)).counts[0] == 2**32 - 1
        with pytest.raises(MarshalError):
            decode_request(bytes(wire))

    def test_a_null_data_port_is_refused(self):
        message = EXAMPLES["request+tail"][0]
        wire = bytearray(message.encode())
        tail = peek_request(bytes(wire)).resume_at
        # The first data port's id: a ulong at offset 4 of the tail.
        at = tail + (4 if sys.byteorder == "little" else 7)
        assert wire[at] == 4
        wire[at] = 0
        with pytest.raises(MarshalError, match="null client data port"):
            decode_request(bytes(wire))


class TestPeekStopsAtTheHead:
    @pytest.mark.parametrize("name", ["request", "request+tail"])
    def test_a_poisoned_tail_changes_nothing(self, name):
        message = EXAMPLES[name][0]
        wire = message.encode()
        routing = peek_request(wire)
        assert routing.resume_at % 8 == 0
        poisoned = wire[: routing.resume_at] + b"\xff" * (
            len(wire) - routing.resume_at
        )
        assert peek_request(poisoned) == routing
        # ... and needs nothing behind the head's last string.
        assert peek_request(wire[: routing.resume_at]) == routing

    def test_resume_at_holds_for_a_copy_of_the_frame(self):
        message = EXAMPLES["request+tail"][0]
        wire = message.encode()
        routing = peek_request(memoryview(bytearray(wire)))
        assert decode_request(bytes(wire), routing) == message


# -- the binding's template ----------------------------------------------------

IDL = "interface counter { long bump(in long x); long other(in long x); };"


@pytest.fixture(scope="module")
def idl():
    return compile_idl(IDL, module_name="fixed_heads_idl")


class TestHeadTemplates:
    def test_a_template_is_its_sending_port_s_and_goes_with_it(self, idl):
        """The request templates a runtime's bindings use are kept by
        the runtime's port (:meth:`~repro.orb.transport.Port.template`),
        one per object, operation and mode, whichever binding built it,
        and are dropped when the port closes."""

        class Counter(idl.counter_skel):
            def bump(self, x):
                return x + 1

            def other(self, x):
                return -x

        with ORB("heads") as orb:
            orb.serve("counter", lambda ctx: Counter(), nthreads=1)
            runtime = orb.client_runtime()
            first = idl.counter._bind("counter", runtime)
            second = idl.counter._bind("counter", runtime)
            assert first.bump(1) == 2 and first.bump(2) == 3
            assert first.other(5) == -5 and second.bump(9) == 10
            kept = {
                key: template
                for (_dest, kind, key), template in runtime.port._templates.items()
                if kind == KIND_REQUEST
            }
            key = ("counter", "bump", first.transfer_method)
            assert set(kept) == {key, ("counter", "other", first.transfer_method)}
            template = weakref.ref(kept.pop(key))
            kept.clear()
            del first
            gc.collect()
            assert template() is not None
            assert second.bump(0) == 1
            runtime.close()
            gc.collect()
            assert template() is None
