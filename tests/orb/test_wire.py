"""Wire-message roundtrip tests (requests, replies, data chunks)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdr.typecodes import MarshalError
from repro.orb.request import (
    DataChunk,
    MODE_CENTRALIZED,
    MODE_MULTIPORT,
    PHASE_REPLY,
    PHASE_REQUEST,
    ReplyMessage,
    RequestMessage,
    STATUS_OK,
    STATUS_USER_EXCEPTION,
    decode_chunk,
    decode_reply,
    decode_request,
)
from repro.orb.transport import PortAddress


class TestRequestMessage:
    def test_minimal_roundtrip(self):
        msg = RequestMessage(1, "obj", "op")
        assert decode_request(msg.encode()) == msg

    def test_full_roundtrip(self):
        msg = RequestMessage(
            request_id=42,
            object_key="example",
            operation="diffusion",
            mode=MODE_MULTIPORT,
            oneway=False,
            reply_port=PortAddress(7, "client:reply"),
            client_nthreads=4,
            client_data_ports=(
                PortAddress(11, "d0"),
                PortAddress(12, "d1"),
            ),
            dist_layouts=(("darray", (256, 256, 256, 256)),),
            body=b"\x01payload",
        )
        assert decode_request(msg.encode()) == msg

    def test_trace_id_roundtrips_and_defaults_to_zero(self):
        # The trace id rides in the request header right after the
        # request id (see docs/protocol.md); 0 means tracing off.
        traced = RequestMessage(9, "obj", "op", trace_id=0x1F2E3D4C5B6A7988)
        decoded = decode_request(traced.encode())
        assert decoded.trace_id == 0x1F2E3D4C5B6A7988
        assert decoded == traced
        assert decode_request(
            RequestMessage(9, "obj", "op").encode()
        ).trace_id == 0

    def test_oneway_without_reply_port(self):
        msg = RequestMessage(3, "o", "ping", oneway=True, reply_port=None)
        decoded = decode_request(msg.encode())
        assert decoded.oneway and decoded.reply_port is None

    def test_layout_lookup(self):
        msg = RequestMessage(
            1, "o", "f", dist_layouts=(("a", (1, 2)), ("b", (3,)))
        )
        assert msg.layout_of("b") == (3,)
        assert msg.layout_of("zzz") is None

    def test_unknown_mode_rejected(self):
        data = bytearray(RequestMessage(1, "o", "f").encode())
        data[1] = 2  # the mode octet: 0 centralized, 1 multiport
        with pytest.raises(MarshalError, match="unknown transfer mode"):
            decode_request(data)
        with pytest.raises(MarshalError, match="unknown transfer mode"):
            RequestMessage(1, "o", "f", mode="centralizzz").encode()

    @given(
        rid=st.integers(0, 2**32 - 1),
        key=st.text(min_size=1, max_size=20),
        op=st.text(min_size=1, max_size=20),
        nthreads=st.integers(1, 16),
        body=st.binary(max_size=64),
    )
    @settings(max_examples=50)
    def test_header_roundtrip_property(self, rid, key, op, nthreads, body):
        msg = RequestMessage(
            rid, key, op, client_nthreads=nthreads, body=body
        )
        assert decode_request(msg.encode()) == msg


class TestReplyMessage:
    def test_ok_roundtrip(self):
        msg = ReplyMessage(9, STATUS_OK, b"result")
        assert decode_reply(msg.encode()) == msg

    def test_layouts_roundtrip(self):
        msg = ReplyMessage(
            9,
            STATUS_OK,
            b"",
            dist_layouts=(
                ("darray", (512, 512), (256, 256, 256, 256)),
            ),
        )
        decoded = decode_reply(msg.encode())
        assert decoded == msg
        assert decoded.layout_of("darray") == (
            (512, 512),
            (256, 256, 256, 256),
        )

    def test_exception_status(self):
        msg = ReplyMessage(2, STATUS_USER_EXCEPTION, b"\x01exc")
        assert decode_reply(msg.encode()).status == STATUS_USER_EXCEPTION

    def test_bad_status_rejected(self):
        msg = ReplyMessage(2, STATUS_OK)
        data = bytearray(msg.encode())
        data[16] = 99  # status field (after preamble + 64-bit rid)
        with pytest.raises(MarshalError):
            decode_reply(bytes(data))


class TestDataChunk:
    def test_roundtrip(self):
        payload = np.arange(8.0).tobytes()
        chunk = DataChunk(5, "darray", PHASE_REQUEST, 1, 2, 16, 24, payload)
        assert decode_chunk(chunk.encode()) == chunk

    def test_elements_decoding(self):
        data = np.arange(4.0)
        chunk = DataChunk(
            1, "x", PHASE_REPLY, 0, 0, 10, 14, data.tobytes()
        )
        np.testing.assert_array_equal(
            chunk.elements(np.dtype(np.float64)), data
        )

    def test_elements_size_mismatch(self):
        chunk = DataChunk(1, "x", PHASE_REQUEST, 0, 0, 0, 4, b"\0" * 7)
        with pytest.raises(MarshalError, match="bytes"):
            chunk.elements(np.dtype(np.float64))

    def test_inverted_range_rejected(self):
        chunk = DataChunk(1, "x", PHASE_REQUEST, 0, 0, 10, 4)
        with pytest.raises(MarshalError, match="inverted"):
            decode_chunk(chunk.encode())

    def test_bad_phase_rejected(self):
        good = DataChunk(1, "x", PHASE_REQUEST, 0, 0, 0, 0).encode()
        # Corrupt the phase octet (offset 1 of the fixed head).
        bad = bytearray(good)
        bad[1] = 7
        with pytest.raises(MarshalError, match="phase"):
            decode_chunk(bytes(bad))
