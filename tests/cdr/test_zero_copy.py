"""Zero-copy CDR contract tests.

Three guarantees of the buffer-view pipeline:

1. cross-endian streams still roundtrip for every numeric typecode
   (the one place a copy is *required*);
2. decoder views are read-only and cannot corrupt — or be corrupted
   through — a reused receive buffer (mutation-safety contract),
   unless the caller declares the stream owned: then, and only then,
   a writable buffer's large runs come back writable;
3. the copy audit observes exactly the copies the design admits.
"""

import numpy as np
import pytest

from repro.cdr import (
    CdrDecoder,
    CdrEncoder,
    MarshalError,
    SequenceTC,
    TC_BOOLEAN,
    TC_DOUBLE,
    TC_FLOAT,
    TC_LONG,
    TC_LONGLONG,
    TC_OCTET,
    TC_SHORT,
    TC_ULONG,
    TC_ULONGLONG,
    TC_USHORT,
    copy_audit,
    decode_value,
    encode_value,
)
from repro.cdr.head import HeadLayout, Template, octet_run, padded
from tests.cdr.reference_codec import ReferenceDecoder

NUMERIC_TCS = [
    TC_OCTET,
    TC_SHORT,
    TC_USHORT,
    TC_LONG,
    TC_ULONG,
    TC_LONGLONG,
    TC_ULONGLONG,
    TC_FLOAT,
    TC_DOUBLE,
    TC_BOOLEAN,
]


def _sample(element) -> np.ndarray:
    dtype = element.dtype
    if element.kind == "boolean":
        return np.array([True, False, True, True, False])
    if np.issubdtype(dtype, np.floating):
        return np.linspace(-8, 8, 17).astype(dtype)
    info = np.iinfo(dtype)
    return np.array(
        [info.min, 0, 1, 7, info.max], dtype=dtype
    )


class TestCrossEndianRoundtrip:
    """Every numeric element type survives a foreign-endian stream."""

    @pytest.mark.parametrize(
        "element", NUMERIC_TCS, ids=lambda tc: tc.kind
    )
    @pytest.mark.parametrize("little", [True, False], ids=["le", "be"])
    def test_roundtrip(self, element, little):
        seq_tc = SequenceTC(element)
        data = _sample(element)
        enc = CdrEncoder(little_endian=little)
        enc.write(seq_tc, data)
        result = CdrDecoder(enc.getvalue()).read(seq_tc)
        np.testing.assert_array_equal(result, data)

    @pytest.mark.parametrize(
        "element", NUMERIC_TCS, ids=lambda tc: tc.kind
    )
    def test_segments_equal_getvalue(self, element):
        """The segment list is byte-identical to the flat stream —
        the wire format did not change."""
        data = _sample(element)
        seq_tc = SequenceTC(element)
        enc_a = CdrEncoder(little_endian=True)
        enc_a.write(seq_tc, data)
        enc_b = CdrEncoder(little_endian=True)
        enc_b.write(seq_tc, data)
        joined = b"".join(bytes(s) for s in enc_b.segments())
        assert enc_a.getvalue() == joined


class TestMutationSafety:
    """Decoder views must not be able to corrupt a reused buffer."""

    def test_decoded_array_is_readonly_view(self):
        seq_tc = SequenceTC(TC_DOUBLE)
        data = np.arange(64.0)
        stream = encode_value(seq_tc, data)
        result = decode_value(seq_tc, stream)
        assert result.base is not None  # a view, not a copy
        assert not result.flags.writeable
        with pytest.raises(ValueError):
            result[0] = 99.0

    def test_read_octets_view_is_readonly(self):
        enc = CdrEncoder()
        enc.write_octets(b"payload-bytes")
        dec = CdrDecoder(enc.getvalue())
        view = dec.read_octets(13)
        assert isinstance(view, memoryview)
        assert view.readonly

    def test_view_over_reused_receive_buffer(self):
        """The transport contract: a view pins the buffer, and
        because it is read-only, user code cannot scribble into bytes
        a later frame will land on."""
        seq_tc = SequenceTC(TC_LONG)
        buf = bytearray(encode_value(seq_tc, np.arange(8, dtype=np.int32)))
        result = decode_value(seq_tc, buf)
        # The view aliases the buffer: a transport that recycled it
        # in place would be visible through the view...
        with pytest.raises(ValueError):
            result[:] = 0  # ...but the view can never corrupt it.
        assert not result.flags.writeable

    def test_a_private_writable_array_is_a_copy_away(self):
        """There is no decoder switch for it: a caller who needs to
        mutate a decoded array it does not own calls ``.copy()``."""
        seq_tc = SequenceTC(TC_DOUBLE)
        data = np.arange(16.0)
        stream = encode_value(seq_tc, data)
        result = decode_value(seq_tc, stream).copy()
        assert result.flags.writeable
        result[0] = -1.0  # must not raise
        # and it is detached from the stream:
        fresh = decode_value(seq_tc, stream)
        assert fresh[0] == 0.0

    def test_cross_endian_arrays_are_fresh(self):
        """The byteswap path materializes; the result must not alias
        the stream."""
        seq_tc = SequenceTC(TC_DOUBLE)
        enc = CdrEncoder(little_endian=False)
        enc.write(seq_tc, np.arange(4.0))
        stream = enc.getvalue()
        dec = CdrDecoder(stream)
        if dec.little_endian:  # platform is big-endian: skip
            pytest.skip("needs a foreign-endian stream")
        result = dec.read(seq_tc)
        np.testing.assert_array_equal(result, np.arange(4.0))


class TestOwnership:
    """``owned=True`` changes who may write, never what is read."""

    @staticmethod
    def _stream(little: bool, n: int = 64) -> bytearray:
        enc = CdrEncoder(little_endian=little)
        enc.write(SequenceTC(TC_DOUBLE), np.arange(float(n)))
        return bytearray(enc.getvalue())

    @pytest.mark.parametrize("decoder", [CdrDecoder, ReferenceDecoder])
    @pytest.mark.parametrize("little", [True, False], ids=["le", "be"])
    def test_owned_and_borrowed_decodes_differ_only_in_writability(
        self, little, decoder
    ):
        seq_tc = SequenceTC(TC_DOUBLE)
        stream = self._stream(little)
        borrowed = decoder(stream).read(seq_tc)
        owned = decoder(stream, owned=True).read(seq_tc)
        np.testing.assert_array_equal(owned, borrowed)
        assert owned.dtype == borrowed.dtype
        native = little == (np.little_endian)
        if native:
            assert owned.flags.writeable and not borrowed.flags.writeable
            assert np.shares_memory(owned, np.frombuffer(stream, np.uint8))
        else:
            # A cross-endian run is a byteswapped copy whoever owns the
            # stream: never adopted, so writing to it is harmless.
            for arr in (owned, borrowed):
                assert not np.shares_memory(
                    arr, np.frombuffer(stream, np.uint8)
                )

    def test_owned_means_nothing_on_a_readonly_buffer(self):
        seq_tc = SequenceTC(TC_DOUBLE)
        for stream in (
            bytes(self._stream(True)),
            memoryview(self._stream(True)).toreadonly(),
        ):
            result = CdrDecoder(stream, owned=True).read(seq_tc)
            assert not result.flags.writeable

    def test_only_runs_of_at_least_half_the_stream_are_writable(self):
        """An adopted run pins its whole stream: it may pin at most
        twice its own bytes, and two runs of one stream can never
        both be handed out writable."""
        seq_tc = SequenceTC(TC_DOUBLE)
        enc = CdrEncoder()
        enc.write(seq_tc, np.arange(32.0))
        enc.write(seq_tc, np.arange(32.0))
        enc.write(seq_tc, np.arange(512.0))
        dec = CdrDecoder(bytearray(enc.getvalue()), owned=True)
        small_a, small_b, big = (dec.read(seq_tc) for _ in range(3))
        assert not small_a.flags.writeable
        assert not small_b.flags.writeable
        assert big.flags.writeable
        assert 2 * big.nbytes >= len(enc)

    @pytest.mark.parametrize("lead", range(9))
    def test_an_octet_run_starts_eight_aligned_whatever_precedes_it(
        self, lead
    ):
        """The rule's one home is the fixed-layout head
        (``repro.cdr.head``): fixed part, strings, pad to 8, run."""
        layout = HeadLayout("xI", strings=1, make=bytes)
        (head,) = Template(*layout.pieces((5,), (), (b"x" * lead,))).frame(
            b"", b""
        )
        assert len(head) == padded(layout.size + lead)
        stream = head + b"hello"
        (_flag, n, _length), string, end = layout.decode(stream)
        assert (string, end) == (b"x" * lead, len(head))
        view = memoryview(stream)
        assert bytes(octet_run(view, end, n)) == b"hello"
        # A stream cut inside the pad or the run is truncated, not
        # misread.
        for cut in range(layout.size + lead, len(stream)):
            with pytest.raises(MarshalError):
                octet_run(view[:cut], len(head), n)

    def test_owned_octet_runs_follow_the_same_rule(self):
        enc = CdrEncoder()
        enc.write_octets(b"h" * 7)
        enc.write_octets(b"p" * 64)
        dec = CdrDecoder(bytearray(enc.getvalue()), owned=True)
        assert dec.read_octets(7).readonly
        body = dec.read_octets(64)
        assert not body.readonly
        # Ownership passes down a nesting only by being declared again.
        assert CdrDecoder(body).read_octets(63).readonly
        assert not CdrDecoder(body, owned=True).read_octets(63).readonly


class TestBooleanValidation:
    def test_accepts_bool_and_01(self):
        enc = CdrEncoder()
        enc.write_boolean(True)
        enc.write_boolean(False)
        enc.write_boolean(np.bool_(True))
        enc.write_boolean(1)
        enc.write_boolean(0)
        dec = CdrDecoder(enc.getvalue())
        assert [dec.read_boolean() for _ in range(5)] == [
            True,
            False,
            True,
            True,
            False,
        ]

    @pytest.mark.parametrize("bad", [2, -1, "yes", 1.0, None, b"\x01"])
    def test_rejects_non_boolean(self, bad):
        enc = CdrEncoder()
        with pytest.raises(MarshalError):
            enc.write_boolean(bad)


class TestCopyAccounting:
    def test_large_array_encodes_without_payload_copy(self):
        seq_tc = SequenceTC(TC_DOUBLE)
        data = np.arange(1 << 16, dtype=np.float64)  # 512 KiB
        with copy_audit() as account:
            enc = CdrEncoder()
            enc.write(seq_tc, data)
            segments = enc.segments()
        copied_bytes, _ = account.snapshot()
        assert copied_bytes < data.nbytes // 8  # headers only
        # ... and the array itself rides as a borrowed segment:
        assert any(
            isinstance(s, memoryview) and len(s) == data.nbytes
            for s in segments
        )

    def test_decode_views_cost_nothing(self):
        seq_tc = SequenceTC(TC_DOUBLE)
        data = np.arange(1 << 15, dtype=np.float64)
        stream = encode_value(seq_tc, data)
        with copy_audit() as account:
            result = decode_value(seq_tc, stream)
        copied_bytes, _ = account.snapshot()
        assert copied_bytes == 0
        np.testing.assert_array_equal(result, data)

    def test_getvalue_flatten_is_accounted(self):
        seq_tc = SequenceTC(TC_DOUBLE)
        data = np.arange(4096, dtype=np.float64)
        enc = CdrEncoder()
        enc.write(seq_tc, data)
        with copy_audit() as account:
            flat = enc.getvalue()
        copied_bytes, _ = account.snapshot()
        assert copied_bytes >= len(flat)
