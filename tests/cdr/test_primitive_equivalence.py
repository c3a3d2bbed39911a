"""The compiled CDR primitives against the code they replaced.

ISSUE 15 swapped the per-call ``struct.pack``/``unpack`` + view-slice
primitives for precompiled ``struct.Struct`` tables, ``unpack_from``
at the aligned offset, and an exact-type fast path in front of
``validate``.  None of that may be visible: ``reference_codec.py`` is
the parent's codec, kept verbatim, and every test here drives both
with the same input and demands the same bytes, the same values, the
same ``MarshalError`` text and the same copy-account totals.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cdr import (
    CdrDecoder,
    CdrEncoder,
    MarshalError,
    SequenceTC,
    StructTC,
    TC_BOOLEAN,
    TC_CHAR,
    TC_DOUBLE,
    TC_FLOAT,
    TC_LONG,
    TC_LONGLONG,
    TC_OCTET,
    TC_SHORT,
    TC_STRING,
    TC_ULONG,
    TC_ULONGLONG,
    TC_USHORT,
    copy_audit,
)
from repro.cdr.typecodes import StringTC

from tests.cdr.reference_codec import ReferenceDecoder, ReferenceEncoder

INTEGER_CODES = (
    TC_SHORT, TC_USHORT, TC_LONG, TC_ULONG, TC_LONGLONG, TC_ULONGLONG,
    TC_OCTET,
)
FLOAT_CODES = (TC_FLOAT, TC_DOUBLE)


def _int_range(typecode):
    bits = typecode.size * 8
    if typecode.signed:
        return -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    return 0, (1 << bits) - 1


@st.composite
def basic_values(draw):
    """``(typecode, in-range value)`` over every basic type."""
    typecode = draw(st.sampled_from(
        INTEGER_CODES + FLOAT_CODES + (TC_BOOLEAN, TC_CHAR)
    ))
    if typecode in INTEGER_CODES:
        lo, hi = _int_range(typecode)
        return typecode, draw(st.integers(lo, hi))
    if typecode is TC_FLOAT:
        return typecode, draw(st.floats(width=32, allow_nan=False))
    if typecode is TC_DOUBLE:
        return typecode, draw(st.floats(allow_nan=False))
    if typecode is TC_BOOLEAN:
        return typecode, draw(st.booleans())
    return typecode, draw(st.characters(max_codepoint=255))


def _outcome(fn):
    """What a codec call did: its value, or its error's class and
    exact text."""
    try:
        return ("ok", fn())
    except Exception as exc:  # noqa: BLE001 - the outcome under test
        return (type(exc).__name__, str(exc))


def _encode(cls, little, pad, writes):
    """Run ``writes`` (``(method, *args)`` tuples) on a fresh stream
    of class ``cls`` whose first ``pad`` octets put the next write at
    every alignment; returns ``(bytes or error, account totals)``."""
    with copy_audit() as account:
        enc = cls(little_endian=little)
        for _ in range(pad):
            enc.write_boolean(False)

        def run():
            for method, *args in writes:
                getattr(enc, method)(*args)
            return enc.getvalue()

        outcome = _outcome(run)
    return outcome, account.snapshot()


def _both_encode(little, pad, writes):
    new = _encode(CdrEncoder, little, pad, writes)
    old = _encode(ReferenceEncoder, little, pad, writes)
    assert new == old
    return new[0]


class TestEncoderEquivalence:
    @given(basic_values(), st.booleans(), st.integers(0, 8))
    def test_basic_types_same_bytes_and_values_back(
        self, pair, little, pad
    ):
        typecode, value = pair
        status, wire = _both_encode(
            little, pad, [("write", typecode, value)]
        )
        assert status == "ok"
        # ...and both decoders read the same value back, from either
        # byte order, at every starting alignment.
        results = []
        for cls in (CdrDecoder, ReferenceDecoder):
            dec = cls(wire)
            dec.read_octets(pad)
            results.append((dec.read(typecode), dec.remaining))
        assert results[0] == results[1]
        assert type(results[0][0]) is type(results[1][0])
        if typecode is TC_FLOAT:
            assert results[0][0] == np.float32(value)
        else:
            assert results[0][0] == value

    @given(
        st.sampled_from(INTEGER_CODES),
        st.integers(-(1 << 70), 1 << 70),
        st.booleans(),
    )
    def test_out_of_range_integers(self, typecode, value, little):
        status, _detail = _both_encode(
            little, 0, [("write", typecode, value)]
        )
        lo, hi = _int_range(typecode)
        assert (status == "ok") == (lo <= value <= hi)

    @pytest.mark.parametrize("typecode", INTEGER_CODES + FLOAT_CODES)
    @pytest.mark.parametrize(
        "value",
        [
            True, False, 1.5, "7", b"7", None, [1], 1 + 0j,
            np.int8(5), np.int64(-3), np.uint64(2**63), np.int64(2**40),
            np.float32(2.5), np.float64(-1e300), np.bool_(True),
        ],
        ids=repr,
    )
    def test_wrong_type_bool_and_numpy_scalars(self, typecode, value):
        # Accepted or refused, MarshalError or a struct OverflowError:
        # the same on both sides, message included.
        for little in (False, True):
            _both_encode(little, 0, [("write", typecode, value)])

    @given(
        st.sampled_from(["write_ulong", "write_long"]),
        st.one_of(
            st.integers(-(1 << 40), 1 << 40), st.booleans(),
            st.floats(allow_nan=False), st.text(max_size=3), st.none(),
        ),
        st.integers(0, 4),
    )
    def test_ulong_and_long_writers(self, method, value, pad):
        _both_encode(True, pad, [(method, value)])
        _both_encode(False, pad, [(method, value)])

    @given(
        st.text(max_size=40),
        st.one_of(st.none(), st.integers(0, 40)),
        st.booleans(),
        st.integers(0, 4),
    )
    def test_strings_bounded_and_not(self, value, bound, little, pad):
        status, detail = _both_encode(
            little, pad, [("write_string", value, bound)]
        )
        assert (status == "ok") == (bound is None or len(value) <= bound)
        if status == "ok":
            for cls in (CdrDecoder, ReferenceDecoder):
                dec = cls(detail)
                dec.read_octets(pad)
                assert dec.read(StringTC(bound)) == value

    @pytest.mark.parametrize("value", [b"x", 3, None, ["a"]], ids=repr)
    def test_non_str_strings_rejected_alike(self, value):
        status, _detail = _both_encode(
            True, 0, [("write_string", value)]
        )
        assert status == "MarshalError"

    def test_str_subclass_still_accepted(self):
        class Label(str):
            pass

        status, _wire = _both_encode(
            True, 0, [("write_string", Label("tag"))]
        )
        assert status == "ok"

    @given(st.lists(basic_values(), max_size=12), st.booleans())
    def test_mixed_streams_with_strings(self, pairs, little):
        """A header-shaped stream: scalars of every width between
        strings, the padding of each depending on all before it."""
        writes = []
        fields = []
        for index, (typecode, value) in enumerate(pairs):
            writes.append(("write", typecode, value))
            writes.append(("write_string", f"f{index}"))
            fields.append((f"v{index}", typecode))
            fields.append((f"s{index}", TC_STRING))
        status, wire = _both_encode(little, 0, writes)
        assert status == "ok"
        struct_tc = StructTC("mixed", tuple(fields))
        with copy_audit() as new_account:
            new = CdrDecoder(wire).read(struct_tc)
        with copy_audit() as old_account:
            old = ReferenceDecoder(wire).read(struct_tc)
        assert new == old
        assert new_account.snapshot() == old_account.snapshot()


def _decode_script(cls, data, script):
    """Run a list of reads on a fresh decoder; every step's outcome
    plus where the stream stood afterwards."""
    try:
        dec = cls(data)
    except MarshalError as exc:
        return [("MarshalError", str(exc))]
    trail = []
    for method, *args in script:
        trail.append((_outcome(lambda: getattr(dec, method)(*args)),
                      dec.remaining, dec.at_end()))
    return trail


READ_SCRIPTS = [
    [("read", typecode)]
    for typecode in INTEGER_CODES + FLOAT_CODES + (TC_BOOLEAN, TC_CHAR)
] + [
    [("read_ulong",)],
    [("read_long",)],
    [("read_string",)],
    [("read_boolean",), ("read_ulong",), ("read_string",),
     ("read", TC_ULONGLONG), ("read_string",), ("read", TC_SHORT)],
    [("read_octets", 3), ("read", TC_DOUBLE), ("read_long",)],
    [("read", SequenceTC(TC_LONG))],
    [("read", SequenceTC(TC_STRING))],
]


class TestDecoderEquivalence:
    @given(
        st.binary(max_size=48),
        st.sampled_from(READ_SCRIPTS),
    )
    def test_arbitrary_bytes_same_outcome(self, data, script):
        """Garbage in: the same values, or the same MarshalError with
        the same message (offsets and all), step for step."""
        new = _decode_script(CdrDecoder, data, script)
        old = _decode_script(ReferenceDecoder, data, script)
        assert _plain(new) == _plain(old)

    @given(st.lists(basic_values(), min_size=1, max_size=6),
           st.booleans())
    def test_truncation_at_every_offset(self, pairs, little):
        enc = ReferenceEncoder(little_endian=little)
        script = []
        for index, (typecode, value) in enumerate(pairs):
            enc.write(typecode, value)
            enc.write_string(f"name-{index}")
            script += [("read", typecode), ("read_string",)]
        wire = enc.getvalue()
        for cut in range(len(wire) + 1):
            new = _decode_script(CdrDecoder, wire[:cut], script)
            old = _decode_script(ReferenceDecoder, wire[:cut], script)
            assert _plain(new) == _plain(old), cut

    @given(st.text(max_size=30), st.booleans())
    def test_string_copy_accounting(self, value, little):
        enc = ReferenceEncoder(little_endian=little)
        enc.write_string(value)
        wire = enc.getvalue()
        totals = []
        for cls in (CdrDecoder, ReferenceDecoder):
            with copy_audit() as account:
                assert cls(wire).read_string() == value
            totals.append(account.snapshot())
        assert totals[0] == totals[1]

    @pytest.mark.parametrize(
        "wire,message",
        [
            (b"\x01\x00\x00\x00\x00\x00\x00\x00", "length prefix of 0"),
            (b"\x01\x00\x00\x00\x02\x00\x00\x00ab", "NUL-terminated"),
            (b"\x01\x00\x00\x00\x09\x00\x00\x00ab", "truncated"),
        ],
    )
    def test_malformed_strings(self, wire, message):
        for cls in (CdrDecoder, ReferenceDecoder):
            with pytest.raises(MarshalError, match=message):
                cls(wire).read_string()

    def test_invalid_utf8_raises_the_same_error(self):
        wire = b"\x01\x00\x00\x00\x03\x00\x00\x00\xff\xfe\x00"
        errors = []
        for cls in (CdrDecoder, ReferenceDecoder):
            with pytest.raises(MarshalError, match="not UTF-8") as caught:
                cls(wire).read_string()
            errors.append(str(caught.value))
        assert errors[0] == errors[1]


def _plain(trail):
    """Decoded values made comparable: views and arrays as bytes."""
    plain = []
    for step in trail:
        if len(step) == 2:
            plain.append(step)
            continue
        (status, value), remaining, at_end = step
        if isinstance(value, memoryview):
            value = bytes(value)
        elif isinstance(value, np.ndarray):
            value = (str(value.dtype), value.tolist())
        plain.append((status, value, remaining, at_end))
    return plain
