"""A trailing numeric (d)sequence compiled into the body, against the walk.

:class:`~repro.cdr.body.BodyCodec` packs a sequence or distributed
sequence of numbers that ends a body behind its fixed prefix: the count
joins the prefix ``struct``, the elements leave as one segment and
arrive as one view.  The reference is the member-by-member walk it
replaces, now held to the body's exact length; every case demands, in
both byte orders, the same octets, the same decoded values and their
writability, the same error (type and text) and the same copy-account
totals.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cdr import CdrDecoder, CdrEncoder, copy_audit
from repro.cdr.accounting import copied
from repro.cdr.body import NATIVE_LITTLE, BodyCodec
from repro.cdr.encoder import SEGMENT_THRESHOLD
from repro.cdr.typecodes import (
    TC_BOOLEAN,
    TC_DOUBLE,
    TC_FLOAT,
    TC_LONG,
    TC_LONGLONG,
    TC_OCTET,
    TC_SHORT,
    TC_STRING,
    TC_ULONGLONG,
    DSequenceTC,
    MarshalError,
    SequenceTC,
)

PREFIX = (TC_OCTET, TC_SHORT, TC_LONG, TC_LONGLONG, TC_FLOAT, TC_DOUBLE)
ELEMENTS = (TC_OCTET, TC_SHORT, TC_LONG, TC_FLOAT, TC_DOUBLE, TC_ULONGLONG)


def reference_encode(typecodes, values, little):
    enc = CdrEncoder(little)
    for typecode, value in zip(typecodes, values):
        if typecode is not None:
            enc.write(typecode, value)
    return enc


def reference_decode(typecodes, body):
    dec = CdrDecoder(body, owned=True)
    values = [None if tc is None else dec.read(tc) for tc in typecodes]
    if dec.remaining:
        raise MarshalError(f"{dec.remaining} trailing octets behind the message")
    for i, typecode in enumerate(typecodes):
        value = values[i]
        if isinstance(typecode, SequenceTC) and not value.flags.writeable:
            copied(value.nbytes)
            values[i] = value.copy()
    return values


def _outcome(fn):
    try:
        return "ok", fn()
    except Exception as exc:  # noqa: BLE001 - the outcome under test
        return type(exc).__name__, str(exc)


def _audited(fn):
    with copy_audit() as account:
        outcome = _outcome(fn)
    return outcome, account.snapshot()


def _flat(body):
    return body if isinstance(body, bytes) else body.getvalue()


def _comparable(values):
    return [
        (str(v.dtype), v.tolist(), v.flags.writeable)
        if isinstance(v, np.ndarray) else v
        for v in values
    ]


def _numbers(tc):
    if tc.signed is None:
        return st.floats(width=32 if tc.size == 4 else 64, allow_nan=False)
    _kind, lo, hi = tc.exact
    return st.integers(lo, hi)


@st.composite
def shapes(draw):
    """Typecodes: a numeric prefix (maybe broken by a position the body
    skips), then the (d)sequence."""
    prefix = draw(st.lists(st.sampled_from(PREFIX), max_size=3))
    if draw(st.booleans()):
        prefix.append(None)
    element = draw(st.sampled_from(ELEMENTS))
    bound = draw(st.sampled_from([None, 3, SEGMENT_THRESHOLD]))
    kind = draw(st.sampled_from([SequenceTC, DSequenceTC]))
    return [*prefix, kind(element, bound)]


@st.composite
def runs(draw, tc):
    """Element runs below and above ``SEGMENT_THRESHOLD``, empty, over
    the bound, and in the forms the compiled path hands to the walk."""
    dtype = tc.element.dtype
    count = draw(st.sampled_from([
        0, 1, 3, 4,
        SEGMENT_THRESHOLD // dtype.itemsize - 1,
        SEGMENT_THRESHOLD // dtype.itemsize,
        2 * SEGMENT_THRESHOLD // dtype.itemsize + 1,
    ]))
    array = np.arange(count).astype(dtype)
    form = draw(st.sampled_from(
        ["array"] * 4 + ["strided", "foreign", "wider", "list", "pieces"]
    ))
    if form == "strided":
        return np.arange(2 * count).astype(dtype)[::2]
    if form == "foreign":
        return array.astype(dtype.newbyteorder())
    if form == "wider":
        return array.astype(np.float64 if dtype != np.float64 else np.int64)
    if form == "list":
        return array.tolist()
    if form == "pieces" and isinstance(tc, DSequenceTC):
        return [array[: count // 2], array[count // 2 :]]
    return array


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data(), little=st.booleans())
def test_compiled_sequence_body_is_the_walk(data, little):
    typecodes = data.draw(shapes())
    values = [
        None if tc is None else data.draw(_numbers(tc))
        for tc in typecodes[:-1]
    ]
    values.append(data.draw(runs(typecodes[-1])))
    codec = BodyCodec(typecodes)
    (status, new), new_copies = _audited(lambda: codec.encode(values, little))
    (old_status, old), old_copies = _audited(
        lambda: reference_encode(typecodes, values, little)
    )
    assert (status, new_copies) == (old_status, old_copies)
    if status != "ok":
        assert new == old  # the error's text
        return
    wire = _flat(new)
    assert wire == _flat(old)
    cut = data.draw(st.integers(0, len(wire)))
    junk = data.draw(st.binary(min_size=1, max_size=9))
    # Not owned (read-only), owned (writable), truncated, over-long.
    for body in (wire, bytearray(wire), wire[:cut], wire + junk):
        (status, decoded), copies = _audited(lambda: codec.decode(body))
        (old_status, expected), expected_copies = _audited(
            lambda: reference_decode(typecodes, body)
        )
        assert (status, copies) == (old_status, expected_copies)
        if status != "ok":
            assert decoded == expected
            continue
        assert _comparable(decoded) == _comparable(expected)


def test_a_count_over_the_bound_is_refused_as_the_walk_refuses_it():
    for kind in (SequenceTC, DSequenceTC):
        wire = _flat(BodyCodec([TC_LONG, kind(TC_DOUBLE)]).encode(
            [7, np.arange(4.0)]
        ))
        with pytest.raises(MarshalError) as caught:
            BodyCodec([TC_LONG, kind(TC_DOUBLE, 3)]).decode(wire)
        with pytest.raises(MarshalError) as walked:
            reference_decode([TC_LONG, kind(TC_DOUBLE, 3)], wire)
        assert str(caught.value) == str(walked.value)
        assert "of length 4 exceeds bound 3" in str(caught.value)


def test_the_native_order_never_walks(monkeypatch):
    """The compiled form is the one that runs: one segment out by
    reference, one view back at the elements' offset."""
    codec = BodyCodec([TC_LONG, DSequenceTC(TC_DOUBLE)])
    payload = np.arange(1024.0)

    def walk(*_args):
        raise AssertionError("walked")

    monkeypatch.setattr(CdrEncoder, "write", walk)
    monkeypatch.setattr(CdrDecoder, "read", walk)
    body = codec.encode([5, payload], NATIVE_LITTLE)
    segments = body.segments()
    assert np.shares_memory(np.frombuffer(segments[-1], np.float64), payload)
    wire = bytearray(body.getvalue())
    n, run = codec.decode(wire)
    assert n == 5
    assert np.shares_memory(run, np.frombuffer(wire, np.uint8))
    assert run.flags.writeable and run.tolist() == payload.tolist()


@pytest.mark.parametrize(
    "typecodes, values",
    [
        ([TC_LONG], [41]),
        ([TC_LONG, TC_STRING], [41, "forty-one"]),
        ([DSequenceTC(TC_DOUBLE)], [np.arange(3.0)]),
        ([TC_BOOLEAN, SequenceTC(TC_BOOLEAN)], [True, [True, False]]),
        ([], []),
    ],
    ids=["prefix", "string", "dsequence", "walked-sequence", "void"],
)
@pytest.mark.parametrize("little", [False, True])
def test_octets_behind_the_last_member_are_refused(typecodes, values, little):
    codec = BodyCodec(typecodes)
    wire = _flat(codec.encode(values, little))
    assert len(codec.decode(wire)) == len(typecodes)
    with pytest.raises(MarshalError, match="^8 trailing octets behind the message$"):
        codec.decode(wire + bytes(8))
