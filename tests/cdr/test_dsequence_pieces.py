"""A dsequence written from a gather's pieces.

The centralized method's gather hands the encoder a list of 1-D views
of every rank's block, in global order, instead of one assembled
array.  The wire may not notice: the pieces must encode to exactly the
octets their concatenation does — checked against the reference codec
(``reference_codec.py``) over both byte orders, empty pieces, and
pieces on either side of ``SEGMENT_THRESHOLD``, after a prefix that
leaves the stream at every alignment.  The decoder is unchanged.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdr import (
    CdrDecoder,
    CdrEncoder,
    DSequenceTC,
    MarshalError,
    TC_BOOLEAN,
    TC_DOUBLE,
    TC_FLOAT,
    TC_LONG,
    TC_LONGLONG,
    TC_OCTET,
    TC_SHORT,
    copy_audit,
)
from repro.cdr.encoder import SEGMENT_THRESHOLD

from tests.cdr.reference_codec import ReferenceEncoder

ELEMENTS = (TC_DOUBLE, TC_FLOAT, TC_LONGLONG, TC_LONG, TC_SHORT, TC_OCTET, TC_BOOLEAN)


@st.composite
def pieces(draw):
    """``(element typecode, pieces)``: up to six runs, some empty,
    some a little below or above the segment threshold."""
    element = draw(st.sampled_from(ELEMENTS))
    threshold = SEGMENT_THRESHOLD // element.size
    lengths = draw(st.lists(
        st.one_of(
            st.just(0),
            st.integers(1, 16),
            st.integers(threshold - 2, threshold + 2),
            st.integers(threshold, 3 * threshold),
        ),
        max_size=6,
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = rng.integers(0, 256, size=sum(lengths) * element.size, dtype=np.uint8)
    values = raw.view(element.dtype)
    if element is TC_BOOLEAN:
        values = values.astype(bool)
    ends = np.cumsum([0, *lengths])
    return element, [values[lo:hi] for lo, hi in zip(ends, ends[1:])]


def _encode(encoder, prefix, typecode, value):
    encoder.write_octets(b"\x07" * prefix)
    encoder.write(typecode, value)
    return encoder


@settings(max_examples=150, deadline=None)
@given(pieces(), st.booleans(), st.integers(0, 7))
def test_pieces_encode_as_their_concatenation(drawn, little, prefix):
    element, runs = drawn
    typecode = DSequenceTC(element)
    whole = np.concatenate([np.empty(0, element.dtype), *runs])
    expected = _encode(ReferenceEncoder(little), prefix, typecode, whole)
    got = _encode(CdrEncoder(little), prefix, typecode, runs)
    assert got.getvalue() == expected.getvalue()
    assert len(got) == len(expected)
    decoder = CdrDecoder(got.getvalue())
    decoder.read_octets(prefix)
    np.testing.assert_array_equal(decoder.read(typecode), whole)


def test_native_pieces_above_the_threshold_ride_by_reference():
    """Each large native piece is a segment of its own, and nothing is
    copied; small ones are copied into the tail."""
    big = np.arange(SEGMENT_THRESHOLD // 8 * 3, dtype=np.float64)
    small = np.arange(5, dtype=np.float64)
    encoder = CdrEncoder()
    with copy_audit() as account:
        encoder.write(DSequenceTC(TC_DOUBLE), [big[:300], small, big[300:]])
    assert account.snapshot() == (small.nbytes, 1)
    by_reference = [
        s for s in encoder.segments()
        if isinstance(s, memoryview) and not s.readonly
        and np.shares_memory(np.frombuffer(s, np.uint8), big)
    ]
    assert len(by_reference) == 2


def test_pieces_are_held_to_the_bound_and_to_one_dimension():
    typecode = DSequenceTC(TC_DOUBLE, bound=4)
    with pytest.raises(MarshalError, match="exceeds bound 4"):
        CdrEncoder().write(typecode, [np.zeros(3), np.zeros(2)])
    with pytest.raises(MarshalError, match="expected 2 elements"):
        CdrEncoder().write(typecode, [np.zeros((2, 2))])
