"""Inbox robustness: duplicated, late and corrupt chunk frames must be
dropped (and counted) without disturbing collection."""

import threading

import pytest

from repro.orb.request import PHASE_REQUEST, DataChunk
from repro.orb.transfer import Inbox, TransportTimeout
from repro.orb.transport import KIND_CONTROL, KIND_DATA, Fabric


@pytest.fixture()
def net():
    fabric = Fabric("inbox-test")
    sender = fabric.open_port("sender")
    receiver = fabric.open_port("receiver")
    yield sender, receiver
    sender.close()
    receiver.close()


def _chunk(request_id, src_rank, lo, hi, param="x"):
    payload = bytes(8 * (hi - lo))
    return DataChunk(
        request_id=request_id,
        param=param,
        phase=PHASE_REQUEST,
        src_rank=src_rank,
        dst_rank=0,
        global_lo=lo,
        global_hi=hi,
        payload=payload,
    )


def _send(sender, dest, chunk, frame=None):
    sender.send(
        dest, frame if frame is not None else chunk.encode(), KIND_DATA
    )


def test_collect_returns_expected_chunks(net):
    sender, receiver = net
    inbox = Inbox(receiver)
    _send(sender, receiver.address, _chunk(1, 0, 0, 4))
    _send(sender, receiver.address, _chunk(1, 1, 4, 8))
    chunks = inbox.collect(1, "x", PHASE_REQUEST, 2, timeout=5.0)
    assert sorted(c.global_lo for c in chunks) == [0, 4]
    assert inbox.pending_entries() == 0


def test_duplicate_chunk_replaces_instead_of_counting(net):
    # A duplicated frame (fault injection, or a retry re-sending data
    # that already landed) must not satisfy `expected` by itself.
    sender, receiver = net
    inbox = Inbox(receiver)
    dup = _chunk(1, 0, 0, 4)
    _send(sender, receiver.address, dup)
    _send(sender, receiver.address, dup)
    with pytest.raises(TransportTimeout):
        inbox.collect(1, "x", PHASE_REQUEST, 2, timeout=0.2)
    assert inbox.stats()["duplicates_dropped"] == 1

    # With the second distinct chunk present, collection completes and
    # yields one chunk per coordinate.
    _send(sender, receiver.address, dup)
    _send(sender, receiver.address, _chunk(1, 1, 4, 8))
    chunks = inbox.collect(1, "x", PHASE_REQUEST, 2, timeout=5.0)
    assert sorted(c.global_lo for c in chunks) == [0, 4]


def test_late_chunk_after_discard_is_dropped(net):
    sender, receiver = net
    inbox = Inbox(receiver)
    inbox.discard(1)
    _send(sender, receiver.address, _chunk(1, 0, 0, 4))
    _send(sender, receiver.address, _chunk(2, 0, 0, 4))
    # Request 1's chunk hits the retired set on arrival instead of
    # accumulating.
    chunks = inbox.collect(2, "x", PHASE_REQUEST, 1, timeout=5.0)
    assert [c.request_id for c in chunks] == [2]
    assert inbox.stats()["late_dropped"] == 1
    assert inbox.pending_entries() == 0


def test_discard_evicts_partial_entry(net):
    sender, receiver = net
    inbox = Inbox(receiver)
    _send(sender, receiver.address, _chunk(1, 0, 0, 4))
    _send(sender, receiver.address, _chunk(2, 0, 0, 4))
    inbox.collect(2, "x", PHASE_REQUEST, 1, timeout=5.0)
    assert inbox.pending_entries() == 1  # request 1's stray chunk
    inbox.discard(1)
    assert inbox.pending_entries() == 0


def test_garbage_frame_is_dropped_not_raised(net):
    sender, receiver = net
    inbox = Inbox(receiver)
    good = _chunk(1, 0, 0, 4)
    _send(sender, receiver.address, good, frame=good.encode()[:11])
    _send(sender, receiver.address, good)
    chunks = inbox.collect(1, "x", PHASE_REQUEST, 1, timeout=5.0)
    assert len(chunks) == 1
    assert inbox.stats()["garbage_dropped"] == 1


def test_failed_collect_evicts_partial_entry(net):
    sender, receiver = net
    inbox = Inbox(receiver)
    _send(sender, receiver.address, _chunk(1, 0, 0, 4))
    with pytest.raises(TransportTimeout):
        inbox.collect(1, "x", PHASE_REQUEST, 2, timeout=0.2)
    assert inbox.pending_entries() == 0


def test_concurrent_collects_are_filed_for_each_other(net):
    sender, receiver = net
    inbox = Inbox(receiver)
    results = {}

    def work(rid):
        results[rid] = inbox.collect(
            rid, "x", PHASE_REQUEST, 1, timeout=5.0
        )

    threads = [
        threading.Thread(target=work, args=(rid,)) for rid in (1, 2)
    ]
    for t in threads:
        t.start()
    _send(sender, receiver.address, _chunk(2, 0, 0, 4))
    _send(sender, receiver.address, _chunk(1, 0, 0, 4))
    for t in threads:
        t.join(timeout=10.0)
    assert results[1][0].request_id == 1
    assert results[2][0].request_id == 2


def test_a_frame_of_another_kind_is_garbage(net):
    sender, receiver = net
    inbox = Inbox(receiver)
    sender.send(receiver.address, _chunk(1, 0, 0, 4).encode(), KIND_CONTROL)
    assert inbox.stats()["garbage_dropped"] == 1
    assert inbox.pending_entries() == 0
