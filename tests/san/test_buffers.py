"""Buffer-view escape detection: a memoryview that outlives its
pooled receive buffer's recycle is reported and the buffer is
quarantined; clean recycles are poisoned so stale reads are loud."""

import pytest

import repro.san as san
from repro.san.buffers import POISON_BYTE, BufferGuard


def _buffer_findings():
    return [f for f in san.findings() if f.detector == "buffer"]


def test_escaped_view_is_reported_and_refused():
    guard = BufferGuard()
    buf = bytearray(64)
    view = memoryview(buf)
    assert guard.check_and_poison(buf) is False
    [finding] = _buffer_findings()
    assert "memoryview" in finding.message
    assert "64 bytes" in finding.message
    assert finding.extra["epoch"] == 1
    view.release()


def test_clean_buffer_is_poisoned_and_accepted():
    guard = BufferGuard()
    buf = bytearray(b"sensitive payload bytes")
    assert guard.check_and_poison(buf) is True
    assert bytes(buf) == bytes([POISON_BYTE]) * len(buf)
    assert _buffer_findings() == []


def test_epoch_advances_per_recycle():
    guard = BufferGuard()
    for _ in range(3):
        assert guard.check_and_poison(bytearray(8)) is True
    view = memoryview(buf := bytearray(8))
    assert guard.check_and_poison(buf) is False
    [finding] = _buffer_findings()
    assert finding.extra["epoch"] == 4
    view.release()


def test_conn_buffers_quarantine_escaped_buffer(monkeypatch):
    """The socket fabric's pool refuses to re-pool a buffer whose
    view escaped, so later frames can never alias live payloads."""
    monkeypatch.setenv("PARDIS_SAN", "1")
    from repro.orb.socketnet import _ConnBuffers

    buffers = _ConnBuffers()
    buf, pooled = buffers.take(100)
    assert pooled
    view = memoryview(buf)
    buffers.give(buf)
    assert buf not in buffers._free, "escaped buffer must be quarantined"
    assert len(_buffer_findings()) == 1
    view.release()

    # A clean buffer still recycles, poisoned.
    buf2, _ = buffers.take(100)
    buffers.give(buf2)
    assert any(b is buf2 for b in buffers._free)
    assert bytes(buf2) == bytes([POISON_BYTE]) * len(buf2)


def test_conn_buffers_unguarded_when_disabled(monkeypatch):
    monkeypatch.delenv("PARDIS_SAN", raising=False)
    from repro.orb.socketnet import _ConnBuffers

    buffers = _ConnBuffers()
    buf, _ = buffers.take(100)
    view = memoryview(buf)
    buffers.give(buf)  # no guard: no BufferError probe, no finding
    assert any(b is buf for b in buffers._free)
    assert _buffer_findings() == []
    view.release()


def test_counters_track_poisons():
    before = san.stats()["counters"].get("buffers_poisoned", 0)
    guard = BufferGuard()
    guard.check_and_poison(bytearray(4))
    guard.check_and_poison(bytearray(4))
    assert san.stats()["counters"]["buffers_poisoned"] == before + 2


def test_owned_frames_stay_disjoint_from_the_poisoned_pool(monkeypatch):
    """A frame above the pool size is delivered writable — the
    receiver's to keep — so its buffer must never be one the guard
    recycles: held across any number of poisoned recycles on the same
    connection, it keeps its bytes and raises no finding."""
    monkeypatch.setenv("PARDIS_SAN", "1")
    import numpy as np

    from repro.orb.socketnet import _POOL_BUFFER_SIZE, SocketFabric
    from repro.orb.transport import KIND_DATA

    big = np.arange(_POOL_BUFFER_SIZE // 2, dtype=np.float64)
    before = san.stats()["counters"].get("buffers_poisoned", 0)
    with SocketFabric("san-a") as near, SocketFabric("san-b") as far:
        sender, receiver = near.open_port("s"), far.open_port("r")
        held = []
        for i in range(8):
            sender.send(receiver.address, memoryview(big).cast("B"), KIND_DATA)
            sender.send(receiver.address, bytes([i]) * 1024, KIND_DATA)
            held.append(receiver.recv(timeout=5)[2])
            assert receiver.recv(timeout=5)[2] == bytes([i]) * 1024
    assert san.stats()["counters"]["buffers_poisoned"] >= before + 8
    for payload in held:
        assert not payload.readonly
        np.testing.assert_array_equal(np.frombuffer(payload, np.float64), big)
    assert _buffer_findings() == []
