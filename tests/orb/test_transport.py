"""Transport fabric unit tests."""

import threading

import pytest

from repro.orb.transport import (
    Fabric,
    KIND_DATA,
    KIND_REPLY,
    KIND_REQUEST,
    TransportError,
)


class TestPorts:
    def test_send_recv(self):
        fabric = Fabric()
        a, b = fabric.open_port("a"), fabric.open_port("b")
        a.send(b.address, b"hello", KIND_REQUEST)
        src, kind, payload = b.recv()
        assert (src, kind, payload) == (a.address, KIND_REQUEST, b"hello")

    def test_addresses_are_unique(self):
        fabric = Fabric()
        ports = [fabric.open_port() for _ in range(10)]
        ids = {p.address.port_id for p in ports}
        assert len(ids) == 10

    def test_kind_filtering(self):
        fabric = Fabric()
        a, b = fabric.open_port(), fabric.open_port()
        a.send(b.address, b"d", KIND_DATA)
        a.send(b.address, b"r", KIND_REPLY)
        assert b.recv(kind=KIND_REPLY)[2] == b"r"
        assert b.recv(kind=KIND_DATA)[2] == b"d"

    def test_fifo_within_kind(self):
        fabric = Fabric()
        a, b = fabric.open_port(), fabric.open_port()
        for i in range(5):
            a.send(b.address, bytes([i]), KIND_DATA)
        got = [b.recv(kind=KIND_DATA)[2][0] for _ in range(5)]
        assert got == list(range(5))

    def test_try_recv(self):
        fabric = Fabric()
        a, b = fabric.open_port(), fabric.open_port()
        assert b.try_recv() is None
        a.send(b.address, b"x")
        assert b.try_recv()[2] == b"x"

    def test_pending_count(self):
        fabric = Fabric()
        a, b = fabric.open_port(), fabric.open_port()
        assert b.pending() == 0
        a.send(b.address, b"1")
        a.send(b.address, b"2")
        assert b.pending() == 2

    def test_recv_timeout(self):
        fabric = Fabric()
        port = fabric.open_port()
        with pytest.raises(TransportError, match="timed out"):
            port.recv(timeout=0.05)

    def test_recv_blocks_until_delivery(self):
        fabric = Fabric()
        a, b = fabric.open_port(), fabric.open_port()
        results = []
        t = threading.Thread(
            target=lambda: results.append(b.recv(timeout=5)[2])
        )
        t.start()
        a.send(b.address, b"late")
        t.join(5)
        assert results == [b"late"]

    def test_only_bytes_cross_the_fabric(self):
        fabric = Fabric()
        a, b = fabric.open_port(), fabric.open_port()
        with pytest.raises(TransportError, match="bytes"):
            a.send(b.address, {"not": "bytes"})  # type: ignore[arg-type]

    def test_send_to_unknown_port(self):
        fabric = Fabric()
        a = fabric.open_port()
        b = fabric.open_port()
        b_addr = b.address
        b.close()
        with pytest.raises(TransportError, match="no port"):
            a.send(b_addr, b"x")

    def test_closed_port_recv_raises(self):
        fabric = Fabric()
        port = fabric.open_port()
        port.close()
        with pytest.raises(TransportError, match="closed"):
            port.recv(timeout=1)

    def test_close_releases_blocked_receiver(self):
        fabric = Fabric()
        port = fabric.open_port()
        failures = []

        def receiver():
            try:
                port.recv(timeout=10)
            except TransportError:
                failures.append(True)

        t = threading.Thread(target=receiver)
        t.start()
        port.close()
        t.join(5)
        assert failures == [True]

    def test_port_count_tracks_lifecycle(self):
        fabric = Fabric()
        a = fabric.open_port()
        assert fabric.open_port_count() == 1
        a.close()
        assert fabric.open_port_count() == 0


class TestMeter:
    def test_meter_observes_all_traffic(self):
        fabric = Fabric()
        seen = []
        fabric.add_meter(
            lambda src, dst, kind, n: seen.append((kind, n))
        )
        a, b = fabric.open_port(), fabric.open_port()
        a.send(b.address, b"12345", KIND_DATA)
        assert seen == [(KIND_DATA, 5)]

    def test_meter_removal(self):
        fabric = Fabric()
        seen = []
        meter = lambda *a: seen.append(a)  # noqa: E731
        fabric.add_meter(meter)
        fabric.remove_meter(meter)
        a, b = fabric.open_port(), fabric.open_port()
        a.send(b.address, b"x")
        assert seen == []

    def test_two_ports_make_a_link(self):
        fabric = Fabric()
        left, right = fabric.open_port("left"), fabric.open_port("right")
        left.send(right.address, b"ping")
        assert right.recv()[2] == b"ping"
