"""Zero-copy transport behaviours of :class:`SocketFabric`.

Covers the reader-side drop policy (malformed/oversized frames are
counted, metered, and do not kill the connection), the one landing
rule (every frame in a receive buffer of its own), vectored
multi-segment writes, and the connect-outside-the-lock race in
``_send_remote``.
"""

import contextlib
import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro import ORB, compile_idl
from repro.cdr.accounting import copy_audit
from repro.orb.naming import NamingService
from repro.orb.socketnet import (
    DROP_ADDRESS,
    _MAX_FRAME,
    SocketFabric,
    SocketPortAddress,
)
from repro.orb.transport import KIND_DATA

_LENGTH = struct.Struct(">I")


@pytest.fixture()
def fabric():
    with SocketFabric("zc-fabric") as fabric:
        yield fabric


def _raw_frame(dest, payload: bytes) -> bytes:
    """A well-formed wire frame addressed to ``dest``."""
    src = SocketPortAddress("127.0.0.1", 1, 99, "raw-sender")
    segments = SocketFabric._encode_frame(
        src, dest, KIND_DATA, payload, len(payload)
    )
    body = b"".join(bytes(s) for s in segments)
    return _LENGTH.pack(len(body)) + body


def _wait_for(predicate, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(0.01)


class TestDropPolicy:
    def test_zero_length_frame_is_counted_and_skipped(self, fabric):
        """A zero-length frame is dropped but the connection — and the
        frames after it — survive."""
        seen = []
        fabric.add_meter(
            lambda src, dest, kind, nbytes: seen.append(
                (src, dest, kind, nbytes)
            )
        )
        port = fabric.open_port("victim")
        with socket.create_connection(
            (fabric.host, fabric.tcp_port), timeout=5
        ) as raw:
            raw.sendall(_LENGTH.pack(0))  # malformed: zero length
            raw.sendall(_raw_frame(port.address, b"still alive"))
            src, kind, payload = port.recv(timeout=5)
        assert bytes(payload) == b"still alive"
        assert fabric.dropped_frames == 1
        assert (DROP_ADDRESS, DROP_ADDRESS, "drop", 0) in seen

    def test_oversized_frame_is_counted(self, fabric):
        declared = _MAX_FRAME + 1
        with socket.create_connection(
            (fabric.host, fabric.tcp_port), timeout=5
        ) as raw:
            raw.sendall(_LENGTH.pack(declared))
        _wait_for(lambda: fabric.dropped_frames == 1)

    def test_oversized_frame_is_drained_not_buffered(self, fabric):
        """The declared bytes are discarded so the stream stays framed
        for the next frame on the same connection."""
        port = fabric.open_port("after-drain")
        junk_len = _MAX_FRAME + 7  # larger than any drain chunk
        with socket.create_connection(
            (fabric.host, fabric.tcp_port), timeout=5
        ) as raw:
            raw.sendall(_LENGTH.pack(junk_len))
            chunk = bytes(1 << 20)
            remaining = junk_len
            while remaining:
                n = min(remaining, len(chunk))
                raw.sendall(chunk[:n])
                remaining -= n
            raw.sendall(_raw_frame(port.address, b"resynced"))
            _src, _kind, payload = port.recv(timeout=30)
        assert bytes(payload) == b"resynced"
        assert fabric.dropped_frames == 1

    def test_a_frame_with_bad_utf8_costs_the_peer_that_frame_only(
        self, fabric
    ):
        """Invalid UTF-8 in the envelope is a ``MarshalError`` like any
        other garbage — counted, dropped, the event loop alive — not a
        ``UnicodeDecodeError`` that kills it (ISSUE 24)."""
        port = fabric.open_port("victim")
        hostile = _raw_frame(port.address, b"never delivered")
        assert hostile.count(b"127.0.0.1") == 1
        hostile = hostile.replace(b"127.0.0.1", b"\xff\xfe7.0.0.1")
        with socket.create_connection(
            (fabric.host, fabric.tcp_port), timeout=5
        ) as raw:
            raw.sendall(hostile)
            raw.sendall(_raw_frame(port.address, b"still alive"))
            _src, _kind, payload = port.recv(timeout=5)
        assert bytes(payload) == b"still alive"
        assert fabric.dropped_frames == 1
        assert fabric._loop._thread.is_alive()
        assert port.pending() == 0

    def test_drops_accumulate(self, fabric):
        with socket.create_connection(
            (fabric.host, fabric.tcp_port), timeout=5
        ) as raw:
            raw.sendall(_LENGTH.pack(0) * 3)
        _wait_for(lambda: fabric.dropped_frames == 3)


class TestReceiveBuffers:
    """Every frame lands in a buffer allocated for it alone, which its
    receiver owns.  Sizes around 64 KiB are probed because frames up to
    that bound once shared a recycled pool and were copied out."""

    def test_large_payload_arrives_as_an_owned_writable_view(self, fabric):
        """The payload is a view of the frame's buffer — writable: the
        receiver owns that memory, and no later frame shares it."""
        big = np.arange((1 << 18) // 8, dtype=np.float64)
        with SocketFabric("peer") as peer:
            sender = peer.open_port("s")
            receiver = fabric.open_port("r")
            for _ in range(3):
                sender.send(
                    receiver.address, memoryview(big).cast("B"), KIND_DATA
                )
            payloads = [receiver.recv(timeout=5)[2] for _ in range(3)]
        arrays = []
        for payload in payloads:
            assert isinstance(payload, memoryview)
            assert not payload.readonly
            array = np.frombuffer(payload, dtype=np.float64)
            assert array.flags.aligned and array.flags.writeable
            np.testing.assert_array_equal(array, big)
            arrays.append(array)
        assert len({id(payload.obj) for payload in payloads}) == 3
        arrays[0][:] = -1.0  # the receiver's to scribble on ...
        for later in arrays[1:]:  # ... and nobody else's bytes move
            assert not np.shares_memory(arrays[0], later)
            np.testing.assert_array_equal(later, big)
        np.testing.assert_array_equal(big[:3], [0.0, 1.0, 2.0])

    @pytest.mark.parametrize(
        "size", [1, 512, "at-the-old-bound", "above-it", 2 << 20]
    )
    def test_every_frame_lands_writable_in_a_buffer_of_its_own(
        self, fabric, monkeypatch, size
    ):
        """Back-to-back frames on one connection, as the event loop
        hands them on and as their receiver gets them: every frame is
        writable and shares no memory with another; every payload is a
        writable view unless it is under half its frame (the
        half-of-stream rule keeps a 1-byte payload read-only); and
        scribbling on one payload leaves the next one's bytes intact."""
        receiver = fabric.open_port("r")
        overhead = len(_raw_frame(receiver.address, b"")) - _LENGTH.size
        size = {
            "at-the-old-bound": (1 << 16) - overhead,
            "above-it": (1 << 16) - overhead + 1,
        }.get(size, size)
        delivered = []
        deliver = fabric._loop._deliver

        def keep(conn, frame):
            delivered.append(frame)
            deliver(conn, frame)

        monkeypatch.setattr(fabric._loop, "_deliver", keep)
        sent = [
            _raw_frame(receiver.address, bytes([i]) * size) for i in range(4)
        ]
        with socket.create_connection(
            (fabric.host, fabric.tcp_port), timeout=5
        ) as raw:
            for frame in sent:
                raw.sendall(frame)
            payloads = [receiver.recv(timeout=5)[2] for _ in sent]
        arrays = [np.frombuffer(frame, np.uint8) for frame in delivered]
        assert len(arrays) == len(sent)
        for i, (frame, payload) in enumerate(zip(delivered, payloads)):
            assert not frame.readonly
            assert bytes(frame) == sent[i][_LENGTH.size :]
            for later in arrays[i + 1 :]:
                assert not np.shares_memory(arrays[i], later)
            assert payload.readonly == (2 * size < len(frame))
            assert bytes(payload) == bytes([i]) * size
            if not payload.readonly:
                payload[:] = b"\xff" * size


class TestVectoredSend:
    def test_multi_segment_payload_roundtrips(self, fabric):
        """A payload given as a buffer list rides the vectored write
        and arrives byte-identical to the concatenation."""
        parts = [
            b"head",
            memoryview(np.arange(1000, dtype=np.float64)).cast("B"),
            b"tail",
        ]
        flat = b"".join(bytes(p) for p in parts)
        with SocketFabric("peer") as peer:
            sender = peer.open_port("s")
            receiver = fabric.open_port("r")
            sender.send(receiver.address, parts, KIND_DATA)
            _src, _kind, payload = receiver.recv(timeout=5)
        assert bytes(payload) == flat

    def test_empty_segments_are_skipped(self, fabric):
        with SocketFabric("peer") as peer:
            sender = peer.open_port("s")
            receiver = fabric.open_port("r")
            sender.send(
                receiver.address, [b"", b"payload", b""], KIND_DATA
            )
            assert bytes(receiver.recv(timeout=5)[2]) == b"payload"


class TestConcurrentConnect:
    def test_racing_first_sends_share_one_connection(self, fabric):
        """Many threads race the first send to one endpoint; the
        double-checked insert must leave exactly one cached connection
        and lose no frames."""
        with SocketFabric("peer") as peer:
            receiver = fabric.open_port("r")
            senders = [peer.open_port(f"s{i}") for i in range(8)]
            barrier = threading.Barrier(len(senders))
            errors = []

            def blast(port, tag):
                barrier.wait()
                try:
                    port.send(receiver.address, tag, KIND_DATA)
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [
                threading.Thread(target=blast, args=(p, bytes([i]) * 32))
                for i, p in enumerate(senders)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not errors
            got = sorted(
                bytes(receiver.recv(timeout=5)[2]) for _ in senders
            )
            assert got == sorted(bytes([i]) * 32 for i in range(8))
            endpoint = (fabric.host, fabric.tcp_port)
            assert list(peer._links) == [endpoint]


class TestCopyBudget:
    """The wire path's figure of merit, end to end: bytes physically
    copied per payload byte for a serial echo through the whole stack
    (CDR → message → fabric → decode, both directions).  Payload-
    dominated sizes must stay near one copy per direction; below
    64 KiB the fixed header copies weigh more.  Over sockets a frame
    is received straight into the memory the servant (or the caller)
    then owns — the receive copy *is* the landing store — so from
    128 KiB the budget is 1.5 (measured 1.0,
    the ``cdr.copies_per_payload_byte`` row of the benchmark); the
    in-process fabric still joins and lands (2.0)."""

    _SMALL_LIMIT = 64 * 1024
    _OWNED_FROM = 128 * 1024
    _BUDGET = {"small": 8.0, "large": 3.0, "owned": 1.5}
    _ITERATIONS = 3

    @pytest.fixture(scope="class")
    def idl(self):
        return compile_idl(
            """
            typedef dsequence<double, 2097152> payload;
            interface wireecho { payload roundtrip(in payload data); };
            """,
            module_name="copy_budget_idl",
        )

    @pytest.mark.parametrize("fabric_kind", ["inproc", "socket"])
    @pytest.mark.parametrize(
        "size_bytes", [1 << 10, 1 << 14, 1 << 16, 1 << 18]
    )
    def test_echo_stays_within_the_copy_budget(
        self, idl, fabric_kind, size_bytes
    ):
        class Echo(idl.wireecho_skel):
            def roundtrip(self, data):
                return data

        with contextlib.ExitStack() as stack:
            if fabric_kind == "socket":
                naming = NamingService()
                server = stack.enter_context(
                    ORB(
                        "copy-server",
                        naming=naming,
                        fabric=stack.enter_context(SocketFabric("cs")),
                    )
                )
                client = stack.enter_context(
                    ORB(
                        "copy-client",
                        naming=naming,
                        fabric=stack.enter_context(SocketFabric("cc")),
                    )
                )
            else:
                server = client = stack.enter_context(ORB("copy"))
            server.serve("wireecho", lambda ctx: Echo(), nthreads=1)
            runtime = client.client_runtime(label="copy-client")
            proxy = idl.wireecho._bind("wireecho", runtime)
            n = size_bytes // 8
            data = idl.payload.from_global(
                np.arange(n, dtype=np.float64)
            )
            assert proxy.roundtrip(data).length() == n  # warm-up
            with copy_audit() as account:
                for _ in range(self._ITERATIONS):
                    proxy.roundtrip(data)
            runtime.close()
        copied_bytes, _events = account.snapshot()
        per_payload_byte = copied_bytes / (
            2 * size_bytes * self._ITERATIONS
        )
        if size_bytes < self._SMALL_LIMIT:
            limit = self._BUDGET["small"]
        elif fabric_kind == "socket" and size_bytes >= self._OWNED_FROM:
            limit = self._BUDGET["owned"]
        else:
            limit = self._BUDGET["large"]
        assert per_payload_byte <= limit, (
            f"{fabric_kind} @ {size_bytes}B copies "
            f"{per_payload_byte:.2f} bytes/payload byte, budget {limit}"
        )
