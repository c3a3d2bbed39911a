"""The declared fabric surface and the ``orb.stats()`` schema built
on it.

``ORB.stats()`` reads a contract — ``fabric.stats()``,
``fabric.governor``, ``naming.stats()``, ``group.reply_cache``, its
own ``metrics`` registry — instead of probing for capabilities, and
must keep returning exactly the keys and nesting it returned when it
probed: ``bench/layers.py`` reads ``cdr_copies``,
``transfer_schedule_cache`` and ``server.requests`` /
``server.backpressure`` from outside.

Also the ownership rule every fabric delivers by: a payload is
writable **iff** it crossed a socket — the one delivery whose memory,
a frame buffer of its own, nobody but the receiver can reach.
"""

import contextlib
import socket
from unittest import mock

import numpy as np
import pytest

from repro import ORB, FaultSchedule, FaultyFabric
from repro.orb import socketnet
from repro.orb.nameservice import NamingClient
from repro.orb.request import DataChunk, PHASE_REQUEST, decode_chunk
from repro.orb.socketnet import SocketFabric
from repro.orb.transport import KIND_DATA, Fabric, TransportError
from tests.naming_transports import served_naming

#: What every fabric declares (``transport.Fabric`` is the reference).
FABRIC_SURFACE = (
    "open_port",
    "send",
    "add_meter",
    "remove_meter",
    "open_port_count",
    "governor",
    "stats",
    "_unregister",
)

#: Top-level sections every ORB reports, and the shape of each one
#: this contract pins (leaves are ``None``).
COMMON = {
    "cdr_copies": {"bytes": None, "events": None},
    # From construction, not from the first runtime's first retry.
    "ft": dict.fromkeys(
        (
            "retries", "deadline_exceeded", "retries_exhausted",
            "degraded", "agreements", "failovers",
        )
    ),
    # Zeros and an empty board where naming keeps no directory.
    "groups": {
        **dict.fromkeys(
            (
                "binds", "selections", "failovers",
                "failovers_exhausted", "marked_down", "epoch_bumps",
                "health_reports",
            )
        ),
        "groups": {},
    },
    "reply_caches": {},
    "transfer_schedule_cache": {
        "entries": None, "hits": None, "maxsize": None, "misses": None,
    },
}
COMMON_KEYS = set(COMMON) | {"fabric", "rts", "san"}
FAULTS = dict.fromkeys(
    ("delay", "disconnect", "drop", "duplicate", "forwarded", "truncate")
)
SERVER = {
    "backpressure": dict.fromkeys(
        ("paused_clients", "pauses", "queue_limit", "resume_at", "resumes")
    ),
    "connections": dict.fromkeys(
        ("accepted", "active", "closed", "max", "rejected")
    ),
    "requests": dict.fromkeys(
        ("admitted", "completed", "inflight", "max_inflight", "rejected")
    ),
}


def shape(value):
    """Keys and nesting only: leaves collapse to ``None``."""
    if isinstance(value, dict):
        return {key: shape(item) for key, item in value.items()}
    return None


#: ``socket-tcp`` is a socket fabric that, like every socket fabric
#: built while it is open, has no local listener: co-located peers
#: then talk TCP, as peers on two hosts do.
FABRIC_KINDS = (
    "inproc", "socket", "socket-tcp", "faulty-inproc", "faulty-socket",
)


@contextlib.contextmanager
def fabric_of(kind, schedule=None):
    with contextlib.ExitStack() as stack:
        if kind == "socket-tcp":
            stack.enter_context(
                mock.patch.object(socketnet, "_listen_local", lambda server: [])
            )
        if "socket" in kind:
            fabric = stack.enter_context(SocketFabric(kind))
        else:
            fabric = Fabric(kind)
        if kind.startswith("faulty"):
            fabric = FaultyFabric(fabric, schedule or FaultSchedule())
        yield fabric


@contextlib.contextmanager
def orb_on(kind):
    with fabric_of(kind) as fabric, ORB(kind, fabric=fabric) as orb:
        yield orb


class TestDeclaredSurface:
    @pytest.mark.parametrize("cls", [Fabric, SocketFabric, FaultyFabric])
    def test_every_fabric_declares_the_whole_surface(self, cls):
        """On the class itself — ``FaultyFabric``'s ``__getattr__``
        passthrough is for what is particular to the wrapped fabric
        (``host``, ``tcp_port``), never for the contract."""
        missing = [
            name
            for name in FABRIC_SURFACE
            if not any(name in vars(base) for base in cls.__mro__)
        ]
        assert missing == []

    def test_only_a_fabric_that_accepts_connections_has_a_governor(self):
        assert Fabric("plain").governor is None
        assert FaultyFabric(Fabric("plain"), FaultSchedule()).governor is None
        with SocketFabric("tcp") as fabric:
            assert fabric.governor is not None
            wrapped = FaultyFabric(fabric, FaultSchedule())
            assert wrapped.governor is fabric.governor

    def test_a_fabric_reports_its_own_stats_section(self):
        assert Fabric("plain").stats() == {}
        with SocketFabric("tcp") as fabric:
            assert fabric.stats() == {"dropped_frames": 0}
            wrapped = FaultyFabric(fabric, FaultSchedule())
            assert shape(wrapped.stats()) == {
                "dropped_frames": None, "faults": FAULTS,
            }


class TestStatsSchema:
    @pytest.mark.parametrize(
        "kind, fabric_section, has_server",
        [
            ("inproc", {}, False),
            ("socket", {"dropped_frames": None}, True),
            ("socket-tcp", {"dropped_frames": None}, True),
            ("faulty-inproc", {"faults": FAULTS}, False),
            (
                "faulty-socket",
                {"dropped_frames": None, "faults": FAULTS},
                True,
            ),
        ],
    )
    def test_keys_and_nesting(self, kind, fabric_section, has_server):
        with orb_on(kind) as orb:
            stats = shape(orb.stats())
        assert set(stats) == COMMON_KEYS | (
            {"server"} if has_server else set()
        )
        assert stats["fabric"] == fabric_section
        for section, expected in COMMON.items():
            assert stats[section] == expected
        if has_server:
            assert stats["server"] == SERVER

    def test_a_naming_client_reports_the_same_groups_section(self):
        with served_naming() as (_server, ior), SocketFabric(
            "remote-naming"
        ) as fabric:
            naming = NamingClient(fabric, ior)
            with ORB("remote-naming", fabric=fabric, naming=naming) as orb:
                stats = shape(orb.stats())
            naming.close()
        for section, expected in COMMON.items():
            assert stats[section] == expected

    def test_tracing_adds_exactly_the_trace_section(self):
        with SocketFabric("traced") as fabric, ORB(
            "traced", fabric=fabric, trace=True
        ) as orb:
            stats = shape(orb.stats())
        assert set(stats) == COMMON_KEYS | {"server", "trace"}
        assert set(stats["trace"]) == {"metrics", "recorder"}


class TestOnlyOctetsTravel:
    """A ``memoryview`` is sized by its *items*: one that is not a flat
    view of octets would be framed short over a socket (the receiver
    parsing the rest of the array as frames) and metered short in
    process — so no fabric takes one (ISSUE 24)."""

    @pytest.mark.parametrize("kind", FABRIC_KINDS)
    def test_a_view_of_wider_items_is_refused_by_every_fabric(self, kind):
        doubles = np.arange(65536.0)
        strided = memoryview(bytes(64))[::2]
        seen = []
        with fabric_of(kind) as near, SocketFabric("far") as far:
            near.add_meter(lambda src, dest, k, nbytes: seen.append(nbytes))
            sender = near.open_port("s")
            receiver = (far if "socket" in kind else near).open_port("r")
            for bad in (
                memoryview(doubles),
                [b"head", memoryview(doubles)],
                memoryview(doubles).cast("B").cast("B", (8, 65536)),
                strided,
            ):
                with pytest.raises(TransportError, match="memoryview"):
                    sender.send(receiver.address, bad, KIND_DATA)
            assert seen == [] and receiver.pending() == 0
            # The same memory as octets is carried whole, and the frame
            # behind it is still a frame.
            sender.send(
                receiver.address, memoryview(doubles).cast("B"), KIND_DATA
            )
            sender.send(receiver.address, b"next", KIND_DATA)
            got = receiver.recv(timeout=5)[2]
            assert len(got) == doubles.nbytes == seen[0]
            np.testing.assert_array_equal(
                np.frombuffer(got, np.float64), doubles
            )
            assert bytes(receiver.recv(timeout=5)[2]) == b"next"
            assert far.dropped_frames == 0


class TestDeliveredPayloadOwnership:
    """Writable means "the receiver owns this buffer", so only what the
    event loop delivers, each frame in a buffer of its own, may arrive
    writable; everything a fabric delivers without a socket in between
    still belongs to the sender (or to nobody: immutable bytes)."""

    SIZES = (512, 1 << 16, 1 << 18)

    @staticmethod
    def _forms(size):
        """One payload in every shape ``send`` accepts by reference."""
        raw = bytearray(b"p" * size)
        return [
            bytes(raw), raw, memoryview(raw), [raw], (memoryview(raw),),
            [b"p" * (size // 2), bytearray(b"p" * (size - size // 2))],
        ]

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("kind", FABRIC_KINDS)
    def test_a_local_delivery_is_never_writable(self, kind, size):
        """In-process sends and a socket fabric's same-endpoint
        short-circuit hand the sender's own memory through."""
        with fabric_of(kind) as fabric:
            sender, receiver = fabric.open_port("s"), fabric.open_port("r")
            for payload in self._forms(size):
                sender.send(receiver.address, payload, KIND_DATA)
                got = receiver.recv(timeout=5)[2]
                assert memoryview(got).readonly
                assert bytes(got) == b"p" * size

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize(
        "kind", ["socket", "socket-tcp", "faulty-socket"]
    )
    def test_writable_iff_it_crossed_a_socket(self, kind, size):
        with fabric_of(kind) as near, SocketFabric("far") as far:
            sender, receiver = near.open_port("s"), far.open_port("r")
            for payload in self._forms(size):
                sender.send(receiver.address, payload, KIND_DATA)
                got = receiver.recv(timeout=5)[2]
                assert not memoryview(got).readonly
                assert not isinstance(got, bytes)
                assert bytes(got) == b"p" * size
            # The stream the frames took: TCP only where the kind took
            # the local listener away.
            sock, _lock = near._links[(far.host, far.tcp_port)]
            assert sock.family == (
                socket.AF_INET if kind == "socket-tcp" else socket.AF_UNIX
            )

    @pytest.mark.parametrize("kind", ["faulty-inproc", "faulty-socket"])
    def test_a_duplicated_frame_is_two_deliveries_that_share_nothing(
        self, kind
    ):
        """A fault-injected re-send is detached from the sender and
        each copy is either immutable or in a frame buffer of its
        own."""
        schedule = FaultSchedule(seed=1, duplicate=1.0)
        size = 1 << 18
        raw = bytearray(b"p" * size)
        with fabric_of(kind, schedule) as near, SocketFabric("far") as far:
            sender = near.open_port("s")
            receiver = (far if "socket" in kind else near).open_port("r")
            sender.send(receiver.address, raw, KIND_DATA)
            first, second = (receiver.recv(timeout=5)[2] for _ in range(2))
        raw[:] = b"q" * size
        assert bytes(first) == bytes(second) == b"p" * size
        writable = "socket" in kind
        for got in (first, second):
            assert memoryview(got).readonly != writable
        if writable:
            assert first.obj is not second.obj
            first[:8] = b"scribble"
            assert bytes(second[:8]) == b"p" * 8

    @pytest.mark.parametrize("kind", FABRIC_KINDS)
    def test_mutating_a_decoded_local_delivery_cannot_reach_the_sender(
        self, kind
    ):
        """The aliasing hole the ownership rule would open if a local
        delivery passed a ``bytearray`` through writable: the decoders
        declare their stream owned, so the decoded block would be the
        sender's own bytes, writable."""
        block = np.arange(4096, dtype=np.float64)
        chunk = DataChunk(
            7, "x", PHASE_REQUEST, 0, 0, 0, len(block),
            memoryview(block).cast("B"),
        )
        frame = bytearray(chunk.encode())
        sent = bytes(frame)
        with fabric_of(kind) as fabric:
            sender, receiver = fabric.open_port("s"), fabric.open_port("r")
            sender.send(receiver.address, frame, KIND_DATA)
            got = receiver.recv(timeout=5)[2]
        landed = decode_chunk(got).elements(block.dtype)
        assert not landed.flags.writeable
        with pytest.raises(ValueError):
            landed[:] = -1.0
        assert bytes(frame) == sent
        np.testing.assert_array_equal(landed, block)
