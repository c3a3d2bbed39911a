"""The declared fabric surface and the ``orb.stats()`` schema built
on it.

``ORB.stats()`` reads a contract — ``fabric.stats()``,
``fabric.governor``, ``naming.stats()``, ``group.reply_cache``, its
own ``metrics`` registry — instead of probing for capabilities, and
must keep returning exactly the keys and nesting it returned when it
probed: ``bench/layers.py`` reads ``cdr_copies``,
``transfer_schedule_cache`` and ``server.requests`` /
``server.backpressure`` from outside.
"""

import contextlib

import pytest

from repro import ORB, FaultSchedule, FaultyFabric
from repro.orb.nameservice import NamingClient
from repro.orb.socketnet import SocketFabric
from repro.orb.transport import Fabric
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


@contextlib.contextmanager
def orb_on(kind):
    with contextlib.ExitStack() as stack:
        if kind.endswith("socket"):
            fabric = stack.enter_context(SocketFabric(kind))
        else:
            fabric = Fabric(kind)
        if kind.startswith("faulty"):
            fabric = FaultyFabric(fabric, FaultSchedule())
        yield stack.enter_context(ORB(kind, fabric=fabric))


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
