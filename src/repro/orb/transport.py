"""The transport fabric — PARDIS's NexusLite role.

An in-process "network": every computing thread that talks to the ORB
owns one or more :class:`Port` objects; a :class:`Fabric` routes byte
payloads between ports.  Delivery is reliable and FIFO per
(source, destination) pair, which is what the paper's synchronous
Nexus sends over a dedicated ATM link provided.

Everything crossing a port boundary must already be marshaled bytes —
the fabric refuses Python objects, so transport can never hide a
marshaling bug.  Messages carry a ``kind`` tag ('request', 'reply',
'data', 'control') so a receiver can wait for the traffic class it
expects; within a kind, matching is FIFO.

The optional ``meter`` hook observes every send (source, destination,
kind, size) — the functional plane's equivalent of the simulator's
link, used by the protocol-trace tests for Figures 2 and 3.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from typing import Any, Callable, NamedTuple

from repro import clock
from repro.cdr.accounting import copied
from repro.cdr.head import INTERNED, text

#: Message kinds understood by the ORB layers.
KIND_REQUEST = "request"
KIND_REPLY = "reply"
KIND_DATA = "data"
KIND_CONTROL = "control"


class TransportError(RuntimeError):
    """Port closed, unknown address, timeout, or misuse."""


class TransportTimeout(TransportError):
    """A receive window expired with no message.

    A distinct subclass so fault-tolerant callers can classify a
    timeout (possibly-lost frame: retryable under a deadline budget)
    apart from structural transport failures, without matching
    message strings.
    """


def _octets(buffer: Any) -> int:
    """Length in octets of one buffer of a payload.  A ``memoryview``
    is sized by ``len`` — its *items* — everywhere downstream, so only
    a flat view of octets is accepted as one."""
    if isinstance(buffer, memoryview):
        if buffer.format == "B" and buffer.ndim == 1 and buffer.contiguous:
            return len(buffer)
    elif isinstance(buffer, (bytes, bytearray)):
        return len(buffer)
    raise TransportError(
        "transport carries marshaled bytes only (a memoryview must be "
        f"flat, contiguous, format 'B'); got {type(buffer).__name__}"
    )


def check_payload(payload: Any) -> int:
    """Validate a send payload and return its total byte length.

    Payloads are marshaled bytes: one buffer (bytes / bytearray /
    memoryview of octets) or a list/tuple of such buffers — the
    segment form produced by the zero-copy encoders, which vectored
    transports send without joining.  The sender must not mutate a
    payload after handing it to the fabric (zero-copy contract).
    """
    if isinstance(payload, (list, tuple)):
        return sum(map(_octets, payload))
    return _octets(payload)


def flatten_payload(payload: Any) -> Any:
    """One contiguous buffer for in-process delivery (joins segment
    lists — the single copy of the in-process path).

    Always read-only: a lone buffer travels by reference, so the
    sender still holds its memory, and a writable delivery would tell
    the receiver it owns it (see :class:`_Delivery`)."""
    if isinstance(payload, (list, tuple)):
        if len(payload) != 1:
            copied(sum(len(p) for p in payload))
            return b"".join(
                p if isinstance(p, bytes) else bytes(p) for p in payload
            )
        payload = payload[0]
    if isinstance(payload, bytes):
        return payload
    return memoryview(payload).toreadonly()


def _wire(address: Any) -> tuple[int, int, bytes, bytes]:
    return (
        address.port_id,
        address.tcp_port,
        address.host.encode("utf-8"),
        address.label.encode("utf-8"),
    )


@dataclass(frozen=True, order=True)
class PortAddress:
    """A routable address: fabric-unique id plus a debugging label."""

    port_id: int
    label: str = field(compare=False, default="")

    #: The in-process fabric has no endpoint; on the wire that reads
    #: as an empty host (see :func:`address_from_wire`).
    host = ""
    tcp_port = 0

    #: What a message head carries of an address — ``(port_id,
    #: tcp_port, host, label)``, the strings as UTF-8 — encoded once
    #: per address, not once per frame.
    wire = cached_property(_wire)

    def __repr__(self) -> str:
        return f"<port {self.port_id} {self.label!r}>"


@dataclass(frozen=True, order=True)
class SocketPortAddress:
    """A routable address: TCP endpoint plus local port id
    (:mod:`repro.orb.socketnet`)."""

    host: str
    tcp_port: int
    port_id: int
    label: str = field(compare=False, default="")

    wire = cached_property(_wire)

    def __repr__(self) -> str:
        return (
            f"<port {self.host}:{self.tcp_port}/{self.port_id} "
            f"{self.label!r}>"
        )


@lru_cache(maxsize=INTERNED)
def address_from_wire(
    port_id: int, tcp_port: int, host: bytes, label: bytes
) -> PortAddress | SocketPortAddress:
    """Inverse of an address's ``wire``: routable over TCP when it has
    a host, process-local otherwise.  A peer names the same few
    addresses in every frame, so the decoded objects are interned —
    behind a bounded table, keyed by what was on the wire."""
    if host:
        return SocketPortAddress(text(host), tcp_port, port_id, text(label))
    return PortAddress(port_id, text(label))


def write_address(enc: Any, address: Any) -> None:
    """An address as CDR, where one travels behind a head or in an
    IOR (docs/protocol.md, "port encoding")."""
    enc.write_ulong(address.port_id)
    enc.write_string(address.label)
    enc.write_string(address.host)
    enc.write_ulong(address.tcp_port)


def read_address(dec: Any) -> PortAddress | SocketPortAddress:
    """Inverse of :func:`write_address`."""
    port_id = dec.read_ulong()
    label = dec.read_string()
    host = dec.read_string()
    return address_from_wire(
        port_id, dec.read_ulong(), host.encode("utf-8"), label.encode("utf-8")
    )


@dataclass
class _Delivery:
    src: PortAddress
    kind: str
    #: One contiguous bytes-like buffer.  Writable means *the receiver
    #: owns it*: only a socket fabric's event loop delivers one, for a
    #: frame it read into a buffer allocated for that frame alone.
    payload: Any
    #: What the delivering fabric already decoded of the payload (the
    #: event loop's peek of a request frame), so the
    #: receiver need not decode it again; ``None`` = nothing.
    head: Any = None


#: Frame templates a port keeps (:meth:`Port.template`).
COMPILED = 256


class Route(NamedTuple):
    """One hop of a fabric — a source port, ``dest`` and a message
    kind — compiled for the frames sent along it.  ``envelope``
    is what the fabric puts ahead of each message: its octets before
    and after the payload length (docs/protocol.md, "Stream framing"),
    or ``None`` where it frames nothing.  ``send(frame)`` carries a
    frame built against it
    (:class:`~repro.cdr.head.Template`)."""

    dest: Any
    envelope: tuple[bytes, bytes] | None
    send: Callable[[list[Any]], None]


class Port:
    """A receiving endpoint.  Every port the ORB opens is read by an
    :attr:`upcall`, on whichever thread delivers (the request intake
    on a request port, an :class:`~repro.orb.transfer.Inbox` on any
    other); :meth:`recv` serves a port without one, owned by one
    thread."""

    def __init__(self, fabric: "Fabric", address: PortAddress) -> None:
        self._fabric = fabric
        self.address = address
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._queue: list[_Delivery] = []
        self._closed = False
        #: ``upcall(delivery) -> bool``, run on the *delivering* thread
        #: (a socket fabric's event loop, or a local sender): ``True``
        #: consumes the message, ``False`` queues it for :meth:`recv`
        #: as if no upcall were set.  It must return promptly, never
        #: block and never raise — an event loop's other sockets wait
        #: on it, and the loop does not survive a stray exception.
        #: :meth:`close` calls it one last time with ``None``, on the
        #: closing thread: nobody is parked in :meth:`recv` to see the
        #: port go.
        self.upcall: Callable[[_Delivery | None], bool] | None = None
        self._templates: dict[tuple[int, str, Any], Any] = {}

    def _deposit(self, delivery: _Delivery) -> None:
        upcall = self.upcall
        if upcall is not None and not self._closed and upcall(delivery):
            return
        with self._cond:
            if self._closed:
                raise TransportError(
                    f"port {self.address} is closed"
                )
            self._queue.append(delivery)
            self._cond.notify_all()

    def recv(
        self,
        kind: str | None = None,
        timeout: float | None = 60.0,
    ) -> tuple[PortAddress, str, bytes]:
        """Blocking receive of the next message (of ``kind``, if given).

        Returns ``(source, kind, payload)``.
        """
        def take() -> _Delivery | None:
            if self._closed:
                raise TransportError(
                    f"port {self.address} closed while receiving"
                )
            for i, delivery in enumerate(self._queue):
                if kind is None or delivery.kind == kind:
                    return self._queue.pop(i)

        with self._cond:
            delivery = clock.wait_for(self._cond, take, timeout)
        if delivery is None:
            raise TransportTimeout(
                f"recv on port {self.address} timed out (kind={kind})"
            )
        return delivery.src, delivery.kind, delivery.payload

    def pending(self) -> int:
        with self._cond:
            return len(self._queue)

    def send(
        self, dest: PortAddress, payload: Any, kind: str = KIND_DATA
    ) -> None:
        """Send from this port (the reply-to address) to ``dest``.

        ``payload`` is marshaled bytes: one buffer or a segment list
        (see :func:`check_payload`); segment lists let vectored
        transports ship encoder output without joining it.
        """
        self._fabric.send(self.address, dest, payload, kind)

    def template(self, dest: Any, kind: str, key: Any, build: Callable[[Route], Any]) -> Any:
        """The frame template (:class:`~repro.cdr.head.Template`) that
        ``build`` compiles for ``key`` on the hop from this port to
        ``dest`` for frames of ``kind`` (:meth:`Fabric.route`): built at
        first use and kept, so a sender fills in only what a frame
        varies.  The one store of compiled hops: by ``id(dest)`` (a
        template holds its route, the route its ``dest``, so an id here
        is never a dead object's), at most :data:`COMPILED`, after which
        it starts over."""
        made = self._templates.get((id(dest), kind, key))
        if made is None:
            made = build(self._fabric.route(self.address, dest, kind))
            if len(self._templates) >= COMPILED:
                self._templates.clear()
            self._templates[id(dest), kind, key] = made
        return made

    def close(self) -> None:
        with self._cond:
            first = not self._closed
            self._closed = True
            self._cond.notify_all()
        self._templates.clear()
        self._fabric._unregister(self.address)
        upcall = self.upcall
        if first and upcall is not None:
            upcall(None)

    @property
    def closed(self) -> bool:
        return self._closed


#: Observer signature: (src, dest, kind, nbytes).  Meters see every
#: frame crossing the fabric; :meth:`repro.trace.TraceRecorder.fabric_meter`
#: returns one that tallies per-kind ``fabric.frames.*`` /
#: ``fabric.bytes.*`` counters into its metrics registry (an ORB
#: constructed with tracing on attaches it automatically).
Meter = Callable[[PortAddress, PortAddress, str, int], None]


class Fabric:
    """The in-process network: a registry of ports plus routing.

    Also the declared surface of every fabric (the TCP
    :class:`~repro.orb.socketnet.SocketFabric` subclasses it, the
    fault-injecting wrapper mirrors it): ports, ``send``, meters,
    :attr:`governor` and :meth:`stats` — the ORB reads these, never
    probes for them.
    """

    #: Fan-in governance (:class:`~repro.orb.server.ServerGovernor`:
    #: per-client backpressure) of a fabric that accepts
    #: connections; ``None`` on one that does not.
    governor: Any = None

    def __init__(self, name: str = "fabric") -> None:
        self.name = name
        self._lock = threading.Lock()
        self._ports: dict[int, Port] = {}
        self._ids = itertools.count(1)
        #: Replaced, never mutated: a sender reads it without the lock.
        self._meters: tuple[Meter, ...] = ()

    def open_port(self, label: str = "") -> Port:
        with self._lock:
            address = PortAddress(next(self._ids), label)
            port = Port(self, address)
            self._ports[address.port_id] = port
        return port

    def send(
        self,
        src: PortAddress,
        dest: PortAddress,
        payload: Any,
        kind: str = KIND_DATA,
    ) -> None:
        nbytes = check_payload(payload)
        port = self._ports.get(dest.port_id)
        if port is None:
            raise TransportError(f"no port at {dest}")
        for meter in self._meters:
            meter(src, dest, kind, nbytes)
        port._deposit(_Delivery(src, kind, flatten_payload(payload)))

    def route(self, src: Any, dest: Any, kind: str = KIND_DATA) -> Route:
        """The hop from ``src`` to ``dest`` for frames of ``kind``: no
        envelope here, every frame goes through :meth:`send`."""
        return Route(dest, None, partial(self.send, src, dest, kind=kind))

    def add_meter(self, meter: Meter) -> None:
        """Observe every message crossing the fabric."""
        with self._lock:
            self._meters += (meter,)

    def remove_meter(self, meter: Meter) -> None:
        with self._lock:
            meters = list(self._meters)
            meters.remove(meter)
            self._meters = tuple(meters)

    def _unregister(self, address: PortAddress) -> None:
        with self._lock:
            self._ports.pop(address.port_id, None)

    def open_port_count(self) -> int:
        with self._lock:
            return len(self._ports)

    def close(self) -> None:
        """Close every port still open (a fabric with sockets and
        threads of its own stops those first)."""
        with self._lock:
            ports = list(self._ports.values())
        for port in ports:
            port.close()

    def stats(self) -> dict[str, Any]:
        """This fabric's section of ``orb.stats()["fabric"]`` (the
        in-process network has nothing to lose, so nothing to count)."""
        return {}
