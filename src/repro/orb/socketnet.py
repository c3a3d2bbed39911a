"""TCP transport: the fabric over real sockets.

The in-process :class:`~repro.orb.transport.Fabric` carries everything
inside one interpreter.  This module provides the same contract over
loopback/LAN TCP, so PARDIS components can live in *separate OS
processes* (or machines): a :class:`SocketFabric` listens on one TCP
endpoint and demultiplexes frames onto its local ports; addresses
(:class:`SocketPortAddress`) carry the TCP endpoint, so they remain
routable after travelling inside an IOR.

The receive side is a single-threaded event loop
(:class:`_ServerLoop`): one ``selectors`` loop owns the listening
socket and every accepted connection, multiplexing any number of
clients without a thread per connection.  A
:class:`~repro.orb.server.ServerGovernor` gates what the loop admits —
connection and request admission control, and per-client backpressure
(the loop stops reading a client's socket while its dispatch queue is
over budget) — see ``docs/scaling.md``.  Every frame, whatever its
size, is read into a buffer allocated for it alone and delivered
writable: the receiver owns that memory (``docs/performance.md``,
"Ownership").

That loop is the only server in a process: the naming domain is an
ordinary object served through it (:mod:`repro.orb.nameservice`), which
completes a true multi-process deployment — see
``examples/two_process_demo.py``.

Wire framing (per message, after a 4-byte big-endian length prefix) is
one fixed-layout head (:mod:`repro.cdr.head`) — destination port id,
payload length, source address (tcp port, port id; host, label), kind
— then the payload octets, 8-aligned in the frame, so bulk data lands
aligned in a frame buffer and can be used where it lies
(``docs/protocol.md``; both ends of a connection must run this
framing).  Nothing here is pickled off the wire, so a hostile peer can
at worst produce a :class:`~repro.cdr.typecodes.MarshalError`, which
costs it that frame.
"""

from __future__ import annotations

import selectors
import socket
import struct
import threading
import time
from collections import deque
from typing import Any

import numpy as np

from repro.cdr.accounting import copied
from repro.cdr.head import HeadLayout, octet_run, text
from repro.cdr.typecodes import MarshalError
from repro.orb import request as wire
from repro.orb.server import KIND_BUSY, ServerConfig, ServerGovernor
from repro.orb.transport import (
    KIND_REQUEST,
    Fabric,
    Port,
    SocketPortAddress,
    TransportError,
    _Delivery,
    address_from_wire,
    check_payload,
    flatten_payload,
)

_LENGTH = struct.Struct(">I")
#: Refuse frames above this size (sanity bound, 256 MiB).
_MAX_FRAME = 256 * 1024 * 1024


#: The frame envelope: destination port id, payload length, source tcp
#: port and port id; source host, source label, kind (docs/protocol.md,
#: "TCP framing").
_ENVELOPE = HeadLayout("3xIIII", strings=3)

#: Synthetic address meters see for frames dropped before any port is
#: known (oversized / malformed framing on the reader side).
DROP_ADDRESS = SocketPortAddress("", 0, 0, "dropped-frame")

#: The scratch buffer a refused frame's declared bytes are drained
#: through, at most this many at a time.
_DRAIN_CHUNK = 1 << 16


def _tune_socket(sock: socket.socket) -> None:
    """Disable Nagle: frames mix small headers with large payloads,
    and a delayed-ACK/Nagle interaction stalls a pipelined stream for
    tens of milliseconds per small frame."""
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:
        pass  # not a TCP socket (tests may hand in a pipe/mock)


def _write_frame(sock: socket.socket, *buffers: Any) -> None:
    """Vectored frame write: length prefix + buffers via ``sendmsg``,
    never joined into one allocation."""
    total = sum(len(b) for b in buffers)
    views = [memoryview(_LENGTH.pack(total))]
    for buf in buffers:
        if len(buf) == 0:
            continue
        view = memoryview(buf)
        views.append(view.cast("B") if view.format != "B" else view)
    while views:
        sent = sock.sendmsg(views)
        if sent <= 0:
            raise ConnectionError("peer stopped accepting data")
        while sent:
            head = views[0]
            if sent >= len(head):
                sent -= len(head)
                views.pop(0)
            else:
                views[0] = head[sent:]
                sent = 0


class SocketFabric(Fabric):
    """The Fabric whose sends travel over TCP.

    One instance per process; ``bind_host``/``bind_port`` choose the
    listening endpoint (port 0 lets the OS pick).  Ports opened here
    behave exactly like in-process ports — same :class:`Port` class,
    blocking ``recv`` with kind filtering — and their addresses are
    valid on any peer that can reach this endpoint.
    """

    def __init__(
        self,
        name: str = "socket-fabric",
        bind_host: str = "127.0.0.1",
        bind_port: int = 0,
        server: ServerConfig | None = None,
    ) -> None:
        """``server`` tunes fan-in admission control and backpressure
        (:class:`~repro.orb.server.ServerConfig`); the default admits
        everything but keeps per-client backpressure on."""
        super().__init__(name)
        self._connections: dict[tuple[str, int], socket.socket] = {}
        self._conn_locks: dict[tuple[str, int], threading.Lock] = {}
        #: Incoming frames refused by the receive path (zero-length or
        #: above :data:`_MAX_FRAME`); also reported to meters under the
        #: synthetic :data:`DROP_ADDRESS` with kind ``"drop"``.
        self.dropped_frames = 0
        self._closed = False
        self._server = socket.create_server(
            (bind_host, bind_port), reuse_port=False
        )
        self.host, self.tcp_port = self._server.getsockname()[:2]
        self.governor = ServerGovernor(
            server if server is not None else ServerConfig(), name=name
        )
        self.governor.attach_fabric(self)
        self._loop = _ServerLoop(self, self._server, self.governor, name)
        self.governor.attach_loop(self._loop)

    def stats(self) -> dict[str, Any]:
        return {"dropped_frames": self.dropped_frames}

    # -- fabric contract ---------------------------------------------------

    def open_port(self, label: str = "") -> Port:
        with self._lock:
            if self._closed:
                raise TransportError("fabric is closed")
            port_id = next(self._ids)
            address = SocketPortAddress(
                self.host, self.tcp_port, port_id, label
            )
            port = Port(self, address)
            self._ports[port_id] = port
        return port

    def send(
        self,
        src: SocketPortAddress,
        dest: SocketPortAddress,
        payload: Any,
        kind: str = "data",
    ) -> None:
        nbytes = check_payload(payload)
        with self._lock:
            meters = list(self._meters)
        for meter in meters:
            meter(src, dest, kind, nbytes)
        if (dest.host, dest.tcp_port) == (self.host, self.tcp_port):
            self._deliver_local(
                dest.port_id, src, kind, flatten_payload(payload)
            )
            return
        segments = self._encode_frame(src, dest, kind, payload, nbytes)
        self._send_remote((dest.host, dest.tcp_port), segments)

    # -- wiring ------------------------------------------------------------

    @staticmethod
    def _encode_frame(
        src: SocketPortAddress,
        dest: SocketPortAddress,
        kind: str,
        payload: Any,
        nbytes: int,
    ) -> list[Any]:
        """The frame as a buffer list: large payload segments ride
        along by reference for the vectored write."""
        port_id, tcp_port, host, label = src.wire
        head = _ENVELOPE.encode(
            (dest.port_id, nbytes, tcp_port, port_id),
            (host, label, kind.encode("utf-8")),
        )
        if isinstance(payload, (list, tuple)):
            return [head, *payload]
        return [head, payload]

    @staticmethod
    def _decode_frame(
        frame: memoryview,
    ) -> tuple[int, Any, str, Any]:
        """Inverse of :meth:`_encode_frame`: destination port id,
        source address, kind, payload — the payload a view of
        ``frame``, writable by the owned-stream rule
        (:func:`~repro.cdr.head.octet_run`)."""
        fields, (host, label, kind), end = _ENVELOPE.decode(frame)
        _flag, dest_port_id, nbytes, tcp_port, port_id = fields
        return (
            dest_port_id,
            address_from_wire(port_id, tcp_port, host, label),
            text(kind),
            octet_run(frame, end, nbytes),
        )

    def _deliver_local(
        self,
        dest_port_id: int,
        src: SocketPortAddress,
        kind: str,
        payload: Any,
        head: Any = None,
    ) -> None:
        with self._lock:
            port = self._ports.get(dest_port_id)
        if port is None:
            raise TransportError(
                f"no port {dest_port_id} at {self.host}:{self.tcp_port}"
            )
        port._deposit(_Delivery(src, kind, payload, head))

    def _send_remote(
        self, endpoint: tuple[str, int], buffers: list[Any]
    ) -> None:
        with self._lock:
            sock = self._connections.get(endpoint)
            conn_lock = self._conn_locks.get(endpoint)
        if sock is None:
            # Connect outside the fabric lock — a slow or unreachable
            # peer must not stall every other sender on this fabric.
            try:
                fresh = socket.create_connection(endpoint, timeout=10)
                _tune_socket(fresh)
            except OSError as exc:
                raise TransportError(
                    f"cannot reach {endpoint[0]}:{endpoint[1]}: {exc}"
                ) from None
            with self._lock:
                sock = self._connections.get(endpoint)
                if sock is None:
                    self._connections[endpoint] = fresh
                    self._conn_locks[endpoint] = threading.Lock()
                    sock = fresh
                    fresh = None
                conn_lock = self._conn_locks[endpoint]
            if fresh is not None:
                fresh.close()  # lost the insertion race; use the winner
        with conn_lock:
            try:
                _write_frame(sock, *buffers)
            except OSError as exc:
                with self._lock:
                    self._connections.pop(endpoint, None)
                    self._conn_locks.pop(endpoint, None)
                raise TransportError(
                    f"send to {endpoint[0]}:{endpoint[1]} failed: {exc}"
                ) from None

    def _record_drop(self, length: int) -> None:
        with self._lock:
            self.dropped_frames += 1
            meters = list(self._meters)
        for meter in meters:
            meter(DROP_ADDRESS, DROP_ADDRESS, "drop", length)

    def close(self) -> None:
        """Stop the event loop, close all connections and local ports."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            connections = list(self._connections.values())
            self._connections.clear()
        self._loop.close()
        self._loop.join()
        self._server.close()
        self.governor.close()
        for sock in connections:
            sock.close()
        super().close()

    def __enter__(self) -> "SocketFabric":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


# ---------------------------------------------------------------------------
# The server event loop
# ---------------------------------------------------------------------------


class _ServerConnection:
    """Per-connection receive state for the event loop: the framing
    state machine (header → body → header, with a drain detour for
    refused frames) plus the client identities seen on this
    connection."""

    __slots__ = (
        "sock",
        "header",
        "phase",
        "have",
        "view",
        "drain_left",
        "scratch",
        "identities",
        "pause_depth",
    )

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        #: Every frame's 4-byte length prefix lands here.
        self.header = bytearray(_LENGTH.size)
        self.phase = "header"
        self.have = 0
        #: The frame being received: a view of the buffer allocated
        #: for it alone, which its receiver will own.
        self.view: memoryview | None = None
        self.drain_left = 0
        self.scratch: memoryview | None = None
        #: Client identities (request id high bits) whose requests
        #: arrived here — the unit backpressure pauses.
        self.identities: set[int] = set()
        #: How many of those identities are currently paused; the
        #: socket leaves the selector while this is non-zero.
        self.pause_depth = 0


class _ServerLoop:
    """One thread, every client socket: the fan-in receive path.

    Replaces the thread-per-connection reader model: a ``selectors``
    loop owns the listening socket and all accepted connections,
    running the same framing state machine the blocking readers ran —
    each frame read into a buffer of its own that the payload view
    hands to the receiver, drop accounting for refused frames — but
    across any number of sockets.  Request frames are peeked
    (:func:`repro.orb.request.peek_request`) so the attached
    :class:`~repro.orb.server.ServerGovernor` can attribute them to a
    client identity, refuse them, or pause the socket.

    Thread contract: everything touching the selector or connection
    state runs on the loop thread.  Cross-thread requests (resume,
    close) go through a command queue woken by a socketpair.
    """

    #: Frames serviced per connection per wakeup before yielding to
    #: other ready sockets (fairness under a busy stream).
    _FRAMES_PER_WAKE = 16

    #: How often paused sockets are probed for a silent disconnect
    #: (they are out of the selector, so EOF needs polling), and the
    #: idle ``select`` timeout.
    _SWEEP_INTERVAL = 0.5

    def __init__(
        self,
        fabric: SocketFabric,
        server_sock: socket.socket,
        governor: ServerGovernor | None,
        name: str,
    ) -> None:
        self._fabric = fabric
        self._governor = governor
        self._server = server_sock
        server_sock.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._commands: deque[tuple[str, Any]] = deque()
        self._conns: set[_ServerConnection] = set()
        self._by_identity: dict[int, set[_ServerConnection]] = {}
        self._closed = False
        self._busy_frame = self._make_busy_frame()
        self._selector.register(
            server_sock, selectors.EVENT_READ, ("accept", None)
        )
        self._selector.register(
            self._wake_r, selectors.EVENT_READ, ("wake", None)
        )
        self._thread = threading.Thread(
            target=self._run, name=f"{name}-loop", daemon=True
        )
        self._thread.start()

    def _make_busy_frame(self) -> bytes:
        """The one-frame NACK written on a connection refused by
        admission control (kind :data:`KIND_BUSY`, destination port 0
        — no real port, protocol-aware clients read it raw)."""
        src = SocketPortAddress(
            self._fabric.host, self._fabric.tcp_port, 0, "server-busy"
        )
        payload = b"server at max connections"
        segments = SocketFabric._encode_frame(
            src,
            SocketPortAddress("", 0, 0),
            KIND_BUSY,
            payload,
            len(payload),
        )
        total = sum(len(s) for s in segments)
        return _LENGTH.pack(total) + b"".join(
            bytes(s) for s in segments
        )

    # -- cross-thread interface ---------------------------------------------

    def request_resume(self, identity: int) -> None:
        """Resume reading a paused client's socket(s); callable from
        any thread."""
        self._push_command(("resume", identity))

    def close(self) -> None:
        self._push_command(("close", None))

    def join(self, timeout: float = 5.0) -> None:
        self._thread.join(timeout)

    def _push_command(self, command: tuple[str, Any]) -> None:
        self._commands.append(command)
        try:
            self._wake_w.send(b"\0")
        except OSError:
            pass

    # -- loop-thread interface (governor calls during admit) ----------------

    def pause(self, identity: int) -> None:
        """Stop reading every socket this identity sends on.  Loop
        thread only (the governor calls it inside ``admit_request``,
        which the loop itself invoked)."""
        for conn in self._by_identity.get(identity, ()):
            conn.pause_depth += 1
            if conn.pause_depth == 1:
                try:
                    self._selector.unregister(conn.sock)
                except (KeyError, ValueError):
                    pass

    def _resume(self, identity: int) -> None:
        for conn in self._by_identity.get(identity, ()):
            if conn.pause_depth == 0:
                continue
            conn.pause_depth -= 1
            if conn.pause_depth == 0 and conn in self._conns:
                try:
                    self._selector.register(
                        conn.sock, selectors.EVENT_READ, ("conn", conn)
                    )
                except (KeyError, ValueError, OSError):
                    pass
                # Level-triggered: bytes that arrived while paused
                # make the very next ``select`` return this socket.

    # -- the loop -----------------------------------------------------------

    def _run(self) -> None:
        next_sweep = time.monotonic() + self._SWEEP_INTERVAL
        while True:
            try:
                events = self._selector.select(
                    timeout=self._SWEEP_INTERVAL
                )
            except OSError:
                break
            for key, _mask in events:
                tag, conn = key.data
                if tag == "accept":
                    self._accept()
                elif tag == "wake":
                    self._drain_wake()
                else:
                    self._service(conn)
            self._run_commands()
            if self._closed:
                break
            now = time.monotonic()
            if now >= next_sweep:
                next_sweep = now + self._SWEEP_INTERVAL
                self._sweep_paused()
        self._teardown()

    def _drain_wake(self) -> None:
        try:
            while self._wake_r.recv(4096):
                pass
        except (BlockingIOError, InterruptedError, OSError):
            pass

    def _run_commands(self) -> None:
        while self._commands:
            tag, arg = self._commands.popleft()
            if tag == "resume":
                self._resume(arg)
            elif tag == "close":
                self._closed = True

    def _accept(self) -> None:
        while True:
            try:
                sock, _peer = self._server.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return  # server socket closed
            if self._governor is not None and (
                not self._governor.on_connection()
            ):
                # Refused: one BUSY frame (fits the empty socket
                # buffer, so the non-blocking send cannot stall the
                # loop), then close — a fast NACK, not a hang.
                try:
                    sock.setblocking(False)
                    sock.send(self._busy_frame)
                except OSError:
                    pass
                sock.close()
                continue
            _tune_socket(sock)
            sock.setblocking(False)
            conn = _ServerConnection(sock)
            self._conns.add(conn)
            self._selector.register(
                sock, selectors.EVENT_READ, ("conn", conn)
            )

    def _service(self, conn: _ServerConnection) -> None:
        """Advance one connection's framing state machine until the
        socket would block or the per-wake frame budget is spent."""
        sock = conn.sock
        frames = 0
        while frames < self._FRAMES_PER_WAKE:
            if conn.phase == "drain":
                if conn.scratch is None:
                    conn.scratch = memoryview(
                        bytearray(
                            min(conn.drain_left, _DRAIN_CHUNK)
                        )
                    )
                want = min(conn.drain_left, len(conn.scratch))
                try:
                    n = sock.recv_into(conn.scratch[:want])
                except (BlockingIOError, InterruptedError):
                    return
                except OSError:
                    self._close_conn(conn)
                    return
                if n == 0:
                    self._close_conn(conn)
                    return
                conn.drain_left -= n
                if conn.drain_left == 0:
                    conn.scratch = None
                    conn.phase = "header"
                    conn.have = 0
                continue
            if conn.phase == "header":
                target = memoryview(conn.header)
            else:
                assert conn.view is not None
                target = conn.view
            try:
                n = sock.recv_into(target[conn.have:])
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                self._close_conn(conn)
                return
            if n == 0:
                self._close_conn(conn)
                return
            copied(n)
            conn.have += n
            if conn.have < len(target):
                continue
            if conn.phase == "header":
                (length,) = _LENGTH.unpack(conn.header)
                conn.have = 0
                if length == 0 or length > _MAX_FRAME:
                    # Malformed or oversized: count the drop, drain
                    # the declared bytes so the stream stays framed,
                    # and keep the connection alive.
                    self._fabric._record_drop(length)
                    if length:
                        conn.phase = "drain"
                        conn.drain_left = length
                    continue
                # Uninitialised (the frame overwrites every byte) and
                # aligned, whatever the frame's size.
                conn.view = memoryview(np.empty(length, np.uint8))
                conn.phase = "body"
                continue
            # Body complete: the frame, and the buffer it landed in,
            # go to its receiver; the loop keeps no reference.
            frames += 1
            conn.view = None
            try:
                self._deliver(conn, target)
            except (MarshalError, TransportError):
                # Drop garbage, keep the connection — but count it so
                # ``orb.stats()`` surfaces silent frame loss.
                self._fabric._record_drop(len(target))
            del target
            conn.phase = "header"
            conn.have = 0
            if conn.pause_depth > 0:
                # The frame we just admitted paused this connection;
                # stop reading immediately, not at the budget.
                return

    def _deliver(
        self, conn: _ServerConnection, frame: memoryview
    ) -> None:
        """Decode the frame envelope and route it — with the
        governor's request admission spliced between decode and
        delivery."""
        fabric = self._fabric
        # The frame's buffer was allocated for it alone, and the loop
        # drops it on delivery: its payload is delivered writable,
        # which tells the receiver it owns the memory.
        dest_port_id, src, kind, payload = fabric._decode_frame(frame)
        governor = self._governor
        routing = None
        if (
            kind == KIND_REQUEST
            and governor is not None
            and governor.active
        ):
            routing = wire.peek_request(payload)
            if routing is not None:
                identity = routing.client_identity
                self._note_identity(conn, identity)
                if not governor.admit_request(
                    identity,
                    routing.request_id,
                    routing.trace_id,
                    routing.reply_port,
                ):
                    return  # refused: BUSY reply queued by governor
        # The peeked head rides along: a receiver that decodes on this
        # thread starts there.
        try:
            fabric._deliver_local(
                dest_port_id, src, kind, payload, routing
            )
        except TransportError:
            # The port is gone (a killed replica): nothing downstream
            # will see this frame, so its admission slot ends here.
            if routing is not None:
                governor.request_done(routing.request_id)
            raise

    def _note_identity(
        self, conn: _ServerConnection, identity: int
    ) -> None:
        if identity in conn.identities:
            return
        conn.identities.add(identity)
        self._by_identity.setdefault(identity, set()).add(conn)
        if self._governor is not None and self._governor.is_paused(
            identity
        ):
            # A paused identity opened another connection: it starts
            # paused too, so backpressure cannot be dodged by
            # reconnecting.
            conn.pause_depth += 1
            if conn.pause_depth == 1:
                try:
                    self._selector.unregister(conn.sock)
                except (KeyError, ValueError):
                    pass

    def _sweep_paused(self) -> None:
        """Paused sockets are out of the selector, so a client that
        disconnects mid-backpressure would otherwise hold its
        admission slot forever; probe them for EOF."""
        for conn in [c for c in self._conns if c.pause_depth > 0]:
            try:
                data = conn.sock.recv(1, socket.MSG_PEEK)
            except (BlockingIOError, InterruptedError):
                continue
            except OSError:
                self._close_conn(conn)
                continue
            if data == b"":
                self._close_conn(conn)
            # Buffered bytes: the peer is alive (or died with data
            # still queued — EOF will surface once it drains).

    def _close_conn(self, conn: _ServerConnection) -> None:
        if conn not in self._conns:
            return
        self._conns.discard(conn)
        if conn.pause_depth == 0:
            try:
                self._selector.unregister(conn.sock)
            except (KeyError, ValueError):
                pass
        try:
            conn.sock.close()
        except OSError:
            pass
        orphaned = []
        for identity in conn.identities:
            peers = self._by_identity.get(identity)
            if peers is None:
                continue
            peers.discard(conn)
            if not peers:
                del self._by_identity[identity]
                orphaned.append(identity)
        if self._governor is not None:
            self._governor.on_disconnect(orphaned)

    def _teardown(self) -> None:
        for conn in list(self._conns):
            self._conns.discard(conn)
            try:
                conn.sock.close()
            except OSError:
                pass
        self._by_identity.clear()
        try:
            self._selector.close()
        except OSError:
            pass
        for sock in (self._wake_r, self._wake_w):
            try:
                sock.close()
            except OSError:
                pass
