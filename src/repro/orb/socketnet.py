"""Socket transport: the fabric over real stream sockets.

The in-process :class:`~repro.orb.transport.Fabric` carries everything
inside one interpreter.  This module provides the same contract over
stream sockets, so PARDIS components can live in *separate OS
processes* (or machines): a :class:`SocketFabric` listens on one TCP
endpoint and demultiplexes frames onto its local ports; addresses
(:class:`SocketPortAddress`) carry the TCP endpoint, so they remain
routable after travelling inside an IOR.

Like Nexus, the fabric picks the cheapest way to reach each peer.  It
also listens on an abstract-namespace ``AF_UNIX`` stream named after
its TCP endpoint (:func:`_local_name`), and a sender reaches a peer
there first: a fabric on the same host (and network namespace), run
by the same user, is a local stream away, without the TCP loopback
path.  Anything else — another host, another user, a platform without
abstract names — goes over TCP.  Both streams carry identical frames,
except that on a local stream a frame larger than the link's send
buffer is not streamed at all: the sender offers its addresses and the
receiver pulls it straight out of the sender's memory with one
``process_vm_readv`` (:meth:`SocketFabric._pulled`,
:meth:`_ServerLoop._pull`; ``docs/protocol.md``, "Pull offers").

The receive side is a single-threaded event loop
(:class:`_ServerLoop`): one ``selectors`` loop owns both listening
sockets and every accepted connection, multiplexing any number of
clients without a thread per connection.  A
:class:`~repro.orb.server.ServerGovernor` holds per-client
backpressure: the loop stops reading a client's socket while its
dispatch queue is over budget — see ``docs/scaling.md``.  Every
frame, whatever its size, is read into a buffer allocated for it
alone and delivered writable: the receiver owns that memory
(``docs/performance.md``, "Ownership").

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
framing).  Everything ahead of a message is compiled for its hop
(:meth:`SocketFabric.route`): the length prefix and the envelope are
packed by the same ``struct`` as the message head behind them
(:class:`~repro.cdr.head.Template`, kept by the sending port:
:meth:`~repro.orb.transport.Port.template`).  Nothing here is pickled off the
wire, so a hostile peer can at worst produce a
:class:`~repro.cdr.typecodes.MarshalError`, which costs it that frame.
"""

from __future__ import annotations

import ctypes
import errno
import os
import select
import selectors
import socket
import struct
import threading
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Any

import numpy as np

from repro import clock
from repro.cdr.accounting import copied
from repro.cdr.head import LENGTH as _LENGTH, HeadLayout, Template, octet_run, text
from repro.cdr.typecodes import MarshalError
from repro.orb import request as wire
from repro.orb.server import ServerGovernor
from repro.orb.transport import (
    KIND_DATA,
    KIND_REQUEST,
    Fabric,
    Port,
    Route,
    SocketPortAddress,
    TransportError,
    _Delivery,
    address_from_wire,
    check_payload,
    flatten_payload,
)

#: Refuse frames above this size (sanity bound, 256 MiB).
_MAX_FRAME = 256 * 1024 * 1024

#: A length prefix with this bit set opens a pull offer: a segment
#: count, then the frame's segments as an ``iovec`` array
#: (docs/protocol.md, "Pull offers").
_PULL_FLAG = 1 << 31
#: At most this many segments per offer or per ``sendmsg``:
#: ``IOV_MAX``, the most one ``process_vm_readv`` or ``sendmsg`` takes.
_MAX_SEGMENTS = 1024
#: What the kernel answers when it will not let us read a peer's
#: memory (Yama ``ptrace_scope``, seccomp): the offer is refused and
#: the sender streams the frame instead.
_REFUSALS = (errno.EPERM, errno.EACCES, errno.ENOSYS)

if hasattr(os, "pidfd_open"):  # Linux: elsewhere no pidfd, so no pull
    #: ``process_vm_readv(pid, local, 1, remote, count, 0)``.
    _process_vm_readv = ctypes.CDLL(None, use_errno=True).process_vm_readv
    _process_vm_readv.restype = ctypes.c_ssize_t
    # pid, (iovec array, count) for us and for the peer, flags
    _process_vm_readv.argtypes = [ctypes.c_int] + [ctypes.c_void_p, ctypes.c_ulong] * 2 + [ctypes.c_ulong]


def _pin(buf: Any) -> tuple[int, int, Any] | None:
    """Where ``buf``'s octets start, how many there are, and an object
    that holds them in place while a peer reads them — or ``None`` for
    a read-only buffer other than ``bytes``.  Taken through the buffer
    protocol: an ndarray built here would cost peak RSS
    (docs/performance.md, "One copy between co-located peers")."""
    if isinstance(buf, bytes):
        return ctypes.cast(buf, ctypes.c_void_p).value, len(buf), buf
    if memoryview(buf).readonly:
        return None
    pin = ctypes.c_char.from_buffer(buf)
    return ctypes.addressof(pin), len(buf), pin


def _exited(pidfd: int) -> bool:
    """Has the process behind ``pidfd`` exited (its pid perhaps already
    someone else's)?"""
    probe = select.poll()
    probe.register(pidfd, select.POLLIN)
    return bool(probe.poll(0))


def _source(tcp_port: int, port_id: int, host: bytes, label: bytes, kind: bytes) -> tuple:
    """What an envelope's key decodes to: the source address, the kind."""
    return address_from_wire(port_id, tcp_port, host, label), text(kind)


#: The frame envelope: destination port id, payload length, source tcp
#: port and port id; source host, source label, kind (docs/protocol.md,
#: "Stream framing").
_ENVELOPE = HeadLayout("3xI", "I", "II", 3, _source)


def _envelope(src: Any, dest: Any, kind: str) -> tuple[bytes, bytes]:
    """The envelope of every frame from ``src`` to ``dest`` of ``kind``,
    around its payload length."""
    port_id, tcp_port, host, label = src.wire
    before, _vary, after = _ENVELOPE.pieces(
        (dest.port_id,), (tcp_port, port_id), (host, label, kind.encode("utf-8"))
    )
    return before, after


def _bare(src: Any, dest: Any, kind: str) -> Template:
    """The envelope-only template: frames from ``src`` to ``dest`` of
    ``kind`` that carry their payload as it is — a bare
    :meth:`SocketFabric.send` and :meth:`SocketFabric._encode_frame`."""
    return Template(b"", "", b"", Route(dest, _envelope(src, dest, kind), None))


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
        pass  # not a TCP socket: a local stream, or a test's pipe/mock


def _local_name(endpoint: tuple[str, int]) -> bytes:
    """The abstract ``AF_UNIX`` name of the fabric advertising the TCP
    ``endpoint`` (docs/protocol.md, "Stream framing")."""
    return b"\0pardis-fabric/%s:%d" % (endpoint[0].encode(), endpoint[1])


def _listen_local(server: socket.socket) -> list[socket.socket]:
    """The local listener beside the TCP ``server``, or none where the
    platform cannot bind an abstract name."""
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        sock.bind(_local_name(server.getsockname()[:2]))
        sock.listen()
        return [sock]
    except OSError:
        sock.close()
        return []


def _connect(endpoint: tuple[str, int]) -> socket.socket:
    """The one connect site, 10 s timeout either way: the peer's local
    stream, kept only if ``SO_PEERCRED`` says its listener runs under
    our own uid (anyone may bind an abstract name, but the kernel
    vouches for who did), else TCP."""
    local = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        local.settimeout(10)
        local.connect(_local_name(endpoint))
        creds = local.getsockopt(socket.SOL_SOCKET, socket.SO_PEERCRED, 12)
        if struct.unpack("3i", creds)[1] == os.getuid():  # pid, uid, gid
            return local
    except (AttributeError, OSError):
        pass  # no such name, or no credentials to check: use TCP
    local.close()
    sock = socket.create_connection(endpoint, timeout=10)
    _tune_socket(sock)
    return sock


def _write_frame(sock: socket.socket, frame: list[Any]) -> None:
    """Write one frame, length prefix included: a frame of one buffer
    with one ``sendall``, a longer one by vectored ``sendmsg``, at most
    :data:`_MAX_SEGMENTS` buffers a call, never joined."""
    if len(frame) == 1:
        sock.sendall(frame[0])
        return
    views = [memoryview(b).cast("B") for b in frame if len(b)]
    at = 0
    while at < len(views):
        sent = sock.sendmsg(views[at : at + _MAX_SEGMENTS])
        if sent <= 0:
            raise ConnectionError("peer stopped accepting data")
        while sent:
            if sent >= len(views[at]):
                sent -= len(views[at])
                at += 1
            else:
                views[at] = views[at][sent:]
                sent = 0


class SocketFabric(Fabric):
    """The Fabric whose sends travel over stream sockets.

    One instance per process; ``bind_host``/``bind_port`` choose the
    listening TCP endpoint (port 0 lets the OS pick), which also names
    the local stream co-located peers connect to.  Ports opened here
    behave exactly like in-process ports — same :class:`Port` class,
    blocking ``recv`` with kind filtering — and their addresses are
    valid on any peer that can reach this endpoint.
    """

    def __init__(
        self,
        name: str = "socket-fabric",
        bind_host: str = "127.0.0.1",
        bind_port: int = 0,
    ) -> None:
        super().__init__(name)
        #: One outgoing connection per peer endpoint, with the lock
        #: that keeps its frames whole.
        self._links: dict[tuple[str, int], tuple[socket.socket, threading.Lock]] = {}
        #: Local-stream links that may offer pulls: the frame size
        #: above which they do (the link's ``SO_SNDBUF``) and the pid
        #: that connected them (a forked child must not offer on a
        #: link whose peer reads its parent).
        self._pull_above: dict[socket.socket, tuple[int, int]] = {}
        #: Incoming frames refused by the receive path (zero-length or
        #: above :data:`_MAX_FRAME`); also reported to meters under the
        #: synthetic :data:`DROP_ADDRESS` with kind ``"drop"``.
        self.dropped_frames = 0
        #: Incoming frames pulled from a co-located sender's memory.
        self.pulled_frames = 0
        self._closed = False
        self._server = socket.create_server(
            (bind_host, bind_port), reuse_port=False
        )
        self.host, self.tcp_port = self._server.getsockname()[:2]
        self.governor = ServerGovernor(name)
        self._listeners = [self._server, *_listen_local(self._server)]
        self._loop = _ServerLoop(self, self._listeners, self.governor, name)
        self.governor.attach_loop(self._loop)

    def stats(self) -> dict[str, Any]:
        return {"dropped_frames": self.dropped_frames, "pulled_frames": self.pulled_frames}

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
        kind: str = KIND_DATA,
    ) -> None:
        nbytes = check_payload(payload)
        if (dest.host, dest.tcp_port) != (self.host, self.tcp_port):
            bare = _bare(src, dest, kind)
            self._send_framed(src, dest, kind, bare.skip, bare.frame(payload, b""))
            return
        for meter in self._meters:
            meter(src, dest, kind, nbytes)
        self._deliver_local(dest.port_id, src, kind, flatten_payload(payload))

    def route(self, src: Any, dest: Any, kind: str = KIND_DATA) -> Route:
        """The hop from ``src`` to ``dest`` for frames of ``kind``: to a
        port of this fabric no envelope, each frame delivered by
        :meth:`send`; to another fabric the envelope, and a ``send``
        that meters the frame and writes it to the peer's link."""
        if (dest.host, dest.tcp_port) == (self.host, self.tcp_port):
            return super().route(src, dest, kind)
        lead, rest = envelope = _envelope(src, dest, kind)
        skip = _LENGTH.size + len(lead) + 4 + len(rest)
        return Route(dest, envelope, partial(self._send_framed, src, dest, kind, skip))

    # -- wiring ------------------------------------------------------------

    @staticmethod
    def _encode_frame(
        src: SocketPortAddress,
        dest: SocketPortAddress,
        kind: str,
        payload: Any,
        nbytes: int,
    ) -> list[Any]:
        """The frame :meth:`send` writes for ``payload`` (``nbytes``
        octets), behind its length prefix, as a buffer list: the
        envelope, then the payload's buffers by reference — what a pull
        offers and :meth:`_decode_frame` reads."""
        envelope = _bare(src, dest, kind).head(nbytes)[_LENGTH.size :]
        if isinstance(payload, (list, tuple)):
            return [envelope, *payload]
        return [envelope, payload]

    @staticmethod
    def _decode_frame(
        frame: memoryview,
    ) -> tuple[int, Any, str, Any]:
        """Inverse of :meth:`_encode_frame`: destination port id,
        source address, kind, payload — the payload a view of
        ``frame``, writable by the owned-stream rule
        (:func:`~repro.cdr.head.octet_run`); a frame longer than its
        envelope says is as malformed as a shorter one."""
        fields, (src, kind), end = _ENVELOPE.decode(frame)
        _flag, dest_port_id, nbytes = fields[:3]
        return (
            dest_port_id,
            src,
            kind,
            octet_run(frame, end, nbytes, last=True),
        )

    def _deliver_local(
        self,
        dest_port_id: int,
        src: SocketPortAddress,
        kind: str,
        payload: Any,
        head: Any = None,
    ) -> None:
        port = self._ports.get(dest_port_id)
        if port is None:
            raise TransportError(
                f"no port {dest_port_id} at {self.host}:{self.tcp_port}"
            )
        port._deposit(_Delivery(src, kind, payload, head))

    def _send_framed(
        self,
        src: SocketPortAddress,
        dest: SocketPortAddress,
        kind: str,
        skip: int,
        frame: list[Any],
    ) -> None:
        """A remote route's ``send``: meter the frame (its message's
        octets, behind the ``skip`` of length prefix and envelope) and
        write it to the peer's link, connecting first if need be."""
        for meter in self._meters:
            meter(src, dest, kind, sum(map(len, frame)) - skip)
        endpoint = (dest.host, dest.tcp_port)
        link = self._links.get(endpoint)
        if link is None:
            # Connect outside the fabric lock — a slow or unreachable
            # peer must not stall every other sender on this fabric.
            try:
                fresh = _connect(endpoint)
            except OSError as exc:
                raise TransportError(
                    f"cannot reach {endpoint[0]}:{endpoint[1]}: {exc}"
                ) from None
            with self._lock:
                if not self._closed:  # a closed fabric keeps no link
                    link = self._links.setdefault(
                        endpoint, (fresh, threading.Lock())
                    )
                    if link[0] is fresh and fresh.family == socket.AF_UNIX:
                        sndbuf = fresh.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF)
                        self._pull_above[fresh] = (sndbuf, os.getpid())
            if link is None or link[0] is not fresh:
                fresh.close()  # closed, or lost the insertion race
        if link is None:
            raise TransportError("fabric is closed")
        sock, conn_lock = link
        with conn_lock:
            try:
                if len(frame) == 1 or not self._pulled(sock, frame):
                    _write_frame(sock, frame)
            except OSError as exc:
                # Close the broken socket now; forget it only if no
                # other thread has already replaced it.
                sock.close()
                with self._lock:
                    self._pull_above.pop(sock, None)
                    if self._links.get(endpoint) is link:
                        del self._links[endpoint]
                raise TransportError(
                    f"send to {endpoint[0]}:{endpoint[1]} failed: {exc}"
                ) from None

    def _pulled(self, sock: socket.socket, buffers: list[Any]) -> bool:
        """Offer a frame too large for the link's send buffer to be
        pulled, and wait for the answer (under the link's timeout):
        ``True`` once the peer has copied it out of our memory,
        ``False`` to stream it — a small frame, a link that may not
        offer, or a refusal, after which the link streams for good."""
        limit, pid = self._pull_above.get(sock, (_MAX_FRAME, -1))
        total = sum(map(len, buffers)) - _LENGTH.size
        if total <= limit or pid != os.getpid():
            return False
        pins = [_pin(buf) for buf in buffers if len(buf)]
        if None in pins or len(pins) > _MAX_SEGMENTS:
            return False
        # What is offered starts behind the length prefix.
        address, n, hold = pins[0]
        pins[0] = (address + _LENGTH.size, n - _LENGTH.size, hold)
        iov = struct.pack(f"{2 * len(pins)}Q", *(n for pin in pins for n in pin[:2]))
        sock.sendall(struct.pack(">II", _PULL_FLAG | total, len(pins)) + iov)
        answer = sock.recv(1)  # the pins hold the buffers in place until now
        if answer == b"\x00":
            self._pull_above.pop(sock, None)
        elif answer != b"\x01":
            raise ConnectionError("peer closed the link during a pull")
        return answer == b"\x01"

    def _record_drop(self, length: int) -> None:
        with self._lock:
            self.dropped_frames += 1
        for meter in self._meters:
            meter(DROP_ADDRESS, DROP_ADDRESS, "drop", length)

    def close(self) -> None:
        """Stop the event loop, close all connections and local ports."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            links = list(self._links.values())
            self._links.clear()
        self._loop.close()
        self._loop.join()
        for sock in self._listeners:
            sock.close()
        for sock, _lock in links:
            sock.close()
        super().close()

    def __enter__(self) -> "SocketFabric":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


# ---------------------------------------------------------------------------
# The server event loop
# ---------------------------------------------------------------------------


@dataclass(eq=False, slots=True)
class _ServerConnection:
    """Per-connection receive state for the event loop: the framing
    state machine (header → body → header, with a drain detour for
    refused frames and an offer detour, header → count → iov, for
    pulled ones) plus the client identities seen on this connection."""

    sock: socket.socket
    #: Every frame's 4-byte length prefix lands here, and so does an
    #: offer's segment count.
    header: bytearray = field(default_factory=lambda: bytearray(_LENGTH.size))
    phase: str = "header"
    have: int = 0
    #: The frame being received: a view of the buffer allocated for it
    #: alone, which its receiver will own — or an offer's ``iovec``s.
    view: memoryview | None = None
    #: The frame size an open offer declared.
    offered: int = 0
    #: Who may be pulled from: the peer's pid as ``SO_PEERCRED``
    #: reported it at accept (a local stream of our own uid only), and
    #: a pidfd on that process, opened then, that says if it exited.
    pid: int | None = None
    pidfd: int | None = None
    drain_left: int = 0
    scratch: memoryview | None = None
    #: Client identities (request id high bits) whose requests arrived
    #: here — the unit backpressure pauses.
    identities: set[int] = field(default_factory=set)
    #: How many of those identities are currently paused; the socket
    #: leaves the selector while this is non-zero.
    pause_depth: int = 0

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass
        if self.pidfd is not None:
            os.close(self.pidfd)
            self.pidfd = None


class _ServerLoop:
    """One thread, every client socket: the fan-in receive path.

    Replaces the thread-per-connection reader model: a ``selectors``
    loop owns the listening sockets (TCP and, where there is one, the
    local stream) and all accepted connections from either,
    running the same framing state machine the blocking readers ran —
    each frame read into a buffer of its own that the payload view
    hands to the receiver, drop accounting for refused frames — but
    across any number of sockets.  Request frames are peeked
    (:func:`repro.orb.request.peek_request`) so the sockets a client
    identity sends on are known when the
    :class:`~repro.orb.server.ServerGovernor` pauses it.

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
        listeners: list[socket.socket],
        governor: ServerGovernor,
        name: str,
    ) -> None:
        self._fabric = fabric
        self._governor = governor
        self._selector = selectors.DefaultSelector()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._commands: deque[tuple[str, Any]] = deque()
        self._conns: set[_ServerConnection] = set()
        self._by_identity: dict[int, set[_ServerConnection]] = {}
        self._closed = False
        for listener in listeners:
            listener.setblocking(False)
            self._selector.register(
                listener, selectors.EVENT_READ, ("accept", listener)
            )
        self._selector.register(
            self._wake_r, selectors.EVENT_READ, ("wake", None)
        )
        self._thread = threading.Thread(
            target=self._run, name=f"{name}-loop", daemon=True
        )
        self._thread.start()

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
        which the request intake runs as the loop delivers)."""
        for conn in self._by_identity.get(identity, ()):
            self._pause(conn)

    def _pause(self, conn: _ServerConnection) -> None:
        """One more pause on ``conn``; the first takes its socket out
        of the selector."""
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
        next_sweep = clock.now() + self._SWEEP_INTERVAL
        while True:
            try:
                events = self._selector.select(
                    timeout=self._SWEEP_INTERVAL
                )
            except OSError:
                break
            for key, _mask in events:
                tag, data = key.data  # a listener, or a connection
                if tag == "accept":
                    self._accept(data)
                elif tag == "wake":
                    self._drain_wake()
                else:
                    self._service(data)
            if self._commands:
                self._run_commands()
            if self._closed:
                break
            now = clock.now()
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

    def _accept(self, listener: socket.socket) -> None:
        """Take what either listener accepted: one connection count,
        one framing state machine, whatever the stream family."""
        while True:
            try:
                sock, _peer = listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return  # server socket closed
            self._governor.on_connection()
            _tune_socket(sock)
            sock.setblocking(False)
            conn = _ServerConnection(sock)
            if sock.family == socket.AF_UNIX:
                self._note_peer(conn)
            self._conns.add(conn)
            self._selector.register(
                sock, selectors.EVENT_READ, ("conn", conn)
            )

    def _note_peer(self, conn: _ServerConnection) -> None:
        """Record whom a local stream's offers may be pulled from: the
        process the kernel says connected, if it runs under our uid."""
        try:
            creds = conn.sock.getsockopt(socket.SOL_SOCKET, socket.SO_PEERCRED, 12)
            pid, uid, _gid = struct.unpack("3i", creds)
            if uid == os.getuid():
                conn.pid = pid
                conn.pidfd = os.pidfd_open(pid)
        except (AttributeError, OSError):
            pass  # a peer we cannot watch: its offers are refused

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
            if conn.phase in ("header", "count"):
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
            conn.have = 0
            if conn.phase == "header":
                (length,) = _LENGTH.unpack(conn.header)
                if length & _PULL_FLAG:
                    conn.offered, conn.phase = length ^ _PULL_FLAG, "count"
                    continue
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
            if conn.phase == "count":
                (count,) = _LENGTH.unpack(conn.header)
                if not 0 < count <= _MAX_SEGMENTS:
                    self._lose_offer(conn)
                    return
                conn.view, conn.phase = memoryview(bytearray(16 * count)), "iov"
                continue
            phase = conn.phase
            conn.phase, conn.view = "header", None
            if phase == "iov" and (target := self._pull(conn, target)) is None:
                if conn not in self._conns:
                    return
                continue  # refused: the sender streams it next
            # Body complete: the frame, and the buffer it landed in,
            # go to its receiver; the loop keeps no reference.
            frames += 1
            try:
                self._deliver(conn, target)
            except (MarshalError, TransportError):
                # Drop garbage, keep the connection — but count it so
                # ``orb.stats()`` surfaces silent frame loss.
                self._fabric._record_drop(len(target))
            del target
            if conn.pause_depth > 0:
                # The frame we just delivered paused this connection;
                # stop reading immediately, not at the budget.
                return

    def _pull(self, conn: _ServerConnection, iov: memoryview) -> memoryview | None:
        """Land an offered frame in a buffer of its own by one
        ``process_vm_readv`` from the peer's kernel-reported pid, and
        answer the offer.  ``None`` if the kernel refused (answered
        ``0``: the sender streams the frame next), or if the offer was
        forged or the pull failed (the connection is closed)."""
        ours = conn.pid is not None and 0 < conn.offered <= _MAX_FRAME
        if not ours or sum(iov.cast("Q")[1::2]) != conn.offered:
            self._lose_offer(conn)  # not ours to pull, too big, or inconsistent
            return None
        frame = memoryview(np.empty(conn.offered, np.uint8))
        into = (ctypes.c_size_t * 2)(ctypes.addressof(ctypes.c_char.from_buffer(frame)), len(frame))
        got = -1 if conn.pidfd is None else _process_vm_readv(
            conn.pid, into, 1, ctypes.byref(ctypes.c_char.from_buffer(iov)), len(iov) // 16, 0
        )
        if got < 0 and (conn.pidfd is None or ctypes.get_errno() in _REFUSALS):
            if self._answer(conn, b"\x00"):
                return None
        elif got == len(frame) and not _exited(conn.pidfd) and self._answer(conn, b"\x01"):
            copied(got)
            self._fabric.pulled_frames += 1
            return frame
        # The peer died, or offered memory it does not have.
        self._lose_offer(conn)
        return None

    def _answer(self, conn: _ServerConnection, verdict: bytes) -> bool:
        """Tell the sender what became of its offer.  Only a sender
        still waiting can take it, so a pull answered is one made while
        the offered memory was still the sender's to offer."""
        try:
            return conn.sock.send(verdict) == 1
        except OSError:
            return False

    def _lose_offer(self, conn: _ServerConnection) -> None:
        """The offered frame is lost, and so is the connection: a pull
        failed, or the offer is one no sender of this build makes (then
        nothing was copied)."""
        self._fabric._record_drop(conn.offered)
        self._close_conn(conn)

    def _deliver(
        self, conn: _ServerConnection, frame: memoryview
    ) -> None:
        """Decode the frame envelope and route it; a request frame's
        head is peeked first, so its client identity is tied to this
        connection before the request intake counts it."""
        fabric = self._fabric
        # The frame's buffer was allocated for it alone, and the loop
        # drops it on delivery: its payload is delivered writable,
        # which tells the receiver it owns the memory.
        dest_port_id, src, kind, payload = fabric._decode_frame(frame)
        routing = None
        if kind == KIND_REQUEST:
            routing = wire.peek_request(payload)
            if routing is not None:
                identity = routing.request_id >> 32  # the client identity
                if identity not in conn.identities:
                    self._note_identity(conn, identity)
        # The peeked head rides along: a receiver that decodes on this
        # thread starts there, and the request intake counts only a
        # frame that carries one.
        fabric._deliver_local(dest_port_id, src, kind, payload, routing)

    def _note_identity(
        self, conn: _ServerConnection, identity: int
    ) -> None:
        conn.identities.add(identity)
        self._by_identity.setdefault(identity, set()).add(conn)
        if self._governor.is_paused(identity):
            # A paused identity opened another connection: it starts
            # paused too, so backpressure cannot be dodged by
            # reconnecting.
            self._pause(conn)

    def _sweep_paused(self) -> None:
        """Paused sockets are out of the selector, so a client that
        disconnects mid-backpressure would otherwise hold its
        queue slots forever; probe them for EOF."""
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
        conn.close()
        orphaned = []
        for identity in conn.identities:
            peers = self._by_identity.get(identity)
            if peers is None:
                continue
            peers.discard(conn)
            if not peers:
                del self._by_identity[identity]
                orphaned.append(identity)
        self._governor.on_disconnect(orphaned)

    def _teardown(self) -> None:
        for conn in list(self._conns):
            self._conns.discard(conn)
            conn.close()
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
