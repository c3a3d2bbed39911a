"""The local stream: co-located :class:`SocketFabric` peers talk over
an abstract-namespace ``AF_UNIX`` stream, TCP everywhere else.

Pins the choice (two fabrics in one process connect over ``AF_UNIX``;
a name held under another uid, or no local listener at all, falls back
to TCP), the name's lifetime (refused after ``close()`` and after the
owning process is killed) and the send-failure path on both families
(the broken socket is closed and forgotten, the next send reconnects).

Then the pull: a frame larger than a local link's send buffer is
offered, not streamed, and the receiver copies it out of the sender's
memory with one ``process_vm_readv``.  Pinned here: the threshold, the
landing, the fallback when the kernel refuses, a sender that dies
mid-offer, the trust rules (our uid, the kernel-reported pid, a live
pidfd, the bounds) and two real processes.
"""

import ctypes
import errno
import os
import signal
import socket
import struct
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.orb import socketnet
from repro.orb.socketnet import (
    _MAX_FRAME,
    _MAX_SEGMENTS,
    _PULL_FLAG,
    SocketFabric,
    SocketPortAddress,
    _local_name,
)
from repro.orb.transport import KIND_DATA, TransportError

FAMILIES = {"local": socket.AF_UNIX, "tcp": socket.AF_INET}


def _link_family(fabric, peer):
    """The family of ``fabric``'s cached connection to ``peer``."""
    sock, _lock = fabric._links[(peer.host, peer.tcp_port)]
    return sock.family


def _child(script, *args):
    """A spawned interpreter running ``script`` on this checkout."""
    return subprocess.Popen(
        [sys.executable, "-c", script, *map(str, args)],
        stdout=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )


def _refused(name):
    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        probe.connect(name)
    except ConnectionRefusedError:
        return True
    finally:
        probe.close()
    return False


@pytest.fixture(params=sorted(FAMILIES))
def family(request, monkeypatch):
    """Each stream family in turn: ``tcp`` takes the local listener
    away from every fabric the test builds."""
    if request.param == "tcp":
        monkeypatch.setattr(socketnet, "_listen_local", lambda server: [])
    return FAMILIES[request.param]


def test_two_fabrics_in_one_process_connect_over_af_unix():
    with SocketFabric("near") as near, SocketFabric("far") as far:
        sender, receiver = near.open_port("s"), far.open_port("r")
        sender.send(receiver.address, b"local" * 1024, KIND_DATA)
        src, kind, payload = receiver.recv(timeout=5)
        assert bytes(payload) == b"local" * 1024
        assert (kind, src) == (KIND_DATA, sender.address)
        assert not memoryview(payload).readonly  # a frame buffer of its own
        assert _link_family(near, far) == socket.AF_UNIX
        # The address the frame carried is still the TCP endpoint.
        assert (src.host, src.tcp_port) == (near.host, near.tcp_port)


def test_the_local_name_is_derived_from_the_tcp_endpoint():
    with SocketFabric("named") as fabric:
        assert _local_name((fabric.host, fabric.tcp_port)) == (
            b"\0pardis-fabric/%s:%d" % (fabric.host.encode(), fabric.tcp_port)
        )
        assert not _refused(_local_name((fabric.host, fabric.tcp_port)))


def test_a_name_held_under_another_uid_is_refused(monkeypatch):
    """``SO_PEERCRED`` names the listener's uid; one that is not ours
    means somebody else holds the name, and the send goes over TCP."""
    real = os.getuid()
    monkeypatch.setattr(socketnet.os, "getuid", lambda: real + 1)
    with SocketFabric("near") as near, SocketFabric("far") as far:
        sender, receiver = near.open_port("s"), far.open_port("r")
        sender.send(receiver.address, b"over tcp", KIND_DATA)
        assert bytes(receiver.recv(timeout=5)[2]) == b"over tcp"
        assert _link_family(near, far) == socket.AF_INET


def test_after_close_the_name_is_refused():
    fabric = SocketFabric("closing")
    name = _local_name((fabric.host, fabric.tcp_port))
    assert not _refused(name)
    fabric.close()
    assert _refused(name)


def test_after_sigkill_the_name_is_refused():
    """The kernel releases an abstract name with its last descriptor:
    nothing to unlink, even when the owner dies without ``close()``."""
    child = subprocess.Popen(
        [
            sys.executable, "-c",
            "import sys, time\n"
            "from repro.orb.socketnet import SocketFabric\n"
            "fabric = SocketFabric('doomed')\n"
            "print(fabric.host, fabric.tcp_port, flush=True)\n"
            "time.sleep(60)\n",
        ],
        stdout=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    try:
        host, port = child.stdout.readline().split()
        name = _local_name((host, int(port)))
        assert not _refused(name)
        child.send_signal(signal.SIGKILL)
        child.wait(timeout=10)
    finally:
        child.kill()
        child.stdout.close()
        child.wait(timeout=10)
    assert _refused(name)


def test_a_failed_send_closes_its_socket_and_the_next_one_reconnects(family):
    with SocketFabric("near") as near, SocketFabric("far") as far:
        sender, receiver = near.open_port("s"), far.open_port("r")
        endpoint = (far.host, far.tcp_port)
        sender.send(receiver.address, b"first", KIND_DATA)
        assert bytes(receiver.recv(timeout=5)[2]) == b"first"
        old, _lock = near._links[endpoint]
        assert old.family == family
        far.close()
        # TCP may take one write into the void before the peer's
        # reset arrives; the local stream fails on the first.
        with pytest.raises(TransportError, match="failed"):
            for _ in range(200):
                sender.send(receiver.address, b"lost", KIND_DATA)
                time.sleep(0.01)
        assert old.fileno() == -1
        assert endpoint not in near._links
        with SocketFabric("reborn", bind_port=far.tcp_port) as reborn:
            receiver = reborn.open_port("r")
            sender.send(receiver.address, b"again", KIND_DATA)
            assert bytes(receiver.recv(timeout=5)[2]) == b"again"
            fresh, _lock = near._links[endpoint]
            assert fresh is not old and fresh.family == family


def test_a_closed_fabric_opens_no_connection(family):
    """A send racing ``close()`` — a servant's late reply — gets an
    error, and no socket outlives the fabric."""
    with SocketFabric("far") as far:
        near = SocketFabric("near")
        sender, receiver = near.open_port("s"), far.open_port("r")
        near.close()
        with pytest.raises(TransportError, match="closed"):
            sender.send(receiver.address, b"late", KIND_DATA)
        assert near._links == {}


def test_a_failed_send_keeps_a_link_another_thread_put_in_its_place(
    monkeypatch,
):
    """The broken socket's entry goes only if it is still that socket:
    a fresh connection registered meanwhile survives."""
    with SocketFabric("near") as near, SocketFabric("far") as far:
        sender, receiver = near.open_port("s"), far.open_port("r")
        endpoint = (far.host, far.tcp_port)
        sender.send(receiver.address, b"first", KIND_DATA)
        old, _lock = near._links[endpoint]
        fresh = (socketnet._connect(endpoint), threading.Lock())

        def reconnected_then_failed(sock, *buffers):
            near._links[endpoint] = fresh  # another sender's reconnect
            raise BrokenPipeError("peer went away")

        monkeypatch.setattr(socketnet, "_write_frame", reconnected_then_failed)
        with pytest.raises(TransportError, match="failed"):
            sender.send(receiver.address, b"lost", KIND_DATA)
        assert old.fileno() == -1
        assert near._links[endpoint] is fresh
        monkeypatch.undo()
        sender.send(receiver.address, b"over the fresh link", KIND_DATA)
        got = [bytes(receiver.recv(timeout=5)[2]) for _ in range(2)]
        assert got == [b"first", b"over the fresh link"]


# ---------------------------------------------------------------------------
# Pull offers
# ---------------------------------------------------------------------------


def _sndbuf(fabric, peer):
    sock, _lock = fabric._links[(peer.host, peer.tcp_port)]
    return sock.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF)


def _envelope_size(sender, receiver):
    """What a frame from ``sender`` to ``receiver`` adds to its payload."""
    head, _payload = SocketFabric._encode_frame(
        sender.address, receiver.address, KIND_DATA, b"", 0
    )
    return len(head)


def _offer(total, pairs):
    """A pull offer as docs/protocol.md lays it out: the big-endian
    length prefix with its top bit set and segment count, then one
    host-order ``iovec`` per segment."""
    flat = [n for pair in pairs for n in pair]
    head = struct.pack(">II", _PULL_FLAG | total, len(pairs))
    return head + struct.pack(f"{len(flat)}Q", *flat)


def _open_fds(kind="anon_inode:[pidfd]"):
    """How many of this process's descriptors are ``kind`` (a prefix of
    what ``/proc/self/fd`` links to)."""
    count = 0
    for fd in os.listdir("/proc/self/fd"):
        try:
            count += os.readlink(f"/proc/self/fd/{fd}").startswith(kind)
        except OSError:
            pass  # the directory's own descriptor, gone already
    return count


@pytest.fixture
def pulls(monkeypatch):
    """Every ``process_vm_readv`` the receivers make, by pid, passed
    through to the kernel."""
    seen = []
    real = socketnet._process_vm_readv

    def recorded(pid, *args):
        seen.append(pid)
        return real(pid, *args)

    monkeypatch.setattr(socketnet, "_process_vm_readv", recorded)
    return seen


def _wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.01)


def test_a_frame_above_the_send_buffer_is_pulled_and_one_at_it_streamed(
    pulls,
):
    with SocketFabric("near") as near, SocketFabric("far") as far:
        sender, receiver = near.open_port("s"), far.open_port("r")
        sender.send(receiver.address, b"connect", KIND_DATA)
        receiver.recv(timeout=5)
        limit = _sndbuf(near, far)
        at_limit = limit - _envelope_size(sender, receiver)
        for nbytes, pulled in ((at_limit, 0), (at_limit + 1, 1)):
            payload = bytes([nbytes % 251]) * nbytes
            sender.send(receiver.address, payload, KIND_DATA)
            assert bytes(receiver.recv(timeout=5)[2]) == payload
            assert far.stats()["pulled_frames"] == pulled
        # From the pid the kernel named when the link was accepted.
        assert pulls == [os.getpid()]


def test_a_pulled_frame_lands_writable_aligned_and_byte_identical():
    data = np.random.default_rng(7).random(1 << 20)
    with SocketFabric("near") as near, SocketFabric("far") as far:
        sender, receiver = near.open_port("s"), far.open_port("r")
        # A head, a bytearray, a writable view: every shape a frame's
        # segments come in.
        parts = [b"head", bytearray(b"pad!"), memoryview(data).cast("B")]
        sender.send(receiver.address, parts, KIND_DATA)
        _src, _kind, payload = receiver.recv(timeout=5)
        assert far.stats()["pulled_frames"] == 1
    assert bytes(payload) == b"headpad!" + data.tobytes()
    assert not payload.readonly
    assert ctypes.addressof(ctypes.c_char.from_buffer(payload)) % 8 == 0
    body = np.frombuffer(payload[8:], np.float64)
    np.testing.assert_array_equal(body, data)
    body[:] = -1.0  # the receiver's own memory ...
    assert data[0] != -1.0  # ... not the sender's


def test_a_refused_pull_is_streamed_and_never_offered_again(monkeypatch):
    """Yama, seccomp: the kernel says ``EPERM``, the receiver answers
    ``0``, and the sender streams the frame on the same link — and
    every later frame on it."""
    calls = []

    def refuse(*_args):
        calls.append(1)
        ctypes.set_errno(errno.EPERM)
        return -1

    monkeypatch.setattr(socketnet, "_process_vm_readv", refuse)
    big = np.arange(1 << 17, dtype=np.float64)
    with SocketFabric("near") as near, SocketFabric("far") as far:
        sender, receiver = near.open_port("s"), far.open_port("r")
        links = []
        for scale in (1.0, 2.0, 3.0):
            sender.send(
                receiver.address, memoryview(big * scale).cast("B"), KIND_DATA
            )
            np.testing.assert_array_equal(
                np.frombuffer(receiver.recv(timeout=5)[2]), big * scale
            )
            links.append(near._links[(far.host, far.tcp_port)])
        assert links[0] is links[1] is links[2]
        assert calls == [1]
        assert far.stats() == {"dropped_frames": 0, "pulled_frames": 0}


def test_racing_senders_each_get_their_own_answer():
    """Offers from many threads on one link: the link's lock keeps each
    offer with its answer, so every frame is pulled once and whole."""
    size = 300 * 1024
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with SocketFabric("near") as near, SocketFabric("far") as far:
            receiver = far.open_port("r")
            senders = [near.open_port(f"s{i}") for i in range(6)]

            def blast(port, tag):
                for n in range(5):
                    port.send(receiver.address, bytes([tag, n]) * (size // 2), KIND_DATA)

            threads = [
                threading.Thread(target=blast, args=(port, i))
                for i, port in enumerate(senders)
            ]
            for thread in threads:
                thread.start()
            got = sorted(bytes(receiver.recv(timeout=30)[2]) for _ in range(30))
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert far.stats()["pulled_frames"] == 30
    finally:
        sys.setswitchinterval(interval)
    assert got == sorted(
        bytes([tag, n]) * (size // 2) for tag in range(6) for n in range(5)
    )


def test_a_pull_from_a_sender_that_exited_is_discarded(monkeypatch):
    """The bytes may be a stranger's once the pid is reused: if the
    pidfd says the sender exited, the frame is dropped, not delivered,
    and the connection closed."""
    monkeypatch.setattr(socketnet, "_exited", lambda pidfd: True)
    with SocketFabric("near") as near, SocketFabric("far") as far:
        sender, receiver = near.open_port("s"), far.open_port("r")
        with pytest.raises(TransportError, match="failed"):
            sender.send(receiver.address, bytes(1 << 20), KIND_DATA)
        _wait_for(lambda: far.dropped_frames == 1)
        assert receiver.pending() == 0
        assert far.stats()["pulled_frames"] == 0
        monkeypatch.undo()
        sender.send(receiver.address, bytes(1 << 20), KIND_DATA)
        assert len(receiver.recv(timeout=5)[2]) == 1 << 20


SENDER = """
import sys
import numpy as np
from repro.orb.socketnet import SocketFabric, SocketPortAddress
from repro.orb.transport import KIND_DATA
host, tcp_port, port_id = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
with SocketFabric("doomed") as fabric:
    fabric.open_port("s").send(
        SocketPortAddress(host, tcp_port, port_id, "r"),
        memoryview(np.ones(1 << 20)).cast("B"),
        KIND_DATA,
    )
"""


def test_a_sender_killed_mid_offer_costs_its_frame_not_the_loop(
    monkeypatch,
):
    offered, killed = threading.Event(), threading.Event()
    real = socketnet._process_vm_readv
    pids = []

    def late(pid, *args):
        pids.append(pid)
        offered.set()
        killed.wait(30)
        return real(pid, *args)

    monkeypatch.setattr(socketnet, "_process_vm_readv", late)
    before = _open_fds()
    with SocketFabric("far") as far:
        receiver = far.open_port("r")
        child = _child(SENDER, far.host, far.tcp_port, receiver.address.port_id)
        try:
            assert offered.wait(60)
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=10)
        finally:
            killed.set()
            child.kill()
            child.stdout.close()
            child.wait(timeout=10)
        _wait_for(lambda: far.dropped_frames == 1)
        assert pids == [child.pid]
        assert receiver.pending() == 0
        assert far.stats()["pulled_frames"] == 0
        _wait_for(lambda: _open_fds() == before)  # closed with its connection
        # The loop lives on.
        with SocketFabric("near") as near:
            near.open_port("s").send(receiver.address, b"alive", KIND_DATA)
            assert bytes(receiver.recv(timeout=5)[2]) == b"alive"


class TestForgedOffers:
    """An offer that no sender of this build makes closes its
    connection before anything is copied."""

    @staticmethod
    def _refused(fabric, raw, offer, pulls):
        raw.sendall(offer)
        raw.settimeout(5)
        try:
            assert raw.recv(1) == b""
        except ConnectionResetError:
            pass
        _wait_for(lambda: fabric.dropped_frames == 1)
        assert pulls == []
        assert fabric.stats()["pulled_frames"] == 0

    @staticmethod
    def _local(fabric):
        raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        raw.connect(_local_name((fabric.host, fabric.tcp_port)))
        return raw

    def test_a_well_formed_offer_is_pulled(self, pulls):
        """The control: the same raw socket, an honest offer."""
        with SocketFabric("far") as far:
            receiver = far.open_port("r")
            src = SocketPortAddress("127.0.0.1", 1, 9, "raw")
            head, payload = SocketFabric._encode_frame(
                src, receiver.address, KIND_DATA, bytes(1 << 20), 1 << 20
            )
            pairs = [
                (ctypes.cast(part, ctypes.c_void_p).value, len(part))
                for part in (head, payload)
            ]
            with self._local(far) as raw:
                raw.sendall(_offer(len(head) + len(payload), pairs))
                raw.settimeout(5)
                assert raw.recv(1) == b"\x01"
            assert bytes(receiver.recv(timeout=5)[2]) == payload
            assert pulls == [os.getpid()]

    def test_over_tcp(self, pulls, monkeypatch):
        """Only the local listener's connections are pulled from, even
        for a uid test the credentials of a TCP socket (pid 0, uid -1)
        would pass."""
        monkeypatch.setattr(socketnet.os, "getuid", lambda: -1)
        with SocketFabric("far") as far, socket.create_connection(
            (far.host, far.tcp_port), timeout=5
        ) as raw:
            self._refused(far, raw, _offer(8, [(0x1000, 8)]), pulls)

    def test_from_another_uid(self, pulls, monkeypatch):
        real = os.getuid()
        with SocketFabric("far") as far:
            monkeypatch.setattr(socketnet.os, "getuid", lambda: real + 1)
            with self._local(far) as raw:
                self._refused(far, raw, _offer(8, [(0x1000, 8)]), pulls)

    def test_segments_that_do_not_sum_to_the_frame(self, pulls):
        with SocketFabric("far") as far, self._local(far) as raw:
            offer = _offer(16, [(0x1000, 8), (0x2000, 4)])
            self._refused(far, raw, offer, pulls)

    def test_more_segments_than_one_call_takes(self, pulls):
        with SocketFabric("far") as far, self._local(far) as raw:
            pairs = [(0x1000, 1)] * (_MAX_SEGMENTS + 1)
            self._refused(far, raw, _offer(len(pairs), pairs), pulls)

    def test_a_frame_above_the_bound(self, pulls):
        with SocketFabric("far") as far, self._local(far) as raw:
            offer = _offer(_MAX_FRAME + 1, [(0x1000, _MAX_FRAME + 1)])
            self._refused(far, raw, offer, pulls)


def test_a_short_pull_is_dropped_with_its_connection(pulls):
    """Offered memory the sender does not have: the kernel copies the
    segments before the hole and stops.  Only an exact-length read is
    a frame."""
    with SocketFabric("far") as far:
        receiver = far.open_port("r")
        src = SocketPortAddress("127.0.0.1", 1, 9, "raw")
        head, _payload = SocketFabric._encode_frame(
            src, receiver.address, KIND_DATA, b"", 1 << 16
        )
        pairs = [(ctypes.cast(head, ctypes.c_void_p).value, len(head)), (8, 1 << 16)]
        with TestForgedOffers._local(far) as raw:
            raw.sendall(_offer(len(head) + (1 << 16), pairs))
            raw.settimeout(5)
            assert raw.recv(1) == b""
        _wait_for(lambda: far.dropped_frames == 1)
        assert pulls == [os.getpid()]
        assert receiver.pending() == 0 and far.stats()["pulled_frames"] == 0


ECHO = """
from repro.orb.socketnet import SocketFabric
from repro.orb.transport import KIND_DATA
with SocketFabric("child") as fabric:
    port = fabric.open_port("echo")
    print(fabric.host, fabric.tcp_port, port.address.port_id, flush=True)
    src, _kind, payload = port.recv(timeout=60)
    port.send(src, payload, KIND_DATA)
    print(fabric.stats()["pulled_frames"], flush=True)
"""


def _ptrace_scope():
    """Yama's ``ptrace_scope``: 0 lets a process read any other of its
    uid, 1 only its descendants, 2 and 3 none but itself."""
    try:
        with open("/proc/sys/kernel/yama/ptrace_scope") as scope:
            return int(scope.read())
    except OSError:
        return 0  # no Yama


def test_an_echo_between_two_processes_is_pulled_both_ways(pulls):
    """Byte-identical both ways, pulled wherever Yama lets the reader
    in and streamed after a refusal where it does not."""
    data = np.random.default_rng(11).random(1 << 20)  # 8 MiB
    before = _open_fds()
    with SocketFabric("parent") as fabric:
        port = fabric.open_port("r")
        child = _child(ECHO)
        try:
            host, tcp_port, port_id = child.stdout.readline().split()
            echo = SocketPortAddress(host, int(tcp_port), int(port_id), "echo")
            port.send(echo, memoryview(data).cast("B"), KIND_DATA)
            _src, _kind, payload = port.recv(timeout=60)
            child_pulls = int(child.stdout.readline())
            assert child.wait(timeout=30) == 0
        finally:
            child.kill()
            child.stdout.close()
            child.wait(timeout=10)
        np.testing.assert_array_equal(np.frombuffer(payload), data)
        scope = _ptrace_scope()
        assert child_pulls == (scope == 0)  # the child reads its parent
        assert fabric.stats()["pulled_frames"] == (scope <= 1)  # and back
        assert pulls == [child.pid]
    assert _open_fds() == before


def test_no_pidfd_or_socket_outlives_the_fabric():
    before = _open_fds(), _open_fds("socket:")
    near, far = SocketFabric("near"), SocketFabric("far")
    sender, receiver = near.open_port("s"), far.open_port("r")
    sender.send(receiver.address, bytes(1 << 20), KIND_DATA)
    receiver.recv(timeout=5)
    assert far.stats()["pulled_frames"] == 1
    assert _open_fds() == before[0] + 1  # the accepted link's
    near.close()
    far.close()
    assert (_open_fds(), _open_fds("socket:")) == before
