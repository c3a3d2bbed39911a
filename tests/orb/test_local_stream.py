"""The local stream: co-located :class:`SocketFabric` peers talk over
an abstract-namespace ``AF_UNIX`` stream, TCP everywhere else.

Pins the choice (two fabrics in one process connect over ``AF_UNIX``;
a name held under another uid, or no local listener at all, falls back
to TCP), the name's lifetime (refused after ``close()`` and after the
owning process is killed) and the send-failure path on both families
(the broken socket is closed and forgotten, the next send reconnects).
"""

import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.orb import socketnet
from repro.orb.socketnet import SocketFabric, _local_name
from repro.orb.transport import KIND_DATA, TransportError

FAMILIES = {"local": socket.AF_UNIX, "tcp": socket.AF_INET}


def _link_family(fabric, peer):
    """The family of ``fabric``'s cached connection to ``peer``."""
    sock, _lock = fabric._links[(peer.host, peer.tcp_port)]
    return sock.family


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
