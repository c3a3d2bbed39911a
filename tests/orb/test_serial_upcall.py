"""A serial group's request path under upcall delivery (ISSUE 15).

The request port of a serial (one-thread) object hands each frame to
the dispatch pool on the thread that delivers it — a socket fabric's
event loop, or the sender itself in-process — with no prefetch thread
in between.  What the prefetcher used to guarantee must still hold:
per-client FIFO, every admission slot released exactly once whatever
becomes of the frame, ``kill()`` visible to senders, shutdown draining
what is queued; and it must hold on every fabric.
"""

import contextlib
import threading
import time

import pytest

from repro import ORB, compile_idl
from repro.ft.faults import FaultSchedule, FaultyFabric
from repro.orb import adapter
from repro.orb import request as wire
from repro.orb.naming import NamingService
from repro.orb.request import RequestMessage
from repro.orb.socketnet import SocketFabric
from repro.orb.transport import (
    KIND_REPLY,
    KIND_REQUEST,
    Fabric,
    TransportError,
)

from tests.orb.test_server_fanin import _wait_for

IDL = """
interface ledger {
    long post(in long x);
    long held(in long x);
    oneway void note(in long x);
};
"""


@pytest.fixture(scope="module")
def idl():
    return compile_idl(IDL, module_name="serial_upcall_idl")


class _Book:
    """What the servant saw: arguments in execution order, and the
    thread each ran on."""

    def __init__(self):
        self.posted = []
        self.threads = set()
        self.gate = threading.Event()


def _factory(idl, book):
    class Ledger(idl.ledger_skel):
        def post(self, x):
            book.threads.add(threading.current_thread().name)
            book.posted.append(int(x))
            return int(x)

        def held(self, x):
            book.gate.wait(timeout=20)
            book.posted.append(int(x))
            return int(x)

        def note(self, x):
            book.gate.wait(timeout=20)
            book.posted.append(int(x))

    return lambda ctx: Ledger()


def _thread_names():
    return [t.name for t in threading.enumerate()]


def _frame(idl, operation, request_id, value, reply_port, oneway=False):
    """One request frame for ``ledger``, flattened."""
    codec = idl.ledger._operations[operation].request[True]
    message = RequestMessage(
        request_id=request_id,
        object_key="ledger",
        operation=operation,
        oneway=oneway,
        reply_port=None if oneway else reply_port,
        body=codec.encode([value]),
    )
    return message.encode()


def _spy_decode_threads(monkeypatch):
    """Which thread runs the request decode (the upcall's first step)."""
    seen = []
    decode = wire.decode_request

    def spy(data, head=None):
        seen.append(threading.current_thread().name)
        return decode(data, head)

    monkeypatch.setattr(wire, "decode_request", spy)
    return seen


# ---------------------------------------------------------------------------
# Thread shape
# ---------------------------------------------------------------------------


def _threads_added_by(action):
    before = set(threading.enumerate())
    action()
    return sorted(t.name for t in set(threading.enumerate()) - before)


def test_serial_group_has_no_prefetch_thread(idl):
    """A group owns its rank threads and nothing else — nothing
    receives, relays or sends for it on a thread of its own, and a
    serial one starts no dispatch thread before clients overlap."""
    with ORB("shape", timeout=10.0) as orb:
        assert _threads_added_by(
            lambda: orb.serve("ledger", _factory(idl, _Book()), nthreads=1)
        ) == ["server:ledger-0"]
        assert _threads_added_by(
            lambda: orb.serve("quad", _factory(idl, _Book()), nthreads=4)
        ) == [f"server:quad-{rank}" for rank in range(4)]
        # Serving requests starts none either.
        runtime = orb.client_runtime(label="census")
        before = set(threading.enumerate())
        for name in ("ledger", "quad"):
            proxy = idl.ledger._bind(name, runtime)
            assert [proxy.post(i) for i in range(3)] == [0, 1, 2]
        assert set(threading.enumerate()) == before
        assert not [
            n for n in _thread_names()
            if n.endswith(":prefetch") or n.endswith(":reply")
        ]
        runtime.close()


def test_pool_of_one_is_strictly_serial_and_still_a_pool(idl, monkeypatch):
    monkeypatch.setattr(adapter, "DISPATCH_THREADS", 1)
    book = _Book()
    with ORB("one", timeout=10.0) as orb:
        orb.serve("ledger", _factory(idl, book), nthreads=1)
        runtime = orb.client_runtime(label="one")
        proxy = idl.ledger._bind("ledger", runtime)
        futures = [proxy.post_nb(i) for i in range(20)]
        assert [f.value(timeout=10) for f in futures] == list(range(20))
        assert book.posted == list(range(20))
        # Servant code ran on the group's rank thread, not on the
        # caller's.
        assert book.threads == {"server:ledger-0"}
        runtime.close()


@contextlib.contextmanager
def _server_and_client(fabric):
    """(server ORB, client ORB): one ORB on the in-process fabric, or
    a server and a client on a :class:`SocketFabric` each."""
    if fabric == "inproc":
        with ORB("shape", timeout=20.0) as orb:
            yield orb, orb
        return
    naming = NamingService()
    with SocketFabric("shape-server") as sf, \
            SocketFabric("shape-client") as cf:
        server = ORB("s", fabric=sf, naming=naming, timeout=20.0)
        client = ORB("c", fabric=cf, naming=naming, timeout=20.0)
        with server, client:
            yield server, client


def _dispatch_threads():
    return [n for n in _thread_names() if n.startswith("server:ledger:")]


@pytest.mark.parametrize("fabric", ["inproc", "socket"])
def test_one_client_runs_only_on_the_rank_thread(idl, fabric):
    """Blocking or pipelined, one client's requests are served on the
    object's rank thread, and no other thread is started for them."""
    book = _Book()
    with _server_and_client(fabric) as (server, client):
        server.serve("ledger", _factory(idl, book), nthreads=1)
        runtime = client.client_runtime(label="one", pipeline_depth=8)
        proxy = idl.ledger._bind("ledger", runtime)
        assert [proxy.post(i) for i in range(20)] == list(range(20))
        futures = [proxy.post_nb(i) for i in range(20, 100)]
        assert [f.value(timeout=10) for f in futures] == list(range(20, 100))
        assert book.threads == {"server:ledger-0"}
        assert _dispatch_threads() == []
        runtime.close()


def _gated(idl, entered, gate):
    class Held(idl.ledger_skel):
        def held(self, x):
            entered.append(threading.current_thread().name)
            gate.wait(timeout=20)
            return int(x)

    return lambda ctx: Held()


@pytest.mark.parametrize("fabric", ["inproc", "socket"])
def test_overlapping_clients_get_at_most_dispatch_threads(idl, fabric):
    """Six clients held in the servant at once: the rank thread and
    three started beside it take one each, the other two wait their
    turn; all six are answered, and no thread outlives shutdown."""
    entered, gate = [], threading.Event()
    with _server_and_client(fabric) as (server, client):
        server.serve("ledger", _gated(idl, entered, gate), nthreads=1)
        runtimes = [client.client_runtime(label=f"c{i}") for i in range(6)]
        try:
            futures = [
                idl.ledger._bind("ledger", runtime).held_nb(i)
                for i, runtime in enumerate(runtimes)
            ]
            assert _wait_for(lambda: len(entered) == adapter.DISPATCH_THREADS)
            time.sleep(0.2)  # the cap holds: no fifth thread comes
            assert sorted(entered) == ["server:ledger-0"] + [
                f"server:ledger:dispatch{i}"
                for i in range(1, adapter.DISPATCH_THREADS)
            ]
        finally:
            gate.set()
        assert [f.value(timeout=20) for f in futures] == list(range(6))
        assert len(entered) == 6
        for runtime in runtimes:
            runtime.close()
    assert not [n for n in _thread_names() if n.startswith("server:ledger")]


@pytest.mark.parametrize("fabric", ["inproc", "socket"])
def test_a_failed_thread_start_still_serves_every_request(
    idl, fabric, monkeypatch
):
    """With no thread to be had, overlapping clients' work stays
    queued for the rank thread, and the delivering thread — an event
    loop on a socket fabric — carries on."""
    start = threading.Thread.start

    def failing_start(thread):
        if ":dispatch" in thread.name:
            raise RuntimeError("can't start new thread")
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", failing_start)
    entered, gate = [], threading.Event()
    with _server_and_client(fabric) as (server, client):
        server.serve("ledger", _gated(idl, entered, gate), nthreads=1)
        runtimes = [client.client_runtime(label=f"c{i}") for i in range(6)]
        try:
            futures = [
                idl.ledger._bind("ledger", runtime).held_nb(i)
                for i, runtime in enumerate(runtimes)
            ]
            assert _wait_for(lambda: len(entered) == 1)
        finally:
            gate.set()
        assert [f.value(timeout=20) for f in futures] == list(range(6))
        assert set(entered) == {"server:ledger-0"}
        assert _dispatch_threads() == []
        for runtime in runtimes:
            runtime.close()


# ---------------------------------------------------------------------------
# The delivering thread runs the upcall
# ---------------------------------------------------------------------------


def test_local_sender_runs_the_upcall_on_its_own_thread(idl, monkeypatch):
    seen = _spy_decode_threads(monkeypatch)
    book = _Book()
    with ORB("local", timeout=10.0) as orb:
        orb.serve("ledger", _factory(idl, book), nthreads=1)
        runtime = orb.client_runtime(label="local")
        proxy = idl.ledger._bind("ledger", runtime)
        me = threading.current_thread().name
        assert proxy.post(1) == 1
        # Inline invocation + in-process fabric: the application
        # thread itself decoded and queued its request...
        assert seen == [me]
        # ...and the object's rank thread, never the sender, ran the
        # servant.
        assert book.threads == {"server:ledger-0"}
        runtime.close()


def test_socket_loop_runs_the_upcall(idl, monkeypatch):
    seen = _spy_decode_threads(monkeypatch)
    book = _Book()
    naming = NamingService()
    with SocketFabric("upcall-server") as sf, SocketFabric("upcall-client") as cf:
        server = ORB("s", fabric=sf, naming=naming, timeout=10.0)
        client = ORB("c", fabric=cf, naming=naming, timeout=10.0)
        with server, client:
            server.serve("ledger", _factory(idl, book), nthreads=1)
            runtime = client.client_runtime(label="remote")
            proxy = idl.ledger._bind("ledger", runtime)
            assert [proxy.post(i) for i in range(5)] == list(range(5))
            assert set(seen) == {"upcall-server-loop"}
            assert book.threads == {"server:ledger-0"}
            runtime.close()


# ---------------------------------------------------------------------------
# Per-client FIFO
# ---------------------------------------------------------------------------


def _fabric_pairs():
    """(label, server fabric factory, client fabric factory): the
    client is the server's fabric itself where ``None``."""
    return [
        ("inproc", lambda: Fabric("inproc"), None),
        (
            "faulty-inproc",
            # Every tenth frame late, off a timer thread: delivery by
            # yet another thread, and reordering pressure.
            lambda: FaultyFabric(
                Fabric("faulty"),
                FaultSchedule(seed=7, delay=0.1, delay_ms=1.0,
                              kinds=("reply",)),
            ),
            None,
        ),
        ("socket", lambda: SocketFabric("fifo-server"),
         lambda: SocketFabric("fifo-client")),
    ]


@pytest.mark.parametrize(
    "label,make_server,make_client",
    _fabric_pairs(),
    ids=[pair[0] for pair in _fabric_pairs()],
)
def test_per_client_fifo_on_every_fabric(
    idl, label, make_server, make_client
):
    book = _Book()
    naming = NamingService()
    server_fabric = make_server()
    client_fabric = make_client() if make_client else server_fabric
    server = ORB("fifo-s", fabric=server_fabric, naming=naming, timeout=10.0)
    client = (
        ORB("fifo-c", fabric=client_fabric, naming=naming, timeout=10.0)
        if make_client
        else server
    )
    try:
        server.serve("ledger", _factory(idl, book), nthreads=1)
        results = {}

        def stream(base):
            runtime = client.client_runtime(
                label=f"c{base}", pipeline_depth=8
            )
            proxy = idl.ledger._bind("ledger", runtime)
            futures = [proxy.post_nb(base + i) for i in range(60)]
            results[base] = [f.value(timeout=20) for f in futures]
            runtime.close()

        threads = [
            threading.Thread(target=stream, args=(base,))
            for base in (1000, 2000, 3000)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        for base in (1000, 2000, 3000):
            expected = [base + i for i in range(60)]
            assert results[base] == expected
            # Executed in send order, whatever the interleaving with
            # the other clients.
            mine = [x for x in book.posted if base <= x < base + 1000]
            assert mine == expected
        assert not [n for n in _thread_names() if n.endswith(":prefetch")]
    finally:
        client.shutdown()
        server.shutdown()
        for fabric in {id(client_fabric): client_fabric,
                       id(server_fabric): server_fabric}.values():
            fabric.close()


# ---------------------------------------------------------------------------
# Admission slots: released exactly once, whatever becomes of the frame
# ---------------------------------------------------------------------------


class _RawClient:
    """A port on a client fabric that speaks request frames by hand,
    under one client identity."""

    def __init__(self, fabric, target, identity=0x5151):
        self.port = fabric.open_port("raw")
        self.target = target
        self.identity = identity

    def request_id(self, seq):
        return (self.identity << 32) | seq

    def send(self, frame):
        self.port.send(self.target, frame, KIND_REQUEST)

    def reply(self, timeout=10.0):
        _src, _kind, payload = self.port.recv(
            kind=KIND_REPLY, timeout=timeout
        )
        return wire.decode_reply(payload)


def _settled(governor):
    requests = governor.snapshot()["requests"]
    return requests["inflight"] == 0 and (
        requests["admitted"] == requests["completed"]
    )


def test_every_admission_slot_is_released_exactly_once(idl):
    book = _Book()
    naming = NamingService()
    with SocketFabric("slots-server") as sf, \
            SocketFabric("slots-client") as cf:
        server = ORB("slots", fabric=sf, naming=naming, timeout=10.0)
        with server:
            group = server.serve(
                "ledger", _factory(idl, book), nthreads=1,
                reply_cache_bytes=1 << 20,
            )
            raw = _RawClient(cf, group.reference.request_port)
            reply_to = raw.port.address
            governor = sf.governor

            def admitted():
                return governor.snapshot()["requests"]["admitted"]

            # 1. A normal request.
            raw.send(_frame(idl, "post", raw.request_id(1), 11, reply_to))
            assert raw.reply().request_id == raw.request_id(1)
            assert _wait_for(lambda: _settled(governor))
            assert admitted() == 1

            # 2. A sound head with a garbage tail: admitted by the
            # loop, dropped by the decode, its slot released — once.
            good = _frame(idl, "post", raw.request_id(2), 22, reply_to)
            head = wire.peek_request(good)
            raw.send(good[: head.resume_at + 2])
            assert _wait_for(lambda: admitted() == 2)
            assert _wait_for(lambda: _settled(governor))
            assert book.posted == [11]

            # 3. A retry of an executed request: replayed from the
            # cache (same reply again), servant untouched.
            raw.send(_frame(idl, "post", raw.request_id(1), 11, reply_to))
            assert raw.reply().request_id == raw.request_id(1)
            assert _wait_for(lambda: admitted() == 3)
            assert _wait_for(lambda: _settled(governor))
            assert book.posted == [11]
            assert server.stats()["reply_caches"]["ledger"]["replays"] == 1

            # 4. A duplicate of a request still executing: dropped,
            # its own slot released at once; the original's reply
            # answers both.
            held = _frame(idl, "held", raw.request_id(4), 44, reply_to)
            raw.send(held)
            assert _wait_for(lambda: admitted() == 4)
            raw.send(held)
            assert _wait_for(lambda: admitted() == 5)
            assert _wait_for(
                lambda: governor.snapshot()["requests"]["inflight"] == 1
            )
            book.gate.set()
            assert raw.reply().request_id == raw.request_id(4)
            assert _wait_for(lambda: _settled(governor))
            assert book.posted == [11, 44]
            cache = server.stats()["reply_caches"]["ledger"]
            assert cache["duplicates_dropped"] == 1
            requests = governor.snapshot()["requests"]
            assert requests["admitted"] == requests["completed"] == 5
            raw.port.close()


def test_garbage_with_an_unsound_head_costs_no_slot(idl):
    book = _Book()
    naming = NamingService()
    with SocketFabric("junk-server") as sf, SocketFabric("junk-client") as cf:
        server = ORB("junk", fabric=sf, naming=naming, timeout=10.0)
        with server:
            group = server.serve("ledger", _factory(idl, book), nthreads=1)
            raw = _RawClient(cf, group.reference.request_port)
            for junk in (b"\x00", b"\x01garbage" * 10, b"\xff" * 64):
                raw.send(junk)
            raw.send(
                _frame(idl, "post", raw.request_id(9), 9, raw.port.address)
            )
            assert raw.reply().request_id == raw.request_id(9)
            assert _wait_for(lambda: _settled(sf.governor))
            assert sf.governor.snapshot()["requests"]["admitted"] == 1
            raw.port.close()


@pytest.mark.parametrize("nthreads", [1, 3])
def test_a_retry_sent_as_the_reply_lands_is_replayed(idl, nthreads):
    """The reply cache settles a request before its reply leaves.  A
    client that sends the same id again the moment the reply lands —
    here from its port's upcall, on the replying thread itself — gets
    the recorded reply, not silence, and the servant runs once."""
    book = _Book()
    with ORB("settled", timeout=10.0) as orb:
        group = orb.serve(
            "ledger", _factory(idl, book), nthreads=nthreads,
            reply_cache_bytes=1 << 16,
        )
        raw = _RawClient(orb.fabric, group.reference.request_port)
        frame = _frame(idl, "post", raw.request_id(1), 5, raw.port.address)
        retried = []

        def retry_on_first_reply(delivery):
            if delivery is not None and not retried:
                retried.append(delivery)
                raw.send(frame)
            return False  # queued for ``reply`` all the same

        raw.port.upcall = retry_on_first_reply
        raw.send(frame)
        assert raw.reply().request_id == raw.request_id(1)
        assert raw.reply().request_id == raw.request_id(1)
        assert book.posted == [5] * nthreads
        raw.port.close()


# ---------------------------------------------------------------------------
# kill() and shutdown()
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fabric_kind", ["inproc", "socket-local"])
def test_kill_makes_senders_see_transport_error(idl, fabric_kind):
    book = _Book()
    fabric = (
        Fabric("kill") if fabric_kind == "inproc"
        else SocketFabric("kill-socket")
    )
    try:
        with ORB("kill", fabric=fabric, timeout=10.0) as orb:
            group = orb.serve("ledger", _factory(idl, book), nthreads=1)
            target = group.reference.request_port
            sender = fabric.open_port("sender")
            sender.send(
                target,
                _frame(idl, "note", 7 << 32, 1, None, oneway=True),
                KIND_REQUEST,
            )
            threading.Timer(0.2, book.gate.set).start()
            group.kill()
            with pytest.raises(TransportError):
                sender.send(
                    target,
                    _frame(idl, "note", (7 << 32) | 1, 2, None,
                           oneway=True),
                    KIND_REQUEST,
                )
            # No thread of the killed object survives it, and what it
            # had already queued still ran.
            assert _wait_for(
                lambda: not [
                    n for n in _thread_names()
                    if n.startswith("server:ledger")
                ]
            )
            assert book.posted == [1]
            sender.close()
    finally:
        fabric.close()


def test_kill_over_tcp_is_a_drop_not_a_dead_loop(idl):
    """A remote sender cannot be told synchronously; what matters is
    that the event loop survives delivering to a port that closed
    under it and keeps serving the fabric's other objects."""
    book, other = _Book(), _Book()
    naming = NamingService()
    with SocketFabric("killtcp-server") as sf, \
            SocketFabric("killtcp-client") as cf:
        server = ORB("ks", fabric=sf, naming=naming, timeout=5.0)
        client = ORB("kc", fabric=cf, naming=naming, timeout=5.0)
        with server, client:
            doomed = server.serve("ledger", _factory(idl, book), nthreads=1)
            server.serve("other", _factory(idl, other), nthreads=1)
            runtime = client.client_runtime(label="k")
            victim = idl.ledger._bind("ledger", runtime)
            survivor = idl.ledger._bind("other", runtime)
            assert victim.post(1) == 1
            doomed.kill()
            dropped = sf.dropped_frames
            raw = _RawClient(cf, doomed.reference.request_port)
            raw.send(_frame(idl, "post", raw.request_id(1), 5,
                            raw.port.address))
            assert _wait_for(lambda: sf.dropped_frames == dropped + 1)
            assert survivor.post(2) == 2
            raw.port.close()
            runtime.close()


def test_shutdown_drains_queued_requests(idl):
    book = _Book()
    orb = ORB("drain", timeout=10.0)
    try:
        group = orb.serve("ledger", _factory(idl, book), nthreads=1)
        sender = orb.fabric.open_port("sender")
        # One client's stream: the first blocks the rank thread on
        # the gate, the rest queue behind it (per-client order).
        for seq in range(6):
            sender.send(
                group.reference.request_port,
                _frame(idl, "note", (3 << 32) | seq, seq, None,
                       oneway=True),
                KIND_REQUEST,
            )
        threading.Timer(0.2, book.gate.set).start()
        orb.shutdown()  # joins the group: returns once drained
        assert book.posted == list(range(6))
        assert not [
            n for n in _thread_names() if n.startswith("server:ledger")
        ]
        sender.close()
    finally:
        orb.shutdown()


def test_service_pending_serves_other_clients_on_a_serial_object(
    idl, monkeypatch
):
    """The §2.1 contract on a serial group: serves what is already
    queued, never blocks, 0 when idle."""
    monkeypatch.setattr(adapter, "DISPATCH_THREADS", 1)
    served = []
    entered = threading.Event()
    release = threading.Event()

    class Busy(idl.ledger_skel):
        def held(self, x):
            served.append(("idle", self.service_pending(4)))
            entered.set()
            release.wait(timeout=20)
            served.append(("queued", self.service_pending(4)))
            return int(x)

        def post(self, x):
            served.append(("post", int(x)))
            return int(x)

    with ORB("svc", timeout=10.0) as orb:
        group = orb.serve("ledger", lambda ctx: Busy(), nthreads=1)
        first = orb.client_runtime(label="first")
        long_call = idl.ledger._bind("ledger", first).held_nb(1)
        assert entered.wait(timeout=10)
        # The one thread is inside ``held``; another client's two
        # requests queue behind it (a local send returns once the
        # upcall has queued the request).
        raw = _RawClient(orb.fabric, group.reference.request_port)
        for seq, value in enumerate((7, 8)):
            raw.send(_frame(idl, "post", raw.request_id(seq), value,
                            raw.port.address))
        release.set()
        assert long_call.value(timeout=10) == 1
        assert sorted(raw.reply().request_id for _ in range(2)) == [
            raw.request_id(0), raw.request_id(1),
        ]
        assert served == [
            ("idle", 0), ("post", 7), ("post", 8), ("queued", 2),
        ]
        raw.port.close()
        first.close()
