"""Pipelined non-blocking invocations end to end (ISSUE 3 tentpole).

Covers the reply demultiplexer (replies arriving out of launch order
resolve the right futures), interleaved multi-port chunk streams from
concurrently in-flight requests, the ``pipeline_depth`` knob (counted
as request frames in flight), and the serial dispatch pool's
per-client order on the object's rank thread — over both the
in-process fabric and real TCP loopback, and from a client that is a
forked process rank.
"""

import contextlib
import threading
import time

import numpy as np
import pytest

from repro import ORB, compile_idl
from repro.orb.nameservice import NamingClient, serve_naming
from repro.orb.naming import NamingService
from repro.orb.socketnet import SocketFabric
from repro.orb.transport import KIND_REPLY, KIND_REQUEST
from repro.rts import process_backend_supported, spawn_spmd

from tests.integration.observing import FrameMeter
from tests.orb.test_server_fanin import _wait_for

PIPE_IDL = """
typedef dsequence<double> vec;

interface pipe {
    vec echo(in vec data);
    double tag(in double x);
};
"""

FABRICS = ["inproc", "socket"]


@pytest.fixture(scope="module")
def idl():
    return compile_idl(PIPE_IDL, module_name="pipelining_idl")


@contextlib.contextmanager
def two_orbs(fabric):
    """(server ORB, client ORB) joined by the requested fabric."""
    if fabric == "inproc":
        with ORB("pipeline-test") as orb:
            yield orb, orb
        return
    naming = NamingService()
    with SocketFabric("pipe-server") as sf, SocketFabric("pipe-client") as cf:
        server = ORB("pipe-server", fabric=sf, naming=naming)
        client = ORB("pipe-client", fabric=cf, naming=naming)
        with server, client:
            yield server, client


def make_tagger(idl, record, gate=None):
    class Tagger(idl.pipe_skel):
        def echo(self, data):
            return data

        def tag(self, x):
            if gate is not None:
                gate.wait(timeout=20)
            record.append(x)
            return x

    return Tagger


class TestOutOfOrderReplies:
    @pytest.mark.parametrize("fabric", FABRICS)
    def test_reversed_reply_order_resolves_right_futures(self, idl, fabric):
        """The slow object's reply arrives *after* the fast object's
        even though it was requested first; the demux must still hand
        each future its own reply (the old wire path raised
        RemoteError on any out-of-order reply)."""
        gate = threading.Event()
        slow_record, fast_record = [], []
        with two_orbs(fabric) as (server, client):
            server.serve(
                "slow",
                lambda ctx: make_tagger(idl, slow_record, gate)(),
                nthreads=1,
            )
            server.serve(
                "fast", lambda ctx: make_tagger(idl, fast_record)(),
                nthreads=1,
            )
            runtime = client.client_runtime(label="ooo", pipeline_depth=4)
            try:
                slow = idl.pipe._bind("slow", runtime)
                fast = idl.pipe._bind("fast", runtime)
                f_slow = slow.tag_nb(1.0)
                f_fast = fast.tag_nb(2.0)
                # The fast object answers while the slow one is still
                # blocked: its reply is genuinely first on the wire.
                deadline = time.monotonic() + 20
                while not fast_record and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert fast_record == [2.0]
                assert slow_record == []
                gate.set()
                assert f_slow.value(timeout=20) == 1.0
                assert f_fast.value(timeout=20) == 2.0
            finally:
                gate.set()
                runtime.close()


class TestInterleavedChunks:
    @pytest.mark.parametrize("fabric", FABRICS)
    @pytest.mark.parametrize("transfer", ["multiport", "centralized"])
    def test_two_in_flight_transfers_stay_separate(
        self, idl, fabric, transfer
    ):
        """Data chunks of two concurrently pipelined requests
        interleave on the wire but land in the right sequences."""
        with two_orbs(fabric) as (server, client):
            server.serve(
                "pipe", lambda ctx: make_tagger(idl, [])(), nthreads=1
            )
            runtime = client.client_runtime(label="mix", pipeline_depth=4)
            try:
                proxy = idl.pipe._bind("pipe", runtime, transfer=transfer)
                ramp = np.arange(4096, dtype=np.float64)
                futures = [
                    proxy.echo_nb(idl.vec.from_global(ramp + 1000 * i))
                    for i in range(4)
                ]
                for i, future in enumerate(futures):
                    np.testing.assert_array_equal(
                        future.value(timeout=30).local_data(),
                        ramp + 1000 * i,
                    )
            finally:
                runtime.close()


class TestDepthAndDispatch:
    @pytest.mark.parametrize("depth", [1, 4])
    def test_depth_bounds_the_requests_in_flight(self, idl, depth):
        """Pipelining is requests in flight: with the servant held on
        its first request, a client at depth ``depth`` has put exactly
        ``depth`` request frames on the wire before any reply."""
        gate = threading.Event()
        record, values = [], []
        meter = FrameMeter()
        with two_orbs("inproc") as (server, client):
            group = server.serve(
                "pipe",
                lambda ctx: make_tagger(idl, record, gate)(),
                nthreads=1,
            )
            server.fabric.add_meter(meter)
            runtime = client.client_runtime(
                label=f"d{depth}", pipeline_depth=depth
            )

            def launch():
                proxy = idl.pipe._bind("pipe", runtime)
                futures = [proxy.tag_nb(float(i)) for i in range(6)]
                values.extend(f.value(timeout=20) for f in futures)

            def requests():
                return [
                    f for f in meter.of_kind(KIND_REQUEST)
                    if f[1] == group.reference.request_port
                ]

            launcher = threading.Thread(target=launch, daemon=True)
            launcher.start()
            try:
                assert _wait_for(lambda: len(requests()) == depth)
                time.sleep(0.2)  # the window holds: no more go out
                assert len(requests()) == depth
                assert meter.of_kind(KIND_REPLY) == []
            finally:
                gate.set()
                launcher.join(timeout=20)
                runtime.close()
        assert values == [float(i) for i in range(6)]
        assert record == [float(i) for i in range(6)]

    def test_one_clients_requests_run_in_send_order(self, idl):
        record = []
        with two_orbs("inproc") as (server, client):
            server.serve(
                "pipe", lambda ctx: make_tagger(idl, record)(), nthreads=1
            )
            runtime = client.client_runtime(label="fifo", pipeline_depth=8)
            try:
                proxy = idl.pipe._bind("pipe", runtime)
                futures = [proxy.tag_nb(float(i)) for i in range(8)]
                for future in futures:
                    future.value(timeout=20)
            finally:
                runtime.close()
        assert record == [float(i) for i in range(8)]

    @pytest.mark.parametrize("fabric", FABRICS)
    def test_one_clients_stream_starts_no_thread(self, idl, fabric):
        """A pipelined stream stays on the object's rank thread: a
        thread that finishes a request takes the next one itself, so
        the pool never finds a client's work runnable with no thread
        parked, and starts no other."""
        seen = set()

        class Recorder(idl.pipe_skel):
            def echo(self, data):
                return data

            def tag(self, x):
                seen.add(threading.current_thread().name)
                return x

        n = 400
        with two_orbs(fabric) as (server, client):
            server.serve("pipe", lambda ctx: Recorder(), nthreads=1)
            runtime = client.client_runtime(label="stream", pipeline_depth=8)
            try:
                proxy = idl.pipe._bind("pipe", runtime)
                futures = [proxy.tag_nb(float(i)) for i in range(n)]
                values = [f.value(timeout=20) for f in futures]
                assert not [
                    t.name for t in threading.enumerate()
                    if t.name.startswith("server:pipe:dispatch")
                ]
            finally:
                runtime.close()
        assert values == [float(i) for i in range(n)]
        assert seen == {"server:pipe-0"}

    def test_bad_pipeline_depth_rejected(self, idl):
        with two_orbs("inproc") as (_server, client):
            with pytest.raises(ValueError, match="depth"):
                client.client_runtime(label="bad", pipeline_depth=0)


@pytest.mark.skipif(
    not process_backend_supported(),
    reason="process RTS backend needs the fork start method",
)
class TestProcessRankClient:
    @pytest.mark.parametrize("transfer", ["centralized", "multiport"])
    def test_forked_rank_keeps_eight_in_flight(self, idl, transfer):
        """A forked process rank is a serial client over TCP: it finds
        the server through the parent's served naming object, launches
        eight futures before touching one, and each resolves to its own
        reply.  With the servant in the parent held on the first, the
        server has all eight requests in flight at once."""
        gate = threading.Event()
        ramp = np.arange(8192, dtype=np.float64)

        class Dwelling(idl.pipe_skel):
            def echo(self, data):
                gate.wait(timeout=30)
                return data

        def client_body(ctx):
            with SocketFabric("pipe-client") as cf:
                naming = NamingClient(cf, naming_ior)
                with ORB("pipe-client", fabric=cf, naming=naming) as orb:
                    runtime = orb.client_runtime(
                        label="forked", pipeline_depth=8
                    )
                    try:
                        proxy = idl.pipe._bind(
                            "pipe", runtime, transfer=transfer
                        )
                        futures = [
                            proxy.echo_nb(idl.vec.from_global(ramp + 1000 * i))
                            for i in range(8)
                        ]
                        return [
                            bool(np.array_equal(
                                f.value(timeout=30).local_data(),
                                ramp + 1000 * i,
                            ))
                            for i, f in enumerate(futures)
                        ]
                    finally:
                        runtime.close()

        with SocketFabric("pipe-server") as sf:
            with ORB("pipe-server", fabric=sf) as server:
                naming_ior = serve_naming(server)
                server.serve("pipe", lambda ctx: Dwelling(), nthreads=1)
                handle = spawn_spmd(
                    client_body, 1, backend="process", name="pipe-client"
                )

                def inflight():
                    return server.stats()["server"]["requests"]["inflight"]

                try:
                    all_in_flight = _wait_for(lambda: inflight() == 8, 30)
                finally:
                    gate.set()
                (checked,) = handle.join(120)
        assert checked == [True] * 8
        assert all_in_flight
