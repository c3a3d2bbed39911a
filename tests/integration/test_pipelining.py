"""Pipelined non-blocking invocations end to end (ISSUE 3 tentpole).

Covers the reply demultiplexer (replies arriving out of launch order
resolve the right futures), interleaved multi-port chunk streams from
concurrently in-flight requests, the ``pipeline_depth`` knob, and the
serial dispatch pool's two ordering policies — over both the
in-process fabric and real TCP loopback, and from a client that is a
forked process rank.
"""

import collections
import contextlib
import threading
import time

import numpy as np
import pytest

from repro import ORB, compile_idl
from repro.orb import adapter
from repro.orb.nameservice import NamingClient, serve_naming
from repro.orb.naming import NamingService
from repro.orb.socketnet import SocketFabric
from repro.rts import process_backend_supported, spawn_spmd

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
                "pipe",
                lambda ctx: make_tagger(idl, [])(),
                nthreads=1,
                dispatch_policy="concurrent",
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


class ConcurrencyGauge:
    """Tracks how many servant executions overlap."""

    def __init__(self):
        self._lock = threading.Lock()
        self.active = 0
        self.peak = 0

    def __enter__(self):
        with self._lock:
            self.active += 1
            self.peak = max(self.peak, self.active)

    def __exit__(self, *exc):
        with self._lock:
            self.active -= 1


class TestDepthAndDispatch:
    def make_gauged(self, idl, gauge, dwell=0.05):
        class Gauged(idl.pipe_skel):
            def echo(self, data):
                return data

            def tag(self, x):
                with gauge:
                    time.sleep(dwell)
                return x

        return Gauged

    def test_depth_one_keeps_requests_serial(self, idl):
        gauge = ConcurrencyGauge()
        with two_orbs("inproc") as (server, client):
            server.serve(
                "pipe",
                lambda ctx: self.make_gauged(idl, gauge)(),
                nthreads=1,
                dispatch_policy="concurrent",
            )
            runtime = client.client_runtime(label="d1", pipeline_depth=1)
            try:
                proxy = idl.pipe._bind("pipe", runtime)
                futures = [proxy.tag_nb(float(i)) for i in range(5)]
                assert [f.value(timeout=20) for f in futures] == [
                    0.0, 1.0, 2.0, 3.0, 4.0,
                ]
            finally:
                runtime.close()
        # Depth 1 admits one request at a time even though the server
        # would happily overlap them.
        assert gauge.peak == 1

    def test_deep_pipeline_overlaps_on_concurrent_policy(self, idl):
        gauge = ConcurrencyGauge()
        with two_orbs("inproc") as (server, client):
            server.serve(
                "pipe",
                lambda ctx: self.make_gauged(idl, gauge)(),
                nthreads=1,
                dispatch_policy="concurrent",
            )
            runtime = client.client_runtime(label="d4", pipeline_depth=4)
            try:
                proxy = idl.pipe._bind("pipe", runtime)
                futures = [proxy.tag_nb(float(i)) for i in range(6)]
                assert [f.value(timeout=20) for f in futures] == [
                    0.0, 1.0, 2.0, 3.0, 4.0, 5.0,
                ]
            finally:
                runtime.close()
        assert gauge.peak >= 2

    def test_client_fifo_policy_preserves_one_clients_order(self, idl):
        record = []
        with two_orbs("inproc") as (server, client):
            server.serve(
                "pipe",
                lambda ctx: make_tagger(idl, record)(),
                nthreads=1,  # default dispatch_policy="client-fifo"
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
    def test_one_clients_stream_parks_one_worker(
        self, idl, fabric, monkeypatch
    ):
        """A pipelined stream stays on the worker serving it: a worker
        that finishes a request takes the next one itself, so none of
        the other three is woken only to find nothing and park again."""
        pools, parks = [], collections.Counter()

        class CountingIdle(list):
            def append(self, wake):
                parks[threading.current_thread().name] += 1
                super().append(wake)

        class CountingPool(adapter._DispatchPool):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                with self._lock:
                    self._idle = CountingIdle(self._idle)
                pools.append(self)

        monkeypatch.setattr(adapter, "_DispatchPool", CountingPool)
        n = 400
        with two_orbs(fabric) as (server, client):
            server.serve(
                "pipe", lambda ctx: make_tagger(idl, [])(), nthreads=1
            )
            runtime = client.client_runtime(label="stream", pipeline_depth=8)
            try:
                proxy = idl.pipe._bind("pipe", runtime)
                assert proxy.tag(-1.0) == -1.0
                (pool,) = pools
                deadline = time.monotonic() + 5
                while len(pool._idle) < 4 and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert len(pool._idle) == 4  # the default pool, all parked
                parks.clear()
                futures = [proxy.tag_nb(float(i)) for i in range(n)]
                values = [f.value(timeout=20) for f in futures]
                stream_parks = dict(parks)
            finally:
                runtime.close()
        assert values == [float(i) for i in range(n)]
        assert len(stream_parks) <= 1, stream_parks

    def test_bad_dispatch_policy_rejected(self, idl):
        with two_orbs("inproc") as (server, _client):
            with pytest.raises(ValueError, match="dispatch_policy"):
                server.serve(
                    "pipe",
                    lambda ctx: make_tagger(idl, [])(),
                    nthreads=1,
                    dispatch_policy="chaotic",
                )

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
        reply.  The servant in the parent sees them overlap."""
        gauge = ConcurrencyGauge()
        ramp = np.arange(8192, dtype=np.float64)

        class Dwelling(idl.pipe_skel):
            def echo(self, data):
                with gauge:
                    time.sleep(0.02)
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
                server.serve(
                    "pipe",
                    lambda ctx: Dwelling(),
                    nthreads=1,
                    dispatch_policy="concurrent",
                )
                handle = spawn_spmd(
                    client_body, 1, backend="process", name="pipe-client"
                )
                (checked,) = handle.join(120)
        assert checked == [True] * 8
        assert gauge.peak >= 2
