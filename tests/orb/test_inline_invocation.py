"""The inline/queued choice of a blocking invocation.

A blocking call runs on the caller's thread whenever every earlier
submission on its runtime has settled, and is queued on the rank's
invocation queue — ordered behind them — otherwise; its caller then
waits on it for longer than the reply timeout, so it works that queue
itself, launches included, unless the worker thread got there first.
The choice is made from runtime state alone; either route makes the
same engine calls in the same order, so the per-rank collective
sequence is the one ``tests/integration/test_collective_sequence.py``
pins.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro import ORB, compile_idl
from repro.san import stats as san_stats

from tests.integration.conftest import TEST_IDL, make_servant_class
from tests.integration.observing import Recording, names, serve_recording
from tests.integration.test_collective_sequence import EXPECTED


@pytest.fixture(scope="module")
def idl():
    return compile_idl(TEST_IDL, module_name="inline_idl")


@pytest.fixture(scope="module")
def servant_class(idl):
    return make_servant_class(idl)


@pytest.fixture()
def orb():
    orb = ORB(timeout=30.0)
    yield orb
    orb.shutdown()


def _worker_threads():
    return [
        t.name
        for t in threading.enumerate()
        if t.name.startswith("pardis-worker")
    ]


def _spy_routes(runtime):
    """Record, per blocking call, whether it ran inline."""
    routes = []
    run_inline = runtime.worker.run_inline

    def spy(fn):
        try:
            ran, result = run_inline(fn)
        except BaseException:
            routes.append("inline")  # only a call it ran can raise
            raise
        routes.append("inline" if ran else "queued")
        return ran, result

    runtime.worker.run_inline = spy
    return routes


class TestIdleRuntimeRunsInline:
    def test_no_worker_thread_is_started(self, orb, idl, servant_class):
        orb.serve("example", lambda ctx: servant_class(), 1)
        runtime = orb.client_runtime(label="idle")
        routes = _spy_routes(runtime)
        proxy = idl.diff_object._bind("example", runtime)
        for step in range(5):
            assert proxy.scaled(3, step) == (3 * step, step + 1)
        assert routes == ["inline"] * 5
        assert _worker_threads() == []
        # Oneway and exception-raising calls go the same way.
        proxy.note(7)
        with pytest.raises(idl.bad_step):
            proxy.validate(-1)
        assert routes == ["inline"] * 7
        assert _worker_threads() == []
        runtime.close()

    def test_after_settled_futures_it_is_inline_again(
        self, orb, idl, servant_class
    ):
        orb.serve("example", lambda ctx: servant_class(), 1)
        runtime = orb.client_runtime(label="settled")
        routes = _spy_routes(runtime)
        proxy = idl.diff_object._bind("example", runtime)
        future = proxy.scaled_nb(2, 5)
        assert future.value(timeout=10) == (10, 6)
        # The future resolved, so nothing is outstanding: the reader
        # woken by it already finds the runtime idle.
        assert proxy.scaled(2, 6) == (12, 7)
        assert routes == ["inline"]
        runtime.close()

    def test_serial_argument_check_still_runs(
        self, orb, idl, servant_class
    ):
        orb.serve("example", lambda ctx: servant_class(), 2)

        def client(c):
            proxy = idl.diff_object._bind("example", c.runtime)
            routes = _spy_routes(proxy._runtime)
            seq = idl.darray.from_global(np.zeros(8), comm=c.comm)
            with pytest.raises(ValueError, match="group-distributed"):
                proxy.diffusion(1, seq)
            # Refused on the application thread, before any route.
            return routes

        assert orb.run_spmd_client(2, client) == [[], []]

    def test_collective_alignment_check_still_runs(
        self, idl, servant_class
    ):
        orb = ORB(timeout=30.0, sanitize=True)
        try:
            orb.serve("example", lambda ctx: servant_class(), 2)
            before = san_stats()["counters"].get("collective_checks", 0)

            def client(c):
                proxy = idl.diff_object._spmd_bind("example", c.runtime)
                routes = _spy_routes(c.runtime)
                assert c.runtime.san is not None
                assert proxy.scaled(2, 3) == (6, 4)
                assert proxy.scaled(2, 4) == (8, 5)
                return routes

            assert orb.run_spmd_client(2, client) == [["inline"] * 2] * 2
            after = san_stats()["counters"].get("collective_checks", 0)
            # Two invocations, two ranks: each checked before launch
            # (what a divergence does at that check is
            # tests/san/test_collective.py's, now on this route).
            assert after - before == 4
        finally:
            orb.shutdown()


class TestBehindOutstandingCallsItUsesTheWorker:
    def test_blocking_call_completes_after_them(self, orb, idl):
        gate = threading.Event()
        order = []

        class Gated(idl.diff_object_skel):
            def scaled(self, factor, counter):
                if counter == 0:
                    gate.wait(timeout=20)
                order.append(counter)
                return factor, counter

        orb.serve("gated", lambda ctx: Gated(), 1)
        runtime = orb.client_runtime(label="behind")
        routes = _spy_routes(runtime)
        proxy = idl.diff_object._bind("gated", runtime)
        first = proxy.scaled_nb(1, 0)
        second = proxy.scaled_nb(1, 1)
        threading.Timer(0.2, gate.set).start()
        assert proxy.scaled(1, 2) == (1, 2)
        assert routes == ["queued"]
        assert _worker_threads() == ["pardis-worker-0"]
        # Completions drain in launch order: by the time the blocking
        # call returned, both earlier futures had resolved.
        assert first._done and second._done
        assert order == [0, 1, 2]
        assert first.value(timeout=1) == (1, 0)
        assert second.value(timeout=1) == (1, 1)
        # Everything settled: the next blocking call is inline again.
        assert proxy.scaled(1, 3) == (1, 3)
        assert routes == ["queued", "inline"]
        runtime.close()

    def test_closed_runtime_refuses_either_route(
        self, orb, idl, servant_class
    ):
        orb.serve("example", lambda ctx: servant_class(), 1)
        runtime = orb.client_runtime(label="closed")
        proxy = idl.diff_object._bind("example", runtime)
        assert proxy.scaled(1, 1) == (1, 2)
        runtime.close()
        with pytest.raises(RuntimeError, match="closed"):
            proxy.scaled(1, 1)

    def test_second_thread_waits_for_an_inline_call_to_leave_the_engine(
        self, orb, idl
    ):
        """One thread in the engine at a time: while a thread is inside
        an inline call, another thread's invocation queues and is not
        even launched until the first has left."""
        gate = threading.Event()
        arrived = []

        class Gated(idl.diff_object_skel):
            def scaled(self, factor, counter):
                arrived.append(counter)
                if counter == 0:
                    gate.wait(timeout=20)
                return factor, counter

        orb.serve(
            "gated", lambda ctx: Gated(), 1, dispatch_policy="concurrent"
        )
        runtime = orb.client_runtime(label="two-threads")
        routes = _spy_routes(runtime)
        proxy = idl.diff_object._bind("gated", runtime)
        results = {}
        first = threading.Thread(
            target=lambda: results.update(first=proxy.scaled(1, 0))
        )
        first.start()
        while not arrived:
            time.sleep(0.001)
        second = threading.Thread(
            target=lambda: results.update(second=proxy.scaled(1, 1))
        )
        second.start()
        while not _worker_threads():
            time.sleep(0.001)
        time.sleep(0.05)
        assert arrived == [0]  # the second call has not been sent
        gate.set()
        for thread in (first, second):
            thread.join(timeout=20)
            assert not thread.is_alive()
        assert results == {"first": (1, 0), "second": (1, 1)}
        assert arrived == [0, 1]
        assert routes == ["queued", "inline"]  # in order of *return*
        runtime.close()

    def test_runtime_shared_by_threads_stays_serialized(
        self, orb, idl, servant_class
    ):
        """A runtime is per-thread state, but sharing one must stay
        safe: concurrent blocking calls take turns in the engine
        (one reply-port consumer at a time), whichever route each
        takes."""
        class Uneven(servant_class):
            def scaled(self, factor, counter):
                # Replies come back out of order: a second consumer
                # on the reply port would pick up the wrong one.
                time.sleep(0.0005 * (counter % 3))
                return factor * counter, counter + 1

        orb.serve(
            "example", lambda ctx: Uneven(), 1,
            dispatch_policy="concurrent",
        )
        runtime = orb.client_runtime(label="shared")
        proxy = idl.diff_object._bind("example", runtime)
        results = {}

        def caller(index):
            results[index] = [
                proxy.scaled(index, step) for step in range(40)
            ]

        threads = [
            threading.Thread(target=caller, args=(index,))
            for index in range(1, 5)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # many more interleavings
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for index in range(1, 5):
            assert results[index] == [
                (index * step, step + 1) for step in range(40)
            ]
        runtime.close()


@pytest.mark.parametrize("transfer", ["centralized", "multiport"])
def test_mixed_blocking_and_nb_keep_the_pinned_collective_lists(
    orb, idl, servant_class, transfer
):
    """Rank for rank, the collectives of a client that mixes the two
    routes are those of the pinned single invocation: once for the
    inline call, then launch, launch, complete, complete for the
    non-blocking call and the blocking one queued behind it."""
    server_logs, _ = serve_recording(orb, servant_class, 2)
    expected = EXPECTED["client", transfer]
    # Where the send phase ends: pre-invoke synchronize, plus the
    # gather on the path that funnels data through rank 0.
    cut = 2 if transfer == "centralized" else 1
    launch, complete = expected[:cut], expected[cut:]

    def client(c):
        diff = idl.diff_object._spmd_bind(
            "example", c.runtime, transfer=transfer
        )
        routes = _spy_routes(c.runtime)
        seqs = [
            idl.darray.from_global(np.zeros(12), comm=c.comm)
            for _ in range(3)
        ]
        log = []
        c.runtime.rts = Recording(c.runtime.rts, log)
        diff.diffusion(1, seqs[0])
        future = diff.diffusion_nb(2, seqs[1])
        diff.diffusion(3, seqs[2])
        future.value(timeout=20)
        for step, seq in enumerate(seqs, start=1):
            np.testing.assert_array_equal(
                seq.allgather(), np.full(12, float(step))
            )
        return routes, names(log)[: len(expected) * 3]

    results = orb.run_spmd_client(2, client)
    for rank, (routes, log) in enumerate(results):
        assert routes == ["inline", "queued"], rank
        assert log == expected + launch * 2 + complete * 2, rank
    for rank in range(2):
        assert names(server_logs[rank]) == EXPECTED["server", transfer] * 3
