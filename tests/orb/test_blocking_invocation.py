"""The one route of a blocking invocation.

A blocking call runs on its caller's thread under the runtime's turn:
the ``_nb`` launches queued before it, the admission drain, its own
launch, the earlier completions in launch order, its own completion —
the engine calls, in the order, that queuing it behind them and
draining through it would make, so the per-rank collective sequence
is the one ``tests/integration/test_collective_sequence.py`` pins.  It
creates no future and never needs the runtime's worker thread; a
thread that already holds the turn (a done-callback on the draining
thread) runs it in place.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro import ORB, compile_idl
from repro.orb import proxy as proxy_module
from repro.rts.futures import Future
from repro.san import stats as san_stats

from tests.integration.conftest import TEST_IDL, make_servant_class
from tests.integration.observing import Recording, names, serve_recording
from tests.integration.test_collective_sequence import EXPECTED


@pytest.fixture(scope="module")
def idl():
    return compile_idl(TEST_IDL, module_name="blocking_idl")


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


@pytest.fixture()
def launches(monkeypatch):
    """``(launching thread's name, operation, args)`` per launch."""
    seen = []
    invoke_begin = proxy_module.invoke_begin

    def spy(runtime, ref, plan, args, path, **kwargs):
        seen.append((threading.current_thread().name, plan.name, args))
        return invoke_begin(runtime, ref, plan, args, path, **kwargs)

    monkeypatch.setattr(proxy_module, "invoke_begin", spy)
    return seen


@pytest.fixture()
def futures_made(monkeypatch):
    """Labels of the futures the invocation worker creates."""
    made = []

    class Counted(Future):
        def __init__(self, label=""):
            made.append(label)
            super().__init__(label)

    monkeypatch.setattr(proxy_module, "Future", Counted)
    return made


class TestABlockingCallRunsOnItsCallersThread:
    def test_no_future_and_no_worker_thread(
        self, orb, idl, servant_class, launches, futures_made
    ):
        orb.serve("example", lambda ctx: servant_class(), 1)
        runtime = orb.client_runtime(label="idle")
        proxy = idl.diff_object._bind("example", runtime)
        for step in range(5):
            assert proxy.scaled(3, step) == (3 * step, step + 1)
        # Oneway and exception-raising calls go the same way.
        proxy.note(7)
        with pytest.raises(idl.bad_step):
            proxy.validate(-1)
        me = threading.current_thread().name
        assert [thread for thread, _op, _args in launches] == [me] * 7
        assert futures_made == []
        assert _worker_threads() == []
        runtime.close()

    def test_after_settled_futures_too(
        self, orb, idl, servant_class, launches
    ):
        orb.serve("example", lambda ctx: servant_class(), 1)
        runtime = orb.client_runtime(label="settled")
        proxy = idl.diff_object._bind("example", runtime)
        future = proxy.scaled_nb(2, 5)
        assert future.value(timeout=10) == (10, 6)
        assert proxy.scaled(2, 6) == (12, 7)
        assert launches[-1] == (
            threading.current_thread().name, "scaled", (2, 6)
        )
        runtime.close()

    def test_serial_argument_check_still_runs(
        self, orb, idl, servant_class, launches
    ):
        orb.serve("example", lambda ctx: servant_class(), 2)

        def client(c):
            proxy = idl.diff_object._bind("example", c.runtime)
            seq = idl.darray.from_global(np.zeros(8), comm=c.comm)
            with pytest.raises(ValueError, match="group-distributed"):
                proxy.diffusion(1, seq)

        orb.run_spmd_client(2, client)
        # Refused on the application thread, before any launch.
        assert launches == []

    def test_collective_alignment_check_still_runs(
        self, idl, servant_class
    ):
        orb = ORB(timeout=30.0, sanitize=True)
        try:
            orb.serve("example", lambda ctx: servant_class(), 2)
            before = san_stats()["counters"].get("collective_checks", 0)

            def client(c):
                proxy = idl.diff_object._spmd_bind("example", c.runtime)
                assert c.runtime.san is not None
                return proxy.scaled(2, 3), proxy.scaled(2, 4)

            assert orb.run_spmd_client(2, client) == [((6, 4), (8, 5))] * 2
            after = san_stats()["counters"].get("collective_checks", 0)
            # Two invocations, two ranks: each checked before launch
            # (what a divergence does at that check is
            # tests/san/test_collective.py's).
            assert after - before == 4
        finally:
            orb.shutdown()

    def test_a_closed_runtime_refuses_calls(
        self, orb, idl, servant_class
    ):
        orb.serve("example", lambda ctx: servant_class(), 1)
        runtime = orb.client_runtime(label="closed")
        proxy = idl.diff_object._bind("example", runtime)
        assert proxy.scaled(1, 1) == (1, 2)
        runtime.close()
        with pytest.raises(RuntimeError, match="closed"):
            proxy.scaled(1, 1)
        with pytest.raises(RuntimeError, match="closed"):
            proxy.scaled_nb(1, 1)


class TestBehindOutstandingCalls:
    def test_it_launches_on_the_callers_thread_and_completes_after_them(
        self, orb, idl, launches
    ):
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
        proxy = idl.diff_object._bind("gated", runtime)
        first = proxy.scaled_nb(1, 0)
        second = proxy.scaled_nb(1, 1)
        threading.Timer(0.2, gate.set).start()
        assert proxy.scaled(1, 2) == (1, 2)
        # Launched in program order; the blocking call's own launch
        # ran here, whichever thread launched the two before it.
        assert [args for _thread, _op, args in launches] == [
            (1, 0), (1, 1), (1, 2)
        ]
        assert launches[-1][0] == threading.current_thread().name
        # Completions drain in launch order: by the time the blocking
        # call returned, both earlier futures had resolved.
        assert first._done and second._done
        assert order == [0, 1, 2]
        assert first.value(timeout=1) == (1, 0)
        assert second.value(timeout=1) == (1, 1)
        runtime.close()

    def test_a_full_pipeline_is_drained_before_the_launch(
        self, orb, idl, servant_class, monkeypatch
    ):
        orb.serve("example", lambda ctx: servant_class(), 1)
        runtime = orb.client_runtime(label="full", pipeline_depth=2)
        proxy = idl.diff_object._bind("example", runtime)
        futures = []
        resolved_at_launch = {}
        invoke_begin = proxy_module.invoke_begin

        def spy(runtime, ref, plan, args, path, **kwargs):
            resolved_at_launch[args] = [f._done for f in futures]
            return invoke_begin(runtime, ref, plan, args, path, **kwargs)

        monkeypatch.setattr(proxy_module, "invoke_begin", spy)
        futures.extend(proxy.scaled_nb(1, step) for step in range(2))
        assert proxy.scaled(1, 2) == (2, 3)
        # Two in flight fill the pipeline: the first completed before
        # the blocking call launched, the second after.
        assert resolved_at_launch[(1, 2)] == [True, False]
        assert [f.value(timeout=1) for f in futures] == [(0, 1), (1, 2)]
        worker = runtime.worker
        assert list(worker._pending) == [] and list(worker._queue) == []
        runtime.close()

    def test_a_second_thread_waits_for_the_first_to_leave_the_engine(
        self, orb, idl, launches
    ):
        """One thread in the engine at a time: while a thread is inside
        a blocking call, another thread's call waits for the turn and
        is not even launched until the first has left.  The launch
        itself is counted: both calls come from one runtime, so one
        client identity, and a second request sent early would only
        queue on the server behind the gated first."""
        gate = threading.Event()
        arrived = []

        class Gated(idl.diff_object_skel):
            def scaled(self, factor, counter):
                arrived.append(counter)
                if counter == 0:
                    gate.wait(timeout=20)
                return factor, counter

        orb.serve("gated", lambda ctx: Gated(), 1)
        runtime = orb.client_runtime(label="two-threads")
        proxy = idl.diff_object._bind("gated", runtime)
        worker = runtime.worker
        take = worker._take
        waiting = threading.Event()

        def spy(timeout=-1):
            if threading.current_thread().name == "second":
                waiting.set()
            return take(timeout)

        worker._take = spy
        results = {}
        first = threading.Thread(
            target=lambda: results.update(first=proxy.scaled(1, 0))
        )
        first.start()
        while not arrived:
            time.sleep(0.001)
        second = threading.Thread(
            target=lambda: results.update(second=proxy.scaled(1, 1)),
            name="second",
        )
        second.start()
        assert waiting.wait(timeout=20)
        time.sleep(0.05)
        # The second call has not been launched.
        assert [args for _thread, _op, args in launches] == [(1, 0)]
        gate.set()
        for thread in (first, second):
            thread.join(timeout=20)
            assert not thread.is_alive()
        assert results == {"first": (1, 0), "second": (1, 1)}
        assert [args for _thread, _op, args in launches] == [
            (1, 0), (1, 1)
        ]
        assert arrived == [0, 1]
        assert _worker_threads() == []
        runtime.close()

    def test_runtime_shared_by_threads_stays_serialized(
        self, orb, idl, servant_class, monkeypatch
    ):
        """A runtime is per-thread state, but sharing one must stay
        safe: concurrent blocking calls take turns in the engine.  No
        two threads are ever inside a launch or a completion at once,
        as a second reply-port consumer would be."""
        class Slow(servant_class):
            def scaled(self, factor, counter):
                # Each call waits in its completion a while: room for
                # another thread to enter the engine if it could.
                time.sleep(0.0005 * (counter % 3))
                return factor * counter, counter + 1

        inside = set()
        overlaps = []
        lock = threading.Lock()

        def enter():
            with lock:
                inside.add(threading.get_ident())
                if len(inside) > 1:
                    overlaps.append(len(inside))

        def leave():
            with lock:
                inside.discard(threading.get_ident())

        def guarded(fn, *args, **kwargs):
            enter()
            try:
                return fn(*args, **kwargs)
            finally:
                leave()

        invoke_begin = proxy_module.invoke_begin

        def spy(*args, **kwargs):
            state, payload = guarded(invoke_begin, *args, **kwargs)
            if state == "pending":
                return state, lambda: guarded(payload)
            return state, payload

        monkeypatch.setattr(proxy_module, "invoke_begin", spy)
        orb.serve("example", lambda ctx: Slow(), 1)
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
        assert overlaps == []
        runtime.close()

    def test_blocking_and_nb_calls_mixed_by_threads_leave_it_at_rest(
        self, orb, idl, servant_class
    ):
        """Four threads share a runtime, each alternating a blocking
        call with an ``_nb`` call it reads at once, switching as often
        as the interpreter allows."""
        orb.serve(
            "example", lambda ctx: servant_class(), 1,
        )
        runtime = orb.client_runtime(label="stress", pipeline_depth=2)
        proxy = idl.diff_object._bind("example", runtime)
        results = {}

        def caller(index):
            got = []
            for step in range(30):
                if step % 2:
                    got.append(proxy.scaled_nb(index, step).value())
                else:
                    got.append(proxy.scaled(index, step))
            results[index] = got

        threads = [
            threading.Thread(target=caller, args=(index,), daemon=True)
            for index in range(1, 5)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for index in range(1, 5):
            assert results[index] == [
                (index * step, step + 1) for step in range(30)
            ]
        worker = runtime.worker
        assert list(worker._queue) == []
        assert list(worker._pending) == []
        # The worker thread may still pass through a turn it was woken
        # for before the last caller worked the queue.
        deadline = time.monotonic() + 5
        while worker._holder is not None and time.monotonic() < deadline:
            time.sleep(0.001)
        assert worker._holder is None
        runtime.close()


class TestDoneCallbacks:
    def test_a_callback_may_make_a_blocking_call_on_its_runtime(
        self, orb, idl, servant_class
    ):
        """The reader that drains ``a`` holds the turn while ``a``'s
        callback runs on its thread; the callback's blocking call runs
        right there instead of waiting for a turn nobody will leave."""
        orb.serve("example", lambda ctx: servant_class(), 1)
        runtime = orb.client_runtime(label="callback")
        proxy = idl.diff_object._bind("example", runtime)
        inner = []
        results = {}
        a = proxy.scaled_nb(2, 1)
        a.add_done_callback(lambda _a: inner.append(proxy.scaled(5, 1)))
        reader = threading.Thread(
            target=lambda: results.update(a=a.value()), daemon=True
        )
        reader.start()
        reader.join(timeout=10)
        assert not reader.is_alive(), "the callback's blocking call hung"
        assert results == {"a": (2, 2)}
        assert inner == [(5, 2)]
        assert proxy.scaled(4, 1) == (4, 2)
        runtime.close()

    def test_a_raising_callback_leaves_the_worker_thread_alive(
        self, idl, servant_class, capsys
    ):
        """A short wait leaves the drain of ``a`` to the worker thread,
        which runs ``a``'s callbacks; one that raises is reported, and
        the worker goes on to serve the next short wait."""
        orb = ORB(timeout=10.0)
        try:
            orb.serve("example", lambda ctx: servant_class(), 1)
            runtime = orb.client_runtime(label="raising")
            proxy = idl.diff_object._bind("example", runtime)
            a = proxy.scaled_nb(2, 1)
            a.add_done_callback(lambda _a: 1 / 0)
            assert a.value(timeout=5) == (2, 2)
            assert proxy.scaled_nb(2, 2).value(timeout=5) == (4, 3)
            assert _worker_threads() == ["pardis-worker-0"]
            assert "ZeroDivisionError" in capsys.readouterr().err
            runtime.close()
        finally:
            orb.shutdown()


@pytest.mark.parametrize("transfer", ["centralized", "multiport"])
def test_mixed_blocking_and_nb_keep_the_pinned_collective_lists(
    orb, idl, servant_class, transfer
):
    """Rank for rank, the collectives of a client that mixes blocking
    and non-blocking calls are those of the pinned single invocation:
    once for the first blocking call, then launch, launch, complete,
    complete for the non-blocking call and the blocking one behind
    it."""
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
        return names(log)[: len(expected) * 3]

    results = orb.run_spmd_client(2, client)
    for rank, log in enumerate(results):
        assert log == expected + launch * 2 + complete * 2, rank
    for rank in range(2):
        assert names(server_logs[rank]) == EXPECTED["server", transfer] * 3
