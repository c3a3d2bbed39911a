"""What touching a future asks of the pipelined invocation worker.

``value()`` and ``ready()`` are demands, made at the same program point
on every rank of an SPMD client.  A reader that will wait for good (or
at least the runtime's reply timeout) works the runtime's queue itself,
on its own thread, up to its demand and through its future; a poll or
a shorter wait queues one flush marker for the worker thread, at the
same place in the queue.  Printing a future is not a demand, and
polling one queues one marker, not one per poll.
"""

import sys
import threading
import time

import pytest

from repro import ORB
from repro.rts.futures import FutureError


def serve(orb, servant_class, nthreads):
    orb.serve("example", lambda ctx: servant_class(), nthreads)


def test_repr_on_one_rank_does_not_move_its_collectives(
    orb, idl, servant_class
):
    """Rank 0 alone prints a pending future between two launches.  A
    ``repr`` that announced demand drained that future on rank 0 only,
    so rank 0 voted on its reply while rank 1 synchronized for the next
    launch: ``CollectiveMismatchError``."""
    serve(orb, servant_class, 2)

    def client(c):
        proxy = idl.diff_object._spmd_bind("example", c.runtime)
        a = proxy.scaled_nb(2, 1)
        if c.rank == 0:
            assert "pending" in repr(a)
        b = proxy.scaled_nb(3, 1)
        return a.value(timeout=20), b.value(timeout=20)

    assert orb.run_spmd_client(2, client) == [((2, 2), (3, 2))] * 2


def test_polling_a_pending_future_queues_one_flush_marker(
    orb, idl, servant_class
):
    gate = threading.Event()

    class Gated(servant_class):
        def scaled(self, factor, counter):
            gate.wait(timeout=20)
            return super().scaled(factor, counter)

    serve(orb, Gated, 1)
    runtime = orb.client_runtime()
    try:
        proxy = idl.diff_object._bind("example", runtime)
        worker = proxy._runtime.worker
        future = proxy.scaled_nb(2, 5)
        # Eight pollers at once, switching as often as the interpreter
        # allows: a check-then-queue race would leave extra markers.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pollers = [
                threading.Thread(
                    target=lambda: [future.ready() for _ in range(125)]
                )
                for _ in range(8)
            ]
            for poller in pollers:
                poller.start()
            for poller in pollers:
                poller.join(timeout=20)
        finally:
            sys.setswitchinterval(interval)
        assert not any(poller.is_alive() for poller in pollers)
        assert not future.ready()
        markers = [
            item for item in list(worker._queue) if item[0] == "flush"
        ]
        assert len(markers) <= 1
        gate.set()
        assert future.value(timeout=20) == (10, 6)
    finally:
        gate.set()
        runtime.close()


def _gated(servant_class, gate):
    class Gated(servant_class):
        def scaled(self, factor, counter):
            gate.wait(timeout=20)
            return super().scaled(factor, counter)

    return Gated


def test_a_short_timeout_still_times_out(orb, idl, servant_class):
    """A wait shorter than the reply timeout leaves the drain to the
    worker thread, so it raises on time, and the future still
    completes once the reply comes."""
    gate = threading.Event()
    serve(orb, _gated(servant_class, gate), 1)
    runtime = orb.client_runtime()
    try:
        proxy = idl.diff_object._bind("example", runtime)
        future = proxy.scaled_nb(2, 5)
        start = time.monotonic()
        with pytest.raises(FutureError, match="not resolved"):
            future.value(timeout=0.2)
        assert 0.15 <= time.monotonic() - start < 5
        gate.set()
        assert future.value() == (10, 6)
    finally:
        gate.set()
        runtime.close()


def test_a_ready_polling_loop_completes(orb, idl, servant_class):
    """Polling alone, with no blocking touch, still gets the future
    completed: the poll's marker wakes the worker thread."""
    serve(orb, servant_class, 1)
    runtime = orb.client_runtime()
    try:
        proxy = idl.diff_object._bind("example", runtime)
        future = proxy.scaled_nb(3, 1)
        deadline = time.monotonic() + 20
        while not future.ready():
            assert time.monotonic() < deadline, "ready() never turned true"
            time.sleep(0.001)
        assert future.value(timeout=0) == (3, 2)
    finally:
        runtime.close()


def test_an_spmd_nb_stub_returns_before_its_peers_arrive(
    idl, servant_class
):
    """The launch of a collective ``_nb`` call synchronizes the ranks,
    so it must not run on the caller's thread: rank 0's stub returns
    while rank 1 has not even called it.  (The sanitizer's alignment
    check is a collective of the stub itself, so it is off here.)"""
    returned = threading.Event()

    def client(c):
        proxy = idl.diff_object._spmd_bind("example", c.runtime)
        if c.rank == 1:
            assert returned.wait(timeout=20)
        future = proxy.scaled_nb(2, 1)
        if c.rank == 0:
            returned.set()
        return future.value()

    with ORB(timeout=30.0, sanitize=False) as orb:
        serve(orb, servant_class, 2)
        assert orb.run_spmd_client(2, client) == [(2, 2)] * 2


def test_a_done_callback_may_wait_on_a_later_future(
    orb, idl, servant_class
):
    """The thread that resolves ``a`` runs its callbacks while it holds
    the runtime's turn — the worker thread after a short wait's flush
    marker, the reader itself after a long wait; a callback waiting on
    ``b`` must drain ``b`` right there instead of waiting for a drain
    that nobody else can run."""
    serve(orb, servant_class, 1)
    runtime = orb.client_runtime()
    try:
        proxy = idl.diff_object._bind("example", runtime)
        for a_timeout in (0.5 * orb.timeout, None):
            for b_timeout in (2, None):
                outcomes = []
                called = threading.Event()

                def on_a(_a, timeout=b_timeout):
                    try:
                        outcomes.append(b.value(timeout=timeout))
                    except Exception as exc:  # noqa: BLE001 - under test
                        outcomes.append(exc)
                    called.set()

                a = proxy.scaled_nb(2, 1)
                b = proxy.scaled_nb(3, 1)
                a.add_done_callback(on_a)
                start = time.monotonic()
                assert a.value(timeout=a_timeout) == (2, 2)
                assert called.wait(timeout=20)
                assert outcomes == [(3, 2)], (a_timeout, b_timeout)
                assert time.monotonic() - start < 2
        # The runtime is idle again: the next blocking call is served.
        assert proxy.scaled(4, 1) == (4, 2)
    finally:
        runtime.close()
