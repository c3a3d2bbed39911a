"""What touching a future asks of the pipelined invocation worker.

``value()`` and ``ready()`` are demands: they queue a flush marker, and
the worker drains through the future at the marker's place in its
queue — so on an SPMD client every rank makes them at the same program
point.  Printing a future is not a demand, and polling one queues one
marker, not one per poll.
"""

import sys
import threading


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
            item for item in list(worker._queue.queue)
            if item is not None and item[0] == "flush"
        ]
        assert len(markers) <= 1
        gate.set()
        assert future.value(timeout=20) == (10, 6)
    finally:
        gate.set()
        runtime.close()
