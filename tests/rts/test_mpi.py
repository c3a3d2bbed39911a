"""Unit tests for the message-passing library.

The point-to-point and buffer cases drive a thread group by hand
(``create_group``); the collective and failure-mode cases go through a
launcher, so the ``...OnProcesses`` subclasses at the end run the same
contract with every rank a process.
"""

import threading
import time

import numpy as np
import pytest

from repro.rts import (
    ANY_SOURCE,
    ANY_TAG,
    CollectiveMismatchError,
    DeadlockError,
    GroupAbortedError,
    MAX,
    MIN,
    PROD,
    SUM,
    create_group,
    spmd_run,
)


class TestPointToPoint:
    def test_send_recv_same_thread(self):
        a, b = create_group(2)
        a.send({"x": 1}, dest=1, tag=7)
        assert b.recv(source=0, tag=7) == {"x": 1}

    def test_payload_is_isolated(self):
        a, b = create_group(2)
        payload = [1, 2, 3]
        a.send(payload, dest=1)
        payload.append(4)
        assert b.recv() == [1, 2, 3]

    def test_numpy_payload_is_copied(self):
        a, b = create_group(2)
        arr = np.arange(4)
        a.send(arr, dest=1)
        arr[:] = 0
        np.testing.assert_array_equal(b.recv(), [0, 1, 2, 3])

    def test_tag_matching_out_of_order(self):
        a, b = create_group(2)
        a.send("first", dest=1, tag=1)
        a.send("second", dest=1, tag=2)
        assert b.recv(tag=2) == "second"
        assert b.recv(tag=1) == "first"

    def test_source_matching(self):
        comms = create_group(3)
        comms[0].send("from0", dest=2)
        comms[1].send("from1", dest=2)
        assert comms[2].recv(source=1) == "from1"
        assert comms[2].recv(source=0) == "from0"

    def test_wildcards_and_status(self):
        a, b = create_group(2)
        a.send("hello", dest=1, tag=42)
        status = {}
        assert b.recv(ANY_SOURCE, ANY_TAG, status=status) == "hello"
        assert status == {"source": 0, "tag": 42}

    def test_fifo_within_matching_messages(self):
        a, b = create_group(2)
        for i in range(5):
            a.send(i, dest=1, tag=3)
        assert [b.recv(tag=3) for _ in range(5)] == list(range(5))

    def test_recv_blocks_until_send(self):
        a, b = create_group(2)
        out = []

        def receiver():
            out.append(b.recv(source=0))

        t = threading.Thread(target=receiver)
        t.start()
        a.send("late", dest=0 + 1)
        t.join(5)
        assert out == ["late"]

    def test_recv_timeout_raises_deadlock(self):
        _, b = create_group(2)
        with pytest.raises(DeadlockError):
            b.recv(source=0, timeout=0.05)

    def test_send_validates_dest_and_tag(self):
        a, _ = create_group(2)
        with pytest.raises(ValueError):
            a.send(1, dest=5)
        with pytest.raises(ValueError):
            a.send(1, dest=1, tag=-3)

    def test_probe(self):
        a, b = create_group(2)
        assert not b.probe()
        a.send(1, dest=1, tag=9)
        assert b.probe(tag=9)
        assert not b.probe(tag=8)

    def test_isend_is_buffered(self):
        a, b = create_group(2)
        req = a.isend("x", dest=1)
        done, _ = req.test()
        assert done
        req.wait()
        assert b.recv() == "x"

    def test_irecv_wait(self):
        a, b = create_group(2)
        req = b.irecv(source=0)
        done, _ = req.test()
        assert not done
        a.send("y", dest=1)
        assert req.wait(timeout=5) == "y"

    def test_irecv_test_completes(self):
        a, b = create_group(2)
        a.send("z", dest=1)
        req = b.irecv()
        done, value = req.test()
        assert done and value == "z"
        # A completed request stays completed.
        assert req.test() == (True, "z")

    def test_sendrecv(self):
        a, b = create_group(2)
        b.send("pong", dest=0)
        assert a.sendrecv("ping", dest=1) == "pong"
        assert b.recv(source=0) == "ping"

    def test_unpicklable_payload_fails_loudly(self):
        a, _ = create_group(2)
        with pytest.raises(Exception):
            a.send(threading.Lock(), dest=1)


class TestShare:
    def test_every_rank_holds_the_root_s_object_itself(self):
        """The thread kernel's one by-identity collective, from any
        root — how the RTS data plane exposes a root's buffer."""
        comms = create_group(3, "share")
        objects = [object() for _ in comms]
        got = [None] * 3

        def rank(r):
            got[r] = comms[r]._kernel.share("s", objects[r], root=2)

        threads = [threading.Thread(target=rank, args=(r,)) for r in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert all(g is objects[2] for g in got)


class TestBufferPath:
    def test_send_recv_buffer(self):
        a, b = create_group(2)
        a.Send(np.arange(8, dtype=np.float64), dest=1)
        buf = np.zeros(8)
        b.Recv(buf, source=0)
        np.testing.assert_array_equal(buf, np.arange(8))

    def test_recv_buffer_too_small(self):
        a, b = create_group(2)
        a.Send(np.arange(8), dest=1)
        with pytest.raises(ValueError):
            b.Recv(np.zeros(4), source=0)


def run(n, body, **kw):
    return spmd_run(n, body, **kw)


class TestCollectives:
    def test_barrier_all_arrive(self):
        counter = []

        def body(ctx):
            counter.append(ctx.rank)
            ctx.comm.barrier()
            return len(counter)

        # Only threads share the list, whatever PARDIS_RTS says.
        results = run(4, body, backend="thread")
        # After the barrier every rank saw all arrivals.
        assert all(r == 4 for r in results)

    def test_bcast(self):
        def body(ctx):
            value = {"data": 99} if ctx.rank == 1 else None
            return ctx.comm.bcast(value, root=1)

        assert run(3, body) == [{"data": 99}] * 3

    def test_bcast_isolates_between_ranks(self):
        def body(ctx):
            value = ctx.comm.bcast([0], root=0)
            value.append(ctx.rank)
            return value

        results = run(3, body)
        assert sorted(results) == [[0, 0], [0, 1], [0, 2]]

    def test_scatter(self):
        def body(ctx):
            items = [i * i for i in range(ctx.size)] if ctx.rank == 0 else None
            return ctx.comm.scatter(items, root=0)

        assert run(4, body) == [0, 1, 4, 9]

    def test_scatter_wrong_count(self):
        def body(ctx):
            items = [1] if ctx.rank == 0 else None
            return ctx.comm.scatter(items, root=0)

        with pytest.raises(Exception):
            run(3, body)

    def test_gather(self):
        def body(ctx):
            return ctx.comm.gather(ctx.rank * 10, root=2)

        results = run(3, body)
        assert results[0] is None and results[1] is None
        assert results[2] == [0, 10, 20]

    def test_allgather(self):
        def body(ctx):
            return ctx.comm.allgather(chr(ord("a") + ctx.rank))

        assert run(3, body) == [["a", "b", "c"]] * 3

    def test_alltoall(self):
        def body(ctx):
            return ctx.comm.alltoall(
                [f"{ctx.rank}->{j}" for j in range(ctx.size)]
            )

        results = run(3, body)
        assert results[1] == ["0->1", "1->1", "2->1"]

    def test_alltoall_wrong_count(self):
        def body(ctx):
            return ctx.comm.alltoall([0])

        with pytest.raises(Exception):
            run(2, body)

    def test_reduce_sum(self):
        def body(ctx):
            return ctx.comm.reduce(ctx.rank + 1, op=SUM, root=0)

        assert run(4, body)[0] == 10

    def test_allreduce_ops(self):
        def body(ctx):
            return (
                ctx.comm.allreduce(ctx.rank + 1, op=PROD),
                ctx.comm.allreduce(ctx.rank, op=MAX),
                ctx.comm.allreduce(ctx.rank, op=MIN),
            )

        assert run(3, body) == [(6, 2, 0)] * 3

    def test_allreduce_numpy(self):
        def body(ctx):
            return ctx.comm.allreduce(np.full(3, ctx.rank), op=SUM)

        for result in run(3, body):
            np.testing.assert_array_equal(result, [3, 3, 3])

    def test_root_validation(self):
        def body(ctx):
            ctx.comm.bcast(1, root=9)

        with pytest.raises(Exception):
            run(2, body)

    def test_back_to_back_collectives_do_not_interfere(self):
        def body(ctx):
            out = []
            for i in range(50):
                out.append(ctx.comm.allreduce(ctx.rank + i))
            return out

        results = run(4, body)
        expected = [6 + 4 * i for i in range(50)]
        assert all(r == expected for r in results)

    def test_single_rank_group(self):
        def body(ctx):
            ctx.comm.barrier()
            assert ctx.comm.bcast("v", root=0) == "v"
            assert ctx.comm.gather(5, root=0) == [5]
            assert ctx.comm.allreduce(3) == 3
            return "ok"

        assert run(1, body) == ["ok"]


class TestFailureModes:
    def test_collective_mismatch_detected(self):
        def body(ctx):
            if ctx.rank == 0:
                ctx.comm.bcast(1, root=0)
            else:
                ctx.comm.barrier()

        with pytest.raises(Exception) as excinfo:
            run(2, body)
        assert "CollectiveMismatch" in str(excinfo.value) or isinstance(
            excinfo.value, CollectiveMismatchError
        )

    def test_abort_wakes_blocked_receivers(self):
        def body(ctx):
            if ctx.rank == 0:
                ctx.comm.abort("injected failure")
                return "aborted"
            with pytest.raises(GroupAbortedError):
                ctx.comm.recv(source=0, timeout=10)
            return "released"

        assert run(2, body) == ["aborted", "released"]

    def test_peer_exception_unblocks_group(self):
        def body(ctx):
            if ctx.rank == 0:
                raise RuntimeError("rank zero exploded")
            ctx.comm.recv(source=0, timeout=30)

        with pytest.raises(Exception) as excinfo:
            run(2, body)
        assert "rank zero exploded" in str(excinfo.value)

    def test_polling_request_sees_abort(self):
        def body(ctx):
            if ctx.rank == 0:
                ctx.comm.abort("injected failure")
                return "aborted"
            request = ctx.comm.irecv(source=0)
            deadline = time.monotonic() + 2
            with pytest.raises(GroupAbortedError):
                while time.monotonic() < deadline:
                    request.test()
                    time.sleep(0.005)
            return "released"

        assert run(2, body) == ["aborted", "released"]

    def test_send_after_abort_raises(self):
        a, b = create_group(2)
        a.abort("gone")
        with pytest.raises(GroupAbortedError):
            b.send(1, dest=0)


@pytest.mark.parametrize("rts_backend", ["process"], indirect=True)
class TestCollectivesOnProcesses(TestCollectives):
    """The same contract on the process kernel."""

    test_barrier_all_arrive = None  # its shared list needs threads


@pytest.mark.parametrize("rts_backend", ["process"], indirect=True)
class TestFailureModesOnProcesses(TestFailureModes):
    """The same contract on the process kernel."""

    test_send_after_abort_raises = None  # drives a thread group by hand
