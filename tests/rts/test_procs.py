"""Tests for the process RTS backend (ranks as processes, shm plane)."""

import os

import numpy as np
import pytest

from repro.dist import BlockTemplate, Layout, transfer_schedule
from repro.rts import (
    DeadlockError,
    SpmdExecutor,
    process_backend_supported,
    rts_for,
    spawn_spmd,
    spmd_run,
)
from repro.rts.backends import ENV_VAR
from repro.rts.executor import SpmdError
from repro.rts.procs import RankDiedError
from repro.rts.shm import SHM_THRESHOLD, ShmArray

pytestmark = pytest.mark.skipif(
    not process_backend_supported(),
    reason="process RTS backend needs the fork start method",
)


def prun(nranks, fn, *args, **kw):
    kw.setdefault("backend", "process")
    return spmd_run(nranks, fn, *args, **kw)


class TestLauncher:
    def test_ranks_are_distinct_processes(self):
        pids = prun(3, lambda ctx: os.getpid())
        assert len(set(pids)) == 3
        assert os.getpid() not in pids

    def test_results_in_rank_order_with_closures(self):
        base = 7  # closures work because ranks are forked, not spawned

        def body(ctx):
            return base + ctx.rank

        assert prun(4, body) == [7, 8, 9, 10]

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "process")
        pids = spmd_run(2, lambda ctx: os.getpid())
        assert os.getpid() not in pids

    def test_spawn_spmd_handle(self):
        handle = spawn_spmd(lambda ctx: ctx.rank * 2, 3, backend="process")
        assert handle.join(30) == [0, 2, 4]
        assert not handle.alive()
        assert len(set(handle.pids)) == 3

    def test_rank_args(self):
        exe = SpmdExecutor(2, backend="process")
        assert exe.run(
            lambda ctx, s: s * (ctx.rank + 1), rank_args=[("x",), ("y",)]
        ) == ["x", "yy"]

    def test_exception_carries_rank_and_type(self):
        def body(ctx):
            if ctx.rank == 1:
                raise ValueError("broken rank")
            ctx.comm.barrier()

        with pytest.raises(SpmdError) as excinfo:
            prun(3, body)
        assert set(excinfo.value.failures) == {1}
        assert isinstance(excinfo.value.failures[1], ValueError)

    def test_unpicklable_result_reports_cleanly(self):
        def body(ctx):
            return lambda: None  # lambdas cannot cross the uplink

        with pytest.raises(SpmdError) as excinfo:
            prun(2, body)
        assert "pickled" in str(excinfo.value)

    def test_abort_releases_blocked_ranks(self):
        handle = spawn_spmd(
            lambda ctx: ctx.comm.recv(source=ctx.rank, timeout=30),
            2,
            backend="process",
        )
        handle.abort("test shutdown")
        with pytest.raises(SpmdError):
            handle.join(15)

    def test_rank_death_detected_not_hung(self):
        def body(ctx):
            if ctx.rank == 1:
                os._exit(13)
            ctx.comm.barrier()

        with pytest.raises(SpmdError) as excinfo:
            prun(2, body)
        assert isinstance(excinfo.value.failures[1], RankDiedError)
        assert "13" in str(excinfo.value.failures[1])


class TestProcessKernel:
    """What only the process kernel does: shm shipping, isolation by
    the pipe, contexts for ``dup``.  The communicator contract proper
    runs on both kernels from ``test_mpi``."""

    def test_tagged_p2p_with_wildcards(self):
        def body(ctx):
            if ctx.rank == 0:
                ctx.comm.send("a", dest=1, tag=5)
                ctx.comm.send("b", dest=1, tag=9)
                return None
            status = {}
            first = ctx.comm.recv(source=0, tag=9, status=status)
            second = ctx.comm.recv()
            return (first, status["tag"], second)

        assert prun(2, body)[1] == ("b", 9, "a")

    def test_large_payload_ships_via_shm(self):
        n = (SHM_THRESHOLD // 8) * 4

        def body(ctx):
            if ctx.rank == 0:
                ctx.comm.send(np.arange(n, dtype=np.float64), dest=1)
                return True
            got = ctx.comm.recv(source=0)
            return bool((got == np.arange(n, dtype=np.float64)).all())

        assert prun(2, body) == [True, True]

    def test_send_isolation(self):
        def body(ctx):
            arr = np.zeros(4)
            if ctx.rank == 0:
                ctx.comm.send(arr, dest=1)
                arr[:] = 99.0  # must not reach the receiver
                ctx.comm.barrier()
                return True
            got = ctx.comm.recv(source=0)
            ctx.comm.barrier()
            return float(got.sum()) == 0.0

        assert all(prun(2, body))

    def test_irecv_and_probe(self):
        def body(ctx):
            if ctx.rank == 0:
                req = ctx.comm.irecv(source=1, tag=3)
                done, _ = req.test()
                ctx.comm.barrier()
                value = req.wait(timeout=10)
                return value
            ctx.comm.send(41, dest=0, tag=3)
            ctx.comm.barrier()
            return None

        assert prun(2, body)[0] == 41

    def test_buffer_send_recv(self):
        def body(ctx):
            if ctx.rank == 0:
                ctx.comm.Send(np.arange(8, dtype=np.int64), dest=1)
                return None
            buf = np.zeros(8, dtype=np.int64)
            ctx.comm.Recv(buf, source=0)
            return int(buf.sum())

        assert prun(2, body)[1] == 28

    def test_dup_separates_traffic(self):
        def body(ctx):
            other = ctx.comm.dup("aux")
            if ctx.rank == 0:
                ctx.comm.send("base", dest=1, tag=1)
                other.send("aux", dest=1, tag=1)
                return None
            # The dup'd comm must only see the dup'd send.
            aux = other.recv(source=0, tag=1, timeout=10)
            base = ctx.comm.recv(source=0, tag=1, timeout=10)
            return (base, aux)

        assert prun(2, body)[1] == ("base", "aux")

    def test_recv_timeout_is_deadlock_error(self):
        def body(ctx):
            with pytest.raises(DeadlockError):
                ctx.comm.recv(source=ctx.rank ^ 1, timeout=0.2)
            return True

        assert all(prun(2, body))


class TestProcessRTSDataPlane:
    def test_rts_for_selects_shm_plane(self):
        """Behaviour, not a class name: on process ranks the kernel
        exposes a segment, and the gather root's result is its leased
        view."""
        steps = transfer_schedule(
            BlockTemplate(2).layout(8), Layout(((0, 8),))
        )

        def body(ctx):
            full = rts_for(ctx.comm).gather_chunks(
                np.zeros(4), steps, root=0, out=None
            )
            return type(full).__name__

        assert prun(2, body) == ["ShmArray", "NoneType"]

    def test_gather_root_gets_zero_copy_view(self):
        layout = BlockTemplate(4).layout(1 << 16)
        steps = transfer_schedule(layout, Layout(((0, layout.length),)))

        def body(ctx):
            rts = rts_for(ctx.comm)
            lo, hi = layout.local_range(ctx.rank)
            local = np.arange(lo, hi, dtype=np.float64)
            full = rts.gather_chunks(local, steps, root=0, out=None)
            if ctx.rank != 0:
                return full is None
            # The root's result is a view into the pooled segment, not
            # a pickled copy: it arrives as the leased-array subclass.
            return (
                isinstance(full, ShmArray)
                and bool(
                    (np.asarray(full)
                     == np.arange(layout.length, dtype=np.float64)).all()
                )
            )

        assert all(prun(4, body))

    def test_gather_into_out_buffer(self):
        layout = BlockTemplate(2).layout(1 << 15)
        steps = transfer_schedule(layout, Layout(((0, layout.length),)))

        def body(ctx):
            rts = rts_for(ctx.comm)
            lo, hi = layout.local_range(ctx.rank)
            out = np.zeros(layout.length) if ctx.rank == 0 else None
            result = rts.gather_chunks(
                np.full(hi - lo, float(ctx.rank)), steps, 0, out
            )
            if ctx.rank != 0:
                return True
            return result is out and float(out.sum()) == float(
                layout.local_length(1)
            )

        assert all(prun(2, body))

    def test_scatter_chunks(self):
        layout = BlockTemplate(3).layout(1 << 15)
        steps = transfer_schedule(Layout(((0, layout.length),)), layout)
        data = np.arange(layout.length, dtype=np.float64)

        def body(ctx):
            rts = rts_for(ctx.comm)
            out = np.zeros(layout.local_length(ctx.rank))
            rts.scatter_chunks(
                data if ctx.rank == 0 else None, steps, 0, out
            )
            lo, hi = layout.local_range(ctx.rank)
            return bool((out == data[lo:hi]).all())

        assert all(prun(3, body))

    def test_broadcast_large_array_through_shm(self):
        payload = np.arange(1 << 16, dtype=np.float64)

        def body(ctx):
            rts = rts_for(ctx.comm)
            got = rts.broadcast(payload if ctx.rank == 2 else None, root=2)
            return bool((np.asarray(got) == payload).all())

        assert all(prun(3, body))

    def test_segments_are_pooled_and_reused(self):
        layout = BlockTemplate(2).layout(1 << 15)
        to_root = transfer_schedule(layout, Layout(((0, layout.length),)))
        from_root = transfer_schedule(Layout(((0, layout.length),)), layout)

        def pool_stats(body):
            handle = spawn_spmd(body, 2, backend="process")
            handle.join(60)
            return handle.shm_stats()

        def gathers(ctx):
            rts = rts_for(ctx.comm)
            lo, hi = layout.local_range(ctx.rank)
            out = np.zeros(layout.length) if ctx.rank == 0 else None
            for _ in range(6):
                rts.gather_chunks(np.ones(hi - lo), to_root, 0, out)

        stats = pool_stats(gathers)
        assert stats["reused"] >= 4
        assert stats["allocated"] >= 1

        def scatters(ctx):
            # No other collective between them: a scatter's segment
            # goes back to the pool when the root's next collective —
            # the next scatter's exposure — completes.
            rts = rts_for(ctx.comm)
            full = np.ones(layout.length) if ctx.rank == 0 else None
            for _ in range(6):
                rts.scatter_chunks(full, from_root, 0)

        stats = pool_stats(scatters)
        assert stats["reused"] >= 4
        assert stats["allocated"] <= 2


class TestBackendIdentity:
    def test_rank_context_inside_process_rank(self):
        from repro.rts import backends

        def body(ctx):
            info = backends.current_context()
            return (info["backend"], info["rank"], info["size"])

        assert prun(2, body) == [("process", 0, 2), ("process", 1, 2)]

    def test_orb_stats_rts_section(self):
        from repro.core import ORB

        with ORB("rts-stats") as orb:
            section = orb.stats()["rts"]
        assert section["backend"] in ("thread", "process")
        assert section["rank"] == 0
        assert {"allocated", "reused", "freed", "active"} <= set(
            section["shm"]
        )

    def test_spans_tagged_with_backend(self):
        from repro.trace import TraceRecorder

        def body(ctx):
            trace = TraceRecorder()
            with trace.begin("invoke", rank=ctx.rank):
                pass
            (span,) = trace.spans()
            return span.attrs.get("rts")

        assert prun(2, body) == ["process", "process"]
        assert spmd_run(2, body, backend="thread") == ["thread", "thread"]
