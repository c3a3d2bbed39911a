"""Tests for the SPMD executor."""

import multiprocessing
import time

import pytest

from repro.rts import SpmdExecutor, spmd_run
from repro.rts.executor import SpmdError


class TestSpmdRun:
    def test_results_in_rank_order(self):
        assert spmd_run(4, lambda ctx: ctx.rank**2) == [0, 1, 4, 9]

    def test_context_fields(self):
        def body(ctx):
            assert ctx.comm.rank == ctx.rank
            assert ctx.comm.size == ctx.size
            return ctx.size

        assert spmd_run(3, body) == [3, 3, 3]

    def test_extra_args(self):
        def body(ctx, base, scale):
            return base + scale * ctx.rank

        assert spmd_run(3, body, 100, 10) == [100, 110, 120]

    def test_rank_args(self):
        exe = SpmdExecutor(3)
        results = exe.run(
            lambda ctx, letter: letter * (ctx.rank + 1),
            rank_args=[("a",), ("b",), ("c",)],
        )
        assert results == ["a", "bb", "ccc"]

    def test_rank_args_length_checked(self):
        with pytest.raises(ValueError):
            SpmdExecutor(3).run(lambda ctx, x: x, rank_args=[(1,)])

    def test_zero_ranks_rejected(self):
        with pytest.raises(ValueError):
            SpmdExecutor(0)

    def test_exception_propagates_with_rank(self):
        def body(ctx):
            if ctx.rank == 2:
                raise ValueError("bad rank")
            return ctx.rank

        with pytest.raises(SpmdError) as excinfo:
            spmd_run(4, body)
        assert "rank 2" in str(excinfo.value)
        assert isinstance(excinfo.value.failures[2], ValueError)

    def test_peer_abort_not_reported_as_primary(self):
        # Rank 0 raises; others die of GroupAbortedError while blocked.
        def body(ctx):
            if ctx.rank == 0:
                raise RuntimeError("primary")
            ctx.comm.barrier()

        with pytest.raises(SpmdError) as excinfo:
            spmd_run(3, body)
        assert set(excinfo.value.failures) == {0}


class TestSpawn:
    def test_detached_group_join(self):
        exe = SpmdExecutor(2, name="detached")
        handle = exe.spawn(lambda ctx: ctx.rank + 1)
        assert handle.join(5) == [1, 2]
        assert not handle.alive()

    def test_join_timeout(self):
        released = multiprocessing.Event()  # reaches forked ranks too

        def body(ctx):
            if ctx.rank == 0:
                released.wait(10)

        handle = SpmdExecutor(2).spawn(body)
        with pytest.raises(TimeoutError):
            handle.join(0.05)
        released.set()
        handle.join(10)

    def test_one_join_timeout_bounds_the_whole_group(self):
        """Rank 0 ends at 0.3 s and rank 1 at 0.6 s: a join of 0.4 s
        times out, rather than giving each rank its own 0.4 s."""

        def body(ctx):
            time.sleep(0.3 * (ctx.rank + 1))

        handle = SpmdExecutor(2).spawn(body)
        with pytest.raises(TimeoutError):
            handle.join(0.4)
        handle.join(10)

    def test_abort_releases_blocked_group(self):
        def body(ctx):
            ctx.comm.recv(source=ctx.rank, timeout=30)

        handle = SpmdExecutor(2).spawn(body)
        handle.abort("test shutdown")
        with pytest.raises(SpmdError):
            handle.join(5)
