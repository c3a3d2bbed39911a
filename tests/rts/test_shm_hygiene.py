"""Shared-memory hygiene: no segment outlives its SPMD group.

The acceptance bar from ISSUE 7: zero leaked ``/dev/shm`` entries
after any process-backend run — normal completion, application error,
abort, a rank SIGKILLed mid-gather or mid-scatter (driven by the
seeded fault-injection schedule, so the kill point is reproducible),
and a handle dropped without ``join``.
"""

import gc
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.dist import BlockTemplate, Layout, transfer_schedule
from repro.ft import FaultSchedule
from repro.rts import process_backend_supported, rts_for, spawn_spmd
from repro.rts.executor import SpmdError
from repro.rts.procs import RankDiedError
from repro.rts.shm import NAME_PREFIX, leaked_segments

pytestmark = pytest.mark.skipif(
    not process_backend_supported(),
    reason="process RTS backend needs the fork start method",
)


def _pardis_segments():
    return [
        n for n in leaked_segments() if n.startswith(NAME_PREFIX)
    ]


def _gather_body(ctx):
    layout = BlockTemplate(ctx.size).layout(1 << 16)
    steps = transfer_schedule(layout, Layout(((0, layout.length),)))
    rts = rts_for(ctx.comm)
    local = np.full(
        layout.local_length(ctx.rank), float(ctx.rank)
    )
    for _ in range(3):
        rts.gather_chunks(local, steps, root=0, out=None)
    rts.synchronize()
    return True


def _lend_body(ctx):
    layout = BlockTemplate(ctx.size).layout(1 << 16)
    steps = transfer_schedule(layout, Layout(((0, layout.length),)))
    rts = rts_for(ctx.comm)
    local = np.full(layout.local_length(ctx.rank), float(ctx.rank))
    for _ in range(3):
        rts.gather_views(local, steps, root=0)
        rts.synchronize()
    return True


class TestHygiene:
    def test_clean_run_leaves_no_segments(self):
        handle = spawn_spmd(_gather_body, 3, backend="process")
        assert all(handle.join(60))
        assert _pardis_segments() == []

    def test_failed_run_leaves_no_segments(self):
        def body(ctx):
            _gather_body(ctx)
            if ctx.rank == 1:
                raise RuntimeError("late failure")
            ctx.comm.barrier()

        handle = spawn_spmd(body, 3, backend="process")
        with pytest.raises(SpmdError):
            handle.join(60)
        assert _pardis_segments() == []

    def test_killed_rank_swept_by_parent(self):
        # A seeded fault schedule decides which send gets the SIGKILL,
        # so the kill lands mid-gather at a reproducible point while
        # pooled segments are checked out and registered.
        def body(ctx):
            faults = FaultSchedule(
                seed=1234, drop=0.4, kinds=("request",), start_after=2
            )
            layout = BlockTemplate(ctx.size).layout(1 << 16)
            steps = transfer_schedule(
                layout, Layout(((0, layout.length),))
            )
            rts = rts_for(ctx.comm)
            local = np.zeros(layout.local_length(ctx.rank))
            for _ in range(16):
                if ctx.rank == 1 and "drop" in faults.decide("request"):
                    # Die without any cleanup, segments still live.
                    os.kill(os.getpid(), signal.SIGKILL)
                rts.gather_chunks(local, steps, root=0, out=None)
            return True

        handle = spawn_spmd(body, 3, backend="process")
        with pytest.raises(SpmdError) as excinfo:
            handle.join(90)
        assert isinstance(excinfo.value.failures[1], RankDiedError)
        assert _pardis_segments() == []

    def test_lent_segments_leave_with_the_group(self):
        handle = spawn_spmd(_lend_body, 3, backend="process")
        assert all(handle.join(60))
        assert _pardis_segments() == []

    def test_peer_killed_mid_lend_swept_by_parent(self):
        # A peer's lent segment stays checked out until its next
        # collective: a seeded kill between lends leaves one lent and
        # one back in the pool, both for the parent to sweep.
        def body(ctx):
            faults = FaultSchedule(
                seed=2468, drop=0.4, kinds=("request",), start_after=2
            )
            layout = BlockTemplate(ctx.size).layout(1 << 16)
            steps = transfer_schedule(
                layout, Layout(((0, layout.length),))
            )
            rts = rts_for(ctx.comm)
            local = np.zeros(layout.local_length(ctx.rank))
            for _ in range(16):
                if ctx.rank == 1 and "drop" in faults.decide("request"):
                    os.kill(os.getpid(), signal.SIGKILL)
                rts.gather_views(local, steps, root=0)
            return True

        handle = spawn_spmd(body, 3, backend="process")
        with pytest.raises(SpmdError) as excinfo:
            handle.join(90)
        assert isinstance(excinfo.value.failures[1], RankDiedError)
        assert _pardis_segments() == []

    def test_root_killed_mid_scatter_swept_by_parent(self):
        # The scatter root holds the segments it exposed until its next
        # collective: a seeded kill between scatters leaves one checked
        # out and one in the pool, both for the parent to sweep.
        def body(ctx):
            faults = FaultSchedule(
                seed=4321, drop=0.4, kinds=("request",), start_after=2
            )
            layout = BlockTemplate(ctx.size).layout(1 << 16)
            steps = transfer_schedule(
                Layout(((0, layout.length),)), layout
            )
            rts = rts_for(ctx.comm)
            full = np.zeros(layout.length) if ctx.rank == 0 else None
            for _ in range(16):
                if ctx.rank == 0 and "drop" in faults.decide("request"):
                    os.kill(os.getpid(), signal.SIGKILL)
                rts.scatter_chunks(full, steps, root=0)
            return True

        handle = spawn_spmd(body, 3, backend="process")
        with pytest.raises(SpmdError) as excinfo:
            handle.join(90)
        assert isinstance(excinfo.value.failures[0], RankDiedError)
        assert _pardis_segments() == []

    def test_abort_mid_transfer_leaves_no_segments(self):
        def body(ctx):
            while True:
                _gather_body(ctx)

        handle = spawn_spmd(body, 2, backend="process")
        handle.abort("hygiene test")
        with pytest.raises(SpmdError):
            handle.join(60)
        assert _pardis_segments() == []

    def test_dropped_handle_swept_by_finalizer(self):
        # Every rank registers pooled segments, then blocks for good:
        # nobody joins, so the names sit unread in the uplinks until
        # the handle's finalizer runs.
        def body(ctx):
            _gather_body(ctx)
            threading.Event().wait()

        handle = spawn_spmd(body, 2, backend="process")
        pids = handle.pids
        deadline = time.monotonic() + 60
        while not _pardis_segments():
            assert time.monotonic() < deadline, "no segment registered"
            time.sleep(0.01)
        del handle
        gc.collect()
        assert _pardis_segments() == []
        assert [pid for pid in pids if _running(pid)] == []


def _running(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True
