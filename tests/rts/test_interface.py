"""Tests for the RTS interface gather/scatter used by the ORB."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist import BlockTemplate, Layout, Proportions, transfer_schedule
from repro.rts import MessagePassingRTS, spmd_run


def gather_all(nranks, layout, data):
    """Run gather_chunks over an SPMD group; return root's assembly."""
    steps = transfer_schedule(layout, Layout(((0, layout.length),)))

    def body(ctx):
        rts = MessagePassingRTS(ctx.comm)
        lo, hi = layout.local_range(ctx.rank)
        local = data[lo:hi].copy()
        return rts.gather_chunks(local, steps, root=0, out=None)

    return spmd_run(nranks, body)


def scatter_all(nranks, layout, data):
    """Run scatter_chunks; return the per-rank blocks."""
    steps = transfer_schedule(Layout(((0, layout.length),)), layout)

    def body(ctx):
        rts = MessagePassingRTS(ctx.comm)
        out = np.zeros(layout.local_length(ctx.rank), dtype=data.dtype)
        full = data.copy() if ctx.rank == 0 else None
        rts.scatter_chunks(full, steps, root=0, out=out)
        return out

    return spmd_run(nranks, body)


class TestGatherScatter:
    def test_gather_assembles_on_root_only(self):
        layout = BlockTemplate(4).layout(10)
        data = np.arange(10, dtype=np.float64)
        results = gather_all(4, layout, data)
        np.testing.assert_array_equal(results[0], data)
        assert results[1] is None and results[2] is None

    def test_gather_into_preallocated_buffer(self):
        layout = BlockTemplate(2).layout(6)
        data = np.arange(6, dtype=np.float64)
        steps = transfer_schedule(layout, Layout(((0, 6),)))

        def body(ctx):
            rts = MessagePassingRTS(ctx.comm)
            lo, hi = layout.local_range(ctx.rank)
            out = np.zeros(6) if ctx.rank == 0 else None
            result = rts.gather_chunks(data[lo:hi].copy(), steps, 0, out)
            return result is out if ctx.rank == 0 else True

        assert all(spmd_run(2, body))

    def test_a_root_allocates_only_for_a_schedule_that_writes_it_all(self):
        """Without ``out`` the root lands the gather in uninitialised
        memory, sound only because the steps tile ``[0, total)``."""
        from repro.rts.interface import gather_target

        steps = transfer_schedule(
            BlockTemplate(3).layout(10), Layout(((0, 10),))
        )
        assert gather_target(steps, np.float64).shape == (10,)
        assert gather_target([], np.float64).shape == (0,)
        with pytest.raises(AssertionError, match="gap"):
            gather_target(steps[1:], np.float64)
        with pytest.raises(AssertionError, match="gap"):
            gather_target([steps[0], steps[2]], np.float64)

    def test_scatter_distributes_blocks(self):
        layout = Proportions(1, 3, 2).layout(12)
        data = np.arange(12, dtype=np.float64)
        blocks = scatter_all(3, layout, data)
        cursor = 0
        for r, block in enumerate(blocks):
            n = layout.local_length(r)
            np.testing.assert_array_equal(block, data[cursor : cursor + n])
            cursor += n

    def test_broadcast_and_synchronize(self):
        def body(ctx):
            rts = MessagePassingRTS(ctx.comm)
            rts.synchronize()
            return rts.broadcast("header" if ctx.rank == 1 else None, root=1)

        assert spmd_run(3, body) == ["header"] * 3

    def test_rank_size_passthrough(self):
        def body(ctx):
            rts = MessagePassingRTS(ctx.comm)
            return (rts.rank, rts.size)

        assert spmd_run(2, body) == [(0, 2), (1, 2)]

    @given(
        nranks=st.integers(1, 5),
        weights=st.lists(st.integers(0, 7), min_size=1, max_size=5).filter(
            lambda w: any(w)
        ),
        length=st.integers(0, 100),
    )
    @settings(max_examples=25, deadline=None)
    def test_gather_scatter_roundtrip(self, nranks, weights, length):
        weights = (weights * nranks)[:nranks]
        if not any(weights):
            weights[0] = 1
        layout = Proportions(*weights).layout(length)
        data = np.arange(length, dtype=np.float64) * 3
        gathered = gather_all(nranks, layout, data)[0]
        if length:
            np.testing.assert_array_equal(gathered, data)
        blocks = scatter_all(nranks, layout, data)
        reassembled = (
            np.concatenate(blocks) if blocks else np.zeros(0)
        )
        np.testing.assert_array_equal(reassembled, data)
