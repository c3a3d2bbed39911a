"""The RTS interface gather/scatter used by the ORB — one
``RuntimeSystem`` over each backend's kernel (``rts_for``): the thread
kernel exposes the root's array itself, the process kernel a
shared-memory segment."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdr.accounting import copy_audit
from repro.dist import BlockTemplate, Layout, Proportions, transfer_schedule
from repro.rts import GroupAbortedError, RuntimeSystem, rts_for, spmd_run
from repro.rts.executor import SpmdError


def gather_all(nranks, layout, data):
    """Run gather_chunks over an SPMD group; return root's assembly."""
    steps = transfer_schedule(layout, Layout(((0, layout.length),)))

    def body(ctx):
        rts = rts_for(ctx.comm)
        lo, hi = layout.local_range(ctx.rank)
        local = data[lo:hi].copy()
        return rts.gather_chunks(local, steps, root=0, out=None)

    return spmd_run(nranks, body)


def scatter_all(nranks, layout, data):
    """Run scatter_chunks into caller-provided blocks; return them."""
    steps = transfer_schedule(Layout(((0, layout.length),)), layout)

    def body(ctx):
        rts = rts_for(ctx.comm)
        out = np.zeros(layout.local_length(ctx.rank), dtype=data.dtype)
        full = data.copy() if ctx.rank == 0 else None
        assert rts.scatter_chunks(full, steps, root=0, out=out) is out
        return out

    return spmd_run(nranks, body)


def thread_ranks_only(rts_backend):
    if rts_backend == "process":
        pytest.skip("exposing the root's array itself is between threads")


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
            rts = rts_for(ctx.comm)
            lo, hi = layout.local_range(ctx.rank)
            out = np.zeros(6) if ctx.rank == 0 else None
            result = rts.gather_chunks(data[lo:hi].copy(), steps, 0, out)
            return result is out if ctx.rank == 0 else True

        assert all(spmd_run(2, body))

    def test_a_gather_into_a_longer_out_fills_only_its_prefix(self):
        layout = Proportions(2, 1).layout(9)
        data = np.arange(9, dtype=np.float64)
        steps = transfer_schedule(layout, Layout(((0, 9),)))

        def body(ctx):
            lo, hi = layout.local_range(ctx.rank)
            out = np.full(12, -1.0) if ctx.rank == 0 else None
            result = rts_for(ctx.comm).gather_chunks(
                data[lo:hi].copy(), steps, 0, out
            )
            return None if out is None else (result is out, out.tolist())

        assert spmd_run(2, body) == [
            (True, data.tolist() + [-1.0] * 3),
            None,
        ]

    def test_a_leased_gather_result_outlives_later_collectives(self):
        """The root keeps the buffer a gather handed it: scatters and
        gathers after it recycle only buffers no rank holds."""
        layout = BlockTemplate(2).layout(1 << 13)
        to_root = transfer_schedule(layout, Layout(((0, layout.length),)))
        from_root = transfer_schedule(Layout(((0, layout.length),)), layout)
        data = np.arange(layout.length, dtype=np.float64)

        def body(ctx):
            rts = rts_for(ctx.comm)
            lo, hi = layout.local_range(ctx.rank)
            first = rts.gather_chunks(data[lo:hi].copy(), to_root, 0, None)
            for k in range(3):
                full = -data if ctx.rank == 0 else None
                rts.scatter_chunks(full, from_root, 0)
                rts.gather_chunks(data[lo:hi] * k, to_root, 0, None)
            return None if first is None else bool((first == data).all())

        assert spmd_run(2, body) == [True, None]

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

    def test_scatter_without_out_returns_each_rank_s_block(self):
        layout = Proportions(2, 0, 1, 3).layout(12)
        data = np.arange(12, dtype=np.int32)
        steps = transfer_schedule(Layout(((0, 12),)), layout)

        def body(ctx):
            full = data.copy() if ctx.rank == 0 else None
            return rts_for(ctx.comm).scatter_chunks(full, steps, 0)

        blocks = spmd_run(4, body)
        for r, block in enumerate(blocks):
            lo, hi = layout.local_range(r)
            assert block.dtype == np.int32
            np.testing.assert_array_equal(block, data[lo:hi])

    def test_broadcast_and_synchronize(self):
        def body(ctx):
            rts = rts_for(ctx.comm)
            rts.synchronize()
            return rts.broadcast("header" if ctx.rank == 1 else None, root=1)

        assert spmd_run(3, body) == ["header"] * 3

    def test_a_bulk_broadcast_lands_a_private_copy_on_every_rank(self):
        """``broadcast`` is the communicator's ``bcast`` on both
        kernels, for an array above the shared-memory threshold too."""
        data = np.arange(1 << 13, dtype=np.float64)

        def body(ctx):
            rts = rts_for(ctx.comm)
            got = rts.broadcast(data.copy() if ctx.rank == 1 else None, 1)
            got += ctx.rank
            rts.synchronize()
            return bool((got == data + ctx.rank).all())

        assert spmd_run(3, body) == [True] * 3

    def test_a_scatter_leaves_without_a_closing_barrier(self):
        """Rank 2 lands its block only once rank 1 has come back from
        the same scatter: a closing barrier would hold rank 1 there."""
        layout = BlockTemplate(3).layout(30)
        data = np.arange(30, dtype=np.float64)
        steps = transfer_schedule(Layout(((0, 30),)), layout)

        def body(ctx):
            out = np.zeros(layout.local_length(ctx.rank))
            if ctx.rank == 2:
                out = out.view(_WaitsForRank1)
                out.comm = ctx.comm
            full = data.copy() if ctx.rank == 0 else None
            rts_for(ctx.comm).scatter_chunks(full, steps, 0, out)
            if ctx.rank == 1:
                ctx.comm.send("back", dest=2, tag=7)
            return np.array(out)

        blocks = spmd_run(3, body, timeout=60.0)
        np.testing.assert_array_equal(np.concatenate(blocks), data)

    def test_rank_size_passthrough(self):
        def body(ctx):
            rts = rts_for(ctx.comm)
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

    def test_rts_for_serves_either_kernel(self, rts_backend):
        """One RuntimeSystem, whichever kernel carries the ranks: only
        how the root's buffer is exposed differs."""

        def body(ctx):
            rts = rts_for(ctx.comm)
            return type(rts) is RuntimeSystem, rts.comm.backend

        assert spmd_run(2, body) == [(True, rts_backend)] * 2


class TestIsolation:
    """Exposing a buffer must not let one rank see another's later
    writes: a gather copies every piece, a scatter of a read-only
    ``full`` gives every rank memory of its own."""

    def test_a_peer_mutating_its_local_after_gather_changes_nothing(self):
        layout = Proportions(1, 2, 1).layout(16)
        data = np.arange(16, dtype=np.float64)
        steps = transfer_schedule(layout, Layout(((0, 16),)))

        def body(ctx):
            rts = rts_for(ctx.comm)
            lo, hi = layout.local_range(ctx.rank)
            local = data[lo:hi].copy()
            result = rts.gather_chunks(local, steps, 0, None)
            local[:] = -1.0
            rts.synchronize()
            return None if result is None else result.copy()

        np.testing.assert_array_equal(spmd_run(3, body)[0], data)

    def test_a_read_only_full_scatters_into_private_memory(self):
        layout = Proportions(1, 3, 2).layout(12)
        data = np.arange(12, dtype=np.float64)
        steps = transfer_schedule(Layout(((0, 12),)), layout)

        def body(ctx):
            rts = rts_for(ctx.comm)
            full = None
            if ctx.rank == 0:
                full = data.copy()
                full.flags.writeable = False
            block = rts.scatter_chunks(full, steps, 0)
            lo, hi = layout.local_range(ctx.rank)
            np.testing.assert_array_equal(block, data[lo:hi])
            assert block.flags.writeable
            block[:] = -1.0 - ctx.rank
            rts.synchronize()
            if ctx.rank == 0:
                np.testing.assert_array_equal(full, data)
            return bool((block == -1.0 - ctx.rank).all())

        assert spmd_run(3, body) == [True] * 3


class TestAdoption:
    """Called without ``out``, a scatter of a ``full`` the root owns
    (writable and aligned) hands each thread rank a view of it."""

    def _scatter(self, layout, full):
        steps = transfer_schedule(Layout(((0, layout.length),)), layout)

        def body(ctx):
            rts = rts_for(ctx.comm)
            return rts.scatter_chunks(
                full if ctx.rank == 0 else None, steps, 0
            )

        return spmd_run(layout.nranks, body)

    def test_an_owned_full_becomes_disjoint_views(self, rts_backend):
        thread_ranks_only(rts_backend)
        layout = Proportions(2, 0, 3, 1).layout(24)
        data = np.arange(24, dtype=np.float64)
        full = data.copy()
        blocks = self._scatter(layout, full)
        for r, block in enumerate(blocks):
            lo, hi = layout.local_range(r)
            np.testing.assert_array_equal(block, data[lo:hi])
            assert np.shares_memory(block, full) == (hi > lo)
        for i, a in enumerate(blocks):
            for b in blocks[i + 1 :]:
                assert not np.shares_memory(a, b)
        assert len(blocks[1]) == 0
        # A servant's write lands in its own block only.
        blocks[2][:] = -7.0
        for r in (0, 3):
            lo, hi = layout.local_range(r)
            np.testing.assert_array_equal(blocks[r], data[lo:hi])

    def test_a_read_only_full_is_copied_once(self, rts_backend):
        thread_ranks_only(rts_backend)
        layout = BlockTemplate(3).layout(9)
        full = np.arange(9, dtype=np.float64)
        full.flags.writeable = False
        blocks = self._scatter(layout, full)
        for block in blocks:
            assert block.flags.writeable
            assert not np.shares_memory(block, full)
        np.testing.assert_array_equal(np.concatenate(blocks), full)


def copied_bytes(rts_backend, nranks, body):
    """The bytes the copy account saw while ``body`` ran on every rank.
    The account counts a whole process, so thread ranks share one
    audit, and each process rank audits itself and reports its count."""

    def audited(ctx):
        with copy_audit() as account:
            body(ctx)
        return account.snapshot()[0]

    if rts_backend == "process":
        return sum(spmd_run(nranks, audited))
    with copy_audit() as account:
        spmd_run(nranks, body)
    return account.snapshot()[0]


class TestCopyCount:
    """The RTS reports every copy it makes, and no adoption, on either
    kernel."""

    N = 1 << 16

    def _scatter_bytes(self, rts_backend, writable):
        layout = BlockTemplate(4).layout(self.N)
        steps = transfer_schedule(Layout(((0, self.N),)), layout)
        full = np.arange(self.N, dtype=np.float64)
        full.flags.writeable = writable

        def body(ctx):
            rts_for(ctx.comm).scatter_chunks(
                full if ctx.rank == 0 else None, steps, 0
            )

        return copied_bytes(rts_backend, 4, body), full.nbytes

    def test_an_adopting_scatter_counts_nothing(self, rts_backend):
        thread_ranks_only(rts_backend)
        assert self._scatter_bytes(rts_backend, writable=True)[0] == 0

    def test_a_read_only_scatter_counts_full_nbytes(self, rts_backend):
        """Every rank copies its block once; on process ranks the root
        first copies ``full`` into the segment its peers map."""
        counted, nbytes = self._scatter_bytes(rts_backend, writable=False)
        into_segment = nbytes if rts_backend == "process" else 0
        assert counted == into_segment + nbytes

    def test_an_owned_full_is_copied_by_process_peers_only(
        self, rts_backend
    ):
        """Thread ranks adopt views of the root's writable ``full``.  A
        process peer maps the root's segment read-only, so it copies its
        block, after the root copied ``full`` into the segment."""
        counted, nbytes = self._scatter_bytes(rts_backend, writable=True)
        peers = nbytes * 3 // 4
        assert counted == (nbytes + peers if rts_backend == "process" else 0)

    def test_a_gather_counts_every_element_once(self, rts_backend):
        layout = BlockTemplate(2).layout(self.N)
        steps = transfer_schedule(layout, Layout(((0, self.N),)))

        def body(ctx):
            lo, hi = layout.local_range(ctx.rank)
            local = np.arange(lo, hi, dtype=np.float64)
            rts_for(ctx.comm).gather_chunks(local, steps, 0, None)

        assert copied_bytes(rts_backend, 2, body) == self.N * 8


class TestGatherViews:
    """``gather_views``, the ORB's gather: the root gets every rank's
    pieces in place, through the kernel's ``lend`` — the peers' arrays
    themselves between threads, a segment of each peer's between
    processes."""

    N = 1 << 16

    @pytest.mark.parametrize(
        "nranks, template, length",
        [
            (3, BlockTemplate(3), 10),
            (4, Proportions(5, 0, 1, 3), 1001),  # an empty block
            (3, Proportions(0, 2, 1), 7),  # the root's block is empty
            (2, Proportions(1, 7), 0),  # nothing at all
            (4, Proportions(1, 1, 1, 1), 3),  # more ranks than elements
        ],
    )
    def test_the_views_tile_the_value_in_global_order(
        self, rts_backend, nranks, template, length
    ):
        layout = template.layout(length)
        data = np.arange(length, dtype=np.float64) * 1.5
        steps = transfer_schedule(layout, Layout(((0, length),)))

        def body(ctx):
            lo, hi = layout.local_range(ctx.rank)
            views = rts_for(ctx.comm).gather_views(
                data[lo:hi].copy(), steps, 0
            )
            if views is None:
                return None
            assert all(v.ndim == 1 for v in views)
            return len(views), np.concatenate([data[:0], *views])

        results = spmd_run(nranks, body)
        assert results[1:] == [None] * (nranks - 1)
        count, gathered = results[0]
        assert count == len(steps)
        np.testing.assert_array_equal(gathered, data)

    def test_a_gather_to_another_root(self, rts_backend):
        layout = Proportions(1, 2, 1).layout(40)
        data = np.arange(40, dtype=np.int32)
        steps = transfer_schedule(layout, Layout(((0, 40),)))

        def body(ctx):
            lo, hi = layout.local_range(ctx.rank)
            views = rts_for(ctx.comm).gather_views(data[lo:hi].copy(), steps, 2)
            return None if views is None else np.concatenate(views)

        results = spmd_run(3, body)
        assert results[0] is None and results[1] is None
        np.testing.assert_array_equal(results[2], data)

    def test_thread_ranks_lend_the_arrays_themselves(self, rts_backend):
        thread_ranks_only(rts_backend)
        layout = BlockTemplate(4).layout(self.N)
        steps = transfer_schedule(layout, Layout(((0, self.N),)))
        blocks = {}

        def body(ctx):
            lo, hi = layout.local_range(ctx.rank)
            blocks[ctx.rank] = np.arange(lo, hi, dtype=np.float64)
            views = rts_for(ctx.comm).gather_views(blocks[ctx.rank], steps, 0)
            ctx.comm.barrier()  # the root reads before any rank leaves
            if views is not None:
                return [
                    np.shares_memory(v, blocks[r]) for r, v in enumerate(views)
                ]

        with copy_audit() as account:
            results = spmd_run(4, body)
        assert results[0] == [True] * 4
        assert account.snapshot() == (0, 0)

    def test_each_peer_byte_is_copied_once_on_process_ranks(self, rts_backend):
        """A process peer copies its pieces into a segment of its own;
        the root copies nothing, and a thread rank nothing at all."""
        layout = BlockTemplate(4).layout(self.N)
        steps = transfer_schedule(layout, Layout(((0, self.N),)))

        def body(ctx):
            lo, hi = layout.local_range(ctx.rank)
            local = np.arange(lo, hi, dtype=np.float64)
            rts_for(ctx.comm).gather_views(local, steps, 0)
            ctx.comm.barrier()

        peers = self.N * 8 * 3 // 4
        counted = copied_bytes(rts_backend, 4, body)
        assert counted == (peers if rts_backend == "process" else 0)

    def test_a_peer_may_write_its_block_after_its_next_collective(
        self, rts_backend
    ):
        """The lend lasts until the peer's next collective with the
        root: the root reads its views before that collective, so a
        block rewritten after it never shows in an earlier gather,
        and on process ranks each recycled segment carries its own
        gather's data."""
        layout = BlockTemplate(3).layout(3 * 4096)
        steps = transfer_schedule(layout, Layout(((0, layout.length),)))

        def body(ctx):
            rts = rts_for(ctx.comm)
            lo, hi = layout.local_range(ctx.rank)
            local = np.zeros(hi - lo)
            sums = []
            for k in range(4):
                local[:] = k
                views = rts.gather_views(local, steps, 0)
                if views is not None:
                    sums.append(float(sum(v.sum() for v in views)))
                rts.synchronize()
            return sums

        assert spmd_run(3, body)[0] == [
            float(k * layout.length) for k in range(4)
        ]


class _FailsWhenRead(np.ndarray):
    """A block whose pieces cannot be read: the rank holding it raises
    after the root has exposed its buffer, before the closing
    barrier."""

    def __getitem__(self, key):
        raise RuntimeError("peer failed mid-gather")


class _WaitsForRank1(np.ndarray):
    """A landing block that takes a piece only after rank 1 says it is
    back from the scatter both are in."""

    def __setitem__(self, key, value):
        self.comm.recv(source=1, tag=7, timeout=30.0)
        super().__setitem__(key, value)


class TestAbort:
    def test_a_peer_raising_mid_gather_aborts_every_rank(self):
        layout = BlockTemplate(3).layout(30)
        steps = transfer_schedule(layout, Layout(((0, 30),)))

        def body(ctx):
            lo, hi = layout.local_range(ctx.rank)
            local = np.arange(lo, hi, dtype=np.float64)
            if ctx.rank == 1:
                local = local.view(_FailsWhenRead)
            try:
                rts_for(ctx.comm).gather_chunks(local, steps, 0, None)
            except GroupAbortedError:
                raise RuntimeError("saw GroupAbortedError") from None

        with pytest.raises(SpmdError) as failed:
            spmd_run(3, body, timeout=30.0)
        messages = {r: str(e) for r, e in failed.value.failures.items()}
        assert messages == {
            0: "saw GroupAbortedError",
            1: messages[1],
            2: "saw GroupAbortedError",
        }
        assert "mid-gather" in messages[1]

