"""Unit and property tests for transfer schedules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist import (
    BlockTemplate,
    Layout,
    Proportions,
    clear_schedule_cache,
    schedule_cache_stats,
    transfer_schedule,
)
from repro.dist.schedule import steps_by_dst, steps_by_src
from repro.dist.template import DistributionError


class TestBasics:
    def test_identical_layouts_give_one_local_step_per_rank(self):
        layout = BlockTemplate(4).layout(16)
        steps = transfer_schedule(layout, layout)
        assert len(steps) == 4
        for r, step in enumerate(steps):
            assert step.src_rank == r and step.dst_rank == r
            assert (step.global_lo, step.global_hi) == layout.local_range(r)
            assert step.src_offset == 0 and step.dst_offset == 0

    def test_gather_to_single_rank(self):
        src = BlockTemplate(4).layout(16)
        dst = Layout(((0, 16),))
        steps = transfer_schedule(src, dst)
        assert len(steps) == 4
        assert all(s.dst_rank == 0 for s in steps)
        assert [s.dst_offset for s in steps] == [0, 4, 8, 12]

    def test_scatter_from_single_rank(self):
        src = Layout(((0, 16),))
        dst = BlockTemplate(4).layout(16)
        steps = transfer_schedule(src, dst)
        assert len(steps) == 4
        assert all(s.src_rank == 0 for s in steps)
        assert [s.src_offset for s in steps] == [0, 4, 8, 12]

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(DistributionError):
            transfer_schedule(
                BlockTemplate(2).layout(10), BlockTemplate(2).layout(12)
            )

    def test_misaligned_blocks_split(self):
        src = Layout(((0, 6), (6, 12)))
        dst = Layout(((0, 4), (4, 8), (8, 12)))
        steps = transfer_schedule(src, dst)
        expected = {
            (0, 0, 0, 4),
            (0, 1, 4, 6),
            (1, 1, 6, 8),
            (1, 2, 8, 12),
        }
        got = {(s.src_rank, s.dst_rank, s.global_lo, s.global_hi)
               for s in steps}
        assert got == expected

    def test_empty_source_ranks_send_nothing(self):
        src = Layout(((0, 0), (0, 10)))
        dst = BlockTemplate(2).layout(10)
        steps = transfer_schedule(src, dst)
        assert all(s.src_rank == 1 for s in steps)

    def test_zero_length(self):
        assert transfer_schedule(Layout(((0, 0),)), Layout(((0, 0),))) == []

    def test_ordering_by_src_then_dst(self):
        src = Layout(((0, 8), (8, 12)))
        dst = Layout(((0, 2), (2, 9), (9, 12)))
        steps = transfer_schedule(src, dst)
        keys = [(s.src_rank, s.dst_rank) for s in steps]
        assert keys == sorted(keys)

    def test_grouping_helpers(self):
        src = Layout(((0, 6), (6, 12)))
        dst = Layout(((0, 4), (4, 12)))
        steps = transfer_schedule(src, dst)
        assert set(steps_by_src(steps)) == {0, 1}
        assert set(steps_by_dst(steps)) == {0, 1}
        assert sum(len(v) for v in steps_by_src(steps).values()) == len(steps)


def apply_schedule(src_layout, dst_layout, data):
    """Move data between layouts through the schedule, returning the
    per-destination-rank blocks — the reference executor the property
    tests check against."""
    steps = transfer_schedule(src_layout, dst_layout)
    blocks = [
        np.full(dst_layout.local_length(r), -1, dtype=data.dtype)
        for r in range(dst_layout.nranks)
    ]
    for step in steps:
        src_lo, _ = src_layout.local_range(step.src_rank)
        local = data[src_lo : src_layout.local_range(step.src_rank)[1]]
        blocks[step.dst_rank][step.dst_slice] = local[step.src_slice]
    return blocks


layouts = st.integers(0, 200).flatmap(
    lambda n: st.lists(
        st.integers(0, 40), min_size=1, max_size=8
    ).filter(lambda w: any(x > 0 for x in w)).map(
        lambda weights: Proportions(*weights).layout(n)
    )
)


@st.composite
def layout_pairs(draw):
    """Two layouts over the same global length, arbitrary rank counts."""
    length = draw(st.integers(0, 200))

    def make(weights):
        return Proportions(*weights).layout(length)

    weights_a = draw(
        st.lists(st.integers(0, 40), min_size=1, max_size=8).filter(
            lambda w: any(x > 0 for x in w)
        )
    )
    weights_b = draw(
        st.lists(st.integers(0, 40), min_size=1, max_size=8).filter(
            lambda w: any(x > 0 for x in w)
        )
    )
    return make(weights_a), make(weights_b)


class TestScheduleProperties:
    @given(layout_pairs())
    @settings(max_examples=200)
    def test_every_element_moves_exactly_once(self, pair):
        src, dst = pair
        steps = transfer_schedule(src, dst)
        covered = np.zeros(src.length, dtype=int)
        for step in steps:
            covered[step.global_lo : step.global_hi] += 1
        assert (covered == 1).all()

    @given(layout_pairs())
    @settings(max_examples=200)
    def test_steps_respect_ownership(self, pair):
        src, dst = pair
        for step in transfer_schedule(src, dst):
            s_lo, s_hi = src.local_range(step.src_rank)
            d_lo, d_hi = dst.local_range(step.dst_rank)
            assert s_lo <= step.global_lo < step.global_hi <= s_hi
            assert d_lo <= step.global_lo < step.global_hi <= d_hi
            assert step.src_offset == step.global_lo - s_lo
            assert step.dst_offset == step.global_lo - d_lo

    @given(layout_pairs())
    @settings(max_examples=200)
    def test_applying_schedule_preserves_data(self, pair):
        src, dst = pair
        data = np.arange(src.length, dtype=np.int64)
        blocks = apply_schedule(src, dst, data)
        reassembled = (
            np.concatenate(blocks) if blocks else np.zeros(0, dtype=np.int64)
        )
        np.testing.assert_array_equal(reassembled, data)

    @given(layout_pairs())
    @settings(max_examples=200)
    def test_schedule_is_minimal(self, pair):
        # One step per overlapping (src, dst) pair: no pair repeats.
        src, dst = pair
        steps = transfer_schedule(src, dst)
        pairs = [(s.src_rank, s.dst_rank) for s in steps]
        assert len(pairs) == len(set(pairs))

    @given(layouts)
    @settings(max_examples=100)
    def test_identity_schedule_is_all_local(self, layout):
        for step in transfer_schedule(layout, layout):
            assert step.src_rank == step.dst_rank


class TestScheduleCache:
    """The LRU over layout pairs (schedules are pure in the layouts)."""

    def setup_method(self):
        clear_schedule_cache()

    def teardown_method(self):
        clear_schedule_cache()

    def test_second_lookup_hits(self):
        src = BlockTemplate(4).layout(16)
        dst = Layout(((0, 16),))
        first = transfer_schedule(src, dst)
        stats = schedule_cache_stats()
        assert stats["misses"] == 1 and stats["hits"] == 0
        second = transfer_schedule(src, dst)
        stats = schedule_cache_stats()
        assert stats["hits"] == 1 and stats["entries"] == 1
        assert second == first

    def test_direction_is_part_of_the_key(self):
        a = BlockTemplate(2).layout(8)
        b = Layout(((0, 8),))
        transfer_schedule(a, b)
        transfer_schedule(b, a)
        stats = schedule_cache_stats()
        assert stats["misses"] == 2 and stats["entries"] == 2

    def test_returned_list_is_caller_owned(self):
        # Mutating what transfer_schedule returned must not poison
        # later lookups of the same pair.
        src = BlockTemplate(2).layout(8)
        dst = Layout(((0, 8),))
        stolen = transfer_schedule(src, dst)
        pristine = list(stolen)
        stolen.clear()
        assert transfer_schedule(src, dst) == pristine

    def test_eviction_is_least_recently_used(self):
        maxsize = schedule_cache_stats()["maxsize"]
        pairs = [
            (Layout(((0, n),)), BlockTemplate(2).layout(n))
            for n in range(8, 8 + maxsize + 1)
        ]
        for pair in pairs[:maxsize]:
            transfer_schedule(*pair)
        transfer_schedule(*pairs[0])  # refresh 0: now 1 is LRU
        transfer_schedule(*pairs[maxsize])  # evicts 1
        assert schedule_cache_stats()["entries"] == maxsize
        before = schedule_cache_stats()["hits"]
        transfer_schedule(*pairs[0])
        transfer_schedule(*pairs[maxsize])
        assert schedule_cache_stats()["hits"] == before + 2
        transfer_schedule(*pairs[1])  # evicted: must recompute
        assert schedule_cache_stats()["hits"] == before + 2
