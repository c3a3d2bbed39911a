"""Transfer schedules: who sends which global range to whom.

Both argument-transfer methods and run-time redistribution reduce to
the same computation: given a source layout and a destination layout of
the same global index space, find all (source rank, destination rank)
pairs whose owned ranges overlap, and the overlapping range.  In the
multi-port method (paper §3.3) the source layout is the client-side
distribution and the destination layout the server-side one; in
``DistributedSequence.redistribute`` both live on the same group.

The schedule is minimal: one step per overlapping pair, so an aligned
pair of layouts yields exactly one local-copy step per rank — the
paper's "the sequence can always be divided very efficiently (only the
minimum number of sends in each case)".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.dist.template import DistributionError, Layout


@dataclass(frozen=True)
class TransferStep:
    """One contiguous chunk moving between a rank pair.

    Offsets are provided in both coordinate systems so neither side has
    to know the other's layout to apply the step:

    - ``(global_lo, global_hi)``: the half-open global index range.
    - ``src_offset``: start of the chunk inside the source rank's block.
    - ``dst_offset``: start of the chunk inside the destination block.
    """

    src_rank: int
    dst_rank: int
    global_lo: int
    global_hi: int
    src_offset: int
    dst_offset: int

    @property
    def nelems(self) -> int:
        return self.global_hi - self.global_lo

    @property
    def src_slice(self) -> slice:
        return slice(self.src_offset, self.src_offset + self.nelems)

    @property
    def dst_slice(self) -> slice:
        return slice(self.dst_offset, self.dst_offset + self.nelems)


@lru_cache(maxsize=128)
def _cached_schedule(src: Layout, dst: Layout) -> tuple[TransferStep, ...]:
    """The schedule of a layout pair, kept in a small LRU.

    Schedules are pure functions of the two layouts, and the hot path
    (every invocation of every distributed parameter) keeps asking for
    the same handful of pairs; :class:`Layout` is frozen and hashable,
    so the pair is a direct key.  Entries are tuples, so no caller can
    mutate one.
    """
    return tuple(_compute_schedule(src, dst))


def schedule_cache_stats() -> dict[str, int]:
    """Hit/miss/occupancy counters of the schedule LRU."""
    info = _cached_schedule.cache_info()
    return {
        "hits": info.hits,
        "misses": info.misses,
        "entries": info.currsize,
        "maxsize": info.maxsize,
    }


def clear_schedule_cache() -> None:
    """Drop all cached schedules and reset the counters (tests)."""
    _cached_schedule.cache_clear()


def transfer_schedule(src: Layout, dst: Layout) -> list[TransferStep]:
    """Compute the minimal chunk schedule moving ``src`` onto ``dst``.

    Returns steps ordered by (source rank, destination rank).  Steps
    where both ends are the same rank *within one group* still appear;
    callers decide whether such a step is a local copy (redistribution)
    or a genuine send (client rank i to server rank i are distinct
    threads even when the rank numbers coincide).

    The two layouts must describe index spaces of equal length.
    Results are memoized in a small LRU keyed by the layout pair (see
    :func:`schedule_cache_stats`); each call returns a fresh list.
    """
    return list(_cached_schedule(src, dst))


def _compute_schedule(src: Layout, dst: Layout) -> list[TransferStep]:
    if src.length != dst.length:
        raise DistributionError(
            f"source layout covers {src.length} elements but destination "
            f"covers {dst.length}; transfers require equal lengths"
        )
    steps: list[TransferStep] = []
    # Two-pointer sweep over the (sorted, contiguous) range lists.
    d = 0
    for s_rank in range(src.nranks):
        s_lo, s_hi = src.local_range(s_rank)
        if s_lo == s_hi:
            continue
        # Rewind is never needed: source ranges advance monotonically.
        while d < dst.nranks and dst.local_range(d)[1] <= s_lo:
            d += 1
        d_probe = d
        while d_probe < dst.nranks:
            d_lo, d_hi = dst.local_range(d_probe)
            lo = max(s_lo, d_lo)
            hi = min(s_hi, d_hi)
            if lo < hi:
                steps.append(
                    TransferStep(
                        src_rank=s_rank,
                        dst_rank=d_probe,
                        global_lo=lo,
                        global_hi=hi,
                        src_offset=lo - s_lo,
                        dst_offset=lo - d_lo,
                    )
                )
            if d_hi >= s_hi:
                break
            d_probe += 1
    return steps


def tiling_fault(
    ranges: list[tuple[int, int]], lo: int, hi: int
) -> str | None:
    """``None`` when the half-open ``ranges`` tile ``[lo, hi)`` exactly
    — what lets a destination be allocated uninitialised — else the
    first gap or overlap, in words."""
    at = lo
    for r_lo, r_hi in sorted(ranges):
        if r_lo != at:
            kind = "gap" if r_lo > at else "overlap"
            return f"{kind} at [{min(at, r_lo)}, {max(at, r_lo)})"
        at = r_hi
    return None if at == hi else f"gap at [{at}, {hi})"


def steps_by_src(steps: list[TransferStep]) -> dict[int, list[TransferStep]]:
    """Group a schedule by sending rank (send plans)."""
    plans: dict[int, list[TransferStep]] = {}
    for step in steps:
        plans.setdefault(step.src_rank, []).append(step)
    return plans


def steps_by_dst(steps: list[TransferStep]) -> dict[int, list[TransferStep]]:
    """Group a schedule by receiving rank (receive plans)."""
    plans: dict[int, list[TransferStep]] = {}
    for step in steps:
        plans.setdefault(step.dst_rank, []).append(step)
    return plans
