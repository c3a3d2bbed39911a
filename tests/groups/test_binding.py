"""``GroupBinding.fail_over`` on its own: the flip, what it counts,
the late completion that only re-targets, the rank-0 death report,
the budget, and the vote that precedes any move."""

from types import SimpleNamespace

import pytest

from repro.ft.policy import InvocationRetriesExhausted
from repro.groups.failover import (
    GROUP_COUNTERS,
    FailoverExhausted,
    GroupBinding,
)
from repro.groups.select import GroupView
from repro.metrics import Counter
from repro.orb.naming import NamingService
from repro.orb.reference import ObjectReference
from repro.orb.transport import PortAddress


def make_ref(key):
    return ObjectReference(
        object_key=key,
        repo_id="IDL:svc:1.0",
        request_port=PortAddress(1, f"req-{key}"),
        data_ports=(),
        param_templates=(),
    )


def make_runtime(rank=0, rts=None):
    naming = NamingService()
    naming.bind_group(
        "svc", "IDL:svc:1.0", {rid: make_ref(f"svc#{rid}") for rid in range(3)}
    )
    return SimpleNamespace(
        trace=None,
        rts=rts,
        rank=rank,
        ft={"failovers": Counter("failovers")},
        naming=naming,
    )


def make_binding(runtime):
    counters = {n: Counter(n) for n in GROUP_COUNTERS}
    view = GroupView(group=runtime.naming.resolve_group("svc"))
    return GroupBinding(view, 0, counters, interface="svc")


def tallies(binding, runtime):
    snap = {n: c.value for n, c in binding._counters.items()}
    snap["ft.failovers"] = runtime.ft["failovers"].value
    return snap


def cause():
    return InvocationRetriesExhausted(
        "add", collective_index=4, attempts=1, last_failure="timeout"
    )




class TestPlacement:
    def test_a_binding_starts_where_its_bind_token_points(self):
        runtime = make_runtime()
        view = GroupView(group=runtime.naming.resolve_group("svc"))
        starts = []
        for token in range(5):
            counters = {n: Counter(n) for n in GROUP_COUNTERS}
            binding = GroupBinding(view, token, counters, interface="svc")
            assert counters["selections"].value == 1
            starts.append(binding.current_replica())
        assert starts == [0, 1, 2, 0, 1]
        narrowed = GroupBinding(
            view.without(0),
            3,
            {n: Counter(n) for n in GROUP_COUNTERS},
            interface="svc",
        )
        # Token 3 over the live (1, 2).
        assert narrowed.target() == (2, make_ref("svc#2"))


class TestFlip:
    def test_a_flip_moves_to_the_next_live_replica_and_counts_once(self):
        runtime = make_runtime()
        binding = make_binding(runtime)
        assert binding.target() == (0, make_ref("svc#0"))
        binding.fail_over(runtime, 0, cause(), trace_id=7)
        # Token 1 over the survivors (1, 2).
        assert binding.target() == (2, make_ref("svc#2"))
        assert binding.history == [(1, 0, 2)]
        assert tallies(binding, runtime) == {
            "binds": 0,
            "selections": 2,
            "failovers": 1,
            "failovers_exhausted": 0,
            "ft.failovers": 1,
        }
        assert runtime.naming.resolve_group("svc").replica_ids == (1, 2)
        assert runtime.naming.epoch("svc") == 1

    def test_a_late_completion_on_an_abandoned_replica_only_re_targets(self):
        runtime = make_runtime()
        binding = make_binding(runtime)
        binding.fail_over(runtime, 0, cause(), trace_id=7)
        before = tallies(binding, runtime)
        binding.fail_over(runtime, 0, cause(), trace_id=8)
        assert binding.current_replica() == 2
        assert binding.history == [(1, 0, 2)]
        assert binding.budget() == 1
        assert tallies(binding, runtime) == before
        assert runtime.naming.epoch("svc") == 1

    def test_only_rank_zero_reports_the_death(self):
        runtime = make_runtime(rank=1)
        binding = make_binding(runtime)
        binding.fail_over(runtime, 0, cause(), trace_id=7)
        assert binding.current_replica() == 2
        assert runtime.naming.epoch("svc") == 0

    def test_a_vanished_directory_does_not_fail_the_flip(self):
        runtime = make_runtime()
        binding = make_binding(runtime)
        runtime.naming.unbind_group("svc")
        binding.fail_over(runtime, 0, cause(), trace_id=7)
        assert binding.current_replica() == 2
        assert runtime.ft["failovers"].value == 1


class TestBudget:
    def test_the_default_budget_is_every_sibling_once(self):
        runtime = make_runtime()
        binding = make_binding(runtime)
        assert binding.budget() == 2
        binding.fail_over(runtime, 0, cause(), trace_id=7)
        assert binding.budget() == 1

    def test_an_exhausted_budget_raises_with_the_walk(self):
        runtime = make_runtime()
        binding = make_binding(runtime)
        binding.fail_over(runtime, 0, cause(), trace_id=7)
        binding.fail_over(runtime, 2, cause(), trace_id=7)
        assert binding.budget() == 0
        last = cause()
        with pytest.raises(FailoverExhausted) as info:
            binding.fail_over(runtime, 1, last, trace_id=7)
        exc = info.value
        assert exc.__cause__ is last
        assert exc.group == "svc"
        assert exc.operation == "svc.add"
        assert exc.replicas_tried == (0, 2, 1)
        assert exc.collective_index == 4
        assert exc.category == "COMM_FAILURE"
        # Exhaustion neither moves the binding nor reports a death.
        assert binding.current_replica() == 1
        assert runtime.naming.epoch("svc") == 2
        snap = tallies(binding, runtime)
        assert snap["failovers"] == 2
        assert snap["failovers_exhausted"] == 1


class _DivergentRTS:
    """An RTS whose ranks disagree on the failed replica."""

    def allgather(self, vote):
        return [vote, (vote[0] + 1, vote[1])]


def test_a_divergent_vote_raises_before_any_rank_moves():
    runtime = make_runtime(rts=_DivergentRTS())
    binding = make_binding(runtime)
    with pytest.raises(RuntimeError, match="group failover diverged"):
        binding.fail_over(runtime, 0, cause(), trace_id=7)
    assert binding.target() == (0, make_ref("svc#0"))
    assert binding.history == []
    assert runtime.ft["failovers"].value == 0
    assert runtime.naming.epoch("svc") == 0
