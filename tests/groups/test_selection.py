"""Replica selection: the group view and its one choice, round-robin
over the live members by token."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.groups.select import GroupView, SelectionError
from repro.orb.reference import GroupReference, ObjectReference
from repro.orb.transport import PortAddress


def make_ref(key):
    return ObjectReference(
        object_key=key,
        repo_id="IDL:svc:1.0",
        request_port=PortAddress(1, f"req-{key}"),
        data_ports=(),
        param_templates=(),
    )


def make_view(replica_ids=(0, 1, 2), down=(), epoch=0):
    group = GroupReference(
        group_name="svc",
        repo_id="IDL:svc:1.0",
        epoch=epoch,
        members=tuple(
            (rid, make_ref(f"svc#{rid}")) for rid in replica_ids
        ),
    )
    return GroupView(group=group, down=frozenset(down))


class TestGroupView:
    def test_alive_is_ascending_and_skips_down(self):
        view = make_view((2, 0, 1), down=(1,))
        assert view.alive() == (0, 2)

    def test_without_is_immutable_accumulation(self):
        view = make_view()
        narrowed = view.without(0).without(2)
        assert narrowed.alive() == (1,)
        assert view.alive() == (0, 1, 2)  # original untouched

    def test_ref(self):
        assert make_view().ref(1).object_key == "svc#1"

    def test_name_and_epoch(self):
        view = make_view(epoch=3)
        assert view.name == "svc"
        assert view.epoch == 3


class TestChoose:
    def test_rotates_by_token(self):
        view = make_view()
        picks = [view.choose(t) for t in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_skips_down_replicas(self):
        view = make_view(down=(0,))
        picks = [view.choose(t) for t in range(4)]
        assert picks == [1, 2, 1, 2]

    def test_no_live_replica_raises(self):
        view = make_view(down=(0, 1, 2))
        with pytest.raises(SelectionError, match="no live replicas"):
            view.choose(0)


def reference_round_robin(view, token):
    """The choice as ``RoundRobin.choose`` made it when selection was
    a pluggable policy: the live ids ascending, indexed by token."""
    alive = view.alive()
    if not alive:
        raise SelectionError(
            f"group '{view.name}' has no live replicas "
            f"({len(view.group.members)} members, all marked down)"
        )
    return alive[token % len(alive)]


@st.composite
def views(draw):
    """A live membership of up to 12 ids and a down set drawn from it."""
    members = draw(st.sets(st.integers(0, 63), min_size=1, max_size=12))
    down = draw(st.sets(st.sampled_from(sorted(members))))
    return make_view(tuple(members), down=down)


def decide(choose, token):
    """A choice or the error text it raised, so failures compare too."""
    try:
        return choose(token)
    except SelectionError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(view=views(), token=st.integers(0, 2**32 - 1))
def test_choose_decides_as_the_round_robin_policy_did(view, token):
    assert decide(view.choose, token) == decide(
        lambda t: reference_round_robin(view, t), token
    )


@settings(max_examples=200, deadline=None)
@given(view=views(), token=st.integers(0, 2**32 - 1))
def test_choose_never_picks_a_down_replica(view, token):
    assume(view.alive())
    pick = view.choose(token)
    assert pick in view.group.replica_ids
    assert pick not in view.down


@settings(max_examples=200, deadline=None)
@given(view=views(), start=st.integers(0, 2**32 - 1))
def test_a_cycle_of_tokens_visits_every_live_replica_once(view, start):
    alive = view.alive()
    assume(alive)
    picks = [view.choose(start + i) for i in range(len(alive))]
    assert sorted(picks) == list(alive)


@settings(max_examples=200, deadline=None)
@given(view=views(), token=st.integers(0, 2**32 - 1))
def test_a_view_rebuilt_from_the_gior_decides_alike(view, token):
    """Peer ranks rebuild the view from the GIOR that rides the bind
    broadcast; the choice depends on nothing else."""
    rebuilt = GroupView(
        group=GroupReference.from_ior(view.group.ior()),
        down=frozenset(sorted(view.down)),
    )
    assert decide(rebuilt.choose, token) == decide(view.choose, token)
