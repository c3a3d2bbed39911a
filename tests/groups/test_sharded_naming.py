"""The sharded naming router: flat surface routing, the group
directory, health epochs, and bind tokens — on the in-memory router
(``backing``) and on the same router reached through the served
façade (``naming``; see ``tests/naming_transports.py``)."""

import pytest

from repro.groups import ShardedNaming
from repro.orb.naming import NamingError
from repro.orb.reference import ObjectReference
from repro.orb.transport import PortAddress
from tests.naming_transports import TRANSPORTS, reach


def make_ref(key):
    return ObjectReference(
        object_key=key,
        repo_id="IDL:svc:1.0",
        request_port=PortAddress(1, f"req-{key}"),
        data_ports=(),
        param_templates=(),
    )


@pytest.fixture
def backing():
    return ShardedNaming(shards=4)


@pytest.fixture(params=TRANSPORTS)
def naming(backing, request):
    with reach(backing, request.param) as naming:
        yield naming


class TestFlatSurface:
    def test_bind_resolve_across_shards(self, naming, backing):
        names = [f"svc-{i}" for i in range(20)]
        for name in names:
            naming.bind(name, make_ref(name))
        # The 20 names actually spread over multiple shards...
        assert len({backing.shard_for(n) for n in names}) > 1
        # ...but resolve as one flat namespace.
        for name in names:
            assert naming.resolve(name).object_key == name

    def test_rebind_and_unbind_route_to_the_owner(self, naming):
        naming.bind("svc", make_ref("old"))
        naming.rebind("svc", make_ref("new"))
        assert naming.resolve("svc").object_key == "new"
        naming.unbind("svc")
        with pytest.raises(NamingError, match="no object bound"):
            naming.resolve("svc")

    def test_names_reads_as_one_sorted_namespace(self, naming):
        for name in ("zeta", "alpha", "mid"):
            naming.bind(name, make_ref(name))
        assert [n for n, _h in naming.names()] == [
            "alpha",
            "mid",
            "zeta",
        ]

    def test_host_scoping_passes_through(self, naming):
        naming.bind("svc", make_ref("a"), host="h1")
        naming.bind("svc", make_ref("b"), host="h2")
        assert naming.resolve("svc", "h2").object_key == "b"
        with pytest.raises(NamingError, match="several hosts"):
            naming.resolve("svc")

    def test_shard_validation(self):
        with pytest.raises(ValueError, match="at least one shard"):
            ShardedNaming(shards=0)
        assert ShardedNaming(shards=1).nshards == 1


class TestGroupDirectory:
    def _bind_group(self, naming, name="grp", rids=(0, 1, 2)):
        naming.bind_group(
            name,
            "IDL:svc:1.0",
            {rid: make_ref(f"{name}#{rid}") for rid in rids},
        )

    def test_bind_resolve_group(self, naming, backing):
        self._bind_group(naming)
        group = naming.resolve_group("grp")
        assert group.replica_ids == (0, 1, 2)
        assert group.repo_id == "IDL:svc:1.0"
        assert group.member(1) == make_ref("grp#1")
        assert group.epoch == 0
        assert backing.is_group("grp")
        assert backing.group_names() == ["grp"]

    def test_duplicate_group_rejected(self, naming):
        self._bind_group(naming)
        with pytest.raises(NamingError, match="already bound"):
            self._bind_group(naming)

    def test_empty_name_and_empty_membership_rejected(self, naming):
        with pytest.raises(NamingError, match="cannot be empty"):
            naming.bind_group("", "IDL:svc:1.0", {0: make_ref("x")})
        with pytest.raises(NamingError, match="at least one replica"):
            naming.bind_group("grp", "IDL:svc:1.0", {})

    def test_unbind_group(self, naming, backing):
        self._bind_group(naming)
        naming.unbind_group("grp")
        assert not backing.is_group("grp")
        with pytest.raises(NamingError, match="no group bound"):
            naming.resolve_group("grp")
        with pytest.raises(NamingError, match="no group bound"):
            naming.unbind_group("grp")

    def test_groups_and_flat_names_share_the_namespace(
        self, naming, backing
    ):
        self._bind_group(naming)
        naming.bind("grp#0", make_ref("grp#0"))
        assert naming.resolve("grp#0").object_key == "grp#0"
        assert backing.is_group("grp")

    def test_add_and_remove_member(self, naming):
        self._bind_group(naming, rids=(0, 1))
        naming.add_member("grp", 2, make_ref("grp#2"))
        assert naming.resolve_group("grp").replica_ids == (0, 1, 2)
        with pytest.raises(NamingError, match="already has replica 2"):
            naming.add_member("grp", 2, make_ref("grp#2"))
        naming.remove_member("grp", 1)
        assert naming.resolve_group("grp").replica_ids == (0, 2)
        with pytest.raises(NamingError, match="no replica 1"):
            naming.remove_member("grp", 1)

    def test_readded_replica_sheds_its_down_mark(self, naming):
        self._bind_group(naming)
        naming.mark_down("grp", 1)
        naming.remove_member("grp", 1)
        naming.add_member("grp", 1, make_ref("grp#1-reborn"))
        assert 1 in naming.resolve_group("grp").replica_ids


class TestHealthEpochs:
    def _bind_group(self, naming, rids=(0, 1, 2)):
        naming.bind_group(
            "grp",
            "IDL:svc:1.0",
            {rid: make_ref(f"grp#{rid}") for rid in rids},
        )

    def test_mark_down_bumps_epoch_once(self, naming, backing):
        self._bind_group(naming)
        assert naming.epoch("grp") == 0
        assert naming.mark_down("grp", 0) == 1
        # Idempotent: a second client agreeing on the same failure
        # does not bump again.
        assert naming.mark_down("grp", 0) == 1
        assert naming.mark_down("grp", 1) == 2
        snap = backing.stats()
        assert snap["marked_down"] == 2
        assert snap["epoch_bumps"] == 2

    def test_resolve_excludes_down_replicas(self, naming):
        self._bind_group(naming)
        naming.mark_down("grp", 1)
        group = naming.resolve_group("grp")
        assert group.replica_ids == (0, 2)
        assert group.epoch == 1

    def test_all_down_resolution_fails(self, naming):
        self._bind_group(naming, rids=(0,))
        naming.mark_down("grp", 0)
        with pytest.raises(NamingError, match="no live replicas"):
            naming.resolve_group("grp")

    def test_mark_down_unknown_replica(self, naming):
        self._bind_group(naming)
        with pytest.raises(NamingError, match="no replica 7"):
            naming.mark_down("grp", 7)

    def test_health_reports_feed_resolution(self, naming):
        self._bind_group(naming)
        naming.report_health("grp", 1, 2.5)
        group = naming.resolve_group("grp")
        assert group.load(1) == 2.5
        assert group.load(0) is None
        with pytest.raises(NamingError, match="no replica 9"):
            naming.report_health("grp", 9, 1.0)

    def test_membership_board_tracks_the_directory(self, naming, backing):
        self._bind_group(naming)
        naming.mark_down("grp", 2)
        board = backing.stats()["groups"]["grp"]
        assert board == {"replicas": 3, "down": 1, "epoch": 1}
        naming.unbind_group("grp")
        assert "grp" not in backing.stats()["groups"]


class TestBindTokens:
    def test_tokens_are_monotonic_per_group(self, naming):
        naming.bind_group(
            "grp", "IDL:svc:1.0", {0: make_ref("grp#0")}
        )
        naming.bind_group(
            "other", "IDL:svc:1.0", {0: make_ref("other#0")}
        )
        assert [naming.next_bind_token("grp") for _ in range(3)] == [
            0,
            1,
            2,
        ]
        # Independent counter per group.
        assert naming.next_bind_token("other") == 0

    def test_token_for_unknown_group(self, naming):
        with pytest.raises(NamingError, match="no group bound"):
            naming.next_bind_token("grp")
