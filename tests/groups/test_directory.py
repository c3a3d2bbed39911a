"""The group directory of the one naming service: groups beside flat
names, membership, health epochs, and bind tokens — on the in-memory
object (``backing``) and on the same object reached through the
served façade (``naming``; see ``tests/naming_transports.py``)."""

import sys
import threading

import pytest

from repro import compile_idl
from repro.groups.select import GroupView
from repro.orb.naming import NamingError, NamingService
from repro.orb.operation import RemoteError
from repro.orb.proxy import BindMode, ClientRuntime
from repro.orb.reference import ObjectReference
from repro.orb.socketnet import SocketFabric
from repro.orb.transport import PortAddress
from tests.naming_transports import TRANSPORTS, reach, served_naming


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
    return NamingService()


@pytest.fixture(params=TRANSPORTS)
def naming(backing, request):
    with reach(backing, request.param) as naming:
        yield naming


def board(backing):
    """The group names on the directory's membership board."""
    return sorted(backing.stats()["groups"])


class TestFlatSurface:
    def test_rebind_and_unbind_beside_the_directory(self, naming):
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
        assert board(backing) == ["grp"]

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
        assert board(backing) == []
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
        assert board(backing) == ["grp"]
        # A group is not a flat name, nor a flat name a group.
        assert naming.names() == [("grp#0", "")]
        with pytest.raises(NamingError, match="no object bound"):
            naming.resolve("grp")

    def test_remove_member(self, naming, backing):
        self._bind_group(naming)
        naming.mark_down("grp", 1)
        naming.remove_member("grp", 1)
        assert naming.resolve_group("grp").replica_ids == (0, 2)
        # A removed replica takes its down mark with it.
        assert backing.stats()["groups"]["grp"]["down"] == 0
        with pytest.raises(NamingError, match="no replica 1"):
            naming.remove_member("grp", 1)

    def test_a_removed_replica_is_unknown_to_every_call(
        self, naming, backing
    ):
        self._bind_group(naming)
        naming.remove_member("grp", 2)
        with pytest.raises(NamingError, match="no replica 2"):
            naming.mark_down("grp", 2)
        assert 2 not in naming.resolve_group("grp").replica_ids
        assert backing.stats()["groups"]["grp"]["replicas"] == 2

    def test_remove_member_keeps_the_epoch(self, naming, backing):
        """A planned retirement is not a failure: no epoch bump, and
        no down mark tallied."""
        self._bind_group(naming)
        naming.remove_member("grp", 0)
        assert naming.epoch("grp") == 0
        assert naming.resolve_group("grp").epoch == 0
        snap = backing.stats()
        assert (snap["marked_down"], snap["epoch_bumps"]) == (0, 0)

    def test_every_call_on_an_unbound_group_fails(self, naming):
        calls = [
            ("unbind_group", ()),
            ("resolve_group", ()),
            ("remove_member", (0,)),
            ("mark_down", (0,)),
            ("epoch", ()),
            ("next_bind_token", ()),
        ]
        for op, args in calls:
            with pytest.raises(NamingError, match="no group bound as 'grp'"):
                getattr(naming, op)("grp", *args)

    def test_a_rebound_group_starts_fresh(self, naming, backing):
        self._bind_group(naming)
        naming.mark_down("grp", 0)
        naming.next_bind_token("grp")
        naming.unbind_group("grp")
        self._bind_group(naming)
        group = naming.resolve_group("grp")
        assert group.replica_ids == (0, 1, 2)
        assert group.epoch == 0
        assert naming.next_bind_token("grp") == 0
        assert backing.stats()["groups"]["grp"] == {
            "replicas": 3,
            "down": 0,
            "epoch": 0,
        }


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

    def test_the_directory_tallies_down_marks_and_epoch_bumps_only(
        self, naming, backing
    ):
        self._bind_group(naming)
        naming.resolve_group("grp")
        naming.next_bind_token("grp")
        naming.mark_down("grp", 1)
        naming.remove_member("grp", 2)
        assert backing.stats() == {
            "marked_down": 1,
            "epoch_bumps": 1,
            "groups": {"grp": {"replicas": 2, "down": 1, "epoch": 1}},
        }

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

    def test_successive_bindings_walk_the_live_members(self, naming):
        """The directory's half of placement: each bind draws a token
        and chooses over the view it resolved."""
        naming.bind_group(
            "grp",
            "IDL:svc:1.0",
            {rid: make_ref(f"grp#{rid}") for rid in range(3)},
        )

        def bind():
            view = GroupView(group=naming.resolve_group("grp"))
            return view.choose(naming.next_bind_token("grp"))

        assert [bind() for _ in range(4)] == [0, 1, 2, 0]
        naming.mark_down("grp", 1)
        # Tokens 4..6 over the survivors (0, 2).
        assert [bind() for _ in range(3)] == [0, 2, 0]

    def test_token_for_unknown_group(self, naming):
        with pytest.raises(NamingError, match="no group bound"):
            naming.next_bind_token("grp")


#: The two directory ops the naming IDL no longer declares, as a
#: client compiled before they went still declares them.  (Without
#: ``NamingFailure``: a second class under its repository id would
#: displace the naming module's own in the exception registry.)
PRE_CHANGE_IDL = """
interface NamingContext {
    void add_member(in string name, in unsigned long replica_id,
                    in string ior);
    void report_health(in string name, in unsigned long replica_id,
                       in double load);
};
"""


class TestRetiredOps:
    @pytest.mark.parametrize(
        "op, args",
        [
            ("add_member", ("grp", 3, make_ref("grp#3").ior())),
            ("report_health", ("grp", 0, 0.5)),
        ],
        ids=["add_member", "report_health"],
    )
    def test_a_pre_change_client_is_refused(self, op, args):
        old = compile_idl(PRE_CHANGE_IDL, module_name="naming_pre_change_idl")
        with served_naming() as (orb, ior), SocketFabric(
            "pre-change-client"
        ) as fabric:
            orb.naming.bind_group(
                "grp", "IDL:svc:1.0", {0: make_ref("grp#0")}
            )
            runtime = ClientRuntime(fabric, None, label="old", timeout=5.0)
            try:
                stub = old.NamingContext(
                    runtime,
                    ObjectReference.from_ior(ior),
                    BindMode.SERIAL,
                    "centralized",
                )
                with pytest.raises(RemoteError, match=op) as err:
                    getattr(stub, op)(*args)
                assert err.value.category == "BAD_OPERATION"
            finally:
                runtime.close()
            # The refused call changed nothing.
            assert orb.naming.resolve_group("grp").replica_ids == (0,)
            assert orb.naming.stats()["groups"]["grp"] == {
                "replicas": 1,
                "down": 0,
                "epoch": 0,
            }


class _CountingLock:
    """A lock that counts how often it was taken."""

    def __init__(self):
        self._lock = threading.Lock()
        self.taken = 0

    def __enter__(self):
        self._lock.acquire()
        self.taken += 1
        return self

    def __exit__(self, *exc):
        self._lock.release()
        return False


class TestOneLockPerCall:
    def test_each_directory_call_takes_the_lock_once(self):
        """Look-up and update under one hold: an ``unbind_group``
        cannot slip between them and leave ``mark_down`` bumping a
        detached row."""
        naming = NamingService()
        naming._lock = lock = _CountingLock()
        calls = [
            (
                "bind_group",
                ("grp", "IDL:svc:1.0", {0: make_ref("a"), 1: make_ref("b")}),
            ),
            ("resolve_group", ("grp",)),
            ("mark_down", ("grp", 1)),
            ("epoch", ("grp",)),
            ("next_bind_token", ("grp",)),
            ("remove_member", ("grp", 1)),
            ("stats", ()),
            ("unbind_group", ("grp",)),
        ]
        for op, args in calls:
            before = lock.taken
            getattr(naming, op)(*args)
            assert lock.taken - before == 1, op

    def test_a_call_after_unbind_reports_the_group_gone(self):
        naming = NamingService()
        naming.bind_group("grp", "IDL:svc:1.0", {0: make_ref("a")})
        naming.unbind_group("grp")
        with pytest.raises(NamingError, match="no group bound"):
            naming.mark_down("grp", 0)
        assert naming.stats()["marked_down"] == 0

    def test_concurrent_draws_and_marks_lose_no_update(self):
        """More threads than cores, switching often: every bind token
        is drawn once and every replica's down mark bumps the epoch
        once."""
        naming = NamingService()
        replicas, draws = 8, 200
        naming.bind_group(
            "grp",
            "IDL:svc:1.0",
            {rid: make_ref(f"grp#{rid}") for rid in range(replicas)},
        )
        tokens = [[] for _ in range(replicas)]

        def client(rid):
            for _ in range(draws):
                tokens[rid].append(naming.next_bind_token("grp"))
            naming.mark_down("grp", rid)
            naming.mark_down("grp", rid)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=client, args=(rid,))
                for rid in range(replicas)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        drawn = sorted(t for per_thread in tokens for t in per_thread)
        assert drawn == list(range(replicas * draws))
        assert naming.epoch("grp") == replicas
        assert naming.stats()["epoch_bumps"] == replicas
