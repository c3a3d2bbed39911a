"""End-to-end group failover: the acceptance scenario (collective
kill mid-burst), serial failover, which failures fail over, what a
replay re-executes, exhaustion, and the fail-fast degeneration
without a retrying policy."""

import collections
import threading

import pytest

from repro import ORB, FtPolicy, compile_idl
from repro.groups import FailoverExhausted
from repro.orb.nameservice import NamingClient
from repro.orb.naming import NamingService
from repro.orb.operation import RemoteError
from repro.orb.socketnet import SocketFabric
from repro.orb.transport import TransportError
from tests.naming_transports import served_naming

GROUP_IDL = """
interface counter {
    double add(in double x);
};

exception Refused { string why; };

interface picky {
    double add(in double x) raises (Refused);
};
"""

#: Fast failure detection: one retry, short backoff; the dead replica
#: costs two 0.3 s attempt timeouts before failover engages.
RETRYING = FtPolicy(
    max_retries=1, backoff_base_ms=1.0, backoff_cap_ms=5.0
)


@pytest.fixture(scope="module")
def idl():
    return compile_idl(GROUP_IDL, module_name="groups_failover_idl")


def _factory(idl):
    class CounterServant(idl.counter_skel):
        def __init__(self):
            self.total = 0.0

        def add(self, x):
            self.total += x
            return self.total

    return lambda ctx: CounterServant()


@pytest.fixture
def orb():
    with ORB("groups-test", timeout=0.3) as orb:
        yield orb


class PickyGroup:
    """A served ``picky`` group whose replica ``rid`` answers
    ``100 * rid + x``, counting its executions in ``executions``; a
    replica with a hook in ``on_call`` runs it first (it may raise)."""

    def __init__(self, orb, idl, replicas=3):
        self.executions = collections.Counter()
        self.on_call = {}
        rid_of = {}
        outer = self

        class PickyServant(idl.picky_skel):
            def __init__(self, port):
                self.port = port

            def add(self, x):
                rid = rid_of[self.port]
                outer.executions[rid] += 1
                if rid in outer.on_call:
                    outer.on_call[rid]()
                return 100.0 * rid + x

        self.group = orb.serve_replicated(
            "picky",
            lambda ctx: PickyServant(ctx.request_port.address),
            replicas=replicas,
        )
        rid_of.update(
            (g.reference.request_port, rid)
            for rid, g in self.group.members.items()
        )


def _raise(exc):
    def hook():
        raise exc

    return hook


@pytest.fixture(params=["inproc", "socket"])
def deployment(request):
    """``(server_orb, client_orb)``: one in-process ORB playing both
    roles, or servers and client on separate ``SocketFabric``s sharing
    the server's naming domain through the served naming object."""
    if request.param == "inproc":
        with ORB("groups-test", timeout=0.3) as orb:
            yield orb, orb
        return
    with served_naming(timeout=0.3) as (
        server_orb, ior
    ), SocketFabric("groups-client") as client_fabric:
        with ORB(
            "groups-client",
            fabric=client_fabric,
            naming=NamingClient(client_fabric, ior),
            timeout=0.3,
        ) as client_orb:
            yield server_orb, client_orb


class TestWhatFailsOver:
    """The engine's fourth recovery action, end to end on a group
    binding with a retrying policy: only a failure the policy gave up
    on moves the binding."""

    @pytest.fixture
    def picky(self, orb, idl):
        picky = PickyGroup(orb, idl)
        runtime = orb.client_runtime()
        proxy = idl.picky._group_bind("picky", runtime, ft_policy=RETRYING)
        try:
            yield picky, proxy, proxy._group.current_replica()
        finally:
            runtime.close()
            picky.group.shutdown()

    def test_a_user_exception_is_raised_as_is(self, orb, idl, picky):
        picky, proxy, bound = picky
        picky.on_call[bound] = _raise(idl.Refused(why="no"))
        with pytest.raises(idl.Refused) as err:
            proxy.add(1.0)
        assert err.value.why == "no"
        assert proxy._group.history == []
        assert orb.stats()["ft"]["failovers"] == 0
        assert picky.executions == {bound: 1}

    def test_a_non_retryable_system_category_does_not_fail_over(
        self, orb, picky
    ):
        picky, proxy, bound = picky
        picky.on_call[bound] = _raise(RemoteError("bad", category="BAD_PARAM"))
        with pytest.raises(RemoteError) as err:
            proxy.add(1.0)
        assert err.value.category == "BAD_PARAM"
        assert not isinstance(err.value, FailoverExhausted)
        assert proxy._group.history == []
        assert orb.stats()["ft"]["failovers"] == 0

    def test_a_transient_replica_fails_over_to_a_sibling(self, orb, picky):
        picky, proxy, bound = picky
        picky.on_call[bound] = _raise(RemoteError("busy", category="TRANSIENT"))
        sibling_answer = proxy.add(1.0)
        (flip,) = proxy._group.history
        assert flip[1] == bound and flip[2] != bound
        assert sibling_answer == 100.0 * flip[2] + 1.0
        # The first attempt and its one retry both ran on the bound
        # replica (a system exception is not cached), then the sibling.
        assert picky.executions == {bound: 2, flip[2]: 1}
        assert orb.stats()["ft"]["failovers"] == 1


class TestReplayIsNotDeduplicated:
    def test_a_replica_that_died_before_replying_ran_the_call_once_as_did_the_sibling(
        self, orb, idl
    ):
        """Retries to one replica dedup through its reply cache; a
        failover replay goes to a sibling with a cache of its own, so
        a call the dead replica already executed runs again there."""
        picky = PickyGroup(orb, idl, replicas=2)
        ran, release = threading.Event(), threading.Event()
        runtime = orb.client_runtime()
        try:
            proxy = idl.picky._group_bind(
                "picky", runtime, ft_policy=RETRYING
            )
            bound = proxy._group.current_replica()
            doomed = picky.group.members[bound]

            def execute_then_wait():
                ran.set()
                release.wait(10.0)

            picky.on_call[bound] = execute_then_wait
            future = proxy.add_nb(1.0)
            assert ran.wait(10.0)
            # Crash the replica while its servant is still inside the
            # call: it never answers while the client waits.
            killer = threading.Thread(target=picky.group.kill, args=(bound,))
            killer.start()
            while not doomed._request_port.closed:
                killer.join(0.01)
            answer = future.value(timeout=30.0)
            release.set()
            killer.join(30.0)
            sibling = proxy._group.current_replica()
            assert sibling != bound
            assert answer == 100.0 * sibling + 1.0
            assert picky.executions == {bound: 1, sibling: 1}
        finally:
            release.set()
            runtime.close()
            picky.group.shutdown()


class TestServeReplicated:
    def test_a_default_orb_serves_a_group_that_fails_over(self, idl):
        with ORB("default-naming", timeout=0.3) as orb:
            assert type(orb.naming) is NamingService
            group = orb.serve_replicated("ctr", _factory(idl), replicas=2)
            runtime = orb.client_runtime()
            try:
                proxy = idl.counter._group_bind(
                    "ctr", runtime, ft_policy=RETRYING
                )
                first = proxy._group.current_replica()
                group.kill(first)
                assert proxy.add(1.0) == 1.0
                assert proxy._group.current_replica() != first
                assert orb.naming.resolve_group("ctr").epoch == 1
            finally:
                runtime.close()
                group.shutdown()

    def test_requires_at_least_one_replica(self, orb, idl):
        with pytest.raises(ValueError, match="at least one replica"):
            orb.serve_replicated("ctr", _factory(idl), replicas=0)

    def test_replicas_are_visible_in_the_flat_namespace(self, orb, idl):
        group = orb.serve_replicated("ctr", _factory(idl), replicas=3)
        try:
            assert group.replica_ids == (0, 1, 2)
            flat = [n for n, _h in orb.naming.names()]
            assert {"ctr#0", "ctr#1", "ctr#2"} <= set(flat)
            assert "ctr" in orb.naming.stats()["groups"]
        finally:
            group.shutdown()

    def test_shutdown_unbinds_everything(self, orb, idl):
        group = orb.serve_replicated("ctr", _factory(idl), replicas=2)
        group.shutdown()
        assert orb.naming.stats()["groups"] == {}
        assert orb.naming.names() == []
        group.shutdown()  # idempotent

    def test_graceful_retirement_keeps_the_epoch(self, orb, idl):
        group = orb.serve_replicated("ctr", _factory(idl), replicas=3)
        try:
            group.shutdown_replica(1)
            ref = orb.naming.resolve_group("ctr")
            assert ref.replica_ids == (0, 2)
            # Planned removal is not a failure: no epoch bump.
            assert ref.epoch == 0
        finally:
            group.shutdown()


class TestSerialFailover:
    def test_failover_after_kill_is_transparent(self, deployment, idl):
        server_orb, orb = deployment
        group = server_orb.serve_replicated(
            "ctr", _factory(idl), replicas=3
        )
        runtime = orb.client_runtime()
        try:
            proxy = idl.counter._group_bind(
                "ctr", runtime, ft_policy=RETRYING
            )
            first = proxy._group.current_replica()
            assert proxy.add(1.0) == 1.0
            group.kill(first)
            # The next invocation fails over and completes; the new
            # replica is a fresh servant, so its counter starts over.
            assert proxy.add(2.0) == 2.0
            second = proxy._group.current_replica()
            assert second != first
            assert proxy._group.history == [(1, first, second)]
            assert orb.stats()["ft"]["failovers"] == 1
            # Rank 0 reported the failure: the router marked the
            # replica down and bumped the health epoch.
            assert orb.naming.epoch("ctr") == 1
            assert first not in orb.naming.resolve_group(
                "ctr"
            ).replica_ids
        finally:
            runtime.close()
            group.shutdown()

    def test_without_policy_the_binding_fails_fast(self, orb, idl):
        group = orb.serve_replicated("ctr", _factory(idl), replicas=3)
        runtime = orb.client_runtime()
        try:
            proxy = idl.counter._group_bind("ctr", runtime)
            group.kill(proxy._group.current_replica())
            with pytest.raises((RemoteError, TransportError)) as err:
                proxy.add(1.0)
            assert not isinstance(err.value, FailoverExhausted)
            assert proxy._group.history == []
        finally:
            runtime.close()
            group.shutdown()

    def test_all_replicas_dead_exhausts_the_walk(self, orb, idl):
        group = orb.serve_replicated("ctr", _factory(idl), replicas=3)
        runtime = orb.client_runtime()
        try:
            proxy = idl.counter._group_bind(
                "ctr", runtime, ft_policy=RETRYING
            )
            for rid in group.replica_ids:
                group.kill(rid)
            with pytest.raises(FailoverExhausted) as err:
                proxy.add(1.0)
            # The walk visited every replica exactly once.
            assert sorted(err.value.replicas_tried) == [0, 1, 2]
            assert err.value.group == "ctr"
            assert (
                orb.stats()["groups"]["failovers_exhausted"] == 1
            )
        finally:
            runtime.close()
            group.shutdown()

    def test_successive_binds_start_on_successive_replicas(
        self, deployment, idl
    ):
        server_orb, orb = deployment
        group = server_orb.serve_replicated(
            "ctr", _factory(idl), replicas=3
        )
        runtime = orb.client_runtime()

        def starts(n):
            return [
                idl.counter._group_bind(
                    "ctr", runtime
                )._group.current_replica()
                for _ in range(n)
            ]

        try:
            # One bind token per bind, round-robin over the live ids.
            assert starts(4) == [0, 1, 2, 0]
            server_orb.naming.mark_down("ctr", 1)
            # Tokens 4 and 5 rotate through the survivors (0, 2).
            assert starts(2) == [0, 2]
        finally:
            runtime.close()
            group.shutdown()

    def test_selection_is_not_an_option(self, orb, idl):
        runtime = orb.client_runtime()
        try:
            with pytest.raises(TypeError, match="selection"):
                idl.counter._group_bind(
                    "ctr", runtime, selection="round-robin"
                )
        finally:
            runtime.close()


class TestCollectiveFailover:
    def test_kill_mid_burst_is_invisible_and_rank_identical(self, idl):
        """The acceptance scenario: a 3-replica group, a 4-rank
        pipelined client, the bound replica killed while a burst is
        in flight — zero client-visible errors and byte-identical
        failover decisions on every rank."""
        with ORB("groups-accept", timeout=0.4) as orb:
            group = orb.serve_replicated(
                "ctr", _factory(idl), replicas=3
            )
            killed = threading.Event()

            def client(ctx):
                proxy = idl.counter._group_bind(
                    "ctr", ctx.runtime, ft_policy=RETRYING
                )
                results, errors = [], []
                for burst in range(4):
                    futures = [
                        proxy.add_nb(1.0) for _ in range(6)
                    ]
                    if (
                        burst == 1
                        and ctx.rank == 0
                        and not killed.is_set()
                    ):
                        killed.set()
                        group.kill(proxy._group.current_replica())
                    for future in futures:
                        try:
                            results.append(future.value(timeout=30.0))
                        except Exception as exc:  # client-visible
                            errors.append(repr(exc))
                return (
                    ctx.rank,
                    proxy._group.current_replica(),
                    tuple(proxy._group.history),
                    len(results),
                    errors,
                )

            try:
                rows = orb.run_spmd_client(4, client)
            finally:
                group.shutdown()

            assert all(not row[4] for row in rows), rows
            assert all(row[3] == 24 for row in rows)
            # Every rank made the same failover decision at the same
            # point: identical histories, identical final target.
            histories = {row[2] for row in rows}
            assert len(histories) == 1
            (history,) = histories
            assert len(history) == 1
            assert len({row[1] for row in rows}) == 1
            # The router heard about it exactly once.
            snap = orb.stats()["groups"]
            assert snap["marked_down"] == 1
            assert snap["epoch_bumps"] == 1
