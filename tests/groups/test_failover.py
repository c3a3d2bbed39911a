"""End-to-end group failover: the acceptance scenario (collective
kill mid-burst), serial failover, exhaustion, and the fail-fast
degeneration without a retrying policy."""

import threading

import pytest

from repro import ORB, FtPolicy, compile_idl
from repro.ft.policy import (
    DeadlineExceeded,
    InvocationRetriesExhausted,
)
from repro.groups import (
    FailoverExhausted,
    ShardedNaming,
    failover_worthy,
    serve_replicated,
)
from repro.orb.nameservice import NamingClient
from repro.orb.naming import NamingError
from repro.orb.operation import RemoteError
from repro.orb.socketnet import SocketFabric
from repro.orb.transport import TransportError
from tests.naming_transports import served_naming

GROUP_IDL = """
interface counter {
    double add(in double x);
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
    with ORB(
        "groups-test", naming=ShardedNaming(shards=2), timeout=0.3
    ) as orb:
        yield orb


@pytest.fixture(params=["inproc", "socket"])
def deployment(request):
    """``(server_orb, client_orb)``: one in-process ORB playing both
    roles, or servers and client on separate ``SocketFabric``s sharing
    the server's ``ShardedNaming`` through the served naming object."""
    if request.param == "inproc":
        with ORB(
            "groups-test", naming=ShardedNaming(shards=2), timeout=0.3
        ) as orb:
            yield orb, orb
        return
    with served_naming(
        naming=ShardedNaming(shards=2), timeout=0.3
    ) as (server_orb, ior), SocketFabric("groups-client") as client_fabric:
        with ORB(
            "groups-client",
            fabric=client_fabric,
            naming=NamingClient(client_fabric, ior),
            timeout=0.3,
        ) as client_orb:
            yield server_orb, client_orb


class TestFailoverWorthy:
    def test_no_policy_means_fail_fast(self):
        exc = InvocationRetriesExhausted("add", attempts=2)
        assert not failover_worthy(exc, None)

    def test_exhausted_retries_and_deadlines_are_worthy(self):
        policy = FtPolicy(max_retries=1)
        assert failover_worthy(
            InvocationRetriesExhausted("add", attempts=2), policy
        )
        assert failover_worthy(DeadlineExceeded("add"), policy)

    def test_remote_errors_follow_the_retryable_categories(self):
        policy = FtPolicy(max_retries=1)
        assert failover_worthy(
            RemoteError("boom", category="COMM_FAILURE"), policy
        )
        assert not failover_worthy(
            RemoteError("boom", category="BAD_PARAM"), policy
        )

    def test_transport_errors_are_worthy(self):
        policy = FtPolicy(max_retries=1)
        assert failover_worthy(TransportError("port closed"), policy)

    def test_user_errors_are_not(self):
        assert not failover_worthy(
            ValueError("app bug"), FtPolicy(max_retries=1)
        )


class TestServeReplicated:
    def test_requires_a_sharded_naming(self, idl):
        with ORB("flat-naming") as orb:
            threads = threading.active_count()
            with pytest.raises(NamingError, match="ShardedNaming"):
                serve_replicated(orb, "ctr", _factory(idl))
            # The replicas activated before the directory refused the
            # group are gone again, names and threads.
            assert orb.naming.names() == []
            assert threading.active_count() == threads

    def test_requires_at_least_one_replica(self, orb, idl):
        with pytest.raises(ValueError, match="at least one replica"):
            orb.serve_replicated("ctr", _factory(idl), replicas=0)

    def test_replicas_are_visible_in_the_flat_namespace(self, orb, idl):
        group = orb.serve_replicated("ctr", _factory(idl), replicas=3)
        try:
            assert group.replica_ids == (0, 1, 2)
            flat = [n for n, _h in orb.naming.names()]
            assert {"ctr#0", "ctr#1", "ctr#2"} <= set(flat)
            assert orb.naming.is_group("ctr")
        finally:
            group.shutdown()

    def test_shutdown_unbinds_everything(self, orb, idl):
        group = orb.serve_replicated("ctr", _factory(idl), replicas=2)
        group.shutdown()
        assert not orb.naming.is_group("ctr")
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

    def test_report_health_defaults_to_cache_occupancy(self, orb, idl):
        group = orb.serve_replicated("ctr", _factory(idl), replicas=2)
        try:
            group.report_health()
            ref = orb.naming.resolve_group("ctr")
            assert ref.load(0) == 0.0 and ref.load(1) == 0.0
            group.report_health({1: 7.5})
            assert orb.naming.resolve_group("ctr").load(1) == 7.5
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

    def test_max_failovers_caps_the_walk(self, orb, idl):
        group = orb.serve_replicated("ctr", _factory(idl), replicas=3)
        runtime = orb.client_runtime()
        try:
            policy = FtPolicy(
                max_retries=1,
                backoff_base_ms=1.0,
                backoff_cap_ms=5.0,
                max_failovers=0,
            )
            proxy = idl.counter._group_bind(
                "ctr", runtime, ft_policy=policy
            )
            group.kill(proxy._group.current_replica())
            with pytest.raises(FailoverExhausted):
                proxy.add(1.0)
            # Budget zero: the binding never flipped.
            assert proxy._group.history == []
        finally:
            runtime.close()
            group.shutdown()

    def test_least_loaded_bind_follows_health_reports(self, orb, idl):
        group = orb.serve_replicated("ctr", _factory(idl), replicas=3)
        runtime = orb.client_runtime()
        try:
            group.report_health({0: 5.0, 1: 0.5, 2: 5.0})
            proxy = idl.counter._group_bind(
                "ctr",
                runtime,
                selection="least-loaded",
                ft_policy=RETRYING,
            )
            assert proxy._group.current_replica() == 1
            assert proxy.add(1.0) == 1.0
        finally:
            runtime.close()
            group.shutdown()


class TestCollectiveFailover:
    def test_kill_mid_burst_is_invisible_and_rank_identical(self, idl):
        """The acceptance scenario: a 3-replica group, a 4-rank
        pipelined client, the bound replica killed while a burst is
        in flight — zero client-visible errors and byte-identical
        failover decisions on every rank."""
        naming = ShardedNaming(shards=2)
        with ORB("groups-accept", naming=naming, timeout=0.4) as orb:
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
