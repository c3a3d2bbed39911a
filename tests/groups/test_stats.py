"""The ``groups`` section of ``orb.stats()`` and the snapshot
isolation contract of every section."""

import copy

import pytest

from repro import ORB, FtPolicy, compile_idl

STATS_IDL = """
interface counter {
    double add(in double x);
};
"""

#: Every section the snapshot contract covers (trace is added when
#: tracing is on; the parametrization below turns it on for all).
SECTIONS = [
    "cdr_copies",
    "fabric",
    "ft",
    "groups",
    "reply_caches",
    "rts",
    "san",
    "trace",
    "transfer_schedule_cache",
]


@pytest.fixture(scope="module")
def idl():
    return compile_idl(STATS_IDL, module_name="groups_stats_idl")


def _active_orb(idl):
    """An ORB with live activity behind every stats section: a
    replicated group served, bound, invoked, and failed over."""
    orb = ORB("groups-stats", timeout=0.3, trace=True)

    class CounterServant(idl.counter_skel):
        def __init__(self):
            self.total = 0.0

        def add(self, x):
            self.total += x
            return self.total

    group = orb.serve_replicated(
        "ctr", lambda ctx: CounterServant(), replicas=3
    )
    runtime = orb.client_runtime()
    policy = FtPolicy(
        max_retries=1, backoff_base_ms=1.0, backoff_cap_ms=5.0
    )
    proxy = idl.counter._group_bind("ctr", runtime, ft_policy=policy)
    proxy.add(1.0)
    group.kill(proxy._group.current_replica())
    proxy.add(2.0)  # fails over
    return orb, group, runtime


class TestGroupsSection:
    def test_counters_and_board_reflect_the_run(self, idl):
        orb, group, runtime = _active_orb(idl)
        try:
            stats = orb.stats()["groups"]
            assert stats["binds"] == 1
            assert stats["failovers"] == 1
            # Initial selection plus the failover reselection.
            assert stats["selections"] == 2
            assert stats["marked_down"] == 1
            assert stats["epoch_bumps"] == 1
            assert "health_reports" not in stats
            board = stats["groups"]["ctr"]
            assert board["replicas"] == 3
            assert board["down"] == 1
            assert board["epoch"] == 1
        finally:
            runtime.close()
            group.shutdown()
            orb.shutdown()

    def test_unbound_group_leaves_the_board(self, idl):
        orb, group, runtime = _active_orb(idl)
        try:
            group.shutdown()
            assert orb.stats()["groups"]["groups"] == {}
        finally:
            runtime.close()
            orb.shutdown()


class TestSnapshotIsolation:
    """``orb.stats()`` returns a deep copy at the snapshot boundary:
    mutating a returned snapshot never perturbs live state or an
    earlier snapshot, for EVERY section."""

    @pytest.fixture(scope="class")
    def live(self, idl):
        orb, group, runtime = _active_orb(idl)
        yield orb
        runtime.close()
        group.shutdown()
        orb.shutdown()

    @staticmethod
    def _corrupt(node):
        """Recursively trash a snapshot subtree in place."""
        if isinstance(node, dict):
            for key in list(node):
                TestSnapshotIsolation._corrupt(node[key])
                node[key] = "corrupted"
            node["injected"] = True
        elif isinstance(node, list):
            node.clear()

    @pytest.mark.parametrize("section", SECTIONS)
    def test_mutating_a_snapshot_does_not_leak(self, live, section):
        baseline = live.stats()
        assert section in baseline, f"section {section!r} missing"
        reference = copy.deepcopy(baseline[section])
        self._corrupt(baseline[section])
        again = live.stats()
        assert again[section] == reference

    @pytest.mark.parametrize("section", SECTIONS)
    def test_snapshots_are_independent_of_each_other(
        self, live, section
    ):
        first = live.stats()
        kept = copy.deepcopy(first[section])
        second = live.stats()
        self._corrupt(second[section])
        assert first[section] == kept
