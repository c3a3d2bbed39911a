"""One event, one count: every tally in the invocation path is a
``Counter`` named in the ORB's always-on registry (or owned by the
fabric / naming object handed to it), incremented at one site, and
``orb.stats()`` only reads them."""

import ast
import pathlib
import threading

import pytest

import repro
from repro import ORB, FtPolicy, compile_idl
from repro.ft.policy import FT_COUNTERS
from repro.groups.failover import GROUP_COUNTERS
from repro.orb.naming import DIRECTORY_COUNTERS, NamingService
from repro.orb.server import SERVER_COUNTERS
from repro.orb.socketnet import SocketFabric
from repro.trace import TraceRecorder

COUNT_IDL = """
interface counter {
    double add(in double x);
};
"""

#: One retry, then the failure is group-agreed and the binding flips.
RETRYING = FtPolicy(max_retries=1, backoff_base_ms=1.0, backoff_cap_ms=5.0)

#: The registry names a run of :func:`failover_script` touches.
TALLIES = ("ft.", "groups.", "invocations.", "server.")


@pytest.fixture(scope="module")
def idl():
    return compile_idl(COUNT_IDL, module_name="count_once_idl")


def _factory(idl):
    class CounterServant(idl.counter_skel):
        def add(self, x):
            return x

    return lambda ctx: CounterServant()


def failover_script(idl, server, client):
    """A retry, an admission and a failover, in that order: bind to a
    2-replica group served by ``server``, call, kill the bound replica,
    call again.  The runtime that did it is closed on return."""
    group = server.serve_replicated(
        "ctr", _factory(idl), replicas=2, reply_cache_bytes=1 << 16
    )
    with client.client_runtime() as runtime:
        proxy = idl.counter._group_bind("ctr", runtime, ft_policy=RETRYING)
        assert proxy.add(1.0) == 1.0
        group.kill(proxy._group.current_replica())
        assert proxy.add(2.0) == 2.0
    return group


def tallies(orb):
    counters = orb.metrics.snapshot(include_sources=False)["counters"]
    return {n: v for n, v in counters.items() if n.startswith(TALLIES)}


class TestOneEventOneCount:
    def test_a_collective_failover_reads_the_same_everywhere(self, idl):
        with ORB("count-once", timeout=0.3) as orb:
            group = orb.serve_replicated("ctr", _factory(idl), replicas=2)
            gate = threading.Barrier(2)

            def client(ctx):
                proxy = idl.counter._group_bind(
                    "ctr", ctx.runtime, ft_policy=RETRYING
                )
                assert proxy.add(1.0) == 1.0
                gate.wait(timeout=10.0)
                if ctx.rank == 0:
                    group.kill(proxy._group.current_replica())
                gate.wait(timeout=10.0)
                assert proxy.add(2.0) == 2.0

            orb.run_spmd_client(2, client)
            stats = orb.stats()
            counters = orb.metrics.snapshot()["counters"]
            # Per-rank events: both ranks flipped, once each.
            assert stats["groups"]["failovers"] == 2
            assert stats["ft"]["failovers"] == 2
            assert counters["groups.failovers"] == 2
            assert counters["ft.failovers"] == 2
            # The router heard about it once (rank 0 reports).
            assert stats["groups"]["marked_down"] == 1

    def test_a_failover_reads_every_tally_exactly(self, idl):
        """One retry, then the binding flips: the whole ledger of an
        in-process run, zeros included."""
        with ORB("ledger", timeout=0.3) as orb:
            failover_script(idl, orb, orb)
            assert tallies(orb) == {
                **{f"ft.{n}": 0 for n in FT_COUNTERS},
                "ft.failovers": 1,
                "ft.retries": 1,
                "ft.retries_exhausted": 1,
                "groups.binds": 1,
                "groups.failovers": 1,
                "groups.selections": 2,
                "groups.failovers_exhausted": 0,
                "invocations.submitted": 2,
                "invocations.completed": 2,
                "invocations.failed": 0,
            }

    def test_each_declared_counter_has_exactly_one_inc_site(self):
        """``<holder>[<name>].inc()`` is the one spelling; the holder
        attribute says which family the name belongs to."""
        families = {
            "ft": "ft.",
            "groups": "groups.",
            "_counters": "groups.",
            "counters": "",
        }
        declared = (
            {f"ft.{n}" for n in FT_COUNTERS}
            | {f"groups.{n}" for n in GROUP_COUNTERS + DIRECTORY_COUNTERS}
            | set(SERVER_COUNTERS)
        )
        root = pathlib.Path(repro.__path__[0])
        sites: dict[str, list[str]] = {}
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "inc"
                    and isinstance(node.func.value, ast.Subscript)
                    and isinstance(node.func.value.value, ast.Attribute)
                ):
                    continue
                holder = node.func.value
                prefix = families.get(holder.value.attr)
                for leaf in ast.walk(holder.slice):
                    if isinstance(leaf, ast.Constant) and prefix is not None:
                        sites.setdefault(prefix + leaf.value, []).append(
                            f"{path.relative_to(root)}:{node.lineno}"
                        )
        assert {n: s for n, s in sites.items() if len(s) != 1} == {}
        assert set(sites) == declared


class TestLookingDoesNotChangeTheNumbers:
    def run(self, idl, trace):
        naming = NamingService()
        with SocketFabric("look-server") as sf, SocketFabric(
            "look-client"
        ) as cf:
            server = ORB(
                "look-server", fabric=sf, naming=naming, timeout=0.3,
                trace=trace,
            )
            client = ORB(
                "look-client", fabric=cf, naming=naming, timeout=0.3,
                trace=trace,
            )
            with server, client:
                failover_script(idl, server, client)
                return tallies(server), tallies(client)

    #: Counted after the reply is on its way / when the peer hangs
    #: up, so where they stand when the client looks is a race.
    LATE = {"server.requests.completed", "server.connections.closed"}

    def test_tallies_are_there_and_equal_with_tracing_off_and_on(self, idl):
        untraced = self.run(idl, None)
        traced = self.run(idl, True)
        for quiet, watched in zip(untraced, traced):
            assert set(quiet) == set(watched)
            for name in set(quiet) - self.LATE:
                assert quiet[name] == watched[name], name
        server, client = untraced
        assert set(SERVER_COUNTERS) <= set(server)
        assert client["ft.retries"] == 1
        assert client["ft.failovers"] == 1
        assert client["groups.binds"] == 1
        assert client["groups.selections"] == 2
        assert client["invocations.submitted"] == 2
        assert client["invocations.completed"] == 2
        assert server["server.requests.admitted"] >= 2
        for prefix in TALLIES:
            assert any(name.startswith(prefix) for name in client)


class TestTwoOrbsTwoLedgers:
    def pair(self, **options):
        return (
            ORB("left", timeout=0.3, **options),
            ORB("right", timeout=0.3, **options),
        )

    def test_without_a_shared_recorder_they_are_disjoint(self, idl):
        left, right = self.pair()
        with left, right:
            failover_script(idl, left, left)
            busy, idle = left.stats(), right.stats()
            assert busy["ft"]["failovers"] == 1
            assert busy["groups"]["binds"] == 1
            assert busy["groups"]["marked_down"] == 1
            assert set(busy["groups"]["groups"]) == {"ctr"}
            assert len(busy["reply_caches"]) == 2
            assert tallies(left)["invocations.completed"] == 2
            assert not any(idle["ft"].values())
            assert idle["groups"] == {
                **dict.fromkeys(GROUP_COUNTERS + DIRECTORY_COUNTERS, 0),
                "groups": {},
            }
            assert idle["reply_caches"] == {}
            assert not any(tallies(right).values())

    def test_handed_one_recorder_they_share_one_registry(self, idl):
        recorder = TraceRecorder()
        left, right = self.pair(trace=recorder)
        with left, right:
            assert left.metrics is right.metrics is recorder.metrics
            failover_script(idl, left, left)
            assert right.stats()["ft"] == left.stats()["ft"]
            assert right.stats()["ft"]["failovers"] == 1
            # What belongs to a naming object stays with it.
            assert right.stats()["groups"]["marked_down"] == 0


class TestTheOrbLetsGoOfClosedRuntimes:
    def test_no_runtime_is_retained_after_fifty_collective_runs(self):
        with ORB("leak") as orb:
            for _ in range(50):
                assert orb.run_spmd_client(2, lambda ctx: ctx.rank) == [0, 1]
            assert orb._runtimes == []

    def test_counts_outlive_the_runtime_that_made_them(self, idl):
        with ORB("outlive", timeout=0.3) as orb:
            failover_script(idl, orb, orb)
            assert orb._runtimes == []
            assert orb.stats()["ft"]["retries"] == 1
            assert orb.stats()["ft"]["failovers"] == 1

    def test_a_runtime_still_open_at_shutdown_is_closed(self):
        orb = ORB("open-at-shutdown")
        runtime = orb.client_runtime()
        orb.shutdown()
        assert runtime.port.closed


class TestSerialView:
    #: What a serial view erases: the group identity, nothing else.
    ERASED = {
        "app_comm", "rank", "size", "orb_comm", "rts",
        "data_port_addresses", "_collective_indexes", "san",
        "_request_ids",
    }

    def test_every_other_attribute_is_the_parents(self):
        """A field added to ``ClientRuntime.__init__`` reaches the
        view without anyone remembering to copy it."""

        def client(ctx):
            runtime = ctx.runtime
            view = runtime.serial_view()
            assert view is not runtime
            assert (view.app_comm, view.rank, view.size) == (None, 0, 1)
            assert view.orb_comm is None and view.rts is None
            assert view.san is None
            assert view.data_port_addresses == (runtime.port.address,)
            assert view._collective_indexes is not runtime._collective_indexes
            return sorted(
                name
                for name, value in vars(runtime).items()
                if name not in self.ERASED and vars(view)[name] is not value
            )

        with ORB("views", sanitize=True) as orb:
            assert orb.run_spmd_client(2, client) == [[], []]

    def test_serial_request_ids_are_the_rank_s_own(self):
        """Two ranks' serial calls never share an id at a server, and
        serial calls do not move the group's shared sequence."""

        def client(ctx):
            view = ctx.runtime.serial_view()
            serial = [view.next_request_id() for _ in range(ctx.rank + 1)]
            return serial[0], ctx.runtime.next_request_id()

        with ORB("view-ids") as orb:
            (serial0, shared0), (serial1, shared1) = orb.run_spmd_client(
                2, client
            )
        assert serial0 >> 32 != serial1 >> 32
        assert shared0 == shared1
