"""Replicated object groups with client-side failover (repro.groups).

A counter service is served as a 3-replica *object group* behind one
logical name in the ORB's naming domain.  The client binds the group
— not any one replica — with a retrying :class:`FtPolicy`, then keeps
invoking while the replica it is bound to is killed abruptly (ports
closed, no unbind: a crash, not a shutdown).  The engine exhausts its
retries against the dead replica, fails the binding over to a
sibling, and re-issues the interrupted invocations there, so the
client sees every result and zero errors.

The re-issued calls are new requests to a replica with its own reply
cache: one the dead replica executed before dying runs again on the
sibling.  Each replica keeps its own running total here, which is
fine for a demo; a real replicated service keeps no state of its own.

``orb.stats()["groups"]`` shows the story afterwards: the bind, the
selections, the failover, and the directory's health epoch bumping
when the dead replica is reported down.

With ``--two-process`` the same story runs across two OS processes:
a child hosts the three replicas and serves its naming object —
flat names *and* group directory — as an ordinary object; this
process bootstraps a :class:`NamingClient` from the printed IOR, binds
the group through it, and asks the child (through one more ordinary
object) to crash the replica it is bound to.

Run:  python examples/replicated_group.py [--two-process]
"""

import subprocess
import sys
import threading

from repro import ORB, FtPolicy, compile_idl
from repro.orb.nameservice import NamingClient, serve_naming
from repro.orb.socketnet import SocketFabric

IDL = """
interface counter {
    double add(in double x);
};

interface operator_console {
    void kill(in unsigned long replica_id);
    oneway void quit();
};
"""

idl = compile_idl(IDL, module_name="replicated_group_idl")

#: Retries make failover possible: the policy classifies the dead
#: replica's timeouts as retry-worthy, and exhausted retries are the
#: signal that flips the proxy to a sibling (see docs/robustness.md).
POLICY = FtPolicy(max_retries=1, backoff_base_ms=2.0, backoff_cap_ms=10.0)

BURSTS = 4
PER_BURST = 6


class CounterServant(idl.counter_skel):
    def __init__(self):
        self.total = 0.0

    def add(self, x):
        self.total += x
        return self.total


def serve_counter(orb):
    # Three replicas behind the logical name 'counter', each with a
    # reply cache so a request retried against the same replica
    # answers from the cache instead of executing twice.
    return orb.serve_replicated(
        "counter",
        lambda ctx: CounterServant(),
        replicas=3,
        reply_cache_bytes=1 << 20,
    )


def drive_client(orb, kill):
    """Bind the group, invoke in bursts, ``kill(replica_id)`` the bound
    replica mid-run; returns the client-side group counters."""
    runtime = orb.client_runtime(label="demo")
    try:
        proxy = idl.counter._group_bind(
            "counter", runtime, ft_policy=POLICY
        )
        bound_to = proxy._group.current_replica()
        print(f"bound to group 'counter', replica {bound_to}")

        results = []
        for burst in range(BURSTS):
            futures = [proxy.add_nb(1.0) for _ in range(PER_BURST)]
            if burst == 1:
                # Crash the bound replica while the burst is in
                # flight: no unbind, no goodbye — its ports just
                # close.
                print(f"killing replica {bound_to} mid-burst")
                kill(bound_to)
            results.extend(f.value(timeout=30.0) for f in futures)

        now = proxy._group.current_replica()
        assert len(results) == BURSTS * PER_BURST
        assert now != bound_to, "the binding never failed over"
        assert proxy._group.history, "no failover recorded"
        print(f"all {len(results)} invocations completed")
        print(f"failed over {bound_to} -> {now}: "
              f"history {proxy._group.history}")
        stats = orb.stats()["groups"]
        assert stats["failovers"] == 1
        return stats
    finally:
        runtime.close()


def report_directory(stats):
    """The directory's side of the story (the process that keeps it
    counts the down-marks and epochs)."""
    print(f"marked_down={stats['marked_down']} directory epoch for "
          f"'counter': {stats['groups']['counter']['epoch']}")
    assert stats["marked_down"] == 1
    assert stats["groups"]["counter"]["epoch"] == 1


def main():
    # The ORB's one naming domain keeps plain names *and* the group
    # directory.
    with ORB("groups-demo", timeout=0.3) as orb:
        group = serve_counter(orb)
        try:
            stats = drive_client(orb, group.kill)
            print(f"group stats: binds={stats['binds']} "
                  f"failovers={stats['failovers']}")
            report_directory(stats)
            print("OK")
        finally:
            group.shutdown()


def run_server():
    """Child of ``--two-process``: the replicas, the served directory
    and the operator console, until told to quit."""
    done = threading.Event()
    with SocketFabric("groups-server") as fabric, ORB(
        "groups-server", fabric=fabric
    ) as orb:
        group = serve_counter(orb)

        class Console(idl.operator_console_skel):
            def kill(self, replica_id):
                group.kill(replica_id)

            def quit(self):
                done.set()

        # The client retries console calls too, so they dedup too.
        orb.serve(
            "console", lambda ctx: Console(), reply_cache_bytes=1 << 16
        )
        # First line of output: the bootstrap reference.
        print(serve_naming(orb), flush=True)
        done.wait(timeout=120)
        report_directory(orb.stats()["groups"])
        group.shutdown()
    print("server OK", flush=True)


def main_two_process():
    child = subprocess.Popen(
        [sys.executable, __file__, "--server"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        naming_ior = child.stdout.readline().strip()
        assert naming_ior.startswith("IOR:"), naming_ior
        with SocketFabric("groups-client") as fabric, ORB(
            "groups-client",
            fabric=fabric,
            naming=NamingClient(fabric, naming_ior),
            timeout=0.3,
        ) as orb:
            # The operator console gets a runtime of its own: a
            # blocking call on the demo runtime would queue behind the
            # burst it is meant to interrupt.
            operator = orb.client_runtime(label="operator")
            console = idl.operator_console._bind(
                "console", operator, ft_policy=POLICY
            )
            stats = drive_client(orb, console.kill)
            print(f"client stats: binds={stats['binds']} "
                  f"failovers={stats['failovers']}")
            console.quit()
    except BaseException:
        child.kill()  # nobody is left to tell it to quit
        raise
    finally:
        child.wait(timeout=60)
        print(child.stdout.read().rstrip())
    assert child.returncode == 0, "server process failed"
    print("OK")


if __name__ == "__main__":
    if sys.argv[1:] == ["--server"]:
        run_server()
    elif sys.argv[1:] == ["--two-process"]:
        main_two_process()
    else:
        main()
