"""PARDIS across two OS processes, joined only by TCP.

The in-process examples put client and server in one interpreter; this
one splits them the way the paper's testbed did (two machines, one
link): a child process hosts the SPMD object behind a
:class:`SocketFabric`, the parent process runs the parallel client,
and the child's naming domain — itself an ordinary object, served on
the same event loop — introduces them: the child prints that object's
stringified IOR, the parent bootstraps a :class:`NamingClient` from
it.  IORs minted in the child resolve and route correctly in the
parent because socket addresses are fully routable.

Run:  python examples/two_process_demo.py
"""

import subprocess
import sys

import numpy as np

from repro import ORB, compile_idl
from repro.orb.nameservice import NamingClient, serve_naming
from repro.orb.socketnet import SocketFabric

IDL = """
typedef dsequence<double, 16384> samples;

interface statistics {
    double mean(in samples data);
    double variance(in samples data);
    oneway void quit();
};
"""

idl = compile_idl(IDL, module_name="two_process_idl")


def run_server() -> None:
    """Child process: host the SPMD object — and the naming object
    that introduces it — until told to quit."""
    import threading

    done = threading.Event()

    class StatsServant(idl.statistics_skel):
        def _moments(self, data):
            from repro.rts.mpi import SUM

            local = data.local_data()
            n = data.length()
            if self.comm is None:
                return n, float(local.sum()), float((local**2).sum())
            sums = self.comm.allreduce(
                np.array([local.sum(), (local**2).sum()]), op=SUM
            )
            return n, float(sums[0]), float(sums[1])

        def mean(self, data):
            n, s1, _ = self._moments(data)
            return s1 / n if n else 0.0

        def variance(self, data):
            n, s1, s2 = self._moments(data)
            if not n:
                return 0.0
            mu = s1 / n
            return s2 / n - mu * mu

        def quit(self):
            done.set()

    fabric = SocketFabric("stats-server")
    orb = ORB("stats-server", fabric=fabric)
    orb.serve("statistics", lambda ctx: StatsServant(), nthreads=4)
    # First line of output: the bootstrap reference.
    print(serve_naming(orb), flush=True)
    print(
        f"server: object 'statistics' up on "
        f"{fabric.host}:{fabric.tcp_port} (4 threads)",
        flush=True,
    )
    done.wait(timeout=120)
    orb.shutdown()
    fabric.close()
    print("server: shut down cleanly", flush=True)


def run_client(naming_ior: str) -> None:
    """Parent process: a 2-thread parallel client."""
    fabric = SocketFabric("stats-client")
    orb = ORB(
        "stats-client",
        fabric=fabric,
        naming=NamingClient(fabric, naming_ior),
    )

    def client(c):
        stats = idl.statistics._spmd_bind("statistics", c.runtime)
        data = idl.samples.from_global(
            np.arange(10_000, dtype=np.float64), comm=c.comm
        )
        return stats.mean(data), stats.variance(data)

    results = orb.run_spmd_client(2, client)
    # Tell the server to exit — a non-collective interaction, so use a
    # per-thread binding (§2.1's plain _bind).
    runtime = orb.client_runtime(label="controller")
    idl.statistics._bind("statistics", runtime).quit()
    runtime.close()
    orb.shutdown()
    fabric.close()
    mean, variance = results[0]
    print(f"client: mean={mean:.1f} variance={variance:.1f}")
    assert mean == 4999.5
    assert abs(variance - (10_000**2 - 1) / 12) < 1e-6 * variance


def main() -> None:
    child = subprocess.Popen(
        [sys.executable, __file__, "--server"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        # The child serves 'statistics' before it prints the naming
        # object's IOR, so there is nothing to poll for.
        naming_ior = child.stdout.readline().strip()
        assert naming_ior.startswith("IOR:"), naming_ior
        run_client(naming_ior)
    finally:
        child.wait(timeout=30)
        print(child.stdout.read().rstrip())
    assert child.returncode == 0, "server process failed"
    print("two-process demo OK")


if __name__ == "__main__":
    if sys.argv[1:] == ["--server"]:
        run_server()
    else:
        main()
