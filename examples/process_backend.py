"""The process RTS backend: SPMD ranks as OS processes.

PARDIS's computing threads normally share one interpreter — cheap, but
serialized on the GIL whenever a rank runs Python compute.  The
process backend (``backend="process"`` or ``PARDIS_RTS=process``)
gives every rank its own process; large payloads move through pooled
POSIX shared memory, so a gather still lands zero-copy at the root.

Two demonstrations:

1. an SPMD group whose ranks are distinct OS processes, gathering a
   1 MiB distributed array through the shared-memory data plane;
2. an ORB client running as a forked process rank, invoking a server
   in the parent process over the TCP fabric.

Run:  python examples/process_backend.py
"""

import os
import sys

import numpy as np

from repro import ORB, compile_idl
from repro.dist import BlockTemplate, Layout, transfer_schedule
from repro.rts import process_backend_supported, rts_for, spawn_spmd
from repro.rts.shm import ShmArray

IDL = """
typedef dsequence<double, 131072> chunk;

interface summer {
    double total(in chunk data);
};
"""

idl = compile_idl(IDL, module_name="process_backend_idl")

N = 1 << 17  # 1 MiB of float64


def spmd_body(ctx):
    """Each rank: own pid, own GIL; gather lands in shared memory."""
    layout = BlockTemplate(ctx.size).layout(N)
    steps = transfer_schedule(layout, Layout(((0, N),)))
    rts = rts_for(ctx.comm)  # -> ProcessRTS on a process-backend rank
    lo, hi = layout.local_range(ctx.rank)
    local = np.arange(lo, hi, dtype=np.float64)
    full = rts.gather_chunks(local, steps, root=0, out=None)
    if ctx.rank == 0:
        # The root's view is zero-copy: it aliases the pooled segment
        # the ranks wrote into, pinned by a lease until collected.
        assert isinstance(full, ShmArray)
        assert np.array_equal(full, np.arange(N, dtype=np.float64))
    rts.synchronize()
    return os.getpid()


class SummerServant(idl.summer_skel):
    def total(self, data):
        return float(np.sum(data.local_data()))


def main():
    if not process_backend_supported():
        print("process backend needs the fork start method; skipping")
        print("process backend OK")
        return

    # 1. SPMD on processes: same spawn call as the thread backend,
    #    but every rank reports a different pid.
    pids = spawn_spmd(spmd_body, 3, backend="process").join(60)
    assert len(set(pids)) == 3 and os.getpid() not in pids
    print(f"3 ranks on 3 processes: pids {sorted(pids)}")

    # 2. An ORB client as a process rank: server in this process,
    #    client forked, joined by the TCP fabric; the server's naming
    #    domain is itself an object the client reaches by its IOR.
    from repro.orb.nameservice import NamingClient, serve_naming
    from repro.orb.socketnet import SocketFabric

    with SocketFabric("server") as fabric:
        orb = ORB("server", fabric=fabric)
        with orb:
            naming_ior = serve_naming(orb)
            orb.serve("summer", lambda ctx: SummerServant(), nthreads=1)

            def client_body(ctx):
                with SocketFabric("client") as client_fabric:
                    client_orb = ORB(
                        "client",
                        fabric=client_fabric,
                        naming=NamingClient(client_fabric, naming_ior),
                    )
                    with client_orb:
                        runtime = client_orb.client_runtime()
                        try:
                            proxy = idl.summer._bind("summer", runtime)
                            data = idl.chunk.from_global(
                                np.ones(N, dtype=np.float64)
                            )
                            return proxy.total(data)
                        finally:
                            runtime.close()

            (total,) = spawn_spmd(
                client_body, 1, backend="process", name="client"
            ).join(60)
    assert total == float(N), total
    print(f"cross-process invocation: summer.total = {total:.0f}")
    print("process backend OK")


if __name__ == "__main__":
    sys.exit(main())
