"""Compare the two argument-transfer methods, live and simulated.

Live: runs the same invocation through the real ORB under both
methods and prints the message patterns of the paper's Figures 2 and
3, observed from outside at the stack's two seams: a meter on the
fabric (``fabric.add_meter``) counts the frames that cross the
network, and a delegate in place of the communicating thread's RTS
object counts the blocks the run-time system is asked to move.

Simulated: prints the paper's Table 1, Table 2 and Figure 4
equivalents from the calibrated testbed model (same output as
``python -m repro.bench``).

Run:  python examples/transfer_comparison.py
"""

import numpy as np

from repro import ORB, compile_idl
from repro.bench import figure4, format_figure4

IDL = """
typedef dsequence<double, 2048> darray;
interface worker {
    void process(inout darray data);
};
"""

idl = compile_idl(IDL, module_name="compare_idl")

NCLIENT, NSERVER, NELEMS = 3, 4, 1200


class Worker(idl.worker_skel):
    def process(self, data):
        data.local_data()[:] *= 2.0


class CountingRTS:
    """Stands in for an RTS object: counts the rank-to-rank blocks of
    every gather and scatter, then lets the real one move them."""

    def __init__(self, inner, edges):
        self._inner = inner
        self._edges = edges

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def _count(self, kind, steps):
        self._edges[kind] += sum(s.src_rank != s.dst_rank for s in steps)

    def gather_views(self, local, steps, **kw):
        self._count("gather", steps)
        return self._inner.gather_views(local, steps, **kw)

    def scatter_chunks(self, full, steps, **kw):
        self._count("scatter", steps)
        return self._inner.scatter_chunks(full, steps, **kw)


def run_method(transfer):
    """One invocation; returns the RTS edge counts (as seen by each
    side's communicating thread), the frames the fabric carried and
    the two sides' data-port addresses by rank."""
    edges = {"gather": 0, "scatter": 0}
    frames = []
    orb = ORB()
    orb.fabric.add_meter(lambda *frame: frames.append(frame))

    def factory(ctx):
        if ctx.rank == 0:
            ctx.rts = CountingRTS(ctx.rts, edges)
        return Worker()

    group = orb.serve("worker", factory, NSERVER)

    def client(c):
        if c.rank == 0:
            c.runtime.rts = CountingRTS(c.runtime.rts, edges)
        proxy = idl.worker._spmd_bind("worker", c.runtime, transfer=transfer)
        seq = idl.darray.from_global(np.ones(NELEMS), comm=c.comm)
        proxy.process(seq)
        return seq.allgather(), c.runtime.port.address

    results = orb.run_spmd_client(NCLIENT, client)
    server_ports = group.reference.data_ports
    orb.shutdown()
    assert np.all(results[0][0] == 2.0)
    return edges, frames, [r[1] for r in results], server_ports


def describe(observed, transfer):
    edges, frames, client_ports, server_ports = observed
    requests = [f for f in frames if f[2] == "request"]
    chunks = [f for f in frames if f[2] == "data"]
    print(f"--- {transfer} (client={NCLIENT}, server={NSERVER}) ---")
    print(f"  network request messages : {len(requests)}")
    print(f"  RTS gather edges         : {edges['gather']}")
    print(f"  RTS scatter edges        : {edges['scatter']}")
    print(f"  direct data chunks       : {len(chunks)}")
    if chunks:
        req = sorted(
            (client_ports.index(src), server_ports.index(dest))
            for src, dest, _kind, _nbytes in chunks
            if src in client_ports
        )
        print(f"  request-phase chunk edges: {req}")
    print()


def main():
    print("=" * 64)
    print("LIVE (functional plane): message patterns of Figures 2 and 3")
    print("=" * 64)
    for transfer in ("centralized", "multiport"):
        describe(run_method(transfer), transfer)

    print("=" * 64)
    print("SIMULATED (performance plane): Figure 4 on the 1997 testbed")
    print("=" * 64)
    print(format_figure4(figure4()))
    print()
    print("run `python -m repro.bench` for Tables 1-2 and the ablations")


if __name__ == "__main__":
    main()
