"""The ORB over the RTS interface of §2.3, installed through the seam
the engines read — ``ctx.rts`` in a servant factory, ``runtime.rts``
on a client runtime.  The data plane follows the kernel
(``rts_for``); whatever sits in the seam is all the engines ask."""

import numpy as np

from repro.rts import RuntimeSystem


def test_centralized_invocation_through_an_assigned_rts(
    orb, idl, servant_class
):
    """The transfer engines program against the RuntimeSystem
    contract, so an RTS assigned on either side carries the
    centralized gathers and scatters."""

    def factory(ctx):
        ctx.rts = RuntimeSystem(ctx.comm)
        return servant_class()

    orb.serve("styled", factory, 3)

    def client(c):
        c.runtime.rts = RuntimeSystem(c.runtime.orb_comm)
        proxy = idl.diff_object._spmd_bind(
            "styled", c.runtime, transfer="centralized"
        )
        seq = idl.darray.from_global(
            np.arange(13, dtype=np.float64), comm=c.comm
        )
        proxy.diffusion(4, seq)
        return proxy._runtime.rts is c.runtime.rts, seq.allgather()

    for assigned, result in orb.run_spmd_client(2, client):
        assert assigned
        np.testing.assert_array_equal(
            result, np.arange(13, dtype=np.float64) + 4
        )
