"""The ORB over both RTS interfaces (§2.3): the implemented
message-passing interface and the planned one-sided alternative.

The data plane follows the kernel (``rts_for``); another realization
of the ``RuntimeSystem`` contract is installed through the same seam
the engines read — ``ctx.rts`` in a servant factory, ``runtime.rts``
on a client runtime."""

import numpy as np
import pytest

from repro.rts import MessagePassingRTS, OneSidedRTS

STYLES = [MessagePassingRTS, OneSidedRTS]


@pytest.mark.parametrize("server_style", STYLES)
@pytest.mark.parametrize("client_style", STYLES)
def test_centralized_invocation_under_any_rts_pairing(
    orb, idl, servant_class, server_style, client_style
):
    """The transfer engines program against the RuntimeSystem
    contract, so any client/server pairing of RTS styles must yield
    identical results (only the gather/scatter mechanics differ)."""

    def factory(ctx):
        ctx.rts = server_style(ctx.comm)
        return servant_class()

    orb.serve("styled", factory, 3)

    def client(c):
        c.runtime.rts = client_style(c.runtime.orb_comm)
        proxy = idl.diff_object._spmd_bind(
            "styled", c.runtime, transfer="centralized"
        )
        seq = idl.darray.from_global(
            np.arange(13, dtype=np.float64), comm=c.comm
        )
        proxy.diffusion(4, seq)
        return type(proxy._runtime.rts), seq.allgather()

    for style, result in orb.run_spmd_client(2, client):
        assert style is client_style
        np.testing.assert_array_equal(
            result, np.arange(13, dtype=np.float64) + 4
        )
