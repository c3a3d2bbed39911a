"""The ORB over both RTS interfaces (§2.3): the implemented
message-passing interface and the planned one-sided alternative."""

import numpy as np
import pytest

from repro.rts import process_backend_supported, rts_for, spawn_spmd

STYLES = ["message-passing", "one-sided"]


@pytest.mark.parametrize("server_style", STYLES)
@pytest.mark.parametrize("client_style", STYLES)
def test_centralized_invocation_under_any_rts_pairing(
    orb, idl, servant_class, server_style, client_style
):
    """The transfer engines program against the RuntimeSystem
    contract, so any client/server pairing of RTS styles must yield
    identical results (only the gather/scatter mechanics differ)."""
    orb.serve(
        "styled",
        lambda ctx: servant_class(),
        3,
        rts_style=server_style,
    )

    from repro.core.orb import ClientContext
    from repro.rts.executor import SpmdExecutor

    def body(rank_ctx):
        runtime = orb.client_runtime(
            rank_ctx.comm, rts_style=client_style
        )
        try:
            c = ClientContext(
                rank=rank_ctx.rank,
                size=2,
                comm=rank_ctx.comm,
                runtime=runtime,
            )
            proxy = idl.diff_object._spmd_bind(
                "styled", c.runtime, transfer="centralized"
            )
            seq = idl.darray.from_global(
                np.arange(13, dtype=np.float64), comm=c.comm
            )
            proxy.diffusion(4, seq)
            return seq.allgather()
        finally:
            runtime.close()

    results = SpmdExecutor(2).run(body)
    for result in results:
        np.testing.assert_array_equal(
            result, np.arange(13, dtype=np.float64) + 4
        )


def test_unknown_rts_style_rejected(orb):
    with pytest.raises(ValueError, match="unknown RTS style"):
        from repro.rts.mpi import create_group

        comms = create_group(1)
        orb.client_runtime(comms[0], rts_style="telepathic")


@pytest.mark.skipif(
    not process_backend_supported(),
    reason="process RTS backend needs fork + POSIX shm",
)
def test_one_sided_on_the_process_backend_rejected():
    """One-sided windows presume a thread-shared address space; asking
    for them on a process-backend communicator is an error, not a
    silent switch to the shm data plane."""

    def body(ctx):
        errors = []
        for style in ("one-sided", "telepathic"):
            try:
                rts_for(ctx.comm, style)
            except ValueError as exc:
                errors.append(str(exc))
        return errors

    for errors in spawn_spmd(body, 2, backend="process").join(timeout=30):
        assert len(errors) == 2
        assert "thread-backend only" in errors[0]
        assert "unknown RTS style" in errors[1]


def test_unknown_rts_style_rejected_by_serve(orb, servant_class):
    """Client runtimes and servant groups share one RTS factory, so
    the server side rejects what the client side rejects."""
    with pytest.raises(Exception, match="unknown RTS style"):
        orb.serve(
            "styled", lambda ctx: servant_class(), 2,
            rts_style="telepathic",
        )
