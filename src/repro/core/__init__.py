"""The PARDIS public API: the ORB facade and SPMD object model.

Typical use::

    import numpy as np
    from repro import ORB, compile_idl

    idl = compile_idl('''
        typedef dsequence<double, 1024> diff_array;
        interface diff_object {
            void diffusion(in long timestep, inout diff_array darray);
        };
    ''')

    class DiffServant(idl.diff_object_skel):
        def diffusion(self, timestep, darray):
            local = darray.local_data()
            ...  # SPMD computation on the local block

    orb = ORB()
    orb.serve("example", lambda ctx: DiffServant(), nthreads=4)

    def client(client_ctx):
        diff = idl.diff_object._spmd_bind("example", client_ctx.runtime)
        seq = idl.diff_array.from_global(np.zeros(1024),
                                         comm=client_ctx.comm)
        diff.diffusion(64, seq)

    orb.run_spmd_client(2, client)
    orb.shutdown()
"""

from repro.core.orb import ORB, ClientContext
from repro.core.spmd import TransferMethod

__all__ = [
    "ClientContext",
    "ORB",
    "TransferMethod",
]
