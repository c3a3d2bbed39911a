"""One naming contract, two transports.

The naming contract suites run against the in-memory object and
against *the same object* reached through
:class:`~repro.orb.nameservice.NamingClient` — served by a
:class:`~repro.orb.nameservice.NamingServant` on one ``SocketFabric``,
called from another — so every error text, host-scoping rule, epoch
bump and bind-token sequence is pinned on both.
"""

import contextlib

from repro import ORB
from repro.orb.nameservice import NamingClient, NamingServant, serve_naming
from repro.orb.socketnet import SocketFabric

TRANSPORTS = ("in-memory", "served")


@contextlib.contextmanager
def reach(backing, transport):
    """``backing`` itself, or a client of it served over TCP.

    The servant group is bound in the serving ORB's own (default)
    naming, not in ``backing``, so the namespace under test holds only
    what the test binds.
    """
    if transport == "in-memory":
        yield backing
        return
    with SocketFabric("naming-server") as server_fabric, SocketFabric(
        "naming-client"
    ) as client_fabric, ORB("naming-server", fabric=server_fabric) as orb:
        group = orb.serve(
            "naming-under-test",
            lambda ctx: NamingServant(backing),
            multiport=False,
        )
        client = NamingClient(client_fabric, group.reference.ior())
        try:
            yield client
        finally:
            client.close()


@contextlib.contextmanager
def served_naming(**orb_options):
    """The deployment shape: an ORB on its own ``SocketFabric`` serving
    its *own* naming object.  Yields ``(server_orb, ior)``."""
    with SocketFabric("naming-host") as server_fabric, ORB(
        "naming-host", fabric=server_fabric, **orb_options
    ) as orb:
        yield orb, serve_naming(orb)
