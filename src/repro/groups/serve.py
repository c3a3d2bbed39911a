"""Server-side replication: serve N replicas behind one group name.

:func:`serve_replicated` is the group counterpart of
:meth:`repro.core.orb.ORB.serve`: it activates ``replicas``
independent servant groups — each a full SPMD object served as
``name#<rid>`` — and registers the membership with the group
directory of the ORB's naming object (a
:class:`~repro.orb.naming.NamingService`, in this process or served
from another one).  The returned :class:`ReplicatedGroup` is the
operator's handle: kill a replica (crash semantics, for tests and
benchmarks), retire one gracefully, shut the whole group down.

Replication here is of the *service*, not of state: replicas are
independent servants (think stateless or externally synchronized
workers), which is exactly the PARDIS-era object-group model this
layer reproduces.  What the subsystem adds is availability — clients
fail over collectively and re-issue the call on a sibling — not state
machine replication.  The re-issued call is not deduplicated against
the dead replica: a call it executed before dying runs again.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.orb.naming import NamingError


def replica_name(name: str, replica_id: int) -> str:
    """The naming-domain key of one replica (``name#rid``)."""
    return f"{name}#{replica_id}"


class ReplicatedGroup:
    """An activated replicated object group (server-side handle)."""

    def __init__(self, orb: Any, name: str, naming: Any) -> None:
        self.orb = orb
        self.name = name
        self.naming = naming
        #: replica id -> the replica's ServantGroup.
        self.members: dict[int, Any] = {}
        self._shut = False

    @property
    def replica_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def kill(self, replica_id: int) -> None:
        """Crash one replica: abrupt port close, naming entry left
        dangling — exactly what a dead process looks like.  Clients
        notice through transport errors and fail over."""
        group = self.members.get(replica_id)
        if group is None:
            raise NamingError(
                f"group '{self.name}' has no replica {replica_id}"
            )
        group.kill()

    def shutdown_replica(self, replica_id: int) -> None:
        """Retire one replica gracefully: drain, unbind, and remove it
        from the group directory (no epoch bump — planned removal is
        not a failure)."""
        group = self.members.pop(replica_id, None)
        if group is None:
            raise NamingError(
                f"group '{self.name}' has no replica {replica_id}"
            )
        self.naming.remove_member(self.name, replica_id)
        group.shutdown()

    def shutdown(self) -> None:
        """Shut every replica down and unbind the group."""
        if self._shut:
            return
        self._shut = True
        for group in self.members.values():
            group.shutdown()
        self.members.clear()
        try:
            self.naming.unbind_group(self.name)
        except NamingError:
            pass


def serve_replicated(
    orb: Any,
    name: str,
    servant_factory: Callable[..., Any],
    *,
    replicas: int = 3,
    nthreads: int = 1,
    reply_cache_bytes: int = 1 << 20,
    **serve_kwargs: Any,
) -> ReplicatedGroup:
    """Activate ``replicas`` servants of one object behind one group
    name and register the group with the naming directory.

    ``orb.naming`` is the ORB's :class:`~repro.orb.naming.NamingService`
    or a :class:`~repro.orb.nameservice.NamingClient` of one served
    elsewhere.  Each replica is a normal ``orb.serve`` activation
    under ``name#<rid>`` — visible in the flat namespace too — and the
    reply cache defaults *on* (1 MiB per replica): a retried request
    to the same replica answers from the cache instead of executing
    twice.
    """
    naming = orb.naming
    if replicas < 1:
        raise ValueError("a replicated group needs at least one replica")
    handle = ReplicatedGroup(orb, name, naming)
    try:
        for rid in range(replicas):
            handle.members[rid] = orb.serve(
                replica_name(name, rid),
                servant_factory,
                nthreads,
                reply_cache_bytes=reply_cache_bytes,
                **serve_kwargs,
            )
        naming.bind_group(
            name,
            handle.members[0].reference.repo_id,
            {
                rid: group.reference
                for rid, group in handle.members.items()
            },
        )
    except Exception:
        for group in handle.members.values():
            group.shutdown()
        raise
    return handle
