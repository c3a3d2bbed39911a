"""Replicated object groups and client failover.

The availability layer of the reproduction: N replica servants behind
one logical name in the one naming domain, whose group directory
(:class:`~repro.orb.naming.NamingService`) keeps membership, health
epochs and bind tokens, and **client-side replica selection** with
collective failover.

- :mod:`repro.groups.select` — :class:`GroupView` and the one
  deterministic replica choice, round-robin over the live members by
  token (:meth:`GroupView.choose`).
- :mod:`repro.groups.failover` — per-binding failover state, the
  collective failover vote, and :class:`FailoverExhausted`.
- :mod:`repro.groups.serve` — :func:`serve_replicated` /
  :class:`ReplicatedGroup`, the server-side activation handle.

``orb.stats()["groups"]`` is counted where the events happen: the
binding-side tallies (:data:`~repro.groups.failover.GROUP_COUNTERS`)
in the binding ORB's registry, the directory's in
:meth:`NamingService.stats <repro.orb.naming.NamingService.stats>`.

The client half is the ordinary proxy and invocation engine: binding
to a group name yields a normal proxy pinned to one replica; when an
invocation fails for good against that replica under a
:class:`~repro.ft.policy.FtPolicy`, all ranks vote
(:func:`~repro.groups.failover.agree_failover`), flip to the same
sibling, and re-issue the call there under a fresh request id.  The
replay is not deduplicated — the sibling has its own reply cache — so
replicas are stateless.  See ``docs/architecture.md`` ("Replicated
object groups") for the walkthrough.
"""

from repro.groups.failover import (
    FailoverExhausted,
    GroupBinding,
    agree_failover,
)
from repro.groups.select import GroupView, SelectionError
from repro.groups.serve import (
    ReplicatedGroup,
    replica_name,
    serve_replicated,
)

__all__ = [
    "FailoverExhausted",
    "GroupBinding",
    "GroupView",
    "ReplicatedGroup",
    "SelectionError",
    "agree_failover",
    "replica_name",
    "serve_replicated",
]
