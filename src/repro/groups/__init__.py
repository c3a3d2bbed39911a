"""Replicated object groups with sharded naming and client failover.

The availability layer of the reproduction: N replica servants behind
one logical name, a consistent-hash **sharded naming service** whose
router keeps group membership and health epochs, and **client-side
replica selection** with collective failover.

- :mod:`repro.groups.hashring` — seeded consistent hashing (the shard
  partition function).
- :mod:`repro.groups.shard` — :class:`ShardedNaming`: a NamingService
  drop-in routing the flat namespace across shards, plus the group
  directory (membership, health epochs, load reports).
- :mod:`repro.groups.select` — :class:`GroupView` and the
  deterministic selection policies (:class:`RoundRobin`,
  :class:`LeastLoaded`).
- :mod:`repro.groups.failover` — per-binding failover state, the
  collective failover vote, and :class:`FailoverExhausted`.
- :mod:`repro.groups.serve` — :func:`serve_replicated` /
  :class:`ReplicatedGroup`, the server-side activation handle.

``orb.stats()["groups"]`` is counted where the events happen: the
binding-side tallies (:data:`~repro.groups.failover.GROUP_COUNTERS`)
in the binding ORB's registry, the directory's in
:meth:`ShardedNaming.stats <repro.groups.shard.ShardedNaming.stats>`.

The client half lives in the proxy: binding to a group name yields a
normal proxy pinned to one replica; when an invocation exhausts its
:class:`~repro.ft.policy.FtPolicy` against that replica, all ranks
vote (:func:`~repro.groups.failover.agree_failover`), flip to the
same sibling, and replay — the reply cache makes the replay
effectively-once.  See ``docs/architecture.md`` ("Replicated object
groups") for the walkthrough.
"""

from repro.groups.failover import (
    FailoverExhausted,
    GroupBinding,
    agree_failover,
    failover_worthy,
)
from repro.groups.hashring import HashRing, stable_hash
from repro.groups.select import (
    GroupView,
    LeastLoaded,
    RoundRobin,
    SelectionError,
    SelectionPolicy,
    policy_for,
)
from repro.groups.serve import (
    ReplicatedGroup,
    replica_name,
    serve_replicated,
)
from repro.groups.shard import ShardedNaming

__all__ = [
    "FailoverExhausted",
    "GroupBinding",
    "GroupView",
    "HashRing",
    "LeastLoaded",
    "ReplicatedGroup",
    "RoundRobin",
    "SelectionError",
    "SelectionPolicy",
    "ShardedNaming",
    "agree_failover",
    "failover_worthy",
    "policy_for",
    "replica_name",
    "serve_replicated",
    "stable_hash",
]
