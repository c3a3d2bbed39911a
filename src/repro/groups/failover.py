"""Client-side failover state for replicated group bindings.

A :class:`GroupBinding` is the per-proxy (per client binding) record
of *which replica this binding currently targets* and how it got
there.  The proxy consults it on every launch and drives it through
:meth:`GroupBinding.fail_over` when an invocation against the current
replica dies with a failover-worthy error.

The SPMD discipline carries over from :mod:`repro.ft`: on a collective
binding every rank holds an identical binding (same view, same bind
token, same policy), the failing invocation already raised the *same*
group-agreed exception at the same collective index on every rank
(that is what the ft agreement vote guarantees), and the failover
decision itself is re-confirmed with one more collective —
:func:`agree_failover` — before any rank flips.  After the vote the
new replica is a pure function of shared state, so all ranks move
together and the replayed request keeps the collective sequence
aligned.

Replays are safe because of the PR 4 reply cache: the retried request
keeps its request id, so a replica that already executed it answers
from cache instead of re-executing (effectively-once).
"""

from __future__ import annotations

import threading
from typing import Any, Mapping

from repro.ft.policy import (
    DeadlineExceeded,
    FtPolicy,
    InvocationRetriesExhausted,
)
from repro.groups.select import GroupView, SelectionError, SelectionPolicy
from repro.metrics import Counter
from repro.orb.operation import RemoteError
from repro.orb.reference import ObjectReference
from repro.orb.transport import TransportError

#: The binding-side tallies of ``orb.stats()["groups"]``:
#: ``groups.<name>`` counters in the binding ORB's registry, held by
#: each client runtime as ``runtime.groups[name]`` and handed to the
#: bindings made on it.
GROUP_COUNTERS = ("binds", "selections", "failovers", "failovers_exhausted")


class FailoverExhausted(RemoteError):
    """A group invocation failed on every replica it was allowed to try.

    Raised with identical arguments on every rank of a collective
    binding (the per-replica failures were group-agreed, and the
    replica walk is deterministic).
    """

    def __init__(
        self,
        operation: str,
        group: str,
        *,
        replicas_tried: tuple[int, ...] = (),
        collective_index: int = 0,
        detail: str = "",
    ) -> None:
        tried = ", ".join(str(r) for r in replicas_tried) or "none"
        message = (
            f"invocation '{operation}' #{collective_index} on group "
            f"'{group}' failed over past replicas [{tried}]"
        )
        if detail:
            message = f"{message}; last failure: {detail}"
        super().__init__(message, category="COMM_FAILURE")
        self.operation = operation
        self.group = group
        self.replicas_tried = replicas_tried
        self.collective_index = collective_index


def failover_worthy(exc: BaseException, policy: FtPolicy | None) -> bool:
    """Should a group binding try another replica for this failure?

    Only with a retrying policy in force: failover is a *retry at
    group scope*, and without a policy the binding fails fast exactly
    like a singleton one (lint rule PD213 flags that configuration).
    Worthy failures are the ones that say "this replica, not this
    request, is the problem": exhausted transport-level retries,
    deadline expiry, raw transport errors, and retryable remote
    system exceptions.  User exceptions and non-retryable categories
    propagate untouched — a servant raising ``ValueError`` on replica
    1 would raise it on replica 2 too.
    """
    if policy is None:
        return False
    if isinstance(exc, (InvocationRetriesExhausted, DeadlineExceeded)):
        return True
    if isinstance(exc, RemoteError):
        return exc.category in policy.retryable_categories
    return isinstance(exc, TransportError)


def agree_failover(
    rts: Any, failed_replica: int, token: int
) -> tuple[int, int]:
    """The collective failover vote: all ranks confirm they are about
    to abandon the same replica with the same failover token.

    Each rank contributes its local ``(failed replica, token)``; the
    canonical decision is rank 0's pair (all pairs are identical by
    construction — the vote is the barrier that *proves* it before any
    rank flips, and catches divergence as a loud error instead of a
    hung collective three invocations later).
    """
    if rts is None:
        return failed_replica, token
    votes = rts.allgather((failed_replica, token))
    canonical = votes[0]
    if any(vote != canonical for vote in votes):
        raise RuntimeError(
            f"group failover diverged across ranks: votes {votes!r}"
        )
    return canonical


class GroupBinding:
    """One client binding's replica-targeting state (thread-safe).

    ``token`` seeds the selection policy: the router's bind token
    spreads initial placements across bindings; each failover advances
    it so the walk continues past the dead replica deterministically.
    """

    def __init__(
        self,
        view: GroupView,
        selection: SelectionPolicy,
        bind_token: int,
        counters: Mapping[str, Counter],
    ) -> None:
        self._lock = threading.Lock()
        self._counters = counters
        self.view = view
        self.selection = selection
        self.token = bind_token
        self.replica_id = self._choose()
        #: ``(token, failed replica, new replica)`` per flip — ranks of
        #: a collective binding must end up with identical histories
        #: (the acceptance tests assert exactly that).
        self.history: list[tuple[int, int, int]] = []

    def _choose(self) -> int:
        replica_id = self.selection.choose(self.view, self.token)
        self._counters["selections"].inc()
        return replica_id

    @property
    def group_name(self) -> str:
        return self.view.name

    def current_ref(self) -> ObjectReference:
        with self._lock:
            return self.view.ref(self.replica_id)

    def current_replica(self) -> int:
        with self._lock:
            return self.replica_id

    def replicas_tried(self) -> tuple[int, ...]:
        with self._lock:
            return tuple(f for _, f, _n in self.history)

    def budget(self, policy: FtPolicy) -> int:
        """How many flips this binding may still make under ``policy``
        (default budget: every sibling of the first replica, once)."""
        limit = policy.max_failovers
        if limit is None:
            limit = max(len(self.view.group.members) - 1, 0)
        with self._lock:
            return max(limit - len(self.history), 0)

    def fail_over(self, failed_replica: int) -> tuple[int, ObjectReference]:
        """Mark ``failed_replica`` down in the local view and select
        the replacement: the next live replica at the advanced token.

        Raises :class:`~repro.groups.select.SelectionError` when no
        live replica remains.  Call only after :func:`agree_failover`
        confirmed the flip collectively.
        """
        with self._lock:
            self.view = self.view.without(failed_replica)
            self.token += 1
            replacement = self._choose()
            self.history.append(
                (self.token, failed_replica, replacement)
            )
            self.replica_id = replacement
        self._counters["failovers"].inc()
        return replacement, self.view.ref(replacement)

    def exhausted(
        self,
        operation: str,
        *,
        collective_index: int = 0,
        detail: str = "",
    ) -> FailoverExhausted:
        self._counters["failovers_exhausted"].inc()
        return FailoverExhausted(
            operation,
            self.group_name,
            replicas_tried=self.replicas_tried() + (self.current_replica(),),
            collective_index=collective_index,
            detail=detail,
        )

    def __repr__(self) -> str:
        return (
            f"<GroupBinding '{self.group_name}' replica "
            f"{self.replica_id} token {self.token} "
            f"{len(self.history)} failovers>"
        )


__all__ = [
    "FailoverExhausted",
    "GroupBinding",
    "GroupView",
    "SelectionError",
    "agree_failover",
    "failover_worthy",
]
