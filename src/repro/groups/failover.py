"""Client-side failover state for replicated group bindings.

A :class:`GroupBinding` is the per-proxy (per client binding) record
of *which replica this binding currently targets* and how it got
there.  The invocation engine reads the target at every launch
(:meth:`GroupBinding.target`); when an invocation against it fails for
good under a fault-tolerance policy, the engine's fourth recovery
action — after retry, degrade and raise — is :meth:`GroupBinding.
fail_over`, and the engine re-issues the call on the new target.

The SPMD discipline carries over from :mod:`repro.ft`: on a collective
binding every rank holds an identical binding (same view, same bind
token), the failing invocation reached its failover decision on the
*same* group-agreed failure at the same collective index on every
rank (that is what the ft agreement vote guarantees),
and the flip itself is re-confirmed with one more collective —
:func:`agree_failover` — before any rank moves.  After the vote the
new replica is a pure function of shared state, so all ranks move
together and the replayed request keeps the collective sequence
aligned.

A replay is a new invocation under a fresh request id, sent to a
replica with a reply cache of its own.  Retries to one replica dedup
through that replica's cache; a failover replay does not: a call the
dead replica executed before it died runs again on the sibling.  That
is why replicas are stateless services (or synchronized outside the
ORB).
"""

from __future__ import annotations

import threading
from typing import Any, Mapping

from repro.groups.select import GroupView, SelectionError
from repro.metrics import Counter
from repro.orb.naming import NamingError
from repro.orb.operation import RemoteError
from repro.orb.reference import ObjectReference
from repro.trace.span import span_or_null

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

    ``token`` is where :meth:`GroupView.choose` rotates to: the
    directory's bind token spreads initial placements across bindings;
    each failover advances it so the walk continues past the dead
    replica deterministically.
    ``interface`` names the bound IDL interface in spans and errors.
    """

    def __init__(
        self,
        view: GroupView,
        bind_token: int,
        counters: Mapping[str, Counter],
        interface: str = "",
    ) -> None:
        self._lock = threading.Lock()
        self._counters = counters
        self.view = view
        self.token = bind_token
        self.interface = interface
        self.replica_id = self._choose()
        #: ``(token, failed replica, new replica)`` per flip — ranks of
        #: a collective binding must end up with identical histories
        #: (the acceptance tests assert exactly that).
        self.history: list[tuple[int, int, int]] = []

    def _choose(self) -> int:
        replica_id = self.view.choose(self.token)
        self._counters["selections"].inc()
        return replica_id

    @property
    def group_name(self) -> str:
        return self.view.name

    def target(self) -> tuple[int, ObjectReference]:
        """The replica an invocation launched now goes to, and its ref."""
        with self._lock:
            return self.replica_id, self.view.ref(self.replica_id)

    def current_replica(self) -> int:
        with self._lock:
            return self.replica_id

    def budget(self) -> int:
        """How many flips this binding may still make: every sibling
        of the first replica, once."""
        limit = max(len(self.view.group.members) - 1, 0)
        with self._lock:
            return max(limit - len(self.history), 0)

    def fail_over(
        self,
        runtime: Any,
        failed_replica: int,
        cause: RemoteError,
        trace_id: int,
    ) -> None:
        """Move off ``failed_replica``, on which an invocation failed
        for good with ``cause`` (every rank, in completion order).

        Votes (:func:`agree_failover`), marks the replica down in the
        local view, selects the next live replica at the advanced
        token, counts the flip in ``groups.failovers`` and
        ``ft.failovers``, and reports the death to the directory from
        rank 0 (one report per collective binding; best-effort — a
        vanished directory must not turn a successful failover into a
        client-visible error).

        Under pipelining several in-flight requests were launched at
        the same dead replica; only the first failing completion
        flips.  The rest find the binding already past their replica
        and just re-target, without burning budget or marking a
        healthy replica down.

        Raises :class:`FailoverExhausted` from ``cause`` when the
        budget or the live membership runs out.
        """
        if self.current_replica() != failed_replica:
            return
        operation = f"{self.interface}.{cause.operation}"
        view = self.view.without(failed_replica)
        if self.budget() <= 0 or not view.alive():
            self._counters["failovers_exhausted"].inc()
            raise FailoverExhausted(
                operation,
                self.group_name,
                replicas_tried=tuple(f for _t, f, _n in self.history)
                + (failed_replica,),
                collective_index=cause.collective_index,
                detail=str(cause),
            ) from cause
        with span_or_null(
            runtime.trace, "failover", side="client", trace_id=trace_id,
            rank=runtime.rank, group=self.group_name,
            failed_replica=failed_replica, operation=operation,
        ) as flip:
            agree_failover(runtime.rts, failed_replica, self.token + 1)
            with self._lock:
                self.view = view
                self.token += 1
                self.replica_id = self._choose()
                self.history.append(
                    (self.token, failed_replica, self.replica_id)
                )
            flip.note(replica=self.replica_id)
        self._counters["failovers"].inc()
        runtime.ft["failovers"].inc()
        if runtime.rank == 0:
            try:
                runtime.naming.mark_down(self.group_name, failed_replica)
            except NamingError:
                pass

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
]
