"""Replica selection: the client-side load-balancing half of groups.

A :class:`GroupView` is one client binding's picture of a replicated
group — the :class:`~repro.orb.reference.GroupReference` it resolved
(membership, health epoch, load readings) plus the replicas it has
since marked down.  Selection policies are **pure functions of the
view and a token**: every rank of a collective binding holds an
identical view (rank 0 resolves, the group reference rides the bind
broadcast) and draws identical tokens (bind token from the directory,
failover count per binding), so all ranks select the *same* replica
without communicating — the same determinism discipline as
:class:`~repro.ft.policy.FtPolicy` decisions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from repro.orb.reference import GroupReference, ObjectReference


@dataclass(frozen=True)
class GroupView:
    """An immutable client-side snapshot of a replicated group."""

    group: GroupReference
    #: Replicas this binding has agreed are dead (health-epoch local
    #: knowledge; a fresh resolve starts clean at a newer epoch).
    down: frozenset[int] = field(default_factory=frozenset)

    @property
    def name(self) -> str:
        return self.group.group_name

    @property
    def epoch(self) -> int:
        return self.group.epoch

    def alive(self) -> tuple[int, ...]:
        """Replica ids not marked down, ascending (the deterministic
        candidate order every policy draws from)."""
        return tuple(
            rid
            for rid in sorted(self.group.replica_ids)
            if rid not in self.down
        )

    def ref(self, replica_id: int) -> ObjectReference:
        return self.group.member(replica_id)

    def without(self, replica_id: int) -> "GroupView":
        return replace(self, down=self.down | {replica_id})

    def load(self, replica_id: int) -> float | None:
        return self.group.load(replica_id)


class SelectionError(RuntimeError):
    """No replica is selectable (every member is marked down)."""


class SelectionPolicy:
    """Base class: a deterministic ``(view, token) -> replica id``."""

    name: str = ""

    def choose(self, view: GroupView, token: int) -> int:
        raise NotImplementedError

    def _require_alive(self, view: GroupView) -> tuple[int, ...]:
        alive = view.alive()
        if not alive:
            raise SelectionError(
                f"group '{view.name}' has no live replicas "
                f"({len(view.group.members)} members, all marked down)"
            )
        return alive


class RoundRobin(SelectionPolicy):
    """Rotate through the live membership by token.

    Bind tokens come from the directory's per-group counter, so
    successive bindings land on successive replicas; failover tokens
    advance per flip, so repeated failovers walk the survivors.
    """

    name = "round-robin"

    def choose(self, view: GroupView, token: int) -> int:
        alive = self._require_alive(view)
        return alive[token % len(alive)]


class LeastLoaded(SelectionPolicy):
    """Pick the live replica with the lowest reported load.

    Loads are the ``orb.stats()``-style health readings replicas
    pushed to the directory, carried in the group reference at resolve
    time.  Replicas that never reported count as load 0 (an idle
    newcomer should attract work); ties break by replica id, then the
    token rotates among the tied set so equally idle replicas still
    share arrivals.
    """

    name = "least-loaded"

    def choose(self, view: GroupView, token: int) -> int:
        alive = self._require_alive(view)
        loads = {rid: view.load(rid) or 0.0 for rid in alive}
        best = min(loads.values())
        tied = tuple(rid for rid in alive if loads[rid] == best)
        return tied[token % len(tied)]


_POLICIES = {
    RoundRobin.name: RoundRobin,
    LeastLoaded.name: LeastLoaded,
}


def policy_for(selection: Any) -> SelectionPolicy:
    """Resolve a ``selection=`` argument: a policy name
    (``"round-robin"`` / ``"least-loaded"``) or an instance."""
    if isinstance(selection, SelectionPolicy):
        return selection
    try:
        return _POLICIES[selection]()
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown selection policy {selection!r}; expected "
            f"{', '.join(sorted(_POLICIES))} or a SelectionPolicy"
        ) from None
