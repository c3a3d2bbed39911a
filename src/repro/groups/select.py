"""Replica selection: the client-side load-balancing half of groups.

A :class:`GroupView` is one client binding's picture of a replicated
group — the :class:`~repro.orb.reference.GroupReference` it resolved
(membership and health epoch) plus the replicas it has since marked
down.  The one replica choice, :meth:`GroupView.choose`, is
round-robin over the live members by token and a **pure function of
the view and the token**: every rank of a collective binding holds an
identical view (rank 0 resolves, the group reference rides the bind
broadcast) and draws identical tokens (bind token from the directory,
failover count per binding), so all ranks select the *same* replica
without communicating — the same determinism discipline as
:class:`~repro.ft.policy.FtPolicy` decisions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.orb.reference import GroupReference, ObjectReference


class SelectionError(RuntimeError):
    """No replica is selectable (every member is marked down)."""


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
        candidate order :meth:`choose` draws from)."""
        return tuple(
            rid
            for rid in sorted(self.group.replica_ids)
            if rid not in self.down
        )

    def choose(self, token: int) -> int:
        """The live replica at ``token``, rotating through :meth:`alive`.

        Bind tokens come from the directory's per-group counter, so
        successive bindings land on successive replicas; failover
        tokens advance per flip, so repeated failovers walk the
        survivors.
        """
        alive = self.alive()
        if not alive:
            raise SelectionError(
                f"group '{self.name}' has no live replicas "
                f"({len(self.group.members)} members, all marked down)"
            )
        return alive[token % len(alive)]

    def ref(self, replica_id: int) -> ObjectReference:
        return self.group.member(replica_id)

    def without(self, replica_id: int) -> "GroupView":
        return replace(self, down=self.down | {replica_id})
