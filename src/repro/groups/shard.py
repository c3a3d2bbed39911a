"""A sharded naming service with a group directory.

``ShardedNaming`` partitions the flat PARDIS naming domain across N
:class:`~repro.orb.naming.NamingService` shards with a consistent-hash
ring (see :mod:`repro.groups.hashring`) and layers the *group
directory* on top: per group it keeps the replica membership, a
monotonic **health epoch** (bumped every time a replica is marked
down, so a client can tell whether its view predates a failure), and
the latest per-replica load reports that feed the least-loaded
selection policy.

It is a drop-in for ``NamingService`` everywhere the ORB takes a
``naming=`` argument — ``bind``/``rebind``/``resolve``/``unbind``/
``names`` route to the owning shard by name — so singleton servants
and replicated groups share one namespace.
"""

from __future__ import annotations

import threading

from repro.groups.hashring import HashRing
from repro.metrics import Counter
from repro.orb.naming import DIRECTORY_COUNTERS, NamingError, NamingService
from repro.orb.reference import GroupReference, ObjectReference


class _GroupEntry:
    """One group's row in a shard's directory (guarded by shard lock)."""

    def __init__(self, repo_id: str) -> None:
        self.repo_id = repo_id
        self.members: dict[int, ObjectReference] = {}
        self.down: set[int] = set()
        self.loads: dict[int, float] = {}
        self.epoch = 0
        #: Round-robin spread across *binds* (not invocations): each
        #: bind draws the next token so successive clients start on
        #: successive replicas.
        self.bind_tokens = 0

    def reference(self, name: str) -> GroupReference:
        members = tuple(
            (rid, self.members[rid])
            for rid in sorted(self.members)
            if rid not in self.down
        )
        if not members:
            raise NamingError(
                f"group '{name}' has no live replicas"
            )
        loads = tuple(
            (rid, self.loads[rid])
            for rid in sorted(self.loads)
            if rid in self.members and rid not in self.down
        )
        return GroupReference(
            group_name=name,
            repo_id=self.repo_id,
            epoch=self.epoch,
            members=members,
            loads=loads,
        )


class _Shard:
    """One partition: a plain NamingService plus a group directory."""

    def __init__(self) -> None:
        self.naming = NamingService()
        self.lock = threading.Lock()
        self.groups: dict[str, _GroupEntry] = {}


class ShardedNaming:
    """A NamingService-compatible router over consistent-hash shards."""

    def __init__(self, shards: int = 4, vnodes: int = 64) -> None:
        if shards < 1:
            raise ValueError("a sharded naming needs at least one shard")
        self._shard_names = [f"shard-{i}" for i in range(shards)]
        self._ring = HashRing(self._shard_names, vnodes=vnodes)
        self._shards = {name: _Shard() for name in self._shard_names}
        self._counters = {n: Counter(n) for n in DIRECTORY_COUNTERS}

    # -- routing -------------------------------------------------------

    @property
    def nshards(self) -> int:
        return len(self._shards)

    def shard_for(self, name: str) -> str:
        """Which shard owns ``name`` (diagnostics / tests)."""
        return self._ring.node_for(name)

    def _shard(self, name: str) -> _Shard:
        return self._shards[self._ring.node_for(name)]

    # -- flat NamingService surface ------------------------------------

    def bind(self, name: str, ref, host: str = "") -> None:
        self._shard(name).naming.bind(name, ref, host)

    def rebind(self, name: str, ref, host: str = "") -> None:
        self._shard(name).naming.rebind(name, ref, host)

    def resolve(self, name: str, host: str | None = None):
        return self._shard(name).naming.resolve(name, host)

    def unbind(self, name: str, host: str = "") -> None:
        self._shard(name).naming.unbind(name, host)

    def names(self) -> list[tuple[str, str]]:
        """All registrations across every shard, sorted (the ring is
        an implementation detail; the namespace reads as one)."""
        out: list[tuple[str, str]] = []
        for shard in self._shards.values():
            out.extend(shard.naming.names())
        return sorted(out)

    # -- group directory -----------------------------------------------

    def bind_group(
        self,
        name: str,
        repo_id: str,
        members: dict[int, ObjectReference],
    ) -> None:
        """Register a replicated group; duplicate names are an error."""
        if not name:
            raise NamingError("group name cannot be empty")
        if not members:
            raise NamingError(
                f"group '{name}' needs at least one replica"
            )
        shard = self._shard(name)
        with shard.lock:
            if name in shard.groups:
                raise NamingError(
                    f"a group is already bound as '{name}'"
                )
            entry = _GroupEntry(repo_id)
            entry.members = dict(members)
            shard.groups[name] = entry

    def unbind_group(self, name: str) -> None:
        shard = self._shard(name)
        with shard.lock:
            if shard.groups.pop(name, None) is None:
                raise NamingError(f"no group bound as '{name}'")

    def resolve_group(self, name: str) -> GroupReference:
        """The group's current membership view (live members only),
        stamped with its health epoch."""
        shard = self._shard(name)
        with shard.lock:
            entry = shard.groups.get(name)
            if entry is None:
                raise NamingError(f"no group bound as '{name}'")
            return entry.reference(name)

    def is_group(self, name: str) -> bool:
        shard = self._shard(name)
        with shard.lock:
            return name in shard.groups

    def group_names(self) -> list[str]:
        out = []
        for shard in self._shards.values():
            with shard.lock:
                out.extend(shard.groups)
        return sorted(out)

    def add_member(
        self, name: str, replica_id: int, ref: ObjectReference
    ) -> None:
        entry = self._entry(name)
        shard = self._shard(name)
        with shard.lock:
            if replica_id in entry.members:
                raise NamingError(
                    f"group '{name}' already has replica {replica_id}"
                )
            entry.members[replica_id] = ref
            # A re-added id sheds any stale down mark from a past life.
            entry.down.discard(replica_id)

    def remove_member(self, name: str, replica_id: int) -> None:
        entry = self._entry(name)
        shard = self._shard(name)
        with shard.lock:
            if entry.members.pop(replica_id, None) is None:
                raise NamingError(
                    f"group '{name}' has no replica {replica_id}"
                )
            entry.down.discard(replica_id)
            entry.loads.pop(replica_id, None)

    def mark_down(self, name: str, replica_id: int) -> int:
        """Record a replica failure and bump the health epoch.

        Idempotent per replica: concurrent clients agreeing on the
        same failure bump the epoch once.  Returns the current epoch.
        """
        entry = self._entry(name)
        shard = self._shard(name)
        with shard.lock:
            if replica_id not in entry.members:
                raise NamingError(
                    f"group '{name}' has no replica {replica_id}"
                )
            if replica_id not in entry.down:
                entry.down.add(replica_id)
                entry.epoch += 1
                bumped = True
            else:
                bumped = False
            epoch = entry.epoch
        if bumped:
            self._counters["marked_down"].inc()
            self._counters["epoch_bumps"].inc()
        return epoch

    def report_health(
        self, name: str, replica_id: int, load: float
    ) -> None:
        """A replica's periodic load reading (``orb.stats()``-derived);
        feeds the least-loaded selection policy at resolve time."""
        entry = self._entry(name)
        shard = self._shard(name)
        with shard.lock:
            if replica_id not in entry.members:
                raise NamingError(
                    f"group '{name}' has no replica {replica_id}"
                )
            entry.loads[replica_id] = float(load)
        self._counters["health_reports"].inc()

    def epoch(self, name: str) -> int:
        entry = self._entry(name)
        shard = self._shard(name)
        with shard.lock:
            return entry.epoch

    def next_bind_token(self, name: str) -> int:
        """Draw the group's next bind token (round-robin spread across
        client bindings)."""
        entry = self._entry(name)
        shard = self._shard(name)
        with shard.lock:
            token = entry.bind_tokens
            entry.bind_tokens += 1
        return token

    def stats(self) -> dict:
        """The directory half of ``orb.stats()["groups"]``: this
        router's tallies plus the per-group membership board, read off
        the shards."""
        snap: dict = {n: c.value for n, c in self._counters.items()}
        board = snap["groups"] = {}
        for shard in self._shards.values():
            with shard.lock:
                for name, entry in shard.groups.items():
                    board[name] = {
                        "replicas": len(entry.members),
                        "down": len(entry.down),
                        "epoch": entry.epoch,
                    }
        return snap

    # -- internals -----------------------------------------------------

    def _entry(self, name: str) -> _GroupEntry:
        shard = self._shard(name)
        with shard.lock:
            entry = shard.groups.get(name)
        if entry is None:
            raise NamingError(f"no group bound as '{name}'")
        return entry
