"""The PARDIS naming domain.

"PARDIS provides a naming domain for objects.  At the time of binding
the client has to identify which particular object of a given type it
wants to work with; specifying a host is optional." (§2.1)

Names are two-level: ``(name, host)``.  Registering with a host makes
the object reachable both by bare name and by ``name@host``; resolving
with ``host=None`` returns the sole registration of that name (an
error if the name is ambiguous across hosts, since the client then has
to say which object it wants).

The one naming domain also keeps the *group directory* of replicated
object groups (:mod:`repro.groups`): per group the replica membership,
a monotonic **health epoch** (bumped every time a replica is marked
down, so a client can tell whether its view predates a failure) and
the bind-token counter that spreads clients over the replicas.

The *naming surface* is what the ORB calls on whatever it was given as
``naming=``: the flat calls, the directory calls and ``stats()`` — the
directory half of ``orb.stats()["groups"]``.
:mod:`repro.orb.nameservice` serves the whole surface as an IDL
object.
"""

from __future__ import annotations

import threading

from repro.metrics import Counter
from repro.orb.reference import GroupReference, ObjectReference


#: What the group directory tallies: with its membership board, the
#: naming half of ``orb.stats()["groups"]`` (the ``stats()`` call of
#: the naming surface).
DIRECTORY_COUNTERS = ("marked_down", "epoch_bumps")


class NamingError(KeyError):
    """Unknown, duplicate or ambiguous name."""

    def __str__(self) -> str:  # KeyError quotes its repr otherwise
        return self.args[0] if self.args else ""


class _GroupEntry:
    """One group's row in the directory (guarded by the service lock)."""

    def __init__(self, repo_id: str, members: dict) -> None:
        self.repo_id = repo_id
        self.members: dict[int, ObjectReference] = dict(members)
        self.down: set[int] = set()
        self.epoch = 0
        #: Round-robin spread across *binds* (not invocations): each
        #: bind draws the next token so successive clients start on
        #: successive replicas.
        self.bind_tokens = 0

    def reference(self, name: str) -> GroupReference:
        live = [rid for rid in sorted(self.members) if rid not in self.down]
        if not live:
            raise NamingError(f"group '{name}' has no live replicas")
        return GroupReference(
            group_name=name,
            repo_id=self.repo_id,
            epoch=self.epoch,
            members=tuple((rid, self.members[rid]) for rid in live),
        )


class NamingService:
    """A thread-safe name → object-reference registry with the group
    directory.  Every call takes the one lock once."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: (name, host) → reference; host '' means "no host given".
        self._entries: dict[tuple[str, str], ObjectReference] = {}
        self._groups: dict[str, _GroupEntry] = {}
        self._counters = {n: Counter(n) for n in DIRECTORY_COUNTERS}

    def bind(
        self,
        name: str,
        ref: ObjectReference,
        host: str = "",
    ) -> None:
        """Register; duplicate (name, host) pairs are an error."""
        if not name:
            raise NamingError("object name cannot be empty")
        key = (name, host)
        with self._lock:
            if key in self._entries:
                where = f" on host '{host}'" if host else ""
                raise NamingError(
                    f"an object is already bound as '{name}'{where}"
                )
            self._entries[key] = ref

    def rebind(
        self, name: str, ref: ObjectReference, host: str = ""
    ) -> None:
        """Register, replacing any existing registration."""
        if not name:
            raise NamingError("object name cannot be empty")
        with self._lock:
            self._entries[(name, host)] = ref

    def resolve(self, name: str, host: str | None = None) -> ObjectReference:
        """Find a reference by name, optionally pinned to a host."""
        with self._lock:
            if host is not None:
                ref = self._entries.get((name, host))
                if ref is None:
                    raise NamingError(
                        f"no object '{name}' on host '{host}'"
                    )
                return ref
            matches = [
                ref for (n, _h), ref in self._entries.items() if n == name
            ]
        if not matches:
            raise NamingError(f"no object bound as '{name}'")
        if len(matches) > 1:
            raise NamingError(
                f"'{name}' is bound on several hosts; specify one"
            )
        return matches[0]

    def unbind(self, name: str, host: str = "") -> None:
        """Remove a registration; resolving it afterwards fails just
        as if it had never been bound (no tombstones)."""
        with self._lock:
            if self._entries.pop((name, host), None) is None:
                where = f" on host '{host}'" if host else ""
                raise NamingError(f"no object bound as '{name}'{where}")

    def names(self) -> list[tuple[str, str]]:
        """All (name, host) registrations, sorted."""
        with self._lock:
            return sorted(self._entries)

    # -- group directory -----------------------------------------------

    def _entry(self, name: str, replica_id: int | None = None) -> _GroupEntry:
        """``name``'s row (holding ``replica_id``, if given); call with
        the lock held."""
        entry = self._groups.get(name)
        if entry is None:
            raise NamingError(f"no group bound as '{name}'")
        if replica_id is not None and replica_id not in entry.members:
            raise NamingError(f"group '{name}' has no replica {replica_id}")
        return entry

    def bind_group(
        self, name: str, repo_id: str, members: dict[int, ObjectReference]
    ) -> None:
        """Register a replicated group; duplicate names are an error."""
        if not name:
            raise NamingError("group name cannot be empty")
        if not members:
            raise NamingError(f"group '{name}' needs at least one replica")
        with self._lock:
            if name in self._groups:
                raise NamingError(f"a group is already bound as '{name}'")
            self._groups[name] = _GroupEntry(repo_id, members)

    def unbind_group(self, name: str) -> None:
        with self._lock:
            self._entry(name)
            del self._groups[name]

    def resolve_group(self, name: str) -> GroupReference:
        """The group's current membership view (live members only),
        stamped with its health epoch."""
        with self._lock:
            return self._entry(name).reference(name)

    def remove_member(self, name: str, replica_id: int) -> None:
        with self._lock:
            entry = self._entry(name, replica_id)
            del entry.members[replica_id]
            entry.down.discard(replica_id)

    def mark_down(self, name: str, replica_id: int) -> int:
        """Record a replica failure and bump the health epoch.

        Idempotent per replica: concurrent clients agreeing on the
        same failure bump the epoch once.  Returns the current epoch.
        """
        with self._lock:
            entry = self._entry(name, replica_id)
            if replica_id not in entry.down:
                entry.down.add(replica_id)
                entry.epoch += 1
                self._counters["marked_down"].inc()
                self._counters["epoch_bumps"].inc()
            return entry.epoch

    def epoch(self, name: str) -> int:
        with self._lock:
            return self._entry(name).epoch

    def next_bind_token(self, name: str) -> int:
        """Draw the group's next bind token (round-robin spread across
        client bindings)."""
        with self._lock:
            entry = self._entry(name)
            entry.bind_tokens += 1
            return entry.bind_tokens - 1

    def stats(self) -> dict:
        """The directory half of ``orb.stats()["groups"]``: its
        tallies plus the per-group membership board."""
        snap: dict = {n: c.value for n, c in self._counters.items()}
        with self._lock:
            snap["groups"] = {
                name: {
                    "replicas": len(entry.members),
                    "down": len(entry.down),
                    "epoch": entry.epoch,
                }
                for name, entry in self._groups.items()
            }
        return snap
