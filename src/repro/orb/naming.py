"""The PARDIS naming domain.

"PARDIS provides a naming domain for objects.  At the time of binding
the client has to identify which particular object of a given type it
wants to work with; specifying a host is optional." (§2.1)

Names are two-level: ``(name, host)``.  Registering with a host makes
the object reachable both by bare name and by ``name@host``; resolving
with ``host=None`` returns the sole registration of that name (an
error if the name is ambiguous across hosts, since the client then has
to say which object it wants).

The *naming surface* is what the ORB calls on whatever it was given as
``naming=``: the five flat calls below, the group-directory calls of a
:class:`~repro.groups.shard.ShardedNaming` router, and ``stats()`` —
the directory half of ``orb.stats()["groups"]``.  The flat
registry declares the directory calls too and answers them with a
:class:`NamingError`, so callers invoke the surface instead of probing
for it; :mod:`repro.orb.nameservice` serves the whole surface as an
IDL object.
"""

from __future__ import annotations

import threading

from repro.orb.reference import ObjectReference


#: What a group directory tallies: with its membership board, the
#: naming half of ``orb.stats()["groups"]`` (the ``stats()`` call of
#: the naming surface).
DIRECTORY_COUNTERS = ("marked_down", "epoch_bumps", "health_reports")


class NamingError(KeyError):
    """Unknown, duplicate or ambiguous name."""

    def __str__(self) -> str:  # KeyError quotes its repr otherwise
        return self.args[0] if self.args else ""


class NamingService:
    """A thread-safe name → object-reference registry."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: (name, host) → reference; host '' means "no host given".
        self._entries: dict[tuple[str, str], ObjectReference] = {}

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

    def stats(self) -> dict:
        """The directory half of ``orb.stats()["groups"]``: no
        directory here, so nothing marked down and an empty board."""
        return {**dict.fromkeys(DIRECTORY_COUNTERS, 0), "groups": {}}

    def _no_directory(self, name: str, *args: object) -> None:
        """The group-directory half of the naming surface: a flat
        registry has nowhere to keep memberships and health epochs."""
        raise NamingError(
            f"this naming service keeps no group directory for "
            f"'{name}'; replicated groups need a "
            f"repro.groups.ShardedNaming router"
        )

    bind_group = unbind_group = resolve_group = _no_directory
    add_member = remove_member = mark_down = _no_directory
    report_health = epoch = next_bind_token = _no_directory
