"""The naming domain as an ordinary object.

In CORBA naming is not a second protocol: it is an IDL interface
served like any other object.  This module writes the naming surface
(:mod:`repro.orb.naming`) once, in IDL compiled by our own compiler,
and supplies the two thin ends of it:

- :class:`NamingServant` serves any object with the naming surface — a
  :class:`~repro.orb.naming.NamingService`, group directory included —
  as a serial servant group on the ordinary request path, so
  backpressure, upcall delivery, ``orb.stats()``, tracing and the
  reply cache reach naming exactly as they reach every other object
  (:func:`serve_naming` activates it for an ORB's own naming object);
- :class:`NamingClient` is the same surface on the client side: a
  façade over the generated stub, bootstrapped from the servant's
  stringified IOR (CORBA's ``resolve_initial_references`` shape — no
  reserved port id, no dependence on port allocation order), that
  hands back :class:`~repro.orb.naming.NamingError` with the text the
  in-memory object raised.  Pass it as ``ORB(naming=...)``.

References travel as the stringified forms
:meth:`ObjectReference.ior` / :meth:`GroupReference.ior` already
produce, so nothing new is marshalled.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.idl import compile_idl
from repro.orb.naming import DIRECTORY_COUNTERS, NamingError
from repro.orb.operation import RemoteError
from repro.orb.proxy import BindMode, ClientRuntime
from repro.orb.reference import GroupReference, ObjectReference
from repro.orb.transport import TransportError

#: The naming surface.  ``resolve`` carries ``any_host`` because the
#: surface distinguishes "no host given" (``None``: the sole
#: registration of the name) from the empty host (``""``: the
#: registration made without one).
NAMING_IDL = """
exception NamingFailure { string reason; };

struct Binding { string name; string host; };
typedef sequence<Binding> Bindings;
struct Member { unsigned long replica_id; string ior; };
typedef sequence<Member> Members;

interface NamingContext {
    void bind(in string name, in string ior, in string host)
        raises (NamingFailure);
    void rebind(in string name, in string ior, in string host)
        raises (NamingFailure);
    string resolve(in string name, in string host, in boolean any_host)
        raises (NamingFailure);
    void unbind(in string name, in string host) raises (NamingFailure);
    Bindings names();

    void bind_group(in string name, in string repo_id, in Members members)
        raises (NamingFailure);
    void unbind_group(in string name) raises (NamingFailure);
    string resolve_group(in string name) raises (NamingFailure);
    void remove_member(in string name, in unsigned long replica_id)
        raises (NamingFailure);
    unsigned long mark_down(in string name, in unsigned long replica_id)
        raises (NamingFailure);
    unsigned long epoch(in string name) raises (NamingFailure);
    unsigned long next_bind_token(in string name) raises (NamingFailure);
};
"""

_idl = compile_idl(NAMING_IDL, module_name="repro_naming_idl")

#: The name :func:`serve_naming` activates the naming object under
#: (CORBA's initial-reference id for the same service).
NAMING_OBJECT = "NameService"

#: How long a :class:`NamingClient` waits for one reply, in seconds.
CALL_TIMEOUT = 10.0

#: The naming object's reply-cache budget.  ``bind``, ``bind_group``
#: and ``next_bind_token`` are not idempotent, so a request retried by
#: any client's ft policy is replayed from the cache, never executed
#: twice.
REPLY_CACHE_BYTES = 1 << 20


class NamingServant(_idl.NamingContext_skel):
    """Serves one object with the naming surface; a
    :class:`~repro.orb.naming.NamingError` travels as the IDL
    exception, text intact."""

    def __init__(self, naming: Any) -> None:
        self._naming = naming

    def _answer(self, op: str, *args: Any, **kwargs: Any) -> Any:
        try:
            return getattr(self._naming, op)(*args, **kwargs)
        except NamingError as exc:
            raise _idl.NamingFailure(reason=str(exc)) from None

    def bind(self, name: str, ior: str, host: str) -> None:
        self._answer("bind", name, ObjectReference.from_ior(ior), host=host)

    def rebind(self, name: str, ior: str, host: str) -> None:
        self._answer("rebind", name, ObjectReference.from_ior(ior), host=host)

    def resolve(self, name: str, host: str, any_host: bool) -> str:
        return self._answer("resolve", name, None if any_host else host).ior()

    def unbind(self, name: str, host: str) -> None:
        self._answer("unbind", name, host=host)

    def names(self) -> list[Any]:
        return [
            _idl.Binding(name=name, host=host)
            for name, host in self._naming.names()
        ]

    def bind_group(self, name: str, repo_id: str, members: list) -> None:
        self._answer(
            "bind_group",
            name,
            repo_id,
            {m["replica_id"]: ObjectReference.from_ior(m["ior"]) for m in members},
        )

    def resolve_group(self, name: str) -> str:
        return self._answer("resolve_group", name).ior()

    def unbind_group(self, name: str) -> None:
        self._answer("unbind_group", name)

    def remove_member(self, name: str, replica_id: int) -> None:
        self._answer("remove_member", name, replica_id)

    def mark_down(self, name: str, replica_id: int) -> int:
        return self._answer("mark_down", name, replica_id)

    def epoch(self, name: str) -> int:
        return self._answer("epoch", name)

    def next_bind_token(self, name: str) -> int:
        return self._answer("next_bind_token", name)


class NamingClient:
    """The naming surface of a served naming object, reached through
    its stringified IOR over ``fabric``.

    One ordinary blocking invocation per call (a reply is waited for
    :data:`CALL_TIMEOUT` seconds, never retried), on a serial client
    runtime of its own; calls from several threads take turns, so
    each runs inline on its caller.  The runtime's one port closes
    with :meth:`close` or with the fabric.
    """

    def __init__(self, fabric: Any, ior: str) -> None:
        self._ref = ObjectReference.from_ior(ior)
        self._runtime = ClientRuntime(
            fabric, None, label="naming", timeout=CALL_TIMEOUT
        )
        self._stub = _idl.NamingContext(
            self._runtime, self._ref, BindMode.SERIAL, "centralized"
        )
        self._lock = threading.Lock()

    def _call(self, op: str, *args: Any) -> Any:
        try:
            with self._lock:
                return getattr(self._stub, op)(*args)
        except _idl.NamingFailure as exc:
            raise NamingError(exc.reason) from None
        except (RemoteError, TransportError) as exc:
            raise NamingError(
                f"naming object at {self._ref.request_port} "
                f"unreachable: {exc}"
            ) from None

    def bind(self, name: str, ref: ObjectReference, host: str = "") -> None:
        """Register a reference with the served naming domain."""
        self._call("bind", name, ref.ior(), host)

    def rebind(self, name: str, ref: ObjectReference, host: str = "") -> None:
        """Register, replacing any existing registration."""
        self._call("rebind", name, ref.ior(), host)

    def resolve(self, name: str, host: str | None = None) -> ObjectReference:
        """Look a name up in the served naming domain."""
        return ObjectReference.from_ior(
            self._call("resolve", name, host or "", host is None)
        )

    def unbind(self, name: str, host: str = "") -> None:
        """Remove a registration from the served naming domain."""
        self._call("unbind", name, host)

    def names(self) -> list[tuple[str, str]]:
        """All (name, host) registrations, sorted."""
        return [(b["name"], b["host"]) for b in self._call("names")]

    def bind_group(
        self, name: str, repo_id: str, members: dict[int, ObjectReference]
    ) -> None:
        """Register a replicated group with the served directory."""
        self._call(
            "bind_group",
            name,
            repo_id,
            [
                _idl.Member(replica_id=rid, ior=ref.ior())
                for rid, ref in members.items()
            ],
        )

    def resolve_group(self, name: str) -> GroupReference:
        """The group's current membership view."""
        return GroupReference.from_ior(self._call("resolve_group", name))

    def unbind_group(self, name: str) -> None:
        """Remove a group from the served directory."""
        self._call("unbind_group", name)

    def remove_member(self, name: str, replica_id: int) -> None:
        """Retire one replica (planned removal: no epoch bump)."""
        self._call("remove_member", name, replica_id)

    def mark_down(self, name: str, replica_id: int) -> int:
        """Report a replica failure; returns the group's health epoch."""
        return self._call("mark_down", name, replica_id)

    def epoch(self, name: str) -> int:
        """The group's current health epoch."""
        return self._call("epoch", name)

    def next_bind_token(self, name: str) -> int:
        """Draw the group's next bind token."""
        return self._call("next_bind_token", name)

    def stats(self) -> dict:
        """The served directory's tallies stay with the ORB that
        serves it; this end of ``orb.stats()["groups"]`` reads zeros."""
        return {**dict.fromkeys(DIRECTORY_COUNTERS, 0), "groups": {}}

    def close(self) -> None:
        """Release the runtime's port (idempotent)."""
        self._runtime.close()


def serve_naming(orb: Any) -> str:
    """Serve ``orb``'s own naming object as an ordinary serial object
    (bound, like any other, under :data:`NAMING_OBJECT`) and return
    the stringified IOR a :class:`NamingClient` bootstraps from."""
    naming = orb.naming
    group = orb.serve(
        NAMING_OBJECT,
        lambda ctx: NamingServant(naming),
        multiport=False,
        reply_cache_bytes=REPLY_CACHE_BYTES,
    )
    return group.reference.ior()
