"""Object references (IORs) for SPMD objects.

A reference names one object and carries everything a client-side ORB
needs to reach it:

- ``request_port``: the single connection of the centralized method —
  "the SPMD object makes available only one network connection to
  clients", waited on by the communicating thread (§3.2);
- ``data_ports``: one per computing thread for the multi-port method —
  "each computing thread of the SPMD object opens a network connection
  on a separate port; these connections become a part of object
  reference for this particular object" (§3.3);
- per-parameter distribution templates the server registered before
  activation (§2.2), so the client's threads can "calculate to which
  of the server's threads they should send data".

References stringify to an ``IOR:<hex>`` form and survive a
marshal/unmarshal roundtrip, mirroring CORBA stringified IORs.
"""

from __future__ import annotations

import binascii
from dataclasses import dataclass

from repro.cdr.decoder import CdrDecoder
from repro.cdr.encoder import CdrEncoder
from repro.cdr.typecodes import MarshalError
from repro.orb.transport import PortAddress, read_address, write_address


def write_spec(enc: CdrEncoder, spec: tuple) -> None:
    """A distribution template's spec as CDR, where one travels behind
    a request head or in an IOR: its kind, then its weights (none for a
    kind without)."""
    enc.write_string(spec[0])
    weights = spec[1] if len(spec) > 1 else ()
    enc.write_ulong(len(weights))
    for weight in weights:
        enc.write_ulong(int(weight))


def read_spec(dec: CdrDecoder) -> tuple:
    """Inverse of :func:`write_spec`."""
    kind = dec.read_string()
    weights = tuple(dec.read_ulong() for _ in range(dec.read_ulong()))
    return (kind, weights) if weights else (kind,)


@dataclass(frozen=True)
class ObjectReference:
    """An immutable, stringifiable reference to one (SPMD) object."""

    object_key: str
    repo_id: str
    request_port: PortAddress
    data_ports: tuple[PortAddress, ...] = ()
    #: (operation name, parameter name) → distribution template spec
    #: tuple, e.g. ``('proportions', (2, 4, 2, 4))``.  Parameters not
    #: listed default to uniform blockwise.
    param_templates: tuple[tuple[tuple[str, str], tuple], ...] = ()

    @property
    def nthreads(self) -> int:
        """Number of computing threads of the SPMD object (1 when the
        object only advertises the centralized connection)."""
        return len(self.data_ports) or 1

    @property
    def multiport_capable(self) -> bool:
        return bool(self.data_ports)

    def template_spec(self, operation: str, param: str) -> tuple | None:
        for key, spec in self.param_templates:
            if key == (operation, param):
                return spec
        return None

    def ior(self) -> str:
        """Stringified form: ``IOR:`` + hex of a CDR encoding.

        Pure CDR, no pickling: a reference received from an untrusted
        peer can at worst fail to parse.
        """
        enc = CdrEncoder()
        enc.write_string(self.object_key)
        enc.write_string(self.repo_id)
        write_address(enc, self.request_port)
        enc.write_ulong(len(self.data_ports))
        for port in self.data_ports:
            write_address(enc, port)
        enc.write_ulong(len(self.param_templates))
        for (operation, param), spec in self.param_templates:
            enc.write_string(operation)
            enc.write_string(param)
            write_spec(enc, spec)
        return "IOR:" + binascii.hexlify(enc.getvalue()).decode("ascii")

    @staticmethod
    def from_ior(text: str) -> "ObjectReference":
        """Parse a stringified reference (inverse of :meth:`ior`)."""
        if not text.startswith("IOR:"):
            raise ValueError(f"not a stringified reference: {text[:20]!r}")
        try:
            dec = CdrDecoder(binascii.unhexlify(text[4:]))
            object_key = dec.read_string()
            repo_id = dec.read_string()
            request_port = read_address(dec)
            nports = dec.read_ulong()
            data_ports = tuple(read_address(dec) for _ in range(nports))
            ntemplates = dec.read_ulong()
            templates = tuple(
                ((dec.read_string(), dec.read_string()), read_spec(dec))
                for _ in range(ntemplates)
            )
            if dec.remaining:
                raise ValueError(f"{dec.remaining} trailing octets")
        except (MarshalError, binascii.Error, ValueError) as exc:
            raise ValueError(f"malformed IOR: {exc}") from None
        return ObjectReference(
            object_key=object_key,
            repo_id=repo_id,
            request_port=request_port,
            data_ports=data_ports,
            param_templates=templates,
        )

    def __str__(self) -> str:
        return (
            f"<{self.repo_id} '{self.object_key}' at "
            f"{self.request_port}, {self.nthreads} threads>"
        )


@dataclass(frozen=True)
class GroupReference:
    """A reference to a *replicated object group* (``repro.groups``).

    Where an :class:`ObjectReference` names one servant, a group
    reference names N interchangeable replicas behind one logical
    name.  It is what the naming service's group directory hands out
    for a replicated binding: the membership snapshot at one *health
    epoch* (bumped whenever a replica is marked down, so clients can
    tell a stale view from a fresh one).

    Group references stringify to ``GIOR:<hex>`` — pure CDR, like
    :meth:`ObjectReference.ior`, with each member carried as its own
    nested stringified reference — so a group binding can cross the
    wire (rank 0 resolves, the peers parse).
    """

    group_name: str
    repo_id: str
    #: Directory health epoch at resolve time (monotonic per group).
    epoch: int
    #: ``(replica_id, member reference)`` pairs, ascending replica id.
    members: tuple[tuple[int, ObjectReference], ...]

    @property
    def replica_ids(self) -> tuple[int, ...]:
        return tuple(rid for rid, _ in self.members)

    def member(self, replica_id: int) -> ObjectReference:
        for rid, ref in self.members:
            if rid == replica_id:
                return ref
        raise KeyError(
            f"group '{self.group_name}' has no replica {replica_id}"
        )

    def ior(self) -> str:
        """Stringified form: ``GIOR:`` + hex of a CDR encoding."""
        enc = CdrEncoder()
        enc.write_string(self.group_name)
        enc.write_string(self.repo_id)
        enc.write_ulong(self.epoch)
        enc.write_ulong(len(self.members))
        for rid, ref in self.members:
            enc.write_ulong(rid)
            enc.write_string(ref.ior())
        return "GIOR:" + binascii.hexlify(enc.getvalue()).decode("ascii")

    @staticmethod
    def from_ior(text: str) -> "GroupReference":
        """Parse a stringified group reference (inverse of :meth:`ior`)."""
        if not text.startswith("GIOR:"):
            raise ValueError(
                f"not a stringified group reference: {text[:20]!r}"
            )
        try:
            dec = CdrDecoder(binascii.unhexlify(text[5:]))
            group_name = dec.read_string()
            repo_id = dec.read_string()
            epoch = dec.read_ulong()
            nmembers = dec.read_ulong()
            members = tuple(
                (dec.read_ulong(), ObjectReference.from_ior(dec.read_string()))
                for _ in range(nmembers)
            )
            if dec.remaining:
                raise ValueError(f"{dec.remaining} trailing octets")
        except (MarshalError, binascii.Error, ValueError) as exc:
            raise ValueError(f"malformed GIOR: {exc}") from None
        return GroupReference(
            group_name=group_name,
            repo_id=repo_id,
            epoch=epoch,
            members=members,
        )

    def __str__(self) -> str:
        return (
            f"<group {self.repo_id} '{self.group_name}' epoch "
            f"{self.epoch}, {len(self.members)} replicas>"
        )


def parse_reference(text: str) -> "ObjectReference | GroupReference":
    """Parse either stringified form by its prefix."""
    if text.startswith("GIOR:"):
        return GroupReference.from_ior(text)
    return ObjectReference.from_ior(text)
