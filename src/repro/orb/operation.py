"""IDL operations: their descriptions and their compiled plans.

The IDL compiler reduces each operation to an :class:`OperationSpec`
and emits an :class:`OperationPlan` of it — the paper's stub and
skeleton: body codecs, the constants the engines would otherwise
re-derive from the spec on every call, and the servant entry.

Servant/result convention: a servant method receives one value per
``in``/``inout`` parameter, in declaration order; distributed
sequences arrive as :class:`~repro.dist.DistributedSequence` local
views on every thread.  It *produces*, in order: the return value
(unless void), then a value for each ``out`` parameter and each
non-distributed ``inout`` parameter.  ``inout`` distributed sequences
are mutated in place — on the server by the servant, on the client by
the engine once the reply arrives.  Zero produced values → return
``None``; one → return it bare; several → return the tuple.  The
client-side composed result follows the identical rule.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Sequence

from repro.cdr.body import BodyCodec
from repro.cdr.typecodes import (
    DSequenceTC,
    ExceptionTC,
    TypeCode,
    TC_VOID,
)
from repro.dist import DistributedSequence


class Direction(enum.Enum):
    """IDL parameter passing modes."""

    IN = "in"
    OUT = "out"
    INOUT = "inout"

    @property
    def sends(self) -> bool:
        """Does the client transmit this parameter to the server?"""
        return self in (Direction.IN, Direction.INOUT)

    @property
    def returns(self) -> bool:
        """Does the server transmit this parameter back?"""
        return self in (Direction.OUT, Direction.INOUT)


@dataclass(frozen=True)
class ParamSpec:
    """One formal parameter of an IDL operation."""

    name: str
    direction: Direction
    typecode: TypeCode


#: Name used for a distributed return value in layouts and chunks.
RETURN_SLOT = "__return__"


@dataclass(frozen=True)
class OperationSpec:
    """Everything the ORB needs to know about one IDL operation.

    The engines do not read it per call: they read its
    :class:`OperationPlan`.
    """

    name: str
    params: tuple[ParamSpec, ...] = ()
    return_tc: TypeCode = TC_VOID
    raises: tuple[ExceptionTC, ...] = ()
    oneway: bool = False

    def __post_init__(self) -> None:
        if self.oneway:
            if self.return_tc is not TC_VOID:
                raise ValueError(
                    f"oneway operation '{self.name}' must return void"
                )
            if any(p.direction.returns for p in self.params):
                raise ValueError(
                    f"oneway operation '{self.name}' cannot have out or "
                    f"inout parameters"
                )
            if self.raises:
                raise ValueError(
                    f"oneway operation '{self.name}' cannot raise user "
                    f"exceptions"
                )
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise ValueError(
                f"operation '{self.name}' has duplicate parameter names"
            )

    @cached_property
    def sent_params(self) -> tuple[ParamSpec, ...]:
        return tuple(p for p in self.params if p.direction.sends)

    @cached_property
    def returned_params(self) -> tuple[ParamSpec, ...]:
        return tuple(p for p in self.params if p.direction.returns)


def _codecs(typecodes: list[TypeCode]) -> tuple[BodyCodec, BodyCodec]:
    """A body's codecs: every value inline, and the plain values only
    — one object when nothing is distributed."""
    inline = BodyCodec(typecodes)
    plain = [None if isinstance(t, DSequenceTC) else t for t in typecodes]
    if plain == typecodes:
        return inline, inline
    return inline, BodyCodec(plain)


class OperationPlan:
    """One operation, compiled: everything the engines read per call.

    Values travel as lists in slot order.  The request's slots are the
    ``in`` and ``inout`` parameters; the reply's the return value
    (unless void), then the ``out`` and ``inout`` parameters.
    ``request`` and ``reply`` hold each body's codec twice, indexed by
    the data path's ``receipt_is_rank_local``: ``[False]`` carries the
    distributed values inline (the through-root path), ``[True]`` skips
    them (the direct path).
    """

    def __init__(
        self, spec: OperationSpec, exceptions: Sequence[type] = ()
    ) -> None:
        self.spec = spec
        #: The exceptions the operation raises, by repository id: their
        #: typecodes, and the classes compiled with the plan, which a
        #: user-exception reply decodes to.
        self.raises = {tc.repo_id: tc for tc in spec.raises}
        self.exceptions = {cls._tc.repo_id: cls for cls in exceptions}
        self.name = spec.name
        self.oneway = spec.oneway
        sent = spec.sent_params
        reply = [(p.name, p.typecode) for p in spec.returned_params]
        if spec.return_tc is not TC_VOID:
            reply.insert(0, (RETURN_SLOT, spec.return_tc))
        at = {p.name: i for i, p in enumerate(sent)}
        self.request_names = tuple(at)
        self.reply_names = tuple(name for name, _ in reply)
        #: ``(position, name, typecode)`` per distributed request value.
        self.dist_request = tuple(
            (i, p.name, p.typecode)
            for i, p in enumerate(sent)
            if isinstance(p.typecode, DSequenceTC)
        )
        #: ``(position, name, typecode, request position)`` per
        #: distributed reply value; the request position is ``None``
        #: unless it is an inout argument, updated in place.
        self.dist_reply = tuple(
            (i, name, tc, at.get(name))
            for i, (name, tc) in enumerate(reply)
            if isinstance(tc, DSequenceTC)
        )
        inout = {i: a for i, *_, a in self.dist_reply if a is not None}
        #: ``(reply position, request position)`` of the inout
        #: distributed values: the servant does not produce them.
        self.inout = tuple(inout.items())
        #: The reply positions the servant produces, in order.
        self.produced = tuple(i for i in range(len(reply)) if i not in inout)
        #: Does a distributed value move at all?  If not, neither side
        #: stages anything on a data path.
        self.staged = bool(self.dist_request or self.dist_reply)
        self.request = _codecs([p.typecode for p in sent])
        self.reply = _codecs([tc for _, tc in reply])

    def dispatch(self, servant: Any, args: list[Any]) -> tuple[str, Any]:
        """The skeleton: call the servant's method on ``args`` and
        classify the outcome — ``("ok", reply values)``, ``("user",
        exception)`` or ``("system", (category, message))``."""
        method = getattr(servant, self.name, None)
        try:
            if method is None or not callable(method):
                raise RemoteError(
                    f"servant {type(servant).__name__} does not implement "
                    f"'{self.name}'",
                    category="NO_IMPLEMENT",
                )
            values = decompose(
                method(*args), len(self.produced), f"servant '{self.name}'"
            )
            for i, arg in self.inout:
                values.insert(i, args[arg])
            for i, name, _tc, _arg in self.dist_reply:
                if not isinstance(values[i], DistributedSequence):
                    raise RemoteError(
                        f"servant produced {type(values[i]).__name__} for "
                        f"distributed slot '{name}'",
                        category="BAD_PARAM",
                    )
        except UserException as exc:
            if exc._tc is not None and exc._tc.repo_id in self.raises:
                return ("user", exc)
            return ("system", (
                "UNKNOWN",
                f"servant raised undeclared exception {type(exc).__name__}",
            ))
        except RemoteError as exc:  # a system exception: category intact
            return ("system", (exc.category, str(exc)))
        except Exception as exc:  # noqa: BLE001 - reported to the client
            return ("system", ("UNKNOWN", f"{type(exc).__name__}: {exc}"))
        return ("ok", values)


def compose(values: list[Any]) -> Any:
    """Apply the 0/1/n composition rule."""
    if not values:
        return None
    if len(values) == 1:
        return values[0]
    return tuple(values)


def decompose(result: Any, nslots: int, where: str) -> list[Any]:
    """Inverse of :func:`compose`, validating arity."""
    if nslots == 0:
        if result is not None:
            raise RemoteError(
                f"{where} produced a value but the operation returns "
                f"nothing",
                category="BAD_OPERATION",
            )
        return []
    if nslots == 1:
        return [result]
    if not isinstance(result, tuple) or len(result) != nslots:
        raise RemoteError(
            f"{where} must produce a tuple of {nslots} values",
            category="BAD_OPERATION",
        )
    return list(result)


class RemoteError(RuntimeError):
    """A system-level failure reported by the server side (the CORBA
    SystemException role): unknown operation, marshaling failure,
    servant crash, …"""

    def __init__(self, message: str, category: str = "UNKNOWN") -> None:
        super().__init__(message)
        self.category = category


class UserException(Exception):
    """Base of IDL-declared exceptions raised by servants.

    Generated exception classes subclass this and set ``_tc``.  The
    members dict is what travels on the wire.
    """

    _tc: ExceptionTC | None = None

    def __init__(self, **members: Any) -> None:
        self._members = dict(members)
        detail = ", ".join(f"{k}={v!r}" for k, v in members.items())
        name = self._tc.name if self._tc is not None else type(self).__name__
        super().__init__(f"{name}({detail})")
        for key, value in members.items():
            setattr(self, key, value)

    def members(self) -> dict[str, Any]:
        return dict(self._members)
