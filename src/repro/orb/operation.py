"""Runtime descriptions of IDL operations.

The IDL compiler reduces each operation to an :class:`OperationSpec`;
proxies marshal requests and skeletons dispatch them entirely from
these specs, so the generated code stays declarative.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Any

from repro.cdr.typecodes import (
    DSequenceTC,
    ExceptionTC,
    TypeCode,
    TC_VOID,
)


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

    @property
    def distributed(self) -> bool:
        """Is this a distributed-sequence parameter?"""
        return isinstance(self.typecode, DSequenceTC)


#: Name used for a distributed return value in layouts and chunks.
RETURN_SLOT = "__return__"


@dataclass(frozen=True)
class Slot:
    """One value position in a request or reply."""

    name: str
    typecode: TypeCode
    param: ParamSpec | None  # None for the return value

    @property
    def distributed(self) -> bool:
        return isinstance(self.typecode, DSequenceTC)


@dataclass(frozen=True)
class OperationSpec:
    """Everything the ORB needs to know about one IDL operation.

    The derived views below are computed once per spec
    (``cached_property`` stores into the instance ``__dict__``, which
    a frozen dataclass leaves open) and handed out as tuples: the
    engines ask for them several times per invocation.
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

    @cached_property
    def request_slots(self) -> tuple[Slot, ...]:
        """Client→server values, in declaration order."""
        return tuple(Slot(p.name, p.typecode, p) for p in self.sent_params)

    @cached_property
    def reply_slots(self) -> tuple[Slot, ...]:
        """Server→client values: return first, then out/inout params."""
        returned = tuple(
            Slot(p.name, p.typecode, p) for p in self.returned_params
        )
        if self.return_tc is TC_VOID:
            return returned
        return (Slot(RETURN_SLOT, self.return_tc, None), *returned)

    @cached_property
    def produced_slots(self) -> tuple[Slot, ...]:
        """Reply slots a servant must *produce* (inout distributed
        sequences are mutated in place instead)."""
        return tuple(
            slot
            for slot in self.reply_slots
            if not (
                slot.distributed
                and slot.param is not None
                and slot.param.direction.sends
            )
        )

    def exception_by_id(self, repo_id: str) -> ExceptionTC | None:
        for exc_tc in self.raises:
            if exc_tc.repo_id == repo_id:
                return exc_tc
        return None


class RemoteError(RuntimeError):
    """A system-level failure reported by the server side (the CORBA
    SystemException role): unknown operation, marshaling failure,
    servant crash, …"""

    def __init__(self, message: str, category: str = "UNKNOWN") -> None:
        super().__init__(message)
        self.category = category


#: Repository id → generated exception class, filled as generated
#: modules are executed, so the client side can re-raise the concrete
#: class a servant threw.
_EXCEPTION_REGISTRY: dict[str, type] = {}


def find_exception_class(repo_id: str) -> type | None:
    """The generated class for a repository id, if one was compiled
    in this process."""
    return _EXCEPTION_REGISTRY.get(repo_id)


class UserException(Exception):
    """Base of IDL-declared exceptions raised by servants.

    Generated exception classes subclass this and set ``_tc``.  The
    members dict is what travels on the wire.
    """

    _tc: ExceptionTC | None = None

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if cls._tc is not None:
            _EXCEPTION_REGISTRY[cls._tc.repo_id] = cls

    def __init__(self, **members: Any) -> None:
        self._members = dict(members)
        detail = ", ".join(f"{k}={v!r}" for k, v in members.items())
        name = self._tc.name if self._tc is not None else type(self).__name__
        super().__init__(f"{name}({detail})")
        for key, value in members.items():
            setattr(self, key, value)

    def members(self) -> dict[str, Any]:
        return dict(self._members)
