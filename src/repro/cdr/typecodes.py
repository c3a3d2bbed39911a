"""Runtime descriptions of IDL types (CORBA TypeCodes).

Every IDL type the compiler accepts has a TypeCode; the encoder and
decoder are driven entirely by these, so generated stubs contain no
per-type marshaling logic — they pass the TypeCode of each argument to
the CDR layer, exactly as a CORBA ORB interprets TypeCodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np


class MarshalError(ValueError):
    """A value does not conform to its TypeCode."""


class TypeCode:
    """Base class; concrete codes below.

    ``kind`` is a short stable identifier used in reprs and the IDL
    compiler's dispatch tables.
    """

    kind: str = "abstract"

    #: NumPy dtype for fixed-width numeric codes, else ``None``.
    dtype: np.dtype | None = None

    def validate(self, value: Any) -> None:
        """Raise :class:`MarshalError` when ``value`` doesn't fit."""

    def __repr__(self) -> str:
        return f"<TypeCode {self.kind}>"


@dataclass(frozen=True, repr=False)
class BasicTC(TypeCode):
    """A fixed-width primitive: IDL basic numeric/char/boolean types.

    Note: ``kind`` inherits the base-class default, so every field may
    carry one; the module-level constants construct by keyword.
    """

    kind: str = "basic"
    size: int = 1
    fmt: str = "B"
    np_dtype: str | None = None
    signed: bool | None = None

    def __post_init__(self) -> None:
        # The exact Python type and closed range that need neither
        # conversion nor rejection (not fields: the code's identity,
        # repr and constructor are unchanged).
        if self.kind == "boolean":
            exact = (bool, False, True)
        elif self.signed is None:
            exact = (float, float("-inf"), float("inf"))
        else:
            bits = self.size * 8
            lo = -(1 << (bits - 1)) if self.signed else 0
            exact = (int, lo, lo + (1 << bits) - 1)
        object.__setattr__(self, "exact", exact)
        # Built once: the marshalling paths read it on every value.
        dtype = np.dtype(self.np_dtype) if self.np_dtype else None
        object.__setattr__(self, "dtype", dtype)

    @property
    def alignment(self) -> int:
        return self.size

    def accepts(self, value: Any) -> bool:
        """The fast path in front of :meth:`validate`: ``value`` is
        exactly the Python type this code packs and in range, so
        ``validate`` would neither reject nor convert it.  ``False``
        decides nothing — ``bool``, NumPy scalars, out-of-range and
        wrong-type values all go to ``validate`` for the verdict."""
        kind, lo, hi = self.exact  # type: ignore[attr-defined]
        return type(value) is kind and lo <= value <= hi

    def validate(self, value: Any) -> None:
        if self.signed is None:
            return
        if isinstance(value, (np.integer, np.floating)):
            value = value.item()
        if not isinstance(value, int):
            raise MarshalError(
                f"{self.kind} expects an integer, got {type(value).__name__}"
            )
        bits = self.size * 8
        if self.signed:
            lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
        else:
            lo, hi = 0, (1 << bits) - 1
        if not lo <= value <= hi:
            raise MarshalError(
                f"{value} out of range for IDL {self.kind} [{lo}, {hi}]"
            )


TC_SHORT = BasicTC("short", 2, "h", "int16", signed=True)
TC_USHORT = BasicTC("ushort", 2, "H", "uint16", signed=False)
TC_LONG = BasicTC("long", 4, "i", "int32", signed=True)
TC_ULONG = BasicTC("ulong", 4, "I", "uint32", signed=False)
TC_LONGLONG = BasicTC("longlong", 8, "q", "int64", signed=True)
TC_ULONGLONG = BasicTC("ulonglong", 8, "Q", "uint64", signed=False)
TC_FLOAT = BasicTC("float", 4, "f", "float32")
TC_DOUBLE = BasicTC("double", 8, "d", "float64")
TC_BOOLEAN = BasicTC("boolean", 1, "B", "bool")
TC_OCTET = BasicTC("octet", 1, "B", "uint8", signed=False)
TC_CHAR = BasicTC("char", 1, "c")


@dataclass(frozen=True, repr=False)
class _VoidTC(TypeCode):
    kind: str = "void"

    def validate(self, value: Any) -> None:
        if value is not None:
            raise MarshalError("void carries no value")


TC_VOID = _VoidTC()


@dataclass(frozen=True, repr=False)
class StringTC(TypeCode):
    """IDL string, optionally bounded."""

    bound: int | None = None
    kind: str = "string"

    def validate(self, value: Any) -> None:
        if not isinstance(value, str):
            raise MarshalError(
                f"string expects str, got {type(value).__name__}"
            )
        if self.bound is not None and len(value) > self.bound:
            raise MarshalError(
                f"string of length {len(value)} exceeds bound {self.bound}"
            )


TC_STRING = StringTC()


@dataclass(frozen=True, repr=False)
class EnumTC(TypeCode):
    """IDL enum: marshaled as ulong ordinal, surfaced as the label."""

    name: str
    members: tuple[str, ...]
    kind: str = "enum"

    def __post_init__(self) -> None:
        if len(set(self.members)) != len(self.members):
            raise MarshalError(f"enum {self.name} has duplicate members")

    def ordinal(self, value: Any) -> int:
        if isinstance(value, str):
            try:
                return self.members.index(value)
            except ValueError:
                raise MarshalError(
                    f"{value!r} is not a member of enum {self.name}"
                ) from None
        if isinstance(value, (int, np.integer)):
            if not 0 <= int(value) < len(self.members):
                raise MarshalError(
                    f"ordinal {value} out of range for enum {self.name}"
                )
            return int(value)
        raise MarshalError(
            f"enum {self.name} expects a member name or ordinal"
        )

    def validate(self, value: Any) -> None:
        self.ordinal(value)


@dataclass(frozen=True, repr=False)
class StructTC(TypeCode):
    """IDL struct: named, ordered fields.

    Values are dicts keyed by field name (the Python mapping used by
    the generated code).
    """

    name: str
    fields: tuple[tuple[str, TypeCode], ...]
    kind: str = "struct"

    def validate(self, value: Any) -> None:
        if not isinstance(value, dict):
            raise MarshalError(
                f"struct {self.name} expects a dict, got "
                f"{type(value).__name__}"
            )
        expected = {name for name, _ in self.fields}
        missing = expected - set(value)
        if missing:
            raise MarshalError(
                f"struct {self.name} missing fields {sorted(missing)}"
            )
        extra = set(value) - expected
        if extra:
            raise MarshalError(
                f"struct {self.name} has unknown fields {sorted(extra)}"
            )


@dataclass(frozen=True, repr=False)
class SequenceTC(TypeCode):
    """Plain CORBA sequence (non-distributed), optionally bounded."""

    element: TypeCode
    bound: int | None = None
    kind: str = "sequence"

    def validate(self, value: Any) -> None:
        try:
            n = len(value)
        except TypeError:
            raise MarshalError(
                "sequence expects a sized iterable"
            ) from None
        if self.bound is not None and n > self.bound:
            raise MarshalError(
                f"sequence of length {n} exceeds bound {self.bound}"
            )


@dataclass(frozen=True, repr=False)
class ArrayTC(TypeCode):
    """IDL fixed-length array (no length prefix on the wire)."""

    element: TypeCode
    length: int
    kind: str = "array"

    def validate(self, value: Any) -> None:
        try:
            n = len(value)
        except TypeError:
            raise MarshalError("array expects a sized iterable") from None
        if n != self.length:
            raise MarshalError(
                f"array expects exactly {self.length} elements, got {n}"
            )


@dataclass(frozen=True, repr=False)
class DSequenceTC(TypeCode):
    """The PARDIS distributed sequence (paper §2.2).

    Wire layout when fully materialized (centralized method) is that
    of the equivalent plain sequence; the multi-port method never
    materializes it, marshaling per-thread chunks instead.  ``bound``
    is the optional fixed length, ``template`` the optional preset
    distribution recorded in the IDL definition.
    """

    element: TypeCode
    bound: int | None = None
    template: Any = None
    kind: str = "dsequence"

    def __post_init__(self) -> None:
        if self.element.dtype is None:
            raise MarshalError(
                "distributed sequences require a fixed-width numeric "
                f"element type, not {self.element.kind}"
            )

    @property
    def element_dtype(self) -> np.dtype:
        assert self.element.dtype is not None
        return self.element.dtype

    def validate(self, value: Any) -> None:
        length = getattr(value, "length", None)
        if not callable(length):
            raise MarshalError(
                "dsequence expects a DistributedSequence-like value"
            )
        if self.bound is not None and value.length() > self.bound:
            raise MarshalError(
                f"dsequence of length {value.length()} exceeds bound "
                f"{self.bound}"
            )


@dataclass(frozen=True, repr=False)
class UnionTC(TypeCode):
    """IDL discriminated union.

    ``cases`` holds ``(label, member name, member TypeCode)`` triples;
    ``default_case`` optionally names the ``default:`` arm as a
    ``(member name, TypeCode)`` pair.  Values are dicts of the form
    ``{"d": discriminator, "v": member value}`` (the mapping generated
    code constructs via its union factory).  On the wire: the
    discriminator, then the selected member — standard CDR.
    """

    name: str = ""
    discriminator: TypeCode = None  # type: ignore[assignment]
    cases: tuple[tuple[Any, str, TypeCode], ...] = ()
    default_case: tuple[str, TypeCode] | None = None
    kind: str = "union"

    def __post_init__(self) -> None:
        labels = [label for label, _, _ in self.cases]
        if len(set(labels)) != len(labels):
            raise MarshalError(
                f"union {self.name} has duplicate case labels"
            )
        if self.discriminator is None or self.discriminator.kind not in (
            "short",
            "ushort",
            "long",
            "ulong",
            "longlong",
            "ulonglong",
            "boolean",
            "char",
            "enum",
        ):
            kind = getattr(self.discriminator, "kind", None)
            raise MarshalError(
                f"union {self.name}: {kind!r} cannot discriminate a "
                f"union"
            )

    def arm_for(self, discriminator: Any) -> tuple[str, TypeCode]:
        """The (member name, TypeCode) selected by a discriminator."""
        for label, member, tc in self.cases:
            if label == discriminator:
                return member, tc
        if self.default_case is not None:
            return self.default_case
        raise MarshalError(
            f"union {self.name}: discriminator {discriminator!r} "
            f"matches no case and there is no default"
        )

    def validate(self, value: Any) -> None:
        if (
            not isinstance(value, dict)
            or "d" not in value
            or "v" not in value
        ):
            raise MarshalError(
                f"union {self.name} expects {{'d': …, 'v': …}}, got "
                f"{type(value).__name__}"
            )
        self.discriminator.validate(value["d"])
        self.arm_for(value["d"])


@dataclass(frozen=True, repr=False)
class ObjRefTC(TypeCode):
    """Object reference: marshaled as its stringified IOR."""

    interface: str
    kind: str = "objref"


@dataclass(frozen=True, repr=False)
class ExceptionTC(TypeCode):
    """IDL user exception: repository id plus struct-like members."""

    name: str
    repo_id: str
    fields: tuple[tuple[str, TypeCode], ...] = field(default_factory=tuple)
    kind: str = "exception"


def fixed_width(tc: TypeCode) -> bool:
    """Can sequences of ``tc`` use the NumPy bulk fast path?"""
    return tc.dtype is not None
