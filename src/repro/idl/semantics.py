"""Semantic analysis: scopes, name resolution, type building.

Turns the syntactic AST into *entities* whose types are the runtime
:class:`~repro.cdr.typecodes.TypeCode` objects the ORB interprets.
Performs the IDL rules the parser cannot: declare-before-use name
resolution with nested scopes, duplicate detection, constant
evaluation and range checking, interface-inheritance flattening with
CORBA's collision rule, ``raises`` and ``oneway`` validation, and the
PARDIS-specific rule that a ``dsequence`` element must be a
fixed-width numeric type.

This is the one place PARDIS IDL is resolved and judged: the family-A
lints of :mod:`repro.lint` report the :class:`IdlSemanticError` raised
here (its ``rule`` names the lint) and read their warnings off the
resolved unit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Union

from repro.cdr.typecodes import (
    ArrayTC,
    DSequenceTC,
    EnumTC,
    ExceptionTC,
    MarshalError,
    ObjRefTC,
    SequenceTC,
    StringTC,
    StructTC,
    TypeCode,
    UnionTC,
    TC_BOOLEAN,
    TC_CHAR,
    TC_DOUBLE,
    TC_FLOAT,
    TC_LONG,
    TC_LONGLONG,
    TC_OCTET,
    TC_SHORT,
    TC_ULONG,
    TC_ULONGLONG,
    TC_USHORT,
    TC_VOID,
)
from repro.idl import ast
from repro.idl.errors import IdlSemanticError
from repro.orb.operation import Direction, OperationSpec, ParamSpec

_BASIC_TC = {
    "short": TC_SHORT,
    "ushort": TC_USHORT,
    "long": TC_LONG,
    "ulong": TC_ULONG,
    "longlong": TC_LONGLONG,
    "ulonglong": TC_ULONGLONG,
    "float": TC_FLOAT,
    "double": TC_DOUBLE,
    "boolean": TC_BOOLEAN,
    "char": TC_CHAR,
    "octet": TC_OCTET,
    "void": TC_VOID,
}

#: Element types a dsequence may carry: the basic types with a dtype.
_FIXED_WIDTH = sorted(
    name for name, tc in _BASIC_TC.items() if tc.dtype is not None
)

_COLLISION_HINT = (
    "rename one of the colliding members, or introduce a shared base "
    "interface that declares it once"
)


def _describe(tc: TypeCode) -> str:
    """A type as messages name it: ``long``, ``sequence<string>``,
    ``struct 's'``."""
    if isinstance(tc, (SequenceTC, DSequenceTC)):
        return f"{tc.kind}<{_describe(tc.element)}>"
    name = getattr(tc, "name", None) or getattr(tc, "interface", None)
    return f"{tc.kind} '{name}'" if name else tc.kind


# ---------------------------------------------------------------------------
# Entities: the semantic pass's output, consumed by codegen
# ---------------------------------------------------------------------------


@dataclass
class Entity:
    name: str
    qualified: tuple[str, ...]

    @property
    def qualified_text(self) -> str:
        return "::".join(self.qualified)


@dataclass
class TypedefEntity(Entity):
    typecode: TypeCode = None  # type: ignore[assignment]
    line: int = 0
    #: Set once any type reference in the unit resolves to it.
    referenced: bool = False

    @property
    def is_dsequence(self) -> bool:
        return isinstance(self.typecode, DSequenceTC)


@dataclass
class StructEntity(Entity):
    typecode: StructTC = None  # type: ignore[assignment]


@dataclass
class EnumEntity(Entity):
    typecode: EnumTC = None  # type: ignore[assignment]


@dataclass
class ExceptionEntity(Entity):
    typecode: ExceptionTC = None  # type: ignore[assignment]


@dataclass
class UnionEntity(Entity):
    typecode: UnionTC = None  # type: ignore[assignment]


@dataclass
class ConstEntity(Entity):
    typecode: TypeCode = None  # type: ignore[assignment]
    value: Any = None


@dataclass
class AttributeInfo:
    name: str
    typecode: TypeCode
    readonly: bool


@dataclass
class InterfaceEntity(Entity):
    repo_id: str = ""
    bases: list["InterfaceEntity"] = field(default_factory=list)
    own_operations: list[OperationSpec] = field(default_factory=list)
    all_operations: dict[str, OperationSpec] = field(default_factory=dict)
    attributes: list[AttributeInfo] = field(default_factory=list)
    #: Entities declared inside the interface body, in order.
    nested: list[Entity] = field(default_factory=list)
    #: Every operation and attribute name, inherited ones included ->
    #: qualified name of the interface that declares it.
    declared_in: dict[str, str] = field(default_factory=dict)
    #: Source lines of each own operation: its declaration, then one
    #: per parameter.
    lines: dict[str, tuple[int, ...]] = field(default_factory=dict)

    @property
    def typecode(self) -> ObjRefTC:
        return ObjRefTC(self.qualified_text)


@dataclass
class ModuleEntity(Entity):
    body: list[Entity] = field(default_factory=list)


TopEntity = Union[
    TypedefEntity,
    StructEntity,
    EnumEntity,
    ExceptionEntity,
    UnionEntity,
    ConstEntity,
    InterfaceEntity,
    ModuleEntity,
]


@dataclass
class CompilationUnit:
    """Ordered, resolved translation unit."""

    body: list[Entity] = field(default_factory=list)

    def walk(self, entities: list[Entity] | None = None) -> Iterator[Entity]:
        """Every entity, depth first in declaration order."""
        for entity in self.body if entities is None else entities:
            yield entity
            yield from self.walk(
                getattr(entity, "body", None)
                or getattr(entity, "nested", None)
                or []
            )

    def interfaces(self) -> list[InterfaceEntity]:
        return [e for e in self.walk() if isinstance(e, InterfaceEntity)]

    def find(self, qualified_text: str) -> Entity | None:
        target = tuple(qualified_text.split("::"))
        return next((e for e in self.walk() if e.qualified == target), None)


# ---------------------------------------------------------------------------
# Scopes
# ---------------------------------------------------------------------------


class _Scope:
    def __init__(self, name: str, parent: "_Scope | None") -> None:
        self.name = name
        self.parent = parent
        self.entries: dict[str, Entity] = {}

    @property
    def qualified(self) -> tuple[str, ...]:
        if self.parent is None:
            return ()
        return self.parent.qualified + (self.name,)

    def declare(self, entity: Entity, line: int | None) -> None:
        if entity.name in self.entries:
            raise IdlSemanticError(
                f"'{entity.name}' is already declared in this scope", line
            )
        self.entries[entity.name] = entity

    def lookup(self, parts: tuple[str, ...]) -> Entity | None:
        """CORBA-style: search this scope then enclosing scopes; a
        leading empty part anchors at file scope."""
        if parts and parts[0] == "":
            scope: _Scope | None = self
            while scope.parent is not None:
                scope = scope.parent
            return scope._lookup_here(parts[1:])
        scope = self
        while scope is not None:
            hit = scope._lookup_here(parts)
            if hit is not None:
                return hit
            scope = scope.parent
        return None

    def _lookup_here(self, parts: tuple[str, ...]) -> Entity | None:
        if not parts:
            return None
        entity = self.entries.get(parts[0])
        for part in parts[1:]:
            if entity is None:
                return None
            subscope = getattr(entity, "_scope", None)
            if subscope is None:
                return None
            entity = subscope.entries.get(part)
        return entity


# ---------------------------------------------------------------------------
# Analyzer
# ---------------------------------------------------------------------------


class Analyzer:
    """Walks the AST building scopes, entities and TypeCodes."""

    def __init__(self) -> None:
        self._file_scope = _Scope("", None)
        #: Forward-declared interfaces awaiting their definition:
        #: qualified name → line of the (first) forward declaration.
        self._pending_forward: dict[tuple[str, ...], int] = {}

    def analyze(self, spec: ast.Specification) -> CompilationUnit:
        unit = CompilationUnit()
        for decl in spec.body:
            entity = self._declaration(decl, self._file_scope)
            if entity is not None:
                unit.body.append(entity)
        if self._pending_forward:
            qualified, line = min(
                self._pending_forward.items(), key=lambda item: item[1]
            )
            raise IdlSemanticError(
                f"forward-declared interface '{'::'.join(qualified)}' "
                f"is never defined",
                line,
            )
        return unit

    # -- declarations ---------------------------------------------------------

    def _declaration(
        self, decl: ast.Declaration, scope: _Scope
    ) -> Entity | None:
        if isinstance(decl, ast.Module):
            return self._module(decl, scope)
        if isinstance(decl, ast.Interface):
            return self._interface(decl, scope)
        if isinstance(decl, ast.InterfaceForward):
            return self._interface_forward(decl, scope)
        if isinstance(decl, ast.Typedef):
            return self._typedef(decl, scope)
        if isinstance(decl, ast.Struct):
            return self._struct(decl, scope)
        if isinstance(decl, ast.Enum):
            return self._enum(decl, scope)
        if isinstance(decl, ast.ExceptionDecl):
            return self._exception(decl, scope)
        if isinstance(decl, ast.UnionDecl):
            return self._union(decl, scope)
        if isinstance(decl, ast.Const):
            return self._const(decl, scope)
        raise IdlSemanticError(
            f"unsupported declaration {type(decl).__name__}", decl.line
        )

    def _module(self, decl: ast.Module, scope: _Scope) -> ModuleEntity:
        entity = ModuleEntity(decl.name, scope.qualified + (decl.name,))
        subscope = _Scope(decl.name, scope)
        entity._scope = subscope  # type: ignore[attr-defined]
        scope.declare(entity, decl.line)
        for inner in decl.body:
            inner_entity = self._declaration(inner, subscope)
            if inner_entity is not None:
                entity.body.append(inner_entity)
        return entity

    def _interface_forward(
        self, decl: ast.InterfaceForward, scope: _Scope
    ) -> None:
        """Register a forward declaration.  The entity enters the scope
        (so operations may reference it) but joins the unit body only
        once defined; :meth:`analyze` rejects units that never define
        it."""
        existing = scope.entries.get(decl.name)
        if existing is not None:
            if isinstance(existing, InterfaceEntity):
                return None  # re-declaration (before or after definition)
            raise IdlSemanticError(
                f"'{decl.name}' is already declared in this scope",
                decl.line,
            )
        qualified = scope.qualified + (decl.name,)
        repo_id = "IDL:" + "/".join(qualified) + ":1.0"
        entity = InterfaceEntity(decl.name, qualified, repo_id=repo_id)
        subscope = _Scope(decl.name, scope)
        entity._scope = subscope  # type: ignore[attr-defined]
        entity._defined = False  # type: ignore[attr-defined]
        scope.declare(entity, decl.line)
        self._pending_forward.setdefault(qualified, decl.line)
        return None

    def _interface(
        self, decl: ast.Interface, scope: _Scope
    ) -> InterfaceEntity:
        qualified = scope.qualified + (decl.name,)
        repo_id = "IDL:" + "/".join(qualified) + ":1.0"
        forward = scope.entries.get(decl.name)
        if (
            isinstance(forward, InterfaceEntity)
            and not getattr(forward, "_defined", True)
        ):
            # Completing an earlier forward declaration: reuse the
            # entity so references resolved meanwhile stay valid.
            entity = forward
            entity._defined = True  # type: ignore[attr-defined]
            subscope = entity._scope  # type: ignore[attr-defined]
            self._pending_forward.pop(qualified, None)
        else:
            entity = InterfaceEntity(decl.name, qualified, repo_id=repo_id)
            subscope = _Scope(decl.name, scope)
            entity._scope = subscope  # type: ignore[attr-defined]
            # Declared before the body: operations may take
            # self-references.
            scope.declare(entity, decl.line)

        for base_ref in decl.bases:
            base = scope.lookup(base_ref.parts)
            if not isinstance(base, InterfaceEntity):
                raise IdlSemanticError(
                    f"'{base_ref.text}' is not an interface",
                    base_ref.line,
                )
            if base is entity:
                raise IdlSemanticError(
                    f"interface '{decl.name}' cannot inherit from itself",
                    decl.line,
                )
            if base in entity.bases:
                raise IdlSemanticError(
                    f"interface '{decl.name}' inherits '{base.name}' twice",
                    decl.line,
                )
            entity.bases.append(base)

        # CORBA: an operation or attribute name reaches an interface
        # from one declaration only (a diamond over it is fine), and
        # the interface may not redefine it.
        origins: dict[str, set[str]] = {}
        for base in entity.bases:
            for name, origin in base.declared_in.items():
                origins.setdefault(name, set()).add(origin)
            entity.all_operations.update(base.all_operations)
        for name in sorted(origins):
            if len(origins[name]) > 1:
                raise IdlSemanticError(
                    f"interface '{entity.qualified_text}' inherits "
                    f"conflicting definitions of '{name}' (declared in "
                    f"{', '.join(sorted(origins[name]))})",
                    decl.line,
                    rule="PD104",
                    hint=_COLLISION_HINT,
                )
        entity.declared_in = {
            name: origin for name, (origin,) in origins.items()
        }

        for export in decl.body:
            if isinstance(export, (ast.Operation, ast.Attribute)):
                origin = entity.declared_in.setdefault(
                    export.name, entity.qualified_text
                )
                if origin != entity.qualified_text:
                    raise IdlSemanticError(
                        f"interface '{entity.qualified_text}' redefines "
                        f"'{export.name}', declared in {origin}",
                        decl.line,
                        rule="PD104",
                        hint=_COLLISION_HINT,
                    )
            if isinstance(export, ast.Operation):
                spec = self._operation(export, subscope)
                self._declare_operation(entity, spec, export.line)
                entity.lines[export.name] = (export.line,) + tuple(
                    param.line or export.line for param in export.params
                )
            elif isinstance(export, ast.Attribute):
                self._attribute(entity, export, subscope)
            else:
                entity.nested.append(self._declaration(export, subscope))
        return entity

    def _declare_operation(
        self, entity: InterfaceEntity, spec: OperationSpec, line: int
    ) -> None:
        if spec.name in entity.all_operations:
            raise IdlSemanticError(
                f"operation '{spec.name}' is declared twice in "
                f"interface '{entity.name}'",
                line,
            )
        entity.own_operations.append(spec)
        entity.all_operations[spec.name] = spec

    def _operation(
        self, decl: ast.Operation, scope: _Scope
    ) -> OperationSpec:
        params = []
        for param in decl.params:
            typecode = self._type(
                param.type, scope, param.line or decl.line
            )
            params.append(
                ParamSpec(param.name, Direction(param.direction), typecode)
            )
        raises = []
        for exc_ref in decl.raises:
            exc = scope.lookup(exc_ref.parts)
            if exc is None:
                raise IdlSemanticError(
                    f"operation '{decl.name}' raises undeclared "
                    f"exception '{exc_ref.text}'",
                    exc_ref.line or decl.line,
                    rule="PD106",
                    hint=f"declare 'exception {exc_ref.text} {{ ... }};' "
                    f"before the interface, or drop it from the raises "
                    f"clause",
                )
            if not isinstance(exc, ExceptionEntity):
                raise IdlSemanticError(
                    f"operation '{decl.name}' raises '{exc_ref.text}', "
                    f"which is not an exception",
                    exc_ref.line or decl.line,
                    rule="PD106",
                    hint="raises clauses may only name 'exception' "
                    "declarations",
                )
            raises.append(exc.typecode)
        return_tc = self._type(decl.return_type, scope, decl.line)
        if decl.oneway:
            problems = [
                f"has {p.direction.value} parameter '{p.name}'"
                for p in params
                if p.direction.returns
            ]
            if return_tc is not TC_VOID:
                problems.insert(0, f"returns {_describe(return_tc)}")
            if raises:
                problems.append("declares a raises clause")
            if problems:
                raise IdlSemanticError(
                    f"oneway operation '{decl.name}' {'; '.join(problems)}",
                    decl.line,
                    rule="PD107",
                    hint="oneway requests carry no reply: make the "
                    "operation void with only in parameters, or drop "
                    "'oneway'",
                )
        try:
            return OperationSpec(
                decl.name,
                tuple(params),
                return_tc,
                tuple(raises),
                oneway=decl.oneway,
            )
        except ValueError as exc:
            raise IdlSemanticError(str(exc), decl.line) from None

    def _attribute(
        self, entity: InterfaceEntity, decl: ast.Attribute, scope: _Scope
    ) -> None:
        """Attributes map to _get_/_set_ operations, per CORBA."""
        typecode = self._type(decl.type, scope, decl.line)
        if any(a.name == decl.name for a in entity.attributes):
            raise IdlSemanticError(
                f"attribute '{decl.name}' is declared twice", decl.line
            )
        entity.attributes.append(
            AttributeInfo(decl.name, typecode, decl.readonly)
        )
        getter = OperationSpec(f"_get_{decl.name}", (), typecode)
        self._declare_operation(entity, getter, decl.line)
        if not decl.readonly:
            setter = OperationSpec(
                f"_set_{decl.name}",
                (ParamSpec("value", Direction.IN, typecode),),
            )
            self._declare_operation(entity, setter, decl.line)

    def _typedef(self, decl: ast.Typedef, scope: _Scope) -> TypedefEntity:
        typecode = self._type(decl.type, scope, decl.line)
        for dim in reversed(decl.array_dims):
            typecode = ArrayTC(
                typecode, self._positive_int(dim, scope, decl.line)
            )
        entity = TypedefEntity(
            decl.name,
            scope.qualified + (decl.name,),
            typecode=typecode,
            line=decl.line,
        )
        scope.declare(entity, decl.line)
        return entity

    def _member_fields(
        self,
        members: list[ast.StructMember],
        scope: _Scope,
        owner: str,
        line: int,
    ) -> tuple[tuple[str, TypeCode], ...]:
        fields: list[tuple[str, TypeCode]] = []
        seen: set[str] = set()
        for member in members:
            if member.name in seen:
                raise IdlSemanticError(
                    f"member '{member.name}' is declared twice in "
                    f"{owner}",
                    member.line,
                )
            seen.add(member.name)
            typecode = self._type(member.type, scope, member.line)
            if isinstance(typecode, DSequenceTC):
                raise IdlSemanticError(
                    f"member '{member.name}': distributed sequences "
                    f"cannot be struct or exception members",
                    member.line,
                )
            for dim in reversed(member.array_dims):
                typecode = ArrayTC(
                    typecode, self._positive_int(dim, scope, member.line)
                )
            fields.append((member.name, typecode))
        return tuple(fields)

    def _struct(self, decl: ast.Struct, scope: _Scope) -> StructEntity:
        qualified = scope.qualified + (decl.name,)
        fields = self._member_fields(
            decl.members, scope, f"struct '{decl.name}'", decl.line
        )
        entity = StructEntity(
            decl.name,
            qualified,
            typecode=StructTC("::".join(qualified), fields),
        )
        scope.declare(entity, decl.line)
        return entity

    def _enum(self, decl: ast.Enum, scope: _Scope) -> EnumEntity:
        qualified = scope.qualified + (decl.name,)
        try:
            typecode = EnumTC("::".join(qualified), decl.members)
        except MarshalError as exc:
            raise IdlSemanticError(str(exc), decl.line) from None
        entity = EnumEntity(decl.name, qualified, typecode=typecode)
        scope.declare(entity, decl.line)
        # Enum members enter the enclosing scope as constants (CORBA).
        for member in decl.members:
            scope.declare(
                ConstEntity(
                    member,
                    scope.qualified + (member,),
                    typecode=typecode,
                    value=member,
                ),
                decl.line,
            )
        return entity

    def _exception(
        self, decl: ast.ExceptionDecl, scope: _Scope
    ) -> ExceptionEntity:
        qualified = scope.qualified + (decl.name,)
        repo_id = "IDL:" + "/".join(qualified) + ":1.0"
        fields = self._member_fields(
            decl.members, scope, f"exception '{decl.name}'", decl.line
        )
        entity = ExceptionEntity(
            decl.name,
            qualified,
            typecode=ExceptionTC("::".join(qualified), repo_id, fields),
        )
        scope.declare(entity, decl.line)
        return entity

    def _union(self, decl: ast.UnionDecl, scope: _Scope) -> UnionEntity:
        qualified = scope.qualified + (decl.name,)
        disc_tc = self._type(decl.discriminator, scope, decl.line)
        cases: list[tuple[Any, str, TypeCode]] = []
        default_case: tuple[str, TypeCode] | None = None
        seen_members: set[str] = set()
        seen_labels: set[Any] = set()
        for case in decl.cases:
            if case.member_name in seen_members:
                raise IdlSemanticError(
                    f"member '{case.member_name}' is declared twice in "
                    f"union '{decl.name}'",
                    case.line,
                )
            seen_members.add(case.member_name)
            member_tc = self._type(case.type, scope, case.line)
            if isinstance(member_tc, DSequenceTC):
                raise IdlSemanticError(
                    f"member '{case.member_name}': distributed "
                    f"sequences cannot be union members",
                    case.line,
                )
            for dim in reversed(case.array_dims):
                member_tc = ArrayTC(
                    member_tc, self._positive_int(dim, scope, case.line)
                )
            for label_expr in case.labels:
                label = self._eval_const(label_expr, scope, case.line)
                try:
                    disc_tc.validate(label)
                except MarshalError as exc:
                    raise IdlSemanticError(
                        f"case label {label!r} does not fit the "
                        f"discriminator: {exc}",
                        case.line,
                    ) from None
                if label in seen_labels:
                    raise IdlSemanticError(
                        f"case label {label!r} appears twice in union "
                        f"'{decl.name}'",
                        case.line,
                    )
                seen_labels.add(label)
                cases.append((label, case.member_name, member_tc))
            if case.is_default:
                if default_case is not None:
                    raise IdlSemanticError(
                        f"union '{decl.name}' has two default cases",
                        case.line,
                    )
                default_case = (case.member_name, member_tc)
        try:
            typecode = UnionTC(
                "::".join(qualified), disc_tc, tuple(cases), default_case
            )
        except MarshalError as exc:
            raise IdlSemanticError(str(exc), decl.line) from None
        entity = UnionEntity(decl.name, qualified, typecode=typecode)
        scope.declare(entity, decl.line)
        return entity

    def _const(self, decl: ast.Const, scope: _Scope) -> ConstEntity:
        typecode = self._type(decl.type, scope, decl.line)
        value = self._eval_const(decl.expr, scope, decl.line)
        value = self._coerce_const(typecode, value, decl)
        entity = ConstEntity(
            decl.name,
            scope.qualified + (decl.name,),
            typecode=typecode,
            value=value,
        )
        scope.declare(entity, decl.line)
        return entity

    def _coerce_const(
        self, typecode: TypeCode, value: Any, decl: ast.Const
    ) -> Any:
        kind = typecode.kind
        if kind in ("float", "double"):
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise IdlSemanticError(
                    f"constant '{decl.name}' must be numeric", decl.line
                )
            return float(value)
        if kind == "boolean":
            if not isinstance(value, bool):
                raise IdlSemanticError(
                    f"constant '{decl.name}' must be TRUE or FALSE",
                    decl.line,
                )
            return value
        if kind == "string":
            if not isinstance(value, str):
                raise IdlSemanticError(
                    f"constant '{decl.name}' must be a string", decl.line
                )
            try:
                typecode.validate(value)
            except MarshalError as exc:
                raise IdlSemanticError(str(exc), decl.line) from None
            return value
        if kind == "char":
            if not isinstance(value, str) or len(value) != 1:
                raise IdlSemanticError(
                    f"constant '{decl.name}' must be a character",
                    decl.line,
                )
            return value
        if kind == "enum":
            try:
                typecode.ordinal(value)  # type: ignore[attr-defined]
            except MarshalError as exc:
                raise IdlSemanticError(str(exc), decl.line) from None
            return value
        # Integer kinds.
        if isinstance(value, bool) or not isinstance(value, int):
            raise IdlSemanticError(
                f"constant '{decl.name}' must be an integer", decl.line
            )
        try:
            typecode.validate(value)
        except MarshalError as exc:
            raise IdlSemanticError(str(exc), decl.line) from None
        return value

    # -- types -------------------------------------------------------------

    def _type(
        self, expr: ast.TypeExpr, scope: _Scope, line: int
    ) -> TypeCode:
        if isinstance(expr, ast.BasicType):
            return _BASIC_TC[expr.name]
        if isinstance(expr, ast.StringType):
            if expr.bound is None:
                return StringTC()
            return StringTC(self._positive_int(expr.bound, scope, line))
        if isinstance(expr, ast.SequenceType):
            element = self._type(expr.element, scope, line)
            self._check_element(element, "sequence", line)
            bound = (
                None
                if expr.bound is None
                else self._positive_int(expr.bound, scope, line)
            )
            return SequenceTC(element, bound)
        if isinstance(expr, ast.DSequenceType):
            element = self._type(expr.element, scope, line)
            if element.dtype is None:
                raise IdlSemanticError(
                    f"dsequence element type {_describe(element)} is not "
                    f"a fixed-width numeric",
                    line,
                    rule="PD102",
                    hint=f"use one of: {', '.join(_FIXED_WIDTH)} (the "
                    f"transfer engine scatters raw fixed-width buffers)",
                )
            bound = (
                None
                if expr.bound is None
                else self._positive_int(expr.bound, scope, line)
            )
            template = None
            if expr.dist is not None:
                if expr.dist.kind == "block":
                    template = ("block",)
                else:
                    if not any(expr.dist.weights):
                        raise IdlSemanticError(
                            "proportions need at least one positive "
                            "weight",
                            line,
                        )
                    template = ("proportions", expr.dist.weights)
            return DSequenceTC(element, bound, template)
        if isinstance(expr, ast.NamedType):
            entity = scope.lookup(expr.parts)
            if entity is None:
                raise IdlSemanticError(
                    f"unknown type '{expr.text}'", expr.line
                )
            if isinstance(entity, TypedefEntity):
                entity.referenced = True
            if isinstance(
                entity,
                (
                    TypedefEntity,
                    StructEntity,
                    EnumEntity,
                    UnionEntity,
                    InterfaceEntity,
                ),
            ):
                return entity.typecode
            raise IdlSemanticError(
                f"'{expr.text}' does not name a type", expr.line
            )
        raise IdlSemanticError(f"unsupported type expression {expr!r}", line)

    def _check_element(
        self, element: TypeCode, container: str, line: int
    ) -> None:
        if element is TC_VOID:
            raise IdlSemanticError(
                f"{container} element cannot be void", line
            )
        if isinstance(element, DSequenceTC):
            raise IdlSemanticError(
                f"{container} element cannot be a distributed sequence",
                line,
            )

    def _positive_int(
        self, expr: ast.ConstExpr, scope: _Scope, line: int
    ) -> int:
        value = self._eval_const(expr, scope, line)
        if isinstance(value, bool) or not isinstance(value, int):
            raise IdlSemanticError(
                "bound must be an integer constant", line
            )
        if value <= 0:
            raise IdlSemanticError(
                f"bound must be positive, got {value}", line
            )
        return value

    # -- constant evaluation ---------------------------------------------

    def _eval_const(
        self, expr: ast.ConstExpr, scope: _Scope, line: int
    ) -> Any:
        if isinstance(expr, ast.Literal):
            return expr.value
        if isinstance(expr, ast.ConstRef):
            entity = scope.lookup(expr.parts)
            if not isinstance(entity, ConstEntity):
                raise IdlSemanticError(
                    f"'{expr.text}' is not a constant", expr.line or line
                )
            return entity.value
        if isinstance(expr, ast.UnaryOp):
            value = self._eval_const(expr.operand, scope, line)
            return self._apply_unary(expr.op, value, line)
        if isinstance(expr, ast.BinaryOp):
            left = self._eval_const(expr.left, scope, line)
            right = self._eval_const(expr.right, scope, line)
            return self._apply_binary(expr.op, left, right, line)
        raise IdlSemanticError(f"bad constant expression {expr!r}", line)

    def _apply_unary(self, op: str, value: Any, line: int) -> Any:
        numeric = isinstance(value, (int, float)) and not isinstance(
            value, bool
        )
        if op in "+-" and numeric:
            return value if op == "+" else -value
        if op == "~" and isinstance(value, int) and not isinstance(
            value, bool
        ):
            return ~value
        raise IdlSemanticError(
            f"operator '{op}' cannot apply to {value!r}", line
        )

    def _apply_binary(self, op: str, left: Any, right: Any, line: int) -> Any:
        def integers() -> bool:
            return all(
                isinstance(v, int) and not isinstance(v, bool)
                for v in (left, right)
            )

        def numerics() -> bool:
            return all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                for v in (left, right)
            )

        try:
            if op == "+":
                if isinstance(left, str) and isinstance(right, str):
                    return left + right
                if numerics():
                    return left + right
            elif op in ("-", "*"):
                if numerics():
                    return left - right if op == "-" else left * right
            elif op == "/":
                if numerics():
                    if integers():
                        return left // right
                    return left / right
            elif op == "%":
                if integers():
                    return left % right
            elif op in ("<<", ">>", "|", "&", "^"):
                if integers():
                    if op == "<<":
                        return left << right
                    if op == ">>":
                        return left >> right
                    if op == "|":
                        return left | right
                    if op == "&":
                        return left & right
                    return left ^ right
        except ZeroDivisionError:
            raise IdlSemanticError("division by zero in constant", line)
        raise IdlSemanticError(
            f"operator '{op}' cannot apply to {left!r} and {right!r}", line
        )


def analyze(spec: ast.Specification) -> CompilationUnit:
    """Resolve a parsed specification into a compilation unit."""
    return Analyzer().analyze(spec)
