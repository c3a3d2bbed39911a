"""Family A: semantic lints over PARDIS IDL (rules PD100–PD107).

These run on the parse AST, ahead of (and more tolerantly than) the
semantic pass: a file with several problems yields several
diagnostics rather than one raised exception.  The full semantic
analyzer runs last so anything it rejects that the AST walks missed
still surfaces, as PD100.
"""

from __future__ import annotations

from typing import Iterator

from repro.idl import ast, parser, semantics
from repro.idl.errors import IdlError, IdlSyntaxError
from repro.lint.diagnostics import Diagnostic, sort_key
from repro.lint.rules import diag
from repro.lint.suppress import is_suppressed, suppression_map

#: Element types a dsequence may carry — exactly the fixed-width
#: numerics the CDR layer can scatter (TypeCodes with a dtype).
FIXED_WIDTH_NUMERICS = frozenset(
    (
        "short",
        "ushort",
        "long",
        "ulong",
        "longlong",
        "ulonglong",
        "float",
        "double",
        "boolean",
        "octet",
    )
)

_Scope = tuple[str, ...]


class _Symbols:
    """A flat view of every named declaration, with scoped lookup."""

    def __init__(self, spec: ast.Specification):
        #: qualified name -> declaration node
        self.table: dict[_Scope, ast.Declaration] = {}
        self._walk(spec.body, ())

    def _walk(self, decls: list, scope: _Scope) -> None:
        for decl in decls:
            qualified = scope + (decl.name,)
            self.table.setdefault(qualified, decl)
            if isinstance(decl, (ast.Module, ast.Interface)):
                self._walk(decl.body, qualified)
            if isinstance(decl, ast.Interface):
                # The definition wins over any earlier forward decl.
                self.table[qualified] = decl
            if isinstance(decl, ast.Enum):
                for member in decl.members:
                    self.table.setdefault(scope + (member,), decl)

    def lookup(
        self, parts: tuple[str, ...], scope: _Scope
    ) -> tuple[_Scope, ast.Declaration] | None:
        """Resolve ``parts`` seen from ``scope``, innermost first."""
        for depth in range(len(scope), -1, -1):
            qualified = scope[:depth] + parts
            node = self.table.get(qualified)
            if node is not None:
                return qualified, node
        return None

    def resolve_type(
        self, expr: ast.TypeExpr, scope: _Scope
    ) -> object:
        """Chase typedef links to the underlying type expression.

        Returns the final :class:`ast.TypeExpr`, or the declaration
        node for references to interfaces/structs/enums/…, or ``None``
        when the chain cannot be resolved.
        """
        seen: set[_Scope] = set()
        while isinstance(expr, ast.NamedType):
            hit = self.lookup(expr.parts, scope)
            if hit is None:
                return None
            qualified, node = hit
            if qualified in seen:
                return None  # typedef cycle; semantics will reject it
            seen.add(qualified)
            if isinstance(node, ast.Typedef) and not node.array_dims:
                expr = node.type
                scope = qualified[:-1]
                continue
            return node
        return expr


def _iter_decls(
    decls: list, scope: _Scope
) -> Iterator[tuple[_Scope, ast.Declaration]]:
    for decl in decls:
        yield scope, decl
        if isinstance(decl, (ast.Module, ast.Interface)):
            yield from _iter_decls(decl.body, scope + (decl.name,))


def _iter_types(
    spec: ast.Specification,
) -> Iterator[tuple[_Scope, ast.TypeExpr, int]]:
    """Every type-expression occurrence: (scope, expr, source line)."""

    def expand(
        expr: ast.TypeExpr, scope: _Scope, line: int
    ) -> Iterator[tuple[_Scope, ast.TypeExpr, int]]:
        if expr is None:
            return
        if isinstance(expr, ast.NamedType) and expr.line:
            line = expr.line
        yield scope, expr, line
        if isinstance(expr, (ast.SequenceType, ast.DSequenceType)):
            yield from expand(expr.element, scope, line)

    for scope, decl in _iter_decls(spec.body, ()):
        if isinstance(decl, ast.Typedef):
            yield from expand(decl.type, scope, decl.line)
        elif isinstance(decl, (ast.Struct, ast.ExceptionDecl)):
            for member in decl.members:
                yield from expand(
                    member.type, scope, member.line or decl.line
                )
        elif isinstance(decl, ast.UnionDecl):
            yield from expand(decl.discriminator, scope, decl.line)
            for case in decl.cases:
                yield from expand(
                    case.type, scope, case.line or decl.line
                )
        elif isinstance(decl, ast.Const):
            yield from expand(decl.type, scope, decl.line)
        elif isinstance(decl, ast.Attribute):
            yield from expand(decl.type, scope, decl.line)
        elif isinstance(decl, ast.Operation):
            yield from expand(decl.return_type, scope, decl.line)
            for param in decl.params:
                yield from expand(
                    param.type, scope, param.line or decl.line
                )
            for exc in decl.raises:
                yield from expand(exc, scope, decl.line)


def _is_void(expr: ast.TypeExpr) -> bool:
    return isinstance(expr, ast.BasicType) and expr.name == "void"


def _type_text(expr: ast.TypeExpr) -> str:
    if isinstance(expr, ast.BasicType):
        return expr.name
    if isinstance(expr, ast.NamedType):
        return expr.text
    if isinstance(expr, ast.StringType):
        return "string"
    if isinstance(expr, ast.SequenceType):
        return f"sequence<{_type_text(expr.element)}>"
    if isinstance(expr, ast.DSequenceType):
        return f"dsequence<{_type_text(expr.element)}>"
    return type(expr).__name__


# ---------------------------------------------------------------------------
# The individual checks
# ---------------------------------------------------------------------------


def _check_operations(
    spec: ast.Specification, symbols: _Symbols, path: str
) -> list[Diagnostic]:
    """PD101 (unbounded dsequence in signatures), PD103 (mixed
    distributed/plain outs), PD106 (undeclared raises), PD107
    (oneway constraints)."""
    out: list[Diagnostic] = []
    for scope, decl in _iter_decls(spec.body, ()):
        if not isinstance(decl, ast.Operation):
            continue
        op = decl

        def resolved(expr: ast.TypeExpr) -> object:
            return symbols.resolve_type(expr, scope)

        # --- PD101: unbounded dsequence anywhere in the signature.
        signature = [(op.return_type, "result", op.line)] + [
            (p.type, f"parameter '{p.name}'", p.line or op.line)
            for p in op.params
        ]
        for expr, role, line in signature:
            target = resolved(expr)
            if (
                isinstance(target, ast.DSequenceType)
                and target.bound is None
            ):
                element = _type_text(target.element)
                out.append(
                    diag(
                        "PD101",
                        path,
                        line,
                        f"operation '{op.name}' {role} is an "
                        f"unbounded dsequence",
                        f"declare a bound, e.g. "
                        f"dsequence<{element}, 1024>, so the "
                        f"run-time system can preallocate "
                        f"transfer buffers",
                    )
                )

        # --- PD103: mixed distributed / plain out parameters.
        outs = [
            p for p in op.params if p.direction in ("out", "inout")
        ]
        distributed = [
            p
            for p in outs
            if isinstance(resolved(p.type), ast.DSequenceType)
        ]
        if distributed and len(distributed) != len(outs):
            plain = next(
                p for p in outs if p not in distributed
            )
            out.append(
                diag(
                    "PD103",
                    path,
                    op.line,
                    f"operation '{op.name}' mixes distributed "
                    f"({distributed[0].name}) and non-distributed "
                    f"({plain.name}) out parameters",
                    "split the operation, or return the scalar "
                    "result instead of passing it as out",
                )
            )

        # --- PD106: raises must name declared exceptions.
        for exc in op.raises:
            hit = symbols.lookup(exc.parts, scope)
            if hit is None:
                out.append(
                    diag(
                        "PD106",
                        path,
                        exc.line or op.line,
                        f"operation '{op.name}' raises "
                        f"undeclared exception '{exc.text}'",
                        f"declare 'exception {exc.text} "
                        f"{{ ... }};' before the interface, or "
                        f"drop it from the raises clause",
                    )
                )
            elif not isinstance(hit[1], ast.ExceptionDecl):
                out.append(
                    diag(
                        "PD106",
                        path,
                        exc.line or op.line,
                        f"operation '{op.name}' raises "
                        f"'{exc.text}', which is not an "
                        f"exception",
                        "raises clauses may only name "
                        "'exception' declarations",
                    )
                )

        # --- PD107: oneway constraints.
        if op.oneway:
            problems = []
            if not _is_void(op.return_type):
                problems.append(
                    f"returns {_type_text(op.return_type)}"
                )
            for p in op.params:
                if p.direction in ("out", "inout"):
                    problems.append(
                        f"has {p.direction} parameter '{p.name}'"
                    )
            if op.raises:
                problems.append("declares a raises clause")
            if problems:
                out.append(
                    diag(
                        "PD107",
                        path,
                        op.line,
                        f"oneway operation '{op.name}' "
                        f"{'; '.join(problems)}",
                        "oneway requests carry no reply: make "
                        "the operation void with only in "
                        "parameters, or drop 'oneway'",
                    )
                )
    return out


def _check_dsequence_elements(
    spec: ast.Specification, symbols: _Symbols, path: str
) -> list[Diagnostic]:
    """PD102: every dsequence element must be fixed-width numeric."""
    out: list[Diagnostic] = []
    for scope, expr, line in _iter_types(spec):
        if not isinstance(expr, ast.DSequenceType):
            continue
        element = symbols.resolve_type(expr.element, scope)
        if (
            isinstance(element, ast.BasicType)
            and element.name in FIXED_WIDTH_NUMERICS
        ):
            continue
        if element is None:
            continue  # unresolved name: semantics reports it (PD100)
        shown = (
            _type_text(element)
            if isinstance(
                element,
                (
                    ast.BasicType,
                    ast.StringType,
                    ast.SequenceType,
                    ast.DSequenceType,
                ),
            )
            else f"{type(element).__name__.lower()} "
            f"'{element.name}'"
        )
        out.append(
            diag(
                "PD102",
                path,
                line,
                f"dsequence element type {shown} is not a "
                f"fixed-width numeric",
                "use one of: "
                + ", ".join(sorted(FIXED_WIDTH_NUMERICS))
                + " (the transfer engine scatters raw fixed-width "
                "buffers)",
            )
        )
    return out


def _flatten_members(
    qualified: _Scope,
    symbols: _Symbols,
    memo: dict[_Scope, dict[str, set[_Scope]]],
    visiting: set[_Scope],
) -> dict[str, set[_Scope]]:
    """op/attribute name -> set of declaring interfaces, transitively."""
    if qualified in memo:
        return memo[qualified]
    if qualified in visiting:
        return {}  # inheritance cycle; semantics rejects it
    visiting.add(qualified)
    node = symbols.table.get(qualified)
    members: dict[str, set[_Scope]] = {}
    if isinstance(node, ast.Interface):
        for decl in node.body:
            if isinstance(decl, (ast.Operation, ast.Attribute)):
                members.setdefault(decl.name, set()).add(qualified)
        for base in node.bases:
            hit = symbols.lookup(base.parts, qualified[:-1])
            if hit is None or not isinstance(hit[1], ast.Interface):
                continue
            for name, origins in _flatten_members(
                hit[0], symbols, memo, visiting
            ).items():
                members.setdefault(name, set()).update(origins)
    visiting.discard(qualified)
    memo[qualified] = members
    return members


def _check_inheritance(
    spec: ast.Specification, symbols: _Symbols, path: str
) -> list[Diagnostic]:
    """PD104: flattened operation/attribute name collisions.

    Diamond inheritance of the *same* declaring interface is fine;
    two *distinct* declaring interfaces contributing one name is not.
    """
    out: list[Diagnostic] = []
    memo: dict[_Scope, dict[str, set[_Scope]]] = {}
    for qualified, node in symbols.table.items():
        if not isinstance(node, ast.Interface) or not node.bases:
            continue
        flattened = _flatten_members(qualified, symbols, memo, set())
        for name, origins in sorted(flattened.items()):
            if len(origins) < 2:
                continue
            names = ", ".join(
                "::".join(origin) for origin in sorted(origins)
            )
            out.append(
                diag(
                    "PD104",
                    path,
                    node.line,
                    f"interface '{'::'.join(qualified)}' inherits "
                    f"colliding definitions of '{name}' "
                    f"(declared in {names})",
                    "rename one of the colliding members, or "
                    "introduce a shared base interface that "
                    "declares it once",
                )
            )
    return out


def _check_dead_typedefs(
    spec: ast.Specification,
    symbols: _Symbols,
    path: str,
    context_text: str,
) -> list[Diagnostic]:
    """PD105: typedefs never referenced from the unit (or from the
    surrounding python module, for embedded IDL)."""
    used: set[_Scope] = set()

    def note(parts: tuple[str, ...], scope: _Scope) -> None:
        hit = symbols.lookup(parts, scope)
        if hit is not None:
            used.add(hit[0])

    for scope, expr, _line in _iter_types(spec):
        if isinstance(expr, ast.NamedType):
            note(expr.parts, scope)
    # Constant expressions may reference enum members/consts, which
    # share the table; count those as uses too.
    for scope, decl in _iter_decls(spec.body, ()):
        if isinstance(decl, ast.Interface):
            for base in decl.bases:
                note(base.parts, scope)

    out: list[Diagnostic] = []
    for qualified, node in symbols.table.items():
        if not isinstance(node, ast.Typedef):
            continue
        if qualified in used:
            continue
        if context_text and node.name in context_text:
            continue  # referenced from the host python module
        out.append(
            diag(
                "PD105",
                path,
                node.line,
                f"typedef '{'::'.join(qualified)}' is never "
                f"referenced",
                "delete the typedef, or use it in an operation "
                "signature",
            )
        )
    return out


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def lint_idl_source(
    source: str,
    path: str = "<idl>",
    *,
    line_offset: int = 0,
    context_text: str = "",
) -> list[Diagnostic]:
    """Run every family-A rule over one IDL translation unit.

    ``line_offset`` shifts reported lines for IDL embedded in a
    python string literal; ``context_text`` is the surrounding
    python source, consulted before declaring a typedef dead.
    """
    suppressed = suppression_map(source)
    try:
        spec = parser.parse(source)
    except IdlSyntaxError as exc:
        syntax_error = diag(
            "PD100",
            path,
            exc.line or 1,
            f"IDL syntax error: {exc.args[0]}",
            "fix the syntax; no other checks ran",
        )
        return [syntax_error.shifted(line_offset)]

    symbols = _Symbols(spec)
    diagnostics: list[Diagnostic] = []
    diagnostics += _check_operations(spec, symbols, path)
    diagnostics += _check_dsequence_elements(spec, symbols, path)
    diagnostics += _check_inheritance(spec, symbols, path)
    diagnostics += _check_dead_typedefs(
        spec, symbols, path, context_text
    )

    # The full semantic pass catches what the AST walks above do not
    # (duplicate declarations, bad const expressions, …).  Skip it
    # when an error-level diagnostic already exists: analyze() would
    # just re-reject the same code with a less specific message.
    if not any(d.severity == "error" for d in diagnostics):
        try:
            semantics.analyze(spec)
        except IdlError as exc:
            diagnostics.append(
                diag(
                    "PD100",
                    path,
                    getattr(exc, "line", None) or 1,
                    f"IDL semantic error: {exc.args[0]}",
                )
            )

    diagnostics = [
        d
        for d in diagnostics
        if not is_suppressed(suppressed, d.line, d.rule)
    ]
    diagnostics.sort(key=sort_key)
    return [d.shifted(line_offset) for d in diagnostics]
