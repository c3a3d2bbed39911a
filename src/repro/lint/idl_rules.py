"""Family A: lints over PARDIS IDL (rules PD100–PD107).

One analyzer decides.  :func:`repro.idl.semantics.analyze` resolves
every name and raises the unit's first error, tagged with its rule:
PD102, PD104, PD106 and PD107 for the PARDIS and CORBA rules they
name, PD100 for any other IDL error.  An invalid unit therefore gets
exactly one diagnostic, as a syntax error does.  A valid unit gets
the three warnings, read off the resolved unit: PD101, PD103, PD105.
"""

from __future__ import annotations

from repro.cdr.typecodes import DSequenceTC
from repro.idl import parser, semantics
from repro.idl.errors import IdlSemanticError, IdlSyntaxError
from repro.lint.diagnostics import Diagnostic, sort_key
from repro.lint.rules import diag
from repro.lint.suppress import is_suppressed, suppression_map


def _check_operations(
    unit: semantics.CompilationUnit, path: str
) -> list[Diagnostic]:
    """PD101 (unbounded dsequence in signatures) and PD103 (mixed
    distributed/plain outs)."""
    out: list[Diagnostic] = []
    for interface in unit.interfaces():
        for name, (line, *param_lines) in interface.lines.items():
            op = interface.all_operations[name]
            signature = [(op.return_tc, "result", line)] + [
                (p.typecode, f"parameter '{p.name}'", param_line)
                for p, param_line in zip(op.params, param_lines)
            ]
            for typecode, role, where in signature:
                if (
                    isinstance(typecode, DSequenceTC)
                    and typecode.bound is None
                ):
                    out.append(
                        diag(
                            "PD101",
                            path,
                            where,
                            f"operation '{name}' {role} is an "
                            f"unbounded dsequence",
                            f"declare a bound, e.g. "
                            f"dsequence<{typecode.element.kind}, 1024>, "
                            f"so the run-time system can preallocate "
                            f"transfer buffers",
                        )
                    )

            outs = op.returned_params
            distributed = [
                p for p in outs if isinstance(p.typecode, DSequenceTC)
            ]
            if distributed and len(distributed) != len(outs):
                plain = next(p for p in outs if p not in distributed)
                out.append(
                    diag(
                        "PD103",
                        path,
                        line,
                        f"operation '{name}' mixes distributed "
                        f"({distributed[0].name}) and non-distributed "
                        f"({plain.name}) out parameters",
                        "split the operation, or return the scalar "
                        "result instead of passing it as out",
                    )
                )
    return out


def _check_dead_typedefs(
    unit: semantics.CompilationUnit, path: str, context_text: str
) -> list[Diagnostic]:
    """PD105: typedefs no type reference resolved to (nor the
    surrounding python module names, for embedded IDL)."""
    return [
        diag(
            "PD105",
            path,
            entity.line,
            f"typedef '{entity.qualified_text}' is never referenced",
            "delete the typedef, or use it in an operation signature",
        )
        for entity in unit.walk()
        if isinstance(entity, semantics.TypedefEntity)
        and not entity.referenced
        and not (context_text and entity.name in context_text)
    ]


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
        unit = semantics.analyze(parser.parse(source))
    except IdlSyntaxError as exc:
        syntax_error = diag(
            "PD100",
            path,
            exc.line or 1,
            f"IDL syntax error: {exc.args[0]}",
            "fix the syntax; no other checks ran",
        )
        return [syntax_error.shifted(line_offset)]
    except IdlSemanticError as exc:
        message = exc.message
        if exc.rule == "PD100":
            message = f"IDL semantic error: {exc.args[0]}"
        diagnostics = [
            diag(exc.rule, path, exc.line or 1, message, exc.hint)
        ]
    else:
        diagnostics = _check_operations(unit, path)
        diagnostics += _check_dead_typedefs(unit, path, context_text)

    diagnostics = [
        d
        for d in diagnostics
        if not is_suppressed(suppressed, d.line, d.rule)
    ]
    diagnostics.sort(key=sort_key)
    return [d.shifted(line_offset) for d in diagnostics]
