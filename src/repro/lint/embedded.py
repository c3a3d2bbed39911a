"""Finding IDL embedded in python modules.

The repo keeps its interface definitions in python string literals
handed to :func:`repro.idl.compiler.compile_idl` and friends rather
than in ``.idl`` files, so family-A lints must find those literals.
A string is treated as IDL only when it flows into one of the known
compiler entry points — either directly as an argument or via a
module-level name — which keeps docstrings that merely mention
``interface`` out of the lint.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.lint.rules import call_name

#: Call targets whose first argument is IDL source text.
IDL_SINKS = frozenset(
    (
        "compile_idl",
        "compile_idl_module",
        "analyze_idl",
        "generate_python",
        "lint_idl_source",
    )
)


@dataclass(frozen=True)
class EmbeddedIdl:
    """One IDL literal found in a python module."""

    text: str
    lineno: int  # line the string literal starts on (1-based)

    @property
    def line_offset(self) -> int:
        """Shift mapping IDL line 1 onto the literal's first line."""
        return self.lineno - 1


def find_embedded_idl(tree: ast.Module) -> list[EmbeddedIdl]:
    """Every IDL literal in ``tree``, in source order."""
    # Pass 1: string constants bound to simple names.
    assigned: dict[str, ast.Constant] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        if not (
            isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                assigned[target.id] = node.value

    # Pass 2: arguments reaching an IDL compiler entry point.
    found: dict[int, EmbeddedIdl] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        if call_name(node) not in IDL_SINKS:
            continue
        arg = node.args[0]
        constant: ast.Constant | None = None
        if isinstance(arg, ast.Constant) and isinstance(
            arg.value, str
        ):
            constant = arg
        elif isinstance(arg, ast.Name):
            constant = assigned.get(arg.id)
        if constant is None:
            continue
        found.setdefault(
            constant.lineno,
            EmbeddedIdl(text=constant.value, lineno=constant.lineno),
        )
    return [found[line] for line in sorted(found)]


def context_without_idl(
    source: str, literals: list[EmbeddedIdl]
) -> str:
    """The python source with the IDL text cut out — what the
    dead-typedef check greps for host-side uses of a typedef name."""
    for literal in literals:
        source = source.replace(literal.text, "")
    return source
