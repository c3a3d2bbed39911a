"""Per-function control-flow graphs over python AST.

The collective-flow analysis (:mod:`repro.lint.flow`) needs to reason
about the *paths* a function can take — which collectives run on the
guarded arm of a rank test, which ones an early return skips — so the
raw statement list is lowered into a structured CFG first: a region
tree in which every node is one control construct and sequencing is
explicit.  Python's compiled control flow is reducible, so the region
form is a faithful CFG — each region has one entry, the exits are the
``ExitRegion`` leaves, and a branch's two sub-regions rejoin at the
next region in the enclosing sequence.

The builder is deliberately syntactic: it does not evaluate anything,
it only records where control can go and which expressions decide it.
Constructs without a faithful structured lowering (``match``) become
:class:`OpaqueRegion`, which the analysis treats as "anything may
happen here" — the conservative reading that keeps the analyzer
free of false positives.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field


@dataclass
class Region:
    """Base class: one single-entry piece of control flow."""

    line: int


@dataclass
class StmtRegion(Region):
    """A simple (non-control) statement, or one ``with`` item:
    effects happen here."""

    stmt: ast.stmt | ast.withitem = None  # type: ignore[assignment]


@dataclass
class SeqRegion(Region):
    """Straight-line sequencing of sub-regions."""

    parts: list[Region] = field(default_factory=list)


@dataclass
class BranchRegion(Region):
    """``if``: two alternative sub-regions that rejoin afterwards."""

    test: ast.expr = None  # type: ignore[assignment]
    true: SeqRegion = None  # type: ignore[assignment]
    false: SeqRegion = None  # type: ignore[assignment]


@dataclass
class LoopRegion(Region):
    """``while``/``for``: a body executed zero or more times.

    ``control`` is the expression deciding iteration (the while test
    or the for iterable); ``is_for`` distinguishes trip-count loops.
    """

    control: ast.expr | None = None
    body: SeqRegion = None  # type: ignore[assignment]
    orelse: SeqRegion = None  # type: ignore[assignment]
    is_for: bool = False


@dataclass
class TryRegion(Region):
    """``try``: a normal path plus rank-local exception paths."""

    body: SeqRegion = None  # type: ignore[assignment]
    handlers: list[SeqRegion] = field(default_factory=list)
    orelse: SeqRegion = None  # type: ignore[assignment]
    final: SeqRegion = None  # type: ignore[assignment]


@dataclass
class ExitRegion(Region):
    """Control leaves the enclosing construct here.

    ``kind`` is ``return``/``raise`` (leaves the function) or
    ``break``/``continue`` (leaves/restarts the enclosing loop).
    ``stmt`` is kept so the raised/returned expression can still be
    inspected for effects.
    """

    kind: str = "return"
    stmt: ast.stmt | None = None


@dataclass
class OpaqueRegion(Region):
    """Control flow the builder does not model (``match``)."""

    stmt: ast.stmt = None  # type: ignore[assignment]


def _seq(stmts: list[ast.stmt], line: int) -> SeqRegion:
    parts: list[Region] = []
    for stmt in stmts:
        region = _lower(stmt)
        if region is not None:
            parts.append(region)
    return SeqRegion(line=line, parts=parts)


def _lower(stmt: ast.stmt) -> Region | None:
    if isinstance(stmt, ast.If):
        return BranchRegion(
            line=stmt.lineno,
            test=stmt.test,
            true=_seq(stmt.body, stmt.lineno),
            false=_seq(stmt.orelse, stmt.lineno),
        )
    if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
        control = (
            stmt.test if isinstance(stmt, ast.While) else stmt.iter
        )
        return LoopRegion(
            line=stmt.lineno,
            control=control,
            body=_seq(stmt.body, stmt.lineno),
            orelse=_seq(stmt.orelse, stmt.lineno),
            is_for=not isinstance(stmt, ast.While),
        )
    if isinstance(stmt, ast.Try):
        return TryRegion(
            line=stmt.lineno,
            body=_seq(stmt.body, stmt.lineno),
            handlers=[
                _seq(handler.body, handler.lineno)
                for handler in stmt.handlers
            ],
            orelse=_seq(stmt.orelse, stmt.lineno),
            final=_seq(stmt.finalbody, stmt.lineno),
        )
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        # The context expressions run, then the body: model as one
        # region per item followed by the body's own regions.
        header = [
            StmtRegion(line=item.context_expr.lineno, stmt=item)
            for item in stmt.items
        ]
        inner = _seq(stmt.body, stmt.lineno)
        return SeqRegion(line=stmt.lineno, parts=header + inner.parts)
    if isinstance(stmt, ast.Return):
        return ExitRegion(line=stmt.lineno, kind="return", stmt=stmt)
    if isinstance(stmt, ast.Raise):
        return ExitRegion(line=stmt.lineno, kind="raise", stmt=stmt)
    if isinstance(stmt, ast.Break):
        return ExitRegion(line=stmt.lineno, kind="break", stmt=stmt)
    if isinstance(stmt, ast.Continue):
        return ExitRegion(
            line=stmt.lineno, kind="continue", stmt=stmt
        )
    if isinstance(
        stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    ):
        # Defining a function/class executes no body statements; the
        # nested body is analyzed as its own CFG by the caller.
        return None
    if isinstance(stmt, getattr(ast, "Match", ())):
        return OpaqueRegion(line=stmt.lineno, stmt=stmt)
    return StmtRegion(line=stmt.lineno, stmt=stmt)


def build_cfg(
    node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Module,
) -> SeqRegion:
    """Lower a function (or module) body into its region CFG."""
    line = getattr(node, "lineno", 1)
    return _seq(node.body, line)
