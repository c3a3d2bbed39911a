"""Family B: SPMD collective-correctness lints (rules PD200–PD213).

These analyse client/server *programs* with python's :mod:`ast`
module.  The paper's SPMD object model makes certain shapes of code
statically wrong: a collective request must be issued by every
computing thread (§2), and the transfer method negotiated at bind
time must exist on the server side (§3).  Futures (§4) add the usual
asynchrony lints: results that are never touched, and touches that
serialise what should overlap.

The rules read one model of the module: :func:`guarded_calls`, the
one rank-guard walk PD201 and PD208 filter, and :class:`ModuleIndex`,
the one pass the cross-reference rules (PD204, PD208, PD209, PD213)
read.  The interprocedural rules PD210–PD212 live in
:mod:`repro.lint.flow`.

Python modules may also embed IDL (see :mod:`repro.lint.embedded`);
every embedded literal is linted with family A and the diagnostics
are mapped back onto the host file's line numbers.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.core.spmd import TransferMethod
from repro.lint.diagnostics import Diagnostic, sort_key
from repro.lint.embedded import context_without_idl, find_embedded_idl
from repro.lint.flow import analyze_flow
from repro.lint.idl_rules import lint_idl_source
from repro.lint.rules import (
    AGREEMENT_CALLS,
    COLLECTIVE_CALLS,
    RANK_TOKENS,
    call_name,
    diag,
    keyword,
    mentions,
)
from repro.lint.suppress import is_suppressed, suppression_map

#: Names that mark a loop as iterating over the thread group.
RANK_ITER_TOKENS = frozenset(
    ("size", "nthreads", "nranks", "ranks")
)

#: Blocking consumption methods of a future (``wait`` is excluded:
#: ``threading.Event.wait`` would alias it).
TOUCH_METHODS = frozenset(("touch", "value", "result"))


def _string(node: ast.expr) -> str | None:
    """The value of a string constant, else ``None``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


# ---------------------------------------------------------------------------
# The module model: one index, one rank-guard walk
# ---------------------------------------------------------------------------


@dataclass
class ModuleIndex:
    """What the cross-reference rules know about one module."""

    #: Every call, in ``ast.walk`` order.
    calls: list[ast.Call] = field(default_factory=list)
    #: Object name (a string constant) -> its ``serve(...)`` calls.
    served: dict[str, list[ast.Call]] = field(default_factory=dict)
    #: Names bound to a ``_spmd_bind(...)`` result.
    proxies: set[str] = field(default_factory=set)
    #: Name -> the ``FtPolicy(...)`` calls bound to it.
    policies: dict[str, list[ast.Call]] = field(default_factory=dict)


def index_module(tree: ast.Module) -> ModuleIndex:
    """Record :class:`ModuleIndex` in one pass over ``tree``."""
    index = ModuleIndex()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            index.calls.append(node)
            served = _string(node.args[0]) if node.args else None
            if call_name(node) == "serve" and served is not None:
                index.served.setdefault(served, []).append(node)
        elif isinstance(node, ast.Assign) and isinstance(
            node.value, ast.Call
        ):
            bound = call_name(node.value)
            for target in node.targets:
                if not isinstance(target, ast.Name):
                    continue
                if bound == "_spmd_bind":
                    index.proxies.add(target.id)
                elif bound == "FtPolicy":
                    index.policies.setdefault(target.id, []).append(
                        node.value
                    )
    return index


def _calls_agreement(scope: ast.AST) -> bool:
    return any(
        isinstance(node, ast.Call)
        and call_name(node) in AGREEMENT_CALLS
        for node in ast.walk(scope)
    )


def guarded_calls(
    tree: ast.Module,
) -> Iterator[tuple[ast.Call, int, bool]]:
    """Every call control-dependent on a rank test, as ``(call,
    guard line, agreed)``.

    A guard is an ``if``/``while`` whose test mentions a rank name;
    the line is the innermost guard's, and ``agreed`` says whether the
    enclosing function (or the module) calls an agreement entry point
    anywhere.  Guards reset at ``def``/``lambda``: a nested body runs
    in whatever context *calls* it, so the lexical guard does not
    imply divergent execution.  Tests themselves are not walked.
    """

    def walk(node: ast.AST, guard: int | None, agreed: bool):
        if isinstance(node, (ast.If, ast.While)):
            if mentions(node.test, RANK_TOKENS):
                guard = node.test.lineno
            children = node.body + node.orelse
        else:
            if isinstance(
                node,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda),
            ):
                guard, agreed = None, _calls_agreement(node)
            elif isinstance(node, ast.Call) and guard is not None:
                yield node, guard, agreed
            children = ast.iter_child_nodes(node)
        for child in children:
            yield from walk(child, guard, agreed)

    return walk(tree, None, _calls_agreement(tree))


# ---------------------------------------------------------------------------
# PD201/PD208: collectives and proxy invocations under a rank guard
# ---------------------------------------------------------------------------


def _check_rank_guards(
    tree: ast.Module, index: ModuleIndex, path: str
) -> list[Diagnostic]:
    """PD201 keeps the collective entry points; PD208 keeps calls on
    a ``_spmd_bind`` proxy in a scope with no agreement call (the
    sanctioned idiom: rank 0 probes a possibly-dead object inside the
    guard, then every rank votes with ``agree``/``agree_failure``)."""
    out: list[Diagnostic] = []
    for call, guard, agreed in guarded_calls(tree):
        name = call_name(call)
        if name in COLLECTIVE_CALLS:
            out.append(
                diag(
                    "PD201",
                    path,
                    call.lineno,
                    f"collective '{name}' is guarded by a rank test "
                    f"(line {guard}): threads that fail the test never "
                    f"join, and every thread deadlocks",
                    "hoist the collective out of the rank guard "
                    "so all computing threads issue it",
                )
            )
        func = call.func
        if (
            not agreed
            and isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in index.proxies
        ):
            out.append(
                diag(
                    "PD208",
                    path,
                    call.lineno,
                    f"invocation '{func.value.id}.{func.attr}' on a "
                    f"collectively-bound proxy is guarded by a rank "
                    f"test (line {guard}) with no failure agreement: "
                    f"the guarded ranks and the rest diverge in the "
                    f"collective sequence",
                    "issue the invocation from every thread, or "
                    "reconcile the branch with "
                    "repro.ft.agreement.agree/agree_failure so "
                    "all ranks converge on one outcome",
                )
            )
    return out


# ---------------------------------------------------------------------------
# PD202: futures that are never consumed
# ---------------------------------------------------------------------------


def _is_nb_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and call_name(node).endswith("_nb")
        and call_name(node) != "_nb"
    )


def _own_statements(scope: ast.AST):
    """Statements belonging to ``scope`` itself, not to functions
    nested inside it."""
    stack = list(getattr(scope, "body", []))
    while stack:
        node = stack.pop(0)
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        for field_name in ("body", "orelse", "finalbody", "handlers"):
            for child in getattr(node, field_name, []):
                if isinstance(child, ast.ExceptHandler):
                    stack.extend(child.body)
                else:
                    stack.append(child)


def _check_futures(
    tree: ast.Module, path: str
) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    scopes = [tree] + [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    for scope in scopes:
        loads = {
            node.id
            for node in ast.walk(scope)
            if isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)
        }
        for stmt in _own_statements(scope):
            if isinstance(stmt, ast.Expr) and _is_nb_call(
                stmt.value
            ):
                name = call_name(stmt.value)
                out.append(
                    diag(
                        "PD202",
                        path,
                        stmt.lineno,
                        f"future returned by '{name}' is "
                        f"discarded",
                        "assign the future and touch() it, or "
                        "call the blocking variant",
                    )
                )
            elif (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and _is_nb_call(stmt.value)
                and stmt.targets[0].id not in loads
            ):
                out.append(
                    diag(
                        "PD202",
                        path,
                        stmt.lineno,
                        f"future '{stmt.targets[0].id}' from "
                        f"'{call_name(stmt.value)}' is never "
                        f"consumed",
                        "touch() the future (or pass it on) so "
                        "completion and errors are observed",
                    )
                )
    return out


# ---------------------------------------------------------------------------
# PD203: blocking touch inside a loop over ranks
# ---------------------------------------------------------------------------


def _check_touch_loops(
    tree: ast.Module, path: str
) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.For, ast.AsyncFor)):
            continue
        if not mentions(node.iter, RANK_ITER_TOKENS):
            continue
        for inner in node.body:
            for call in ast.walk(inner):
                if (
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr in TOUCH_METHODS
                ):
                    out.append(
                        diag(
                            "PD203",
                            path,
                            call.lineno,
                            f"blocking '{call.func.attr}()' "
                            f"inside a loop over ranks "
                            f"serialises the requests",
                            "issue every request first, "
                            "collect the futures, then touch "
                            "them in a second loop",
                        )
                    )
    return out


# ---------------------------------------------------------------------------
# PD204/PD205: transfer-method checks
# ---------------------------------------------------------------------------


def _served_where(
    index: ModuleIndex, option: str, matches
) -> dict[str, int]:
    """Object name -> line of its last ``serve(...)`` whose
    ``option=`` value satisfies ``matches`` (``None`` when absent)."""
    found: dict[str, int] = {}
    for name, serves in index.served.items():
        for node in serves:
            if matches(keyword(node, option)):
                found[name] = node.lineno
    return found


def _check_transfer(
    index: ModuleIndex, path: str
) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    centralized_only = _served_where(
        index,
        "multiport",
        lambda v: isinstance(v, ast.Constant) and v.value is False,
    )
    for node in index.calls:
        transfer = keyword(node, "transfer")
        method = None if transfer is None else _string(transfer)
        if method is None:
            continue  # dynamic value: nothing to check statically
        if method not in TransferMethod.values():
            known = ", ".join(sorted(TransferMethod.values()))
            out.append(
                diag(
                    "PD205",
                    path,
                    transfer.lineno,
                    f"unknown transfer method '{method}'",
                    f"valid transfer methods: {known}",
                )
            )
            continue
        if call_name(node) != "_spmd_bind" or not node.args:
            continue
        bound = _string(node.args[0])
        if method == "multiport" and bound in centralized_only:
            out.append(
                diag(
                    "PD204",
                    path,
                    node.lineno,
                    f"'{bound}' is served with multiport=False (line "
                    f"{centralized_only[bound]}) but bound with "
                    f"transfer='multiport'",
                    "serve with multiport=True, or bind with "
                    "transfer='centralized'",
                )
            )
    return out


# ---------------------------------------------------------------------------
# PD209: retries against a server without a reply cache
# ---------------------------------------------------------------------------


def _retry_policy(node: ast.expr) -> bool:
    """Is ``node`` an ``FtPolicy(...)`` call that provably enables
    retries (``max_retries`` a constant > 0)?"""
    if not (
        isinstance(node, ast.Call)
        and call_name(node) == "FtPolicy"
    ):
        return False
    retries = keyword(node, "max_retries")
    return (
        isinstance(retries, ast.Constant)
        and isinstance(retries.value, int)
        and not isinstance(retries.value, bool)
        and retries.value > 0
    )


def _check_retry_cache(
    index: ModuleIndex, path: str
) -> list[Diagnostic]:
    # A non-constant reply_cache_bytes is assumed to enable the
    # cache: only a provably absent/zero cache is worth reporting.
    uncached = _served_where(
        index,
        "reply_cache_bytes",
        lambda v: v is None
        or (
            isinstance(v, ast.Constant)
            and isinstance(v.value, int)
            and v.value <= 0
        ),
    )
    out: list[Diagnostic] = []
    for node in index.calls:
        if call_name(node) not in ("_bind", "_spmd_bind"):
            continue
        bound = _string(node.args[0]) if node.args else None
        policy = keyword(node, "ft_policy")
        if bound not in uncached or policy is None:
            continue
        policies = (
            index.policies.get(policy.id, ())
            if isinstance(policy, ast.Name)
            else (policy,)
        )
        if any(map(_retry_policy, policies)):
            out.append(
                diag(
                    "PD209",
                    path,
                    node.lineno,
                    f"'{bound}' is bound with a retrying FtPolicy but "
                    f"served without a reply cache (line "
                    f"{uncached[bound]}): a retry after a lost reply "
                    f"re-executes the request on the servant",
                    "serve with reply_cache_bytes > 0 so "
                    "duplicate requests are answered from the "
                    "cache, or set max_retries=0 for "
                    "non-idempotent interfaces",
                )
            )
    return out


# ---------------------------------------------------------------------------
# PD213: group bind without any policy (failover may never engage)
# ---------------------------------------------------------------------------


def _check_group_bind(
    index: ModuleIndex, path: str
) -> list[Diagnostic]:
    """Group bindings with no ``ft_policy=``.  Any policy engages
    failover, and so may one set on the ORB or client runtime, which
    the linter cannot see — so only the bare bind is reported."""
    out: list[Diagnostic] = []
    for node in index.calls:
        if call_name(node) != "_group_bind" or not node.args:
            continue
        if keyword(node, "ft_policy") is not None:
            continue
        bound = node.args[0]
        name = (
            repr(bound.value)
            if isinstance(bound, ast.Constant)
            else "the group"
        )
        out.append(
            diag(
                "PD213",
                path,
                node.lineno,
                f"{name} is a replicated-group binding without an "
                f"ft_policy: unless the ORB or client runtime "
                f"carries one, failover never engages and the first "
                f"dead replica fails the client despite the standbys",
                "bind with ft_policy=FtPolicy(...) — any policy — so "
                "a failure the policy gives up on can fail over to a "
                "sibling replica (the sibling runs the call afresh: "
                "keep replicas stateless)",
            )
        )
    return out


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def lint_python_source(
    source: str, path: str = "<python>"
) -> list[Diagnostic]:
    """Run every family-B rule (plus family A on embedded IDL)."""
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [
            diag(
                "PD200",
                path,
                exc.lineno or 1,
                f"python syntax error: {exc.msg}",
                "fix the syntax; no other checks ran",
            )
        ]

    index = index_module(tree)
    diagnostics = _check_rank_guards(tree, index, path)
    diagnostics += _check_futures(tree, path)
    diagnostics += _check_touch_loops(tree, path)
    diagnostics += _check_transfer(index, path)
    diagnostics += _check_retry_cache(index, path)
    diagnostics += _check_group_bind(index, path)
    diagnostics += analyze_flow(tree, path)

    literals = find_embedded_idl(tree)
    if literals:
        context = context_without_idl(source, literals)
        for literal in literals:
            diagnostics += lint_idl_source(
                literal.text,
                path,
                line_offset=literal.line_offset,
                context_text=context,
            )

    suppressed = suppression_map(source)
    diagnostics = [
        d
        for d in diagnostics
        if not is_suppressed(suppressed, d.line, d.rule)
    ]
    diagnostics.sort(key=sort_key)
    return diagnostics
