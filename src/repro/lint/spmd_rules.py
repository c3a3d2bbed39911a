"""Family B: SPMD collective-correctness lints (rules PD200–PD208).

These analyse client/server *programs* with python's :mod:`ast`
module.  The paper's SPMD object model makes certain shapes of code
statically wrong: a collective request must be issued by every
computing thread (§2), and the transfer method negotiated at bind
time must exist on the server side (§3).  Futures (§4) add the usual
asynchrony lints: results that are never touched, and touches that
serialise what should overlap.

Python modules may also embed IDL (see :mod:`repro.lint.embedded`);
every embedded literal is linted with family A and the diagnostics
are mapped back onto the host file's line numbers.
"""

from __future__ import annotations

import ast

from repro.core.spmd import TransferMethod
from repro.lint.diagnostics import Diagnostic, sort_key
from repro.lint.embedded import (
    context_without_idl,
    find_embedded_idl,
)
from repro.lint.idl_rules import lint_idl_source
from repro.lint.rules import RULES
from repro.lint.suppress import is_suppressed, suppression_map

#: Collective entry points: every computing thread must reach these.
#: Low-level primitives (bcast/barrier/send/recv) are deliberately
#: excluded — run-time-system internals legitimately branch on rank
#: around them.
COLLECTIVE_CALLS = frozenset(
    ("_spmd_bind", "invoke_all", "redistribute", "synchronize")
)

#: Names that (almost always) hold a computing-thread rank.
RANK_TOKENS = frozenset(("rank", "my_rank", "thread_rank"))

#: Names that mark a loop as iterating over the thread group.
RANK_ITER_TOKENS = frozenset(
    ("size", "nthreads", "nranks", "ranks")
)

#: Blocking consumption methods of a future (``wait`` is excluded:
#: ``threading.Event.wait`` would alias it).
TOUCH_METHODS = frozenset(("touch", "value", "result"))

#: The collective failure-agreement entry points
#: (:mod:`repro.ft.agreement`).  Their presence inside a rank-guarded
#: region marks the divergence as deliberate and reconciled.
AGREEMENT_CALLS = frozenset(
    ("agree", "agree_failure", "agree_outcome")
)


def _diag(
    rule_id: str, path: str, line: int, message: str, hint: str = ""
) -> Diagnostic:
    rule = RULES[rule_id]
    return Diagnostic(
        rule=rule.id,
        name=rule.name,
        severity=rule.severity,
        file=path,
        line=line,
        message=message,
        hint=hint,
    )


def _call_name(node: ast.Call) -> str:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _mentions(tree: ast.AST, tokens: frozenset[str]) -> bool:
    """Does any Name/Attribute in ``tree`` spell one of ``tokens``?"""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in tokens:
            return True
        if isinstance(node, ast.Attribute) and node.attr in tokens:
            return True
    return False


# ---------------------------------------------------------------------------
# PD201: collective invocations under a rank guard
# ---------------------------------------------------------------------------


class _RankGuardVisitor(ast.NodeVisitor):
    """Find collective calls control-dependent on a rank test.

    A guard stack tracks enclosing ``if``/``while`` tests that
    mention a rank name.  The stack resets at function boundaries:
    a nested function body runs in whatever context *calls* it, so
    the lexical guard does not imply divergent execution.
    """

    def __init__(self, path: str):
        self.path = path
        self.out: list[Diagnostic] = []
        self._guards: list[int] = []  # lines of active rank guards

    def _visit_guarded(self, node: ast.If | ast.While) -> None:
        guarded = _mentions(node.test, RANK_TOKENS)
        if guarded:
            self._guards.append(node.test.lineno)
        for child in node.body + node.orelse:
            self.visit(child)
        if guarded:
            self._guards.pop()

    visit_If = _visit_guarded
    visit_While = _visit_guarded

    def _visit_function(self, node: ast.AST) -> None:
        saved, self._guards = self._guards, []
        self.generic_visit(node)
        self._guards = saved

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function
    visit_Lambda = _visit_function

    def visit_Call(self, node: ast.Call) -> None:
        name = _call_name(node)
        if name in COLLECTIVE_CALLS and self._guards:
            self.out.append(
                _diag(
                    "PD201",
                    self.path,
                    node.lineno,
                    f"collective '{name}' is guarded by a rank "
                    f"test (line {self._guards[-1]}): threads "
                    f"that fail the test never join, and every "
                    f"thread deadlocks",
                    "hoist the collective out of the rank guard "
                    "so all computing threads issue it",
                )
            )
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# PD208: guarded proxy invocations without failure agreement
# ---------------------------------------------------------------------------


def _spmd_proxy_names(tree: ast.Module) -> set[str]:
    """Variable names assigned from a ``_spmd_bind(...)`` call."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and _call_name(node.value) == "_spmd_bind"
        ):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


def _has_agreement(scope: ast.AST) -> bool:
    return any(
        isinstance(node, ast.Call)
        and _call_name(node) in AGREEMENT_CALLS
        for node in ast.walk(scope)
    )


class _UnagreedInvocationVisitor(ast.NodeVisitor):
    """Find proxy invocations under a rank guard with no agreement.

    PD201 catches the bind-level collective entry points; this rule
    covers *invocations* on a proxy that was collectively bound.
    Every method call on such a proxy is a collective request, so a
    rank-guarded call diverges the group — unless the enclosing
    function reconciles via the :mod:`repro.ft.agreement` API, in
    which case the divergence is deliberate (the sanctioned idiom:
    rank 0 probes a possibly-dead object inside the guard, then every
    rank votes with ``agree``/``agree_failure`` after it).
    """

    def __init__(self, path: str, proxies: set[str]):
        self.path = path
        self.proxies = proxies
        self.out: list[Diagnostic] = []
        self._guards: list[int] = []  # lines of active rank guards
        #: Does the current function (or module) scope contain an
        #: agreement call anywhere?
        self._agreed: list[bool] = []

    def visit_Module(self, node: ast.Module) -> None:
        self._agreed.append(_has_agreement(node))
        self.generic_visit(node)
        self._agreed.pop()

    def _visit_guarded(self, node: ast.If | ast.While) -> None:
        guarded = _mentions(node.test, RANK_TOKENS)
        if guarded:
            self._guards.append(node.test.lineno)
        for child in node.body + node.orelse:
            self.visit(child)
        if guarded:
            self._guards.pop()

    visit_If = _visit_guarded
    visit_While = _visit_guarded

    def _visit_function(self, node: ast.AST) -> None:
        saved, self._guards = self._guards, []
        self._agreed.append(_has_agreement(node))
        self.generic_visit(node)
        self._agreed.pop()
        self._guards = saved

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function
    visit_Lambda = _visit_function

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in self.proxies
            and self._guards
            and not (self._agreed and self._agreed[-1])
        ):
            self.out.append(
                _diag(
                    "PD208",
                    self.path,
                    node.lineno,
                    f"invocation '{func.value.id}.{func.attr}' on "
                    f"a collectively-bound proxy is guarded by a "
                    f"rank test (line {self._guards[-1]}) with "
                    f"no failure agreement: the guarded ranks and "
                    f"the rest diverge in the collective sequence",
                    "issue the invocation from every thread, or "
                    "reconcile the branch with "
                    "repro.ft.agreement.agree/agree_failure so "
                    "all ranks converge on one outcome",
                )
            )
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# PD202: futures that are never consumed
# ---------------------------------------------------------------------------


def _is_nb_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and _call_name(node).endswith("_nb")
        and _call_name(node) != "_nb"
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
        for field in ("body", "orelse", "finalbody", "handlers"):
            for child in getattr(node, field, []):
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
                name = _call_name(stmt.value)
                out.append(
                    _diag(
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
                    _diag(
                        "PD202",
                        path,
                        stmt.lineno,
                        f"future '{stmt.targets[0].id}' from "
                        f"'{_call_name(stmt.value)}' is never "
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
        if not _mentions(node.iter, RANK_ITER_TOKENS):
            continue
        for inner in node.body:
            for call in ast.walk(inner):
                if (
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr in TOUCH_METHODS
                ):
                    out.append(
                        _diag(
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


def _keyword(node: ast.Call, name: str) -> ast.expr | None:
    for kw in node.keywords:
        if kw.arg == name:
            return kw.value
    return None


def _check_transfer(
    tree: ast.Module, path: str
) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    # Pass 1: servant registrations that opt out of multiport.
    centralized_only: dict[str, int] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if _call_name(node) != "serve" or not node.args:
            continue
        target = node.args[0]
        if not (
            isinstance(target, ast.Constant)
            and isinstance(target.value, str)
        ):
            continue
        multiport = _keyword(node, "multiport")
        if (
            isinstance(multiport, ast.Constant)
            and multiport.value is False
        ):
            centralized_only[target.value] = node.lineno

    # Pass 2: bind sites.
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        transfer = _keyword(node, "transfer")
        if transfer is None:
            continue
        if not (
            isinstance(transfer, ast.Constant)
            and isinstance(transfer.value, str)
        ):
            continue  # dynamic value: nothing to check statically
        if transfer.value not in TransferMethod.values():
            known = ", ".join(sorted(TransferMethod.values()))
            out.append(
                _diag(
                    "PD205",
                    path,
                    transfer.lineno,
                    f"unknown transfer method "
                    f"'{transfer.value}'",
                    f"valid transfer methods: {known}",
                )
            )
            continue
        if _call_name(node) != "_spmd_bind" or not node.args:
            continue
        bound = node.args[0]
        if not (
            isinstance(bound, ast.Constant)
            and isinstance(bound.value, str)
        ):
            continue
        if (
            transfer.value == "multiport"
            and bound.value in centralized_only
        ):
            out.append(
                _diag(
                    "PD204",
                    path,
                    node.lineno,
                    f"'{bound.value}' is served with "
                    f"multiport=False (line "
                    f"{centralized_only[bound.value]}) but "
                    f"bound with transfer='multiport'",
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
        and _call_name(node) == "FtPolicy"
    ):
        return False
    retries = _keyword(node, "max_retries")
    return (
        isinstance(retries, ast.Constant)
        and isinstance(retries.value, int)
        and not isinstance(retries.value, bool)
        and retries.value > 0
    )


def _check_retry_cache(
    tree: ast.Module, path: str
) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    # Pass 1: served objects, and whether each has a reply cache.
    # A non-constant reply_cache_bytes is assumed to enable the
    # cache: only a provably absent/zero cache is worth reporting.
    uncached: dict[str, int] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if _call_name(node) != "serve" or not node.args:
            continue
        target = node.args[0]
        if not (
            isinstance(target, ast.Constant)
            and isinstance(target.value, str)
        ):
            continue
        cache = _keyword(node, "reply_cache_bytes")
        if cache is None or (
            isinstance(cache, ast.Constant)
            and isinstance(cache.value, int)
            and cache.value <= 0
        ):
            uncached[target.value] = node.lineno

    if not uncached:
        return out

    # Pass 2: names bound to retrying FtPolicy instances.
    retry_names: set[str] = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and _retry_policy(node.value)
        ):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    retry_names.add(target.id)

    # Pass 3: bind sites pairing a retry policy with an uncached
    # server.
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if _call_name(node) not in ("_bind", "_spmd_bind"):
            continue
        if not node.args:
            continue
        bound = node.args[0]
        if not (
            isinstance(bound, ast.Constant)
            and isinstance(bound.value, str)
            and bound.value in uncached
        ):
            continue
        policy = _keyword(node, "ft_policy")
        if policy is None:
            continue
        retrying = _retry_policy(policy) or (
            isinstance(policy, ast.Name)
            and policy.id in retry_names
        )
        if retrying:
            out.append(
                _diag(
                    "PD209",
                    path,
                    node.lineno,
                    f"'{bound.value}' is bound with a retrying "
                    f"FtPolicy but served without a reply cache "
                    f"(line {uncached[bound.value]}): a retry "
                    f"after a lost reply re-executes the request "
                    f"on the servant",
                    "serve with reply_cache_bytes > 0 so "
                    "duplicate requests are answered from the "
                    "cache, or set max_retries=0 for "
                    "non-idempotent interfaces",
                )
            )
    return out


# ---------------------------------------------------------------------------
# PD213: group bind without a retrying policy (failover disabled)
# ---------------------------------------------------------------------------


def _nonretry_policy(node: ast.expr) -> bool:
    """Is ``node`` an ``FtPolicy(...)`` call that *provably* leaves
    retries off (``max_retries`` absent — the default is 0 — or a
    constant <= 0)?"""
    if not (
        isinstance(node, ast.Call)
        and _call_name(node) == "FtPolicy"
    ):
        return False
    retries = _keyword(node, "max_retries")
    if retries is None:
        return True
    return (
        isinstance(retries, ast.Constant)
        and isinstance(retries.value, int)
        and not isinstance(retries.value, bool)
        and retries.value <= 0
    )


def _check_group_bind(tree: ast.Module, path: str) -> list[Diagnostic]:
    """Group bindings whose failover is provably disabled.

    Failover only engages under a retrying :class:`FtPolicy`; a
    ``_group_bind`` with no policy, or with one provably leaving
    ``max_retries`` at 0, fails fast on the first dead replica.  As
    with PD209, only provable misconfigurations are reported: a
    policy of unknown provenance is assumed intentional.
    """
    out: list[Diagnostic] = []
    retry_names: set[str] = set()
    nonretry_names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if not isinstance(target, ast.Name):
                    continue
                if _retry_policy(node.value):
                    retry_names.add(target.id)
                elif _nonretry_policy(node.value):
                    nonretry_names.add(target.id)

    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if _call_name(node) != "_group_bind" or not node.args:
            continue
        bound = node.args[0]
        name = (
            repr(bound.value)
            if isinstance(bound, ast.Constant)
            else "the group"
        )
        policy = _keyword(node, "ft_policy")
        if policy is None:
            detail = "without an ft_policy"
        elif _nonretry_policy(policy) or (
            isinstance(policy, ast.Name)
            and policy.id in nonretry_names
        ):
            detail = "with an FtPolicy that leaves max_retries at 0"
        else:
            continue
        out.append(
            _diag(
                "PD213",
                path,
                node.lineno,
                f"{name} is a replicated-group binding {detail}: "
                f"failover never engages, so the first dead "
                f"replica fails the client despite the standbys",
                "bind with ft_policy=FtPolicy(max_retries > 0) so "
                "exhausted retries fail over to a sibling replica "
                "(the sibling runs the call afresh: keep replicas "
                "stateless)",
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
            _diag(
                "PD200",
                path,
                exc.lineno or 1,
                f"python syntax error: {exc.msg}",
                "fix the syntax; no other checks ran",
            )
        ]

    diagnostics: list[Diagnostic] = []
    guard = _RankGuardVisitor(path)
    guard.visit(tree)
    diagnostics += guard.out
    proxies = _spmd_proxy_names(tree)
    if proxies:
        unagreed = _UnagreedInvocationVisitor(path, proxies)
        unagreed.visit(tree)
        diagnostics += unagreed.out
    diagnostics += _check_futures(tree, path)
    diagnostics += _check_touch_loops(tree, path)
    diagnostics += _check_transfer(tree, path)
    diagnostics += _check_retry_cache(tree, path)
    diagnostics += _check_group_bind(tree, path)

    # The interprocedural collective-flow rules (PD210–PD212).
    # Imported lazily: repro.lint.flow shares the token sets above,
    # so a top-level import would be cyclic.
    from repro.lint.flow import analyze_flow

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
