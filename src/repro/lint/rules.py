"""The rule catalogue for ``repro.lint``, and the vocabulary its
rules share.

Rule ids are stable: ``PD1xx`` lints run on PARDIS IDL (family A),
``PD2xx`` lints run on SPMD client/server programs (family B).  Each
rule carries the paper section that motivates it so diagnostics can
point back at the source of the constraint.

Everything more than one lint module needs lives here once: the token
sets naming collectives, ranks and agreement, the python-AST helpers
that read them, and :func:`diag`, the one builder of a
:class:`Diagnostic` from a rule id.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.lint.diagnostics import Diagnostic

#: Collective entry points: every computing thread must reach these.
#: Low-level primitives (bcast/barrier/send/recv) are deliberately
#: excluded — run-time-system internals legitimately branch on rank
#: around them.
COLLECTIVE_CALLS = frozenset(
    ("_spmd_bind", "invoke_all", "redistribute", "synchronize")
)

#: Names that (almost always) hold a computing-thread rank.
RANK_TOKENS = frozenset(("rank", "my_rank", "thread_rank"))

#: The collective failure-agreement entry points
#: (:mod:`repro.ft.agreement`).  Their presence marks a rank-dependent
#: divergence as deliberate and reconciled.
AGREEMENT_CALLS = frozenset(
    ("agree", "agree_failure", "agree_outcome")
)


@dataclass(frozen=True)
class Rule:
    """A lint rule: stable id, slug name, severity and rationale."""

    id: str
    name: str
    severity: str  # 'error' | 'warning'
    summary: str
    rationale: str  # grounded in a PARDIS paper section


_RULES = (
    # ------------------------------------------------------ family A
    Rule(
        "PD100",
        "idl-error",
        "error",
        "IDL source fails to parse or analyze",
        "§2: specifications must compile before stubs can be "
        "generated; surfaced here so lint runs never crash.",
    ),
    Rule(
        "PD101",
        "unbounded-dsequence",
        "warning",
        "unbounded dsequence used by an operation",
        "§2.1: distributed sequences are mapped onto distribution "
        "templates; an unbounded dsequence forces the run-time "
        "system to defer layout until invocation and prevents "
        "preallocated multiport transfer buffers (§3.2).",
    ),
    Rule(
        "PD102",
        "dsequence-element",
        "error",
        "dsequence element type is not a fixed-width numeric",
        "§2.1: dsequence data are scattered across computing "
        "threads by the transfer engine, which requires elements "
        "of a known fixed width (the CDR layer rejects anything "
        "without a dtype at marshal time).",
    ),
    Rule(
        "PD103",
        "mixed-distributed-out",
        "warning",
        "operation mixes distributed and non-distributed out "
        "parameters",
        "§2.2/§3: distributed out arguments travel through the "
        "transfer engine while scalar outs return in the reply "
        "message; mixing them in one operation couples the two "
        "completion paths and defeats out-template pipelining.",
    ),
    Rule(
        "PD104",
        "inheritance-collision",
        "error",
        "inherited operations collide after flattening",
        "§2: SPMD interface semantics follow CORBA; two bases "
        "contributing distinct operations of the same name make "
        "the flattened request table ambiguous.",
    ),
    Rule(
        "PD105",
        "dead-typedef",
        "warning",
        "typedef is never referenced",
        "§2.1: type aliases exist to name distribution choices; "
        "an unreferenced alias usually marks a half-finished "
        "migration of an interface to distributed types.",
    ),
    Rule(
        "PD106",
        "undeclared-raises",
        "error",
        "raises clause names an undeclared exception",
        "§2: the stub compiler must marshal user exceptions by "
        "repository id; an undeclared name has no id to map.",
    ),
    Rule(
        "PD107",
        "oneway-constraints",
        "error",
        "oneway operation declares results or exceptions",
        "§2.2: oneway requests return no reply message, so a "
        "non-void result, out/inout parameter, or raises clause "
        "can never be delivered.",
    ),
    # ------------------------------------------------------ family B
    Rule(
        "PD200",
        "python-error",
        "error",
        "python source fails to parse",
        "SPMD checks need an AST; surfaced as a diagnostic so a "
        "broken file fails lint rather than crashing it.",
    ),
    Rule(
        "PD201",
        "rank-dependent-collective",
        "error",
        "collective invocation is control-dependent on a thread "
        "rank",
        "§2: a request on an SPMD object is satisfied only if it "
        "is delivered to ALL computing threads; guarding a "
        "collective call with a rank test means some threads "
        "never join it and every thread deadlocks.",
    ),
    Rule(
        "PD202",
        "unconsumed-future",
        "warning",
        "future returned by a *_nb invocation is never consumed",
        "§4: non-blocking invocations return ABC++-style futures; "
        "a future that is never touched hides errors and lets "
        "the program exit before the request completes.",
    ),
    Rule(
        "PD203",
        "touch-in-rank-loop",
        "warning",
        "blocking touch() inside a loop over ranks",
        "§4: touching each future as soon as it is created "
        "serialises the requests; issue all requests first, then "
        "touch, to overlap the transfers (the latency-hiding "
        "pattern of §4's compute/communicate overlap).",
    ),
    Rule(
        "PD204",
        "transfer-mismatch",
        "error",
        "bind-site transfer method contradicts servant "
        "registration",
        "§3: the transfer method is negotiated between stub and "
        "run-time system; requesting multiport transfer from a "
        "server registered centralized-only falls back silently "
        "and the measured bandwidth collapses (§3.2, Figure 5).",
    ),
    Rule(
        "PD205",
        "invalid-transfer",
        "error",
        "transfer= names an unknown transfer method",
        "§3: only the centralized and multiport methods exist; "
        "any other spelling raises at bind time.",
    ),
    Rule(
        "PD208",
        "unagreed-guarded-invocation",
        "error",
        "invocation on a collectively-bound proxy inside a "
        "rank-guarded branch without failure agreement",
        "§2 + fault tolerance: an invocation on a proxy bound with "
        "_spmd_bind is collective — every computing thread must "
        "issue it at the same point in the collective sequence.  "
        "Under a rank guard only some threads reach it, and without "
        "an agreement call (repro.ft.agreement.agree / "
        "agree_failure) the group has no way to converge on one "
        "outcome: the guarded ranks time out while the others "
        "proceed, and the collective sequences diverge.",
    ),
    Rule(
        "PD209",
        "retries-without-reply-cache",
        "warning",
        "retries enabled on a proxy whose server has no reply cache",
        "Fault tolerance (docs/robustness.md): a retried request "
        "whose *reply* was lost re-executes on the servant unless "
        "the server records sent replies.  Binding with an FtPolicy "
        "whose max_retries > 0 against an object served without "
        "reply_cache_bytes is a duplicate-execution hazard for any "
        "non-idempotent operation.",
    ),
    Rule(
        "PD210",
        "divergent-collective-across-calls",
        "error",
        "rank-dependent branch hides a collective behind a call, "
        "diverging the group's collective sequence",
        "§2: a collective request must be issued by every computing "
        "thread.  The interprocedural flow analysis found a "
        "rank-guarded path whose collective-effect sequence — "
        "including collectives performed inside functions it calls "
        "— differs from the unguarded path's, so the ranks that "
        "take it fall out of lockstep and the group deadlocks.",
    ),
    Rule(
        "PD211",
        "collective-in-exception-path",
        "error",
        "collective effect inside an exception handler without "
        "failure agreement",
        "§2 + fault tolerance: exceptions are rank-local — only the "
        "ranks that raised enter the handler — so a collective "
        "issued there is issued by a subset of the group.  The "
        "sanctioned idiom reconciles the handler through "
        "repro.ft.agreement first, so every rank converges on one "
        "outcome before the next collective.",
    ),
    Rule(
        "PD212",
        "early-return-skips-collective",
        "error",
        "rank-guarded early return skips collectives issued later "
        "in the function",
        "§2: the ranks that take a rank-guarded return (or raise) "
        "never issue the collectives that follow it, while the "
        "remaining ranks block in them forever — the same deadlock "
        "as PD201, hidden by control flow instead of a guard "
        "around the call itself.",
    ),
    Rule(
        "PD213",
        "group-bind-without-retry-policy",
        "warning",
        "bound to a replicated group without an ft_policy, so "
        "failover may never engage",
        "Replicated groups (repro.groups): client-side failover is "
        "what the invocation engine does with a failure the "
        "fault-tolerance policy gives up on, and any FtPolicy — "
        "whatever its max_retries — engages it.  With no policy at "
        "all the binding fails fast on the first dead replica, "
        "exactly like a singleton binding, and the replication buys "
        "nothing.  A policy set on the ORB or the client runtime "
        "engages failover too, but the linter cannot see it.  Keep "
        "the replicas stateless: a failover re-issues the call on a "
        "sibling, which runs it again if the dead replica already "
        "had.",
    ),
)

RULES: dict[str, Rule] = {rule.id: rule for rule in _RULES}
RULES_BY_NAME: dict[str, Rule] = {rule.name: rule for rule in _RULES}


def resolve_rule(token: str) -> Rule | None:
    """A rule by id (``PD101``) or slug (``unbounded-dsequence``)."""
    token = token.strip()
    return RULES.get(token.upper()) or RULES_BY_NAME.get(token.lower())


def diag(
    rule_id: str, path: str, line: int, message: str, hint: str = ""
) -> Diagnostic:
    """A finding of rule ``rule_id``, named and ranked by the
    catalogue."""
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


def call_name(node: ast.Call) -> str:
    """The called name: ``f`` for ``f(...)`` and ``x.f(...)``."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def mentions(tree: ast.AST, tokens: frozenset[str]) -> bool:
    """Does any Name/Attribute in ``tree`` spell one of ``tokens``?"""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in tokens:
            return True
        if isinstance(node, ast.Attribute) and node.attr in tokens:
            return True
    return False


def keyword(node: ast.Call, name: str) -> ast.expr | None:
    """The value passed as ``name=`` to a call, if any."""
    for kw in node.keywords:
        if kw.arg == name:
            return kw.value
    return None
