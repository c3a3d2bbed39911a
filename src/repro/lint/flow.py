"""Interprocedural collective-flow analysis (rules PD210–PD212).

The PD201/PD208 lints are intraprocedural and syntactic: they flag a
collective call *lexically* inside a rank guard.  That misses the two
shapes that actually bite in practice — a collective hidden behind a
helper-function call, and a rank-guarded early return that skips
collectives issued later — because in both the collective itself sits
in unguarded code.

This module closes the gap.  Per function it builds a structured CFG
(:mod:`repro.lint.cfg`), summarizes the function by its *sequence of
collective effects* — direct calls to the collective entry points
plus, transitively, the effect sequences of same-module functions it
calls — and propagates the summaries through the call graph.  At
every rank-dependent branch it then compares the collective sequence
of the guarded continuation against the unguarded one, all the way to
function exit.  A *provable* difference means the ranks that take the
branch fall out of lockstep with the rest of the group:

- **PD210** — the diverging effect is reached through a call (the
  interprocedural case PD201 cannot see).
- **PD211** — a collective effect inside an ``except`` handler:
  exception paths are rank-local, so the handler runs on a subset of
  the group.
- **PD212** — a rank-guarded ``return``/``raise`` skips collectives
  the fall-through path still issues.

Soundness posture: the analyzer reports only *certain* divergence.
Anything it cannot canonicalize — unresolved calls, ``match``
statements, loops with ``break``, rank-independent branches whose
arms differ — degrades the summary to "incomplete" and suppresses
comparison rather than guessing.  Divergence deliberately reconciled
through :mod:`repro.ft.agreement` (an agreement call in the function,
directly or via a called same-module function) suppresses all three
rules: the agreement protocol is exactly the sanctioned way to let
ranks diverge and then converge on one outcome.

Known limits (see ``docs/lint.md``): the call graph is per-module and
by-name, proxies passed across functions are not tracked (PD208
remains intraprocedural), and a collective inside a rank-trip-count
loop is only reported when reached through a call.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.lint.cfg import (
    BranchRegion,
    ExitRegion,
    LoopRegion,
    OpaqueRegion,
    Region,
    SeqRegion,
    StmtRegion,
    TryRegion,
    build_cfg,
)
from repro.lint.diagnostics import Diagnostic
from repro.lint.rules import (
    AGREEMENT_CALLS,
    COLLECTIVE_CALLS,
    RANK_TOKENS,
    call_name,
    diag,
    mentions,
)


def _calls_in(stmt: ast.AST):
    """Calls evaluated by ``stmt`` itself, in source order — the
    bodies of nested ``lambda``/``def`` run elsewhere, so they are
    not this statement's effects."""
    stack = [stmt]
    found: list[ast.Call] = []
    while stack:
        node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child,
                (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef),
            ):
                continue
            if isinstance(child, ast.Call):
                found.append(child)
            stack.append(child)
    return sorted(found, key=lambda c: (c.lineno, c.col_offset))


# ---------------------------------------------------------------------------
# Effect summaries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Event:
    """One collective effect on a path.

    ``via`` names the call chain for effects reached through local
    functions (``"helper"`` or ``"outer -> inner"``); ``line`` is the
    anchor *in the analyzed function* (the call site for spliced
    events).  ``body`` carries a loop's inner effect keys so two
    identical loops compare equal.
    """

    name: str
    line: int
    via: str | None = None
    body: tuple = ()

    @property
    def key(self) -> tuple:
        # Comparison ignores lines and call chains: what must match
        # across ranks is the *operation sequence*, not the syntax
        # that produced it.
        return (self.name, self.body)

    def describe(self) -> str:
        if self.via:
            return f"'{self.name}' via {self.via}() (line {self.line})"
        return f"'{self.name}' (line {self.line})"


@dataclass(frozen=True)
class Sum:
    """The collective effects of one path, to function exit.

    ``events`` is the provable prefix; ``complete`` says whether it
    is the whole story.  ``exit`` records a certain early function
    exit (``("return", line)``) for PD212 anchoring.
    """

    events: tuple[Event, ...] = ()
    complete: bool = True
    exit: tuple[str, int] | None = None

    def keys(self) -> tuple:
        return tuple(e.key for e in self.events)


EMPTY = Sum()
UNKNOWN = Sum(events=(), complete=False, exit=None)


@dataclass
class FuncInfo:
    """What the call graph knows about one function."""

    name: str
    node: ast.AST
    cfg: SeqRegion
    summary: Sum | None = None
    in_progress: bool = False
    may_collect: bool = False
    has_agreement: bool = False
    called_names: set[str] = field(default_factory=set)


def _collect_functions(tree: ast.Module) -> dict[str, list[FuncInfo]]:
    functions: dict[str, list[FuncInfo]] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info = FuncInfo(
                name=node.name, node=node, cfg=build_cfg(node)
            )
            functions.setdefault(node.name, []).append(info)
    return functions


class FlowAnalyzer:
    """One module's collective-flow analysis."""

    def __init__(self, tree: ast.Module, path: str) -> None:
        self.path = path
        self.functions = _collect_functions(tree)
        self.module = FuncInfo(
            name="<module>", node=tree, cfg=build_cfg(tree)
        )
        self.out: list[Diagnostic] = []
        self._reported: set[tuple[str, int]] = set()
        self._infos = [
            info
            for infos in self.functions.values()
            for info in infos
        ] + [self.module]
        for info in self._infos:
            self._scan_direct(info)
        self._close_over_calls()

    # -- call-graph closures ------------------------------------------------

    def _scan_direct(self, info: FuncInfo) -> None:
        """Direct facts: own calls, ignoring nested function bodies."""
        for call in _calls_in_region(info.cfg):
            name = call_name(call)
            if name in COLLECTIVE_CALLS:
                info.may_collect = True
            elif name in AGREEMENT_CALLS:
                info.has_agreement = True
            elif name in self.functions:
                info.called_names.add(name)

    def _close_over_calls(self) -> None:
        """Propagate ``may_collect`` / ``has_agreement`` through the
        by-name call graph to a fixpoint."""
        changed = True
        while changed:
            changed = False
            for info in self._infos:
                for name in info.called_names:
                    for callee in self.functions.get(name, ()):
                        if callee.may_collect and not info.may_collect:
                            info.may_collect = True
                            changed = True
                        if (
                            callee.has_agreement
                            and not info.has_agreement
                        ):
                            info.has_agreement = True
                            changed = True

    # -- entry point --------------------------------------------------------

    def run(self) -> list[Diagnostic]:
        for info in self._infos:
            self._summary_of(info)
        self.out.sort(key=lambda d: (d.line, d.rule))
        return self.out

    # -- summaries ----------------------------------------------------------

    def _summary_of(self, info: FuncInfo) -> Sum:
        if info.summary is not None:
            return info.summary
        if info.in_progress:  # recursion: effects unknowable
            return UNKNOWN if info.may_collect else EMPTY
        info.in_progress = True
        try:
            summary = self._seq(info.cfg.parts, EMPTY, info)
        finally:
            info.in_progress = False
        info.summary = summary
        return summary

    def _resolve_call(self, name: str) -> Sum | None:
        """The spliceable summary of a by-name callee, or ``None``
        when the call is not a local function (assumed
        collective-free — the intraprocedural fallback)."""
        candidates = self.functions.get(name)
        if not candidates:
            return None
        summaries = [self._summary_of(c) for c in candidates]
        first = summaries[0]
        if all(
            s.complete and s.keys() == first.keys()
            for s in summaries
        ):
            return first
        if any(c.may_collect for c in candidates):
            return UNKNOWN
        return EMPTY

    def _stmt_events(
        self, stmt: ast.AST, info: FuncInfo
    ) -> tuple[tuple[Event, ...], bool]:
        """``(events, complete)`` for one simple statement."""
        events: list[Event] = []
        for call in _calls_in(stmt):
            name = call_name(call)
            if name in AGREEMENT_CALLS:
                continue
            if name in COLLECTIVE_CALLS:
                events.append(Event(name=name, line=call.lineno))
                continue
            resolved = self._resolve_call(name)
            if resolved is None:
                continue
            if not resolved.complete:
                return tuple(events), False
            for ev in resolved.events:
                via = f"{name} -> {ev.via}" if ev.via else name
                events.append(
                    Event(
                        name=ev.name,
                        line=call.lineno,
                        via=via,
                        body=ev.body,
                    )
                )
        return tuple(events), True

    # -- the region walk ----------------------------------------------------

    def _seq(
        self, parts: list[Region], k: Sum, info: FuncInfo
    ) -> Sum:
        """Effects of ``parts`` followed by continuation ``k``."""
        current = k
        for region in reversed(parts):
            current = self._region(region, current, info)
        return current

    def _region(self, region: Region, k: Sum, info: FuncInfo) -> Sum:
        if isinstance(region, StmtRegion):
            events, complete = self._stmt_events(region.stmt, info)
            if not complete:
                return Sum(events=events, complete=False, exit=None)
            return Sum(
                events=events + k.events,
                complete=k.complete,
                exit=k.exit,
            )
        if isinstance(region, ExitRegion):
            events, complete = (
                self._stmt_events(region.stmt, info)
                if region.stmt is not None
                else ((), True)
            )
            if region.kind in ("return", "raise"):
                return Sum(
                    events=events,
                    complete=complete,
                    exit=(region.kind, region.line),
                )
            # break/continue: control stays in the function but the
            # enclosing loop's trip effects become unknowable.
            return Sum(events=events, complete=False, exit=None)
        if isinstance(region, BranchRegion):
            return self._branch(region, k, info)
        if isinstance(region, LoopRegion):
            return self._loop(region, k, info)
        if isinstance(region, TryRegion):
            return self._try(region, k, info)
        if isinstance(region, OpaqueRegion):
            return UNKNOWN
        if isinstance(region, SeqRegion):
            return self._seq(region.parts, k, info)
        return UNKNOWN

    def _branch(
        self, region: BranchRegion, k: Sum, info: FuncInfo
    ) -> Sum:
        st = self._seq(region.true.parts, k, info)
        sf = self._seq(region.false.parts, k, info)
        if (
            mentions(region.test, RANK_TOKENS)
            and not info.has_agreement
        ):
            self._check_divergence(region, st, sf)
        if st == sf:
            return st
        prefix = _common_prefix(st.events, sf.events)
        return Sum(events=prefix, complete=False, exit=None)

    def _loop(
        self, region: LoopRegion, k: Sum, info: FuncInfo
    ) -> Sum:
        body = self._seq(region.body.parts, EMPTY, info)
        rest = self._seq(region.orelse.parts, k, info)
        if not body.events and body.complete and body.exit is None:
            return rest
        if (
            region.control is not None
            and mentions(region.control, RANK_TOKENS)
            and not info.has_agreement
        ):
            # Rank-dependent trip count around a call-hidden
            # collective: the ranks disagree on how many times the
            # collective runs.
            for ev in body.events:
                if ev.via:
                    self._report_pd210(
                        ev.line,
                        f"collective {ev.describe()} runs inside a "
                        f"loop whose trip count depends on a thread "
                        f"rank (line {region.line}): ranks execute "
                        f"it a different number of times and the "
                        f"collective sequences diverge",
                    )
                    break
        if not body.complete or body.exit is not None:
            return Sum(events=(), complete=False, exit=None)
        loop_event = Event(
            name="<loop>", line=region.line, body=body.keys()
        )
        return Sum(
            events=(loop_event,) + rest.events,
            complete=rest.complete,
            exit=rest.exit,
        )

    def _try(
        self, region: TryRegion, k: Sum, info: FuncInfo
    ) -> Sum:
        for handler in region.handlers:
            self._check_handler(handler, info)
        return self._seq(
            region.body.parts,
            self._seq(
                region.orelse.parts,
                self._seq(region.final.parts, k, info),
                info,
            ),
            info,
        )

    # -- rule reporting -----------------------------------------------------

    def _check_handler(
        self, handler: SeqRegion, info: FuncInfo
    ) -> None:
        if info.has_agreement:
            return
        for call in _calls_in_region(handler):
            if call_name(call) in AGREEMENT_CALLS:
                return  # handler reconciles before anything else
        summary = self._seq(handler.parts, EMPTY, info)
        for ev in summary.events:
            self._report(
                "PD211",
                ev.line,
                f"collective {ev.describe()} runs on an exception "
                f"path: only the ranks whose attempt raised reach "
                f"this handler, so a subset of the group issues the "
                f"collective and every rank deadlocks",
                "reconcile the handler first with "
                "repro.ft.agreement.agree/agree_failure so all "
                "ranks converge on one outcome, or hoist the "
                "collective out of the except block",
            )
            return

    def _check_divergence(
        self, region: BranchRegion, st: Sum, sf: Sum
    ) -> None:
        kt, kf = st.keys(), sf.keys()
        if kt == kf:
            return
        prefix = len(_common_prefix(st.events, sf.events))
        if prefix == len(kt) or prefix == len(kf):
            # One side is a proper prefix of the other: divergence is
            # provable only when the shorter side truly ends there.
            short, long_ = (st, sf) if len(kt) < len(kf) else (sf, st)
            if not short.complete:
                return
            skipped = long_.events[prefix]
            # PD212 only for a genuine early exit: the short side
            # leaves at a statement the long side does not share
            # (equal exits mean both arms rejoin at the function's
            # final return), and it leaves *before* the collective
            # it skips.
            if (
                short.exit is not None
                and short.exit != long_.exit
                and short.exit[1] <= skipped.line
            ):
                kind, line = short.exit
                self._report(
                    "PD212",
                    line,
                    f"rank-guarded early {kind} (guard at line "
                    f"{region.line}) skips collective "
                    f"{skipped.describe()}: the ranks that leave "
                    f"here never issue it, the rest block in it "
                    f"forever",
                    "restructure so every rank reaches the "
                    "collective (compute the guarded result into a "
                    "variable instead of returning), or reconcile "
                    "the divergence with repro.ft.agreement",
                )
                return
            if skipped.via:
                self._report_pd210(
                    skipped.line,
                    f"collective {skipped.describe()} is reached "
                    f"only on one side of the rank test at line "
                    f"{region.line}: the other ranks never issue "
                    f"it and the group deadlocks",
                )
            return
        # The sides disagree at collective point ``prefix`` itself.
        ev_t = st.events[prefix] if prefix < len(st.events) else None
        ev_f = sf.events[prefix] if prefix < len(sf.events) else None
        anchor = next(
            (e for e in (ev_t, ev_f) if e is not None and e.via),
            None,
        )
        if anchor is None:
            return  # direct collectives under the guard: PD201's job
        other = ev_f if anchor is ev_t else ev_t
        self._report_pd210(
            anchor.line,
            f"the rank test at line {region.line} splits the "
            f"collective sequence: one side issues "
            f"{anchor.describe()} where the other issues "
            + (other.describe() if other else "no collective")
            + ", so the ranks cross-match different collectives",
        )

    def _report_pd210(self, line: int, message: str) -> None:
        self._report(
            "PD210",
            line,
            message,
            "issue the same collective sequence on every rank "
            "(hoist the call out of the rank-dependent region), or "
            "reconcile deliberately with "
            "repro.ft.agreement.agree/agree_failure",
        )

    def _report(
        self, rule_id: str, line: int, message: str, hint: str
    ) -> None:
        if (rule_id, line) in self._reported:
            return
        self._reported.add((rule_id, line))
        self.out.append(diag(rule_id, self.path, line, message, hint))


def _common_prefix(
    a: tuple[Event, ...], b: tuple[Event, ...]
) -> tuple[Event, ...]:
    out = []
    for ea, eb in zip(a, b):
        if ea.key != eb.key:
            break
        out.append(ea)
    return tuple(out)


def _calls_in_region(region: Region) -> list[ast.Call]:
    """Every call evaluated by the region's own statements."""
    calls: list[ast.Call] = []
    stack: list[Region] = [region]
    while stack:
        node = stack.pop()
        if isinstance(node, (StmtRegion, OpaqueRegion)):
            calls.extend(_calls_in(node.stmt))
        elif isinstance(node, ExitRegion):
            if node.stmt is not None:
                calls.extend(_calls_in(node.stmt))
        elif isinstance(node, SeqRegion):
            stack.extend(node.parts)
        elif isinstance(node, BranchRegion):
            stack.append(node.true)
            stack.append(node.false)
        elif isinstance(node, LoopRegion):
            stack.append(node.body)
            stack.append(node.orelse)
        elif isinstance(node, TryRegion):
            stack.append(node.body)
            stack.extend(node.handlers)
            stack.append(node.orelse)
            stack.append(node.final)
    return calls


def analyze_flow(tree: ast.Module, path: str) -> list[Diagnostic]:
    """Run the interprocedural collective-flow rules on a module."""
    return FlowAnalyzer(tree, path).run()
