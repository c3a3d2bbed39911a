"""``python -m repro.lint`` / ``repro-lint`` — the lint driver.

Walks the given files and directories, runs family A on ``.idl``
files, family B (which includes family A on embedded IDL) on ``.py``
files, and renders the diagnostics as text or JSON.

Exit status: 0 clean, 1 diagnostics reported, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Iterable, Iterator

from repro.lint.diagnostics import (
    Diagnostic,
    render_json,
    render_text,
    sort_key,
)
from repro.lint.idl_rules import lint_idl_source
from repro.lint.rules import RULES, resolve_rule
from repro.lint.spmd_rules import lint_python_source

_SKIP_DIRS = frozenset(
    ("__pycache__", ".git", ".hypothesis", "build", "dist")
)


def iter_files(paths: Iterable[str]) -> Iterator[str]:
    """Lintable files under ``paths``, in a deterministic order."""
    for path in paths:
        if os.path.isfile(path):
            yield path
            continue
        for root, dirs, files in os.walk(path):
            dirs[:] = sorted(
                d
                for d in dirs
                if d not in _SKIP_DIRS and not d.startswith(".")
            )
            for name in sorted(files):
                if name.endswith((".py", ".idl")):
                    yield os.path.join(root, name)


def lint_file(path: str) -> list[Diagnostic]:
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    if path.endswith(".idl"):
        return lint_idl_source(source, path)
    return lint_python_source(source, path)


def _rule_set(spec: str, option: str) -> frozenset[str]:
    """A ``--select``/``--ignore`` value as a set of rule ids."""
    ids = set()
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        rule = resolve_rule(token)
        if rule is None:
            raise SystemExit(
                f"repro.lint: unknown rule {token!r} in {option} "
                f"(see --list-rules)"
            )
        ids.add(rule.id)
    return frozenset(ids)


def lint_paths(
    paths: Iterable[str],
    *,
    select: frozenset[str] | None = None,
    ignore: frozenset[str] = frozenset(),
) -> list[Diagnostic]:
    """Lint every file under ``paths`` and merge the diagnostics."""
    diagnostics: list[Diagnostic] = []
    for path in iter_files(paths):
        diagnostics.extend(lint_file(path))
    if select is not None:
        diagnostics = [d for d in diagnostics if d.rule in select]
    if ignore:
        diagnostics = [
            d for d in diagnostics if d.rule not in ignore
        ]
    diagnostics.sort(key=sort_key)
    return diagnostics


def _list_rules() -> str:
    lines = []
    for rule in RULES.values():
        lines.append(
            f"{rule.id}  {rule.name:28s} [{rule.severity}] "
            f"{rule.summary}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    cli = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "PARDIS static analysis: IDL semantic lints and SPMD "
            "collective-correctness checks"
        ),
    )
    cli.add_argument(
        "paths",
        nargs="*",
        help="files or directories (.py and .idl) to lint",
    )
    cli.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    cli.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids/names to run exclusively",
    )
    cli.add_argument(
        "--ignore",
        metavar="RULES",
        help="comma-separated rule ids/names to skip",
    )
    cli.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    args = cli.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0
    if not args.paths:
        cli.print_usage(sys.stderr)
        print(
            "repro.lint: at least one path is required",
            file=sys.stderr,
        )
        return 2
    for path in args.paths:
        if not os.path.exists(path):
            print(
                f"repro.lint: no such file or directory: {path}",
                file=sys.stderr,
            )
            return 2

    try:
        select = (
            _rule_set(args.select, "--select")
            if args.select
            else None
        )
        ignore = (
            _rule_set(args.ignore, "--ignore")
            if args.ignore
            else frozenset()
        )
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2

    diagnostics = lint_paths(
        args.paths, select=select, ignore=ignore
    )
    if args.format == "json":
        print(render_json(diagnostics))
    else:
        print(render_text(diagnostics))
    return 1 if diagnostics else 0
