#!/usr/bin/env python3
"""Code size: non-blank, non-comment, non-docstring lines per path.

    python tools/loc.py src/repro tools benchmarks tests

The figure every simplicity PR quotes (CHANGES.md).  A line counts if
a token other than a comment or a docstring touches it.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
            tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines in one python source text."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                doc = node.body[0]
                lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


if __name__ == "__main__":
    for root in sys.argv[1:] or ["src/repro"]:
        path = Path(root)
        files = [path] if path.is_file() else sorted(path.rglob("*.py"))
        total = sum(code_lines(f.read_text(encoding="utf-8")) for f in files)
        print(f"{total:7d}  {root}  ({len(files)} files)")
