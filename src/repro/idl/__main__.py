"""Command-line IDL compiler: ``python -m repro.idl input.idl [-o out.py]``.

Mirrors the paper's Figure 1: the IDL compiler translating object
specifications into stub code.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.idl.compiler import generate_python, preprocess_includes
from repro.idl.errors import IdlError
from repro.lint import lint_idl_source


def main(argv: list[str] | None = None) -> int:
    cli = argparse.ArgumentParser(
        prog="python -m repro.idl",
        description="PARDIS IDL compiler: IDL → Python stubs/skeletons",
    )
    cli.add_argument("input", help="IDL source file")
    cli.add_argument(
        "-o",
        "--output",
        help="output .py file (defaults to stdout)",
    )
    cli.add_argument(
        "-I",
        "--include",
        action="append",
        default=[],
        help="additional #include search directory (repeatable)",
    )
    cli.add_argument(
        "--lint",
        action="store_true",
        help=(
            "run the PARDIS IDL lints (repro.lint family A) before "
            "generating code; any diagnostic aborts the compilation"
        ),
    )
    args = cli.parse_args(argv)

    with open(args.input, "r", encoding="utf-8") as handle:
        source = handle.read()
    try:
        source = preprocess_includes(
            source,
            (os.path.dirname(os.path.abspath(args.input)),
             *args.include),
        )
        if args.lint:
            diagnostics = lint_idl_source(source, args.input)
            for diagnostic in diagnostics:
                print(diagnostic.render(), file=sys.stderr)
            if diagnostics:
                print(
                    f"{args.input}: {len(diagnostics)} lint "
                    f"diagnostic(s); no code generated",
                    file=sys.stderr,
                )
                return 1
        text = generate_python(source)
    except IdlError as exc:
        print(f"{args.input}: {exc}", file=sys.stderr)
        return 1
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
