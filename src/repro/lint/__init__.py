"""repro.lint — PARDIS static analysis.

Two rule families:

* **PD1xx** lint PARDIS IDL (``.idl`` files and IDL embedded in
  python string literals): distribution and signature rules the
  stub compiler itself does not enforce.
* **PD2xx** lint SPMD client/server programs with python's ``ast``
  module: collective-correctness and future-hygiene checks.

Run ``python -m repro.lint <paths>`` (or the ``repro-lint``
console script); see ``docs/lint.md`` for the rule catalogue.
"""

from repro.lint.cli import lint_file, lint_paths, main
from repro.lint.diagnostics import Diagnostic
from repro.lint.idl_rules import lint_idl_source
from repro.lint.rules import RULES, Rule, resolve_rule
from repro.lint.spmd_rules import lint_python_source

__all__ = [
    "Diagnostic",
    "RULES",
    "Rule",
    "lint_file",
    "lint_idl_source",
    "lint_paths",
    "lint_python_source",
    "main",
    "resolve_rule",
]
