"""Property tests: the linter never crashes, whatever it is fed.

Reuses the IDL fuzz strategies from ``tests.idl.test_fuzz`` so
every specification the compiler fuzzer can produce is also a valid
linter input.
"""

import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.idl.compiler import analyze_idl
from repro.idl.errors import IdlError
from repro.lint import lint_idl_source, lint_python_source
from repro.lint.diagnostics import Diagnostic
from tests.idl.test_fuzz import specifications

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"


@given(specifications())
@settings(max_examples=60, deadline=None)
def test_lint_never_crashes_on_parseable_idl(source):
    for diag in lint_idl_source(source):
        assert isinstance(diag, Diagnostic)
        assert diag.rule.startswith("PD1")
        assert diag.line >= 1


@given(st.text(max_size=200))
@settings(max_examples=120, deadline=None)
def test_lint_never_crashes_on_arbitrary_idl_text(source):
    for diag in lint_idl_source(source):
        assert diag.severity in ("error", "warning")


@given(st.text(max_size=200))
@settings(max_examples=120, deadline=None)
def test_lint_never_crashes_on_arbitrary_python_text(source):
    for diag in lint_python_source(source):
        assert diag.severity in ("error", "warning")


@given(specifications())
@settings(max_examples=30, deadline=None)
def test_diagnostics_render_in_both_formats(source):
    for diag in lint_idl_source(source):
        assert diag.rule in diag.render()
        assert diag.to_dict()["rule"] == diag.rule


def _assert_lint_agrees_with_the_compiler(source):
    """An error-level row if and only if analysis raises, at the
    exception's line."""
    errors = [
        d for d in lint_idl_source(source) if d.severity == "error"
    ]
    try:
        analyze_idl(source)
    except IdlError as exc:
        [row] = errors
        assert row.line == exc.line
    else:
        assert errors == []


@given(specifications())
@settings(max_examples=60, deadline=None)
def test_lint_errors_agree_with_the_compiler_on_fuzzed_idl(source):
    _assert_lint_agrees_with_the_compiler(source)


@pytest.mark.parametrize(
    "fixture", sorted(p.name for p in FIXTURES.glob("*.idl"))
)
def test_lint_errors_agree_with_the_compiler_on_fixtures(fixture):
    _assert_lint_agrees_with_the_compiler(
        (FIXTURES / fixture).read_text()
    )
