"""Family-A rules: each fixture violation is caught with the right
rule id, line number, and fix-hint."""

import pathlib

import pytest

from repro.lint import lint_file, lint_idl_source

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"

# (fixture, rule id, line, fragment expected in the hint)
IDL_CASES = [
    ("bad_syntax.idl", "PD100", 1, "fix the syntax"),
    ("bad_unbounded.idl", "PD101", 4, "declare a bound"),
    ("bad_element.idl", "PD102", 2, "fixed-width"),
    ("bad_mixed_out.idl", "PD103", 4, "split the operation"),
    ("bad_collision.idl", "PD104", 9, "rename one"),
    ("bad_dead_typedef.idl", "PD105", 1, "delete the typedef"),
    ("bad_raises.idl", "PD106", 2, "raises clause"),
    ("bad_oneway.idl", "PD107", 2, "oneway requests carry no reply"),
]


@pytest.mark.parametrize("fixture,rule,line,hint", IDL_CASES)
def test_fixture_violation_is_reported(fixture, rule, line, hint):
    path = str(FIXTURES / fixture)
    diagnostics = lint_file(path)
    matching = [d for d in diagnostics if d.rule == rule]
    assert matching, (
        f"{fixture}: expected {rule}, got "
        f"{[(d.rule, d.line) for d in diagnostics]}"
    )
    diag = matching[0]
    assert diag.line == line
    assert diag.file == path
    assert hint in diag.hint
    assert diag.severity in ("error", "warning")


def test_good_idl_lints_clean():
    assert lint_file(str(FIXTURES / "good.idl")) == []


def test_collision_names_both_declaring_interfaces():
    diagnostics = lint_file(str(FIXTURES / "bad_collision.idl"))
    [diag] = [d for d in diagnostics if d.rule == "PD104"]
    assert "alpha" in diag.message and "beta" in diag.message


def test_diamond_inheritance_is_not_a_collision():
    source = (
        "interface base { void run(); };\n"
        "interface left : base {};\n"
        "interface right : base {};\n"
        "interface bottom : left, right {};\n"
    )
    diagnostics = lint_idl_source(source)
    assert [d for d in diagnostics if d.rule == "PD104"] == []


def test_bounded_dsequence_through_typedef_is_clean():
    source = (
        "typedef dsequence<double, 64> arr;\n"
        "interface ok { void f(in arr a); };\n"
    )
    assert lint_idl_source(source) == []


def test_dsequence_element_via_typedef_chain_is_checked():
    source = (
        "typedef string name;\n"
        "typedef name alias;\n"
        "interface bad { void f(in dsequence<alias, 8> xs); };\n"
    )
    diagnostics = lint_idl_source(source)
    assert any(d.rule == "PD102" for d in diagnostics)


def test_dead_typedef_skipped_when_used_from_context():
    source = "typedef dsequence<double, 32> host_used;\n"
    assert any(
        d.rule == "PD105" for d in lint_idl_source(source)
    )
    assert (
        lint_idl_source(
            source, context_text="idl.host_used.from_global(...)"
        )
        == []
    )


def test_semantic_error_surfaces_as_pd100():
    diagnostics = lint_idl_source("interface ghost;\n")
    [diag] = diagnostics
    assert diag.rule == "PD100"
    assert "never defined" in diag.message


def test_line_offset_shifts_every_diagnostic():
    source = "typedef dsequence<double> d;\n"
    plain = lint_idl_source(source)
    shifted = lint_idl_source(source, line_offset=10)
    assert [d.line + 10 for d in plain] == [
        d.line for d in shifted
    ]


def test_absolute_names_resolve_like_the_compiler():
    source = (
        "exception Oops { string why; };\n"
        "typedef dsequence<double> Vec;\n"
        "interface I {\n"
        "  void f(in ::Vec v) raises (::Oops);\n"
        "};\n"
    )
    [diag] = lint_idl_source(source)
    assert (diag.rule, diag.line) == ("PD101", 4)


def test_an_invalid_unit_gets_one_diagnostic():
    source = (
        "typedef dsequence<string> names;\n"
        "interface ok { oneway long f(); };\n"
    )
    [diag] = lint_idl_source(source)
    assert (diag.rule, diag.line) == ("PD102", 1)
