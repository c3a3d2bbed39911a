"""Semantic-analysis tests: resolution, validation, diagnostics."""

import pathlib

import pytest

from repro.cdr.typecodes import (
    ArrayTC,
    DSequenceTC,
    SequenceTC,
    StructTC,
    TC_DOUBLE,
    TC_LONG,
)
from repro.idl.compiler import analyze_idl, compile_idl
from repro.idl.errors import IdlSemanticError
from repro.idl.semantics import (
    ConstEntity,
    EnumEntity,
    InterfaceEntity,
    TypedefEntity,
)
from repro.orb.operation import Direction


class TestResolution:
    def test_typedef_resolves_in_operation(self):
        unit = analyze_idl(
            """
            typedef dsequence<double, 1024> diff_array;
            interface diff_object {
                void diffusion(in long t, inout diff_array a);
            };
            """
        )
        iface = unit.interfaces()[0]
        op = iface.all_operations["diffusion"]
        assert op.params[0].typecode is TC_LONG
        assert isinstance(op.params[1].typecode, DSequenceTC)
        assert op.params[1].typecode.bound == 1024
        assert op.params[1].direction is Direction.INOUT

    def test_unknown_type(self):
        with pytest.raises(IdlSemanticError, match="unknown type"):
            analyze_idl("interface i { void f(in missing x); };")

    def test_scoped_resolution_across_modules(self):
        unit = analyze_idl(
            """
            module a { typedef long t; };
            interface i { void f(in a::t x); };
            """
        )
        op = unit.interfaces()[0].all_operations["f"]
        assert op.params[0].typecode is TC_LONG

    def test_enclosing_scope_visible(self):
        unit = analyze_idl(
            """
            typedef double outer_t;
            module m {
                interface i { outer_t f(); };
            };
            """
        )
        op = unit.interfaces()[0].all_operations["f"]
        assert op.return_tc is TC_DOUBLE

    def test_absolute_names(self):
        unit = analyze_idl(
            """
            typedef long t;
            module m {
                typedef double t;
                interface i { void f(in ::t x, in t y); };
            };
            """
        )
        op = unit.interfaces()[0].all_operations["f"]
        assert op.params[0].typecode is TC_LONG
        assert op.params[1].typecode is TC_DOUBLE

    def test_duplicate_names_rejected(self):
        with pytest.raises(IdlSemanticError, match="already declared"):
            analyze_idl("typedef long x; typedef double x;")

    def test_repo_ids(self):
        unit = analyze_idl("module m { interface i {}; };")
        assert unit.interfaces()[0].repo_id == "IDL:m/i:1.0"


class TestInterfaceRules:
    def test_inherited_operations_flattened(self):
        unit = analyze_idl(
            """
            interface base { void ping(); };
            interface derived : base { void pong(); };
            """
        )
        derived = unit.interfaces()[1]
        assert set(derived.all_operations) == {"ping", "pong"}
        assert [o.name for o in derived.own_operations] == ["pong"]

    def test_diamond_inheritance_shared_op(self):
        unit = analyze_idl(
            """
            interface root { void ping(); };
            interface a : root {};
            interface b : root {};
            interface d : a, b {};
            """
        )
        assert set(unit.interfaces()[3].all_operations) == {"ping"}

    def test_conflicting_inherited_ops(self):
        with pytest.raises(IdlSemanticError, match="conflicting"):
            analyze_idl(
                """
                interface a { void f(); };
                interface b { void f(in long x); };
                interface c : a, b {};
                """
            )

    def test_one_name_from_two_declarations_is_rejected(self):
        # Identical signatures still collide: CORBA forbids inheriting
        # one operation name from two distinct interfaces.
        source = (
            pathlib.Path(__file__).resolve().parents[1]
            / "lint" / "fixtures" / "bad_collision.idl"
        ).read_text()
        with pytest.raises(IdlSemanticError) as err:
            compile_idl(source)
        assert err.value.rule == "PD104"
        assert err.value.line == 9
        assert "alpha" in err.value.message
        assert "beta" in err.value.message

    @pytest.mark.parametrize(
        "source,rule,line",
        [
            ("typedef\ndsequence<char> t;", "PD102", 1),
            ("interface a { attribute long run; };\n"
             "interface b { void run(); };\n"
             "interface c : a, b {};", "PD104", 3),
            ("interface a { void f(); };\n"
             "interface b : a {\n readonly attribute long f; };", "PD104", 2),
            ("interface i { void f()\n raises (::nowhere); };", "PD106", 2),
            ("interface i {\n oneway void f(inout long x); };", "PD107", 2),
        ],
    )
    def test_errors_carry_their_lint_rule(self, source, rule, line):
        with pytest.raises(IdlSemanticError) as err:
            analyze_idl(source)
        assert (err.value.rule, err.value.line) == (rule, line)
        assert err.value.hint

    def test_redefining_inherited_op(self):
        with pytest.raises(IdlSemanticError, match="redefines"):
            analyze_idl(
                """
                interface a { void f(); };
                interface b : a { void f(); };
                """
            )

    def test_duplicate_op(self):
        with pytest.raises(IdlSemanticError, match="declared twice"):
            analyze_idl("interface i { void f(); void f(); };")

    def test_inheriting_non_interface(self):
        with pytest.raises(IdlSemanticError, match="not an interface"):
            analyze_idl("typedef long t; interface i : t {};")

    def test_duplicate_base(self):
        with pytest.raises(IdlSemanticError, match="twice"):
            analyze_idl(
                "interface a {}; interface b : a, a {};"
            )

    def test_oneway_rules(self):
        with pytest.raises(IdlSemanticError, match="oneway"):
            analyze_idl("interface i { oneway long f(); };")
        with pytest.raises(IdlSemanticError, match="oneway"):
            analyze_idl(
                "interface i { oneway void f(out long x); };"
            )

    def test_raises_must_name_exception(self):
        with pytest.raises(IdlSemanticError, match="not an exception"):
            analyze_idl(
                "typedef long t; interface i { void f() raises (t); };"
            )

    def test_attributes_become_operations(self):
        unit = analyze_idl(
            """
            interface i {
                attribute long counter;
                readonly attribute double level;
            };
            """
        )
        ops = unit.interfaces()[0].all_operations
        assert "_get_counter" in ops and "_set_counter" in ops
        assert "_get_level" in ops and "_set_level" not in ops

    def test_interface_as_parameter_type(self):
        unit = analyze_idl(
            """
            interface peer {};
            interface i { void connect(in peer other); };
            """
        )
        op = unit.interfaces()[1].all_operations["connect"]
        assert op.params[0].typecode.kind == "objref"


class TestTypeRules:
    def test_dsequence_needs_numeric_element(self):
        with pytest.raises(IdlSemanticError, match="fixed-width"):
            analyze_idl("typedef dsequence<string> bad;")

    def test_dsequence_struct_element_rejected(self):
        with pytest.raises(IdlSemanticError, match="fixed-width"):
            analyze_idl(
                "struct s { long x; }; typedef dsequence<s> bad;"
            )

    def test_dsequence_cannot_nest_in_struct(self):
        with pytest.raises(IdlSemanticError, match="struct"):
            analyze_idl(
                """
                typedef dsequence<double> d;
                struct s { d member; };
                """
            )

    def test_dsequence_template_recorded(self):
        unit = analyze_idl(
            "typedef dsequence<double, 8, proportions(2, 4, 2)> t;"
        )
        entity = unit.find("t")
        assert entity.typecode.template == ("proportions", (2, 4, 2))

    def test_zero_proportions_rejected(self):
        with pytest.raises(IdlSemanticError, match="positive"):
            analyze_idl("typedef dsequence<double, proportions(0, 0)> t;")

    def test_sequence_of_void_rejected(self):
        # 'void' is not a type_spec, so this fails in the parser; the
        # semantic guard is reached through a typedef of an operation
        # return — verify via arrays instead.
        unit = analyze_idl("typedef long grid[4][2];")
        tc = unit.find("grid").typecode
        assert isinstance(tc, ArrayTC) and tc.length == 4
        assert isinstance(tc.element, ArrayTC) and tc.element.length == 2

    def test_struct_member_arrays(self):
        unit = analyze_idl("struct s { double row[8]; };")
        tc = unit.find("s").typecode
        assert isinstance(tc, StructTC)
        assert isinstance(tc.fields[0][1], ArrayTC)

    def test_duplicate_struct_member(self):
        with pytest.raises(IdlSemanticError, match="declared twice"):
            analyze_idl("struct s { long x; double x; };")

    def test_bounds_from_constants(self):
        unit = analyze_idl(
            """
            const long N = 1 << 10;
            typedef dsequence<double, N> t;
            typedef sequence<long, N / 2> u;
            """
        )
        assert unit.find("t").typecode.bound == 1024
        assert unit.find("u").typecode.bound == 512

    def test_nonpositive_bound_rejected(self):
        with pytest.raises(IdlSemanticError, match="positive"):
            analyze_idl("typedef sequence<long, 0> t;")

    def test_non_integer_bound_rejected(self):
        with pytest.raises(IdlSemanticError, match="integer"):
            analyze_idl("typedef sequence<long, 1.5> t;")


class TestConstants:
    def value(self, decls, name="x"):
        unit = analyze_idl(decls)
        entity = unit.find(name)
        assert isinstance(entity, ConstEntity)
        return entity.value

    def test_arithmetic(self):
        assert self.value("const long x = 2 + 3 * 4;") == 14
        assert self.value("const long x = (2 + 3) * 4;") == 20
        assert self.value("const long x = 7 / 2;") == 3
        assert self.value("const long x = 7 % 2;") == 1
        assert self.value("const double x = 7.0 / 2;") == 3.5

    def test_bitwise(self):
        assert self.value("const long x = 1 << 4 | 3;") == 19
        assert self.value("const long x = 0xFF & 0x0F;") == 0x0F
        assert self.value("const long x = 5 ^ 1;") == 4
        assert self.value("const long x = ~0;") == -1

    def test_reference_chains(self):
        assert (
            self.value(
                "const long a = 6; const long b = a * 7; "
                "const long x = b - 2;"
            )
            == 40
        )

    def test_string_concat(self):
        assert (
            self.value('const string x = "foo" + "bar";') == "foobar"
        )

    def test_enum_member_as_constant(self):
        value = self.value(
            "enum color { RED, GREEN }; const color x = GREEN;"
        )
        assert value == "GREEN"

    def test_range_check(self):
        with pytest.raises(IdlSemanticError, match="out of range"):
            analyze_idl("const short x = 70000;")

    def test_type_mismatch(self):
        with pytest.raises(IdlSemanticError, match="integer"):
            analyze_idl('const long x = "nope";')
        with pytest.raises(IdlSemanticError, match="TRUE or FALSE"):
            analyze_idl("const boolean x = 1;")

    def test_division_by_zero(self):
        with pytest.raises(IdlSemanticError, match="zero"):
            analyze_idl("const long x = 1 / 0;")

    def test_unknown_const_ref(self):
        with pytest.raises(IdlSemanticError, match="not a constant"):
            analyze_idl("const long x = missing;")

    def test_bad_operand_types(self):
        with pytest.raises(IdlSemanticError):
            analyze_idl('const long x = "a" * 2;')
        with pytest.raises(IdlSemanticError):
            analyze_idl("const long x = 1.5 << 2;")
