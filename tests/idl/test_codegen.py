"""Code-generation tests: the shape and behaviour of generated modules."""

import numpy as np
import pytest

from repro.cdr import decode_value, encode_value
from repro.cdr.typecodes import DSequenceTC, StructTC
from repro.dist import DistributedSequence, Proportions
from repro.idl import compile_idl, compile_idl_module, generate_python
from repro.idl.errors import IdlSemanticError
from repro.orb.adapter import Servant
from repro.orb.operation import UserException
from repro.orb.proxy import ClientProxy

PAPER_IDL = """
typedef dsequence<double, 1024> diff_array;
interface diff_object {
    void diffusion(in long timestep, inout diff_array darray);
};
"""


class TestGeneratedModule:
    def test_paper_example_compiles(self):
        compiled = compile_idl(PAPER_IDL)
        assert issubclass(compiled.diff_object, ClientProxy)
        assert issubclass(compiled.diff_object_skel, Servant)
        assert compiled.diff_array.bound == 1024

    def test_generated_source_is_python(self):
        text = generate_python(PAPER_IDL)
        compile(text, "<test>", "exec")
        assert "class diff_object(_ClientProxy):" in text
        assert "class diff_object_skel(_Servant):" in text

    def test_all_lists_public_names(self):
        compiled = compile_idl(PAPER_IDL)
        assert sorted(compiled.module.__all__) == [
            "diff_array",
            "diff_object",
            "diff_object_skel",
        ]

    def test_proxy_has_blocking_and_nb_methods(self):
        compiled = compile_idl(PAPER_IDL)
        assert hasattr(compiled.diff_object, "diffusion")
        assert hasattr(compiled.diff_object, "diffusion_nb")

    def test_operations_table(self):
        compiled = compile_idl(PAPER_IDL)
        plan = compiled.diff_object._operations["diffusion"]
        assert [d[1] for d in plan.dist_request] == ["darray"]
        assert compiled.diff_object._repo_id == "IDL:diff_object:1.0"

    def test_skeleton_shares_operation_table(self):
        compiled = compile_idl(PAPER_IDL)
        assert (
            compiled.diff_object._operations
            is compiled.diff_object_skel._operations
        )

    def test_compile_idl_module_registers(self):
        import sys

        module = compile_idl_module(PAPER_IDL, "test_pardis_gen")
        try:
            assert sys.modules["test_pardis_gen"] is module
        finally:
            del sys.modules["test_pardis_gen"]

    def test_missing_attribute_message(self):
        compiled = compile_idl(PAPER_IDL)
        with pytest.raises(AttributeError, match="no name"):
            compiled.not_there

    def test_keyword_collision_rejected(self):
        with pytest.raises(IdlSemanticError, match="keyword"):
            compile_idl("typedef long lambda;")


class TestTypedefs:
    def test_plain_typedef_is_typecode(self):
        compiled = compile_idl("typedef sequence<long> numbers;")
        data = decode_value(
            compiled.numbers, encode_value(compiled.numbers, [1, 2, 3])
        )
        np.testing.assert_array_equal(data, [1, 2, 3])

    def test_dsequence_factory_create(self):
        compiled = compile_idl("typedef dsequence<double, 64> t;")
        seq = compiled.t.create()
        assert isinstance(seq, DistributedSequence)
        assert seq.length() == 64

    def test_dsequence_unbounded_needs_length(self):
        compiled = compile_idl("typedef dsequence<double> t;")
        with pytest.raises(ValueError, match="length"):
            compiled.t.create()
        assert compiled.t.create(10).length() == 10

    def test_dsequence_preset_distribution_is_frozen(self):
        from repro.rts import spmd_run

        compiled = compile_idl(
            "typedef dsequence<double, 12, proportions(1, 2, 3)> t;"
        )
        assert compiled.t.preset_template == Proportions(1, 2, 3)

        def body(ctx):
            seq = compiled.t.create(comm=ctx.comm)
            assert seq.frozen
            return seq.local_length()

        # The preset binds a matching 3-thread group...
        assert spmd_run(3, body) == [2, 4, 6]
        with pytest.raises(ValueError, match="preset"):
            compiled.t.create(template=Proportions(1, 1, 1))

    def test_dsequence_preset_ignored_for_other_group_sizes(self):
        from repro.rts import spmd_run

        compiled = compile_idl(
            "typedef dsequence<double, 12, proportions(1, 2, 3)> t;"
        )
        # ... but a 2-thread client falls back to blockwise and stays
        # redistributable (the preset describes the other party).
        def body(ctx):
            seq = compiled.t.create(comm=ctx.comm)
            assert not seq.frozen
            return seq.local_length()

        assert spmd_run(2, body) == [6, 6]
        # Serial (non-distributed mapping): everything local.
        serial = compiled.t.create()
        assert serial.local_length() == 12
        assert not serial.frozen

    def test_dsequence_adopt_casts_dtype(self):
        compiled = compile_idl("typedef dsequence<float> t;")
        seq = compiled.t.adopt([1, 2, 3])
        assert seq.dtype == np.float32

    def test_dsequence_element_types(self):
        compiled = compile_idl(
            """
            typedef dsequence<long> ints;
            typedef dsequence<octet> bytes_;
            """
        )
        assert compiled.ints.dtype == np.int32
        assert compiled.bytes_.dtype == np.uint8


class TestStructsEnumsExceptions:
    def test_struct_factory(self):
        compiled = compile_idl("struct point { double x; double y; };")
        value = compiled.point(1.0, y=2.0)
        assert value == {"x": 1.0, "y": 2.0}
        assert isinstance(compiled.point.typecode, StructTC)

    def test_struct_factory_validation(self):
        compiled = compile_idl("struct point { double x; double y; };")
        with pytest.raises(TypeError, match="missing"):
            compiled.point(1.0)
        with pytest.raises(TypeError, match="no field"):
            compiled.point(x=1.0, y=2.0, z=3.0)
        with pytest.raises(TypeError, match="twice"):
            compiled.point(1.0, x=2.0, y=0.0)

    def test_enum_class(self):
        compiled = compile_idl("enum color { RED, GREEN, BLUE };")
        assert compiled.color.GREEN == "GREEN"
        assert compiled.color._members == ("RED", "GREEN", "BLUE")

    def test_exception_class(self):
        compiled = compile_idl(
            "exception failed { long code; string why; };"
        )
        exc = compiled.failed(code=7, why="broken")
        assert isinstance(exc, UserException)
        assert exc.code == 7 and exc.why == "broken"
        assert exc.members() == {"code": 7, "why": "broken"}
        assert "failed" in str(exc)

    def test_an_operation_plan_holds_its_exception_classes(self):
        compiled = compile_idl(
            "exception lost {}; exception gone {};"
            "interface finder { void find() raises (lost, gone); };"
        )
        assert compiled.finder._operations["find"].exceptions == {
            "IDL:lost:1.0": compiled.lost,
            "IDL:gone:1.0": compiled.gone,
        }

    def test_consts(self):
        compiled = compile_idl(
            """
            const long SIZE = 1 << 8;
            const string NAME = "pardis";
            const boolean ON = TRUE;
            """
        )
        assert compiled.SIZE == 256
        assert compiled.NAME == "pardis"
        assert compiled.ON is True


class TestModulesAndInheritance:
    def test_module_namespace(self):
        compiled = compile_idl(
            """
            module sim {
                enum phase { INIT, RUN };
                interface engine { void step(); };
            };
            """
        )
        assert compiled.sim.phase.RUN == "RUN"
        assert issubclass(compiled.sim.engine, ClientProxy)
        assert issubclass(compiled.sim.engine_skel, Servant)

    def test_nested_modules(self):
        compiled = compile_idl(
            "module a { module b { const long N = 3; }; };"
        )
        assert compiled.a.b.N == 3

    def test_proxy_inheritance_mirrors_idl(self):
        compiled = compile_idl(
            """
            interface base { void ping(); };
            interface derived : base { void pong(); };
            """
        )
        assert issubclass(compiled.derived, compiled.base)
        assert issubclass(compiled.derived_skel, compiled.base_skel)
        assert hasattr(compiled.derived, "ping")

    def test_interface_scoped_types(self):
        compiled = compile_idl(
            """
            interface box {
                enum state { OPEN, SHUT };
                state query();
            };
            """
        )
        spec = compiled.box._operations["query"].spec
        assert spec.return_tc.kind == "enum"

    def test_attribute_properties(self):
        compiled = compile_idl(
            "interface i { attribute long counter; };"
        )
        assert isinstance(compiled.i.counter, property)
