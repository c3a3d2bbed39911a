"""Direct unit tests of the TypeCode layer (validation, metadata)."""

import numpy as np
import pytest

from repro.cdr import typecodes
from repro.cdr.typecodes import (
    ArrayTC,
    BasicTC,
    DSequenceTC,
    EnumTC,
    MarshalError,
    SequenceTC,
    StringTC,
    StructTC,
    TC_BOOLEAN,
    TC_CHAR,
    TC_DOUBLE,
    TC_LONG,
    TC_OCTET,
    TC_SHORT,
    TC_STRING,
    TC_ULONG,
    TC_VOID,
    fixed_width,
)


class TestBasicMetadata:
    def test_sizes_and_alignment(self):
        assert TC_SHORT.size == 2 and TC_SHORT.alignment == 2
        assert TC_LONG.size == 4
        assert TC_DOUBLE.size == 8
        assert TC_OCTET.size == 1

    def test_dtypes(self):
        assert TC_LONG.dtype == np.int32
        assert TC_DOUBLE.dtype == np.float64
        assert TC_CHAR.dtype is None  # no bulk fast path

    def test_the_dtype_is_built_once(self, monkeypatch):
        """At construction, like ``exact``: the marshalling paths read
        it for every value."""
        assert TC_DOUBLE.dtype is TC_DOUBLE.dtype
        monkeypatch.setattr(typecodes.np, "dtype", None)  # any call fails
        assert TC_DOUBLE.dtype == np.float64 and TC_LONG.dtype == np.int32

    def test_fixed_width_predicate(self):
        assert fixed_width(TC_DOUBLE)
        assert fixed_width(TC_BOOLEAN)
        assert not fixed_width(TC_STRING)
        assert not fixed_width(StructTC("s", (("x", TC_LONG),)))

    def test_integer_range_validation(self):
        TC_SHORT.validate(-(2**15))
        TC_SHORT.validate(2**15 - 1)
        with pytest.raises(MarshalError):
            TC_SHORT.validate(2**15)
        TC_ULONG.validate(2**32 - 1)
        with pytest.raises(MarshalError):
            TC_ULONG.validate(-1)

    def test_numpy_scalars_validate(self):
        TC_LONG.validate(np.int64(12))
        with pytest.raises(MarshalError):
            TC_LONG.validate(np.int64(2**40))

    def test_float_kinds_skip_range_validation(self):
        TC_DOUBLE.validate(1e308)  # no signedness → no range check

    def test_void_rejects_values(self):
        TC_VOID.validate(None)
        with pytest.raises(MarshalError):
            TC_VOID.validate(0)

    def test_repr_shows_kind(self):
        assert "double" in repr(TC_DOUBLE)
        assert "string" in repr(TC_STRING)


class TestConstructedMetadata:
    def test_string_bound(self):
        StringTC(3).validate("abc")
        with pytest.raises(MarshalError):
            StringTC(3).validate("abcd")
        with pytest.raises(MarshalError):
            TC_STRING.validate(42)

    def test_enum_ordinal_both_ways(self):
        color = EnumTC("c", ("R", "G"))
        assert color.ordinal("G") == 1
        assert color.ordinal(0) == 0
        with pytest.raises(MarshalError):
            color.ordinal("B")
        with pytest.raises(MarshalError):
            color.ordinal(2)
        with pytest.raises(MarshalError):
            color.ordinal(1.5)

    def test_struct_field_validation(self):
        point = StructTC("p", (("x", TC_LONG),))
        point.validate({"x": 1})
        with pytest.raises(MarshalError, match="missing"):
            point.validate({})
        with pytest.raises(MarshalError, match="unknown"):
            point.validate({"x": 1, "q": 2})

    def test_sequence_bound(self):
        seq = SequenceTC(TC_LONG, bound=2)
        seq.validate([1, 2])
        with pytest.raises(MarshalError):
            seq.validate([1, 2, 3])
        with pytest.raises(MarshalError):
            seq.validate(5)  # not sized

    def test_array_exact_length(self):
        arr = ArrayTC(TC_LONG, 3)
        arr.validate([1, 2, 3])
        with pytest.raises(MarshalError):
            arr.validate([1])

    def test_dsequence_metadata(self):
        ds = DSequenceTC(TC_DOUBLE, 128, ("proportions", (1, 2)))
        assert ds.element_dtype == np.float64
        assert ds.bound == 128
        assert ds.template == ("proportions", (1, 2))

    def test_dsequence_validates_length_and_shape(self):
        from repro.dist import DistributedSequence

        ds = DSequenceTC(TC_DOUBLE, bound=4)
        ds.validate(DistributedSequence(4))
        with pytest.raises(MarshalError):
            ds.validate(DistributedSequence(5, bound=None))
        with pytest.raises(MarshalError):
            ds.validate([1.0, 2.0])  # not sequence-like

    def test_custom_basic_tc_defaults(self):
        # The keyword-constructed defaults exist only so dataclass
        # inheritance works; a bare BasicTC is an octet-shaped cell.
        cell = BasicTC()
        assert cell.size == 1
