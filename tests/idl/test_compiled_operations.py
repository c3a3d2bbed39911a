"""Compiled operation bodies against the interpreter they replaced.

Every operation compiled from the IDL in ``examples/*.py``, in the
test suite's fixtures and in the ORB's own naming interface gets an
:class:`~repro.orb.operation.OperationPlan` whose body codecs pack the
fixed prefix with one ``struct``.  None of that may be visible: the
reference here is the body codec as the engines ran it before — one
``CdrEncoder.write``/``CdrDecoder.read`` per slot, then the copy of
read-only plain arrays — and every case demands, in both byte orders,
the same octets, the same decoded values, the same error (type and
text) and the same copy-account totals per message.
"""

import ast
import pathlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import compile_idl
from repro.cdr import CdrDecoder, CdrEncoder, copy_audit
from repro.cdr.accounting import copied
from repro.cdr.typecodes import (
    ArrayTC,
    BasicTC,
    DSequenceTC,
    EnumTC,
    ObjRefTC,
    SequenceTC,
    StringTC,
    StructTC,
    UnionTC,
)
from repro.idl.errors import IdlError
from repro.lint.embedded import find_embedded_idl

ROOT = pathlib.Path(__file__).resolve().parents[2]

#: Every prefix member kind, pads between all widths, and tails that
#: start at a string, a struct, a plain numeric sequence or a
#: distributed slot — shapes the examples happen not to have.
SHAPES_IDL = """
typedef sequence<double> doubles;
typedef sequence<long> longs;
typedef sequence<octet> octs;
typedef sequence<boolean> bools;
typedef dsequence<double> dvec;
typedef long quad[4];
struct point { double x; double y; };
enum color { RED, GREEN };
interface shapes {
    boolean flags(in boolean a, in octet b, in boolean c, in short d);
    double mixed(in octet a, in double b, in short c, in unsigned long long d,
                 in float e, in char f, in long g);
    unsigned short widths(in unsigned short a, in long long b,
                          in unsigned long c, out float f);
    doubles arrays(in doubles a, in longs b, in octs c, in bools t, in quad q,
                   out longs o);
    point tail(in long a, in string s, in point p, in color c, in double d);
    void dist_first(in dvec v, in long a, inout doubles d, out dvec o);
};
"""


def _idl_sources():
    """Every IDL text the examples, the tests and the ORB compile."""
    files = (
        sorted(ROOT.glob("examples/*.py"))
        + sorted(ROOT.glob("tests/**/*.py"))
        + [ROOT / "src/repro/orb/nameservice.py"]
    )
    for path in files:
        if path.name == pathlib.Path(__file__).name:
            continue  # SHAPES_IDL, below
        for unit in find_embedded_idl(ast.parse(path.read_text())):
            yield f"{path.relative_to(ROOT)}:{unit.lineno}", unit.text
    for path in sorted(ROOT.glob("tests/**/*.idl")):
        yield str(path.relative_to(ROOT)), path.read_text()
    yield "SHAPES_IDL", SHAPES_IDL


def _plans():
    plans = {}
    for n, (where, text) in enumerate(_idl_sources()):
        try:
            compiled = compile_idl(text, module_name=f"compiled_ops_{n}")
        except IdlError:
            continue  # a deliberately invalid unit
        for value in vars(compiled.module).values():
            for op, plan in getattr(value, "_operations", {}).items():
                plans[f"{where}:{op}"] = plan
    return plans


PLANS = _plans()


def _codecs():
    """One case per distinct body shape (most operations share one)."""
    cases = {}
    for where, plan in PLANS.items():
        for kind, pair in (("request", plan.request), ("reply", plan.reply)):
            for codec in pair:
                key = repr(codec.typecodes)
                cases.setdefault(key, (f"{where}:{kind}", codec))
    return list(cases.values())


CODECS = _codecs()


def test_the_corpus_is_the_one_meant():
    """The examples' operations are all here, including the bench-like
    ``long bump(long)`` and ones with a variable tail and distributed
    slots."""
    assert len(PLANS) > 100
    assert any(":bump" in where for where in PLANS)
    shapes = [codec.typecodes for _where, codec in CODECS]
    assert any(None in shape for shape in shapes)
    assert any(
        any(isinstance(tc, StringTC) for tc in shape) for shape in shapes
    )


# -- the interpreter (the engines' body codec before plans) ------------------


def reference_encode(typecodes, values, little):
    enc = CdrEncoder(little)
    for typecode, value in zip(typecodes, values):
        if typecode is not None:
            enc.write(typecode, value)
    return enc


def reference_decode(typecodes, body):
    dec = CdrDecoder(body, owned=True)
    values = [None if tc is None else dec.read(tc) for tc in typecodes]
    for i, typecode in enumerate(typecodes):
        value = values[i]
        if (
            typecode is not None
            and not isinstance(typecode, DSequenceTC)
            and isinstance(value, np.ndarray)
            and not value.flags.writeable
        ):
            copied(value.nbytes)
            values[i] = value.copy()
    return values


# -- values, valid and not -------------------------------------------------


def _numbers(tc):
    if tc.kind == "boolean":
        return st.booleans()
    if tc.signed is None:
        return st.floats(width=32 if tc.size == 4 else 64, allow_nan=False)
    _kind, lo, hi = tc.exact
    return st.integers(lo, hi)


def values_for(tc):
    """Values a caller might pass for ``tc``: mostly valid, and the
    invalid ones a fast path could get wrong."""
    if isinstance(tc, BasicTC):
        if tc.kind == "char":
            return st.one_of(st.characters(max_codepoint=255), st.text(max_size=2))
        valid = st.just(None) if tc.dtype is None else _numbers(tc)
        bad = st.one_of(
            st.integers(-(1 << 70), 1 << 70),  # out of range
            st.booleans(),
            st.floats(allow_nan=True),
            st.sampled_from(["7", None, b"1", [1]]),  # wrong type
            _numbers(tc).map(lambda v: tc.dtype.type(v)),  # NumPy scalar
            st.sampled_from([np.int64(2**40), np.float64(1.5), np.bool_(True)]),
        )
        return st.one_of(valid, valid, bad)
    if isinstance(tc, StringTC):
        return st.one_of(st.text(max_size=6), st.integers(0, 3))
    if isinstance(tc, EnumTC):
        return st.one_of(
            st.sampled_from(tc.members), st.integers(-1, len(tc.members))
        )
    if isinstance(tc, (SequenceTC, ArrayTC, DSequenceTC)):
        size = dict(min_size=tc.length, max_size=tc.length) if isinstance(
            tc, ArrayTC
        ) else dict(max_size=4)
        element = tc.element
        if element.dtype is not None:
            items = st.lists(_numbers(element), **size)
            return st.one_of(items, items.map(
                lambda v: np.array(v, dtype=element.dtype)
            ))
        return st.lists(values_for(element), **size)
    if isinstance(tc, StructTC):
        return st.fixed_dictionaries(
            {name: values_for(ftc) for name, ftc in tc.fields}
        )
    if isinstance(tc, UnionTC):
        return st.sampled_from(tc.cases).flatmap(
            lambda case: st.fixed_dictionaries(
                {"d": st.just(case[0]), "v": values_for(case[2])}
            )
        )
    if isinstance(tc, ObjRefTC):
        return st.text(max_size=6)
    raise AssertionError(f"no values for {tc!r}")


def _outcome(fn):
    try:
        return "ok", fn()
    except Exception as exc:  # noqa: BLE001 - the outcome under test
        return type(exc).__name__, str(exc)


def _flat(body):
    return body if isinstance(body, bytes) else body.getvalue()


def _comparable(values):
    """Decoded values made comparable — arrays with their writability,
    NaN equal to NaN."""
    if isinstance(values, np.ndarray):
        return ("array", str(values.dtype), _comparable(values.tolist()),
                values.flags.writeable)
    if isinstance(values, dict):
        return {k: _comparable(v) for k, v in values.items()}
    if isinstance(values, list):
        return [_comparable(v) for v in values]
    if isinstance(values, float) and values != values:
        return "nan"
    return values


def _audited(fn):
    with copy_audit() as account:
        outcome = _outcome(fn)
    return outcome, account.snapshot()


@pytest.mark.parametrize(
    "codec", [c for _w, c in CODECS], ids=[w for w, _c in CODECS]
)
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data(), little=st.booleans())
def test_compiled_body_is_the_interpreted_one(codec, data, little):
    values = [
        None if tc is None else data.draw(values_for(tc))
        for tc in codec.typecodes
    ]
    (status, new), new_copies = _audited(lambda: codec.encode(values, little))
    (old_status, old), old_copies = _audited(
        lambda: reference_encode(codec.typecodes, values, little)
    )
    assert (status, new_copies) == (old_status, old_copies)
    if status != "ok":
        assert new == old  # the error's text
        return
    wire = _flat(new)
    assert wire == _flat(old)
    assert wire[0] == little
    cut = data.draw(st.integers(0, len(wire)))
    for body in (wire, bytearray(wire), wire[:cut]):
        decoded, copies = _audited(lambda: codec.decode(body))
        expected, expected_copies = _audited(
            lambda: reference_decode(codec.typecodes, body)
        )
        assert copies == expected_copies
        assert decoded[0] == expected[0]
        assert _comparable(decoded[1]) == _comparable(expected[1])
