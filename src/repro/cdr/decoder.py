"""CDR decoder: the inverse of :mod:`repro.cdr.encoder`.

Reads the byte-order flag octet first, then honours the sender's
endianness for every primitive — a little-endian client can talk to a
big-endian server, which is the heterogeneity CORBA's CDR exists for.

The decoder is *zero-copy*: it walks a :class:`memoryview` of the
stream, :meth:`CdrDecoder.read_octets` returns sub-views, and numeric
element runs come back as ``np.frombuffer`` **views** into the stream.
Views are read-only — a decoded array can never corrupt a buffer
someone else still reads or reuses — unless the caller declares the
stream ``owned``: then a writable buffer stays writable through the
large runs decoded from it, and whoever receives one may keep it as
its own (``docs/performance.md``, "Ownership").  A caller that needs a
private writable array of anything else calls ``.copy()``.  The
decoder itself copies only on the cross-endian path.  A view pins the
underlying buffer alive via the buffer protocol, so handing views out
is safe even for transient receive buffers.
"""

from __future__ import annotations

import struct
import sys
from typing import Any

import numpy as np

from repro.cdr import typecodes as tc
from repro.cdr.accounting import copied
from repro.cdr.head import octet_run, octets
from repro.cdr.typecodes import MarshalError, TypeCode

_NATIVE_LITTLE = sys.byteorder == "little"

#: One compiled ``struct.Struct`` per (byte order, primitive format):
#: the byte-order flag picks a table once per stream, a primitive read
#: is then a dict hit and an ``unpack_from`` at the aligned offset.
_STRUCTS = {
    little: {
        fmt: struct.Struct(("<" if little else ">") + fmt)
        for fmt in "BhHiIqQfd"
    }
    for little in (False, True)
}


class CdrDecoder:
    """A read-once CDR stream over ``data`` (bytes-like).

    ``owned=True`` declares that nobody but the caller can reach
    ``data``'s memory: if the buffer is writable, so is every octet or
    element run that spans at least half of the stream — the receiver
    of such a run may adopt it in place, and it pins at most twice its
    own bytes.  Shorter runs, and everything decoded from a stream not
    declared owned, are read-only views.  ``start`` is the offset the
    first read begins at: past the flag octet, or past a fixed prefix
    the caller unpacked itself (:mod:`repro.cdr.body`).
    """

    def __init__(
        self, data: Any, *, owned: bool = False, start: int = 1
    ) -> None:
        view = octets(data)
        self._data = view if owned else view.toreadonly()
        self._len = len(self._data)
        if self._len == 0:
            raise MarshalError("empty CDR stream")
        self._pos = start
        self.little_endian = bool(self._data[0])
        self._structs = _STRUCTS[self.little_endian]
        self._unpack_ulong = self._structs["I"].unpack_from

    @property
    def remaining(self) -> int:
        return self._len - self._pos

    def at_end(self) -> bool:
        return self._pos >= self._len

    # -- primitives --------------------------------------------------------

    def align(self, n: int) -> None:
        self._pos += (-self._pos) % n

    def _take(self, n: int) -> int:
        """Bounds-check the next ``n`` octets and step over them;
        returns the offset they start at."""
        pos = self._pos
        end = pos + n
        if end > self._len:
            raise MarshalError(
                f"CDR stream truncated: need {n} octets at offset "
                f"{pos}, have {self._len - pos}"
            )
        self._pos = end
        return pos

    def read_octets(self, n: int) -> memoryview:
        """The next ``n`` octets as a view (no copy): read-only unless
        the stream is owned, writable and at most twice the run."""
        run = octet_run(self._data, self._pos, n)
        self._pos += n
        return run

    def _unpack(self, fmt: str, size: int) -> Any:
        self._pos += (-self._pos) % size
        return self._structs[fmt].unpack_from(
            self._data, self._take(size)
        )[0]

    def read_ulong(self) -> int:
        self._pos += (-self._pos) % 4
        return self._unpack_ulong(self._data, self._take(4))[0]

    def read_long(self) -> int:
        return self._unpack("i", 4)

    def read_string(self) -> str:
        n = self.read_ulong()
        if n == 0:
            raise MarshalError("string length prefix of 0 is malformed")
        pos = self._take(n)
        last = pos + n - 1
        if self._data[last] != 0:
            raise MarshalError("string is not NUL-terminated")
        copied(n - 1)
        try:
            return str(self._data[pos:last], "utf-8")
        except UnicodeDecodeError as exc:
            raise MarshalError(f"string is not UTF-8: {exc}") from None

    def read_boolean(self) -> bool:
        return self._data[self._take(1)] != 0

    # -- typed values --------------------------------------------------------

    def read(self, typecode: TypeCode) -> Any:
        kind = typecode.kind
        if isinstance(typecode, tc.BasicTC):
            return self._read_basic(typecode)
        if kind == "void":
            return None
        if kind == "string":
            value = self.read_string()
            typecode.validate(value)
            return value
        if kind == "enum":
            ordinal = self.read_ulong()
            members = typecode.members  # type: ignore[attr-defined]
            if ordinal >= len(members):
                raise MarshalError(
                    f"enum ordinal {ordinal} out of range for "
                    f"{typecode.name}"  # type: ignore[attr-defined]
                )
            return members[ordinal]
        if kind == "struct":
            return {
                name: self.read(ftc)
                for name, ftc in typecode.fields  # type: ignore[attr-defined]
            }
        if kind == "sequence":
            n = self.read_ulong()
            bound = typecode.bound  # type: ignore[attr-defined]
            if bound is not None and n > bound:
                raise MarshalError(
                    f"sequence of length {n} exceeds bound {bound}"
                )
            return self._read_elements(typecode.element, n)  # type: ignore[attr-defined]
        if kind == "array":
            return self._read_elements(
                typecode.element, typecode.length  # type: ignore[attr-defined]
            )
        if kind == "dsequence":
            n = self.read_ulong()
            if typecode.bound is not None and n > typecode.bound:  # type: ignore[attr-defined]
                raise MarshalError(
                    f"dsequence of length {n} exceeds bound "
                    f"{typecode.bound}"  # type: ignore[attr-defined]
                )
            return self._read_elements(typecode.element, n)  # type: ignore[attr-defined]
        if kind == "union":
            discriminator = self.read(typecode.discriminator)  # type: ignore[attr-defined]
            _member, member_tc = typecode.arm_for(discriminator)  # type: ignore[attr-defined]
            return {"d": discriminator, "v": self.read(member_tc)}
        if kind == "objref":
            return self.read_string()
        if kind == "exception":
            repo_id = self.read_string()
            if repo_id != typecode.repo_id:  # type: ignore[attr-defined]
                raise MarshalError(
                    f"exception id mismatch: stream carries {repo_id!r}, "
                    f"expected {typecode.repo_id!r}"  # type: ignore[attr-defined]
                )
            return {
                name: self.read(ftc)
                for name, ftc in typecode.fields  # type: ignore[attr-defined]
            }
        raise MarshalError(f"cannot unmarshal typecode {typecode!r}")

    def _read_basic(self, typecode: tc.BasicTC) -> Any:
        if typecode.kind == "boolean":
            return self.read_boolean()
        if typecode.kind == "char":
            return chr(self._data[self._take(1)])
        return self._unpack(typecode.fmt, typecode.size)

    def _read_elements(self, element: TypeCode, count: int) -> Any:
        dtype = element.dtype
        if dtype is not None:
            if element.kind != "boolean":
                self.align(element.size)  # type: ignore[attr-defined]
            raw = self.read_octets(count * dtype.itemsize)
            arr = np.frombuffer(raw, dtype=dtype)
            if self.little_endian != _NATIVE_LITTLE:
                # Cross-endian: the one unavoidable copy.
                arr = arr.byteswap()
                copied(arr.nbytes)
            if element.kind == "boolean" and arr.dtype != np.bool_:
                return arr.astype(bool)
            return arr
        return [self.read(element) for _ in range(count)]


def decode_value(typecode: TypeCode, data: Any) -> Any:
    """One-shot helper matching :func:`repro.cdr.encoder.encode_value`."""
    return CdrDecoder(data).read(typecode)
