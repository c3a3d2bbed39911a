"""CDR encoder: TypeCode-driven marshaling into a byte buffer.

Layout rules follow CDR: primitives are aligned to their size relative
to the start of the stream, strings carry a ulong length including the
terminating NUL, sequences a ulong element count, enums travel as
ulong ordinals, arrays are bare element runs, structs are member
concatenations.  The stream's first octet is the byte-order flag
(0 = big endian, 1 = little endian); this encoder always writes the
native order and records which.

The stream is *segment-aware*: small writes accumulate in a bytearray
tail, while large payloads (ndarray element runs, message bodies) are
appended **by reference** as additional segments — no copy is made and
``getvalue()``'s flatten can be skipped entirely by handing
:meth:`CdrEncoder.segments` to a vectored writer
(``socket.sendmsg``).  The zero-copy contract: a buffer appended by
reference must not be mutated until the stream has been sent or
flattened (see ``docs/performance.md``).
"""

from __future__ import annotations

import struct
import sys
from typing import Any

import numpy as np

from repro.cdr import typecodes as tc
from repro.cdr.accounting import copied
from repro.cdr.typecodes import MarshalError, TypeCode

_NATIVE_LITTLE = sys.byteorder == "little"

#: Payloads below this many bytes are cheaper to copy into the tail
#: than to carry as separate segments through a vectored write.
SEGMENT_THRESHOLD = 2048

#: One compiled packer per (byte order, primitive format), the
#: encoder-side twin of the decoder's table.
_PACKERS = {
    little: {
        fmt: struct.Struct(("<" if little else ">") + fmt).pack
        for fmt in "BhHiIqQfd"
    }
    for little in (False, True)
}


class CdrEncoder:
    """An append-only CDR stream.

    The byte-order flag octet is written by :meth:`__init__`, so
    alignment is computed from stream offset 0 exactly as GIOP does
    for message bodies.  ``opening``, when given, is the stream's
    first octets — flag included — already packed by the caller (a
    compiled body's fixed prefix, :mod:`repro.cdr.body`).
    """

    def __init__(
        self, little_endian: bool | None = None, opening: bytes = b""
    ) -> None:
        self.little_endian = (
            _NATIVE_LITTLE if little_endian is None else little_endian
        )
        self._packers = _PACKERS[self.little_endian]
        #: Sealed buffers (bytes / memoryview / bytearray) + open tail.
        self._segments: list[Any] = []
        self._tail = bytearray(opening or (self.little_endian,))
        self._sealed_len = 0

    def __len__(self) -> int:
        return self._sealed_len + len(self._tail)

    def _seal(self) -> None:
        """Close the current tail into the segment list."""
        if self._tail:
            self._segments.append(self._tail)
            self._sealed_len += len(self._tail)
            self._tail = bytearray()

    def segments(self) -> list[Any]:
        """The stream as a buffer list, in order, without flattening.

        Buffers appended by reference are returned as-is; feed the
        list to a vectored writer to send the stream without ever
        joining it.  The encoder remains usable afterwards.
        """
        self._seal()
        return list(self._segments)

    def getvalue(self) -> bytes:
        """Flatten the stream to one bytes object (copies everything)."""
        parts = self.segments()
        if len(parts) == 1 and isinstance(parts[0], bytes):
            return parts[0]
        copied(len(self))
        return b"".join(bytes(p) if not isinstance(p, bytes) else p
                        for p in parts)

    # -- primitives --------------------------------------------------------

    def align(self, n: int) -> None:
        """Pad with zero octets to the next multiple of ``n``."""
        pad = (-len(self)) % n
        if pad:
            self._tail.extend(b"\0" * pad)

    def write_octets(self, data: Any) -> None:
        """Append raw octets by copy (into the tail segment)."""
        copied(len(data))
        self._tail.extend(data)

    def write_octets_view(self, data: Any) -> None:
        """Append raw octets **by reference** when large enough.

        Large buffers become their own segment — zero copies now, and
        none later if the stream is sent vectored.  The caller must
        not mutate ``data`` until the stream is flattened or sent.
        Small buffers fall back to :meth:`write_octets`.
        """
        if len(data) < SEGMENT_THRESHOLD:
            self.write_octets(data)
            return
        self._seal()
        self._segments.append(data)
        self._sealed_len += len(data)

    def _pack(self, fmt: str, size: int, value: Any) -> None:
        tail = self._tail  # align(size), inlined
        pad = (-(self._sealed_len + len(tail))) % size
        if pad:
            tail += b"\0" * pad
        try:
            tail += self._packers[fmt](value)
        except (struct.error, TypeError) as exc:
            raise MarshalError(
                f"cannot marshal {value!r} as '{fmt}': {exc}"
            ) from None

    def write_ulong(self, value: int) -> None:
        if type(value) is not int or not 0 <= value <= 0xFFFFFFFF:
            tc.TC_ULONG.validate(value)
        self._pack("I", 4, value)

    def write_long(self, value: int) -> None:
        if type(value) is not int or not (
            -0x80000000 <= value <= 0x7FFFFFFF
        ):
            tc.TC_LONG.validate(value)
        self._pack("i", 4, value)

    def write_string(self, value: str, bound: int | None = None) -> None:
        if type(value) is not str or (
            bound is not None and len(value) > bound
        ):
            tc.StringTC(bound).validate(value)
        raw = value.encode("utf-8")
        n = len(raw) + 1
        self.write_ulong(n)
        copied(n)
        tail = self._tail
        tail += raw
        tail.append(0)

    def write_boolean(self, value: Any) -> None:
        if isinstance(value, (bool, np.bool_)):
            self._tail.append(1 if value else 0)
            return
        if isinstance(value, (int, np.integer)) and int(value) in (0, 1):
            self._tail.append(int(value))
            return
        raise MarshalError(
            f"boolean expects True/False or 0/1, got {value!r}"
        )

    # -- typed values --------------------------------------------------------

    def write(self, typecode: TypeCode, value: Any) -> None:
        """Marshal ``value`` per ``typecode``."""
        kind = typecode.kind
        if isinstance(typecode, tc.BasicTC):
            self._write_basic(typecode, value)
        elif kind == "void":
            typecode.validate(value)
        elif kind == "string":
            self.write_string(value, typecode.bound)  # type: ignore[attr-defined]
        elif kind == "enum":
            self.write_ulong(typecode.ordinal(value))  # type: ignore[attr-defined]
        elif kind == "struct":
            typecode.validate(value)
            for name, ftc in typecode.fields:  # type: ignore[attr-defined]
                self.write(ftc, value[name])
        elif kind == "sequence":
            self._write_sequence(typecode, value)  # type: ignore[arg-type]
        elif kind == "array":
            typecode.validate(value)
            self._write_elements(typecode.element, value, len(value))  # type: ignore[attr-defined]
        elif kind == "dsequence":
            self._write_dsequence(typecode, value)  # type: ignore[arg-type]
        elif kind == "union":
            typecode.validate(value)
            self.write(typecode.discriminator, value["d"])  # type: ignore[attr-defined]
            _member, member_tc = typecode.arm_for(value["d"])  # type: ignore[attr-defined]
            self.write(member_tc, value["v"])
        elif kind == "objref":
            self.write_string(value if isinstance(value, str) else value.ior())
        elif kind == "exception":
            self._write_exception(typecode, value)  # type: ignore[arg-type]
        else:
            raise MarshalError(f"cannot marshal typecode {typecode!r}")

    def _write_basic(self, typecode: tc.BasicTC, value: Any) -> None:
        if typecode.kind == "boolean":
            self.write_boolean(value)
            return
        if typecode.kind == "char":
            if isinstance(value, str):
                value = value.encode("latin-1")
            if not isinstance(value, bytes) or len(value) != 1:
                raise MarshalError(f"char expects one character, got {value!r}")
            self._tail.extend(value)
            return
        if not typecode.accepts(value):
            typecode.validate(value)
            if isinstance(value, (np.integer, np.floating)):
                value = value.item()
        self._pack(typecode.fmt, typecode.size, value)

    def _write_elements(
        self, element: TypeCode, values: Any, count: int
    ) -> None:
        """Element run shared by sequences and arrays.

        Native-order contiguous ndarrays large enough to matter are
        appended by reference — the zero-copy fast path the transfer
        engines rely on.  Cross-endian streams byteswap (one copy);
        small runs copy into the tail.
        """
        if element.dtype is not None:
            self._write_runs(element, [values], count)
            return
        for value in values:
            self.write(element, value)

    def _write_runs(self, element: TypeCode, runs: list, count: int) -> None:
        """``count`` numeric elements held by ``runs`` back to back:
        one alignment, then each run (by reference where
        :meth:`write_octets_view` allows) — the same octets as the
        runs' concatenation."""
        dtype = element.dtype
        arrs = [np.asarray(run, dtype=dtype) for run in runs]
        if any(a.ndim != 1 for a in arrs) or sum(map(len, arrs)) != count:
            raise MarshalError(
                f"expected {count} elements, got shapes "
                f"{[a.shape for a in arrs]}"
            )
        if element.kind != "boolean":
            self.align(element.size)  # type: ignore[attr-defined]
        for arr in arrs:
            if not self._native_order():
                arr = arr.byteswap()
                copied(arr.nbytes)
            elif not arr.flags.c_contiguous:
                arr = np.ascontiguousarray(arr)
                copied(arr.nbytes)
            self.write_octets_view(memoryview(arr).cast("B"))

    def _native_order(self) -> bool:
        return self.little_endian == _NATIVE_LITTLE

    def _write_sequence(self, typecode: tc.SequenceTC, value: Any) -> None:
        typecode.validate(value)
        n = len(value)
        self.write_ulong(n)
        self._write_elements(typecode.element, value, n)

    def _write_dsequence(self, typecode: tc.DSequenceTC, value: Any) -> None:
        """Materialized (centralized-method) form: length + all elements.

        ``value`` may be a DistributedSequence whose full content is
        locally available, a plain ndarray, or a list of 1-D pieces
        in global order (a gather's views), written as their
        concatenation without making it.
        """
        if not isinstance(value, (list, np.ndarray)):
            typecode.validate(value)
            if value.comm is not None:
                raise MarshalError(
                    "cannot materialize a group-distributed sequence "
                    "inline; the transfer engine must gather it first"
                )
            value = value.local_data()
        pieces = value if isinstance(value, list) else [value]
        length = sum(map(len, pieces))
        if typecode.bound is not None and length > typecode.bound:
            raise MarshalError(
                f"dsequence of length {length} exceeds bound "
                f"{typecode.bound}"
            )
        self.write_ulong(length)
        self._write_runs(typecode.element, pieces, length)

    def _write_exception(self, typecode: tc.ExceptionTC, value: Any) -> None:
        self.write_string(typecode.repo_id)
        members = getattr(value, "members", None)
        mapping = members() if callable(members) else (value or {})
        for name, ftc in typecode.fields:
            self.write(ftc, mapping[name])


def encode_value(typecode: TypeCode, value: Any) -> bytes:
    """One-shot helper: a fresh stream holding just ``value``."""
    encoder = CdrEncoder()
    encoder.write(typecode, value)
    return encoder.getvalue()
