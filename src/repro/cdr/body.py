"""Compiled message bodies: the fixed prefix is one ``struct`` each way.

A request or reply body is a CDR stream of one operation's values in
slot order.  Its members up to the first one that is not a fixed-width
number sit at offsets known once the operation is, so — like a message
head (:mod:`repro.cdr.head`) — they are one ``struct.Struct`` per byte
order: the flag octet, explicit pads to each member's CDR alignment,
the members.  When the only member behind them is a sequence or
distributed sequence of numbers, its count joins that ``struct`` and
its elements sit at a fixed offset: in the native byte order they
leave as one segment by reference and arrive as one view.  Generic
typecode walking runs only behind the prefix, or for a value the
compiled form does not take.

Nothing here is visible on the wire or to a caller: the octets, the
decoded values, every :class:`~repro.cdr.typecodes.MarshalError` and
the copy-account totals are the member-by-member walk's.  A value the
fast path would not pack as is — ``bool`` for a number, a NumPy
scalar, anything out of range or of another type; an element run that
is not one native-order contiguous array of the element type, such as
a gather's list of pieces; boolean elements — and a body too short for
the prefix or in the other byte order are handed to that walk, which
converts or rejects them exactly as it always has.  A body is exactly
as long as its members: octets behind the last one are a
``MarshalError``.
"""

from __future__ import annotations

import struct
import sys
from typing import Any, Sequence

import numpy as np

from repro.cdr.accounting import copied
from repro.cdr.decoder import CdrDecoder
from repro.cdr.encoder import CdrEncoder
from repro.cdr.head import octet_run, octets
from repro.cdr.typecodes import BasicTC, MarshalError, TypeCode

NATIVE_LITTLE = sys.byteorder == "little"


class BodyCodec:
    """The body of one kind of message of one operation.

    ``typecodes`` has one entry per value position; ``None`` marks a
    position this body does not carry (a distributed value that
    travels outside the frame): it is skipped on encode and decoded as
    ``None``.  Plain sequences of numbers decode as private writable
    arrays — servants and callers may keep or mutate them, so they
    must not alias a receive buffer.
    """

    def __init__(self, typecodes: Sequence[TypeCode | None]) -> None:
        self.typecodes = tuple(typecodes)
        fmt, end, checks = "B", 1, []
        for typecode in self.typecodes:
            if not isinstance(typecode, BasicTC) or typecode.dtype is None:
                break
            pad = -end % typecode.size
            fmt += "x" * pad + ("?" if typecode.kind == "boolean" else typecode.fmt)
            end += pad + typecode.size
            checks.append(typecode.exact)
        self._structs = (struct.Struct(">" + fmt), struct.Struct("<" + fmt))
        self._checks = tuple(checks)
        self._unset = (None,) * (len(self.typecodes) - len(checks))
        members = [(i, tc) for i, tc in enumerate(self.typecodes) if tc is not None]
        self._members = tuple(members)
        self._tail = tuple(members[len(checks):])
        self._detach = tuple(
            i for i, tc in self._tail
            if tc.kind in ("sequence", "array") and tc.element.dtype is not None
        )
        #: A trailing numeric (d)sequence, compiled for the native byte
        #: order: ``(position, bound, dtype, kind, element offset,
        #: struct)``, the ``struct`` being the prefix's with the count
        #: and the pad to the elements behind it; else ``None``.
        self._sequence = None
        if len(self._tail) == 1:
            i, typecode = self._tail[0]
            element = getattr(typecode, "element", None)
            if (
                typecode.kind in ("sequence", "dsequence")
                and element.dtype is not None
                and element.kind != "boolean"
            ):
                pad = -end % 4
                end += pad + 4
                fmt += "x" * pad + "I" + "x" * (-end % element.size)
                end += -end % element.size
                self._sequence = (
                    i, typecode.bound, element.dtype, typecode.kind, end,
                    struct.Struct(("<" if NATIVE_LITTLE else ">") + fmt),
                )

    def encode(self, values: Sequence[Any], little: bool = NATIVE_LITTLE) -> Any:
        """``values`` as a body in the given byte order: ``bytes`` when
        every member is in the prefix, else a
        :class:`~repro.cdr.encoder.CdrEncoder` (its segments go out by
        reference)."""
        opening, members = b"", self._members
        for value, (kind, lo, hi) in zip(values, self._checks):
            if type(value) is not kind or not lo <= value <= hi:
                break
        else:
            sequence = self._sequence
            if sequence is not None and little is NATIVE_LITTLE:
                i, bound, dtype, _kind, _offset, packer = sequence
                run = values[i]
                if (
                    type(run) is np.ndarray
                    and run.dtype == dtype
                    and run.ndim == 1
                    and run.flags.c_contiguous
                    and (bound is None or len(run) <= bound)
                ):
                    try:
                        opening = packer.pack(
                            little, *values[: len(self._checks)], len(run)
                        )
                    except struct.error:
                        pass  # the walk converts or rejects it
                    else:
                        enc = CdrEncoder(little, opening)
                        enc.write_octets_view(memoryview(run).cast("B"))
                        return enc
            try:
                opening = self._structs[little].pack(
                    little, *values[: len(self._checks)]
                )
                members = self._tail
            except struct.error:
                pass  # the walk converts or rejects it
        if opening and not members:
            return opening
        enc = CdrEncoder(little, opening)
        for i, typecode in members:
            enc.write(typecode, values[i])
        return enc

    def decode(self, body: Any) -> list[Any]:
        """A body's values, in slot order.  Numeric sequences of a
        distributed position come back as views into ``body``'s buffer
        — writable, for whoever adopts them, when ``body`` is a receive
        buffer this side owns."""
        try:
            little = body[0] != 0
            if little is NATIVE_LITTLE and self._sequence is not None:
                return self._decode_sequence(body)
            fields = self._structs[little].unpack_from(body)
        except (struct.error, IndexError):
            # Short: the walk raises the error it always raised.
            values = [None] * len(self.typecodes)
            start, members = 1, self._members
        else:
            values = [*fields[1:], *self._unset]
            start, members = self._structs[0].size, self._tail
            if not members:
                if len(body) > start:
                    raise MarshalError(
                        f"{len(body) - start} trailing octets behind the message"
                    )
                return values
        dec = CdrDecoder(body, owned=True, start=start)
        for i, typecode in members:
            values[i] = dec.read(typecode)
        if dec.remaining:
            raise MarshalError(
                f"{dec.remaining} trailing octets behind the message"
            )
        for i in self._detach:
            value = values[i]
            if isinstance(value, np.ndarray) and not value.flags.writeable:
                copied(value.nbytes)
                values[i] = value.copy()
        return values

    def _decode_sequence(self, body: Any) -> list[Any]:
        """A native-order body with a compiled trailing sequence: one
        ``unpack``, then its elements as one view at their offset."""
        i, bound, dtype, kind, offset, packer = self._sequence
        data = octets(body)
        fields = packer.unpack_from(data)
        n = fields[-1]
        if bound is not None and n > bound:
            raise MarshalError(f"{kind} of length {n} exceeds bound {bound}")
        run = np.frombuffer(
            octet_run(data, offset, n * dtype.itemsize, last=True), dtype
        )
        if kind == "sequence" and not run.flags.writeable:
            copied(run.nbytes)
            run = run.copy()
        values = [*fields[1:-1], *self._unset]
        values[i] = run
        return values
