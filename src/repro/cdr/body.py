"""Compiled message bodies: the fixed prefix is one ``struct`` each way.

A request or reply body is a CDR stream of one operation's values in
slot order.  Its members up to the first one that is not a fixed-width
number sit at offsets known once the operation is, so — like a message
head (:mod:`repro.cdr.head`) — they are one ``struct.Struct`` per byte
order: the flag octet, explicit pads to each member's CDR alignment,
the members.  Generic typecode walking starts only behind them.

Nothing here is visible on the wire or to a caller: the octets, the
decoded values, every :class:`~repro.cdr.typecodes.MarshalError` and
the copy-account totals are the member-by-member walk's.  A value the
fast path would not pack as is — ``bool`` for a number, a NumPy
scalar, anything out of range or of another type — and a body too
short for the prefix are handed to that walk, which converts or
rejects them exactly as it always has.
"""

from __future__ import annotations

import struct
import sys
from typing import Any, Sequence

import numpy as np

from repro.cdr.accounting import copied
from repro.cdr.decoder import CdrDecoder
from repro.cdr.encoder import CdrEncoder
from repro.cdr.typecodes import BasicTC, TypeCode

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
            fields = self._structs[body[0] != 0].unpack_from(body)
        except (struct.error, IndexError):
            # Short: the walk raises the error it always raised.
            values = [None] * len(self.typecodes)
            start, members = 1, self._members
        else:
            values = [*fields[1:], *self._unset]
            start, members = self._structs[0].size, self._tail
            if not members:
                return values
        dec = CdrDecoder(body, owned=True, start=start)
        for i, typecode in members:
            values[i] = dec.read(typecode)
        for i in self._detach:
            value = values[i]
            if isinstance(value, np.ndarray) and not value.flags.writeable:
                copied(value.nbytes)
                values[i] = value.copy()
        return values
