"""Fixed-layout message heads: one ``struct`` each way.

What a frame says about *itself* — ids, counts, lengths, who sent it —
has the same shape in every frame of its kind, so it is not walked
primitive by primitive.  A head is

* the byte-order flag octet every stream here opens with (0 = big
  endian, anything else little), followed in the **same**
  ``struct.Struct`` by every fixed-size field and then by the octet
  length (``ushort``) of each of the head's strings;
* the strings, raw UTF-8, back to back, no terminator;
* zero octets to the next multiple of 8.

Whatever follows — a CDR tail, an octet run — therefore starts
8-aligned in the enclosing stream, which is the rule bulk data relies
on (``docs/protocol.md``).  Decoding holds the hostile-input rule of
the CDR decoder: a head that is short, names lengths past its buffer
or carries bad UTF-8 raises :class:`~repro.cdr.typecodes.MarshalError`
and nothing else.
"""

from __future__ import annotations

import struct
import sys
from typing import Any

from repro.cdr.accounting import copied
from repro.cdr.typecodes import MarshalError

NATIVE_LITTLE = sys.byteorder == "little"


def octets(data: Any) -> memoryview:
    """``data`` (anything with the buffer protocol) as the flat view
    of octets a decoder slices."""
    view = data if type(data) is memoryview else memoryview(data)
    if view.format != "B" or view.ndim != 1:
        view = view.cast("B")
    return view


def padded(offset: int) -> int:
    """``offset`` rounded up to the next multiple of 8."""
    return offset + (-offset) % 8


class HeadLayout:
    """One kind of head: ``fmt`` is the ``struct`` format of the fixed
    fields behind the flag octet (explicit ``x`` pads, no byte-order
    character — the flag picks it); the lengths of its ``strings``
    strings follow them."""

    def __init__(self, fmt: str, strings: int = 0) -> None:
        fmt = "B" + fmt + "H" * strings
        self._by_order = (struct.Struct(">" + fmt), struct.Struct("<" + fmt))
        self._strings = strings
        self.size = self._by_order[0].size

    def encode(self, fields: tuple, strings: tuple[bytes, ...] = ()) -> bytes:
        """A whole head, in this machine's byte order like every
        stream encoded here: flag, ``fields``, string lengths; the
        strings; the pad."""
        raw = b"".join(strings)
        try:
            fixed = self._by_order[NATIVE_LITTLE].pack(
                NATIVE_LITTLE, *fields, *map(len, strings)
            )
        except struct.error as exc:
            raise MarshalError(f"cannot marshal head: {exc}") from None
        copied(len(raw))
        return fixed + raw + bytes(-(len(fixed) + len(raw)) % 8)

    def decode(self, data: Any) -> tuple[tuple, list[bytes], int]:
        """The head ``data`` opens with, read in the byte order its
        flag octet names: the fixed fields (flag first), the strings,
        and the 8-aligned offset the head ends at — no octet behind
        the last string is looked at."""
        try:
            fields = self._by_order[data[0] != 0].unpack_from(data)
        except (struct.error, IndexError):
            raise MarshalError(
                f"head truncated: need {self.size} octets, have {len(data)}"
            ) from None
        strings = []
        pos = self.size
        if self._strings:
            lengths = fields[-self._strings :]
            fields = fields[: -self._strings]
            end = pos + sum(lengths)
            if end > len(data):
                raise MarshalError(
                    f"head truncated: strings end at offset {end}, "
                    f"have {len(data)} octets"
                )
            copied(end - pos)
            raw = bytes(data[pos:end])
            at = 0
            for n in lengths:
                strings.append(raw[at : at + n])
                at += n
            pos = end
        return fields, strings, padded(pos)


def text(raw: bytes) -> str:
    """One string of a head, decoded."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MarshalError(f"string is not UTF-8: {exc}") from None


def octet_run(data: memoryview, pos: int, n: int) -> memoryview:
    """The ``n`` octets at ``pos`` of the stream ``data`` as a view (no
    copy).  A writable ``data`` declares the stream *owned*; the run
    stays writable only when it spans at least half of it — whoever
    receives such a run may adopt it in place, and it pins at most
    twice its own bytes."""
    if pos + n > len(data):
        raise MarshalError(
            f"CDR stream truncated: need {n} octets at offset "
            f"{pos}, have {len(data) - pos}"
        )
    run = data[pos : pos + n]
    if not run.readonly and 2 * n < len(data):
        return run.toreadonly()
    return run
