"""Fixed-layout message heads: one ``struct`` each way, compiled once.

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
on (``docs/protocol.md``).

Most of a head is the same in every frame one sender sends along one
route, so the send side is compiled: a :class:`Template` holds those
octets — behind the route's envelope, length prefix included — and one
``struct`` writes what a frame varies between them.  On the receive
side the constant part of a head (the fields behind the varying run,
the string lengths, the strings) is looked up by its exact octets in a
bounded least-recently-used table, and only a miss decodes it.
Decoding holds the hostile-input rule of the CDR decoder: a head that
is short, names lengths past its buffer or carries bad UTF-8 raises
:class:`~repro.cdr.typecodes.MarshalError` and nothing else.
"""

from __future__ import annotations

import struct
import sys
from functools import lru_cache, partial
from typing import Any, Callable

from repro.cdr.accounting import copied
from repro.cdr.encoder import CdrEncoder
from repro.cdr.typecodes import MarshalError

NATIVE_LITTLE = sys.byteorder == "little"
_NATIVE = "<" if NATIVE_LITTLE else ">"

#: The big-endian octet count every frame on a stream opens with
#: (docs/protocol.md, "Stream framing").
LENGTH = struct.Struct(">I")
#: A frame of at most this many octets leaves as one buffer — one copy,
#: one send; a larger one keeps its body segments by reference.
JOIN_LIMIT = 4096
#: Entries per interning table (one per head kind and byte order, and
#: the table of decoded addresses): least recently used goes first.
INTERNED = 256


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


def _fields(fmt: str) -> int:
    """How many values the ``struct`` format ``fmt`` packs."""
    return len(struct.unpack("<" + fmt, bytes(struct.calcsize("<" + fmt))))


class HeadLayout:
    """One kind of head.  Behind the flag octet its fixed fields are
    ``before`` (the same in every frame one template sends), ``vary``
    (what each frame sets, contiguous) and ``after`` (the same again):
    ``struct`` formats with explicit ``x`` pads and no byte-order
    character — the flag picks it.  The lengths of its ``strings``
    strings follow.

    ``after``, the lengths and the strings are the head's *key*: a
    decoded head looks it up by its exact octets in :attr:`interned`,
    and only a miss runs ``make(*after_fields, *strings)``, which
    decodes them (raising :class:`MarshalError` on bad input, which is
    then not interned) into what :meth:`decode` returns for them.  The
    gain needs keys that repeat — a stable set of peers, objects and
    operations; a key seen once costs its miss and ages out."""

    def __init__(self, before: str, vary: str = "", after: str = "", strings: int = 0,
                 make: Callable[..., Any] | None = None) -> None:
        fmt = "B" + before + vary + after + "H" * strings
        self._by_order = (struct.Struct(">" + fmt), struct.Struct("<" + fmt))
        self.size = self._by_order[0].size
        self.vary = vary
        self._zeros = (0,) * _fields(vary)
        self._vary_at = 1 + struct.calcsize("<" + before)
        self._key_at = self._vary_at + struct.calcsize("<" + vary)
        self._keys = (struct.Struct(">" + after + "H" * strings),
                      struct.Struct("<" + after + "H" * strings))
        self._after = _fields(after)
        self._strings = strings
        self._end = padded(self.size)  # where a head without strings ends
        self._make = make
        #: Key octets → what ``make`` made of them, one table per byte
        #: order (the key's numbers are the sender's).
        self.interned = tuple(
            lru_cache(maxsize=INTERNED)(partial(self._made, little)) for little in (False, True)
        )

    def pieces(
        self, before: tuple, after: tuple = (), strings: tuple[bytes, ...] = ()
    ) -> tuple[bytes, str, bytes]:
        """A head with these constant fields and strings, in this
        machine's byte order, around its varying run: the octets ahead
        of it, its format, the octets behind it — a :class:`Template`."""
        raw = b"".join(strings)
        try:
            fields = (*before, *self._zeros, *after, *map(len, strings))
            fixed = self._by_order[NATIVE_LITTLE].pack(NATIVE_LITTLE, *fields)
        except struct.error as exc:
            raise MarshalError(f"cannot marshal head: {exc}") from None
        copied(len(raw))
        head = fixed + raw + bytes(-(len(fixed) + len(raw)) % 8)
        return head[: self._vary_at], self.vary, head[self._key_at :]

    def decode(self, data: Any) -> tuple[tuple, Any, int]:
        """The head ``data`` opens with, read in the byte order its
        flag octet names: the fixed fields (flag first), what ``make``
        made of its key (``None`` for a head without strings), and the
        8-aligned offset the head ends at — no octet behind the last
        string is looked at."""
        try:
            little = data[0] != 0
            fields = self._by_order[little].unpack_from(data)
        except (struct.error, IndexError):
            raise MarshalError(
                f"head truncated: need {self.size} octets, have {len(data)}"
            ) from None
        if not self._strings:
            return fields, None, self._end
        end = self.size + sum(fields[-self._strings :])
        if end > len(data):
            raise MarshalError(
                f"head truncated: strings end at offset {end}, "
                f"have {len(data)} octets"
            )
        key = bytes(data[self._key_at : end])
        copied(len(key))
        return fields, self.interned[little](key), end + (-end) % 8

    def _made(self, little: bool, key: bytes) -> Any:
        """What ``make`` makes of a key the table does not hold."""
        numbers = self._keys[little].unpack_from(key)
        at, strings = self._keys[little].size, []
        for n in numbers[self._after :]:
            strings.append(key[at : at + n])
            at += n
        return self._make(*numbers[: self._after], *strings)


class Template:
    """The octets every frame sent along one route with one head opens
    with, compiled: the route's envelope (``route.envelope``: its octets
    around the payload length, or ``None`` where the fabric frames
    nothing) behind the length prefix, then the head's constant pieces
    (:meth:`HeadLayout.pieces`).  :meth:`frame` writes the lengths and
    the varying run between them with one ``struct``."""

    def __init__(self, before: bytes, vary: str, after: bytes, route: Any = None) -> None:
        self.route = route
        #: The message head's size, and the octets a frame carries ahead
        #: of its message (length prefix and envelope).
        self.size = len(before) + struct.calcsize(_NATIVE + vary) + len(after)
        envelope = None if route is None else route.envelope
        self._lead, self.skip, lead = None, 0, ""
        if envelope is not None:
            self._lead, rest = envelope
            self.skip = LENGTH.size + len(self._lead) + 4 + len(rest)
            before, lead = rest + before, f"4s{len(self._lead)}sI"
        self._struct = struct.Struct(f"{_NATIVE}{lead}{len(before)}s{vary}{len(after)}s")
        self._before, self._after = before, after

    def head(self, n: int, *varying: Any) -> bytes:
        """The octets ahead of a message whose head is followed by ``n``
        more: length prefix and envelope (where the route frames
        anything), then the head with ``varying`` in its run."""
        try:
            if self._lead is None:
                return self._struct.pack(self._before, *varying, self._after)
            size = self.size + n  # the message's octets
            return self._struct.pack(
                LENGTH.pack(self.skip - LENGTH.size + size), self._lead, size,
                self._before, *varying, self._after,
            )
        except struct.error as exc:
            raise MarshalError(f"cannot marshal head: {exc}") from None

    def frame(self, body: Any, tail: bytes, *varying: Any) -> list[Any]:
        """One frame as a buffer list: the head with ``varying`` in its
        run, ``tail`` and ``body`` (bytes-like, a list of such, or a
        :class:`~repro.cdr.encoder.CdrEncoder`) — joined into one buffer
        when the frame is at most :data:`JOIN_LIMIT` octets, else the
        body's segments by reference."""
        if isinstance(body, CdrEncoder):
            body = body.segments()
        parts = body if isinstance(body, (list, tuple)) else (body,)
        n = len(tail) + sum(map(len, parts))
        head = self.head(n, *varying)
        if len(head) + n <= JOIN_LIMIT:
            frame = b"".join((head, tail, *parts))
            copied(len(frame))
            return [frame]
        copied(len(head) + len(tail))
        return [head + tail, *parts]

    def message(self, frame: list[Any]) -> bytes:
        """The message a frame built here carries, as one buffer."""
        return b"".join((frame[0][self.skip :], *frame[1:]))


def text(raw: bytes) -> str:
    """One string of a head, decoded."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MarshalError(f"string is not UTF-8: {exc}") from None


def octet_run(data: memoryview, pos: int, n: int, last: bool = False) -> memoryview:
    """The ``n`` octets at ``pos`` of the stream ``data`` as a view (no
    copy); ``last`` when the run ends its message, which is then exactly
    as long as its head says.  A writable ``data`` declares the stream
    *owned*; the run stays writable only when it spans at least half of
    it — whoever receives such a run may adopt it in place, and it pins
    at most twice its own bytes."""
    if pos + n > len(data):
        raise MarshalError(
            f"CDR stream truncated: need {n} octets at offset "
            f"{pos}, have {len(data) - pos}"
        )
    if last and pos + n < len(data):
        raise MarshalError(f"{len(data) - pos - n} trailing octets behind the message")
    run = data[pos : pos + n]
    if not run.readonly and 2 * n < len(data):
        return run.toreadonly()
    return run
