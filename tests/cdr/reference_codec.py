"""The CDR codec as it stood before the primitives were compiled
(ISSUE 15) — kept as the reference (two contract changes mirrored
since: ``owned=`` replaced ``copy_arrays=``, ISSUE 21; bad UTF-8 in a
string is a ``MarshalError`` like every other malformed input, ISSUE 24)
``test_primitive_equivalence.py`` compares the shipped codec against:
same bytes, same values, same ``MarshalError`` messages, same
copy-account totals.  Test-only; nothing in ``src/`` imports it.
"""

from __future__ import annotations

import struct
import sys
from typing import Any

import numpy as np

from repro.cdr import typecodes as tc
from repro.cdr.accounting import copied
from repro.cdr.typecodes import MarshalError, TypeCode
from repro.orb.request import DataChunk, ReplyMessage, RequestMessage
from repro.orb.transport import PortAddress, SocketPortAddress

_NATIVE_LITTLE = sys.byteorder == "little"

#: Payloads below this many bytes are cheaper to copy into the tail
#: than to carry as separate segments through a vectored write.
SEGMENT_THRESHOLD = 2048


class ReferenceEncoder:
    """An append-only CDR stream.

    The byte-order flag octet is written by :meth:`__init__`, so
    alignment is computed from stream offset 0 exactly as GIOP does
    for message bodies.
    """

    def __init__(self, little_endian: bool | None = None) -> None:
        self.little_endian = (
            _NATIVE_LITTLE if little_endian is None else little_endian
        )
        self._endian_char = "<" if self.little_endian else ">"
        #: Sealed buffers (bytes / memoryview / bytearray) + open tail.
        self._segments: list[Any] = []
        self._tail = bytearray()
        self._sealed_len = 0
        self._tail.append(1 if self.little_endian else 0)

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

    def append_encoder(self, other: "ReferenceEncoder") -> None:
        """Append another encoder's whole stream (flag octet included)
        by reference — the segment-aware replacement for
        ``write_octets(other.getvalue())``."""
        for segment in other.segments():
            self.write_octets_view(segment)

    def _pack(self, fmt: str, size: int, value: Any) -> None:
        self.align(size)
        try:
            self._tail.extend(struct.pack(self._endian_char + fmt, value))
        except (struct.error, TypeError) as exc:
            raise MarshalError(
                f"cannot marshal {value!r} as '{fmt}': {exc}"
            ) from None

    def write_ulong(self, value: int) -> None:
        tc.TC_ULONG.validate(value)
        self._pack("I", 4, value)

    def write_long(self, value: int) -> None:
        tc.TC_LONG.validate(value)
        self._pack("i", 4, value)

    def write_string(self, value: str, bound: int | None = None) -> None:
        tc.StringTC(bound).validate(value)
        raw = value.encode("utf-8")
        self.write_ulong(len(raw) + 1)
        self.write_octets(raw + b"\0")

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
        dtype = element.dtype
        if dtype is not None:
            arr = np.asarray(values, dtype=dtype)
            if arr.shape != (count,):
                raise MarshalError(
                    f"expected {count} elements, got shape {arr.shape}"
                )
            if element.kind != "boolean":
                self.align(element.size)  # type: ignore[attr-defined]
            if not self._native_order():
                arr = arr.byteswap()
                copied(arr.nbytes)
            elif not arr.flags.c_contiguous:
                arr = np.ascontiguousarray(arr)
                copied(arr.nbytes)
            self.write_octets_view(memoryview(arr).cast("B"))
            return
        for value in values:
            self.write(element, value)

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
        locally available (gathered), or a plain ndarray.
        """
        if isinstance(value, np.ndarray):
            data = value
        else:
            typecode.validate(value)
            if value.comm is not None:
                raise MarshalError(
                    "cannot materialize a group-distributed sequence "
                    "inline; the transfer engine must gather it first"
                )
            data = value.local_data()
        if typecode.bound is not None and len(data) > typecode.bound:
            raise MarshalError(
                f"dsequence of length {len(data)} exceeds bound "
                f"{typecode.bound}"
            )
        self.write_ulong(len(data))
        self._write_elements(typecode.element, data, len(data))

    def _write_exception(self, typecode: tc.ExceptionTC, value: Any) -> None:
        self.write_string(typecode.repo_id)
        members = getattr(value, "members", None)
        mapping = members() if callable(members) else (value or {})
        for name, ftc in typecode.fields:
            self.write(ftc, mapping[name])


class ReferenceDecoder:
    """A read-once CDR stream over ``data`` (bytes-like).

    ``owned=True`` keeps a writable buffer writable through every run
    of at least half the stream; everything else is a read-only view.
    """

    def __init__(self, data: Any, *, owned: bool = False) -> None:
        view = memoryview(data)
        if view.format != "B" or view.ndim != 1:
            view = view.cast("B")
        self._data = view if owned else view.toreadonly()
        if len(self._data) == 0:
            raise MarshalError("empty CDR stream")
        self._pos = 1
        self.little_endian = bool(self._data[0])
        self._endian_char = "<" if self.little_endian else ">"

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos

    def at_end(self) -> bool:
        return self._pos >= len(self._data)

    # -- primitives --------------------------------------------------------

    def align(self, n: int) -> None:
        self._pos += (-self._pos) % n

    def read_octets(self, n: int) -> memoryview:
        """The next ``n`` octets as a view (no copy)."""
        if self._pos + n > len(self._data):
            raise MarshalError(
                f"CDR stream truncated: need {n} octets at offset "
                f"{self._pos}, have {self.remaining}"
            )
        chunk = self._data[self._pos : self._pos + n]
        self._pos += n
        if not chunk.readonly and 2 * n < len(self._data):
            chunk = chunk.toreadonly()
        return chunk

    def _unpack(self, fmt: str, size: int) -> Any:
        self.align(size)
        raw = self.read_octets(size)
        return struct.unpack(self._endian_char + fmt, raw)[0]

    def read_ulong(self) -> int:
        return self._unpack("I", 4)

    def read_long(self) -> int:
        return self._unpack("i", 4)

    def read_string(self) -> str:
        n = self.read_ulong()
        if n == 0:
            raise MarshalError("string length prefix of 0 is malformed")
        raw = self.read_octets(n)
        if raw[-1] != 0:
            raise MarshalError("string is not NUL-terminated")
        copied(n - 1)
        try:
            return bytes(raw[:-1]).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MarshalError(f"string is not UTF-8: {exc}") from None

    def read_boolean(self) -> bool:
        return self.read_octets(1) != b"\0"

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
            return bytes(self.read_octets(1)).decode("latin-1")
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


# ---------------------------------------------------------------------------
# The message heads as CDR streams, as ``repro.orb.request`` and
# ``SocketFabric._encode_frame`` / ``_ServerLoop._deliver`` wrote and
# read them before the fixed-layout heads (ISSUE 24): every field one
# primitive, every string ``ulong length`` + octets + NUL.  Kept as the
# reference ``tests/orb/test_fixed_heads.py`` compares the shipped
# codec against, field for field.
# ---------------------------------------------------------------------------

_TC_ULONGLONG = tc.TC_ULONGLONG
_MODES = ("centralized", "multiport")


def _begin_octet_run(enc: ReferenceEncoder, n: int) -> None:
    enc.write_ulong(n)
    enc.align(8)


def _read_octet_run(dec: ReferenceDecoder) -> memoryview:
    n = dec.read_ulong()
    dec.align(8)
    return dec.read_octets(n)


def _append_body(enc: ReferenceEncoder, body: Any) -> None:
    _begin_octet_run(enc, len(body))
    enc.write_octets_view(bytes(body))


def _write_port(enc: ReferenceEncoder, port: Any) -> None:
    enc.write_ulong(0 if port is None else port.port_id)
    enc.write_string("" if port is None else port.label)
    enc.write_string(getattr(port, "host", "") or "")
    enc.write_ulong(getattr(port, "tcp_port", 0) or 0)


def _read_port(dec: ReferenceDecoder) -> Any:
    port_id = dec.read_ulong()
    label = dec.read_string()
    host = dec.read_string()
    tcp_port = dec.read_ulong()
    if port_id == 0:
        return None
    if host:
        return SocketPortAddress(host, tcp_port, port_id, label)
    return PortAddress(port_id, label)


def reference_encode_request(message: Any, little_endian: bool) -> bytes:
    enc = ReferenceEncoder(little_endian)
    enc.write(_TC_ULONGLONG, message.request_id)
    enc.write(_TC_ULONGLONG, message.trace_id)
    enc.write_string(message.object_key)
    enc.write_string(message.operation)
    enc.write_string(message.mode)
    enc.write_boolean(message.oneway)
    _write_port(enc, message.reply_port)
    enc.write_ulong(message.client_nthreads)
    enc.write_ulong(len(message.client_data_ports))
    for port in message.client_data_ports:
        _write_port(enc, port)
    enc.write_ulong(len(message.dist_layouts))
    for name, lengths in message.dist_layouts:
        enc.write_string(name)
        enc.write_ulong(len(lengths))
        for length in lengths:
            enc.write(_TC_ULONGLONG, int(length))
    enc.write_ulong(len(message.out_templates))
    for name, spec in message.out_templates:
        enc.write_string(name)
        enc.write_string(spec[0])
        weights = spec[1] if len(spec) > 1 else ()
        enc.write_ulong(len(weights))
        for weight in weights:
            enc.write_ulong(int(weight))
    _append_body(enc, message.body)
    return enc.getvalue()


def reference_decode_request(data: Any) -> Any:
    dec = ReferenceDecoder(data, owned=True)
    request_id = int(dec.read(_TC_ULONGLONG))
    trace_id = int(dec.read(_TC_ULONGLONG))
    object_key = dec.read_string()
    operation = dec.read_string()
    mode = dec.read_string()
    if mode not in _MODES:
        raise MarshalError(f"unknown transfer mode {mode!r}")
    oneway = dec.read_boolean()
    reply_port = _read_port(dec)
    client_nthreads = dec.read_ulong()
    ports = []
    for _ in range(dec.read_ulong()):
        port = _read_port(dec)
        if port is None:
            raise MarshalError("null client data port")
        ports.append(port)
    layouts = []
    for _ in range(dec.read_ulong()):
        name = dec.read_string()
        count = dec.read_ulong()
        layouts.append(
            (name, tuple(int(dec.read(_TC_ULONGLONG)) for _ in range(count)))
        )
    out_templates = []
    for _ in range(dec.read_ulong()):
        name = dec.read_string()
        kind = dec.read_string()
        weights = tuple(dec.read_ulong() for _ in range(dec.read_ulong()))
        out_templates.append(
            (name, (kind,) if not weights else (kind, weights))
        )
    return RequestMessage(
        request_id=request_id,
        trace_id=trace_id,
        object_key=object_key,
        operation=operation,
        mode=mode,
        oneway=oneway,
        reply_port=reply_port,
        client_nthreads=client_nthreads,
        client_data_ports=tuple(ports),
        dist_layouts=tuple(layouts),
        out_templates=tuple(out_templates),
        body=_read_octet_run(dec),
    )


def reference_encode_reply(message: Any, little_endian: bool) -> bytes:
    enc = ReferenceEncoder(little_endian)
    enc.write(_TC_ULONGLONG, message.request_id)
    enc.write_ulong(message.status)
    enc.write_ulong(len(message.dist_layouts))
    for name, client_lengths, server_lengths in message.dist_layouts:
        enc.write_string(name)
        for lengths in (client_lengths, server_lengths):
            enc.write_ulong(len(lengths))
            for length in lengths:
                enc.write(_TC_ULONGLONG, int(length))
    _append_body(enc, message.body)
    return enc.getvalue()


def reference_decode_reply(data: Any) -> Any:
    dec = ReferenceDecoder(data, owned=True)
    request_id = int(dec.read(_TC_ULONGLONG))
    status = dec.read_ulong()
    if status not in (0, 1, 2):
        raise MarshalError(f"unknown reply status {status}")
    layouts = []
    for _ in range(dec.read_ulong()):
        name = dec.read_string()
        pair = []
        for _side in range(2):
            count = dec.read_ulong()
            pair.append(
                tuple(int(dec.read(_TC_ULONGLONG)) for _ in range(count))
            )
        layouts.append((name, pair[0], pair[1]))
    return ReplyMessage(
        request_id=request_id,
        status=status,
        body=_read_octet_run(dec),
        dist_layouts=tuple(layouts),
    )


def reference_encode_chunk(chunk: Any, little_endian: bool) -> bytes:
    enc = ReferenceEncoder(little_endian)
    enc.write(_TC_ULONGLONG, chunk.request_id)
    enc.write_string(chunk.param)
    enc.write_ulong(chunk.phase)
    enc.write_ulong(chunk.src_rank)
    enc.write_ulong(chunk.dst_rank)
    enc.write(_TC_ULONGLONG, chunk.global_lo)
    enc.write(_TC_ULONGLONG, chunk.global_hi)
    _append_body(enc, chunk.payload)
    return enc.getvalue()


def reference_decode_chunk(data: Any) -> Any:
    dec = ReferenceDecoder(data, owned=True)
    request_id = int(dec.read(_TC_ULONGLONG))
    param = dec.read_string()
    phase = dec.read_ulong()
    if phase not in (0, 1):
        raise MarshalError(f"unknown chunk phase {phase}")
    src_rank = dec.read_ulong()
    dst_rank = dec.read_ulong()
    global_lo = int(dec.read(_TC_ULONGLONG))
    global_hi = int(dec.read(_TC_ULONGLONG))
    if global_hi < global_lo:
        raise MarshalError("chunk range is inverted")
    return DataChunk(
        request_id=request_id,
        param=param,
        phase=phase,
        src_rank=src_rank,
        dst_rank=dst_rank,
        global_lo=global_lo,
        global_hi=global_hi,
        payload=_read_octet_run(dec),
    )


def reference_encode_frame(
    src: Any, dest_port_id: int, kind: str, payload: Any,
    little_endian: bool,
) -> bytes:
    enc = ReferenceEncoder(little_endian)
    enc.write_ulong(dest_port_id)
    enc.write_string(src.host)
    enc.write_ulong(src.tcp_port)
    enc.write_ulong(src.port_id)
    enc.write_string(src.label)
    enc.write_string(kind)
    _append_body(enc, payload)
    return enc.getvalue()


def reference_decode_frame(frame: Any) -> tuple[int, Any, str, Any]:
    dec = ReferenceDecoder(frame, owned=True)
    dest_port_id = dec.read_ulong()
    src = SocketPortAddress(
        host=dec.read_string(),
        tcp_port=dec.read_ulong(),
        port_id=dec.read_ulong(),
        label=dec.read_string(),
    )
    kind = dec.read_string()
    return dest_port_id, src, kind, _read_octet_run(dec)
