"""Copy accounting: measure how many bytes the wire path memcpy's.

The zero-copy work (buffer-view CDR, vectored socket writes,
``recv_into`` receives) is only honest if it can be *audited*: every
place the data plane physically copies payload bytes — a
``bytearray.extend``, a ``bytes()`` materialization, an ndarray
``byteswap``, a ``recv_into``, an ``out[...] = view`` landing store —
reports the copy here.  A benchmark then wraps a request in
:func:`copy_audit` and divides the observed total by the payload size:
*bytes copied per payload byte* is the wire path's figure of merit
(see ``docs/performance.md``; measured as the
``cdr.copies_per_payload_byte`` rows under ``bench/results/`` and
budgeted by ``tests/orb/test_socketnet_zero_copy.py``).

The tally is one process-wide pair of :class:`~repro.metrics.Counter`
objects — always on, no lock on the copy path — and describes the
*process*: a :class:`CopyAccount` reads it as a delta from the moment
it was opened (``ORB.stats()["cdr_copies"]`` is one opened at ORB
construction), so every open account sees every copy made anywhere in
the process, which is what the thread-spanning wire path needs.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.metrics import Counter

__all__ = ["CopyAccount", "copied", "copy_audit"]

_BYTES = Counter("cdr.copied_bytes")
_EVENTS = Counter("cdr.copy_events")


def copied(nbytes: int) -> None:
    """Report a physical copy of ``nbytes`` payload/protocol bytes
    (called by the instrumented layers)."""
    if nbytes:
        _BYTES.inc(nbytes)
        _EVENTS.inc()


class CopyAccount:
    """Wire-path byte copies made in the process since the account
    was opened, until it is closed.

    :meth:`snapshot` is ``(bytes, events)``: the bytes physically
    copied and the number of distinct copy operations.  Both include
    every instrumented layer (CDR codecs, fabrics, transfer engines),
    so nested protocol copies of the same payload are counted each
    time they happen — that is the point.
    """

    def __init__(self) -> None:
        self._opened = (_BYTES.value, _EVENTS.value)
        self._closed: tuple[int, int] | None = None

    def snapshot(self) -> tuple[int, int]:
        upto = self._closed or (_BYTES.value, _EVENTS.value)
        return upto[0] - self._opened[0], upto[1] - self._opened[1]

    def close(self) -> None:
        """Stop counting: later copies no longer show (idempotent)."""
        if self._closed is None:
            self._closed = (_BYTES.value, _EVENTS.value)

    def __repr__(self) -> str:
        return "<CopyAccount %d bytes in %d copies>" % self.snapshot()


@contextmanager
def copy_audit() -> Iterator[CopyAccount]:
    """Measure wire-path copies for the duration of the ``with`` body.

    Audits nest and may run concurrently from several threads; each
    sees every copy made anywhere in the process while it is open
    (the wire path spans threads — reader loops, servant ranks — so
    per-thread attribution would undercount).
    """
    account = CopyAccount()
    try:
        yield account
    finally:
        account.close()
