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

Accounting is off by default and costs one truthiness test per
instrumented site; an active audit costs one lock per event, which is
negligible next to the copies being measured.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

__all__ = [
    "CopyAccount",
    "copied",
    "copy_audit",
    "register_account",
    "unregister_account",
]


class CopyAccount:
    """A running tally of wire-path byte copies.

    ``bytes`` is the total number of bytes physically copied while the
    account was active; ``events`` the number of distinct copy
    operations.  Both include every instrumented layer (CDR codecs,
    fabrics, transfer engines), so nested protocol copies of the same
    payload are counted each time they happen — that is the point.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.bytes = 0
        self.events = 0

    def add(self, nbytes: int) -> None:
        with self._lock:
            self.bytes += nbytes
            self.events += 1

    def snapshot(self) -> tuple[int, int]:
        with self._lock:
            return self.bytes, self.events

    def __repr__(self) -> str:
        return f"<CopyAccount {self.bytes} bytes in {self.events} copies>"


# Active accounts.  Registration swaps in a fresh tuple so ``copied``
# can iterate without taking the registry lock (reads see either the
# old or the new tuple, never a half-built one).
_registry_lock = threading.Lock()
_accounts: tuple[CopyAccount, ...] = ()


def copied(nbytes: int) -> None:
    """Report a physical copy of ``nbytes`` payload/protocol bytes.

    Called by the instrumented layers; a no-op (one tuple truthiness
    test) unless an audit is active.
    """
    accounts = _accounts
    if accounts and nbytes:
        for account in accounts:
            account.add(nbytes)


def register_account(account: CopyAccount) -> None:
    """Activate an account for open-ended accounting (until
    :func:`unregister_account`) — e.g. the lifetime tally behind
    ``ORB.stats()``.  Prefer :func:`copy_audit` for scoped audits."""
    global _accounts
    with _registry_lock:
        _accounts = _accounts + (account,)


def unregister_account(account: CopyAccount) -> None:
    """Deactivate a registered account (idempotent)."""
    global _accounts
    with _registry_lock:
        _accounts = tuple(a for a in _accounts if a is not account)


@contextmanager
def copy_audit() -> Iterator[CopyAccount]:
    """Measure wire-path copies for the duration of the ``with`` body.

    Audits nest and may run concurrently from several threads; each
    sees every copy made anywhere in the process while it is active
    (the wire path spans threads — reader loops, servant ranks — so
    per-thread attribution would undercount).
    """
    account = CopyAccount()
    register_account(account)
    try:
        yield account
    finally:
        unregister_account(account)
