"""The one clock the ORB's timers read.

Every timeout and age in :mod:`repro.orb`, :mod:`repro.ft`,
:mod:`repro.groups`, the thread kernel (:mod:`repro.rts.mpi`) and the
executor reads :func:`now`, sleeps through :func:`sleep` and blocks
through :func:`wait_for` — the one deadline loop.  On the real clock
``now`` *is* ``time.monotonic`` and ``sleep`` *is* ``time.sleep``, so
reading them costs no Python frame.

A test replaces them through the module — callers read
``clock.now()``, never ``from repro.clock import now`` — typically
with real time plus an offset it advances, and wraps :func:`wait_for`
to learn which conditions have a timed wait in progress: notifying
them after moving time makes each wait re-read the clock, so a
pending timeout fires at once instead of being waited out.

The process kernel (:mod:`repro.rts.procs`) stays on real time: its
waits cross processes, which a clock in one process cannot advance.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

#: Seconds on a monotonic clock.
now: Callable[[], float] = time.monotonic
#: Block the calling thread for some seconds.
sleep: Callable[[float], None] = time.sleep


def wait_for(cond: threading.Condition, ready: Callable[[], Any],
             timeout: float | None) -> Any:
    """Wait on ``cond``, which the caller holds, until ``ready()``
    returns something true, and return it — or, once ``timeout``
    seconds of :func:`now` have passed (``None``: never), ``ready()``'s
    last, false result.  ``ready`` runs under ``cond`` and may raise;
    whoever changes what it reads notifies ``cond``."""
    result = ready()
    deadline = None if result or timeout is None else now() + timeout
    while not result:
        remaining = None if deadline is None else deadline - now()
        if remaining is not None and remaining <= 0:
            break
        cond.wait(remaining)
        result = ready()
    return result
