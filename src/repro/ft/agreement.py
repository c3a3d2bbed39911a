"""Collective failure agreement: one outcome per collective point.

The SPMD-specific hard part of fault tolerance (ISSUE 4): on a
collective binding only *some* ranks observe a failure directly —
rank 0 alone receives the reply, each rank its own data chunks — yet
every rank must raise the identical exception at the identical point
in the collective sequence, or the group diverges and deadlocks on its
next collective.

:func:`agree` is the vote: an allreduce-style exchange over the RTS in
which each rank contributes its locally observed
:class:`~repro.ft.policy.Failure` (or ``None``), and all ranks resolve
the same canonical outcome — the lowest-observing-rank's failure.  The
same exchange carries rank 0's reply header on success, so agreement
costs one collective, not two (it replaces the plain header broadcast
the engines used before fault tolerance existed).

Every rank must call :func:`agree` at the same collective point; the
transfer engines guarantee this by voting at fixed protocol stages
(after the reply-header wait, after chunk collection) and by deriving
all post-vote control flow — retry, degrade, raise — from the
canonical failure and the shared policy alone, never from local state
or local clocks.
"""

from __future__ import annotations

from typing import Any

from repro.ft.policy import Failure


def agree(
    rts: Any,
    local_failure: Failure | None,
    payload: Any = None,
) -> tuple[Failure | None, Any]:
    """Resolve one collective point: ``(canonical failure, payload)``.

    ``rts`` is the runtime-system interface of the collective binding
    (``None`` for a serial client, where the local view *is* the
    canonical one).  ``payload`` is whatever rank 0 learned at this
    stage (the decoded reply header); it is delivered to all ranks
    exactly when no rank failed, and must be picklable.

    The canonical failure is chosen by a deterministic rule every rank
    evaluates identically on the gathered votes: ``"unreachable"``
    failures first (they carry the graceful-degradation decision and
    must win over the secondary timeouts they induce on other ranks),
    then the lowest failing rank.
    """
    if rts is None:
        return local_failure, payload
    votes = rts.allgather(
        (local_failure, payload if rts.rank == 0 else None)
    )
    failures = [f for f, _ in votes if f is not None]
    failure = min(
        failures,
        key=lambda f: (f.kind != "unreachable", f.rank),
        default=None,
    )
    return failure, votes[0][1]


def agree_failure(
    rts: Any, local_failure: Failure | None
) -> Failure | None:
    """The payload-less vote (chunk-collection stage)."""
    failure, _ = agree(rts, local_failure)
    return failure
