"""QoS policies: deadlines, retry budgets, deterministic backoff.

An :class:`FtPolicy` attaches to an ORB, a client runtime or a single
proxy and governs every invocation made through it.  Policies are
immutable and shared freely between ranks of a collective binding;
everything they compute — retry decisions, backoff delays — is a pure
function of the policy, the request id and the attempt number, so all
ranks of a collective client reach the same decision without
communicating (the communication that *is* needed, agreeing on which
failure occurred, lives in :mod:`repro.ft.agreement`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from repro.orb.operation import RemoteError

#: The error categories a policy retries: transport failures,
#: server-declared transients, and receive timeouts.
DEFAULT_RETRYABLE = ("COMM_FAILURE", "TRANSIENT", "NO_RESPONSE", "TIMEOUT")


class DeadlineExceeded(RemoteError):
    """An invocation missed its deadline (policy ``deadline_ms`` or,
    with no deadline set, the runtime receive timeout).

    On a collective binding every rank raises this with the same
    ``collective_index`` — the position of the failed invocation in
    the group's collective sequence — so SPMD clients stay in
    lockstep even through failures.
    """

    def __init__(
        self,
        operation: str,
        *,
        collective_index: int = 0,
        deadline_ms: float | None = None,
        attempts: int = 0,
        detail: str = "",
    ) -> None:
        budget = (
            f"{deadline_ms:g}ms deadline"
            if deadline_ms is not None
            else "receive timeout"
        )
        message = (
            f"invocation '{operation}' #{collective_index} exceeded its "
            f"{budget} after {attempts} retr"
            f"{'y' if attempts == 1 else 'ies'}"
        )
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message, category="TIMEOUT")
        self.operation = operation
        self.collective_index = collective_index
        self.deadline_ms = deadline_ms
        self.attempts = attempts


class InvocationRetriesExhausted(RemoteError):
    """Every allowed attempt of an invocation failed retryably.

    Carries the canonical (group-agreed) last failure, so all ranks of
    a collective binding raise byte-identical exceptions.
    """

    def __init__(
        self,
        operation: str,
        *,
        collective_index: int = 0,
        attempts: int = 0,
        last_failure: str = "",
    ) -> None:
        message = (
            f"invocation '{operation}' #{collective_index} failed after "
            f"{attempts} retr{'y' if attempts == 1 else 'ies'}"
        )
        if last_failure:
            message = f"{message}; last failure: {last_failure}"
        super().__init__(message, category="COMM_FAILURE")
        self.operation = operation
        self.collective_index = collective_index
        self.attempts = attempts
        self.last_failure = last_failure


@dataclass(frozen=True)
class Failure:
    """A picklable failure descriptor ranks can vote on.

    ``kind`` classifies where the failure was observed:

    - ``"timeout"`` — a receive window expired (reply or chunks).
    - ``"transport"`` — a send or receive raised a transport error.
    - ``"unreachable"`` — a multiport data-port send could not reach
      its destination (the graceful-degradation trigger: the server
      cannot have executed, so falling back to the centralized method
      with a fresh request id is safe).
    - ``"remote"`` — the server replied with a retryable system
      exception (``category`` carries its CORBA-ish category).

    ``deadline_exhausted`` is stamped by the *observing* rank so the
    post-vote retry decision never consults a local clock — all ranks
    act on the one flag the canonical failure carries.
    """

    kind: str
    category: str
    message: str
    rank: int = 0
    deadline_exhausted: bool = False


#: The client fault-tolerance tallies: ``ft.<name>`` counters in the
#: minting ORB's registry, held by each client runtime as
#: ``runtime.ft[name]``.  Counts are per-rank events: a collective
#: group of N ranks retrying one invocation records N retries (one
#: per rank), mirroring how the work is actually repeated.
FT_COUNTERS = (
    "retries",
    "deadline_exceeded",
    "retries_exhausted",
    "degraded",
    "agreements",
    "failovers",
)


@dataclass(frozen=True)
class FtPolicy:
    """What an invocation is allowed to cost before failing.

    Under any policy, when a multiport data port is unreachable, the
    invocation collectively falls back to the centralized transfer
    method (fresh request id; the server never saw the data, so it
    cannot have executed).

    ``deadline_ms``
        End-to-end budget from send to composed result; ``None`` falls
        back to the runtime receive timeout per attempt.
    ``max_retries``
        Full re-sends allowed after the first attempt; 0 disables
        retries entirely (a timeout then raises
        :class:`DeadlineExceeded` immediately).
    ``backoff_base_ms`` / ``backoff_cap_ms``
        Exponential backoff between attempts, jittered
        deterministically from the request id so every rank of a
        collective binding sleeps the same amount without
        communicating.

    Timeouts and transport failures are worth re-sending for, and so
    is a remote failure of a :data:`DEFAULT_RETRYABLE` category.
    Everything else — user exceptions, marshaling errors, servant
    bugs — propagates on the first occurrence.

    A *group* binding (``repro.groups``) whose per-replica retries
    exhaust fails over to each sibling of the failed replica once.
    A failover re-issues the call on the new replica under a fresh
    request id, and that replica's reply cache has never seen it: a
    call the old replica executed before dying runs again, so
    replicas must be stateless.
    """

    deadline_ms: float | None = None
    max_retries: int = 0
    backoff_base_ms: float = 10.0
    backoff_cap_ms: float = 2000.0

    def __post_init__(self) -> None:
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError("deadline_ms must be positive (or None)")
        if self.max_retries < 0:
            raise ValueError("max_retries cannot be negative")
        if self.backoff_base_ms < 0 or self.backoff_cap_ms < 0:
            raise ValueError("backoff values cannot be negative")

    # -- decisions (pure: identical on every rank) -----------------------

    def is_retryable(self, failure: Failure) -> bool:
        """Is re-sending worth it for this (canonical) failure?"""
        if failure.kind in ("timeout", "transport", "unreachable"):
            return True
        return failure.category in DEFAULT_RETRYABLE

    def backoff_seconds(self, attempt: int, request_id: int) -> float:
        """Delay before retry ``attempt`` (1-based), capped exponential
        with jitter seeded from the request id — deterministic, so all
        ranks of a collective binding sleep identically."""
        if self.backoff_base_ms <= 0:
            return 0.0
        raw = self.backoff_base_ms * (2 ** max(attempt - 1, 0))
        capped = min(raw, self.backoff_cap_ms)
        jitter = random.Random(
            (request_id * 1_000_003) ^ attempt
        ).uniform(0.5, 1.0)
        return capped * jitter / 1e3


def reconstruct_error(failure: Failure) -> Exception:
    """The exception an *unpolicied* invocation raises for a failure:
    the same types the pre-ft wire path produced, now raised on every
    rank instead of stranding the non-observing ones."""
    from repro.orb.transport import TransportError

    if failure.kind == "remote":
        return RemoteError(failure.message, category=failure.category)
    return TransportError(failure.message)


def failure_to_exception(
    failure: Failure,
    policy: FtPolicy,
    *,
    operation: str,
    collective_index: int,
    attempts: int,
) -> Exception:
    """Map the canonical failure of a policied invocation onto the
    public exception all ranks raise."""
    timed_out = failure.kind == "timeout"
    if timed_out and (attempts == 0 or failure.deadline_exhausted):
        return DeadlineExceeded(
            operation,
            collective_index=collective_index,
            deadline_ms=policy.deadline_ms,
            attempts=attempts,
            detail=failure.message,
        )
    return InvocationRetriesExhausted(
        operation,
        collective_index=collective_index,
        attempts=attempts,
        last_failure=failure.message,
    )


def effective_policy(explicit: Any, runtime: Any) -> FtPolicy | None:
    """The policy governing an invocation: the proxy's own, falling
    back to the runtime's (ORB-wide) policy."""
    if explicit is not None:
        return explicit
    return runtime.ft_policy
