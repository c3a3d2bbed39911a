"""Server-side fan-in: per-client backpressure.

The event-loop receive path (:mod:`repro.orb.socketnet`) can accept
thousands of client connections on one thread, which moves the failure
mode from "too many threads" to "too much admitted work".  This module
is the one valve: a :class:`ServerGovernor` counts, per client
identity, the requests the request intake admitted and the dispatch
layer has not finished.  When one identity reaches
:data:`CLIENT_QUEUE_LIMIT`, the event loop stops reading *that
client's* sockets; TCP flow control pushes the stall back to it while
every other client's frames keep flowing.  Reading resumes once its
queue drains to :data:`RESUME_AT`.

The governor's tallies are :data:`SERVER_COUNTERS`: read through
``orb.stats()["server"]`` and, adopted by the ORB's registry, as the
``server.*`` metrics — see ``docs/scaling.md``.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.metrics import Counter

#: Admitted-but-unfinished requests one client identity may have
#: before the event loop stops reading its sockets.
CLIENT_QUEUE_LIMIT = 64
#: Queue depth at which a paused identity's sockets are read again.
RESUME_AT = 32

#: What a governor counts (its :attr:`ServerGovernor.counters`).
SERVER_COUNTERS = (
    "server.connections.accepted",
    "server.connections.closed",
    "server.requests.admitted",
    "server.requests.completed",
    "server.pauses",
    "server.resumes",
)


class ServerGovernor:
    """Backpressure state for one socket fabric's server.

    The event loop calls :meth:`on_connection` / :meth:`on_disconnect`,
    and the request intake :meth:`admit_request`, on the loop thread;
    the dispatch layer calls :meth:`request_done` from worker threads
    when an admitted request finishes (including error, replay and drop
    paths).  Per-client depth is tracked by the 64-bit client identity
    in the request id's high bits — the same identity the client-fifo
    dispatch policy orders by — so backpressure and fairness agree on
    what "one client" means.  The depths are read at each call, from
    :data:`CLIENT_QUEUE_LIMIT` and :data:`RESUME_AT`.
    """

    def __init__(self, name: str = "server") -> None:
        self.name = name
        self._lock = threading.Lock()
        self._loop: Any = None
        #: The decisions taken, by metric name, counted under the lock
        #: with the state they change so a snapshot is coherent; the
        #: gauges below are state, not tallies.
        self.counters = {name: Counter(name) for name in SERVER_COUNTERS}
        self._connections = 0
        self._inflight = 0
        #: identity -> admitted-but-unfinished request count.
        self._pending: dict[int, int] = {}
        self._paused: set[int] = set()

    def attach_loop(self, loop: Any) -> None:
        self._loop = loop

    # -- connections (event-loop thread) -------------------------------------

    def on_connection(self) -> None:
        """Count a freshly accepted connection."""
        with self._lock:
            self._connections += 1
            self.counters["server.connections.accepted"].inc()

    def on_disconnect(self, orphaned_identities: Any = ()) -> None:
        """A connection closed; identities whose last connection this
        was shed their pending/paused state (their in-flight requests
        may still execute — a later :meth:`request_done` for a
        forgotten identity is a no-op)."""
        with self._lock:
            self._connections -= 1
            for identity in orphaned_identities:
                pending = self._pending.pop(identity, 0)
                self._inflight -= pending
                self._paused.discard(identity)
            self.counters["server.connections.closed"].inc()

    # -- requests (event-loop thread) ----------------------------------------

    def is_paused(self, identity: int) -> bool:
        with self._lock:
            return identity in self._paused

    def admit_request(self, identity: int) -> None:
        """Count one request the intake took from the event loop, and
        pause ``identity`` when it reaches the limit."""
        with self._lock:
            self._inflight += 1
            self.counters["server.requests.admitted"].inc()
            pending = self._pending.get(identity, 0) + 1
            self._pending[identity] = pending
            pause = pending >= CLIENT_QUEUE_LIMIT and identity not in self._paused
            if pause:
                self._paused.add(identity)
                self.counters["server.pauses"].inc()
        if pause and self._loop is not None:
            self._loop.pause(identity)

    # -- completion (dispatch-layer threads) ---------------------------------

    def request_done(self, request_id: int) -> None:
        """An admitted request left the dispatch layer (reply sent,
        dropped, replayed from cache, or failed).  Requests that never
        passed :meth:`admit_request` — e.g. from in-process clients on
        the same fabric — are ignored."""
        identity = int(request_id) >> 32
        resume = False
        with self._lock:
            pending = self._pending.get(identity)
            if pending is None:
                return
            pending -= 1
            self._inflight -= 1
            self.counters["server.requests.completed"].inc()
            if pending <= 0:
                del self._pending[identity]
                pending = 0
            else:
                self._pending[identity] = pending
            if identity in self._paused and pending <= RESUME_AT:
                self._paused.discard(identity)
                self.counters["server.resumes"].inc()
                resume = True
        if resume and self._loop is not None:
            self._loop.request_resume(identity)

    # -- introspection -------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """The ``orb.stats()["server"]`` section (plain data, safe to
        deep-copy)."""
        with self._lock:
            count = {name: c.value for name, c in self.counters.items()}
            return {
                "connections": {
                    "active": self._connections,
                    "accepted": count["server.connections.accepted"],
                    "closed": count["server.connections.closed"],
                },
                "requests": {
                    "inflight": self._inflight,
                    "admitted": count["server.requests.admitted"],
                    "completed": count["server.requests.completed"],
                },
                "backpressure": {
                    "paused_clients": len(self._paused),
                    "pauses": count["server.pauses"],
                    "resumes": count["server.resumes"],
                    "queue_limit": CLIENT_QUEUE_LIMIT,
                    "resume_at": RESUME_AT,
                },
            }
