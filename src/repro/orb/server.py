"""Server-side fan-in governance: admission control and backpressure.

The event-loop receive path (:mod:`repro.orb.socketnet`) can accept
thousands of client connections on one thread, which moves the failure
mode from "too many threads" to "too much admitted work".  This module
is the valve: a :class:`ServerGovernor` attached to the socket fabric
decides, per connection and per request, whether work may enter the
dispatch layer at all — and when a single client outruns the servants,
stops reading *that client's* socket until its queue drains.

Three mechanisms, all tuned through :class:`ServerConfig`:

- **Connection admission** (``max_connections``): a connect beyond the
  limit receives one :data:`KIND_BUSY` frame and is closed — a fast
  NACK instead of a SYN backlog timeout.  Protocol-aware clients can
  read the frame; ORB clients observe the close as a retryable
  ``COMM_FAILURE``.
- **Request admission** (``max_inflight``): a request that would push
  the server past its global in-flight budget is answered immediately
  with a :data:`BUSY_CATEGORY` system-exception reply (retryable under
  a client :class:`~repro.ft.policy.FtPolicy`) without ever touching
  the dispatch queues.
- **Backpressure** (``client_queue_limit``): when one
  client identity accumulates too many admitted-but-unfinished
  requests, the event loop stops reading its socket; TCP flow control
  pushes the stall back to that client while every other client's
  frames keep flowing.  Reading resumes once the queue drains to
  ``resume_at``, half the limit.

The governor's tallies are :data:`SERVER_COUNTERS`: read through
``orb.stats()["server"]`` and, adopted by the ORB's registry, as the
``server.*`` metrics — see ``docs/scaling.md``.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass
from typing import Any

from repro.metrics import Counter
from repro.orb import request as wire
from repro.orb.request import ReplyMessage
from repro.orb.transfer import encode_system_exception
from repro.orb.transport import KIND_REPLY
from repro.trace.span import span_or_null

#: Frame kind of the connection-level fast reject: written once on a
#: connection refused by admission control, immediately before close.
KIND_BUSY = "busy"

#: System-exception category of the request-level BUSY reply.  It is
#: in :data:`repro.ft.policy.DEFAULT_RETRYABLE`, so a fault-tolerant
#: client backs off and retries instead of surfacing an error.
BUSY_CATEGORY = "TRANSIENT"

#: What a governor counts (its :attr:`ServerGovernor.counters`).
SERVER_COUNTERS = (
    "server.connections.accepted",
    "server.connections.rejected",
    "server.connections.closed",
    "server.requests.admitted",
    "server.requests.rejected",
    "server.requests.completed",
    "server.pauses",
    "server.resumes",
)


@dataclass(frozen=True)
class ServerConfig:
    """Fan-in tuning knobs for one :class:`SocketFabric` server.

    A zero disables the corresponding limit.  The defaults admit any
    number of connections and requests but keep per-client
    backpressure on: a single runaway client pauses itself, never the
    server.  See ``docs/scaling.md`` for sizing guidance.
    """

    #: Concurrent accepted connections; further connects get a BUSY
    #: frame and a close (0 = unlimited).
    max_connections: int = 0
    #: Admitted-but-unfinished requests across all clients; beyond it
    #: requests are answered with a retryable BUSY reply (0 = off).
    max_inflight: int = 0
    #: Admitted-but-unfinished requests *per client identity* before
    #: the event loop stops reading that client's socket (0 = off).
    client_queue_limit: int = 64

    @property
    def resume_at(self) -> int:
        """Queue depth at which a paused client's socket is read
        again: half of ``client_queue_limit``, at least 1."""
        return max(1, self.client_queue_limit // 2)


class _BusyRejector:
    """Sends request-level BUSY replies off the event-loop thread.

    Reaching a client's reply port may require a blocking TCP connect,
    which must never stall the loop; rejects queue here instead.  The
    queue is bounded — under a reject storm the overflow is simply
    dropped (the client's deadline machinery covers it)."""

    def __init__(self, port: Any, trace: Any = None, depth: int = 1024):
        self._port = port
        self.trace = trace
        self._queue: queue.Queue[Any] = queue.Queue(maxsize=depth)
        self._thread = threading.Thread(
            target=self._run, name="server-busy-reject", daemon=True
        )
        self._thread.start()

    def submit(
        self, reply_port: Any, request_id: int, trace_id: int
    ) -> bool:
        try:
            self._queue.put_nowait((reply_port, request_id, trace_id))
            return True
        except queue.Full:
            return False

    def _run(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            reply_port, request_id, trace_id = item
            span = span_or_null(
                self.trace,
                "busy",
                trace_id=trace_id,
                side="server",
                rank=0,
                request_id=request_id,
            )
            reply = ReplyMessage(
                request_id,
                wire.STATUS_SYSTEM_EXCEPTION,
                encode_system_exception(
                    BUSY_CATEGORY,
                    "server over its in-flight request budget; retry",
                ),
            )
            try:
                self._port.send(
                    reply_port, reply.encode_segments(), KIND_REPLY
                )
            except Exception:
                # The overloaded-away client is already gone.
                pass
            span.end()

    def stop(self, timeout: float = 2.0) -> None:
        self._queue.put(None)
        self._thread.join(timeout)


class ServerGovernor:
    """Admission + backpressure state for one socket fabric's server.

    The event loop calls :meth:`on_connection` / :meth:`admit_request`
    from its own thread; the dispatch layer calls :meth:`request_done`
    from worker threads when an admitted request finishes (including
    error, replay and drop paths).  Per-client depth is tracked by the
    64-bit client identity in the request id's high bits — the same
    identity the client-fifo dispatch policy orders by — so
    backpressure and fairness agree on what "one client" means.
    """

    def __init__(
        self, config: ServerConfig, name: str = "server"
    ) -> None:
        self.config = config
        self.name = name
        self._lock = threading.Lock()
        self._loop: Any = None
        self._trace: Any = None
        self._fabric: Any = None
        self._rejector: _BusyRejector | None = None
        #: The decisions taken, by metric name, counted under the lock
        #: with the state they change so a snapshot is coherent; the
        #: gauges below are state, not tallies.
        self.counters = {name: Counter(name) for name in SERVER_COUNTERS}
        self._connections = 0
        self._inflight = 0
        #: identity -> admitted-but-unfinished request count.
        self._pending: dict[int, int] = {}
        self._paused: set[int] = set()

    # -- wiring --------------------------------------------------------------

    @property
    def active(self) -> bool:
        """Whether request frames need identity peeking at all."""
        cfg = self.config
        return bool(cfg.max_inflight or cfg.client_queue_limit)

    def attach_loop(self, loop: Any) -> None:
        self._loop = loop

    def attach_fabric(self, fabric: Any) -> None:
        """The fabric whose ports carry BUSY replies (lazily opened)."""
        self._fabric = fabric

    def attach_trace(self, trace: Any) -> None:
        self._trace = trace
        if self._rejector is not None:
            self._rejector.trace = trace

    # -- connection admission (event-loop thread) ---------------------------

    def on_connection(self) -> bool:
        """Admit or refuse a freshly accepted connection."""
        cfg = self.config
        with self._lock:
            admitted = not cfg.max_connections or (
                self._connections < cfg.max_connections
            )
            if admitted:
                self._connections += 1
            self.counters[
                "server.connections.accepted"
                if admitted
                else "server.connections.rejected"
            ].inc()
        return admitted

    def on_disconnect(self, orphaned_identities: Any = ()) -> None:
        """An admitted connection closed; identities whose last
        connection this was shed their pending/paused state (their
        in-flight requests may still execute — a later
        :meth:`request_done` for a forgotten identity is a no-op)."""
        with self._lock:
            self._connections -= 1
            for identity in orphaned_identities:
                pending = self._pending.pop(identity, 0)
                self._inflight -= pending
                self._paused.discard(identity)
            self.counters["server.connections.closed"].inc()

    # -- request admission (event-loop thread) ------------------------------

    def is_paused(self, identity: int) -> bool:
        with self._lock:
            return identity in self._paused

    def admit_request(
        self,
        identity: int,
        request_id: int,
        trace_id: int,
        reply_port: Any,
    ) -> bool:
        """Admit one decoded request frame; on refusal a BUSY reply is
        queued (when the request expects one) and the frame must not
        be delivered."""
        cfg = self.config
        pause = False
        with self._lock:
            if cfg.max_inflight and self._inflight >= cfg.max_inflight:
                self.counters["server.requests.rejected"].inc()
                admitted = False
            else:
                self._inflight += 1
                self.counters["server.requests.admitted"].inc()
                pending = self._pending.get(identity, 0) + 1
                self._pending[identity] = pending
                if (
                    cfg.client_queue_limit
                    and pending >= cfg.client_queue_limit
                    and identity not in self._paused
                ):
                    self._paused.add(identity)
                    self.counters["server.pauses"].inc()
                    pause = True
                admitted = True
        if not admitted:
            if reply_port is not None:
                self._send_busy(reply_port, request_id, trace_id)
            return False
        if pause and self._loop is not None:
            self._loop.pause(identity)
        return True

    def _send_busy(
        self, reply_port: Any, request_id: int, trace_id: int
    ) -> None:
        rejector = self._rejector
        if rejector is None:
            if self._fabric is None:
                return
            port = self._fabric.open_port("server:admission")
            rejector = self._rejector = _BusyRejector(
                port, trace=self._trace
            )
        rejector.submit(reply_port, request_id, trace_id)

    # -- completion (dispatch-layer threads) --------------------------------

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
            if (
                identity in self._paused
                and pending <= self.config.resume_at
            ):
                self._paused.discard(identity)
                self.counters["server.resumes"].inc()
                resume = True
        if resume and self._loop is not None:
            self._loop.request_resume(identity)

    # -- introspection ------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """The ``orb.stats()["server"]`` section (plain data, safe to
        deep-copy)."""
        cfg = self.config
        with self._lock:
            count = {name: c.value for name, c in self.counters.items()}
            return {
                "connections": {
                    "active": self._connections,
                    "accepted": count["server.connections.accepted"],
                    "rejected": count["server.connections.rejected"],
                    "closed": count["server.connections.closed"],
                    "max": cfg.max_connections,
                },
                "requests": {
                    "inflight": self._inflight,
                    "admitted": count["server.requests.admitted"],
                    "rejected": count["server.requests.rejected"],
                    "completed": count["server.requests.completed"],
                    "max_inflight": cfg.max_inflight,
                },
                "backpressure": {
                    "paused_clients": len(self._paused),
                    "pauses": count["server.pauses"],
                    "resumes": count["server.resumes"],
                    "queue_limit": cfg.client_queue_limit,
                    "resume_at": cfg.resume_at,
                },
            }

    def close(self) -> None:
        if self._rejector is not None:
            self._rejector.stop()
            self._rejector = None
