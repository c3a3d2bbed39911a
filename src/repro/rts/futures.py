"""ABC++-style futures (paper §2.1).

"PARDIS supports non-blocking invocations returning futures (similar
to ABC++ futures) as its 'out' arguments.  This allows the client to
use remote resources concurrently with its own, and provides the
programmer with an elegant way of representing results which are not
yet available."

A :class:`Future` is a write-once cell.  Readers block in
:meth:`value`/:meth:`wait` until a producer calls :meth:`set_result`
or :meth:`set_exception`.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable


class FutureError(RuntimeError):
    """Misuse of a future (double write, timeout, …)."""


class Future:
    """A write-once result placeholder.

    The non-blocking stub methods generated by the IDL compiler return
    one future per ``out``/``inout``/return value; touching the future
    blocks until the reply arrives, exactly like ABC++ futures.
    """

    def __init__(self, label: str = "") -> None:
        self._label = label
        self._cond = threading.Condition()
        self._done = False
        self._result: Any = None
        self._exception: BaseException | None = None
        self._callbacks: list[Callable[["Future"], None]] = []
        #: Demand hook: called (with this future and the reader's
        #: timeout, ``0`` for a poll) by readers about to block, so a
        #: lazy producer — the pipelined invocation worker, which
        #: defers reply completion — knows to complete it, possibly on
        #: the reader's own thread.  Never called once the future is
        #: resolved.
        self._pre_wait: Callable[["Future", float | None], None] | None = None
        #: ``repro.trace`` metrics registry (set by the invocation
        #: worker when tracing is on): readers' blocking time lands in
        #: the ``future.wait_us`` histogram.
        self._trace_metrics: Any = None
        #: ``repro.san`` lifecycle state (set by the sanitizer's
        #: future tracker; ``None`` = untracked, the accessors below
        #: then pay a single attribute test).
        self._san_state: Any = None

    @property
    def label(self) -> str:
        return self._label

    def ready(self) -> bool:
        """Non-blocking: has the value arrived?

        Asking is a demand, like :meth:`value`: a lazy producer is told
        to complete the future (the pipelined invocation worker drains
        through it), so on an SPMD client every rank must ask at the
        same program point."""
        self._announce_demand(0)
        return self._done

    def _announce_demand(self, timeout: float | None) -> None:
        """Tell the lazy producer that a reader will wait up to
        ``timeout`` seconds (``None``: for good; ``0``: a poll) —
        unless there is nothing left to produce."""
        hook = self._pre_wait
        if hook is not None and not self._done:
            hook(self, timeout)

    def wait(self, timeout: float | None = None) -> None:
        """Block until the future resolves (value or exception)."""
        metrics = self._trace_metrics
        start = time.perf_counter_ns() if metrics is not None else 0
        # The producer may resolve the future on this very thread.
        self._announce_demand(timeout)
        resolved = self._done
        if not resolved:
            with self._cond:
                resolved = self._cond.wait_for(lambda: self._done, timeout)
        if metrics is not None:
            metrics.histogram("future.wait_us").observe(
                (time.perf_counter_ns() - start) / 1e3
            )
        if not resolved:
            raise FutureError(
                f"future {self._label or id(self)} not resolved "
                f"within {timeout} seconds"
            )
        if self._san_state is not None:
            self._san_state.consumed = True

    def value(self, timeout: float | None = None) -> Any:
        """Block until resolved; return the value or re-raise the
        producer's exception."""
        exc = self.exception(timeout)
        if exc is not None:
            raise exc
        return self._result

    #: ABC++ spelling.
    touch = value
    #: concurrent.futures spelling, for familiarity.
    result = value

    def exception(
        self, timeout: float | None = None
    ) -> BaseException | None:
        """Block until resolved; return the producer's exception (or
        ``None`` on success) instead of raising it — the
        concurrent.futures accessor, useful for inspecting how a
        fault-tolerant invocation failed without a try/except."""
        self.wait(timeout)
        if self._san_state is not None:
            self._san_state.exc_retrieved = True
        return self._exception

    def set_result(self, value: Any) -> None:
        """Resolve the future.  A future resolves exactly once."""
        self._resolve(value, None)

    def set_exception(self, exc: BaseException) -> None:
        """Resolve the future with an error raised to readers."""
        self._resolve(None, exc)

    def _resolve(self, value: Any, exc: BaseException | None) -> None:
        with self._cond:
            if self._done:
                raise FutureError(
                    f"future {self._label or id(self)} already resolved"
                )
            self._result = value
            self._exception = exc
            self._done = True
            if self._san_state is not None:
                self._san_state.resolved = True
                if exc is not None:
                    self._san_state.failed = True
                    self._san_state.exc_repr = repr(exc)
            callbacks = list(self._callbacks)
            self._callbacks.clear()
            self._cond.notify_all()
        for callback in callbacks:
            callback(self)

    def add_done_callback(self, fn: Callable[["Future"], None]) -> None:
        """Run ``fn(self)`` when resolved (immediately if already)."""
        with self._cond:
            if not self._done:
                self._callbacks.append(fn)
                return
        fn(self)

    def then(self, fn: Callable[[Any], Any]) -> "Future":
        """Chain: a future of ``fn(value)``, propagating exceptions."""
        chained = Future(label=f"{self._label}.then")
        # Demand on the chained future is demand on this one: a reader
        # blocking on the chain must flush this future's lazy producer.
        chained._pre_wait = lambda _f, timeout: self._announce_demand(timeout)

        def complete(parent: "Future") -> None:
            try:
                chained.set_result(fn(parent.value()))
            except BaseException as exc:  # noqa: BLE001 - propagate to reader
                chained.set_exception(exc)

        self.add_done_callback(complete)
        return chained

    def __repr__(self) -> str:
        # The state as it stands: no demand, so printing a future on
        # one rank moves nothing.
        state = "ready" if self._done else "pending"
        return f"<Future {self._label or hex(id(self))} {state}>"
