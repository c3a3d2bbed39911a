"""The fault-injection fabric: seeded, deterministic misbehavior.

:class:`FaultyFabric` wraps any transport fabric — the in-process
:class:`~repro.orb.transport.Fabric` or a TCP
:class:`~repro.orb.socketnet.SocketFabric` — and injects faults on the
send side from a seeded :class:`FaultSchedule`:

- **drop** — the frame silently disappears (lost datagram).
- **delay** — the frame arrives late, off a timer thread (reordering).
- **duplicate** — the frame arrives twice (retransmission ghosts).
- **truncate** — the frame arrives short (corruption; the receive
  paths must drop it as garbage, not crash).
- **disconnect** — the send itself raises ``TransportError`` (an
  unreachable endpoint, the multiport degradation trigger).

Wrapped ports route their sends back through the wrapper (the fabric
reference on each opened port is patched), so *every* ORB message —
requests, replies, data chunks — passes the schedule; ``control``
frames are exempt by default so shutdown stays reliable.  Each
``decide`` consumes a fixed number of PRNG draws, making a schedule's
fault sequence a pure function of its seed and the send count.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.orb.transport import (
    Fabric,
    TransportError,
    check_payload,
    flatten_payload,
)

#: Message kinds faulted by default (control frames carry shutdown).
DEFAULT_KINDS = ("request", "reply", "data")

_ACTIONS = ("drop", "delay", "duplicate", "truncate", "disconnect")


class FaultSchedule:
    """A seeded per-send fault decision stream.

    Probabilities are per fault type and evaluated independently per
    send, in a fixed order, so the decision sequence is deterministic
    in (seed, send index).  ``start_after`` exempts the first N
    eligible sends — useful to let a binding establish itself before
    the weather turns.
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        drop: float = 0.0,
        delay: float = 0.0,
        duplicate: float = 0.0,
        truncate: float = 0.0,
        disconnect: float = 0.0,
        delay_ms: float = 2.0,
        kinds: tuple[str, ...] = DEFAULT_KINDS,
        start_after: int = 0,
    ) -> None:
        rates = {
            "drop": drop,
            "delay": delay,
            "duplicate": duplicate,
            "truncate": truncate,
            "disconnect": disconnect,
        }
        for name, rate in rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ValueError(
                    f"{name} probability must be in [0, 1], got {rate}"
                )
        if delay_ms < 0:
            raise ValueError("delay_ms cannot be negative")
        if start_after < 0:
            raise ValueError("start_after cannot be negative")
        self.seed = seed
        self.rates = rates
        self.delay_ms = delay_ms
        self.kinds = tuple(kinds)
        self.start_after = start_after
        import random

        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._seen = 0

    def decide(self, kind: str) -> tuple[str, ...]:
        """The fault actions for the next send of ``kind``."""
        with self._lock:
            if kind not in self.kinds:
                return ()
            self._seen += 1
            if self._seen <= self.start_after:
                # Burn the same number of draws as a live decision so
                # the stream stays aligned with the send index.
                for rate in self.rates.values():
                    if rate > 0.0:
                        self._rng.random()
                return ()
            actions = []
            for name in _ACTIONS:
                rate = self.rates[name]
                if rate > 0.0 and self._rng.random() < rate:
                    actions.append(name)
        return tuple(actions)


class FaultyFabric:
    """A fabric wrapper injecting faults from a :class:`FaultSchedule`.

    Implements the declared fabric surface
    (:class:`~repro.orb.transport.Fabric`: ``open_port`` / ``send`` /
    meters / ``open_port_count`` / ``governor`` / ``stats``)
    explicitly, delegating only what is particular to the wrapped
    fabric — socket attributes like ``host`` — so it can stand in
    anywhere a fabric is accepted, including ``ORB(fabric=...)``.
    """

    def __init__(self, inner: Any, schedule: FaultSchedule) -> None:
        self.inner = inner
        self.schedule = schedule
        self._lock = threading.Lock()
        self._injected = dict.fromkeys(_ACTIONS, 0)
        self._forwarded = 0

    # -- fabric contract -------------------------------------------------

    def open_port(self, label: str = "") -> Any:
        port = self.inner.open_port(label)
        # Sends issued through the port must pass the schedule; the
        # port's delivery side still belongs to the inner fabric.
        port._fabric = self
        return port

    def send(
        self, src: Any, dest: Any, payload: Any, kind: str
    ) -> None:
        check_payload(payload)
        actions = self.schedule.decide(kind)
        if not actions:
            with self._lock:
                self._forwarded += 1
            self.inner.send(src, dest, payload, kind)
            return
        self._count(actions)
        if "disconnect" in actions:
            raise TransportError(
                f"injected fault: {dest} is unreachable from {src}"
            )
        if "drop" in actions:
            return
        # Delayed/duplicated/truncated frames outlive this call, so
        # detach them from the sender's buffers (the zero-copy
        # contract lets the sender reuse them once send returns).
        data = bytes(flatten_payload(payload))
        if "truncate" in actions:
            cut = max(1, len(data) // 4)
            data = data[: len(data) - cut]
        copies = 2 if "duplicate" in actions else 1
        for _ in range(copies):
            if "delay" in actions:
                timer = threading.Timer(
                    self.schedule.delay_ms / 1e3,
                    self._send_late,
                    args=(src, dest, data, kind),
                )
                timer.daemon = True
                timer.start()
            else:
                self._send_late(src, dest, data, kind)

    #: A hop with no envelope: every frame through :meth:`send`, so
    #: each passes the schedule.
    route = Fabric.route

    def add_meter(self, meter: Any) -> None:
        self.inner.add_meter(meter)

    def remove_meter(self, meter: Any) -> None:
        self.inner.remove_meter(meter)

    def _unregister(self, address: Any) -> None:
        self.inner._unregister(address)

    def open_port_count(self) -> int:
        return self.inner.open_port_count()

    @property
    def governor(self) -> Any:
        return self.inner.governor

    def stats(self) -> dict[str, Any]:
        """The wrapped fabric's section plus the ``faults`` tally."""
        return {**self.inner.stats(), "faults": self.fault_stats()}

    # -- fault bookkeeping -----------------------------------------------

    def _send_late(
        self, src: Any, dest: Any, data: bytes, kind: str
    ) -> None:
        try:
            self.inner.send(src, dest, data, kind)
        except Exception:
            # A late frame to a finished endpoint is just loss.
            pass

    def _count(self, actions: tuple[str, ...]) -> None:
        with self._lock:
            for action in actions:
                self._injected[action] += 1

    def fault_stats(self) -> dict[str, int]:
        """Snapshot of injected-fault counters (plus clean sends)."""
        with self._lock:
            stats = dict(self._injected)
            stats["forwarded"] = self._forwarded
        return stats

    # -- passthrough -----------------------------------------------------

    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)

    def close(self) -> None:
        self.inner.close()

    def __enter__(self) -> "FaultyFabric":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"<FaultyFabric over {self.inner!r}>"
