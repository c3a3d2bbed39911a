"""The shared network link: processor-sharing bandwidth model.

One physical link joins the two machines (§3.1: "the network transfer
is conducted over a 155 Mb/s ATM link … the machines as well as the
link were dedicated").  When several transfers are in flight — the
multi-port method's interleaved sends — each gets an equal share of
the raw bandwidth, and crucially the link never idles while any
transfer has data ready.  A single synchronous sender, by contrast,
leaves the link idle during every rendezvous stall, which is exactly
the effect the paper exploits: "the multi-port method allowed us to
better utilize the network link".

The model is classic egalitarian processor sharing: with ``k`` active
transfers each proceeds at ``bandwidth / k``; on every arrival or
departure the remaining work of each transfer is aged and the next
completion re-scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.simnet.engine import Event, SimulationError, Simulator


@dataclass
class _Transfer:
    remaining: float
    event: Event


class SharedLink:
    """A full-duplex-agnostic shared pipe (the paper's single ATM link).

    ``transmit(nbytes)`` returns an event that triggers when the final
    byte has been serialized onto the wire and propagated (one latency
    is charged per transfer, up front).
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth: float,
        latency: float = 0.0,
    ) -> None:
        if bandwidth <= 0:
            raise SimulationError("link bandwidth must be positive")
        self.sim = sim
        self.bandwidth = bandwidth
        self.latency = latency
        self._active: list[_Transfer] = []
        self._last_update = 0.0
        self._wakeup_tag = 0
        #: Total bytes carried (for utilization accounting).
        self.bytes_carried = 0.0
        #: Integral of busy time (at least one active transfer).
        self.busy_time = 0.0

    def transmit(self, nbytes: float) -> Event:
        """Start a transfer; returns its completion event."""
        if nbytes < 0:
            raise SimulationError("cannot transmit negative bytes")
        event = self.sim.event(f"transmit({nbytes})")
        if nbytes == 0:
            self.sim._schedule(self.latency, event.succeed)
            return event
        self.bytes_carried += nbytes

        def start() -> None:
            self._age()
            self._active.append(_Transfer(float(nbytes), event))
            self._reschedule()

        # Latency first, then the queue.
        self.sim._schedule(self.latency, start)
        return event

    def _rate(self) -> float:
        if not self._active:
            return 0.0
        return self.bandwidth / len(self._active)

    def _age(self) -> None:
        """Advance every active transfer to the current time."""
        elapsed = self.sim.now - self._last_update
        self._last_update = self.sim.now
        if elapsed <= 0 or not self._active:
            return
        self.busy_time += elapsed
        rate = self._rate()
        for transfer in self._active:
            transfer.remaining = max(
                0.0, transfer.remaining - rate * elapsed
            )

    def _reschedule(self) -> None:
        """Schedule the next completion check (cancelling stale ones
        by tag)."""
        self._wakeup_tag += 1
        tag = self._wakeup_tag
        if not self._active:
            return
        rate = self._rate()
        next_done = min(t.remaining for t in self._active)
        delay = next_done / rate

        def wake() -> None:
            if tag != self._wakeup_tag:
                return  # superseded by a later arrival/departure
            self._age()
            now, rate = self.sim.now, self._rate()
            # A transfer is finished once what it has left cannot
            # advance the clock: rescheduling it at the same instant
            # would wake forever without ageing it.
            def done(t: _Transfer) -> bool:
                return t.remaining <= 1e-9 or now + t.remaining / rate == now

            finished = [t for t in self._active if done(t)]
            self._active = [t for t in self._active if not done(t)]
            for transfer in finished:
                transfer.event.succeed()
            self._reschedule()

        self.sim._schedule(delay, wake)

    def utilization(self) -> float:
        """Fraction of elapsed time the link was busy."""
        if self.sim.now <= 0:
            return 0.0
        return min(1.0, self.busy_time / self.sim.now)
