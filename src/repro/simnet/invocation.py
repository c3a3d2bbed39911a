"""Simulated invocations: the two transfer methods under the testbed.

Each method's stages are written once, as simulator processes: the
client's request stages, the object's server stages and the reply.
They run for a burst of ``k`` client applications that each invoke
one SPMD object at t=0.  Every client runs on its own machine; the
shared resources are the one link and the object, which serves one
request at a time, in the order the clients issued them (client
``j``'s request is the ``j``-th it serves).  While the object serves
request ``j``, the arguments of request ``j+1`` already cross the
link: the ports buffer them.

:func:`simulate_centralized` and :func:`simulate_multiport` run a
burst of one — the paper's experiment, §3.1: "in order to bring out
the asymmetry of interaction … we were including one 'in' argument
sent only from the client to the server" — and return the component
breakdown the corresponding table reports.  :func:`simulate_concurrent`
runs a burst of ``k``: the throughput side of §3.3's argument that a
separate invocation header avoids contention between invoking clients.

The layouts and chunk schedules come from the *real* partitioning code
(:func:`repro.dist.transfer_schedule`), so who-sends-what-to-whom is
identical to the functional engines in :mod:`repro.orb.transfer`.

Times are milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dist import BlockTemplate, transfer_schedule
from repro.dist.template import DistTemplate, Layout
from repro.simnet.calibration import SimConfig
from repro.simnet.engine import Event, Process, Simulator
from repro.simnet.network import SharedLink

#: Size of the reply carrying only a completion status (bytes).
_REPLY_BYTES = 64.0
#: Size of the multi-port invocation header (bytes).
_HEADER_BYTES = 256.0

#: MB/s → bytes per millisecond (simulation time unit).
_MBPS_TO_BYTES_PER_MS = 1024.0 * 1024.0 / 1e3


@dataclass(frozen=True)
class CentralizedBreakdown:
    """Table 1's columns for one configuration."""

    nclient: int
    nserver: int
    nbytes: int
    t_inv: float
    t_gather: float
    t_pack_send: float
    t_recv: float
    t_scatter: float

    @property
    def effective_bandwidth(self) -> float:
        """MB/s including all invocation overhead (Figure 4's y-axis)."""
        return (self.nbytes / (1024.0 * 1024.0)) / (self.t_inv / 1e3)


@dataclass(frozen=True)
class MultiPortBreakdown:
    """Table 2's columns for one configuration."""

    nclient: int
    nserver: int
    nbytes: int
    t_inv: float
    t_send: float  # max over client threads
    t_pack: float  # max over client threads
    t_recv_unpack: float  # max over server threads
    t_barrier: float  # post-invocation wait of the communicating thread
    link_utilization: float

    @property
    def effective_bandwidth(self) -> float:
        return (self.nbytes / (1024.0 * 1024.0)) / (self.t_inv / 1e3)


@dataclass(frozen=True)
class ConcurrentBreakdown:
    """Aggregate results of a k-client burst."""

    method: str
    nclients: int
    client_threads: int
    nserver: int
    nbytes: int
    #: Time until the last client's reply (ms).
    makespan: float
    #: Mean per-request latency, request send to reply (ms).
    mean_latency: float
    #: Aggregate payload rate over the burst (MB/s).
    aggregate_bandwidth: float
    link_utilization: float


class _Burst:
    """One object, one link, and the stages of each method's requests.

    ``centralized`` and ``multiport`` start one invocation's processes
    and return them with the event that frees the object for the next
    request; they fill ``clocks`` with the invocation's component
    times as its stages run.
    """

    def __init__(
        self,
        cfg: SimConfig,
        multiport: bool,
        nclient: int,
        nserver: int,
        nbytes: int,
        element_size: int,
        client_template: DistTemplate | None = None,
        server_template: DistTemplate | None = None,
        reply_bytes: int = 0,
    ) -> None:
        nelems = nbytes // element_size
        self.cfg = cfg
        self.nbytes = nbytes
        self.reply_bytes = reply_bytes
        self.element_size = element_size
        self.client_layout = (client_template or BlockTemplate()).layout(
            nelems, nclient
        )
        self.server_layout = (server_template or BlockTemplate()).layout(
            nelems, nserver
        )
        self.sim = Simulator()
        self.link = SharedLink(
            self.sim,
            cfg.link_bandwidth * _MBPS_TO_BYTES_PER_MS,
            cfg.link_latency,
        )
        self.stall = cfg.pair_stall(nclient, nserver, multiport=multiport)
        self.stages = self.multiport if multiport else self.centralized

    def run(self, k: int) -> list[dict]:
        """Start ``k`` invocations at t=0 and run them to the end.

        Returns each invocation's clocks; ``"end"`` is when its last
        process finished (the client holds its reply).
        """
        served: Event | None = None
        invocations = []
        for _ in range(k):
            clocks: dict = {}
            procs, served = self.stages(clocks, served)
            self.sim.process(self._finish(procs, clocks), "finish")
            invocations.append(clocks)
        self.sim.run()
        return invocations

    def _finish(self, procs: list[Process], clocks: dict):
        yield self.sim.all_of(procs)
        clocks["end"] = self.sim.now

    def work(self, ms: float):
        """Keep one thread busy for ``ms``; no cost takes no event."""
        if ms:
            yield self.sim.timeout(ms)

    def send(self, nbytes: float):
        """Ship ``nbytes`` as synchronous segments: each waits out one
        rendezvous stall, then takes its share of the link."""
        segment = self.cfg.segment_bytes
        full, rest = divmod(int(nbytes), segment)
        for seg in [float(segment)] * full + ([float(rest)] if rest else []):
            yield from self.work(self.stall)
            yield self.link.transmit(seg)

    def _bytes(self, layout: Layout, rank: int) -> int:
        return layout.local_length(rank) * self.element_size

    def _remote(self, layout: Layout) -> list[int]:
        """The blocks the communicating thread gathers or scatters."""
        return [
            self._bytes(layout, r)
            for r in range(1, layout.nranks)
            if layout.local_length(r)
        ]

    def centralized(self, clocks: dict, served: Event | None):
        """Paper §3.2, Figure 2: fully sequential.

        Synchronize → gather at the client's communicating thread →
        marshal → one synchronous network message → unmarshal →
        scatter at the server → execute → status reply.  With reply
        data (an inout/out argument) the mirror path runs instead of
        the status reply: server gather + marshal, one message, client
        unmarshal + scatter.
        """
        sim, cfg, nbytes = self.sim, self.cfg, self.nbytes
        reply = self.reply_bytes
        client_blocks = self._remote(self.client_layout)
        server_blocks = self._remote(self.server_layout)
        freed = sim.event("served")

        def invocation():
            # Gather: the communicating thread receives every other
            # thread's block over shared memory (Figure 2's dotted lines).
            start = sim.now
            yield from self.work(cfg.client.gather_time(client_blocks))
            clocks["gather"] = sim.now - start
            # Marshal + send as one message: "all information
            # associated with a request is sent in one message".
            start = sim.now
            yield from self.work(cfg.client.pack_time(nbytes))
            yield from self.send(nbytes)
            clocks["pack_send"] = sim.now - start
            if served is not None:
                yield served
            # The server's communicating thread unmarshals ...
            start = sim.now
            yield from self.work(cfg.server.unpack_time(nbytes))
            clocks["recv"] = sim.now - start
            # ... and scatters to the computing threads.
            start = sim.now
            yield from self.work(cfg.server.scatter_time(server_blocks))
            clocks["scatter"] = sim.now - start
            if reply:
                yield from self.work(cfg.server.gather_time(
                    [b * reply / nbytes for b in server_blocks]
                ))
                yield from self.work(cfg.server.pack_time(reply))
            yield from self.send(reply or _REPLY_BYTES)
            freed.succeed()
            if reply:
                yield from self.work(cfg.client.unpack_time(reply))
                yield from self.work(cfg.client.scatter_time(
                    [b * reply / nbytes for b in client_blocks]
                ))

        return [sim.process(invocation(), "centralized")], freed

    def multiport(self, clocks: dict, served: Event | None):
        """Paper §3.3, Figure 3.

        The header travels centralized; every client thread then
        marshals its own block and ships each overlap chunk straight to
        the owning server thread.  All transfers share the one link
        (processor sharing), so while one pair is stalled in a
        rendezvous another pair's data keeps the wire busy.  With reply
        data, every server thread ships its share of the result
        straight back to the owning client threads after the
        post-invocation barrier.
        """
        sim, cfg, size = self.sim, self.cfg, self.element_size
        clayout, slayout = self.client_layout, self.server_layout
        schedule = transfer_schedule(clayout, slayout)
        scale = self.reply_bytes / self.nbytes if self.nbytes else 0.0
        chunk = {id(step): sim.event("chunk") for step in schedule}
        back = {id(step): sim.event("reply-chunk") for step in schedule}
        barrier = sim.gate(slayout.nranks, "post-invoke")
        clocks.update(pack=[], send=[], unpack=[])

        def client_thread(rank: int):
            local_bytes = self._bytes(clayout, rank)
            start = sim.now
            yield from self.work(cfg.client.pack_time(local_bytes))
            clocks["pack"].append(sim.now - start)
            start = sim.now
            for step in schedule:
                if step.src_rank == rank:
                    yield from self.send(step.nelems * size)
                    chunk[id(step)].succeed()
            clocks["send"].append(sim.now - start)

        def server_thread(rank: int):
            waits = [chunk[id(s)] for s in schedule if s.dst_rank == rank]
            if served is not None:
                waits.append(served)
            if waits:
                yield sim.all_of(waits)
            local_bytes = self._bytes(slayout, rank)
            start = sim.now
            yield from self.work(cfg.server.unpack_time(local_bytes))
            clocks["unpack"].append(sim.now - start)
            arrived = sim.now
            barrier.arrive()
            if rank == 0:
                # The communicating thread waits out the barrier, then
                # replies with the completion status.
                yield barrier
                clocks["barrier"] = barrier.arrival_times[-1] - arrived
                yield from self.send(_REPLY_BYTES)

        def server_reply_thread(rank: int):
            yield barrier
            local_bytes = self._bytes(slayout, rank)
            yield from self.work(cfg.server.pack_time(local_bytes * scale))
            for step in schedule:
                if step.dst_rank == rank:  # the reply reverses the schedule
                    yield from self.send(step.nelems * size * scale)
                    back[id(step)].succeed()

        def client_reply_thread(rank: int):
            mine = [back[id(s)] for s in schedule if s.src_rank == rank]
            if mine:
                yield sim.all_of(mine)
            local_bytes = self._bytes(clayout, rank)
            yield from self.work(cfg.client.unpack_time(local_bytes * scale))

        def spawn(thread, layout: Layout) -> list[Process]:
            return [sim.process(thread(r)) for r in range(layout.nranks)]

        procs = [sim.process(self.send(_HEADER_BYTES), "header")]
        procs += spawn(client_thread, clayout)
        servers = spawn(server_thread, slayout)
        if self.reply_bytes:
            servers += spawn(server_reply_thread, slayout)
            procs += spawn(client_reply_thread, clayout)
        return procs + servers, sim.all_of(servers)


def simulate_centralized(
    cfg: SimConfig,
    nclient: int,
    nserver: int,
    nbytes: int,
    *,
    element_size: int = 8,
    client_template: DistTemplate | None = None,
    server_template: DistTemplate | None = None,
    reply_bytes: int = 0,
) -> CentralizedBreakdown:
    """One centralized-method invocation (paper §3.2, Figure 2).

    ``reply_bytes`` models an inout/out workload: that much argument
    data returns to the client through the mirror path.  The paper's
    experiment is ``reply_bytes=0`` (one ``in`` argument, status-only
    reply).
    """
    (clocks,) = _Burst(
        cfg, False, nclient, nserver, nbytes, element_size,
        client_template, server_template, reply_bytes,
    ).run(1)
    return CentralizedBreakdown(
        nclient=nclient,
        nserver=nserver,
        nbytes=nbytes,
        t_inv=clocks["end"] + cfg.request_overhead,
        t_gather=clocks["gather"],
        t_pack_send=clocks["pack_send"],
        t_recv=clocks["recv"],
        t_scatter=clocks["scatter"],
    )


def simulate_multiport(
    cfg: SimConfig,
    nclient: int,
    nserver: int,
    nbytes: int,
    *,
    element_size: int = 8,
    client_template: DistTemplate | None = None,
    server_template: DistTemplate | None = None,
    reply_bytes: int = 0,
) -> MultiPortBreakdown:
    """One multi-port-method invocation (paper §3.3, Figure 3).

    ``reply_bytes`` models an inout/out workload: reply-phase chunks
    from every server thread straight to the owning client threads.
    The paper's experiment is ``reply_bytes=0``.
    """
    burst = _Burst(
        cfg, True, nclient, nserver, nbytes, element_size,
        client_template, server_template, reply_bytes,
    )
    (clocks,) = burst.run(1)
    return MultiPortBreakdown(
        nclient=nclient,
        nserver=nserver,
        nbytes=nbytes,
        t_inv=clocks["end"] + cfg.request_overhead,
        t_send=max(clocks["send"]),
        t_pack=max(clocks["pack"]),
        t_recv_unpack=max(clocks["unpack"]),
        t_barrier=clocks["barrier"],
        link_utilization=burst.link.utilization(),
    )


def simulate_concurrent(
    cfg: SimConfig,
    method: str,
    nclients: int,
    client_threads: int,
    nserver: int,
    nbytes: int,
    *,
    element_size: int = 8,
) -> ConcurrentBreakdown:
    """``nclients`` independent client apps each invoke once at t=0.

    Every request runs the same stages as a single invocation of
    ``method``; the burst shares the link and queues at the object.
    Each client's latency runs from t=0 to its reply.
    """
    if method not in ("centralized", "multiport"):
        raise ValueError(f"unknown method {method!r}")
    if nclients < 1:
        raise ValueError("need at least one client")
    burst = _Burst(
        cfg, method == "multiport", client_threads, nserver, nbytes,
        element_size,
    )
    finish = [
        clocks["end"] + cfg.request_overhead
        for clocks in burst.run(nclients)
    ]
    makespan = max(finish)
    total_mb = nclients * nbytes / (1024.0 * 1024.0)
    return ConcurrentBreakdown(
        method=method,
        nclients=nclients,
        client_threads=client_threads,
        nserver=nserver,
        nbytes=nbytes,
        makespan=makespan,
        mean_latency=sum(finish) / nclients,
        aggregate_bandwidth=total_mb / (makespan / 1e3),
        link_utilization=burst.link.utilization(),
    )
