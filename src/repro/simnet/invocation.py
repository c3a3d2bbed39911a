"""Simulated invocations: the two transfer methods under the testbed.

Each function runs ONE blocking invocation carrying one ``in``
distributed sequence (the paper's experiment, §3.1: "in order to bring
out the asymmetry of interaction … we were including one 'in' argument
sent only from the client to the server") and returns the component
breakdown the corresponding table reports.  The layouts and chunk
schedules come from the *real* partitioning code
(:func:`repro.dist.transfer_schedule`), so who-sends-what-to-whom is
identical to the functional engines in :mod:`repro.orb.transfer`.

Times are milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dist import BlockTemplate, transfer_schedule
from repro.dist.template import DistTemplate, Layout
from repro.simnet.calibration import SimConfig
from repro.simnet.engine import Simulator
from repro.simnet.network import SharedLink

#: Size of the reply carrying only a completion status (bytes).
_REPLY_BYTES = 64.0
#: Size of the multi-port invocation header (bytes).
_HEADER_BYTES = 256.0

#: MB/s → bytes per millisecond (simulation time unit).
_MBPS_TO_BYTES_PER_MS = 1024.0 * 1024.0 / 1e3


def _make_link(sim: Simulator, cfg: SimConfig) -> SharedLink:
    return SharedLink(
        sim,
        cfg.link_bandwidth * _MBPS_TO_BYTES_PER_MS,
        cfg.link_latency,
    )


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


def _segments(nbytes: float, segment: int) -> list[float]:
    if nbytes <= 0:
        return []
    full, rest = divmod(int(nbytes), segment)
    sizes = [float(segment)] * full
    if rest:
        sizes.append(float(rest))
    return sizes


def _layout(
    template: DistTemplate | None, nelems: int, nranks: int
) -> Layout:
    return (template or BlockTemplate()).layout(nelems, nranks)


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

    Fully sequential: synchronize → gather at the client's
    communicating thread → marshal → one synchronous network message →
    unmarshal → scatter at the server → execute → status reply.

    ``reply_bytes`` models an inout/out workload: that much argument
    data returns to the client through the mirror path (server gather
    → one message → client scatter).  The paper's experiment is
    ``reply_bytes=0`` (one ``in`` argument, status-only reply).
    """
    nelems = nbytes // element_size
    client_layout = _layout(client_template, nelems, nclient)
    server_layout = _layout(server_template, nelems, nserver)
    sim = Simulator()
    link = _make_link(sim, cfg)
    stall = cfg.pair_stall(nclient, nserver, multiport=False)
    times: dict[str, float] = {}

    def invocation():
        # Gather: the communicating thread receives every other
        # thread's block over shared memory (Figure 2's dotted lines).
        start = sim.now
        remote_chunks = [
            client_layout.local_length(r) * element_size
            for r in range(1, nclient)
            if client_layout.local_length(r)
        ]
        gather = cfg.client.gather_time(remote_chunks)
        if gather:
            yield sim.timeout(gather)
        times["gather"] = sim.now - start

        # Marshal + send as one message: "all information associated
        # with a request is sent in one message".
        start = sim.now
        yield sim.timeout(cfg.client.pack_time(nbytes))
        for seg in _segments(nbytes, cfg.segment_bytes):
            if stall:
                yield sim.timeout(stall)
            yield link.transmit(seg)
        times["pack_send"] = sim.now - start

        # The server's communicating thread unmarshals...
        start = sim.now
        yield sim.timeout(cfg.server.unpack_time(nbytes))
        times["recv"] = sim.now - start

        # ... and scatters to the computing threads.
        start = sim.now
        out_chunks = [
            server_layout.local_length(r) * element_size
            for r in range(1, nserver)
            if server_layout.local_length(r)
        ]
        scatter = cfg.server.scatter_time(out_chunks)
        if scatter:
            yield sim.timeout(scatter)
        times["scatter"] = sim.now - start

        # Post-invocation synchronization + reply.  With reply data
        # the mirror path runs: server-side gather + marshal, one
        # message, client-side unmarshal + scatter.
        if reply_bytes:
            gather_chunks = [
                server_layout.local_length(r) * element_size
                for r in range(1, nserver)
                if server_layout.local_length(r)
            ]
            back_gather = cfg.server.gather_time(
                [b * reply_bytes / max(1, nbytes) for b in gather_chunks]
            ) if nbytes else cfg.server.gather_time(gather_chunks)
            if back_gather:
                yield sim.timeout(back_gather)
            yield sim.timeout(cfg.server.pack_time(reply_bytes))
            for seg in _segments(reply_bytes, cfg.segment_bytes):
                if stall:
                    yield sim.timeout(stall)
                yield link.transmit(seg)
            yield sim.timeout(cfg.client.unpack_time(reply_bytes))
            scatter_chunks = [
                client_layout.local_length(r) * element_size
                for r in range(1, nclient)
                if client_layout.local_length(r)
            ]
            back_scatter = cfg.client.scatter_time(
                [b * reply_bytes / max(1, nbytes) for b in scatter_chunks]
            ) if nbytes else cfg.client.scatter_time(scatter_chunks)
            if back_scatter:
                yield sim.timeout(back_scatter)
        else:
            if stall:
                yield sim.timeout(stall)
            yield link.transmit(_REPLY_BYTES)
        times["inv"] = sim.now + cfg.request_overhead

    sim.process(invocation(), "centralized")
    sim.run()
    return CentralizedBreakdown(
        nclient=nclient,
        nserver=nserver,
        nbytes=nbytes,
        t_inv=times["inv"],
        t_gather=times["gather"],
        t_pack_send=times["pack_send"],
        t_recv=times["recv"],
        t_scatter=times["scatter"],
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

    The header travels centralized; every client thread then marshals
    its own block and ships each overlap chunk straight to the owning
    server thread.  All transfers share the one physical link
    (processor sharing), so while one pair is stalled in a rendezvous
    another pair's data keeps the wire busy.

    ``reply_bytes`` models an inout/out workload: after the barrier,
    every server thread ships its share of the result straight back to
    the owning client threads (reply-phase chunks).  The paper's
    experiment is ``reply_bytes=0``.
    """
    nelems = nbytes // element_size
    client_layout = _layout(client_template, nelems, nclient)
    server_layout = _layout(server_template, nelems, nserver)
    schedule = transfer_schedule(client_layout, server_layout)
    sim = Simulator()
    link = _make_link(sim, cfg)
    stall = cfg.pair_stall(nclient, nserver, multiport=True)

    pack_times = [0.0] * nclient
    send_times = [0.0] * nclient
    unpack_times = [0.0] * nserver
    barrier_arrivals = [0.0] * nserver
    chunk_done = {
        id(step): sim.event(f"chunk{i}") for i, step in enumerate(schedule)
    }
    barrier = sim.gate(nserver, "post-invoke")
    reply_done = sim.event("reply")

    # Header: the communicating thread's request message.
    def header():
        if stall:
            yield sim.timeout(stall)
        yield link.transmit(_HEADER_BYTES)

    sim.process(header(), "header")

    def client_thread(rank: int):
        local_bytes = client_layout.local_length(rank) * element_size
        start = sim.now
        if local_bytes:
            yield sim.timeout(cfg.client.pack_time(local_bytes))
        pack_times[rank] = sim.now - start
        start = sim.now
        for step in schedule:
            if step.src_rank != rank:
                continue
            for seg in _segments(step.nelems * element_size,
                                 cfg.segment_bytes):
                if stall:
                    yield sim.timeout(stall)
                yield link.transmit(seg)
            chunk_done[id(step)].succeed()
        send_times[rank] = sim.now - start

    def server_thread(rank: int):
        mine = [
            chunk_done[id(step)]
            for step in schedule
            if step.dst_rank == rank
        ]
        if mine:
            yield sim.all_of(mine)
        local_bytes = server_layout.local_length(rank) * element_size
        start = sim.now
        if local_bytes:
            yield sim.timeout(cfg.server.unpack_time(local_bytes))
        unpack_times[rank] = sim.now - start
        barrier_arrivals[rank] = sim.now
        barrier.arrive()

    scale = reply_bytes / nbytes if nbytes else 0.0
    reply_chunk_done = {
        id(step): sim.event(f"rchunk{i}")
        for i, step in enumerate(schedule)
    }
    client_done = sim.gate(nclient if reply_bytes else 0, "client-done")

    def replier():
        yield barrier
        if stall:
            yield sim.timeout(stall)
        yield link.transmit(_REPLY_BYTES)
        reply_done.succeed()

    def server_reply_thread(rank: int):
        """Ship this server thread's share of the reply data."""
        yield barrier
        local_bytes = server_layout.local_length(rank) * element_size
        if local_bytes:
            yield sim.timeout(
                cfg.server.pack_time(local_bytes * scale)
            )
        for step in schedule:
            if step.dst_rank != rank:  # reply reverses the schedule
                continue
            for seg in _segments(
                step.nelems * element_size * scale, cfg.segment_bytes
            ):
                if stall:
                    yield sim.timeout(stall)
                yield link.transmit(seg)
            reply_chunk_done[id(step)].succeed()

    def client_reply_thread(rank: int):
        mine = [
            reply_chunk_done[id(step)]
            for step in schedule
            if step.src_rank == rank
        ]
        if mine:
            yield sim.all_of(mine)
        local_bytes = client_layout.local_length(rank) * element_size
        if local_bytes:
            yield sim.timeout(
                cfg.client.unpack_time(local_bytes * scale)
            )
        client_done.arrive()

    for rank in range(nclient):
        sim.process(client_thread(rank), f"client{rank}")
    for rank in range(nserver):
        sim.process(server_thread(rank), f"server{rank}")
    sim.process(replier(), "reply")
    if reply_bytes:
        for rank in range(nserver):
            sim.process(server_reply_thread(rank), f"sreply{rank}")
        for rank in range(nclient):
            sim.process(client_reply_thread(rank), f"creply{rank}")
    sim.run()

    barrier_time = max(barrier_arrivals) if nserver else 0.0
    return MultiPortBreakdown(
        nclient=nclient,
        nserver=nserver,
        nbytes=nbytes,
        t_inv=sim.now + cfg.request_overhead,
        t_send=max(send_times),
        t_pack=max(pack_times),
        t_recv_unpack=max(unpack_times),
        t_barrier=barrier_time - barrier_arrivals[0],
        link_utilization=link.utilization(),
    )
