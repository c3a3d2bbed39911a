"""The two data paths of an invocation (paper §3.2 and §3.3).

Both transfer methods run the same invocation — synchronize, header
through the communicating thread, servant call, synchronize, reply —
and differ only in where argument data flows.  The stage sequence
therefore exists once per side (:func:`repro.orb.transfer.invoke_begin`
on the client, ``_ServerEngine._invoke`` in :mod:`repro.orb.adapter`
on the server); this module holds what varies, as a :class:`DataPath`
with exactly two implementations:

**Through-root** (centralized, §3.2, Figure 2) — distributed arguments
are *gathered* to the communicating thread (rank 0) over the RTS, the
whole request crosses the network as **one frame**, and the receiving
side's rank 0 *scatters* them over the RTS.

**Direct** (multi-port, §3.3, Figure 3) — the header frame carries the
plain values only; each thread computes, from the client-side and
server-side layouts, which peer threads its local block overlaps and
ships those chunks straight to the owning threads' data ports.

A path answers the four data questions, each for both directions of
the call, and nothing else:

1. how arguments leave the client (:meth:`~DataPath.stage_arguments`
   before the header frame, :meth:`~DataPath.ship_arguments` after it);
2. how they reach the servant ranks
   (:meth:`~DataPath.receive_arguments`);
3. how results leave the servant (:meth:`~DataPath.stage_results` /
   :meth:`~DataPath.ship_results`);
4. how they reach the client ranks (:meth:`~DataPath.receive_results`).

It also has one property, :attr:`~DataPath.receipt_is_rank_local`,
from which the engines derive everything else that differs (the
delivery vote, which ranks have work in a stage, and which of the
operation plan's body codecs the header frames use).  Paths are
stateless; one shared instance each.  An operation that moves no
distributed value is not staged on a path at all.

Values are lists in slot order (:class:`~repro.orb.operation.OperationPlan`);
a receive returns what it placed by slot position.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.cdr.accounting import copied
from repro.dist import DistributedSequence, Layout, transfer_schedule
from repro.cdr.typecodes import DSequenceTC
from repro.orb import request as wire
from repro.orb.operation import OperationPlan, RemoteError
from repro.orb.request import ReplyMessage, RequestMessage
from repro.orb.transfer import (
    Inbox,
    assemble_chunks,
    send_chunks,
    template_layout,
)
from repro.rts.interface import adoptable

if TYPE_CHECKING:
    from repro.orb.adapter import ServantContext
    from repro.orb.transfer import ClientInvocation

#: What a receive hands back per distributed slot: where the value
#: lives on this side, and this rank's block of it.
Placed = tuple[Layout, np.ndarray]


def reply_layout(
    inout: bool,
    length: int,
    sent: Layout | None,
    template_spec: tuple | None,
    client_nthreads: int,
) -> Layout:
    """Where a returned distributed value lands on the client.

    An inout keeps the layout it was ``sent`` with (resized if the
    servant changed the length); an out or return value follows the
    template the caller preset, defaulting to uniform blockwise (§2.2:
    "an 'out' argument should be initialized by a distribution
    template before calling the operation which returns it; otherwise
    a uniform blockwise distribution will be assumed").

    Evaluated by whichever side places the reply data: the client on
    the through-root path, the servant ranks on the direct one.
    """
    if inout:
        return sent.resized(length)
    return template_layout(template_spec, length, client_nthreads)


def _adoptable(block: np.ndarray, dtype: np.dtype) -> bool:
    """May ``block``, decoded off the wire, *be* the local block of a
    ``dtype`` slot (:func:`~repro.rts.interface.adoptable`)?"""
    return adoptable(block) and block.dtype == dtype


# ---------------------------------------------------------------------------
# The RTS legs of the through-root path (either side)
# ---------------------------------------------------------------------------


def _gather(rts: Any, seq: DistributedSequence) -> Any:
    """``seq`` on the communicating thread as views of every rank's
    pieces (``None`` on the others): what the body encoder writes as
    one dsequence, each byte copied once, by the send.  Each rank's
    block stays lent until its next collective with rank 0, which rank
    0 enters only once the frame is sent (pulled or written)."""
    if rts is None:
        return seq.local_data()
    steps = transfer_schedule(seq.layout, Layout(((0, seq.length()),)))
    return rts.gather_views(seq.local_data(), steps, root=0)


def _scatter(
    rts: Any,
    rank: int,
    full: Any,
    tc: DSequenceTC,
    layout_for: Callable[[int], Layout],
) -> Placed:
    """Spread the communicating thread's ``full`` array over the
    group: its length is broadcast, every rank derives the layout from
    it and asks the RTS for its block — a view of ``full`` where the
    RTS may adopt it.  A group of one has nothing to spread: ``full``
    is its block, in place when it may be adopted."""
    length = len(full) if rank == 0 else 0
    if rts is not None:
        length = rts.broadcast(length, root=0)
    layout = layout_for(length)
    if rts is not None:
        steps = transfer_schedule(Layout(((0, length),)), layout)
        return layout, rts.scatter_chunks(
            np.asarray(full) if rank == 0 else None, steps, root=0
        )
    dtype = tc.element_dtype
    if _adoptable(full, dtype):
        return layout, full
    local = np.empty(len(full), dtype=dtype)
    copied(local.nbytes)
    local[:] = full
    return layout, local


# ---------------------------------------------------------------------------
# The network leg of the direct path (either side)
# ---------------------------------------------------------------------------


def _collect(
    inbox: Inbox,
    request_id: int,
    name: str,
    tc: DSequenceTC,
    phase: int,
    src_layout: Layout,
    layout: Layout,
    rank: int,
    timeout: float,
) -> Placed:
    """Receive this rank's block of one parameter from its inbox.

    Both ends compute the same schedule from the same two layouts, so
    the expected chunk count is exact.  A block that arrived as one
    chunk is that chunk's payload, in place when it may be adopted."""
    steps = transfer_schedule(src_layout, layout)
    expected = sum(1 for s in steps if s.dst_rank == rank)
    dtype = tc.element_dtype
    chunks = inbox.collect(request_id, name, phase, expected, timeout=timeout)
    if len(chunks) == 1 and (
        chunks[0].global_lo, chunks[0].global_hi
    ) == layout.local_range(rank):
        block = chunks[0].elements(dtype)
        if _adoptable(block, dtype):
            return layout, block
    local = np.empty(layout.local_length(rank), dtype=dtype)
    assemble_chunks(chunks, layout, rank, dtype, local)
    return layout, local


# ---------------------------------------------------------------------------
# The paths
# ---------------------------------------------------------------------------


class DataPath:
    """Where the distributed data of one invocation flows.

    Client-side methods take the engine's
    :class:`~repro.orb.transfer.ClientInvocation`; server-side ones the
    rank's :class:`~repro.orb.adapter.ServantContext` plus the request.
    Receives return ``{slot name: (layout, local block)}`` — the engine
    wraps or installs the sequences.
    """

    #: The wire name of the method (``RequestMessage.mode``, the
    #: ``engine=`` span tag, ``proxy.transfer_method``).
    mode: str = ""
    #: Does every rank receive its own block from the network?  Then a
    #: receive failure is one rank's alone and the engines vote on
    #: delivery; when rank 0 is the only receiver there is nothing to
    #: vote on, and the vote (a collective per call) never runs.
    receipt_is_rank_local: bool
    #: The path an invocation degrades to when this one's data ports
    #: are unreachable.
    fallback: "DataPath | None" = None

    # -- 1. arguments leave the client -----------------------------------

    def stage_arguments(
        self, inv: "ClientInvocation"
    ) -> tuple[list[Any], dict[str, Any]]:
        """Before the header frame: ``(body values, header fields)``
        (the body is encoded, and the fields used, on rank 0 only)."""
        raise NotImplementedError

    def ship_arguments(self, inv: "ClientInvocation") -> None:
        """After the header frame: data that travels outside it.  A
        :class:`~repro.orb.transport.TransportError` here means the
        data never reached its owner (``"unreachable"``)."""

    # -- 2. arguments reach the servant ranks ------------------------------

    def receive_arguments(
        self,
        ctx: "ServantContext",
        request: RequestMessage,
        plan: OperationPlan,
        decoded: list[Any] | None,
    ) -> dict[int, Placed]:
        """``decoded`` is rank 0's decoded header body (``None`` on the
        other ranks)."""
        raise NotImplementedError

    # -- 3. results leave the servant --------------------------------------

    def stage_results(
        self,
        ctx: "ServantContext",
        request: RequestMessage,
        plan: OperationPlan,
        results: list[Any],
    ) -> tuple[list[Any], tuple]:
        """Before the reply frame: ``(body values, reply dist_layouts)``."""
        raise NotImplementedError

    def ship_results(
        self,
        ctx: "ServantContext",
        request: RequestMessage,
        plan: OperationPlan,
        results: list[Any],
        dist_layouts: tuple,
        record: Any,
    ) -> None:
        """After the reply frame: data that travels outside it
        (``record`` as in :func:`~repro.orb.transfer.send_chunks`)."""

    # -- 4. results reach the client ranks ---------------------------------

    def receive_results(
        self,
        inv: "ClientInvocation",
        reply: ReplyMessage | None,
        header: tuple,
    ) -> tuple[list[Any], dict[int, Placed]]:
        """``(reply values, placed distributed values)`` on every
        rank.  ``reply`` is rank 0's reply message, ``header`` the
        voted ``(status, body or None, dist_layouts)``."""
        raise NotImplementedError


class ThroughRootPath(DataPath):
    """§3.2: gather → one network frame → scatter."""

    mode = wire.MODE_CENTRALIZED
    receipt_is_rank_local = False

    def stage_arguments(self, inv):
        values = list(inv.args)
        for i, _name, _tc in inv.plan.dist_request:
            values[i] = _gather(inv.runtime.rts, values[i])
        return values, {}

    def receive_arguments(self, ctx, request, plan, decoded):
        placed = {}
        for i, name, tc in plan.dist_request:
            placed[i] = _scatter(
                ctx.rts, ctx.rank, None if decoded is None else decoded[i], tc,
                lambda length, name=name: template_layout(
                    ctx.templates.get((plan.name, name)), length, ctx.size
                ),
            )
        return placed

    def stage_results(self, ctx, request, plan, results):
        values = list(results)
        for i, *_ in plan.dist_reply:
            values[i] = _gather(ctx.rts, values[i])
        return values, ()

    def receive_results(self, inv, reply, header):
        # The bulk reply body stays on rank 0 as a view into the
        # receive buffer (views do not survive pickling); distributed
        # values reach the peers by scatter, plain ones by broadcast.
        rt, plan = inv.runtime, inv.plan
        values = plan.reply[False].decode(reply.body) if rt.rank == 0 else None
        placed = {}
        for i, name, tc, arg in plan.dist_reply:
            placed[i] = _scatter(
                rt.rts, rt.rank, None if values is None else values[i], tc,
                lambda length, name=name, inout=arg is not None: reply_layout(
                    inout, length, inv.layouts.get(name),
                    inv.out_templates.get(name), rt.size,
                ),
            )
        if rt.rts is not None:
            plain = values
            if plan.dist_reply and rt.rank == 0:
                plain = list(values)
                for i, *_ in plan.dist_reply:
                    plain[i] = None
            values = rt.rts.broadcast(plain, root=0)
        return values, placed


THROUGH_ROOT = ThroughRootPath()


class DirectPath(DataPath):
    """§3.3: plain-value header, data chunks rank to rank."""

    mode = wire.MODE_MULTIPORT
    receipt_is_rank_local = True
    fallback = THROUGH_ROOT

    def stage_arguments(self, inv):
        # The header records the argument layouts and the preset
        # out-templates, so the server computes the same schedules.
        return inv.args, dict(
            client_data_ports=inv.runtime.data_port_addresses,
            dist_layouts=tuple(
                (name, layout.local_lengths())
                for name, layout in inv.layouts.items()
            ),
            out_templates=tuple(sorted(inv.out_templates.items())),
        )

    def ship_arguments(self, inv):
        rt, ref = inv.runtime, inv.ref
        for i, name, _tc in inv.plan.dist_request:
            seq: DistributedSequence = inv.args[i]
            dst_layout = template_layout(
                ref.template_spec(inv.plan.name, name),
                seq.length(),
                ref.nthreads,
            )
            send_chunks(
                rt.port,
                ref.data_ports,
                transfer_schedule(seq.layout, dst_layout),
                rt.rank,
                seq.local_data(),
                inv.request_id,
                name,
                wire.PHASE_REQUEST,
            )

    def receive_arguments(self, ctx, request, plan, decoded):
        placed = {}
        for i, name, tc in plan.dist_request:
            lengths = request.layout_of(name)
            if lengths is None:
                raise RemoteError(
                    f"request is missing the layout of '{name}'",
                    category="MARSHAL",
                )
            client_layout = Layout.from_local_lengths(lengths)
            placed[i] = _collect(
                ctx.inbox, request.request_id, name, tc, wire.PHASE_REQUEST,
                client_layout,
                template_layout(
                    ctx.templates.get((plan.name, name)),
                    client_layout.length,
                    ctx.size,
                ),
                ctx.rank, ctx.timeout,
            )
        return placed

    def stage_results(self, ctx, request, plan, results):
        # Worked out deterministically on every rank: where each
        # returned distributed value lives server-side and lands
        # client-side.
        dist_layouts = []
        for i, name, _tc, arg in plan.dist_reply:
            value: DistributedSequence = results[i]
            sent = request.layout_of(name)
            client_layout = reply_layout(
                arg is not None, value.length(),
                None if sent is None else Layout.from_local_lengths(sent),
                request.out_template_of(name),
                request.client_nthreads,
            )
            dist_layouts.append((
                name,
                client_layout.local_lengths(),
                value.layout.local_lengths(),
            ))
        return results, tuple(dist_layouts)

    def ship_results(self, ctx, request, plan, results, dist_layouts, record):
        for (i, name, *_), (_name, client_lengths, _server) in zip(
            plan.dist_reply, dist_layouts
        ):
            value: DistributedSequence = results[i]
            send_chunks(
                ctx.data_port,
                request.client_data_ports,
                transfer_schedule(
                    value.layout, Layout.from_local_lengths(client_lengths)
                ),
                ctx.rank,
                value.local_data(),
                request.request_id,
                name,
                wire.PHASE_REPLY,
                record=record,
            )

    def receive_results(self, inv, reply, header):
        # The reply body holds plain values only and rode the vote, so
        # every rank decodes it; each collects its own chunks.
        rt, plan = inv.runtime, inv.plan
        _status, body, reply_layouts = header
        values = plan.reply[True].decode(body)
        layouts = {name: pair for name, *pair in reply_layouts}
        placed = {}
        for i, name, tc, _arg in plan.dist_reply:
            if name not in layouts:
                raise RemoteError(
                    f"reply is missing the layout of '{name}'",
                    category="MARSHAL",
                )
            layout, src_layout = map(
                Layout.from_local_lengths, layouts[name]
            )
            if layout.nranks != rt.size:
                raise RemoteError(
                    f"reply layout of '{name}' spans "
                    f"{layout.nranks} threads, client has {rt.size}",
                    category="MARSHAL",
                )
            if src_layout.length != layout.length:
                raise RemoteError(
                    f"reply layouts of '{name}' disagree on length",
                    category="MARSHAL",
                )
            placed[i] = _collect(
                rt.inbox, inv.request_id, name, tc, wire.PHASE_REPLY,
                src_layout, layout, rt.rank,
                inv.attempt_timeout() or 60.0,
            )
        return values, placed


DIRECT = DirectPath()

_PATHS: dict[str, DataPath] = {p.mode: p for p in (THROUGH_ROOT, DIRECT)}


def path_for(method: Any) -> DataPath:
    """The data path of a transfer method — the one place a name is
    mapped to a path.

    Accepts a ``transfer=`` string, a :class:`repro.core.TransferMethod`
    member or a request's ``mode`` (the three share one vocabulary).
    """
    try:
        return _PATHS[getattr(method, "value", method)]
    except KeyError:
        raise ValueError(
            f"unknown transfer method {method!r}; expected "
            f"'centralized' or 'multiport'"
        ) from None
