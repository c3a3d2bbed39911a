"""Per-layer metrics, all obtained from outside the program.

Three methods only: timing calls into public functions with the
workload's own inputs (the probes below), reading public counters
(``orb.stats()``, the trace recorder's fabric meter), and reading the
program's existing opt-in spans through ``ORB(trace=...)``.  New
in-program tracing is a later issue.

``CATALOGUE`` names every per-layer metric with its unit, its better
direction, the end-to-end metric and workload it is expected to move,
and the workload on which no change is expected.  ``BENCHMARK.json``
repeats name, unit and direction; ``README.md`` repeats the rest.
"""

from __future__ import annotations

import socket
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro import TraceRecorder
from repro.cdr import TC_DOUBLE, TC_LONG, CdrEncoder, decode_value, encode_value
from repro.dist import (
    BlockTemplate,
    clear_schedule_cache,
    transfer_schedule,
)
from repro.orb.request import (
    ReplyMessage,
    RequestMessage,
    decode_reply,
    decode_request,
)
from repro.orb.socketnet import SocketFabric
from repro.orb.transport import Fabric, TransportError
from repro.rts import MessagePassingRTS, spmd_run

from workloads import (
    BULK_ELEMENTS,
    OBJECT_NAME,
    Inputs,
    Stack,
    Window,
    Workload,
)

SPMD = ("spmd_multiport", "spmd_centralized")
NOT_PARALLEL = "serial client and servant: no rank group, so no rts or schedule call"


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    #: End-to-end metric(s) and workload(s) this is expected to move.
    moves: str
    #: Workload on which a change here should show no change.
    unmoved: str
    #: Workloads it is defined on (empty = all); ``null`` elsewhere.
    only: tuple[str, ...] = ()
    why_not: str = ""


_m = LayerMetric

_SMALL = "latency_p50_us, cpu_us_per_op on small_call"
_BULK = "throughput_ops_s on bulk_echo, spmd_*"
_REQ = "latency_p50_us on small_call; throughput_ops_s on pipelined_window"
_NET = "latency_p50_us on small_call (small frame); throughput_ops_s on bulk_echo (large frame)"
_SETUP = "setup_s on every workload"
_PROC = "latency_p50_us on small_call; throughput_ops_s on pipelined_window"

CATALOGUE: tuple[LayerMetric, ...] = (
    # demoted from end to end: spreads of 20% on small_call and
    # pipelined_window leave no room under the 25% cap on bounds
    _m("latency_p95_us", "us", "lower", "nothing bounded: the tail of the untraced pinned window, for the record", "none"),
    # repro.cdr
    _m("cdr.encode_us", "us", "lower", _SMALL, "bulk_echo"),
    _m("cdr.decode_us", "us", "lower", _SMALL, "bulk_echo"),
    _m("cdr.copy_events_per_op", "count", "lower", _SMALL, "bulk_echo"),
    _m("cdr.copies_per_payload_byte", "1", "lower", _BULK, "small_call"),
    # repro.orb.request
    _m("orb.request.encode_us", "us", "lower", _REQ, "bulk_echo"),
    _m("orb.request.decode_us", "us", "lower", _REQ, "bulk_echo"),
    _m("orb.request.reply_encode_us", "us", "lower", _REQ, "bulk_echo"),
    _m("orb.request.reply_decode_us", "us", "lower", _REQ, "bulk_echo"),
    _m("orb.request.header_bytes", "bytes", "lower", _REQ, "bulk_echo"),
    # repro.orb.socketnet, repro.orb.transport and the floors beneath
    _m("orb.socketnet.echo_p50_us", "us", "lower", _NET, "none: every workload crosses it"),
    _m("orb.socketnet.echo_mb_s", "MB/s", "higher", _NET, "small_call"),
    _m("orb.transport.echo_p50_us", "us", "lower", "latency_p50_us on small_call (Port-queue wake-ups in its hop chain)", "bulk_echo"),
    _m("orb.socketnet.frames_per_op", "count", "lower", "latency_p50_us on small_call, spmd_multiport", "bulk_echo"),
    _m("orb.socketnet.bytes_per_op", "bytes", "lower", "throughput_ops_s on bulk_echo, spmd_*", "small_call"),
    _m("orb.server.admitted_per_op", "count", "lower", "throughput_ops_s on pipelined_window (above 1 means re-sent requests)", "bulk_echo"),
    _m("orb.server.pauses", "count", "lower", "throughput_ops_s on pipelined_window", "small_call"),
    _m("floor.tcp_echo_p50_us", "us", "lower", "host floor: moves with the host, not the repo", "all"),
    _m("floor.memcpy_mb_s", "MB/s", "higher", "host floor: moves with the host, not the repo", "all"),
    _m("orb.socketnet.x_floor", "x", "lower", _NET, "none: every workload crosses it"),
    # repro.dist
    _m("dist.schedule_cold_us", "us", "lower", "latency_p50_us on spmd_multiport", "spmd_centralized", SPMD, NOT_PARALLEL),
    _m("dist.schedule_warm_us", "us", "lower", "latency_p50_us on spmd_multiport", "spmd_centralized", SPMD, NOT_PARALLEL),
    _m("dist.schedule_steps", "count", "lower", "latency_p50_us on spmd_multiport", "spmd_centralized", SPMD, NOT_PARALLEL),
    _m("dist.schedule_cache_hit_ratio", "1", "higher", "latency_p50_us on spmd_multiport", "spmd_centralized", SPMD, NOT_PARALLEL),
    # repro.rts: the paper's Table 1/2 columns
    _m("rts.client_gather_us", "us", "lower", "latency_p50_us on spmd_centralized", "spmd_multiport", SPMD, NOT_PARALLEL),
    _m("rts.server_scatter_us", "us", "lower", "latency_p50_us on spmd_centralized", "spmd_multiport", SPMD, NOT_PARALLEL),
    _m("rts.broadcast_us", "us", "lower", "latency_p50_us on spmd_*", "any serial workload", SPMD, NOT_PARALLEL),
    _m("rts.barrier_us", "us", "lower", "latency_p50_us on spmd_*", "any serial workload", SPMD, NOT_PARALLEL),
    _m("rts.allgather_us", "us", "lower", "latency_p50_us on spmd_*", "any serial workload", SPMD, NOT_PARALLEL),
    # repro.orb.proxy / transfer / adapter: span medians of rank 0
    _m("orb.proxy.invoke_us", "us", "lower", _SMALL, "none: it is the whole invocation"),
    _m("orb.transfer.encode_us", "us", "lower", _SMALL, "bulk_echo"),
    _m("orb.transfer.send_us", "us", "lower", "throughput_ops_s on bulk_echo, spmd_*", "small_call"),
    _m("orb.transfer.reply_wait_us", "us", "lower", _SMALL, "none: it covers the server and the wire"),
    _m("orb.adapter.transfer_us", "us", "lower", "latency_p50_us on spmd_*", "small_call"),
    _m("orb.adapter.dispatch_us", "us", "lower", _SMALL, "bulk_echo"),
    _m("orb.adapter.reply_us", "us", "lower", "throughput_ops_s on bulk_echo", "small_call"),
    _m("orb.unattributed_share", "1", "lower", _SMALL, "bulk_echo"),
    _m("trace.overhead_ratio", "x", "higher", "nothing end to end: timed runs have tracing off", "all"),
    # set-up split
    _m("setup.import_s", "s", "lower", _SETUP, "none"),
    _m("setup.warmup_s", "s", "lower", _SETUP, "none"),
    _m("idl.compile_s", "s", "lower", _SETUP, "none"),
    _m("core.serve_s", "s", "lower", _SETUP, "none"),
    _m("orb.proxy.bind_us", "us", "lower", _SETUP, "none"),
    _m("orb.naming.resolve_us", "us", "lower", _SETUP, "none"),
    # process
    _m("proc.threads", "count", "lower", _PROC, "bulk_echo"),
    _m("proc.vol_ctx_switches_per_op", "count", "lower", _PROC, "bulk_echo"),
    _m("proc.invol_ctx_switches_per_op", "count", "lower", _PROC, "bulk_echo"),
    _m("proc.unpinned_latency_p50_us", "us", "lower", "nothing pinned: it records the cross-core hand-off the pinned runs hide", "all"),
)


def _median_us(fn: Callable[[], Any], iterations: int) -> float:
    """Median wall time of ``fn()`` in microseconds, after a tenth of
    the iterations as warm-up."""
    clock = time.perf_counter
    for _ in range(max(iterations // 10, 1)):
        fn()
    times = []
    for _ in range(iterations):
        start = clock()
        fn()
        times.append(clock() - start)
    return statistics.median(times) * 1e6


def _iterations(workload: Workload, scale: float) -> int:
    """Fewer repetitions where one repetition moves megabytes."""
    base = 2000 if workload.request_payload_bytes < (1 << 20) else 30
    return max(int(base * scale), 5)


# -- repro.cdr and repro.orb.request ---------------------------------------


def probe_cdr_and_request(
    workload: Workload, inputs: Inputs, stack: Stack, scale: float
) -> dict[str, float]:
    """Marshal the workload's own argument and frame it as the
    workload's own request and reply."""
    iterations = _iterations(workload, scale)
    if workload.elements:
        typecode, value = stack.idl.payload.typecode, inputs.payload
    else:
        typecode, value = TC_LONG, inputs.longs[0]

    def encode() -> CdrEncoder:
        encoder = CdrEncoder()
        encoder.write(typecode, value)
        encoder.segments()
        return encoder

    encoded = encode_value(typecode, value)
    out: dict[str, float] = {
        "cdr.encode_us": _median_us(encode, iterations),
        "cdr.decode_us": _median_us(
            lambda: decode_value(typecode, encoded), iterations
        ),
    }

    reply_port = stack.client_fabric.open_port("probe-reply")
    data_ports = [
        stack.client_fabric.open_port(f"probe-data-{rank}")
        for rank in range(workload.client_ranks)
    ]
    try:
        multiport = workload.transfer == "multiport"
        lengths = BlockTemplate().layout(
            workload.elements, workload.client_ranks
        ).local_lengths()
        request = RequestMessage(
            request_id=(0xBE7C << 32) | 1,
            object_key=OBJECT_NAME,
            operation=workload.operation,
            mode=workload.transfer,
            reply_port=reply_port.address,
            client_nthreads=workload.client_ranks,
            client_data_ports=(
                tuple(p.address for p in data_ports) if multiport else ()
            ),
            dist_layouts=((("data", lengths),) if multiport else ()),
            # The multi-port method ships the argument as data chunks,
            # so its request frame carries no body.
            body=b"" if multiport else encode(),
        )
        reply_body = {
            "roundtrip": encode,
            "bump": lambda: encode_value(TC_LONG, 1),
            "ingest": lambda: encode_value(TC_DOUBLE, inputs.rank0_sum),
        }[workload.operation]()
        reply = ReplyMessage(request.request_id, body=reply_body)
        request_wire = request.encode()
        reply_wire = reply.encode()
        out.update({
            "orb.request.encode_us": _median_us(
                request.encode_segments, iterations
            ),
            "orb.request.decode_us": _median_us(
                lambda: decode_request(request_wire), iterations
            ),
            "orb.request.reply_encode_us": _median_us(
                reply.encode_segments, iterations
            ),
            "orb.request.reply_decode_us": _median_us(
                lambda: decode_reply(reply_wire), iterations
            ),
            "orb.request.header_bytes": float(
                len(request_wire) - len(request.body)
            ),
        })
    finally:
        reply_port.close()
        for port in data_ports:
            port.close()
    return out


# -- repro.orb.socketnet, repro.orb.transport and their floors -------------


def _port_echo_us(
    near: Any, far: Any, out_bytes: int, back_bytes: int, iterations: int
) -> float:
    """Median round trip between a port on ``near`` and one on ``far``:
    ``out_bytes`` there, ``back_bytes`` back."""
    a, b = near.open_port("probe-a"), far.open_port("probe-b")
    out, back = bytes(out_bytes), bytes(back_bytes)

    def echo() -> None:
        try:
            while True:
                source, _kind, _payload = b.recv(timeout=30)
                b.send(source, back)
        except TransportError:
            return  # the port was closed: the probe is over

    def round_trip() -> None:
        a.send(b.address, out)
        a.recv(timeout=30)

    thread = threading.Thread(target=echo, name="probe-echo", daemon=True)
    thread.start()
    try:
        return _median_us(round_trip, iterations)
    finally:
        b.close()
        a.close()
        thread.join(30)


def _recv_exact(sock: socket.socket, view: memoryview) -> bool:
    """Fill ``view``; false when the peer closed first."""
    got = 0
    while got < len(view):
        n = sock.recv_into(view[got:])
        if n == 0:
            return False
        got += n
    return True


def _tcp_echo_us(out_bytes: int, back_bytes: int, iterations: int) -> float:
    """The floor: a bare ``socket`` echo with ``TCP_NODELAY``."""
    out, back = bytes(out_bytes), bytes(back_bytes)
    with socket.create_server(("127.0.0.1", 0)) as listener:
        def echo() -> None:
            conn, _addr = listener.accept()
            with conn:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                inbox = memoryview(bytearray(out_bytes))
                while _recv_exact(conn, inbox):
                    conn.sendall(back)

        thread = threading.Thread(target=echo, name="probe-tcp", daemon=True)
        thread.start()
        with socket.create_connection(listener.getsockname()) as conn:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            inbox = memoryview(bytearray(back_bytes))

            def round_trip() -> None:
                conn.sendall(out)
                _recv_exact(conn, inbox)

            floor_us = _median_us(round_trip, iterations)
        thread.join(30)
    return floor_us


def probe_wire(
    workload: Workload, header_bytes: int, scale: float
) -> dict[str, float]:
    """Echo the workload's largest request frame one way and its reply
    frame back: between two socket fabrics, inside one in-process
    fabric (which isolates Port-queue cost from TCP cost), and over a
    bare socket (the floor)."""
    iterations = _iterations(workload, scale)
    out_bytes = workload.request_frame_payload_bytes + header_bytes
    back_bytes = workload.reply_payload_bytes + header_bytes
    with SocketFabric("probe-near") as near, SocketFabric("probe-far") as far:
        socket_us = _port_echo_us(near, far, out_bytes, back_bytes, iterations)
    inproc = Fabric("probe-inproc")
    inproc_us = _port_echo_us(inproc, inproc, out_bytes, back_bytes, iterations)
    floor_us = _tcp_echo_us(out_bytes, back_bytes, iterations)
    source = np.ones(BULK_ELEMENTS)
    target = np.empty_like(source)
    memcpy_us = _median_us(lambda: np.copyto(target, source), max(int(50 * scale), 5))
    return {
        "orb.socketnet.echo_p50_us": socket_us,
        "orb.socketnet.echo_mb_s": (out_bytes + back_bytes) / socket_us,
        "orb.transport.echo_p50_us": inproc_us,
        "floor.tcp_echo_p50_us": floor_us,
        # 8 MiB, the paper's size: a copy at payload scale, not DRAM
        # bandwidth (this host reports a 260 MiB L3).
        "floor.memcpy_mb_s": source.nbytes / memcpy_us,
        "orb.socketnet.x_floor": socket_us / floor_us,
    }


# -- repro.dist ------------------------------------------------------------


def probe_dist(workload: Workload, scale: float) -> dict[str, float]:
    """Client layout onto server layout: the rank-to-rank layout for
    the multi-port method, the gather onto one rank for the
    centralized one.  Clears the process-wide schedule cache, so it
    must not run inside a window that reads the cache counters."""
    iterations = max(int(500 * scale), 5)
    block = BlockTemplate()
    src = block.layout(workload.elements, workload.client_ranks)
    dst = block.layout(
        workload.elements,
        workload.server_ranks if workload.transfer == "multiport" else 1,
    )

    def cold() -> None:
        clear_schedule_cache()
        transfer_schedule(src, dst)

    clear_us = _median_us(clear_schedule_cache, iterations)
    return {
        "dist.schedule_cold_us": _median_us(cold, iterations) - clear_us,
        "dist.schedule_warm_us": _median_us(
            lambda: transfer_schedule(src, dst), iterations
        ),
        "dist.schedule_steps": float(len(transfer_schedule(src, dst))),
    }


# -- repro.rts -------------------------------------------------------------


def _collective_us(ranks: int, body: Callable[[Any, Any], Callable[[], Any]],
                   iterations: int) -> float:
    """Time ``body(ctx, rts)()`` on every rank of a fresh group.  The
    slowest rank's median is the collective's time, as the slowest
    rank sets the invocation's."""

    def rank_main(ctx: Any) -> float:
        op = body(ctx, MessagePassingRTS(ctx.comm))
        clock = time.perf_counter
        times = []
        for _ in range(iterations + 2):
            ctx.comm.barrier()
            start = clock()
            op()
            times.append(clock() - start)
        return statistics.median(times[2:]) * 1e6

    return max(spmd_run(ranks, rank_main, name="probe-rts"))


def probe_rts(workload: Workload, scale: float) -> dict[str, float]:
    """The paper's Table 1/2 columns on groups of the workload's rank
    counts and block sizes."""
    n = workload.elements
    bulk_iterations = max(int(30 * scale), 3)
    small_iterations = max(int(300 * scale), 5)
    block = BlockTemplate()
    whole = block.layout(n, 1)

    def gather(ctx: Any, rts: Any) -> Callable[[], Any]:
        layout = block.layout(n, ctx.size)
        steps = transfer_schedule(layout, whole)
        local = np.ones(layout.local_length(ctx.rank))
        out = np.empty(n) if ctx.rank == 0 else None
        return lambda: rts.gather_chunks(local, steps, 0, out)

    def scatter(ctx: Any, rts: Any) -> Callable[[], Any]:
        layout = block.layout(n, ctx.size)
        steps = transfer_schedule(whole, layout)
        full = np.ones(n) if ctx.rank == 0 else None
        out = np.empty(layout.local_length(ctx.rank))
        return lambda: rts.scatter_chunks(full, steps, 0, out)

    header = {"operation": workload.operation, "request_id": 1 << 40,
              "lengths": (n // 2, n - n // 2)}

    def broadcast(ctx: Any, rts: Any) -> Callable[[], Any]:
        return lambda: rts.broadcast(header if ctx.rank == 0 else None, 0)

    return {
        "rts.client_gather_us": _collective_us(
            workload.client_ranks, gather, bulk_iterations),
        "rts.server_scatter_us": _collective_us(
            workload.server_ranks, scatter, bulk_iterations),
        "rts.broadcast_us": _collective_us(
            workload.server_ranks, broadcast, small_iterations),
        "rts.barrier_us": _collective_us(
            workload.server_ranks, lambda ctx, rts: rts.synchronize,
            small_iterations),
        "rts.allgather_us": _collective_us(
            workload.server_ranks,
            lambda ctx, rts: (lambda: rts.allgather(("ok", None))),
            small_iterations),
    }


# -- counters and spans of a traced window ---------------------------------


def new_recorder() -> TraceRecorder:
    """Large enough that a full traced window evicts nothing."""
    return TraceRecorder(capacity=1 << 21)


class TracedWindow:
    """Reads the public counters before and after one traced window
    and the spans it recorded."""

    def __init__(self, stack: Stack, recorder: TraceRecorder) -> None:
        self._stack = stack
        self._recorder = recorder
        recorder.clear()
        self._before = self._read()

    def _read(self) -> dict[str, float]:
        client = self._stack.client_orb.stats()
        server = self._stack.server_orb.stats()["server"]
        counters = self._recorder.metrics.snapshot(
            include_sources=False)["counters"]
        return {
            "copy_bytes": client["cdr_copies"]["bytes"],
            "copy_events": client["cdr_copies"]["events"],
            "schedule_hits": client["transfer_schedule_cache"]["hits"],
            "schedule_misses": client["transfer_schedule_cache"]["misses"],
            "admitted": server["requests"]["admitted"],
            "pauses": server["backpressure"]["pauses"],
            "frames": sum(v for k, v in counters.items()
                          if k.startswith("fabric.frames.")),
            "bytes": sum(v for k, v in counters.items()
                         if k.startswith("fabric.bytes.")),
        }

    def _span_medians(self) -> dict[str, float]:
        """Median duration of rank 0's spans, by layer metric."""
        durations: dict[tuple[str, str], list[float]] = {}
        for span in self._recorder.spans(rank=0):
            durations.setdefault((span.side, span.name), []).append(span.dur_us)
        missing = [key for key in SPAN_METRICS.values() if key not in durations]
        if missing:
            raise RuntimeError(f"traced window recorded no {missing} span")
        return {metric: statistics.median(durations[key])
                for metric, key in SPAN_METRICS.items()}

    def finish(self, window: Window, echo_us: float) -> dict[str, float]:
        after = self._read()
        if self._recorder.stats()["dropped"]:
            raise RuntimeError("trace recorder evicted spans of the window")
        delta = {k: after[k] - self._before[k] for k in after}
        ops = max(window.attempted, 1)
        workload = self._stack.workload
        payload = workload.request_payload_bytes + workload.reply_payload_bytes
        lookups = delta["schedule_hits"] + delta["schedule_misses"]
        out = {
            "cdr.copy_events_per_op": delta["copy_events"] / ops,
            "cdr.copies_per_payload_byte": delta["copy_bytes"] / (ops * payload),
            "orb.socketnet.frames_per_op": delta["frames"] / ops,
            "orb.socketnet.bytes_per_op": delta["bytes"] / ops,
            "orb.server.admitted_per_op": delta["admitted"] / ops,
            "orb.server.pauses": float(delta["pauses"]),
            "proc.threads": float(window.threads),
            "proc.vol_ctx_switches_per_op": window.vol_ctx / ops,
            "proc.invol_ctx_switches_per_op": window.invol_ctx / ops,
            **self._span_medians(),
        }
        if lookups:
            out["dist.schedule_cache_hit_ratio"] = (
                delta["schedule_hits"] / lookups)
        covered = echo_us + sum(out[name] for name in COVERING_SPANS)
        invoke = out["orb.proxy.invoke_us"]
        out["orb.unattributed_share"] = (invoke - covered) / invoke
        return out


#: Layer metric -> (side, name) of the program's span it is the
#: median of (vocabulary: ``docs/observability.md``).
SPAN_METRICS = {
    "orb.proxy.invoke_us": ("client", "invoke"),
    "orb.transfer.encode_us": ("client", "encode"),
    "orb.transfer.send_us": ("client", "transfer"),
    "orb.transfer.reply_wait_us": ("client", "reply"),
    "orb.adapter.transfer_us": ("server", "transfer"),
    "orb.adapter.dispatch_us": ("server", "dispatch"),
    "orb.adapter.reply_us": ("server", "reply"),
}

#: What ``orb.unattributed_share`` subtracts from the client's invoke
#: span, next to one ``orb.socketnet.echo_p50_us``.  The client's
#: reply-wait span is left out: it covers the server spans and the wire.
COVERING_SPANS = (
    "orb.transfer.encode_us",
    "orb.transfer.send_us",
    "orb.adapter.transfer_us",
    "orb.adapter.dispatch_us",
    "orb.adapter.reply_us",
)
