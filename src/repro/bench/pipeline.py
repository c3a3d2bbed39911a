"""Pipelined-invocation benchmark: throughput vs pipeline depth.

Measures the real ORB end to end — CDR marshaling, fabric transport,
server dispatch — under *pipelined* non-blocking invocations: the
client fires a burst of ``roundtrip_nb`` calls and only then touches
the futures, so up to ``pipeline_depth`` requests are in flight while
earlier replies are still on the wire.  Depth 1 restores strictly
serial round-trips (each request waits for the previous reply), which
makes the depth sweep a direct measurement of what the reply
demultiplexer and the server's decode-on-delivery (the request port's
upcall) buy.

Both fabrics (in-process, TCP loopback) and both transfer methods
(centralized §3.2, multi-port §3.3) are swept over a configurable set
of depths; see ``tools/bench_pipeline.py`` for the CLI and the CI
smoke gate (depth 8 must beat depth 1).
"""

from __future__ import annotations

import gc
import time
from dataclasses import asdict, dataclass
from typing import Any

import numpy as np

#: The echoed operation; bounded at 16 MiB of doubles so the run-time
#: system can preallocate.
PIPELINE_IDL = """
typedef dsequence<double, 2097152> payload;

interface pipeecho {
    payload roundtrip(in payload data);
};
"""

#: Default depth sweep; 1 is the serial baseline.
DEFAULT_DEPTHS = [1, 2, 4, 8]

#: Default payload: 4 MiB (the acceptance point for the 2x speedup).
DEFAULT_SIZE = 4 << 20

#: Requests per timed burst (>= 2x the deepest pipeline, so steady
#: state dominates the ramp-up).
DEFAULT_REQUESTS = 16

#: Per-request servant service time (milliseconds).  Models the
#: server-side computation a real invocation performs — the thing
#: pipelining overlaps the argument transfer with.  With 0 the sweep
#: degenerates into a pure wire benchmark, which on a single-CPU host
#: is CPU-bound end to end and cannot show pipelining gains (there is
#: no idle time to fill); see ``docs/performance.md``.
DEFAULT_SERVICE_MS = 20.0

#: CI smoke parameters: a payload small enough to finish quickly but
#: large enough that transfer, not protocol headers, dominates.
SMOKE_DEPTHS = [1, 8]
SMOKE_SIZE = 1 << 20
SMOKE_REQUESTS = 12
SMOKE_SERVICE_MS = 20.0

#: Timed bursts per measurement point; the best burst is reported.
#: Single-CPU hosts (CI runners) schedule a dozen ORB threads on one
#: core, so individual bursts can lose tens of milliseconds to
#: scheduling accidents — the best of a few bursts is the stable
#: estimate of what the pipeline sustains.
DEFAULT_REPEATS = 3

TRANSFER_METHODS = ("centralized", "multiport")


@dataclass(frozen=True)
class PipelinePoint:
    """One (fabric, transfer method, depth) measurement."""

    fabric: str
    method: str
    depth: int
    size_bytes: int
    requests: int
    service_ms: float
    seconds: float
    #: Payload megabytes moved per second (both directions count).
    mb_per_s: float
    #: Completed round-trips per second.
    requests_per_s: float
    #: RTS backend the client ran on (``thread`` or ``process``).
    rts: str = "thread"


def _compiled_idl() -> Any:
    from repro import compile_idl

    return compile_idl(PIPELINE_IDL, module_name="pipeline_idl")


def _make_servant_factory(idl: Any, service_s: float) -> Any:
    class EchoServant(idl.pipeecho_skel):
        def roundtrip(self, data: Any) -> Any:
            if service_s > 0:
                time.sleep(service_s)
            return data

    return lambda ctx: EchoServant()


def _measure(
    orb: Any,
    idl: Any,
    fabric_label: str,
    method: str,
    depth: int,
    size_bytes: int,
    requests: int,
    warmup: int,
    service_ms: float,
    repeats: int,
    rts: str = "thread",
) -> PipelinePoint:
    n = max(size_bytes // 8, 1)
    runtime = orb.client_runtime(
        label=f"pipe-{method}-d{depth}", pipeline_depth=depth
    )
    try:
        proxy = idl.pipeecho._bind("pipeecho", runtime, transfer=method)
        arr = np.arange(n, dtype=np.float64)
        data = idl.payload.from_global(arr)
        for _ in range(warmup):
            result = proxy.roundtrip(data)
            if result.length() != n:
                raise RuntimeError("pipeline echo returned a wrong length")
        # A collection pause mid-burst is tens of milliseconds of noise
        # on multi-MiB payloads; keep the cycle collector out of the
        # timed region (refcounting still frees the arrays).
        gc.collect()
        gc.disable()
        try:
            seconds = float("inf")
            for _ in range(max(repeats, 1)):
                start = time.perf_counter()
                futures = [
                    proxy.roundtrip_nb(data) for _ in range(requests)
                ]
                for future in futures:
                    future.value(timeout=300)
                seconds = min(seconds, time.perf_counter() - start)
        finally:
            gc.enable()
    finally:
        runtime.close()
    moved = 2 * n * 8 * requests
    return PipelinePoint(
        fabric=fabric_label,
        method=method,
        depth=depth,
        size_bytes=n * 8,
        requests=requests,
        service_ms=service_ms,
        seconds=seconds,
        mb_per_s=moved / seconds / 1e6,
        requests_per_s=requests / seconds,
        rts=rts,
    )


def _sweep(
    orb: Any,
    idl: Any,
    fabric_label: str,
    methods: tuple[str, ...],
    depths: list[int],
    size_bytes: int,
    requests: int,
    warmup: int,
    service_ms: float,
    repeats: int,
    rts: str = "thread",
) -> list[PipelinePoint]:
    points = []
    for method in methods:
        for depth in depths:
            points.append(
                _measure(
                    orb,
                    idl,
                    fabric_label,
                    method,
                    depth,
                    size_bytes,
                    requests,
                    warmup,
                    service_ms,
                    repeats,
                    rts,
                )
            )
    return points


def run_pipeline(
    fabric: str = "inproc",
    depths: list[int] | None = None,
    size_bytes: int = DEFAULT_SIZE,
    requests: int = DEFAULT_REQUESTS,
    warmup: int = 1,
    methods: tuple[str, ...] = TRANSFER_METHODS,
    service_ms: float = DEFAULT_SERVICE_MS,
    repeats: int = DEFAULT_REPEATS,
    trace: bool = False,
    rts_backend: str = "thread",
) -> list[PipelinePoint]:
    """Run the depth sweep on one fabric and return the points.

    ``trace=True`` runs the same sweep with ``repro.trace`` recording
    on (spans + metrics for every invocation), which is how
    ``tools/bench_pipeline.py --trace-overhead`` prices the
    instrumentation; the default leaves tracing off, i.e. measures the
    disabled-by-default fast path.

    ``rts_backend="process"`` runs the client sweep in a forked
    process-backend rank over TCP (socket fabric only): request
    pipelining then overlaps with genuinely parallel server-side
    compute instead of time-slicing one GIL.
    """
    from repro import ORB

    idl = _compiled_idl()
    depths = depths or DEFAULT_DEPTHS
    if rts_backend not in ("thread", "process"):
        raise ValueError(f"unknown RTS backend {rts_backend!r}")
    if rts_backend == "process":
        if fabric != "socket":
            raise ValueError(
                "rts_backend='process' needs fabric='socket': the "
                "in-process fabric cannot span OS processes"
            )
        return _run_pipeline_process(
            idl, methods, depths, size_bytes, requests, warmup,
            service_ms, repeats, trace,
        )
    if fabric == "inproc":
        with ORB("pipeline", trace=trace) as orb:
            # The echo servant is stateless, so the ordering contract
            # can be dropped: a single pipelined client's requests
            # overlap on the dispatch pool.
            orb.serve(
                "pipeecho",
                _make_servant_factory(idl, service_ms / 1e3),
                nthreads=1,
                dispatch_policy="concurrent",
            )
            return _sweep(
                orb, idl, fabric, methods, depths, size_bytes,
                requests, warmup, service_ms, repeats,
            )
    elif fabric == "socket":
        from repro.orb.naming import NamingService
        from repro.orb.socketnet import SocketFabric

        naming = NamingService()
        with SocketFabric("pipeline-server") as server_fabric, \
                SocketFabric("pipeline-client") as client_fabric:
            server_orb = ORB(
                "pipeline-server",
                fabric=server_fabric,
                naming=naming,
                trace=trace,
            )
            client_orb = ORB(
                "pipeline-client",
                fabric=client_fabric,
                naming=naming,
                trace=trace,
            )
            with server_orb, client_orb:
                server_orb.serve(
                    "pipeecho",
                    _make_servant_factory(idl, service_ms / 1e3),
                    nthreads=1,
                    dispatch_policy="concurrent",
                )
                return _sweep(
                    client_orb, idl, fabric, methods, depths,
                    size_bytes, requests, warmup, service_ms, repeats,
                )
    raise ValueError(f"unknown fabric {fabric!r}")


def _run_pipeline_process(
    idl: Any,
    methods: tuple[str, ...],
    depths: list[int],
    size_bytes: int,
    requests: int,
    warmup: int,
    service_ms: float,
    repeats: int,
    trace: bool,
) -> list[PipelinePoint]:
    """Socket depth sweep with the client in a forked process rank."""
    from repro import ORB
    from repro.orb.nameservice import NamingClient, serve_naming
    from repro.orb.socketnet import SocketFabric
    from repro.rts import spawn_spmd

    with SocketFabric("pipeline-server") as server_fabric:
        server_orb = ORB(
            "pipeline-server", fabric=server_fabric, trace=trace
        )
        with server_orb:
            naming_ior = serve_naming(server_orb)
            server_orb.serve(
                "pipeecho",
                _make_servant_factory(idl, service_ms / 1e3),
                nthreads=1,
                dispatch_policy="concurrent",
            )

            def client_body(ctx: Any) -> list[PipelinePoint]:
                with SocketFabric("pipeline-client") as client_fabric:
                    client_orb = ORB(
                        "pipeline-client",
                        fabric=client_fabric,
                        naming=NamingClient(client_fabric, naming_ior),
                        trace=trace,
                    )
                    with client_orb:
                        return _sweep(
                            client_orb, idl, "socket", methods,
                            depths, size_bytes, requests, warmup,
                            service_ms, repeats, rts="process",
                        )

            handle = spawn_spmd(
                client_body, 1, backend="process", name="pipeline"
            )
            (points,) = handle.join(None)
            return points


def speedups(points: list[PipelinePoint]) -> dict[tuple[str, str], float]:
    """Deepest-vs-depth-1 throughput ratio per (fabric, method)."""
    by_key: dict[tuple[str, str], dict[int, float]] = {}
    for p in points:
        by_key.setdefault((p.fabric, p.method), {})[p.depth] = p.mb_per_s
    ratios = {}
    for key, by_depth in by_key.items():
        base = by_depth.get(1)
        if base is None or len(by_depth) < 2:
            continue
        deepest = by_depth[max(by_depth)]
        ratios[key] = deepest / base
    return ratios


def points_as_dicts(points: list[PipelinePoint]) -> list[dict]:
    """The points as JSON-ready dicts."""
    return [asdict(p) for p in points]


def throughput_ratio(
    points: list[PipelinePoint] | list[dict],
    reference: list[PipelinePoint] | list[dict],
) -> float:
    """Geometric-mean throughput ratio of ``points`` over
    ``reference`` across matching (fabric, method, depth) keys.

    1.0 means identical throughput; 0.98 means ``points`` runs 2%
    slower overall.  The geometric mean over every matching point is
    the noise-robust "did the benchmark regress" number the
    trace-overhead gate checks (see ``tools/bench_pipeline.py``).
    Accepts live points or the dicts of a saved BENCH_pipeline.json.
    """

    def as_map(items: list[Any]) -> dict[tuple[str, str, int], float]:
        out = {}
        for item in items:
            record = item if isinstance(item, dict) else asdict(item)
            key = (record["fabric"], record["method"], record["depth"])
            out[key] = record["mb_per_s"]
        return out

    ours, theirs = as_map(points), as_map(reference)
    common = sorted(set(ours) & set(theirs))
    if not common:
        raise ValueError(
            "no matching (fabric, method, depth) points to compare"
        )
    log_sum = 0.0
    import math

    for key in common:
        log_sum += math.log(ours[key] / theirs[key])
    return math.exp(log_sum / len(common))


def format_pipeline(points: list[PipelinePoint]) -> str:
    """Render the sweep as a fixed-width table."""
    lines = [
        "Pipelined invocations (real ORB, both directions counted)",
        f"{'fabric':<8} {'method':<12} {'depth':>5} {'size':>8} "
        f"{'MB/s':>10} {'req/s':>8}",
    ]
    for p in points:
        size = (
            f"{p.size_bytes // 1024}KiB"
            if p.size_bytes < 1 << 20
            else f"{p.size_bytes // (1 << 20)}MiB"
        )
        lines.append(
            f"{p.fabric:<8} {p.method:<12} {p.depth:>5} {size:>8} "
            f"{p.mb_per_s:>10.1f} {p.requests_per_s:>8.1f}"
        )
    for (fabric, method), ratio in sorted(speedups(points).items()):
        lines.append(
            f"speedup {fabric}/{method}: deepest vs depth-1 = {ratio:.2f}x"
        )
    return "\n".join(lines)
