"""Fault-injection benchmark: goodput under seeded frame loss.

Measures the fault-tolerance layer end to end: a client invokes an
echo servant through a :class:`~repro.ft.faults.FaultyFabric` that
drops (and optionally delays) frames from a seeded deterministic
schedule, under an :class:`~repro.ft.policy.FtPolicy` that retries
timed-out attempts.  The server runs with a reply cache so a retried
request whose reply was lost is answered from the cache rather than
re-executed.

The figure of merit is *goodput*: application payload bytes per
second of wall clock, counting only completed invocations.  At 0%
loss this is the plain wire throughput; at 1% loss it shows what the
retry machinery costs (each lost frame burns one attempt timeout).
The CI gate is deliberately coarse — every invocation must complete
and goodput must stay positive under 1% loss — because absolute
numbers are machine-dependent; see ``tools/bench_faults.py``.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Any

import numpy as np

#: The echoed operation; bounded so buffers preallocate.
FAULTS_IDL = """
typedef dsequence<double, 262144> payload;

interface faultecho {
    payload roundtrip(in payload data);
};
"""

#: Default frame-loss sweep: clean baseline and the 1% gate point.
DEFAULT_LOSS_RATES = [0.0, 0.01]

#: Default payload: 64 KiB (small enough that a retried attempt is
#: cheap, large enough that goodput measures data, not headers).
DEFAULT_SIZE = 64 << 10

#: Invocations per point (the acceptance criterion's 100).
DEFAULT_REQUESTS = 100

#: Per-attempt timeout (seconds).  A dropped request or reply frame
#: costs exactly one of these before the retry fires, so it bounds
#: the damage per lost frame.
DEFAULT_TIMEOUT_S = 0.5

#: CI smoke parameters.
SMOKE_LOSS_RATES = [0.0, 0.01]
SMOKE_SIZE = 16 << 10
SMOKE_REQUESTS = 30

#: Server-side reply-cache budget used by the benchmark.
REPLY_CACHE_BYTES = 4 << 20

TRANSFER_METHODS = ("centralized", "multiport")


@dataclass(frozen=True)
class FaultPoint:
    """One (fabric, transfer method, loss rate) measurement."""

    fabric: str
    method: str
    drop_rate: float
    delay_rate: float
    seed: int
    size_bytes: int
    requests: int
    completed: int
    #: Client-side retry attempts the policy performed.
    retries: int
    #: Frames the schedule actually dropped/delayed (all kinds).
    faults_injected: int
    seconds: float
    #: Completed payload megabytes per second (both directions).
    goodput_mb_per_s: float


def _compiled_idl() -> Any:
    from repro import compile_idl

    return compile_idl(FAULTS_IDL, module_name="faults_idl")


def _make_servant_factory(idl: Any) -> Any:
    class EchoServant(idl.faultecho_skel):
        def roundtrip(self, data: Any) -> Any:
            return data

    return lambda ctx: EchoServant()


def _injected_counter(faulty: Any) -> Any:
    """Total injected faults (clean forwards excluded) as a thunk."""
    return lambda: sum(
        count
        for action, count in faulty.fault_stats().items()
        if action != "forwarded"
    )


def _policy() -> Any:
    from repro.ft import FtPolicy

    # Generous retry budget and no deadline: the benchmark measures
    # goodput degradation, not give-up behavior.  Backoff is short —
    # the attempt timeout already paces retries.
    return FtPolicy(
        max_retries=12,
        backoff_base_ms=5.0,
        backoff_cap_ms=50.0,
    )


def _measure(
    orb: Any,
    idl: Any,
    fabric_label: str,
    method: str,
    drop_rate: float,
    delay_rate: float,
    seed: int,
    size_bytes: int,
    requests: int,
    faults_before: int,
    fault_count: Any,
) -> FaultPoint:
    n = max(size_bytes // 8, 1)
    runtime = orb.client_runtime(
        label=f"faults-{method}-p{drop_rate}", ft_policy=_policy()
    )
    try:
        proxy = idl.faultecho._bind(
            "faultecho", runtime, transfer=method
        )
        arr = np.arange(n, dtype=np.float64)
        data = idl.payload.from_global(arr)
        completed = 0
        start = time.perf_counter()
        for _ in range(requests):
            result = proxy.roundtrip(data)
            if result.length() != n:
                raise RuntimeError("fault echo returned a wrong length")
            completed += 1
        seconds = time.perf_counter() - start
        retries = orb.stats()["ft"]["retries"]
    finally:
        runtime.close()
    moved = 2 * n * 8 * completed
    return FaultPoint(
        fabric=fabric_label,
        method=method,
        drop_rate=drop_rate,
        delay_rate=delay_rate,
        seed=seed,
        size_bytes=n * 8,
        requests=requests,
        completed=completed,
        retries=retries,
        faults_injected=fault_count() - faults_before,
        seconds=seconds,
        goodput_mb_per_s=moved / seconds / 1e6,
    )


def run_faults(
    fabric: str = "inproc",
    loss_rates: list[float] | None = None,
    delay_rate: float = 0.0,
    seed: int = 7,
    size_bytes: int = DEFAULT_SIZE,
    requests: int = DEFAULT_REQUESTS,
    methods: tuple[str, ...] = TRANSFER_METHODS,
    timeout_s: float = DEFAULT_TIMEOUT_S,
) -> list[FaultPoint]:
    """Run the loss sweep on one fabric and return the points.

    Each (method, loss rate) point runs under a fresh
    :class:`~repro.ft.faults.FaultSchedule` seeded from ``seed`` and
    the point's position, so every run of the benchmark injects the
    identical fault sequence.
    """
    from repro import ORB, FaultSchedule, FaultyFabric
    from repro.orb.transport import Fabric

    idl = _compiled_idl()
    loss_rates = DEFAULT_LOSS_RATES if loss_rates is None else loss_rates

    points = []
    for m_index, method in enumerate(methods):
        for l_index, rate in enumerate(loss_rates):
            schedule = FaultSchedule(
                seed=seed + 100 * m_index + l_index,
                drop=rate,
                delay=delay_rate,
                delay_ms=2.0,
            )
            if fabric == "inproc":
                faulty = FaultyFabric(Fabric("faults"), schedule)
                with ORB(
                    "faults", fabric=faulty, timeout=timeout_s
                ) as orb:
                    orb.serve(
                        "faultecho",
                        _make_servant_factory(idl),
                        nthreads=1,
                        reply_cache_bytes=REPLY_CACHE_BYTES,
                    )
                    points.append(
                        _measure(
                            orb, idl, fabric, method, rate,
                            delay_rate, schedule.seed, size_bytes,
                            requests, 0, _injected_counter(faulty),
                        )
                    )
            elif fabric == "socket":
                from repro.orb.naming import NamingService
                from repro.orb.socketnet import SocketFabric

                naming = NamingService()
                with SocketFabric("faults-server") as server_fabric, \
                        SocketFabric("faults-client") as raw_client:
                    faulty = FaultyFabric(raw_client, schedule)
                    server_orb = ORB(
                        "faults-server",
                        fabric=server_fabric,
                        naming=naming,
                        timeout=timeout_s,
                    )
                    client_orb = ORB(
                        "faults-client",
                        fabric=faulty,
                        naming=naming,
                        timeout=timeout_s,
                    )
                    with server_orb, client_orb:
                        server_orb.serve(
                            "faultecho",
                            _make_servant_factory(idl),
                            nthreads=1,
                            reply_cache_bytes=REPLY_CACHE_BYTES,
                        )
                        points.append(
                            _measure(
                                client_orb, idl, fabric, method,
                                rate, delay_rate, schedule.seed,
                                size_bytes, requests, 0,
                                _injected_counter(faulty),
                            )
                        )
            else:
                raise ValueError(f"unknown fabric {fabric!r}")
    return points


def points_as_dicts(points: list[FaultPoint]) -> list[dict]:
    """The points as JSON-ready dicts."""
    return [asdict(p) for p in points]


def gate_failures(points: list[FaultPoint]) -> list[str]:
    """The coarse CI gate: every point must complete every request
    with positive goodput (no hang, no silent loss)."""
    failures = []
    for p in points:
        label = f"{p.fabric}/{p.method}@{p.drop_rate:.0%}"
        if p.completed != p.requests:
            failures.append(
                f"{label}: {p.completed}/{p.requests} completed"
            )
        elif p.goodput_mb_per_s <= 0:
            failures.append(f"{label}: goodput is not positive")
    return failures


def format_faults(points: list[FaultPoint]) -> str:
    """Render the sweep as a fixed-width table."""
    lines = [
        "Goodput under injected frame loss (retrying client, "
        "reply-caching server)",
        f"{'fabric':<8} {'method':<12} {'loss':>6} {'size':>8} "
        f"{'done':>9} {'retries':>7} {'faults':>6} {'MB/s':>8}",
    ]
    for p in points:
        lines.append(
            f"{p.fabric:<8} {p.method:<12} {p.drop_rate:>6.1%} "
            f"{p.size_bytes // 1024:>5}KiB "
            f"{p.completed:>4}/{p.requests:<4} {p.retries:>7} "
            f"{p.faults_injected:>6} {p.goodput_mb_per_s:>8.1f}"
        )
    return "\n".join(lines)
