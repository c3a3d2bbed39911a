"""Replicated-group benchmark: goodput through a replica kill.

Measures the :mod:`repro.groups` failover path end to end: a client
binds a replicated echo group through the ORB's naming directory, drives
pipelined bursts of invocations in fixed-size *windows*, and midway
through the run the replica it is bound to is killed abruptly (ports
closed, no unbind — a crash, not a shutdown).  The client's FtPolicy
exhausts its retries against the dead replica, the engine fails the
binding over to a sibling, and the interrupted invocations are
re-issued there.

The figure of merit is the *recovery curve*: per-window goodput
(payload megabytes per second, both directions) across the run.  The
window containing the kill absorbs the failure-detection latency and
craters; the windows after it run against the surviving replicas.
The CI gate compares the mean goodput of the post-kill windows
against the pre-kill steady state — recovery must reach at least
``min_ratio`` (default 0.7) of steady state, every invocation must
complete, and no window may surface a client-visible error.
Absolute MB/s is machine-dependent and never gated on; the ratio is
not.  See ``tools/bench_groups.py`` and ``docs/robustness.md``.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Any

import numpy as np

#: The echoed operation; bounded so buffers preallocate.
GROUPS_IDL = """
typedef dsequence<double, 262144> payload;

interface groupecho {
    payload roundtrip(in payload data);
};
"""

#: Default group size (the acceptance criterion's 3 replicas).
DEFAULT_REPLICAS = 3

#: Default run shape: 8 windows, kill while window 3 is in flight.
DEFAULT_WINDOWS = 8
DEFAULT_KILL_WINDOW = 3

#: Pipelined invocations per window.
DEFAULT_REQUESTS = 24

#: Default payload: 64 KiB per invocation.
DEFAULT_SIZE = 64 << 10

#: Per-attempt timeout (seconds).  Failure detection costs
#: (1 + max_retries) of these before the failover vote fires, so it
#: bounds the depth of the kill window's goodput crater.
DEFAULT_TIMEOUT_S = 0.3

#: CI smoke parameters.
SMOKE_WINDOWS = 7
SMOKE_KILL_WINDOW = 2
SMOKE_REQUESTS = 20
SMOKE_SIZE = 32 << 10

#: Server-side reply-cache budget per replica, so a retried request
#: to a live replica dedups instead of re-executing.
REPLY_CACHE_BYTES = 4 << 20

#: Recovery-goodput gate: post-kill windows must average at least
#: this fraction of the pre-kill steady state.
DEFAULT_MIN_RATIO = 0.7


@dataclass(frozen=True)
class GroupWindow:
    """One window of the recovery curve."""

    window: int
    #: 'steady' before the kill, 'kill' for the window the replica
    #: dies in, 'recovered' after.
    phase: str
    requests: int
    completed: int
    errors: int
    #: Replica the proxy targets once the window drains.
    replica: int
    #: Cumulative client failovers observed after the window.
    failovers: int
    seconds: float
    #: Completed payload megabytes per second (both directions).
    goodput_mb_per_s: float


def _compiled_idl() -> Any:
    from repro import compile_idl

    return compile_idl(GROUPS_IDL, module_name="groups_bench_idl")


def _make_servant_factory(idl: Any) -> Any:
    class EchoServant(idl.groupecho_skel):
        def roundtrip(self, data: Any) -> Any:
            return data

    return lambda ctx: EchoServant()


def _policy() -> Any:
    from repro.ft import FtPolicy

    # One retry against a dead replica before failover engages:
    # detection then costs two attempt timeouts, keeping the kill
    # window's crater shallow while still exercising the retry path.
    return FtPolicy(
        max_retries=1,
        backoff_base_ms=2.0,
        backoff_cap_ms=10.0,
    )


def run_groups(
    replicas: int = DEFAULT_REPLICAS,
    windows: int = DEFAULT_WINDOWS,
    kill_window: int = DEFAULT_KILL_WINDOW,
    requests: int = DEFAULT_REQUESTS,
    size_bytes: int = DEFAULT_SIZE,
    seed: int = 7,
    drop_rate: float = 0.0,
    timeout_s: float = DEFAULT_TIMEOUT_S,
) -> list[GroupWindow]:
    """Run the recovery curve and return one point per window.

    The client issues every window as a pipelined burst (all
    ``*_nb`` invocations first, then drains).  At window
    ``kill_window`` the replica the proxy is currently bound to is
    killed *after the burst is in flight*, so the interrupted
    invocations exercise detection, the failover vote, and the
    re-issue on the sibling.  With ``drop_rate`` > 0 the client fabric
    additionally drops frames from a :class:`FaultSchedule` seeded
    from ``seed``, layering background loss under the kill.
    """
    from repro import ORB

    if not 0 < kill_window < windows:
        raise ValueError("kill_window must fall inside the run")

    idl = _compiled_idl()
    n = max(size_bytes // 8, 1)

    fabric = None
    if drop_rate > 0.0:
        from repro.ft.faults import FaultSchedule, FaultyFabric
        from repro.orb.transport import Fabric

        fabric = FaultyFabric(
            Fabric("groups-bench"),
            FaultSchedule(seed=seed, drop=drop_rate),
        )

    orb = ORB(
        "groups-bench",
        fabric=fabric,
        timeout=timeout_s,
    )
    points = []
    with orb:
        group = orb.serve_replicated(
            "groupecho",
            _make_servant_factory(idl),
            replicas=replicas,
            nthreads=1,
            reply_cache_bytes=REPLY_CACHE_BYTES,
        )
        runtime = orb.client_runtime(label="groups-bench")
        try:
            proxy = idl.groupecho._group_bind(
                "groupecho",
                runtime,
                ft_policy=_policy(),
            )
            arr = np.arange(n, dtype=np.float64)
            data = idl.payload.from_global(arr)
            killed = False
            for w in range(windows):
                errors = 0
                completed = 0
                start = time.perf_counter()
                futures = [
                    proxy.roundtrip_nb(data) for _ in range(requests)
                ]
                if w == kill_window and not killed:
                    killed = True
                    group.kill(proxy._group.current_replica())
                for future in futures:
                    try:
                        result = future.value(timeout=60.0)
                        if result.length() != n:
                            raise RuntimeError(
                                "group echo returned a wrong length"
                            )
                        completed += 1
                    except Exception:
                        errors += 1
                seconds = time.perf_counter() - start
                moved = 2 * n * 8 * completed
                phase = (
                    "steady"
                    if w < kill_window
                    else ("kill" if w == kill_window else "recovered")
                )
                points.append(
                    GroupWindow(
                        window=w,
                        phase=phase,
                        requests=requests,
                        completed=completed,
                        errors=errors,
                        replica=proxy._group.current_replica(),
                        failovers=len(proxy._group.history),
                        seconds=seconds,
                        goodput_mb_per_s=moved / seconds / 1e6,
                    )
                )
        finally:
            runtime.close()
            group.shutdown()
    return points


def summarize(points: list[GroupWindow]) -> dict:
    """Steady-state vs recovery goodput and their ratio.

    Steady state averages the pre-kill windows after the first (the
    warm-up window pays bind/JIT costs); recovery averages every
    post-kill window.  The kill window itself is reported in the
    curve but belongs to neither mean — it measures detection
    latency, not throughput.
    """
    steady = [
        p.goodput_mb_per_s
        for p in points
        if p.phase == "steady" and p.window > 0
    ] or [p.goodput_mb_per_s for p in points if p.phase == "steady"]
    recovered = [
        p.goodput_mb_per_s for p in points if p.phase == "recovered"
    ]
    steady_mb = sum(steady) / len(steady) if steady else 0.0
    recovered_mb = (
        sum(recovered) / len(recovered) if recovered else 0.0
    )
    return {
        "steady_state_mb_per_s": steady_mb,
        "recovery_mb_per_s": recovered_mb,
        "recovery_ratio": (
            recovered_mb / steady_mb if steady_mb > 0 else 0.0
        ),
        "failovers": max((p.failovers for p in points), default=0),
        "errors": sum(p.errors for p in points),
    }


def points_as_dicts(points: list[GroupWindow]) -> list[dict]:
    """The windows as JSON-ready dicts."""
    return [asdict(p) for p in points]


def gate_failures(
    points: list[GroupWindow],
    min_ratio: float = DEFAULT_MIN_RATIO,
) -> list[str]:
    """The CI gate: zero client-visible errors, every invocation
    completed, exactly one failover, and recovery goodput at least
    ``min_ratio`` of steady state."""
    failures = []
    summary = summarize(points)
    for p in points:
        if p.errors:
            failures.append(
                f"window {p.window}: {p.errors} client-visible "
                "error(s)"
            )
        elif p.completed != p.requests:
            failures.append(
                f"window {p.window}: {p.completed}/{p.requests} "
                "completed"
            )
    if summary["failovers"] != 1:
        failures.append(
            f"expected exactly 1 failover, saw {summary['failovers']}"
        )
    if summary["recovery_ratio"] < min_ratio:
        failures.append(
            f"recovery goodput is {summary['recovery_ratio']:.2f}x "
            f"steady state (gate: >= {min_ratio:.2f}x)"
        )
    return failures


def format_groups(points: list[GroupWindow]) -> str:
    """Render the recovery curve as a fixed-width table."""
    summary = summarize(points)
    lines = [
        "Recovery curve through a replica kill "
        "(retrying client, reply-caching replicas)",
        f"{'win':>3} {'phase':<10} {'done':>9} {'errs':>4} "
        f"{'replica':>7} {'flips':>5} {'MB/s':>8}",
    ]
    for p in points:
        lines.append(
            f"{p.window:>3} {p.phase:<10} "
            f"{p.completed:>4}/{p.requests:<4} {p.errors:>4} "
            f"{p.replica:>7} {p.failovers:>5} "
            f"{p.goodput_mb_per_s:>8.1f}"
        )
    lines.append(
        f"steady {summary['steady_state_mb_per_s']:.1f} MB/s, "
        f"recovered {summary['recovery_mb_per_s']:.1f} MB/s "
        f"({summary['recovery_ratio']:.2f}x)"
    )
    return "\n".join(lines)
