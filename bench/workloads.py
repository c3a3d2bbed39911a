"""The five benchmark workloads and the real stack they drive.

Every workload runs the same deployment: a client ``ORB`` and a server
``ORB`` on two ``SocketFabric``s in one process, joined by TCP
loopback and one shared ``NamingService``.  All of them are closed
loops: the next request is issued only when an earlier one completed.
Payload contents and argument values come from the run's seed; the
program under test only ever sees the generated inputs.

Why these five (one line each is repeated in ``BENCHMARK.json``):

- ``small_call`` is pure per-request overhead, the regime the paper's
  Figure 4 calls "nearly the same" for both transfer methods.
- ``bulk_echo`` is the paper's 8 MiB experiment size through one
  serial client: the byte path does the work, the hop chain does not.
- ``spmd_multiport`` is the paper's headline path (direct rank-to-rank
  chunks), ``spmd_centralized`` the same call through gather/scatter;
  an optimisation of one method that costs the other shows here.
- ``pipelined_window`` drives the client and server layers
  asynchronously, which ``small_call`` only drives synchronously.
"""

from __future__ import annotations

import gc
import math
import resource
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro import ORB, compile_idl
from repro.orb.naming import NamingService
from repro.orb.socketnet import SocketFabric
from repro.orb.transport import TransportError

#: 2^20 doubles = 8 MiB, the paper's experiment size.  Sizing probes
#: found 2-4 MiB bimodal on a 2 MiB-per-core L2 edge; 8 MiB repeats.
BULK_ELEMENTS = 1 << 20
#: 64 KiB per pipelined request.
WINDOW_ELEMENTS = 1 << 13

IDL = f"""
typedef dsequence<double, {BULK_ELEMENTS}> payload;

interface benchsvc {{
    long bump(in long x);
    payload roundtrip(in payload data);
    double ingest(in payload data);
}};
"""

OBJECT_NAME = "benchsvc"

#: Ops a parallel client runs between two votes on whether the window
#: is over.  Only rank 0 reads the clock; the vote keeps the ranks'
#: collective sequences identical.
STOP_VOTE_EVERY = 16

#: Stretches a timed window is cut into.
SLICES = 10

#: Seconds any single reply may take before the op counts as failed.
REPLY_TIMEOUT_S = 20.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    operation: str
    #: Doubles per distributed argument (0 = no payload).
    elements: int
    client_ranks: int
    server_ranks: int
    transfer: str
    #: Requests the one client keeps in flight.
    window: int = 1

    @property
    def request_payload_bytes(self) -> int:
        return self.elements * 8 if self.elements else 4

    @property
    def reply_payload_bytes(self) -> int:
        if self.operation == "roundtrip":
            return self.elements * 8
        return 4 if self.operation == "bump" else 8

    @property
    def request_frame_payload_bytes(self) -> int:
        """Payload of the largest request-direction frame: the whole
        argument, or one client-rank to server-rank chunk where the
        multi-port method splits it."""
        if self.transfer == "multiport":
            return self.request_payload_bytes // max(
                self.client_ranks, self.server_ranks
            )
        return self.request_payload_bytes


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        "small_call",
        "one serial client, blocking long bump(long): pure per-request "
        "overhead of the proxy-loop-prefetch-dispatch-demux hop chain",
        "bump", 0, 1, 1, "centralized",
    ),
    Workload(
        "bulk_echo",
        "one serial client echoes 2^20 doubles (8 MiB, the paper's "
        "size): cdr buffer views and the socketnet byte path dominate",
        "roundtrip", BULK_ELEMENTS, 1, 1, "centralized",
    ),
    Workload(
        "spmd_multiport",
        "2 client ranks send 8 MiB to 4 servant ranks by the multi-port "
        "method: transfer schedule, direct chunks, agreement collectives",
        "ingest", BULK_ELEMENTS, 2, 4, "multiport",
    ),
    Workload(
        "spmd_centralized",
        "the same call, ranks and payload by the centralized method: "
        "rts gather/scatter and one frame through rank 0",
        "ingest", BULK_ELEMENTS, 2, 4, "centralized",
    ),
    Workload(
        "pipelined_window",
        "one serial client keeps 8 futures of 64 KiB in flight: "
        "ReplyDemux, request prefetcher and deferred reply sender",
        "roundtrip", WINDOW_ELEMENTS, 1, 1, "centralized", window=8,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}


@dataclass
class Inputs:
    """Everything a run derives from its seed."""

    payload: np.ndarray
    #: ``bump`` arguments, cycled through.
    longs: list[int]
    #: What ``ingest`` must return: the sum of server rank 0's block.
    rank0_sum: float


def make_inputs(workload: Workload, seed: int) -> Inputs:
    rng = np.random.default_rng(seed)
    payload = rng.random(workload.elements)
    block = workload.elements // workload.server_ranks
    return Inputs(
        payload=payload,
        longs=rng.integers(-(1 << 30), 1 << 30, size=4096).tolist(),
        rank0_sum=float(payload[:block].sum()),
    )


class Stack:
    """Client and server ORB over two socket fabrics, one servant.

    The set-up split (``compile_s``, ``serve_s``, ``resolve_us``) is
    timed here, around the public calls.
    """

    def __init__(self, workload: Workload, trace: Any = None) -> None:
        self.workload = workload
        start = time.perf_counter()
        self.idl = compile_idl(IDL, module_name="bench_idl")
        self.compile_s = time.perf_counter() - start

        class Servant(self.idl.benchsvc_skel):
            def bump(self, x: int) -> int:
                return x + 1

            def roundtrip(self, data: Any) -> Any:
                return data

            def ingest(self, data: Any) -> float:
                return float(data.local_data().sum())

        start = time.perf_counter()
        self.naming = NamingService()
        self.server_fabric = SocketFabric("bench-server")
        self.client_fabric = SocketFabric("bench-client")
        self.server_orb = ORB(
            "bench-server", fabric=self.server_fabric,
            naming=self.naming, trace=trace, timeout=REPLY_TIMEOUT_S,
        )
        self.client_orb = ORB(
            "bench-client", fabric=self.client_fabric,
            naming=self.naming, trace=trace, timeout=REPLY_TIMEOUT_S,
        )
        self.server_orb.serve(
            OBJECT_NAME, lambda ctx: Servant(),
            nthreads=workload.server_ranks,
        )
        self.serve_s = time.perf_counter() - start
        start = time.perf_counter()
        self.naming.resolve(OBJECT_NAME)
        self.resolve_us = (time.perf_counter() - start) * 1e6

    def close(self) -> list[str]:
        """Shut everything down; returns what was left behind."""
        self.client_orb.shutdown()
        self.server_orb.shutdown()
        self.client_fabric.close()
        self.server_fabric.close()
        problems = []
        for fabric in (self.client_fabric, self.server_fabric):
            if fabric.open_port_count() != 0:
                problems.append(f"{fabric.name}: ports left open")
            try:
                fabric.open_port("after-close")
            except TransportError:
                continue
            problems.append(f"{fabric.name}: still accepts ports")
        return problems


@dataclass
class Slice:
    """A stretch of a timed window."""

    latencies_us: list[float]
    wall_s: float
    #: Process user+sys time: client and server threads together.
    cpu_s: float


@dataclass
class Window:
    """One run of the load generator, as it saw it.  A timed window
    is cut into :data:`SLICES` equal stretches so that the caller can
    tell the seconds in which the host ran slow from the others."""

    slices: list[Slice] = field(default_factory=list)
    bind_us: float = 0.0
    vol_ctx: int = 0
    invol_ctx: int = 0
    threads: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def settle(self, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(problem)

    def begin(self, seconds: float) -> float:
        """Start the clock; returns when the window is over."""
        self._usage = resource.getrusage(resource.RUSAGE_SELF)
        self._open: list[float] = []
        self._slice_s = seconds / SLICES if seconds else math.inf
        self._cpu = time.process_time()
        self._cut_at = time.perf_counter()
        self._next_cut = self._cut_at + self._slice_s
        return self._cut_at + seconds

    def record(self, start: float, end: float) -> None:
        """One completed op."""
        self._open.append((end - start) * 1e6)
        if end >= self._next_cut:
            self._cut(end)
            self._next_cut = end + self._slice_s

    def _cut(self, now: float) -> None:
        cpu = time.process_time()
        self.slices.append(
            Slice(self._open, now - self._cut_at, cpu - self._cpu)
        )
        self._open, self._cut_at, self._cpu = [], now, cpu

    def end(self) -> None:
        if self._open or not self.slices:
            self._cut(time.perf_counter())
        now = resource.getrusage(resource.RUSAGE_SELF)
        self.vol_ctx = now.ru_nvcsw - self._usage.ru_nvcsw
        self.invol_ctx = now.ru_nivcsw - self._usage.ru_nivcsw
        self.threads = threading.active_count()


class _Checker:
    def __init__(self, workload: Workload, inputs: Inputs) -> None:
        self._operation = workload.operation
        self._elements = workload.elements
        self._inputs = inputs

    def __call__(self, argument: Any, reply: Any, full: bool) -> str | None:
        """``None`` when ``reply`` is right, else what is wrong."""
        if self._operation == "bump":
            if reply == argument + 1:
                return None
            return f"bump({argument}) returned {reply}"
        if self._operation == "ingest":
            expected = self._inputs.rank0_sum
            if math.isclose(reply, expected, rel_tol=1e-12):
                return None
            return f"ingest returned {reply}, expected {expected}"
        if reply.length() != self._elements:
            return f"echo of {self._elements} came back {reply.length()}"
        if full and not np.array_equal(
            reply.local_data(), self._inputs.payload
        ):
            return "echo differs from what was sent"
        return None


def run_client(
    stack: Stack,
    inputs: Inputs,
    *,
    calls: int | None = None,
    seconds: float = 0.0,
) -> Window:
    """Bind a fresh client and run it for ``calls`` ops (the warm-up:
    every reply compared in full) or for ``seconds`` (the timed
    window: cheap checks per op, the last reply compared in full).

    An op that raises ends the run and counts as failed; a wrong reply
    counts as failed and the run goes on.
    """
    gc.collect()
    workload = stack.workload
    if workload.client_ranks > 1:
        windows = stack.client_orb.run_spmd_client(
            workload.client_ranks, _parallel_body, stack, inputs, calls,
            seconds,
        )
        return windows[0]
    body = _windowed_body if workload.window > 1 else _blocking_body
    runtime = stack.client_orb.client_runtime(
        label="bench", pipeline_depth=workload.window
    )
    try:
        return body(runtime, stack, inputs, calls, seconds)
    finally:
        runtime.close()


def _bind(stack: Stack, runtime: Any, window: Window) -> Any:
    start = time.perf_counter()
    proxy = stack.idl.benchsvc._spmd_bind(
        OBJECT_NAME, runtime, transfer=stack.workload.transfer
    )
    window.bind_us = (time.perf_counter() - start) * 1e6
    return proxy


def _check_last(window: Window, problem: str | None) -> None:
    """The full comparison of a timed window's last reply is not
    another op: it only counts when it fails."""
    if problem is not None:
        window.settle(problem)


def _blocking_body(
    runtime: Any, stack: Stack, inputs: Inputs, calls: int | None,
    seconds: float,
) -> Window:
    workload = stack.workload
    window = Window()
    check = _Checker(workload, inputs)
    call = getattr(_bind(stack, runtime, window), workload.operation)
    data = (
        stack.idl.payload.from_global(inputs.payload)
        if workload.elements else None
    )
    longs = inputs.longs
    warm_up = calls is not None
    clock = time.perf_counter
    argument = reply = None
    deadline = window.begin(seconds)
    try:
        while True:
            argument = (
                longs[window.attempted % len(longs)]
                if data is None else data
            )
            start = clock()
            reply = call(argument)
            end = clock()
            window.record(start, end)
            window.settle(check(argument, reply, warm_up))
            if warm_up:
                if window.attempted >= calls:
                    break
            elif end >= deadline:
                break
    except Exception as exc:  # noqa: BLE001 - counted and reported
        window.settle(f"{type(exc).__name__}: {exc}")
        reply = None
    window.end()
    if reply is not None and not warm_up:
        _check_last(window, check(argument, reply, True))
    return window


def _windowed_body(
    runtime: Any, stack: Stack, inputs: Inputs, calls: int | None,
    seconds: float,
) -> Window:
    """Sliding window: wait for the oldest future, issue a new one."""
    workload = stack.workload
    window = Window()
    check = _Checker(workload, inputs)
    issue = getattr(
        _bind(stack, runtime, window), workload.operation + "_nb"
    )
    data = stack.idl.payload.from_global(inputs.payload)
    warm_up = calls is not None
    clock = time.perf_counter
    pending: deque[tuple[float, Any]] = deque()
    issued = 0
    reply = None
    deadline = window.begin(seconds)
    try:
        while True:
            while len(pending) < workload.window and (
                issued < calls if warm_up else clock() < deadline
            ):
                pending.append((clock(), issue(data)))
                issued += 1
            if not pending:
                break
            start, future = pending.popleft()
            reply = future.value(timeout=REPLY_TIMEOUT_S)
            window.record(start, clock())
            window.settle(check(data, reply, warm_up))
    except Exception as exc:  # noqa: BLE001 - counted and reported
        window.settle(f"{type(exc).__name__}: {exc}")
        reply = None
        for _start, future in pending:
            future.exception(timeout=REPLY_TIMEOUT_S)
    window.end()
    if reply is not None and not warm_up:
        _check_last(window, check(data, reply, True))
    return window


def _parallel_body(
    ctx: Any, stack: Stack, inputs: Inputs, calls: int | None,
    seconds: float,
) -> Window:
    """One rank of the parallel client.  Every rank keeps a window;
    the caller reads rank 0's.  A collective invocation fails on all
    ranks alike, so they leave the loop at the same op."""
    workload = stack.workload
    window = Window()
    check = _Checker(workload, inputs)
    call = getattr(_bind(stack, ctx.runtime, window), workload.operation)
    data = stack.idl.payload.from_global(inputs.payload, comm=ctx.comm)
    warm_up = calls is not None
    clock = time.perf_counter
    ctx.comm.barrier()
    deadline = window.begin(seconds)
    try:
        over = False
        while not over:
            burst = STOP_VOTE_EVERY
            if warm_up:
                burst = min(burst, calls - window.attempted)
            for _ in range(burst):
                start = clock()
                reply = call(data)
                window.record(start, clock())
                window.settle(check(data, reply, warm_up))
            if warm_up:
                over = window.attempted >= calls
            else:
                over = ctx.comm.bcast(clock() >= deadline, root=0)
    except Exception as exc:  # noqa: BLE001 - counted and reported
        window.settle(f"{type(exc).__name__}: {exc}")
    window.end()
    return window
